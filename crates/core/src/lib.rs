//! Core algorithms from *On Peer-to-Peer Media Streaming*
//! (D. Xu, M. Hefeeda, S. Hambrusch, B. Bhargava — ICDCS 2002).
//!
//! The paper models a peer-to-peer system that streams a stored
//! constant-bit-rate media file. A **requesting peer** receives the stream
//! at the full playback rate `R0`; a **supplying peer** contributes an
//! out-bound bandwidth of `R0 / 2^(k-1)` where `k` is the peer's *class*
//! (class 1 is the highest). Because a single supplier may offer less than
//! `R0`, one streaming session aggregates several suppliers whose offers sum
//! to exactly `R0`. After a session finishes, the requesting peer becomes a
//! supplying peer, so the system's capacity grows over time.
//!
//! This crate implements the paper's two contributions plus the
//! model-level types they need:
//!
//! * [`assignment`] — the `OTSp2p` **optimal media data assignment**
//!   (paper §3, Theorem 1) together with baseline assignments and an
//!   exhaustive optimality checker.
//! * [`admission`] — the `DACp2p` **distributed differentiated admission
//!   control** protocol (paper §4): per-class admission probability
//!   vectors, relax/tighten dynamics, the *reminder* mechanism,
//!   requester-side probing and exponential backoff, and the
//!   non-differentiated `NDACp2p` baseline.
//! * [`PeerClass`], [`Bandwidth`], [`PeerId`] — exact model arithmetic.
//! * [`CapacityTracker`] — the paper's system-capacity definition
//!   `C(t) = Σ out-bound bandwidth / R0`.
//!
//! # Quickstart
//!
//! ```
//! use p2ps_core::assignment::{otsp2p, SegmentDuration};
//! use p2ps_core::PeerClass;
//!
//! // The Figure-1 session: suppliers of classes 2, 3, 4 and 4 together
//! // offer R0/2 + R0/4 + R0/8 + R0/8 = R0.
//! let classes = [
//!     PeerClass::new(2)?,
//!     PeerClass::new(3)?,
//!     PeerClass::new(4)?,
//!     PeerClass::new(4)?,
//! ];
//! let assignment = otsp2p(&classes)?;
//! // Theorem 1: minimum buffering delay is n·δt for n suppliers.
//! assert_eq!(assignment.buffering_delay_slots(), 4);
//! let dt = SegmentDuration::from_millis(1_000);
//! assert_eq!(assignment.buffering_delay(dt).as_millis(), 4_000);
//! # Ok::<(), p2ps_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod assignment;
mod capacity;
mod error;
mod types;

pub use capacity::CapacityTracker;
pub use error::Error;
pub use types::{Bandwidth, PeerClass, PeerId};

/// Convenient alias for results with this crate's [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// SplitMix64 (Steele, Lea and Flood): adds the golden-ratio increment
/// to `x`, then avalanches it. The workspace's one copy of the mixer:
/// policy tie-breaks, Chord ids and the engine's per-peer streams all
/// call it.
///
/// # Examples
///
/// ```
/// // The first draw of a SplitMix64 stream seeded at 0.
/// assert_eq!(p2ps_core::splitmix64(0), 0xe220_a839_7b1d_cdaf);
/// ```
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
