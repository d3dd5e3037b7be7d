//! Peer lookup substrates for the `p2ps` reproduction.
//!
//! The paper's requesting peers obtain their `M` random candidate
//! supplying peers "via some peer-to-peer lookup mechanism … for example,
//! by querying a centralized directory server as in Napster, or by using a
//! distributed lookup service such as Chord" (§4.2, footnote 4). This
//! crate implements both ends of that spectrum:
//!
//! * [`Directory`] — a Napster-style centralized directory with `O(1)`
//!   uniform random candidate sampling, plus [`SharedDirectory`], the
//!   same table striped behind locks for callers that share it between
//!   threads.
//! * [`chord`] — a Chord consistent-hashing ring with finger tables and
//!   `O(log n)` iterative lookup, storing the supplier list of each media
//!   item at the key's successor node.
//!
//! Both implement the [`Rendezvous`] trait, so the admission layer is
//! agnostic to which lookup service the deployment uses, and both keep
//! their suppliers in one table type with one sampling routine. The
//! node's TCP directory server indexes through that trait: a
//! [`Directory`] for the Napster option, a [`chord::ChordRing`] for the
//! Chord one.
//!
//! # Examples
//!
//! ```
//! use p2ps_lookup::{Directory, Rendezvous};
//! use p2ps_core::{PeerClass, PeerId};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut dir = Directory::new();
//! for i in 0..20 {
//!     dir.register("video", PeerId::new(i), PeerClass::new(1 + (i % 4) as u8)?);
//! }
//! let mut rng = SmallRng::seed_from_u64(7);
//! let candidates = dir.sample("video", 8, &mut rng);
//! assert_eq!(candidates.len(), 8);
//! # Ok::<(), p2ps_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chord;
mod directory;
mod rendezvous;

pub use directory::{Directory, SharedDirectory};
pub use rendezvous::{CandidateInfo, Rendezvous};
