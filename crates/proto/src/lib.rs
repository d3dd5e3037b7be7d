//! Wire protocol for the `p2ps` peer node.
//!
//! Peers and the directory server exchange length-prefixed binary frames.
//! The codec is hand-rolled on top of [`bytes`] — no serialization
//! framework — so the byte layout is explicit, stable and cheap to parse:
//!
//! ```text
//! frame  := len:u32le  body
//! body   := tag:u8     fields…       (layout per message, see `Message`)
//! ```
//!
//! Framing is **sans-io**: [`FrameDecoder`] and [`FrameEncoder`] hold the
//! protocol half of a connection (accumulation, frame boundaries,
//! zero-copy payload views) for any transport, and the crate performs no
//! I/O of its own. The `p2ps-net` reactor handlers feed and drain them;
//! a blocking client writes [`encode_frame`]'s output and hands
//! [`decode_frame`] one frame read in two exact reads (the length
//! prefix, then the body).
//!
//! The message set covers the three planes of the paper's protocol:
//!
//! * **Lookup** — register with / query the directory (`Register`,
//!   `QueryCandidates`, `Candidates`).
//! * **Admission** — the `DACp2p` handshake (`StreamRequest`, `Grant`,
//!   `Deny`, `Release`, `Reminder`).
//! * **Streaming** — session setup and paced segment delivery
//!   (`StartSession`, `SegmentData`, `EndSession`).
//!
//! # Examples
//!
//! ```
//! use bytes::BytesMut;
//! use p2ps_proto::{decode_frame, encode_frame, Message};
//! use p2ps_core::PeerClass;
//!
//! let msg = Message::StreamRequest { session: 42, class: PeerClass::new(2)? };
//! let mut buf = BytesMut::new();
//! encode_frame(&msg, &mut buf);
//! let decoded = decode_frame(&mut buf)?.expect("complete frame");
//! assert_eq!(decoded, msg);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod chunks;
mod codec;
mod error;
mod event;
mod message;
mod requester;
mod sansio;
mod supplier;
mod supplier_conn;

pub use admission::{AdmissionAction, AdmissionDriver, AdmissionVerdict};
pub use chunks::{ChunkQueue, MAX_GATHER_SLICES};
pub use codec::{decode_frame, encode_frame, MAX_FRAME_LEN};
pub use error::DecodeError;
pub use event::SessionEvent;
pub use message::{CandidateRecord, Message, SessionPlan};
pub use requester::{startup_term_us, RequesterSession, SessionPhase};
pub use sansio::{FrameDecoder, FrameEncoder};
pub use supplier::{ScheduleError, SupplierSchedule};
pub use supplier_conn::{
    Flow, Pace, Step, SupplierAdmission, SupplierConn, GRANT_TTL_MS, PACE_BACKPRESSURE_BYTES,
};
