//! A runnable peer-to-peer media streaming node.
//!
//! This crate turns the paper's algorithms into a working system: real OS
//! threads, real TCP sockets on the loopback interface, real paced segment
//! transmission. A deployment consists of one [`DirectoryServer`]
//! (the Napster-style lookup service of §4.2) and any number of
//! [`PeerNode`]s:
//!
//! * A **seed** node owns the media file from the start and registers as a
//!   supplier (paper §2(1) "seed supplying peers").
//! * Any other node calls [`PeerNode::request_stream`]: it queries the
//!   directory for `M` candidates, runs the `DACp2p` admission handshake
//!   against them (grants, denials, reminders, releases — the exact
//!   protocol logic of `p2ps-core`, driven over TCP), computes the
//!   `OTSp2p` assignment across the granting suppliers, and receives the
//!   stream while measuring its real buffering delay. When the session
//!   completes the node stores the file and registers as a supplier
//!   itself — the system's capacity grows exactly as the paper describes.
//!
//! The admission state machines are shared verbatim with the simulator
//! (`p2ps-core::admission`); only the transport differs.
//!
//! Both halves are event-driven: the directory, every node's supplier
//! side (admission handshake, reminder collection, §3 paced streaming)
//! *and* every node's requester side (paced reception, reassembly, live
//! replanning on supplier departure) run as sans-io state machines on a
//! `p2ps-net` epoll reactor, with pacing and read timeouts on its timer
//! wheel. A [`NodeReactor`] is a pool of 1..N such reactor threads:
//! nodes shard across it by tag, requester sessions by session id, so
//! one process carries thousands of full-duplex sessions and scales
//! across cores ([`NodeReactor::with_threads`]). A requester's whole
//! session is one sans-io [`RequesterMachine`] — the same one
//! `p2ps-simnet` hosts — from the §4.2 round, which probes every
//! candidate lane *concurrently* (`M` candidates cost ~max(RTT) instead
//! of Σ(RTT), a frozen candidate burns only its own timeout), through
//! the §3 plan to the last segment and every replan in between. It also
//! makes every decision that reads a clock — the hand-off stamp Theorem
//! 1's start-up delay counts from, each lane's reply and progress
//! deadline — against the µs reading its host passes in with every
//! input, and tells the host when to wake it. The reactor and simnet are
//! adapters: they move frames, closes and wake-ups, and decide nothing.
//! [`PeerNode::begin_stream`] just connects and returns a
//! [`PendingStream`] — the verdict (including
//! [`NodeError::Rejected`]) surfaces at [`PendingStream::wait`] — so
//! hundreds of receiving sessions can be in flight without a thread
//! each.
//!
//! One deliberate addition over the paper: a supplier that issues a grant
//! holds a short *reservation* until the requester either confirms
//! (`StartSession`) or releases it. Without this, two concurrent
//! requesters could both secure the same supplier — a race the paper's
//! event-ordered simulation never exhibits but a real system must handle.
//!
//! # Examples
//!
//! ```no_run
//! use p2ps_node::{DirectoryServer, NodeConfig, PeerNode, Swarm};
//! use p2ps_core::PeerClass;
//! use p2ps_media::MediaInfo;
//! use p2ps_core::assignment::SegmentDuration;
//!
//! // A 2-second "video" of 25 ms segments, streamed across a small swarm.
//! let info = MediaInfo::new("demo", 80, SegmentDuration::from_millis(25), 2_048);
//! let mut swarm = Swarm::start(info, 4)?; // 4 class-1 seeds
//! let outcome = swarm.stream_one(PeerClass::new(2)?, 8)?;
//! println!("streamed from {} suppliers", outcome.supplier_count);
//! # Ok::<(), p2ps_node::NodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod clock;
mod directory;
mod driver;
mod error;
mod machine;
mod node;
mod requester;
mod serve;
mod supplier;
mod swarm;

pub use args::{Args, ArgsError};
pub use clock::Clock;
pub use directory::{query_candidates, register_supplier, DirectoryServer, ShardedRegistry};
pub use driver::SessionDriver;
pub use error::NodeError;
pub use machine::{RequesterAction, RequesterMachine};
pub use node::{NodeConfig, PeerNode, PendingStream, StreamOutcome};
pub use serve::{NodeReactor, WatchdogConfig};
pub use swarm::Swarm;
