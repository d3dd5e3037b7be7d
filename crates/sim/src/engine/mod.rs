//! Capacity-amplification engine: a compact-state, sharded
//! discrete-event simulator sized for 10⁵–10⁶ peers.
//!
//! The legacy [`crate::Simulation`] models every paper figure with
//! per-peer heap objects and a single event loop; it is exact but tops
//! out around 10⁴ peers. This module trades generality for scale:
//!
//! * [`store`] — struct-of-arrays peer state (40 bytes/peer, zero
//!   allocations per event on the steady path) with the §4.1 admission
//!   vector nibble-packed into a `u64`.
//! * [`queue`] — a flat indexed binary heap backing both the legacy
//!   [`crate::EventQueue`] and the engine's per-shard queues.
//! * [`config`] — [`AmpConfig`]: population, catalog (Zipf popularity),
//!   arrival process (Poisson / flash crowd), churn, shard and thread
//!   counts.
//! * [`run`] — [`AmpEngine`]: a bulk-synchronous-parallel event loop.
//!   Peers are hash-partitioned over a *fixed* logical shard count;
//!   shards advance in virtual-time epochs and exchange probe/grant
//!   messages only at epoch boundaries — bucketed by destination shard,
//!   each touched once, and only the answers a requester acts on sent —
//!   in rounds that sort nothing but the few messages whose order shows,
//!   so one `u64` seed yields bit-identical traces at 1, 2, or N
//!   worker threads.
//! * [`report`] — [`AmpReport`]: capacity-evolution and rejection-rate
//!   curves, time to N-fold serving capacity, and a trace digest for
//!   cross-shard and cross-thread equivalence checks.

mod config;
mod queue;
mod report;
mod run;
mod store;

pub use config::{AmpConfig, AmpConfigBuilder, AmpConfigError};
pub use queue::IndexedHeap;
pub use report::{AmpReport, FoldCrossing};
pub use run::AmpEngine;
