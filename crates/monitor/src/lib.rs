//! Live introspection for a running `p2ps` process: a tree of atomic
//! gauges, counters and state cells that the hot paths update without
//! taking any lock, snapshotable at any moment from any thread.
//!
//! At 256+ reactor-hosted sessions per process (see `p2ps-node`) nothing
//! can be debugged with printlns: the question "what is this node doing
//! *right now*" needs a data structure the data path can feed for
//! nanoseconds per event and an observer can walk without perturbing it.
//! This crate is that structure, in three layers:
//!
//! * **Primitives** — [`Counter`] (monotone `u64`), [`Gauge`] (signed
//!   level), [`StateCell`] (one of a fixed set of named states). All are
//!   cloneable handles to one shared atomic; every update and read is a
//!   single relaxed atomic operation. No update path ever blocks.
//! * **The tree** — a [`Monitor`] is a node in a forest of labeled
//!   scopes (`reactor=0` → `session=42` → …). Components register their
//!   metrics on the node describing them and keep the handles; when the
//!   owner drops its node (a session ends, a reactor stops), the whole
//!   subtree vanishes from subsequent snapshots automatically. Creating
//!   nodes and registering metrics takes a short registration lock —
//!   but registration happens at attach/session boundaries, never on
//!   the per-segment serving path.
//! * **Consumers** — [`Monitor::snapshot`] walks the live tree into a
//!   [`Snapshot`] whose rows keep *handles* (an observer can both read
//!   fresh values and flip a state cell), and
//!   renders as Prometheus text exposition
//!   ([`Snapshot::to_prometheus`]) or feeds human tables
//!   (`p2psd status`). [`StatusServer`] serves the exposition over a
//!   loopback HTTP endpoint. A [`Recorder`] is the same idea for
//!   *timelines*: a lock-free flight-recorder ring of structured events
//!   per session, dumpable as `/trace/<session>`. The same server
//!   thread samples the tree once a second into bounded
//!   `p2ps_metrics::TimeSeries` windows served as `/timeseries` CSV.
//!
//! The shape follows ouisync's `state_monitor`/`deadlock` packages
//! (observe the real system, not a model of it) with the registration
//! idiom kept swappable the way MoosicBox wraps its instrumentation.
//!
//! # Examples
//!
//! Registering a custom gauge and reading it back through a snapshot:
//!
//! ```
//! use p2ps_monitor::Monitor;
//!
//! let root = Monitor::root();
//! let shard = root.child("reactor", 0);
//! let depth = shard.gauge("queue_depth", "bytes queued for write");
//!
//! depth.set(4096);          // hot path: one relaxed atomic store
//! depth.add(-1024);
//!
//! let snap = root.snapshot();
//! let row = snap.find(&[("reactor", "0")], "queue_depth").unwrap();
//! assert_eq!(row.value().as_i64(), 3072);
//! let text = snap.to_prometheus("p2ps");
//! assert!(text.contains("p2ps_reactor_queue_depth{reactor=\"0\"} 3072"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bridge;
mod expose;
mod recorder;
mod tree;

pub use expose::{fetch_path, fetch_status, StatusServer};
pub use recorder::{RawEvent, Recorder, DEFAULT_EVENT_CAPACITY};
pub use tree::{
    Counter, Gauge, MetricHandle, Monitor, SampleValue, Snapshot, SnapshotMetric, SnapshotNode,
    StateCell,
};

use std::sync::OnceLock;
use std::time::Instant;

/// Milliseconds since the first call in this process — one shared
/// monotone timescale for progress timestamps, comparable across
/// reactor shards and observer threads (each reactor's own `now_ms`
/// counts from its private start instant and cannot be compared).
pub fn monotonic_ms() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64
}

#[cfg(test)]
mod clock_tests {
    use super::monotonic_ms;

    #[test]
    fn monotone_and_shared() {
        let a = monotonic_ms();
        std::thread::sleep(std::time::Duration::from_millis(3));
        let b = monotonic_ms();
        assert!(b >= a + 2, "{a} -> {b}");
    }
}
