//! Pins the flight recorder's allocation contract: recording into a live
//! ring — a recorder handed out by a monitor scope, the shape every
//! session holds — performs **zero** heap allocations per event, wraps
//! included. (The disabled recorder's cost is the benchmark ledger's
//! `monitor.record_disabled_ns` row.)
//!
//! The allocator counts per thread, and recording happens on the calling
//! thread, so the count is this test's own.

use p2ps_monitor::Monitor;
use p2ps_testkit::thread_allocs;

#[global_allocator]
static A: p2ps_testkit::CountingAlloc = p2ps_testkit::CountingAlloc;

#[test]
fn recording_into_a_live_ring_allocates_nothing() {
    const WARMUP: u64 = 1_024;
    // Far more events than the ring holds: every slot is overwritten
    // many times over inside the measured region.
    const MEASURED: u64 = 65_536;

    let root = Monitor::root();
    let scope = root.child("reactor", 0).child("session", 1);
    let events = scope.events("events", "pinned ring");
    assert!(events.is_enabled());
    for i in 0..WARMUP {
        events.record(6, i, i);
    }

    let before = thread_allocs();
    for i in 0..MEASURED {
        events.record(6, i, i);
    }
    let delta = thread_allocs() - before;
    assert_eq!(
        delta, 0,
        "recording {MEASURED} events into a live ring allocated {delta} times; the pin is \
         0 allocations per recorded event (docs/OBSERVABILITY.md). To move it on purpose, \
         change the expected count in this test in the commit that adds the allocation and \
         say why there — never let it drift."
    );
    assert_eq!(events.count(), WARMUP + MEASURED);
}
