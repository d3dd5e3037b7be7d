//! Pins the simulated transport's allocation contract: a chunk in flight
//! costs no allocation. A run encodes every frame in place into one wire
//! log, a chunk is a range of that log, and each link's chunks wait in a
//! FIFO threaded through one chunk slab behind one heap entry — so
//! cutting the same run into far more chunks adds events, not
//! allocations.
//!
//! Every `(seed, scenario)` below runs twice: with chunks of up to 64
//! bytes, then with every byte its own chunk. The second run replays the
//! same session over many more events; the allocations it adds must stay
//! under one per ten events it adds. (A transport that boxes each chunk
//! adds about one allocation per event.)
//!
//! The allocator counts per thread, and a run happens on the calling
//! thread, so the count is this test's own.

use p2ps_simnet::{ScenarioKind, Schedule, SimWorld};
use p2ps_testkit::thread_allocs;

#[global_allocator]
static A: p2ps_testkit::CountingAlloc = p2ps_testkit::CountingAlloc;

/// `(events, allocations)` of one run of `schedule`, the report dropped.
fn measure(schedule: Schedule) -> (u64, u64) {
    let before = thread_allocs();
    let events = SimWorld::new(schedule).run().events;
    (events, thread_allocs() - before)
}

#[test]
fn fragmenting_a_run_finer_adds_events_not_allocations() {
    let mut rows = Vec::new();
    for scenario in [ScenarioKind::Steady, ScenarioKind::Loss] {
        for seed in 0..12u64 {
            let mut schedule = Schedule::derive(seed, scenario);
            schedule.max_chunk = 64;
            let (coarse_events, coarse_allocs) = measure(schedule.clone());
            schedule.max_chunk = 1;
            let (fine_events, fine_allocs) = measure(schedule);
            assert!(
                fine_events > coarse_events,
                "{} seed {seed}: byte-sized chunks must add events",
                scenario.name()
            );
            let extra_events = fine_events - coarse_events;
            let extra_allocs = fine_allocs.saturating_sub(coarse_allocs);
            rows.push(format!(
                "  {} seed {seed}: {coarse_events} -> {fine_events} events, \
                 {coarse_allocs} -> {fine_allocs} allocations",
                scenario.name()
            ));
            assert!(
                extra_allocs * 10 < extra_events,
                "{} seed {seed}: {extra_events} extra events cost {extra_allocs} extra \
                 allocations; the pin is under one per ten. A chunk in flight must stay a \
                 length in its link's FIFO over a reused pipe (crates/simnet/src/world.rs).\n{}",
                scenario.name(),
                rows.join("\n")
            );
        }
    }
}
