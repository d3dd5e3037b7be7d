//! Pins the zero-allocation steady path of the amplification engine:
//! on a warmed [`AmpEngine`] (one prior identical run, then `reset`),
//! `execute()` with one worker thread performs **zero** heap
//! allocations — every store, queue, inbox, exchange bucket, and curve
//! retained its capacity across the reset.
//!
//! The allocator counts per thread; with one worker the engine runs on
//! the calling thread, so the count is this test's own.

use p2ps_sim::{AmpConfig, AmpEngine};
use p2ps_testkit::thread_allocs;

#[global_allocator]
static A: p2ps_testkit::CountingAlloc = p2ps_testkit::CountingAlloc;

#[test]
fn warmed_engine_executes_without_allocating() {
    warmed_execute_allocates_nothing(4);
}

/// The repo benchmark's shard count (`amp_flash`): the exchange's 64
/// destination buckets per message kind start empty, and each is back
/// at its high-water mark after `reset`.
#[test]
fn warmed_engine_executes_without_allocating_at_64_shards() {
    warmed_execute_allocates_nothing(64);
}

fn warmed_execute_allocates_nothing(shards: u32) {
    let mut builder = AmpConfig::builder();
    builder
        .requesting_peers(3_000)
        .seed_suppliers(16)
        .catalog_items(4)
        .arrival_window_secs(3_600)
        .horizon_secs(4 * 3_600)
        .epoch_secs(60)
        .shards(shards)
        .threads(1);
    let config = builder.build().unwrap();
    let seed = 7;

    // Warm-up: the first run grows every buffer to its high-water mark.
    let mut engine = AmpEngine::new(config, seed);
    let warm = engine.run();
    assert!(warm.admits > 0, "warm-up run must exercise the full path");
    assert!(warm.events > 10_000, "population too idle to pin anything");

    // Reset re-seeds the same population without shrinking a single
    // buffer, then the measured replay must stay on the steady path.
    engine.reset(seed);
    let before = thread_allocs();
    engine.execute();
    let delta = thread_allocs() - before;
    assert_eq!(
        delta, 0,
        "warmed single-thread execute() of {} events on {shards} shards allocated {delta} \
         times (must be zero: all engine state is capacity-preserving)",
        warm.events
    );

    // report() clones freely — that cost sits outside the counted
    // region by design — and the replay is bit-identical to the warm-up.
    let replay = engine.report();
    assert_eq!(replay.trace_hash, warm.trace_hash);
    assert_eq!(replay.events, warm.events);
}
