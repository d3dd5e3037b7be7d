//! Determinism properties of the capacity-amplification engine.
//!
//! The headline guarantee: one `u64` seed fully determines the trace.
//! The digest of the run's trace records (a commutative sum over the
//! record multiset) must be bit-identical no matter how the peer
//! population is sharded or how many worker threads step the shards.
//! These tests pin that property over 64 seeds and over a shard × thread
//! grid under churn, plus the basic shape of the reported curves.

use p2ps_sim::{AmpConfig, AmpConfigBuilder, AmpEngine, ArrivalProcess};

/// A small but non-degenerate population: every item has four seed
/// suppliers, so sessions assemble, capacity amplifies, and the trace
/// exercises every record kind.
fn base_config() -> AmpConfigBuilder {
    let mut builder = AmpConfig::builder();
    builder
        .requesting_peers(400)
        .seed_suppliers(8)
        .catalog_items(2)
        .arrival_window_secs(1_800)
        .horizon_secs(2 * 3_600)
        .epoch_secs(60);
    builder
}

fn hash_with(builder: &AmpConfigBuilder, shards: u32, threads: usize, seed: u64) -> u64 {
    let mut b = builder.clone();
    b.shards(shards).threads(threads);
    AmpEngine::new(b.build().unwrap(), seed).run().trace_hash
}

/// The tentpole property: for 64 consecutive seeds, the trace hash is
/// identical at 1, 2, and 4 shards. Sharding is an implementation
/// detail of the engine, never an observable of the model.
#[test]
fn trace_hash_is_shard_count_invariant_over_64_seeds() {
    let builder = base_config();
    for seed in 0..64u64 {
        let h1 = hash_with(&builder, 1, 1, seed);
        let h2 = hash_with(&builder, 2, 1, seed);
        let h4 = hash_with(&builder, 4, 1, seed);
        assert_eq!(h1, h2, "seed {seed}: 1-shard vs 2-shard hash diverged");
        assert_eq!(h1, h4, "seed {seed}: 1-shard vs 4-shard hash diverged");
    }
}

/// Worker threads only change wall-clock time, never the trace: at a
/// fixed shard count the digest is identical at 1, 2, and 4 threads.
#[test]
fn trace_hash_is_thread_count_invariant() {
    let builder = base_config();
    for seed in [3u64, 17, 42, 1_000_003] {
        let h1 = hash_with(&builder, 4, 1, seed);
        let h2 = hash_with(&builder, 4, 2, seed);
        let h4 = hash_with(&builder, 4, 4, seed);
        assert_eq!(h1, h2, "seed {seed}: 1-thread vs 2-thread hash diverged");
        assert_eq!(h1, h4, "seed {seed}: 1-thread vs 4-thread hash diverged");
    }
}

/// The whole grid, with churn on: shard counts that are odd, prime or
/// the benchmark's 64, thread counts that do not divide them or exceed
/// them. A supplier lifetime well under one session puts every ordering
/// the boundary exchange must get right on the path — pool adds and
/// removes of one peer in one epoch, departures deferred to the end of a
/// running session, and probes answered by a supplier that left after
/// the pool snapshot they were sampled from.
#[test]
fn trace_is_invariant_over_the_shard_and_thread_grid_under_churn() {
    let mut builder = base_config();
    builder.supplier_lifetime_secs(900);
    let run = |shards: u32, threads: usize| {
        let mut b = builder.clone();
        b.shards(shards).threads(threads);
        AmpEngine::new(b.build().unwrap(), 23).run()
    };
    let base = run(1, 1);
    assert!(base.admits > 0 && base.departures > 0, "{base:?}");
    for shards in [1u32, 2, 3, 7, 64] {
        for threads in [1usize, 2, 3, 4] {
            let r = run(shards, threads);
            assert_eq!(
                (r.trace_hash, r.events, r.departures, r.final_capacity_raw),
                (
                    base.trace_hash,
                    base.events,
                    base.departures,
                    base.final_capacity_raw
                ),
                "{shards} shard(s) on {threads} thread(s) diverged from 1 × 1"
            );
            assert_eq!(r.capacity_curve, base.capacity_curve);
            assert_eq!(r.rejection_curve, base.rejection_curve);
        }
    }
}

/// Different seeds must *not* collide: the digest actually depends on
/// the trace, not just the configuration.
#[test]
fn distinct_seeds_produce_distinct_traces() {
    let builder = base_config();
    let mut hashes: Vec<u64> = (0..16u64)
        .map(|seed| hash_with(&builder, 2, 1, seed))
        .collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), 16, "seed collision in trace hashes");
}

/// Without churn the capacity curve is non-decreasing, starts at the
/// seed capacity, and the fold crossings are consistent with it.
#[test]
fn capacity_curve_and_fold_crossings_are_consistent() {
    let report = AmpEngine::new(base_config().build().unwrap(), 9).run();

    assert!(report.admits > 0, "population never assembled a session");
    assert_eq!(
        report.capacity_curve.first().map(|&(t, _)| t),
        Some(0),
        "curve must start at t = 0"
    );
    assert_eq!(report.capacity_curve[0].1, report.initial_capacity_raw);
    assert!(
        report
            .capacity_curve
            .windows(2)
            .all(|w| w[0].1 <= w[1].1 && w[0].0 < w[1].0),
        "churn-free capacity evolution must be non-decreasing in time"
    );
    assert_eq!(
        report.capacity_curve.last().map(|&(_, c)| c),
        Some(report.final_capacity_raw)
    );

    // Crossings come out sorted by factor and by time, and each one is
    // honest: capacity at that instant really is >= factor x seeds.
    let mut prev_t = 0;
    let mut prev_f = 0;
    for c in &report.fold_crossings {
        assert!(c.factor > prev_f && c.factor.is_power_of_two());
        assert!(c.at_secs >= prev_t);
        let at_crossing = report
            .capacity_curve
            .iter()
            .rev()
            .find(|&&(t, _)| t <= c.at_secs)
            .map(|&(_, cap)| cap)
            .unwrap();
        assert!(
            at_crossing as i128 >= report.initial_capacity_raw as i128 * i128::from(c.factor),
            "crossing {}x recorded at t={} but capacity there is {}",
            c.factor,
            c.at_secs,
            at_crossing
        );
        prev_t = c.at_secs;
        prev_f = c.factor;
    }

    // The rejection curve accounts for every attempt exactly once.
    let (attempts, rejects) = report
        .rejection_curve
        .iter()
        .fold((0u64, 0u64), |(a, r), &(_, wa, wr)| (a + wa, r + wr));
    assert_eq!(attempts, report.attempts);
    assert_eq!(rejects, report.rejects);
}

/// One 10,000-peer flash crowd pinned bit for bit: its trace digest at
/// 1, 2 and 4 shards, its event count and its outcome counters. The
/// invariance tests above hold the digests equal to *each other*; this
/// holds them equal to what they were at the last commit, so a silent
/// change in the §4 admission dynamics, the arrival process or the trace
/// fold shows up here — and a re-pin of the digest alone cannot hide a
/// behaviour change, because the counters beside it would have to move
/// too.
#[test]
fn ten_thousand_peer_flash_crowd_is_pinned_at_1_2_4_shards() {
    const TRACE_HASH: u64 = 0x91ad4085069f5141;
    const EVENTS: u64 = 373_632;
    const ATTEMPTS: u64 = 49_779;
    const ADMITS: u64 = 133;
    const REJECTS: u64 = 49_646;
    const SUPPLIES: u64 = 117;
    const FINAL_CAPACITY_RAW: i64 = 4_067_328;

    let mut builder = AmpConfig::builder();
    builder
        .requesting_peers(10_000)
        .seed_suppliers(64)
        .catalog_items(16)
        .process(ArrivalProcess::flash_crowd())
        .arrival_window_secs(3_600)
        .horizon_secs(4 * 3_600)
        .epoch_secs(60)
        .threads(1);
    for shards in [1u32, 2, 4] {
        let report = AmpEngine::new(builder.shards(shards).build().unwrap(), 7).run();
        let counters = (
            report.events,
            report.attempts,
            report.admits,
            report.rejects,
            report.supplies,
            report.final_capacity_raw,
        );
        assert!(
            report.trace_hash == TRACE_HASH
                && counters
                    == (
                        EVENTS,
                        ATTEMPTS,
                        ADMITS,
                        REJECTS,
                        SUPPLIES,
                        FINAL_CAPACITY_RAW
                    ),
            "10k-peer flash crowd, seed 7, {shards} shard(s): trace_hash 0x{:016x}, (events, \
             attempts, admits, rejects, supplies, final_capacity_raw) {counters:?} — pinned \
             0x{TRACE_HASH:016x}, ({EVENTS}, {ATTEMPTS}, {ADMITS}, {REJECTS}, {SUPPLIES}, \
             {FINAL_CAPACITY_RAW}). These values are machine-independent, so the model's \
             behaviour changed. If that is intended, put the new values into TRACE_HASH / \
             EVENTS / ATTEMPTS / ADMITS / REJECTS / SUPPLIES / FINAL_CAPACITY_RAW in \
             crates/sim/tests/amplification.rs in the same commit (all three shard counts \
             must agree on them) and say in its message what moved them; if not, it is a \
             regression. A change to the trace fold alone moves TRACE_HASH and nothing else.",
            report.trace_hash
        );
    }
}

/// The acceptance-criterion smoke run: one million flash-crowd peers
/// on 4 threads, well under a minute — the budget is 30 s, where the
/// run took ~23 s while every shard still scanned every message and
/// takes a few seconds now, so a return of that scan fails here. Run in
/// nightly CI via
/// `cargo test -p p2ps-sim --release -- --ignored million_peer`.
#[test]
#[ignore = "million-peer smoke: run explicitly with --ignored in release mode"]
fn million_peer_flash_crowd_under_a_minute() {
    let mut builder = AmpConfig::builder();
    builder
        .requesting_peers(1_000_000)
        .seed_suppliers(512)
        .catalog_items(64)
        .process(ArrivalProcess::flash_crowd())
        .arrival_window_secs(3_600)
        .horizon_secs(6 * 3_600)
        .epoch_secs(60)
        .shards(64)
        .threads(4);
    let report = AmpEngine::new(builder.build().unwrap(), 1_000_000).run();

    assert!(report.admits > 0);
    assert!(
        report.amplification() > 2.0,
        "flash crowd failed to amplify"
    );
    assert!(
        report.elapsed().as_secs() < 30,
        "10^6-peer flash crowd took {:?} (budget: 30 s on 4 threads)",
        report.elapsed()
    );
}
