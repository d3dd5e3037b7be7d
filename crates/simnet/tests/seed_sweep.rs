//! The seed sweep: a thousand-plus adversarial schedules through the
//! real stack, each run twice to witness bit-for-bit determinism.
//!
//! Every `(seed, scenario)` pair derives a complete run — supplier mix,
//! link models, fragmentation, deaths — and must end in byte-exact
//! reassembly or a structured failure. Any violation panics with a
//! one-line `SIMNET_SEED=…` repro; setting that variable re-runs just
//! the offending seed across all scenarios.
//!
//! # Theorem 1 in virtual time
//!
//! Every completed run is also held to Theorem 1: its start-up delay
//! `S = max_i(arrival_i − i·δt)`, in µs since the hand-off (the instant
//! the `StartSession` frames go out), against the plan's `n·δt`. The
//! path term comes from `Link::send`, under which a chunk of `len` bytes
//! sent at `t` arrives at `max(link_free, t + latency + jitter) +
//! ⌈len / bytes_per_ms⌉` whole ms. Between the hand-off and a segment's
//! arrival lie two legs — the `StartSession` to its supplier, then the
//! segment back — and each costs at least its lane's latency plus one
//! ms, since a non-empty chunk serializes for at least one whole ms. The
//! supplier sends the segment at its §3 deadline, counted from the
//! `StartSession`'s arrival, and under `OTSp2p` the latest deadline past
//! its play-out offset is exactly `n·δt` past it. So:
//!
//! * **exact, on `Ideal`**: one latency `L` on every lane, no jitter, a
//!   link far faster than any frame and every frame sent whole (one
//!   chunk, so one ms), and every link idle when a frame is sent — a
//!   lane's frames leave a stride of at least `δt` ≥ 4 ms apart. Each
//!   leg takes exactly `L + 1` ms, so `S = n·δt + 2·(L + 1 ms)` to the
//!   µs, with no tolerance;
//! * **never early, on every completed run**: `S ≥ n·δt + 2·(L_min +
//!   1 ms)`, with `L_min` the smallest latency of any lane — jitter, a
//!   split frame, a queued link and a replan only delay a segment.
//!
//! The upper side of the five adversity profiles is reported, not
//! asserted: a frame split into 1-byte chunks costs a whole ms per
//! byte, and frames run to 153 B against class strides of 4–160 ms, so
//! a closed-form bound that held on every run would cover almost none
//! of them. The sweep prints, per scenario, how many runs streamed and
//! their `S − n·δt` p50 / p90 / max (`--nocapture`).

use p2ps_proto::SessionEvent;
use p2ps_simnet::{repro_hint, run, ScenarioKind, Schedule, SimOutcome, SimReport};

/// Seeds per scenario in the tier-1 sweep (5 scenarios ⇒ 1,280
/// schedules, plus 256 `Ideal` ones; each executed twice for the
/// determinism check).
const TIER1_SEEDS: u64 = 256;

/// Seeds per scenario in the extended (`--ignored`, CI nightly) sweep:
/// 5 × 20,000 = 100,000 schedules plus 20,000 `Ideal` ones, each
/// executed twice.
const EXTENDED_SEEDS: u64 = 20_000;

/// Every scenario the sweep runs: the five adversity profiles, then
/// `Ideal`.
fn scenarios() -> impl Iterator<Item = ScenarioKind> {
    ScenarioKind::ALL.into_iter().chain([ScenarioKind::Ideal])
}

/// Holds a completed run to Theorem 1 (see the module docs): exactly
/// `n·δt` plus the path on `Ideal`, never earlier than `n·δt` plus the
/// shortest path on any run.
fn check_theorem_one(report: &SimReport) {
    let (seed, scenario) = (report.seed, report.scenario);
    let (Some(startup_us), Some(theorem_us)) = (report.startup_us, report.theorem_us) else {
        assert!(
            !matches!(report.outcome, SimOutcome::Completed { .. }),
            "seed {seed} ({}) completed without a start-up delay\n{}",
            scenario.name(),
            repro_hint(seed, scenario)
        );
        return;
    };
    let schedule = Schedule::derive(seed, scenario);
    let leg_us = |latency_ms: u64| (latency_ms + 1) * 1_000;
    let min_latency_ms = schedule.links.iter().map(|l| l.latency_ms).min();
    let floor_us = theorem_us + 2 * leg_us(min_latency_ms.expect("a run has lanes"));
    assert!(
        startup_us >= floor_us,
        "seed {seed} ({}) started {} us before n·δt + 2·(L_min + 1 ms): S − n·δt = {} us\n{}",
        scenario.name(),
        floor_us - startup_us,
        startup_us as i64 - theorem_us as i64,
        repro_hint(seed, scenario)
    );
    if scenario == ScenarioKind::Ideal {
        let n_dt_us = schedule.mix.len() as u64 * schedule.dt_ms * 1_000;
        assert_eq!(
            theorem_us,
            n_dt_us,
            "seed {seed} (ideal): the plan's bound is not n·δt\n{}",
            repro_hint(seed, scenario)
        );
        let path_us = 2 * leg_us(schedule.links[0].latency_ms);
        assert_eq!(
            startup_us,
            theorem_us + path_us,
            "seed {seed} (ideal): S − n·δt = {} us, not the path's {path_us} us\n{}",
            startup_us as i64 - theorem_us as i64,
            repro_hint(seed, scenario)
        );
    }
}

/// The `q`-quantile of sorted `values` (nearest rank below).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

/// Runs one `(seed, scenario)` twice, asserts determinism, an
/// acceptable outcome and Theorem 1, and returns the report of the first
/// run.
fn check_one(seed: u64, scenario: ScenarioKind) -> SimReport {
    let first = run(seed, scenario);
    let second = run(seed, scenario);
    assert_eq!(
        first.trace_hash,
        second.trace_hash,
        "nondeterministic trace for seed {seed} ({})\n{}",
        scenario.name(),
        repro_hint(seed, scenario)
    );
    assert_eq!(
        first,
        second,
        "nondeterministic report for seed {seed} ({})\n{}",
        scenario.name(),
        repro_hint(seed, scenario)
    );
    assert!(
        first.outcome.is_acceptable(),
        "seed {seed} ({}) ended badly: {:?}\n{}",
        scenario.name(),
        first.outcome,
        repro_hint(seed, scenario)
    );
    // The flight recorder rides the determinism contract: every run
    // opens with an admission request, and a completed run's timeline
    // must close with the `Completed` event. A ring that wrapped would
    // have lost the opening.
    let opening = first
        .recorder
        .first()
        .and_then(|ev| SessionEvent::decode(ev.code, ev.a, ev.b));
    assert!(
        matches!(opening, Some(SessionEvent::AdmissionRequest { .. })),
        "seed {seed} ({}) timeline opens with {opening:?}, not an admission request\n{}",
        scenario.name(),
        repro_hint(seed, scenario)
    );
    // A replanned share goes to a survivor: a lane that was sent its
    // own plan and has not been lost since. A lane that died between its
    // grant and the hand-off never streamed, so it can never be one.
    let mut planned = Vec::new();
    for ev in &first.recorder {
        match SessionEvent::decode(ev.code, ev.a, ev.b) {
            Some(SessionEvent::PlanSent { lane, .. }) => planned.push(lane),
            Some(SessionEvent::Replanned { lane, .. }) => assert!(
                planned.contains(&lane),
                "seed {seed} ({}) replanned onto lane {lane}, which never streamed\n{}",
                scenario.name(),
                repro_hint(seed, scenario)
            ),
            _ => {}
        }
    }
    if matches!(first.outcome, SimOutcome::Completed { .. }) {
        let last = first
            .recorder
            .last()
            .expect("checked: it opens with a request");
        assert_eq!(
            last.code,
            SessionEvent::Completed { received: 0 }.code(),
            "seed {seed} ({}) completed without a terminal Completed event\n{}",
            scenario.name(),
            repro_hint(seed, scenario)
        );
    }
    check_theorem_one(&first);
    first
}

/// Sweeps `seeds` per scenario and sanity-checks the aggregate: the
/// adversity knobs must actually bite (deaths, replans, structured
/// losses) and the happy paths must actually complete.
fn sweep(seeds: u64) {
    let mut completed = 0u64;
    let mut lost = 0u64;
    let mut rejected = 0u64;
    let mut replans = 0u64;
    let mut deaths = 0u64;
    let mut runs = 0u64;
    for scenario in scenarios() {
        let mut scenario_completed = 0u64;
        // `S − n·δt` of every run that streamed to the end, in ms.
        let mut past_ms = Vec::new();
        for seed in 0..seeds {
            let report = check_one(seed, scenario);
            runs += 1;
            if let (Some(startup_us), Some(theorem_us)) = (report.startup_us, report.theorem_us) {
                past_ms.push((startup_us - theorem_us) / 1_000);
            }
            replans += report.replans;
            deaths += report.deaths;
            match report.outcome {
                SimOutcome::Completed { .. } => {
                    completed += 1;
                    scenario_completed += 1;
                }
                SimOutcome::SuppliersLost { .. } | SimOutcome::Incomplete { .. } => lost += 1,
                SimOutcome::Rejected { .. } => rejected += 1,
                _ => unreachable!("check_one rejects unacceptable outcomes"),
            }
        }
        assert!(
            scenario_completed > 0,
            "no {} seed completed in {seeds} runs",
            scenario.name()
        );
        past_ms.sort_unstable();
        println!(
            "{:<10} {} of {seeds} runs streamed; S − n·δt p50 / p90 / max = {} / {} / {} ms",
            scenario.name(),
            past_ms.len(),
            quantile(&past_ms, 0.5),
            quantile(&past_ms, 0.9),
            quantile(&past_ms, 1.0),
        );
    }
    assert_eq!(runs, seeds * scenarios().count() as u64);
    assert!(deaths > 0, "churn/loss scenarios must kill suppliers");
    assert!(replans > 0, "supplier deaths must trigger live replans");
    assert!(
        lost > 0,
        "killing every supplier must surface SuppliersLost"
    );
    assert!(
        rejected > 0,
        "the admission scenario must reject some rounds"
    );
    assert!(completed > lost, "most runs should still complete");
}

/// `SIMNET_SEED=<n>` pins the sweep to one seed across all scenarios —
/// the repro path printed by every failure message.
fn pinned_seed() -> Option<u64> {
    let raw = std::env::var("SIMNET_SEED").ok()?;
    Some(
        raw.trim()
            .parse()
            .expect("SIMNET_SEED must be an unsigned integer"),
    )
}

#[test]
fn tier1_seed_sweep() {
    if let Some(seed) = pinned_seed() {
        for scenario in scenarios() {
            let report = check_one(seed, scenario);
            // Visible under --nocapture when debugging a pinned seed.
            println!(
                "SIMNET_SEED={seed} {}: {:?} trace={:016x} events={} replans={} deaths={} \
                 startup_us={:?} theorem_us={:?}",
                scenario.name(),
                report.outcome,
                report.trace_hash,
                report.events,
                report.replans,
                report.deaths,
                report.startup_us,
                report.theorem_us
            );
        }
        return;
    }
    sweep(TIER1_SEEDS);
}

#[test]
#[ignore = "extended 120,000-schedule sweep; run with --ignored --release (CI nightly gate)"]
fn extended_seed_sweep() {
    if let Some(seed) = pinned_seed() {
        for scenario in scenarios() {
            check_one(seed, scenario);
        }
        return;
    }
    sweep(EXTENDED_SEEDS);
}
