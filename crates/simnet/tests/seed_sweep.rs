//! The seed sweep: a thousand-plus adversarial schedules through the
//! real stack, each run twice to witness bit-for-bit determinism.
//!
//! Every `(seed, scenario)` pair derives a complete run — supplier mix,
//! link models, fragmentation, deaths — and must end in byte-exact
//! reassembly or a structured failure. Any violation panics with a
//! one-line `SIMNET_SEED=…` repro; setting that variable re-runs just
//! the offending seed across all scenarios.

use p2ps_proto::SessionEvent;
use p2ps_simnet::{repro_hint, run, ScenarioKind, SimOutcome};

/// Seeds per scenario in the tier-1 sweep (5 scenarios ⇒ 1,280
/// schedules, each executed twice for the determinism check).
const TIER1_SEEDS: u64 = 256;

/// Seeds per scenario in the extended (`--ignored`, CI nightly) sweep:
/// 5 × 20,000 = 100,000 schedules, each executed twice.
const EXTENDED_SEEDS: u64 = 20_000;

/// Runs one `(seed, scenario)` twice, asserts determinism and an
/// acceptable outcome, and returns the report of the first run.
fn check_one(seed: u64, scenario: ScenarioKind) -> p2ps_simnet::SimReport {
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
    for scenario in ScenarioKind::ALL {
        let mut scenario_completed = 0u64;
        for seed in 0..seeds {
            let report = check_one(seed, scenario);
            runs += 1;
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
    }
    assert_eq!(runs, seeds * ScenarioKind::ALL.len() as u64);
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
        for scenario in ScenarioKind::ALL {
            let report = check_one(seed, scenario);
            // Visible under --nocapture when debugging a pinned seed.
            println!(
                "SIMNET_SEED={seed} {}: {:?} trace={:016x} events={} replans={} deaths={}",
                scenario.name(),
                report.outcome,
                report.trace_hash,
                report.events,
                report.replans,
                report.deaths
            );
        }
        return;
    }
    sweep(TIER1_SEEDS);
}

#[test]
#[ignore = "extended 100,000-schedule sweep; run with --ignored --release (CI nightly gate)"]
fn extended_seed_sweep() {
    if let Some(seed) = pinned_seed() {
        for scenario in ScenarioKind::ALL {
            check_one(seed, scenario);
        }
        return;
    }
    sweep(EXTENDED_SEEDS);
}
