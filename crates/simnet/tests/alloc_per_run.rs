//! Pins what one whole simnet run costs in heap allocations: building
//! the world (`SimWorld::new`) plus running it (`run`), the mean over
//! seeds 0–199 per scenario, each under its budget.
//!
//! A run allocates for what it keeps — the media file, the machines,
//! the payloads the requester retains, its plan — and for little else:
//! the wire log every frame is encoded into, the slab its chunks in
//! flight wait in and the event heap are sized from the `Schedule` when
//! the world is built, so none of them grows while it runs, and a
//! decoder makes room for a small frame once its length prefix is in.
//! The budgets sit at 70 % of what a run cost before that: 278 / 287 /
//! 310 / 286 / 136 allocations per Steady / Churn / Loss / SlowPeer /
//! Admission run over seeds 0–1,999 (281 / 281 / 320 / 287 / 138 over
//! the seeds below). `Ideal`, a Steady-shaped run with whole frames, is
//! held to Steady's budget (160 when it was added), and so is `Freeze`,
//! a Steady-shaped run with one lane cut and replanned.
//!
//! The allocator counts per thread, and a run happens on the calling
//! thread, so the count is this test's own.

use p2ps_simnet::{ScenarioKind, Schedule, SimWorld};
use p2ps_testkit::thread_allocs;

#[global_allocator]
static A: p2ps_testkit::CountingAlloc = p2ps_testkit::CountingAlloc;

const SEEDS: u64 = 200;

/// Mean allocations per run a scenario may spend.
fn budget(scenario: ScenarioKind) -> f64 {
    match scenario {
        ScenarioKind::Steady => 194.0,
        ScenarioKind::Churn => 200.0,
        ScenarioKind::Loss => 217.0,
        ScenarioKind::SlowPeer => 200.0,
        ScenarioKind::Admission => 95.0,
        ScenarioKind::Ideal | ScenarioKind::Freeze => 194.0,
    }
}

#[test]
fn a_run_allocates_within_its_budget() {
    let mut rows = vec![format!(
        "  {:<10} {:>8} {:>8} {:>8} {:>8}",
        "scenario", "new", "run", "total", "budget"
    )];
    let mut over = Vec::new();
    for scenario in ScenarioKind::ALL
        .into_iter()
        .chain([ScenarioKind::Ideal, ScenarioKind::Freeze])
    {
        let (mut new, mut run) = (0u64, 0u64);
        for seed in 0..SEEDS {
            let schedule = Schedule::derive(seed, scenario);
            let before = thread_allocs();
            let world = SimWorld::new(schedule);
            let built = thread_allocs();
            let report = world.run();
            run += thread_allocs() - built;
            new += built - before;
            drop(report);
        }
        let [new, run] = [new, run].map(|n| n as f64 / SEEDS as f64);
        let total = new + run;
        rows.push(format!(
            "  {:<10} {new:>8.1} {run:>8.1} {total:>8.1} {:>8.1}",
            scenario.name(),
            budget(scenario)
        ));
        if total > budget(scenario) {
            over.push(scenario.name());
        }
    }
    let table = rows.join("\n");
    println!("mean allocations per run, seeds 0..{SEEDS}:\n{table}");
    assert!(
        over.is_empty(),
        "{over:?} over budget (mean allocations per run, seeds 0..{SEEDS}):\n{table}\n\
         A run should allocate only for what it keeps: its wire log, chunk slab and heap \
         sized from the Schedule (crates/simnet/src/world.rs)."
    );
}
