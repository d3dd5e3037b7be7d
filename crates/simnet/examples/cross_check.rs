//! Prints one line per simulated run — every `SimReport` field, the
//! flight recorder's events and the trace digest — over seeds
//! `0..20_000` of each of the seven scenarios (the five of
//! `ScenarioKind::ALL`, `Ideal` and `Freeze`).
//!
//! Two trees that run every schedule the same way print the same lines,
//! so diffing the output of two builds shows each run a change moved:
//!
//! ```text
//! cargo run --release -q -p p2ps-simnet --example cross_check > runs.txt
//! ```
//!
//! It uses only the crate's public API, so the file can be copied into
//! an older tree and run there unchanged. A digest ends each line after
//! ` H `, so a change that re-pins the digest on purpose can diff the
//! lines with it stripped.

use p2ps_simnet::ScenarioKind::{self, Freeze, Ideal};

/// Seeds run per scenario.
const SEEDS: u64 = 20_000;

fn main() {
    for seed in 0..SEEDS {
        for kind in ScenarioKind::ALL.into_iter().chain([Ideal, Freeze]) {
            let r = p2ps_simnet::run(seed, kind);
            let rec: Vec<_> = r
                .recorder
                .iter()
                .map(|e| (e.at_ms, e.code, e.a, e.b))
                .collect();
            println!(
                "{seed} {} {} {} {} {} {} {} {} {} {:?} {:?} {:?} {:?} H {:016x}",
                kind.name(),
                r.events,
                r.bytes_on_wire,
                r.grants,
                r.denials,
                r.reminders,
                r.replans,
                r.deaths,
                r.segments_delivered,
                r.outcome,
                rec,
                r.startup_us,
                r.theorem_us,
                r.trace_hash
            );
        }
    }
}
