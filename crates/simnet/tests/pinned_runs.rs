//! Six `(seed, scenario)` runs pinned bit for bit: trace digest, event
//! count, bytes on the wire and the admission round's grant / denial /
//! reminder counts.
//!
//! The seed sweep proves a run equals *itself* when repeated; this table
//! proves it equals what it was at the last commit. A simnet run drives
//! the real codec, admission fold, `SessionDriver`, `SupplierSchedule`,
//! selection policy and the synthesized payload bytes, so any silent
//! change of behaviour in one of them moves a digest here. Moving one on
//! purpose is a reviewed decision: the failure message prints the rows to
//! paste.

use p2ps_simnet::{run, ScenarioKind};

/// `(seed, scenario, trace_hash, events, bytes_on_wire, grants, denials,
/// reminders)`.
type Pin = (u64, ScenarioKind, u64, u64, u64, u64, u64, u64);

#[rustfmt::skip]
const PINS: &[Pin] = &[
    (7,  ScenarioKind::Steady,    0xc70e0e71e05d54d3, 275, 3400, 5, 0, 0),
    (7,  ScenarioKind::Churn,     0xb861a98c9a104528, 292, 2786, 4, 0, 0),
    (11, ScenarioKind::Loss,      0xb6421efd347bd7b0, 693, 1903, 8, 0, 0),
    (5,  ScenarioKind::SlowPeer,  0x2743047d4ebf3833, 380, 2495, 5, 0, 0),
    // Admission twice: seed 3 is granted everywhere and streams, seed 5
    // is denied short of R0 and walks the release/reminder rejection path.
    (3,  ScenarioKind::Admission, 0x4028f920b0c561c4, 217, 2733, 5, 0, 0),
    (5,  ScenarioKind::Admission, 0x5f28d231003b5a63,  35,  125, 1, 2, 2),
];

#[test]
fn six_pinned_runs_reproduce_bit_for_bit() {
    let mut drifted = Vec::new();
    for &pin in PINS {
        let (seed, scenario, ..) = pin;
        let r = run(seed, scenario);
        let now: Pin = (
            seed,
            scenario,
            r.trace_hash,
            r.events,
            r.bytes_on_wire,
            r.grants,
            r.denials,
            r.reminders,
        );
        if now != pin {
            drifted.push(format!(
                "  {} seed {seed} ({})\n    pinned {}\n    now    {}",
                scenario.name(),
                r.repro_hint(),
                row(pin),
                row(now),
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "{} of {} pinned simnet runs no longer reproduce (trace_hash, events, bytes_on_wire, \
         grants, denials, reminders):\n{}\nThese values are machine-independent, so this is a \
         real change of protocol behaviour. If it is intended, paste the `now` rows over the \
         matching rows of PINS in crates/simnet/tests/pinned_runs.rs in the same commit and \
         say in its message what moved them; if not, it is a regression.",
        drifted.len(),
        PINS.len(),
        drifted.join("\n")
    );
}

/// A pin's values as they are written in [`PINS`].
fn row((_, _, trace_hash, events, bytes, grants, denials, reminders): Pin) -> String {
    format!("0x{trace_hash:016x}, {events}, {bytes}, {grants}, {denials}, {reminders}")
}
