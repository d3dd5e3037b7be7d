//! Deterministic in-memory simulation of the real streaming stack.
//!
//! `p2ps-simnet` drives the **actual** protocol machines the live node
//! runs — `p2ps_node::RequesterMachine` (the requester's whole session:
//! §4.2 round, §3 plan, reassembly and `p2ps-policy` replans),
//! `p2ps_proto::SupplierConn` (the supplier's per-connection machine and
//! its §3 schedule) and the `encode_frame`/`FrameDecoder` framing — over a simulated
//! transport instead of epoll and TCP: **no threads, no sockets, no wall
//! clock**. Where `p2ps-sim` models the paper's protocol abstractly at
//! slot granularity (its own arrival/departure processes, no wire
//! format), simnet is a *byte-level* harness for the production code
//! paths themselves.
//!
//! One `u64` seed derives everything ([`Schedule::derive`]): supplier
//! mix, media shape, per-link latency/jitter/bandwidth, how the byte
//! stream fragments, and which suppliers die when. Runs are bit-for-bit
//! reproducible — the same seed replays the identical event order,
//! witnessed by the [`SimReport::trace_hash`] digest — so any failure in
//! a thousand-seed sweep is one `SIMNET_SEED=…` away from a debugger.
//!
//! Every run opens with the real §4.2 admission round: the requester
//! machine sends its `StreamRequest` burst over the simulated links, each
//! supplier's real connection machine answers with the decision the
//! schedule scripted for its node, and the machine folds the replies into
//! a verdict and plans before a single segment moves — the same code on
//! both ends that the live reactor hosts.
//!
//! Five [`ScenarioKind`] adversity profiles are swept: `Steady` (latency
//! and fragmentation only), `Churn` (suppliers die mid-stream, up to all
//! of them), `Loss` (1–5 byte chunks plus a death that cuts a frame at
//! an arbitrary byte boundary), `SlowPeer` (one crawling link) and
//! `Admission` (suppliers may deny the round, exercising releases,
//! reminders and the structured `Rejected` outcome). Every run must end
//! in byte-exact reassembly or a *structured* failure
//! ([`SimOutcome::is_acceptable`]); stalls and corrupt reassembly are
//! harness-caught bugs.
//!
//! # Examples
//!
//! ```
//! use p2ps_simnet::{run, ScenarioKind};
//!
//! let a = run(7, ScenarioKind::Churn);
//! let b = run(7, ScenarioKind::Churn);
//! assert_eq!(a.trace_hash, b.trace_hash, "same seed, same universe");
//! assert!(a.outcome.is_acceptable());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod link;
mod report;
mod schedule;
mod trace;
mod world;

pub use link::Link;
pub use report::{repro_hint, SimOutcome, SimReport};
pub use schedule::{AdmissionReply, LinkSpec, ScenarioKind, Schedule};
pub use trace::TraceHasher;
pub use world::SimWorld;

/// Derives the schedule for `(seed, scenario)` and runs it to
/// completion: the one-call entry point sweeps and benches use.
pub fn run(seed: u64, scenario: ScenarioKind) -> SimReport {
    SimWorld::new(Schedule::derive(seed, scenario)).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_runs_complete_byte_exactly() {
        for seed in 0..8u64 {
            let report = run(seed, ScenarioKind::Steady);
            assert_eq!(
                report.outcome,
                SimOutcome::Completed { byte_exact: true },
                "seed {seed}: {:?}\n{}",
                report.outcome,
                report.repro_hint()
            );
            assert!(report.segments_delivered > 0);
            assert!(report.bytes_on_wire > 0);
            assert_eq!(report.deaths, 0);
        }
    }

    #[test]
    fn identical_seeds_produce_identical_reports() {
        for scenario in ScenarioKind::ALL {
            let a = run(99, scenario);
            let b = run(99, scenario);
            assert_eq!(a, b, "{} must be deterministic", scenario.name());
        }
    }

    #[test]
    fn different_seeds_produce_different_traces() {
        let a = run(1, ScenarioKind::Steady);
        let b = run(2, ScenarioKind::Steady);
        assert_ne!(a.trace_hash, b.trace_hash);
    }

    #[test]
    fn steady_runs_pass_admission_with_a_grant_per_lane() {
        for seed in 0..8u64 {
            let schedule = Schedule::derive(seed, ScenarioKind::Steady);
            let report = run(seed, ScenarioKind::Steady);
            assert_eq!(
                report.grants,
                schedule.mix.len() as u64,
                "every lane must grant before a segment moves"
            );
            assert_eq!(report.denials, 0);
            assert_eq!(report.reminders, 0);
        }
    }

    #[test]
    fn admission_scenario_exercises_denial_and_rejection() {
        let mut saw_rejection = false;
        let mut saw_reminder = false;
        let mut saw_completion = false;
        for seed in 0..32u64 {
            let report = run(seed, ScenarioKind::Admission);
            assert!(
                report.outcome.is_acceptable(),
                "seed {seed}: {:?}\n{}",
                report.outcome,
                report.repro_hint()
            );
            match report.outcome {
                SimOutcome::Rejected { reminders } => {
                    saw_rejection = true;
                    saw_reminder |= reminders > 0 && report.reminders == reminders;
                    assert!(report.denials > 0, "a rejection needs at least one deny");
                    assert_eq!(
                        report.segments_delivered, 0,
                        "a rejected round must never stream"
                    );
                }
                SimOutcome::Completed { byte_exact } => {
                    saw_completion = true;
                    assert!(byte_exact);
                    assert_eq!(report.denials, 0, "any deny rejects a rate-matched mix");
                }
                ref other => panic!("seed {seed}: unexpected {other:?}"),
            }
        }
        assert!(
            saw_rejection,
            "32 admission seeds must reject at least once"
        );
        assert!(saw_reminder, "rejections must deliver reminders on-wire");
        assert!(saw_completion, "all-grant admission seeds must stream");
    }

    #[test]
    fn churn_exercises_death_and_structured_outcomes() {
        let mut saw_death = false;
        let mut saw_acceptable_failure_or_replan = false;
        for seed in 0..32u64 {
            let report = run(seed, ScenarioKind::Churn);
            assert!(
                report.outcome.is_acceptable(),
                "seed {seed}: {:?}\n{}",
                report.outcome,
                report.repro_hint()
            );
            saw_death |= report.deaths > 0;
            saw_acceptable_failure_or_replan |=
                report.replans > 0 || matches!(report.outcome, SimOutcome::SuppliersLost { .. });
        }
        assert!(saw_death, "32 churn seeds must kill at least one supplier");
        assert!(
            saw_acceptable_failure_or_replan,
            "churn must trigger replans or structured loss"
        );
    }
}
