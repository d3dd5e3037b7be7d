//! The six workloads and what every one of them hands back.

use crate::trace::Tracer;

pub mod amp;
pub mod sim_paper;
pub mod simnet;
pub mod swarm;

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations started (sessions, simulator runs, simulations).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub failures: Vec<String>,
    /// Wall seconds of the measured window.
    pub wall_s: f64,
    /// The workload's headline rate (higher is better); the traced pass
    /// is compared to the untraced one on it.
    pub headline: f64,
    /// Every end-to-end metric except `setup_s` and `peak_rss_mib`,
    /// which the caller measures around the workload.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics this workload owns (counts and spans read at
    /// the generator's call boundaries).
    pub per_layer: Vec<(&'static str, f64)>,
    /// A digest of the outputs that must repeat between two passes over
    /// the same inputs, where the workload has one.
    pub digest: Option<u64>,
    /// Lines for the human-readable log.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts a failed operation, keeping the first few messages.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// A workload after set-up, ready for one measured pass.
pub trait Prepared {
    /// Runs the measured pass: `seconds` of load for the time-boxed
    /// workloads, a population scaled by `seconds` for the two model
    /// simulators (fixed at set-up).
    fn run(self: Box<Self>, seconds: f64, tracer: &mut Tracer) -> Outcome;
}

/// One named workload.
pub struct WorkloadDef {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists, in one line (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Builds the system under test and its inputs from the seed. Timed
    /// by the caller as `setup_s`.
    pub setup: fn(seed: u64, seconds: f64) -> Box<dyn Prepared + Send>,
}

/// All workloads, in reporting order.
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "swarm_bulk",
        why: "32 pinned seed-requester pairs stream 64 x 64 KiB on one reactor thread: bytes dominate (copies, writev, from_store)",
        setup: swarm::setup_bulk,
    },
    WorkloadDef {
        name: "swarm_small",
        why: "same shape with 512 x 256 B segments: per-message cost dominates (framing, session machines, timers, syscalls)",
        setup: swarm::setup_small,
    },
    WorkloadDef {
        name: "swarm_grow",
        why: "directory + self-growing swarm, 24 closed-loop viewers with the paper's class mix: what a viewer waits for, pacing-bound",
        setup: swarm::setup_grow,
    },
    WorkloadDef {
        name: "simnet_sweep",
        why: "seeded simnet runs over all five scenarios: the real protocol stack with no kernel, control for reactor changes",
        setup: simnet::setup,
    },
    WorkloadDef {
        name: "sim_paper",
        why: "legacy simulator in the paper's section 5.1 configuration, patterns 1-4 x DAC/NDAC, each at its fastest of 4 rounds: the wall its retirement must not worsen",
        setup: sim_paper::setup,
    },
    WorkloadDef {
        name: "amp_flash",
        why: "AmpEngine flash crowd on all cores, 64 shards, fastest of 4 rounds: barrier wait and memory layout, nothing from proto/net/node runs",
        setup: amp::setup,
    },
];

/// Finds a workload by name.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}
