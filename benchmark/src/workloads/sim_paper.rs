//! `sim_paper`: the legacy `p2ps_sim::Simulation` in the paper's §5.1
//! configuration — arrival patterns 1–4 under DACp2p and NDACp2p, eight
//! simulations on one thread, 72 h of arrivals, 144 h simulated.
//!
//! The eight simulations are run [`ROUNDS`] times over and each is read
//! at its fastest round (see [`stats::best_slice_cost`]: same seed, same
//! work, so the fastest round is the one the host left alone). To fit
//! four rounds into a pass the population is a quarter of the paper's
//! (25 seeds, 12,500 requesters) at the reference pass length of
//! [`REFERENCE_SECONDS`], and scales linearly with `--seconds`; the work
//! of a pass is fixed at set-up, not cut by a timer, because one
//! simulation is too large a unit to stop between.

use std::time::Instant;

use p2ps_core::admission::Protocol;
use p2ps_sim::{ArrivalPattern, SimConfig, Simulation};

use super::{Outcome, Prepared};
use crate::stats;
use crate::sysinfo;
use crate::trace::Tracer;

/// Pass length the populations of `sim_paper` and `amp_flash` are
/// sized for.
pub const REFERENCE_SECONDS: f64 = 10.0;

/// Times the eight simulations are repeated.
const ROUNDS: usize = 4;

/// Share of the paper's population simulated at the reference length.
const REFERENCE_SCALE: f64 = 0.25;

/// Nominal playback rate used to express simulated sessions as media
/// payload: 1 Mbit/s, in MiB/s. It only scales the number.
pub const NOMINAL_RATE_MIB_S: f64 = 1_000_000.0 / 8.0 / (1024.0 * 1024.0);

/// `final_capacity` of the eight simulations at the reference scale with
/// seed 42, in run order (pattern 1–4, DAC then NDAC each). Checked only
/// for that seed and scale; a change here is a change of the simulator's
/// behaviour, not of its speed.
const PINNED_SEED: u64 = 42;
const PINNED_FINAL_CAPACITY: [f64; 8] = [
    1856.3125, 1759.5, 1852.6875, 1800.75, 1759.75, 1450.0, 1830.625, 1687.0625,
];

const PATTERNS: [ArrivalPattern; 4] = [
    ArrivalPattern::Constant,
    ArrivalPattern::Ramp,
    ArrivalPattern::InitialBurst,
    ArrivalPattern::PeriodicBursts,
];

/// What the benchmark needs from one legacy simulation. Everything the
/// workload knows about `p2ps_sim::Simulation` is behind [`build`] and
/// [`Legacy::run`], so a later benchmark change can re-point them.
#[derive(Debug, PartialEq)]
pub struct LegacyResult {
    /// Requesting peers simulated to the horizon.
    pub peers: u64,
    /// Admission attempts processed.
    pub attempts: u64,
    /// Streaming sessions completed.
    pub sessions: u64,
    /// Simulated seconds of media one session streams.
    pub session_secs: u64,
    /// System capacity when the horizon was reached.
    pub final_capacity: f64,
}

/// One configured simulation, arrivals already generated.
pub struct Legacy {
    label: String,
    sim: Simulation,
}

/// Builds (but does not run) one simulation.
pub fn build(pattern: &ArrivalPattern, protocol: Protocol, scale: f64, seed: u64) -> Legacy {
    let config = SimConfig::builder()
        .seed_suppliers(((100.0 * scale).round() as u32).max(2))
        .requesting_peers(((50_000.0 * scale).round() as u32).max(50))
        .pattern(pattern.clone())
        .protocol(protocol)
        .build()
        .expect("the paper's configuration is valid at every scale");
    Legacy {
        label: format!(
            "pattern {} {}",
            pattern.paper_number().expect("paper pattern"),
            protocol.name()
        ),
        sim: Simulation::new(config, seed),
    }
}

impl Legacy {
    /// Runs the simulation to its horizon.
    pub fn run(self) -> LegacyResult {
        let peers = u64::from(self.sim.config().requesting_peers());
        let session_secs = self.sim.config().session_secs();
        let report = self.sim.run();
        LegacyResult {
            peers,
            attempts: report.attempts(),
            sessions: report.sessions_completed(),
            session_secs,
            final_capacity: report.final_capacity(),
        }
    }
}

struct Paper {
    seed: u64,
    scale: f64,
    /// The first round, built (arrivals generated) at set-up.
    first: Vec<Legacy>,
}

fn build_round(scale: f64, seed: u64) -> Vec<Legacy> {
    PATTERNS
        .iter()
        .flat_map(|p| {
            [Protocol::Dac, Protocol::Ndac]
                .into_iter()
                .map(move |protocol| build(p, protocol, scale, seed))
        })
        .collect()
}

/// Set-up: the eight configurations and their arrival sequences.
pub fn setup(seed: u64, seconds: f64) -> Box<dyn Prepared + Send> {
    let scale = REFERENCE_SCALE * seconds / REFERENCE_SECONDS;
    Box::new(Paper {
        seed,
        scale,
        first: build_round(scale, seed),
    })
}

impl Prepared for Paper {
    fn run(self: Box<Self>, _seconds: f64, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        // Per configuration: wall of every round, and the first round's result.
        let mut walls: Vec<Vec<f64>> = vec![Vec::new(); 8];
        let mut results: Vec<LegacyResult> = Vec::new();
        let mut wall_over_cpu = Vec::new();
        let start = Instant::now();
        let mut round = self.first;
        for r in 0..ROUNDS {
            for (i, legacy) in round.into_iter().enumerate() {
                let label = legacy.label.clone();
                let span = tracer.begin("sim.legacy_run", None, (r * 8 + i) as u64);
                let (t0, cpu0) = (Instant::now(), sysinfo::thread_cpu_ns());
                let result = legacy.run();
                let (wall, cpu) = (t0.elapsed(), sysinfo::thread_cpu_ns() - cpu0);
                tracer.end(span);
                out.attempted += 1;
                walls[i].push(wall.as_secs_f64());
                wall_over_cpu.push(wall.as_nanos() as f64 / cpu.max(1) as f64);
                if result.sessions == 0 || !result.final_capacity.is_finite() {
                    out.fail(format!("{label}: no session completed"));
                }
                match results.get(i) {
                    None => results.push(result),
                    // Same seed, same configuration: every round must
                    // reach the very same state.
                    Some(first) if *first != result => {
                        out.fail(format!("{label}: round {r} differs from round 0"));
                    }
                    Some(_) => {}
                }
            }
            // Later rounds are rebuilt between timed runs, untimed.
            round = if r + 1 < ROUNDS {
                build_round(self.scale, self.seed)
            } else {
                Vec::new()
            };
        }
        let raw_wall = start.elapsed().as_secs_f64();

        // The paper's claim (Fig. 4): differentiated admission grows the
        // system at least as fast as the baseline, on every pattern.
        let capacities: Vec<f64> = results.iter().map(|r| r.final_capacity).collect();
        for (p, pair) in capacities.chunks(2).enumerate() {
            if pair[0] + 1e-9 < pair[1] {
                out.fail(format!(
                    "pattern {}: DAC final capacity {} below NDAC {}",
                    p + 1,
                    pair[0],
                    pair[1]
                ));
            }
        }
        if self.seed == PINNED_SEED && self.scale == REFERENCE_SCALE {
            for (i, (got, want)) in capacities.iter().zip(PINNED_FINAL_CAPACITY).enumerate() {
                if (got - want).abs() > 1e-6 {
                    out.fail(format!(
                        "run {i}: final capacity {got:.6}, pinned {want:.6}"
                    ));
                }
            }
        }

        let best: Vec<f64> = walls
            .iter()
            .map(|w| w.iter().copied().fold(f64::INFINITY, f64::min))
            .collect();
        for ((result, best), walls) in results.iter().zip(&best).zip(&walls) {
            out.notes.push(format!(
                "  best {best:>7.3} s of {walls:.3?}  final capacity {:.6}  {} attempts  {} sessions",
                result.final_capacity, result.attempts, result.sessions
            ));
        }
        // One round of eight simulations, each at its fastest.
        let wall: f64 = best.iter().sum();
        let sum = |f: fn(&LegacyResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
        let (peers, attempts, sessions) =
            (sum(|r| r.peers), sum(|r| r.attempts), sum(|r| r.sessions));
        let media_secs = sum(|r| r.sessions * r.session_secs);
        let per_run = stats::summarize(&best).expect("eight configurations");
        let ratio = stats::summarize(&wall_over_cpu).expect("thirty-two runs");
        out.wall_s = wall;
        out.headline = peers / wall;
        out.end_to_end = vec![
            ("sim_peers_per_s", peers / wall),
            ("sim_runs_per_s", 8.0 / wall),
            ("sessions_per_s", sessions / wall),
            // The simulator's smallest unit of work stands where the
            // stack's segment does; payload is simulated media at the
            // nominal playback rate.
            ("segments_per_s", attempts / wall),
            ("payload_mib_per_s", media_secs * NOMINAL_RATE_MIB_S / wall),
            // The latency of the unit of work is one simulation's wall
            // (each at its fastest round). The ratio is wall over on-CPU
            // time.
            ("join_ms_p50", per_run.p50 * 1e3),
            ("join_ms_p75", per_run.p75 * 1e3),
            ("startup_ratio_p50", ratio.p50),
            ("startup_ratio_p90", ratio.p90),
        ];
        out.per_layer = vec![
            ("sim.legacy_run_s_p50", per_run.p50),
            ("sim.legacy_attempts_per_s", attempts / wall),
        ];
        let mut digest = crate::gen::Fnv::default();
        capacities.iter().for_each(|c| digest.push(c.to_bits()));
        out.digest = Some(digest.0);
        out.notes.insert(
            0,
            format!(
                "sim_paper: 8 simulations x {ROUNDS} rounds at {:.3} of the paper's population, \
                 {raw_wall:.2} s in all, {wall:.2} s for one round at each simulation's best",
                self.scale
            ),
        );
        out
    }
}
