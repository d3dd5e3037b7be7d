//! `simnet_sweep`: the real protocol stack with no kernel underneath.
//!
//! One thread runs `p2ps_simnet` over seeds derived from the workload
//! seed, every seed against all five scenario kinds, until the deadline.
//! Codec, `AdmissionDriver`, `SessionDriver`, `RequesterSession`,
//! `SupplierSchedule` and policy do the work; no reactor, socket or
//! timer wheel runs, so a reactor or syscall change must leave this
//! workload where it was.

use std::time::{Duration, Instant};

use p2ps_simnet::{ScenarioKind, Schedule, SimOutcome, SimWorld};

use super::{Outcome, Prepared};
use crate::gen::{self, Fnv};
use crate::stats;
use crate::sysinfo;
use crate::trace::Tracer;

/// Runs per kind in the untimed warm-up that set-up ends with.
const WARMUP_SEEDS: usize = 200;
/// Seeds (× five kinds) whose trace hashes form the repeatable digest.
const DIGEST_SEEDS: usize = 1_000;
/// Seeds re-run after the window to prove the digest prefix repeats.
const RECHECK_SEEDS: usize = 64;
/// Seeds per slice (× five kinds, about 35 ms of work). Each slice is
/// timed whole; rates are read at the fastest slice's cost per simulated
/// event, see [`stats::best_slice_cost`].
const SLICE_SEEDS: usize = 100;

/// Set-up: the seed stream plus a warm-up pass over every kind, so the
/// measured window starts with allocator and caches in steady state.
pub fn setup(seed: u64, _seconds: f64) -> Box<dyn Prepared + Send> {
    for s in gen::seed_stream(seed, "simnet-warmup").take(WARMUP_SEEDS) {
        for kind in ScenarioKind::ALL {
            std::hint::black_box(p2ps_simnet::run(s, kind));
        }
    }
    Box::new(Sweep { seed })
}

struct Sweep {
    seed: u64,
}

#[derive(Default, Clone, Copy)]
struct KindCost {
    runs: u64,
    ns: u64,
}

impl Prepared for Sweep {
    fn run(self: Box<Self>, seconds: f64, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut per_kind = [KindCost::default(); ScenarioKind::ALL.len()];
        let mut run_ms: Vec<f64> = Vec::with_capacity(1 << 18);
        let mut slice_ratio: Vec<f64> = Vec::new();
        let mut slices: Vec<(f64, f64)> = Vec::new();
        let mut prefix: Vec<u64> = Vec::with_capacity(DIGEST_SEEDS * per_kind.len());
        let (mut completed, mut segments, mut wire_bytes, mut events, mut peers) =
            (0u64, 0u64, 0u64, 0u64, 0u64);

        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut seeds = gen::seed_stream(self.seed, "simnet");
        let mut last = start;
        'sweep: loop {
            let span = tracer.begin("simnet.slice", None, out.attempted);
            let (slice_wall, slice_cpu, slice_events) = (last, sysinfo::thread_cpu_ns(), events);
            for _ in 0..SLICE_SEEDS {
                let s = seeds.next().expect("endless stream");
                for (k, kind) in ScenarioKind::ALL.into_iter().enumerate() {
                    let schedule = Schedule::derive(s, kind);
                    peers += schedule.mix.len() as u64 + 1;
                    let report = SimWorld::new(schedule).run();
                    let now = Instant::now();
                    let ns = (now - last).as_nanos() as u64;
                    last = now;
                    per_kind[k].runs += 1;
                    per_kind[k].ns += ns;
                    run_ms.push(ns as f64 / 1e6);
                    out.attempted += 1;
                    if !report.outcome.is_acceptable() {
                        out.fail(format!("{:?}: {}", report.outcome, report.repro_hint()));
                    }
                    if matches!(report.outcome, SimOutcome::Completed { .. }) {
                        completed += 1;
                    }
                    segments += report.segments_delivered;
                    wire_bytes += report.bytes_on_wire;
                    events += report.events;
                    if prefix.len() < prefix.capacity() {
                        prefix.push(report.trace_hash);
                    }
                }
                if last >= deadline {
                    tracer.end(span);
                    break 'sweep;
                }
            }
            tracer.end(span);
            let wall_ns = (last - slice_wall).as_nanos() as f64;
            let cpu = (sysinfo::thread_cpu_ns() - slice_cpu).max(1);
            slice_ratio.push(wall_ns / cpu as f64);
            slices.push((wall_ns / 1e9, (events - slice_events) as f64));
        }
        let raw_wall = (last - start).as_secs_f64();
        // The wall the sweep would have taken had every slice run at the
        // fastest slice's cost per event. A pass shorter than one slice
        // has nothing to choose from and keeps its raw wall.
        let wall = stats::best_slice_cost(&slices).map_or(raw_wall, |c| c * events as f64);

        // Same seed, same universe: the head of the sweep must replay
        // bit for bit, and its fold is what a second pass must reproduce.
        let mut digest = Fnv::default();
        prefix.iter().for_each(|h| digest.push(*h));
        let replay = gen::seed_stream(self.seed, "simnet")
            .take(RECHECK_SEEDS)
            .flat_map(|s| ScenarioKind::ALL.map(|kind| p2ps_simnet::run(s, kind).trace_hash));
        if let Some(i) = prefix.iter().zip(replay).position(|(a, b)| *a != b) {
            out.fail(format!(
                "run {i} of the sweep did not replay to the same trace hash"
            ));
        }
        if prefix.len() == prefix.capacity() {
            out.digest = Some(digest.0);
        }

        let runs = out.attempted as f64;
        let per_run = stats::summarize(&run_ms).expect("at least one run");
        // A pass shorter than one slice has no ratio; 1.0 then.
        let ratio = stats::summarize(&slice_ratio);
        let steady_ms_per_run = wall * 1e3 / runs;
        out.wall_s = wall;
        out.headline = runs / wall;
        out.end_to_end = vec![
            ("sim_runs_per_s", runs / wall),
            ("sim_peers_per_s", peers as f64 / wall),
            ("sessions_per_s", completed as f64 / wall),
            ("segments_per_s", segments as f64 / wall),
            // Bytes the simulated links carried: every one went through
            // the real encoder and decoder.
            (
                "payload_mib_per_s",
                wire_bytes as f64 / (1024.0 * 1024.0) / wall,
            ),
            // No viewer waits here; the latency of the unit of work is the
            // wall time of one run (the tail keeps its measured distance
            // from the median), and the ratio is wall over on-CPU time per
            // slice (1.0 is an undisturbed core).
            (
                "join_ms_p50",
                steady_ms_per_run * per_run.p50 / per_run.mean,
            ),
            (
                "join_ms_p75",
                steady_ms_per_run * per_run.p75 / per_run.mean,
            ),
            ("startup_ratio_p50", ratio.map_or(1.0, |r| r.p50)),
            ("startup_ratio_p90", ratio.map_or(1.0, |r| r.p90)),
        ];
        let us = |k: usize| per_kind[k].ns as f64 / 1e3 / per_kind[k].runs.max(1) as f64;
        out.per_layer = vec![
            ("simnet.steady_us_per_run", us(0)),
            ("simnet.churn_us_per_run", us(1)),
            ("simnet.loss_us_per_run", us(2)),
            ("simnet.slowpeer_us_per_run", us(3)),
            ("simnet.admission_us_per_run", us(4)),
            ("simnet.events_per_s", events as f64 / wall),
        ];
        out.notes.push(format!(
            "simnet_sweep: {} runs in {raw_wall:.2} s, {wall:.2} s at the fastest of {} slices \
             ({completed} completed byte-exact, {} structured failures), \
             per-run p50 {:.1} us p90 {:.1} us p{} {:.1} us, digest {:016x} over the first {} runs",
            out.attempted,
            slices.len(),
            out.attempted - completed,
            per_run.p50 * 1e3,
            per_run.p90 * 1e3,
            per_run.tail_at * 100.0,
            per_run.tail * 1e3,
            digest.0,
            prefix.len(),
        ));
        out
    }
}
