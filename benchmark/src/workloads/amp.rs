//! `amp_flash`: `AmpEngine` under a flash crowd, the only workload that
//! runs on every core.
//!
//! 400,000 requesters, 200 seeds, 64 catalog items, arrivals over one
//! simulated hour, a 4 h horizon in 60 s epochs, 64 shards and
//! `threads = nproc` at the reference pass length; the requesters scale
//! linearly with `--seconds`. The engine runs its whole horizon in
//! one call, so the work is fixed at set-up. It is run [`ROUNDS`] times —
//! cold, then `reset` + `execute` with the same seed — and read at the
//! fastest round (see [`crate::stats::best_slice_cost`]); every round
//! must end in the same trace hash.

use std::time::Instant;

use p2ps_sim::{AmpConfig, AmpEngine, ArrivalProcess};

use super::sim_paper::{NOMINAL_RATE_MIB_S, REFERENCE_SECONDS};
use super::{Outcome, Prepared};
use crate::sysinfo;
use crate::trace::Tracer;

/// Times the engine runs its horizon.
const ROUNDS: usize = 4;

/// A flash-crowd configuration of the given size.
pub fn flash_config(peers: u32, seeds: u32, items: u16, shards: u32, threads: usize) -> AmpConfig {
    let mut builder = AmpConfig::builder();
    builder
        .requesting_peers(peers)
        .seed_suppliers(seeds)
        .catalog_items(items)
        .process(ArrivalProcess::flash_crowd())
        .arrival_window_secs(3_600)
        .horizon_secs(4 * 3_600)
        .epoch_secs(60)
        .shards(shards)
        .threads(threads);
    builder.build().expect("valid flash-crowd configuration")
}

struct Flash {
    seed: u64,
    engine: AmpEngine,
    threads: usize,
    setup_s: f64,
    bytes_per_peer: f64,
}

/// Set-up: `AmpEngine::new` (peer store, arrival generation, shard
/// queues).
pub fn setup(seed: u64, seconds: f64) -> Box<dyn Prepared + Send> {
    let scale = seconds / REFERENCE_SECONDS;
    let peers = ((400_000.0 * scale).round() as u32).max(1_000);
    // Seeds do not scale: below one per shard the crowd admits nobody.
    let seeds = 200;
    let threads = sysinfo::nproc();
    let config = flash_config(peers, seeds, 64, 64, threads);
    let (t0, rss0) = (Instant::now(), sysinfo::resident_bytes());
    let engine = AmpEngine::new(config, seed);
    Box::new(Flash {
        seed,
        threads,
        setup_s: t0.elapsed().as_secs_f64(),
        bytes_per_peer: (sysinfo::resident_bytes() - rss0).max(0.0) / f64::from(peers + seeds),
        engine,
    })
}

impl Prepared for Flash {
    fn run(mut self: Box<Self>, _seconds: f64, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut rounds: Vec<(f64, u64)> = Vec::with_capacity(ROUNDS);
        let mut hashes = Vec::with_capacity(ROUNDS);
        for round in 0..ROUNDS {
            if round > 0 {
                self.engine.reset(self.seed);
            }
            let span = tracer.begin("sim.engine_run", None, round as u64);
            let (t0, cpu0) = (Instant::now(), sysinfo::process_cpu_ns());
            self.engine.execute();
            rounds.push((t0.elapsed().as_secs_f64(), sysinfo::process_cpu_ns() - cpu0));
            tracer.end(span);
            hashes.push(self.engine.report().trace_hash);
        }
        let report = self.engine.report();
        out.attempted = ROUNDS as u64;
        if report.admits == 0 {
            out.fail("the flash crowd admitted nobody".into());
        }
        if hashes.iter().any(|h| *h != hashes[0]) {
            out.fail(format!(
                "rounds of one seed ended in different traces: {hashes:016x?}"
            ));
        }
        let (wall, cpu) = rounds
            .iter()
            .copied()
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("walls are never NaN"))
            .expect("ROUNDS > 0");

        // Determinism at any shard count, on a 10⁴-peer sibling: the three
        // digests must be one.
        let sibling: Vec<u64> = [1u32, 2, 4]
            .into_iter()
            .map(|shards| {
                AmpEngine::new(flash_config(10_000, 64, 16, shards, 1), self.seed)
                    .run()
                    .trace_hash
            })
            .collect();
        if sibling.iter().any(|h| *h != sibling[0]) {
            out.fail(format!("1/2/4-shard digests disagree: {sibling:016x?}"));
        }

        let peers = f64::from(report.peers);
        let session_secs = f64::from(self.engine.config().session_secs());
        let ideal = cpu as f64 / 1e9 / self.threads as f64;
        out.wall_s = wall;
        out.headline = peers / wall;
        out.digest = Some(report.trace_hash);
        out.end_to_end = vec![
            ("sim_peers_per_s", peers / wall),
            ("sim_runs_per_s", 1.0 / wall),
            ("sessions_per_s", report.admits as f64 / wall),
            // Events stand where the stack's segments do; payload is the
            // admitted sessions' media at the nominal playback rate.
            ("segments_per_s", report.events as f64 / wall),
            (
                "payload_mib_per_s",
                report.admits as f64 * session_secs * NOMINAL_RATE_MIB_S / wall,
            ),
            // Four rounds resolve no percentile: both read the fastest
            // round's wall, and the ratio is that wall over the wall an
            // ideally parallel run of its CPU time would take (barrier
            // wait shows here).
            ("join_ms_p50", wall * 1e3),
            ("join_ms_p75", wall * 1e3),
            ("startup_ratio_p50", wall / ideal.max(1e-9)),
            ("startup_ratio_p90", wall / ideal.max(1e-9)),
        ];
        out.per_layer = vec![
            ("sim.engine_events_per_s", report.events as f64 / wall),
            (
                "sim.engine_ns_per_event",
                wall * 1e9 / report.events.max(1) as f64,
            ),
            ("sim.engine_setup_s", self.setup_s),
            ("sim.engine_bytes_per_peer", self.bytes_per_peer),
        ];
        out.notes.push(format!(
            "amp_flash: {} peers, {} events, {} admits / {} attempts, {} threads, best {wall:.2} s of {:.2?}, \
             wall/ideal {:.3}, trace {:016x}",
            report.peers,
            report.events,
            report.admits,
            report.attempts,
            self.threads,
            rounds.iter().map(|r| r.0).collect::<Vec<_>>(),
            wall / ideal.max(1e-9),
            report.trace_hash,
        ));
        out
    }
}
