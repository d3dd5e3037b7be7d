//! Layer probes: the cost of single public calls into each crate, timed
//! from here with the shapes the workloads use. They run on every traced
//! invocation, whatever the workload, so the ledger always has the same
//! rows; what a workload adds is counts, and `count × probe cost` is how
//! much of a session's CPU time the ledger can explain.

mod inner;
mod outer;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats;
use crate::workloads::Outcome;

/// Counts this thread's allocations for `proto.decode_allocs_per_frame`.
/// The count is thread-local so that the reactor, directory and viewer
/// threads of a live workload never share a cache line through it.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// counter with a const initialiser and no destructor, so it neither
// allocates nor runs code at thread exit.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) this thread has made so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Rounds timed per probe; the median is reported.
const ROUNDS: usize = 5;
/// Wall time the calibration loop (which doubles as warm-up) runs for.
const CALIBRATE_NS: u128 = 2_000_000;

/// Median nanoseconds per call of `f`: a calibration pass finds how many
/// calls fill about two milliseconds, then [`ROUNDS`] rounds of that many
/// calls are timed.
pub fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut iters = 0u64;
    while t0.elapsed().as_nanos() < CALIBRATE_NS {
        f();
        iters += 1;
    }
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&rounds).expect("ROUNDS > 0")
}

/// One layer's probes, appending `(metric name, value)` rows.
type Probe = fn(&mut Vec<(&'static str, f64)>);

/// Runs every probe. Names are those of `metrics::PER_LAYER`.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let groups: [(&str, Probe); 9] = [
        ("proto", inner::proto),
        ("policy", inner::policy),
        ("core", inner::core),
        ("media", inner::media),
        ("monitor", inner::monitor),
        ("net", outer::net),
        ("lookup", outer::lookup),
        ("node", outer::node),
        ("sim", outer::sim),
    ];
    for (layer, probe) in groups {
        let t0 = Instant::now();
        probe(&mut out);
        eprintln!("probes: {layer:<8} {:>7.3} s", t0.elapsed().as_secs_f64());
    }
    out
}

/// The per-layer table of one `swarm_*` workload.
pub struct Attribution {
    /// Share of a session's CPU time no probe accounts for: kernel,
    /// reactor dispatch and whatever the probes miss. A finding, not an
    /// error.
    pub unattributed_share: f64,
    /// The printed table.
    pub text: String,
}

/// Splits one session's CPU time across layers as `count × probe cost`.
/// Only the live-swarm workloads have a per-session CPU cost to split.
pub fn attribute(
    workload: &str,
    traced: &Outcome,
    probed: &[(&'static str, f64)],
) -> Option<Attribution> {
    if !workload.starts_with("swarm_") {
        return None;
    }
    let probe = |name: &str| {
        probed
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let layer = |name: &str| {
        traced
            .per_layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let session_ns = layer("node.cpu_ms_per_session") * 1e6;
    let segment_ns = layer("node.cpu_us_per_segment") * 1e3;
    if session_ns <= 0.0 || segment_ns <= 0.0 {
        return None;
    }
    let segments = session_ns / segment_ns;
    let suppliers = layer("node.suppliers_per_session");
    let attempts = layer("node.attempts_per_join");
    let bulk = workload == "swarm_bulk";
    let shape = |b: &str, s: &str| probe(if bulk { b } else { s });
    // `from_store` copies the whole file once; the small-shape probe is
    // scaled by segment count for the 12-segment `swarm_grow` file.
    let from_store_ns = if bulk {
        probe("media.from_store_us_bulk") * 1e3
    } else {
        probe("media.from_store_us_small") * 1e3 * segments / 512.0
    };
    let rows: [(&str, f64, f64); 14] = [
        (
            "proto.decode",
            segments,
            shape("proto.decode_ns_bulk", "proto.decode_ns_small"),
        ),
        (
            "proto.encode",
            segments,
            shape("proto.encode_ns_bulk", "proto.encode_ns_small"),
        ),
        (
            "proto.requester",
            segments,
            probe("proto.requester_ns_per_segment"),
        ),
        (
            "proto.supplier",
            segments,
            probe("proto.supplier_ns_per_segment"),
        ),
        // StreamRequest/Grant per lane and attempt, StartSession and
        // EndSession per supplier: about this many control frames.
        (
            "proto.control",
            attempts * suppliers.max(1.0) * 2.0 + suppliers * 2.0,
            probe("proto.control_ns"),
        ),
        (
            "proto.admission",
            attempts,
            probe("proto.admission_round_ns"),
        ),
        ("policy.plan", 1.0, probe("policy.plan_ns_otsp2p")),
        ("media.from_store", 1.0, from_store_ns),
        (
            "media.store_insert",
            segments,
            probe("media.store_insert_ns"),
        ),
        (
            "media.playback_delay",
            segments,
            probe("media.playback_delay_ns_per_segment"),
        ),
        ("node.driver", segments, probe("node.driver_ns_per_segment")),
        ("net.timer", segments, probe("net.timer_ns_per_timer")),
        (
            "net.accept",
            suppliers * attempts,
            probe("net.accept_us") * 1e3,
        ),
        // Bytes-in, bytes-out and progress counters per segment, both ends.
        (
            "monitor.counter",
            segments * 6.0,
            probe("monitor.counter_ns"),
        ),
    ];
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{workload}: one session = {:.1} segments, {suppliers:.2} suppliers, {attempts:.2} attempts",
        segments
    );
    let _ = writeln!(
        text,
        "  {:<24} {:>10} {:>12} {:>12} {:>7}",
        "layer", "count", "ns each", "ns total", "share"
    );
    let _ = writeln!(
        text,
        "  {:<24} {:>10} {:>12} {:>12.0} {:>6.1}%",
        "end to end (CPU/session)", 1, "", session_ns, 100.0
    );
    let mut explained = 0.0;
    for (name, count, each) in rows {
        let total = count * each;
        explained += total;
        let _ = writeln!(
            text,
            "  {name:<24} {count:>10.1} {each:>12.1} {total:>12.0} {:>6.1}%",
            total / session_ns * 100.0
        );
    }
    let unattributed_share = 1.0 - explained / session_ns;
    let _ = writeln!(
        text,
        "  {:<24} {:>10} {:>12} {:>12.0} {:>6.1}%  (kernel, reactor dispatch, unprobed code)",
        "unattributed",
        "",
        "",
        session_ns - explained,
        unattributed_share * 100.0
    );
    Some(Attribution {
        unattributed_share,
        text,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_call_scales_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = x.wrapping_add(std::hint::black_box(i));
                }
                std::hint::black_box(x);
            }
        };
        let (small, large) = (ns_per_call(spin(1_000)), ns_per_call(spin(20_000)));
        assert!(small > 0.0);
        assert!(large > small * 5.0, "{large} vs {small}");
    }

    #[test]
    fn allocations_are_counted_per_thread() {
        let before = thread_allocs();
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(&v);
        assert!(thread_allocs() > before);
        let here = thread_allocs();
        std::thread::spawn(|| std::hint::black_box(vec![1u8; 64]))
            .join()
            .unwrap();
        // Another thread's allocations are not ours (joining may allocate
        // a little here, so only bound it).
        assert!(thread_allocs() - here < 8);
    }

    #[test]
    fn attribution_accounts_for_the_probed_share() {
        let traced = Outcome {
            per_layer: vec![
                ("node.cpu_ms_per_session", 1.0),  // 1,000,000 ns
                ("node.cpu_us_per_segment", 10.0), // → 100 segments
                ("node.suppliers_per_session", 1.0),
                ("node.attempts_per_join", 1.0),
            ],
            ..Outcome::default()
        };
        let probed = vec![("proto.decode_ns_small", 2_000.0)];
        let a = attribute("swarm_small", &traced, &probed).unwrap();
        // Only decode is probed: 100 × 2,000 ns of 1,000,000 ns.
        assert!((a.unattributed_share - 0.8).abs() < 1e-9, "{}", a.text);
        assert!(a.text.contains("unattributed"));
        assert!(attribute("sim_paper", &traced, &probed).is_none());
    }
}
