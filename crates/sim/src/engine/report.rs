//! Results of one amplification run.

use serde::{Deserialize, Serialize};

use p2ps_core::Bandwidth;
use p2ps_metrics::{eng, Table};

/// The first time serving capacity reached `factor ×` the seed
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FoldCrossing {
    /// Power-of-two amplification factor (2, 4, 8, …).
    pub factor: u64,
    /// Virtual time of the first epoch boundary at or past the
    /// crossing, in seconds.
    pub at_secs: u32,
}

/// Everything one [`super::AmpEngine`] run measures: exact integer
/// counters, the capacity-evolution and rejection-rate curves, the
/// time-to-N-fold crossings, and the trace digest that pins the run
/// bit-for-bit across shard and thread counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AmpReport {
    /// Total population (seeds + requesters).
    pub peers: u32,
    /// Seed suppliers at `t = 0`.
    pub seeds: u32,
    /// Logical shard count of the run.
    pub shards: u32,
    /// Worker threads actually used.
    pub threads: usize,
    /// The run's seed.
    pub seed: u64,
    /// Events processed: local events, plus probes, plus one per
    /// requester that probed at a boundary, plus commits. Replies are not
    /// counted, and no longer match probes one to one: only grants and
    /// busy-favored answers are sent.
    pub events: u64,
    /// Admission attempts issued.
    pub attempts: u64,
    /// Attempts that secured exactly `R0`.
    pub admits: u64,
    /// Attempts that failed and backed off.
    pub rejects: u64,
    /// Peers that finished streaming and became suppliers.
    pub supplies: u64,
    /// Suppliers that departed (churn).
    pub departures: u64,
    /// Seed serving capacity in `R0/2^16` fixed-point units.
    pub initial_capacity_raw: i64,
    /// Final serving capacity in the same units.
    pub final_capacity_raw: i64,
    /// First crossing times of each power-of-two amplification factor.
    pub fold_crossings: Vec<FoldCrossing>,
    /// `(t_secs, capacity_raw)` samples of the capacity evolution.
    pub capacity_curve: Vec<(u32, i64)>,
    /// `(t_secs, attempts, rejects)` per sampling window.
    pub rejection_curve: Vec<(u32, u64, u64)>,
    /// Digest of the run's multiset of trace records: the wrapping sum
    /// of a 64-bit mix of each, so it depends on neither emission order
    /// nor shard layout.
    pub trace_hash: u64,
    /// Wall-clock duration of the run, in microseconds.
    pub elapsed_micros: u64,
}

impl AmpReport {
    /// Final capacity as a multiple of the seed capacity — the paper's
    /// capacity-amplification measure.
    pub fn amplification(&self) -> f64 {
        if self.initial_capacity_raw == 0 {
            return 0.0;
        }
        self.final_capacity_raw as f64 / self.initial_capacity_raw as f64
    }

    /// Final capacity in units of the playback rate `R0`.
    pub fn final_capacity(&self) -> f64 {
        self.final_capacity_raw as f64 / f64::from(Bandwidth::FULL_RATE.raw())
    }

    /// Virtual seconds until capacity first reached `factor ×` the seed
    /// capacity, if it did. `factor` must be a power of two.
    pub fn time_to_fold(&self, factor: u64) -> Option<u32> {
        self.fold_crossings
            .iter()
            .find(|c| c.factor == factor)
            .map(|c| c.at_secs)
    }

    /// Fraction of attempts that were admitted.
    pub fn admission_rate(&self) -> f64 {
        if self.attempts == 0 {
            return 0.0;
        }
        self.admits as f64 / self.attempts as f64
    }

    /// Wall-clock duration of the run.
    pub fn elapsed(&self) -> std::time::Duration {
        std::time::Duration::from_micros(self.elapsed_micros)
    }

    /// Peers simulated per wall-clock second.
    pub fn peers_per_sec(&self) -> f64 {
        let secs = self.elapsed_micros as f64 / 1e6;
        if secs == 0.0 {
            return 0.0;
        }
        f64::from(self.peers) / secs
    }

    /// Events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.elapsed_micros as f64 / 1e6;
        if secs == 0.0 {
            return 0.0;
        }
        self.events as f64 / secs
    }

    /// Renders the headline metrics as an aligned two-column table; the
    /// fixed-width [`eng`] notation keeps a 10⁶-peer row exactly as
    /// wide as a 10²-peer one.
    pub fn table(&self) -> String {
        let mut table = Table::new(["metric", "value"]);
        let row = |t: &mut Table, k: &str, v: String| {
            t.row([k.to_string(), v]);
        };
        row(&mut table, "peers", eng(f64::from(self.peers)));
        row(&mut table, "seeds", eng(f64::from(self.seeds)));
        row(&mut table, "events", eng(self.events as f64));
        row(&mut table, "attempts", eng(self.attempts as f64));
        row(&mut table, "admits", eng(self.admits as f64));
        row(&mut table, "rejects", eng(self.rejects as f64));
        row(&mut table, "suppliers", eng(self.supplies as f64));
        row(&mut table, "departures", eng(self.departures as f64));
        row(&mut table, "capacity (R0)", eng(self.final_capacity()));
        row(
            &mut table,
            "amplification",
            format!("{:.2}x", self.amplification()),
        );
        for c in &self.fold_crossings {
            row(
                &mut table,
                &format!("t to {}x", c.factor),
                format!("{:>7.2}h", f64::from(c.at_secs) / 3_600.0),
            );
        }
        row(&mut table, "events/sec", eng(self.events_per_sec()));
        row(&mut table, "peers/sec", eng(self.peers_per_sec()));
        row(
            &mut table,
            "trace hash",
            format!("{:016x}", self.trace_hash),
        );
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AmpReport {
        AmpReport {
            peers: 1_000_064,
            seeds: 64,
            shards: 4,
            threads: 4,
            seed: 42,
            events: 12_345_678,
            attempts: 2_000_000,
            admits: 900_000,
            rejects: 1_100_000,
            supplies: 900_000,
            departures: 10_000,
            initial_capacity_raw: 64 * 32_768,
            final_capacity_raw: 64 * 32_768 * 128,
            fold_crossings: vec![
                FoldCrossing {
                    factor: 2,
                    at_secs: 3_600,
                },
                FoldCrossing {
                    factor: 4,
                    at_secs: 7_200,
                },
            ],
            capacity_curve: vec![(0, 64 * 32_768)],
            rejection_curve: vec![(3_600, 100, 40)],
            trace_hash: 0xDEAD_BEEF,
            elapsed_micros: 2_000_000,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = sample();
        assert_eq!(r.amplification(), 128.0);
        assert_eq!(r.time_to_fold(2), Some(3_600));
        assert_eq!(r.time_to_fold(4), Some(7_200));
        assert_eq!(r.time_to_fold(8), None);
        assert!((r.admission_rate() - 0.45).abs() < 1e-12);
        // Seeds offer R0/2 each (32,768 raw), so 64 seeds amplified
        // 128-fold serve 4,096 full-rate streams.
        assert_eq!(r.final_capacity(), 4_096.0);
        assert!((r.peers_per_sec() - 500_032.0).abs() < 1.0);
        assert_eq!(r.elapsed().as_secs(), 2);
    }

    #[test]
    fn table_rows_align_across_magnitudes() {
        let text = sample().table();
        assert!(text.contains("amplification"));
        assert!(text.contains("128.00x"));
        assert!(text.contains("t to 2x"));
        // The eng()-formatted count rows align on the decimal point
        // even though they span 64 to 12.3 million.
        let dots: Vec<usize> = text
            .lines()
            .filter(|l| {
                ["peers ", "seeds ", "events ", "attempts "]
                    .iter()
                    .any(|k| l.starts_with(k))
            })
            .map(|l| l.find('.').unwrap())
            .collect();
        assert_eq!(dots.len(), 4, "{text}");
        assert!(dots.windows(2).all(|w| w[0] == w[1]), "{text}");
    }

    #[test]
    fn zero_denominators_do_not_panic() {
        let mut r = sample();
        r.initial_capacity_raw = 0;
        r.attempts = 0;
        r.elapsed_micros = 0;
        assert_eq!(r.amplification(), 0.0);
        assert_eq!(r.admission_rate(), 0.0);
        assert_eq!(r.peers_per_sec(), 0.0);
        assert_eq!(r.events_per_sec(), 0.0);
    }
}
