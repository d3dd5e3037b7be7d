//! Property-based tests for the metrics substrate.

use proptest::prelude::*;

use p2ps_metrics::{StepSeries, TimeSeries, WindowedAverage};

proptest! {
    /// TimeSeries step lookup matches a naive linear scan.
    #[test]
    fn value_at_matches_linear_scan(
        deltas in prop::collection::vec(0f64..10.0, 1..50),
        values in prop::collection::vec(-100f64..100.0, 1..50),
        probe in -5f64..500.0,
    ) {
        let mut series = TimeSeries::new("s");
        let mut t = 0.0;
        let pairs: Vec<(f64, f64)> = deltas
            .iter()
            .zip(&values)
            .map(|(d, v)| {
                t += d;
                (t, *v)
            })
            .collect();
        series.extend(pairs.iter().copied());
        let naive = pairs.iter().rev().find(|(time, _)| *time <= probe).map(|(_, v)| *v);
        prop_assert_eq!(series.value_at(probe), naive);
    }

    /// Resampling preserves the value range of the step function.
    #[test]
    fn resample_stays_within_range(
        deltas in prop::collection::vec(0.1f64..5.0, 2..20),
        values in prop::collection::vec(-10f64..10.0, 2..20),
    ) {
        let mut series = TimeSeries::new("s");
        let mut t = 0.0;
        for (d, v) in deltas.iter().zip(&values) {
            t += d;
            series.push(t, *v);
        }
        let (lo, hi) = series.value_range().unwrap();
        let r = series.resample(0.0, t + 5.0, 0.5);
        for (_, v) in r.iter() {
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
        }
    }

    /// StepSeries current value equals the sum of all deltas.
    #[test]
    fn step_series_sums_deltas(deltas in prop::collection::vec(-100f64..100.0, 0..50)) {
        let mut s = StepSeries::new("cap", 0.0);
        let mut t = 0.0;
        let mut expected = 0.0;
        for d in &deltas {
            t += 1.0;
            s.add(t, *d);
            expected += d;
        }
        prop_assert!((s.current() - expected).abs() < 1e-9);
    }

    /// WindowedAverage: the grand total of (mean × count) per window equals
    /// the sum of all recorded values.
    #[test]
    fn windowed_average_conserves_mass(
        obs in prop::collection::vec((0f64..100.0, -50f64..50.0), 0..100),
        width in 0.5f64..20.0,
    ) {
        let mut w = WindowedAverage::new("w", width);
        let mut counts = std::collections::HashMap::new();
        for (t, v) in &obs {
            w.record(*t, *v);
            *counts.entry((t / width) as usize).or_insert(0u64) += 1;
        }
        let mut total_from_windows = 0.0;
        for (idx, n) in counts {
            total_from_windows += w.window_mean(idx).unwrap() * n as f64;
        }
        let direct: f64 = obs.iter().map(|(_, v)| v).sum();
        prop_assert!((total_from_windows - direct).abs() < 1e-6 * (1.0 + direct.abs()));
    }
}
