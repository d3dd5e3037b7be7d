//! The monitor → timeseries bridge: the window of
//! `p2ps_metrics::TimeSeries` that the [`StatusServer`] thread fills from
//! the introspection tree, so a live node answers "what happened over the
//! last five minutes" and not just "what is true right now".
//!
//! Every sample walks the tree once, renders it through the same
//! Prometheus naming as `/metrics` (one series per family + label set,
//! keyed by the exposition sample key), appends the values at one shared
//! monotone timestamp, and trims each series to the retention window.
//! Scopes that vanish from the tree (a finished session) simply stop
//! receiving samples; their series age out of the window and are
//! dropped. The `/timeseries` route renders the window as CSV.
//!
//! [`StatusServer`]: crate::StatusServer

use std::collections::BTreeMap;
use std::fmt::Write;

use p2ps_metrics::TimeSeries;

use crate::Monitor;

/// The retained series, keyed by exposition sample key. Owned by the
/// status thread, which both samples into it and serves it.
#[derive(Debug, Default)]
pub(crate) struct SeriesWindow {
    store: BTreeMap<String, TimeSeries>,
}

impl SeriesWindow {
    /// Takes one sample of `monitor` at time `at_ms`: every Prometheus
    /// sample in the tree (family + label set, exactly as `/metrics`
    /// renders it) is appended to its series, then each series is
    /// trimmed to `[at_ms - retention_ms, at_ms]` and empty series are
    /// dropped. Timestamps must not go backwards across calls.
    pub(crate) fn sample(
        &mut self,
        monitor: &Monitor,
        prefix: &str,
        at_ms: u64,
        retention_ms: u64,
    ) {
        let text = monitor.snapshot().to_prometheus(prefix);
        let t = at_ms as f64;
        let cutoff = t - retention_ms as f64;
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(v) = value.parse::<f64>() else {
                continue;
            };
            self.store
                .entry(key.to_string())
                .or_insert_with(|| TimeSeries::new(key))
                .push(t, v);
        }
        self.store.retain(|_, series| {
            series.trim_before(cutoff);
            !series.is_empty()
        });
    }

    /// Renders the whole window as CSV: `series,time_ms,value`, one row
    /// per sample, series in sorted order, times ascending within each.
    /// This is the `/timeseries` HTTP body.
    pub(crate) fn to_csv(&self) -> String {
        let mut out = String::from("series,time_ms,value\n");
        for (name, series) in &self.store {
            for (t, v) in series.iter() {
                let _ = writeln!(out, "{name},{t},{v}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(window: &SeriesWindow, name: &str) -> Option<Vec<(f64, f64)>> {
        window.store.get(name).map(|s| s.iter().collect())
    }

    #[test]
    fn samples_accumulate_and_age_out() {
        let root = Monitor::root();
        let gauge = root.child("reactor", 0).gauge("depth", "queued bytes");
        let mut window = SeriesWindow::default();

        gauge.set(10);
        window.sample(&root, "p2ps", 1_000, 5_000);
        gauge.set(20);
        window.sample(&root, "p2ps", 2_000, 5_000);

        let depth = "p2ps_reactor_depth{reactor=\"0\"}";
        assert_eq!(
            points(&window, depth).unwrap(),
            vec![(1_000.0, 10.0), (2_000.0, 20.0)]
        );

        // A sample far in the future trims the old window away.
        gauge.set(30);
        window.sample(&root, "p2ps", 10_000, 5_000);
        assert_eq!(points(&window, depth).unwrap(), vec![(10_000.0, 30.0)]);
    }

    #[test]
    fn vanished_scopes_age_out_of_the_store() {
        let root = Monitor::root();
        let mut window = SeriesWindow::default();
        let has_session = |w: &SeriesWindow| w.store.keys().any(|n| n.contains("session=\"9\""));
        {
            let session = root.child("reactor", 0).child("session", 9);
            let owed = session.gauge("owed", "segments owed");
            owed.set(4);
            window.sample(&root, "p2ps", 0, 1_000);
        }
        assert!(has_session(&window));
        // The scope is gone; after the window passes, so is the series.
        window.sample(&root, "p2ps", 5_000, 1_000);
        assert!(!has_session(&window));
    }

    #[test]
    fn csv_rows_carry_series_time_value() {
        let root = Monitor::root();
        root.counter("ticks_total", "ticks").add(3);
        let mut window = SeriesWindow::default();
        window.sample(&root, "p2ps", 250, 60_000);
        let csv = window.to_csv();
        assert!(csv.starts_with("series,time_ms,value\n"), "{csv}");
        assert!(csv.contains("p2ps_ticks_total,250,3\n"), "{csv}");
    }
}
