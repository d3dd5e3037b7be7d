//! Metrics substrate for the `p2ps` peer-to-peer media streaming
//! reproduction.
//!
//! The evaluation section of *On Peer-to-Peer Media Streaming* (ICDCS 2002)
//! reports time series (system capacity, accumulative admission rate,
//! accumulative average buffering delay), windowed averages (lowest favored
//! class per 3-hour window) and tables (average rejections before
//! admission). This crate provides the small, dependency-light building
//! blocks used by the simulator and the experiment harness to collect and
//! render those results:
//!
//! * [`TimeSeries`] — `(t, value)` samples with resampling helpers.
//! * [`StepSeries`] — piecewise-constant series sampled on demand.
//! * [`WindowedAverage`] — fixed-width window averages (paper Fig. 7).
//! * [`Reservoir`] — uniform reservoir sample with exact quantiles.
//! * [`Table`] — aligned text tables (paper Table 1).
//! * [`eng`] — fixed-width engineering notation for large counts.
//! * [`AsciiPlot`] — multi-series terminal line plots (paper figures).
//! * [`CsvWriter`] — minimal CSV emission for post-processing.
//! * [`prometheus`] — Prometheus text exposition rendering, used by the
//!   `p2ps-monitor` introspection tree's `/metrics` endpoint.
//!
//! # Examples
//!
//! ```
//! use p2ps_metrics::{Reservoir, TimeSeries};
//!
//! let mut series = TimeSeries::new("capacity");
//! series.push(0.0, 100.0);
//! series.push(1.0, 150.0);
//! assert_eq!(series.len(), 2);
//!
//! let mut delays = Reservoir::new(64, 7);
//! for x in [3.0, 1.0, 2.0] {
//!     delays.record(x);
//! }
//! assert_eq!(delays.quantile(0.5), Some(2.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csv;
mod format;
mod plot;
pub mod prometheus;
mod reservoir;
mod table;
mod timeseries;
mod window;

pub use csv::CsvWriter;
pub use format::eng;
pub use plot::AsciiPlot;
pub use reservoir::Reservoir;
pub use table::Table;
pub use timeseries::{StepSeries, TimeSeries};
pub use window::WindowedAverage;
