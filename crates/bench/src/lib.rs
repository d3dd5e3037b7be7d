//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§5).
//!
//! Every figure and table is one entry of [`experiments::ALL`], run by
//! name through the one binary (`cargo run --release -p p2ps-bench --bin
//! experiments -- fig4 table1`, `-- all`, `-- --list`). Results are
//! printed as ASCII plots/tables and written as CSV under
//! `target/experiments/`.
//!
//! Scale is controlled with the `P2PS_SCALE` environment variable:
//! `paper` (default — the full 50,100-peer, 144-hour setup) or `quick`
//! (5,000 peers; same shapes, ~20× faster); any other value is refused.
//!
//! Performance is not measured here: the repo benchmark (`benchmark/`,
//! declared by the root `BENCHMARK.json`) is the one perf harness.

#![forbid(unsafe_code)]

pub mod experiments;
mod harness;

pub use harness::{BadScale, Harness, Scale};
