//! The results file, and `compare A.json B.json`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::metrics::{self, MetricDef};
use crate::stats;
use crate::workloads::WORKLOADS;

/// Schema tag of the results file.
pub const SCHEMA: &str = "p2ps-benchmark/1";

/// `BENCHMARK.json` as it was when this binary was built: the bounds
/// `compare` judges with are the ones the driver judges with.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Regression bound of every end-to-end metric.
pub fn bounds() -> BTreeMap<String, f64> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parsed when this was built");
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// One workload's runs as read back from a results file.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WorkloadRuns {
    /// Untraced runs: end-to-end metric → one value per run.
    pub end_to_end: BTreeMap<String, Vec<f64>>,
    /// The traced run's ledger.
    pub per_layer: BTreeMap<String, f64>,
    /// Operations attempted, summed over runs.
    pub attempted: u64,
    /// Operations failed, summed over runs.
    pub failed: u64,
}

/// A parsed results file.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Results {
    /// The `meta` object, as written.
    pub meta: Vec<(String, Value)>,
    /// Runs by workload name.
    pub workloads: BTreeMap<String, WorkloadRuns>,
}

impl Results {
    /// Reads a results file.
    ///
    /// # Errors
    ///
    /// I/O and format errors, as text.
    pub fn load(path: &str) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Results::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Parses the text of a results file.
    ///
    /// # Errors
    ///
    /// What is missing or malformed.
    pub fn parse(text: &str) -> Result<Results, String> {
        let doc = json::parse(text)?;
        if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} results file"));
        }
        let mut out = Results {
            meta: doc
                .get("meta")
                .and_then(Value::as_obj)
                .map(<[_]>::to_vec)
                .unwrap_or_default(),
            workloads: BTreeMap::new(),
        };
        for run in doc.get("runs").and_then(Value::as_arr).ok_or("no runs")? {
            let name = run
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("run without workload")?;
            let result = run.get("result").ok_or("run without result")?;
            let traced = run.get("trace").and_then(Value::as_f64) == Some(1.0);
            let slot = out.workloads.entry(name.to_owned()).or_default();
            let count = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
            slot.attempted += count("attempted");
            slot.failed += count("failed");
            if result.get("correct") != Some(&Value::Bool(true)) && count("failed") == 0 {
                slot.failed += 1; // an incomplete result is a failed run
            }
            let members = result
                .get("metrics")
                .and_then(Value::as_obj)
                .ok_or("result without metrics")?;
            for (metric, entry) in members {
                let value = entry
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{metric} without a value"))?;
                if traced {
                    slot.per_layer.insert(metric.clone(), value);
                } else {
                    slot.end_to_end
                        .entry(metric.clone())
                        .or_default()
                        .push(value);
                }
            }
        }
        Ok(out)
    }
}

/// Judgement of one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the bound allows.
    Ok,
    /// Worse by more than the bound.
    Worse,
    /// The runs spread wider than the bound and overlap: no verdict.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Median of the base runs (A).
    pub base: f64,
    /// Median of the other runs (B).
    pub other: f64,
    /// `other / base`.
    pub ratio: f64,
    /// Share of the base by which B is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two run-to-run spreads, with two or more runs.
    pub spread: Option<f64>,
    /// The judgement.
    pub verdict: Verdict,
}

/// Judges B against A for one metric on one workload.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Option<Row> {
    let (base, other) = (stats::median(a)?, stats::median(b)?);
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let worse_by = if higher_is_better {
        (base - other) / base.abs()
    } else {
        (other - base) / base.abs()
    };
    let spread = match (stats::spread(a), stats::spread(b)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    let separated = |x: &[f64], y: &[f64]| x.iter().all(|p| y.iter().all(|q| better(*p, *q)));
    let verdict = if spread.is_some_and(|s| s > bound) {
        // Too noisy to call on medians; only a clean separation counts.
        if separated(b, a) {
            Verdict::Ok
        } else if separated(a, b) && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Some(Row {
        base,
        other,
        ratio: other / base,
        worse_by,
        spread,
        verdict,
    })
}

fn unit_of(name: &str) -> &'static str {
    metrics::find(name).map_or("", |m| m.unit)
}

/// Prints one child run: every metric by name, with its unit.
pub fn print_run(workload: &str, trace: u8, result: &Value) {
    let attempted = result
        .get("attempted")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let failed = result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
    println!(
        "{workload} ({}): ops_failed {failed} / ops_attempted {attempted}",
        if trace == 1 {
            "traced, per layer"
        } else {
            "end to end"
        }
    );
    for (name, entry) in result.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
        let value = entry
            .get("value")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        println!("  {name:<36} {value:>16.4} {}", unit_of(name));
    }
}

/// Prints median and quartiles of every end-to-end metric per workload.
pub fn print_summary(results: &Results) {
    println!("\nend-to-end summary (median [q1 .. q3] over runs)");
    for def in &WORKLOADS {
        let Some(runs) = results.workloads.get(def.name) else {
            continue;
        };
        println!(
            "{}: ops_failed {} / ops_attempted {}",
            def.name, runs.failed, runs.attempted
        );
        for m in &metrics::END_TO_END {
            let Some(values) = runs.end_to_end.get(m.name) else {
                continue;
            };
            let median = stats::median(values).unwrap_or(f64::NAN);
            match stats::quartiles(values) {
                Some([q1, _, q3]) => println!(
                    "  {:<22} {median:>14.4} {:<6} [{q1:.4} .. {q3:.4}] n={} spread {:.2} %",
                    m.name,
                    m.unit,
                    values.len(),
                    stats::spread(values).unwrap_or(f64::NAN) * 100.0
                ),
                None => println!("  {:<22} {median:>14.4} {}", m.name, m.unit),
            }
        }
    }
}

/// Compares two loaded result sets; returns the printed table and how
/// many pairs are worse.
pub fn table(a: &Results, b: &Results, bounds: &BTreeMap<String, f64>) -> (String, usize) {
    use std::fmt::Write as _;
    let mut text = String::new();
    let mut worse = 0;
    let _ = writeln!(
        text,
        "{:<14} {:<20} {:>14} {:>14} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound", "spread"
    );
    for def in &WORKLOADS {
        let (Some(ra), Some(rb)) = (a.workloads.get(def.name), b.workloads.get(def.name)) else {
            continue;
        };
        for m in &metrics::END_TO_END {
            let MetricDef {
                name,
                higher_is_better,
                ..
            } = *m;
            let (Some(va), Some(vb)) = (ra.end_to_end.get(name), rb.end_to_end.get(name)) else {
                continue;
            };
            let bound = bounds.get(name).copied().unwrap_or(0.25);
            let Some(row) = judge(va, vb, higher_is_better, bound) else {
                continue;
            };
            worse += usize::from(row.verdict == Verdict::Worse);
            let spread = row
                .spread
                .map_or_else(|| "-".to_owned(), |s| format!("{:.1}%", s * 100.0));
            let _ = writeln!(
                text,
                "{:<14} {:<20} {:>14.4} {:>14.4} {:>8.4} {:>6.0}% {:>8}  {}",
                def.name,
                name,
                row.base,
                row.other,
                row.ratio,
                bound * 100.0,
                spread,
                row.verdict.label()
            );
        }
        let _ = writeln!(
            text,
            "{:<14} ops_failed / ops_attempted: A {} / {}   B {} / {}",
            def.name, ra.failed, ra.attempted, rb.failed, rb.attempted
        );
        worse += usize::from(rb.failed > ra.failed);
    }
    (text, worse)
}

/// `compare A.json B.json`.
pub fn command(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two results files".into());
    };
    let (ra, rb) = (Results::load(a)?, Results::load(b)?);
    let (text, worse) = table(&ra, &rb, &bounds());
    print!("{text}");
    println!(
        "ratio base: A = {a}; bound = share of A's median by which B may be worse; \
         unresolved = runs spread wider than the bound and overlap"
    );
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{worse} pair(s) worse than their bound");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_synthetic_inputs() {
        // Within the bound, either direction.
        let r = judge(&[100.0], &[96.0], true, 0.05).unwrap();
        assert_eq!(r.verdict, Verdict::Ok);
        assert!((r.ratio - 0.96).abs() < 1e-12);
        assert!((r.worse_by - 0.04).abs() < 1e-12);
        assert_eq!(r.spread, None);
        // Past the bound: throughput fell, latency rose.
        assert_eq!(
            judge(&[100.0], &[90.0], true, 0.05).unwrap().verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&[10.0], &[11.0], false, 0.05).unwrap().verdict,
            Verdict::Worse
        );
        // Better is never worse.
        assert_eq!(
            judge(&[10.0], &[5.0], false, 0.05).unwrap().verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(&[100.0], &[150.0], true, 0.05).unwrap().verdict,
            Verdict::Ok
        );
        // Tight runs past the bound are worse...
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [90.0, 91.0, 89.0, 90.5, 89.5];
        assert_eq!(judge(&a, &b, true, 0.05).unwrap().verdict, Verdict::Worse);
        // ...noisy overlapping runs are unresolved, not "unchanged"...
        let noisy_a = [100.0, 130.0, 80.0, 120.0, 90.0];
        let noisy_b = [95.0, 125.0, 70.0, 110.0, 85.0];
        assert_eq!(
            judge(&noisy_a, &noisy_b, true, 0.05).unwrap().verdict,
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A (or loses to it).
        let clear_b = [200.0, 260.0, 160.0, 240.0, 180.0];
        assert_eq!(
            judge(&noisy_a, &clear_b, true, 0.05).unwrap().verdict,
            Verdict::Ok
        );
        let bad_b = [50.0, 65.0, 40.0, 60.0, 45.0];
        assert_eq!(
            judge(&noisy_a, &bad_b, true, 0.05).unwrap().verdict,
            Verdict::Worse
        );
        assert_eq!(judge(&[], &[1.0], true, 0.05), None);
    }

    fn results_text(value: f64, failed: u64) -> String {
        let metrics: Vec<(String, Value)> = metrics::END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Value::obj([
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        let run = |trace: f64| {
            Value::obj([
                ("workload", Value::Str("swarm_small".into())),
                ("seed", Value::Num(42.0)),
                ("seconds", Value::Num(1.0)),
                ("trace", Value::Num(trace)),
                (
                    "result",
                    Value::obj([
                        ("correct", Value::Bool(failed == 0)),
                        ("attempted", Value::Num(10.0)),
                        ("failed", Value::Num(failed as f64)),
                        ("metrics", Value::Obj(metrics.clone())),
                    ]),
                ),
            ])
        };
        json::pretty(&Value::obj([
            ("schema", Value::Str(SCHEMA.into())),
            ("meta", Value::obj([("nproc", Value::Num(2.0))])),
            ("runs", Value::Arr(vec![run(0.0), run(0.0), run(1.0)])),
        ]))
    }

    #[test]
    fn results_file_round_trips() {
        let parsed = Results::parse(&results_text(12.5, 0)).unwrap();
        let w = &parsed.workloads["swarm_small"];
        assert_eq!(w.end_to_end["segments_per_s"], [12.5, 12.5]);
        assert_eq!(w.per_layer["segments_per_s"], 12.5);
        assert_eq!((w.attempted, w.failed), (30, 0));
        assert_eq!(parsed.meta[0].0, "nproc");
        assert!(Results::parse("{\"schema\": \"other\"}").is_err());
        assert!(Results::parse("not json").is_err());
    }

    #[test]
    fn table_counts_worse_pairs_and_new_failures() {
        let a = Results::parse(&results_text(100.0, 0)).unwrap();
        let same = Results::parse(&results_text(100.0, 0)).unwrap();
        let bounds = bounds();
        assert_eq!(bounds.len(), metrics::END_TO_END.len());
        let (text, worse) = table(&a, &same, &bounds);
        assert_eq!(worse, 0);
        assert!(text.contains("swarm_small"));
        assert!(text.contains("ops_failed / ops_attempted"));
        // Everything 30 % lower: the higher-is-better metrics are worse,
        // the lower-is-better ones improved.
        let lower = Results::parse(&results_text(70.0, 0)).unwrap();
        let (_, worse) = table(&a, &lower, &bounds);
        let expect = metrics::END_TO_END
            .iter()
            .filter(|m| m.higher_is_better)
            .count();
        assert_eq!(worse, expect);
        let failing = Results::parse(&results_text(100.0, 2)).unwrap();
        assert_eq!(table(&a, &failing, &bounds).1, 1);
    }
}
