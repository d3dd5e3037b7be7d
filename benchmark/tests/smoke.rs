//! Drives the built binary end to end.
//!
//! `cargo test` builds it unoptimised, and an unoptimised build must
//! refuse to measure; `cargo test --release` gets the real smoke: every
//! workload starts, passes its output checks and emits every named
//! metric, and the results file round-trips through `compare`.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_p2ps-benchmark");

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("binary starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_usage_exits_2_without_a_result() {
    for args in [
        &[][..],
        &["frobnicate"],
        &["measure"],
        &["measure", "--workload", "no_such_workload"],
        &["compare", "only-one.json"],
    ] {
        let (code, stdout, _) = run(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(!stdout.contains("\"metrics\""), "{args:?} printed a result");
    }
}

#[cfg(debug_assertions)]
#[test]
fn a_debug_build_refuses_to_measure() {
    for command in ["measure", "run"] {
        let (code, stdout, stderr) =
            run(&[command, "--workload", "simnet_sweep", "--seconds", "1"]);
        assert_eq!(code, Some(2));
        assert!(stderr.contains("debug build"), "{stderr}");
        assert!(stdout.is_empty());
    }
}

#[cfg(not(debug_assertions))]
#[test]
fn quick_run_emits_every_metric_of_every_workload() {
    let out = format!("{}/quick-results.json", env!("CARGO_TARGET_TMPDIR"));
    let (code, stdout, stderr) = run(&["run", "--quick", "--out", &out]);
    assert_eq!(code, Some(0), "stdout:\n{stdout}\nstderr:\n{stderr}");

    let text = std::fs::read_to_string(&out).expect("results file written");
    // Every workload ran untraced and traced, nothing failed, and every
    // metric BENCHMARK.json names has a value in the right kind of run.
    let benchmark =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json exists");
    let names_after = |section: &str| -> Vec<String> {
        let body = &benchmark[benchmark.find(section).expect("section present")..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name closes")].to_owned())
            .collect()
    };
    let (workloads, end_to_end, per_layer) = (
        names_after("\"workloads\""),
        names_after("\"end_to_end\""),
        names_after("\"per_layer\""),
    );
    assert_eq!(workloads.len(), 6);
    assert_eq!(end_to_end.len(), 11);
    let runs: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"workload\""))
        .collect();
    assert_eq!(runs.len(), 12, "six workloads, untraced and traced");
    for workload in &workloads {
        for (trace, names) in [(0, &end_to_end), (1, &per_layer)] {
            let line = runs
                .iter()
                .find(|l| {
                    l.contains(&format!("\"workload\": \"{workload}\""))
                        && l.contains(&format!("\"trace\": {trace}"))
                })
                .unwrap_or_else(|| panic!("{workload} trace {trace} missing"));
            assert!(line.contains("\"correct\": true"), "{line}");
            assert!(line.contains("\"failed\": 0"), "{line}");
            for name in names {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                let value: f64 = line[at + key.len()..]
                    .split(',')
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("{workload}: {name} has no number"));
                assert!(value.is_finite(), "{workload}: {name}");
                if trace == 0 {
                    assert!(value > 0.0, "{workload}: end-to-end {name} is {value}");
                }
            }
        }
    }
    assert!(stdout.contains("end-to-end summary"));

    // A results file compared with itself: every pair ok, exit 0.
    let (code, table, _) = run(&["compare", &out, &out]);
    assert_eq!(code, Some(0), "{table}");
    let verdicts = |v: &str| table.lines().filter(|l| l.ends_with(v)).count();
    assert_eq!(verdicts("  ok"), 66, "{table}");
    assert_eq!(verdicts("  worse") + verdicts("  unresolved"), 0, "{table}");
}
