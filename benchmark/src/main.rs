//! The repo benchmark: six workloads, eleven end-to-end metrics and a
//! per-layer ledger. See `benchmark/README.md`.
//!
//! ```text
//! p2ps-benchmark measure --workload W --seed N --seconds S --trace 0|1
//!     one workload in this process; the last stdout line is the result
//!     object of the driver's contract (what BENCHMARK.json's command runs)
//! p2ps-benchmark run [--workload W]... [--seed N] [--seconds S] [--repeat K]
//!                    [--quick] [--out FILE]
//!     every workload, untraced and traced, each in a fresh child process;
//!     prints every metric by name and unit, writes the results file
//! p2ps-benchmark compare A.json B.json
//!     one row per (end-to-end metric, workload): both values, ratio,
//!     bound, verdict
//! ```

mod compare;
mod gen;
mod json;
mod metrics;
mod probes;
mod stats;
mod sysinfo;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use json::Value;
use trace::Tracer;
use workloads::{Outcome, WorkloadDef};

/// Set-up is repeated at least this often in an untraced run, and
/// further (up to [`SETUP_REPEATS_MAX`]) until [`SETUP_BUDGET_S`] of wall
/// time is spent — a 5 ms set-up needs many more samples than a 1 s one.
/// `setup_s` is the median, so one slow start does not read as a
/// regression.
const SETUP_REPEATS: usize = 5;
const SETUP_REPEATS_MAX: usize = 25;
const SETUP_BUDGET_S: f64 = 2.0;

/// Pass length of `run --quick`. A traced run halves it, and one
/// `swarm_small` session alone lasts 0.6 s, so anything shorter leaves a
/// window with no completed session in it.
const QUICK_SECONDS: f64 = 4.0;

/// Where spans and results go unless told otherwise: the build's own
/// output directory, which `.gitignore` already covers.
fn target_dir() -> String {
    std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "benchmark/target".into())
}

/// Exit code for bad usage (and for a refused debug build).
const USAGE: u8 = 2;

fn usage() -> ExitCode {
    eprintln!(
        "usage: p2ps-benchmark measure --workload W --seed N --seconds S --trace 0|1\n\
         \x20      p2ps-benchmark run [--workload W]... [--seed N] [--seconds S] [--repeat K] [--quick] [--out FILE]\n\
         \x20      p2ps-benchmark compare A.json B.json\n\
         workloads:"
    );
    for w in &workloads::WORKLOADS {
        eprintln!("  {:<13} {}", w.name, w.why);
    }
    ExitCode::from(USAGE)
}

/// `--key value` pairs after the subcommand; repeated keys accumulate.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], bare: &[&str]) -> Result<(Flags, Vec<String>), String> {
        let (mut flags, mut positional) = (Vec::new(), Vec::new());
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key) if bare.contains(&key) => flags.push((key.to_owned(), "1".to_owned())),
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    flags.push((key.to_owned(), value.clone()));
                }
                None => positional.push(a.clone()),
            }
        }
        Ok((Flags(flags), positional))
    }

    fn all(&self, key: &str) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.all(key)
            .last()
            .map(|v| v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")))
            .transpose()
    }
}

fn main() -> ExitCode {
    sysinfo::initial_cpus(); // before any workload narrows this thread's mask
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("measure") => measure_command(&args[1..]),
        Some("run") => run_command(&args[1..]),
        Some("compare") => compare::command(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("p2ps-benchmark: {message}");
            usage()
        }
    }
}

/// Numbers from an unoptimised build say nothing about the system.
fn refuse_debug_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("this is a debug build; build with --release".into());
    }
    Ok(())
}

fn measure_command(args: &[String]) -> Result<ExitCode, String> {
    refuse_debug_build()?;
    let (flags, positional) = Flags::parse(args, &[])?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument {:?}", positional[0]));
    }
    let name: String = flags.get("workload")?.ok_or("--workload is required")?;
    let def = workloads::find(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = flags.get("seed")?.unwrap_or(42);
    let seconds: f64 = flags.get("seconds")?.unwrap_or(10.0);
    if !(0.2..=60.0).contains(&seconds) {
        return Err("--seconds must be between 0.2 and 60".into());
    }
    let traced = match flags.get::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".into()),
    };
    let spans_out: Option<String> = flags.get("spans")?;

    let result = if traced {
        measure_traced(def, seed, seconds, spans_out)
    } else {
        measure_plain(def, seed, seconds)
    };
    // The contract: the result object is the last line of stdout.
    println!("{}", result.line);
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

struct Measured {
    line: Value,
    correct: bool,
}

fn log_outcome(label: &str, outcome: &Outcome) {
    for note in &outcome.notes {
        eprintln!("{note}");
    }
    for failure in &outcome.failures {
        eprintln!("FAILED [{label}] {failure}");
    }
}

fn result_line(
    outcome_attempted: u64,
    failed: u64,
    values: &[(&'static str, f64)],
    catalogue: &[metrics::MetricDef],
) -> Measured {
    let mut complete = true;
    let members: Vec<(String, Value)> = catalogue
        .iter()
        .map(|def| {
            let value = values.iter().find(|(n, _)| *n == def.name).map(|(_, v)| *v);
            if value.is_none_or(|v| !v.is_finite()) {
                complete = false;
                eprintln!("MISSING metric {}", def.name);
            }
            (
                def.name.to_owned(),
                Value::obj([
                    ("value", Value::Num(value.unwrap_or(0.0))),
                    ("unit", Value::Str(def.unit.into())),
                ]),
            )
        })
        .collect();
    let correct = failed == 0 && complete && outcome_attempted > 0;
    Measured {
        line: Value::obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(outcome_attempted.max(1) as f64)),
            ("failed", Value::Num(failed as f64)),
            ("metrics", Value::Obj(members)),
        ]),
        correct,
    }
}

/// The untraced run: end-to-end metrics only.
fn measure_plain(def: &WorkloadDef, seed: u64, seconds: f64) -> Measured {
    let mut setups = Vec::with_capacity(SETUP_REPEATS_MAX);
    let mut reapers = Vec::new();
    let began = Instant::now();
    let prepared = loop {
        let t0 = Instant::now();
        let prepared = (def.setup)(seed, seconds);
        setups.push(t0.elapsed().as_secs_f64());
        let enough = setups.len() >= SETUP_REPEATS
            && (began.elapsed().as_secs_f64() >= SETUP_BUDGET_S
                || setups.len() >= SETUP_REPEATS_MAX);
        if enough {
            break prepared;
        }
        // Tearing a deployment down is mostly waiting for its threads to
        // notice; that happens off this thread so that it costs the next
        // set-up nothing but a sleeping neighbour.
        reapers.push(std::thread::spawn(move || drop(prepared)));
    };
    for reaper in reapers {
        reaper.join().expect("tear-down does not panic");
    }
    let outcome = prepared.run(seconds, &mut Tracer::new(false));
    log_outcome(def.name, &outcome);

    let mut values = outcome.end_to_end.clone();
    values.push(("setup_s", stats::median(&setups).expect("repeats > 0")));
    values.push(("peak_rss_mib", sysinfo::peak_rss_mib()));
    eprintln!(
        "{}: set-up median {:.4} s over {} set-ups",
        def.name,
        stats::median(&setups).expect("repeats > 0"),
        setups.len()
    );
    result_line(
        outcome.attempted,
        outcome.failed,
        &values,
        &metrics::END_TO_END,
    )
}

/// The traced run: the workload twice at half length — untraced, then
/// with spans — so the cost of tracing is measured rather than assumed,
/// then the layer probes.
fn measure_traced(
    def: &WorkloadDef,
    seed: u64,
    seconds: f64,
    spans_out: Option<String>,
) -> Measured {
    let half = seconds / 2.0;
    let plain = (def.setup)(seed, half).run(half, &mut Tracer::new(false));
    log_outcome(def.name, &plain);
    let mut tracer = Tracer::new(true);
    let traced = (def.setup)(seed, half).run(half, &mut tracer);
    log_outcome(def.name, &traced);

    let mut failed = plain.failed + traced.failed;
    if let (Some(a), Some(b)) = (plain.digest, traced.digest) {
        if a != b {
            failed += 1;
            eprintln!(
                "FAILED [{}] output digest {a:016x} untraced, {b:016x} traced: same inputs must give the same outputs",
                def.name
            );
        }
    }

    let t0 = Instant::now();
    let probed = probes::run_all();
    let probe_s = t0.elapsed().as_secs_f64();

    let mut values = probed.clone();
    values.extend(traced.per_layer.iter().copied());
    values.push(("trace.overhead_ratio", plain.headline / traced.headline));
    values.push((
        "trace.spans_per_s",
        tracer.spans().len() as f64 / traced.wall_s.max(1e-9),
    ));
    values.push(("trace.probe_s", probe_s));
    if let Some(table) = probes::attribute(def.name, &traced, &probed) {
        values.push(("trace.unattributed_share", table.unattributed_share));
        eprintln!("{}", table.text);
    }

    let path =
        spans_out.unwrap_or_else(|| format!("{}/spans/{}-{seed}.tsv", target_dir(), def.name));
    let written = std::path::Path::new(&path)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| tracer.write_to(&mut std::io::BufWriter::new(f)));
    match written {
        Ok(()) => eprintln!(
            "{}: {} spans written to {path}",
            def.name,
            tracer.spans().len()
        ),
        Err(e) => eprintln!("{}: spans not written to {path}: {e}", def.name),
    }

    // A metric no layer of this workload produced reads 0: "none of this
    // happened here", which is what it means.
    for def in &metrics::PER_LAYER {
        if !values.iter().any(|(n, _)| *n == def.name) {
            values.push((def.name, 0.0));
        }
    }
    result_line(
        plain.attempted + traced.attempted,
        failed,
        &values,
        &metrics::PER_LAYER,
    )
}

/// `run`: every selected workload, untraced and traced, each in a fresh
/// child process so that no workload inherits another's heap, threads or
/// peak RSS.
fn run_command(args: &[String]) -> Result<ExitCode, String> {
    refuse_debug_build()?;
    let (flags, positional) = Flags::parse(args, &["quick"])?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument {:?}", positional[0]));
    }
    let quick = !flags.all("quick").is_empty();
    let seed: u64 = flags.get("seed")?.unwrap_or(42);
    let seconds: f64 = flags
        .get("seconds")?
        .unwrap_or(if quick { QUICK_SECONDS } else { 10.0 });
    let repeat: usize = flags.get("repeat")?.unwrap_or(1).max(1);
    let out: String = flags
        .get("out")?
        .unwrap_or_else(|| format!("{}/results.json", target_dir()));
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let selected: Vec<&WorkloadDef> = match flags.all("workload").as_slice() {
        [] => workloads::WORKLOADS.iter().collect(),
        names => names
            .iter()
            .map(|n| workloads::find(n).ok_or_else(|| format!("unknown workload {n:?}")))
            .collect::<Result<_, _>>()?,
    };

    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for def in &selected {
        for trace in [0u8, 1] {
            // Repeats are for spread of end-to-end metrics; the ledger is
            // read once.
            let times = if trace == 0 { repeat } else { 1 };
            for k in 0..times {
                let run_seed = seed.wrapping_add(k as u64);
                eprintln!(
                    "== {} seed {run_seed} {} s trace {trace} ==",
                    def.name, seconds
                );
                let output = std::process::Command::new(&exe)
                    .args(["measure", "--workload", def.name])
                    .args(["--seed", &run_seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", &trace.to_string()])
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot start the {} child: {e}", def.name))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let parsed = stdout
                    .lines()
                    .last()
                    .ok_or_else(|| "no result line".to_owned())
                    .and_then(json::parse);
                let result = match parsed {
                    Ok(v) => v,
                    Err(e) => {
                        eprintln!(
                            "FAILED [{}] child gave no result ({e}), {}",
                            def.name, output.status
                        );
                        all_correct = false;
                        continue;
                    }
                };
                let correct = result.get("correct") == Some(&Value::Bool(true));
                all_correct &= correct && output.status.success();
                compare::print_run(def.name, trace, &result);
                runs.push(Value::obj([
                    ("workload", Value::Str(def.name.into())),
                    ("seed", Value::Num(run_seed as f64)),
                    ("seconds", Value::Num(seconds)),
                    ("trace", Value::Num(f64::from(trace))),
                    ("result", result),
                ]));
            }
        }
    }

    let file = Value::obj([
        ("schema", Value::Str(compare::SCHEMA.into())),
        (
            "meta",
            Value::obj([
                ("nproc", Value::Num(sysinfo::nproc() as f64)),
                ("kernel", Value::Str(sysinfo::kernel())),
                ("rustc", Value::Str(sysinfo::rustc_version())),
                ("commit", Value::Str(sysinfo::git_commit())),
                ("seed", Value::Num(seed as f64)),
                ("seconds", Value::Num(seconds)),
                ("repeat", Value::Num(repeat as f64)),
            ]),
        ),
        ("runs", Value::Arr(runs)),
    ]);
    std::fs::write(&out, json::pretty(&file)).map_err(|e| format!("writing {out}: {e}"))?;
    let loaded = compare::Results::load(&out)?;
    compare::print_summary(&loaded);
    println!("results written to {out}");
    if all_correct {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("at least one output check failed");
        Ok(ExitCode::FAILURE)
    }
}
