//! Regenerates the paper's figures and tables by name.
//!
//! ```text
//! experiments fig1 fig4     # the named experiments, in the order given
//! experiments all           # every one, in paper order
//! experiments --list        # the names
//! ```
//!
//! Scale comes from `P2PS_SCALE` (`paper`, the default, or `quick`).
//! Exit codes: 0 success, 2 bad usage (no name, unknown name, bad scale).

use std::process::exit;

use p2ps_bench::experiments::{run_all, Experiment, ALL};
use p2ps_bench::{Harness, Scale};

fn names() -> String {
    let names: Vec<&str> = ALL.iter().map(|&(name, _)| name).collect();
    names.join(" ")
}

/// The harness at the scale `P2PS_SCALE` asks for; exits 2 on a value
/// that is not a scale.
fn harness() -> Harness {
    match Scale::from_env() {
        Ok(scale) => Harness::new(scale),
        Err(bad) => {
            eprintln!("{bad}");
            exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: experiments <name>... | all | --list\nexperiments: {}",
            names()
        );
        exit(2);
    }
    if args == ["--list"] {
        for (name, _) in ALL {
            println!("{name}");
        }
        return;
    }
    if args == ["all"] {
        let mut harness = harness();
        let started = std::time::Instant::now();
        run_all(&mut harness);
        eprintln!("all experiments regenerated in {:.1?}", started.elapsed());
        return;
    }
    // Resolve every name before running anything: a typo in the last
    // argument must not cost the minutes the first ones take.
    let selected: Vec<Experiment> = args
        .iter()
        .map(|arg| match ALL.iter().find(|(name, _)| name == arg) {
            Some(&(_, run)) => run,
            None => {
                eprintln!("unknown experiment {arg:?}; experiments: {}", names());
                exit(2);
            }
        })
        .collect();
    let mut harness = harness();
    for run in selected {
        run(&mut harness);
    }
}
