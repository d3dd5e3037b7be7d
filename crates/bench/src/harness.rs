//! Shared experiment infrastructure: scaling, run caching, output.

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::rc::Rc;

use p2ps_core::admission::Protocol;
use p2ps_metrics::{AsciiPlot, CsvWriter, TimeSeries};
use p2ps_sim::{ArrivalPattern, SimConfig, SimConfigBuilder, SimReport, Simulation};

/// Base RNG seed for all experiment runs (deterministic outputs).
pub const BASE_SEED: u64 = 42;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's full setup: 100 seeds, 50,000 requesters, 144 h.
    Paper,
    /// 10 seeds, 5,000 requesters, same time axes — same qualitative
    /// shapes, roughly 20× faster. Used by CI-style smoke runs.
    Quick,
}

/// A `P2PS_SCALE` value that is neither `paper` nor `quick`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadScale(pub String);

impl std::fmt::Display for BadScale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "P2PS_SCALE={:?} is not a scale: use `paper` (default) or `quick`",
            self.0
        )
    }
}

impl std::error::Error for BadScale {}

impl std::str::FromStr for Scale {
    type Err = BadScale;

    /// Exactly `paper` or `quick`: a typo must not start the 100-seed /
    /// 144 h run in place of the smoke run that was asked for.
    fn from_str(value: &str) -> Result<Self, BadScale> {
        match value {
            "paper" => Ok(Scale::Paper),
            "quick" => Ok(Scale::Quick),
            other => Err(BadScale(other.to_owned())),
        }
    }
}

impl Scale {
    /// Reads `P2PS_SCALE` (`paper`/`quick`); unset means `Paper`.
    pub fn from_env() -> Result<Self, BadScale> {
        match std::env::var("P2PS_SCALE") {
            Ok(value) => value.parse(),
            Err(std::env::VarError::NotPresent) => Ok(Scale::Paper),
            Err(std::env::VarError::NotUnicode(raw)) => {
                Err(BadScale(raw.to_string_lossy().into_owned()))
            }
        }
    }
}

/// Runs simulations with caching and writes experiment artifacts.
pub struct Harness {
    scale: Scale,
    out_dir: PathBuf,
    cache: HashMap<String, Rc<SimReport>>,
}

impl Harness {
    /// Creates a harness at the given scale, writing CSVs under
    /// `target/experiments/`.
    pub fn new(scale: Scale) -> Self {
        let out_dir = PathBuf::from("target/experiments");
        std::fs::create_dir_all(&out_dir).expect("creating target/experiments");
        Harness {
            scale,
            out_dir,
            cache: HashMap::new(),
        }
    }

    /// The active scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// A config builder preloaded with the paper's §5.1 setup at the
    /// harness scale.
    pub fn base_config(&self) -> SimConfigBuilder {
        let mut builder = SimConfig::builder();
        if self.scale == Scale::Quick {
            builder.seed_suppliers(10).requesting_peers(5_000);
        }
        builder
    }

    /// Runs (or reuses) the simulation for `pattern` × `protocol` with
    /// optional extra configuration.
    pub fn run(
        &mut self,
        label: &str,
        pattern: ArrivalPattern,
        protocol: Protocol,
        tweak: impl FnOnce(&mut SimConfigBuilder),
    ) -> Rc<SimReport> {
        let key = format!("{label}/{pattern}/{protocol}");
        if let Some(hit) = self.cache.get(&key) {
            return Rc::clone(hit);
        }
        let mut builder = self.base_config();
        builder.pattern(pattern).protocol(protocol);
        tweak(&mut builder);
        let config = builder.build().expect("experiment configs are valid");
        let started = std::time::Instant::now();
        let report = Rc::new(Simulation::new(config, BASE_SEED).run());
        eprintln!("  [{key}] simulated in {:.2?}", started.elapsed());
        self.cache.insert(key, Rc::clone(&report));
        report
    }

    /// Prints a titled ASCII plot of the series.
    pub fn plot(&self, title: &str, series: &[&TimeSeries]) {
        let mut plot = AsciiPlot::new(title, 72, 20);
        for s in series {
            plot = plot.series(s);
        }
        println!("\n{}", plot.render());
    }

    /// Writes series sharing a time axis to `<name>.csv`.
    pub fn write_csv(&self, name: &str, time_label: &str, series: &[&TimeSeries]) {
        let path = self.out_dir.join(format!("{name}.csv"));
        let file = std::fs::File::create(&path).expect("creating experiment csv");
        CsvWriter::new(file)
            .write_series(time_label, series)
            .expect("writing experiment csv");
        println!("wrote {}", path.display());
    }

    /// Writes a rendered [`p2ps_metrics::Table`] to `<name>.csv`.
    pub fn write_table_csv(&self, name: &str, table: &p2ps_metrics::Table) {
        let path = self.out_dir.join(format!("{name}.csv"));
        std::fs::write(&path, table.to_csv()).expect("writing experiment table csv");
        println!("wrote {}", path.display());
    }

    /// Writes arbitrary text (tables, notes) to `<name>.txt`.
    pub fn write_text(&self, name: &str, content: &str) {
        let path = self.out_dir.join(format!("{name}.txt"));
        let mut file = std::fs::File::create(&path).expect("creating experiment txt");
        file.write_all(content.as_bytes())
            .expect("writing experiment txt");
        println!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_to_paper() {
        // The test environment does not set P2PS_SCALE.
        if std::env::var("P2PS_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Ok(Scale::Paper));
        }
        assert_eq!("paper".parse(), Ok(Scale::Paper));
        assert_eq!("quick".parse(), Ok(Scale::Quick));
        // Anything else is refused by name, not run at paper scale.
        for typo in ["Quick", "qiuck", "", " quick"] {
            let err = typo.parse::<Scale>().unwrap_err();
            assert_eq!(err, BadScale(typo.to_owned()));
            assert!(err.to_string().contains(&format!("{typo:?}")), "{err}");
        }
    }

    #[test]
    fn run_cache_reuses_reports() {
        let mut h = Harness::new(Scale::Quick);
        // Tiny run so the test stays fast.
        let tweak = |b: &mut SimConfigBuilder| {
            b.requesting_peers(50)
                .seed_suppliers(5)
                .arrival_window_hours(2)
                .duration_hours(4);
        };
        let a = h.run("t", ArrivalPattern::Constant, Protocol::Dac, tweak);
        let b = h.run("t", ArrivalPattern::Constant, Protocol::Dac, |_| {});
        assert!(Rc::ptr_eq(&a, &b), "second call must hit the cache");
    }
}
