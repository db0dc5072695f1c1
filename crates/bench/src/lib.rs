//! # tdo-bench — the paper-reproduction harness
//!
//! The `paper` binary renders every table, figure and ablation of the CGO
//! 2006 evaluation from one ordered table of renderers ([`paper::PAPER`];
//! see DESIGN.md §3 for the experiment index), so
//! `cargo run --release -p tdo-bench --bin paper -- fig5_speedup` regenerates
//! the paper's Figure 5 on the simulated system, and `paper` alone prints
//! every fenced block of EXPERIMENTS.md. `run_all` prints the full
//! workload × arm matrix.
//!
//! Both binaries run on the shared experiment engine ([`tdo_sim::Runner`]):
//! each renderer declares its cells as an [`ExperimentSpec`], the engine
//! simulates the unique cells across worker threads (memoizing results, so
//! a cell that several figures read is simulated once per process), and
//! the rows render through the common [`Report`] layer.
//!
//! Common flags, parsed strictly (unknown flags are an error):
//!
//! * `--quick` — run at test scale (smaller working sets and windows against
//!   the scaled-down hierarchy) for a fast sanity pass; without it the full
//!   paper configuration runs.
//! * `--jobs N` — simulate up to `N` cells in parallel (default: one per
//!   hardware thread). Output is byte-identical regardless of `N`.
//! * `--format {table,csv,json}` — rendering of the result rows.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod chaos;
pub mod loadgen;
pub mod paper;

use std::sync::Arc;

use tdo_sim::{Cell, ExperimentSpec, Format, PrefetchSetup, Report, Runner, SimConfig, SimResult};
use tdo_workloads::{names, Scale};

/// Harness options parsed from the command line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HarnessOpts {
    /// Run at test scale for a fast pass.
    pub quick: bool,
    /// Worker threads for the engine (`0` = one per hardware thread).
    pub jobs: usize,
    /// Requested output format, if any (`None` = the binary's default).
    pub format: Option<Format>,
    /// Explicit persistent-store directory (default: `TDO_STORE` env or
    /// `.tdo-store/`).
    pub store_dir: Option<String>,
    /// Disable the persistent result store (in-memory memoization only).
    pub no_store: bool,
}

/// Usage text shared by every harness binary.
pub const USAGE: &str = "options:
  --quick            run at test scale (fast sanity pass)
  --jobs N           simulate up to N cells in parallel (0 = all cores)
  --format FORMAT    output format: table, csv or json
  --store-dir DIR    persistent result store directory
                     (default: $TDO_STORE or .tdo-store/)
  --no-store         skip the persistent result store entirely
  --help             show this help";

impl HarnessOpts {
    /// Parses harness flags from an argument list (without the program
    /// name). Rejects unknown flags, missing values and malformed values.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending argument.
    pub fn parse<I>(args: I) -> Result<HarnessOpts, String>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut opts = HarnessOpts::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let arg = arg.as_ref();
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f, Some(v.to_string())),
                None => (arg, None),
            };
            let value = |it: &mut I::IntoIter| -> Result<String, String> {
                match inline.clone() {
                    Some(v) => Ok(v),
                    None => it
                        .next()
                        .map(|v| v.as_ref().to_string())
                        .ok_or_else(|| format!("`{flag}` needs a value")),
                }
            };
            match flag {
                "--quick" if inline.is_none() => opts.quick = true,
                "--jobs" => {
                    let v = value(&mut it)?;
                    opts.jobs = v.parse().map_err(|_| format!("invalid `--jobs` value `{v}`"))?;
                }
                "--format" => {
                    opts.format = Some(value(&mut it)?.parse()?);
                }
                "--store-dir" => {
                    opts.store_dir = Some(value(&mut it)?);
                }
                "--no-store" if inline.is_none() => opts.no_store = true,
                _ => return Err(format!("unknown option `{arg}`")),
            }
        }
        Ok(opts)
    }

    /// Parses `args`, printing `usage` and exiting on bad flags or
    /// `--help`.
    #[must_use]
    pub fn parse_or_exit(args: &[String], usage: &str) -> HarnessOpts {
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{usage}");
            std::process::exit(0);
        }
        match HarnessOpts::parse(args) {
            Ok(opts) => opts,
            Err(e) => {
                eprintln!("error: {e}\n{usage}");
                std::process::exit(2);
            }
        }
    }

    /// The workload scale implied by the options.
    #[must_use]
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::Test
        } else {
            Scale::Full
        }
    }

    /// The simulation configuration for one experimental arm.
    #[must_use]
    pub fn config(&self, setup: PrefetchSetup) -> SimConfig {
        if self.quick {
            SimConfig::test(setup)
        } else {
            SimConfig::paper(setup)
        }
    }

    /// The output format, with a per-binary default.
    #[must_use]
    pub fn format_or(&self, dflt: Format) -> Format {
        self.format.unwrap_or(dflt)
    }
}

/// A harness: parsed options plus the memoizing parallel engine.
pub struct Harness {
    /// The parsed command-line options.
    pub opts: HarnessOpts,
    runner: Runner,
}

impl Harness {
    /// Creates a harness over explicit options. Unless `--no-store` was
    /// given, the engine reads through to (and writes through to) the
    /// persistent result store, so repeat invocations of any harness binary
    /// against a warm store perform zero simulations.
    #[must_use]
    pub fn new(opts: HarnessOpts) -> Harness {
        let runner = if opts.no_store {
            Runner::new(opts.jobs)
        } else {
            Runner::with_default_store(opts.jobs, opts.store_dir.as_deref(), 1)
        };
        Harness { opts, runner }
    }

    /// Creates a harness from `std::env::args` (exits on bad flags).
    #[must_use]
    pub fn from_args() -> Harness {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Harness::new(HarnessOpts::parse_or_exit(&args, USAGE))
    }

    /// A cell for one workload under one standard arm, at the harness scale.
    #[must_use]
    pub fn cell(&self, name: &str, setup: PrefetchSetup) -> Cell {
        self.cell_cfg(name, self.opts.config(setup))
    }

    /// A cell for one workload under a custom configuration.
    #[must_use]
    pub fn cell_cfg(&self, name: &str, cfg: SimConfig) -> Cell {
        Cell::new(name, self.opts.scale(), cfg)
    }

    /// Simulates every cell of a spec in parallel (memoized); later
    /// [`Harness::arm`]/[`Harness::cfg`] calls for the same cells are cache
    /// hits.
    pub fn run(&self, spec: &ExperimentSpec) -> Vec<Arc<SimResult>> {
        self.runner.run_spec(spec)
    }

    /// Result for one workload under one standard arm (memoized).
    #[must_use]
    pub fn arm(&self, name: &str, setup: PrefetchSetup) -> Arc<SimResult> {
        self.runner.run_cell(&self.cell(name, setup))
    }

    /// Result for one workload under a custom configuration (memoized).
    #[must_use]
    pub fn cfg(&self, name: &str, cfg: &SimConfig) -> Arc<SimResult> {
        self.runner.run_cell(&self.cell_cfg(name, cfg.clone()))
    }

    /// Prints a report in the harness format (default: aligned table).
    pub fn emit(&self, report: &Report) {
        print!("{}", report.render(self.opts.format_or(Format::Table)));
    }
}

impl Drop for Harness {
    /// Every harness binary reports its store accounting on exit — to
    /// stderr, so report bytes on stdout stay identical warm or cold (CI
    /// asserts both properties).
    fn drop(&mut self) {
        if let Some(summary) = self.runner.store_summary() {
            eprintln!("{summary}");
        }
    }
}

/// The benchmark suite in the paper's order.
#[must_use]
pub fn suite() -> &'static [&'static str] {
    names()
}

/// Geometric mean of speedups (the conventional average for ratios).
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Formats a ratio as a percent delta ("+23.4%").
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", (x - 1.0) * 100.0)
}

/// Formats a fraction as a percent ("23.4%").
#[must_use]
pub fn frac(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(pct(1.234), "+23.4%");
        assert_eq!(frac(0.5), "50.0%");
    }

    #[test]
    fn flags_parse() {
        let o = HarnessOpts::parse(["--quick", "--jobs", "4", "--format", "csv"]).unwrap();
        assert_eq!(
            o,
            HarnessOpts {
                quick: true,
                jobs: 4,
                format: Some(Format::Csv),
                ..HarnessOpts::default()
            }
        );
        let o = HarnessOpts::parse(["--jobs=2", "--format=json"]).unwrap();
        assert_eq!(
            o,
            HarnessOpts { jobs: 2, format: Some(Format::Json), ..HarnessOpts::default() }
        );
        let o = HarnessOpts::parse(["--store-dir", "/tmp/s", "--no-store"]).unwrap();
        assert_eq!(o.store_dir.as_deref(), Some("/tmp/s"));
        assert!(o.no_store);
        let o = HarnessOpts::parse(["--store-dir=/x"]).unwrap();
        assert_eq!(o.store_dir.as_deref(), Some("/x"));
        assert_eq!(HarnessOpts::parse(Vec::<String>::new()).unwrap(), HarnessOpts::default());
    }

    #[test]
    fn flags_reject_garbage() {
        assert!(HarnessOpts::parse(["--qick"]).is_err());
        assert!(HarnessOpts::parse(["--jobs"]).is_err());
        assert!(HarnessOpts::parse(["--jobs", "many"]).is_err());
        assert!(HarnessOpts::parse(["--format", "yaml"]).is_err());
        assert!(HarnessOpts::parse(["--store-dir"]).is_err());
        assert!(HarnessOpts::parse(["--no-store=1"]).is_err());
        assert!(HarnessOpts::parse(["--quick=1"]).is_err());
        assert!(HarnessOpts::parse(["extra"]).is_err());
        assert!(HarnessOpts::parse(["-q"]).is_err());
    }

    #[test]
    fn usage_documents_every_flag() {
        for flag in ["--quick", "--jobs", "--format", "--store-dir", "--no-store"] {
            assert!(USAGE.contains(flag), "USAGE is missing `{flag}`");
        }
    }
}
