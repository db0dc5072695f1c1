//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-repair|sim-policy|serve-mix> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with every probe and
//! profiler off; with `--trace 1` it runs a separate traced pass of the same
//! workload for the per-layer metrics. It checks every output, prints
//! context lines and one line per metric, and ends with one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! Every workload reports every metric of its mode. An operation is one
//! simulated cell on the sim workloads and one client request on
//! `serve-mix`; `rtt_*` and `throughput_rps` are per-operation latency and
//! rate (a cell's latency is the median of its timed runs). The sim
//! workloads time their single thread on its CPU clock, `serve-mix` its
//! clients on the wall clock. On `serve-mix`, `sim_insts_per_s` counts the
//! measured-window instructions the server simulated during the timed
//! phase (the distinct cold cells it answered correctly), per second of
//! that phase. A per-layer metric of a layer the workload does not run
//! reads 0.
//!
//! Two flags exist for the self-test only: `--quick` shrinks every
//! workload to a few seconds, and `--wrong-expected` corrupts every
//! expected result, which must turn each checked operation into a failure.

mod affinity;
mod micro;
mod report;
mod serve;
mod sim;
mod stats;

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use report::Outcome;
use sim::SimKind;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Shortened run for the self-test.
    pub quick: bool,
}

/// Scratch directory for temporary stores, inside the working directory;
/// removed when the run ends.
pub const TMP_DIR: &str = ".perfbench-tmp";

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sim-repair", "sim-policy", "serve-mix"];

static WRONG_EXPECTED: AtomicBool = AtomicBool::new(false);

/// The expected value a check compares against: `v` itself, or a
/// deliberately wrong value under `--wrong-expected`.
#[must_use]
pub fn expected(v: u64) -> u64 {
    if WRONG_EXPECTED.load(Ordering::Relaxed) {
        v ^ 1
    } else {
        v
    }
}

const USAGE: &str = "usage: perfbench --workload <sim-repair|sim-policy|serve-mix> --seed <n> \
                     --seconds <n> --trace <0|1> [--quick] [--wrong-expected]";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts =
        Opts { workload: String::new(), seed: 0, seconds: 0.0, trace: false, quick: false };
    let (mut have_seed, mut have_seconds, mut have_trace) = (false, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => {
                opts.seed = value()?.parse().map_err(|_| "--seed takes an integer".to_string())?;
                have_seed = true;
            }
            "--seconds" => {
                let s: f64 =
                    value()?.parse().map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                opts.seconds = s;
                have_seconds = true;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
                have_trace = true;
            }
            "--quick" => opts.quick = true,
            "--wrong-expected" => WRONG_EXPECTED.store(true, Ordering::Relaxed),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown or missing --workload `{}`", opts.workload));
    }
    if !(have_seed && have_seconds && have_trace) {
        return Err("--seed, --seconds and --trace are required".to_string());
    }
    Ok(opts)
}

fn run(opts: &Opts) -> std::io::Result<Outcome> {
    let kind = match opts.workload.as_str() {
        "sim-repair" => Some(SimKind::Repair),
        "sim-policy" => Some(SimKind::Policy),
        _ => None,
    };
    Ok(match (kind, opts.trace) {
        (Some(kind), false) => sim::run(kind, opts),
        (Some(kind), true) => {
            let (mut out, layers) = sim::run_traced(kind, opts);
            layers.report(&mut out);
            serve::ServeLayers::default().report(&mut out);
            micro::report(&mut out, opts.quick, Path::new(TMP_DIR));
            out
        }
        (None, false) => serve::run(opts)?,
        (None, true) => {
            let (mut out, sim_layers, serve_layers) = serve::run_traced(opts)?;
            sim_layers.report(&mut out);
            serve_layers.report(&mut out);
            micro::report(&mut out, opts.quick, Path::new(TMP_DIR));
            out
        }
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(TMP_DIR) {
        eprintln!("perfbench: cannot create {TMP_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let result = run(&opts);
    // Removes the scratch directory unless another run still uses it.
    let _ = std::fs::remove_dir(TMP_DIR);
    match result {
        Ok(out) => {
            print!("{}", out.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_command_line_parses() {
        let o = parse_args(&args("--workload serve-mix --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!((o.workload.as_str(), o.seed, o.seconds, o.trace), ("serve-mix", 3, 10.0, true));
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload sim-repair --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload sim-repair --seed 1 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&args("--workload sim-repair --seed 1 --seconds 0 --trace 0")).is_err());
    }
}
