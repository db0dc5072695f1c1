//! `tdo perf` — the throughput-baseline pipeline.
//!
//! Runs the whole suite twice: once through the parallel memoizing engine
//! (phase A — exercises the store and the engine's metrics), then once per
//! workload serially under the self-profiler (phase B — host-throughput and
//! phase attribution, unpolluted by worker contention). The outcome is a
//! schema-versioned `BENCH_PR6.json` whose keys split into two classes:
//!
//! * deterministic keys — byte-identical for a given (scale, insts) across
//!   `--jobs` and across hosts;
//! * `wall_*` keys — host wall-clock measurements (throughput, latency
//!   histograms, phase breakdowns).
//!
//! CI re-runs the pipeline and gates on `wall_total_insts_per_sec` against
//! the committed baseline with a percentage tolerance (`--check`), while
//! determinism tests strip `"wall_` lines and byte-compare the rest.

use std::fmt::Write as _;

use tdo_metrics::{Histogram, HistogramSnapshot};
use tdo_obs::json;
use tdo_sim::{
    run_profiled, Cell, ExperimentSpec, Format, MachineProfile, PrefetchSetup, Report, Runner,
    SimConfig,
};
use tdo_workloads::{build, names, Scale};

/// Version stamp of the emitted JSON layout. Bump on any key change.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// The key CI gates on, and the tolerance comparison's input.
pub const GATE_KEY: &str = "wall_total_insts_per_sec";

/// Options for one `tdo perf` invocation.
#[derive(Clone, Debug)]
pub struct PerfOpts {
    /// Test scale (`--quick`) instead of the paper configuration.
    pub quick: bool,
    /// Engine worker threads for phase A (`0` = one per core).
    pub jobs: usize,
    /// Measured-instruction override (shrinks runs for tests).
    pub insts: Option<u64>,
    /// Write the JSON baseline here.
    pub out: Option<String>,
    /// Compare against this committed baseline file.
    pub check: Option<String>,
    /// Allowed throughput regression, percent (default 15).
    pub tolerance: u32,
    /// Output format for the summary table.
    pub format: Format,
    /// Persistent-store directory override.
    pub store_dir: Option<String>,
    /// Skip the persistent store.
    pub no_store: bool,
}

impl Default for PerfOpts {
    fn default() -> PerfOpts {
        PerfOpts {
            quick: false,
            jobs: 0,
            insts: None,
            out: None,
            check: None,
            tolerance: 15,
            format: Format::Table,
            store_dir: None,
            no_store: true,
        }
    }
}

/// One workload's measurements: the deterministic result plus the serial
/// profiled rerun.
struct WorkloadPerf {
    name: &'static str,
    profile: MachineProfile,
    orig_insts: u64,
    cycles: u64,
    ipc_milli: u64,
    events_queued: u64,
    dropped_saturated: u64,
    dropped_duplicate: u64,
}

/// Everything `tdo perf` measured, ready to render or serialize.
pub struct PerfOutcome {
    /// The emitted JSON document (what `--out` writes).
    pub json: String,
    /// The human summary table.
    pub table: String,
    /// The gate value measured this run.
    pub insts_per_sec: u64,
    /// The store accounting footer, when a store was attached.
    pub store_summary: Option<String>,
}

/// Integer instructions-per-host-second from a profiled run.
fn insts_per_sec(insts: u64, wall_ns: u64) -> u64 {
    if wall_ns == 0 {
        return 0;
    }
    ((insts as u128 * 1_000_000_000) / wall_ns as u128) as u64
}

/// Runs the full pipeline. Pure measurement — no I/O besides the
/// simulations; the caller writes `--out` and applies `--check`.
#[must_use]
pub fn measure(opts: &PerfOpts) -> PerfOutcome {
    let scale = if opts.quick { Scale::Test } else { Scale::Full };
    let arm = PrefetchSetup::SwSelfRepair;
    let cfg_for = |_name: &str| {
        let mut cfg = if opts.quick { SimConfig::test(arm) } else { SimConfig::paper(arm) };
        if let Some(n) = opts.insts {
            cfg.measure_insts = n;
        }
        cfg
    };

    // Phase A: the parallel memoizing engine over the whole suite. Fills
    // the store (when attached) and the engine's wall-time histogram.
    let runner = if opts.no_store {
        Runner::new(opts.jobs)
    } else {
        Runner::with_default_store(opts.jobs, opts.store_dir.as_deref(), 1)
    };
    let mut spec = ExperimentSpec::new();
    for &name in names() {
        spec.push(Cell::new(name, scale, cfg_for(name)));
    }
    let _ = runner.run_spec(&spec);

    // Phase B: one serial, profiled machine per workload. Serial on
    // purpose: throughput numbers must not include worker contention.
    let mut rows: Vec<WorkloadPerf> = Vec::new();
    for &name in names() {
        let w = build(name, scale).expect("suite workload");
        let (r, profile) = run_profiled(&w, &cfg_for(name));
        rows.push(WorkloadPerf {
            name,
            orig_insts: r.orig_insts,
            cycles: r.cycles,
            ipc_milli: (r.ipc() * 1000.0).round() as u64,
            events_queued: r.trident.events_queued,
            dropped_saturated: r.trident.events_dropped_saturated,
            dropped_duplicate: r.trident.events_dropped_duplicate,
            profile,
        });
    }

    let total_insts: u64 = rows.iter().map(|r| r.orig_insts).sum();
    let total_wall_ns: u64 = rows.iter().map(|r| r.profile.run_wall_ns).sum();
    let gate = insts_per_sec(total_insts, total_wall_ns);

    PerfOutcome {
        json: render_json(opts, scale, &rows, &runner, gate),
        table: render_table(opts, &rows, gate),
        insts_per_sec: gate,
        store_summary: runner.store_summary(),
    }
}

/// The flat, one-key-per-line JSON baseline.
fn render_json(
    opts: &PerfOpts,
    scale: Scale,
    rows: &[WorkloadPerf],
    runner: &Runner,
    gate: u64,
) -> String {
    let mut out = String::from("{\n");
    let mut push = |k: &str, v: String| {
        let _ = writeln!(out, "  \"{k}\": {v},");
    };
    push("bench_schema_version", BENCH_SCHEMA_VERSION.to_string());
    push("scale", format!("\"{}\"", if scale == Scale::Test { "test" } else { "full" }));
    push("arm", "\"sr\"".to_string());
    push("insts_override", opts.insts.unwrap_or(0).to_string());
    push("workloads", rows.len().to_string());

    // Per-workload: deterministic keys first, wall keys after.
    for r in rows {
        push(&format!("{}_cycles", r.name), r.cycles.to_string());
        push(&format!("{}_insts", r.name), r.orig_insts.to_string());
        push(&format!("{}_ipc_milli", r.name), r.ipc_milli.to_string());
        push(&format!("{}_events_queued", r.name), r.events_queued.to_string());
        push(&format!("{}_dropped_saturated", r.name), r.dropped_saturated.to_string());
        push(&format!("{}_dropped_duplicate", r.name), r.dropped_duplicate.to_string());
        push(&format!("wall_{}_run_ns", r.name), r.profile.run_wall_ns.to_string());
        push(
            &format!("wall_{}_insts_per_sec", r.name),
            insts_per_sec(r.orig_insts, r.profile.run_wall_ns).to_string(),
        );
    }

    // Suite aggregates: helper-job attribution is simulated (deterministic),
    // phase attribution is host time (wall).
    let mut helper: Vec<(&str, u64, u64)> = Vec::new();
    let mut phases: Vec<(&str, u64)> = Vec::new();
    for r in rows {
        for (i, (name, cycles, jobs)) in r.profile.helper_kinds().enumerate() {
            if helper.len() <= i {
                helper.push((name, 0, 0));
            }
            helper[i].1 += cycles;
            helper[i].2 += jobs;
        }
        for (i, (name, ns)) in r.profile.phases().enumerate() {
            if phases.len() <= i {
                phases.push((name, 0));
            }
            phases[i].1 += ns;
        }
    }
    for (name, cycles, jobs) in &helper {
        push(&format!("helper_{name}_jobs"), jobs.to_string());
        push(&format!("helper_{name}_cycles"), cycles.to_string());
    }
    for (name, ns) in &phases {
        push(&format!("wall_phase_{name}_ns"), ns.to_string());
    }

    // Engine + store accounting from phase A.
    push("sims", runner.sims_run().to_string());
    push("store_hits", runner.store_hits().to_string());
    push("store_misses", runner.store_misses().to_string());
    let (sat, dup) = runner.events_dropped();
    push("engine_events_queued", runner.events_queued().to_string());
    push("engine_events_dropped_saturated", sat.to_string());
    push("engine_events_dropped_duplicate", dup.to_string());

    // The engine's fresh-simulation wall-time histogram, bucket by bucket.
    let cell = runner.cell_wall_us();
    push_histogram(&mut push, "wall_cell_us", &cell);

    let total_insts: u64 = rows.iter().map(|r| r.orig_insts).sum();
    let total_wall: u64 = rows.iter().map(|r| r.profile.run_wall_ns).sum();
    push("total_insts", total_insts.to_string());
    push("wall_total_run_ns", total_wall.to_string());
    let _ = writeln!(out, "  \"{GATE_KEY}\": {gate}");
    out.push_str("}\n");
    out
}

/// Emits a histogram snapshot as cumulative `<prefix>_le_*` keys plus sum
/// and count. Bucket keys are wall-class whenever the prefix is.
fn push_histogram(push: &mut impl FnMut(&str, String), prefix: &str, h: &HistogramSnapshot) {
    let mut cum = 0u64;
    for (i, n) in h.buckets.iter().enumerate() {
        cum += n;
        // Skip empty leading/inner buckets: only boundaries that saw
        // observations (and +Inf) keep the file short and readable.
        if *n == 0 && i + 1 < h.buckets.len() {
            continue;
        }
        match Histogram::bucket_le(i) {
            Some(le) => push(&format!("{prefix}_le_{le}"), cum.to_string()),
            None => push(&format!("{prefix}_le_inf"), cum.to_string()),
        }
    }
    push(&format!("{prefix}_sum"), h.sum.to_string());
    push(&format!("{prefix}_count"), h.count.to_string());
}

/// The stdout summary: one row per workload, throughput aggregate last.
fn render_table(opts: &PerfOpts, rows: &[WorkloadPerf], gate: u64) -> String {
    let mut rep = Report::new("perf")
        .key("workload", 10)
        .col("cycles", 12)
        .col("IPC", 8)
        .col("wall ms", 9)
        .col("kinsts/s", 10)
        .rule(0);
    for r in rows {
        rep.row(
            r.name,
            [
                r.cycles.to_string(),
                format!("{:.3}", r.ipc_milli as f64 / 1000.0),
                (r.profile.run_wall_ns / 1_000_000).to_string(),
                (insts_per_sec(r.orig_insts, r.profile.run_wall_ns) / 1000).to_string(),
            ],
        );
    }
    let mut out = rep.render(opts.format);
    let _ = writeln!(out, "total throughput: {gate} simulated insts/sec");
    out
}

/// Extracts an integer value for `key` from a flat baseline document.
#[must_use]
pub fn extract_key(doc: &str, key: &str) -> Option<u64> {
    json::get(&json::parse(doc).ok()?, key)?.as_u64()
}

/// Renders the per-phase wall-time delta table between a committed baseline
/// and the current run, from each document's `wall_phase_*_ns` keys (the
/// 6-phase self-profiler attribution). Shown alongside `--check` so a gate
/// failure says *where* the cycles went, not just that they went somewhere.
/// Phases present in only one document render `-` on the missing side.
#[must_use]
pub fn phase_delta_table(baseline_json: &str, current_json: &str) -> String {
    let keys = |doc: &str| -> Vec<String> {
        json::parse(doc)
            .unwrap_or_default()
            .into_iter()
            .filter_map(|(k, _)| Some(k.strip_prefix("wall_phase_")?.strip_suffix("_ns")?.into()))
            .collect()
    };
    // Current-run phase order first, then any baseline-only stragglers.
    let mut order = keys(current_json);
    for k in keys(baseline_json) {
        if !order.contains(&k) {
            order.push(k);
        }
    }
    let ms = |v: Option<u64>| v.map_or("-".to_string(), |ns| format!("{:.1}", ns as f64 / 1e6));
    let mut out = String::from("phase                      base ms    now ms     delta\n");
    for name in &order {
        let key = format!("wall_phase_{name}_ns");
        let old = extract_key(baseline_json, &key);
        let new = extract_key(current_json, &key);
        let delta = match (old, new) {
            (Some(o), Some(n)) if o > 0 => {
                format!("{:+.1}%", (n as f64 - o as f64) * 100.0 / o as f64)
            }
            _ => "-".to_string(),
        };
        let _ = writeln!(out, "{name:<24} {:>9} {:>9} {delta:>9}", ms(old), ms(new));
    }
    out
}

/// Applies the regression gate: `current` may fall at most `tolerance_pct`
/// percent below `baseline`'s gate value.
///
/// # Errors
///
/// An unreadable baseline (missing gate key) or a regression beyond the
/// tolerance; the message carries both values.
pub fn check_against(
    baseline_json: &str,
    current: u64,
    tolerance_pct: u32,
) -> Result<String, String> {
    let base = extract_key(baseline_json, GATE_KEY)
        .ok_or_else(|| format!("baseline has no `{GATE_KEY}` key"))?;
    let floor = base.saturating_mul(100u64.saturating_sub(u64::from(tolerance_pct))) / 100;
    if current < floor {
        return Err(format!(
            "throughput regression: {current} insts/sec vs baseline {base} \
             (floor {floor} at -{tolerance_pct}%)"
        ));
    }
    Ok(format!(
        "throughput ok: {current} insts/sec vs baseline {base} (floor {floor} at -{tolerance_pct}%)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_extraction() {
        let doc = "{\n  \"a\": 1,\n  \"wall_total_insts_per_sec\": 123456\n}\n";
        assert_eq!(extract_key(doc, GATE_KEY), Some(123_456));
        assert_eq!(extract_key(doc, "a"), Some(1));
        assert_eq!(extract_key(doc, "missing"), None);
    }

    #[test]
    fn gate_tolerance_boundaries() {
        let doc = format!("{{\n  \"{GATE_KEY}\": 1000\n}}\n");
        assert!(check_against(&doc, 1000, 15).is_ok());
        assert!(check_against(&doc, 850, 15).is_ok(), "exactly at the floor passes");
        assert!(check_against(&doc, 849, 15).is_err());
        assert!(check_against(&doc, 5000, 15).is_ok(), "improvements always pass");
        assert!(check_against("{}", 1, 15).is_err(), "missing gate key is an error");
    }

    #[test]
    fn phase_delta_table_pairs_baseline_and_current() {
        let old = "{\n  \"wall_phase_core_ns\": 2000000,\n  \"wall_phase_gone_ns\": 5000000\n}\n";
        let new = "{\n  \"wall_phase_core_ns\": 1000000,\n  \"wall_phase_events_ns\": 3000000\n}\n";
        let t = phase_delta_table(old, new);
        let row = |name: &str| {
            t.lines().find(|l| l.starts_with(name)).unwrap_or_else(|| panic!("no {name} row"))
        };
        assert!(row("core").contains("2.0") && row("core").contains("-50.0%"), "{t}");
        assert!(row("events").contains("3.0") && row("events").ends_with('-'), "new-only phase");
        assert!(row("gone").contains("5.0") && row("gone").ends_with('-'), "baseline-only phase");
        // Current-run phases lead; baseline-only phases trail.
        let pos = |name: &str| t.find(&format!("\n{name}")).expect("row present");
        assert!(pos("events") < pos("gone"));
    }

    #[test]
    fn throughput_math() {
        assert_eq!(insts_per_sec(1_000, 1_000_000_000), 1_000);
        assert_eq!(insts_per_sec(1_000, 500_000_000), 2_000);
        assert_eq!(insts_per_sec(1_000, 0), 0, "zero wall time cannot divide");
    }

    #[test]
    fn histogram_keys_are_cumulative_and_sparse() {
        let h = Histogram::new();
        h.observe(3); // bucket le_4
        h.observe(4); // bucket le_4
        h.observe(100); // bucket le_128
        let mut got: Vec<(String, String)> = Vec::new();
        push_histogram(&mut |k, v| got.push((k.to_string(), v)), "wall_x_us", &h.snapshot());
        let find = |k: &str| got.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
        assert_eq!(find("wall_x_us_le_4").as_deref(), Some("2"));
        assert_eq!(find("wall_x_us_le_128").as_deref(), Some("3"), "cumulative");
        assert_eq!(find("wall_x_us_le_inf").as_deref(), Some("3"));
        assert_eq!(find("wall_x_us_le_2"), None, "empty buckets are skipped");
        assert_eq!(find("wall_x_us_sum").as_deref(), Some("107"));
        assert_eq!(find("wall_x_us_count").as_deref(), Some("3"));
    }

    #[test]
    fn quick_measure_is_deterministic_modulo_wall_keys() {
        // The acceptance bar: `--jobs 1` and `--jobs 4` agree byte-for-byte
        // once `"wall_` lines are stripped. A tiny insts override keeps the
        // suite cheap; determinism is scale-independent.
        let strip = |json: &str| {
            json.lines().filter(|l| !l.contains("\"wall_")).collect::<Vec<_>>().join("\n")
        };
        let base = PerfOpts { quick: true, insts: Some(4_000), ..PerfOpts::default() };
        let a = measure(&PerfOpts { jobs: 1, ..base.clone() });
        let b = measure(&PerfOpts { jobs: 4, ..base });
        assert_eq!(strip(&a.json), strip(&b.json), "worker count leaked into the baseline");
        assert!(a.insts_per_sec > 0);
        assert!(a.json.contains(GATE_KEY));
        assert!(
            extract_key(&a.json, "bench_schema_version") == Some(u64::from(BENCH_SCHEMA_VERSION))
        );
    }
}
