//! `tdo` — drive the self-repairing prefetcher stack from the command line.
//!
//! ```text
//! tdo list                         # workloads and their characterizations
//! tdo run mcf --arm sr --full      # one run, summary report
//! tdo compare art --jobs 4        # every arm side by side, in parallel
//! tdo disasm gap | head            # workload disassembly
//! tdo traces mcf --arm sr          # installed hot traces after a run
//! tdo timeline mcf --trace-out t.json   # repair convergence + event trace
//! tdo trace-validate t.json        # schema-check an emitted trace file
//! tdo serve --addr 127.0.0.1:7077  # result-serving daemon over the store
//! tdo store stats                  # persistent result-store maintenance
//! tdo ping 127.0.0.1:7077          # in-repo HTTP client (health/metrics/run)
//! ```
//!
//! `run` and `compare` execute through the shared experiment engine
//! ([`tdo_sim::Runner`]): `compare` simulates all arms across `--jobs`
//! worker threads, repeated cells within one invocation are memoized, and —
//! unless `--no-store` is given — results persist to the content-addressed
//! store (`--store-dir`, `$TDO_STORE`, default `.tdo-store/`), so repeat
//! invocations simulate nothing.

use std::io::{IsTerminal as _, Write as _};
use std::process::ExitCode;
use std::sync::Arc;

use tdo_isa::{decode, INST_BYTES};
use tdo_obs::json::{self, Value};
use tdo_obs::{validate_chrome_trace, validate_jsonl, LedgerKind};
use tdo_server::{client, install_sigint_handler, Server, ServerConfig};
use tdo_sim::{
    policy_candidates, run_traced, Cell, ExperimentSpec, Format, Machine, PrefetchSetup, Report,
    Runner, SimConfig, SimResult, Timeline, SCHEMA_VERSION,
};
use tdo_store::{ShardedStore, Store};
use tdo_trident::TraceOp;
use tdo_workloads::{build, names, Scale, Workload};

/// Every dispatched subcommand, with its one-line summary. The dispatcher
/// and the usage text are both driven by this table, and a unit test pins
/// every entry into [`usage_text`] so the help cannot drift from the code.
const COMMANDS: &[(&str, &str)] = &[
    ("list", "workloads and descriptions"),
    ("run", "simulate one workload: run <workload> [opts]"),
    ("compare", "simulate every arm: compare <workload> [opts]"),
    ("disasm", "dump the workload's code: disasm <workload>"),
    ("traces", "dump installed hot traces after a run: traces <workload> [opts]"),
    ("timeline", "cycle-stamped repair-convergence report: timeline <workload> [opts]"),
    ("trace-validate", "schema-check an emitted trace/flight/log file: trace-validate <file>"),
    ("flight", "render a flight-recorder dump as per-trace span trees: flight <dump>"),
    ("serve", "HTTP daemon serving results from the store: serve [opts]"),
    ("store", "persistent store maintenance: store <stats|verify|gc> [opts]"),
    ("ping", "HTTP client for a running daemon: ping <addr> [opts]"),
    ("top", "live health dashboard over /metrics/history: top <addr> [opts]"),
    ("why", "decision-audit ledger narration: why <workload> [opts]"),
    ("chaos", "seeded fault-injection + crash-recovery sweep: chaos [opts]"),
    ("loadgen", "seeded traffic-mix replay against a daemon: loadgen <addr> [opts]"),
];

fn usage_text() -> String {
    let mut text = String::from("usage: tdo <command> [args]\n\ncommands:\n");
    for (name, summary) in COMMANDS {
        text.push_str(&format!("  {name:<15} {summary}\n"));
    }
    text.push_str(
        "\nworkload options (run/compare/disasm/traces/timeline/why):\n\
         \x20 --arm <none|hw4x4|hw8x8|basic|whole|sr|swonly|nl|adanl|delta|policy>\n\
         \x20                           (default sr)\n\
         \x20 --arms <all|a,b,...>      arm x workload matrix over the whole\n\
         \x20                           suite + phaseshift (compare only;\n\
         \x20                           replaces the workload argument)\n\
         \x20 --full                    paper-scale run (default: test scale)\n\
         \x20 --insts <N>               measured original instructions\n\
         \x20 --jobs <N>                parallel simulations (0 = all cores)\n\
         \x20 --format <table|csv|json> result rendering (default table)\n\
         \x20 --trace-out <path>        write a Chrome trace_event file (timeline)\n\
         \x20 --jsonl-out <path>        write the raw JSONL event log (timeline)\n\
         \x20 --quick                   shorten the run for CI (timeline)\n\
         \x20 --store-dir <dir>         persistent result store directory\n\
         \x20                           (default: $TDO_STORE or .tdo-store/)\n\
         \x20 --no-store                skip the persistent result store\n\
         \nserve options:\n\
         \x20 --addr <host:port>        listen address (default 127.0.0.1:7077)\n\
         \x20 --threads <N>             simulation worker threads (default 2)\n\
         \x20 --queue <N>               bounded /run queue; beyond it requests\n\
         \x20                           shed with 503 (default 16)\n\
         \x20 --shards <N>              consistent-hash store shards under the\n\
         \x20                           store directory (default 1 = unsharded)\n\
         \x20 --cache <N>               finished results kept in memory, in cells\n\
         \x20                           (default 256; 0 keeps none)\n\
         \x20 --slo-us <N>              /run latency SLO in µs; a breach dumps\n\
         \x20                           the flight recorder (default 0 = off)\n\
         \x20 --flight-dir <dir>        directory for flight-recorder dumps on\n\
         \x20                           panic/saturation/SLO breach\n\
         \x20 --store-dir / --no-store  as above\n\
         \nstore actions (all honour --store-dir):\n\
         \x20 stats                     record/byte/hit counters\n\
         \x20 verify                    checksum every record in the log\n\
         \x20 gc                        drop stale-schema + shadowed records\n\
         \x20 (a root holding shard-NNN/ directories, as `serve --shards`\n\
         \x20 leaves it, is acted on shard by shard)\n\
         \nping options:\n\
         \x20 (default)                 GET /health\n\
         \x20 --metrics                 GET /metrics\n\
         \x20 --prom                    GET /metrics?format=prom and validate it\n\
         \x20 --workloads               GET /workloads\n\
         \x20 --path </p>               GET an arbitrary path\n\
         \x20 --count <N>               repeat the GET or --run N times; RTT\n\
         \x20                           min/avg/max (integer µs) covers the OK\n\
         \x20                           responses, 503 sheds report separately\n\
         \x20 --run <workload>          POST /run (honours --arm/--full/--insts)\n\
         \x20 --shutdown                POST /shutdown (graceful stop)\n\
         \ntop options (tdo top <addr> polls GET /metrics/history):\n\
         \x20 --once                    render one frame and exit\n\
         \x20 --window <N>              history rows to fetch (default 0 = all)\n\
         \x20 --interval-ms <N>         live refresh period (default 1000)\n\
         \x20 --format <table|csv|json> frame rendering (default table)\n\
         \nwhy options (plus the workload options above):\n\
         \x20 narrates the run's decision-audit ledger: every distance repair\n\
         \x20 under --arm plus every policy arm switch, with the windowed\n\
         \x20 latency / milli-IPC / milli-MPKI evidence behind each decision\n\
         \nchaos options:\n\
         \x20 --seed <N>                fault-plan seed (default 1); the whole\n\
         \x20                           sweep is a pure function of it\n\
         \x20 --quick                   CI-sized sweep\n\
         \x20 --jobs <N>                engine workers for the jitter phase\n\
         \x20 --summary-out <path>      write the fault-site coverage summary\n\
         \x20 --flight-out <path>       write the attribution scenario's flight\n\
         \x20                           dump (and its log as <path>.log)\n\
         \nloadgen options (tdo loadgen <addr> replays a seeded mix of /run\n\
         traffic; report bytes outside wall_* lines are a pure function of\n\
         seed/mix/count):\n\
         \x20 --seed <N>                request-plan seed (default 1)\n\
         \x20 --mix <spec>              class:weight list over hot, batch,\n\
         \x20                           cold and slow (default\n\
         \x20                           hot:80,batch:10,cold:5,slow:5)\n\
         \x20 --count <N>               requests to send (default 1000000)\n\
         \x20 --quick                   cap the count at 50000 for CI\n\
         \x20 --jobs <N>                client threads (default 4); the\n\
         \x20                           seed-pure report bytes never change\n\
         \x20 --slo-us <N>              report a wall_slo line against this\n\
         \x20                           p99 latency target (default 0 = off)\n\
         \x20 --report-out <path>       write the report here as well\n",
    );
    text
}

fn usage() -> ExitCode {
    eprint!("{}", usage_text());
    ExitCode::FAILURE
}

struct Opts {
    arm: PrefetchSetup,
    arms: Option<String>,
    full: bool,
    insts: Option<u64>,
    jobs: usize,
    format: Format,
    trace_out: Option<String>,
    jsonl_out: Option<String>,
    quick: bool,
    store_dir: Option<String>,
    no_store: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        arm: PrefetchSetup::SwSelfRepair,
        arms: None,
        full: false,
        insts: None,
        jobs: 0,
        format: Format::Table,
        trace_out: None,
        jsonl_out: None,
        quick: false,
        store_dir: None,
        no_store: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => o.full = true,
            "--quick" => o.quick = true,
            "--no-store" => o.no_store = true,
            "--trace-out" => {
                o.trace_out = Some(it.next().ok_or("--trace-out needs a path")?.clone());
            }
            "--jsonl-out" => {
                o.jsonl_out = Some(it.next().ok_or("--jsonl-out needs a path")?.clone());
            }
            "--store-dir" => {
                o.store_dir = Some(it.next().ok_or("--store-dir needs a directory")?.clone());
            }
            "--arm" => {
                let v = it.next().ok_or("--arm needs a value")?;
                o.arm =
                    PrefetchSetup::from_cli_name(v).ok_or_else(|| format!("unknown arm `{v}`"))?;
            }
            "--arms" => {
                o.arms = Some(it.next().ok_or("--arms needs `all` or a comma list")?.clone());
            }
            "--insts" => {
                let v = it.next().ok_or("--insts needs a value")?;
                o.insts = Some(v.parse().map_err(|_| format!("bad --insts `{v}`"))?);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                o.jobs = v.parse().map_err(|_| format!("bad --jobs `{v}`"))?;
            }
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                o.format = v.parse()?;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(o)
}

/// The engine for `run`/`compare`: store-backed unless `--no-store`.
fn runner(o: &Opts) -> Runner {
    if o.no_store {
        Runner::new(o.jobs)
    } else {
        Runner::with_default_store(o.jobs, o.store_dir.as_deref(), 1)
    }
}

/// Prints the store accounting footer to stderr (stdout report bytes stay
/// identical warm or cold).
fn store_footer(runner: &Runner) {
    if let Some(summary) = runner.store_summary() {
        eprintln!("{summary}");
    }
}

fn scale(o: &Opts) -> Scale {
    if o.full {
        Scale::Full
    } else {
        Scale::Test
    }
}

fn load_workload(name: &str, full: bool) -> Result<Workload, String> {
    let scale = if full { Scale::Full } else { Scale::Test };
    build(name, scale).ok_or_else(|| format!("unknown workload `{name}`; try `tdo list`"))
}

fn config(o: &Opts, arm: PrefetchSetup) -> SimConfig {
    let mut cfg = if o.full { SimConfig::paper(arm) } else { SimConfig::test(arm) };
    if let Some(n) = o.insts {
        cfg.measure_insts = n;
    }
    cfg
}

fn report(r: &SimResult) {
    println!("  cycles           {}", r.cycles);
    println!("  orig insts       {}", r.orig_insts);
    println!("  IPC              {:.4}", r.ipc());
    println!("  helper active    {:.2}%", r.helper_active_fraction() * 100.0);
    println!(
        "  traces           {} installed, {} reoptimized, {} backed out",
        r.trident.traces_installed, r.trident.reoptimizations, r.trident.backouts
    );
    println!(
        "  events           {} queued, {} dropped saturated, {} dropped duplicate",
        r.trident.events_queued,
        r.trident.events_dropped_saturated,
        r.trident.events_dropped_duplicate
    );
    println!(
        "  optimizer        {} events, {} insertions, {} repairs ({} up / {} down), {} matured",
        r.optimizer.events,
        r.optimizer.insertions,
        r.optimizer.repairs,
        r.optimizer.distance_up,
        r.optimizer.distance_down,
        r.optimizer.matured
    );
    if r.optimizer.groups > 0 {
        println!(
            "  convergence      {} groups, {:.1} repairs/group, {:.0} avg cycles to converge",
            r.optimizer.groups,
            r.repairs_per_group(),
            r.avg_cycles_to_converge()
        );
    }
    let b = r.load_breakdown();
    println!(
        "  loads            {:.1}% hit | {:.1}% hit-pf | {:.1}% partial | {:.1}% miss | {:.2}% miss-by-pf",
        b[0] * 100.0,
        b[1] * 100.0,
        b[2] * 100.0,
        b[3] * 100.0,
        b[4] * 100.0
    );
    println!(
        "  miss coverage    {:.1}% in traces, {:.1}% prefetched",
        r.miss_coverage_by_traces() * 100.0,
        r.miss_coverage_by_prefetcher() * 100.0
    );
}

/// The run summary as a machine-readable report (csv/json modes).
fn metrics_report(name: &str, arm: PrefetchSetup, r: &SimResult) -> Report {
    let mut rep = Report::new("run").key("metric", 18).col("value", 12);
    let b = r.load_breakdown();
    for (metric, value) in [
        ("workload", name.to_string()),
        ("arm", format!("{arm:?}")),
        ("cycles", r.cycles.to_string()),
        ("orig_insts", r.orig_insts.to_string()),
        ("ipc", format!("{:.5}", r.ipc())),
        ("helper_active_frac", format!("{:.5}", r.helper_active_fraction())),
        ("hits", format!("{:.5}", b[0])),
        ("hit_prefetched", format!("{:.5}", b[1])),
        ("partial", format!("{:.5}", b[2])),
        ("miss", format!("{:.5}", b[3])),
        ("miss_by_prefetch", format!("{:.5}", b[4])),
        ("miss_in_traces_frac", format!("{:.5}", r.miss_coverage_by_traces())),
        ("miss_prefetched_frac", format!("{:.5}", r.miss_coverage_by_prefetcher())),
        ("events_queued", r.trident.events_queued.to_string()),
        ("dropped_saturated", r.trident.events_dropped_saturated.to_string()),
        ("dropped_duplicate", r.trident.events_dropped_duplicate.to_string()),
        ("repairs_per_group", format!("{:.3}", r.repairs_per_group())),
        ("avg_converge_cycles", format!("{:.0}", r.avg_cycles_to_converge())),
    ] {
        rep.row(metric, [value]);
    }
    rep
}

fn cmd_list() -> ExitCode {
    for name in names() {
        let w = build(name, Scale::Test).expect("suite workload");
        println!("{name:<10} {}", w.description);
    }
    ExitCode::SUCCESS
}

fn cmd_run(name: &str, o: &Opts) -> Result<ExitCode, String> {
    load_workload(name, o.full)?; // validate the name up front
    let runner = runner(o);
    let r = runner.run_cell(&Cell::new(name, scale(o), config(o, o.arm)));
    store_footer(&runner);
    if o.format == Format::Table {
        println!(
            "{name} under {:?} ({}):",
            o.arm,
            if o.full { "full scale" } else { "test scale" }
        );
        report(&r);
    } else {
        print!("{}", metrics_report(name, o.arm, &r).render(o.format));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(name: &str, o: &Opts) -> Result<ExitCode, String> {
    load_workload(name, o.full)?;
    let runner = runner(o);
    let mut spec = ExperimentSpec::new();
    for arm in PrefetchSetup::ALL {
        spec.push(Cell::new(name, scale(o), config(o, arm)));
    }
    let _ = runner.run_spec(&spec);

    let base = runner.run_cell(&Cell::new(name, scale(o), config(o, PrefetchSetup::Hw8x8)));
    let mut rep = Report::new("compare").key("arm", 18).col("IPC", 10).col("vs hw8x8", 10).rule(0);
    for arm in PrefetchSetup::ALL {
        let r = runner.run_cell(&Cell::new(name, scale(o), config(o, arm)));
        rep.row(
            format!("{arm:?}"),
            [format!("{:.4}", r.ipc()), format!("{:>9.1}%", (r.speedup_over(&base) - 1.0) * 100.0)],
        );
    }
    print!("{}", rep.render(o.format));
    store_footer(&runner);
    Ok(ExitCode::SUCCESS)
}

/// The hardware-prefetcher arsenal plus the policy controller: the arm set
/// `compare --arms all` sweeps. The policy column is last so the matrix
/// reads "static arms, then the controller that picks among them".
const ARSENAL: [PrefetchSetup; 5] = [
    PrefetchSetup::Hw8x8,
    PrefetchSetup::HwNextLine,
    PrefetchSetup::HwAdaptiveNextLine,
    PrefetchSetup::HwDelta,
    PrefetchSetup::Policy,
];

/// `tdo compare --arms <all|list>`: the full arm × workload matrix over the
/// paper's 14-benchmark suite plus the phase-shifting workload, with a
/// "which arm wins where" summary. Extends the paper's Figure 2 (stream
/// buffers per benchmark) to the whole arsenal.
fn cmd_compare_arms(spec_arg: &str, o: &Opts) -> Result<ExitCode, String> {
    let arms: Vec<PrefetchSetup> = if spec_arg == "all" {
        ARSENAL.to_vec()
    } else {
        spec_arg
            .split(',')
            .map(|n| PrefetchSetup::from_cli_name(n).ok_or_else(|| format!("unknown arm `{n}`")))
            .collect::<Result<_, _>>()?
    };
    if arms.is_empty() {
        return Err("--arms needs at least one arm".into());
    }
    let workloads: Vec<&str> = names().iter().copied().chain(["phaseshift"]).collect();

    let cfg_for = |arm: PrefetchSetup| {
        let mut cfg = config(o, arm);
        if o.quick {
            cfg.measure_insts = cfg.measure_insts.min(120_000);
        }
        cfg
    };

    // One spec with every cell: the engine fans out across `--jobs`
    // workers; the per-cell reads below are then all memo hits, so the
    // rendered bytes cannot depend on the worker count.
    let runner = runner(o);
    let mut spec = ExperimentSpec::new();
    for w in &workloads {
        for &arm in &arms {
            spec.push(Cell::new(*w, scale(o), cfg_for(arm)));
        }
    }
    let _ = runner.run_spec(&spec);

    let mut rep = Report::new("arm-matrix").key("workload", 10);
    for &arm in &arms {
        rep = rep.col(arm.cli_name(), 10);
    }
    rep = rep.col("best", 8).rule(0);

    // Per-workload IPC row + best (highest-IPC) arm; ties go to the
    // earlier arm in the sweep order, deterministically.
    let mut wins: Vec<(PrefetchSetup, Vec<&str>)> = arms.iter().map(|&a| (a, Vec::new())).collect();
    for w in &workloads {
        let results: Vec<Arc<SimResult>> = arms
            .iter()
            .map(|&arm| runner.run_cell(&Cell::new(*w, scale(o), cfg_for(arm))))
            .collect();
        let ipc_key = |i: usize| (results[i].orig_insts * 100_000).checked_div(results[i].cycles);
        let mut best = 0;
        for i in 1..arms.len() {
            if ipc_key(i) > ipc_key(best) {
                best = i;
            }
        }
        wins[best].1.push(w);
        let mut cells: Vec<String> = results.iter().map(|r| format!("{:.4}", r.ipc())).collect();
        cells.push(arms[best].cli_name().to_string());
        rep.row((*w).to_string(), cells);
    }
    print!("{}", rep.render(o.format));

    if o.format == Format::Table {
        println!();
        println!("which arm wins where:");
        for (arm, won) in &wins {
            if !won.is_empty() {
                println!("  {:<8} {:>2} workloads: {}", arm.cli_name(), won.len(), won.join(" "));
            }
        }
    }
    store_footer(&runner);
    Ok(ExitCode::SUCCESS)
}

fn cmd_disasm(name: &str, o: &Opts) -> Result<ExitCode, String> {
    let w = load_workload(name, o.full)?;
    for (i, word) in w.program.code.iter().enumerate() {
        let pc = w.program.code_base + i as u64 * INST_BYTES;
        match decode(*word) {
            Ok(inst) => println!("{pc:#10x}  {inst}"),
            Err(e) => println!("{pc:#10x}  <invalid: {e}>"),
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_traces(name: &str, o: &Opts) -> Result<ExitCode, String> {
    let w = load_workload(name, o.full)?;
    let machine = Machine::new(&w, config(o, o.arm));
    let mut dumped = false;
    let r = machine.run_with_inspect(&mut |m| {
        for id in m.installed_traces() {
            let Some(t) = m.trident().trace(id) else { continue };
            println!(
                "trace {:?} @ {:#x}  (head {:#x}, {} insts{})",
                id,
                t.cc_addr,
                t.head,
                t.insts.len(),
                if t.is_loop { ", loop" } else { "" }
            );
            for (i, ti) in t.insts.iter().enumerate() {
                let mark = if ti.synthetic { "  <- inserted" } else { "" };
                match ti.op {
                    TraceOp::Real(inst) => println!("  [{i:>3}] {inst}{mark}"),
                    TraceOp::CondExit { cond, ra, to } => {
                        println!("  [{i:>3}] exit-if {cond:?} {ra} -> {to:#x}")
                    }
                    TraceOp::JumpBack { to } => println!("  [{i:>3}] jump-back -> {to:#x}"),
                    TraceOp::LoopBack => println!("  [{i:>3}] loop-back"),
                }
            }
            dumped = true;
        }
    });
    if !dumped {
        println!("(no traces installed)");
    }
    if o.format == Format::Table {
        println!();
        report(&r);
    } else {
        print!("{}", metrics_report(name, o.arm, &r).render(o.format));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_timeline(name: &str, o: &Opts) -> Result<ExitCode, String> {
    let w = load_workload(name, o.full)?;
    let mut cfg = config(o, o.arm);
    if o.quick {
        cfg.measure_insts = cfg.measure_insts.min(100_000);
    }
    // A timeline run is one machine on one thread: `--jobs` cannot change a
    // single cell's execution, so the emitted bytes are identical for any
    // worker count.
    let (r, recorder) = run_traced(&w, &cfg);
    let timeline = Timeline::from_events(recorder.events());

    if let Some(path) = &o.jsonl_out {
        std::fs::write(path, recorder.to_jsonl()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {} events to {path}", recorder.len());
    }
    if let Some(path) = &o.trace_out {
        std::fs::write(path, recorder.to_chrome_trace())
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote Chrome trace to {path} (load in about:tracing or Perfetto)");
    }

    println!(
        "{name} under {:?} ({}): repair convergence",
        o.arm,
        if o.full { "full scale" } else { "test scale" }
    );
    print!("{}", timeline.render_convergence());
    println!();
    println!("windowed performance (every {} insts):", cfg.sample_insts);
    print!("{}", timeline.render_samples());
    // The arm section only exists for policy runs: static-arm timelines
    // stay byte-identical to what they printed before the arsenal existed.
    if !timeline.arm_switches.is_empty() {
        println!();
        println!("policy arm switches:");
        print!("{}", timeline.render_arms());
    }
    println!();
    report(&r);
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace_validate(path: &str) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    // Every plane this repo emits is validated through the same verb; the
    // format is recognized by its first bytes.
    let what = if text.starts_with("{\"traceEvents\":[") {
        let n = validate_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
        format!("valid Chrome trace ({n} entries)")
    } else if text.starts_with("{\"trace\":") {
        let n = tdo_obs::validate_flight(&text).map_err(|e| format!("{path}: {e}"))?;
        format!("valid flight-recorder dump ({n} records)")
    } else if text.starts_with("ts=") {
        let n = tdo_obs::validate_log(&text).map_err(|e| format!("{path}: {e}"))?;
        format!("valid structured log ({n} lines)")
    } else {
        let n = validate_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
        format!("valid JSONL event log ({n} events)")
    };
    println!("{path}: {what}");
    Ok(ExitCode::SUCCESS)
}

/// `tdo flight <dump>`: validate a flight-recorder dump and render it as
/// one span tree per trace, with integer-µs timings.
fn cmd_flight(path: &str) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    // Decode the integer payloads whose meaning lives in other crates:
    // fault points carry a `Site::ALL` index, dump points a trigger index,
    // coalesce points the leader's trace id.
    let resolve = |kind: tdo_obs::FlightKind, arg: u64| -> Option<String> {
        match kind {
            tdo_obs::FlightKind::Fault => {
                tdo_fault::Site::ALL.get(arg as usize).map(|s| format!("site={}", s.name()))
            }
            tdo_obs::FlightKind::Dump => {
                tdo_server::DUMP_REASONS.get(arg as usize).map(|r| format!("reason={r}"))
            }
            tdo_obs::FlightKind::Coalesce => Some(format!("leader={arg:016x}")),
            _ => None,
        }
    };
    let rendered = tdo_obs::render_flight(&text, &resolve).map_err(|e| format!("{path}: {e}"))?;
    print!("{rendered}");
    Ok(ExitCode::SUCCESS)
}

/// `tdo serve`: the result-serving daemon (see `tdo-server`).
fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = ServerConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => cfg.addr = it.next().ok_or("--addr needs host:port")?.clone(),
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                cfg.workers = v.parse().map_err(|_| format!("bad --threads `{v}`"))?;
            }
            "--queue" => {
                let v = it.next().ok_or("--queue needs a value")?;
                cfg.queue_cap = v.parse().map_err(|_| format!("bad --queue `{v}`"))?;
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                cfg.shards = v.parse().map_err(|_| format!("bad --shards `{v}`"))?;
            }
            "--cache" => {
                let v = it.next().ok_or("--cache needs a value")?;
                cfg.cache = v.parse().map_err(|_| format!("bad --cache `{v}`"))?;
            }
            "--store-dir" => {
                cfg.store_dir = Some(it.next().ok_or("--store-dir needs a directory")?.clone());
            }
            "--no-store" => cfg.no_store = true,
            "--slo-us" => {
                let v = it.next().ok_or("--slo-us needs a value")?;
                cfg.slo_us = v.parse().map_err(|_| format!("bad --slo-us `{v}`"))?;
            }
            "--flight-dir" => {
                cfg.flight_dir = Some(it.next().ok_or("--flight-dir needs a directory")?.clone());
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if let Some(dir) = &cfg.flight_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create --flight-dir `{dir}`: {e}"))?;
    }
    install_sigint_handler();
    let server = Server::bind(&cfg).map_err(|e| format!("cannot bind `{}`: {e}", cfg.addr))?;
    let addr = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    println!(
        "tdo serve: listening on http://{addr} (workers={}, queue={}, shards={}, cache={})",
        cfg.workers.max(1),
        cfg.queue_cap.max(1),
        cfg.shards.max(1),
        cfg.cache
    );
    let _ = std::io::stdout().flush(); // daemon spawners wait for this line
    server.run().map_err(|e| format!("serve: {e}"))?;
    eprintln!("tdo serve: shut down cleanly");
    store_footer(server.runner());
    Ok(ExitCode::SUCCESS)
}

/// `tdo store <stats|verify|gc>`: persistent-store maintenance.
fn cmd_store(args: &[String]) -> Result<ExitCode, String> {
    let Some(action) = args.first() else {
        return Err("store needs an action: stats, verify or gc".into());
    };
    if !matches!(action.as_str(), "stats" | "verify" | "gc") {
        return Err(format!("unknown store action `{action}` (want stats, verify or gc)"));
    }
    let mut store_dir: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store-dir" => {
                store_dir = Some(it.next().ok_or("--store-dir needs a directory")?.clone());
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let dir = Store::resolve_dir(store_dir.as_deref());
    // A root holding `shard-NNN/` directories (a `tdo serve --shards N`
    // store) is acted on shard by shard; any other root is one store.
    let shards = shard_dirs(&dir)?;
    if action == "verify" {
        // Each shard's log as it lies on disk: opening a store heals it,
        // which would erase the damage this action exists to report.
        let mut clean = true;
        for shard in ShardedStore::dirs(&dir, shards) {
            let report = Store::verify_dir(&shard)
                .map_err(|e| format!("cannot verify store `{}`: {e}", shard.display()))?;
            println!(
                "store {}: {} good, {} corrupt, {} trailing garbage bytes",
                shard.display(),
                report.good,
                report.corrupt,
                report.trailing_garbage_bytes
            );
            clean &= report.is_clean();
        }
        return Ok(if clean { ExitCode::SUCCESS } else { ExitCode::FAILURE });
    }
    let store = ShardedStore::open(&dir, shards)
        .map_err(|e| format!("cannot open store `{}`: {e}", dir.display()))?;
    match action.as_str() {
        "stats" => {
            let (s, sz) = (store.stats(), store.size_stats());
            let layout = if shards > 1 { format!(" ({shards} shards)") } else { String::new() };
            println!("store {}{layout}", dir.display());
            println!("  live records       {}", s.live_records);
            println!("  shadowed records   {}", s.shadowed_records);
            println!("  log bytes          {}", s.log_bytes);
            println!("  quarantine bytes   {}", s.quarantine_bytes);
            println!("  quarantined (run)  {}", s.quarantined);
            println!("  schema version     {SCHEMA_VERSION}");
            if shards > 1 {
                println!();
                let mut rep = Report::new("shards")
                    .key("shard", 12)
                    .col("live", 9)
                    .col("shadowed", 9)
                    .col("log bytes", 12)
                    .col("quarantined", 12);
                let cells = |s: &tdo_store::StoreStats| {
                    [s.live_records, s.shadowed_records, s.log_bytes, s.quarantined]
                        .map(|v| v.to_string())
                };
                for (i, shard) in store.shards().iter().enumerate() {
                    rep.row(format!("shard-{i:03}"), cells(&shard.stats()));
                }
                rep.footer("total", cells(&s));
                print!("{}", rep.render(Format::Table));
            }
            if !sz.per_generation.is_empty() {
                println!();
                let mut rep = Report::new("generations")
                    .key("generation", 12)
                    .col("records", 9)
                    .col("bytes", 12)
                    .rule(0);
                for g in &sz.per_generation {
                    rep.row(
                        format!("v{}", g.version),
                        [g.records.to_string(), g.bytes.to_string()],
                    );
                }
                print!("{}", rep.render(Format::Table));
                let h = &sz.record_bytes;
                println!("  record bytes       mean {} over {} records", h.mean(), h.count);
                let mut cum = 0u64;
                for (i, n) in h.buckets.iter().enumerate() {
                    cum += n;
                    if *n == 0 {
                        continue;
                    }
                    match tdo_metrics::Histogram::bucket_le(i) {
                        Some(le) => println!("    <= {le:>10} B   {cum}"),
                        None => println!("    <=        inf B   {cum}"),
                    }
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "gc" => {
            for store in store.shards() {
                let report = store.gc(SCHEMA_VERSION).map_err(|e| format!("gc: {e}"))?;
                println!(
                    "store {}: kept {}, dropped {} stale + {} shadowed, {} -> {} bytes",
                    store.dir().display(),
                    report.kept,
                    report.dropped_stale,
                    report.dropped_shadowed,
                    report.bytes_before,
                    report.bytes_after
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => unreachable!("action validated above"),
    }
}

/// How many `shard-NNN/` directories `root` holds (0 = an unsharded store
/// or no store yet). They must be numbered `shard-000` onwards without
/// gaps, as `tdo serve --shards N` lays them out, and there must be at
/// least two: a one-shard store is the root itself.
fn shard_dirs(root: &std::path::Path) -> Result<usize, String> {
    let Ok(entries) = std::fs::read_dir(root) else { return Ok(0) };
    let n = entries
        .filter_map(Result::ok)
        .filter(|e| e.path().is_dir() && e.file_name().to_string_lossy().starts_with("shard-"))
        .count();
    if n == 1 {
        return Err(format!(
            "store root `{}` holds one shard directory; a sharded root holds at least two",
            root.display()
        ));
    }
    if (0..n).any(|i| !root.join(format!("shard-{i:03}")).is_dir()) {
        return Err(format!(
            "store root `{}` holds {n} shard directories, not shard-000..shard-{:03}",
            root.display(),
            n - 1
        ));
    }
    Ok(n)
}

/// `tdo ping <addr>`: the in-repo HTTP client (CI has no curl).
fn cmd_ping(args: &[String]) -> Result<ExitCode, String> {
    let Some(addr) = args.first() else {
        return Err("ping needs a server address (host:port)".into());
    };
    let mut path: Option<String> = None;
    let mut run_workload: Option<String> = None;
    let mut arm = PrefetchSetup::SwSelfRepair;
    let mut full = false;
    let mut insts: Option<u64> = None;
    let mut shutdown = false;
    let mut prom = false;
    let mut count: u32 = 1;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--path" => path = Some(it.next().ok_or("--path needs a path")?.clone()),
            "--metrics" => path = Some("/metrics".into()),
            "--prom" => prom = true,
            "--workloads" => path = Some("/workloads".into()),
            "--count" => {
                let v = it.next().ok_or("--count needs a value")?;
                count = v.parse().map_err(|_| format!("bad --count `{v}`"))?;
                if count == 0 {
                    return Err("--count must be at least 1".into());
                }
            }
            "--run" => {
                run_workload = Some(it.next().ok_or("--run needs a workload name")?.clone());
            }
            "--arm" => {
                let v = it.next().ok_or("--arm needs a value")?;
                arm =
                    PrefetchSetup::from_cli_name(v).ok_or_else(|| format!("unknown arm `{v}`"))?;
            }
            "--full" => full = true,
            "--insts" => {
                let v = it.next().ok_or("--insts needs a value")?;
                insts = Some(v.parse().map_err(|_| format!("bad --insts `{v}`"))?);
            }
            "--shutdown" => shutdown = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if shutdown {
        // One-shot POST; --count never applies to a graceful stop.
        let response = client::post(addr, "/shutdown", "")
            .map_err(|e| format!("cannot reach `{addr}`: {e}"))?;
        println!("{}", response.body);
        return if response.ok() {
            Ok(ExitCode::SUCCESS)
        } else {
            Err(format!("server answered HTTP {}", response.status))
        };
    }
    if let Some(workload) = run_workload {
        // `--count N` repeats the POST. A 503 is the daemon shedding under
        // admission control, not a round trip: sheds are counted and
        // reported on their own line, and the RTT stats cover only the OK
        // responses — a shedding server can no longer masquerade as a fast
        // one.
        let mut body = format!(
            "{{\"workload\":\"{workload}\",\"arm\":\"{}\",\"scale\":\"{}\"",
            arm.cli_name(),
            if full { "full" } else { "test" }
        );
        if let Some(n) = insts {
            body.push_str(&format!(",\"insts\":{n}"));
        }
        body.push('}');
        let mut rtts_us: Vec<u64> = Vec::new();
        let mut shed: u32 = 0;
        let mut last_ok = None;
        for _ in 0..count {
            let t0 = std::time::Instant::now();
            let r = client::post(addr, "/run", &body)
                .map_err(|e| format!("cannot reach `{addr}`: {e}"))?;
            if r.status == 503 {
                shed += 1;
                continue;
            }
            if !r.ok() {
                println!("{}", r.body);
                return Err(format!("server answered HTTP {}", r.status));
            }
            rtts_us.push(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
            last_ok = Some(r);
        }
        let Some(response) = last_ok else {
            println!("shed={shed} of {count} posts (HTTP 503, no RTT stats)");
            return Err(format!("server shed all {count} posts (HTTP 503)"));
        };
        println!("{}", response.body);
        if count > 1 {
            let (min, max) = (rtts_us.iter().min(), rtts_us.iter().max());
            let avg = rtts_us.iter().sum::<u64>() / rtts_us.len() as u64;
            println!(
                "rtt_us min={} avg={avg} max={} ({} ok of {count} posts)",
                min.expect("nonempty"),
                max.expect("nonempty"),
                rtts_us.len()
            );
        }
        if shed > 0 {
            println!("shed={shed} of {count} posts (HTTP 503)");
        }
        return Ok(ExitCode::SUCCESS);
    }

    // GET modes: `--count N` repeats the request and reports round-trip
    // times in integer microseconds.
    let get_path = if prom {
        "/metrics?format=prom".to_string()
    } else {
        path.unwrap_or_else(|| "/health".into())
    };
    let mut rtts_us: Vec<u64> = Vec::with_capacity(count as usize);
    let mut response = None;
    for _ in 0..count {
        let t0 = std::time::Instant::now();
        let r = client::get(addr, &get_path).map_err(|e| format!("cannot reach `{addr}`: {e}"))?;
        rtts_us.push(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
        response = Some(r);
    }
    let response = response.expect("count >= 1");
    println!("{}", response.body);
    let (min, max) = (rtts_us.iter().min(), rtts_us.iter().max());
    let avg = rtts_us.iter().sum::<u64>() / rtts_us.len() as u64;
    println!(
        "rtt_us min={} avg={avg} max={} ({count} pings)",
        min.expect("nonempty"),
        max.expect("nonempty")
    );
    if prom {
        let stats = tdo_metrics::expo::parse_text(&response.body)
            .map_err(|e| format!("prom exposition invalid: {e}"))?;
        // The observability plane must actually be wired into the daemon's
        // exposition — a scrape missing these families means the trace/log/
        // flight layer fell off the registry.
        for family in [
            "tdo_obs_flight_recorded_total",
            "tdo_obs_flight_overwritten_total",
            "tdo_obs_log_lines_total",
            "tdo_server_bad_requests_total",
            "tdo_server_flight_dumps_total",
            "tdo_watchdog_trips_total",
            "tdo_build_info",
            "tdo_server_uptime_ticks",
        ] {
            if !response.body.contains(family) {
                return Err(format!("prom exposition is missing the `{family}` family"));
            }
        }
        println!("prom: {} families, {} samples, exposition valid", stats.families, stats.samples);
    }
    if response.ok() {
        Ok(ExitCode::SUCCESS)
    } else {
        Err(format!("server answered HTTP {}", response.status))
    }
}

/// A parsed `/metrics/history` response: the fixed column schema plus the
/// retained `(tick, values)` rows, oldest first.
struct History {
    columns: Vec<String>,
    kinds: Vec<String>,
    rows: Vec<(u64, Vec<u64>)>,
}

/// The array under `key` in a parsed history line, each element converted
/// by `each`; `None` when the key is missing or any element does not fit.
fn json_array<T>(
    pairs: &[(String, Value)],
    key: &str,
    each: impl Fn(&Value) -> Option<T>,
) -> Option<Vec<T>> {
    json::get(pairs, key)?.as_array()?.iter().map(each).collect()
}

/// Parses the `/metrics/history` JSONL body (header line + one line per
/// retained row).
fn parse_history(text: &str) -> Result<History, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = json::parse(lines.next().ok_or("empty history response")?)
        .map_err(|e| format!("bad history header: {e}"))?;
    let schema = json::get(&header, "series_schema")
        .and_then(Value::as_u64)
        .ok_or("history header lacks series_schema")?;
    if schema != tdo_metrics::series::SERIES_SCHEMA_VERSION {
        return Err(format!("unsupported series schema v{schema}"));
    }
    let string = |v: &Value| v.as_str().map(str::to_owned);
    let columns = json_array(&header, "columns", string).ok_or("history header lacks columns")?;
    let kinds = json_array(&header, "kinds", string).ok_or("history header lacks kinds")?;
    if kinds.len() != columns.len() {
        return Err("history header kinds/columns length mismatch".into());
    }
    let mut rows = Vec::new();
    for line in lines {
        let bad = || format!("bad history row: {line}");
        let row = json::parse(line).map_err(|_| bad())?;
        let tick = json::get(&row, "tick").and_then(Value::as_u64).ok_or_else(bad)?;
        let values = json_array(&row, "values", Value::as_u64).ok_or_else(bad)?;
        if values.len() != columns.len() {
            return Err(format!("history row width {} != schema {}", values.len(), columns.len()));
        }
        rows.push((tick, values));
    }
    Ok(History { columns, kinds, rows })
}

/// Renders one `tdo top` frame from a history snapshot. Pure over its
/// inputs, so the table is deterministic for a fixed history (the golden
/// test feeds a synthetic one).
///
/// The `total` column is the last retained sample (counters: since server
/// start; gauges: current). The `window` column differences the first and
/// last retained rows — "what happened across the scrape window" — and is
/// `-` for gauges.
fn render_top(h: &History, format: Format) -> String {
    let mut out = String::new();
    let span = match (h.rows.first(), h.rows.last()) {
        (Some(first), Some(last)) => last.0 - first.0,
        _ => 0,
    };
    if format == Format::Table {
        out.push_str(&format!("health plane: {} rows retained, span {span} ticks\n", h.rows.len()));
    }
    let Some(last) = h.rows.last() else {
        if format == Format::Table {
            out.push_str("(no samples retained yet — drive some traffic and re-poll)\n");
        }
        return out;
    };
    let first = h.rows.first().expect("rows nonempty");
    let col = |name: &str| h.columns.iter().position(|c| c == name);
    let total = |name: &str| col(name).map_or(0, |i| last.1[i]);
    // Counters difference across the window; gauges have no meaningful
    // delta, so their window cell stays blank.
    let window_at = |i: usize| {
        if h.kinds.get(i).is_some_and(|k| k == "gauge") {
            "-".to_string()
        } else {
            last.1[i].saturating_sub(first.1[i]).to_string()
        }
    };
    let window = |name: &str| col(name).map_or_else(|| "0".to_string(), window_at);

    // Run-latency quantiles from the log2 histogram's cumulative buckets:
    // `total` over everything observed, `window` over the scrape window
    // (bucket-wise counter difference).
    let lat_prefix = "tdo_server_request_latency_us{endpoint=\"run\"}#b";
    let mut cum_total = [0u64; tdo_metrics::TOTAL_BUCKETS];
    let mut cum_window = [0u64; tdo_metrics::TOTAL_BUCKETS];
    for (i, name) in h.columns.iter().enumerate() {
        if let Some(b) = name.strip_prefix(lat_prefix).and_then(|t| t.parse::<usize>().ok()) {
            if b < tdo_metrics::TOTAL_BUCKETS {
                cum_total[b] = last.1[i];
                cum_window[b] = last.1[i].saturating_sub(first.1[i]);
            }
        }
    }
    let quantile = |cum: &[u64; tdo_metrics::TOTAL_BUCKETS], q_milli: u64| {
        let buckets = tdo_metrics::series::buckets_from_cumulative(cum);
        tdo_metrics::quantile_from_buckets(&buckets, q_milli)
    };

    // Labeled families rendered one row per label, sorted by column name so
    // the frame never depends on the server's registration order.
    let labeled = |prefix: &str| {
        let mut rows: Vec<(String, usize)> = h
            .columns
            .iter()
            .enumerate()
            .filter_map(|(i, name)| {
                let label = name.strip_prefix(prefix)?.strip_suffix("\"}")?;
                Some((label.to_string(), i))
            })
            .collect();
        rows.sort();
        rows
    };

    let mut rep = Report::new("top").key("metric", 24).col("total", 12).col("window", 12).rule(0);
    rep.row("span_ticks", [last.0.to_string(), span.to_string()]);
    let runs = "tdo_server_endpoint_requests_total{endpoint=\"run\"}";
    rep.row("runs", [total(runs).to_string(), window(runs)]);
    for (name, q) in [("run_p50_us", 500), ("run_p95_us", 950), ("run_p99_us", 990)] {
        rep.row(name, [quantile(&cum_total, q).to_string(), quantile(&cum_window, q).to_string()]);
    }
    for (name, family) in [
        ("queue_depth", "tdo_server_queue_depth"),
        ("queue_cap", "tdo_server_queue_cap"),
        ("shed", "tdo_server_shed_total"),
        ("run_failed", "tdo_server_run_failed_total"),
        ("sims", "tdo_sim_sims_total"),
        ("arm_switches", "tdo_arm_switches_total"),
    ] {
        rep.row(name, [total(family).to_string(), window(family)]);
    }
    for (prefix, label_prefix) in [
        ("dump", "tdo_server_flight_dumps_total{reason=\""),
        ("arm_issued", "tdo_prefetch_issued_total{arm=\""),
        ("watchdog", "tdo_watchdog_trips_total{rule=\""),
    ] {
        for (label, i) in labeled(label_prefix) {
            rep.row(format!("{prefix}:{label}"), [last.1[i].to_string(), window_at(i)]);
        }
    }
    out.push_str(&rep.render(format));
    out
}

/// `tdo top <addr>`: the live health dashboard — poll `/metrics/history`,
/// render a frame, repeat (or `--once` for a single deterministic frame).
fn cmd_top(args: &[String]) -> Result<ExitCode, String> {
    let addr = match args.first() {
        Some(a) if !a.starts_with("--") => a.clone(),
        _ => return Err("top needs a server address (host:port)".into()),
    };
    let mut once = false;
    let mut window: usize = 0;
    let mut interval_ms: u64 = 1000;
    let mut format = Format::Table;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--once" => once = true,
            "--window" => {
                let v = it.next().ok_or("--window needs a value")?;
                window = v.parse().map_err(|_| format!("bad --window `{v}`"))?;
            }
            "--interval-ms" => {
                let v = it.next().ok_or("--interval-ms needs a value")?;
                interval_ms = v.parse().map_err(|_| format!("bad --interval-ms `{v}`"))?;
            }
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                format = v.parse()?;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    loop {
        let resp = client::get(&addr, &format!("/metrics/history?window={window}"))
            .map_err(|e| format!("cannot reach `{addr}`: {e}"))?;
        if !resp.ok() {
            return Err(format!("server answered HTTP {}", resp.status));
        }
        let frame = render_top(&parse_history(&resp.body)?, format);
        if once {
            print!("{frame}");
            return Ok(ExitCode::SUCCESS);
        }
        // Live mode: redraw in place on a terminal, append frames in a pipe.
        if std::io::stdout().is_terminal() {
            print!("\x1b[2J\x1b[H{frame}");
        } else {
            println!("{frame}");
        }
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}

/// The display name of a policy candidate index in ledger records.
fn candidate_name(idx: u64) -> String {
    policy_candidates()
        .get(idx as usize)
        .and_then(|c| c.kind())
        .map_or_else(|| format!("arm{idx}"), |k| k.name().to_string())
}

/// `tdo why <workload>`: narrate the run's decision-audit ledger — every
/// distance repair under `--arm` and every policy arm switch, each with the
/// windowed evidence that justified it.
fn cmd_why(name: &str, o: &Opts) -> Result<ExitCode, String> {
    load_workload(name, o.full)?;
    let runner = runner(o);
    let r = runner.run_cell(&Cell::new(name, scale(o), config(o, o.arm)));
    // Arm switches only exist under the policy controller; unless --arm
    // already asked for it, run the policy cell too (memoized/store-backed,
    // so a warm store simulates nothing).
    let policy = if o.arm == PrefetchSetup::Policy {
        r.clone()
    } else {
        runner.run_cell(&Cell::new(name, scale(o), config(o, PrefetchSetup::Policy)))
    };
    store_footer(&runner);

    let repairs: Vec<_> = r.ledger.iter().filter(|rec| rec.kind == LedgerKind::Repair).collect();
    let switches: Vec<_> =
        policy.ledger.iter().filter(|rec| rec.kind == LedgerKind::ArmSwitch).collect();

    if o.format != Format::Table {
        // Machine-readable: the raw records, one row each (CI artifacts).
        let mut rep = Report::new("why")
            .key("kind", 12)
            .col("cycle", 12)
            .col("group", 12)
            .col("pc", 12)
            .col("old", 10)
            .col("new", 10)
            .col("evidence_a", 12)
            .col("evidence_b", 12)
            .col("margin", 8)
            .col("epoch", 8)
            .rule(0);
        for rec in repairs.iter().chain(switches.iter()) {
            let (old, new) = if rec.kind == LedgerKind::Repair {
                (rec.old.to_string(), rec.new.to_string())
            } else {
                (candidate_name(rec.old), candidate_name(rec.new))
            };
            rep.row(
                if rec.kind == LedgerKind::Repair { "repair" } else { "arm_switch" },
                [
                    rec.cycle.to_string(),
                    format!("{:#x}", rec.group),
                    format!("{:#x}", rec.pc),
                    old,
                    new,
                    rec.evidence_a.to_string(),
                    rec.evidence_b.to_string(),
                    rec.margin_milli.to_string(),
                    rec.epoch.to_string(),
                ],
            );
        }
        print!("{}", rep.render(o.format));
        return Ok(ExitCode::SUCCESS);
    }

    println!("{name} decision audit ({}):", if o.full { "full scale" } else { "test scale" });
    println!();
    println!(
        "distance repairs under {:?}: {} recorded, {} retained",
        o.arm,
        r.optimizer.repairs,
        repairs.len()
    );
    for rec in &repairs {
        println!(
            "  cycle {:>9}  group {:#x} pc {:#x}  distance {} -> {}  \
             avg access {}.{:02}c (prev {}.{:02}c)  tolerance {}m  budget left {}",
            rec.cycle,
            rec.group,
            rec.pc,
            rec.old,
            rec.new,
            rec.evidence_a / 100,
            rec.evidence_a % 100,
            rec.evidence_b / 100,
            rec.evidence_b % 100,
            rec.margin_milli,
            rec.epoch
        );
    }
    if repairs.is_empty() {
        println!("  (none — every prefetch distance stayed where it started)");
    }
    println!();
    println!(
        "policy arm switches: {} recorded, {} retained",
        policy.mem.arm_switches,
        switches.len()
    );
    for rec in &switches {
        println!(
            "  cycle {:>9}  epoch {:>3}  {} -> {}  ipc {}.{:03}  mpki {}.{:03}  margin {}m",
            rec.cycle,
            rec.epoch,
            candidate_name(rec.old),
            candidate_name(rec.new),
            rec.evidence_a / 1000,
            rec.evidence_a % 1000,
            rec.evidence_b / 1000,
            rec.evidence_b % 1000,
            rec.margin_milli
        );
    }
    if switches.is_empty() {
        println!("  (none — the controller held one arm for the whole run)");
    }
    Ok(ExitCode::SUCCESS)
}

/// `tdo chaos`: the deterministic fault-injection sweep (see
/// `tdo_bench::chaos`). Exits nonzero when any chaos invariant is violated.
fn cmd_chaos(args: &[String]) -> Result<ExitCode, String> {
    let mut o = tdo_bench::chaos::ChaosOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => o.quick = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                o.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                o.jobs = v.parse().map_err(|_| format!("bad --jobs `{v}`"))?;
            }
            "--summary-out" => {
                o.summary_out = Some(it.next().ok_or("--summary-out needs a path")?.clone());
            }
            "--flight-out" => {
                o.flight_out = Some(it.next().ok_or("--flight-out needs a path")?.clone());
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let outcome = tdo_bench::chaos::run(&o);
    print!("{}", outcome.report);
    if let Some(path) = &o.summary_out {
        std::fs::write(path, &outcome.coverage_text).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote fault-site coverage to {path}");
    }
    if let Some(path) = &o.flight_out {
        std::fs::write(path, &outcome.flight_dump).map_err(|e| format!("write {path}: {e}"))?;
        let log_path = format!("{path}.log");
        std::fs::write(&log_path, &outcome.flight_log)
            .map_err(|e| format!("write {log_path}: {e}"))?;
        eprintln!("wrote flight dump to {path} (+ {log_path})");
    }
    Ok(if outcome.passed() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `tdo loadgen <addr>`: the seeded traffic generator for the serving tier
/// (see `tdo_bench::loadgen`). Exits nonzero when any request is lost.
fn cmd_loadgen(args: &[String]) -> Result<ExitCode, String> {
    let addr = match args.first() {
        Some(a) if !a.starts_with("--") => a.clone(),
        _ => return Err("loadgen needs a server address (host:port)".into()),
    };
    let mut o = tdo_bench::loadgen::LoadgenOpts { addr, ..Default::default() };
    let mut report_out: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => o.quick = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                o.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--mix" => o.mix = it.next().ok_or("--mix needs class:weight terms")?.clone(),
            "--count" => {
                let v = it.next().ok_or("--count needs a value")?;
                o.count = v.parse().map_err(|_| format!("bad --count `{v}`"))?;
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                o.jobs = v.parse().map_err(|_| format!("bad --jobs `{v}`"))?;
            }
            "--slo-us" => {
                let v = it.next().ok_or("--slo-us needs a value")?;
                o.slo_us = v.parse().map_err(|_| format!("bad --slo-us `{v}`"))?;
            }
            "--report-out" => {
                report_out = Some(it.next().ok_or("--report-out needs a path")?.clone());
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let outcome = tdo_bench::loadgen::run(&o)?;
    print!("{}", outcome.report);
    if let Some(path) = &report_out {
        std::fs::write(path, &outcome.report).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote loadgen report to {path}");
    }
    if outcome.passed() {
        Ok(ExitCode::SUCCESS)
    } else {
        Err(format!("loadgen lost {} of {} requests", outcome.lost, outcome.lost + outcome.ok))
    }
}

/// Routes one command. Every arm here must be listed in [`COMMANDS`] (and
/// therefore in the usage text) — a unit test enforces it.
fn dispatch(cmd: &str, args: &[String]) -> Result<ExitCode, String> {
    match cmd {
        "list" => Ok(cmd_list()),
        "trace-validate" => {
            let Some(path) = args.first() else {
                return Err("trace-validate needs a file path".into());
            };
            cmd_trace_validate(path)
        }
        "flight" => {
            let Some(path) = args.first() else {
                return Err("flight needs a dump file path".into());
            };
            cmd_flight(path)
        }
        "serve" => cmd_serve(args),
        "store" => cmd_store(args),
        "ping" => cmd_ping(args),
        "top" => cmd_top(args),
        "chaos" => cmd_chaos(args),
        "loadgen" => cmd_loadgen(args),
        "run" | "compare" | "disasm" | "traces" | "timeline" | "why" => {
            // `compare --arms <all|list>` sweeps the whole suite and takes
            // no workload argument.
            if cmd == "compare" && args.first().is_some_and(|a| a.starts_with("--")) {
                let opts = parse_opts(args)?;
                let spec = opts.arms.clone().ok_or("compare needs a workload name (or --arms)")?;
                return cmd_compare_arms(&spec, &opts);
            }
            let Some(name) = args.first() else {
                return Err(format!("{cmd} needs a workload name"));
            };
            let opts = parse_opts(&args[1..])?;
            if cmd == "compare" && opts.arms.is_some() {
                return Err("--arms replaces the workload argument: `tdo compare --arms …`".into());
            }
            match cmd {
                "run" => cmd_run(name, &opts),
                "compare" => cmd_compare(name, &opts),
                "disasm" => cmd_disasm(name, &opts),
                "timeline" => cmd_timeline(name, &opts),
                "why" => cmd_why(name, &opts),
                _ => cmd_traces(name, &opts),
            }
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match dispatch(cmd, &args[1..]) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite guarantee: the help text cannot drift from the dispatcher.
    /// Every dispatched subcommand string appears in `usage()`, and every
    /// documented command is actually dispatched (a bogus flag produces a
    /// per-command error, never `unknown command`).
    #[test]
    fn every_command_is_documented_and_dispatched() {
        let text = usage_text();
        for (name, summary) in COMMANDS {
            assert!(
                text.lines().any(|l| l.trim_start().starts_with(name)),
                "usage() does not document `{name}`"
            );
            assert!(!summary.is_empty(), "`{name}` needs a summary");
            let err =
                dispatch(name, &["--definitely-not-a-flag".to_string()]).err().unwrap_or_default();
            assert!(
                !err.starts_with("unknown command"),
                "documented command `{name}` is not dispatched"
            );
        }
        assert!(
            dispatch("definitely-not-a-command", &[]).unwrap_err().starts_with("unknown command"),
            "the dispatcher must reject unknown commands"
        );
    }

    /// Arm names accepted by `--arm` round-trip through the shared mapping.
    #[test]
    fn arm_names_round_trip() {
        for setup in PrefetchSetup::ALL {
            assert_eq!(PrefetchSetup::from_cli_name(setup.cli_name()), Some(setup));
        }
        assert_eq!(PrefetchSetup::from_cli_name("warp-drive"), None);
        assert!(
            usage_text().contains("none|hw4x4|hw8x8|basic|whole|sr|swonly|nl|adanl|delta|policy")
        );
    }

    /// A synthetic two-row history covering every family `tdo top` reads:
    /// the same shape `/metrics/history` serves, built deterministically.
    fn fixture_history() -> History {
        let lat = "tdo_server_request_latency_us{endpoint=\"run\"}";
        // Window 1: two requests at ≤1024 µs (b10), two at ≤4096 µs (b12).
        // Window 2 adds four more at ≤16384 µs (b14).
        let mut counts1 = [0u64; tdo_metrics::TOTAL_BUCKETS];
        counts1[10] = 2;
        counts1[12] = 2;
        let mut counts2 = counts1;
        counts2[14] += 4;
        let cum = |c: &[u64; tdo_metrics::TOTAL_BUCKETS], i: usize| c[..=i].iter().sum::<u64>();

        let mut spec: Vec<(String, &str, u64, u64)> = vec![
            ("tdo_server_endpoint_requests_total{endpoint=\"run\"}".into(), "counter", 4, 8),
            ("tdo_server_queue_depth".into(), "gauge", 3, 1),
            ("tdo_server_queue_cap".into(), "gauge", 16, 16),
            ("tdo_server_shed_total".into(), "counter", 0, 2),
            ("tdo_server_run_failed_total".into(), "counter", 0, 0),
            ("tdo_sim_sims_total".into(), "counter", 4, 8),
            ("tdo_arm_switches_total".into(), "counter", 1, 3),
            ("tdo_server_flight_dumps_total{reason=\"slo_burn\"}".into(), "counter", 0, 1),
            ("tdo_prefetch_issued_total{arm=\"nextline\"}".into(), "counter", 120, 250),
            ("tdo_prefetch_issued_total{arm=\"stream\"}".into(), "counter", 638, 638),
            ("tdo_watchdog_trips_total{rule=\"queue_depth\"}".into(), "counter", 0, 0),
            ("tdo_watchdog_trips_total{rule=\"slo_burn\"}".into(), "counter", 0, 1),
        ];
        for i in 0..tdo_metrics::TOTAL_BUCKETS {
            spec.push((format!("{lat}#b{i}"), "counter", cum(&counts1, i), cum(&counts2, i)));
        }
        spec.push((format!("{lat}#sum"), "counter", 7_000, 48_000));
        spec.push((format!("{lat}#count"), "counter", 4, 8));
        History {
            columns: spec.iter().map(|(n, ..)| n.clone()).collect(),
            kinds: spec.iter().map(|(_, k, ..)| (*k).to_string()).collect(),
            rows: vec![
                (40, spec.iter().map(|&(_, _, a, _)| a).collect()),
                (55, spec.iter().map(|&(_, _, _, b)| b).collect()),
            ],
        }
    }

    /// The `tdo top --once --format table` frame for a fixed history is
    /// byte-pinned. Regenerate with
    /// `TDO_BLESS=1 cargo test -p tdo-cli top_frame`.
    #[test]
    fn top_frame_matches_golden_snapshot() {
        let frame = render_top(&fixture_history(), Format::Table);
        let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/top_table.txt");
        if std::env::var_os("TDO_BLESS").is_some() {
            std::fs::write(golden, &frame).unwrap();
        } else {
            let expected = std::fs::read_to_string(golden)
                .expect("golden file missing; regenerate with TDO_BLESS=1");
            assert_eq!(
                frame, expected,
                "top frame drifted from the golden file; if intended, regenerate with TDO_BLESS=1"
            );
        }
        // The frame reads sanely regardless of the golden bytes.
        assert!(frame.contains("health plane: 2 rows retained, span 15 ticks"), "{frame}");
        assert!(frame.contains("run_p95_us"), "{frame}");
        assert!(frame.contains("arm_issued:stream"), "{frame}");
        assert!(frame.contains("watchdog:slo_burn"), "{frame}");
    }

    /// The history parser round-trips the exact JSONL shape
    /// `/metrics/history` emits, including escaped label quotes, and
    /// rejects structural damage.
    #[test]
    fn history_jsonl_parses_and_rejects_damage() {
        let text = concat!(
            "{\"series_schema\":1,\"rows\":2,\"columns\":[",
            "\"tdo_server_request_latency_us{endpoint=\\\"run\\\"}#count\",",
            "\"tdo_server_queue_depth\"],\"kinds\":[\"counter\",\"gauge\"]}\n",
            "{\"tick\":3,\"values\":[4,1]}\n",
            "{\"tick\":9,\"values\":[10,0]}\n",
        );
        let h = parse_history(text).expect("parses");
        assert_eq!(
            h.columns,
            ["tdo_server_request_latency_us{endpoint=\"run\"}#count", "tdo_server_queue_depth"]
        );
        assert_eq!(h.kinds, ["counter", "gauge"]);
        assert_eq!(h.rows, [(3, vec![4, 1]), (9, vec![10, 0])]);

        assert!(parse_history("").is_err(), "empty body");
        assert!(parse_history("{\"series_schema\":99,\"columns\":[],\"kinds\":[]}").is_err());
        let short_row = text.replace("[10,0]", "[10]");
        assert!(parse_history(&short_row).is_err(), "row width must match the schema");

        // An empty history (header only) renders a hint, not a panic.
        let empty = parse_history("{\"series_schema\":1,\"rows\":0,\"columns\":[],\"kinds\":[]}\n")
            .expect("parses");
        assert!(render_top(&empty, Format::Table).contains("no samples retained"));
    }

    /// Ledger candidate indices resolve to the arsenal's arm names.
    #[test]
    fn candidate_names_cover_the_policy_arsenal() {
        let names: Vec<String> =
            (0..policy_candidates().len() as u64).map(candidate_name).collect();
        assert_eq!(names, ["stream", "nextline", "adanl", "delta"]);
        assert_eq!(candidate_name(99), "arm99", "out-of-range indices stay renderable");
    }

    /// The `--arms all` arsenal is exactly the hardware arms plus the
    /// policy controller, and stays in sync with the setup enum.
    #[test]
    fn arsenal_covers_the_hardware_arms_and_policy() {
        assert_eq!(ARSENAL.last(), Some(&PrefetchSetup::Policy));
        for setup in ARSENAL {
            assert!(PrefetchSetup::ALL.contains(&setup));
        }
        assert!(usage_text().contains("--arms <all|a,b,...>"));
    }
}
