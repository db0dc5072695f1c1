//! The simulator workloads, `sim-repair` and `sim-policy`.
//!
//! Both run a seeded cell list serially on one thread at paper scale: the
//! seed permutes the cell order and draws each cell's measured window from
//! a fixed set around 2 M instructions. The timed phase repeats whole
//! passes over the list until the time budget is spent. Each pass starts
//! with its own set-up, which gives `setup_s` one sample per pass, and
//! times only `Machine::run`; `Machine::new` for the next cell runs
//! outside the clock. The simulation rate sums instructions and run time
//! over every cell of every pass, and set-up time is the median over
//! passes. A cell's latency is the median of its run times over the
//! passes, and the latency percentiles rank the cells by it: pooled
//! single runs cluster by program, and with an even number of programs
//! the pooled median is the slowest run of one program, which moved with
//! every stray slow run.
//!
//! Everything here runs on the calling thread, so every time is read from
//! that thread's CPU clock ([`stats::thread_cpu_time`]). On a shared host
//! the wall time of the same work also counts the spells in which the
//! thread waited for a CPU that another task or the hypervisor held, and
//! those spells came and went between runs; wall-clock rates are printed
//! as context lines.
//!
//! Every result is checked against a committed table of expected
//! digests, `expected/sim_digests.txt`, which covers every cell a seed
//! can draw.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use tdo_rand::Rng;
use tdo_sim::profile::{PHASE_CORE, PHASE_EVENTS, PHASE_MONITORS, PHASE_OPTIMIZER};
use tdo_sim::{
    encode_result, run_profiled, Machine, MachineProfile, PrefetchSetup, SimConfig, SimResult,
};
use tdo_workloads::{build, names, Scale, Workload};

use crate::report::Outcome;
use crate::stats::{self, digest_words, fnv1a64, median, quantile};
use crate::Opts;

/// Which simulator workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimKind {
    /// The 14-program suite under the paper's headline configuration.
    Repair,
    /// The suite plus `phaseshift` under the runtime policy controller.
    Policy,
}

impl SimKind {
    fn setup(self) -> PrefetchSetup {
        match self {
            SimKind::Repair => PrefetchSetup::SwSelfRepair,
            SimKind::Policy => PrefetchSetup::Policy,
        }
    }

    fn programs(self) -> Vec<&'static str> {
        let mut programs = names().to_vec();
        if self == SimKind::Policy {
            programs.push("phaseshift");
        }
        programs
    }

    /// Keeps the two workloads' seed streams apart.
    fn salt(self) -> u64 {
        match self {
            SimKind::Repair => 0x5eed_0001,
            SimKind::Policy => 0x5eed_0002,
        }
    }
}

/// The measured windows a cell can draw. A small fixed set keeps every
/// drawable cell in the table of expected digests.
const WINDOWS: [u64; 3] = [1_950_000, 2_000_000, 2_050_000];
/// The shortened run used by the self-test: small windows and warmup.
const QUICK_WINDOWS: [u64; 3] = [20_000, 25_000, 30_000];
const QUICK_WARMUP: u64 = 10_000;

/// Expected `encode_result` digest of every drawable cell, one
/// `<workload> <program> <window> <digest>` line each.
const EXPECTED_DIGESTS: &str = include_str!("../expected/sim_digests.txt");

fn windows(quick: bool) -> [u64; 3] {
    if quick {
        QUICK_WINDOWS
    } else {
        WINDOWS
    }
}

/// One planned cell: a program and its measured window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellPlan {
    /// Workload program name.
    pub program: &'static str,
    /// Original-equivalent instructions measured after warmup.
    pub measure_insts: u64,
}

/// The seeded cell list, in run order — a pure function of its arguments.
#[must_use]
pub fn plan(kind: SimKind, seed: u64, quick: bool) -> Vec<CellPlan> {
    let windows = windows(quick);
    let mut rng = Rng::new(seed ^ kind.salt());
    let mut cells: Vec<CellPlan> = kind
        .programs()
        .into_iter()
        .map(|program| CellPlan { program, measure_insts: windows[rng.gen_index(windows.len())] })
        .collect();
    rng.shuffle(&mut cells);
    cells
}

/// A digest of the cell list (program names and windows, in run order).
#[must_use]
pub fn plan_digest(cells: &[CellPlan]) -> u64 {
    let text: String =
        cells.iter().map(|c| format!("{}:{};", c.program, c.measure_insts)).collect();
    fnv1a64(text.as_bytes())
}

fn config(kind: SimKind, cell: &CellPlan, quick: bool) -> SimConfig {
    let mut cfg = SimConfig::paper(kind.setup());
    cfg.measure_insts = cell.measure_insts;
    if quick {
        cfg.warmup_insts = QUICK_WARMUP;
    }
    cfg
}

/// Whether a run measured the window its cell asked for: the program did
/// not halt early, and the window is off by at most a few instructions,
/// since the warmup and measurement boundaries fall inside commit groups.
fn measured_window(r: &SimResult, cell: &CellPlan) -> bool {
    !r.halted && r.orig_insts.abs_diff(cell.measure_insts) <= 64
}

/// The persisted-result digest of one simulation.
fn result_digest(r: &SimResult) -> u64 {
    digest_words(&encode_result(r))
}

/// The committed expected digests, keyed by workload, program and window.
struct ExpectedDigests(HashMap<(String, String, u64), u64>);

impl ExpectedDigests {
    fn load() -> ExpectedDigests {
        let table = EXPECTED_DIGESTS
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                let (window, digest) = match f[..] {
                    [_, _, w, d] => (w.parse().ok(), u64::from_str_radix(d, 16).ok()),
                    _ => (None, None),
                };
                match (window, digest) {
                    (Some(w), Some(d)) => ((f[0].to_string(), f[1].to_string(), w), d),
                    _ => panic!("malformed expected-digest line `{l}`"),
                }
            })
            .collect();
        ExpectedDigests(table)
    }

    /// Whether `digest` is the expected result of `cell` (under
    /// `--wrong-expected`, never).
    fn matches(&self, kind: SimKind, cell: &CellPlan, digest: u64) -> bool {
        let key = (kind_name(kind).to_string(), cell.program.to_string(), cell.measure_insts);
        self.0.get(&key).is_some_and(|&want| crate::expected(want) == digest)
    }
}

/// Built inputs for every cell, plus what building them cost.
struct Prepared {
    workloads: Vec<Workload>,
    configs: Vec<SimConfig>,
    build: Duration,
    machine_new: Duration,
}

/// Set-up: `tdo_workloads::build` plus `Machine::new` for every cell, on
/// the thread's CPU clock. The machines are dropped outside the clock; the
/// timed pass builds a fresh one per cell.
fn prepare(kind: SimKind, cells: &[CellPlan], quick: bool) -> Prepared {
    let mut p = Prepared {
        workloads: Vec::with_capacity(cells.len()),
        configs: Vec::with_capacity(cells.len()),
        build: Duration::ZERO,
        machine_new: Duration::ZERO,
    };
    for cell in cells {
        let cfg = config(kind, cell, quick);
        let t0 = stats::thread_cpu_time();
        let w = build(cell.program, Scale::Full).expect("suite program builds");
        let t1 = stats::thread_cpu_time();
        let m = Machine::new(&w, cfg.clone());
        let t2 = stats::thread_cpu_time();
        p.build += t1 - t0;
        p.machine_new += t2 - t1;
        drop(m);
        p.workloads.push(w);
        p.configs.push(cfg);
    }
    p
}

/// One timed `Machine::run` of a cell: its result, CPU time and wall time.
fn timed_run(w: &Workload, cfg: &SimConfig) -> (SimResult, Duration, Duration) {
    let m = Machine::new(w, cfg.clone());
    let (c0, t0) = (stats::thread_cpu_time(), Instant::now());
    let r = m.run();
    let wall = t0.elapsed();
    (r, stats::thread_cpu_time() - c0, wall)
}

/// The untraced benchmark run: end-to-end metrics.
pub fn run(kind: SimKind, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let cells = plan(kind, opts.seed, opts.quick);
    let table = ExpectedDigests::load();
    stats::reset_peak_rss();

    // Timed phase: whole passes, each on its own set-up, for as long as
    // the wall-clock budget lasts.
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut digests: Vec<Option<u64>> = vec![None; cells.len()];
    // Each cell's `Machine::run` CPU times, in µs, one per pass.
    let mut cell_us: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let (mut pass_rates, mut setup_times) = (Vec::new(), Vec::new());
    let (mut cells_run, mut insts_run) = (0u64, 0u64);
    let (mut run_time, mut run_wall, mut pass_time) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut peak = None;
    let phase = Instant::now();
    loop {
        // The previous pass's inputs are dropped by now, so only one copy
        // is ever alive.
        let prep = prepare(kind, &cells, opts.quick);
        setup_times.push((prep.build + prep.machine_new).as_secs_f64());
        let pass = stats::thread_cpu_time();
        let (mut insts, mut time) = (0u64, Duration::ZERO);
        for (i, (w, cfg)) in prep.workloads.iter().zip(&prep.configs).enumerate() {
            let (r, dt, wall) = timed_run(w, cfg);
            let d = result_digest(&r);
            // The run must measure the requested window and produce the
            // committed expected result, and every pass must reproduce
            // the first pass's result exactly. (The traced pass checks
            // each cell against a self-profiled run as well.)
            let first = *digests[i].get_or_insert(d);
            out.op(measured_window(&r, &cells[i])
                && table.matches(kind, &cells[i], d)
                && first == d);
            insts += r.orig_insts;
            time += dt;
            run_wall += wall;
            cell_us[i].push(dt.as_secs_f64() * 1e6);
        }
        pass_time += stats::thread_cpu_time() - pass;
        // The peak resident set of the workload run once: set-up plus one
        // pass. Later passes repeat the same work, and the heap the
        // allocator keeps between their set-ups grows with their number,
        // which the host's speed decides.
        peak.get_or_insert_with(|| stats::peak_rss_mib().unwrap_or(0.0));
        cells_run += cells.len() as u64;
        insts_run += insts;
        run_time += time;
        pass_rates.push(insts as f64 / time.as_secs_f64());
        // Another whole pass only if it ends nearer the budget than this
        // one, so the phase ends within half a pass of it.
        let elapsed = phase.elapsed();
        if elapsed + elapsed / (2 * pass_rates.len() as u32) >= budget {
            break;
        }
    }
    let phase_s = phase.elapsed().as_secs_f64();

    let mut suite: Vec<(&'static str, u64)> = cells
        .iter()
        .zip(&digests)
        .map(|(c, d)| (c.program, d.expect("every pass ran every cell")))
        .collect();

    out.note(format!("workload={} seed={} cells={}", kind_name(kind), opts.seed, cells.len()));
    out.note(format!("plan_digest={:016x}", plan_digest(&cells)));
    out.note(format!("suite_digest={:016x}", suite_digest(&mut suite)));
    out.note(format!(
        "passes={} cells_timed={cells_run} run_cpu_s={:.3} run_wall_s={:.3} pass_cpu_s={:.3} \
         phase_wall_s={phase_s:.3}",
        pass_rates.len(),
        run_time.as_secs_f64(),
        run_wall.as_secs_f64(),
        pass_time.as_secs_f64()
    ));
    out.note(format!(
        "wall-clock sim_insts_per_s={:.0} (CPU-clock figure below)",
        insts_run as f64 / run_wall.as_secs_f64()
    ));
    let rates: Vec<String> = pass_rates.iter().map(|r| format!("{r:.0}")).collect();
    out.note(format!("pass_insts_per_s={}", rates.join(",")));
    let setups: Vec<String> = setup_times.iter().map(|s| format!("{s:.4}")).collect();
    out.note(format!("pass_setup_s={}", setups.join(",")));
    // One latency per cell: the median of its runs.
    let cell_rtt: Vec<f64> =
        cell_us.iter().map(|runs| median(runs).expect("every pass ran every cell")).collect();
    let per_cell: Vec<String> =
        cells.iter().zip(&cell_rtt).map(|(c, us)| format!("{}:{us:.0}", c.program)).collect();
    out.note(format!("cell_rtt_us={}", per_cell.join(",")));
    out.note(format!(
        "rtt = one cell's Machine::run on the CPU clock, its median over {} passes; p50 and p99 \
         by exact rank over n={} cells ({cells_run} cell runs)",
        pass_rates.len(),
        cell_rtt.len()
    ));
    out.push("sim_insts_per_s", insts_run as f64 / run_time.as_secs_f64(), "insts/s");
    out.push("rtt_p50_us", quantile(&cell_rtt, 0.5).expect("cells ran"), "us");
    out.push("rtt_p99_us", quantile(&cell_rtt, 0.99).expect("cells ran"), "us");
    out.push("throughput_rps", cells_run as f64 / pass_time.as_secs_f64(), "1/s");
    out.push("setup_s", median(&setup_times).expect("at least one set-up"), "s");
    out.push("peak_rss_mib", peak.expect("at least one pass"), "MiB");
    out
}

/// Suite digest: FNV over `(program, result digest)` in program-name
/// order, so it is independent of the seeded run order.
fn suite_digest(suite: &mut [(&'static str, u64)]) -> u64 {
    suite.sort_unstable();
    let text: String = suite.iter().map(|(p, d)| format!("{p}:{d:016x};")).collect();
    fnv1a64(text.as_bytes())
}

fn kind_name(kind: SimKind) -> &'static str {
    match kind {
        SimKind::Repair => "sim-repair",
        SimKind::Policy => "sim-policy",
    }
}

/// Reads one simulated count from a result.
type ReadCount = fn(&SimResult) -> u64;

/// Simulated counts reported by the traced pass, summed over cells: name,
/// unit, and how to read it from one result. They are identical for
/// identical inputs, so a change that only makes the simulator faster must
/// leave every one of them unchanged.
const COUNTS: [(&str, &str, ReadCount); 16] = [
    ("cpu.cycles", "cycles", |r| r.cycles),
    ("cpu.orig_insts", "insts", |r| r.orig_insts),
    ("cpu.helper_active_cycles", "cycles", |r| r.helper_active_cycles),
    ("mem.l1_misses", "count", |r| r.mem.l1_misses()),
    ("mem.sw_pf_issued", "count", |r| r.mem.sw_prefetch_issued),
    // Demand loads served by a prefetched line, whichever prefetcher
    // brought it in.
    ("mem.pf_useful", "count", |r| r.mem.hits_prefetched + r.mem.partial_hits),
    ("arms.issued", "count", |r| r.mem.arm_issued.iter().sum()),
    ("arms.useful", "count", |r| r.mem.arm_useful.iter().sum()),
    ("arms.switches", "count", |r| r.mem.arm_switches),
    ("trident.traces_installed", "count", |r| r.trident.traces_installed),
    ("trident.backouts", "count", |r| r.trident.backouts),
    ("trident.events_queued", "count", |r| r.trident.events_queued),
    ("trident.events_dropped", "count", |r| {
        r.trident.events_dropped_saturated + r.trident.events_dropped_duplicate
    }),
    ("core.insertions", "count", |r| r.optimizer.insertions),
    ("core.repairs", "count", |r| r.optimizer.repairs),
    ("core.ledger_records", "count", |r| r.ledger.len() as u64),
];

/// Per-layer simulator figures, accumulated over cells.
#[derive(Debug, Default)]
pub struct SimLayers {
    /// Host ns per simulator phase of the traced runs.
    phase_ns: [u64; tdo_sim::profile::NPHASES],
    /// Host ns of the traced runs (`run_profiled`'s run wall).
    traced_wall_ns: u64,
    /// Host ns of the untraced runs of the same cells.
    untraced_wall_ns: u64,
    /// Host ns of `tdo_workloads::build`.
    pub build_ns: u64,
    /// Host ns of `Machine::new`.
    pub machine_new_ns: u64,
    /// Simulated helper cycles per job kind.
    helper_cycles: [u64; tdo_sim::profile::NKINDS],
    /// Sums of [`COUNTS`], in that order.
    counts: [u64; COUNTS.len()],
}

impl SimLayers {
    /// Adds one traced cell.
    pub fn add(&mut self, r: &SimResult, p: &MachineProfile, untraced: Duration) {
        for (acc, ns) in self.phase_ns.iter_mut().zip(p.phase_wall_ns) {
            *acc += ns;
        }
        self.traced_wall_ns += p.run_wall_ns;
        self.untraced_wall_ns += u64::try_from(untraced.as_nanos()).unwrap_or(u64::MAX);
        for (acc, c) in self.helper_cycles.iter_mut().zip(p.helper_cycles) {
            *acc += c;
        }
        for (acc, (_, _, read)) in self.counts.iter_mut().zip(COUNTS) {
            *acc += read(r);
        }
    }

    /// Reports every simulator per-layer metric.
    pub fn report(&self, out: &mut Outcome) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let named = [PHASE_CORE, PHASE_MONITORS, PHASE_EVENTS, PHASE_OPTIMIZER];
        let named_ns: u64 = named.iter().map(|&i| self.phase_ns[i]).sum();
        // Everything the four named phases do not cover, including the
        // sampling and mature-clear phases (idle without a probe or a
        // mature-clear interval), so the five figures sum to the wall.
        let other_ns = self.traced_wall_ns.saturating_sub(named_ns);
        out.push("cpu.cycle_ms", ms(self.phase_ns[PHASE_CORE]), "ms");
        out.push("trident.monitors_ms", ms(self.phase_ns[PHASE_MONITORS]), "ms");
        out.push("trident.events_ms", ms(self.phase_ns[PHASE_EVENTS]), "ms");
        out.push("core.commit_ms", ms(self.phase_ns[PHASE_OPTIMIZER]), "ms");
        out.push("sim.other_ms", ms(other_ns), "ms");
        out.push("sim.traced_wall_ms", ms(self.traced_wall_ns), "ms");
        let overhead = match self.untraced_wall_ns {
            0 => 0.0,
            untraced => self.traced_wall_ns as f64 / untraced as f64 - 1.0,
        };
        out.push("sim.trace_overhead_frac", overhead, "ratio");
        out.push("workloads.build_ms", ms(self.build_ns), "ms");
        out.push("sim.machine_new_ms", ms(self.machine_new_ns), "ms");
        for ((name, unit, _), sum) in COUNTS.iter().zip(self.counts) {
            out.push(name, sum as f64, unit);
        }
        let count = |name: &str| {
            self.counts[COUNTS.iter().position(|c| c.0 == name).expect("declared count")]
        };
        // Useful over issued, counting software and hardware prefetches.
        let issued = count("mem.sw_pf_issued") + count("arms.issued");
        let accuracy =
            if issued == 0 { 0.0 } else { count("mem.pf_useful") as f64 / issued as f64 };
        out.push("mem.pf_accuracy", accuracy, "ratio");
        let names = [
            "helper.form_trace_cycles",
            "helper.insert_prefetches_cycles",
            "helper.repair_distance_cycles",
            "helper.analyze_only_cycles",
        ];
        for (name, cycles) in names.into_iter().zip(self.helper_cycles) {
            out.push(name, cycles as f64, "cycles");
        }
    }
}

/// The traced pass: one untraced and one self-profiled run per cell, the
/// per-layer split, and the digest check between the two.
pub fn run_traced(kind: SimKind, opts: &Opts) -> (Outcome, SimLayers) {
    let mut out = Outcome::default();
    let cells = plan(kind, opts.seed, opts.quick);
    let table = ExpectedDigests::load();
    let prep = prepare(kind, &cells, opts.quick);
    let mut layers = SimLayers {
        build_ns: u64::try_from(prep.build.as_nanos()).unwrap_or(u64::MAX),
        machine_new_ns: u64::try_from(prep.machine_new.as_nanos()).unwrap_or(u64::MAX),
        ..SimLayers::default()
    };
    let mut suite = Vec::with_capacity(cells.len());
    for (i, (w, cfg)) in prep.workloads.iter().zip(&prep.configs).enumerate() {
        let (r, _, untraced) = timed_run(w, cfg);
        let (rt, profile) = run_profiled(w, cfg);
        let d = result_digest(&rt);
        // The untraced and the self-profiled run must agree exactly, and
        // with the committed expected result.
        out.op(measured_window(&r, &cells[i])
            && table.matches(kind, &cells[i], d)
            && result_digest(&r) == d);
        layers.add(&rt, &profile, untraced);
        suite.push((cells[i].program, d));
    }
    out.note(format!(
        "workload={} seed={} cells={} traced",
        kind_name(kind),
        opts.seed,
        cells.len()
    ));
    out.note(format!("plan_digest={:016x}", plan_digest(&cells)));
    out.note(format!("suite_digest={:016x}", suite_digest(&mut suite)));
    (out, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_always_yields_the_same_cell_set() {
        for kind in [SimKind::Repair, SimKind::Policy] {
            for quick in [false, true] {
                assert_eq!(plan(kind, 7, quick), plan(kind, 7, quick));
            }
            assert_ne!(plan(kind, 7, false), plan(kind, 8, false), "the seed steers the plan");
        }
        assert_eq!(plan(SimKind::Repair, 1, false).len(), 14);
        let policy = plan(SimKind::Policy, 1, false);
        assert_eq!(policy.len(), 15);
        assert!(policy.iter().any(|c| c.program == "phaseshift"));
        assert!(policy.iter().all(|c| WINDOWS.contains(&c.measure_insts)));
    }

    /// Every cell a seed can draw, for each workload and run length.
    fn drawable() -> Vec<(SimKind, bool, CellPlan)> {
        let mut cells = Vec::new();
        for kind in [SimKind::Repair, SimKind::Policy] {
            for quick in [false, true] {
                for program in kind.programs() {
                    for measure_insts in windows(quick) {
                        cells.push((kind, quick, CellPlan { program, measure_insts }));
                    }
                }
            }
        }
        cells
    }

    #[test]
    fn the_expected_table_covers_every_drawable_cell() {
        let table = ExpectedDigests::load();
        let cells = drawable();
        assert_eq!(table.0.len(), cells.len(), "the table holds exactly the drawable cells");
        for (kind, _, cell) in cells {
            let key = (kind_name(kind).to_string(), cell.program.to_string(), cell.measure_insts);
            assert!(table.0.contains_key(&key), "no expected digest for {key:?}");
        }
    }

    /// Regenerates `expected/sim_digests.txt` (needed only when the
    /// simulator's results change on purpose):
    /// `cargo test --release --manifest-path perfbench/Cargo.toml --bin perfbench -- --ignored --nocapture print_expected_digests`
    #[test]
    #[ignore = "simulates every drawable cell, at paper scale too; prints the table"]
    fn print_expected_digests() {
        for (kind, quick, cell) in drawable() {
            let w = build(cell.program, Scale::Full).expect("suite program builds");
            let r = Machine::new(&w, config(kind, &cell, quick)).run();
            assert!(measured_window(&r, &cell), "{cell:?}");
            println!(
                "{} {} {} {:016x}",
                kind_name(kind),
                cell.program,
                cell.measure_insts,
                result_digest(&r)
            );
        }
    }
}
