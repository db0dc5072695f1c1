//! The paper's evaluation: one renderer per table, figure and ablation, in
//! the order EXPERIMENTS.md presents them. The `paper` binary walks
//! [`PAPER`]; every fenced block of EXPERIMENTS.md is its output.

use tdo_core::{Dlt, DltConfig};
use tdo_cpu::CpuConfig;
use tdo_mem::{CacheConfig, MemConfig};
use tdo_sim::{ExperimentSpec, PrefetchSetup, Report, SimConfig};
use tdo_trident::{ProfilerConfig, WatchConfig};

use crate::{frac, geomean, mean, pct, suite, Harness};

/// Prints one entry's tables to stdout, simulating through the harness.
pub type Render = fn(&Harness);

/// Every renderer with its entry name, in EXPERIMENTS.md order.
pub const PAPER: [(&str, Render); 13] = [
    ("table1_config", table1_config),
    ("table2_config", table2_config),
    ("fig2_hw_baseline", fig2_hw_baseline),
    ("fig3_overhead", fig3_overhead),
    ("fig4_coverage", fig4_coverage),
    ("fig5_speedup", fig5_speedup),
    ("fig6_breakdown", fig6_breakdown),
    ("fig7_sensitivity", fig7_sensitivity),
    ("fig8_dlt_size", fig8_dlt_size),
    ("fig9_sw_vs_hw", fig9_sw_vs_hw),
    ("ablation_init_distance", ablation_init_distance),
    ("ablation_mature_clear", ablation_mature_clear),
    ("ablation_hw_prefetchers", ablation_hw_prefetchers),
];

/// Table 1: the baseline SMT processor configuration.
pub fn table1_config(_h: &Harness) {
    // Static configuration dump: the harness options have no effect.
    let cpu = CpuConfig::paper_baseline();
    let mem = MemConfig::paper_baseline();
    println!("Table 1: baseline SMT processor configuration");
    println!("---------------------------------------------");
    println!(
        "Pipeline            20-stage (mispredict refill {} cycles), 2 hardware contexts",
        cpu.mispredict_penalty
    );
    println!(
        "Issue bandwidth     {} instructions/cycle ({} loads/stores, {} FP)",
        cpu.issue_width, cpu.mem_ports, cpu.fp_units
    );
    println!("Branch predictor    gshare 64K + bimodal 16K + 64K meta chooser");
    println!(
        "L1 size & latency   {} KB {}-way, {} cycles",
        mem.l1.size_bytes >> 10,
        mem.l1.assoc,
        mem.l1.latency
    );
    println!(
        "L2 size & latency   {} KB {}-way, {} cycles",
        mem.l2.size_bytes >> 10,
        mem.l2.assoc,
        mem.l2.latency
    );
    println!(
        "L3 size & latency   {} MB {}-way, {} cycles",
        mem.l3.size_bytes >> 20,
        mem.l3.assoc,
        mem.l3.latency
    );
    println!(
        "Memory latency      {} cycles (bus occupancy {}/line, {} MSHRs)",
        mem.mem_latency, mem.bus_occupancy, mem.mshrs
    );
    let sb = mem.arm.stream().expect("baseline has stream buffers");
    println!(
        "Stream buffers      {} buffers x {} entries, {}-entry history table",
        sb.buffers, sb.entries_per_buffer, sb.history_entries
    );
    println!("Helper thread       {}-cycle startup latency", cpu.helper_startup_cycles);
}

/// Table 2: the Trident hardware monitoring structures.
pub fn table2_config(_h: &Harness) {
    // Static configuration dump: the harness options have no effect.
    let p = ProfilerConfig::paper_baseline();
    let w = WatchConfig::paper_baseline();
    let d = DltConfig::paper_baseline();
    println!("Table 2: Trident hardware monitoring structures");
    println!("-----------------------------------------------");
    println!(
        "Branch profiler      {}-entry, {}-way associative, {}-saturating counters,",
        p.entries, p.assoc, p.hot_threshold
    );
    println!(
        "                     {} standalone {}-bit direction bitmaps",
        p.capture_units, p.max_bits
    );
    println!("Watch table          {}-entry; per-trace minimal execution time,", w.entries);
    println!("                     optimization flag, early-exit back-out");
    println!(
        "Delinquent load tbl  {}-entry, {}-way associative; access counter {},",
        d.entries, d.assoc, d.window
    );
    println!(
        "                     miss counter threshold {} (~{:.0}% miss rate),",
        d.miss_threshold,
        100.0 * f64::from(d.miss_threshold) / f64::from(d.window)
    );
    println!(
        "                     avg-miss-latency threshold {} cycles (half the L2-miss latency),",
        d.latency_threshold
    );
    println!(
        "                     stride confidence {}-max (+1 match / -{} mismatch), mature flag",
        d.conf_max, d.conf_dec
    );
}

/// Figure 2: performance of the hardware stream-buffer prefetcher —
/// speedup of the 4x4 and 8x8 configurations over no prefetching.
pub fn fig2_hw_baseline(h: &Harness) {
    const ARMS: [PrefetchSetup; 3] =
        [PrefetchSetup::NoPrefetch, PrefetchSetup::Hw4x4, PrefetchSetup::Hw8x8];
    let mut spec = ExperimentSpec::new();
    for name in suite() {
        for arm in ARMS {
            spec.push(h.cell(name, arm));
        }
    }
    let _ = h.run(&spec);

    let mut rep = Report::new("fig2")
        .title("Figure 2: hardware stream-buffer prefetching vs no prefetching")
        .col("ipc-none", 12)
        .col("4x4 speedup", 12)
        .col("8x8 speedup", 12)
        .rule(50);
    let (mut s44, mut s88) = (Vec::new(), Vec::new());
    for name in suite() {
        let none = h.arm(name, PrefetchSetup::NoPrefetch);
        let hw44 = h.arm(name, PrefetchSetup::Hw4x4);
        let hw88 = h.arm(name, PrefetchSetup::Hw8x8);
        let (r44, r88) = (hw44.speedup_over(&none), hw88.speedup_over(&none));
        s44.push(r44);
        s88.push(r88);
        rep.row(*name, [format!("{:.4}", none.ipc()), pct(r44), pct(r88)]);
    }
    rep.footer("geomean", [String::new(), pct(geomean(&s44)), pct(geomean(&s88))]);
    rep.note("paper: 4x4 averages ~+35%, 8x8 ~+40% over no prefetching (Fig. 2).");
    h.emit(&rep);
}

/// Figure 3 and section 5.1: the cost of the dynamic prefetch optimizer.
///
/// * Figure 3: percentage of execution cycles the optimization (helper)
///   thread is active, per benchmark.
/// * Section 5.1: total overhead with traces formed but never linked
///   (pure helper-thread interference; the paper reports 0.6%).
pub fn fig3_overhead(h: &Harness) {
    // Section 5.1 arms: an undisturbed hardware-only baseline, and the same
    // work with traces never linked.
    let base_cfg = {
        let mut cfg = h.opts.config(PrefetchSetup::Hw8x8);
        cfg.trident_enabled = false;
        cfg
    };
    let nolink_cfg = {
        let mut cfg = h.opts.config(PrefetchSetup::SwSelfRepair);
        cfg.no_link = true;
        cfg
    };
    let arms: [&SimConfig; 3] =
        [&h.opts.config(PrefetchSetup::SwSelfRepair), &base_cfg, &nolink_cfg];
    let mut spec = ExperimentSpec::new();
    for name in suite() {
        for cfg in arms {
            spec.push(h.cell_cfg(name, cfg.clone()));
        }
    }
    let _ = h.run(&spec);

    let mut rep = Report::new("fig3")
        .title("Figure 3: optimization-thread activity (self-repairing prefetcher)")
        .col("helper active", 16)
        .col("no-link overhead", 16)
        .rule(45);
    let (mut active, mut overhead) = (Vec::new(), Vec::new());
    for name in suite() {
        // Helper activity under the full self-repairing configuration.
        let sr = h.arm(name, PrefetchSetup::SwSelfRepair);
        let base = h.cfg(name, &base_cfg);
        let nolink = h.cfg(name, &nolink_cfg);
        let ov = (1.0 - nolink.ipc() / base.ipc()).max(0.0);
        active.push(sr.helper_active_fraction());
        overhead.push(ov);
        rep.row(*name, [frac(sr.helper_active_fraction()), frac(ov)]);
    }
    rep.footer("mean", [frac(mean(&active)), frac(mean(&overhead))]);
    rep.note("paper: helper threads active ~2.2% of cycles on average (Fig. 3);");
    rep.note("       never-linked optimizer overhead ~0.6% (section 5.1).");
    h.emit(&rep);
}

/// Figure 4: percentage of load misses covered by hot traces, and the
/// fraction the software prefetcher can target.
pub fn fig4_coverage(h: &Harness) {
    let mut spec = ExperimentSpec::new();
    for name in suite() {
        spec.push(h.cell(name, PrefetchSetup::SwSelfRepair));
    }
    let _ = h.run(&spec);

    let mut rep = Report::new("fig4")
        .title("Figure 4: load-miss coverage by hot traces and the prefetcher")
        .col("in hot traces", 14)
        .col("prefetched", 14);
    let (mut traces, mut covered) = (Vec::new(), Vec::new());
    for name in suite() {
        let r = h.arm(name, PrefetchSetup::SwSelfRepair);
        traces.push(r.miss_coverage_by_traces());
        covered.push(r.miss_coverage_by_prefetcher());
        rep.row(*name, [frac(r.miss_coverage_by_traces()), frac(r.miss_coverage_by_prefetcher())]);
    }
    rep.footer("mean", [frac(mean(&traces)), frac(mean(&covered))]);
    rep.note("paper: hot traces cover >85% of load misses, ~55% potentially");
    rep.note("       prefetched; dot and parser are the low-coverage outliers (Fig. 4).");
    h.emit(&rep);
}

/// Figure 5: performance of software prefetching with and without
/// self-repairing, relative to the hardware-prefetching (8x8) baseline.
pub fn fig5_speedup(h: &Harness) {
    const ARMS: [PrefetchSetup; 4] = [
        PrefetchSetup::Hw8x8,
        PrefetchSetup::SwBasic,
        PrefetchSetup::SwWholeObject,
        PrefetchSetup::SwSelfRepair,
    ];
    let mut spec = ExperimentSpec::new();
    for name in suite() {
        for arm in ARMS {
            spec.push(h.cell(name, arm));
        }
    }
    let _ = h.run(&spec);

    let mut rep = Report::new("fig5")
        .title("Figure 5: software prefetching speedup over the hw-8x8 baseline")
        .col("basic", 12)
        .col("whole object", 14)
        .col("self-repair", 14)
        .rule(54);
    let (mut b, mut w, mut s) = (Vec::new(), Vec::new(), Vec::new());
    for name in suite() {
        let base = h.arm(name, PrefetchSetup::Hw8x8);
        let basic = h.arm(name, PrefetchSetup::SwBasic);
        let whole = h.arm(name, PrefetchSetup::SwWholeObject);
        let sr = h.arm(name, PrefetchSetup::SwSelfRepair);
        let (rb, rw, rs) =
            (basic.speedup_over(&base), whole.speedup_over(&base), sr.speedup_over(&base));
        b.push(rb);
        w.push(rw);
        s.push(rs);
        rep.row(*name, [pct(rb), pct(rw), pct(rs)]);
    }
    rep.footer("geomean", [pct(geomean(&b)), pct(geomean(&w)), pct(geomean(&s))]);
    rep.note("paper: basic ~+11%, self-repairing ~+23% on average; applu, facerec");
    rep.note("       and fma3d gain nothing further from self-repairing; dot and mcf");
    rep.note("       favour whole-object prefetching (Fig. 5).");
    h.emit(&rep);
}

/// Figure 6: breakdown of all dynamic loads under the self-repairing
/// prefetcher — hits, prefetched hits, partial prefetch hits, misses, and
/// misses caused by prefetch displacement.
pub fn fig6_breakdown(h: &Harness) {
    let mut spec = ExperimentSpec::new();
    for name in suite() {
        spec.push(h.cell(name, PrefetchSetup::SwSelfRepair));
    }
    let _ = h.run(&spec);

    let mut rep = Report::new("fig6")
        .title("Figure 6: dynamic-load breakdown (self-repairing prefetcher)")
        .col("hits", 10)
        .col("hit-prefetch", 12)
        .col("partial", 10)
        .col("miss", 8)
        .col("miss-by-pref", 12)
        .rule(68);
    let mut sums = [0.0f64; 5];
    for name in suite() {
        let r = h.arm(name, PrefetchSetup::SwSelfRepair);
        let b = r.load_breakdown();
        for (s, v) in sums.iter_mut().zip(b.iter()) {
            *s += v;
        }
        rep.row(*name, b.map(frac));
    }
    let n = suite().len() as f64;
    rep.footer("mean", sums.map(|s| frac(s / n)));
    rep.note("paper: misses due to prefetching rarely occur and partial prefetch");
    rep.note("       hits are a very small fraction (Fig. 6).");
    h.emit(&rep);
}

/// Figure 7: sensitivity of the self-repairing prefetcher to the DLT's
/// load-monitoring window size and miss-rate threshold.
pub fn fig7_sensitivity(h: &Harness) {
    let windows = [128u32, 256, 512];
    let rates = [1.0f64, 3.0, 6.0, 12.0];
    let sweep_cfg = |w: u32, rate: f64| -> SimConfig {
        let mut cfg = h.opts.config(PrefetchSetup::SwSelfRepair);
        cfg.dlt = cfg.dlt.with_window(w, rate);
        cfg
    };
    let mut spec = ExperimentSpec::new();
    for name in suite() {
        spec.push(h.cell(name, PrefetchSetup::Hw8x8));
        for w in windows {
            for rate in rates {
                spec.push(h.cell_cfg(name, sweep_cfg(w, rate)));
            }
        }
    }
    let _ = h.run(&spec);

    let mut rep = Report::new("fig7")
        .title("Figure 7: average speedup vs DLT monitoring window x miss-rate threshold")
        .key("window", 10);
    for r in rates {
        rep = rep.col(format!("{r:.0}% rate"), 9);
    }

    // Baselines per workload, shared across the sweep.
    let baselines: Vec<f64> =
        suite().iter().map(|name| h.arm(name, PrefetchSetup::Hw8x8).ipc()).collect();

    for w in windows {
        let cells: Vec<String> = rates
            .iter()
            .map(|&rate| {
                let mut speedups = Vec::new();
                for (name, base_ipc) in suite().iter().zip(&baselines) {
                    let r = h.cfg(name, &sweep_cfg(w, rate));
                    speedups.push(r.ipc() / base_ipc);
                }
                pct(geomean(&speedups))
            })
            .collect();
        rep.row(w.to_string(), cells);
    }
    rep.note("paper: a 3% miss-rate threshold over a 256-access window works best;");
    rep.note("       too-aggressive thresholds over-prefetch, too-lax ones miss loads (Fig. 7).");
    h.emit(&rep);

    // Repair effort behind the sweep: how hard the self-repairing prefetcher
    // worked to converge under each DLT setting (mean over the suite).
    let mut effort = Report::new("fig7_effort")
        .title("Figure 7 companion: repairs/group (mean cycles to converge) per DLT setting")
        .key("window", 10);
    for r in rates {
        effort = effort.col(format!("{r:.0}% rate"), 16);
    }
    for w in windows {
        let cells: Vec<String> = rates
            .iter()
            .map(|&rate| {
                let (mut rpg, mut conv) = (Vec::new(), Vec::new());
                for name in suite() {
                    let r = h.cfg(name, &sweep_cfg(w, rate));
                    rpg.push(r.repairs_per_group());
                    conv.push(r.avg_cycles_to_converge());
                }
                format!("{:.1} ({:.0}k)", mean(&rpg), mean(&conv) / 1000.0)
            })
            .collect();
        effort.row(w.to_string(), cells);
    }
    effort.note("repairs/group counts in-place distance repairs per inserted prefetch");
    effort.note("group; cycles to converge spans insertion to the last distance change.");
    h.emit(&effort);
}

/// Figure 8 and the section 5.4 area experiment: sensitivity to the
/// Delinquent Load Table size, and what the DLT's bits would buy as extra
/// L1 capacity instead.
pub fn fig8_dlt_size(h: &Harness) {
    let sizes = [256usize, 512, 1024, 2048];
    let sized_cfg = |s: usize| -> SimConfig {
        let mut cfg = h.opts.config(PrefetchSetup::SwSelfRepair);
        cfg.dlt = cfg.dlt.with_entries(s);
        cfg
    };
    // Section 5.4: invest the DLT + watch-table bits into L1 capacity.
    let bigger_l1_cfg = {
        let mut cfg = h.opts.config(PrefetchSetup::Hw8x8);
        // One extra L1 way (same set count) over-provisions the DLT's area.
        cfg.mem.l1 = CacheConfig {
            assoc: cfg.mem.l1.assoc + 1,
            size_bytes: cfg.mem.l1.size_bytes / u64::from(cfg.mem.l1.assoc)
                * u64::from(cfg.mem.l1.assoc + 1),
            ..cfg.mem.l1
        };
        cfg
    };
    let mut spec = ExperimentSpec::new();
    for name in suite() {
        spec.push(h.cell(name, PrefetchSetup::Hw8x8));
        for s in sizes {
            spec.push(h.cell_cfg(name, sized_cfg(s)));
        }
        spec.push(h.cell_cfg(name, bigger_l1_cfg.clone()));
    }
    let _ = h.run(&spec);

    let mut rep = Report::new("fig8")
        .title("Figure 8: average speedup vs DLT size (self-repairing over hw-8x8)");
    for s in sizes {
        rep = rep.col(s.to_string(), 9);
    }
    let mut per_size: Vec<Vec<f64>> = vec![Vec::new(); sizes.len()];
    for name in suite() {
        let base = h.arm(name, PrefetchSetup::Hw8x8);
        let cells: Vec<String> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let sp = h.cfg(name, &sized_cfg(s)).speedup_over(&base);
                per_size[i].push(sp);
                pct(sp)
            })
            .collect();
        rep.row(*name, cells);
    }
    rep.footer("geomean", per_size.iter().map(|col| pct(geomean(col))));

    let dlt_bits = Dlt::new(tdo_core::DltConfig::paper_baseline()).state_bits();
    let mut speedups = Vec::new();
    for name in suite() {
        let base = h.arm(name, PrefetchSetup::Hw8x8);
        let bigger = h.cfg(name, &bigger_l1_cfg);
        speedups.push(bigger.speedup_over(&base));
    }
    rep.note(format!(
        "Section 5.4: DLT+watch bits (~{} KB) reinvested as L1 capacity",
        dlt_bits / 8 / 1024
    ));
    rep.note(format!("bigger-L1 speedup over baseline (geomean): {}", pct(geomean(&speedups))));
    rep.note("");
    rep.note("paper: performance saturates around 1024 DLT entries; dot and parser");
    rep.note("       benefit most from larger tables; the same bits as L1 capacity");
    rep.note("       buy only ~0.8% (Fig. 8 and section 5.4).");
    h.emit(&rep);
}

/// Figure 9: software self-repairing prefetching vs hardware prefetching,
/// each alone, relative to a machine with no prefetching at all.
pub fn fig9_sw_vs_hw(h: &Harness) {
    const ARMS: [PrefetchSetup; 3] =
        [PrefetchSetup::NoPrefetch, PrefetchSetup::Hw8x8, PrefetchSetup::SwOnlySelfRepair];
    let mut spec = ExperimentSpec::new();
    for name in suite() {
        for arm in ARMS {
            spec.push(h.cell(name, arm));
        }
    }
    let _ = h.run(&spec);

    let mut rep = Report::new("fig9")
        .title("Figure 9: prefetching alone — software (self-repairing) vs hardware (8x8)")
        .col("hw over none", 14)
        .col("sw over none", 14);
    let (mut hw, mut sw) = (Vec::new(), Vec::new());
    for name in suite() {
        let none = h.arm(name, PrefetchSetup::NoPrefetch);
        let hw88 = h.arm(name, PrefetchSetup::Hw8x8);
        let swonly = h.arm(name, PrefetchSetup::SwOnlySelfRepair);
        let (rh, rs) = (hw88.speedup_over(&none), swonly.speedup_over(&none));
        hw.push(rh);
        sw.push(rs);
        rep.row(*name, [pct(rh), pct(rs)]);
    }
    rep.footer("geomean", [pct(geomean(&hw)), pct(geomean(&sw))]);
    rep.note("paper: software prefetching alone beats hardware alone on most");
    rep.note("       benchmarks (~11% more speedup on average), except dot, equake");
    rep.note("       and swim where coverage or short strides favour hardware (Fig. 9).");
    h.emit(&rep);
}

/// Ablation (paper section 3.5.1): self-repairing prefetching starting from
/// distance 1 versus starting from the estimated distance (eq. 2) and
/// repairing from there. The paper reports "performance almost identical" —
/// the adaptation converges so quickly that the initial value is irrelevant,
/// which justifies dropping the estimation hardware.
pub fn ablation_init_distance(h: &Harness) {
    let est_cfg = {
        let mut cfg = h.opts.config(PrefetchSetup::SwSelfRepair);
        cfg.estimated_initial = true;
        cfg
    };
    let mut spec = ExperimentSpec::new();
    for name in suite() {
        spec.push(h.cell(name, PrefetchSetup::Hw8x8));
        spec.push(h.cell(name, PrefetchSetup::SwSelfRepair));
        spec.push(h.cell_cfg(name, est_cfg.clone()));
    }
    let _ = h.run(&spec);

    let mut rep = Report::new("ablation_init_distance")
        .title("Ablation: initial prefetch distance under self-repair")
        .col("start at 1", 14)
        .col("start estimated", 16)
        .rule(43);
    let (mut one, mut est) = (Vec::new(), Vec::new());
    for name in suite() {
        let base = h.arm(name, PrefetchSetup::Hw8x8);
        let from_one = h.arm(name, PrefetchSetup::SwSelfRepair);
        let from_est = h.cfg(name, &est_cfg);
        let (a, b) = (from_one.speedup_over(&base), from_est.speedup_over(&base));
        one.push(a);
        est.push(b);
        rep.row(*name, [pct(a), pct(b)]);
    }
    rep.footer("geomean", [pct(geomean(&one)), pct(geomean(&est))]);
    rep.note("paper: the two strategies perform almost identically — the system");
    rep.note("       adapts fast enough that the initial value is irrelevant (section 3.5.1).");
    h.emit(&rep);
}

/// Ablation (paper section 3.5.2, future work): periodically clearing the
/// DLT's mature flags — and refreshing repair budgets — so loads matured
/// during one program phase can be re-tuned when behaviour changes.
///
/// On the steady-state suite the expected effect is small (the paper's
/// default only resets maturity on DLT eviction); the interesting columns
/// are the extra repair activity the clearing re-enables.
pub fn ablation_mature_clear(h: &Harness) {
    let clear_cfg = {
        let mut cfg = h.opts.config(PrefetchSetup::SwSelfRepair);
        cfg.mature_clear_interval = Some(2_000_000);
        cfg
    };
    let mut spec = ExperimentSpec::new();
    for name in suite() {
        spec.push(h.cell(name, PrefetchSetup::Hw8x8));
        spec.push(h.cell(name, PrefetchSetup::SwSelfRepair));
        spec.push(h.cell_cfg(name, clear_cfg.clone()));
    }
    let _ = h.run(&spec);

    let mut rep = Report::new("ablation_mature_clear")
        .title("Ablation: periodic mature-flag clearing (every 2M cycles)")
        .col("persist", 12)
        .col("clearing", 12)
        .col("repairs", 10)
        .col("repairs+", 10);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for name in suite() {
        let base = h.arm(name, PrefetchSetup::Hw8x8);
        let persist = h.arm(name, PrefetchSetup::SwSelfRepair);
        let clearing = h.cfg(name, &clear_cfg);
        let (ra, rb) = (persist.speedup_over(&base), clearing.speedup_over(&base));
        a.push(ra);
        b.push(rb);
        rep.row(
            *name,
            [
                pct(ra),
                pct(rb),
                persist.optimizer.repairs.to_string(),
                clearing.optimizer.repairs.to_string(),
            ],
        );
    }
    rep.footer("geomean", [pct(geomean(&a)), pct(geomean(&b))]);
    h.emit(&rep);
}

/// Ablation: hardware prefetcher generations (paper section 2.2's lineage) —
/// tagged next-line prefetching (Smith & Hsu) versus predictor-directed
/// stream buffers (Sherwood et al., the paper's baseline), versus the
/// self-repairing software prefetcher on top of the 8x8 baseline.
pub fn ablation_hw_prefetchers(h: &Harness) {
    const ARMS: [PrefetchSetup; 4] = [
        PrefetchSetup::NoPrefetch,
        PrefetchSetup::Hw4x4,
        PrefetchSetup::Hw8x8,
        PrefetchSetup::SwSelfRepair,
    ];
    let nl_cfg = {
        let mut cfg = h.opts.config(PrefetchSetup::NoPrefetch);
        cfg.mem.next_line = true;
        cfg
    };
    let mut spec = ExperimentSpec::new();
    for name in suite() {
        for arm in ARMS {
            spec.push(h.cell(name, arm));
        }
        spec.push(h.cell_cfg(name, nl_cfg.clone()));
    }
    let _ = h.run(&spec);

    let mut rep = Report::new("ablation_hw_prefetchers")
        .title("Ablation: hardware prefetcher generations (speedup over no prefetching)")
        .col("next-line", 12)
        .col("sb 4x4", 12)
        .col("sb 8x8", 12)
        .col("8x8 + sw-sr", 12)
        .rule(62);
    let mut cols: [Vec<f64>; 4] = Default::default();
    for name in suite() {
        let none = h.arm(name, PrefetchSetup::NoPrefetch);
        let nl = h.cfg(name, &nl_cfg);
        let sb44 = h.arm(name, PrefetchSetup::Hw4x4);
        let sb88 = h.arm(name, PrefetchSetup::Hw8x8);
        let sr = h.arm(name, PrefetchSetup::SwSelfRepair);
        let vals = [
            nl.speedup_over(&none),
            sb44.speedup_over(&none),
            sb88.speedup_over(&none),
            sr.speedup_over(&none),
        ];
        for (c, v) in cols.iter_mut().zip(vals) {
            c.push(v);
        }
        rep.row(*name, vals.map(pct));
    }
    rep.footer("geomean", cols.iter().map(|c| pct(geomean(c))));
    rep.note("expected shape: next-line < stream buffers < stream buffers + self-repair.");
    h.emit(&rep);
}
