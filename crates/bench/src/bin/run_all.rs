//! Runs the complete evaluation matrix — every workload under every arm —
//! through the parallel experiment engine, and emits one row per run for
//! downstream plotting or regression tracking (CSV by default; `--format`
//! selects table or JSON lines).
//!
//! ```sh
//! cargo run --release -p tdo-bench --bin run_all [--quick] [--jobs N] > results.csv
//! ```

use tdo_bench::{suite, Harness};
use tdo_sim::{ExperimentSpec, Format, PrefetchSetup, Report};

fn main() {
    let h = Harness::from_args();
    let mut spec = ExperimentSpec::new();
    for name in suite() {
        for setup in PrefetchSetup::ALL {
            spec.push(h.cell(name, setup));
        }
    }
    let _ = h.run(&spec);

    let mut rep = Report::new("run_all");
    for (header, width) in [
        ("arm", 16),
        ("cycles", 12),
        ("orig_insts", 12),
        ("ipc", 8),
        ("helper_active_frac", 18),
        ("miss_in_traces_frac", 19),
        ("miss_prefetched_frac", 20),
        ("hits", 8),
        ("hit_prefetched", 14),
        ("partial", 8),
        ("miss", 8),
        ("miss_by_prefetch", 16),
        ("traces_installed", 16),
        ("reoptimizations", 15),
        ("backouts", 8),
        ("dlt_events", 10),
        ("insertions", 10),
        ("prefetches_inserted", 19),
        ("repairs", 7),
        ("dist_up", 7),
        ("dist_down", 9),
        ("matured", 7),
        ("sw_pf_issued", 12),
        ("sw_pf_redundant", 15),
        ("sw_pf_dropped", 13),
    ] {
        rep = rep.col(header, width);
    }
    for name in suite() {
        for setup in PrefetchSetup::ALL {
            let r = h.arm(name, setup);
            let b = r.load_breakdown();
            rep.row(
                *name,
                [
                    format!("{setup:?}"),
                    r.cycles.to_string(),
                    r.orig_insts.to_string(),
                    format!("{:.5}", r.ipc()),
                    format!("{:.5}", r.helper_active_fraction()),
                    format!("{:.5}", r.miss_coverage_by_traces()),
                    format!("{:.5}", r.miss_coverage_by_prefetcher()),
                    format!("{:.5}", b[0]),
                    format!("{:.5}", b[1]),
                    format!("{:.5}", b[2]),
                    format!("{:.5}", b[3]),
                    format!("{:.5}", b[4]),
                    r.trident.traces_installed.to_string(),
                    r.trident.reoptimizations.to_string(),
                    r.trident.backouts.to_string(),
                    r.optimizer.events.to_string(),
                    r.optimizer.insertions.to_string(),
                    r.optimizer.prefetches_inserted.to_string(),
                    r.optimizer.repairs.to_string(),
                    r.optimizer.distance_up.to_string(),
                    r.optimizer.distance_down.to_string(),
                    r.optimizer.matured.to_string(),
                    r.mem.sw_prefetch_issued.to_string(),
                    r.mem.sw_prefetch_redundant.to_string(),
                    r.mem.sw_prefetch_dropped.to_string(),
                ],
            );
        }
    }
    print!("{}", rep.render(h.opts.format_or(Format::Csv)));
}
