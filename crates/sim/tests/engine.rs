//! Determinism and memoization guarantees of the experiment engine: a cell's
//! result is identical run-to-run, across worker counts, and whether it is
//! simulated fresh or recalled from the cell table; and the table
//! single-flights racing callers at any capacity.

use std::sync::{Arc, Barrier};

use tdo_metrics::Registry;
use tdo_sim::{
    cell_key, Cell, ExperimentSpec, PrefetchSetup, Runner, SimConfig, SimResult, TableMetrics,
};
use tdo_workloads::Scale;

/// A short but non-trivial cell (exercises the optimizer path).
fn cell(workload: &str, setup: PrefetchSetup) -> Cell {
    let mut cfg = SimConfig::test(setup);
    cfg.warmup_insts = 5_000;
    cfg.measure_insts = 45_000;
    Cell::new(workload, Scale::Test, cfg)
}

/// Full-state comparison via the debug rendering (covers every counter).
fn render(r: &SimResult) -> String {
    format!("{r:?}")
}

#[test]
fn same_cell_twice_is_identical() {
    let c = cell("mcf", PrefetchSetup::SwSelfRepair);
    assert_eq!(render(&c.simulate()), render(&c.simulate()));
}

#[test]
fn serial_and_parallel_runs_are_identical() {
    let mut spec = ExperimentSpec::new();
    for workload in ["mcf", "art", "equake"] {
        for setup in [PrefetchSetup::NoPrefetch, PrefetchSetup::Hw8x8, PrefetchSetup::SwSelfRepair]
        {
            spec.push(cell(workload, setup));
        }
    }
    let serial: Vec<String> = Runner::new(1).run_spec(&spec).iter().map(|r| render(r)).collect();
    let parallel: Vec<String> = Runner::new(4).run_spec(&spec).iter().map(|r| render(r)).collect();
    assert_eq!(serial, parallel);
}

#[test]
fn memoized_result_equals_fresh_result() {
    let c = cell("vis", PrefetchSetup::SwSelfRepair);
    let runner = Runner::new(2);
    let first = runner.run_cell(&c);
    let memoized = runner.run_cell(&c);
    assert!(Arc::ptr_eq(&first, &memoized), "second lookup is a cache hit");
    assert_eq!(render(&first), render(&c.simulate()), "cache returns what a fresh run computes");
}

#[test]
fn spec_results_match_cell_order_across_shared_arms() {
    // fig2/fig5/fig9-style sharing: the same baseline cell appears in
    // several places; every occurrence gets the same result object.
    let base = cell("gap", PrefetchSetup::Hw8x8);
    let other = cell("gap", PrefetchSetup::SwSelfRepair);
    let mut spec = ExperimentSpec::new();
    spec.push(base.clone());
    spec.push(other.clone());
    spec.push(base.clone());
    let runner = Runner::new(3);
    let rs = runner.run_spec(&spec);
    assert_eq!(rs.len(), 3);
    assert!(Arc::ptr_eq(&rs[0], &rs[2]));
    assert_eq!(runner.cells_cached(), 2, "two unique cells simulated");
    assert_ne!(render(&rs[0]), render(&rs[1]));
}

#[test]
fn racing_specs_fold_one_cell_into_the_counters_once() {
    // Two threads `run_spec` the same uncached cell at once on one runner:
    // one simulates it and the other waits on its flight, so the registry
    // counters read as for a single run, and the table holds the cell once.
    let c = cell("mcf", PrefetchSetup::SwSelfRepair);
    let single = Runner::new(1);
    let _ = single.run_cell(&c);
    // Every registry family the runner exposes but the wall-time histogram.
    let counts = |r: &Runner| {
        let reg = Registry::new();
        r.register_metrics(&reg);
        let prom = reg.render_prom();
        prom.lines().filter(|l| !l.contains("cell_wall_us")).map(str::to_owned).collect::<Vec<_>>()
    };
    assert!(single.events_queued() > 0, "the cell must queue events to count");

    let runner = Runner::new(1);
    let mut spec = ExperimentSpec::new();
    spec.push(c);
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                barrier.wait();
                let _ = runner.run_spec(&spec);
            });
        }
    });
    assert_eq!(counts(&runner), counts(&single));
    assert_eq!(runner.sims_run(), 1);
    assert_eq!(runner.cells_cached(), 1);
}

#[test]
fn run_spec_returns_every_result_past_a_capacity_that_evicts_them() {
    // At capacity 1 each resolve evicts the previous cell, so the spec's
    // results must come from the resolves themselves, not the table.
    let cells = [
        cell("swim", PrefetchSetup::NoPrefetch),
        cell("art", PrefetchSetup::Hw8x8),
        cell("mcf", PrefetchSetup::SwSelfRepair),
    ];
    let mut spec = ExperimentSpec::new();
    for c in &cells {
        spec.push(c.clone());
    }
    spec.push(cells[0].clone());
    let runner = Runner::new(2).with_table(1, TableMetrics::default());
    let rs = runner.run_spec(&spec);
    let want: Vec<String> = cells.iter().map(|c| render(&c.simulate())).collect();
    let got: Vec<String> = rs.iter().map(|r| render(r)).collect();
    assert_eq!(got[..3], want[..], "results in spec order");
    assert!(Arc::ptr_eq(&rs[0], &rs[3]), "duplicate cells share one result");
    assert_eq!(runner.sims_run(), 3);
    assert_eq!(runner.cells_cached(), 1);
}

#[test]
fn racing_callers_of_a_failing_cell_all_fail_and_leave_no_slot() {
    let bad = cell("no-such-workload", PrefetchSetup::NoPrefetch);
    let key = cell_key(&bad);
    let table = TableMetrics::default();
    let runner = Runner::new(1).with_table(usize::MAX, table.clone());
    let barrier = Barrier::new(4);
    std::thread::scope(|s| {
        let callers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    runner.resolve(&bad, key)
                })
            })
            .collect();
        for c in callers {
            let outcome = c.join().expect("resolve returns its panic as an error");
            let err = outcome.expect_err("every caller sees the failure");
            assert!(err.contains("no-such-workload"), "{err}");
        }
    });
    assert_eq!(table.flights_started.get(), table.flights_finished.get(), "no flight left open");
    assert_eq!(runner.cells_cached(), 0);
    // With no slot left behind, a retry leads a fresh flight and fails
    // again instead of waiting forever, and a good cell resolves normally.
    assert!(runner.resolve(&bad, key).is_err());
    let good = cell("mcf", PrefetchSetup::NoPrefetch);
    let r = runner.run_cell(&good);
    assert_eq!(render(&r), render(&good.simulate()));
    assert_eq!(runner.cells_cached(), 1);
}
