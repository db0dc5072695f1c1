//! Engine ↔ store integration: a warm store makes a fresh `Runner` perform
//! zero simulations, and a panicking cell neither cascades nor poisons the
//! caches.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tdo_sim::{Cell, ExperimentSpec, PrefetchSetup, Runner, SimConfig, TableMetrics};
use tdo_store::ShardedStore;
use tdo_workloads::Scale;

/// A unique scratch directory per test, removed on drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> TestDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tdo-sim-store-test-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        TestDir(dir)
    }

    /// A fresh handle on the unsharded store in this directory. A store
    /// locks its directory, so any earlier handle must be dropped first.
    fn store(&self) -> Arc<ShardedStore> {
        Arc::new(ShardedStore::open(&self.0, 1).unwrap())
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn quick_cell(workload: &str, setup: PrefetchSetup) -> Cell {
    let mut cfg = SimConfig::test(setup);
    cfg.warmup_insts = 2_000;
    cfg.measure_insts = 20_000;
    Cell::new(workload, Scale::Test, cfg)
}

fn quick_spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new();
    for workload in ["mcf", "swim"] {
        for setup in [PrefetchSetup::NoPrefetch, PrefetchSetup::SwSelfRepair] {
            spec.push(quick_cell(workload, setup));
        }
    }
    spec
}

/// The headline acceptance property: the second `Runner` over the same
/// store directory simulates nothing and reproduces the cold results
/// exactly.
#[test]
fn second_runner_over_a_warm_store_performs_zero_simulations() {
    let dir = TestDir::new("warm");
    let spec = quick_spec();

    let cold = Runner::with_store(2, dir.store());
    let cold_results = cold.run_spec(&spec);
    assert_eq!(cold.sims_run(), 4, "four unique cells simulate cold");
    assert_eq!(cold.store_hits(), 0);
    assert_eq!(cold.store_misses(), 4);
    assert_eq!(cold.store_summary().as_deref(), Some("store: hits=0 misses=4 sims=4"));

    // A brand-new runner (fresh memo cache, fresh process in spirit) over
    // the same directory, once the cold one has let go of it.
    drop(cold);
    let warm = Runner::with_store(2, dir.store());
    let warm_results = warm.run_spec(&spec);
    assert_eq!(warm.sims_run(), 0, "warm store serves every cell");
    assert_eq!(warm.store_hits(), 4);
    assert_eq!(warm.store_misses(), 0);
    assert_eq!(warm.store_summary().as_deref(), Some("store: hits=4 misses=0 sims=0"));

    assert_eq!(cold_results.len(), warm_results.len());
    for (c, w) in cold_results.iter().zip(&warm_results) {
        assert_eq!(format!("{c:?}"), format!("{w:?}"), "store round-trip is lossless");
    }
}

/// `run_cell` singly: miss then write-through, then a fresh runner hits.
#[test]
fn run_cell_reads_through_and_writes_through() {
    let dir = TestDir::new("cell");
    let cell = quick_cell("art", PrefetchSetup::Hw8x8);

    let first = Runner::with_store(1, dir.store());
    let a = first.run_cell(&cell);
    assert_eq!((first.sims_run(), first.store_hits(), first.store_misses()), (1, 0, 1));
    // Second ask in the same process is a memo hit, not a store hit.
    let b = first.run_cell(&cell);
    assert!(Arc::ptr_eq(&a, &b));
    assert_eq!((first.sims_run(), first.store_hits(), first.store_misses()), (1, 0, 1));

    drop(first);
    let second = Runner::with_store(1, dir.store());
    let c = second.run_cell(&cell);
    assert_eq!((second.sims_run(), second.store_hits(), second.store_misses()), (0, 1, 0));
    assert_eq!(format!("{a:?}"), format!("{c:?}"));
}

/// A bounded table evicts the least recently used result, and a later
/// resolve of that cell reads it back from the store, not the simulator.
#[test]
fn an_evicted_cell_is_read_back_from_the_store() {
    let dir = TestDir::new("evict");
    let runner = Runner::with_store(1, dir.store()).with_table(2, TableMetrics::default());
    let [a, b, c] = ["mcf", "swim", "art"].map(|w| quick_cell(w, PrefetchSetup::NoPrefetch));
    let first = runner.run_cell(&a);
    let _ = runner.run_cell(&b);
    let _ = runner.run_cell(&c);
    assert_eq!(runner.cells_cached(), 2);
    assert_eq!((runner.sims_run(), runner.store_hits()), (3, 0));

    let again = runner.run_cell(&a);
    assert_eq!((runner.sims_run(), runner.store_hits()), (3, 1), "one store hit, no simulation");
    assert_eq!(format!("{first:?}"), format!("{again:?}"));
    assert_eq!(runner.cells_cached(), 2);
}

/// A storeless runner reports no summary and counts only simulations.
#[test]
fn storeless_runner_has_no_summary() {
    let runner = Runner::new(1);
    let _ = runner.run_cell(&quick_cell("mcf", PrefetchSetup::NoPrefetch));
    assert_eq!(runner.store_summary(), None);
    assert_eq!((runner.sims_run(), runner.store_hits(), runner.store_misses()), (1, 0, 0));
}

/// Satellite robustness fix: one panicking cell must not cascade into the
/// others, wedge the runner's mutexes, or block later use of the runner.
#[test]
fn a_panicking_cell_does_not_cascade_or_poison_the_runner() {
    let dir = TestDir::new("panic");
    let runner = Runner::with_store(2, dir.store());

    let good = quick_cell("mcf", PrefetchSetup::NoPrefetch);
    let bad = quick_cell("no-such-workload", PrefetchSetup::NoPrefetch);
    let mut spec = ExperimentSpec::new();
    spec.push(good.clone());
    spec.push(bad.clone());

    // The panic is reported (after all other cells completed) ...
    let outcome = catch_unwind(AssertUnwindSafe(|| runner.run_spec(&spec)));
    assert!(outcome.is_err(), "a failed cell is reported, not swallowed");

    // ... the failure is attributed to the right cell ...
    assert_eq!(runner.failed_cells(), vec![bad.fingerprint()]);

    // ... the good cell completed, simulated exactly once and persisted ...
    assert_eq!(runner.cells_cached(), 1);
    assert_eq!(runner.sims_run(), 2, "both cells were attempted");

    // ... and the runner remains fully usable (no poisoned mutexes).
    let r = runner.run_cell(&good);
    assert!(r.cycles > 0);
    assert_eq!(runner.sims_run(), 2, "good cell is served from the memo cache");

    // The good result survived to disk despite its sibling's panic.
    drop(runner);
    let fresh = Runner::with_store(1, dir.store());
    let _ = fresh.run_cell(&good);
    assert_eq!((fresh.sims_run(), fresh.store_hits()), (0, 1));
}
