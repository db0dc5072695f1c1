//! Regression: a persistent-store write failure mid-run must degrade the
//! runner to memo-only operation — the spec completes, `failed_cells`
//! stays empty, no mutex is poisoned, and every result is byte-identical
//! to a clean run's. Persistence is an accelerator, never a correctness
//! dependency.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tdo_fault::{arm, FaultPlan, Site};
use tdo_sim::{Cell, ExperimentSpec, PrefetchSetup, Runner, SimConfig, SimResult};
use tdo_store::ShardedStore;
use tdo_workloads::Scale;

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        let dir = std::env::temp_dir().join(format!("tdo-degrade-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new();
    for setup in [PrefetchSetup::NoPrefetch, PrefetchSetup::SwSelfRepair] {
        let mut cfg = SimConfig::test(setup);
        cfg.warmup_insts = 2_000;
        cfg.measure_insts = 4_000;
        spec.push(Cell::new("mcf", Scale::Test, cfg));
    }
    spec
}

fn digests(results: &[Arc<SimResult>]) -> Vec<String> {
    results.iter().map(|r| format!("{r:?}")).collect()
}

#[test]
fn store_write_failures_degrade_the_run_to_memo_only() {
    let spec = spec();
    // Clean storeless baseline (all-off plan: holds the plane gate so a
    // concurrent armed test cannot contaminate this phase).
    let baseline = {
        let _quiet = arm(FaultPlan::new(0));
        digests(&Runner::new(1).run_spec(&spec))
    };

    let dir = TempDir::new();
    let store = Arc::new(ShardedStore::open(dir.path(), 1).expect("open scratch store"));
    let runner = Runner::with_store(1, Arc::clone(&store));
    {
        let guard = arm(FaultPlan::new(4)
            .with_prob(Site::StoreShortWrite, 1000)
            .with_prob(Site::StoreFsyncFail, 1000));
        let results = digests(&runner.run_spec(&spec));
        assert_eq!(results, baseline, "write failures must not change a single result byte");
        assert!(
            runner.failed_cells().is_empty(),
            "a persistence failure is not a cell failure: {:?}",
            runner.failed_cells()
        );
        let fires: u64 = guard.summary().iter().map(|r| r.fires).sum();
        assert!(fires > 0, "every put must have been failed by the plane");
    }

    // Disarmed: the runner's memo still serves (no re-simulation drift), no
    // mutex was poisoned, and nothing leaked into the store.
    let _quiet = arm(FaultPlan::new(0));
    assert_eq!(digests(&runner.run_spec(&spec)), baseline);
    assert!(runner.failed_cells().is_empty());
    assert_eq!(store.stats().live_records, 0, "every persist was failed, so the store is empty");

    // A fresh runner over the same (healthy again) store re-simulates,
    // persists, and reproduces the baseline.
    let fresh = Runner::with_store(1, Arc::clone(&store));
    assert_eq!(digests(&fresh.run_spec(&spec)), baseline);
    assert_eq!(store.stats().live_records, 2, "write-through works again once disarmed");
}
