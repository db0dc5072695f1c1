//! The parallel, memoizing experiment engine.
//!
//! Every figure and ablation of the reproduction is a set of *cells* — a
//! (workload, configuration, scale) triple simulated once. Historically each
//! harness binary re-simulated its own cells serially, re-running arms that
//! other figures had already paid for (the no-prefetch and hw-8×8 baselines
//! appear in Figures 2, 5, 8 and 9 alike). The engine replaces that with:
//!
//! * a declarative [`ExperimentSpec`] enumerating cells up front;
//! * a [`Runner`] that executes unique cells across `std::thread::scope`
//!   workers and memoizes each [`SimResult`] under the cell's 64-bit store
//!   key ([`cell_key`]), so a cell is simulated exactly once per process no
//!   matter how many figures ask for it;
//! * deterministic results: workload generation is seeded *per cell* (every
//!   generator owns a fixed-seed [`tdo_rand::Rng`]; there is no global
//!   generator state), so a cell's result is byte-identical whether it runs
//!   on one worker thread or sixteen, first or memoized.
//!
//! ```
//! use tdo_sim::{Cell, ExperimentSpec, PrefetchSetup, Runner, SimConfig};
//! use tdo_workloads::Scale;
//!
//! let mut spec = ExperimentSpec::new();
//! for arm in [PrefetchSetup::NoPrefetch, PrefetchSetup::Hw8x8] {
//!     spec.push(Cell::new("mcf", Scale::Test, SimConfig::test(arm)));
//! }
//! let runner = Runner::new(2);
//! let results = runner.run_spec(&spec);
//! assert_eq!(results.len(), 2);
//! ```

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use tdo_fault::Site;
use tdo_mem::ArmKind;
use tdo_metrics::{Counter, Histogram, Registry};
use tdo_store::{ShardedStore, Store};
use tdo_workloads::{build, Scale};

use crate::config::SimConfig;
use crate::machine::run;
use crate::persist::{self, cell_key};
use crate::result::SimResult;

/// One experiment cell: a named workload simulated under one configuration.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Workload name (must be in [`tdo_workloads::names`]).
    pub workload: String,
    /// Workload generation scale.
    pub scale: Scale,
    /// Full simulation configuration (the experimental arm).
    pub cfg: SimConfig,
}

impl Cell {
    /// Creates a cell.
    #[must_use]
    pub fn new(workload: impl Into<String>, scale: Scale, cfg: SimConfig) -> Cell {
        Cell { workload: workload.into(), scale, cfg }
    }

    /// The full rendered content of the cell, hashed into its key by
    /// [`cell_key`].
    ///
    /// Two cells with equal fingerprints run the same workload bytes under
    /// the same configuration and therefore produce the same [`SimResult`]:
    /// the debug rendering covers every `SimConfig` field, so a
    /// formatting-identical configuration is a field-identical one. Every
    /// per-cell table (memo, store, and the server's cache and
    /// single-flight map) keys by the 64-bit hash instead; the text itself
    /// is only printed, where a human reads which cell failed.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        format!("{}|{:?}|{:?}", self.workload, self.scale, self.cfg)
    }

    /// Builds the workload and runs the simulation for this cell.
    ///
    /// # Panics
    ///
    /// Panics on an unknown workload name.
    #[must_use]
    pub fn simulate(&self) -> SimResult {
        let w = build(&self.workload, self.scale)
            .unwrap_or_else(|| panic!("unknown workload `{}`", self.workload));
        run(&w, &self.cfg)
    }
}

/// A declarative batch of cells, in presentation order (duplicates allowed —
/// the runner deduplicates by [`cell_key`]).
#[derive(Clone, Debug, Default)]
pub struct ExperimentSpec {
    /// The cells to simulate.
    pub cells: Vec<Cell>,
}

impl ExperimentSpec {
    /// An empty spec.
    #[must_use]
    pub fn new() -> ExperimentSpec {
        ExperimentSpec::default()
    }

    /// Appends a cell.
    pub fn push(&mut self, cell: Cell) {
        self.cells.push(cell);
    }

    /// Appends every cell of `other`.
    pub fn extend(&mut self, other: ExperimentSpec) {
        self.cells.extend(other.cells);
    }

    /// Number of cells (including duplicates).
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the spec is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Executes cells in parallel and memoizes their results for the lifetime of
/// the runner — and, when a persistent store is attached, across processes:
/// lookups read through the in-memory cache to the store, and fresh
/// simulations write through to it, so a warm store makes repeat sweeps
/// perform zero simulations. The store is a [`ShardedStore`] whether it
/// has one shard (a plain store directory) or many (the serving tier's
/// layout); the engine never cares which.
///
/// Memo, store and fault sites all key a cell by [`cell_key`], the 64-bit
/// FNV-1a of its fingerprint: two distinct cells whose keys collide would
/// share one result, the same exposure the content-addressed store has
/// always had.
pub struct Runner {
    jobs: usize,
    cache: Mutex<HashMap<u64, Arc<SimResult>>>,
    store: Option<Arc<ShardedStore>>,
    sims: Arc<Counter>,
    store_hits: Arc<Counter>,
    store_misses: Arc<Counter>,
    /// Wall time of fresh simulations, one observation per cell.
    cell_wall_us: Arc<Histogram>,
    /// Trident event-queue totals aggregated once per unique cell (fresh
    /// or store-recalled), surfacing `TridentStats` drop counts.
    events_queued: Arc<Counter>,
    events_dropped_saturated: Arc<Counter>,
    events_dropped_duplicate: Arc<Counter>,
    /// Per-arm prefetch totals aggregated once per unique cell, indexed by
    /// [`ArmKind::index`].
    arm_issued: [Arc<Counter>; ArmKind::COUNT],
    arm_useful: [Arc<Counter>; ArmKind::COUNT],
    /// Policy-controller arm switches across every unique cell.
    arm_switches: Arc<Counter>,
    failed: Mutex<Vec<String>>,
}

impl Runner {
    /// Creates a runner with `jobs` worker threads and no persistent store;
    /// `0` means one per available hardware thread.
    #[must_use]
    pub fn new(jobs: usize) -> Runner {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            jobs
        };
        Runner {
            jobs,
            cache: Mutex::new(HashMap::new()),
            store: None,
            sims: Arc::new(Counter::new()),
            store_hits: Arc::new(Counter::new()),
            store_misses: Arc::new(Counter::new()),
            cell_wall_us: Arc::new(Histogram::new()),
            events_queued: Arc::new(Counter::new()),
            events_dropped_saturated: Arc::new(Counter::new()),
            events_dropped_duplicate: Arc::new(Counter::new()),
            arm_issued: std::array::from_fn(|_| Arc::new(Counter::new())),
            arm_useful: std::array::from_fn(|_| Arc::new(Counter::new())),
            arm_switches: Arc::new(Counter::new()),
            failed: Mutex::new(Vec::new()),
        }
    }

    /// Creates a runner backed by an explicit persistent store.
    #[must_use]
    pub fn with_store(jobs: usize, store: Arc<ShardedStore>) -> Runner {
        Runner { store: Some(store), ..Runner::new(jobs) }
    }

    /// Creates a runner over `shards` shards (`<= 1` = the root itself; see
    /// [`ShardedStore::open`]) at the default store location:
    /// `dir_override` (`--store-dir`), else the `TDO_STORE` environment
    /// variable, else `.tdo-store/`. An unopenable store degrades to a
    /// storeless runner with a warning — persistence is an accelerator,
    /// never a blocker.
    #[must_use]
    pub fn with_default_store(jobs: usize, dir_override: Option<&str>, shards: usize) -> Runner {
        let dir = Store::resolve_dir(dir_override);
        match ShardedStore::open(&dir, shards) {
            Ok(store) => Runner::with_store(jobs, Arc::new(store)),
            Err(e) => {
                tdo_obs::logline::log(
                    tdo_obs::Level::Warn,
                    "engine",
                    "cannot open result store; running without one",
                    &[("dir", &dir.display().to_string()), ("err", &e.to_string())],
                );
                Runner::new(jobs)
            }
        }
    }

    /// The configured worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The attached persistent store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<ShardedStore>> {
        self.store.as_ref()
    }

    /// Simulations actually executed by this runner (excludes memoized and
    /// store-served cells).
    #[must_use]
    pub fn sims_run(&self) -> u64 {
        self.sims.get()
    }

    /// Cells served from the persistent store.
    #[must_use]
    pub fn store_hits(&self) -> u64 {
        self.store_hits.get()
    }

    /// Cells the persistent store could not serve (absent or stale).
    #[must_use]
    pub fn store_misses(&self) -> u64 {
        self.store_misses.get()
    }

    /// Trident events queued across every unique cell this runner has
    /// produced (fresh or store-recalled).
    #[must_use]
    pub fn events_queued(&self) -> u64 {
        self.events_queued.get()
    }

    /// Trident event-queue drops across every unique cell, as
    /// `(dropped_saturated, dropped_duplicate)`.
    #[must_use]
    pub fn events_dropped(&self) -> (u64, u64) {
        (self.events_dropped_saturated.get(), self.events_dropped_duplicate.get())
    }

    /// Policy-controller arm switches across every unique cell.
    #[must_use]
    pub fn arm_switches(&self) -> u64 {
        self.arm_switches.get()
    }

    /// Snapshot of the fresh-simulation wall-time histogram.
    #[must_use]
    pub fn cell_wall_us(&self) -> tdo_metrics::HistogramSnapshot {
        self.cell_wall_us.snapshot()
    }

    /// Registers the runner's counters and histograms (and, when a store
    /// is attached, the store's) with `reg`. Call at most once per
    /// registry.
    pub fn register_metrics(&self, reg: &Registry) {
        reg.register_counter(
            "tdo_sim_sims_total",
            &[],
            "Simulations executed by this process.",
            Arc::clone(&self.sims),
        );
        reg.register_counter(
            "tdo_sim_store_hits_total",
            &[],
            "Cells served from the persistent store.",
            Arc::clone(&self.store_hits),
        );
        reg.register_counter(
            "tdo_sim_store_misses_total",
            &[],
            "Cells the persistent store could not serve.",
            Arc::clone(&self.store_misses),
        );
        reg.register_histogram(
            "tdo_sim_cell_wall_us",
            &[],
            "Wall time of fresh cell simulations.",
            Arc::clone(&self.cell_wall_us),
        );
        reg.register_counter(
            "tdo_sim_events_queued_total",
            &[],
            "Trident events queued across unique cells.",
            Arc::clone(&self.events_queued),
        );
        reg.register_counter(
            "tdo_sim_events_dropped_saturated_total",
            &[],
            "Trident events dropped at a saturated queue, across unique cells.",
            Arc::clone(&self.events_dropped_saturated),
        );
        reg.register_counter(
            "tdo_sim_events_dropped_duplicate_total",
            &[],
            "Trident events coalesced as duplicates, across unique cells.",
            Arc::clone(&self.events_dropped_duplicate),
        );
        for kind in ArmKind::ALL {
            reg.register_counter(
                "tdo_prefetch_issued_total",
                &[("arm", kind.name())],
                "Hardware prefetches issued, by prefetcher arm, across unique cells.",
                Arc::clone(&self.arm_issued[kind.index()]),
            );
            reg.register_counter(
                "tdo_prefetch_useful_total",
                &[("arm", kind.name())],
                "Hardware prefetches that serviced a demand access, by arm, across unique cells.",
                Arc::clone(&self.arm_useful[kind.index()]),
            );
        }
        reg.register_counter(
            "tdo_arm_switches_total",
            &[],
            "Policy-controller arm switches across unique cells.",
            Arc::clone(&self.arm_switches),
        );
        if let Some(store) = &self.store {
            store.register_metrics(reg);
        }
    }

    /// Folds one unique cell's Trident queue totals and per-arm prefetch
    /// totals into the registry counters. Called exactly once per distinct
    /// cell key.
    fn account_result(&self, r: &SimResult) {
        self.events_queued.add(r.trident.events_queued);
        self.events_dropped_saturated.add(r.trident.events_dropped_saturated);
        self.events_dropped_duplicate.add(r.trident.events_dropped_duplicate);
        for kind in ArmKind::ALL {
            self.arm_issued[kind.index()].add(r.mem.arm_issued[kind.index()]);
            self.arm_useful[kind.index()].add(r.mem.arm_useful[kind.index()]);
        }
        self.arm_switches.add(r.mem.arm_switches);
    }

    /// Fingerprints of cells whose simulation panicked during
    /// [`Runner::run_spec`].
    #[must_use]
    pub fn failed_cells(&self) -> Vec<String> {
        self.lock_failed().clone()
    }

    /// One-line cache/store accounting, for CI assertions and `--verbose`
    /// style footers: `store: hits=H misses=M sims=S`. `None` when no store
    /// is attached.
    #[must_use]
    pub fn store_summary(&self) -> Option<String> {
        self.store.as_ref()?;
        Some(format!(
            "store: hits={} misses={} sims={}",
            self.store_hits(),
            self.store_misses(),
            self.sims_run()
        ))
    }

    /// Number of distinct cells memoized in this process so far.
    #[must_use]
    pub fn cells_cached(&self) -> usize {
        self.lock_cache().len()
    }

    /// Locks the memo cache, recovering from poisoning: a panicking worker
    /// must not cascade into unrelated cells (they re-simulate; the map is
    /// only ever observed with complete entries).
    fn lock_cache(&self) -> MutexGuard<'_, HashMap<u64, Arc<SimResult>>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_failed(&self) -> MutexGuard<'_, Vec<String>> {
        self.failed.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Store read-through: decodes the stored result for `key`, counting
    /// the hit or miss.
    fn recall_store(&self, key: u64) -> Option<SimResult> {
        let store = self.store.as_ref()?;
        if tdo_fault::fire_keyed(Site::EngineStoreDegrade, key).is_some() {
            // Injected read-path degrade: behave exactly like a miss so the
            // cell re-simulates (persistence is an accelerator, never a
            // correctness dependency).
            self.store_misses.inc();
            return None;
        }
        let hit = store
            .get(key, persist::SCHEMA_VERSION)
            .and_then(|payload| persist::decode_result(&payload));
        let counter = if hit.is_some() { &self.store_hits } else { &self.store_misses };
        counter.inc();
        hit
    }

    /// Store write-through: persists a freshly simulated result. I/O errors
    /// only cost persistence, never the run; the warning names the cell by
    /// its full fingerprint.
    fn persist(&self, cell: &Cell, key: u64, result: &SimResult) {
        let Some(store) = self.store.as_ref() else { return };
        let err = if tdo_fault::fire_keyed(Site::EngineStoreDegrade, key).is_some() {
            // Injected write-path degrade: the result stays memo-only.
            "injected store degrade".to_string()
        } else {
            match store.put(key, persist::SCHEMA_VERSION, &persist::encode_result(result)) {
                Ok(()) => return,
                Err(e) => e.to_string(),
            }
        };
        tdo_obs::logline::log(
            tdo_obs::Level::Warn,
            "engine",
            "cannot persist cell to result store",
            &[("err", &err), ("cell", &cell.fingerprint())],
        );
    }

    /// Runs (or recalls) a single cell: memo cache, then store, then a
    /// fresh simulation (written through to the store).
    ///
    /// # Panics
    ///
    /// Panics on an unknown workload name.
    #[must_use]
    pub fn run_cell(&self, cell: &Cell) -> Arc<SimResult> {
        self.run_keyed(cell, cell_key(cell))
    }

    /// [`Runner::run_cell`] for a caller that already holds the cell's
    /// key, which must be `cell_key(cell)`: the server computes it once
    /// per request cell for its cache and single-flight map.
    ///
    /// # Panics
    ///
    /// Panics on an unknown workload name.
    #[must_use]
    pub fn run_keyed(&self, cell: &Cell, key: u64) -> Arc<SimResult> {
        let _span = tdo_obs::SpanScope::enter(tdo_obs::FlightKind::RunCell, key);
        self.resolve(cell, key)
    }

    /// The one resolve step behind [`Runner::run_keyed`] and
    /// [`Runner::run_spec`]: memo cache, then store, then a fresh
    /// simulation persisted to the store, then a memo insert. Only the
    /// insert that fills a vacant slot folds the result into the registry
    /// counters, so racing resolvers of one cell count it once.
    fn resolve(&self, cell: &Cell, key: u64) -> Arc<SimResult> {
        if let Some(r) = self.lock_cache().get(&key) {
            return Arc::clone(r);
        }
        let r = self.recall_store(key).unwrap_or_else(|| {
            let r = self.simulate_timed(cell, key);
            self.persist(cell, key, &r);
            r
        });
        match self.lock_cache().entry(key) {
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(v) => {
                self.account_result(&r);
                Arc::clone(v.insert(Arc::new(r)))
            }
        }
    }

    /// Runs one fresh simulation, counting it and timing its wall clock.
    fn simulate_timed(&self, cell: &Cell, key: u64) -> SimResult {
        if tdo_fault::fire_keyed(Site::EngineCellPanic, key).is_some() {
            panic!("injected cell panic: `{}`", cell.workload);
        }
        self.sims.inc();
        let t0 = Instant::now();
        let result = cell.simulate();
        self.cell_wall_us.observe(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
        result
    }

    /// Runs a whole spec: unique un-memoized cells execute across up to
    /// `jobs` scoped worker threads; the returned vector matches
    /// `spec.cells` element for element.
    ///
    /// A cell whose simulation panics does not cascade: the panic is caught
    /// on the worker, the cell is recorded (see [`Runner::failed_cells`]),
    /// and every other cell still completes (and persists to the store).
    ///
    /// # Panics
    ///
    /// Panics — after all other cells have completed — if any cell failed,
    /// naming the offenders.
    #[must_use]
    pub fn run_spec(&self, spec: &ExperimentSpec) -> Vec<Arc<SimResult>> {
        let keys: Vec<u64> = spec.cells.iter().map(cell_key).collect();
        // Unique cells not already memoized, in first-appearance order so a
        // serial runner (jobs=1) visits them deterministically.
        let mut pending: Vec<(&Cell, u64)> = Vec::new();
        {
            let cache = self.lock_cache();
            let mut seen = HashSet::new();
            for (cell, &key) in spec.cells.iter().zip(&keys) {
                if !cache.contains_key(&key) && seen.insert(key) {
                    pending.push((cell, key));
                }
            }
        }
        if !pending.is_empty() {
            let next = AtomicUsize::new(0);
            let workers = self.jobs.min(pending.len());
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(cell, key)) = pending.get(i) else { break };
                        let _span = tdo_obs::SpanScope::enter(tdo_obs::FlightKind::RunCell, key);
                        if let Some(token) = tdo_fault::fire_keyed(Site::EngineHelperJitter, key) {
                            // Injected helper-job delay: perturbs scheduling
                            // only; results must stay byte-identical.
                            std::thread::sleep(std::time::Duration::from_micros(token % 1_500));
                        }
                        let resolved = catch_unwind(AssertUnwindSafe(|| self.resolve(cell, key)));
                        if resolved.is_err() {
                            self.lock_failed().push(cell.fingerprint());
                        }
                    });
                }
            });
        }
        let failed = self.lock_failed();
        let cache = self.lock_cache();
        let results: Vec<Arc<SimResult>> = spec
            .cells
            .iter()
            .zip(&keys)
            .map(|(c, key)| {
                cache.get(key).cloned().unwrap_or_else(|| {
                    panic!(
                        "{} cell(s) failed to simulate (first: `{}` on workload `{}`)",
                        failed.len(),
                        failed.first().map_or("?", String::as_str),
                        c.workload
                    )
                })
            })
            .collect();
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetchSetup;

    fn quick_cell(setup: PrefetchSetup) -> Cell {
        let mut cfg = SimConfig::test(setup);
        cfg.warmup_insts = 2_000;
        cfg.measure_insts = 20_000;
        Cell::new("swim", Scale::Test, cfg)
    }

    #[test]
    fn fingerprints_separate_configs_and_workloads() {
        let a = quick_cell(PrefetchSetup::NoPrefetch);
        let b = quick_cell(PrefetchSetup::Hw8x8);
        let mut c = quick_cell(PrefetchSetup::NoPrefetch);
        c.workload = "art".into();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), quick_cell(PrefetchSetup::NoPrefetch).fingerprint());
    }

    #[test]
    fn queue_counters_deterministic_across_worker_counts() {
        // The registry counters fold in each unique cell exactly once, so
        // `--jobs 1` and `--jobs 4` must agree bit for bit — and running
        // the same spec again must add nothing (memo hits don't re-count).
        let mut spec = ExperimentSpec::new();
        for setup in [PrefetchSetup::SwSelfRepair, PrefetchSetup::SwBasic] {
            spec.push(quick_cell(setup));
        }
        let mut totals = Vec::new();
        for jobs in [1usize, 4] {
            let runner = Runner::new(jobs);
            let _ = runner.run_spec(&spec);
            let first = (runner.events_queued(), runner.events_dropped());
            let _ = runner.run_spec(&spec);
            assert_eq!(
                (runner.events_queued(), runner.events_dropped()),
                first,
                "memoized re-run must not re-count (jobs={jobs})"
            );
            assert_eq!(runner.cell_wall_us().count, 2, "one wall sample per fresh sim");
            totals.push(first);
        }
        assert_eq!(totals[0], totals[1], "queue totals independent of worker count");
    }

    #[test]
    fn duplicate_cells_simulate_once_and_share_the_result() {
        let runner = Runner::new(2);
        let mut spec = ExperimentSpec::new();
        spec.push(quick_cell(PrefetchSetup::NoPrefetch));
        spec.push(quick_cell(PrefetchSetup::NoPrefetch));
        let rs = runner.run_spec(&spec);
        assert_eq!(rs.len(), 2);
        assert!(Arc::ptr_eq(&rs[0], &rs[1]), "memoized result is shared");
        assert_eq!(runner.cells_cached(), 1);
    }
}
