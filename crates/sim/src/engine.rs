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
//!   workers and keeps each [`SimResult`] in one cell table under the
//!   cell's 64-bit store key ([`cell_key`]), single-flighting concurrent
//!   callers, so a cell is simulated exactly once per process no matter how
//!   many figures or threads ask for it;
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

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use tdo_fault::Site;
use tdo_mem::ArmKind;
use tdo_metrics::{Counter, Gauge, Histogram, Registry};
use tdo_obs::{span, FlightKind, SpanScope};
use tdo_store::{ShardedStore, Store};
use tdo_workloads::{build, Scale};

use crate::config::SimConfig;
use crate::lru::Lru;
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
    /// formatting-identical configuration is a field-identical one. Both
    /// per-cell tables (the runner's cell table and the store) key by the
    /// 64-bit hash instead; the text itself is only printed, where a human
    /// reads which cell failed.
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

/// Executes cells in parallel and keeps their results in one cell table
/// for the lifetime of the runner — and, when a persistent store is
/// attached, across processes: lookups read through the table to the
/// store, and fresh simulations write through to it, so a warm store makes
/// repeat sweeps perform zero simulations. The store is a [`ShardedStore`]
/// whether it has one shard (a plain store directory) or many (the serving
/// tier's layout); the engine never cares which.
///
/// The table maps a cell key, under one lock, to a finished result or to
/// the flight resolving it, which concurrent callers for that key join, so
/// racing callers simulate a cell once. Finished results beyond the
/// capacity ([`Runner::with_table`]; unbounded by default) are evicted
/// least recently used first; flights never are.
///
/// Table, store and fault sites all key a cell by [`cell_key`], the 64-bit
/// FNV-1a of its fingerprint: two distinct cells whose keys collide would
/// share one result, the same exposure the content-addressed store has
/// always had.
pub struct Runner {
    jobs: usize,
    table: Mutex<CellTable>,
    table_metrics: TableMetrics,
    store: Option<Arc<ShardedStore>>,
    sims: Arc<Counter>,
    store_hits: Arc<Counter>,
    store_misses: Arc<Counter>,
    /// Wall time of fresh simulations, one observation per cell.
    cell_wall_us: Arc<Histogram>,
    /// Trident event-queue totals aggregated once per table fill (fresh or
    /// store-recalled), surfacing `TridentStats` drop counts.
    events_queued: Arc<Counter>,
    events_dropped_saturated: Arc<Counter>,
    events_dropped_duplicate: Arc<Counter>,
    /// Per-arm prefetch totals aggregated once per table fill, indexed by
    /// [`ArmKind::index`].
    arm_issued: [Arc<Counter>; ArmKind::COUNT],
    arm_useful: [Arc<Counter>; ArmKind::COUNT],
    /// Policy-controller arm switches across every table fill.
    arm_switches: Arc<Counter>,
    failed: Mutex<Vec<String>>,
}

/// The runner's cell table. A key is in at most one of its two maps.
struct CellTable {
    /// Finished results, least recently used evicted first; `None` at
    /// capacity 0, which keeps none.
    ready: Option<Lru<u64, Arc<SimResult>>>,
    /// Resolves in flight. Never evicted: there is at most one per thread
    /// that is resolving.
    flights: HashMap<u64, Arc<Flight>>,
}

impl CellTable {
    fn new(capacity: usize) -> CellTable {
        CellTable { ready: (capacity > 0).then(|| Lru::new(capacity)), flights: HashMap::new() }
    }

    /// The finished result for `key`, marked most recently used.
    fn get(&mut self, key: u64) -> Option<Arc<SimResult>> {
        self.ready.as_mut()?.get(&key)
    }
}

/// One resolve in flight: its leader publishes the outcome here and every
/// follower waits for it. The leader's trace id links a follower's flight
/// records to the request that actually resolved the cell.
struct Flight {
    done: Mutex<Option<Result<Arc<SimResult>, String>>>,
    cv: Condvar,
    leader_trace: u64,
}

/// The counters a runner's cell table updates. A caller that exposes them
/// passes in its own handles ([`Runner::with_table`]); the serving daemon
/// registers them under its `tdo_server_*` families.
#[derive(Clone, Default)]
pub struct TableMetrics {
    /// Cells answered from a finished result.
    pub hits: Arc<Counter>,
    /// Resolves that led or joined a flight.
    pub misses: Arc<Counter>,
    /// Finished results evicted beyond capacity.
    pub evictions: Arc<Counter>,
    /// Finished results held right now.
    pub entries: Arc<Gauge>,
    /// Flights led, counted before the leader's store read or simulation.
    pub flights_started: Arc<Counter>,
    /// Flights whose leader has published its outcome.
    pub flights_finished: Arc<Counter>,
    /// Resolves that joined another caller's flight.
    pub joined: Arc<Counter>,
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
            table: Mutex::new(CellTable::new(usize::MAX)),
            table_metrics: TableMetrics::default(),
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

    /// Caps the finished results the cell table keeps at `capacity` cells,
    /// evicting the least recently used beyond it, and has the table
    /// update `metrics`. `0` keeps none: concurrent callers still share
    /// one flight, but a repeat reads the store, or re-simulates without
    /// one. The daemon caps its table at `--cache`; the CLI and bench
    /// runners stay unbounded.
    #[must_use]
    pub fn with_table(self, capacity: usize, metrics: TableMetrics) -> Runner {
        Runner { table: Mutex::new(CellTable::new(capacity)), table_metrics: metrics, ..self }
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

    /// Simulations actually executed by this runner (excludes cells served
    /// from the cell table or the store).
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

    /// Trident events queued across every table fill (fresh or
    /// store-recalled): once per distinct cell for an unbounded runner.
    #[must_use]
    pub fn events_queued(&self) -> u64 {
        self.events_queued.get()
    }

    /// Trident event-queue drops across every table fill, as
    /// `(dropped_saturated, dropped_duplicate)`.
    #[must_use]
    pub fn events_dropped(&self) -> (u64, u64) {
        (self.events_dropped_saturated.get(), self.events_dropped_duplicate.get())
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

    /// Folds one cell's Trident queue totals and per-arm prefetch totals
    /// into the registry counters. Called once per table fill: a cell
    /// evicted and filled again folds again.
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

    /// Finished results the cell table holds right now: every distinct
    /// cell resolved so far for an unbounded runner, at most the capacity
    /// otherwise.
    #[must_use]
    pub fn cells_cached(&self) -> usize {
        self.lock_table().ready.as_ref().map_or(0, Lru::len)
    }

    /// Locks the cell table, recovering from poisoning: a panicking worker
    /// must not cascade into unrelated cells (no simulation runs under the
    /// lock, and the table is only ever observed with complete entries).
    fn lock_table(&self) -> MutexGuard<'_, CellTable> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
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

    /// Runs (or recalls) a single cell through [`Runner::resolve`].
    ///
    /// # Panics
    ///
    /// Panics if the simulation panics (e.g. on an unknown workload name).
    #[must_use]
    pub fn run_cell(&self, cell: &Cell) -> Arc<SimResult> {
        self.resolve(cell, cell_key(cell)).map(|(r, _)| r).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The finished result of every key, each marked most recently used,
    /// or `None` if any key has none. Counts the hits only when every key
    /// hits: the server's accept thread answers a whole request from here
    /// or queues it whole.
    pub fn lookup(&self, keys: impl IntoIterator<Item = u64>) -> Option<Vec<Arc<SimResult>>> {
        let results = {
            let mut table = self.lock_table();
            keys.into_iter().map(|key| table.get(key)).collect::<Option<Vec<_>>>()?
        };
        self.table_metrics.hits.add(results.len() as u64);
        Some(results)
    }

    /// The one resolve step behind [`Runner::run_cell`],
    /// [`Runner::run_spec`] and the server (`key` must be `cell_key(cell)`):
    /// a finished result, else a flight. The first caller for the key leads
    /// it (the store, else a fresh simulation written through to it),
    /// fills the table and folds the result into the registry counters;
    /// concurrent callers join it and wait. Returns the result and whether
    /// this call joined another caller's flight.
    ///
    /// # Errors
    ///
    /// The flight's simulation panicked. Its leader leaves no slot behind,
    /// so a later call retries.
    pub fn resolve(&self, cell: &Cell, key: u64) -> Result<(Arc<SimResult>, bool), String> {
        let t = &self.table_metrics;
        let (flight, leader) = {
            let mut table = self.lock_table();
            if let Some(r) = table.get(key) {
                t.hits.inc();
                return Ok((r, false));
            }
            t.misses.inc();
            match table.flights.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight {
                        done: Mutex::new(None),
                        cv: Condvar::new(),
                        leader_trace: span::current().trace,
                    });
                    table.flights.insert(key, Arc::clone(&f));
                    t.flights_started.inc();
                    (f, true)
                }
            }
        };
        if !leader {
            t.joined.inc();
            // Links this follower to the leader's trace, so the two
            // requests can be joined in a flight dump.
            span::point(FlightKind::Coalesce, flight.leader_trace);
            let mut done = flight.done.lock().unwrap_or_else(PoisonError::into_inner);
            while done.is_none() {
                done = flight.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
            }
            return done.clone().expect("the wait ends on a published outcome").map(|r| (r, true));
        }
        let result = {
            let _span = SpanScope::enter(FlightKind::RunCell, key);
            catch_unwind(AssertUnwindSafe(|| {
                self.recall_store(key).unwrap_or_else(|| {
                    let r = self.simulate_timed(cell, key);
                    self.persist(cell, key, &r);
                    r
                })
            }))
            .map(Arc::new)
            .map_err(|_| format!("simulation panicked for workload `{}`", cell.workload))
        };
        let mut table = self.lock_table();
        table.flights.remove(&key);
        if let Ok(r) = &result {
            self.account_result(r);
            if let Some(ready) = table.ready.as_mut() {
                t.evictions.add(u64::from(ready.put(key, Arc::clone(r)).is_some()));
                t.entries.set(ready.len() as u64);
            }
        }
        drop(table);
        *flight.done.lock().unwrap_or_else(PoisonError::into_inner) = Some(result.clone());
        flight.cv.notify_all();
        t.flights_finished.inc();
        result.map(|r| (r, false))
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

    /// Runs a whole spec: its unique cells resolve across up to `jobs`
    /// scoped worker threads; the returned vector matches `spec.cells`
    /// element for element, duplicate cells sharing one result.
    ///
    /// A cell whose simulation panics does not cascade: the cell is
    /// recorded (see [`Runner::failed_cells`]), and every other cell still
    /// completes (and persists to the store).
    ///
    /// # Panics
    ///
    /// Panics — after all other cells have completed — if any cell failed,
    /// naming the offenders.
    #[must_use]
    pub fn run_spec(&self, spec: &ExperimentSpec) -> Vec<Arc<SimResult>> {
        // Unique cells in first-appearance order, so a serial runner
        // (jobs=1) visits them deterministically; `slots[i]` is spec cell
        // i's index among them.
        let mut unique: Vec<(&Cell, u64)> = Vec::new();
        let mut seen: HashMap<u64, usize> = HashMap::new();
        let slots: Vec<usize> = spec
            .cells
            .iter()
            .map(|cell| {
                let key = cell_key(cell);
                *seen.entry(key).or_insert_with(|| {
                    unique.push((cell, key));
                    unique.len() - 1
                })
            })
            .collect();
        // Each result as its own resolve returned it: a bounded table may
        // evict it again before the spec completes.
        let resolved: Vec<OnceLock<Arc<SimResult>>> =
            unique.iter().map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..self.jobs.min(unique.len()) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(cell, key)) = unique.get(i) else { break };
                    if let Some(token) = tdo_fault::fire_keyed(Site::EngineHelperJitter, key) {
                        // Injected helper-job delay: perturbs scheduling
                        // only; results must stay byte-identical.
                        std::thread::sleep(std::time::Duration::from_micros(token % 1_500));
                    }
                    match self.resolve(cell, key) {
                        Ok((r, _)) => _ = resolved[i].set(r),
                        Err(_) => self.lock_failed().push(cell.fingerprint()),
                    }
                });
            }
        });
        let failed = self.lock_failed();
        spec.cells
            .iter()
            .zip(slots)
            .map(|(c, i)| {
                resolved[i].get().cloned().unwrap_or_else(|| {
                    panic!(
                        "{} cell(s) failed to simulate (first: `{}` on workload `{}`)",
                        failed.len(),
                        failed.first().map_or("?", String::as_str),
                        c.workload
                    )
                })
            })
            .collect()
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
            assert_eq!(runner.cell_wall_us.snapshot().count, 2, "one wall sample per fresh sim");
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
