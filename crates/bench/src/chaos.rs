//! `tdo chaos` — the seeded crash-recovery chaos harness.
//!
//! Arms the `tdo-fault` plane with schedules derived from one seed and
//! drives the store, the experiment engine and the serving daemon through
//! them, asserting the standing robustness invariants:
//!
//! * **No acknowledged record is ever lost.** Every `put` that returned
//!   `Ok` survives a kill (drop) and restart (reopen) of the store, at
//!   every injection point of the write path.
//! * **Corruption quarantines, never poisons.** A flipped bit on the read
//!   path yields `None` (and a quarantined record), never garbage data,
//!   and the store recovers its good prefix.
//! * **Reports are byte-identical** between a faulted-then-retried run and
//!   a clean run, and across `--jobs` values.
//! * **The server never deadlocks**: `/health` keeps answering under the
//!   fault barrage, the worker pool survives injected panics, and graceful
//!   shutdown completes.
//!
//! The whole run is serial-deterministic: every number in the report is a
//! pure function of `(seed, quick, jobs)`, so a failing sweep reproduces
//! exactly from the seed it prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tdo_fault::{arm, arm_with_registry, ArmGuard, FaultPlan, Site};
use tdo_metrics::Registry;
use tdo_obs::json::{self, Value};
use tdo_rand::{fnv1a64, Rng};
use tdo_server::{client, Server, ServerConfig};
use tdo_sim::{Cell, ExperimentSpec, Runner, SimConfig, SimResult};
use tdo_store::{ShardedStore, Store};
use tdo_workloads::{names, Scale};

use crate::loadgen::normalize_response;

/// Options for one `tdo chaos` invocation.
#[derive(Clone, Debug)]
pub struct ChaosOpts {
    /// Seed every fault schedule derives from.
    pub seed: u64,
    /// Smaller sweeps for CI.
    pub quick: bool,
    /// Engine worker threads for the parallel determinism check.
    pub jobs: usize,
    /// Write the coverage summary here as well (CI artifact).
    pub summary_out: Option<String>,
    /// Write the attribution scenario's flight dump here (and its captured
    /// structured log as `<path>.log`) — the CI chaos artifact.
    pub flight_out: Option<String>,
}

impl Default for ChaosOpts {
    fn default() -> ChaosOpts {
        ChaosOpts { seed: 1, quick: false, jobs: 2, summary_out: None, flight_out: None }
    }
}

/// Everything one chaos run produced.
pub struct ChaosOutcome {
    /// The deterministic stdout report (coverage included).
    pub report: String,
    /// The coverage summary alone (what `--summary-out` writes).
    pub coverage_text: String,
    /// Invariant violations; empty means the run passed.
    pub violations: Vec<String>,
    /// The attribution scenario's flight-recorder dump (flight JSONL).
    pub flight_dump: String,
    /// The structured log lines the attribution scenario emitted.
    pub flight_log: String,
}

impl ChaosOutcome {
    /// Whether every invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Aggregated per-site coverage across every scenario of a run.
#[derive(Default)]
struct Coverage {
    per_site: BTreeMap<&'static str, (u64, u64)>,
}

impl Coverage {
    fn absorb(&mut self, guard: &ArmGuard) {
        for row in guard.summary() {
            let slot = self.per_site.entry(row.site.name()).or_insert((0, 0));
            slot.0 += row.hits;
            slot.1 += row.fires;
        }
    }

    fn render(&self) -> String {
        let mut out = String::from("coverage:\n");
        for site in Site::ALL {
            let (hits, fires) = self.per_site.get(site.name()).copied().unwrap_or((0, 0));
            let _ = writeln!(out, "  site={} hits={hits} fires={fires}", site.name());
        }
        out
    }
}

/// A unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tdo-chaos-{}-{tag}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Serializes whole chaos runs in one process: a concurrent run's armed
/// sections would otherwise inject faults into this run's clean phases.
fn run_gate() -> MutexGuard<'static, ()> {
    static GATE: std::sync::OnceLock<Mutex<()>> = std::sync::OnceLock::new();
    GATE.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(PoisonError::into_inner)
}

/// Deterministic payload for a sweep key.
fn payload_for(seed: u64, key: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let len = 4 + (rng.next_u64() % 21) as usize;
    (0..len).map(|_| rng.next_u64()).collect()
}

const SCHEMA: u32 = 7;

/// Runs the whole harness. Every byte of the returned report is a pure
/// function of `opts` (seed, quick, jobs).
#[must_use]
pub fn run(opts: &ChaosOpts) -> ChaosOutcome {
    let _serial = run_gate();
    let mut violations: Vec<String> = Vec::new();
    let mut coverage = Coverage::default();
    let mut report =
        format!("chaos: seed={} quick={} jobs={}\n", opts.seed, u8::from(opts.quick), opts.jobs);

    report.push_str(&store_write_sweep(opts, &mut violations, &mut coverage));
    report.push_str(&store_corrupt_sweep(opts, &mut violations, &mut coverage));
    report.push_str(&kill_restart_sweep(opts, &mut violations, &mut coverage));
    report.push_str(&engine_chaos(opts, &mut violations, &mut coverage));
    report.push_str(&server_chaos(opts, &mut violations, &mut coverage));
    report.push_str(&sharded_serving(opts, &mut violations, &mut coverage));
    // Last, so its recorder reset erases only the scenarios above.
    let (flight_report, flight_dump, flight_log) =
        flight_attribution(opts, &mut violations, &mut coverage);
    report.push_str(&flight_report);

    let coverage_text = coverage.render();
    report.push_str(&coverage_text);
    if violations.is_empty() {
        report.push_str("result: PASS (0 invariant violations)\n");
    } else {
        let _ = writeln!(report, "result: FAIL ({} invariant violations)", violations.len());
        for v in &violations {
            let _ = writeln!(report, "  violation: {v}");
        }
    }
    ChaosOutcome { report, coverage_text, violations, flight_dump, flight_log }
}

/// Scenario 1: probabilistic faults on every store write path: the append
/// sites under the puts, the rename sites under the log rewrites of the
/// compactions that follow. Acknowledged records must survive in-process
/// reads and a kill-and-restart; fired injections must show up in the
/// metrics registry.
fn store_write_sweep(opts: &ChaosOpts, violations: &mut Vec<String>, cov: &mut Coverage) -> String {
    let dir = TempDir::new("write-sweep");
    let puts: u64 = if opts.quick { 48 } else { 160 };
    let compactions: u64 = if opts.quick { 12 } else { 40 };
    let store = Store::open(dir.path()).expect("open scratch store");
    let reg = Registry::new();
    let mut acked: Vec<u64> = Vec::new();
    let mut failed = 0u64;
    let mut gc_failed = 0u64;
    let write_fires;
    {
        let guard = arm_with_registry(
            FaultPlan::new(opts.seed)
                .with_prob(Site::StoreShortWrite, 110)
                .with_prob(Site::StoreFsyncFail, 90)
                .with_prob(Site::StoreRenameFail, 90)
                .with_prob(Site::StoreTornRename, 90),
            &reg,
        );
        for key in 1..=puts {
            match store.put(key, SCHEMA, &payload_for(opts.seed, key)) {
                Ok(()) => acked.push(key),
                Err(_) => failed += 1,
            }
        }
        for _ in 0..compactions {
            gc_failed += u64::from(store.gc(SCHEMA).is_err());
        }
        // In-process: every acknowledged record reads back exactly.
        for &key in &acked {
            if store.get(key, SCHEMA).as_deref() != Some(&payload_for(opts.seed, key)[..]) {
                violations.push(format!("write-sweep: acked key {key} unreadable in-process"));
            }
        }
        write_fires = guard
            .summary()
            .iter()
            .filter(|r| {
                matches!(
                    r.site,
                    Site::StoreShortWrite
                        | Site::StoreFsyncFail
                        | Site::StoreRenameFail
                        | Site::StoreTornRename
                )
            })
            .map(|r| r.fires)
            .sum();
        cov.absorb(&guard);
    }
    // Kill and restart: recovery must preserve every acknowledged record.
    drop(store);
    let reopened = Store::open(dir.path()).expect("reopen after sweep");
    let mut lost = 0u64;
    for &key in &acked {
        if reopened.get(key, SCHEMA).as_deref() != Some(&payload_for(opts.seed, key)[..]) {
            lost += 1;
            violations.push(format!("write-sweep: acked key {key} lost across restart"));
        }
    }
    let verify = reopened.verify().expect("verify reopened log");
    if !verify.is_clean() {
        violations.push(format!(
            "write-sweep: reopened log not clean (corrupt={} garbage={})",
            verify.corrupt, verify.trailing_garbage_bytes
        ));
    }
    // The injected faults are visible in the Prometheus exposition.
    let prom = reg.render_prom();
    let metrics_ok = prom.contains("tdo_fault_injected_total{site=");
    let counted: u64 = prom
        .lines()
        .filter(|l| l.starts_with("tdo_fault_injected_total{"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    if !metrics_ok || counted != write_fires {
        violations.push(format!(
            "write-sweep: fault metrics mismatch (family_present={metrics_ok} \
             counted={counted} fired={write_fires})"
        ));
    }
    format!(
        "[store-write-sweep] puts={puts} acked={} failed={failed} compactions={compactions} \
         gc-failed={gc_failed} fires={write_fires} lost={lost} clean={} metrics-ok={}\n",
        acked.len(),
        u8::from(verify.is_clean()),
        u8::from(metrics_ok && counted == write_fires),
    )
}

/// Scenario 2: bit rot on the read path. A corrupted read must return
/// `None` and quarantine the record — never serve garbage — and the store
/// must stay consistent for the surviving records.
fn store_corrupt_sweep(
    opts: &ChaosOpts,
    violations: &mut Vec<String>,
    cov: &mut Coverage,
) -> String {
    let dir = TempDir::new("corrupt-sweep");
    let keys: u64 = if opts.quick { 32 } else { 96 };
    let store = Store::open(dir.path()).expect("open scratch store");
    for key in 1..=keys {
        store.put(key, SCHEMA, &payload_for(opts.seed, key)).expect("clean put");
    }
    let mut served = 0u64;
    let mut quarantined = 0u64;
    {
        let guard = arm(FaultPlan::new(opts.seed ^ 0xC0).with_prob(Site::StoreReadCorrupt, 350));
        for key in 1..=keys {
            match store.get(key, SCHEMA) {
                Some(p) if p == payload_for(opts.seed, key) => served += 1,
                Some(_) => {
                    violations.push(format!("corrupt-sweep: key {key} served garbage data"));
                }
                None => quarantined += 1,
            }
        }
        cov.absorb(&guard);
    }
    if store.stats().quarantined != quarantined {
        violations.push(format!(
            "corrupt-sweep: quarantine accounting off (stat={} observed={quarantined})",
            store.stats().quarantined
        ));
    }
    // Survivors stay intact across a restart; the log is clean again.
    drop(store);
    let reopened = Store::open(dir.path()).expect("reopen after corruption");
    let mut survivors = 0u64;
    for key in 1..=keys {
        match reopened.get(key, SCHEMA) {
            Some(p) if p == payload_for(opts.seed, key) => survivors += 1,
            Some(_) => violations.push(format!("corrupt-sweep: key {key} garbled after restart")),
            None => {}
        }
    }
    let clean = reopened.verify().map(|v| v.is_clean()).unwrap_or(false);
    if !clean {
        violations.push("corrupt-sweep: reopened log not clean".to_string());
    }
    if survivors < served {
        violations.push(format!(
            "corrupt-sweep: surviving records regressed across restart \
             (served={served} survivors={survivors})"
        ));
    }
    format!(
        "[store-corrupt-sweep] keys={keys} served={served} quarantined={quarantined} \
         survivors={survivors} clean={}\n",
        u8::from(clean)
    )
}

/// Scenario 3: the exhaustive kill-and-restart sweep. For every write-path
/// site and every injection point `nth`, fault exactly the nth hit, keep
/// writing, then kill and restart: zero acknowledged records may be lost.
/// The rename sites sit on log rewrites, so for them every put is followed
/// by a compaction, and the nth compaction is the one faulted.
fn kill_restart_sweep(
    opts: &ChaosOpts,
    violations: &mut Vec<String>,
    cov: &mut Coverage,
) -> String {
    let sites =
        [Site::StoreShortWrite, Site::StoreFsyncFail, Site::StoreRenameFail, Site::StoreTornRename];
    let points: u64 = if opts.quick { 3 } else { 6 };
    let mut recoveries = 0u64;
    let mut lost = 0u64;
    let mut faults_fired = 0u64;
    for site in sites {
        let compact = matches!(site, Site::StoreRenameFail | Site::StoreTornRename);
        for nth in 1..=points {
            let dir = TempDir::new("kill-restart");
            let store = Store::open(dir.path()).expect("open scratch store");
            let mut acked: Vec<u64> = Vec::new();
            {
                let guard = arm(FaultPlan::new(opts.seed ^ nth).with_at(site, nth));
                for key in 1..=(points + 4) {
                    if store.put(key, SCHEMA, &payload_for(opts.seed, key)).is_ok() {
                        acked.push(key);
                    }
                    if compact {
                        let _ = store.gc(SCHEMA);
                    }
                }
                faults_fired +=
                    guard.summary().iter().find(|r| r.site == site).map_or(0, |r| r.fires);
                cov.absorb(&guard);
            }
            drop(store);
            let reopened = Store::open(dir.path()).expect("reopen mid-commit kill");
            let mut ok = true;
            for &key in &acked {
                if reopened.get(key, SCHEMA).as_deref() != Some(&payload_for(opts.seed, key)[..]) {
                    ok = false;
                    lost += 1;
                    violations.push(format!(
                        "kill-restart: site={} nth={nth}: acked key {key} lost",
                        site.name()
                    ));
                }
            }
            if !reopened.verify().map(|v| v.is_clean()).unwrap_or(false) {
                ok = false;
                violations
                    .push(format!("kill-restart: site={} nth={nth}: log not clean", site.name()));
            }
            if ok {
                recoveries += 1;
            }
        }
    }
    format!(
        "[kill-restart] sites={} points={points} recoveries={recoveries} \
         faults={faults_fired} lost={lost}\n",
        sites.len()
    )
}

/// Digest of one simulation result (the whole result, every field).
fn digest(r: &SimResult) -> u64 {
    fnv1a64(format!("{r:?}").as_bytes())
}

fn chaos_spec(opts: &ChaosOpts) -> ExperimentSpec {
    let picks: Vec<&str> = names().iter().copied().take(if opts.quick { 3 } else { 4 }).collect();
    let mut spec = ExperimentSpec::new();
    for workload in picks {
        for arm in [tdo_sim::PrefetchSetup::NoPrefetch, tdo_sim::PrefetchSetup::SwSelfRepair] {
            let mut cfg = SimConfig::test(arm);
            cfg.warmup_insts = 2_000;
            cfg.measure_insts = if opts.quick { 4_000 } else { 8_000 };
            spec.push(Cell::new(workload, Scale::Test, cfg));
        }
    }
    spec
}

fn spec_digests(results: &[Arc<SimResult>]) -> Vec<u64> {
    results.iter().map(|r| digest(r)).collect()
}

/// Scenario 4: engine chaos. Helper-job jitter and store degrades must not
/// change a single report byte (across `--jobs` values too), and a cell
/// that panics under injection must succeed on retry with a result
/// identical to a clean run's.
fn engine_chaos(opts: &ChaosOpts, violations: &mut Vec<String>, cov: &mut Coverage) -> String {
    let spec = chaos_spec(opts);

    // Clean baseline (no store, plane deliberately armed with an all-off
    // plan so a concurrent armer cannot slip faults into this phase).
    let baseline = {
        let _quiet = arm(FaultPlan::new(0));
        spec_digests(&Runner::new(1).run_spec(&spec))
    };

    // Jitter + store degrades, at the requested job count and serially.
    let mut digests_match = true;
    {
        let guard = arm(FaultPlan::new(opts.seed ^ 0xE1)
            .with_prob(Site::EngineHelperJitter, 600)
            .with_prob(Site::EngineStoreDegrade, 500));
        for jobs in [opts.jobs.max(1), 1] {
            let dir = TempDir::new("engine");
            let runner =
                Runner::with_store(jobs, Arc::new(ShardedStore::open(dir.path(), 1).unwrap()));
            let got = spec_digests(&runner.run_spec(&spec));
            if got != baseline {
                digests_match = false;
                violations.push(format!(
                    "engine: faulted run (jobs={jobs}) diverged from the clean baseline"
                ));
            }
        }
        cov.absorb(&guard);
    }

    // An injected panic fails exactly one cell; the retry (faults gone)
    // reproduces the clean baseline bit for bit.
    let dir = TempDir::new("engine-panic");
    let runner = Runner::with_store(1, Arc::new(ShardedStore::open(dir.path(), 1).unwrap()));
    let failed_cells;
    {
        let guard = arm(FaultPlan::new(opts.seed ^ 0xE2).with_at(Site::EngineCellPanic, 2));
        let outcome = catch_unwind(AssertUnwindSafe(|| runner.run_spec(&spec)));
        if outcome.is_ok() {
            violations.push("engine: injected cell panic was silently swallowed".to_string());
        }
        failed_cells = runner.failed_cells().len();
        if failed_cells != 1 {
            violations.push(format!("engine: expected 1 failed cell, got {failed_cells}"));
        }
        cov.absorb(&guard);
    }
    let retry_matches = {
        let _quiet = arm(FaultPlan::new(0));
        spec_digests(&runner.run_spec(&spec)) == baseline
    };
    if !retry_matches {
        violations.push("engine: faulted-then-retried report differs from clean run".to_string());
    }
    format!(
        "[engine] cells={} digests-match-across-jobs={} failed-under-panic={failed_cells} \
         retry-matches-clean={}\n",
        spec.len(),
        u8::from(digests_match),
        u8::from(retry_matches)
    )
}

/// Scenario 5: the serving daemon under a socket/worker fault barrage.
/// Errors and sheds are expected; deadlocks, dead workers and an
/// unanswerable `/health` are not.
fn server_chaos(opts: &ChaosOpts, violations: &mut Vec<String>, cov: &mut Coverage) -> String {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_cap: 4,
        no_store: true,
        ..ServerConfig::default()
    };
    let server = Server::bind(&cfg).expect("bind chaos server");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());

    let requests: u64 = if opts.quick { 24 } else { 60 };
    let run_body = "{\"workload\":\"mcf\",\"arm\":\"sr\",\"scale\":\"test\",\"insts\":2000}";
    let mut ok = 0u64;
    let mut http_err = 0u64;
    let mut transport_err = 0u64;
    let mut health_ok = false;
    {
        let guard = arm(FaultPlan::new(opts.seed ^ 0x5E)
            .with_prob(Site::ServerAcceptFail, 120)
            .with_prob(Site::ServerReadFail, 120)
            .with_prob(Site::ServerWriteFail, 120)
            .with_prob(Site::ServerSlowClient, 150)
            .with_prob(Site::ServerWorkerPanic, 250)
            .with_prob(Site::ServerQueueSaturate, 200));
        for i in 0..requests {
            let resp = match i % 3 {
                0 => client::get(&addr, "/health"),
                1 => client::post(&addr, "/run", run_body),
                _ => client::get(&addr, "/metrics"),
            };
            match resp {
                Ok(r) if r.ok() => ok += 1,
                Ok(_) => http_err += 1,
                Err(_) => transport_err += 1,
            }
        }
        // The liveness invariant: /health answers within a bounded number
        // of attempts even while the barrage plan is armed.
        for _ in 0..20 {
            if client::get(&addr, "/health").map(|r| r.ok()).unwrap_or(false) {
                health_ok = true;
                break;
            }
        }
        cov.absorb(&guard);
    }
    if !health_ok {
        violations.push("server: /health did not answer within 20 attempts".to_string());
    }
    // Disarmed: the worker pool must have survived every injected panic.
    let pool_alive = {
        let _quiet = arm(FaultPlan::new(0));
        client::post(&addr, "/run", run_body).map(|r| r.ok()).unwrap_or(false)
    };
    if !pool_alive {
        violations.push("server: worker pool dead after injected panics".to_string());
    }
    // Graceful shutdown must complete (a hang here fails the whole run).
    handle.shutdown();
    let shutdown_ok = thread.join().map(|r| r.is_ok()).unwrap_or(false);
    if !shutdown_ok {
        violations.push("server: run loop did not shut down cleanly".to_string());
    }
    format!(
        "[server] requests={requests} ok={ok} http-err={http_err} transport-err={transport_err} \
         health-ok={} pool-alive={} shutdown-ok={}\n",
        u8::from(health_ok),
        u8::from(pool_alive),
        u8::from(shutdown_ok)
    )
}

/// Scenario 5b: the sharded serving tier under the same barrage. A
/// four-shard store with the hot-result cache in front takes a seeded mix
/// of single, batch and cold `/run` requests plus metric scrapes while
/// slow clients, queue saturation and worker panics are injected. The
/// invariants extend scenario 5's: every acknowledged result must replay
/// byte-identically once the plan is disarmed (shed, don't lose), the
/// shard gauge and cache counters must be live, `/health` must keep
/// answering, and shutdown must complete.
fn sharded_serving(opts: &ChaosOpts, violations: &mut Vec<String>, cov: &mut Coverage) -> String {
    let dir = TempDir::new("sharded-serving");
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_cap: 4,
        store_dir: Some(dir.path().to_string_lossy().into_owned()),
        shards: 4,
        cache: 64,
        ..ServerConfig::default()
    };
    let server = Server::bind(&cfg).expect("bind sharded chaos server");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());

    let requests: u64 = if opts.quick { 24 } else { 60 };
    let hot = ["mcf", "art", "gap"];
    let single = |workload: &str, insts: u64| {
        format!(
            "{{\"workload\":\"{workload}\",\"arm\":\"sr\",\"scale\":\"test\",\"insts\":{insts}}}"
        )
    };
    let mut rng = Rng::new(opts.seed ^ 0x5A2D);
    let mut ok = 0u64;
    let mut http_err = 0u64;
    let mut transport_err = 0u64;
    let mut health_ok = false;
    // First OK response per request body, for the post-barrage replay.
    let mut acked: BTreeMap<String, String> = BTreeMap::new();
    {
        let guard = arm(FaultPlan::new(opts.seed ^ 0x5B)
            .with_prob(Site::ServerReadFail, 100)
            .with_prob(Site::ServerWriteFail, 100)
            .with_prob(Site::ServerSlowClient, 150)
            .with_prob(Site::ServerWorkerPanic, 200)
            .with_prob(Site::ServerQueueSaturate, 200)
            .with_prob(Site::StoreShortWrite, 90));
        for _ in 0..requests {
            let (path, body) = match rng.gen_range(0..10) {
                0..=5 => {
                    let w: &str = hot[rng.gen_index(hot.len())];
                    ("/run", Some(single(w, 2_000)))
                }
                6 | 7 => {
                    let cells: Vec<String> = (0..3)
                        .map(|_| {
                            let w: &str = hot[rng.gen_index(hot.len())];
                            single(w, 2_000)
                        })
                        .collect();
                    ("/run", Some(format!("{{\"cells\":[{}]}}", cells.join(","))))
                }
                8 => {
                    let w: &str = hot[rng.gen_index(hot.len())];
                    ("/run", Some(single(w, 2_500 + rng.gen_range(0..64))))
                }
                _ => ("/metrics", None),
            };
            let resp = match &body {
                Some(b) => client::post(&addr, path, b),
                None => client::get(&addr, path),
            };
            match resp {
                Ok(r) if r.ok() => {
                    ok += 1;
                    if let Some(b) = body {
                        acked.entry(b).or_insert_with(|| normalize_response(&r.body));
                    }
                }
                Ok(_) => http_err += 1,
                Err(_) => transport_err += 1,
            }
        }
        for _ in 0..20 {
            if client::get(&addr, "/health").map(|r| r.ok()).unwrap_or(false) {
                health_ok = true;
                break;
            }
        }
        cov.absorb(&guard);
    }
    if !health_ok {
        violations.push("sharded-serving: /health did not answer within 20 attempts".to_string());
    }
    // Disarmed replay: every result acknowledged during the barrage must
    // come back byte-identical (modulo the coalesced flag) — served from
    // the cache or the sharded store, never lost, never garbled.
    let mut verified = 0u64;
    {
        let _quiet = arm(FaultPlan::new(0));
        for (body, want) in &acked {
            let mut replayed = None;
            for _ in 0..20 {
                if let Ok(r) = client::post(&addr, "/run", body) {
                    if r.ok() {
                        replayed = Some(normalize_response(&r.body));
                        break;
                    }
                }
            }
            match replayed {
                Some(got) if got == *want => verified += 1,
                Some(_) => violations
                    .push(format!("sharded-serving: acked result changed on replay: {body}")),
                None => violations
                    .push(format!("sharded-serving: acked result lost after disarm: {body}")),
            }
        }
        // The tier's identity gauges and cache counters are live.
        let scrape = client::get(&addr, "/metrics")
            .ok()
            .and_then(|r| json::parse(&r.body).ok())
            .unwrap_or_default();
        let field = |key: &str| json::get(&scrape, key).and_then(Value::as_u64).unwrap_or(0);
        if field("shards") != 4 {
            violations
                .push(format!("sharded-serving: shard gauge reads {}, want 4", field("shards")));
        }
        if field("cache_hits") == 0 {
            violations.push("sharded-serving: replay produced zero cache hits".to_string());
        }
        cov.absorb(&_quiet);
    }
    handle.shutdown();
    let shutdown_ok = thread.join().map(|r| r.is_ok()).unwrap_or(false);
    if !shutdown_ok {
        violations.push("sharded-serving: run loop did not shut down cleanly".to_string());
    }
    format!(
        "[sharded-serving] requests={requests} ok={ok} http-err={http_err} \
         transport-err={transport_err} acked={} verified={verified} health-ok={} shutdown-ok={}\n",
        acked.len(),
        u8::from(health_ok),
        u8::from(shutdown_ok)
    )
}

/// Scenario 6: flight-recorder attribution. Seeded request traces drive the
/// store under armed faults; the recorder's dump must be valid flight
/// JSONL, byte-deterministic (logical clock, digest in the report), and
/// must attribute at least one fired fault site — and at least one health
/// watchdog trip — to the exact request trace that hit it. Returns
/// `(report line, flight dump, captured log)`.
fn flight_attribution(
    opts: &ChaosOpts,
    violations: &mut Vec<String>,
    cov: &mut Coverage,
) -> (String, String, String) {
    use tdo_obs::span;
    use tdo_server::health::{dump_reason, WatchRow, Watchdog};
    // Logical clock + a reset ring: the dump reflects only this scenario,
    // with per-trace sequence numbers instead of wall timestamps.
    let _clock = span::logical_clock_guard();
    span::global().reset();
    let dir = TempDir::new("flight");
    let store = Store::open(dir.path()).expect("open scratch store");
    let traces = tdo_obs::TraceIdGen::new(opts.seed ^ 0xF11);
    let requests: u64 = if opts.quick { 24 } else { 64 };
    let mut acked = 0u64;
    let mut watchdog_trace = 0u64;
    let mut tripped: Vec<&'static str> = Vec::new();
    let ((), log_text) = tdo_obs::logline::capture(|| {
        // `with_at` pins one guaranteed write fault; the probabilistic read
        // corruption adds seed-dependent extras on top.
        let guard = arm(FaultPlan::new(opts.seed ^ 0xF12)
            .with_at(Site::StoreShortWrite, 3)
            .with_prob(Site::StoreReadCorrupt, 200));
        for key in 1..=requests {
            let _root = span::SpanScope::root(traces.mint(), tdo_obs::FlightKind::Request, key);
            if store.put(key, SCHEMA, &payload_for(opts.seed, key)).is_ok() {
                acked += 1;
            }
            let _ = store.get(key, SCHEMA);
        }
        cov.absorb(&guard);
        drop(guard);
        // Watchdog trip → dump attribution: synthetic breaching rows drive
        // the daemon's real rule engine, and each trip's dump point is
        // recorded inside a rooted request trace — exactly how a health
        // tick's flight dump hangs off the request that breached the SLO.
        // Every `/run` request in the window is over the SLO bucket (the
        // slo_burn rule) while admission control sheds (the shed_rate
        // rule), so both new dump reasons are exercised.
        let mut watchdog = Watchdog::new(8);
        let breaching =
            vec![WatchRow { run_count: 2, run_slow: 2, shed: 1, ..WatchRow::default() }; 5];
        watchdog_trace = traces.mint();
        {
            let _root =
                span::SpanScope::root(watchdog_trace, tdo_obs::FlightKind::Request, requests + 1);
            tripped = watchdog.evaluate(1, &breaching);
            for rule in &tripped {
                let reason = dump_reason(rule);
                let code = tdo_server::DUMP_REASONS
                    .iter()
                    .position(|r| *r == reason)
                    .expect("watchdog reasons are dump reasons") as u64;
                span::point(tdo_obs::FlightKind::Dump, code);
                tdo_obs::logline::log(
                    tdo_obs::Level::Warn,
                    "watchdog",
                    "health rule tripped",
                    &[("rule", rule), ("reason", reason)],
                );
            }
        }
        // A fresh zero context pins the line's logical timestamp: the
        // thread-local sequence would otherwise carry whatever this thread
        // recorded before the scenario.
        let _ctx = span::resume(tdo_obs::TraceCtx::fresh(0));
        let requests_text = requests.to_string();
        tdo_obs::logline::log(
            tdo_obs::Level::Info,
            "chaos",
            "flight attribution swept",
            &[("requests", &requests_text)],
        );
    });
    let dump = span::global().dump();
    if let Err(e) = tdo_obs::validate_flight(&dump) {
        violations.push(format!("flight: dump is not valid flight JSONL: {e}"));
    }
    if let Err(e) = tdo_obs::validate_log(&log_text) {
        violations.push(format!("flight: captured log fails the schema lint: {e}"));
    }
    let records = span::parse_flight(&dump).unwrap_or_default();
    let faults =
        records.iter().filter(|r| r.kind == tdo_obs::FlightKind::Fault).collect::<Vec<_>>();
    let attributed = faults.iter().filter(|r| r.trace != 0).count();
    if attributed == 0 {
        violations.push("flight: no fired fault site attributed to a request trace".to_string());
    }
    // The watchdog segment is deterministic: both rules trip, and every
    // dump point carries the minting request's exact trace id.
    if tripped != ["slo_burn", "shed_rate"] {
        violations.push(format!("flight: watchdog rules tripped unexpectedly: {tripped:?}"));
    }
    let watchdog_dumps = records
        .iter()
        .filter(|r| r.kind == tdo_obs::FlightKind::Dump && r.trace == watchdog_trace)
        .collect::<Vec<_>>();
    if watchdog_dumps.len() != tripped.len() {
        violations.push(format!(
            "flight: {} watchdog dump records attributed to trace {watchdog_trace:016x}, \
             want {}",
            watchdog_dumps.len(),
            tripped.len()
        ));
    }
    for (rec, rule) in watchdog_dumps.iter().zip(&tripped) {
        let want = tdo_server::DUMP_REASONS.iter().position(|r| *r == dump_reason(rule));
        if Some(rec.arg as usize) != want {
            violations.push(format!(
                "flight: watchdog dump reason code {} does not match rule `{rule}`",
                rec.arg
            ));
        }
    }
    let report = format!(
        "[flight] requests={requests} acked={acked} events={} faults={} attributed={attributed} \
         watchdog-trips={} watchdog-attributed={} log-lines={} dump-digest={:016x}\n",
        records.len(),
        faults.len(),
        tripped.len(),
        watchdog_dumps.len(),
        log_text.lines().count(),
        fnv1a64(dump.as_bytes())
    );
    (report, dump, log_text)
}
