//! # tdo-server — the result-serving daemon behind `tdo serve`
//!
//! A hand-rolled HTTP/1.1 server over `std::net::TcpListener` (the build is
//! hermetic — no async runtime, no HTTP crate) that serves experiment
//! results to many clients from the persistent store (`tdo-store`),
//! simulating on miss and writing the result through so the next client is
//! a cache hit.
//!
//! **Architecture.** One accept thread sleeps in a blocking `accept`,
//! parses each request and answers the cheap read-only endpoints
//! (`/health`, `/metrics`, `/workloads`) inline; `POST /run` is handed to a
//! small fixed pool of worker threads through a bounded queue. When the
//! queue is full the accept thread sheds the request with an explicit
//! `503` instead of letting latency collapse. Identical cells requested
//! concurrently — alone or inside batches — are *single-flighted* by the
//! engine's cell table ([`Runner`]): the first request resolves the cell,
//! the rest wait on its flight and share the one result. A `tdo-health`
//! thread ticks the [`health`] plane every 100 ms. `POST /shutdown` (or a
//! [`ServerHandle`]) wakes the accept thread with a loopback connection to
//! the listener; a `SIGINT`/ctrl-C only sets a flag, which the health
//! thread notices within one tick and forwards the same way. The server
//! then stops accepting, drains the queue, finishes in-flight simulations
//! and exits cleanly.
//!
//! | Endpoint | Served by | Behaviour |
//! |---|---|---|
//! | `GET /health` | accept thread | liveness probe |
//! | `GET /metrics` | accept thread | integer counters (requests, coalesced, shed, store hits/misses, sims, queue depth) |
//! | `GET /workloads` | accept thread | the workload suite with descriptions |
//! | `GET /metrics/history?window=N` | accept thread | retained health-sampler rows as JSONL (see [`health`]) |
//! | `GET /debug/flight` | accept thread | the flight recorder's current contents as flight JSONL |
//! | `POST /run` | worker pool (cached requests: accept thread) | JSON cell spec or `{"cells":[…]}` batch → result(s) (per cell: memo, store, simulate) |
//! | `POST /shutdown` | accept thread | graceful shutdown (equivalent to SIGINT) |
//!
//! **Serving at scale.** With `--shards N` the persistent store splits
//! into N consistent-hash shards (`shard-000/` …) routed by the cell
//! fingerprint ([`tdo_store::ShardMap`]). The runner's cell table keeps
//! the `--cache` most recently used finished results, so a request whose
//! cells are all held answers from the accept thread without touching
//! queue, store or simulation. A batch `POST /run` takes one queue slot,
//! and its worker resolves each cell as it would a single-cell request.
//! [`admission`] tightens the queue bound to half while the health
//! watchdog reports the tier degraded, shedding earlier instead of letting
//! the backlog compound.
//!
//! **Tracing.** Every connection is minted a trace id (echoed back as an
//! `X-Tdo-Trace` response header); the request, its queue wait, the engine
//! cell, store I/O and any fired fault sites all land in the process-global
//! flight recorder under that id. On a worker panic, a shed (saturated
//! queue) or an SLO-breaching `/run`, the recorder is dumped as validated
//! flight JSONL (to `flight_dir` when configured; `tdo flight` renders it).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod admission;
pub mod client;
pub mod health;
pub mod http;
pub mod json;
/// The LRU map behind the engine's cell table.
pub use tdo_sim::lru;

use std::collections::VecDeque;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use tdo_fault::Site;
use tdo_metrics::{Counter, Gauge, Histogram, Registry};
use tdo_obs::json::{escape, Value};
use tdo_obs::span::{self, OpenSpan};
use tdo_obs::{FlightKind, TraceCtx, TraceIdGen};
use tdo_sim::{cell_key, Cell, PrefetchSetup, Runner, SimConfig, SimResult, TableMetrics};
use tdo_workloads::{build, is_known, names, Scale};

use admission::{Admission, Admit};
use http::{read_request, write_response, write_response_typed, Request};
use json::{parse_run_body, RunBody};

/// Default listen address for `tdo serve`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7077";

/// Set by the SIGINT handler; every running server's health ticker turns
/// it into a shutdown request.
static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

/// Installs a process-wide SIGINT (ctrl-C) handler that asks every running
/// [`Server`] to shut down gracefully. No-op off Unix. Idempotent.
pub fn install_sigint_handler() {
    #[cfg(unix)]
    {
        extern "C" fn on_sigint(_signum: i32) {
            // Only async-signal-safe work here: one atomic store.
            SIGINT_SEEN.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }
}

/// Server construction options.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port `0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads simulating `/run` requests.
    pub workers: usize,
    /// Bounded `/run` queue capacity; beyond it requests shed with 503.
    pub queue_cap: usize,
    /// Explicit store directory (`None` = `TDO_STORE` env or `.tdo-store/`).
    pub store_dir: Option<String>,
    /// Run without a persistent store (memo cache only).
    pub no_store: bool,
    /// `/run` latency SLO in whole microseconds; a slower request triggers
    /// a flight-recorder dump. `0` disables the trigger.
    pub slo_us: u64,
    /// Directory receiving flight-recorder dumps on worker panic, queue
    /// saturation or SLO breach (`None` = dump only via `/debug/flight`).
    pub flight_dir: Option<String>,
    /// Consistent-hash store shards under the store directory (`<= 1` =
    /// one unsharded store, the classic layout).
    pub shards: usize,
    /// Finished results the runner's cell table keeps in memory, in cells
    /// (`0` keeps none).
    pub cache: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: DEFAULT_ADDR.to_string(),
            workers: 2,
            queue_cap: 16,
            store_dir: None,
            no_store: false,
            slo_us: 0,
            flight_dir: None,
            shards: 1,
            cache: 256,
        }
    }
}

/// Seed for the per-connection trace-id stream (ids are echoed back as
/// `X-Tdo-Trace` and stamp every flight-recorder event). Each server mixes
/// its bound port in, so two servers in one process, which share the
/// flight recorder, mint different ids.
const TRACE_SEED: u64 = 0x7d0_5eed;

/// Interval between health ticks on the `tdo-health` thread.
const HEALTH_TICK: Duration = Duration::from_millis(100);

/// Pause after a failed `accept` (e.g. out of file descriptors), so the
/// accept thread does not spin on a persistent error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// Bound on the loopback connect that wakes the accept thread for a
/// shutdown (a full listen backlog drops SYNs instead of refusing them).
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// One queued `/run` request: the connection, the plan the accept thread
/// parsed from its body, the instant the request was read (latency
/// includes queue wait), and the trace context + open spans the worker
/// resumes on its side of the queue.
struct Job {
    stream: TcpStream,
    plan: RunPlan,
    t0: Instant,
    ctx: TraceCtx,
    queue_span: OpenSpan,
    request_span: OpenSpan,
}

/// Request counters and latency histograms, registered with the server's
/// metrics [`Registry`] so one set of bookkeeping feeds both the JSON
/// `/metrics` body and the Prometheus exposition.
struct Metrics {
    requests: Arc<Counter>,
    health: Arc<Counter>,
    metrics: Arc<Counter>,
    workloads: Arc<Counter>,
    run_requests: Arc<Counter>,
    run_ok: Arc<Counter>,
    run_rejected: Arc<Counter>,
    run_failed: Arc<Counter>,
    shed: Arc<Counter>,
    bad_requests: Vec<(&'static str, Arc<Counter>)>,
    debug_flight: Arc<Counter>,
    history: Arc<Counter>,
    flight_dumps: Vec<(&'static str, Arc<Counter>)>,
    watchdog_trips: Vec<(&'static str, Arc<Counter>)>,
    not_found: Arc<Counter>,
    batch_requests: Arc<Counter>,
    batch_cells: Arc<Counter>,
    /// The instruments the runner's cell table updates: the `coalesced`,
    /// `runs_*` and `cache_*` families.
    table: TableMetrics,
    admission_degraded: Arc<Gauge>,
    shards: Arc<Gauge>,
    lat_health: Arc<Histogram>,
    lat_metrics: Arc<Histogram>,
    lat_workloads: Arc<Histogram>,
    lat_run: Arc<Histogram>,
    lat_history: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    queue_cap: Arc<Gauge>,
    uptime: Arc<Gauge>,
}

/// Every `reason` label on `tdo_server_bad_requests_total`; one per
/// malformed-request early-return path.
const BAD_REQUEST_REASONS: [&str; 10] = [
    "read_failed",
    "head_too_large",
    "body_too_large",
    "closed_early",
    "bad_encoding",
    "bad_request_line",
    "bad_content_length",
    "bad_query",
    "method_not_allowed",
    "bad_cell_spec",
];

/// `reason` labels on `tdo_server_flight_dumps_total` — every dump
/// trigger: the three request-path triggers plus the watchdog's two
/// (`slo_burn` for the burn-rate rule, `anomaly` for the rest).
pub const DUMP_REASONS: [&str; 5] =
    ["worker_panic", "queue_saturation", "slo_breach", "slo_burn", "anomaly"];

impl Metrics {
    fn new(reg: &Registry) -> Metrics {
        let c = |family, help| reg.counter(family, &[], help);
        let ep = |name| {
            reg.counter(
                "tdo_server_endpoint_requests_total",
                &[("endpoint", name)],
                "Requests routed per endpoint.",
            )
        };
        let lat = |name| {
            reg.histogram(
                "tdo_server_request_latency_us",
                &[("endpoint", name)],
                "Request latency, read to response (includes queue wait for run).",
            )
        };
        Metrics {
            requests: c("tdo_server_requests_total", "Requests successfully parsed."),
            health: ep("health"),
            metrics: ep("metrics"),
            workloads: ep("workloads"),
            run_requests: ep("run"),
            run_ok: c("tdo_server_run_ok_total", "Run requests answered 200."),
            run_rejected: c("tdo_server_run_rejected_total", "Run requests with a bad cell spec."),
            run_failed: c("tdo_server_run_failed_total", "Run requests whose simulation failed."),
            shed: c("tdo_server_shed_total", "Run requests shed at a full queue."),
            bad_requests: BAD_REQUEST_REASONS
                .iter()
                .map(|&reason| {
                    let counter = reg.counter(
                        "tdo_server_bad_requests_total",
                        &[("reason", reason)],
                        "Requests answered 400, by reject path.",
                    );
                    (reason, counter)
                })
                .collect(),
            debug_flight: ep("debug_flight"),
            history: ep("history"),
            flight_dumps: DUMP_REASONS
                .iter()
                .map(|&reason| {
                    let counter = reg.counter(
                        "tdo_server_flight_dumps_total",
                        &[("reason", reason)],
                        "Flight-recorder dumps triggered, by cause.",
                    );
                    (reason, counter)
                })
                .collect(),
            watchdog_trips: health::WATCHDOG_RULES
                .iter()
                .map(|&rule| {
                    let counter = reg.counter(
                        "tdo_watchdog_trips_total",
                        &[("rule", rule)],
                        "Health-watchdog rules tripped.",
                    );
                    (rule, counter)
                })
                .collect(),
            not_found: c("tdo_server_not_found_total", "Requests for unknown endpoints."),
            batch_requests: c(
                "tdo_server_batch_requests_total",
                "Batch-form run requests (`{\"cells\":[...]}` bodies).",
            ),
            batch_cells: c(
                "tdo_server_batch_cells_total",
                "Cells received inside batch-form run requests.",
            ),
            table: TableMetrics {
                hits: reg.counter(
                    "tdo_server_cache_hits_total",
                    &[("cache", "hot_result")],
                    "Run cells answered from the hot-result LRU.",
                ),
                misses: reg.counter(
                    "tdo_server_cache_misses_total",
                    &[("cache", "hot_result")],
                    "Run cells the hot-result LRU could not answer.",
                ),
                evictions: reg.counter(
                    "tdo_server_cache_evictions_total",
                    &[("cache", "hot_result")],
                    "Entries evicted from the hot-result LRU at capacity.",
                ),
                entries: reg.gauge(
                    "tdo_server_cache_entries",
                    &[("cache", "hot_result")],
                    "Entries currently held by the hot-result LRU.",
                ),
                flights_started: c(
                    "tdo_server_runs_started_total",
                    "Single-flight leaders started.",
                ),
                flights_finished: c(
                    "tdo_server_runs_finished_total",
                    "Single-flight leaders finished.",
                ),
                joined: c(
                    "tdo_server_coalesced_total",
                    "Run requests coalesced onto another flight.",
                ),
            },
            admission_degraded: reg.gauge(
                "tdo_server_admission_degraded",
                &[],
                "1 while a watchdog trip holds admission at the tightened bound.",
            ),
            shards: reg.gauge(
                "tdo_server_shards",
                &[],
                "Consistent-hash store shards behind this server.",
            ),
            lat_health: lat("health"),
            lat_metrics: lat("metrics"),
            lat_workloads: lat("workloads"),
            lat_run: lat("run"),
            lat_history: lat("history"),
            queue_depth: reg.gauge(
                "tdo_server_queue_depth",
                &[],
                "Jobs waiting in the bounded run queue.",
            ),
            queue_cap: reg.gauge("tdo_server_queue_cap", &[], "Capacity of the bounded run queue."),
            uptime: reg.gauge(
                "tdo_server_uptime_ticks",
                &[],
                "Background health-sampler ticks since the server started.",
            ),
        }
    }

    /// Counts one watchdog trip on the named rule.
    fn watchdog_trip(&self, rule: &str) {
        let (_, counter) = self
            .watchdog_trips
            .iter()
            .find(|(r, _)| *r == rule)
            .expect("rule is in WATCHDOG_RULES");
        counter.inc();
    }

    /// Counts one 400 on the named reject path.
    fn bad_request(&self, reason: &str) {
        let (_, counter) = self
            .bad_requests
            .iter()
            .find(|(r, _)| *r == reason)
            .expect("reason is in BAD_REQUEST_REASONS");
        counter.inc();
    }

    /// Total 400s across every reject path (the JSON `/metrics` body).
    fn bad_requests_total(&self) -> u64 {
        self.bad_requests.iter().map(|(_, c)| c.get()).sum()
    }
}

/// Whole microseconds since `t0`, saturating.
fn elapsed_us(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Shared server state (accept thread + workers).
struct State {
    runner: Runner,
    workloads_json: String,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    queue_cap: usize,
    /// Watchdog-aware queue admission.
    admission: Admission,
    shutdown: AtomicBool,
    /// Where a shutdown request connects to wake the blocking `accept`:
    /// the listener's address, with loopback for an unspecified bind.
    wake_addr: SocketAddr,
    /// Wakes the health ticker early on shutdown (the mutex only pairs
    /// with the condvar).
    ticker: (Mutex<()>, Condvar),
    registry: Registry,
    m: Metrics,
    traces: TraceIdGen,
    slo_us: u64,
    flight_dir: Option<String>,
    flight_files: AtomicU64,
    health: health::HealthPlane,
}

/// Cap on dump files written per process — a crash loop must not fill the
/// disk with flight dumps.
const MAX_FLIGHT_FILES: u64 = 16;

/// Fires one flight-dump trigger: counts it, marks it in the recorder,
/// logs it, and (when a dump directory is configured) writes the dump as
/// validated flight JSONL.
fn trigger_flight_dump(state: &State, reason: &'static str) {
    let (_, counter) =
        state.m.flight_dumps.iter().find(|(r, _)| *r == reason).expect("reason is in DUMP_REASONS");
    counter.inc();
    let reason_code = DUMP_REASONS.iter().position(|r| *r == reason).unwrap_or(0) as u64;
    span::point(FlightKind::Dump, reason_code);
    let mut fields: Vec<(&str, &str)> = vec![("reason", reason)];
    let path_text;
    if let Some(dir) = &state.flight_dir {
        let n = state.flight_files.fetch_add(1, Ordering::Relaxed);
        if n < MAX_FLIGHT_FILES {
            let path = std::path::Path::new(dir).join(format!("flight-{n:03}-{reason}.jsonl"));
            if std::fs::write(&path, span::global().dump()).is_ok() {
                path_text = path.display().to_string();
                fields.push(("dump", &path_text));
            }
        }
    }
    tdo_obs::logline::log(tdo_obs::Level::Warn, "server", "flight dump triggered", &fields);
}

impl State {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGINT_SEEN.load(Ordering::SeqCst)
    }

    /// Flags shutdown and wakes every thread that waits for it: the
    /// workers, the health ticker and the accept thread. Only the first
    /// call does anything.
    fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue_cv.notify_all();
        {
            // Taking the ticker's lock orders this store before its next
            // predicate check, so the wake-up cannot be lost.
            let _guard = relock(&self.ticker.0);
            self.ticker.1.notify_all();
        }
        // Only a connection wakes a blocking `accept`; the accept loop
        // sees the flag before it would serve this one. If the connect
        // fails, the next client's connection wakes it instead.
        let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
    }
}

/// Recovers from mutex poisoning — a panicking worker must not wedge the
/// daemon (the state it guards is always observed in a consistent shape).
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A handle for asking a running server to stop (used by tests and the
/// `/shutdown` endpoint; the health ticker makes the same request for
/// ctrl-C).
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<State>,
}

impl ServerHandle {
    /// Requests a graceful shutdown: stop accepting, drain the queue,
    /// finish in-flight work, exit.
    pub fn shutdown(&self) {
        self.state.request_shutdown();
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
    workers: usize,
}

impl Server {
    /// Binds the listen socket and opens the store (unless `no_store`).
    ///
    /// # Errors
    ///
    /// Returns the bind error; an unopenable store degrades to serving
    /// without one (a warning is printed), matching the engine's behaviour.
    pub fn bind(cfg: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            let loopback: IpAddr = match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            };
            wake_addr.set_ip(loopback);
        }
        let registry = Registry::new();
        let m = Metrics::new(&registry);
        let runner = if cfg.no_store {
            Runner::new(1)
        } else {
            Runner::with_default_store(1, cfg.store_dir.as_deref(), cfg.shards)
        }
        .with_table(cfg.cache, m.table.clone());
        runner.register_metrics(&registry);
        tdo_obs::register_metrics(&registry);
        // Build/schema identity: always-1 gauge whose labels carry the
        // versions a scraper needs to interpret everything else.
        let result_schema = tdo_sim::SCHEMA_VERSION.to_string();
        let series_schema = tdo_metrics::series::SERIES_SCHEMA_VERSION.to_string();
        let arms = tdo_sim::policy_candidates().len().to_string();
        registry
            .gauge(
                "tdo_build_info",
                &[
                    ("result_schema", &result_schema),
                    ("series_schema", &series_schema),
                    ("arms", &arms),
                ],
                "Schema/build identity; the value is always 1.",
            )
            .set(1);
        // The health plane captures its column schema here: every
        // instrument the server samples must already be registered.
        let health = health::HealthPlane::new(&registry, cfg.slo_us, cfg.queue_cap.max(1) as u64);
        let state = Arc::new(State {
            runner,
            workloads_json: workloads_json(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_cap: cfg.queue_cap.max(1),
            admission: Admission::new(),
            shutdown: AtomicBool::new(false),
            wake_addr,
            ticker: (Mutex::new(()), Condvar::new()),
            registry,
            m,
            traces: TraceIdGen::new(tdo_rand::mix64(TRACE_SEED ^ u64::from(wake_addr.port()))),
            slo_us: cfg.slo_us,
            flight_dir: cfg.flight_dir.clone(),
            flight_files: AtomicU64::new(0),
            health,
        });
        state.m.queue_cap.set(state.queue_cap as u64);
        state.m.shards.set(cfg.shards.max(1) as u64);
        Ok(Server { listener, state, workers: cfg.workers.max(1) })
    }

    /// The bound address (resolves port `0` to the actual port).
    ///
    /// # Errors
    ///
    /// Propagates the socket-name lookup error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown handle usable from other threads.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { state: Arc::clone(&self.state) }
    }

    /// Serves until shutdown (SIGINT, `/shutdown` or [`ServerHandle`]),
    /// then drains the queue, joins the workers and the health ticker, and
    /// returns.
    ///
    /// # Errors
    ///
    /// None at present: a failed `accept` backs off and retries, and
    /// per-connection errors are absorbed (counted as 400s in the metrics
    /// where attributable).
    pub fn run(&self) -> io::Result<()> {
        let mut threads = Vec::with_capacity(self.workers + 1);
        for i in 0..self.workers {
            let state = Arc::clone(&self.state);
            let t = std::thread::Builder::new()
                .name(format!("tdo-serve-{i}"))
                .spawn(move || worker_loop(&state))
                .expect("spawn worker thread");
            threads.push(t);
        }
        let state = Arc::clone(&self.state);
        let ticker = std::thread::Builder::new()
            .name("tdo-health".into())
            .spawn(move || ticker_loop(&state))
            .expect("spawn health ticker thread");
        threads.push(ticker);
        // `accept` blocks until a client connects or a shutdown request
        // connects to wake it (see `State::request_shutdown`); health
        // ticks run on their own thread.
        while !self.state.shutting_down() {
            let accepted = self.listener.accept();
            // Checked before anything is counted, so the wake-up
            // connection mints no trace, hits no fault site and moves no
            // metric.
            if self.state.shutting_down() {
                break;
            }
            match accepted {
                Ok((stream, _peer)) => {
                    if tdo_fault::fire(Site::ServerAcceptFail).is_some() {
                        // Injected accept failure: the connection dies
                        // before it is ever read. The loop must keep
                        // serving the next client.
                        drop(stream);
                        continue;
                    }
                    handle_connection(&self.state, stream);
                }
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        }
        // Stop the pool and the ticker: workers drain the queue, then exit.
        self.state.request_shutdown();
        for t in threads {
            let _ = t.join();
        }
        Ok(())
    }

    /// The underlying engine (store counters etc.), for the CLI's exit
    /// summary.
    #[must_use]
    pub fn runner(&self) -> &Runner {
        &self.state.runner
    }
}

/// The `tdo-health` thread: one [`health_tick`] every [`HEALTH_TICK`]
/// until shutdown, which wakes it at once. A SIGINT only sets a flag, and
/// the signal cannot wake the blocking `accept` (std retries it on
/// `EINTR`): the ticker sees the flag within one tick and forwards it as a
/// shutdown request.
fn ticker_loop(state: &Arc<State>) {
    let (lock, cv) = &state.ticker;
    let mut guard = relock(lock);
    loop {
        let (g, wait) = cv
            .wait_timeout_while(guard, HEALTH_TICK, |()| !state.shutting_down())
            .unwrap_or_else(PoisonError::into_inner);
        drop(g);
        if !wait.timed_out() {
            // After the guard is dropped: this takes the ticker's lock.
            state.request_shutdown();
            return;
        }
        health_tick(state);
        guard = relock(lock);
    }
}

/// One background health tick: sample the registry into the history rows
/// and let the watchdog look at its window; tripped rules count and dump.
fn health_tick(state: &Arc<State>) {
    for rule in state.health.tick(&state.registry, &state.m.uptime) {
        state.m.watchdog_trip(rule);
        // Any tripped rule tightens queue admission for the next
        // DEGRADE_TICKS health ticks (see [`admission`]).
        state.admission.degrade(state.m.uptime.get());
        tdo_obs::logline::log(
            tdo_obs::Level::Warn,
            "watchdog",
            "health rule tripped",
            &[("rule", rule)],
        );
        trigger_flight_dump(state, health::dump_reason(rule));
    }
    state.m.admission_degraded.set(u64::from(state.admission.degraded(state.m.uptime.get())));
}

/// Routes one parsed connection. Cheap endpoints answer inline; `/run`
/// goes through the bounded queue to the worker pool.
fn handle_connection(state: &Arc<State>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let t0 = Instant::now();
    // Every connection gets a trace id before it is even parsed, so even a
    // 400 carries an `X-Tdo-Trace` header pointing into the recorder.
    let trace = state.traces.mint();
    let _ctx = span::resume(TraceCtx::fresh(trace));
    let req = match read_request(&mut stream) {
        Ok(req) => req,
        Err(e) => {
            state.m.bad_request(http::reject_reason(&e));
            respond_error(&mut stream, 400, &e.to_string());
            return;
        }
    };
    state.m.requests.inc();
    let request_span = span::begin(FlightKind::Request, 0);
    // Only `/metrics` and `/metrics/history` interpret their query
    // strings; the path part alone routes everywhere.
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (req.path.clone(), None),
    };
    match (req.method.as_str(), path.as_str()) {
        ("GET", "/health") => {
            // Latency is observed before the response is written (here and on
            // every endpoint): once a client holds the response, its sample is
            // guaranteed visible to the next scrape, which keeps snapshot
            // tests single-shot. The unmeasured tail is one loopback write.
            state.m.health.inc();
            state.m.lat_health.observe_with_exemplar(elapsed_us(t0), trace);
            let _ = write_response(&mut stream, 200, "{\"status\":\"ok\"}");
        }
        ("GET", "/metrics") => {
            state.m.metrics.inc();
            state.m.lat_metrics.observe_with_exemplar(elapsed_us(t0), trace);
            match query.as_deref() {
                None | Some("") | Some("format=json") => {
                    let body = metrics_json(state);
                    let _ = write_response(&mut stream, 200, &body);
                }
                Some("format=prom") => {
                    let body = metrics_prom(state);
                    let _ =
                        write_response_typed(&mut stream, 200, "text/plain; version=0.0.4", &body);
                }
                Some(q) => {
                    state.m.bad_request("bad_query");
                    respond_error(&mut stream, 400, &format!("unsupported metrics query `{q}`"));
                }
            }
        }
        ("GET", "/workloads") => {
            state.m.workloads.inc();
            state.m.lat_workloads.observe_with_exemplar(elapsed_us(t0), trace);
            let body = state.workloads_json.clone();
            let _ = write_response(&mut stream, 200, &body);
        }
        ("GET", "/debug/flight") => {
            state.m.debug_flight.inc();
            let body = span::global().dump();
            let _ = write_response_typed(&mut stream, 200, "application/jsonl", &body);
        }
        ("GET", "/metrics/history") => {
            state.m.history.inc();
            state.m.lat_history.observe_with_exemplar(elapsed_us(t0), trace);
            let window = match query.as_deref() {
                None | Some("") => Some(0),
                Some(q) => q.strip_prefix("window=").and_then(|n| n.parse::<usize>().ok()),
            };
            match window {
                Some(window) => {
                    // Pre-sample so the scrape reflects everything up to
                    // this instant; the request's own counters are excluded
                    // from sampling, so an idle re-scrape is byte-identical.
                    state.health.sample(&state.registry, &state.m.uptime);
                    let body = state.health.render_history(window);
                    let _ = write_response_typed(&mut stream, 200, "application/jsonl", &body);
                }
                None => {
                    state.m.bad_request("bad_query");
                    respond_error(&mut stream, 400, "expected ?window=N");
                }
            }
        }
        ("POST", "/shutdown") => {
            let _ = write_response(&mut stream, 200, "{\"shutting_down\":true}");
            state.request_shutdown();
        }
        ("POST", "/run") => {
            // The request span crosses the queue: the worker (or the shed
            // or inline-cache path) ends it after the response is written.
            handle_run(state, stream, req, t0, request_span);
            return;
        }
        (
            "GET" | "POST",
            "/health" | "/metrics" | "/metrics/history" | "/workloads" | "/debug/flight" | "/run"
            | "/shutdown",
        ) => {
            state.m.bad_request("method_not_allowed");
            respond_error(&mut stream, 405, "method not allowed");
        }
        _ => {
            state.m.not_found.inc();
            respond_error(&mut stream, 404, "no such endpoint");
        }
    }
    request_span.end(0);
}

/// Routes a `/run` request: parse on the accept thread, answer bad specs
/// with 400 and requests whose every cell the runner holds finished
/// inline, and queue everything else for the worker pool (or shed it).
fn handle_run(
    state: &Arc<State>,
    mut stream: TcpStream,
    req: Request,
    t0: Instant,
    request_span: OpenSpan,
) {
    state.m.run_requests.inc();
    let trace = span::current().trace;
    match parse_run_plan(&req.body) {
        Err(msg) => {
            state.m.run_rejected.inc();
            state.m.bad_request("bad_cell_spec");
            state.m.lat_run.observe_with_exemplar(elapsed_us(t0), trace);
            respond_error(&mut stream, 400, &msg);
            request_span.end(0);
        }
        Ok(plan) => {
            if plan.batch {
                state.m.batch_requests.inc();
                state.m.batch_cells.add(plan.cells.len() as u64);
            }
            // Every cell finished and held: answer from the accept thread —
            // no queue, no worker, no store, no simulation.
            if let Some(results) = state.runner.lookup(plan.cells.iter().map(|p| p.key)) {
                state.m.run_ok.inc();
                state.m.lat_run.observe_with_exemplar(elapsed_us(t0), trace);
                let _ = write_response(&mut stream, 200, &run_json(&plan, &results, false));
                request_span.end(0);
                return;
            }
            enqueue_run(state, stream, plan, t0, request_span);
        }
    }
}

/// Admits a `/run` request to the bounded queue, or sheds it with a 503.
/// The bound is the full queue capacity normally and half of it while a
/// watchdog trip holds the tier degraded (see [`admission`]).
fn enqueue_run(
    state: &Arc<State>,
    stream: TcpStream,
    plan: RunPlan,
    t0: Instant,
    request_span: OpenSpan,
) {
    // The queue-wait span opens before the context is captured so the job
    // carries a context whose logical clock is past the begin event.
    let queue_span = span::begin(FlightKind::QueueWait, 0);
    let ctx = span::current();
    let mut rejected = Some(stream); // taken on admission
    {
        let saturated = tdo_fault::fire(Site::ServerQueueSaturate).is_some();
        let tick = state.m.uptime.get();
        let mut q = relock(&state.queue);
        let admitted = state.admission.admit(q.len(), state.queue_cap, tick) == Admit::Accept;
        if admitted && !state.shutting_down() && !saturated {
            let stream = rejected.take().expect("stream not yet moved");
            q.push_back(Job { stream, plan, t0, ctx, queue_span, request_span });
            state.m.queue_depth.set(q.len() as u64);
        }
    }
    match rejected {
        None => state.queue_cv.notify_one(),
        Some(mut stream) => {
            state.m.shed.inc();
            span::point(FlightKind::Shed, 0);
            trigger_flight_dump(state, "queue_saturation");
            respond_error(&mut stream, 503, "run queue full, request shed");
            queue_span.end(0);
            request_span.end(0);
        }
    }
}

/// Worker thread: pop jobs until the queue is drained *and* shutdown was
/// requested.
fn worker_loop(state: &Arc<State>) {
    loop {
        let job = {
            let mut q = relock(&state.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    state.m.queue_depth.set(q.len() as u64);
                    break Some(job);
                }
                if state.shutting_down() {
                    break None;
                }
                q = state.queue_cv.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(mut job) = job else { return };
        // Resume the request's trace context on this side of the queue and
        // close its queue-wait span with the wait in microseconds.
        let _ctx = span::resume(job.ctx);
        job.queue_span.end(elapsed_us(job.t0));
        // A panicking job — injected or real — must cost only its own
        // connection, never a pool thread: an uncaught panic here would
        // silently shrink the pool until the queue deadlocks.
        let served = catch_unwind(AssertUnwindSafe(|| {
            if tdo_fault::fire(Site::ServerWorkerPanic).is_some() {
                panic!("injected worker panic");
            }
            serve_run(state, &mut job.stream, &job.plan, job.t0);
        }));
        if served.is_err() {
            trigger_flight_dump(state, "worker_panic");
        }
        job.request_span.end(elapsed_us(job.t0));
    }
}

/// Runs a parsed plan on a worker, every cell through
/// [`Runner::resolve`], and writes the response. The first failing cell
/// fails the whole request.
fn serve_run(state: &Arc<State>, stream: &mut TcpStream, plan: &RunPlan, t0: Instant) {
    let trace = span::current().trace;
    let mut coalesced = false;
    let results: Result<Vec<_>, String> = plan
        .cells
        .iter()
        .map(|p| {
            let (r, joined) = state.runner.resolve(&p.cell, p.key)?;
            coalesced = joined;
            Ok(r)
        })
        .collect();
    // Latency covers read → queue wait → simulate; observed before the
    // response is written so a follow-up scrape always sees the sample.
    let us = elapsed_us(t0);
    state.m.lat_run.observe_with_exemplar(us, trace);
    if state.slo_us > 0 && us > state.slo_us {
        trigger_flight_dump(state, "slo_breach");
    }
    match results {
        Ok(results) => {
            state.m.run_ok.inc();
            let _ = write_response(stream, 200, &run_json(plan, &results, coalesced));
        }
        Err(msg) => {
            state.m.run_failed.inc();
            respond_error(stream, 500, &msg);
        }
    }
}

/// Upper bound on cells per batch request — bounds worker time and
/// response size per connection (the body size cap bounds the wire side).
pub const MAX_BATCH_CELLS: usize = 64;

/// A parsed, validated `/run` request: its cells in request order, and
/// whether it came in the batch form (which only picks the response
/// shape).
struct RunPlan {
    cells: Vec<PlannedCell>,
    batch: bool,
}

/// One validated `/run` cell with the arm its response names, and its
/// [`cell_key`], computed once here for the runner's cell table and the
/// store.
struct PlannedCell {
    cell: Cell,
    arm: PrefetchSetup,
    key: u64,
}

/// Decodes and validates a `/run` body into a [`RunPlan`].
fn parse_run_plan(body: &str) -> Result<RunPlan, String> {
    let RunBody { cells, batch } =
        parse_run_body(body).map_err(|e| format!("bad JSON body: {e}"))?;
    if cells.len() > MAX_BATCH_CELLS {
        return Err(format!("batch too large: {} cells (max {MAX_BATCH_CELLS})", cells.len()));
    }
    let cells = cells.into_iter().map(cell_from_pairs).collect::<Result<_, _>>()?;
    Ok(RunPlan { cells, batch })
}

/// Decodes one flat cell-spec object into an experiment cell.
///
/// Accepted keys: `workload` (required), `arm` (default `sr`), `scale`
/// (`test`|`full`, default `test`), `insts` (optional measured-instruction
/// override, at most the paper's full-scale window).
fn cell_from_pairs(pairs: Vec<(String, Value)>) -> Result<PlannedCell, String> {
    let mut workload: Option<String> = None;
    let mut arm = PrefetchSetup::SwSelfRepair;
    let mut scale = Scale::Test;
    let mut insts: Option<u64> = None;
    for (key, value) in pairs {
        match key.as_str() {
            "workload" => {
                workload = Some(value.as_str().ok_or("`workload` must be a string")?.to_string());
            }
            "arm" => {
                let name = value.as_str().ok_or("`arm` must be a string")?;
                arm = PrefetchSetup::from_cli_name(name)
                    .ok_or_else(|| format!("unknown arm `{name}`"))?;
            }
            "scale" => {
                scale = match value.as_str().ok_or("`scale` must be a string")? {
                    "test" => Scale::Test,
                    "full" => Scale::Full,
                    other => return Err(format!("unknown scale `{other}`")),
                };
            }
            "insts" => {
                insts = Some(value.as_u64().ok_or("`insts` must be an integer")?);
            }
            other => return Err(format!("unknown key `{other}`")),
        }
    }
    let workload = workload.ok_or("missing required key `workload`")?;
    // Authoritative check against the builder's table, not `names()`:
    // extension workloads outside the paper suite (e.g. `phaseshift`) are
    // servable. Nothing is built here.
    if !is_known(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let mut cfg = match scale {
        Scale::Test => SimConfig::test(arm),
        Scale::Full => SimConfig::paper(arm),
    };
    if let Some(n) = insts {
        // Bounded so one request cannot pin a worker indefinitely (full
        // scale runs with no cycle cap).
        let max = SimConfig::paper(arm).measure_insts;
        if n > max {
            return Err(format!("`insts` {n} exceeds the full-scale window of {max}"));
        }
        cfg.measure_insts = n;
    }
    let cell = Cell::new(workload, scale, cfg);
    Ok(PlannedCell { key: cell_key(&cell), cell, arm })
}

/// The `/run` response body: the one cell's result object, or
/// `{"results":[…]}` in request order for a batch (whose entries always
/// read `"coalesced":0`).
fn run_json(plan: &RunPlan, results: &[Arc<SimResult>], coalesced: bool) -> String {
    if !plan.batch {
        let p = &plan.cells[0];
        return result_json(&p.cell, p.arm, &results[0], coalesced);
    }
    let bodies: Vec<String> = plan
        .cells
        .iter()
        .zip(results)
        .map(|(p, r)| result_json(&p.cell, p.arm, r, false))
        .collect();
    format!("{{\"results\":[{}]}}", bodies.join(","))
}

/// The integer-only `/run` response body.
fn result_json(cell: &Cell, arm: PrefetchSetup, r: &SimResult, coalesced: bool) -> String {
    format!(
        "{{\"workload\":\"{}\",\"arm\":\"{}\",\"scale\":\"{}\",\"coalesced\":{},\
         \"cycles\":{},\"orig_insts\":{},\"helper_active_cycles\":{},\"helper_committed\":{},\
         \"traces_installed\":{},\"reoptimizations\":{},\"backouts\":{},\
         \"events_queued\":{},\"events_dropped_saturated\":{},\"events_dropped_duplicate\":{},\
         \"insertions\":{},\"prefetches_inserted\":{},\"repairs\":{},\
         \"distance_up\":{},\"distance_down\":{},\"matured\":{},\
         \"sw_prefetch_issued\":{},\"sw_prefetch_redundant\":{},\"sw_prefetch_dropped\":{},\
         \"halted\":{}}}",
        escape(&cell.workload),
        arm.cli_name(),
        if cell.scale == Scale::Full { "full" } else { "test" },
        u8::from(coalesced),
        r.cycles,
        r.orig_insts,
        r.helper_active_cycles,
        r.helper_committed,
        r.trident.traces_installed,
        r.trident.reoptimizations,
        r.trident.backouts,
        r.trident.events_queued,
        r.trident.events_dropped_saturated,
        r.trident.events_dropped_duplicate,
        r.optimizer.insertions,
        r.optimizer.prefetches_inserted,
        r.optimizer.repairs,
        r.optimizer.distance_up,
        r.optimizer.distance_down,
        r.optimizer.matured,
        r.mem.sw_prefetch_issued,
        r.mem.sw_prefetch_redundant,
        r.mem.sw_prefetch_dropped,
        r.halted,
    )
}

/// The `GET /metrics` body: request counters, pool/queue gauges and the
/// engine's store counters, all integers.
fn metrics_json(state: &Arc<State>) -> String {
    let m = &state.m;
    let t = &m.table;
    let runs_started = t.flights_started.get();
    let runs_finished = t.flights_finished.get();
    let store = state.runner.store().map(|s| s.stats());
    let store_json = match &store {
        Some(s) => format!(
            ",\"store\":{{\"live_records\":{},\"shadowed_records\":{},\"log_bytes\":{},\
             \"quarantine_bytes\":{},\"quarantined\":{},\"hits\":{},\"misses\":{},\"puts\":{}}}",
            s.live_records,
            s.shadowed_records,
            s.log_bytes,
            s.quarantine_bytes,
            s.quarantined,
            s.hits,
            s.misses,
            s.puts
        ),
        None => String::new(),
    };
    format!(
        "{{\"requests\":{},\"health\":{},\"metrics\":{},\"workloads\":{},\
         \"run_requests\":{},\"run_ok\":{},\"run_rejected\":{},\"run_failed\":{},\
         \"coalesced\":{},\"shed\":{},\"bad_requests\":{},\"not_found\":{},\
         \"runs_started\":{},\"runs_finished\":{},\"runs_inflight\":{},\
         \"queue_depth\":{},\"queue_cap\":{},\
         \"batch_requests\":{},\"batch_cells\":{},\
         \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\
         \"cache_entries\":{},\"shards\":{},\"admission_degraded\":{},\
         \"sims\":{},\"store_hits\":{},\"store_misses\":{},\"cells_cached\":{},\
         \"events_queued\":{},\"events_dropped_saturated\":{},\
         \"events_dropped_duplicate\":{}{store_json}}}",
        m.requests.get(),
        m.health.get(),
        m.metrics.get(),
        m.workloads.get(),
        m.run_requests.get(),
        m.run_ok.get(),
        m.run_rejected.get(),
        m.run_failed.get(),
        t.joined.get(),
        m.shed.get(),
        m.bad_requests_total(),
        m.not_found.get(),
        runs_started,
        runs_finished,
        runs_started.saturating_sub(runs_finished),
        m.queue_depth.get(),
        state.queue_cap,
        m.batch_requests.get(),
        m.batch_cells.get(),
        t.hits.get(),
        t.misses.get(),
        t.evictions.get(),
        t.entries.get(),
        m.shards.get(),
        m.admission_degraded.get(),
        state.runner.sims_run(),
        state.runner.store_hits(),
        state.runner.store_misses(),
        state.runner.cells_cached(),
        state.runner.events_queued(),
        state.runner.events_dropped().0,
        state.runner.events_dropped().1,
    )
}

/// The `GET /metrics?format=prom` body: the whole registry in Prometheus
/// text exposition.
fn metrics_prom(state: &Arc<State>) -> String {
    state.registry.render_prom()
}

/// The precomputed `GET /workloads` body.
fn workloads_json() -> String {
    let mut out = String::from("{\"workloads\":[");
    for (i, name) in names().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let description =
            build(name, Scale::Test).map(|w| w.description.to_string()).unwrap_or_default();
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"description\":\"{}\"}}",
            escape(name),
            escape(&description)
        ));
    }
    out.push_str("]}");
    out
}

fn respond_error(stream: &mut TcpStream, status: u16, msg: &str) {
    let body = format!("{{\"error\":\"{}\"}}", escape(msg));
    let _ = write_response(stream, status, &body);
}
