//! The serving workload, `serve-mix`.
//!
//! An in-process `tdo_server::Server` (4 store shards, a 256-cell result
//! LRU, 2 workers, a 16-deep queue) on an ephemeral loopback port, over a
//! fresh store directory that is removed afterwards. Set-up binds it and
//! warms the hot cell set. Two client threads then drive it as a closed
//! loop (each sends its next request 1 ms after the previous reply) with
//! a seeded replay of the `tdo loadgen` mix `hot:80,batch:10,cold:5,
//! slow:5`, until the time budget is spent. Every thread of the workload
//! runs on one CPU (see [`crate::affinity`]).
//!
//! Latency is timed per request from the first connect to the full
//! response, retries included; a request that never gets a 200 counts as
//! failed with infinite latency. Percentiles are exact ranks over the raw
//! samples. After the timed phase every 200 body is compared with an
//! in-process simulation of the same cells.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tdo_rand::{Rng, Zipf};
use tdo_server::{Server, ServerConfig, ServerHandle};
use tdo_sim::{run_profiled, Machine, PrefetchSetup, SimConfig, SimResult};
use tdo_workloads::{build, names, Scale, Workload};

use crate::affinity;
use crate::report::Outcome;
use crate::sim::SimLayers;
use crate::stats::{self, fnv1a64, mean, median, quantile};
use crate::Opts;

/// Request classes and their weights: `tdo loadgen`'s default mix, pinned
/// here so the benchmark's traffic cannot drift with the program.
const MIX: [(Class, u64); 4] =
    [(Class::Hot, 80), (Class::Batch, 10), (Class::Cold, 5), (Class::Slow, 5)];
/// The plan follows the mix exactly in every block of this many
/// consecutive requests, in a seeded order within the block. The cold and
/// slow requests set the tail and the simulation rate, so their count in
/// a run then depends on the run's length and not on the seed.
const MIX_BLOCK: u64 = 20;
/// Arms of the hot universe (every suite program under each).
const HOT_ARMS: [&str; 4] = ["sr", "nl", "delta", "hw8x8"];
/// Measured instructions of hot, batch and slow cells.
const HOT_INSTS: u64 = 2_000;
/// Cold cells draw `insts` from `COLD_INSTS_BASE + [0, COLD_UNIVERSE)`.
const COLD_INSTS_BASE: u64 = 3_000;
const COLD_UNIVERSE: u64 = 4_096;
/// Cells per batch request.
const BATCH_CELLS: usize = 4;
/// Zipf exponent of the hot-key skew.
const ZIPF_S: f64 = 1.1;
/// Requests covered by the printed plan digest.
const PLAN_DIGEST_LEN: u64 = 4_096;

/// Closed-loop client connections (one request in flight on each).
pub const CLIENTS: usize = 2;
/// Pause between a reply and the client's next request, as for a client
/// across a network. A loopback client that reconnects at once races the
/// accept thread back to `accept()`, tens of µs either way: the share of
/// requests that won and skipped the accept loop's 20 ms poll swung
/// between about 35% and 50% from run to run, which put the median round
/// trip on the edge between the two modes, and a slower hit path would
/// have lowered it. With the pause a hit waits for the poll unless the
/// accept thread is still busy with the other client.
const THINK: Duration = Duration::from_millis(1);
/// Attempts per request before it counts as lost.
const MAX_ATTEMPTS: u32 = 240;
/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// The traffic classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Zipf-skewed single cells: LRU hits on the accept thread.
    Hot,
    /// Four zipf-skewed cells in one `{"cells":[…]}` body.
    Batch,
    /// Near-unique cells: a simulation and a store write each.
    Cold,
    /// Hot cells sent by a slowloris client.
    Slow,
}

impl Class {
    const ALL: [Class; 4] = [Class::Hot, Class::Batch, Class::Cold, Class::Slow];

    fn name(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::Batch => "batch",
            Class::Cold => "cold",
            Class::Slow => "slow",
        }
    }
}

/// One cell a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellSpec {
    /// Workload program.
    pub workload: &'static str,
    /// Arm short name.
    pub arm: &'static str,
    /// Measured-instruction override.
    pub insts: u64,
}

impl CellSpec {
    fn body(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"arm\":\"{}\",\"scale\":\"test\",\"insts\":{}}}",
            self.workload, self.arm, self.insts
        )
    }
}

/// One planned request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Planned {
    /// Traffic class.
    pub class: Class,
    /// Cells asked for: one, or [`BATCH_CELLS`] for a batch.
    pub cells: Vec<CellSpec>,
}

impl Planned {
    /// The exact `POST /run` body.
    #[must_use]
    pub fn body(&self) -> String {
        if self.class == Class::Batch {
            let cells: Vec<String> = self.cells.iter().map(CellSpec::body).collect();
            format!("{{\"cells\":[{}]}}", cells.join(","))
        } else {
            self.cells[0].body()
        }
    }
}

/// The hot universe, rank-ordered so zipf rank 0 is the hottest cell.
fn hot_universe() -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for &workload in names() {
        for arm in HOT_ARMS {
            cells.push(CellSpec { workload, arm, insts: HOT_INSTS });
        }
    }
    cells
}

/// The seeded request plan: request `i` is a pure function of `(seed, i)`.
pub struct RequestPlan {
    seed: u64,
    universe: Vec<CellSpec>,
    zipf: Zipf,
}

impl RequestPlan {
    /// The plan for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> RequestPlan {
        let universe = hot_universe();
        let zipf = Zipf::new(universe.len(), ZIPF_S);
        RequestPlan { seed, universe, zipf }
    }

    /// Request number `i`.
    #[must_use]
    pub fn request(&self, i: u64) -> Planned {
        let total: u64 = MIX.iter().map(|&(_, w)| w).sum();
        let mut block: Vec<Class> = MIX
            .iter()
            .flat_map(|&(c, w)| std::iter::repeat_n(c, (w * MIX_BLOCK / total) as usize))
            .collect();
        let block_no = i / MIX_BLOCK;
        Rng::new(self.seed ^ !(block_no + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .shuffle(&mut block);
        let class = block[(i % MIX_BLOCK) as usize];
        let mut rng = Rng::new(self.seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let hot = |rng: &mut Rng| self.universe[self.zipf.sample(rng)];
        let cells = match class {
            Class::Hot | Class::Slow => vec![hot(&mut rng)],
            Class::Batch => (0..BATCH_CELLS).map(|_| hot(&mut rng)).collect(),
            Class::Cold => {
                let workload = self.universe[rng.gen_index(self.universe.len())].workload;
                let insts = COLD_INSTS_BASE + rng.gen_range(0..COLD_UNIVERSE);
                vec![CellSpec { workload, arm: "sr", insts }]
            }
        };
        Planned { class, cells }
    }

    /// Digest of the bodies of the first [`PLAN_DIGEST_LEN`] requests.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let text: String = (0..PLAN_DIGEST_LEN).map(|i| self.request(i).body() + "\n").collect();
        fnv1a64(text.as_bytes())
    }
}

/// Client-side timestamps of one attempt, in µs from its connect call.
#[derive(Clone, Copy, Debug, Default)]
struct Spans {
    connect_us: f64,
    write_us: f64,
    first_byte_us: f64,
    complete_us: f64,
}

/// One answered attempt.
struct Reply {
    status: u16,
    body: String,
    trace: Option<u64>,
    spans: Spans,
}

/// The trimmed value of response header `name` (case-insensitive).
fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().find_map(|line| {
        let (n, value) = line.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| value.trim())
    })
}

/// One request/response exchange on a fresh connection. A slowloris
/// client sends the head and the two body halves with pauses between.
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    slow: bool,
) -> io::Result<Reply> {
    let t0 = Instant::now();
    let us = |t: Instant| t.duration_since(t0).as_secs_f64() * 1e6;
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    let connected = Instant::now();
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    if slow {
        stream.write_all(head.as_bytes())?;
        let split = body.len() / 2;
        for part in [&body[..split], &body[split..]] {
            std::thread::sleep(Duration::from_millis(2));
            stream.write_all(part.as_bytes())?;
        }
    } else {
        stream.write_all((head + body).as_bytes())?;
    }
    let written = Instant::now();
    // The response is complete at `Content-Length` body bytes; the
    // client does not wait for the server to close the connection.
    let mut raw = Vec::with_capacity(1024);
    let mut buf = [0u8; 4096];
    let mut first_byte = None;
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let (head_len, body_len) = loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(bad("connection closed before the full response"));
        }
        first_byte.get_or_insert_with(Instant::now);
        raw.extend_from_slice(&buf[..n]);
        let Some(end) = raw.windows(4).position(|w| w == b"\r\n\r\n") else { continue };
        let head = std::str::from_utf8(&raw[..end]).map_err(|_| bad("non-UTF-8 head"))?;
        let len = header(head, "content-length")
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| bad("no Content-Length"))?;
        if raw.len() >= end + 4 + len {
            break (end, len);
        }
    };
    let done = Instant::now();
    let head = std::str::from_utf8(&raw[..head_len]).map_err(|_| bad("non-UTF-8 head"))?;
    let body = std::str::from_utf8(&raw[head_len + 4..head_len + 4 + body_len])
        .map_err(|_| bad("non-UTF-8 body"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let trace = header(head, "x-tdo-trace").and_then(|v| u64::from_str_radix(v, 16).ok());
    Ok(Reply {
        status,
        body: body.to_string(),
        trace,
        spans: Spans {
            connect_us: us(connected),
            write_us: us(written),
            first_byte_us: first_byte.map_or(us(done), us),
            complete_us: us(done),
        },
    })
}

/// One request's outcome.
struct Sample {
    index: u64,
    class: Class,
    /// Round trip including retries; infinite when no 200 arrived.
    rtt_us: f64,
    /// FNV of the normalized 200 body.
    body_hash: Option<u64>,
    retries: u32,
    /// The answered attempt's trace id and spans.
    answered: Option<(u64, Spans)>,
}

/// Sends planned request `index` until it is answered 200, it gets a final
/// non-200 answer, or the attempt budget runs out. Sheds (503) and
/// transport errors are retried with a growing back-off.
fn send(addr: SocketAddr, index: u64, planned: &Planned) -> Sample {
    let body = planned.body();
    let t0 = Instant::now();
    let mut sample = Sample {
        index,
        class: planned.class,
        rtt_us: f64::INFINITY,
        body_hash: None,
        retries: 0,
        answered: None,
    };
    for attempt in 0..MAX_ATTEMPTS {
        match exchange(addr, "POST", "/run", &body, planned.class == Class::Slow) {
            Ok(r) if r.status == 200 => {
                sample.rtt_us = t0.elapsed().as_secs_f64() * 1e6;
                sample.body_hash = Some(fnv1a64(normalize(&r.body).as_bytes()));
                sample.answered = Some((r.trace.unwrap_or(0), r.spans));
                return sample;
            }
            Ok(r) if r.status != 503 => return sample,
            _ => sample.retries += 1,
        }
        std::thread::sleep(Duration::from_millis(u64::from(attempt.min(20)) + 1));
    }
    sample
}

/// Collapses the timing-dependent `coalesced` flag.
fn normalize(body: &str) -> String {
    body.replace("\"coalesced\":1", "\"coalesced\":0")
}

/// A running in-process server on a fresh store.
struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<io::Result<()>>,
    store: PathBuf,
}

impl Running {
    /// Binds a server in the benchmark layout over an empty store at
    /// `store`.
    fn start(store: PathBuf) -> io::Result<Running> {
        let _ = std::fs::remove_dir_all(&store);
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 16,
            store_dir: Some(store.display().to_string()),
            shards: 4,
            cache: 256,
            ..ServerConfig::default()
        };
        let server = Server::bind(&cfg)?;
        let addr = server.local_addr()?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Running { addr, handle, thread, store })
    }

    /// Shuts the server down, joins it and removes its store.
    fn stop(self) -> io::Result<()> {
        self.handle.shutdown();
        let served = self.thread.join().map_err(|_| io::Error::other("server thread panicked"))?;
        let _ = std::fs::remove_dir_all(&self.store);
        served
    }
}

/// Warms the hot cell set: every hot-universe cell once, split over the
/// client threads.
fn warm(server: &Running) -> io::Result<()> {
    let universe = hot_universe();
    std::thread::scope(|scope| {
        let workers: Vec<_> = universe
            .chunks(universe.len().div_ceil(CLIENTS))
            .map(|chunk| {
                scope.spawn(move || -> io::Result<()> {
                    for cell in chunk {
                        let planned = Planned { class: Class::Hot, cells: vec![*cell] };
                        if send(server.addr, 0, &planned).body_hash.is_none() {
                            return Err(io::Error::other(format!("warm-up of {cell:?} failed")));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        workers.into_iter().try_for_each(|w| w.join().expect("warm-up thread"))
    })
}

/// Set-up, `reps` times: bind on a fresh store and warm the hot cells.
/// Returns the last server, still running, and the median time.
fn setup(tmp: &Path, reps: usize) -> io::Result<(Running, f64)> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        if let Some(prev) = last.take() {
            Running::stop(prev)?;
        }
        let store = tmp.join(format!("serve-store-{}-{rep}", std::process::id()));
        let t0 = Instant::now();
        let running = Running::start(store)?;
        if let Err(e) = warm(&running) {
            let _ = running.stop();
            return Err(e);
        }
        times.push(t0.elapsed().as_secs_f64());
        last = Some(running);
    }
    Ok((last.expect("at least one set-up"), median(&times).expect("set-up timed")))
}

/// The timed closed loop: [`CLIENTS`] threads replay the plan from request
/// 0 until `budget` is spent. Returns the samples in plan order and the
/// phase's wall time.
fn timed_phase(server: &Running, plan: &RequestPlan, budget: Duration) -> (Vec<Sample>, f64) {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    while start.elapsed() < budget {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        local.push(send(server.addr, i, &plan.request(i)));
                        std::thread::sleep(THINK);
                    }
                    local
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    samples.sort_by_key(|s| s.index);
    (samples, wall)
}

/// The integer-only `/run` body the server renders for one cell; mirrors
/// the server's private renderer so a served body can be checked byte for
/// byte.
fn result_json(cell: &CellSpec, r: &SimResult) -> String {
    format!(
        "{{\"workload\":\"{}\",\"arm\":\"{}\",\"scale\":\"test\",\"coalesced\":0,\
         \"cycles\":{},\"orig_insts\":{},\"helper_active_cycles\":{},\"helper_committed\":{},\
         \"traces_installed\":{},\"reoptimizations\":{},\"backouts\":{},\
         \"events_queued\":{},\"events_dropped_saturated\":{},\"events_dropped_duplicate\":{},\
         \"insertions\":{},\"prefetches_inserted\":{},\"repairs\":{},\
         \"distance_up\":{},\"distance_down\":{},\"matured\":{},\
         \"sw_prefetch_issued\":{},\"sw_prefetch_redundant\":{},\"sw_prefetch_dropped\":{},\
         \"halted\":{}}}",
        cell.workload,
        cell.arm,
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

/// In-process reference simulations of the cells the server answers for.
struct Reference {
    workloads: HashMap<&'static str, Workload>,
    /// Expected body and measured-window instructions per cell.
    cells: HashMap<CellSpec, (String, u64)>,
    /// Profile every distinct cell once (the traced pass).
    traced: bool,
    layers: SimLayers,
}

impl Reference {
    fn new(traced: bool) -> Reference {
        Reference {
            workloads: HashMap::new(),
            cells: HashMap::new(),
            traced,
            layers: SimLayers::default(),
        }
    }

    /// The expected body of `cell` and its measured-window instructions,
    /// simulated on first use as the server would (`SimConfig::test` with
    /// the `insts` override).
    fn cell(&mut self, cell: &CellSpec) -> &(String, u64) {
        if !self.cells.contains_key(cell) {
            let t0 = Instant::now();
            let w = self.workloads.entry(cell.workload).or_insert_with(|| {
                build(cell.workload, Scale::Test).expect("suite program builds")
            });
            let t1 = Instant::now();
            let setup = PrefetchSetup::from_cli_name(cell.arm).expect("known arm");
            let mut cfg = SimConfig::test(setup);
            cfg.measure_insts = cell.insts;
            let m = Machine::new(w, cfg.clone());
            let t2 = Instant::now();
            let r = m.run();
            if self.traced {
                let untraced = t2.elapsed();
                self.layers.build_ns += u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX);
                self.layers.machine_new_ns +=
                    u64::try_from((t2 - t1).as_nanos()).unwrap_or(u64::MAX);
                let (rt, profile) = run_profiled(w, &cfg);
                self.layers.add(&rt, &profile, untraced);
            }
            self.cells.insert(*cell, (result_json(cell, &r), r.orig_insts));
        }
        &self.cells[cell]
    }

    /// The expected normalized body of a whole request and the
    /// measured-window instructions its results cover.
    fn request(&mut self, planned: &Planned) -> (String, u64) {
        if planned.class == Class::Batch {
            let (mut parts, mut insts) = (Vec::with_capacity(planned.cells.len()), 0);
            for c in &planned.cells {
                let (body, n) = self.cell(c);
                parts.push(body.clone());
                insts += n;
            }
            (format!("{{\"results\":[{}]}}", parts.join(",")), insts)
        } else {
            self.cell(&planned.cells[0]).clone()
        }
    }
}

/// What the server simulated during a timed phase: the distinct cold
/// cells it answered correctly. Hot and batch cells were simulated during
/// set-up and come from the LRU or the store; a repeated cold cell does
/// too.
#[derive(Debug, Default)]
struct Simulated {
    cells: HashSet<CellSpec>,
    insts: u64,
}

/// Checks every sample against the reference: a lost request, a final
/// non-200 answer or a body that differs from the in-process simulation
/// counts as failed. Returns what the server simulated.
fn verify(
    samples: &[Sample],
    plan: &RequestPlan,
    reference: &mut Reference,
    out: &mut Outcome,
) -> Simulated {
    let mut simulated = Simulated::default();
    let mut first_bad = None;
    for s in samples {
        let planned = plan.request(s.index);
        let (body, insts) = reference.request(&planned);
        let ok = s.body_hash == Some(crate::expected(fnv1a64(body.as_bytes())));
        if ok && planned.class == Class::Cold && simulated.cells.insert(planned.cells[0]) {
            simulated.insts += insts;
        }
        if !ok && first_bad.is_none() {
            first_bad = Some(s.index);
        }
        out.op(ok);
    }
    if let Some(i) = first_bad {
        out.note(format!("first failed request: index={i} body={}", plan.request(i).body()));
    }
    simulated
}

/// Summary of one timed phase.
struct Phase {
    samples: Vec<Sample>,
    wall_s: f64,
}

impl Phase {
    fn rtts(&self, class: Option<Class>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(|s| s.rtt_us)
            .collect()
    }

    fn ok(&self) -> usize {
        self.samples.iter().filter(|s| s.body_hash.is_some()).count()
    }

    fn mean_ok_rtt(&self) -> f64 {
        let ok: Vec<f64> =
            self.samples.iter().filter(|s| s.body_hash.is_some()).map(|s| s.rtt_us).collect();
        mean(&ok).unwrap_or(0.0)
    }
}

fn notes_for(out: &mut Outcome, opts: &Opts, plan: &RequestPlan, phase: &Phase, traced: bool) {
    out.note(format!(
        "workload=serve-mix seed={} clients={CLIENTS}{}",
        opts.seed,
        if traced { " traced" } else { "" }
    ));
    out.note(format!("plan_digest={:016x}", plan.digest()));
    let mut served: Vec<String> = phase
        .samples
        .iter()
        .filter_map(|s| s.body_hash.map(|h| format!("{}:{h:016x};", s.index)))
        .collect();
    served.sort_unstable();
    out.note(format!("result_digest={:016x}", fnv1a64(served.concat().as_bytes())));
    for class in Class::ALL {
        let n = phase.samples.iter().filter(|s| s.class == class).count();
        out.note(format!("class={} requests={n}", class.name()));
    }
    out.note(format!(
        "requests={} ok={} wall_s={:.3}",
        phase.samples.len(),
        phase.ok(),
        phase.wall_s
    ));
}

/// Pins the calling thread, and so every thread the workload spawns after
/// it, to one CPU, and returns the line that reports where.
fn pin_note() -> String {
    match affinity::pin_to_first() {
        Some(cpu) => format!("placement: server, workers and clients on cpu {cpu}"),
        None => "placement: unpinned".to_string(),
    }
}

/// The untraced benchmark run: end-to-end metrics.
///
/// # Errors
///
/// Fails when the server cannot be bound or warmed.
pub fn run(opts: &Opts) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    out.note(pin_note());
    let plan = RequestPlan::new(opts.seed);
    let tmp = Path::new(crate::TMP_DIR);
    stats::reset_peak_rss();
    let (server, setup_s) = setup(tmp, SETUP_REPS)?;
    let (samples, wall_s) = timed_phase(&server, &plan, Duration::from_secs_f64(opts.seconds));
    server.stop()?;
    let peak = stats::peak_rss_mib().unwrap_or(0.0);
    let phase = Phase { samples, wall_s };

    let mut reference = Reference::new(false);
    let simulated = verify(&phase.samples, &plan, &mut reference, &mut out);
    notes_for(&mut out, opts, &plan, &phase, false);
    let all = phase.rtts(None);
    out.note(format!("rtt samples n={} (p50 and p99 by exact rank; failed = +inf)", all.len()));
    out.note(format!(
        "checked against {} in-process simulations; the server simulated {} cold cells, {} insts",
        reference.cells.len(),
        simulated.cells.len(),
        simulated.insts
    ));
    out.push("sim_insts_per_s", simulated.insts as f64 / phase.wall_s, "insts/s");
    out.push("rtt_p50_us", quantile(&all, 0.5).unwrap_or(f64::INFINITY), "us");
    out.push("rtt_p99_us", quantile(&all, 0.99).unwrap_or(f64::INFINITY), "us");
    out.push("throughput_rps", phase.ok() as f64 / phase.wall_s, "1/s");
    out.push("setup_s", setup_s, "s");
    out.push("peak_rss_mib", peak, "MiB");
    Ok(out)
}

/// Serving per-layer figures of the traced pass.
#[derive(Debug, Default)]
pub struct ServeLayers {
    values: HashMap<&'static str, f64>,
}

impl ServeLayers {
    /// Reports every serving per-layer metric; one the pass did not set
    /// (no serving happened) reads 0.
    pub fn report(&self, out: &mut Outcome) {
        for (name, unit) in SERVE_LAYER_METRICS {
            out.push(name, self.values.get(name).copied().unwrap_or(0.0), unit);
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(SERVE_LAYER_METRICS.iter().any(|(n, _)| *n == name), "undeclared {name}");
        self.values.insert(name, value);
    }
}

/// Every serving per-layer metric with its unit, in report order.
const SERVE_LAYER_METRICS: [(&str, &str); 19] = [
    ("serve.hot.rtt_p50_us", "us"),
    ("serve.hot.rtt_p99_us", "us"),
    ("serve.batch.rtt_p50_us", "us"),
    ("serve.cold.rtt_p50_us", "us"),
    ("serve.cold.rtt_p99_us", "us"),
    ("serve.slow.rtt_p50_us", "us"),
    ("server.run_us_mean", "us"),
    ("server.outside_span_us_mean", "us"),
    ("client.connect_us_mean", "us"),
    ("client.ttfb_us_mean", "us"),
    ("lru.hit_frac", "ratio"),
    ("sim.cell_us_mean", "us"),
    ("sim.sims", "count"),
    ("store.get_us_mean", "us"),
    ("store.put_us_mean", "us"),
    ("store.puts", "count"),
    ("server.shed", "count"),
    ("client.retries", "count"),
    ("serve.trace_overhead_frac", "ratio"),
];

/// Sum over every series of `metric` whose label block contains `labels`.
fn prom_sum(text: &str, metric: &str, labels: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, rest) = match l.find('{') {
                Some(b) if l[..b] == *metric => {
                    let close = l.find('}')?;
                    (&l[b..=close], &l[close + 1..])
                }
                _ => {
                    let (name, rest) = l.split_once(' ')?;
                    (name == metric).then_some(("", rest))?
                }
            };
            if !series.contains(labels) {
                return None;
            }
            rest.split_whitespace().next()?.parse::<f64>().ok()
        })
        .sum()
}

fn scrape(addr: SocketAddr) -> io::Result<String> {
    let r = exchange(addr, "GET", "/metrics?format=prom", "", false)?;
    if r.status == 200 {
        Ok(r.body)
    } else {
        Err(io::Error::other(format!("metrics scrape answered {}", r.status)))
    }
}

/// The traced pass: one set-up and one timed phase, framed by two
/// `/metrics` scrapes.
///
/// The phase runs exactly as in the untraced run, whose client already
/// takes every span and whose scrapes fall outside the clock, so the pass
/// adds no tracing cost and `serve.trace_overhead_frac` reads 0.
///
/// # Errors
///
/// Fails when the server cannot be bound, warmed or scraped.
pub fn run_traced(opts: &Opts) -> io::Result<(Outcome, SimLayers, ServeLayers)> {
    let mut out = Outcome::default();
    out.note(pin_note());
    let plan = RequestPlan::new(opts.seed);
    let tmp = Path::new(crate::TMP_DIR);

    let (server, _) = setup(tmp, 1)?;
    let before = scrape(server.addr)?;
    let (samples, wall_s) = timed_phase(&server, &plan, Duration::from_secs_f64(opts.seconds));
    let after = scrape(server.addr)?;
    server.stop()?;
    let traced = Phase { samples, wall_s };
    let delta = |metric: &str, labels: &str| {
        prom_sum(&after, metric, labels) - prom_sum(&before, metric, labels)
    };
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };

    let mut reference = Reference::new(true);
    let simulated = verify(&traced.samples, &plan, &mut reference, &mut out);
    notes_for(&mut out, opts, &plan, &traced, true);
    out.note(format!(
        "server sims={} distinct cold cells answered={}",
        delta("tdo_sim_sims_total", ""),
        simulated.cells.len()
    ));

    let mut layers = ServeLayers::default();
    let pct = |class: Class, q: f64, out: &mut Outcome| {
        let xs = traced.rtts(Some(class));
        out.note(format!("serve.{}.rtt_p{:.0}_us n={}", class.name(), q * 100.0, xs.len()));
        quantile(&xs, q).unwrap_or(0.0)
    };
    layers.set("serve.hot.rtt_p50_us", pct(Class::Hot, 0.5, &mut out));
    layers.set("serve.hot.rtt_p99_us", pct(Class::Hot, 0.99, &mut out));
    layers.set("serve.batch.rtt_p50_us", pct(Class::Batch, 0.5, &mut out));
    layers.set("serve.cold.rtt_p50_us", pct(Class::Cold, 0.5, &mut out));
    layers.set("serve.cold.rtt_p99_us", pct(Class::Cold, 0.99, &mut out));
    layers.set("serve.slow.rtt_p50_us", pct(Class::Slow, 0.5, &mut out));
    let run_label = "endpoint=\"run\"";
    let run_us_mean = ratio(
        delta("tdo_server_request_latency_us_sum", run_label),
        delta("tdo_server_request_latency_us_count", run_label),
    );
    layers.set("server.run_us_mean", run_us_mean);
    layers.set("server.outside_span_us_mean", traced.mean_ok_rtt() - run_us_mean);
    let spans: BTreeMap<u64, Spans> = traced.samples.iter().filter_map(|s| s.answered).collect();
    let span_mean =
        |f: fn(&Spans) -> f64| mean(&spans.values().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    layers.set("client.connect_us_mean", span_mean(|s| s.connect_us));
    layers.set("client.ttfb_us_mean", span_mean(|s| s.first_byte_us));
    out.note(format!(
        "client spans: n={} write_us_mean={:.1} complete_us_mean={:.1}",
        spans.len(),
        span_mean(|s| s.write_us),
        span_mean(|s| s.complete_us)
    ));
    let hits = delta("tdo_server_cache_hits_total", "");
    let misses = delta("tdo_server_cache_misses_total", "");
    layers.set("lru.hit_frac", ratio(hits, hits + misses));
    layers.set(
        "sim.cell_us_mean",
        ratio(delta("tdo_sim_cell_wall_us_sum", ""), delta("tdo_sim_cell_wall_us_count", "")),
    );
    layers.set("sim.sims", delta("tdo_sim_sims_total", ""));
    layers.set(
        "store.get_us_mean",
        ratio(
            delta("tdo_store_get_latency_us_sum", ""),
            delta("tdo_store_get_latency_us_count", ""),
        ),
    );
    layers.set(
        "store.put_us_mean",
        ratio(
            delta("tdo_store_put_latency_us_sum", ""),
            delta("tdo_store_put_latency_us_count", ""),
        ),
    );
    layers.set("store.puts", delta("tdo_store_puts_total", ""));
    layers.set("server.shed", delta("tdo_server_shed_total", ""));
    layers.set("client.retries", traced.samples.iter().map(|s| f64::from(s.retries)).sum());
    out.note("serve.trace_overhead_frac: the serve pass turns on no tracing".to_string());
    layers.set("serve.trace_overhead_frac", 0.0);
    Ok((out, reference.layers, layers))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_always_yields_the_same_request_plan() {
        let (a, b) = (RequestPlan::new(7), RequestPlan::new(7));
        for i in 0..500 {
            assert_eq!(a.request(i), b.request(i));
        }
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), RequestPlan::new(8).digest(), "the seed steers the plan");
    }

    #[test]
    fn every_block_of_the_plan_follows_the_mix_exactly() {
        let plan = RequestPlan::new(42);
        let total: u64 = MIX.iter().map(|&(_, w)| w).sum();
        let mut orders = HashSet::new();
        for block in 0..200 {
            let mut counts = HashMap::new();
            let mut order = Vec::new();
            for i in block * MIX_BLOCK..(block + 1) * MIX_BLOCK {
                let r = plan.request(i);
                *counts.entry(r.class).or_insert(0u64) += 1;
                order.push(r.class);
                let want = if r.class == Class::Batch { BATCH_CELLS } else { 1 };
                assert_eq!(r.cells.len(), want);
            }
            for (class, w) in MIX {
                assert_eq!(counts[&class], w * MIX_BLOCK / total, "block {block}: {counts:?}");
            }
            orders.insert(order);
        }
        assert!(orders.len() > 100, "the order within a block is seeded");
    }

    #[test]
    fn prom_sums_filter_by_metric_and_labels() {
        let text = "# HELP x y\n\
                    tdo_store_puts_total{shard=\"0\"} 3\n\
                    tdo_store_puts_total{shard=\"1\"} 4\n\
                    tdo_server_request_latency_us_sum{endpoint=\"run\"} 90\n\
                    tdo_server_request_latency_us_sum{endpoint=\"health\"} 5\n\
                    tdo_server_shed_total 2\n\
                    tdo_server_request_latency_us_bucket{endpoint=\"run\",le=\"1\"} 1 # {trace_id=\"ab\"} 1\n";
        assert_eq!(prom_sum(text, "tdo_store_puts_total", ""), 7.0);
        assert_eq!(prom_sum(text, "tdo_server_request_latency_us_sum", "endpoint=\"run\""), 90.0);
        assert_eq!(prom_sum(text, "tdo_server_shed_total", ""), 2.0);
        assert_eq!(prom_sum(text, "tdo_server_shed", ""), 0.0);
    }

    #[test]
    fn the_expected_body_matches_the_server_rendering_shape() {
        let cell = CellSpec { workload: "mcf", arm: "sr", insts: 2_000 };
        let w = build("mcf", Scale::Test).unwrap();
        let mut cfg = SimConfig::test(PrefetchSetup::SwSelfRepair);
        cfg.measure_insts = 2_000;
        let body = result_json(&cell, &tdo_sim::run(&w, &cfg));
        assert!(body.starts_with(
            "{\"workload\":\"mcf\",\"arm\":\"sr\",\"scale\":\"test\",\"coalesced\":0,"
        ));
        assert_eq!(normalize(&body.replace("\"coalesced\":0", "\"coalesced\":1")), body);
    }
}
