//! `tdo loadgen` — the seeded traffic generator for the serving tier.
//!
//! Replays a deterministic request mix against a running `tdo serve`
//! daemon and reports, in two cleanly separated sections:
//!
//! * a **seed-pure section** — the mix plan, per-class request counts,
//!   `ok`/`lost` totals and a digest over every `(request, normalized
//!   response)` pair. Every byte of this section is a pure function of
//!   `(seed, mix, count)`: two runs with the same knobs — at any `--jobs`
//!   level — must produce identical bytes, which CI enforces with `cmp`.
//! * a **`wall_*` section** — round-trip latency percentiles (via the
//!   shared [`tdo_metrics::Histogram`]), retry counts and server-scraped
//!   cache statistics. These depend on the host clock and scheduling and
//!   are stripped before any byte comparison.
//!
//! The mix grammar is `class:weight[,class:weight…]` over four classes:
//!
//! * `hot` — single-cell `/run` POSTs zipf-skewed over a small universe
//!   (~56 cells), exercising the hot-result LRU;
//! * `batch` — `{"cells":[…]}` POSTs of [`BATCH_CELLS`] zipf-sampled
//!   cells, exercising batch coalescing;
//! * `cold` — near-unique cells (distinct `insts` overrides) sweeping
//!   past the cache into the sharded store;
//! * `slow` — hot cells delivered by a slowloris client that dribbles
//!   the request bytes (the client-side twin of the server's
//!   `server_slow_client` fault site).
//!
//! A shed (503) or transport error is retried with backoff until the
//! request succeeds or the attempt budget runs out; only an exhausted
//! budget counts as `lost`. The acceptance bar is `lost=0`: under
//! admission control the tier sheds, it never loses an acked request.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::net::{TcpStream, ToSocketAddrs as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tdo_metrics::Histogram;
use tdo_obs::json::{self, Value};
use tdo_rand::{fnv1a64, Rng, Zipf};
use tdo_server::client::{self, Response};
use tdo_workloads::names;

/// Arms the hot universe spans (small, so the working set stays cacheable).
const HOT_ARMS: [&str; 4] = ["sr", "nl", "delta", "hw8x8"];

/// Measured instructions for hot/batch/slow cells: tiny, so a cache or
/// store miss costs one short simulation.
const HOT_INSTS: u64 = 2_000;

/// Cold cells draw `insts` from `COLD_INSTS_BASE + [0, COLD_UNIVERSE)`:
/// far more distinct fingerprints than any sane cache capacity.
const COLD_INSTS_BASE: u64 = 3_000;
const COLD_UNIVERSE: u64 = 4_096;

/// Cells per batch request.
pub const BATCH_CELLS: usize = 4;

/// Zipf exponent for the hot-key skew.
const ZIPF_S: f64 = 1.1;

/// Attempt budget per request before it counts as lost.
const MAX_ATTEMPTS: u32 = 240;

/// The default mix: mostly hot singles, some batches, a cold sweep and a
/// slowloris trickle.
pub const DEFAULT_MIX: &str = "hot:80,batch:10,cold:5,slow:5";

/// The four traffic classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Zipf-skewed single-cell requests.
    Hot,
    /// Multi-cell `{"cells":[…]}` requests.
    Batch,
    /// Near-unique cache-busting requests.
    Cold,
    /// Hot requests delivered by a slowloris client.
    Slow,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::Batch => "batch",
            Class::Cold => "cold",
            Class::Slow => "slow",
        }
    }
}

/// Options for one `tdo loadgen` invocation.
#[derive(Clone, Debug)]
pub struct LoadgenOpts {
    /// The daemon to drive (`host:port`).
    pub addr: String,
    /// Seed the whole request plan derives from.
    pub seed: u64,
    /// Mix grammar: `class:weight[,class:weight…]`.
    pub mix: String,
    /// Requests to send (default one million).
    pub count: u64,
    /// CI-sized run: caps the count at 50 000.
    pub quick: bool,
    /// Concurrent client threads. Report bytes (outside `wall_*`) are
    /// identical for any value.
    pub jobs: usize,
    /// Latency SLO in µs for the `wall_slo` line (0 = off).
    pub slo_us: u64,
}

impl Default for LoadgenOpts {
    fn default() -> LoadgenOpts {
        LoadgenOpts {
            addr: "127.0.0.1:7077".to_string(),
            seed: 1,
            mix: DEFAULT_MIX.to_string(),
            count: 1_000_000,
            quick: false,
            jobs: 4,
            slo_us: 0,
        }
    }
}

impl LoadgenOpts {
    /// The effective request count (`--quick` caps it for CI).
    #[must_use]
    pub fn effective_count(&self) -> u64 {
        if self.quick {
            self.count.min(50_000)
        } else {
            self.count
        }
    }
}

/// Everything one loadgen run produced.
pub struct LoadgenOutcome {
    /// The two-section report (seed-pure lines, then `wall_*` lines).
    pub report: String,
    /// Requests that eventually succeeded.
    pub ok: u64,
    /// Requests that exhausted their attempt budget.
    pub lost: u64,
}

impl LoadgenOutcome {
    /// The acceptance bar: every request answered, none lost.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.lost == 0 && self.ok > 0
    }
}

/// Parses the mix grammar into `(class, weight)` pairs.
///
/// # Errors
///
/// Rejects unknown classes, malformed weights and an all-zero mix.
pub fn parse_mix(text: &str) -> Result<Vec<(Class, u32)>, String> {
    let mut out = Vec::new();
    for part in text.split(',') {
        let (name, weight) = part
            .split_once(':')
            .ok_or_else(|| format!("bad mix term `{part}` (want class:weight)"))?;
        let class = match name.trim() {
            "hot" => Class::Hot,
            "batch" => Class::Batch,
            "cold" => Class::Cold,
            "slow" => Class::Slow,
            other => return Err(format!("unknown mix class `{other}`")),
        };
        let weight: u32 =
            weight.trim().parse().map_err(|_| format!("bad mix weight in `{part}`"))?;
        if out.iter().any(|&(c, _)| c == class) {
            return Err(format!("mix class `{name}` given twice"));
        }
        out.push((class, weight));
    }
    if out.iter().map(|&(_, w)| u64::from(w)).sum::<u64>() == 0 {
        return Err("mix weights sum to zero".to_string());
    }
    Ok(out)
}

/// The hot universe: every suite workload under each arm in [`HOT_ARMS`],
/// rank-ordered so zipf rank 0 is the hottest cell.
fn hot_universe() -> Vec<(&'static str, &'static str)> {
    let mut cells = Vec::new();
    for &workload in names() {
        for arm in HOT_ARMS {
            cells.push((workload, arm));
        }
    }
    cells
}

fn single_body(workload: &str, arm: &str, insts: u64) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"arm\":\"{arm}\",\"scale\":\"test\",\"insts\":{insts}}}"
    )
}

/// One planned request: its class and the exact bytes to POST.
struct Planned {
    class: Class,
    body: String,
}

/// The plan for request `i` — a pure function of `(seed, i, mix)`.
fn plan_request(
    seed: u64,
    i: u64,
    mix: &[(Class, u32)],
    total_weight: u64,
    zipf: &Zipf,
    universe: &[(&'static str, &'static str)],
) -> Planned {
    let mut rng = Rng::new(seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut pick = rng.gen_range(0..total_weight);
    let mut class = mix[0].0;
    for &(c, w) in mix {
        if pick < u64::from(w) {
            class = c;
            break;
        }
        pick -= u64::from(w);
    }
    let body = match class {
        Class::Hot | Class::Slow => {
            let (workload, arm) = universe[zipf.sample(&mut rng)];
            single_body(workload, arm, HOT_INSTS)
        }
        Class::Batch => {
            let cells: Vec<String> = (0..BATCH_CELLS)
                .map(|_| {
                    let (workload, arm) = universe[zipf.sample(&mut rng)];
                    single_body(workload, arm, HOT_INSTS)
                })
                .collect();
            format!("{{\"cells\":[{}]}}", cells.join(","))
        }
        Class::Cold => {
            let (workload, _) = universe[rng.gen_index(universe.len())];
            let insts = COLD_INSTS_BASE + rng.gen_range(0..COLD_UNIVERSE);
            single_body(workload, "sr", insts)
        }
    };
    Planned { class, body }
}

/// Collapses the timing-dependent field so a coalesced and a directly
/// simulated `/run` response digest (and compare) identically.
pub(crate) fn normalize_response(body: &str) -> String {
    body.replace("\"coalesced\":1", "\"coalesced\":0")
}

/// A slowloris POST: the head, then the body dribbled in two writes with
/// pauses in between — the connection is alive but slow, exactly the
/// pathology the server's read deadline has to bound.
fn slow_post(addr: &str, path: &str, body: &str) -> io::Result<Response> {
    let sockaddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    let mut stream = TcpStream::connect_timeout(&sockaddr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()?;
    std::thread::sleep(Duration::from_millis(2));
    let split = body.len() / 2;
    stream.write_all(&body.as_bytes()[..split])?;
    stream.flush()?;
    std::thread::sleep(Duration::from_millis(2));
    stream.write_all(&body.as_bytes()[split..])?;
    stream.flush()?;
    client::read_response(&mut stream)
}

/// Shared tallies the worker threads update.
#[derive(Default)]
struct Tallies {
    ok: AtomicU64,
    lost: AtomicU64,
    shed_retries: AtomicU64,
    transport_retries: AtomicU64,
}

/// Runs the generator against `opts.addr`.
///
/// # Errors
///
/// Fails fast when the mix grammar is invalid or the daemon is unreachable
/// before any traffic is sent.
pub fn run(opts: &LoadgenOpts) -> Result<LoadgenOutcome, String> {
    let mix = parse_mix(&opts.mix)?;
    let total_weight: u64 = mix.iter().map(|&(_, w)| u64::from(w)).sum();
    let universe = hot_universe();
    let zipf = Zipf::new(universe.len(), ZIPF_S);
    let count = opts.effective_count();
    let jobs = opts.jobs.max(1);

    let before = client::get(&opts.addr, "/metrics")
        .map_err(|e| format!("cannot reach `{}`: {e}", opts.addr))?;
    if !before.ok() {
        return Err(format!("`{}` answered HTTP {} on /metrics", opts.addr, before.status));
    }
    let before = json::parse(&before.body).unwrap_or_default();

    let tallies = Arc::new(Tallies::default());
    let latency = Arc::new(Histogram::new());
    let next = Arc::new(AtomicU64::new(0));
    let pairs: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let mix = Arc::new(mix);
    let universe = Arc::new(universe);
    let zipf = Arc::new(zipf);

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let (tallies, latency, next, pairs) =
                (Arc::clone(&tallies), Arc::clone(&latency), Arc::clone(&next), Arc::clone(&pairs));
            let (mix, universe, zipf) =
                (Arc::clone(&mix), Arc::clone(&universe), Arc::clone(&zipf));
            let (addr, seed) = (opts.addr.clone(), opts.seed);
            scope.spawn(move || {
                let mut local: Vec<(u64, u64)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let planned = plan_request(seed, i, &mix, total_weight, &zipf, &universe);
                    let t0 = Instant::now();
                    let mut answered = None;
                    for attempt in 0..MAX_ATTEMPTS {
                        let resp = if planned.class == Class::Slow {
                            slow_post(&addr, "/run", &planned.body)
                        } else {
                            client::post(&addr, "/run", &planned.body)
                        };
                        match resp {
                            Ok(r) if r.ok() => {
                                answered = Some(r);
                                break;
                            }
                            Ok(_) => tallies.shed_retries.fetch_add(1, Ordering::Relaxed),
                            Err(_) => tallies.transport_retries.fetch_add(1, Ordering::Relaxed),
                        };
                        // Back off a little harder each time: under a
                        // degraded admission window the queue needs room.
                        std::thread::sleep(Duration::from_millis(u64::from(attempt.min(20)) + 1));
                    }
                    match answered {
                        Some(r) => {
                            let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
                            latency.observe(us);
                            tallies.ok.fetch_add(1, Ordering::Relaxed);
                            local.push((
                                fnv1a64(planned.body.as_bytes()),
                                fnv1a64(normalize_response(&r.body).as_bytes()),
                            ));
                        }
                        None => {
                            tallies.lost.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                pairs.lock().unwrap_or_else(std::sync::PoisonError::into_inner).extend(local);
            });
        }
    });

    let after = client::get(&opts.addr, "/metrics")
        .map_err(|e| format!("cannot re-scrape `{}`: {e}", opts.addr))?;
    let after = json::parse(&after.body).unwrap_or_default();
    let metric =
        |m: &[(String, Value)], key: &str| json::get(m, key).and_then(Value::as_u64).unwrap_or(0);
    let cache_hits = metric(&after, "cache_hits").saturating_sub(metric(&before, "cache_hits"));
    let cache_misses =
        metric(&after, "cache_misses").saturating_sub(metric(&before, "cache_misses"));
    let shards = metric(&after, "shards");

    // The digest folds every (request, response) pair, sorted, so thread
    // interleaving cannot reach the bytes.
    let mut pairs = pairs.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
    pairs.sort_unstable();
    let mut digest_bytes = Vec::with_capacity(pairs.len() * 16);
    for (req, resp) in &pairs {
        digest_bytes.extend_from_slice(&req.to_le_bytes());
        digest_bytes.extend_from_slice(&resp.to_le_bytes());
    }
    let result_digest = fnv1a64(&digest_bytes);

    // Per-class counts replayed from the pure plan (not the threads), so
    // they are correct even for lost requests.
    let mut class_counts =
        [(Class::Hot, 0u64), (Class::Batch, 0), (Class::Cold, 0), (Class::Slow, 0)];
    for i in 0..count {
        let planned = plan_request(opts.seed, i, &mix, total_weight, &zipf, &universe);
        for slot in &mut class_counts {
            if slot.0 == planned.class {
                slot.1 += 1;
            }
        }
    }

    let ok = tallies.ok.load(Ordering::Relaxed);
    let lost = tallies.lost.load(Ordering::Relaxed);
    let snap = latency.snapshot();

    let mut report = format!("loadgen: seed={} mix={} count={count}\n", opts.seed, opts.mix);
    for (class, n) in class_counts {
        if class == Class::Batch {
            let _ = writeln!(
                report,
                "class={} requests={n} cells={}",
                class.name(),
                n * BATCH_CELLS as u64
            );
        } else {
            let _ = writeln!(report, "class={} requests={n}", class.name());
        }
    }
    let _ = writeln!(report, "ok={ok} lost={lost}");
    let _ = writeln!(report, "result_digest={result_digest:016x}");
    let _ = writeln!(report, "wall_jobs={jobs}");
    let _ = writeln!(
        report,
        "wall_rtt_us p50={} p95={} p99={} mean={}",
        snap.p50(),
        snap.p95(),
        snap.p99(),
        snap.mean()
    );
    let _ = writeln!(
        report,
        "wall_retries shed={} transport={}",
        tallies.shed_retries.load(Ordering::Relaxed),
        tallies.transport_retries.load(Ordering::Relaxed)
    );
    let hit_rate_pct = (cache_hits * 100).checked_div(cache_hits + cache_misses).unwrap_or(0);
    let _ = writeln!(
        report,
        "wall_cache hits={cache_hits} misses={cache_misses} hit_rate_pct={hit_rate_pct}"
    );
    let _ = writeln!(report, "wall_server shards={shards}");
    if opts.slo_us > 0 {
        let _ = writeln!(
            report,
            "wall_slo target_us={} p99_us={} met={}",
            opts.slo_us,
            snap.p99(),
            u8::from(snap.p99() <= opts.slo_us)
        );
    }
    Ok(LoadgenOutcome { report, ok, lost })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_grammar_parses_and_rejects() {
        let mix = parse_mix(DEFAULT_MIX).expect("default mix parses");
        assert_eq!(mix.len(), 4);
        assert_eq!(mix[0], (Class::Hot, 80));
        assert!(parse_mix("hot:100").is_ok());
        assert!(parse_mix("hot").is_err(), "missing weight");
        assert!(parse_mix("warm:10").is_err(), "unknown class");
        assert!(parse_mix("hot:0,cold:0").is_err(), "zero total");
        assert!(parse_mix("hot:1,hot:2").is_err(), "duplicate class");
    }

    #[test]
    fn plan_is_a_pure_function_of_seed_and_index() {
        let mix = parse_mix(DEFAULT_MIX).unwrap();
        let total: u64 = mix.iter().map(|&(_, w)| u64::from(w)).sum();
        let universe = hot_universe();
        let zipf = Zipf::new(universe.len(), ZIPF_S);
        for i in 0..200 {
            let a = plan_request(7, i, &mix, total, &zipf, &universe);
            let b = plan_request(7, i, &mix, total, &zipf, &universe);
            assert_eq!(a.class, b.class);
            assert_eq!(a.body, b.body);
        }
        // A different seed reshuffles the plan.
        let changed = (0..200).any(|i| {
            plan_request(7, i, &mix, total, &zipf, &universe).body
                != plan_request(8, i, &mix, total, &zipf, &universe).body
        });
        assert!(changed, "seed must steer the plan");
    }

    #[test]
    fn plan_covers_every_class_and_respects_the_mix() {
        let mix = parse_mix(DEFAULT_MIX).unwrap();
        let total: u64 = mix.iter().map(|&(_, w)| u64::from(w)).sum();
        let universe = hot_universe();
        let zipf = Zipf::new(universe.len(), ZIPF_S);
        let mut counts = [0u64; 4];
        let n = 4_000;
        for i in 0..n {
            let planned = plan_request(42, i, &mix, total, &zipf, &universe);
            counts[match planned.class {
                Class::Hot => 0,
                Class::Batch => 1,
                Class::Cold => 2,
                Class::Slow => 3,
            }] += 1;
            if planned.class == Class::Batch {
                assert!(planned.body.starts_with("{\"cells\":["), "{}", planned.body);
            } else {
                assert!(planned.body.starts_with("{\"workload\":"), "{}", planned.body);
            }
        }
        assert!(counts.iter().all(|&c| c > 0), "all classes appear: {counts:?}");
        // Hot dominates at 80% weight; allow generous slack.
        assert!(counts[0] > n * 6 / 10, "hot under-represented: {counts:?}");
    }

    #[test]
    fn normalization_collapses_the_coalesced_flag() {
        let a = "{\"workload\":\"mcf\",\"coalesced\":1,\"cycles\":9}";
        let b = "{\"workload\":\"mcf\",\"coalesced\":0,\"cycles\":9}";
        assert_eq!(normalize_response(a), normalize_response(b));
    }
}
