//! End-to-end daemon tests over real sockets: routing, single-flight
//! coalescing, the result cache in front of the store, bounded-queue
//! shedding and graceful shutdown.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tdo_obs::json::{self, Value};
use tdo_server::client::{self, Response};
use tdo_server::{Server, ServerConfig, ServerHandle};

/// Starts a server on an ephemeral port, storeless by default (tests that
/// want persistence pass a directory).
fn start(workers: usize, queue_cap: usize) -> (String, ServerHandle, JoinHandle<()>) {
    let cfg = ServerConfig { workers, queue_cap, no_store: true, ..ServerConfig::default() };
    start_cfg(cfg)
}

fn start_cfg(mut cfg: ServerConfig) -> (String, ServerHandle, JoinHandle<()>) {
    cfg.addr = "127.0.0.1:0".into();
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr: SocketAddr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let t = std::thread::spawn(move || server.run().expect("server run"));
    (addr.to_string(), handle, t)
}

/// A top-level integer field of a `/metrics` or `/run` JSON body.
fn counter(body: &str, name: &str) -> u64 {
    let fields = json::parse(body).unwrap_or_else(|e| panic!("{e}: {body}"));
    json::get(&fields, name).and_then(Value::as_u64).unwrap_or_else(|| panic!("`{name}` in {body}"))
}

fn metrics(addr: &str) -> String {
    client::get(addr, "/metrics").expect("GET /metrics").body
}

/// Polls `/metrics` until `pred` holds (the accept thread serves metrics
/// inline, so this works even while every worker is busy).
fn wait_for(addr: &str, what: &str, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let body = metrics(addr);
        if pred(&body) {
            return body;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}; metrics: {body}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn post_run(addr: &str, body: &str) -> Response {
    client::post(addr, "/run", body).expect("POST /run")
}

/// A cell slow enough (~seconds in a debug build) that concurrent clients
/// reliably overlap with its simulation.
const SLOW_CELL: &str = r#"{"workload":"swim","arm":"sr","insts":400000}"#;

#[test]
fn routing_and_error_paths() {
    let (addr, handle, t) = start(1, 4);

    let health = client::get(&addr, "/health").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "{\"status\":\"ok\"}");

    let workloads = client::get(&addr, "/workloads").unwrap();
    assert_eq!(workloads.status, 200);
    assert!(workloads.body.contains("\"name\":\"mcf\""), "suite listed: {}", workloads.body);

    assert_eq!(client::get(&addr, "/nope").unwrap().status, 404);
    assert_eq!(client::post(&addr, "/health", "").unwrap().status, 405);

    // Bad /run bodies are 400s decided on the accept thread, never crashes.
    for bad in [
        "",
        "not json",
        "{}",
        r#"{"workload":"no-such-workload"}"#,
        r#"{"workload":"mcf","arm":"warp-drive"}"#,
        r#"{"workload":"mcf","scale":"huge"}"#,
        r#"{"workload":"mcf","insts":"many"}"#,
        r#"{"workload":"mcf","surprise":1}"#,
        // Past the paper's full-scale window: full scale has no cycle cap.
        r#"{"workload":"swim","scale":"full","insts":2000001}"#,
    ] {
        let r = post_run(&addr, bad);
        assert_eq!(r.status, 400, "body `{bad}` must be rejected, got {}", r.body);
    }

    let m = metrics(&addr);
    assert_eq!(counter(&m, "health"), 1);
    assert_eq!(counter(&m, "workloads"), 1);
    assert_eq!(counter(&m, "not_found"), 1);
    assert_eq!(counter(&m, "run_rejected"), 9);
    assert_eq!(counter(&m, "run_ok"), 0);

    // Extension workloads and the arsenal arms are servable: workload
    // validation defers to the builder, not the paper's 14-name suite.
    let r = post_run(&addr, r#"{"workload":"phaseshift","arm":"policy","insts":30000}"#);
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"workload\":\"phaseshift\""), "{}", r.body);
    assert!(r.body.contains("\"arm\":\"policy\""), "{}", r.body);

    handle.shutdown();
    t.join().expect("clean shutdown");
}

/// The 16-hex-digit `X-Tdo-Trace` id of a response.
fn trace_of(r: &Response) -> u64 {
    u64::from_str_radix(r.trace.as_deref().expect("X-Tdo-Trace header"), 16).expect("hex trace id")
}

/// Posts `body` from a leader and, once its simulation is in flight, from
/// three identical followers. One simulation must answer all four, the
/// followers coalescing onto the leader's flight, and each follower's
/// trace must record a `coalesce` point naming the leader's trace. Returns
/// the four bodies.
fn four_identical_runs(body: &str) -> Vec<String> {
    let (addr, handle, t) = start(4, 8);
    let post = || {
        let (addr, body) = (addr.clone(), body.to_string());
        std::thread::spawn(move || post_run(&addr, &body))
    };

    // Leader first; wait until its simulation is observably in flight.
    let leader = post();
    wait_for(&addr, "leader in flight", |m| counter(m, "runs_inflight") == 1);

    // Three identical followers arrive while the leader is simulating.
    let followers: Vec<_> = (0..3).map(|_| post()).collect();
    wait_for(&addr, "followers coalesced", |m| counter(m, "coalesced") == 3);

    let responses: Vec<Response> = std::iter::once(leader)
        .chain(followers)
        .map(|h| {
            let r = h.join().unwrap();
            assert_eq!(r.status, 200, "{}", r.body);
            r
        })
        .collect();

    let dump = client::get(&addr, "/debug/flight").unwrap().body;
    let log = tdo_obs::span::parse_flight(&dump).expect("dump parses");
    let leader_trace = trace_of(&responses[0]);
    for follower in &responses[1..] {
        let trace = trace_of(follower);
        assert!(
            log.iter().any(|r| r.trace == trace
                && r.kind == tdo_obs::FlightKind::Coalesce
                && r.arg == leader_trace),
            "follower {trace:#x} records a coalesce point naming leader {leader_trace:#x}"
        );
    }
    let bodies = responses.into_iter().map(|r| r.body).collect();

    let m = metrics(&addr);
    assert_eq!(counter(&m, "run_ok"), 4, "{m}");
    assert_eq!(counter(&m, "sims"), 1, "exactly one simulation ran: {m}");
    assert_eq!(counter(&m, "runs_started"), 1, "{m}");
    assert_eq!(counter(&m, "coalesced"), 3, "{m}");

    handle.shutdown();
    t.join().expect("clean shutdown");
    bodies
}

#[test]
fn identical_concurrent_runs_single_flight_into_one_simulation() {
    let bodies = four_identical_runs(SLOW_CELL);
    // All four answers carry the same result.
    let cycles = counter(&bodies[0], "cycles");
    assert!(cycles > 0);
    for body in &bodies {
        assert_eq!(counter(body, "cycles"), cycles);
    }
}

#[test]
fn identical_concurrent_batches_single_flight_into_one_simulation() {
    let bodies = four_identical_runs(&format!(r#"{{"cells":[{SLOW_CELL}]}}"#));
    // Batch entries always read `"coalesced":0`, so one shared result
    // makes the four answers byte-identical.
    assert!(bodies[0].contains("\"cycles\":"), "{}", bodies[0]);
    assert!(bodies.iter().all(|b| *b == bodies[0]), "{bodies:?}");
}

#[test]
fn batch_cells_answer_as_single_cells_under_the_request_trace() {
    let (addr, handle, t) = start(1, 4);
    let a = r#"{"workload":"swim","arm":"sr","insts":5000}"#;
    let b = r#"{"workload":"mcf","arm":"none","insts":5000}"#;

    // A cold [A, B, A] batch: its engine cell spans sit under the
    // response's trace id (the recorder is process-global, so match on
    // the id), and the repeated cell simulates once.
    let batch = post_run(&addr, &format!(r#"{{"cells":[{a},{b},{a}]}}"#));
    assert_eq!(batch.status, 200, "{}", batch.body);
    let trace = trace_of(&batch);
    let dump = client::get(&addr, "/debug/flight").unwrap().body;
    let log = tdo_obs::span::parse_flight(&dump).expect("dump parses");
    assert!(
        log.iter().any(|r| r.trace == trace && r.kind == tdo_obs::FlightKind::RunCell),
        "a run_cell record under the batch's trace {trace:#x}"
    );
    assert_eq!(counter(&metrics(&addr), "sims"), 2);

    // Each entry is exactly the single-cell answer for its cell.
    let (ra, rb) = (post_run(&addr, a).body, post_run(&addr, b).body);
    assert_eq!(batch.body, format!(r#"{{"results":[{ra},{rb},{ra}]}}"#));

    let empty = post_run(&addr, r#"{"cells":[]}"#);
    assert_eq!((empty.status, empty.body.as_str()), (200, r#"{"results":[]}"#));
    let too_big = post_run(&addr, &format!(r#"{{"cells":[{}]}}"#, [a; 65].join(",")));
    assert_eq!(too_big.status, 400, "{}", too_big.body);
    assert!(too_big.body.contains("max 64"), "{}", too_big.body);
    // One unknown workload rejects the whole batch before anything runs.
    let fresh = r#"{"workload":"art","insts":5000}"#;
    let unknown = post_run(&addr, &format!(r#"{{"cells":[{fresh},{{"workload":"nope"}}]}}"#));
    assert_eq!(unknown.status, 400, "{}", unknown.body);
    assert_eq!(counter(&metrics(&addr), "sims"), 2, "nothing simulated");

    handle.shutdown();
    t.join().expect("clean shutdown");
}

#[test]
fn cached_hits_never_wait_out_an_accept_poll() {
    // A client that pauses before each request, as one across a network
    // does, must find the accept thread ready to take its connection, not
    // sleeping out a poll interval.
    let (addr, handle, t) = start(1, 4);
    let body = r#"{"workload":"mcf","arm":"sr","insts":2000}"#;
    assert_eq!(post_run(&addr, body).status, 200, "warm the cell");

    let mut rtts: Vec<Duration> = (0..40)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(1));
            let t0 = Instant::now();
            let r = post_run(&addr, body);
            assert_eq!(r.status, 200, "{}", r.body);
            t0.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(median < Duration::from_millis(5), "median hit round trip {median:?}: {rtts:?}");
    assert_eq!(counter(&metrics(&addr), "cache_hits"), 40, "every repeat is an LRU hit");

    handle.shutdown();
    t.join().expect("clean shutdown");
}

/// A warm cache answers repeats without touching the store at all: after
/// the first (miss, simulate, persist) round trip, N identical requests
/// move the store's hit/miss counters by exactly zero while the cache hit
/// counter moves by exactly N.
#[test]
fn warm_lru_serves_with_zero_store_reads() {
    let dir = std::env::temp_dir().join(format!("tdo-lru-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        workers: 2,
        queue_cap: 16,
        store_dir: Some(dir.display().to_string()),
        shards: 2,
        cache: 8,
        ..ServerConfig::default()
    };
    let (addr, handle, t) = start_cfg(cfg);

    let cell = r#"{"workload":"mcf","arm":"sr","insts":2000}"#;
    let first = client::post(&addr, "/run", cell).expect("first POST /run");
    assert_eq!(first.status, 200, "cold request: {}", first.body);

    let warm = client::get(&addr, "/metrics").expect("GET /metrics").body;
    const REPEATS: u64 = 5;
    for i in 0..REPEATS {
        let rsp = client::post(&addr, "/run", cell).expect("warm POST /run");
        assert_eq!(rsp.status, 200, "warm request {i}: {}", rsp.body);
        assert_eq!(rsp.body, first.body, "a cache hit must be byte-identical to the miss");
    }
    let after = client::get(&addr, "/metrics").expect("GET /metrics").body;

    for name in ["store_hits", "store_misses"] {
        assert_eq!(
            counter(&after, name),
            counter(&warm, name),
            "{name} moved on warm repeats; before: {warm}\nafter: {after}"
        );
    }
    assert_eq!(
        counter(&after, "cache_hits"),
        counter(&warm, "cache_hits") + REPEATS,
        "every warm repeat is a cache hit"
    );
    assert!(counter(&after, "cache_entries") >= 1, "the warm cell stays resident");

    handle.shutdown();
    t.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_sheds_with_503() {
    // One worker, one queue slot: with a slow run in flight and one queued,
    // the third request must shed — deterministically, because we gate each
    // step on the (inline-served) metrics.
    let (addr, handle, t) = start(1, 1);

    let inflight = {
        let addr = addr.clone();
        std::thread::spawn(move || post_run(&addr, SLOW_CELL))
    };
    wait_for(&addr, "slow run in flight", |m| counter(m, "runs_inflight") == 1);

    let queued = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            post_run(&addr, r#"{"workload":"swim","arm":"none","insts":5000}"#)
        })
    };
    wait_for(&addr, "second run queued", |m| counter(m, "queue_depth") == 1);

    let shed = post_run(&addr, r#"{"workload":"swim","arm":"hw8x8","insts":5000}"#);
    assert_eq!(shed.status, 503, "{}", shed.body);
    assert!(shed.body.contains("shed"), "{}", shed.body);

    let m = metrics(&addr);
    assert_eq!(counter(&m, "shed"), 1, "{m}");

    // The admitted requests still complete normally.
    assert_eq!(inflight.join().unwrap().status, 200);
    assert_eq!(queued.join().unwrap().status, 200);

    handle.shutdown();
    t.join().expect("clean shutdown");
}

/// Sends raw bytes to the daemon and reads whatever comes back (possibly
/// nothing). Half-closes the write side so an incomplete request is seen as
/// a client that hung up.
fn raw_exchange(addr: &str, bytes: &[u8]) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // Write errors are fine: the daemon may reject and close while bytes
    // are still in flight (the over-large head case).
    let _ = s.write_all(bytes);
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

/// Extracts `tdo_server_bad_requests_total{reason="..."}` from a prom body.
fn bad_requests(prom: &str, reason: &str) -> u64 {
    let needle = format!("tdo_server_bad_requests_total{{reason=\"{reason}\"}} ");
    let at = prom.find(&needle).unwrap_or_else(|| panic!("family for `{reason}` in:\n{prom}"));
    prom[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer sample")
}

#[test]
fn every_malformed_request_path_gets_its_own_reason() {
    let (addr, handle, t) = start(1, 4);

    // One hit per early-return path, driven over raw sockets where the
    // malformation lives below the client helper.
    raw_exchange(&addr, b"\r\n\r\n"); // no method -> bad_request_line
    raw_exchange(&addr, b"\xff\xfe\r\n\r\n"); // non-UTF-8 head -> bad_encoding
    raw_exchange(&addr, b"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n");
    raw_exchange(&addr, b"POST /run HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n");
    raw_exchange(&addr, b"GET / HTTP/1.1\r\n"); // hang up mid-head -> closed_early
    let big = vec![b'a'; 20 * 1024]; // head over limit -> head_too_large
    raw_exchange(&addr, &big);
    assert_eq!(client::get(&addr, "/metrics?format=xml").unwrap().status, 400);
    assert_eq!(client::post(&addr, "/health", "").unwrap().status, 405);
    assert_eq!(post_run(&addr, "not json").status, 400); // bad_cell_spec

    let prom = client::get(&addr, "/metrics?format=prom").unwrap().body;
    for reason in [
        "bad_request_line",
        "bad_encoding",
        "bad_content_length",
        "body_too_large",
        "closed_early",
        "head_too_large",
        "bad_query",
        "method_not_allowed",
        "bad_cell_spec",
    ] {
        assert_eq!(bad_requests(&prom, reason), 1, "reason `{reason}`:\n{prom}");
    }
    // The transport-failure bucket exists (zero here — nothing failed).
    assert_eq!(bad_requests(&prom, "read_failed"), 0);
    // The JSON body aggregates all reasons.
    assert_eq!(counter(&metrics(&addr), "bad_requests"), 9);

    handle.shutdown();
    t.join().expect("clean shutdown");
}

#[test]
fn responses_carry_distinct_trace_ids_and_the_flight_dump_validates() {
    let (addr, handle, t) = start(1, 4);

    let a = client::get(&addr, "/health").unwrap();
    let b = client::get(&addr, "/health").unwrap();
    let ta = a.trace.expect("trace header on response a");
    let tb = b.trace.expect("trace header on response b");
    assert_eq!(ta.len(), 16, "16 hex digits: {ta}");
    assert_ne!(ta, tb, "each connection gets its own trace id");
    // Even a 400 is traceable.
    let bad = client::get(&addr, "/metrics?format=xml").unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.trace.is_some(), "400s carry X-Tdo-Trace too");

    // A /run's records land in the recorder under the response's trace id.
    let run = post_run(&addr, r#"{"workload":"swim","arm":"sr","insts":5000}"#);
    assert_eq!(run.status, 200, "{}", run.body);
    let run_trace = trace_of(&run);

    let dump = client::get(&addr, "/debug/flight").unwrap();
    assert_eq!(dump.status, 200);
    tdo_obs::validate_flight(&dump.body).expect("dump validates");
    let log = tdo_obs::span::parse_flight(&dump.body).expect("dump parses");
    let mine: Vec<_> = log.iter().filter(|r| r.trace == run_trace).collect();
    assert!(!mine.is_empty(), "run trace {run_trace:#x} present in flight dump");
    assert!(
        mine.iter().any(|r| r.kind == tdo_obs::FlightKind::RunCell),
        "the engine cell span is attributed to the request's trace"
    );
    assert!(
        mine.iter().any(|r| r.kind == tdo_obs::FlightKind::QueueWait),
        "the queue wait is attributed to the request's trace"
    );

    handle.shutdown();
    t.join().expect("clean shutdown");
}

#[test]
fn two_servers_in_one_process_mint_different_trace_ids() {
    // Both servers write into the one process-wide flight recorder, so
    // their first requests must not share a trace id.
    let (addr_a, handle_a, t_a) = start(1, 4);
    let (addr_b, handle_b, t_b) = start(1, 4);
    let a = client::get(&addr_a, "/health").unwrap();
    let b = client::get(&addr_b, "/health").unwrap();
    assert_ne!(trace_of(&a), trace_of(&b), "servers on {addr_a} and {addr_b} minted one id");
    for (handle, t) in [(handle_a, t_a), (handle_b, t_b)] {
        handle.shutdown();
        t.join().expect("clean shutdown");
    }
}

#[test]
fn slo_breach_writes_a_validated_flight_dump() {
    let dir = std::env::temp_dir().join(format!("tdo-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A 1 µs SLO: every /run breaches it.
    let cfg = ServerConfig {
        workers: 1,
        queue_cap: 4,
        no_store: true,
        slo_us: 1,
        flight_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    };
    let (addr, handle, t) = start_cfg(cfg);

    let r = post_run(&addr, r#"{"workload":"swim","arm":"sr","insts":5000}"#);
    assert_eq!(r.status, 200, "{}", r.body);

    let prom = client::get(&addr, "/metrics?format=prom").unwrap().body;
    assert!(
        prom.contains("tdo_server_flight_dumps_total{reason=\"slo_breach\"} 1"),
        "slo dump counted:\n{prom}"
    );
    let dump_path = dir.join("flight-000-slo_breach.jsonl");
    let text = std::fs::read_to_string(&dump_path).expect("dump file written");
    tdo_obs::validate_flight(&text).expect("dump file validates");

    handle.shutdown();
    t.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Masks the nondeterministic values in a prom exposition: bucket counts,
/// sums and exemplars of wall-time histograms (families ending `_us`), and
/// the process-global `tdo_obs_*` counters (shared by every server in the
/// test binary, so their values depend on test interleaving). Sample counts
/// stay — they are request-count determined. The whole value tail after the
/// series name is masked so exemplar suffixes go with it.
fn mask_wall_values(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    for line in body.lines() {
        let wall = line.contains("_us_bucket{")
            || line.contains("_us_sum")
            || (line.starts_with("tdo_obs_") && !line.starts_with('#'))
            // The uptime gauge counts background sampler ticks — pure
            // wall-clock scheduling, masked like the latency samples.
            || (line.starts_with("tdo_server_uptime_ticks") && !line.starts_with('#'));
        match (wall, line.split_once(' ')) {
            (true, Some((series, _))) if !line.starts_with('#') => {
                out.push_str(series);
                out.push_str(" <wall>\n");
            }
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn prometheus_exposition_matches_golden_snapshot() {
    // A seeded sequence — one health ping, one tiny deterministic run — then
    // a single scrape. Everything except wall-clock values must be
    // byte-stable; the golden regenerates with
    // `TDO_BLESS=1 cargo test -p tdo-server --test server`.
    let (addr, handle, t) = start(1, 4);
    assert_eq!(client::get(&addr, "/health").unwrap().status, 200);
    let r = post_run(&addr, r#"{"workload":"swim","arm":"sr","insts":5000}"#);
    assert_eq!(r.status, 200, "{}", r.body);

    let resp = client::get(&addr, "/metrics?format=prom").unwrap();
    assert_eq!(resp.status, 200);

    // Every scrape must be strict, parseable text exposition.
    let stats = tdo_metrics::expo::parse_text(&resp.body).expect("prom text parses");
    assert!(stats.families >= 10, "registry is populated: {} families", stats.families);

    // The fault-injection family only exists on registries armed through
    // `tdo_fault::arm_with_registry`; a daemon that never arms must not
    // leak even an all-zero family into its exposition (the golden below
    // pins this too, but the intent deserves its own assertion).
    assert!(
        !resp.body.contains("tdo_fault_injected_total"),
        "disarmed daemon must not expose fault-injection metrics"
    );

    // Unknown query strings are rejected, JSON stays the default.
    assert_eq!(client::get(&addr, "/metrics?format=xml").unwrap().status, 400);
    assert!(client::get(&addr, "/metrics?format=json").unwrap().body.starts_with('{'));

    let masked = mask_wall_values(&resp.body);
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics_prom.txt");
    if std::env::var_os("TDO_BLESS").is_some() {
        std::fs::write(golden, &masked).unwrap();
    } else {
        let expected = std::fs::read_to_string(golden)
            .expect("golden file missing; regenerate with TDO_BLESS=1");
        assert_eq!(
            masked, expected,
            "prom exposition drifted from the golden file; if intended, regenerate with TDO_BLESS=1"
        );
    }

    handle.shutdown();
    t.join().expect("clean shutdown");
}

#[test]
fn metrics_history_is_byte_deterministic_when_idle() {
    let (addr, handle, t) = start(1, 4);

    // Some traffic so the history has rows worth retaining.
    for _ in 0..3 {
        let r = post_run(&addr, r#"{"workload":"swim","arm":"sr","insts":5000}"#);
        assert_eq!(r.status, 200, "{}", r.body);
    }

    // First scrape pre-samples whatever the runs changed; once idle, any
    // number of further scrapes must return identical bytes — the scrape's
    // own counters are excluded from sampling by design.
    let first = client::get(&addr, "/metrics/history").unwrap();
    assert_eq!(first.status, 200);
    let again = client::get(&addr, "/metrics/history").unwrap();
    let third = client::get(&addr, "/metrics/history?window=1000").unwrap();
    assert_eq!(first.body, again.body, "idle scrapes must be byte-identical");
    assert_eq!(first.body, third.body, "an over-wide window is the full history");

    // Shape: a schema header naming every column, then one row per line.
    let mut lines = first.body.lines();
    let header = lines.next().expect("header line");
    assert!(header.starts_with("{\"series_schema\":1,\"rows\":"), "{header}");
    assert!(header.contains("\"tdo_server_request_latency_us{endpoint=\\\"run\\\"}#count\""));
    assert!(header.contains("\"tdo_server_queue_depth\""));
    assert!(!header.contains("tdo_server_uptime_ticks"), "observer-effect series excluded");
    let rows: Vec<&str> = lines.collect();
    assert!(!rows.is_empty(), "traffic must have produced at least one row");
    assert!(rows.iter().all(|r| r.starts_with("{\"tick\":")), "rows are tick objects");

    // A window narrows the row set but keeps the newest row.
    let windowed = client::get(&addr, "/metrics/history?window=1").unwrap();
    assert_eq!(windowed.body.lines().count(), 2, "header + one row: {}", windowed.body);
    assert_eq!(windowed.body.lines().last(), first.body.lines().last());

    assert_eq!(client::get(&addr, "/metrics/history?window=soon").unwrap().status, 400);

    handle.shutdown();
    t.join().expect("clean shutdown");
}

#[test]
fn shutdown_endpoint_stops_the_daemon_and_drains_the_queue() {
    let (addr, _handle, t) = start(2, 4);

    // Something in flight when shutdown arrives.
    let running = {
        let addr = addr.clone();
        std::thread::spawn(move || post_run(&addr, SLOW_CELL))
    };
    wait_for(&addr, "run in flight", |m| counter(m, "runs_inflight") == 1);

    let r = client::post(&addr, "/shutdown", "").unwrap();
    assert_eq!(r.status, 200);
    assert!(r.body.contains("shutting_down"));

    // The in-flight request finishes (drained, not dropped)...
    assert_eq!(running.join().unwrap().status, 200);
    // ...and the server thread exits.
    t.join().expect("clean shutdown");

    // New connections are refused once the listener is gone.
    let after = client::get(&addr, "/health");
    assert!(after.is_err(), "listener closed after shutdown");
}

/// The `tdo_server_uptime_ticks` gauge from a Prometheus scrape.
fn uptime_ticks(addr: &str) -> u64 {
    let prom = client::get(addr, "/metrics?format=prom").expect("GET /metrics?format=prom").body;
    prom.lines()
        .find_map(|l| l.strip_prefix("tdo_server_uptime_ticks "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("uptime gauge in:\n{prom}"))
}

#[test]
fn health_ticks_keep_running_while_a_request_is_stalled_half_sent() {
    use std::io::{Read, Write};
    let (addr, handle, t) = start(1, 4);
    let before = uptime_ticks(&addr);

    // The accept thread reads this request for as long as it is held
    // half-sent; the health clock must not wait for it.
    let mut stalled = std::net::TcpStream::connect(&addr).expect("connect");
    stalled.write_all(b"GET /health HTTP/1.1\r\n").expect("first half");
    std::thread::sleep(Duration::from_secs(1));
    stalled.write_all(b"\r\n").expect("second half");
    let mut reply = String::new();
    stalled.read_to_string(&mut reply).expect("reply");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");

    let after = uptime_ticks(&addr);
    assert!(after >= before + 5, "ticks {before} -> {after} across a 1 s stall");

    handle.shutdown();
    t.join().expect("clean shutdown");
}
