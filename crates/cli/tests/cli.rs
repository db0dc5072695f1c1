//! Spawned-binary tests: `tdo serve` + `tdo ping` end to end over a real
//! socket (the in-repo client is what CI uses — there is no curl), plus the
//! `tdo store` maintenance actions.

use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const TDO: &str = env!("CARGO_BIN_EXE_tdo");

/// A unique scratch directory per test, removed on drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> TestDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tdo-cli-test-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        TestDir(dir)
    }

    fn path(&self) -> String {
        self.0.display().to_string()
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Kills the daemon if the test panics before the graceful shutdown.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn tdo(args: &[&str]) -> Output {
    Command::new(TDO).args(args).output().expect("spawn tdo")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Successful invocation, returning stdout.
fn ok(args: &[&str]) -> String {
    let out = tdo(args);
    assert!(
        out.status.success(),
        "`tdo {}` failed: {}{}",
        args.join(" "),
        stdout_of(&out),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout_of(&out)
}

/// Spawns `tdo serve` on an ephemeral port over `store` and returns it with
/// the address it announces on its first stdout line.
fn spawn_serve(store: &TestDir) -> (ChildGuard, String) {
    let mut child = ChildGuard(
        Command::new(TDO)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "1",
                "--queue",
                "4",
                "--store-dir",
                &store.path(),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn tdo serve"),
    );
    let mut banner = String::new();
    let mut stdout = BufReader::new(child.0.stdout.take().expect("stdout piped"));
    stdout.read_line(&mut banner).expect("read banner");
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner: {banner:?}"))
        .to_string();
    (child, addr)
}

/// Waits up to `within` for the daemon to exit on its own.
fn wait_for_exit(child: &mut ChildGuard, within: Duration, after: &str) -> ExitStatus {
    let deadline = Instant::now() + within;
    loop {
        if let Some(status) = child.0.try_wait().expect("try_wait") {
            return status;
        }
        assert!(Instant::now() < deadline, "daemon did not exit within {within:?} after {after}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The daemon's whole stderr (read once it has exited).
fn stderr_of(child: &mut ChildGuard) -> String {
    let mut text = String::new();
    let _ = child.0.stderr.take().expect("stderr piped").read_to_string(&mut text);
    text
}

#[test]
fn serve_and_ping_round_trip() {
    let store = TestDir::new("serve");
    let (mut child, addr) = spawn_serve(&store);

    // Liveness (every GET ping reports its round-trip time), then the
    // suite listing.
    let health = ok(&["ping", &addr]);
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("rtt_us min="), "{health}");
    assert!(health.contains("(1 pings)"), "{health}");
    let multi = ok(&["ping", &addr, "--count", "3"]);
    assert!(multi.contains("(3 pings)"), "{multi}");
    assert!(ok(&["ping", &addr, "--workloads"]).contains("\"name\":\"mcf\""));

    // The Prometheus exposition is served, parses strictly, and carries the
    // per-endpoint counters.
    let prom = ok(&["ping", &addr, "--prom"]);
    assert!(prom.contains("exposition valid"), "{prom}");
    assert!(prom.contains("tdo_server_requests_total"), "{prom}");
    assert!(prom.contains("tdo_server_request_latency_us_count"), "{prom}");

    // One simulation; the identical repeat is served from the memo cache.
    let run = &["ping", &addr, "--run", "swim", "--arm", "sr", "--insts", "20000"];
    let first = ok(run);
    assert!(first.contains("\"cycles\":"), "{first}");
    let repeat = ok(run);
    assert!(repeat.contains("\"cycles\":"), "{repeat}");

    // The health dashboard over /metrics/history: one deterministic frame,
    // and two idle frames must agree byte for byte (the scrape itself is
    // excluded from sampling).
    let frame = ok(&["top", &addr, "--once"]);
    assert!(frame.contains("health plane:"), "{frame}");
    for row in ["runs", "run_p95_us", "queue_cap", "arm_issued:stream", "watchdog:slo_burn"] {
        assert!(frame.contains(row), "want `{row}` in frame:\n{frame}");
    }
    let again = ok(&["top", &addr, "--once"]);
    assert_eq!(frame, again, "idle top frames must be byte-identical");

    // /metrics over `tdo ping`: counters reflect exactly what we did.
    let metrics = ok(&["ping", &addr, "--metrics"]);
    for expected in [
        "\"health\":4", // 1 liveness ping + 3 counted pings
        "\"workloads\":1",
        "\"run_ok\":2",
        "\"sims\":1",
        "\"store_misses\":1",
        "\"puts\":1",
    ] {
        assert!(metrics.contains(expected), "want {expected} in {metrics}");
    }

    // Graceful stop; the daemon must exit cleanly on its own.
    assert!(ok(&["ping", &addr, "--shutdown"]).contains("shutting_down"));
    let status = wait_for_exit(&mut child, Duration::from_secs(30), "/shutdown");
    assert!(status.success(), "daemon exit status: {status:?}");

    let stderr_text = stderr_of(&mut child);
    assert!(stderr_text.contains("shut down cleanly"), "{stderr_text}");
    assert!(stderr_text.contains("store: hits=0 misses=1 sims=1"), "{stderr_text}");

    // With the daemon gone, ping reports the failure as a nonzero exit.
    assert!(!tdo(&["ping", &addr]).status.success());

    // The round trip left one record behind; `store stats` breaks it down
    // per generation with record-size accounting.
    let stats = ok(&["store", "stats", "--store-dir", &store.path()]);
    assert!(stats.contains("live records       1"), "{stats}");
    assert!(stats.contains("v3"), "{stats}");
    assert!(stats.contains("record bytes       mean"), "{stats}");
}

#[test]
fn sigint_stops_the_daemon_cleanly() {
    // The signal cannot wake the accept thread's blocking `accept`; the
    // health ticker must notice it and forward it as a shutdown request.
    let store = TestDir::new("sigint");
    let (mut child, addr) = spawn_serve(&store);
    assert!(ok(&["ping", &addr]).contains("\"status\":\"ok\""));

    let pid = child.0.id().to_string();
    let kill = Command::new("/usr/bin/kill").args(["-INT", &pid]).status().expect("run kill");
    assert!(kill.success(), "kill -INT {pid}: {kill:?}");
    let status = wait_for_exit(&mut child, Duration::from_secs(5), "SIGINT");
    assert!(status.success(), "daemon exit status: {status:?}");
    let stderr_text = stderr_of(&mut child);
    assert!(stderr_text.contains("shut down cleanly"), "{stderr_text}");
}

#[test]
fn why_narrates_repairs_and_arm_switches_with_evidence() {
    let store = TestDir::new("why");
    // phaseshift: the self-repair arm repairs distances and the policy
    // controller switches arms, so both ledger sections are populated.
    let out = ok(&["why", "phaseshift", "--store-dir", &store.path()]);
    assert!(out.contains("phaseshift decision audit (test scale)"), "{out}");
    assert!(out.contains("distance repairs under SwSelfRepair"), "{out}");
    assert!(out.contains("tolerance 20m"), "{out}");
    assert!(out.contains("policy arm switches:"), "{out}");
    assert!(out.contains("ipc "), "{out}");
    assert!(out.contains("mpki "), "{out}");
    // The narrated switch count is the counter's own number, not a resample.
    let header = out.lines().find(|l| l.starts_with("policy arm switches:")).expect("section");
    assert!(!header.contains(" 0 recorded"), "phaseshift must switch arms: {header}");

    // Same cells again, warm store: the narration must be byte-identical.
    let again = ok(&["why", "phaseshift", "--store-dir", &store.path()]);
    assert_eq!(out, again, "warm-store why must replay the identical ledger");

    // Machine-readable mode carries the raw records for CI artifacts.
    let csv = ok(&["why", "phaseshift", "--format", "csv", "--store-dir", &store.path()]);
    assert!(csv.lines().any(|l| l.starts_with("repair,")), "{csv}");
    assert!(csv.lines().any(|l| l.starts_with("arm_switch,")), "{csv}");
}

#[test]
fn store_maintenance_actions_on_an_empty_store() {
    let dir = TestDir::new("store");
    let stats = ok(&["store", "stats", "--store-dir", &dir.path()]);
    assert!(stats.contains("live records       0"), "{stats}");

    let verify = ok(&["store", "verify", "--store-dir", &dir.path()]);
    assert!(verify.contains("0 good, 0 corrupt"), "{verify}");

    let gc = ok(&["store", "gc", "--store-dir", &dir.path()]);
    assert!(gc.contains("kept 0"), "{gc}");

    let bad = tdo(&["store", "explode", "--store-dir", &dir.path()]);
    assert!(!bad.status.success());
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("unknown store action"),
        "stderr: {}",
        String::from_utf8_lossy(&bad.stderr)
    );
}

#[test]
fn store_maintenance_acts_on_every_shard_of_a_sharded_root() {
    let dir = TestDir::new("sharded-store");
    {
        let store = tdo_store::ShardedStore::open(&dir.0, 4).expect("open sharded store");
        for key in 0..12u64 {
            store.put(key, tdo_sim::SCHEMA_VERSION, &[key, key + 1]).expect("put");
        }
    }
    let sum_of = |text: &str, field: &str| -> u64 {
        text.lines()
            .filter_map(|l| l.split(field).next()?.rsplit(' ').next()?.parse::<u64>().ok())
            .sum()
    };

    let stats = ok(&["store", "stats", "--store-dir", &dir.path()]);
    assert!(stats.contains("(4 shards)"), "{stats}");
    assert!(stats.contains("live records       12"), "{stats}");
    for shard in ["shard-000", "shard-001", "shard-002", "shard-003"] {
        assert!(stats.lines().any(|l| l.starts_with(shard)), "{shard} listed: {stats}");
    }
    let total = stats.lines().find(|l| l.starts_with("total")).expect("total row");
    assert_eq!(total.split_whitespace().nth(1), Some("12"), "{stats}");

    let verify = ok(&["store", "verify", "--store-dir", &dir.path()]);
    assert_eq!(verify.lines().count(), 4, "one line per shard: {verify}");
    assert_eq!(sum_of(&verify, " good"), 12, "{verify}");

    let gc = ok(&["store", "gc", "--store-dir", &dir.path()]);
    assert_eq!(gc.lines().count(), 4, "one line per shard: {gc}");
    assert_eq!(sum_of(&gc, ", dropped"), 12, "{gc}");

    for stray in ["records.log", "records.tmp", "quarantine.log"] {
        assert!(!dir.0.join(stray).exists(), "nothing is created at the root: {stray}");
    }

    // One damaged shard fails the whole verify.
    let log = (0..4)
        .map(|s| dir.0.join(format!("shard-{s:03}/records.log")))
        .max_by_key(|p| fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .expect("a shard log");
    let mut bytes = fs::read(&log).expect("read shard log");
    let last = bytes.len() - 2;
    bytes[last] ^= 0xff;
    fs::write(&log, bytes).expect("damage shard log");
    let damaged = tdo(&["store", "verify", "--store-dir", &dir.path()]);
    assert!(!damaged.status.success(), "{}", stdout_of(&damaged));
    assert!(stdout_of(&damaged).contains("1 corrupt"), "{}", stdout_of(&damaged));

    // A one-shard store is the root itself, so a root holding a single
    // `shard-000/` is refused rather than guessed at.
    for s in 1..4 {
        fs::remove_dir_all(dir.0.join(format!("shard-{s:03}"))).expect("drop a shard");
    }
    let one = tdo(&["store", "stats", "--store-dir", &dir.path()]);
    assert!(!one.status.success(), "{}", stdout_of(&one));
    assert!(String::from_utf8_lossy(&one.stderr).contains("one shard directory"));
}
