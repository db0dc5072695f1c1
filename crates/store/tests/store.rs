//! Durability and recovery tests: reopen, torn tails, flipped bits,
//! shadowing, garbage collection and the directory lock.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use tdo_rand::fnv1a64;
use tdo_store::{Store, FORMAT_VERSION};

/// A unique scratch directory per test, removed on drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> TestDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tdo-store-test-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        TestDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }

    fn log(&self) -> PathBuf {
        self.0.join("records.log")
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[test]
fn round_trip_and_reopen() {
    let dir = TestDir::new("roundtrip");
    let payload: Vec<u64> = (0..60).map(|i| i * 3 + 1).collect();
    let key = fnv1a64(b"mcf|Test|SimConfig{...}");
    {
        let store = Store::open(dir.path()).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.get(key, 1), None);
        store.put(key, 1, &payload).unwrap();
        assert_eq!(store.get(key, 1).as_deref(), Some(&payload[..]));
    }
    // Fresh process: the key map rebuilt from the log serves the same bytes.
    let store = Store::open(dir.path()).unwrap();
    assert_eq!(store.len(), 1);
    assert_eq!(store.get(key, 1).as_deref(), Some(&payload[..]));
    // A different schema version is a miss, not a wrong answer.
    assert_eq!(store.get(key, 2), None);
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}

#[test]
fn reopen_rebuilds_the_key_map_from_the_log() {
    let dir = TestDir::new("reopen");
    {
        let store = Store::open(dir.path()).unwrap();
        store.put(1, 1, &[10, 20]).unwrap();
        store.put(2, 1, &[30]).unwrap();
    }
    // An index file left by an older build is ignored, whatever it holds.
    fs::write(dir.path().join("index.bin"), b"stale").unwrap();
    let store = Store::open(dir.path()).unwrap();
    assert_eq!(store.len(), 2);
    assert_eq!(store.get(1, 1), Some(vec![10, 20]));
    assert_eq!(store.get(2, 1), Some(vec![30]));
    assert!(store.verify().unwrap().is_clean());
}

#[test]
fn opening_a_clean_log_rewrites_nothing() {
    use std::os::unix::fs::MetadataExt;
    let dir = TestDir::new("clean-open");
    let inode = || fs::metadata(dir.log()).unwrap().ino();
    drop(Store::open(dir.path()).unwrap());
    let log = inode();
    drop(Store::open(dir.path()).unwrap());
    assert_eq!(inode(), log, "an empty store's log is not rewritten on open");
    Store::open(dir.path()).unwrap().put(1, 1, &[1]).unwrap();
    drop(Store::open(dir.path()).unwrap());
    assert_eq!(inode(), log, "nor is a log that holds records");
}

#[test]
fn truncated_log_quarantines_tail_and_keeps_the_rest() {
    let dir = TestDir::new("truncate");
    {
        let store = Store::open(dir.path()).unwrap();
        store.put(1, 1, &[11; 8]).unwrap();
        store.put(2, 1, &[22; 8]).unwrap();
    }
    // Tear the tail mid-record, as a crash during append would.
    let bytes = fs::read(dir.log()).unwrap();
    fs::write(dir.log(), &bytes[..bytes.len() - 13]).unwrap();

    let store = Store::open(dir.path()).unwrap();
    assert_eq!(store.len(), 1, "torn record dropped, earlier record kept");
    assert_eq!(store.get(1, 1), Some(vec![11; 8]));
    assert_eq!(store.get(2, 1), None);
    assert!(store.verify().unwrap().is_clean(), "log rewritten clean");
    assert!(store.stats().quarantine_bytes > 0, "torn bytes preserved in quarantine");
    // The healed store accepts new appends.
    store.put(2, 1, &[22; 8]).unwrap();
    assert_eq!(store.get(2, 1), Some(vec![22; 8]));
}

#[test]
fn bit_flip_is_quarantined_not_a_panic() {
    let dir = TestDir::new("bitflip");
    {
        let store = Store::open(dir.path()).unwrap();
        store.put(1, 1, &[5; 16]).unwrap();
        store.put(2, 1, &[6; 16]).unwrap();
    }
    // Flip one payload bit of the first record (header is 16 bytes, record
    // header 24, so byte 48 is inside record 1's payload).
    let mut bytes = fs::read(dir.log()).unwrap();
    bytes[48] ^= 0x01;
    fs::write(dir.log(), &bytes).unwrap();

    let store = Store::open(dir.path()).unwrap();
    assert_eq!(store.get(1, 1), None, "corrupt record dropped");
    assert_eq!(store.get(2, 1), Some(vec![6; 16]), "record after the bad one survives");
    assert_eq!(store.stats().quarantined, 1);
    assert!(store.verify().unwrap().is_clean());
}

#[test]
fn bit_flip_after_open_is_caught_at_read_time() {
    let dir = TestDir::new("bitflip-read");
    let store = Store::open(dir.path()).unwrap();
    store.put(1, 1, &[5; 16]).unwrap();
    // The key map was built before the flip, so only the checksum check
    // at read time can catch it.
    let mut bytes = fs::read(dir.log()).unwrap();
    bytes[48] ^= 0x01;
    fs::write(dir.log(), &bytes).unwrap();
    assert_eq!(store.get(1, 1), None);
    assert_eq!(store.stats().quarantined, 1);
    // Overwriting heals the key.
    store.put(1, 1, &[7; 16]).unwrap();
    assert_eq!(store.get(1, 1), Some(vec![7; 16]));
    // The reopen quarantines the flipped record and keeps the overwrite.
    drop(store);
    let store = Store::open(dir.path()).unwrap();
    assert_eq!(store.get(1, 1), Some(vec![7; 16]));
    assert_eq!(store.stats().quarantined, 1);
    assert!(store.verify().unwrap().is_clean());
}

#[test]
fn the_shadow_count_survives_a_reopen() {
    let dir = TestDir::new("shadow");
    {
        let store = Store::open(dir.path()).unwrap();
        store.put(1, 1, &[1; 4]).unwrap();
        store.put(1, 1, &[2; 4]).unwrap();
        assert_eq!(store.stats().shadowed_records, 1);
    }
    let store = Store::open(dir.path()).unwrap();
    assert_eq!(store.stats().shadowed_records, 1, "the log holds the shadowed record");
    assert_eq!(store.get(1, 1), Some(vec![2; 4]), "the newest write wins");
    assert_eq!(store.len(), 1);
}

#[test]
fn a_second_store_on_one_directory_is_refused_until_the_first_drops() {
    let dir = TestDir::new("lock");
    let first = Store::open(dir.path()).unwrap();
    first.put(1, 1, &[10]).unwrap();
    let err = Store::open(dir.path()).unwrap_err();
    assert!(err.to_string().contains(&dir.path().display().to_string()), "names the dir: {err}");
    drop(first);
    let second = Store::open(dir.path()).unwrap();
    second.put(2, 1, &[20]).unwrap();
    drop(second);
    let store = Store::open(dir.path()).unwrap();
    assert_eq!(store.get(1, 1), Some(vec![10]), "no acknowledged record is lost");
    assert_eq!(store.get(2, 1), Some(vec![20]));
}

#[test]
fn verify_dir_reports_damage_that_an_open_would_heal() {
    let dir = TestDir::new("verify-dir");
    {
        let store = Store::open(dir.path()).unwrap();
        store.put(1, 1, &[5; 16]).unwrap();
        store.put(2, 1, &[6; 16]).unwrap();
    }
    let mut bytes = fs::read(dir.log()).unwrap();
    bytes[48] ^= 0x01;
    fs::write(dir.log(), &bytes).unwrap();
    let report = Store::verify_dir(dir.path()).unwrap();
    assert_eq!((report.good, report.corrupt), (1, 1));
    assert_eq!(fs::read(dir.log()).unwrap(), bytes, "the check changes nothing");
    // Opening heals: the corrupt record moves to the quarantine file. An
    // open store holds the directory, so the check waits for it to drop.
    let store = Store::open(dir.path()).unwrap();
    assert!(Store::verify_dir(dir.path()).is_err());
    drop(store);
    assert!(Store::verify_dir(dir.path()).unwrap().is_clean());
}

#[test]
fn overwrites_shadow_and_gc_reclaims() {
    let dir = TestDir::new("gc");
    let store = Store::open(dir.path()).unwrap();
    store.put(1, 1, &[1; 32]).unwrap();
    store.put(1, 1, &[2; 32]).unwrap(); // shadows the first
    store.put(2, 7, &[3; 32]).unwrap(); // stale schema version
    store.put(3, 1, &[4; 32]).unwrap();
    assert_eq!(store.get(1, 1), Some(vec![2; 32]));
    assert_eq!(store.stats().shadowed_records, 1);

    let report = store.gc(1).unwrap();
    assert_eq!(report.kept, 2);
    assert_eq!(report.dropped_stale, 1);
    assert_eq!(report.dropped_shadowed, 1);
    assert!(report.bytes_after < report.bytes_before);

    assert_eq!(store.get(1, 1), Some(vec![2; 32]), "latest value survives gc");
    assert_eq!(store.get(3, 1), Some(vec![4; 32]));
    assert_eq!(store.get(2, 7), None, "stale-schema record dropped");
    assert_eq!(store.len(), 2);

    // And the gc'd store reopens cleanly.
    drop(store);
    let store = Store::open(dir.path()).unwrap();
    assert_eq!(store.len(), 2);
    assert_eq!(store.get(1, 1), Some(vec![2; 32]));
}

#[test]
fn resolve_dir_precedence() {
    assert_eq!(Store::resolve_dir(Some("/x/y")), PathBuf::from("/x/y"));
    // Without an override the result is the env var or the default; both
    // are exercised by CI, here we just pin the default name.
    assert_eq!(FORMAT_VERSION, 1);
    assert_eq!(tdo_store::DEFAULT_DIR, ".tdo-store");
}

#[test]
fn size_stats_and_metric_histograms() {
    let dir = TestDir::new("sizestats");
    let store = Store::open(dir.path()).unwrap();
    store.put(1, 1, &[0; 4]).unwrap();
    store.put(2, 1, &[0; 64]).unwrap();
    store.put(3, 2, &[0; 4]).unwrap();
    let _ = store.get(1, 1);
    let _ = store.get(9, 1); // miss
    store.verify().unwrap();

    let sizes = store.size_stats();
    assert_eq!(sizes.per_generation.len(), 2, "two schema generations live");
    assert_eq!(sizes.per_generation[0].version, 1);
    assert_eq!(sizes.per_generation[0].records, 2);
    assert_eq!(sizes.per_generation[1].version, 2);
    assert_eq!(sizes.per_generation[1].records, 1);
    assert_eq!(sizes.record_bytes.count, 3);
    let log_payload_bytes: u64 = sizes.per_generation.iter().map(|g| g.bytes).sum();
    assert!(log_payload_bytes > 0);

    // The registry sees the same store counters and the latency
    // histograms recorded one observation per operation.
    let reg = tdo_metrics::Registry::new();
    store.register_metrics(&reg);
    let text = reg.render_prom();
    assert!(text.contains("tdo_store_puts_total 3\n"), "puts counter exposed:\n{text}");
    assert!(text.contains("tdo_store_get_latency_us_count 2\n"), "two timed gets:\n{text}");
    assert!(text.contains("tdo_store_put_latency_us_count 3\n"), "three timed puts:\n{text}");
    assert!(text.contains("tdo_store_verify_latency_us_count 1\n"), "one timed verify:\n{text}");
    assert!(text.contains("tdo_store_record_bytes_count 3\n"), "record sizes observed:\n{text}");
    tdo_metrics::expo::parse_text(&text).expect("store exposition parses");
}
