//! Seeded probabilistic fault sweeps over the store: the same seed must
//! reproduce the exact same acknowledgement pattern, and read-path
//! corruption must quarantine — never serve garbage.
//!
//! Phases that must not see faults, opening a store included, arm an
//! all-off plan; the plane's gate serializes them against sibling tests'
//! armed phases.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tdo_fault::{arm, FaultPlan, Site};
use tdo_rand::Rng;
use tdo_store::Store;

const SCHEMA: u32 = 3;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tdo-sweep-{}-{tag}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
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

fn payload(key: u64) -> Vec<u64> {
    let mut rng = Rng::new(0xBEEF ^ key);
    (0..(2 + key % 7)).map(|_| rng.next_u64()).collect()
}

/// One seeded write sweep: 40 puts and then 8 compactions under
/// probabilistic faults on every write-path site (the rename sites sit on
/// log rewrites, so only the compactions reach them). Returns (acked keys,
/// per-write-site fires).
fn write_sweep(seed: u64, dir: &Path) -> (Vec<u64>, u64) {
    let store = {
        let _quiet = arm(FaultPlan::new(0));
        Store::open(dir).expect("open scratch store")
    };
    let guard = arm(FaultPlan::new(seed)
        .with_prob(Site::StoreShortWrite, 150)
        .with_prob(Site::StoreFsyncFail, 120)
        .with_prob(Site::StoreRenameFail, 120)
        .with_prob(Site::StoreTornRename, 120));
    let acked: Vec<u64> =
        (1..=40u64).filter(|&key| store.put(key, SCHEMA, &payload(key)).is_ok()).collect();
    for _ in 0..8 {
        let _ = store.gc(SCHEMA);
    }
    let fires = guard.summary().iter().map(|r| r.fires).sum();
    (acked, fires)
}

#[test]
fn the_same_seed_reproduces_the_same_sweep() {
    let (dir_a, dir_b, dir_c) = (TempDir::new("a"), TempDir::new("b"), TempDir::new("c"));
    let (acked_a, fires_a) = write_sweep(21, dir_a.path());
    let (acked_b, fires_b) = write_sweep(21, dir_b.path());
    let (acked_c, fires_c) = write_sweep(22, dir_c.path());
    assert_eq!(acked_a, acked_b, "same seed, same acknowledgement pattern");
    assert_eq!(fires_a, fires_b);
    assert!(fires_a > 0, "the sweep must actually inject faults");
    assert!(acked_a.len() < 40, "some puts must fail under the sweep");
    assert!(
        acked_a != acked_c || fires_a != fires_c,
        "a different seed must draw a different schedule"
    );
    // Recovery invariant holds for the faulted stores too.
    let _quiet = arm(FaultPlan::new(0));
    for (dir, acked) in [(&dir_a, &acked_a), (&dir_c, &acked_c)] {
        let reopened = Store::open(dir.path()).expect("reopen");
        for &key in acked.iter() {
            assert_eq!(reopened.get(key, SCHEMA).as_deref(), Some(&payload(key)[..]));
        }
        assert!(reopened.verify().expect("verify").is_clean());
    }
}

#[test]
fn read_corruption_quarantines_and_never_serves_garbage() {
    let dir = TempDir::new("corrupt");
    let keys = 24u64;
    let (served, quarantined) = {
        let store = {
            let _quiet = arm(FaultPlan::new(0));
            let store = Store::open(dir.path()).expect("open scratch store");
            for key in 1..=keys {
                store.put(key, SCHEMA, &payload(key)).expect("clean put");
            }
            store
        };
        let _g = arm(FaultPlan::new(0xC0DE).with_prob(Site::StoreReadCorrupt, 400));
        let mut served = Vec::new();
        let mut quarantined = 0u64;
        for key in 1..=keys {
            match store.get(key, SCHEMA) {
                Some(p) if p == payload(key) => served.push(key),
                Some(_) => panic!("key {key}: a corrupted read served garbage"),
                None => quarantined += 1,
            }
        }
        assert!(quarantined > 0, "p=0.4 over 24 reads must corrupt at least one");
        assert_eq!(store.stats().quarantined, quarantined, "quarantine accounting");
        (served, quarantined)
    };
    // Good-prefix recovery: the served records survive the restart intact.
    let _quiet = arm(FaultPlan::new(0));
    let reopened = Store::open(dir.path()).expect("reopen after corruption");
    for &key in &served {
        assert_eq!(
            reopened.get(key, SCHEMA).as_deref(),
            Some(&payload(key)[..]),
            "surviving key {key} regressed across restart"
        );
    }
    assert!(reopened.verify().expect("verify").is_clean());
    assert!(served.len() as u64 + quarantined == keys);
}
