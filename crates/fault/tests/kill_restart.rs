//! Kill-and-restart chaos at the store layer: fault exactly the `nth`
//! operation of every write-path injection site, keep writing, kill the
//! store (drop) and restart it (reopen) — no acknowledged record may be
//! lost and the log must rescan clean at every injection point. The append
//! sites fault a put; the rename sites fault a log rewrite, which the
//! sweep reaches by compacting the log after every put.
//!
//! Phases that must *not* see faults, opening a store included, arm an
//! all-off plan: the plane's gate mutex then serializes them against the
//! armed phases of sibling tests.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tdo_fault::{arm, FaultPlan, Site};
use tdo_rand::Rng;
use tdo_store::Store;

const SCHEMA: u32 = 3;

const WRITE_SITES: [Site; 4] =
    [Site::StoreShortWrite, Site::StoreFsyncFail, Site::StoreRenameFail, Site::StoreTornRename];

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tdo-fault-{}-{tag}-{}",
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
    let mut rng = Rng::new(0xF00D ^ key);
    (0..(3 + key % 9)).map(|_| rng.next_u64()).collect()
}

#[test]
fn every_write_site_and_injection_point_recovers_all_acked_records() {
    for site in WRITE_SITES {
        let compact = matches!(site, Site::StoreRenameFail | Site::StoreTornRename);
        for nth in 1..=4u64 {
            let dir = TempDir::new("kill");
            let mut acked = Vec::new();
            let mut failures = 0;
            let fires;
            {
                // Arm *after* open: opening commits the log header itself.
                let store = {
                    let _quiet = arm(FaultPlan::new(0));
                    Store::open(dir.path()).expect("open scratch store")
                };
                let guard = arm(FaultPlan::new(0xAB00 ^ nth).with_at(site, nth));
                for key in 1..=9u64 {
                    match store.put(key, SCHEMA, &payload(key)) {
                        Ok(()) => acked.push(key),
                        Err(_) => failures += 1,
                    }
                    if compact && store.gc(SCHEMA).is_err() {
                        failures += 1;
                    }
                }
                fires = guard.summary().iter().find(|r| r.site == site).map_or(0, |r| r.fires);
            }
            // The store was dropped mid-life ("killed"); recovery follows.
            let _quiet = arm(FaultPlan::new(0));
            assert_eq!(fires, 1, "site {} must fire at point {nth}", site.name());
            assert_eq!(failures, 1, "site {} point {nth}: the faulted call fails", site.name());
            let reopened = Store::open(dir.path()).expect("reopen after kill");
            for &key in &acked {
                assert_eq!(
                    reopened.get(key, SCHEMA).as_deref(),
                    Some(&payload(key)[..]),
                    "site {} point {nth}: acked key {key} lost across restart",
                    site.name()
                );
            }
            let verify = reopened.verify().expect("verify reopened log");
            assert!(
                verify.is_clean(),
                "site {} point {nth}: log not clean after recovery: {verify:?}",
                site.name()
            );
        }
    }
}

#[test]
fn a_torn_append_never_costs_later_records() {
    let dir = TempDir::new("torn");
    {
        let store = {
            let _quiet = arm(FaultPlan::new(0));
            Store::open(dir.path()).expect("open scratch store")
        };
        let _g = arm(FaultPlan::new(0x70).with_at(Site::StoreShortWrite, 2));
        assert!(store.put(1, SCHEMA, &payload(1)).is_ok());
        assert!(store.put(2, SCHEMA, &payload(2)).is_err(), "injected short write");
        // The failed append left torn bytes at the log tail; the next put
        // must land after the last *acknowledged* record, not after the
        // garbage.
        assert!(store.put(3, SCHEMA, &payload(3)).is_ok());
        assert_eq!(store.get(1, SCHEMA).as_deref(), Some(&payload(1)[..]));
        assert_eq!(store.get(3, SCHEMA).as_deref(), Some(&payload(3)[..]));
    }
    let _quiet = arm(FaultPlan::new(0));
    let reopened = Store::open(dir.path()).expect("reopen");
    assert_eq!(reopened.get(1, SCHEMA).as_deref(), Some(&payload(1)[..]));
    assert_eq!(reopened.get(3, SCHEMA).as_deref(), Some(&payload(3)[..]));
    assert!(reopened.get(2, SCHEMA).is_none(), "the failed put was never acknowledged");
    assert!(reopened.verify().expect("verify").is_clean());
}
