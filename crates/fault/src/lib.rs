//! # tdo-fault — seeded, deterministic fault injection
//!
//! A process-global fault-injection plane for chaos testing the store,
//! server and experiment-engine layers. Production code declares *named
//! injection sites* ([`Site`]) at its failure-prone operations and asks the
//! plane whether to fail via [`fire`] / [`fire_keyed`]; tests and the
//! `tdo chaos` harness *arm* the plane with a [`FaultPlan`] built from a
//! `tdo_rand` seed.
//!
//! **Zero overhead when disarmed.** Like the `tdo-obs` probe, the disarmed
//! fast path is a single relaxed atomic load returning `None` — no locks,
//! no allocation, no branching on plan state. Production binaries never arm
//! the plane, so shipping the sites costs nothing.
//!
//! **Deterministic when armed.** Every injection decision is a pure
//! function of `(seed, site, n)` where `n` is either the site's hit index
//! (serial scenarios) or a caller-supplied stable key ([`fire_keyed`] —
//! e.g. a cell-fingerprint hash, immune to thread interleaving). Re-running
//! with the same seed reproduces the exact same faults; that is what makes
//! `tdo chaos --seed S` byte-deterministic across runs and `--jobs` values.
//!
//! Arming is serialized on a global gate mutex so concurrent tests in one
//! process cannot observe each other's plans; the [`ArmGuard`] disarms on
//! drop. When a `tdo_metrics::Registry` is supplied ([`arm_with_registry`]),
//! fired injections are counted under `tdo_fault_injected_total{site}` —
//! the family is absent from registries of processes that never arm.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use tdo_metrics::{Counter, Registry};
use tdo_rand::{splitmix64, Rng};

/// Number of declared injection sites (length of [`Site::ALL`]).
pub const NSITES: usize = 14;

/// A named fault-injection site compiled into a production code path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // the variant names are the documentation
pub enum Site {
    StoreShortWrite,
    StoreFsyncFail,
    StoreRenameFail,
    StoreTornRename,
    StoreReadCorrupt,
    ServerAcceptFail,
    ServerReadFail,
    ServerWriteFail,
    ServerSlowClient,
    ServerWorkerPanic,
    ServerQueueSaturate,
    EngineCellPanic,
    EngineStoreDegrade,
    EngineHelperJitter,
}

impl Site {
    /// Every declared site, in stable (summary/report) order.
    pub const ALL: [Site; NSITES] = [
        Site::StoreShortWrite,
        Site::StoreFsyncFail,
        Site::StoreRenameFail,
        Site::StoreTornRename,
        Site::StoreReadCorrupt,
        Site::ServerAcceptFail,
        Site::ServerReadFail,
        Site::ServerWriteFail,
        Site::ServerSlowClient,
        Site::ServerWorkerPanic,
        Site::ServerQueueSaturate,
        Site::EngineCellPanic,
        Site::EngineStoreDegrade,
        Site::EngineHelperJitter,
    ];

    /// Stable snake_case name, used as the `site` metric label and in the
    /// chaos coverage summary.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Site::StoreShortWrite => "store_short_write",
            Site::StoreFsyncFail => "store_fsync_fail",
            Site::StoreRenameFail => "store_rename_fail",
            Site::StoreTornRename => "store_torn_rename",
            Site::StoreReadCorrupt => "store_read_corrupt",
            Site::ServerAcceptFail => "server_accept_fail",
            Site::ServerReadFail => "server_read_fail",
            Site::ServerWriteFail => "server_write_fail",
            Site::ServerSlowClient => "server_slow_client",
            Site::ServerWorkerPanic => "server_worker_panic",
            Site::ServerQueueSaturate => "server_queue_saturate",
            Site::EngineCellPanic => "engine_cell_panic",
            Site::EngineStoreDegrade => "engine_store_degrade",
            Site::EngineHelperJitter => "engine_helper_jitter",
        }
    }

    fn idx(self) -> usize {
        Site::ALL.iter().position(|s| *s == self).expect("site is in ALL")
    }
}

/// Per-site injection mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Mode {
    /// Never fire (the default for every site).
    #[default]
    Off,
    /// Fire pseudo-randomly with probability `per_mille`/1000 per hit
    /// (or per distinct key with [`fire_keyed`]).
    Prob {
        /// Firing probability in thousandths (0..=1000).
        per_mille: u16,
    },
    /// Fire exactly on the `nth` hit of the site (1-based), once.
    At {
        /// 1-based hit index to fire on.
        nth: u64,
    },
}

/// A seeded, per-site fault schedule. Build one with [`FaultPlan::new`] and
/// the `with_*` combinators, then [`arm`] it.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    modes: [Mode; NSITES],
}

impl FaultPlan {
    /// A plan with every site off, decided by `seed` once modes are set.
    #[must_use]
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, modes: [Mode::Off; NSITES] }
    }

    /// The seed the plan (and all its decisions) derive from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured mode for `site`.
    #[must_use]
    pub fn mode(&self, site: Site) -> Mode {
        self.modes[site.idx()]
    }

    /// Fires `site` with probability `per_mille`/1000 per hit.
    #[must_use]
    pub fn with_prob(mut self, site: Site, per_mille: u16) -> FaultPlan {
        self.modes[site.idx()] = Mode::Prob { per_mille: per_mille.min(1000) };
        self
    }

    /// Fires `site` exactly on its `nth` (1-based) hit.
    #[must_use]
    pub fn with_at(mut self, site: Site, nth: u64) -> FaultPlan {
        self.modes[site.idx()] = Mode::At { nth };
        self
    }
}

/// Coverage of one site while the plane was armed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteSummary {
    /// The site.
    pub site: Site,
    /// Times production code reached the site while armed.
    pub hits: u64,
    /// Times the plane decided to inject a fault there.
    pub fires: u64,
}

struct Plane {
    /// Per-site decision salts, expanded from the plan seed via `tdo_rand`.
    salts: [u64; NSITES],
    modes: [Mode; NSITES],
    hits: [u64; NSITES],
    fires: [u64; NSITES],
    counters: Option<Vec<Arc<Counter>>>,
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn gate() -> &'static Mutex<()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
}

fn plane() -> &'static Mutex<Option<Plane>> {
    static PLANE: OnceLock<Mutex<Option<Plane>>> = OnceLock::new();
    PLANE.get_or_init(|| Mutex::new(None))
}

fn lock_plane() -> MutexGuard<'static, Option<Plane>> {
    plane().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Keeps the fault plane armed; disarms (and forgets the plan) on drop.
///
/// Holding the guard also holds a process-global gate mutex, so at most one
/// armed section runs at a time — concurrent tests cannot contaminate each
/// other's fault schedules.
pub struct ArmGuard {
    _gate: MutexGuard<'static, ()>,
}

impl ArmGuard {
    /// Per-site hit/fire coverage accumulated since arming.
    #[must_use]
    pub fn summary(&self) -> Vec<SiteSummary> {
        summary()
    }
}

impl Drop for ArmGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *lock_plane() = None;
    }
}

/// Arms the plane with `plan`. Blocks until any other armed section ends.
#[must_use]
pub fn arm(plan: FaultPlan) -> ArmGuard {
    arm_inner(plan, None)
}

/// Arms the plane and counts fired injections in `reg` under
/// `tdo_fault_injected_total{site}`. The family is only ever registered
/// here, so a registry that never arms renders no `tdo_fault_*` lines.
#[must_use]
pub fn arm_with_registry(plan: FaultPlan, reg: &Registry) -> ArmGuard {
    let counters = Site::ALL
        .iter()
        .map(|site| {
            reg.counter(
                "tdo_fault_injected_total",
                &[("site", site.name())],
                "Faults injected by the tdo-fault plane (armed runs only).",
            )
        })
        .collect();
    arm_inner(plan, Some(counters))
}

fn arm_inner(plan: FaultPlan, counters: Option<Vec<Arc<Counter>>>) -> ArmGuard {
    let gate = gate().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut rng = Rng::new(plan.seed);
    let salts = std::array::from_fn(|_| rng.next_u64());
    *lock_plane() =
        Some(Plane { salts, modes: plan.modes, hits: [0; NSITES], fires: [0; NSITES], counters });
    ARMED.store(true, Ordering::SeqCst);
    ArmGuard { _gate: gate }
}

/// Whether the plane is currently armed.
#[must_use]
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Asks the plane whether to inject a fault at `site`, deciding by the
/// site's hit index. Returns `None` (always, at one atomic load's cost)
/// when disarmed; when firing, returns a deterministic 64-bit entropy token
/// the caller may use to derive fault details (flip position, jitter, ...).
///
/// Hit-index decisions are only reproducible when the site is reached in a
/// deterministic order — use [`fire_keyed`] from concurrent code.
#[must_use]
pub fn fire(site: Site) -> Option<u64> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    decide(site, None)
}

/// Like [`fire`], but `Prob` decisions derive from the caller's stable
/// `key` instead of the hit index, so they are independent of thread
/// interleaving and worker count. `At { nth }` still counts hits.
#[must_use]
pub fn fire_keyed(site: Site, key: u64) -> Option<u64> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    decide(site, Some(key))
}

fn decide(site: Site, key: Option<u64>) -> Option<u64> {
    let mut guard = lock_plane();
    let plane = guard.as_mut()?;
    let i = site.idx();
    plane.hits[i] += 1;
    let fired = match plane.modes[i] {
        Mode::Off => None,
        Mode::Prob { per_mille } => {
            let h = splitmix64(plane.salts[i] ^ key.unwrap_or(plane.hits[i]));
            (h % 1000 < u64::from(per_mille)).then(|| splitmix64(h))
        }
        Mode::At { nth } => (plane.hits[i] == nth).then(|| splitmix64(plane.salts[i] ^ nth)),
    };
    if let Some(token) = fired {
        plane.fires[i] += 1;
        if let Some(counters) = &plane.counters {
            counters[i].inc();
        }
        // Attribute the injection to whatever request is executing: the
        // fired site lands as a point event in the caller's current span,
        // so a chaos failure maps back to the exact trace that hit it.
        tdo_obs::span::point(tdo_obs::FlightKind::Fault, i as u64);
        return Some(token);
    }
    None
}

/// Per-site hit/fire coverage of the currently armed plan (empty when
/// disarmed).
#[must_use]
pub fn summary() -> Vec<SiteSummary> {
    let guard = lock_plane();
    let Some(plane) = guard.as_ref() else {
        return Vec::new();
    };
    Site::ALL
        .iter()
        .map(|&site| {
            let i = site.idx();
            SiteSummary { site, hits: plane.hits[i], fires: plane.fires[i] }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Holds the arming gate, so no sibling test's plan is armed while a
    /// test probes the disarmed plane: an unguarded `fire` would count as
    /// a hit on that plan and shift its hit-index schedule.
    fn disarmed() -> MutexGuard<'static, ()> {
        gate().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disarmed_plane_never_fires_and_counts_nothing() {
        let _gate = disarmed();
        assert!(!is_armed());
        for site in Site::ALL {
            assert_eq!(fire(site), None);
            assert_eq!(fire_keyed(site, 42), None);
        }
        assert!(summary().is_empty());
    }

    #[test]
    fn decisions_are_deterministic_in_seed_and_hit_index() {
        let run = |seed: u64| {
            let _g = arm(FaultPlan::new(seed).with_prob(Site::StoreShortWrite, 300));
            (0..64).map(|_| fire(Site::StoreShortWrite).is_some()).collect::<Vec<_>>()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        assert!(a.iter().any(|f| *f), "p=0.3 over 64 hits fires at least once");
        assert!(!a.iter().all(|f| *f), "p=0.3 over 64 hits spares at least one");
    }

    #[test]
    fn keyed_decisions_ignore_hit_order() {
        let keys = [11u64, 22, 33, 44, 55, 66, 77, 88];
        let run = |order: &[u64]| {
            let _g = arm(FaultPlan::new(9).with_prob(Site::EngineStoreDegrade, 500));
            order
                .iter()
                .map(|&k| (k, fire_keyed(Site::EngineStoreDegrade, k).is_some()))
                .collect::<std::collections::HashMap<_, _>>()
        };
        let fwd = run(&keys);
        let mut rev = keys;
        rev.reverse();
        assert_eq!(fwd, run(&rev), "per-key decisions are independent of order");
    }

    #[test]
    fn at_mode_fires_exactly_once_on_the_nth_hit() {
        let _g = arm(FaultPlan::new(3).with_at(Site::StoreFsyncFail, 4));
        let fired: Vec<bool> = (0..8).map(|_| fire(Site::StoreFsyncFail).is_some()).collect();
        assert_eq!(fired, vec![false, false, false, true, false, false, false, false]);
        let s = _g.summary();
        let row = s.iter().find(|r| r.site == Site::StoreFsyncFail).unwrap();
        assert_eq!((row.hits, row.fires), (8, 1));
    }

    #[test]
    fn guard_drop_disarms_and_clears_state() {
        {
            let _g = arm(FaultPlan::new(1).with_prob(Site::ServerReadFail, 1000));
            assert!(is_armed());
            assert!(fire(Site::ServerReadFail).is_some());
        }
        let _gate = disarmed();
        assert!(!is_armed());
        assert_eq!(fire(Site::ServerReadFail), None);
        assert!(summary().is_empty());
    }

    #[test]
    fn registry_counters_track_fires_and_label_sites() {
        let reg = Registry::new();
        {
            let _g =
                arm_with_registry(FaultPlan::new(5).with_prob(Site::StoreReadCorrupt, 1000), &reg);
            for _ in 0..3 {
                assert!(fire(Site::StoreReadCorrupt).is_some());
            }
            assert_eq!(fire(Site::StoreShortWrite), None, "off sites stay off");
        }
        let prom = reg.render_prom();
        assert!(
            prom.contains("tdo_fault_injected_total{site=\"store_read_corrupt\"} 3"),
            "fired site is counted: {prom}"
        );
        assert!(
            prom.contains("tdo_fault_injected_total{site=\"store_short_write\"} 0"),
            "armed-but-silent site renders zero: {prom}"
        );
    }

    #[test]
    fn every_site_has_a_unique_stable_name() {
        let mut names: Vec<&str> = Site::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NSITES);
    }
}
