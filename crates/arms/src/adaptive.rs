//! Adaptive-degree next-line prefetching: the STATISTICS→BEST_DEGREE
//! hill-climbing state machine of ChampSim's `next_line_linear_mpki`
//! prefetcher, driving the shared next-line pool.
//!
//! The controller alternates two states:
//!
//! * **Statistics** — sweep every degree from `min_degree` to `max_degree`,
//!   running each for `stats_window` demand loads and recording its miss
//!   rate (misses per kilo-access, in milli-units — integer arithmetic
//!   keeps the sweep deterministic across platforms);
//! * **BestDegree** — commit to the degree with the lowest recorded miss
//!   rate (ties break toward the lower, cheaper degree) for `best_window`
//!   demand loads, then sweep again.
//!
//! The reference uses retired instructions as the window clock; an arm
//! only observes demand loads, so loads are the clock here and the window
//! constants are interpreted per-load (the reference's 5000/25000 shape is
//! kept).

use crate::nextline::LinePool;
use crate::{ArmHit, ArmKind, ArmStats, Prefetcher, RefillList, MAX_STREAM_ENTRIES};

/// Configuration of the adaptive-degree next-line arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveNextLineConfig {
    /// Number of independent line streams tracked at once.
    pub buffers: usize,
    /// Demand loads each candidate degree runs for during a sweep
    /// (`STATISTICS_INSTR_LIMIT_PER_DEGREE` in the reference).
    pub stats_window: u64,
    /// Demand loads the winning degree runs for before the next sweep
    /// (`BEST_DEGREE_INSTR_LIMIT` in the reference).
    pub best_window: u64,
    /// Lowest degree swept (0 = no prefetching is a candidate).
    pub min_degree: usize,
    /// Highest degree swept.
    pub max_degree: usize,
}

impl Default for AdaptiveNextLineConfig {
    /// The reference constants: 5000-load sweep windows, 25000-load commit
    /// windows, degrees 0..=16.
    fn default() -> AdaptiveNextLineConfig {
        AdaptiveNextLineConfig {
            buffers: 8,
            stats_window: 5000,
            best_window: 25000,
            min_degree: 0,
            max_degree: 16,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Statistics,
    BestDegree,
}

/// The adaptive-degree next-line arm.
pub struct AdaptiveNextLinePrefetcher {
    cfg: AdaptiveNextLineConfig,
    pool: LinePool,
    state: State,
    /// Demand loads and L1 misses observed in the current window.
    window_accesses: u64,
    window_misses: u64,
    /// Miss rate per swept degree, in milli-MPKA (misses per kilo-access
    /// × 1000). `u64::MAX` marks degrees not yet measured this sweep.
    mpka_milli: [u64; MAX_STREAM_ENTRIES + 1],
}

impl AdaptiveNextLinePrefetcher {
    /// Builds the arm for lines of `line_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.max_degree` exceeds [`MAX_STREAM_ENTRIES`] or the
    /// degree range is empty.
    #[must_use]
    pub fn new(cfg: AdaptiveNextLineConfig, line_bytes: u64) -> AdaptiveNextLinePrefetcher {
        assert!(
            cfg.max_degree <= MAX_STREAM_ENTRIES,
            "max degree {} exceeds the inline refill-list bound {MAX_STREAM_ENTRIES}",
            cfg.max_degree
        );
        assert!(cfg.min_degree <= cfg.max_degree, "empty degree range");
        AdaptiveNextLinePrefetcher {
            pool: LinePool::new(cfg.buffers, cfg.min_degree, line_bytes),
            cfg,
            state: State::Statistics,
            window_accesses: 0,
            window_misses: 0,
            mpka_milli: [u64::MAX; MAX_STREAM_ENTRIES + 1],
        }
    }

    /// The degree currently in force (test and report aid).
    #[must_use]
    pub fn degree(&self) -> usize {
        self.pool.degree
    }

    fn window_limit(&self) -> u64 {
        match self.state {
            State::Statistics => self.cfg.stats_window,
            State::BestDegree => self.cfg.best_window,
        }
    }

    fn close_window(&mut self) {
        match self.state {
            State::Statistics => {
                // Milli-MPKA: misses per kilo-access × 1000, in integers.
                self.mpka_milli[self.pool.degree] =
                    (self.window_misses * 1_000_000) / self.window_accesses.max(1);
                if self.pool.degree < self.cfg.max_degree {
                    self.pool.degree += 1;
                } else {
                    // Sweep complete: commit to the argmin; ties break to
                    // the lower (cheaper) degree because the scan is
                    // strictly-less from below.
                    let best = (self.cfg.min_degree..=self.cfg.max_degree)
                        .min_by_key(|&d| self.mpka_milli[d])
                        .expect("non-empty degree range");
                    self.pool.degree = best;
                    self.state = State::BestDegree;
                }
            }
            State::BestDegree => {
                self.mpka_milli = [u64::MAX; MAX_STREAM_ENTRIES + 1];
                self.pool.degree = self.cfg.min_degree;
                self.state = State::Statistics;
            }
        }
        self.window_accesses = 0;
        self.window_misses = 0;
    }
}

impl Prefetcher for AdaptiveNextLinePrefetcher {
    fn kind(&self) -> ArmKind {
        ArmKind::AdaptiveNextLine
    }

    /// Steps the degree state machine (once per demand load, mirroring the
    /// reference's `prefetcher_cycle_operate` cadence).
    fn advance(&mut self, _now: u64) {
        if self.window_accesses >= self.window_limit() {
            self.close_window();
        }
    }

    fn train(&mut self, _pc: u64, _addr: u64, l1_miss: bool) {
        self.window_accesses += 1;
        if l1_miss {
            self.window_misses += 1;
        }
    }

    fn contains(&self, addr: u64) -> bool {
        self.pool.contains(addr)
    }

    fn probe_and_consume(&mut self, addr: u64) -> Option<ArmHit> {
        self.pool.probe_and_consume(addr)
    }

    fn refill_addresses(&mut self, slot: usize) -> RefillList {
        self.pool.refill_addresses(slot)
    }

    fn push_fill(&mut self, slot: usize, line_addr: u64, ready_at: u64) {
        self.pool.push_fill(slot, line_addr, ready_at)
    }

    fn consider_allocation(&mut self, _pc: u64, addr: u64) -> Option<(usize, RefillList)> {
        self.pool.consider_allocation(addr)
    }

    fn stats(&self) -> ArmStats {
        self.pool.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ada(stats_window: u64, best_window: u64, max_degree: usize) -> AdaptiveNextLinePrefetcher {
        AdaptiveNextLinePrefetcher::new(
            AdaptiveNextLineConfig {
                buffers: 4,
                stats_window,
                best_window,
                min_degree: 0,
                max_degree,
            },
            64,
        )
    }

    /// Drives `loads` accesses with a fixed miss outcome per degree.
    fn drive(p: &mut AdaptiveNextLinePrefetcher, loads: u64, miss_for: impl Fn(usize) -> bool) {
        for i in 0..loads {
            p.advance(i);
            let d = p.degree();
            p.train(0x400, 0x1000 + i * 8, miss_for(d));
        }
    }

    #[test]
    fn sweep_walks_every_degree_then_commits_to_the_argmin() {
        let mut p = ada(10, 100, 4);
        // Degree 2 is the only one that never misses; every other degree
        // always misses.
        drive(&mut p, 10 * 5 + 1, |d| d != 2);
        assert_eq!(p.degree(), 2, "commits to the measured argmin");
        // The commit window holds the degree.
        drive(&mut p, 50, |_| false);
        assert_eq!(p.degree(), 2);
    }

    #[test]
    fn commit_window_expiry_restarts_the_sweep() {
        let mut p = ada(10, 30, 2);
        drive(&mut p, 10 * 3 + 1, |d| d != 1);
        assert_eq!(p.degree(), 1);
        // Burn through the commit window; the next advance re-enters the
        // sweep at min_degree.
        drive(&mut p, 31, |_| false);
        assert_eq!(p.degree(), 0, "sweep restarts from the bottom");
    }

    #[test]
    fn ties_break_toward_the_lower_degree() {
        let mut p = ada(10, 100, 3);
        // All degrees miss equally: degree 0 (no prefetching) must win.
        drive(&mut p, 10 * 4 + 1, |_| true);
        assert_eq!(p.degree(), 0);
    }

    #[test]
    fn full_degree_buffer_is_consumed_through_its_last_slot() {
        // A 16-deep stream fills every inline slot of its buffer; a hit on
        // the last line consumes all sixteen and asks for sixteen refills.
        let cfg = AdaptiveNextLineConfig {
            min_degree: MAX_STREAM_ENTRIES,
            max_degree: MAX_STREAM_ENTRIES,
            ..AdaptiveNextLineConfig::default()
        };
        let mut p = AdaptiveNextLinePrefetcher::new(cfg, 64);
        assert_eq!(p.degree(), 16);
        let (slot, addrs) = p.consider_allocation(0x400, 0x10_0000).expect("allocates");
        assert_eq!(addrs.len(), 16);
        for (i, &a) in addrs.iter().enumerate() {
            p.push_fill(slot, a, 100 + i as u64);
        }
        let last = addrs[15];
        assert_eq!(last, 0x10_0000 + 16 * 64);
        assert!(p.contains(addrs[0]) && p.contains(last));
        assert!(p.refill_addresses(slot).is_empty(), "a full buffer needs no refill");
        let hit = p.probe_and_consume(last + 8).expect("last slot hits");
        assert_eq!((hit.slot, hit.ready_at), (slot, 115));
        assert!(addrs.iter().all(|&a| !p.contains(a)), "every entry consumed");
        let refill = p.refill_addresses(slot);
        assert_eq!(refill.len(), 16);
        assert_eq!(refill[0], last + 64, "the stream continues past the hit");
        for &a in refill.iter() {
            p.push_fill(slot, a, 200);
        }
        assert!(p.contains(refill[15]));
    }

    #[test]
    fn reference_constants_are_the_default() {
        let c = AdaptiveNextLineConfig::default();
        assert_eq!((c.stats_window, c.best_window), (5000, 25000));
        assert_eq!((c.min_degree, c.max_degree), (0, 16));
    }
}
