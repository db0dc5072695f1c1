//! Admission control for the `/run` queue.
//!
//! Two inputs drive the admit/shed decision, both already produced
//! elsewhere in the server: the run queue's length, and the health
//! watchdog. In normal operation a request is admitted while the queue
//! has room (the classic bound). When any watchdog rule trips, the
//! controller enters a *degraded window* for [`DEGRADE_TICKS`] health
//! ticks in which only half the queue is admissible — the tier sheds
//! earlier and harder while the condition that tripped the watchdog
//! (SLO burn, queue growth, shed spike, arm-switch storm) plays out,
//! instead of letting the backlog and latency compound. Ticks come from
//! the `tdo_server_uptime_ticks` gauge, which the server's health thread
//! advances every 100 ms whether or not the accept thread is busy, so the
//! window lasts about 5 s.
//!
//! The decision itself is a pure function of
//! `(queue_len, queue_cap, now_tick, degraded_until_tick)`, kept free of
//! clocks and I/O so it unit-tests exhaustively.

use std::sync::atomic::{AtomicU64, Ordering};

/// Health ticks (100 ms each) a watchdog trip keeps admission tightened.
pub const DEGRADE_TICKS: u64 = 50;

/// The admit/shed decision for one `/run` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// Enqueue the request.
    Accept,
    /// Shed with 503: the queue is over the active bound.
    Shed,
}

/// Watchdog-aware admission state: one atomic word (the tick until which
/// the tier is degraded), shared lock-free between the health ticker and
/// the accept path.
#[derive(Debug, Default)]
pub struct Admission {
    degraded_until: AtomicU64,
}

impl Admission {
    /// A controller starting in the normal (full-bound) state.
    #[must_use]
    pub fn new() -> Admission {
        Admission::default()
    }

    /// Records a watchdog trip at `now_tick`: admission stays tightened
    /// through `now_tick + DEGRADE_TICKS`.
    pub fn degrade(&self, now_tick: u64) {
        let until = now_tick.saturating_add(DEGRADE_TICKS);
        self.degraded_until.fetch_max(until, Ordering::Relaxed);
    }

    /// Whether the degraded window is active at `now_tick`.
    #[must_use]
    pub fn degraded(&self, now_tick: u64) -> bool {
        now_tick < self.degraded_until.load(Ordering::Relaxed)
    }

    /// The queue bound in force at `now_tick`: the full capacity
    /// normally, half (rounded up, at least 1) while degraded.
    #[must_use]
    pub fn bound(&self, queue_cap: usize, now_tick: u64) -> usize {
        if self.degraded(now_tick) {
            queue_cap.div_ceil(2).max(1)
        } else {
            queue_cap
        }
    }

    /// The admit/shed decision for a queue currently `queue_len` deep.
    #[must_use]
    pub fn admit(&self, queue_len: usize, queue_cap: usize, now_tick: u64) -> Admit {
        if queue_len < self.bound(queue_cap, now_tick) {
            Admit::Accept
        } else {
            Admit::Shed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_state_admits_to_full_capacity() {
        let a = Admission::new();
        assert_eq!(a.admit(0, 16, 0), Admit::Accept);
        assert_eq!(a.admit(15, 16, 0), Admit::Accept);
        assert_eq!(a.admit(16, 16, 0), Admit::Shed);
        assert!(!a.degraded(0));
    }

    #[test]
    fn degraded_window_halves_the_bound_then_expires() {
        let a = Admission::new();
        a.degrade(100);
        assert!(a.degraded(100));
        assert_eq!(a.bound(16, 100), 8);
        assert_eq!(a.admit(7, 16, 100), Admit::Accept);
        assert_eq!(a.admit(8, 16, 100), Admit::Shed);
        // Window expires exactly DEGRADE_TICKS later.
        assert!(a.degraded(100 + DEGRADE_TICKS - 1));
        assert!(!a.degraded(100 + DEGRADE_TICKS));
        assert_eq!(a.admit(15, 16, 100 + DEGRADE_TICKS), Admit::Accept);
    }

    #[test]
    fn repeated_trips_extend_but_never_shrink_the_window() {
        let a = Admission::new();
        a.degrade(100);
        a.degrade(120);
        assert!(a.degraded(120 + DEGRADE_TICKS - 1));
        a.degrade(50); // an older trip must not pull the window back
        assert!(a.degraded(120 + DEGRADE_TICKS - 1));
    }

    #[test]
    fn degraded_bound_stays_positive() {
        let a = Admission::new();
        a.degrade(0);
        assert_eq!(a.bound(1, 1), 1);
        assert_eq!(a.admit(0, 1, 1), Admit::Accept);
        assert_eq!(a.admit(1, 1, 1), Admit::Shed);
    }
}
