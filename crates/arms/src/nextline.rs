//! Miss-triggered next-line streaming (Smith & Hsu's sequential
//! prefetching, the paper's §2.2 precursor baseline) as an arsenal arm.
//!
//! A demand miss that no buffer covers allocates a small stream of the
//! `degree` sequentially next lines; a buffer hit consumes forward and
//! refills, so a sequential walk stays `degree` lines ahead of the
//! program. `degree` is fixed here; [`crate::AdaptiveNextLinePrefetcher`]
//! drives the same pool with a hill-climbed degree.

use crate::stream::Buffer;
use crate::{ArmHit, ArmKind, ArmStats, Prefetcher, RefillList, MAX_STREAM_ENTRIES};

/// Configuration of the fixed-degree next-line arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NextLineConfig {
    /// Number of independent line streams tracked at once.
    pub buffers: usize,
    /// Lines fetched ahead of each triggering miss.
    pub degree: usize,
}

impl Default for NextLineConfig {
    /// Eight streams, four lines ahead — the classic sequential-prefetch
    /// shape (matches the stream-buffer count of the paper baseline so the
    /// arms differ in policy, not capacity).
    fn default() -> NextLineConfig {
        NextLineConfig { buffers: 8, degree: 4 }
    }
}

/// A pool of next-line streams: stream buffers whose stride is always one
/// line and whose allocation needs no predictor confidence. Shared by the
/// fixed and adaptive arms, which differ only in how `degree` is chosen.
pub(crate) struct LinePool {
    pub(crate) buffers: Vec<Buffer>,
    pub(crate) degree: usize,
    line_bytes: u64,
    clock: u64,
    pub(crate) issued: u64,
    pub(crate) useful: u64,
    pub(crate) allocations: u64,
}

impl LinePool {
    pub(crate) fn new(buffers: usize, degree: usize, line_bytes: u64) -> LinePool {
        assert!(
            degree <= MAX_STREAM_ENTRIES,
            "next-line degree {degree} exceeds the inline refill-list bound {MAX_STREAM_ENTRIES}"
        );
        LinePool {
            buffers: (0..buffers).map(|_| Buffer::empty()).collect(),
            degree,
            line_bytes,
            clock: 0,
            issued: 0,
            useful: 0,
            allocations: 0,
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    pub(crate) fn contains(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        self.buffers.iter().any(|b| b.valid && b.holds(line))
    }

    pub(crate) fn probe_and_consume(&mut self, addr: u64) -> Option<ArmHit> {
        let line = self.line_of(addr);
        self.clock += 1;
        for (bi, b) in self.buffers.iter_mut().enumerate() {
            if !b.valid {
                continue;
            }
            if let Some(pos) = b.position(line) {
                let ready_at = b.consume_through(pos);
                b.last_use = self.clock;
                self.useful += 1;
                return Some(ArmHit { ready_at, slot: bi });
            }
        }
        None
    }

    pub(crate) fn refill_addresses(&mut self, slot: usize) -> RefillList {
        let mut out = RefillList::EMPTY;
        let b = &mut self.buffers[slot];
        if !b.valid {
            return out;
        }
        // A shrunk degree (the adaptive arm climbing down) simply stops
        // refilling; existing entries drain through demand hits.
        let need = self.degree.saturating_sub(b.len());
        for _ in 0..need {
            out.push(b.next_addr);
            b.next_addr = b.next_addr.wrapping_add(self.line_bytes);
        }
        out
    }

    pub(crate) fn push_fill(&mut self, slot: usize, line_addr: u64, ready_at: u64) {
        let line = self.line_of(line_addr);
        self.issued += 1;
        self.buffers[slot].push(line, ready_at);
    }

    pub(crate) fn consider_allocation(&mut self, addr: u64) -> Option<(usize, RefillList)> {
        if self.degree == 0 {
            return None;
        }
        self.clock += 1;
        // The stream this miss wants starts at the next line; skip the
        // allocation when an existing stream already covers (or is about to
        // fetch) it — the miss is part of a walk that is already streaming.
        let first = self.line_of(addr).wrapping_add(self.line_bytes);
        if self
            .buffers
            .iter()
            .any(|b| b.valid && (self.line_of(b.next_addr) == first || b.holds(first)))
        {
            return None;
        }
        let victim = self.buffers.iter().position(|b| !b.valid).unwrap_or_else(|| {
            self.buffers
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.last_use)
                .map(|(i, _)| i)
                .expect("at least one buffer")
        });
        let b = &mut self.buffers[victim];
        b.valid = true;
        b.clear();
        b.stride = self.line_bytes as i64;
        b.next_addr = first;
        b.last_use = self.clock;
        self.allocations += 1;
        let addrs = self.refill_addresses(victim);
        Some((victim, addrs))
    }

    pub(crate) fn stats(&self) -> ArmStats {
        ArmStats { issued: self.issued, useful: self.useful, allocations: self.allocations }
    }
}

/// The fixed-degree next-line arm.
pub struct NextLinePrefetcher {
    pool: LinePool,
}

impl NextLinePrefetcher {
    /// Builds the arm for lines of `line_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.degree` exceeds [`MAX_STREAM_ENTRIES`].
    #[must_use]
    pub fn new(cfg: NextLineConfig, line_bytes: u64) -> NextLinePrefetcher {
        NextLinePrefetcher { pool: LinePool::new(cfg.buffers, cfg.degree, line_bytes) }
    }
}

impl Prefetcher for NextLinePrefetcher {
    fn kind(&self) -> ArmKind {
        ArmKind::NextLine
    }

    fn train(&mut self, _pc: u64, _addr: u64, _l1_miss: bool) {}

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

    fn nl(degree: usize) -> NextLinePrefetcher {
        NextLinePrefetcher::new(NextLineConfig { buffers: 4, degree }, 64)
    }

    #[test]
    fn miss_allocates_the_next_degree_lines() {
        let mut p = nl(3);
        let (slot, addrs) = p.consider_allocation(0x9, 0x1008).expect("allocates on any miss");
        assert_eq!(&*addrs, &[0x1040, 0x1080, 0x10c0], "next lines, line-aligned");
        for (i, a) in addrs.iter().enumerate() {
            p.push_fill(slot, *a, 50 + i as u64);
        }
        let hit = p.probe_and_consume(0x1044).expect("next line hits");
        assert_eq!(hit.ready_at, 50);
        // Consuming the head asks for one refill to stay `degree` ahead.
        let refill = p.refill_addresses(slot);
        assert_eq!(&*refill, &[0x1100]);
    }

    #[test]
    fn covered_misses_do_not_reallocate() {
        let mut p = nl(4);
        let (slot, addrs) = p.consider_allocation(0x9, 0x2000).unwrap();
        for a in addrs.iter() {
            p.push_fill(slot, *a, 0);
        }
        // A miss whose next line is already streaming allocates nothing.
        assert!(p.consider_allocation(0x9, 0x2000).is_none());
        assert_eq!(p.stats().allocations, 1);
    }

    #[test]
    fn degree_zero_never_prefetches() {
        let mut p = nl(0);
        assert!(p.consider_allocation(0x9, 0x3000).is_none());
        assert_eq!(p.stats(), ArmStats::default());
    }

    #[test]
    fn sequential_walk_stays_covered() {
        let mut p = nl(4);
        let mut hits = 0;
        for i in 0..32u64 {
            let addr = 0x8000 + i * 64;
            if let Some(hit) = p.probe_and_consume(addr) {
                let refill = p.refill_addresses(hit.slot);
                for &a in refill.iter() {
                    p.push_fill(hit.slot, a, 0);
                }
                hits += 1;
            } else if let Some((slot, addrs)) = p.consider_allocation(0x9, addr) {
                for &a in addrs.iter() {
                    p.push_fill(slot, a, 0);
                }
            }
        }
        assert!(hits >= 30, "all but the cold start is covered, got {hits}");
    }
}
