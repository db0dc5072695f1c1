//! The hardware branch profiler (paper Table 2): a 256-entry 4-way
//! associative table of 4-bit saturating counters that identifies hot branch
//! targets (loop heads), plus three standalone 16-bit bitmap capture units
//! that record the branch-direction path from a hot head.
//!
//! A hot trace is emitted as *starting PC + branch direction bitmap* once two
//! consecutive captures of the path from the head agree (the path is stable).

use tdo_rand::FastSet;

use crate::events::HotEvent;

/// Configuration of the branch profiler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfilerConfig {
    /// Total entries in the hot-target counter table.
    pub entries: usize,
    /// Associativity of the counter table.
    pub assoc: usize,
    /// Counter saturation threshold that arms a bitmap capture.
    pub hot_threshold: u8,
    /// Number of concurrent capture units ("three standalone 16-bit
    /// bitmaps" in Table 2).
    pub capture_units: usize,
    /// Maximum conditional branches captured per trace.
    pub max_bits: u8,
}

impl ProfilerConfig {
    /// The paper's Table 2 configuration.
    #[must_use]
    pub fn paper_baseline() -> ProfilerConfig {
        ProfilerConfig { entries: 256, assoc: 4, hot_threshold: 15, capture_units: 3, max_bits: 16 }
    }
}

#[derive(Clone, Copy, Default)]
struct CounterEntry {
    valid: bool,
    tag: u64,
    counter: u8,
    stamp: u64,
}

#[derive(Clone, Copy)]
struct Capture {
    head: u64,
    bitmap: u16,
    nbits: u8,
    /// A previous complete capture to compare against, if any.
    prev: Option<(u16, u8)>,
    recording: bool,
}

/// The branch profiler.
pub struct BranchProfiler {
    cfg: ProfilerConfig,
    table: Vec<CounterEntry>,
    sets: usize,
    captures: Vec<Capture>,
    /// Heads already promoted to traces — suppressed until cleared. Probed
    /// on every taken backward branch, so keyed with the multiply-xor
    /// hasher; never iterated.
    traced: FastSet<u64>,
    clock: u64,
    /// Hot-trace events emitted (stat).
    pub traces_emitted: u64,
}

impl BranchProfiler {
    /// Builds a profiler.
    #[must_use]
    pub fn new(cfg: ProfilerConfig) -> BranchProfiler {
        let sets = cfg.entries / cfg.assoc;
        assert!(sets.is_power_of_two(), "profiler sets must be a power of two");
        BranchProfiler {
            table: vec![CounterEntry::default(); cfg.entries],
            sets,
            captures: Vec::with_capacity(cfg.capture_units),
            traced: FastSet::default(),
            clock: 0,
            traces_emitted: 0,
            cfg,
        }
    }

    /// Allows `head` to be profiled into a trace again (used after a trace
    /// back-out).
    pub fn clear_traced(&mut self, head: u64) {
        self.traced.remove(&head);
    }

    /// Marks `head` as already covered by an installed trace.
    pub fn mark_traced(&mut self, head: u64) {
        self.traced.insert(head);
    }

    /// Feeds one executed branch; returns a hot-trace event when a stable hot
    /// path is confirmed.
    ///
    /// `conditional` distinguishes direction-recording branches from
    /// unconditional transfers; `taken`/`target` describe the outcome.
    pub fn observe_branch(
        &mut self,
        pc: u64,
        taken: bool,
        target: u64,
        conditional: bool,
    ) -> Option<HotEvent> {
        self.clock += 1;
        let mut emitted = None;

        // 1. Advance active captures with this branch's direction.
        let max_bits = self.cfg.max_bits;
        let mut finished: Option<usize> = None;
        for (i, cap) in self.captures.iter_mut().enumerate() {
            if !cap.recording {
                continue;
            }
            // Record the direction first: the loop-closing backward branch
            // is part of the path (its direction steers trace formation).
            if conditional && cap.nbits < max_bits {
                if taken {
                    cap.bitmap |= 1 << cap.nbits;
                }
                cap.nbits += 1;
            }
            // Returning to the head closes the capture (a loop path), as
            // does exhausting the bitmap.
            if (taken && target == cap.head) || cap.nbits >= max_bits {
                finished = Some(i);
            }
        }
        if let Some(i) = finished {
            emitted = self.finish_capture(i);
        }

        // 2. Hot-head counting: backward taken branches indicate loop heads.
        if taken && target < pc && !self.traced.contains(&target) && self.bump_counter(target) {
            self.arm_capture(target);
        }

        // 3. Arrival at an armed (non-recording) capture head starts
        //    recording the path.
        if taken {
            for cap in &mut self.captures {
                if !cap.recording && cap.head == target {
                    cap.recording = true;
                    cap.bitmap = 0;
                    cap.nbits = 0;
                }
            }
        }

        emitted
    }

    fn bump_counter(&mut self, head: u64) -> bool {
        let set = ((head >> 3) as usize) & (self.sets - 1);
        let base = set * self.cfg.assoc;
        let ways = &mut self.table[base..base + self.cfg.assoc];
        if let Some(e) = ways.iter_mut().find(|e| e.valid && e.tag == head) {
            e.stamp = self.clock;
            if e.counter < self.cfg.hot_threshold {
                e.counter += 1;
            }
            return e.counter >= self.cfg.hot_threshold;
        }
        // Allocate (LRU within the set).
        let victim =
            ways.iter_mut().min_by_key(|e| if e.valid { e.stamp } else { 0 }).expect("assoc > 0");
        *victim = CounterEntry { valid: true, tag: head, counter: 1, stamp: self.clock };
        false
    }

    fn arm_capture(&mut self, head: u64) {
        if self.captures.iter().any(|c| c.head == head) {
            return;
        }
        let cap = Capture { head, bitmap: 0, nbits: 0, prev: None, recording: false };
        if self.captures.len() < self.cfg.capture_units {
            self.captures.push(cap);
        } else {
            // Replace a non-recording unit if possible; otherwise drop.
            if let Some(slot) = self.captures.iter_mut().find(|c| !c.recording) {
                *slot = cap;
            }
        }
    }

    fn finish_capture(&mut self, i: usize) -> Option<HotEvent> {
        let cap = &mut self.captures[i];
        let current = (cap.bitmap, cap.nbits);
        let stable = cap.prev == Some(current);
        if stable {
            let head = cap.head;
            self.captures.swap_remove(i);
            self.traced.insert(head);
            self.traces_emitted += 1;
            Some(HotEvent::HotTrace { head, bitmap: current.0, nbits: current.1 })
        } else {
            cap.prev = Some(current);
            cap.recording = false; // wait to re-arm at the head again
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the profiler with a simple loop: a backward conditional branch
    /// at `pc` jumping to `head` `iters` times, with `inner` conditional
    /// branches (not-taken) inside the body.
    fn drive_loop(
        p: &mut BranchProfiler,
        head: u64,
        pc: u64,
        iters: usize,
        inner: usize,
    ) -> Vec<HotEvent> {
        let mut evs = Vec::new();
        for _ in 0..iters {
            for j in 0..inner {
                if let Some(e) = p.observe_branch(head + 8 + j as u64 * 8, false, 0, true) {
                    evs.push(e);
                }
            }
            if let Some(e) = p.observe_branch(pc, true, head, true) {
                evs.push(e);
            }
        }
        evs
    }

    #[test]
    fn stable_loop_becomes_a_hot_trace() {
        let mut p = BranchProfiler::new(ProfilerConfig::paper_baseline());
        let evs = drive_loop(&mut p, 0x1000, 0x1100, 40, 2);
        assert_eq!(evs.len(), 1, "one stable trace emitted");
        match evs[0] {
            HotEvent::HotTrace { head, bitmap, nbits } => {
                assert_eq!(head, 0x1000);
                assert_eq!(nbits, 3, "two inner branches + the loop-closing branch");
                assert_eq!(bitmap, 0b100, "inner not-taken, backward taken");
            }
            other => panic!("unexpected event {other:?}"),
        }
        // Head suppressed afterwards.
        let evs2 = drive_loop(&mut p, 0x1000, 0x1100, 40, 2);
        assert!(evs2.is_empty());
    }

    #[test]
    fn cold_loops_do_not_trigger() {
        let mut p = BranchProfiler::new(ProfilerConfig::paper_baseline());
        let evs = drive_loop(&mut p, 0x2000, 0x2100, 5, 1);
        assert!(evs.is_empty());
    }

    #[test]
    fn unstable_paths_are_not_emitted_until_stable() {
        let mut p = BranchProfiler::new(ProfilerConfig::paper_baseline());
        // Alternate the inner branch direction every iteration: captures
        // never agree... but the 1-bit pattern repeats with period 2, so two
        // consecutive captures always differ.
        let head = 0x3000;
        let pc = 0x3040;
        let mut emitted = 0;
        for i in 0..60 {
            if p.observe_branch(head + 8, i % 2 == 0, head + 0x100, true).is_some() {
                emitted += 1;
            }
            if p.observe_branch(pc, true, head, true).is_some() {
                emitted += 1;
            }
        }
        assert_eq!(emitted, 0);
    }

    #[test]
    fn capture_truncates_at_sixteen_branches() {
        let mut p = BranchProfiler::new(ProfilerConfig::paper_baseline());
        // Large body: 20 inner conditional branches.
        let evs = drive_loop(&mut p, 0x4000, 0x4400, 40, 20);
        assert_eq!(evs.len(), 1);
        match evs[0] {
            HotEvent::HotTrace { nbits, .. } => assert_eq!(nbits, 16),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cleared_heads_can_be_reprofiled() {
        let mut p = BranchProfiler::new(ProfilerConfig::paper_baseline());
        let evs = drive_loop(&mut p, 0x5000, 0x5100, 40, 0);
        assert_eq!(evs.len(), 1);
        p.clear_traced(0x5000);
        let evs2 = drive_loop(&mut p, 0x5000, 0x5100, 40, 0);
        assert_eq!(evs2.len(), 1);
    }
}
