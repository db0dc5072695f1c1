//! Stride-predictor-directed stream buffers — the paper's *hardware*
//! prefetching baseline (Table 1: "8 stream buffers; each buffer 8 entries;
//! history table 1024 entries; prefetching is guided by a stride predictor"),
//! after Sherwood et al., "Predictor-Directed Stream Buffers" (MICRO 2000)
//! and Farkas et al.'s per-PC stride predictor.
//!
//! On a demand L1 miss the buffers are probed in parallel with the lower
//! hierarchy; a buffer hit promotes the line to L1 and streams the buffer
//! forward. A miss in all buffers trains the per-PC stride predictor and,
//! once the predictor is confident, allocates a buffer (LRU) that runs ahead
//! of the load.
//!
//! Ported unchanged from `tdo-mem` behind the [`Prefetcher`] trait; the
//! call sequence and every decision are bit-identical to the pre-arsenal
//! implementation.

use crate::stride::StridePredictor;
use crate::{ArmHit, ArmKind, ArmStats, Prefetcher, RefillList, MAX_STREAM_ENTRIES};

/// Configuration of the hardware stream-buffer prefetcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamBufferConfig {
    /// Number of independent stream buffers.
    pub buffers: usize,
    /// Entries (prefetched lines) per buffer.
    pub entries_per_buffer: usize,
    /// Entries in the PC-indexed stride history table.
    pub history_entries: usize,
    /// Confidence (0–3) the stride predictor must reach before a buffer is
    /// allocated for a missing load.
    pub allocation_confidence: u8,
}

impl StreamBufferConfig {
    /// The paper's 4-buffer × 4-entry configuration (Figure 2).
    #[must_use]
    pub fn four_by_four() -> StreamBufferConfig {
        StreamBufferConfig {
            buffers: 4,
            entries_per_buffer: 4,
            history_entries: 1024,
            allocation_confidence: 2,
        }
    }

    /// The paper's 8-buffer × 8-entry baseline configuration.
    #[must_use]
    pub fn eight_by_eight() -> StreamBufferConfig {
        StreamBufferConfig {
            buffers: 8,
            entries_per_buffer: 8,
            history_entries: 1024,
            allocation_confidence: 2,
        }
    }
}

/// One prefetched line sitting in a queue (the delta arm's burst FIFO).
#[derive(Clone, Copy, Debug)]
pub struct StreamEntry {
    /// Line-aligned address.
    pub line_addr: u64,
    /// Cycle at which the fill completes.
    pub ready_at: u64,
}

/// One stream buffer: up to [`MAX_STREAM_ENTRIES`] prefetched lines, oldest
/// first, stored inline as parallel arrays of line addresses and fill
/// times. Every demand miss scans the line addresses of every buffer, so
/// they sit contiguously with no ring-buffer wrap; consuming through a hit
/// shifts the survivors down with one `copy_within`.
pub(crate) struct Buffer {
    pub(crate) valid: bool,
    lines: [u64; MAX_STREAM_ENTRIES],
    ready_at: [u64; MAX_STREAM_ENTRIES],
    len: usize,
    pub(crate) stride: i64,
    pub(crate) next_addr: u64,
    pub(crate) last_use: u64,
}

impl Buffer {
    pub(crate) fn empty() -> Buffer {
        Buffer {
            valid: false,
            lines: [0; MAX_STREAM_ENTRIES],
            ready_at: [0; MAX_STREAM_ENTRIES],
            len: 0,
            stride: 0,
            next_addr: 0,
            last_use: 0,
        }
    }

    /// Buffered entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Position of `line` among the buffered entries (oldest is 0).
    #[inline]
    pub(crate) fn position(&self, line: u64) -> Option<usize> {
        self.lines[..self.len].iter().position(|&l| l == line)
    }

    /// Whether `line` is buffered.
    #[inline]
    pub(crate) fn holds(&self, line: u64) -> bool {
        self.position(line).is_some()
    }

    /// Consumes the entries up to and including `pos`; returns the fill
    /// time of the entry at `pos`.
    #[inline]
    pub(crate) fn consume_through(&mut self, pos: usize) -> u64 {
        let ready_at = self.ready_at[pos];
        self.lines.copy_within(pos + 1..self.len, 0);
        self.ready_at.copy_within(pos + 1..self.len, 0);
        self.len -= pos + 1;
        ready_at
    }

    /// Appends one filled line. Refill lists never ask for more than the
    /// buffer's depth, so a full buffer here is a caller bug.
    pub(crate) fn push(&mut self, line: u64, ready_at: u64) {
        self.lines[self.len] = line;
        self.ready_at[self.len] = ready_at;
        self.len += 1;
    }

    /// Drops every entry (reallocation to a new stream).
    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }
}

/// The set of stream buffers.
pub struct StreamBuffers {
    cfg: StreamBufferConfig,
    predictor: StridePredictor,
    buffers: Vec<Buffer>,
    line_bytes: u64,
    clock: u64,
    /// Total lines fetched into buffers (stat).
    pub issued: u64,
    /// Total buffer hits (stat).
    pub hits: u64,
    /// Total buffer allocations (stat).
    pub allocations: u64,
}

impl StreamBuffers {
    /// Builds the buffer set for lines of `line_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.entries_per_buffer` exceeds [`MAX_STREAM_ENTRIES`].
    #[must_use]
    pub fn new(cfg: StreamBufferConfig, line_bytes: u64) -> StreamBuffers {
        assert!(
            cfg.entries_per_buffer <= MAX_STREAM_ENTRIES,
            "buffer depth {} exceeds the inline refill-list bound {MAX_STREAM_ENTRIES}",
            cfg.entries_per_buffer
        );
        let buffers = (0..cfg.buffers).map(|_| Buffer::empty()).collect();
        StreamBuffers {
            predictor: StridePredictor::new(cfg.history_entries),
            cfg,
            buffers,
            line_bytes,
            clock: 0,
            issued: 0,
            hits: 0,
            allocations: 0,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &StreamBufferConfig {
        &self.cfg
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }
}

impl Prefetcher for StreamBuffers {
    fn kind(&self) -> ArmKind {
        ArmKind::Stream
    }

    /// Trains the stride predictor with a committed load (the predictor
    /// trains on every access, hit or miss, exactly as before).
    fn train(&mut self, pc: u64, addr: u64, _l1_miss: bool) {
        self.predictor.train(pc, addr);
    }

    fn contains(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        self.buffers.iter().any(|b| b.valid && b.holds(line))
    }

    /// Probes all buffers for the line containing `addr` and, on a hit,
    /// consumes entries up to and including it.
    fn probe_and_consume(&mut self, addr: u64) -> Option<ArmHit> {
        let line = self.line_of(addr);
        self.clock += 1;
        for (bi, b) in self.buffers.iter_mut().enumerate() {
            if !b.valid {
                continue;
            }
            if let Some(pos) = b.position(line) {
                let ready_at = b.consume_through(pos);
                b.last_use = self.clock;
                self.hits += 1;
                return Some(ArmHit { ready_at, slot: bi });
            }
        }
        None
    }

    fn refill_addresses(&mut self, slot: usize) -> RefillList {
        let mut out = RefillList::EMPTY;
        let b = &mut self.buffers[slot];
        if !b.valid {
            return out;
        }
        let need = self.cfg.entries_per_buffer.saturating_sub(b.len());
        for _ in 0..need {
            out.push(b.next_addr);
            b.next_addr = b.next_addr.wrapping_add(b.stride as u64);
        }
        out
    }

    fn push_fill(&mut self, slot: usize, line_addr: u64, ready_at: u64) {
        let line = self.line_of(line_addr);
        self.issued += 1;
        self.buffers[slot].push(line, ready_at);
    }

    /// Considers allocating a buffer for a demand miss at `(pc, addr)`:
    /// allocates (LRU victim) when the stride predictor is confident and
    /// the miss does not already stream.
    fn consider_allocation(&mut self, pc: u64, addr: u64) -> Option<(usize, RefillList)> {
        let stride = self.predictor.predict(pc, self.cfg.allocation_confidence)?;
        // Skip tiny strides inside one line: next-line behaviour is already
        // covered by stride-1-line streams; a zero line-delta stream is useless.
        let line_stride = if stride.unsigned_abs() < self.line_bytes {
            if stride > 0 {
                self.line_bytes as i64
            } else {
                -(self.line_bytes as i64)
            }
        } else {
            stride
        };
        self.clock += 1;
        // Avoid duplicate streams: an existing buffer already holds (or is
        // about to fetch) the line this stream would start with.
        let first = self.line_of(addr.wrapping_add(line_stride as u64));
        if self.buffers.iter().any(|b| {
            b.valid
                && b.stride == line_stride
                && (self.line_of(b.next_addr) == first || b.holds(first))
        }) {
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
        b.stride = line_stride;
        b.next_addr = addr.wrapping_add(line_stride as u64);
        b.last_use = self.clock;
        self.allocations += 1;
        let addrs = self.refill_addresses(victim);
        Some((victim, addrs))
    }

    fn stats(&self) -> ArmStats {
        ArmStats { issued: self.issued, useful: self.hits, allocations: self.allocations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb() -> StreamBuffers {
        StreamBuffers::new(StreamBufferConfig::four_by_four(), 64)
    }

    #[test]
    fn allocation_requires_confidence() {
        let mut s = sb();
        s.train(0x10, 0x1000, true);
        assert!(s.consider_allocation(0x10, 0x1000).is_none());
        for i in 1..4u64 {
            s.train(0x10, 0x1000 + i * 64, true);
        }
        let (buf, addrs) = s.consider_allocation(0x10, 0x10c0).expect("allocates");
        assert_eq!(addrs.len(), 4);
        assert_eq!(addrs[0], 0x1100);
        assert_eq!(addrs[1], 0x1140);
        for (i, a) in addrs.iter().enumerate() {
            s.push_fill(buf, *a, 100 + i as u64);
        }
        // Now the streamed line hits.
        let hit = s.probe_and_consume(0x1100).expect("buffer hit");
        assert_eq!(hit.ready_at, 100);
        assert_eq!(s.hits, 1);
        assert_eq!(s.stats().useful, 1);
    }

    #[test]
    fn hit_consumes_preceding_entries_and_reports_refills() {
        let mut s = sb();
        for i in 0..5u64 {
            s.train(0x20, 0x2000 + i * 64, true);
        }
        let (buf, addrs) = s.consider_allocation(0x20, 0x2100).unwrap();
        for a in addrs.iter() {
            s.push_fill(buf, *a, 0);
        }
        // Hit the third entry: two earlier entries are skipped.
        let third = addrs[2];
        let hit = s.probe_and_consume(third).unwrap();
        assert_eq!(hit.slot, buf);
        let refills = s.refill_addresses(buf);
        assert_eq!(refills.len(), 3, "three entries consumed, three refills");
        assert_eq!(refills[0], addrs[3] + 64);
    }

    #[test]
    fn sub_line_strides_stream_whole_lines() {
        let mut s = sb();
        for i in 0..6u64 {
            s.train(0x30, 0x3000 + i * 8, true);
        }
        let (_, addrs) = s.consider_allocation(0x30, 0x3028).unwrap();
        assert_eq!(addrs[1] - addrs[0], 64, "line-granular streaming");
    }

    #[test]
    fn duplicate_streams_are_not_allocated() {
        let mut s = sb();
        for i in 0..5u64 {
            s.train(0x40, 0x4000 + i * 64, true);
        }
        let (buf, addrs) = s.consider_allocation(0x40, 0x4100).unwrap();
        for a in addrs.iter() {
            s.push_fill(buf, *a, 0);
        }
        assert!(s.consider_allocation(0x40, 0x4100).is_none());
        assert_eq!(s.allocations, 1);
    }

    #[test]
    fn probe_miss_returns_none() {
        let mut s = sb();
        assert!(s.probe_and_consume(0x9999).is_none());
        assert_eq!(s.hits, 0);
    }
}
