//! Set-associative, LRU, tag-only cache model.

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Full access latency in cycles when this level hits.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (not a power-of-two set count).
    #[must_use]
    pub fn num_sets(&self) -> u64 {
        let sets = self.size_bytes / (self.line_bytes * u64::from(self.assoc));
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Result of a demand lookup that hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HitInfo {
    /// True when this was the first demand touch of a prefetched line.
    pub first_touch_of_prefetch: bool,
}

/// Result of inserting a line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted line address (full address of the first byte).
    pub line_addr: u64,
    /// Whether the victim was itself an untouched prefetched line.
    pub was_untouched_prefetch: bool,
    /// Whether the victim was dirty (requires a write-back).
    pub was_dirty: bool,
}

/// A tag-only set-associative cache with true-LRU replacement.
///
/// All geometry derived from the configuration — set mask, tag shift, way
/// count — is precomputed at construction, so the per-access walk is one
/// shift/mask/multiply plus a short tag scan with no recomputation (the
/// tag shift used to be a `count_ones()` per access).
///
/// The ways are flat `u64` slots, one allocation set by set: a set's
/// `ways` tag slots, then its `ways` meta slots. The walk scans the tag
/// slots alone (8 bytes per way, so a 16-way set's tags are two host
/// cache lines), and only a hit or a fill touches the meta slot beside
/// them. A tag slot holds `tag + 1`, so 0 means invalid and an empty
/// cache is one zeroed allocation; a meta slot holds the way's recency
/// stamp shifted left by two, with the `PREFETCHED` and `DIRTY` bits
/// below it.
pub struct Cache {
    cfg: CacheConfig,
    /// Per set: `ways` tag slots, then `ways` meta slots.
    slots: Vec<u64>,
    set_mask: u64,
    line_shift: u32,
    /// `tag = line >> tag_shift` (index bits removed); equals
    /// `set_mask.count_ones()`.
    tag_shift: u32,
    /// Associativity, as the walk loops' native index type.
    ways: usize,
    stamp: u64,
}

/// Set when the line was brought in by a prefetch and has not yet been
/// touched by a demand access (drives the Figure 6 breakdown).
const PREFETCHED: u64 = 1 << 0;
/// Set by stores; a dirty victim costs a write-back bus transfer.
const DIRTY: u64 = 1 << 1;
/// The flag bits below a meta slot's recency stamp.
const FLAG_BITS: u32 = 2;

impl Cache {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent geometry, or on one-byte lines in a
    /// single set (a 64-bit tag would leave no room for the `tag + 1`
    /// encoding).
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.num_sets();
        assert!(cfg.line_bytes > 1 || sets > 1, "a cache tag must be narrower than 64 bits");
        Cache {
            cfg,
            slots: vec![0; (2 * sets * u64::from(cfg.assoc)) as usize],
            set_mask: sets - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tag_shift: (sets - 1).count_ones(),
            ways: cfg.assoc as usize,
            stamp: 0,
        }
    }

    /// This cache's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The first tag slot of `addr`'s set and `addr`'s encoded (`tag + 1`)
    /// tag.
    #[inline]
    fn set_and_key(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let base = ((line & self.set_mask) as usize) * 2 * self.ways;
        (base, (line >> self.tag_shift) + 1)
    }

    /// The read-only half of every walk: locates the valid way holding
    /// `addr`, returning its tag slot (its meta slot is `ways` further
    /// on). Shared by [`Cache::lookup`], [`Cache::probe`],
    /// [`Cache::insert`], [`Cache::mark_dirty`] and [`Cache::invalidate`],
    /// which differ only in what they mutate after finding it. Invalid
    /// ways hold 0, which no encoded tag equals.
    #[inline]
    fn find(&self, base: usize, key: u64) -> Option<usize> {
        self.slots[base..base + self.ways].iter().position(|&t| t == key).map(|i| base + i)
    }

    /// Stamps the way whose tag slot is `i` as the most recent, keeping
    /// the flag bits `keep` of its meta slot.
    #[inline]
    fn touch(&mut self, i: usize, keep: u64) {
        let meta = &mut self.slots[i + self.ways];
        *meta = (self.stamp << FLAG_BITS) | (*meta & keep);
    }

    /// Demand lookup: returns hit info and clears the line's prefetch bit.
    ///
    /// Takes `&mut self` by necessity, not convenience: a demand hit is not
    /// a read-only operation in this model. True-LRU replacement must stamp
    /// the line's recency on every touch, and the Figure 6 accounting
    /// consumes the line's prefetched bit on the first demand touch. The
    /// genuinely read-only probe is [`Cache::probe`] (backed by the shared
    /// [`Cache::find`] walk); callers that only need presence use that.
    #[inline]
    pub fn lookup(&mut self, addr: u64) -> Option<HitInfo> {
        let (base, key) = self.set_and_key(addr);
        let i = self.find(base, key)?;
        self.stamp += 1;
        let first = self.slots[i + self.ways] & PREFETCHED != 0;
        self.touch(i, DIRTY);
        Some(HitInfo { first_touch_of_prefetch: first })
    }

    /// Probe without updating LRU or prefetch state.
    #[must_use]
    #[inline]
    pub fn probe(&self, addr: u64) -> bool {
        let (base, key) = self.set_and_key(addr);
        self.find(base, key).is_some()
    }

    /// Inserts the line containing `addr`, evicting the LRU way if needed.
    ///
    /// `prefetched` marks the line as prefetch-fetched (first demand touch
    /// will report [`HitInfo::first_touch_of_prefetch`]). The victim is the
    /// first invalid way, else the first way with the smallest recency
    /// stamp.
    #[inline]
    pub fn insert(&mut self, addr: u64, prefetched: bool) -> Option<Eviction> {
        self.stamp += 1;
        let (base, key) = self.set_and_key(addr);
        // Already present: refresh.
        if let Some(i) = self.find(base, key) {
            self.touch(i, PREFETCHED | DIRTY);
            return None;
        }
        let w = self.ways;
        let (victim, evicted) = match self.slots[base..base + w].iter().position(|&t| t == 0) {
            Some(i) => (base + i, None),
            None => {
                let metas = &self.slots[base + w..base + 2 * w];
                let mut v = 0;
                for (i, &m) in metas.iter().enumerate().skip(1) {
                    if m >> FLAG_BITS < metas[v] >> FLAG_BITS {
                        v = i;
                    }
                }
                let set_index = (base / (2 * w)) as u64;
                let line = ((self.slots[base + v] - 1) << self.tag_shift) | set_index;
                let ev = Eviction {
                    line_addr: line << self.line_shift,
                    was_untouched_prefetch: metas[v] & PREFETCHED != 0,
                    was_dirty: metas[v] & DIRTY != 0,
                };
                (base + v, Some(ev))
            }
        };
        self.slots[victim] = key;
        self.slots[victim + w] =
            (self.stamp << FLAG_BITS) | if prefetched { PREFETCHED } else { 0 };
        evicted
    }

    /// Marks the line containing `addr` dirty, if present. Returns whether
    /// the line was found.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let (base, key) = self.set_and_key(addr);
        match self.find(base, key) {
            Some(i) => {
                self.slots[i + self.ways] |= DIRTY;
                true
            }
            None => false,
        }
    }

    /// Invalidates the line containing `addr`, if present.
    pub fn invalidate(&mut self, addr: u64) {
        let (base, key) = self.set_and_key(addr);
        if let Some(i) = self.find(base, key) {
            self.slots[i] = 0;
        }
    }

    /// Address of the first byte of the line containing `addr`.
    #[must_use]
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 B.
        Cache::new(CacheConfig { size_bytes: 256, assoc: 2, line_bytes: 64, latency: 3 })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().num_sets(), 2);
        assert_eq!(c.line_addr(0x7f), 0x40);
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = tiny();
        assert!(c.lookup(0x0).is_none());
        c.insert(0x0, false);
        assert!(c.lookup(0x0).is_some());
        assert!(c.lookup(0x40).is_none(), "different set");
        assert!(c.lookup(0x100).is_none(), "same set, different tag");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines 0x000, 0x080, 0x100... (stride 128 with 2 sets).
        c.insert(0x000, false);
        c.insert(0x080, false);
        c.lookup(0x000); // touch 0x000, making 0x080 the LRU
        let ev = c.insert(0x100, false).expect("eviction");
        assert_eq!(ev.line_addr, 0x080);
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert!(c.probe(0x100));
    }

    #[test]
    fn prefetch_bit_reports_first_touch_only() {
        let mut c = tiny();
        c.insert(0x0, true);
        assert_eq!(c.lookup(0x0), Some(HitInfo { first_touch_of_prefetch: true }));
        assert_eq!(c.lookup(0x0), Some(HitInfo { first_touch_of_prefetch: false }));
    }

    #[test]
    fn eviction_reports_untouched_prefetch_victims() {
        let mut c = tiny();
        c.insert(0x000, true);
        c.insert(0x080, false);
        c.lookup(0x080);
        // 0x000 (still untouched prefetch) is LRU.
        let ev = c.insert(0x100, false).unwrap();
        assert_eq!(ev.line_addr, 0x000);
        assert!(ev.was_untouched_prefetch);
    }

    #[test]
    fn reinserting_present_line_does_not_evict() {
        let mut c = tiny();
        c.insert(0x000, false);
        c.insert(0x080, false);
        assert!(c.insert(0x000, false).is_none());
        assert!(c.probe(0x080));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.insert(0x0, false);
        c.invalidate(0x0);
        assert!(!c.probe(0x0));
    }

    #[test]
    fn invalidated_way_is_reused_and_tag_zero_round_trips() {
        // Line 0x000 has tag 0, stored as 1: invalidating it must free the
        // way (stored 0), and the freed way is the next fill's victim.
        let mut c = tiny();
        c.insert(0x000, true);
        c.insert(0x080, false);
        c.invalidate(0x000);
        assert!(!c.probe(0x000));
        assert!(c.lookup(0x000).is_none());
        assert!(c.insert(0x100, false).is_none(), "fills the invalidated way");
        assert!(c.probe(0x080) && c.probe(0x100));
        // Reinserting tag 0 evicts the LRU way (0x080) and reports it.
        let ev = c.insert(0x000, false).expect("set is full");
        assert_eq!(ev.line_addr, 0x080);
        assert_eq!(c.lookup(0x000), Some(HitInfo { first_touch_of_prefetch: false }));
        // A tag-0 victim decodes back to line address 0.
        c.insert(0x100, false);
        c.mark_dirty(0x000);
        c.lookup(0x100);
        let ev = c.insert(0x180, false).expect("eviction");
        assert_eq!(
            ev,
            Eviction { line_addr: 0x000, was_untouched_prefetch: false, was_dirty: true }
        );
    }

    #[test]
    fn eviction_reconstructs_full_line_address() {
        // 4 sets x 1 way: line addr must reconstruct the set bits too.
        let mut c =
            Cache::new(CacheConfig { size_bytes: 256, assoc: 1, line_bytes: 64, latency: 1 });
        c.insert(0x1c0, false); // set 3
        let ev = c.insert(0x3c0, false).unwrap();
        assert_eq!(ev.line_addr, 0x1c0);
    }
}
