//! The cell table's LRU is exactly LRU.
//!
//! A seeded differential suite replays operation streams against a naive
//! ~30-line reference model and demands identical return values, identical
//! contents and identical eviction order at every step, across a spread of
//! capacities.

use tdo_rand::Rng;
use tdo_sim::lru::Lru;

/// The reference model: a plain vector ordered most- to least-recently
/// used. Every operation is O(n) and obviously correct — that is the
/// point.
struct RefLru {
    cap: usize,
    /// `(key, value)`, MRU first.
    entries: Vec<(u64, u64)>,
}

impl RefLru {
    fn new(cap: usize) -> RefLru {
        RefLru { cap, entries: Vec::new() }
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        let i = self.entries.iter().position(|e| e.0 == key)?;
        let e = self.entries.remove(i);
        self.entries.insert(0, e);
        Some(e.1)
    }

    fn put(&mut self, key: u64, value: u64) -> Option<(u64, u64)> {
        if let Some(i) = self.entries.iter().position(|e| e.0 == key) {
            self.entries.remove(i);
            self.entries.insert(0, (key, value));
            return None;
        }
        let evicted = if self.entries.len() == self.cap { self.entries.pop() } else { None };
        self.entries.insert(0, (key, value));
        evicted
    }

    fn keys_mru_to_lru(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.0).collect()
    }
}

/// Replays `ops` seeded operations against both implementations, checking
/// every return value, the recency order and the capacity bound after each
/// step.
fn differential(cap: usize, seed: u64, ops: usize) {
    let mut lru: Lru<u64, u64> = Lru::new(cap);
    let mut model = RefLru::new(cap);
    let mut rng = Rng::new(seed);
    // A key universe ~3x the capacity keeps hits, misses and evictions all
    // common in the same stream.
    let universe = (cap as u64) * 3 + 1;
    for step in 0..ops {
        let key = rng.gen_range(0..universe);
        if rng.gen_range(0..100) < 55 {
            let value = rng.next_u64();
            let (got, want) = (lru.put(key, value), model.put(key, value));
            assert_eq!(got, want, "cap={cap} seed={seed} step={step}: put({key}) eviction");
        } else {
            let (got, want) = (lru.get(&key), model.get(key));
            assert_eq!(got, want, "cap={cap} seed={seed} step={step}: get({key})");
        }
        assert!(
            lru.len() <= cap,
            "cap={cap} seed={seed} step={step}: {} entries exceed capacity",
            lru.len()
        );
        assert_eq!(lru.len(), model.entries.len(), "cap={cap} seed={seed} step={step}: len");
        assert_eq!(
            lru.keys_mru_to_lru(),
            model.keys_mru_to_lru(),
            "cap={cap} seed={seed} step={step}: recency order"
        );
    }
    assert!(!lru.is_empty(), "cap={cap} seed={seed}: the stream certainly inserted something");
}

#[test]
fn differential_against_reference_model() {
    for cap in [1usize, 2, 3, 8, 33] {
        for seed in [1u64, 0xC0FFEE, 0xD15EA5E] {
            differential(cap, seed, 4_000);
        }
    }
}

/// `peek` never disturbs the recency order the way `get` must.
#[test]
fn peek_is_order_neutral() {
    let mut lru: Lru<u64, u64> = Lru::new(3);
    for k in 0..3 {
        lru.put(k, k * 10);
    }
    let before = lru.keys_mru_to_lru();
    assert_eq!(lru.peek(&0), Some(&0));
    assert_eq!(lru.keys_mru_to_lru(), before, "peek reordered the cache");
    assert_eq!(lru.get(&0), Some(0));
    assert_ne!(lru.keys_mru_to_lru(), before, "get must promote to MRU");
}
