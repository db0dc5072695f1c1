//! A hand-rolled, capacity-bounded LRU map — the finished results of the
//! [`Runner`](crate::Runner)'s cell table.
//!
//! `HashMap` into an arena of doubly-linked nodes, so `get`, `put` and
//! eviction are all O(1). Eviction is strict least-recently-used: a `get`
//! or a re-`put` moves the entry to the front, and inserting into a full
//! cache evicts exactly the back entry. The policy is fully deterministic
//! in the operation sequence — the differential test in
//! `tests/lru.rs` replays seeded operation streams against a naive
//! reference model and demands identical contents and identical eviction
//! order.

use std::collections::HashMap;
use std::hash::Hash;

/// Arena slot index; `usize::MAX` is the null link.
const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A capacity-bounded least-recently-used map.
pub struct Lru<K, V> {
    cap: usize,
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    /// An empty cache holding at most `cap` entries. Storage grows as the
    /// cache fills, so `usize::MAX` makes an unbounded one.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` — a zero-capacity cache is "no cache", which
    /// callers express by not constructing one.
    #[must_use]
    pub fn new(cap: usize) -> Lru<K, V> {
        assert!(cap > 0, "Lru: zero capacity");
        Lru { cap, map: HashMap::new(), nodes: Vec::new(), free: Vec::new(), head: NIL, tail: NIL }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current number of entries (never exceeds the capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks `key` up and, on a hit, marks it most recently used.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let &slot = self.map.get(key)?;
        self.unlink(slot);
        self.push_front(slot);
        Some(self.nodes[slot].value.clone())
    }

    /// Looks `key` up without disturbing the recency order (for tests and
    /// introspection).
    #[must_use]
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&slot| &self.nodes[slot].value)
    }

    /// Inserts (or refreshes) `key`, marking it most recently used.
    /// Returns the evicted `(key, value)` when the insert pushed the cache
    /// past capacity.
    pub fn put(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&slot) = self.map.get(&key) {
            self.nodes[slot].value = value;
            self.unlink(slot);
            self.push_front(slot);
            return None;
        }
        let evicted = if self.map.len() == self.cap {
            let slot = self.tail;
            debug_assert_ne!(slot, NIL);
            self.unlink(slot);
            self.free.push(slot);
            let node = &self.nodes[slot];
            self.map.remove(&node.key);
            Some((node.key.clone(), node.value.clone()))
        } else {
            None
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = Node { key: key.clone(), value, prev: NIL, next: NIL };
                slot
            }
            None => {
                self.nodes.push(Node { key: key.clone(), value, prev: NIL, next: NIL });
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        evicted
    }

    /// Keys from most to least recently used (for the differential test).
    #[must_use]
    pub fn keys_mru_to_lru(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut slot = self.head;
        while slot != NIL {
            out.push(self.nodes[slot].key.clone());
            slot = self.nodes[slot].next;
        }
        out
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev == NIL {
            if self.head == slot {
                self.head = next;
            }
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            if self.tail == slot {
                self.tail = prev;
            }
        } else {
            self.nodes[next].prev = prev;
        }
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_eviction_order() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        assert!(lru.put(1, 10).is_none());
        assert!(lru.put(2, 20).is_none());
        assert_eq!(lru.get(&1), Some(10)); // 1 is now MRU
        assert_eq!(lru.put(3, 30), Some((2, 20))); // 2 was LRU
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.keys_mru_to_lru(), vec![3, 1]);
    }

    #[test]
    fn re_put_refreshes_without_eviction() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.put(1, 10);
        lru.put(2, 20);
        assert!(lru.put(1, 11).is_none());
        assert_eq!(lru.peek(&1), Some(&11));
        assert_eq!(lru.put(3, 30), Some((2, 20)), "1 was refreshed, 2 evicts");
    }

    #[test]
    fn capacity_one() {
        let mut lru: Lru<u32, u32> = Lru::new(1);
        assert!(lru.put(1, 10).is_none());
        assert_eq!(lru.put(2, 20), Some((1, 10)));
        assert_eq!(lru.get(&2), Some(20));
        assert_eq!(lru.len(), 1);
    }
}
