//! A minimal multiply-xor hasher for the simulator's integer-keyed tables.
//!
//! `std`'s default SipHash is DoS-resistant but costs tens of cycles per
//! key — measurable on the page-table lookup every simulated load makes,
//! and on the per-commit monitor lookups (the branch profiler's traced-head
//! set, the optimizer's coverage map). Keys there are simulated addresses,
//! not attacker-controlled input, so a single Fibonacci-multiply mix is
//! enough. No external crates: the workspace is dependency-free by policy.
//!
//! Determinism note: the hash function is fixed (no random seed), but
//! callers must still never let map iteration order become observable —
//! the same rule the default hasher already imposed.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, the usual Fibonacci-hashing multiplier (SplitMix64's gamma).
const K: u64 = crate::hash::GOLDEN_GAMMA;

/// Multiply-xor hasher specialized for integer keys. Non-integer writes
/// fall back to a simple byte fold — correct, just not the fast path.
#[derive(Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(K);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(K);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply concentrates entropy in the high bits; fold them
        // down so HashMap's low-bit bucket masking sees them.
        self.0 ^ (self.0 >> 32)
    }
}

/// `HashMap` keyed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` keyed with [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_u64_keys() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i * 4096, i);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 4096)), Some(&i));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn nearby_keys_do_not_collide_into_one_bucket() {
        // Page-aligned keys differ only in high-ish bits; the multiplier
        // must spread them. Sanity-check distinct hashes.
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u64 {
            let mut h = FastHasher::default();
            h.write_u64(i << 12);
            assert!(seen.insert(h.finish()), "collision at key {i}");
        }
    }
}
