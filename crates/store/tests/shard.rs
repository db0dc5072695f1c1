//! Satellite guarantee: the consistent-hash shard map is pure, balanced,
//! and moves only ~1/(N+1) of the keys when a shard is added.

use std::collections::BTreeMap;

use tdo_rand::{fnv1a64, Rng};
use tdo_store::ShardMap;

/// A seeded fingerprint population, as `Cell::fingerprint()` would produce
/// (uniform 64-bit keys).
fn population(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Resharding N -> N+1 moves roughly 1/(N+1) of the population, and every
/// moved key lands on the new shard — consistent hashing's defining
/// property, versus ~N/(N+1) for modulo sharding.
#[test]
fn resharding_moves_about_one_over_n_plus_one() {
    let keys = population(0xD15C, 20_000);
    for n in [2usize, 4, 8] {
        let before = ShardMap::new(n);
        let after = ShardMap::new(n + 1);
        let mut moved = 0usize;
        for &key in &keys {
            let (old, new) = (before.shard_of(key), after.shard_of(key));
            if old != new {
                moved += 1;
                assert_eq!(new, n, "a moved key must land on the new shard, not reshuffle");
            }
        }
        let expected = keys.len() / (n + 1);
        // Generous band around 1/(N+1): virtual-node placement is uneven,
        // but nowhere near the ~N/(N+1) a modulo remap would force.
        assert!(
            moved > expected / 2 && moved < expected * 2,
            "reshard {n}->{} moved {moved} of {} keys (expected ~{expected})",
            n + 1,
            keys.len()
        );
    }
}

/// Routing is a pure function of `(fingerprint, shard map)`: two maps built
/// from the same shard count route a seeded population identically, the
/// digest of the whole assignment is stable across construction order, and
/// concurrent lookups agree with serial ones (the map is read-only).
#[test]
fn routing_is_pure_and_thread_invariant() {
    let keys = population(0xA11, 8_192);
    let digest_of = |map: &ShardMap| {
        let mut bytes = Vec::with_capacity(keys.len());
        for &key in &keys {
            bytes.push(u8::try_from(map.shard_of(key)).expect("small shard count"));
        }
        fnv1a64(&bytes)
    };
    let serial = digest_of(&ShardMap::new(4));
    assert_eq!(serial, digest_of(&ShardMap::new(4)), "fresh maps route identically");

    // Four threads routing disjoint slices reassemble to the same digest —
    // the `--jobs` invariance the serving tier leans on.
    let map = ShardMap::new(4);
    let chunks: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = keys
            .chunks(keys.len() / 4)
            .map(|chunk| {
                let map = &map;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&k| u8::try_from(map.shard_of(k)).expect("small shard count"))
                        .collect::<Vec<u8>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("router thread")).collect()
    });
    let parallel = fnv1a64(&chunks.concat());
    assert_eq!(serial, parallel, "routing must not depend on the calling thread");
}

/// Every shard owns a reasonable share of a uniform population: no shard
/// is starved or dominant under the 64-virtual-point ring.
#[test]
fn ring_spreads_a_uniform_population() {
    let keys = population(0xBA1, 40_000);
    for n in [2usize, 4, 7] {
        let map = ShardMap::new(n);
        let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
        for &key in &keys {
            *counts.entry(map.shard_of(key)).or_default() += 1;
        }
        assert_eq!(counts.len(), n, "every shard owns keys");
        let fair = keys.len() / n;
        for (&shard, &count) in &counts {
            assert!(
                count > fair / 3 && count < fair * 3,
                "shard {shard}/{n} owns {count} of {} keys (fair share {fair})",
                keys.len()
            );
        }
    }
}
