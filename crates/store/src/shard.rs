//! Consistent-hash sharding of store keys across N shard directories.
//!
//! The serving tier splits the result store into `N` independent
//! [`Store`]s — `root/shard-000`, `root/shard-001`, … (one shard is `root`
//! itself, the unsharded layout) — and routes every key through a
//! [`ShardMap`]: a consistent-hash ring with
//! [`ShardMap::POINTS_PER_SHARD`] virtual points per shard. Routing is a
//! pure function of `(key, map)` — no clocks, no per-process state — so
//! the same fingerprint lands on the same shard on every run, every
//! platform and every worker count. Growing the ring from `N` to `N + 1`
//! shards moves only the keys the new shard's points capture, ~`1/(N+1)`
//! of the population, which is what lets a deployment reshard without
//! re-simulating the world.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tdo_metrics::{HistogramSnapshot, Registry};
use tdo_rand::{fnv1a64, mix64};

use crate::{GenerationSize, SizeStats, Store, StoreStats};

/// A consistent-hash ring mapping 64-bit keys to shard indices.
///
/// The ring is built once from the shard count alone: shard `s` owns the
/// points `mix64(fnv1a64("shard-{s}/{r}"))` for replicas `r` in
/// `0..POINTS_PER_SHARD`, and a key routes to the owner of the first ring
/// point at or clockwise-after `mix64(fnv1a64(key_bytes))`. FNV-1a on
/// short, similar inputs barely stirs the high bits — the 64 points of one
/// shard would otherwise land in a couple of narrow bands and wreck the
/// ring balance — so every ring position passes through the SplitMix64
/// finalizer first. Everything is a pure integer computation over stable
/// hashes, so two `ShardMap::new(n)` instances are interchangeable.
#[derive(Clone, Debug)]
pub struct ShardMap {
    shards: usize,
    /// `(ring_position, shard)`, sorted by position.
    points: Vec<(u64, u32)>,
}

impl ShardMap {
    /// Virtual ring points per shard. More points smooth the key balance
    /// and sharpen the ~`1/(N+1)` resharding bound; 64 keeps lookups in
    /// one cache line's worth of binary-search steps.
    pub const POINTS_PER_SHARD: usize = 64;

    /// A ring over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn new(shards: usize) -> ShardMap {
        assert!(shards > 0, "ShardMap: need at least one shard");
        let mut points = Vec::with_capacity(shards * Self::POINTS_PER_SHARD);
        for s in 0..shards {
            for r in 0..Self::POINTS_PER_SHARD {
                let pos = mix64(fnv1a64(format!("shard-{s}/{r}").as_bytes()));
                points.push((pos, s as u32));
            }
        }
        // Sort by position; on the (astronomically unlikely) collision of
        // two points, the lower shard index wins deterministically.
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        ShardMap { shards, points }
    }

    /// Number of shards on the ring.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key` — a pure function of `(key, self)`.
    #[must_use]
    pub fn shard_of(&self, key: u64) -> usize {
        let pos = mix64(fnv1a64(&key.to_le_bytes()));
        // First ring point at or after `pos`, wrapping to the start.
        let i = self.points.partition_point(|p| p.0 < pos);
        let (_, shard) = self.points[if i == self.points.len() { 0 } else { i }];
        shard as usize
    }
}

/// N independent [`Store`]s under one root, routed by a [`ShardMap`] —
/// the one store type the engine holds.
///
/// With `n >= 2` shards, shard `s` lives in `root/shard-{s:03}`; with one,
/// the single shard is `root` itself (the unsharded layout). `get`/`put`
/// route to the owning shard, `stats` aggregates across shards, and
/// `register_metrics` labels every shard's families `{shard="s"}` so the
/// exposition tells them apart (one shard registers unlabeled).
#[derive(Debug)]
pub struct ShardedStore {
    root: PathBuf,
    map: ShardMap,
    shards: Vec<Arc<Store>>,
}

impl ShardedStore {
    /// Opens (creating if necessary) `n` shards under `root`; `n <= 1`
    /// opens `root` itself as the one shard.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error opening any shard directory.
    pub fn open(root: impl AsRef<Path>, n: usize) -> io::Result<ShardedStore> {
        let root = root.as_ref().to_path_buf();
        let shards = ShardedStore::dirs(&root, n)
            .into_iter()
            .map(|dir| Store::open(dir).map(Arc::new))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(ShardedStore { root, map: ShardMap::new(shards.len()), shards })
    }

    /// The shard directories of an `n`-shard store under `root`, in shard
    /// order: `root` itself for `n <= 1`, else `root/shard-000` onwards.
    #[must_use]
    pub fn dirs(root: &Path, n: usize) -> Vec<PathBuf> {
        if n <= 1 {
            return vec![root.to_path_buf()];
        }
        (0..n).map(|s| root.join(format!("shard-{s:03}"))).collect()
    }

    /// The root directory: the parent of the shard subdirectories, or the
    /// one shard itself.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The routing ring.
    #[must_use]
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The shard stores, indexed by shard (for per-shard maintenance and
    /// inspection).
    #[must_use]
    pub fn shards(&self) -> &[Arc<Store>] {
        &self.shards
    }

    /// Total live records across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Routes `key` and reads from its owning shard (see [`Store::get`]).
    #[must_use]
    pub fn get(&self, key: u64, version: u32) -> Option<Vec<u64>> {
        self.shards[self.map.shard_of(key)].get(key, version)
    }

    /// Routes `key` and writes to its owning shard (see [`Store::put`]).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the owning shard's append.
    pub fn put(&self, key: u64, version: u32, payload: &[u64]) -> io::Result<()> {
        self.shards[self.map.shard_of(key)].put(key, version, payload)
    }

    /// Aggregated statistics across all shards.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for s in &self.shards {
            let st = s.stats();
            total.live_records += st.live_records;
            total.shadowed_records += st.shadowed_records;
            total.log_bytes += st.log_bytes;
            total.quarantine_bytes += st.quarantine_bytes;
            total.quarantined += st.quarantined;
            total.hits += st.hits;
            total.misses += st.misses;
            total.puts += st.puts;
        }
        total
    }

    /// Per-generation footprint and record-size histogram of the live
    /// records across all shards (see [`Store::size_stats`]).
    #[must_use]
    pub fn size_stats(&self) -> SizeStats {
        let mut per: BTreeMap<u32, GenerationSize> = BTreeMap::new();
        let mut record_bytes = HistogramSnapshot::default();
        for s in &self.shards {
            let sz = s.size_stats();
            for g in sz.per_generation {
                let total = per
                    .entry(g.version)
                    .or_insert(GenerationSize { version: g.version, ..GenerationSize::default() });
                total.records += g.records;
                total.bytes += g.bytes;
            }
            for (total, n) in record_bytes.buckets.iter_mut().zip(sz.record_bytes.buckets) {
                *total += n;
            }
            record_bytes.sum = record_bytes.sum.wrapping_add(sz.record_bytes.sum);
            record_bytes.count += sz.record_bytes.count;
        }
        SizeStats { per_generation: per.into_values().collect(), record_bytes }
    }

    /// Registers every shard's instruments with `reg` under the
    /// `tdo_store_*` families, labeled `{shard="s"}` — or unlabeled for
    /// the one shard of an unsharded store. Call at most once per
    /// registry.
    pub fn register_metrics(&self, reg: &Registry) {
        if let [only] = self.shards.as_slice() {
            return only.register_metrics(reg);
        }
        for (i, s) in self.shards.iter().enumerate() {
            let label = i.to_string();
            s.register_metrics_labeled(reg, &[("shard", &label)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_balance_is_reasonable() {
        let map = ShardMap::new(4);
        let mut counts = [0usize; 4];
        for key in 0..10_000u64 {
            counts[map.shard_of(key)] += 1;
        }
        for (s, c) in counts.iter().enumerate() {
            // Perfect balance is 2500; consistent hashing with 64 points
            // per shard lands well within 2x either way.
            assert!((1000..5000).contains(c), "shard {s} owns {c}/10000 keys");
        }
    }

    #[test]
    fn routing_is_pure() {
        let a = ShardMap::new(3);
        let b = ShardMap::new(3);
        for key in (0..1000u64).map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
            assert_eq!(a.shard_of(key), b.shard_of(key));
        }
    }

    #[test]
    fn sharded_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("tdo-shard-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ss = ShardedStore::open(&dir, 4).unwrap();
        for key in 0..64u64 {
            ss.put(key, 1, &[key, key * 2]).unwrap();
        }
        for key in 0..64u64 {
            assert_eq!(ss.get(key, 1), Some(vec![key, key * 2]));
        }
        assert_eq!(ss.len(), 64);
        let st = ss.stats();
        assert_eq!(st.puts, 64);
        assert_eq!(st.hits, 64);
        // Keys actually spread: no shard holds everything.
        assert!(ss.shards().iter().all(|s| s.stats().live_records < 64));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_shard_is_the_root_itself() {
        let dir = std::env::temp_dir().join(format!("tdo-shard-one-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ss = ShardedStore::open(&dir, 1).unwrap();
        ss.put(7, 1, &[42]).unwrap();
        // The unsharded layout: a plain store at the root, unlabeled metrics.
        assert!(!dir.join("shard-000").exists());
        let reg = Registry::new();
        ss.register_metrics(&reg);
        assert!(reg.render_prom().contains("\ntdo_store_puts_total 1\n"));
        drop(ss);
        assert_eq!(Store::open(&dir).unwrap().get(7, 1), Some(vec![42]));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
