//! The concurrent front of the marginal cache: N independently locked
//! shards.
//!
//! The pre-sharding cache was a single `Mutex<HashMap>`; with many worker
//! threads and millisecond-scale work units that one lock serializes the
//! whole pool. Here the key space is partitioned by a mix of the work
//! unit's stable content hash across [`EvalConfig::cache_shards`] mutexes,
//! so threads touching different units contend only `1/N` of the time.
//! Hit/miss/eviction/persistence counters are lock-free atomics shared by
//! all shards. A lookup itself touches none of them: callers count their
//! hits and misses locally and add them once per planning call
//! ([`MarginalCache::record_lookups`]), so on a warm engine two threads
//! reading different shards share no written cache line, and under the
//! default unbounded capacity a hit writes nothing at all beyond the
//! shard's lock (an unbounded shard keeps no recency order).
//!
//! Keys are the stable FNV-1a content hashes of [`UnitKey`] (see
//! [`UnitKey::stable_hash`]), not the full keys: identical across
//! processes, platforms, and toolchain versions, which is what makes the
//! [`persist`](super::persist) snapshots valid by construction in any
//! process. The trade for content addressing is that two distinct unit
//! contents colliding on the same 64-bit hash would alias, and on the
//! *read* path such a collision is served, not detected — the engine
//! accepts the ~`n²/2⁶⁵` birthday risk (about 10⁻⁷ at a million resident
//! units) in exchange for process-spanning validity and for not keeping a
//! deep `UnitKey` clone per entry. The insert path still `debug_assert`s
//! that cached bits never change, which surfaces a collision between two
//! *solved* units (or a non-deterministic solver) in development.
//! Deduplication within one planning call compares unit content and is
//! collision-free; a wave's later planning calls join its earlier units by
//! this same `(hash, fingerprint)` identity.
//!
//! [`EvalConfig::cache_shards`]: crate::eval::EvalConfig::cache_shards
//! [`UnitKey`]: crate::engine::UnitKey
//! [`UnitKey::stable_hash`]: crate::engine::UnitKey::stable_hash

use super::eviction::{CacheCapacity, Shard};
use super::SolverFingerprint;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Engine-lifetime map from work-unit content hash to solved marginals,
/// sharded across independently locked LRU stores.
#[derive(Debug)]
pub(crate) struct MarginalCache {
    shards: Box<[Mutex<Shard>]>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
    loaded: AtomicU64,
    saved: AtomicU64,
}

impl MarginalCache {
    /// Creates a cache with `shards` partitions (clamped to at least one)
    /// sharing `capacity` evenly.
    pub(crate) fn new(shards: usize, capacity: CacheCapacity) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.per_shard(shards);
        MarginalCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            saved: AtomicU64::new(0),
        }
    }

    /// A 16-shard unbounded cache (the engine's defaults), for tests.
    #[cfg(test)]
    pub(crate) fn unbounded() -> Self {
        MarginalCache::new(16, CacheCapacity::Unbounded)
    }

    /// The shard owning a content hash. FNV-1a's low bits are its weakest,
    /// so the hash is finalized (multiply-xorshift) before reduction — the
    /// same reason the seed derivation runs SplitMix64 over it.
    fn shard(&self, hash: u64) -> &Mutex<Shard> {
        let mixed = (hash ^ (hash >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        let index = (mixed >> 32) as usize % self.shards.len();
        &self.shards[index]
    }

    /// Looks one value up without counting it: a planning call counts its
    /// lookups locally and hands the totals to
    /// [`MarginalCache::record_lookups`] once, so a warm lookup writes
    /// nothing shared beyond its shard's lock.
    pub(crate) fn lookup(&self, hash: u64, fingerprint: SolverFingerprint) -> Option<f64> {
        self.shard(hash)
            .lock()
            .expect("marginal cache shard poisoned")
            .get(hash, fingerprint)
    }

    /// Adds one call's lookups to the hit and miss counters. A lookup whose
    /// absent value is not solved afterwards (a top-k walk that stops
    /// there) is neither: the solve that follows counts the miss.
    pub(crate) fn record_lookups(&self, hits: u64, misses: u64) {
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// A lookup counted on its own, for tests.
    #[cfg(test)]
    pub(crate) fn get(&self, hash: u64, fingerprint: SolverFingerprint) -> Option<f64> {
        let found = self.lookup(hash, fingerprint);
        let hit = u64::from(found.is_some());
        self.record_lookups(hit, 1 - hit);
        found
    }

    /// Caches one value, returning the estimated bytes this insert's budget
    /// enforcement evicted (zero almost always), so the engine can surface
    /// eviction pressure to its instruments.
    pub(crate) fn insert(
        &self,
        hash: u64,
        fingerprint: SolverFingerprint,
        probability: f64,
    ) -> u64 {
        let evicted = self
            .shard(hash)
            .lock()
            .expect("marginal cache shard poisoned")
            .insert(hash, fingerprint, probability);
        if evicted.entries > 0 {
            self.evictions.fetch_add(evicted.entries, Ordering::Relaxed);
            self.evicted_bytes
                .fetch_add(evicted.bytes, Ordering::Relaxed);
        }
        evicted.bytes
    }

    /// Installs entries from a disk snapshot: same keep-first semantics as
    /// [`MarginalCache::insert`], counted separately (as entries *read* —
    /// keep-first and capacity eviction may retain fewer) so stats
    /// distinguish warm-start entries from solved ones.
    pub(crate) fn absorb(&self, entries: impl IntoIterator<Item = (u64, SolverFingerprint, f64)>) {
        let mut loaded = 0;
        for (hash, fingerprint, probability) in entries {
            self.insert(hash, fingerprint, probability);
            loaded += 1;
        }
        self.loaded.fetch_add(loaded, Ordering::Relaxed);
    }

    /// Every cached triple, sorted by `(hash, fingerprint)` so snapshots of
    /// equal content are byte-identical.
    pub(crate) fn snapshot(&self) -> Vec<(u64, SolverFingerprint, f64)> {
        let mut entries: Vec<(u64, SolverFingerprint, f64)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .expect("marginal cache shard poisoned")
                    .entries()
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort_by_key(|&(hash, fingerprint, _)| (hash, fingerprint));
        entries
    }

    /// Removes every cached entry for the given content hashes (all
    /// fingerprints of each), returning the number of entries dropped.
    /// Serves invalidation; not counted as eviction (the contents are
    /// stale, not crowded out).
    pub(crate) fn remove_hashes(&self, hashes: &std::collections::HashSet<u64>) -> u64 {
        let mut removed = 0;
        for &hash in hashes {
            removed += self
                .shard(hash)
                .lock()
                .expect("marginal cache shard poisoned")
                .remove(hash);
        }
        removed
    }

    pub(crate) fn record_saved(&self, entries: u64) {
        self.saved.fetch_add(entries, Ordering::Relaxed);
    }

    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .expect("marginal cache shard poisoned")
                    .len_entries()
            })
            .sum()
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Estimated heap bytes freed by eviction since construction.
    pub(crate) fn evicted_bytes(&self) -> u64 {
        self.evicted_bytes.load(Ordering::Relaxed)
    }

    pub(crate) fn loaded(&self) -> u64 {
        self.loaded.load(Ordering::Relaxed)
    }

    pub(crate) fn saved(&self) -> u64 {
        self.saved.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FP: SolverFingerprint = SolverFingerprint::ExactAuto;

    #[test]
    fn values_round_trip_across_any_shard_count() {
        for shards in [1usize, 4, 16, 64] {
            let cache = MarginalCache::new(shards, CacheCapacity::Unbounded);
            for hash in 0..200u64 {
                cache.insert(hash.wrapping_mul(0x9e37_79b9), FP, hash as f64 / 200.0);
            }
            assert_eq!(cache.len(), 200, "shards={shards}");
            for hash in 0..200u64 {
                assert_eq!(
                    cache.get(hash.wrapping_mul(0x9e37_79b9), FP),
                    Some(hash as f64 / 200.0),
                    "shards={shards}"
                );
            }
            assert_eq!(cache.hits(), 200);
            assert_eq!(cache.misses(), 0);
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let cache = MarginalCache::new(0, CacheCapacity::Unbounded);
        cache.insert(7, FP, 0.5);
        assert_eq!(cache.get(7, FP), Some(0.5));
    }

    #[test]
    fn bounded_cache_tracks_evictions_across_shards() {
        let cache = MarginalCache::new(4, CacheCapacity::Entries(8));
        for hash in 0..100u64 {
            cache.insert(hash, FP, hash as f64);
        }
        assert!(
            cache.len() <= 8 + 4,
            "len {} over budget + slack",
            cache.len()
        );
        assert!(cache.evictions() > 0);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let cache = MarginalCache::new(8, CacheCapacity::Unbounded);
        for hash in (0..50u64).rev() {
            cache.insert(hash, FP, hash as f64);
        }
        let snap = cache.snapshot();
        assert_eq!(snap.len(), 50);
        assert!(snap.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    }

    #[test]
    fn remove_hashes_is_surgical() {
        let cache = MarginalCache::new(4, CacheCapacity::Unbounded);
        for hash in 0..20u64 {
            cache.insert(hash, FP, hash as f64);
        }
        let doomed: std::collections::HashSet<u64> = [3, 7, 11, 99].into_iter().collect();
        assert_eq!(cache.remove_hashes(&doomed), 3, "99 was never cached");
        assert_eq!(cache.len(), 17);
        assert_eq!(cache.get(3, FP), None);
        assert_eq!(cache.get(4, FP), Some(4.0));
        assert_eq!(cache.evictions(), 0, "removal is not eviction");
    }

    #[test]
    fn absorb_counts_loaded_and_keeps_first_on_duplicates() {
        let cache = MarginalCache::new(2, CacheCapacity::Unbounded);
        cache.insert(1, FP, 0.25);
        cache.absorb(vec![(1, FP, 0.25), (2, FP, 0.5)]);
        assert_eq!(cache.loaded(), 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(1, FP), Some(0.25));
        assert_eq!(cache.get(2, FP), Some(0.5));
    }
}
