//! Size-bounded LRU eviction: the single-shard store underneath the sharded
//! marginal cache.
//!
//! Each [`Shard`] owns a map from work-unit content hash to the values the
//! solver families produced for that unit, plus an LRU recency index (a
//! `BTreeMap` from a shard-local monotonic tick to the hash, giving
//! `O(log n)` touches and `O(log n)` victim selection). Accounting is
//! per-shard: a global [`CacheCapacity`] is divided evenly across shards at
//! construction, so shards never coordinate — which is the point of
//! sharding.
//!
//! Eviction drops whole slots (a unit with every fingerprint that was
//! solved for it) in least-recently-used order. It never changes answers:
//! an evicted unit is simply re-solved on next demand, and under the
//! engine's bit-determinism contract the re-solve reproduces the evicted
//! bits exactly.

use super::SolverFingerprint;
use std::collections::{BTreeMap, HashMap};

/// Capacity bound of the engine's marginal cache, applied across all shards.
///
/// The default is [`CacheCapacity::Unbounded`], which preserves the
/// grow-forever behaviour the engine had before eviction existed. Bounded
/// variants turn each shard into an LRU store; the configured budget is
/// split evenly across shards, and a shard always retains at least its most
/// recently used slot even if that slot alone exceeds the per-shard budget
/// (so pathological budgets degrade to "cache of one", never to thrashing
/// on an uncacheable unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheCapacity {
    /// No bound: the cache grows for the engine's lifetime.
    Unbounded,
    /// At most this many cached `(fingerprint, value)` entries in total.
    Entries(usize),
    /// Approximately this many bytes of cache heap in total. The accounting
    /// is an estimate (map-entry overhead plus per-value payload), intended
    /// for sizing, not exact memory control.
    Bytes(usize),
}

impl CacheCapacity {
    /// The budget one of `shards` shards enforces locally: an even split,
    /// rounded up so that tiny budgets do not vanish entirely.
    pub(crate) fn per_shard(self, shards: usize) -> CacheCapacity {
        let split = |total: usize| total.div_ceil(shards).max(1);
        match self {
            CacheCapacity::Unbounded => CacheCapacity::Unbounded,
            CacheCapacity::Entries(n) => CacheCapacity::Entries(split(n)),
            CacheCapacity::Bytes(b) => CacheCapacity::Bytes(split(b)),
        }
    }
}

/// Estimated bytes of map + recency-index overhead per slot, used by
/// [`CacheCapacity::Bytes`] accounting.
const SLOT_OVERHEAD_BYTES: usize = 96;
/// Estimated bytes per `(fingerprint, value)` entry within a slot.
const ENTRY_BYTES: usize = 24;
/// How many of the oldest slots byte-mode eviction considers before picking
/// the cheapest-to-recompute among them (ties go to the oldest). A small
/// window keeps victim selection `O(K log n)` while letting an expensive
/// marginal outlive cheap neighbours that happen to be slightly younger.
const EVICTION_SCAN: usize = 8;

/// What one insert's budget enforcement dropped: cached entries, and the
/// estimated heap bytes they occupied (per the byte-budget accounting
/// model, reported in every budget mode so eviction pressure is observable
/// even under [`CacheCapacity::Entries`]).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Evicted {
    pub(crate) entries: u64,
    pub(crate) bytes: u64,
}

/// The values cached for one work-unit content hash, plus its LRU tick.
#[derive(Debug)]
struct Slot {
    /// An engine rarely produces more than two fingerprints (its configured
    /// solver plus auto-exact upper bounds), so a small vector beats a map.
    values: Vec<(SolverFingerprint, f64)>,
    /// The recency-index tick currently naming this slot.
    tick: u64,
    /// Estimated cost (seconds of solver time) to recompute this slot's
    /// values, as reported by the calibration layer at insert time. Only an
    /// eviction weight: never persisted, never part of any answer. `0.0`
    /// when unknown (e.g. snapshot-loaded entries).
    cost: f64,
}

/// One independently locked partition of the marginal cache.
#[derive(Debug)]
pub(crate) struct Shard {
    slots: HashMap<u64, Slot>,
    /// LRU recency index: tick → slot hash. Ticks are shard-local and
    /// strictly increasing, so the first entry is always the victim.
    recency: BTreeMap<u64, u64>,
    tick: u64,
    /// Current weight in the budget's unit (entries or bytes).
    weight: usize,
    budget: CacheCapacity,
}

impl Shard {
    pub(crate) fn new(budget: CacheCapacity) -> Self {
        Shard {
            slots: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            weight: 0,
            budget,
        }
    }

    /// Fixed weight of a slot's map/recency-index presence, in the budget's
    /// unit. A slot of `n` entries weighs `slot_overhead + n × entry_weight`
    /// in total; insert and evict must charge and credit by these same two
    /// helpers or the running `weight` drifts from the real contents.
    fn slot_overhead(&self) -> usize {
        match self.budget {
            CacheCapacity::Unbounded | CacheCapacity::Entries(_) => 0,
            CacheCapacity::Bytes(_) => SLOT_OVERHEAD_BYTES,
        }
    }

    /// Weight of one `(fingerprint, value)` entry, in the budget's unit.
    fn entry_weight(&self) -> usize {
        match self.budget {
            CacheCapacity::Unbounded | CacheCapacity::Entries(_) => 1,
            CacheCapacity::Bytes(_) => ENTRY_BYTES,
        }
    }

    fn limit(&self) -> Option<usize> {
        match self.budget {
            CacheCapacity::Unbounded => None,
            CacheCapacity::Entries(n) => Some(n),
            CacheCapacity::Bytes(b) => Some(b),
        }
    }

    /// Marks a slot most recently used.
    fn touch(&mut self, hash: u64) {
        let slot = self.slots.get_mut(&hash).expect("touched slot exists");
        self.recency.remove(&slot.tick);
        self.tick += 1;
        slot.tick = self.tick;
        self.recency.insert(self.tick, hash);
    }

    /// Looks up one `(hash, fingerprint)` value, refreshing recency on a
    /// slot hit (even when the fingerprint misses: the slot's content was
    /// demanded, so it is not cold).
    pub(crate) fn get(&mut self, hash: u64, fingerprint: SolverFingerprint) -> Option<f64> {
        let found = self.slots.get(&hash).map(|slot| {
            slot.values
                .iter()
                .find(|&&(f, _)| f == fingerprint)
                .map(|&(_, p)| p)
        })?;
        self.touch(hash);
        found
    }

    /// Inserts one value, returning the eviction this insert forced (to
    /// stay within budget).
    ///
    /// Re-inserting an existing `(hash, fingerprint)` keeps the **first**
    /// value: under the bit-determinism contract a re-solve of the same
    /// content with the same solver family reproduces the same bits, so a
    /// differing re-insert can only mean content-hash aliasing (or a stale
    /// snapshot from a different code version) — `debug_assert` catches
    /// that in development, and release builds refuse to let cached answers
    /// mutate behind earlier readers.
    #[cfg(test)]
    pub(crate) fn insert(
        &mut self,
        hash: u64,
        fingerprint: SolverFingerprint,
        probability: f64,
    ) -> u64 {
        self.insert_costed(hash, fingerprint, probability, 0.0)
            .entries
    }

    /// [`Shard::insert`] with a recompute-cost estimate attached to the
    /// slot. The cost only weights byte-mode victim selection; a slot's cost
    /// is the maximum reported across its inserts (re-solving the slot means
    /// re-running its most expensive fingerprint's solver too).
    pub(crate) fn insert_costed(
        &mut self,
        hash: u64,
        fingerprint: SolverFingerprint,
        probability: f64,
        cost: f64,
    ) -> Evicted {
        match self.slots.get_mut(&hash) {
            Some(slot) => {
                slot.cost = slot.cost.max(cost);
                match slot.values.iter().find(|&&(f, _)| f == fingerprint) {
                    Some(&(_, existing)) => {
                        debug_assert_eq!(
                            existing.to_bits(),
                            probability.to_bits(),
                            "marginal cache re-insert changed bits for hash {hash:#018x} / \
                             {fingerprint:?}: content-hash aliasing or a non-deterministic solver"
                        );
                        self.touch(hash);
                        return Evicted::default();
                    }
                    None => {
                        slot.values.push((fingerprint, probability));
                        self.weight += self.entry_weight();
                    }
                }
                self.touch(hash);
            }
            None => {
                self.tick += 1;
                self.slots.insert(
                    hash,
                    Slot {
                        values: vec![(fingerprint, probability)],
                        tick: self.tick,
                        cost,
                    },
                );
                self.recency.insert(self.tick, hash);
                self.weight += self.slot_overhead() + self.entry_weight();
            }
        }
        self.evict_over_budget()
    }

    /// Evicts slots until the shard fits its budget, always retaining the
    /// most recently used slot. Returns what was evicted.
    ///
    /// Entries mode is pure LRU. Byte mode is cost-weighted LRU: among the
    /// [`EVICTION_SCAN`] oldest slots, the one cheapest to recompute goes
    /// first (ties to the oldest), so an expensive marginal survives cheap
    /// neighbours of similar age. Either way eviction never changes
    /// answers — an evicted unit re-solves to the same bits.
    fn evict_over_budget(&mut self) -> Evicted {
        let Some(limit) = self.limit() else {
            return Evicted::default();
        };
        let cost_weighted = matches!(self.budget, CacheCapacity::Bytes(_));
        let mut evicted = Evicted::default();
        while self.weight > limit && self.slots.len() > 1 {
            let victim_tick = if cost_weighted {
                // Scan the oldest slots, excluding the newest overall so the
                // most recently used slot is never a candidate.
                let candidates = EVICTION_SCAN.min(self.recency.len() - 1);
                self.recency
                    .iter()
                    .take(candidates)
                    .map(|(&tick, &hash)| (self.slots[&hash].cost, tick))
                    .fold(None::<(f64, u64)>, |best, (cost, tick)| match best {
                        Some((c, _)) if cost >= c => best,
                        _ => Some((cost, tick)),
                    })
                    .expect("a non-empty shard has at least one candidate")
                    .1
            } else {
                *self
                    .recency
                    .first_key_value()
                    .expect("recency index tracks every slot")
                    .0
            };
            let victim = self
                .recency
                .remove(&victim_tick)
                .expect("victim tick is present");
            let slot = self.slots.remove(&victim).expect("victim slot exists");
            self.weight -= self.slot_overhead() + slot.values.len() * self.entry_weight();
            evicted.entries += slot.values.len() as u64;
            // Byte estimate in any budget mode, using the same per-slot
            // model byte budgets charge — observability, not accounting.
            evicted.bytes += (SLOT_OVERHEAD_BYTES + slot.values.len() * ENTRY_BYTES) as u64;
        }
        evicted
    }

    /// Removes the slot for `hash` (every fingerprint solved for that
    /// content), returning the number of entries dropped. Unlike eviction,
    /// removal may take the most recently used slot: it serves
    /// invalidation, where the cached content itself is stale.
    pub(crate) fn remove(&mut self, hash: u64) -> u64 {
        let Some(slot) = self.slots.remove(&hash) else {
            return 0;
        };
        self.recency.remove(&slot.tick);
        self.weight -= self.slot_overhead() + slot.values.len() * self.entry_weight();
        slot.values.len() as u64
    }

    /// Number of cached `(fingerprint, value)` entries.
    pub(crate) fn len_entries(&self) -> usize {
        self.slots.values().map(|slot| slot.values.len()).sum()
    }

    /// All cached triples, in unspecified order (the persistence layer
    /// sorts).
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u64, SolverFingerprint, f64)> + '_ {
        self.slots
            .iter()
            .flat_map(|(&hash, slot)| slot.values.iter().map(move |&(f, p)| (hash, f, p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FP: SolverFingerprint = SolverFingerprint::ExactAuto;

    #[test]
    fn unbounded_shard_never_evicts() {
        let mut shard = Shard::new(CacheCapacity::Unbounded);
        for hash in 0..1000u64 {
            assert_eq!(shard.insert(hash, FP, hash as f64), 0);
        }
        assert_eq!(shard.len_entries(), 1000);
    }

    #[test]
    fn entry_budget_evicts_least_recently_used() {
        let mut shard = Shard::new(CacheCapacity::Entries(3));
        shard.insert(1, FP, 0.1);
        shard.insert(2, FP, 0.2);
        shard.insert(3, FP, 0.3);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(shard.get(1, FP), Some(0.1));
        assert_eq!(shard.insert(4, FP, 0.4), 1);
        assert_eq!(shard.get(2, FP), None, "victim was the least recently used");
        assert_eq!(shard.get(1, FP), Some(0.1));
        assert_eq!(shard.get(3, FP), Some(0.3));
        assert_eq!(shard.get(4, FP), Some(0.4));
        assert_eq!(shard.len_entries(), 3);
    }

    #[test]
    fn most_recent_slot_survives_a_tiny_budget() {
        let mut shard = Shard::new(CacheCapacity::Entries(1));
        shard.insert(1, FP, 0.1);
        shard.insert(1, SolverFingerprint::GeneralExact, 0.2);
        // The slot now weighs 2 > budget 1, but it is the sole (hence most
        // recent) slot and must survive.
        assert_eq!(shard.len_entries(), 2);
        shard.insert(2, FP, 0.3);
        // The overweight old slot goes; the fresh insert stays.
        assert_eq!(shard.get(1, FP), None);
        assert_eq!(shard.get(2, FP), Some(0.3));
    }

    #[test]
    fn byte_budget_accounts_slot_overhead() {
        let budget = SLOT_OVERHEAD_BYTES + ENTRY_BYTES; // exactly one slot of one entry
        let mut shard = Shard::new(CacheCapacity::Bytes(budget));
        shard.insert(1, FP, 0.1);
        assert_eq!(shard.len_entries(), 1);
        shard.insert(2, FP, 0.2);
        assert_eq!(shard.len_entries(), 1, "byte budget holds one slot");
        assert_eq!(shard.get(2, FP), Some(0.2));
    }

    #[test]
    fn byte_accounting_balances_for_multi_fingerprint_slots() {
        // A budget of exactly two 2-entry slots (2 × (96 + 2×24)). Charging
        // and crediting must use the same formula: an earlier version
        // charged the slot overhead again for every extra fingerprint but
        // credited it once on eviction, leaking 96 phantom bytes per
        // evicted multi-entry slot until the shard collapsed to one slot.
        let budget = 2 * (SLOT_OVERHEAD_BYTES + 2 * ENTRY_BYTES);
        let mut shard = Shard::new(CacheCapacity::Bytes(budget));
        for hash in 0..20u64 {
            shard.insert(hash, FP, 0.5);
            shard.insert(hash, SolverFingerprint::GeneralExact, 0.25);
        }
        assert_eq!(
            shard.len_entries(),
            4,
            "steady state must hold two 2-entry slots, not drift down"
        );
        assert_eq!(shard.get(19, FP), Some(0.5));
        assert_eq!(shard.get(18, SolverFingerprint::GeneralExact), Some(0.25));
    }

    #[test]
    fn byte_mode_eviction_prefers_cheap_victims() {
        // Room for exactly two single-entry slots. An expensive old slot
        // must outlive a cheap slightly-younger one when a third arrives.
        let budget = 2 * (SLOT_OVERHEAD_BYTES + ENTRY_BYTES);
        let mut shard = Shard::new(CacheCapacity::Bytes(budget));
        shard.insert_costed(1, FP, 0.1, 5.0); // expensive, oldest
        shard.insert_costed(2, FP, 0.2, 0.001); // cheap, younger
        let evicted = shard.insert_costed(3, FP, 0.3, 1.0);
        assert_eq!(evicted.entries, 1);
        assert_eq!(
            evicted.bytes,
            (SLOT_OVERHEAD_BYTES + ENTRY_BYTES) as u64,
            "byte estimate follows the slot model"
        );
        assert_eq!(shard.get(2, FP), None, "the cheap slot is the victim");
        assert_eq!(shard.get(1, FP), Some(0.1), "the expensive slot survives");
        assert_eq!(shard.get(3, FP), Some(0.3));
        // Equal costs fall back to plain LRU (oldest goes).
        let mut lru = Shard::new(CacheCapacity::Bytes(budget));
        lru.insert_costed(1, FP, 0.1, 1.0);
        lru.insert_costed(2, FP, 0.2, 1.0);
        lru.insert_costed(3, FP, 0.3, 1.0);
        assert_eq!(lru.get(1, FP), None, "ties evict the oldest");
        assert_eq!(lru.get(2, FP), Some(0.2));
    }

    #[test]
    fn entries_mode_ignores_cost_and_stays_pure_lru() {
        let mut shard = Shard::new(CacheCapacity::Entries(2));
        shard.insert_costed(1, FP, 0.1, 100.0);
        shard.insert_costed(2, FP, 0.2, 0.0);
        shard.insert_costed(3, FP, 0.3, 0.0);
        assert_eq!(shard.get(1, FP), None, "entries mode evicts by age only");
        assert_eq!(shard.get(2, FP), Some(0.2));
        assert_eq!(shard.get(3, FP), Some(0.3));
    }

    #[test]
    fn remove_drops_whole_slots_and_balances_the_weight() {
        let budget = 2 * (SLOT_OVERHEAD_BYTES + 2 * ENTRY_BYTES);
        let mut shard = Shard::new(CacheCapacity::Bytes(budget));
        shard.insert(1, FP, 0.1);
        shard.insert(1, SolverFingerprint::GeneralExact, 0.2);
        shard.insert(2, FP, 0.3);
        assert_eq!(shard.remove(1), 2, "both fingerprints of the slot drop");
        assert_eq!(shard.remove(1), 0, "removing again is a no-op");
        assert_eq!(shard.remove(99), 0);
        assert_eq!(shard.get(1, FP), None);
        assert_eq!(shard.get(2, FP), Some(0.3));
        // The freed weight is credited back: two fresh 2-entry slots fit
        // alongside slot 2 being evicted normally, with no phantom bytes.
        shard.insert(3, FP, 0.4);
        shard.insert(3, SolverFingerprint::GeneralExact, 0.5);
        assert_eq!(shard.len_entries(), 3);
    }

    #[test]
    fn reinsert_same_bits_keeps_first_and_is_not_an_eviction() {
        let mut shard = Shard::new(CacheCapacity::Entries(8));
        shard.insert(1, FP, 0.5);
        assert_eq!(shard.insert(1, FP, 0.5), 0);
        assert_eq!(shard.len_entries(), 1);
        assert_eq!(shard.get(1, FP), Some(0.5));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "re-insert changed bits")]
    fn reinsert_with_differing_bits_panics_in_debug() {
        let mut shard = Shard::new(CacheCapacity::Unbounded);
        shard.insert(1, FP, 0.5);
        shard.insert(1, FP, 0.25);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn reinsert_with_differing_bits_keeps_first_in_release() {
        let mut shard = Shard::new(CacheCapacity::Unbounded);
        shard.insert(1, FP, 0.5);
        shard.insert(1, FP, 0.25);
        assert_eq!(shard.get(1, FP), Some(0.5));
    }

    #[test]
    fn per_shard_budget_splits_evenly_and_rounds_up() {
        assert_eq!(
            CacheCapacity::Entries(16).per_shard(4),
            CacheCapacity::Entries(4)
        );
        assert_eq!(
            CacheCapacity::Entries(17).per_shard(4),
            CacheCapacity::Entries(5)
        );
        assert_eq!(
            CacheCapacity::Entries(1).per_shard(16),
            CacheCapacity::Entries(1)
        );
        assert_eq!(
            CacheCapacity::Bytes(1024).per_shard(8),
            CacheCapacity::Bytes(128)
        );
        assert_eq!(
            CacheCapacity::Unbounded.per_shard(8),
            CacheCapacity::Unbounded
        );
    }
}
