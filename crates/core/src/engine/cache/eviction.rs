//! Size-bounded LRU eviction: the single-shard store underneath the sharded
//! marginal cache.
//!
//! Each [`Shard`] owns a map from work-unit content hash to the values the
//! solver families produced for that unit. A bounded shard also keeps the
//! slots' recency as a lazy-deletion queue: every touch stamps the slot
//! with a fresh shard-local tick and appends `(tick, hash)` at the back,
//! which leaves the slot's earlier entry behind, stale. The victim is the
//! first entry from the front whose tick is still its slot's, stale entries
//! being dropped as they surface, and the queue is compacted to its live
//! entries whenever it grows past twice the slot count. A touch and a
//! victim pick are thus `O(1)` amortised, and slots leave in exactly
//! least-recently-used order. An unbounded shard never evicts and keeps no
//! recency state at all, so a hit there writes nothing.
//!
//! Accounting is per-shard: a global [`CacheCapacity`] is divided evenly
//! across shards at construction, so shards never coordinate — which is
//! the point of sharding.
//!
//! Eviction drops whole slots (a unit with every fingerprint that was
//! solved for it) in least-recently-used order; a slot left alone over the
//! budget loses its oldest fingerprints. It never changes answers: an
//! evicted value is simply re-solved on next demand, and under the engine's
//! bit-determinism contract the re-solve reproduces the evicted bits
//! exactly.

use super::SolverFingerprint;
use crate::engine::unit::PremixedState;
use std::collections::{HashMap, VecDeque};

/// Capacity bound of the engine's marginal cache, applied across all shards.
///
/// The default is [`CacheCapacity::Unbounded`], which preserves the
/// grow-forever behaviour the engine had before eviction existed. Bounded
/// variants turn each shard into an LRU store; the configured budget is
/// split evenly across shards. A slot holds every fingerprint solved for its
/// unit, so one slot can outweigh a shard's budget on its own: a shard then
/// keeps only its most recently used slot, trimmed to its newest
/// fingerprints, and the value just inserted always stays (so pathological
/// budgets degrade to "cache of one", never to thrashing on an uncacheable
/// unit, and the bound holds whatever one unit accumulates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheCapacity {
    /// No bound: the cache grows for the engine's lifetime.
    Unbounded,
    /// At most this many cached `(fingerprint, value)` entries in total.
    Entries(usize),
}

impl CacheCapacity {
    /// The budget one of `shards` shards enforces locally: an even split,
    /// rounded up so that tiny budgets do not vanish entirely.
    pub(crate) fn per_shard(self, shards: usize) -> CacheCapacity {
        match self {
            CacheCapacity::Unbounded => CacheCapacity::Unbounded,
            CacheCapacity::Entries(n) => CacheCapacity::Entries(n.div_ceil(shards).max(1)),
        }
    }
}

/// Estimated bytes of map + recency-index overhead per slot, for the
/// evicted-bytes estimate.
pub(super) const SLOT_OVERHEAD_BYTES: usize = 96;
/// Estimated bytes per `(fingerprint, value)` entry within a slot.
pub(super) const ENTRY_BYTES: usize = 24;

/// What one insert's budget enforcement dropped: cached entries, and an
/// estimate of the heap bytes they occupied (slot overhead plus per-entry
/// payload), so eviction pressure is observable in bytes too.
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
    /// Oldest first: a trim drops from the front.
    values: Vec<(SolverFingerprint, f64)>,
    /// The tick of the slot's latest touch, which names its one live entry
    /// in the recency queue. Unused in an unbounded shard.
    tick: u64,
}

type Slots = HashMap<u64, Slot, PremixedState>;

/// The budget and recency order of a bounded shard.
#[derive(Debug)]
struct Lru {
    /// Cached `(fingerprint, value)` entries the shard may hold.
    limit: usize,
    /// `(tick, hash)` per touch, oldest first. An entry is live while its
    /// tick is its slot's; every slot has exactly one live entry.
    queue: VecDeque<(u64, u64)>,
    /// The last tick handed out: shard-local and strictly increasing.
    tick: u64,
}

impl Lru {
    /// Marks `slot` (filed under `hash`) most recently used.
    fn stamp(&mut self, hash: u64, slot: &mut Slot) {
        self.tick += 1;
        slot.tick = self.tick;
        self.queue.push_back((self.tick, hash));
    }

    /// Drops the stale entries once they outnumber the live ones, which
    /// keeps the queue within twice the slot count and each touch `O(1)`
    /// amortised.
    fn compact(&mut self, slots: &Slots) {
        if self.queue.len() > 2 * slots.len() {
            self.queue
                .retain(|&(tick, hash)| is_live(slots, tick, hash));
        }
    }

    /// Takes the least recently used slot's hash off the queue.
    fn pop_least_recent(&mut self, slots: &Slots) -> u64 {
        loop {
            let (tick, hash) = self
                .queue
                .pop_front()
                .expect("the recency queue holds every slot's latest touch");
            if is_live(slots, tick, hash) {
                return hash;
            }
        }
    }
}

fn is_live(slots: &Slots, tick: u64, hash: u64) -> bool {
    slots.get(&hash).is_some_and(|slot| slot.tick == tick)
}

/// One independently locked partition of the marginal cache.
#[derive(Debug)]
pub(crate) struct Shard {
    slots: Slots,
    /// `None` when unbounded: nothing is ever evicted, so no order is kept.
    lru: Option<Lru>,
    /// Cached `(fingerprint, value)` entries, the budget's unit.
    entries: usize,
}

impl Shard {
    pub(crate) fn new(budget: CacheCapacity) -> Self {
        Shard {
            slots: Slots::default(),
            lru: match budget {
                CacheCapacity::Unbounded => None,
                CacheCapacity::Entries(limit) => Some(Lru {
                    limit,
                    queue: VecDeque::new(),
                    tick: 0,
                }),
            },
            entries: 0,
        }
    }

    /// Marks an existing slot most recently used (a no-op when unbounded).
    fn touch(&mut self, hash: u64) {
        if let Some(lru) = &mut self.lru {
            lru.stamp(
                hash,
                self.slots.get_mut(&hash).expect("touched slot exists"),
            );
            lru.compact(&self.slots);
        }
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
    pub(crate) fn insert(
        &mut self,
        hash: u64,
        fingerprint: SolverFingerprint,
        probability: f64,
    ) -> Evicted {
        let slot = self.slots.entry(hash).or_insert_with(|| Slot {
            values: Vec::with_capacity(1),
            tick: 0,
        });
        if let Some(&(_, existing)) = slot.values.iter().find(|&&(f, _)| f == fingerprint) {
            debug_assert_eq!(
                existing.to_bits(),
                probability.to_bits(),
                "marginal cache re-insert changed bits for hash {hash:#018x} / \
                 {fingerprint:?}: content-hash aliasing or a non-deterministic solver"
            );
            self.touch(hash);
            return Evicted::default();
        }
        slot.values.push((fingerprint, probability));
        self.entries += 1;
        self.touch(hash);
        self.evict_over_budget()
    }

    /// Brings the shard within its budget after an insert: evicts
    /// least-recently-used slots while another slot remains, then trims the
    /// oldest fingerprints of a sole slot that still outweighs the budget.
    /// The most recently used slot — the one just inserted into — is never
    /// evicted, and the value just inserted (its newest) always stays.
    /// Returns what was dropped. Eviction never changes answers — an
    /// evicted value re-solves to the same bits.
    fn evict_over_budget(&mut self) -> Evicted {
        let Some(lru) = &mut self.lru else {
            return Evicted::default();
        };
        let mut evicted = Evicted::default();
        while self.entries > lru.limit && self.slots.len() > 1 {
            let victim = lru.pop_least_recent(&self.slots);
            let slot = self.slots.remove(&victim).expect("victim slot exists");
            self.entries -= slot.values.len();
            evicted.entries += slot.values.len() as u64;
            evicted.bytes += (SLOT_OVERHEAD_BYTES + slot.values.len() * ENTRY_BYTES) as u64;
        }
        if self.entries > lru.limit {
            let slot = self
                .slots
                .values_mut()
                .next()
                .expect("an over-budget shard holds a slot");
            let trimmed = (self.entries - lru.limit).min(slot.values.len() - 1);
            slot.values.drain(..trimmed);
            self.entries -= trimmed;
            evicted.entries += trimmed as u64;
            evicted.bytes += (trimmed * ENTRY_BYTES) as u64;
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
        if let Some(lru) = &mut self.lru {
            lru.compact(&self.slots);
        }
        self.entries -= slot.values.len();
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
    use super::super::lru_oracle::OracleShard;
    use super::*;

    const FP: SolverFingerprint = SolverFingerprint::ExactAuto;

    #[test]
    fn unbounded_shard_never_evicts() {
        let mut shard = Shard::new(CacheCapacity::Unbounded);
        for hash in 0..1000u64 {
            assert_eq!(shard.insert(hash, FP, hash as f64).entries, 0);
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
        let evicted = shard.insert(4, FP, 0.4);
        assert_eq!(evicted.entries, 1);
        assert_eq!(
            evicted.bytes,
            (SLOT_OVERHEAD_BYTES + ENTRY_BYTES) as u64,
            "the byte estimate follows the slot model"
        );
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
        let trimmed = shard.insert(1, SolverFingerprint::GeneralExact, 0.2);
        // The slot would weigh 2 > budget 1. It is the sole (hence most
        // recent) slot, so it survives, trimmed to its newest fingerprint:
        // the value just inserted.
        assert_eq!(trimmed.entries, 1);
        assert_eq!(trimmed.bytes, ENTRY_BYTES as u64, "the slot itself stays");
        assert_eq!(shard.len_entries(), 1);
        assert_eq!(shard.get(1, FP), None);
        assert_eq!(shard.get(1, SolverFingerprint::GeneralExact), Some(0.2));
        shard.insert(2, FP, 0.3);
        // The old slot goes; the fresh insert stays.
        assert_eq!(shard.get(1, SolverFingerprint::GeneralExact), None);
        assert_eq!(shard.get(2, FP), Some(0.3));
    }

    #[test]
    fn a_sole_slot_is_trimmed_to_the_budget_oldest_first() {
        let fingerprints = fingerprints();
        let mut shard = Shard::new(CacheCapacity::Entries(2));
        for (i, &fingerprint) in fingerprints.iter().enumerate() {
            shard.insert(7, fingerprint, i as f64);
        }
        assert_eq!(shard.len_entries(), 2);
        assert_eq!(shard.get(7, fingerprints[0]), None);
        assert_eq!(shard.get(7, fingerprints[1]), Some(1.0));
        assert_eq!(shard.get(7, fingerprints[2]), Some(2.0));
    }

    #[test]
    fn unbounded_shard_keeps_no_recency_state() {
        let mut shard = Shard::new(CacheCapacity::Unbounded);
        for hash in 0..100u64 {
            shard.insert(hash, FP, 0.5);
            assert_eq!(shard.get(hash, FP), Some(0.5));
        }
        assert!(shard.lru.is_none());
    }

    #[test]
    fn recency_queue_stays_within_twice_the_slots() {
        let mut shard = Shard::new(CacheCapacity::Entries(8));
        for hash in 0..8u64 {
            shard.insert(hash, FP, 0.5);
        }
        for round in 0..1000u64 {
            shard.get(round % 5, FP);
            let queue = shard.lru.as_ref().unwrap().queue.len();
            assert!(queue <= 2 * shard.slots.len(), "queue {queue} at {round}");
        }
        // Slots 5, 6 and 7 were never read again: they go first, in
        // insertion order.
        shard.insert(100, FP, 0.5);
        assert_eq!(shard.get(5, FP), None);
        assert_eq!(shard.get(6, FP), Some(0.5));
        shard.remove(6);
        shard.insert(101, FP, 0.5);
        assert_eq!(shard.get(7, FP), Some(0.5), "a free place, not an eviction");
        shard.insert(102, FP, 0.5);
        assert_eq!(shard.get(0, FP), None, "slot 0 was the least recent read");
    }

    fn fingerprints() -> [SolverFingerprint; 3] {
        [
            FP,
            SolverFingerprint::GeneralExact,
            SolverFingerprint::Approx {
                samples_per_proposal: 50,
                base_seed: 3,
            },
        ]
    }

    /// Seeded random sequences of inserts, lookups and removals over a small
    /// key space, with one to three fingerprints per unit, under budgets of
    /// one to eight entries and unbounded: the shard and the `BTreeMap`
    /// oracle must return the same values, report the same evictions (in
    /// entries and bytes) and keep the same entries after every step —
    /// which pins every victim.
    #[test]
    fn shard_matches_the_btreemap_oracle_on_random_sequences() {
        let all = fingerprints();
        let mut state = 0x5eed_u64;
        let mut next = |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        for case in 0..360 {
            let budget = match case % 9 {
                0 => CacheCapacity::Unbounded,
                n => CacheCapacity::Entries(n),
            };
            let fingerprints = &all[..1 + case % 3];
            let keys = 2 + next(14);
            let mut shard = Shard::new(budget);
            let mut oracle = OracleShard::new(budget);
            for step in 0..400 {
                // Content hashes spread over the whole word, as FNV's do.
                let hash = next(keys).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let f = next(fingerprints.len() as u64) as usize;
                let fingerprint = fingerprints[f];
                let context = format!("case {case} ({budget:?}), step {step}");
                match next(10) {
                    0..=3 => {
                        let p = (hash >> 11) as f64 / (1u64 << 53) as f64 + f as f64;
                        let (a, b) = (
                            shard.insert(hash, fingerprint, p),
                            oracle.insert(hash, fingerprint, p),
                        );
                        assert_eq!((a.entries, a.bytes), (b.entries, b.bytes), "{context}");
                    }
                    4..=8 => assert_eq!(
                        shard.get(hash, fingerprint),
                        oracle.get(hash, fingerprint),
                        "{context}"
                    ),
                    _ => assert_eq!(shard.remove(hash), oracle.remove(hash), "{context}"),
                }
                let mut held: Vec<_> = shard
                    .entries()
                    .map(|(hash, f, p)| (hash, f, p.to_bits()))
                    .collect();
                held.sort_unstable();
                assert_eq!(held, oracle.sorted_entries(), "{context}");
                assert_eq!(shard.entries, held.len(), "{context}");
                if let CacheCapacity::Entries(limit) = budget {
                    assert!(held.len() <= limit, "{context}: {} held", held.len());
                }
            }
        }
    }

    #[test]
    fn weight_balances_for_multi_fingerprint_slots() {
        // Room for exactly two 2-entry slots. Charging and crediting must
        // count the same entries, or the shard drifts from its contents
        // until it collapses to one slot.
        let mut shard = Shard::new(CacheCapacity::Entries(4));
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
    fn remove_drops_whole_slots_and_balances_the_weight() {
        let mut shard = Shard::new(CacheCapacity::Entries(4));
        shard.insert(1, FP, 0.1);
        shard.insert(1, SolverFingerprint::GeneralExact, 0.2);
        shard.insert(2, FP, 0.3);
        assert_eq!(shard.remove(1), 2, "both fingerprints of the slot drop");
        assert_eq!(shard.remove(1), 0, "removing again is a no-op");
        assert_eq!(shard.remove(99), 0);
        assert_eq!(shard.get(1, FP), None);
        assert_eq!(shard.get(2, FP), Some(0.3));
        // The freed weight is credited back: a fresh 2-entry slot fits
        // beside slot 2, with no phantom entries.
        shard.insert(3, FP, 0.4);
        shard.insert(3, SolverFingerprint::GeneralExact, 0.5);
        assert_eq!(shard.len_entries(), 3);
    }

    #[test]
    fn reinsert_same_bits_keeps_first_and_is_not_an_eviction() {
        let mut shard = Shard::new(CacheCapacity::Entries(8));
        shard.insert(1, FP, 0.5);
        assert_eq!(shard.insert(1, FP, 0.5).entries, 0);
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
            CacheCapacity::Unbounded.per_shard(8),
            CacheCapacity::Unbounded
        );
    }
}
