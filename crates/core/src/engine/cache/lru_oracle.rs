//! The reference LRU shard the production [`Shard`](super::eviction::Shard)
//! is tested against: a `BTreeMap` recency index from a strictly increasing
//! tick to the slot hash, touched on every slot hit whatever the budget, with
//! the victim always the map's first entry. It is the store the marginal
//! cache ran on before the lazy-deletion queue replaced it, plus the rule
//! that trims a sole overweight slot to the budget. Test-only: it is
//! `O(log n)` per touch by construction, which is what makes it easy to
//! trust.

use super::eviction::{CacheCapacity, Evicted, ENTRY_BYTES, SLOT_OVERHEAD_BYTES};
use super::SolverFingerprint;
use std::collections::{BTreeMap, HashMap};

#[derive(Debug)]
struct Slot {
    values: Vec<(SolverFingerprint, f64)>,
    tick: u64,
}

#[derive(Debug)]
pub(crate) struct OracleShard {
    slots: HashMap<u64, Slot>,
    recency: BTreeMap<u64, u64>,
    tick: u64,
    entries: usize,
    budget: CacheCapacity,
}

impl OracleShard {
    pub(crate) fn new(budget: CacheCapacity) -> Self {
        OracleShard {
            slots: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            entries: 0,
            budget,
        }
    }

    fn touch(&mut self, hash: u64) {
        let slot = self.slots.get_mut(&hash).expect("touched slot exists");
        self.recency.remove(&slot.tick);
        self.tick += 1;
        slot.tick = self.tick;
        self.recency.insert(self.tick, hash);
    }

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

    pub(crate) fn insert(
        &mut self,
        hash: u64,
        fingerprint: SolverFingerprint,
        probability: f64,
    ) -> Evicted {
        match self.slots.get_mut(&hash) {
            Some(slot) => {
                if slot.values.iter().any(|&(f, _)| f == fingerprint) {
                    self.touch(hash);
                    return Evicted::default();
                }
                slot.values.push((fingerprint, probability));
                self.entries += 1;
                self.touch(hash);
            }
            None => {
                self.tick += 1;
                self.slots.insert(
                    hash,
                    Slot {
                        values: vec![(fingerprint, probability)],
                        tick: self.tick,
                    },
                );
                self.recency.insert(self.tick, hash);
                self.entries += 1;
            }
        }
        self.evict_over_budget(hash)
    }

    /// Evicts least-recently-used slots while another remains, then trims
    /// the oldest fingerprints of `fresh` — the slot just inserted into —
    /// down to the budget, keeping its newest.
    fn evict_over_budget(&mut self, fresh: u64) -> Evicted {
        let CacheCapacity::Entries(limit) = self.budget else {
            return Evicted::default();
        };
        let mut evicted = Evicted::default();
        while self.entries > limit && self.slots.len() > 1 {
            let (_, victim) = self
                .recency
                .pop_first()
                .expect("recency index tracks every slot");
            let slot = self.slots.remove(&victim).expect("victim slot exists");
            self.entries -= slot.values.len();
            evicted.entries += slot.values.len() as u64;
            evicted.bytes += (SLOT_OVERHEAD_BYTES + slot.values.len() * ENTRY_BYTES) as u64;
        }
        let slot = self.slots.get_mut(&fresh).expect("the fresh slot stays");
        while self.entries > limit && slot.values.len() > 1 {
            slot.values.remove(0);
            self.entries -= 1;
            evicted.entries += 1;
            evicted.bytes += ENTRY_BYTES as u64;
        }
        evicted
    }

    pub(crate) fn remove(&mut self, hash: u64) -> u64 {
        let Some(slot) = self.slots.remove(&hash) else {
            return 0;
        };
        self.recency.remove(&slot.tick);
        self.entries -= slot.values.len();
        slot.values.len() as u64
    }

    /// Every cached triple, sorted.
    pub(crate) fn sorted_entries(&self) -> Vec<(u64, SolverFingerprint, u64)> {
        let mut entries: Vec<_> = self
            .slots
            .iter()
            .flat_map(|(&hash, slot)| {
                slot.values
                    .iter()
                    .map(move |&(f, p)| (hash, f, p.to_bits()))
            })
            .collect();
        entries.sort_unstable();
        entries
    }
}
