//! Packed integer state keys, flat frontiers and the one step loop of the
//! exact DP kernels.
//!
//! The exact solvers advance a frontier of DP states across the `m` RIM
//! insertion steps. The map-based formulation (kept as the test oracle,
//! `exact/reference.rs`) keys a `BTreeMap<State, f64>` by heap-allocated
//! position vectors, paying an allocation plus an `O(z′)` lexicographic
//! comparison per transition. The packed kernels encode the same state into
//! one unsigned key — a `u64` or `u128` when it fits, a multiword [`Wide`]
//! beyond 128 bits — and keep the frontier as a `Vec<(key, f64)>` sorted by
//! key. Within a step every transition adds its mass straight into its
//! successor's running sum, found through a small open-addressing table
//! ([`Frontier::push`]); closing the step sorts the *distinct* successors only
//! ([`Frontier::merge_step`]). The work per step is one probe per transition
//! plus a sort over the states that survive it — not a sort over the
//! transitions, of which a step has up to `i + 1` times as many. All three
//! kernels run on [`run_steps`], each supplying its expansion of a state
//! across a step that places a tracked item, which adds the mass of every
//! transition that decides the event to the kernel's answer.
//!
//! # Bit-determinism
//!
//! The engine's determinism contract requires every solve of the same
//! instance to produce the same `f64` bits, and the packed kernels are pinned
//! to the map-based oracle *bitwise*. Both properties reduce to fixing the
//! float summation order:
//!
//! * Slot values are encoded order-preservingly (`None → 0`,
//!   `Some(p) → p + 1`) and laid out big-endian (slot 0 in the most
//!   significant bits), so unsigned comparison of packed keys — of any width
//!   — equals the derived lexicographic `Ord` of the oracle's state structs.
//!   A frontier sorted by packed key is therefore iterated in exactly the
//!   order a `BTreeMap` over those states would iterate.
//! * The accumulation table keeps that order of *operands* per successor.
//!   Four rules make it so:
//!   1. **An accumulator starts at `+0.0` and only ever sees `+=`.** The
//!      first touch of a key stores `0.0` and then adds, exactly the
//!      oracle's `*map.entry(k).or_insert(0.0) += p`; every later
//!      transition into the key adds to the same `f64` in the order the
//!      kernel generates transitions (source states ascending by key,
//!      insertion positions ascending).
//!   2. **Growing the index moves keys, never masses.** The sums live in a
//!      dense vector in first-touch order; the table proper is a vector of
//!      `u32` positions into it, and rehashing rewrites those positions only.
//!   3. **A successor whose sum is `0.0` is still a state** (`φ = 0` makes
//!      whole rows of `Π` zero): it is counted by `budget.check`, kept in the
//!      frontier and expanded by the next step, as a map entry would be.
//!   4. **Iteration order comes from the sort, never from the table.**
//!      First-touch order and bucket order are discarded when
//!      [`Frontier::merge_step`] sorts the dense vector by key; keys are
//!      distinct by then, so the sort has no ties to break.
//!
//! # Steps that place no tracked item
//!
//! When the item a step inserts matches no tracked selector (owns no slot),
//! inserting it at position `j` only shifts the placed slots at or below `j`.
//! Every `j` between two consecutive distinct slot values therefore yields the
//! *same* successor, and nothing a kernel derives from slot order — an edge,
//! an embedding, an uncertain-edge mask — can change. [`Frontier::push_shifts`]
//! walks those gaps in ascending order, finds each successor's accumulator
//! once, and then performs, for every `j` of the gap in ascending order, the
//! very `sum += prob * row[j]` the per-position loop performs. It never adds
//! a pre-summed piece of the row: `prob·(p₁ + p₂)` and `prob·p₁ + prob·p₂`
//! differ in floats, and a successor fed by two source states must see
//! `((a₁ + a₂) + b₁) + b₂`, not `(a₁ + a₂) + (b₁ + b₂)`.
//!
//! The same walk ([`for_each_gap`]) serves the general-DAG kernel's *relevant*
//! steps, where every position has a successor of its own but the embedding
//! verdict — a function of the new item's order among the placed ones — is
//! one per gap.

use crate::budget::Budget;
use crate::Result;
use std::cmp::Ordering;
use std::fmt::Debug;
use std::ops::Range;

/// An unsigned integer a DP state can be packed into.
///
/// Implemented for `u64`, `u128` and [`Wide`]; a kernel runs on the
/// narrowest of the three that holds its instance's packing width. Fields
/// are written once into a zero key ([`Word::or_at`]) or incremented in
/// place ([`Word::add_at`]), never cleared.
pub(crate) trait Word: Clone + Ord + Eq + Debug {
    const ZERO: Self;
    /// The 64 bits from bit `shift` up, zero past the top of the value.
    fn field(&self, shift: u32) -> u64;
    /// `self | v << shift`; the caller keeps `v << shift` within the
    /// instance's width.
    fn or_at(self, shift: u32, v: u64) -> Self;
    /// `self + v << shift`, a field-wise increment of packed slots: the
    /// callers keep every field below its width, so no carry crosses a field
    /// boundary.
    fn add_at(self, shift: u32, v: u64) -> Self;
    /// A 64-bit hash whose *high* bits depend on every bit of the key (the
    /// table indexes with them). Packed keys differ in a few narrow fields,
    /// and in a `u128` those may all sit above bit 64.
    fn hash(&self) -> u64;
}

/// Odd multipliers of the multiply-shift hash (2⁶⁴ ÷ φ, and a second odd
/// constant so the two halves of a `u128` are mixed independently).
const HASH_MUL_LOW: u64 = 0x9E37_79B9_7F4A_7C15;
const HASH_MUL_HIGH: u64 = 0xC2B2_AE3D_27D4_EB4F;

macro_rules! impl_word {
    ($t:ty, $hash:expr) => {
        impl Word for $t {
            const ZERO: Self = 0;
            #[inline(always)]
            fn field(&self, shift: u32) -> u64 {
                // Keeps the low 64 bits on purpose.
                (*self >> shift) as u64
            }
            #[inline(always)]
            fn or_at(self, shift: u32, v: u64) -> Self {
                self | (<$t>::from(v) << shift)
            }
            #[inline(always)]
            fn add_at(self, shift: u32, v: u64) -> Self {
                self.wrapping_add(<$t>::from(v) << shift)
            }
            #[inline(always)]
            fn hash(&self) -> u64 {
                let hash: fn($t) -> u64 = $hash;
                hash(*self)
            }
        }
    };
}

impl_word!(u64, |w| w.wrapping_mul(HASH_MUL_LOW));
// `as u64` keeps the low half on purpose; the high half comes in through its
// own multiplier.
impl_word!(u128, |w| ((w as u64)
    ^ ((w >> 64) as u64).wrapping_mul(HASH_MUL_HIGH))
.wrapping_mul(HASH_MUL_LOW));

/// An unsigned integer of any width, for states wider than 128 bits:
/// little-endian 64-bit limbs with no zero limb on top, so that equal values
/// have equal limbs and a value with more limbs is the larger one. Correct
/// rather than fast — every field write may allocate — since only instances
/// beyond the machine words (dozens of tracked selectors, or more than 25
/// relevant items) reach it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Wide(Vec<u64>);

impl Wide {
    /// `(limb, bits)` pairs of `v << shift`, zero parts left out.
    fn parts(shift: u32, v: u64) -> impl Iterator<Item = (usize, u64)> {
        // `shift / 64` is a limb index well below `usize::MAX`.
        let (limb, bit) = ((shift / 64) as usize, shift % 64);
        let high = if bit == 0 { 0 } else { v >> (64 - bit) };
        [(limb, v << bit), (limb + 1, high)]
            .into_iter()
            .filter(|&(_, part)| part != 0)
    }

    fn limb_mut(&mut self, at: usize) -> &mut u64 {
        if self.0.len() <= at {
            self.0.resize(at + 1, 0);
        }
        &mut self.0[at]
    }
}

impl Ord for Wide {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.0.len().cmp(&other.0.len()))
            .then_with(|| self.0.iter().rev().cmp(other.0.iter().rev()))
    }
}

impl PartialOrd for Wide {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Word for Wide {
    const ZERO: Self = Wide(Vec::new());

    fn field(&self, shift: u32) -> u64 {
        let (limb, bit) = ((shift / 64) as usize, shift % 64);
        let limb_at = |at: usize| self.0.get(at).copied().unwrap_or(0);
        let high = if bit == 0 {
            0
        } else {
            limb_at(limb + 1) << (64 - bit)
        };
        (limb_at(limb) >> bit) | high
    }

    fn or_at(mut self, shift: u32, v: u64) -> Self {
        for (at, part) in Wide::parts(shift, v) {
            *self.limb_mut(at) |= part;
        }
        self
    }

    fn add_at(mut self, shift: u32, v: u64) -> Self {
        for (mut at, part) in Wide::parts(shift, v) {
            let limb = self.limb_mut(at);
            let mut carry;
            (*limb, carry) = limb.overflowing_add(part);
            // A field that straddles two limbs carries into the upper one,
            // which may not be stored yet.
            while carry {
                at += 1;
                let limb = self.limb_mut(at);
                (*limb, carry) = limb.overflowing_add(1);
            }
        }
        self
    }

    fn hash(&self) -> u64 {
        (self.0.iter())
            .fold(0, |h: u64, &limb| h.wrapping_mul(HASH_MUL_HIGH) ^ limb)
            .wrapping_mul(HASH_MUL_LOW)
    }
}

/// Number of bits needed per position slot for a universe of `m` items: slot
/// values are `0` (no witness) or `p + 1` for a 0-based position `p < m`, so
/// the largest encoded value is `m`.
pub(crate) fn slot_bits(m: usize) -> u32 {
    debug_assert!(m >= 1);
    usize::BITS - m.leading_zeros()
}

/// Extracts the slot at `shift` (already masked to `bits` wide).
#[inline(always)]
pub(crate) fn get_slot<W: Word>(state: &W, shift: u32, mask: u32) -> u32 {
    // Truncates to the low 32 bits, which hold the slot.
    state.field(shift) as u32 & mask
}

/// Where a kernel keeps its position slots in the packed key: `count`
/// fields of `bits` bits each, slot 0 in the most significant field and the
/// last slot's field starting at bit `base` (the bipartite kernel keeps its
/// uncertain-edge masks below the slots; the other two start at bit 0).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slots {
    base: u32,
    bits: u32,
    count: u32,
}

impl Slots {
    /// `count` slots for a universe of `m` items, above `base` low bits.
    pub(crate) fn new(m: usize, count: usize, base: u32) -> Self {
        Slots {
            base,
            bits: slot_bits(m),
            count: u32::try_from(count).expect("a packed key holds fewer than 2^32 slots"),
        }
    }

    /// Bit offset of slot `idx`.
    #[inline(always)]
    pub(crate) fn shift_of(&self, idx: usize) -> u32 {
        // `idx < count`, a `u32`, so the conversion is exact.
        self.base + self.bits * (self.count - 1 - idx as u32)
    }

    /// Mask of one slot's value.
    #[inline(always)]
    pub(crate) fn mask(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// Packing width of the slots alone.
    pub(crate) fn width(&self) -> u32 {
        self.bits * self.count
    }
}

/// Walks the gaps of `state` across a step with `positions` insertion points
/// (`j = 0..positions`): inserting at `j` shifts the placed slots at or below
/// `j`, so every `j` between two consecutive distinct slot values leaves the
/// slots in one and the same shifted configuration — and the new item in one
/// and the same order relative to every placed one. Calls
/// `visit(shifted, from..to)` once per gap, in ascending order of `j`; the
/// gaps are non-empty and cover `0..positions`.
///
/// One pass over the slots per gap finds both the shifted key and where the
/// gap ends, so a state costs `gaps × slots` field reads — never more than
/// the `positions × slots` of shifting per position, and no scratch.
#[inline(always)]
pub(crate) fn for_each_gap<W: Word>(
    state: &W,
    positions: usize,
    slots: Slots,
    mut visit: impl FnMut(W, Range<usize>),
) {
    let mask = slots.mask();
    let mut from = 0usize;
    while from < positions {
        // Encoded value `v` is position `v - 1`: inserting at `from` shifts
        // it iff `v > from`, and the gap ends at the smallest such `v`.
        let mut shifted = state.clone();
        let mut to = positions;
        for shift in (0..slots.count).map(|r| slots.base + slots.bits * r) {
            // A `u32` slot value widens losslessly.
            let v = get_slot(state, shift, mask) as usize;
            let shifts = v > from;
            shifted = shifted.add_at(shift, u64::from(shifts));
            to = to.min(if shifts { v } else { positions });
        }
        visit(shifted, from..to);
        from = to;
    }
}

/// The witness slots of `state` after the step's item is inserted at
/// encoded position `jenc` (`j + 1`): every slot at or below it shifts down
/// one, then each slot whose selector the item `matches` folds it in — the
/// first `num_l` slots (`α`, the earliest witness of an L selector) by min,
/// the others (`β`, the latest witness of an R selector) by max.
///
/// Shifting first and folding second keeps `α`/`β` the true minimum and
/// maximum positions in every case, including when the old witness itself
/// shifts. (The paper states "the item carries the label" and "it does not"
/// as alternatives.)
#[inline(always)]
pub(crate) fn insert_witness<W: Word>(
    state: &W,
    jenc: u32,
    matches: &[bool],
    num_l: usize,
    slots: Slots,
) -> W {
    let mask = slots.mask();
    let mut next = W::ZERO;
    for (e, &is_match) in matches.iter().enumerate() {
        let shift = slots.shift_of(e);
        let mut v = get_slot(state, shift, mask);
        // Encoded positions are p+1, so `p >= j` is `v >= jenc` (v = 0
        // encodes "no witness" and jenc >= 1 skips it).
        if v >= jenc {
            v += 1;
        }
        if is_match {
            // max folds in the new witness and handles v = 0.
            v = if e >= num_l || v == 0 {
                v.max(jenc)
            } else {
                v.min(jenc)
            };
        }
        next = next.or_at(shift, u64::from(v));
    }
    next
}

/// Initial size of the accumulation index. Small on purpose: a cold engine
/// solves every unit once, and a fresh, larger buffer costs more than the
/// few doublings a wide step needs.
const INITIAL_INDEX_LEN: usize = 64;

/// The flat frontier shared by the packed kernels.
///
/// A step takes `states` (sorted by key), sends every surviving transition
/// through [`Frontier::push`] — or a whole source state through
/// [`Frontier::push_shifts`] on a step that places no tracked item — and
/// closes with [`Frontier::merge_step`], which sorts the distinct successors
/// and installs them as the next step's frontier. All buffers are reused
/// across the `m` steps — after warm-up the kernel allocates nothing.
pub(crate) struct Frontier<W> {
    /// The current frontier, sorted by key.
    states: Vec<(W, f64)>,
    /// The step's distinct successors with their running sums, in
    /// first-touch order.
    next: Vec<(W, f64)>,
    /// Open-addressing index over `next`: `0` is an empty bucket, `n` names
    /// `next[n - 1]`. A power of two, at least twice `next.len()`.
    index: Vec<u32>,
    /// `hash >> hash_shift` is a key's home bucket.
    hash_shift: u32,
}

impl<W: Word> Frontier<W> {
    /// A frontier holding the single initial state with mass 1.
    pub(crate) fn new(initial: W) -> Self {
        Frontier {
            states: vec![(initial, 1.0)],
            next: Vec::new(),
            index: vec![0; INITIAL_INDEX_LEN],
            hash_shift: u64::BITS - INITIAL_INDEX_LEN.trailing_zeros(),
        }
    }

    /// Takes the current step's states out of the frontier (the buffer is
    /// recycled by [`Frontier::merge_step`]).
    pub(crate) fn take_states(&mut self) -> Vec<(W, f64)> {
        std::mem::take(&mut self.states)
    }

    /// Position in `next` of `key`'s accumulator, created at `+0.0` on the
    /// first touch.
    #[inline(always)]
    fn accumulator(&mut self, key: W) -> usize {
        let mut bucket = self.home(&key);
        loop {
            match self.index[bucket] {
                0 => break,
                // A `u32` entry widens losslessly.
                n if self.next[n as usize - 1].0 == key => return n as usize - 1,
                _ => bucket = (bucket + 1) & (self.index.len() - 1),
            }
        }
        let at = self.next.len();
        self.next.push((key, 0.0));
        self.index[bucket] = u32::try_from(self.next.len())
            .expect("a frontier of 2^32 distinct states is far beyond any budget");
        if self.next.len() * 2 > self.index.len() {
            self.grow_index();
        }
        at
    }

    #[inline(always)]
    fn home(&self, key: &W) -> usize {
        // Below `index.len()` by construction of `hash_shift`.
        (key.hash() >> self.hash_shift) as usize
    }

    /// Doubles the index and re-enters every key. Only positions move: the
    /// sums stay where they are in `next`.
    #[cold]
    fn grow_index(&mut self) {
        let len = self.index.len() * 2;
        let old = std::mem::replace(&mut self.index, vec![0; len]);
        self.hash_shift -= 1;
        for n in old.into_iter().filter(|&n| n != 0) {
            let mut bucket = self.home(&self.next[n as usize - 1].0);
            while self.index[bucket] != 0 {
                bucket = (bucket + 1) & (len - 1);
            }
            self.index[bucket] = n;
        }
    }

    /// Adds one transition's mass to its successor's running sum.
    #[inline(always)]
    pub(crate) fn push(&mut self, key: W, mass: f64) {
        let at = self.accumulator(key);
        self.next[at].1 += mass;
    }

    /// [`Frontier::push`] for a successor the kernel knows no other transition
    /// of the step reaches (the general-DAG kernel's relevant steps: the
    /// successor spells out both the position taken and the state it was
    /// taken from). Its sum is this one mass, so there is nothing to look up
    /// — and nothing is entered in the index: a step pushes all its
    /// transitions this way or none.
    #[inline(always)]
    pub(crate) fn push_unshared(&mut self, key: W, mass: f64) {
        self.next.push((key, 0.0 + mass));
    }

    /// All `row.len()` transitions of `state` (mass `prob`) across a step
    /// whose item owns none of `slots`: every position of a gap lands on one
    /// successor (see [`for_each_gap`]). Looks each successor up once and
    /// adds `prob * row[j]` for every `j` of the gap, ascending — the
    /// operands and order of a `push` per position, never a pre-summed piece
    /// of the row.
    pub(crate) fn push_shifts(&mut self, state: &W, prob: f64, row: &[f64], slots: Slots) {
        for_each_gap(state, row.len(), slots, |successor, gap| {
            let at = self.accumulator(successor);
            let sum = &mut self.next[at].1;
            for &p in &row[gap] {
                *sum += prob * p;
            }
        });
    }

    /// Closes the step: sorts the distinct successors by key, installs them
    /// as the frontier (recycling `recycled` as the next step's buffer) and
    /// returns how many there are. The sums were accumulated in generation
    /// order on the way in — the oracle's map-entry order, bit for bit — so
    /// nothing is added here.
    pub(crate) fn merge_step(&mut self, mut recycled: Vec<(W, f64)>) -> usize {
        self.index.fill(0);
        self.next.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        debug_assert!(
            self.next.windows(2).all(|pair| pair[0].0 < pair[1].0),
            "a successor was pushed as unshared twice"
        );
        recycled.clear();
        self.states = std::mem::replace(&mut self.next, recycled);
        self.states.len()
    }

    /// The current frontier, sorted by key.
    #[cfg(test)]
    pub(crate) fn states(&self) -> &[(W, f64)] {
        &self.states
    }
}

/// The step loop of every packed kernel: starting from `initial` with mass 1,
/// one step per row of `rows` (insertion probabilities, the kernel's first
/// `rows.len()` RIM steps). In a step every state goes through
/// [`Frontier::push_shifts`] when `shifts_only(i)` says the step's item owns
/// no slot, and through the kernel's `expand(i, state, prob, row, frontier)`
/// otherwise; then the step is merged and the budget polled with the number
/// of states it leaves. A kernel's answer is what its `expand` absorbs; the
/// states left after the last row are the mass it never will.
///
/// An empty frontier ends the loop before the poll: nothing is left to
/// expand, so the remaining steps would add nothing to any kernel's answer,
/// which is the mass absorbed so far.
///
/// Inlined into each kernel so that the kernel's `expand` closure is too: a
/// call per state, with the closure's captures read through memory, cost the
/// item-level `chain3` about a tenth of its time.
#[inline(always)]
pub(crate) fn run_steps<W: Word>(
    initial: W,
    rows: &[Vec<f64>],
    slots: Slots,
    budget: Option<&Budget>,
    shifts_only: impl Fn(usize) -> bool,
    mut expand: impl FnMut(usize, &W, f64, &[f64], &mut Frontier<W>),
) -> Result<()> {
    let mut frontier = Frontier::new(initial);
    for (i, row) in rows.iter().enumerate() {
        let shifts_only = shifts_only(i);
        let states = frontier.take_states();
        for (state, prob) in &states {
            if shifts_only {
                frontier.push_shifts(state, *prob, row, slots);
            } else {
                expand(i, state, *prob, row, &mut frontier);
            }
        }
        let next_len = frontier.merge_step(states);
        if next_len == 0 {
            break;
        }
        if let Some(budget) = budget {
            budget.check(next_len)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn slot_bits_covers_encoded_range() {
        // Largest encoded value for m items is m itself.
        for m in 1..200usize {
            let bits = slot_bits(m);
            assert!(m < (1usize << bits), "m={m} bits={bits}");
            assert!(m >= (1usize << (bits - 1)), "m={m} bits={bits} too wide");
        }
    }

    #[test]
    fn packed_order_matches_vec_of_option_order() {
        // The encoding must be order-isomorphic to Vec<Option<u32>> with the
        // derived Ord (None < Some(p), lexicographic, slot 0 first).
        let encode = |v: &[Option<u32>]| -> u64 {
            let bits = slot_bits(8);
            let mut acc = 0u64;
            for (idx, slot) in v.iter().enumerate() {
                let enc = match slot {
                    None => 0,
                    Some(p) => p + 1,
                };
                acc |= (enc as u64) << (bits * (v.len() as u32 - 1 - idx as u32));
            }
            acc
        };
        let vecs: Vec<Vec<Option<u32>>> = vec![
            vec![None, None, None],
            vec![None, None, Some(0)],
            vec![None, Some(7), None],
            vec![Some(0), None, Some(3)],
            vec![Some(0), Some(1), None],
            vec![Some(2), None, None],
            vec![Some(7), Some(7), Some(7)],
        ];
        for a in &vecs {
            for b in &vecs {
                assert_eq!(
                    a.cmp(b),
                    encode(a).cmp(&encode(b)),
                    "ordering mismatch for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn merge_sums_in_generation_order() {
        let mut f: Frontier<u64> = Frontier::new(0);
        let recycled = f.take_states();
        // Two contributions to key 5, one to key 3, interleaved.
        f.push(5, 0.25);
        f.push(3, 0.5);
        f.push(5, 0.125);
        let n = f.merge_step(recycled);
        assert_eq!(n, 2);
        assert_eq!(f.states(), &[(3, 0.5), (5, 0.25 + 0.125)]);
    }

    /// The merge the accumulation table replaced, kept as its oracle: tag
    /// every transition with its sequence number, sort by `(key, seq)`, sum
    /// equal keys left to right.
    fn sort_merge_oracle<W: Word>(transitions: &[(W, f64)]) -> Vec<(W, f64)> {
        let mut scratch: Vec<(W, usize, f64)> = transitions
            .iter()
            .enumerate()
            .map(|(seq, (key, mass))| (key.clone(), seq, *mass))
            .collect();
        scratch.sort_unstable_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        let mut merged: Vec<(W, f64)> = Vec::new();
        for (key, _, mass) in scratch {
            match merged.last_mut() {
                Some((last, acc)) if *last == key => *acc += mass,
                _ => merged.push((key, mass)),
            }
        }
        merged
    }

    /// Masses whose sums depend on the order of the operands: `0.1 + 0.2 +
    /// 0.3` rounds differently from `0.3 + 0.2 + 0.1`, `1e16` absorbs a `1.0`
    /// added after it but not two added before it, and the zeros and
    /// subnormals exercise the "a zero sum is still a state" rule.
    const PALETTE: [f64; 9] = [0.1, 0.2, 0.3, 1e16, 1.0, 0.0, 5e-324, 2.5e-310, 1e-17];

    fn bits<W: Word>(states: &[(W, f64)]) -> Vec<(W, u64)> {
        states
            .iter()
            .map(|(k, p)| (k.clone(), p.to_bits()))
            .collect()
    }

    /// A uniform draw from `0..bound` of the proptest stand-in's generator.
    fn below(rng: &mut TestRng, bound: usize) -> usize {
        rng.below(bound as u64) as usize
    }

    /// Pushes `transitions` as one step and checks the merged frontier, the
    /// returned count and the total mass against the oracle, bit for bit.
    fn check_step<W: Word>(frontier: &mut Frontier<W>, transitions: &[(W, f64)], what: &str) {
        let recycled = frontier.take_states();
        for (key, mass) in transitions {
            frontier.push(key.clone(), *mass);
        }
        let distinct = frontier.merge_step(recycled);
        let expected = sort_merge_oracle(transitions);
        assert_eq!(bits(frontier.states()), bits(&expected), "{what}");
        assert_eq!(distinct, expected.len(), "{what}: distinct states");
    }

    /// 256 cases of 1–4 steps of 0–700 pushes over key spaces from one key
    /// to all-distinct; a case keeps its key space, so keys recur across
    /// steps and a stale index entry would be found.
    fn table_matches_oracle<W: Word>(name: &str, key_of: impl Fn(u64) -> W) {
        const SPACES: [u64; 7] = [1, 2, 7, 50, 400, 5_000, 1 << 40];
        let mut rng = TestRng::deterministic_for(name);
        for case in 0..256 {
            let space = SPACES[case % SPACES.len()];
            let mut frontier: Frontier<W> = Frontier::new(W::ZERO);
            for step in 0..1 + below(&mut rng, 4) {
                let pushes = below(&mut rng, 701);
                let transitions: Vec<(W, f64)> = (0..pushes)
                    .map(|_| {
                        let key = key_of(rng.next_u64() % space);
                        (key, PALETTE[below(&mut rng, PALETTE.len())])
                    })
                    .collect();
                check_step(
                    &mut frontier,
                    &transitions,
                    &format!("case {case} step {step} ({pushes} pushes over {space} keys)"),
                );
            }
        }
    }

    #[test]
    fn table_matches_the_sort_merge_oracle_on_u64_keys() {
        // Scattered over the whole word, as kernel keys with many slots are.
        table_matches_oracle::<u64>("u64", |k| k.wrapping_mul(0x0101_0101_0101_0101));
    }

    #[test]
    fn table_matches_the_sort_merge_oracle_on_u128_keys_that_differ_in_the_high_half_only() {
        table_matches_oracle::<u128>("u128", |k| (u128::from(k) << 72) | 0x5555);
    }

    #[test]
    fn table_matches_the_sort_merge_oracle_on_multiword_keys() {
        // Keys spread over three limbs, differing above bit 128 as often as
        // below it.
        table_matches_oracle::<Wide>("wide", |k| {
            Wide::ZERO
                .or_at(0, 0x5555)
                .or_at(100, k & 0xFFFF)
                .or_at(150, k >> 16)
        });
    }

    #[test]
    fn u128_hash_mixes_the_high_half() {
        // Keys that differ above bit 64 only must not share a home bucket:
        // a hash of the low half alone would send all 1,024 to one.
        for shift in [64u32, 72, 100, 117] {
            let homes: std::collections::BTreeSet<u64> = (0..1024u128)
                .map(|k| ((k << shift) | 0x5555).hash() >> (u64::BITS - 11))
                .collect();
            assert!(
                homes.len() > 512,
                "shift {shift}: 1,024 keys share {} of 2,048 buckets",
                homes.len()
            );
        }
    }

    #[test]
    fn the_index_grows_from_64_to_4096_and_is_reused_by_later_steps() {
        let mut frontier: Frontier<u128> = Frontier::new(0);
        assert_eq!(frontier.index.len(), 64);
        let mut rng = TestRng::deterministic_for("growth");
        let key_of = |k: u64| (u128::from(k) << 80) | u128::from(k % 3);
        // 1,100 distinct keys, every one hit again later in the step, so the
        // sums that exist when the index doubles keep receiving mass after.
        let wide: Vec<(u128, f64)> = (0..3_300u64)
            .map(|t| (key_of(t % 1_100), PALETTE[below(&mut rng, PALETTE.len())]))
            .collect();
        check_step(&mut frontier, &wide, "wide step");
        assert_eq!(frontier.index.len(), 4_096);
        // The grown index serves narrow steps over the same keys.
        for step in 0..3 {
            let narrow: Vec<(u128, f64)> = (0..40)
                .map(|_| {
                    let key = key_of(rng.next_u64() % 1_100);
                    (key, PALETTE[below(&mut rng, PALETTE.len())])
                })
                .collect();
            check_step(&mut frontier, &narrow, &format!("narrow step {step}"));
        }
        assert_eq!(frontier.index.len(), 4_096);
    }

    #[test]
    fn the_oracle_is_order_sensitive_on_the_palette() {
        // If these sums did not depend on operand order, the equalities above
        // would not pin the order the table adds in.
        let sum = |masses: &[f64]| -> u64 {
            let transitions: Vec<(u64, f64)> = masses.iter().map(|&p| (9, p)).collect();
            sort_merge_oracle(&transitions)[0].1.to_bits()
        };
        assert_ne!(sum(&[0.1, 0.2, 0.3]), sum(&[0.3, 0.2, 0.1]));
        assert_ne!(sum(&[1.0, 1.0, 1e16]), sum(&[1e16, 1.0, 1.0]));
        assert_ne!(sum(&[1e-17, 1e-17, 0.1]), sum(&[0.1, 1e-17, 1e-17]));
        // And pre-summing a run of operands is a different sum again, for a
        // gap's share of the row and for a successor two sources feed.
        let (prob, p1, p2) = (0.3f64, 0.1f64, 0.2f64);
        assert_ne!(
            (prob * p1 + prob * p2).to_bits(),
            (prob * (p1 + p2)).to_bits()
        );
        let (a1, a2, b1, b2) = (1e16f64, 1.0f64, 1.0f64, 0.0f64);
        assert_ne!(
            (((a1 + a2) + b1) + b2).to_bits(),
            ((a1 + (a2 + b1)) + b2).to_bits()
        );
    }

    /// The kernels' per-position shift, slot by slot: every placed slot at or
    /// below the insertion point moves down by one; the bits below the slots
    /// (the bipartite kernel's masks) are kept.
    fn insert_at<W: Word>(state: &W, j: usize, slots: Slots) -> W {
        let jenc = j as u32 + 1;
        let low_bits = get_slot(state, 0, (1u32 << slots.base) - 1);
        let mut next = W::ZERO.or_at(0, u64::from(low_bits));
        for idx in 0..slots.count as usize {
            let shift = slots.shift_of(idx);
            let mut v = get_slot(state, shift, slots.mask());
            if v >= jenc {
                v += 1;
            }
            next = next.or_at(shift, u64::from(v));
        }
        next
    }

    fn pack<W: Word>(values: &[u32], low_bits: u32, slots: Slots) -> W {
        values
            .iter()
            .enumerate()
            .fold(W::ZERO.or_at(0, u64::from(low_bits)), |acc, (idx, &v)| {
                acc.or_at(slots.shift_of(idx), u64::from(v))
            })
    }

    /// Every vector of `count` slot values in `0..=placed_items`.
    fn all_slot_vectors(count: usize, placed_items: u32) -> Vec<Vec<u32>> {
        let mut all = vec![vec![]];
        for _ in 0..count {
            all = all
                .into_iter()
                .flat_map(|prefix: Vec<u32>| {
                    (0..=placed_items).map(move |v| {
                        let mut next = prefix.clone();
                        next.push(v);
                        next
                    })
                })
                .collect();
        }
        all
    }

    /// One step of `push_shifts` against one `push` per position, over the
    /// given source states in the given order.
    fn check_gap_step<W: Word>(sources: &[(W, f64)], row: &[f64], slots: Slots, what: &str) {
        let mut per_position: Frontier<W> = Frontier::new(W::ZERO);
        let mut per_gap: Frontier<W> = Frontier::new(W::ZERO);
        let (recycled_a, recycled_b) = (per_position.take_states(), per_gap.take_states());
        for (state, prob) in sources {
            for (j, &pj) in row.iter().enumerate() {
                per_position.push(insert_at(state, j, slots), prob * pj);
            }
            per_gap.push_shifts(state, *prob, row, slots);

            let mut covered = 0;
            for_each_gap(state, row.len(), slots, |shifted, gap| {
                assert_eq!(gap.start, covered, "{what}: gaps ascend without holes");
                assert!(gap.start < gap.end, "{what}: a gap is never empty");
                for j in gap.clone() {
                    assert_eq!(shifted, insert_at(state, j, slots), "{what}: j = {j}");
                }
                covered = gap.end;
            });
            assert_eq!(covered, row.len(), "{what}: gaps cover every position");
        }
        assert_eq!(
            per_position.merge_step(recycled_a),
            per_gap.merge_step(recycled_b),
            "{what}"
        );
        assert_eq!(
            bits(per_gap.states()),
            bits(per_position.states()),
            "{what}"
        );
    }

    /// Rows that make order observable: a Mallows-like geometric row, the
    /// `φ = 0` row (all mass on the last position), and the palette itself.
    fn rows(positions: usize) -> Vec<Vec<f64>> {
        let geometric: Vec<f64> = (0..positions)
            .map(|j| 0.7f64.powi(j as i32) / 3.0)
            .collect();
        let mut last_only = vec![0.0; positions];
        last_only[positions - 1] = 1.0;
        let palette = (0..positions).map(|j| PALETTE[j % PALETTE.len()]).collect();
        vec![geometric, last_only, palette]
    }

    #[test]
    fn gap_walk_matches_the_per_position_loop_on_every_layout() {
        // (m, slots, bits below the slots, value of those bits): the
        // two-label kernel's α/β pair and a four-selector union, the
        // bipartite kernel's slots above its uncertain-edge masks, and the
        // general-DAG kernel's one slot per relevant item.
        let layouts = [
            (12usize, 2usize, 0u32, 0u32),
            (5, 4, 0, 0),
            (9, 3, 5, 0b10110),
            (6, 3, 0, 0),
        ];
        for (m, count, base, low_bits) in layouts {
            let slots = Slots::new(m, count, base);
            // Every step of the DP: `placed_items` items are in, the next
            // one has `placed_items + 1` positions to go to.
            for placed_items in 0..m.min(6) as u32 {
                // Every state, in key order, each with a different mass:
                // all-unplaced, all-placed, equal values and every mix,
                // many of them shifting onto the same successor.
                let mut sources: Vec<(u64, f64)> = all_slot_vectors(count, placed_items)
                    .iter()
                    .enumerate()
                    .map(|(n, values)| (pack(values, low_bits, slots), PALETTE[n % PALETTE.len()]))
                    .collect();
                sources.sort_unstable_by_key(|&(key, _)| key);
                for row in rows(placed_items as usize + 1) {
                    check_gap_step(
                        &sources,
                        &row,
                        slots,
                        &format!("m={m} slots={count} base={base} placed={placed_items}"),
                    );
                }
            }
        }
    }

    #[test]
    fn gap_walk_matches_the_per_position_loop_on_wide_words() {
        // 16 slots of 5 bits above 9 mask bits: the fields sit on both sides
        // of bit 64. A handful of placed slots, several sharing a value.
        let slots = Slots::new(16, 16, 9);
        let mut rng = TestRng::deterministic_for("wide gaps");
        for placed_items in [1u32, 2, 7, 15] {
            let mut sources: Vec<(u128, f64)> = (0..60)
                .map(|n| {
                    let values: Vec<u32> = (0..16)
                        .map(|_| match below(&mut rng, 3) {
                            0 => 0,
                            _ => 1 + below(&mut rng, placed_items as usize) as u32,
                        })
                        .collect();
                    (
                        pack(&values, 0b1_0110_1001, slots),
                        PALETTE[n % PALETTE.len()],
                    )
                })
                .collect();
            sources.push((pack(&[0; 16], 0b1_0110_1001, slots), 0.3));
            sources.push((pack(&[placed_items; 16], 0b1_0110_1001, slots), 0.1));
            sources.sort_unstable_by_key(|&(key, _)| key);
            for row in rows(placed_items as usize + 1) {
                check_gap_step(
                    &sources,
                    &row,
                    slots,
                    &format!("wide, placed={placed_items}"),
                );
            }
        }
    }

    #[test]
    fn gap_walk_matches_the_per_position_loop_on_multiword_keys() {
        // 40 slots of 5 bits above 9 mask bits (209 bits): fields straddle
        // the limb boundaries at 64, 128 and 192.
        let slots = Slots::new(16, 40, 9);
        let mut rng = TestRng::deterministic_for("multiword gaps");
        for placed_items in [1u32, 3, 15] {
            let mut sources: Vec<(Wide, f64)> = (0..40)
                .map(|n| {
                    let values: Vec<u32> = (0..40)
                        .map(|_| match below(&mut rng, 3) {
                            0 => 0,
                            _ => 1 + below(&mut rng, placed_items as usize) as u32,
                        })
                        .collect();
                    (
                        pack(&values, 0b1_0110_1001, slots),
                        PALETTE[n % PALETTE.len()],
                    )
                })
                .collect();
            sources.push((pack(&[placed_items; 40], 0b1_0110_1001, slots), 0.1));
            sources.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            sources.dedup_by(|a, b| a.0 == b.0);
            for row in rows(placed_items as usize + 1) {
                check_gap_step(
                    &sources,
                    &row,
                    slots,
                    &format!("multiword, placed={placed_items}"),
                );
            }
        }
    }

    /// A `Wide` built by the same writes as a `u128`.
    fn wide_of(writes: &[(u32, u64, bool)]) -> (Wide, u128) {
        writes.iter().fold(
            (Wide::ZERO, 0u128),
            |(wide, narrow), &(shift, v, add)| match add {
                true => (wide.add_at(shift, v), narrow.add_at(shift, v)),
                false => (wide.or_at(shift, v), narrow.or_at(shift, v)),
            },
        )
    }

    #[test]
    fn multiword_keys_read_write_and_order_like_u128_below_128_bits() {
        let mut rng = TestRng::deterministic_for("multiword vs u128");
        let random_key = |rng: &mut TestRng| {
            let writes: Vec<(u32, u64, bool)> = (0..below(rng, 6))
                .map(|_| {
                    // A field of up to 20 bits anywhere in the 128, written
                    // whole or incremented by one (a carry may cross limbs).
                    let bits = 1 + below(rng, 20) as u32;
                    let shift = below(rng, (129 - bits) as usize) as u32;
                    match below(rng, 2) {
                        0 => (shift, rng.next_u64() >> (64 - bits), false),
                        _ => (shift, 1, true),
                    }
                })
                .collect();
            wide_of(&writes)
        };
        for _ in 0..2_000 {
            let (a, a128) = random_key(&mut rng);
            let (b, b128) = random_key(&mut rng);
            assert_eq!(a.cmp(&b), a128.cmp(&b128), "{a:?} vs {b:?}");
            assert_eq!(a == b, a128 == b128);
            for shift in [0, 1, 33, 63, 64, 65, 100, 127] {
                assert_eq!(a.field(shift), a128.field(shift), "{a:?} at {shift}");
            }
        }
        // Equal values have equal limbs however they were written.
        let (sum, _) = wide_of(&[(63, 1, false), (63, 1, true)]);
        assert_eq!(sum, Wide::ZERO.or_at(64, 1));
        assert_eq!(sum.hash(), Wide::ZERO.or_at(64, 1).hash());
    }

    #[test]
    fn multiword_key_order_is_the_field_order_beyond_128_bits() {
        // 50 slots of 4 bits (200 bits): key order is the lexicographic order
        // of the slot vectors, slot 0 first, as the oracle's states compare.
        let slots = Slots::new(9, 50, 0);
        let mut rng = TestRng::deterministic_for("multiword order");
        let vectors: Vec<Vec<u32>> = (0..300)
            .map(|_| {
                let mut v = vec![0u32; 50];
                for _ in 0..below(&mut rng, 4) {
                    v[below(&mut rng, 50)] = below(&mut rng, 10) as u32;
                }
                v
            })
            .collect();
        for a in &vectors {
            let key_a: Wide = pack(a, 0, slots);
            for (idx, &v) in a.iter().enumerate() {
                assert_eq!(get_slot(&key_a, slots.shift_of(idx), slots.mask()), v);
            }
            for b in &vectors {
                assert_eq!(a.cmp(b), key_a.cmp(&pack(b, 0, slots)), "{a:?} vs {b:?}");
            }
        }
    }
}
