//! The bipartite solver (Algorithm 4 of the paper).
//!
//! Handles unions of *bipartite patterns*: patterns whose nodes are used
//! either only as the preferred side (L-type) or only as the less-preferred
//! side (R-type) of edges. A ranking satisfies such a pattern iff every edge
//! `(l, r)` satisfies `α(l) < β(r)`, where `α` is the minimum position of an
//! item matching `l` and `β` the maximum position of an item matching `r` —
//! the earliest L-witness and the latest R-witness can serve every edge
//! simultaneously.
//!
//! The solver is a dynamic program over the RIM insertion process whose
//! states track these min/max positions. The *sophisticated* variant
//! (default) additionally prunes bookkeeping that can no longer influence the
//! outcome: satisfied edges, violated patterns, and the positions of
//! selectors that no longer appear in any uncertain edge. The *basic*
//! variant keeps everything and classifies states only after the last
//! insertion; it exists for the ablation benchmarks.
//!
//! Like the two-label solver, the pruning DP has two kernels: the default
//! **packed** kernel encodes a state — position slots plus one
//! uncertain-edge bitmask field per member pattern — into a single
//! `u64`/`u128` and advances a flat sorted frontier (see
//! `exact::packed` for the determinism argument, and for how a step whose
//! item matches no entry costs one successor per gap between the stored
//! positions instead of one per position), while the
//! **reference** kernel keeps the original map-based formulation for the
//! equivalence suite and as the fallback when the packing width exceeds
//! 128 bits.

use crate::budget::Budget;
use crate::exact::packed::{self, Frontier, Slots, Word};
use crate::exact::satisfiable_members;
use crate::traits::ExactSolver;
use crate::{Result, SolverError};
use ppd_patterns::{Labeling, NodeSelector, Pattern, PatternUnion, UnionClass};
use ppd_rim::RimModel;
use std::collections::BTreeMap;

/// Exact solver for unions of bipartite patterns (Algorithm 4).
///
/// Complexity: `O(m^{Σ_g q_g})` states in the worst case (`q_g` = number of
/// nodes of member `g`), with substantial practical savings from pruning.
#[derive(Debug, Clone)]
pub struct BipartiteSolver {
    budget: Option<Budget>,
    prune: bool,
    force_reference: bool,
}

impl Default for BipartiteSolver {
    fn default() -> Self {
        BipartiteSolver {
            budget: None,
            prune: true,
            force_reference: false,
        }
    }
}

impl BipartiteSolver {
    /// The default, pruning solver.
    pub fn new() -> Self {
        BipartiteSolver::default()
    }

    /// The "basic" variant without pruning (Section 4.3.1's first algorithm),
    /// kept for ablation benchmarks.
    pub fn basic() -> Self {
        BipartiteSolver {
            budget: None,
            prune: false,
            force_reference: false,
        }
    }

    /// A pruning solver pinned to the original map-based kernel; used by the
    /// equivalence suite and the `solver_kernels` benchmark.
    pub fn reference() -> Self {
        BipartiteSolver {
            budget: None,
            prune: true,
            force_reference: true,
        }
    }

    /// Attaches a resource budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Width in bits of the packed state for this instance (position slots
    /// plus per-pattern uncertain-edge masks), or `None` when the instance
    /// exceeds 128 bits and the pruning solver falls back to the reference
    /// kernel. Exposed for the fallback-path tests and the kernel benchmark.
    #[doc(hidden)]
    pub fn packed_state_width(
        rim: &RimModel,
        labeling: &Labeling,
        union: &PatternUnion,
    ) -> Option<u32> {
        let members = satisfiable_members(rim, labeling, union)?;
        let c = compile(rim, labeling, &members).ok()?;
        let width = packed_width(rim.num_items(), &c);
        (width <= 128 && masks_fit(&c)).then_some(width)
    }
}

/// Compiled form of the union: deduplicated (selector, role) entries and the
/// per-pattern edges expressed over entry indices.
struct Compiled {
    l_selectors: Vec<NodeSelector>,
    r_selectors: Vec<NodeSelector>,
    /// For each member pattern, its edges as (l-entry, r-entry) pairs.
    pattern_edges: Vec<Vec<(usize, usize)>>,
    /// Per reference-item step: which L/R entries the inserted item matches.
    match_l: Vec<Vec<bool>>,
    match_r: Vec<Vec<bool>>,
    /// Last insertion step at which a candidate of the entry appears.
    last_l: Vec<usize>,
    last_r: Vec<usize>,
}

fn compile(rim: &RimModel, labeling: &Labeling, members: &[&Pattern]) -> Result<Compiled> {
    let m = rim.num_items();
    let mut l_selectors: Vec<NodeSelector> = Vec::new();
    let mut r_selectors: Vec<NodeSelector> = Vec::new();
    let mut pattern_edges: Vec<Vec<(usize, usize)>> = Vec::new();
    for pattern in members {
        let mut edges = Vec::with_capacity(pattern.num_edges());
        for &(a, b) in pattern.edges() {
            let left = pattern.nodes()[a].clone();
            let right = pattern.nodes()[b].clone();
            let li = match l_selectors.iter().position(|s| *s == left) {
                Some(i) => i,
                None => {
                    l_selectors.push(left);
                    l_selectors.len() - 1
                }
            };
            let ri = match r_selectors.iter().position(|s| *s == right) {
                Some(i) => i,
                None => {
                    r_selectors.push(right);
                    r_selectors.len() - 1
                }
            };
            if !edges.contains(&(li, ri)) {
                edges.push((li, ri));
            }
        }
        pattern_edges.push(edges);
    }
    let match_l: Vec<Vec<bool>> = (0..m)
        .map(|i| {
            let item = rim.sigma().item_at(i);
            l_selectors
                .iter()
                .map(|s| s.matches(item, labeling))
                .collect()
        })
        .collect();
    let match_r: Vec<Vec<bool>> = (0..m)
        .map(|i| {
            let item = rim.sigma().item_at(i);
            r_selectors
                .iter()
                .map(|s| s.matches(item, labeling))
                .collect()
        })
        .collect();
    // Every member that reaches here is satisfiable, so every entry has a
    // candidate and its last step is a step that matches it — which is why a
    // step that matches no entry can never be the one that violates an edge.
    let last_step = |matches: &Vec<Vec<bool>>, e: usize| -> usize {
        let last = (0..m).rev().find(|&i| matches[i][e]);
        debug_assert!(
            last.is_some(),
            "an entry of a satisfiable member matches no item"
        );
        last.unwrap_or(0)
    };
    let last_l = (0..l_selectors.len())
        .map(|e| last_step(&match_l, e))
        .collect();
    let last_r = (0..r_selectors.len())
        .map(|e| last_step(&match_r, e))
        .collect();
    Ok(Compiled {
        l_selectors,
        r_selectors,
        pattern_edges,
        match_l,
        match_r,
        last_l,
        last_r,
    })
}

/// Packed width of the pruning DP state: one slot per tracked position plus
/// one bitmask field (edge-count bits) per member pattern.
fn packed_width(m: usize, c: &Compiled) -> u32 {
    let bits = packed::slot_bits(m);
    let slots = (c.l_selectors.len() + c.r_selectors.len()) as u32;
    let mask_bits: u32 = c.pattern_edges.iter().map(|e| e.len() as u32).sum();
    bits * slots + mask_bits
}

/// The packed kernel manipulates per-pattern uncertain-edge masks as `u32`s;
/// a (pathological) member with more than 32 deduplicated edges falls back
/// to the reference kernel, whose `u64` masks carry it to 64 edges. Beyond
/// that the pruning DP reports [`SolverError::Unsupported`] (such an
/// instance needs ≥ 16 distinct selectors, putting the state space far out
/// of reach regardless of representation; the mask-free basic variant
/// remains available).
fn masks_fit(c: &Compiled) -> bool {
    c.pattern_edges.iter().all(|e| e.len() <= 32)
}

/// `(1 << len) - 1` without shift overflow at `len = 64`.
fn full_mask_u64(len: usize) -> u64 {
    debug_assert!(len <= 64);
    if len >= 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    }
}

/// Min/max positions of the tracked entries (`None` = no witness inserted
/// yet, or the entry is no longer tracked by this state).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Positions {
    alpha: Vec<Option<u32>>,
    beta: Vec<Option<u32>>,
}

impl Positions {
    fn empty(num_l: usize, num_r: usize) -> Self {
        Positions {
            alpha: vec![None; num_l],
            beta: vec![None; num_r],
        }
    }

    /// Shift-then-update insertion at position `j`; only the entries selected
    /// by `track_l` / `track_r` are maintained.
    fn insert(
        &self,
        j: u32,
        matches_l: &[bool],
        matches_r: &[bool],
        track_l: &[bool],
        track_r: &[bool],
    ) -> Positions {
        let mut next = self.clone();
        for (e, slot) in next.alpha.iter_mut().enumerate() {
            if !track_l[e] {
                *slot = None;
                continue;
            }
            if let Some(p) = slot {
                if *p >= j {
                    *p += 1;
                }
            }
            if matches_l[e] {
                *slot = Some(match *slot {
                    Some(p) => p.min(j),
                    None => j,
                });
            }
        }
        for (e, slot) in next.beta.iter_mut().enumerate() {
            if !track_r[e] {
                *slot = None;
                continue;
            }
            if let Some(p) = slot {
                if *p >= j {
                    *p += 1;
                }
            }
            if matches_r[e] {
                *slot = Some(match *slot {
                    Some(p) => p.max(j),
                    None => j,
                });
            }
        }
        next
    }

    fn edge_satisfied(&self, l: usize, r: usize) -> bool {
        matches!((self.alpha[l], self.beta[r]), (Some(a), Some(b)) if a < b)
    }
}

/// State of the pruning DP: positions plus, per member pattern, the bitmask
/// of its still-uncertain edges (over that pattern's compiled edge list).
/// A zero mask means the pattern is violated; a pattern whose last uncertain
/// edge resolves to satisfied absorbs the state into the answer instead of
/// being stored.
///
/// The field order ((positions, masks), with the derived lexicographic Ord)
/// matches the packed kernel's bit layout, so both kernels iterate states in
/// the same order and sum floats identically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct PrunedState {
    positions: Positions,
    uncertain: Vec<u64>,
}

impl ExactSolver for BipartiteSolver {
    fn name(&self) -> &'static str {
        if !self.prune {
            "bipartite-basic"
        } else if self.force_reference {
            "bipartite-reference"
        } else {
            "bipartite"
        }
    }

    fn solve(&self, rim: &RimModel, labeling: &Labeling, union: &PatternUnion) -> Result<f64> {
        match union.classify() {
            UnionClass::TwoLabel | UnionClass::Bipartite => {}
            UnionClass::General => {
                return Err(SolverError::Unsupported(
                    "the bipartite solver requires a union of bipartite patterns".into(),
                ))
            }
        }
        let m = rim.num_items();
        if m == 0 {
            return Err(SolverError::InvalidInstance("empty item universe".into()));
        }
        let Some(members) = satisfiable_members(rim, labeling, union) else {
            return Ok(0.0);
        };
        // A satisfiable member without edges is satisfied by every ranking.
        // (Handled before kernel dispatch so all kernels agree exactly.)
        if members.iter().any(|p| p.num_edges() == 0) {
            return Ok(1.0);
        }
        let compiled = compile(rim, labeling, &members)?;
        if !self.prune {
            return self.solve_basic(rim, &compiled);
        }
        if let Some(edges) = compiled.pattern_edges.iter().find(|e| e.len() > 64) {
            return Err(SolverError::Unsupported(format!(
                "a member with {} deduplicated edges exceeds the pruning DP's 64-edge \
                 uncertain-mask capacity (and its state space is intractable anyway); \
                 use BipartiteSolver::basic()",
                edges.len()
            )));
        }
        let budget = self.budget.as_ref();
        let width = packed_width(m, &compiled);
        if self.force_reference || width > 128 || !masks_fit(&compiled) {
            reference_solve_pruned(rim, &compiled, budget)
        } else if width <= 64 {
            solve_pruned_packed::<u64>(rim, &compiled, budget)
        } else {
            solve_pruned_packed::<u128>(rim, &compiled, budget)
        }
    }
}

/// The retained map-based pruning kernel (the pre-packing implementation),
/// used by the equivalence suite and as the wide-state fallback.
fn reference_solve_pruned(rim: &RimModel, c: &Compiled, budget: Option<&Budget>) -> Result<f64> {
    let m = rim.num_items();
    let num_patterns = c.pattern_edges.len();
    let full_masks: Vec<u64> = c
        .pattern_edges
        .iter()
        .map(|edges| full_mask_u64(edges.len()))
        .collect();
    // BTreeMap, not HashMap: deterministic iteration fixes the float
    // summation order, making the result bit-reproducible across calls
    // (the evaluation engine's determinism contract relies on this).
    let mut states: BTreeMap<PrunedState, f64> = BTreeMap::new();
    states.insert(
        PrunedState {
            positions: Positions::empty(c.l_selectors.len(), c.r_selectors.len()),
            uncertain: full_masks,
        },
        1.0,
    );
    let mut satisfied_mass = 0.0;

    let mut track_l = vec![false; c.l_selectors.len()];
    let mut track_r = vec![false; c.r_selectors.len()];
    for i in 0..m {
        let mut next: BTreeMap<PrunedState, f64> = BTreeMap::new();
        for (state, prob) in &states {
            // Entries needed by this state's uncertain edges.
            track_l.iter_mut().for_each(|t| *t = false);
            track_r.iter_mut().for_each(|t| *t = false);
            for (p, &mask) in state.uncertain.iter().enumerate() {
                for (e, &(l, r)) in c.pattern_edges[p].iter().enumerate() {
                    if mask & (1u64 << e) != 0 {
                        track_l[l] = true;
                        track_r[r] = true;
                    }
                }
            }
            for j in 0..=i {
                let p_new = prob * rim.insertion_prob(i, j);
                let positions = state.positions.insert(
                    j as u32,
                    &c.match_l[i],
                    &c.match_r[i],
                    &track_l,
                    &track_r,
                );
                // Re-evaluate the uncertain edges of every pattern.
                let mut new_uncertain: Vec<u64> = vec![0; num_patterns];
                let mut union_satisfied = false;
                let mut any_uncertain = false;
                for (p, &mask) in state.uncertain.iter().enumerate() {
                    if mask == 0 {
                        continue;
                    }
                    let mut remaining = 0u64;
                    let mut violated = false;
                    for (e, &(l, r)) in c.pattern_edges[p].iter().enumerate() {
                        if mask & (1u64 << e) == 0 {
                            continue;
                        }
                        if positions.edge_satisfied(l, r) {
                            continue;
                        }
                        if i >= c.last_l[l] && i >= c.last_r[r] {
                            // All witnesses are in and the edge still does
                            // not hold: it never will.
                            violated = true;
                            break;
                        }
                        remaining |= 1u64 << e;
                    }
                    if violated {
                        continue;
                    }
                    if remaining == 0 {
                        union_satisfied = true;
                        break;
                    }
                    new_uncertain[p] = remaining;
                    any_uncertain = true;
                }
                if union_satisfied {
                    satisfied_mass += p_new;
                    continue;
                }
                if !any_uncertain {
                    // Every pattern is violated; this state can never
                    // satisfy the union.
                    continue;
                }
                // Drop positions of entries no longer referenced so that
                // behaviourally identical states merge.
                let mut keep_l = vec![false; c.l_selectors.len()];
                let mut keep_r = vec![false; c.r_selectors.len()];
                for (p, &mask) in new_uncertain.iter().enumerate() {
                    for (e, &(l, r)) in c.pattern_edges[p].iter().enumerate() {
                        if mask & (1u64 << e) != 0 {
                            keep_l[l] = true;
                            keep_r[r] = true;
                        }
                    }
                }
                let mut positions = positions;
                for (e, slot) in positions.alpha.iter_mut().enumerate() {
                    if !keep_l[e] {
                        *slot = None;
                    }
                }
                for (e, slot) in positions.beta.iter_mut().enumerate() {
                    if !keep_r[e] {
                        *slot = None;
                    }
                }
                *next
                    .entry(PrunedState {
                        positions,
                        uncertain: new_uncertain,
                    })
                    .or_insert(0.0) += p_new;
            }
        }
        if let Some(budget) = budget {
            budget.check(next.len())?;
        }
        states = next;
    }
    Ok(satisfied_mass.clamp(0.0, 1.0))
}

/// The packed pruning kernel. Bit layout, most to least significant:
/// `α` slots, `β` slots (each `slot_bits(m)` wide, `None → 0`,
/// `Some(p) → p+1`), then one uncertain-edge bitmask field per member
/// pattern (pattern 0 highest). Integer order over this layout equals the
/// reference [`PrunedState`]'s derived Ord, which is what makes the two
/// kernels sum floats in the same order.
fn solve_pruned_packed<W: Word>(
    rim: &RimModel,
    c: &Compiled,
    budget: Option<&Budget>,
) -> Result<f64> {
    let num_l = c.l_selectors.len();
    let num_r = c.r_selectors.len();
    let num_patterns = c.pattern_edges.len();
    let mask_bits: u32 = c.pattern_edges.iter().map(|e| e.len() as u32).sum();
    // Position slot `idx` (α entries first, then β), above the mask fields.
    let slots = Slots::new(rim.num_items(), num_l + num_r, mask_bits);
    let slot_mask = slots.mask();
    // Uncertain-mask field of pattern `p`.
    let mask_shift: Vec<u32> = {
        let mut shifts = vec![0u32; num_patterns];
        let mut acc = 0u32;
        for p in (0..num_patterns).rev() {
            shifts[p] = acc;
            acc += c.pattern_edges[p].len() as u32;
        }
        shifts
    };
    let full_mask_of = |p: usize| ((1u64 << c.pattern_edges[p].len()) - 1) as u32;

    let mut initial = W::ZERO;
    for (p, &shift) in mask_shift.iter().enumerate() {
        initial = initial.or(W::from_u32(full_mask_of(p)).shl(shift));
    }

    let mut frontier: Frontier<W> = Frontier::new(initial);
    let mut satisfied_mass = 0.0;
    for (i, row) in rim.pi().iter().enumerate() {
        let match_l = &c.match_l[i];
        let match_r = &c.match_r[i];
        // An item no entry matches only shifts the stored positions, which
        // are exactly the ones the state's uncertain edges reference: no
        // edge becomes satisfied (a shift keeps α < β as it is) and none
        // becomes violated (the step is no entry's last), so the masks and
        // the kept positions carry over unchanged.
        let shifts_only = !match_l.iter().chain(match_r).any(|&is_match| is_match);
        let states = frontier.take_states();
        for &(state, prob) in &states {
            if shifts_only {
                frontier.push_shifts(state, prob, row, slots);
                continue;
            }
            // Entries needed by this state's uncertain edges.
            let mut track_l = 0u64;
            let mut track_r = 0u64;
            for (p, &mshift) in mask_shift.iter().enumerate() {
                let mask = packed::get_slot(state, mshift, full_mask_of(p));
                for (e, &(l, r)) in c.pattern_edges[p].iter().enumerate() {
                    if mask & (1u32 << e) != 0 {
                        track_l |= 1u64 << l;
                        track_r |= 1u64 << r;
                    }
                }
            }
            'insertion: for (j, &pj) in row.iter().enumerate() {
                let jenc = j as u32 + 1;
                let p_new = prob * pj;
                // Insert into the tracked position slots (shift, then fold
                // in the new witness — see the reference kernel for why).
                let mut positions = W::ZERO;
                for (e, &is_match) in match_l.iter().enumerate() {
                    if track_l & (1u64 << e) == 0 {
                        continue;
                    }
                    let shift = slots.shift_of(e);
                    let mut v = packed::get_slot(state, shift, slot_mask);
                    if v >= jenc {
                        v += 1;
                    }
                    if is_match {
                        v = if v == 0 { jenc } else { v.min(jenc) };
                    }
                    positions = positions.or(W::from_u32(v).shl(shift));
                }
                for (e, &is_match) in match_r.iter().enumerate() {
                    if track_r & (1u64 << e) == 0 {
                        continue;
                    }
                    let shift = slots.shift_of(num_l + e);
                    let mut v = packed::get_slot(state, shift, slot_mask);
                    if v >= jenc {
                        v += 1;
                    }
                    if is_match {
                        v = v.max(jenc);
                    }
                    positions = positions.or(W::from_u32(v).shl(shift));
                }
                let edge_satisfied = |l: usize, r: usize| -> bool {
                    let a = packed::get_slot(positions, slots.shift_of(l), slot_mask);
                    let b = packed::get_slot(positions, slots.shift_of(num_l + r), slot_mask);
                    a != 0 && a < b
                };
                // Re-evaluate the uncertain edges of every pattern.
                let mut new_state = W::ZERO;
                let mut keep_l = 0u64;
                let mut keep_r = 0u64;
                let mut any_uncertain = false;
                for (p, &mshift) in mask_shift.iter().enumerate() {
                    let mask = packed::get_slot(state, mshift, full_mask_of(p));
                    if mask == 0 {
                        continue;
                    }
                    let mut remaining = 0u32;
                    let mut violated = false;
                    for (e, &(l, r)) in c.pattern_edges[p].iter().enumerate() {
                        if mask & (1u32 << e) == 0 {
                            continue;
                        }
                        if edge_satisfied(l, r) {
                            continue;
                        }
                        if i >= c.last_l[l] && i >= c.last_r[r] {
                            violated = true;
                            break;
                        }
                        remaining |= 1u32 << e;
                    }
                    if violated {
                        continue;
                    }
                    if remaining == 0 {
                        // The pattern — hence the union — is satisfied.
                        satisfied_mass += p_new;
                        continue 'insertion;
                    }
                    new_state = new_state.or(W::from_u32(remaining).shl(mshift));
                    any_uncertain = true;
                    for (e, &(l, r)) in c.pattern_edges[p].iter().enumerate() {
                        if remaining & (1u32 << e) != 0 {
                            keep_l |= 1u64 << l;
                            keep_r |= 1u64 << r;
                        }
                    }
                }
                if !any_uncertain {
                    // Every pattern is violated.
                    continue;
                }
                // Keep only the positions still referenced by uncertain
                // edges so behaviourally identical states merge.
                for e in 0..num_l {
                    if keep_l & (1u64 << e) != 0 {
                        let shift = slots.shift_of(e);
                        new_state = new_state
                            .or(W::from_u32(packed::get_slot(positions, shift, slot_mask))
                                .shl(shift));
                    }
                }
                for e in 0..num_r {
                    if keep_r & (1u64 << e) != 0 {
                        let shift = slots.shift_of(num_l + e);
                        new_state = new_state
                            .or(W::from_u32(packed::get_slot(positions, shift, slot_mask))
                                .shl(shift));
                    }
                }
                frontier.push(new_state, p_new);
            }
        }
        let next_len = frontier.merge_step(states);
        if let Some(budget) = budget {
            budget.check(next_len)?;
        }
    }
    Ok(satisfied_mass.clamp(0.0, 1.0))
}

impl BipartiteSolver {
    fn solve_basic(&self, rim: &RimModel, c: &Compiled) -> Result<f64> {
        let m = rim.num_items();
        let all_l = vec![true; c.l_selectors.len()];
        let all_r = vec![true; c.r_selectors.len()];
        let mut states: BTreeMap<Positions, f64> = BTreeMap::new();
        states.insert(
            Positions::empty(c.l_selectors.len(), c.r_selectors.len()),
            1.0,
        );
        for i in 0..m {
            let mut next: BTreeMap<Positions, f64> = BTreeMap::new();
            for (state, prob) in &states {
                for j in 0..=i {
                    let new_state =
                        state.insert(j as u32, &c.match_l[i], &c.match_r[i], &all_l, &all_r);
                    *next.entry(new_state).or_insert(0.0) += prob * rim.insertion_prob(i, j);
                }
            }
            if let Some(budget) = &self.budget {
                budget.check(next.len())?;
            }
            states = next;
        }
        let mut total = 0.0;
        for (state, prob) in &states {
            let satisfied = c
                .pattern_edges
                .iter()
                .any(|edges| edges.iter().all(|&(l, r)| state.edge_satisfied(l, r)));
            if satisfied {
                total += prob;
            }
        }
        Ok(total.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute::BruteForceSolver;
    use crate::exact::two_label::TwoLabelSolver;
    use crate::testutil::{cyclic_labeling, rim, sel};
    use ppd_patterns::{Pattern, PatternUnion};

    fn bipartite_unions() -> Vec<PatternUnion> {
        let two = Pattern::two_label(sel(0), sel(1));
        let vee = Pattern::new(vec![sel(2), sel(0), sel(1)], vec![(0, 1), (0, 2)]).unwrap();
        let benchmark_a_shape = Pattern::new(
            vec![sel(0), sel(1), sel(2), sel(3)],
            vec![(0, 2), (0, 3), (1, 3)],
        )
        .unwrap();
        vec![
            PatternUnion::singleton(two.clone()).unwrap(),
            PatternUnion::singleton(vee.clone()).unwrap(),
            PatternUnion::singleton(benchmark_a_shape.clone()).unwrap(),
            PatternUnion::new(vec![two.clone(), vee]).unwrap(),
            PatternUnion::new(vec![benchmark_a_shape, two]).unwrap(),
        ]
    }

    #[test]
    fn rejects_general_unions() {
        let chain = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2)]).unwrap();
        let union = PatternUnion::singleton(chain).unwrap();
        let model = rim(5, 0.5);
        let lab = cyclic_labeling(5, 3);
        assert!(matches!(
            BipartiteSolver::new().solve(&model, &lab, &union),
            Err(SolverError::Unsupported(_))
        ));
    }

    #[test]
    fn agrees_with_brute_force_pruned_and_basic() {
        let brute = BruteForceSolver::new();
        for &m in &[4usize, 5, 6] {
            for &phi in &[0.0, 0.2, 0.7, 1.0] {
                let model = rim(m, phi);
                for &labels in &[3u32, 4] {
                    let lab = cyclic_labeling(m, labels);
                    for union in bipartite_unions() {
                        let expected = brute.solve(&model, &lab, &union).unwrap();
                        let pruned = BipartiteSolver::new().solve(&model, &lab, &union).unwrap();
                        let basic = BipartiteSolver::basic()
                            .solve(&model, &lab, &union)
                            .unwrap();
                        assert!(
                            (expected - pruned).abs() < 1e-9,
                            "pruned m={m} phi={phi} labels={labels}: {expected} vs {pruned}"
                        );
                        assert!(
                            (expected - basic).abs() < 1e-9,
                            "basic m={m} phi={phi} labels={labels}: {expected} vs {basic}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn packed_kernel_is_bit_identical_to_reference() {
        let packed = BipartiteSolver::new();
        let reference = BipartiteSolver::reference();
        for &m in &[4usize, 6, 8] {
            for &phi in &[0.0, 0.4, 1.0] {
                let model = rim(m, phi);
                let lab = cyclic_labeling(m, 4);
                for union in bipartite_unions() {
                    let a = packed.solve(&model, &lab, &union).unwrap();
                    let b = reference.solve(&model, &lab, &union).unwrap();
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "m={m}, phi={phi}: packed {a} vs reference {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_label_unions_also_supported() {
        // The bipartite solver must handle two-label unions as a special case
        // and agree with the dedicated two-label solver.
        let model = rim(7, 0.4);
        let lab = cyclic_labeling(7, 3);
        let union = PatternUnion::new(vec![
            Pattern::two_label(sel(2), sel(0)),
            Pattern::two_label(sel(1), sel(0)),
        ])
        .unwrap();
        let a = TwoLabelSolver::new().solve(&model, &lab, &union).unwrap();
        let b = BipartiteSolver::new().solve(&model, &lab, &union).unwrap();
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn unsatisfiable_members_do_not_crash() {
        let model = rim(5, 0.5);
        let lab = cyclic_labeling(5, 3);
        let good = Pattern::two_label(sel(1), sel(0));
        let bad = Pattern::new(vec![sel(9), sel(0), sel(1)], vec![(0, 1), (0, 2)]).unwrap();
        let union = PatternUnion::new(vec![good.clone(), bad]).unwrap();
        let expected = BruteForceSolver::new().solve(&model, &lab, &union).unwrap();
        let got = BipartiteSolver::new().solve(&model, &lab, &union).unwrap();
        assert!((expected - got).abs() < 1e-9);
        // A union in which nothing is satisfiable has probability zero.
        let bad2 = Pattern::two_label(sel(9), sel(8));
        let empty = PatternUnion::singleton(bad2).unwrap();
        assert_eq!(
            BipartiteSolver::new().solve(&model, &lab, &empty).unwrap(),
            0.0
        );
    }

    #[test]
    fn edgeless_members_classify_as_general_and_are_rejected() {
        // An edgeless pattern is not bipartite (`Pattern::is_bipartite`), so
        // a union containing one classifies as General and is rejected here
        // before any kernel runs; the in-solver edgeless shortcut is defence
        // in depth for the (currently unreachable) direct path.
        let model = rim(5, 0.5);
        let lab = cyclic_labeling(5, 3);
        let edgeless = Pattern::new(vec![sel(0), sel(1)], vec![]).unwrap();
        let union = PatternUnion::new(vec![edgeless, Pattern::two_label(sel(1), sel(0))]).unwrap();
        assert!(matches!(
            BipartiteSolver::new().solve(&model, &lab, &union),
            Err(SolverError::Unsupported(_))
        ));
    }

    #[test]
    fn budget_abort_is_reported() {
        let model = rim(10, 0.5);
        let lab = cyclic_labeling(10, 4);
        let union = PatternUnion::singleton(
            Pattern::new(
                vec![sel(0), sel(1), sel(2), sel(3)],
                vec![(0, 2), (0, 3), (1, 3)],
            )
            .unwrap(),
        )
        .unwrap();
        for solver in [
            BipartiteSolver::new().with_budget(Budget::with_max_states(2)),
            BipartiteSolver::reference().with_budget(Budget::with_max_states(2)),
        ] {
            assert!(matches!(
                solver.solve(&model, &lab, &union),
                Err(SolverError::BudgetExceeded(_))
            ));
        }
    }

    #[test]
    fn pruned_is_not_larger_than_basic_state_space() {
        // Smoke test on a mid-sized instance: both agree and stay in [0, 1].
        let model = rim(12, 0.3);
        let lab = cyclic_labeling(12, 4);
        let union = PatternUnion::singleton(
            Pattern::new(
                vec![sel(0), sel(1), sel(2), sel(3)],
                vec![(0, 2), (0, 3), (1, 3)],
            )
            .unwrap(),
        )
        .unwrap();
        let pruned = BipartiteSolver::new().solve(&model, &lab, &union).unwrap();
        let basic = BipartiteSolver::basic()
            .solve(&model, &lab, &union)
            .unwrap();
        assert!((pruned - basic).abs() < 1e-9);
        assert!((0.0..=1.0).contains(&pruned));
    }

    #[test]
    fn sixty_four_edge_member_uses_reference_masks_without_overflow() {
        // A complete 8×8 bipartite member has exactly 64 deduplicated edges:
        // too wide for the packed kernel's u32 masks, exactly at the
        // reference kernel's u64 capacity (the `1 << 64` overflow case).
        // Keep m tiny so the reference DP is trivially tractable.
        let m = 2usize;
        let model = rim(m, 0.5);
        let mut lab = Labeling::new();
        for item in 0..m as u32 {
            for k in 0..9u32 {
                lab.add(item, k);
                lab.add(item, 100 + k);
            }
        }
        let build = |num_l: u32| {
            let mut nodes: Vec<NodeSelector> = (0..num_l).map(sel).collect();
            nodes.extend((0..8u32).map(|k| sel(100 + k)));
            let edges: Vec<(usize, usize)> = (0..num_l as usize)
                .flat_map(|l| (0..8usize).map(move |r| (l, num_l as usize + r)))
                .collect();
            PatternUnion::singleton(Pattern::new(nodes, edges).unwrap()).unwrap()
        };
        let union64 = build(8);
        assert_eq!(
            BipartiteSolver::packed_state_width(&model, &lab, &union64),
            None
        );
        let expected = BruteForceSolver::new()
            .solve(&model, &lab, &union64)
            .unwrap();
        let got = BipartiteSolver::new()
            .solve(&model, &lab, &union64)
            .unwrap();
        assert_eq!(got.to_bits(), expected.to_bits(), "{expected} vs {got}");
        // Beyond 64 edges the pruning DP refuses cleanly instead of
        // answering wrongly; the mask-free basic variant still works.
        let union72 = build(9);
        assert!(matches!(
            BipartiteSolver::new().solve(&model, &lab, &union72),
            Err(SolverError::Unsupported(_))
        ));
        let basic = BipartiteSolver::basic()
            .solve(&model, &lab, &union72)
            .unwrap();
        let expected72 = BruteForceSolver::new()
            .solve(&model, &lab, &union72)
            .unwrap();
        assert!((basic - expected72).abs() < 1e-9);
    }

    #[test]
    fn packed_state_width_reported() {
        let model = rim(6, 0.5);
        let lab = cyclic_labeling(6, 3);
        // The vee: 1 L selector, 2 R selectors, 2 edges over m = 6
        // (3 bits/slot): 3 × 3 + 2 = 11 bits.
        let vee = Pattern::new(vec![sel(2), sel(0), sel(1)], vec![(0, 1), (0, 2)]).unwrap();
        let union = PatternUnion::singleton(vee).unwrap();
        assert_eq!(
            BipartiteSolver::packed_state_width(&model, &lab, &union),
            Some(11)
        );
    }
}
