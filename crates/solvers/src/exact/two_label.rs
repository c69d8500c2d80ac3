//! The two-label solver (Algorithm 3 of the paper).
//!
//! Handles unions of *two-label patterns* `G = ⋃_{i} {l_i ≻ r_i}`: the most
//! common query shape, asking whether an item matching one selector is
//! preferred to an item matching another. The solver runs a dynamic program
//! over the RIM insertion process whose states record, for every selector
//! used on the left of an edge, the minimum position of a matching item
//! (`α`), and for every selector used on the right, the maximum position of a
//! matching item (`β`). A ranking satisfies the edge `l ≻ r` iff
//! `α(l) < β(r)`, so tracking only the *violating* states and subtracting
//! their mass from 1 yields the marginal probability of `G`.
//!
//! Two kernels implement the DP:
//!
//! * the **packed** kernel (default) encodes each state's `α`/`β` vector into
//!   a single `u64`/`u128` (see `exact::packed`) and advances a flat
//!   sorted frontier with reused buffers, accumulating each successor's mass
//!   as its transitions are generated; a step whose item matches no tracked
//!   selector costs one successor per *gap* between placed positions, not
//!   one per position;
//! * the **reference** kernel (`reference`) is the original
//!   `BTreeMap<State, f64>` formulation, retained so the equivalence suite
//!   can check — forever, and bit for bit — that packing changed nothing.
//!
//! When the packing width exceeds 128 bits (more than `⌊128 / ⌈log₂(m+1)⌉⌋`
//! distinct tracked selectors) the solver falls back to the reference kernel.

use crate::budget::Budget;
use crate::exact::packed::{self, Frontier, Slots, Word};
use crate::exact::satisfiable_members;
use crate::traits::ExactSolver;
use crate::{Result, SolverError};
use ppd_patterns::{Labeling, NodeSelector, Pattern, PatternUnion, UnionClass};
use ppd_rim::RimModel;

/// Exact solver for unions of two-label patterns (Algorithm 3).
///
/// Complexity: `O(m^{2z'+1})` states in the worst case, where `z'` is the
/// number of *distinct* selectors tracked (identical selectors across edges
/// share a tracked position). The solver aborts with
/// [`SolverError::BudgetExceeded`] when the optional [`Budget`] is exhausted.
#[derive(Debug, Clone, Default)]
pub struct TwoLabelSolver {
    budget: Option<Budget>,
    force_reference: bool,
}

impl TwoLabelSolver {
    /// Creates a solver without resource limits.
    pub fn new() -> Self {
        TwoLabelSolver::default()
    }

    /// Creates a solver that enforces the given budget.
    pub fn with_budget(budget: Budget) -> Self {
        TwoLabelSolver {
            budget: Some(budget),
            force_reference: false,
        }
    }

    /// A solver pinned to the original map-based kernel. Used by the
    /// equivalence suite and the `solver_kernels` benchmark; query evaluation
    /// always uses the packed kernel (with automatic fallback).
    pub fn reference() -> Self {
        TwoLabelSolver {
            budget: None,
            force_reference: true,
        }
    }

    /// Width in bits of the packed state for this instance, or `None` when
    /// the instance exceeds 128 bits and the solver falls back to the
    /// reference kernel. Exposed for the fallback-path tests and the kernel
    /// benchmark; not part of the query API.
    #[doc(hidden)]
    pub fn packed_state_width(
        rim: &RimModel,
        labeling: &Labeling,
        union: &PatternUnion,
    ) -> Option<u32> {
        let members = satisfiable_members(rim, labeling, union)?;
        let compiled = compile(rim, labeling, &members);
        let bits = packed::slot_bits(rim.num_items());
        let width = bits * (compiled.num_l() + compiled.num_r()) as u32;
        (width <= 128).then_some(width)
    }
}

/// Compiled form of the union: deduplicated per-role selectors, edges over
/// selector indices, and per-step match rows — shared by both kernels.
pub(crate) struct Compiled {
    l_selectors: Vec<NodeSelector>,
    r_selectors: Vec<NodeSelector>,
    pub(crate) edges: Vec<(usize, usize)>,
    /// Per insertion step: which tracked L/R selectors the item matches.
    pub(crate) match_l: Vec<Vec<bool>>,
    pub(crate) match_r: Vec<Vec<bool>>,
}

impl Compiled {
    pub(crate) fn num_l(&self) -> usize {
        self.l_selectors.len()
    }

    pub(crate) fn num_r(&self) -> usize {
        self.r_selectors.len()
    }
}

pub(crate) fn compile(rim: &RimModel, labeling: &Labeling, members: &[&Pattern]) -> Compiled {
    let m = rim.num_items();
    let mut l_selectors: Vec<NodeSelector> = Vec::new();
    let mut r_selectors: Vec<NodeSelector> = Vec::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for pattern in members {
        let (a, b) = pattern.edges()[0];
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
    Compiled {
        l_selectors,
        r_selectors,
        edges,
        match_l,
        match_r,
    }
}

/// The retained map-based kernel (the pre-packing implementation), used by
/// the equivalence suite, the kernel benchmark, and as the fallback when the
/// packed state exceeds 128 bits.
pub(crate) mod reference {
    use super::*;
    use std::collections::BTreeMap;

    /// A DP state: minimum positions of L-selectors and maximum positions of
    /// R-selectors among the items inserted so far (`None` = no matching item
    /// inserted yet). Positions are 0-based.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct State {
        alpha: Vec<Option<u32>>,
        beta: Vec<Option<u32>>,
    }

    impl State {
        fn empty(num_l: usize, num_r: usize) -> Self {
            State {
                alpha: vec![None; num_l],
                beta: vec![None; num_r],
            }
        }

        /// Inserts an item at position `j`, given which L/R selectors it
        /// matches.
        ///
        /// Note on the update order: positions already at or below the
        /// insertion point shift down by one *before* taking the min/max with
        /// `j`. (The paper states the two cases — "item carries the label"
        /// and "item does not" — as alternatives; shifting first and then
        /// folding in `j` keeps `α`/`β` equal to the true minimum/maximum
        /// positions in all cases, including when the previous witness itself
        /// shifts.)
        fn insert(&self, j: u32, matches_l: &[bool], matches_r: &[bool]) -> State {
            let mut next = self.clone();
            for (e, slot) in next.alpha.iter_mut().enumerate() {
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

        /// `true` when at least one edge `(l, r)` is already satisfied
        /// (`α(l) < β(r)`). Such states are pruned: once satisfied, an edge
        /// stays satisfied, so these rankings can never contribute to the
        /// violating mass.
        fn satisfies_some_edge(&self, edges: &[(usize, usize)]) -> bool {
            edges
                .iter()
                .any(|&(l, r)| match (self.alpha[l], self.beta[r]) {
                    (Some(a), Some(b)) => a < b,
                    _ => false,
                })
        }
    }

    /// DP over insertions, tracking only the violating states.
    ///
    /// BTreeMap, not HashMap: deterministic iteration fixes the float
    /// summation order, making the result bit-reproducible across calls (the
    /// evaluation engine's determinism contract relies on this). The packed
    /// kernel reproduces this exact order (see `exact::packed`).
    pub(crate) fn solve(rim: &RimModel, c: &Compiled, budget: Option<&Budget>) -> Result<f64> {
        let m = rim.num_items();
        let mut states: BTreeMap<State, f64> = BTreeMap::new();
        states.insert(State::empty(c.num_l(), c.num_r()), 1.0);
        for i in 0..m {
            let mut next: BTreeMap<State, f64> = BTreeMap::new();
            for (state, prob) in &states {
                for j in 0..=i {
                    let new_state = state.insert(j as u32, &c.match_l[i], &c.match_r[i]);
                    if new_state.satisfies_some_edge(&c.edges) {
                        continue;
                    }
                    let p = prob * rim.insertion_prob(i, j);
                    *next.entry(new_state).or_insert(0.0) += p;
                }
            }
            if let Some(budget) = budget {
                budget.check(next.len())?;
            }
            states = next;
        }
        let violating: f64 = states.values().sum();
        Ok((1.0 - violating).clamp(0.0, 1.0))
    }
}

/// The packed kernel: states are single machine words, the frontier is a
/// flat sorted vector, and its buffers are reused across all `m` steps.
fn solve_packed<W: Word>(rim: &RimModel, c: &Compiled, budget: Option<&Budget>) -> Result<f64> {
    let m = rim.num_items();
    let num_l = c.num_l();
    // Slot `idx` (α entries first, then β) sits at the packed offset that
    // makes integer comparison equal the reference state's lexicographic Ord.
    let slots = Slots::new(m, num_l + c.num_r(), 0);
    let mask = slots.mask();
    let edge_shifts: Vec<(u32, u32)> = c
        .edges
        .iter()
        .map(|&(l, r)| (slots.shift_of(l), slots.shift_of(num_l + r)))
        .collect();

    let mut frontier: Frontier<W> = Frontier::new(W::ZERO);
    for (i, row) in rim.pi().iter().enumerate() {
        let match_l = &c.match_l[i];
        let match_r = &c.match_r[i];
        // An item no selector matches only shifts the witnesses, and a shift
        // keeps α < β as it is: no stored (violating) state comes to satisfy
        // an edge, so every position survives.
        let shifts_only = !match_l.iter().chain(match_r).any(|&is_match| is_match);
        let states = frontier.take_states();
        for &(state, prob) in &states {
            if shifts_only {
                frontier.push_shifts(state, prob, row, slots);
                continue;
            }
            'insertion: for (j, &pj) in row.iter().enumerate() {
                let jenc = j as u32 + 1;
                let mut next = W::ZERO;
                for (e, &is_match) in match_l.iter().enumerate() {
                    let shift = slots.shift_of(e);
                    let mut v = packed::get_slot(state, shift, mask);
                    // Encoded positions are p+1, so `p >= j` is `v >= jenc`
                    // (v = 0 encodes "no witness" and jenc >= 1 skips it).
                    if v >= jenc {
                        v += 1;
                    }
                    if is_match {
                        v = if v == 0 { jenc } else { v.min(jenc) };
                    }
                    next = next.or(W::from_u32(v).shl(shift));
                }
                for (e, &is_match) in match_r.iter().enumerate() {
                    let shift = slots.shift_of(num_l + e);
                    let mut v = packed::get_slot(state, shift, mask);
                    if v >= jenc {
                        v += 1;
                    }
                    if is_match {
                        // max folds in the new witness and handles v = 0.
                        v = v.max(jenc);
                    }
                    next = next.or(W::from_u32(v).shl(shift));
                }
                for &(sl, sr) in &edge_shifts {
                    let a = packed::get_slot(next, sl, mask);
                    let b = packed::get_slot(next, sr, mask);
                    if a != 0 && a < b {
                        // The edge is satisfied: this ranking prefix can
                        // never contribute to the violating mass.
                        continue 'insertion;
                    }
                }
                frontier.push(next, prob * pj);
            }
        }
        let next_len = frontier.merge_step(states);
        if let Some(budget) = budget {
            budget.check(next_len)?;
        }
    }
    Ok((1.0 - frontier.total_mass()).clamp(0.0, 1.0))
}

impl ExactSolver for TwoLabelSolver {
    fn name(&self) -> &'static str {
        if self.force_reference {
            "two-label-reference"
        } else {
            "two-label"
        }
    }

    fn solve(&self, rim: &RimModel, labeling: &Labeling, union: &PatternUnion) -> Result<f64> {
        if union.classify() != UnionClass::TwoLabel {
            return Err(SolverError::Unsupported(
                "the two-label solver requires a union of single-edge patterns".into(),
            ));
        }
        let m = rim.num_items();
        if m == 0 {
            return Err(SolverError::InvalidInstance("empty item universe".into()));
        }
        let Some(members) = satisfiable_members(rim, labeling, union) else {
            return Ok(0.0);
        };
        let compiled = compile(rim, labeling, &members);
        let budget = self.budget.as_ref();
        let width = packed::slot_bits(m) * (compiled.num_l() + compiled.num_r()) as u32;
        if self.force_reference || width > 128 {
            reference::solve(rim, &compiled, budget)
        } else if width <= 64 {
            solve_packed::<u64>(rim, &compiled, budget)
        } else {
            solve_packed::<u128>(rim, &compiled, budget)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute::BruteForceSolver;
    use crate::testutil::{cyclic_labeling, rim, sel};
    use ppd_patterns::{Pattern, PatternUnion};

    fn two_label_unions() -> Vec<PatternUnion> {
        vec![
            PatternUnion::singleton(Pattern::two_label(sel(0), sel(1))).unwrap(),
            PatternUnion::singleton(Pattern::two_label(sel(2), sel(0))).unwrap(),
            PatternUnion::new(vec![
                Pattern::two_label(sel(0), sel(1)),
                Pattern::two_label(sel(2), sel(0)),
            ])
            .unwrap(),
            PatternUnion::new(vec![
                Pattern::two_label(sel(2), sel(0)),
                Pattern::two_label(sel(2), sel(1)),
                Pattern::two_label(sel(1), sel(0)),
            ])
            .unwrap(),
        ]
    }

    #[test]
    fn rejects_non_two_label_unions() {
        let chain = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2)]).unwrap();
        let union = PatternUnion::singleton(chain).unwrap();
        let model = rim(5, 0.5);
        let lab = cyclic_labeling(5, 3);
        assert!(matches!(
            TwoLabelSolver::new().solve(&model, &lab, &union),
            Err(SolverError::Unsupported(_))
        ));
    }

    #[test]
    fn agrees_with_brute_force() {
        let brute = BruteForceSolver::new();
        let solver = TwoLabelSolver::new();
        for &m in &[4usize, 5, 6, 7] {
            for &phi in &[0.0, 0.1, 0.5, 1.0] {
                let model = rim(m, phi);
                let lab = cyclic_labeling(m, 3);
                for union in two_label_unions() {
                    let expected = brute.solve(&model, &lab, &union).unwrap();
                    let got = solver.solve(&model, &lab, &union).unwrap();
                    assert!(
                        (expected - got).abs() < 1e-9,
                        "m={m}, phi={phi}: expected {expected}, got {got}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_kernel_is_bit_identical_to_reference() {
        let packed = TwoLabelSolver::new();
        let reference = TwoLabelSolver::reference();
        for &m in &[4usize, 6, 9] {
            for &phi in &[0.0, 0.3, 1.0] {
                let model = rim(m, phi);
                let lab = cyclic_labeling(m, 3);
                for union in two_label_unions() {
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
    fn unsatisfiable_union_has_probability_zero() {
        let model = rim(5, 0.5);
        let lab = cyclic_labeling(5, 3);
        let union = PatternUnion::singleton(Pattern::two_label(sel(7), sel(8))).unwrap();
        assert_eq!(
            TwoLabelSolver::new().solve(&model, &lab, &union).unwrap(),
            0.0
        );
    }

    #[test]
    fn shared_selectors_are_deduplicated() {
        // Two edges sharing the same L selector: still correct.
        let model = rim(6, 0.4);
        let lab = cyclic_labeling(6, 3);
        let union = PatternUnion::new(vec![
            Pattern::two_label(sel(2), sel(0)),
            Pattern::two_label(sel(2), sel(1)),
        ])
        .unwrap();
        let expected = BruteForceSolver::new().solve(&model, &lab, &union).unwrap();
        let got = TwoLabelSolver::new().solve(&model, &lab, &union).unwrap();
        assert!((expected - got).abs() < 1e-9);
    }

    #[test]
    fn budget_abort_is_reported_by_both_kernels() {
        let model = rim(8, 0.5);
        let lab = cyclic_labeling(8, 4);
        let union = PatternUnion::new(vec![
            Pattern::two_label(sel(3), sel(0)),
            Pattern::two_label(sel(2), sel(1)),
            Pattern::two_label(sel(1), sel(0)),
        ])
        .unwrap();
        for solver in [
            TwoLabelSolver::with_budget(Budget::with_max_states(2)),
            TwoLabelSolver {
                budget: Some(Budget::with_max_states(2)),
                force_reference: true,
            },
        ] {
            assert!(matches!(
                solver.solve(&model, &lab, &union),
                Err(SolverError::BudgetExceeded(_))
            ));
        }
    }

    #[test]
    fn probability_in_unit_interval_on_larger_instances() {
        let model = rim(15, 0.3);
        let lab = cyclic_labeling(15, 4);
        let union = PatternUnion::new(vec![
            Pattern::two_label(sel(3), sel(0)),
            Pattern::two_label(sel(2), sel(1)),
        ])
        .unwrap();
        let p = TwoLabelSolver::new().solve(&model, &lab, &union).unwrap();
        assert!((0.0..=1.0).contains(&p));
        assert!(p > 0.0);
    }

    #[test]
    fn packed_state_width_reported() {
        let model = rim(6, 0.5);
        let lab = cyclic_labeling(6, 3);
        let union = PatternUnion::singleton(Pattern::two_label(sel(0), sel(1))).unwrap();
        // One L and one R selector over m = 6: 2 slots × 3 bits.
        assert_eq!(
            TwoLabelSolver::packed_state_width(&model, &lab, &union),
            Some(6)
        );
    }
}
