//! The two-label solver (Algorithm 3 of the paper).
//!
//! Handles unions of *two-label patterns* `G = ⋃_{i} {l_i ≻ r_i}`: the most
//! common query shape, asking whether an item matching one selector is
//! preferred to an item matching another. The solver runs a dynamic program
//! over the RIM insertion process whose states record, for every selector
//! used on the left of an edge, the minimum position of a matching item
//! (`α`), and for every selector used on the right, the maximum position of a
//! matching item (`β`). A ranking satisfies the edge `l ≻ r` iff
//! `α(l) < β(r)`. A satisfied edge stays satisfied, so the DP keeps only the
//! *violating* states and adds the mass of each transition that satisfies an
//! edge to the answer, which keeps a tiny answer's relative precision as `1 −`
//! the violating mass would not. It stops after the last step whose item
//! matches a tracked selector: later steps only shift the witnesses.
//!
//! A two-label union is a bipartite union with one edge per member: it is
//! compiled, its `α`/`β` vector packed into one unsigned key and its
//! witnesses updated exactly as in the bipartite solver, and its states
//! advanced by the step loop of `exact::packed`, accumulating each
//! successor's mass as its transitions are generated; a step whose item
//! matches no tracked selector costs one successor per *gap* between placed
//! positions, not one per position.

use crate::budget::Budget;
use crate::exact::bipartite::{compile, Compiled};
use crate::exact::packed::{get_slot, insert_witness, run_steps, Slots, Wide, Word};
use crate::exact::satisfiable_members;
use crate::traits::ExactSolver;
use crate::{Result, SolverError};
use ppd_patterns::{Labeling, PatternUnion, UnionClass};
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
        }
    }

    /// Width in bits of the packed state for this instance, or `None` when
    /// it exceeds 128 bits and the kernel runs on a multiword key. Exposed
    /// for the wide-state tests and the kernel benchmark; not part of the
    /// query API.
    #[doc(hidden)]
    pub fn packed_state_width(
        rim: &RimModel,
        labeling: &Labeling,
        union: &PatternUnion,
    ) -> Option<u32> {
        let members = satisfiable_members(rim, labeling, union)?;
        let compiled = compile(rim, labeling, &members);
        let width = Slots::new(rim.num_items(), compiled.num_slots(), 0).width();
        (width <= 128).then_some(width)
    }
}

/// The kernel: a state is the `α` slots then the `β` slots, and only the
/// states that satisfy no edge yet — the violating ones — are kept; the mass
/// of every transition that satisfies one is the answer.
fn solve_packed<W: Word>(rim: &RimModel, c: &Compiled, budget: Option<&Budget>) -> Result<f64> {
    let slots = Slots::new(rim.num_items(), c.num_slots(), 0);
    let mask = slots.mask();
    // Every member's edge once, as the shifts of its two slots.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for &(l, r) in c.member_edges.iter().flatten() {
        let edge = (slots.shift_of(l), slots.shift_of(r));
        if !edges.contains(&edge) {
            edges.push(edge);
        }
    }
    // An item no selector matches only shifts the witnesses, and a shift
    // keeps α < β as it is: no stored (violating) state comes to satisfy an
    // edge, so every position survives — and no step after the last tracked
    // item's can add to the answer.
    let last = c.last.iter().copied().max().unwrap_or(0);
    let mut satisfied_mass = 0.0;
    run_steps(
        W::ZERO,
        &rim.pi()[..=last],
        slots,
        budget,
        |i| c.shifts_only(i),
        |i, state, prob, row, frontier| {
            let matches = c.matches(i);
            for (j, &pj) in row.iter().enumerate() {
                let next = insert_witness(state, j as u32 + 1, matches, c.num_l, slots);
                // A satisfied edge stays satisfied: the prefix is absorbed.
                let satisfies_an_edge = edges.iter().any(|&(sl, sr)| {
                    let a = get_slot(&next, sl, mask);
                    a != 0 && a < get_slot(&next, sr, mask)
                });
                if satisfies_an_edge {
                    satisfied_mass += prob * pj;
                } else {
                    frontier.push(next, prob * pj);
                }
            }
        },
    )?;
    Ok(satisfied_mass.clamp(0.0, 1.0))
}

impl ExactSolver for TwoLabelSolver {
    fn name(&self) -> &'static str {
        "two-label"
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
        match Slots::new(m, compiled.num_slots(), 0).width() {
            0..=64 => solve_packed::<u64>(rim, &compiled, budget),
            65..=128 => solve_packed::<u128>(rim, &compiled, budget),
            _ => solve_packed::<Wide>(rim, &compiled, budget),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute::BruteForceSolver;
    use crate::exact::reference;
    use crate::testutil::{cyclic_labeling, rim, sel};
    use ppd_patterns::{Pattern, PatternUnion};

    /// The kernel on each of its three keys, then the map-based oracle.
    fn every_kernel(
        model: &RimModel,
        lab: &Labeling,
        union: &PatternUnion,
        budget: Option<&Budget>,
    ) -> [Result<f64>; 4] {
        let members = satisfiable_members(model, lab, union).expect("a satisfiable union");
        let c = compile(model, lab, &members);
        [
            solve_packed::<u64>(model, &c, budget),
            solve_packed::<u128>(model, &c, budget),
            solve_packed::<Wide>(model, &c, budget),
            reference::two_label(model, lab, union, budget),
        ]
    }

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
        for &m in &[4usize, 6, 9] {
            for &phi in &[0.0, 0.3, 1.0] {
                let model = rim(m, phi);
                let lab = cyclic_labeling(m, 3);
                for union in two_label_unions() {
                    let [narrow, wide, multiword, reference] =
                        every_kernel(&model, &lab, &union, None).map(|p| p.unwrap().to_bits());
                    let what = format!("m={m}, phi={phi}, {union:?}");
                    assert_eq!(narrow, reference, "u64: {what}");
                    assert_eq!(wide, reference, "u128: {what}");
                    assert_eq!(multiword, reference, "multiword: {what}");
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
        let budget = Budget::with_max_states(2);
        assert!(matches!(
            TwoLabelSolver::with_budget(budget.clone()).solve(&model, &lab, &union),
            Err(SolverError::BudgetExceeded(_))
        ));
        for result in every_kernel(&model, &lab, &union, Some(&budget)) {
            assert!(matches!(result, Err(SolverError::BudgetExceeded(_))));
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
