//! Exact marginal probability of a *single* label pattern over a labeled RIM
//! model — the subroutine the general inclusion–exclusion solver needs for
//! every conjunction of union members.
//!
//! The paper delegates this step to the LTM solver of Cohen et al.
//! (SIGMOD'18). We substitute two exact strategies:
//!
//! * bipartite (including two-label) patterns are dispatched to the
//!   min/max-position DP of [`crate::BipartiteSolver`];
//! * general DAG patterns are solved by a *relevant-item-position* DP over
//!   the RIM insertion process: the state records, for every item that can
//!   participate in an embedding (items matching at least one pattern node),
//!   its current absolute position — or nothing, if it has not been inserted
//!   yet. A state whose placed items already satisfy the pattern is absorbed
//!   into the answer immediately — inserting more items never invalidates an
//!   embedding — which keeps the reachable state space far below its
//!   worst-case size.
//!
//! Both strategies are exact; the general one is exponential in the number of
//! relevant items, matching the role of the general solver as a provably
//! correct but non-scalable baseline. The general DP, like the two-label and
//! bipartite solvers, has a packed kernel (one `slot_bits(m)`-wide field per
//! relevant item in a `u64`/`u128`, see `exact::packed`) and a
//! retained map-based reference kernel for the equivalence suite, used as
//! the fallback when the packing width exceeds 128 bits.
//!
//! # What the packed kernel compiles per solve
//!
//! "Does this placed prefix already embed the pattern?" is asked on every
//! relevant step, of every state, once per *gap* between the positions placed
//! so far (the new item's order relative to every placed one — all the
//! answer depends on — is the same across a gap; see
//! `exact::packed::for_each_gap`), so the packed kernel builds the question
//! once per solve — a [`CompiledPattern`]: the pattern's nodes in a
//! topological order, each node's parents as ranks into that order, and each
//! node's candidates as the *slot shifts* of the relevant items its selector
//! matches — and evaluates it directly on the packed word. A slot holds an
//! encoded position: `0` for an item not placed yet, `p + 1` for absolute
//! position `p`. Walking the nodes in topological order, a node takes the
//! smallest encoded position among its candidates that is strictly above
//! every parent's chosen one (a root's bound is `0`, which rules out unplaced
//! candidates); the prefix embeds the pattern iff every node finds one. That
//! is `ppd_patterns::find_embedding`'s greedy earliest embedding — the same
//! compiled form, read through a different position lookup — on a position
//! set order-isomorphic to the prefix ranking's, so the transition loop
//! builds no `Ranking`, hashes nothing, sorts nothing and allocates nothing,
//! and decides exactly what the reference kernel's `satisfies_pattern` on a
//! rebuilt `Ranking` decides.
//!
//! # Why the kernel stops at the last relevant step
//!
//! Mass is absorbed into the answer only when a relevant item is placed: a
//! step that inserts any other item changes no relative order among the
//! relevant ones, hence no embedding. After the step that places the last
//! relevant item the answer is therefore final, and the packed kernel ends
//! there (or earlier, once the frontier is empty) instead of splitting and
//! re-merging the surviving states for the rest of σ; it does not merge the
//! frontier that last step would leave behind either, since nothing reads it.
//! Every `satisfied_mass += p_new` it executes is one the full-length loop
//! executes, in the same order and with the same operands — the steps it
//! skips add nothing to that sum — so no bit of the answer can move. The
//! reference kernel keeps running all `m` steps; that is what makes it an
//! oracle for this.
//!
//! The steps in between that place no relevant item only shift the placed
//! ones, and cost one successor per gap instead of one per position
//! (`Frontier::push_shifts`). On a relevant step the successor spells out the
//! position taken and, un-shifted, the state it was taken from, so no two
//! transitions share one and each is appended without a lookup
//! (`Frontier::push_unshared`).

use crate::budget::Budget;
use crate::exact::bipartite::BipartiteSolver;
use crate::exact::packed::{self, Frontier, Slots, Word};
use crate::traits::ExactSolver;
use crate::{Result, SolverError};
use ppd_patterns::{
    satisfies_pattern, CompiledPattern, Labeling, Pattern, PatternError, PatternUnion,
};
use ppd_rim::{Item, Ranking, RimModel};
use std::collections::BTreeMap;

/// Exact single-pattern solver (the LTM substitute).
#[derive(Debug, Clone, Default)]
pub struct PatternSolver {
    budget: Option<Budget>,
    force_reference: bool,
}

impl PatternSolver {
    /// Creates a solver without resource limits.
    pub fn new() -> Self {
        PatternSolver::default()
    }

    /// Attaches a resource budget. The general-DAG DP polls it once per
    /// *executed* insertion step that leaves a frontier behind: every step
    /// up to, but not including, the one that places the pattern's last
    /// relevant item, where the answer is final and nothing remains to
    /// abort. A `with_max_states` cap or time limit that only those skipped
    /// steps would have tripped therefore no longer fails the solve, and a
    /// cancellation probe is polled that many times at most.
    pub fn with_budget(budget: Budget) -> Self {
        PatternSolver {
            budget: Some(budget),
            force_reference: false,
        }
    }

    /// A solver pinned to the map-based reference kernel for its general-DAG
    /// DP (bipartite dispatch also uses the reference bipartite kernel);
    /// used by the equivalence suite and the `solver_kernels` benchmark.
    pub fn reference() -> Self {
        PatternSolver {
            budget: None,
            force_reference: true,
        }
    }

    /// Width in bits of the packed general-DAG state for this pattern (one
    /// slot per relevant item), or `None` when the instance falls back to
    /// the reference kernel or is not solved by the general DP at all
    /// (bipartite dispatch, unsatisfiable or edgeless patterns). Exposed for
    /// the fallback-path tests and the kernel benchmark.
    #[doc(hidden)]
    pub fn packed_state_width(
        rim: &RimModel,
        labeling: &Labeling,
        pattern: &Pattern,
    ) -> Option<u32> {
        if pattern.is_bipartite() || pattern.num_edges() == 0 {
            return None;
        }
        let candidates = pattern.candidate_sets(rim.sigma().items(), labeling).ok()?;
        let relevant = relevant_items(&candidates);
        let width = packed::slot_bits(rim.num_items()) * relevant.len() as u32;
        (width <= 128).then_some(width)
    }

    /// Computes `Pr(g | σ, Π, λ)` for a single pattern.
    pub fn solve_pattern(
        &self,
        rim: &RimModel,
        labeling: &Labeling,
        pattern: &Pattern,
    ) -> Result<f64> {
        if rim.num_items() == 0 {
            return Err(SolverError::InvalidInstance("empty item universe".into()));
        }
        // A pattern with an unmatched selector can never be satisfied.
        match pattern.candidate_sets(rim.sigma().items(), labeling) {
            Ok(candidates) => self.solve_with_candidates(rim, labeling, pattern, &candidates),
            Err(PatternError::EmptySelector(_)) => Ok(0.0),
            Err(e) => Err(e.into()),
        }
    }

    /// [`PatternSolver::solve_pattern`] for a caller that already holds the
    /// pattern's (all non-empty) candidate sets over the model's items — the
    /// general solver computes them to prune unsatisfiable members.
    pub(crate) fn solve_with_candidates(
        &self,
        rim: &RimModel,
        labeling: &Labeling,
        pattern: &Pattern,
        candidates: &[Vec<Item>],
    ) -> Result<f64> {
        if pattern.is_bipartite() {
            let mut solver = if self.force_reference {
                BipartiteSolver::reference()
            } else {
                BipartiteSolver::new()
            };
            if let Some(b) = &self.budget {
                solver = solver.with_budget(b.clone());
            }
            return solver.solve(rim, labeling, &PatternUnion::singleton(pattern.clone())?);
        }
        if pattern.num_edges() == 0 {
            // Every selector matches some item, and with no edges any ranking
            // over the full universe satisfies the pattern.
            return Ok(1.0);
        }
        self.solve_general(rim, labeling, pattern, candidates)
    }

    /// Relevant-item-position DP for general DAG patterns.
    fn solve_general(
        &self,
        rim: &RimModel,
        labeling: &Labeling,
        pattern: &Pattern,
        candidates: &[Vec<Item>],
    ) -> Result<f64> {
        let m = rim.num_items();
        let relevant = relevant_items(candidates);
        // Per insertion step: the relevant-item slot the step's item owns.
        let slot_of_step: Vec<Option<usize>> = (0..m)
            .map(|i| relevant.binary_search(&rim.sigma().item_at(i)).ok())
            .collect();
        let budget = self.budget.as_ref();
        let width = packed::slot_bits(m) * relevant.len() as u32;
        if self.force_reference || width > 128 {
            reference::solve(rim, labeling, pattern, &relevant, &slot_of_step, budget)
        } else if width <= 64 {
            solve_general_packed::<u64>(rim, pattern, candidates, &relevant, &slot_of_step, budget)
        } else {
            solve_general_packed::<u128>(rim, pattern, candidates, &relevant, &slot_of_step, budget)
        }
    }
}

/// Relevant items: anything that matches at least one pattern node, sorted
/// so each item owns a stable slot index.
fn relevant_items(candidates: &[Vec<Item>]) -> Vec<Item> {
    let mut relevant: Vec<Item> = candidates.iter().flatten().copied().collect();
    relevant.sort_unstable();
    relevant.dedup();
    relevant
}

/// The retained map-based general-DAG kernel. The state is the vector of
/// current absolute positions of the relevant items (`None` = not inserted
/// yet), whose derived lexicographic `Ord` matches the packed kernel's
/// big-endian slot layout — both kernels therefore iterate states in the
/// same order and sum floats identically.
pub(crate) mod reference {
    use super::*;

    type State = Vec<Option<u32>>;

    pub(crate) fn solve(
        rim: &RimModel,
        labeling: &Labeling,
        pattern: &Pattern,
        relevant: &[Item],
        slot_of_step: &[Option<usize>],
        budget: Option<&Budget>,
    ) -> Result<f64> {
        let m = rim.num_items();
        // BTreeMap, not HashMap: deterministic iteration fixes the float
        // summation order, making the result bit-reproducible across calls
        // (the evaluation engine's determinism contract relies on this).
        let mut states: BTreeMap<State, f64> = BTreeMap::new();
        states.insert(vec![None; relevant.len()], 1.0);
        let mut satisfied_mass = 0.0;

        let placed_satisfies = |placed: &State| -> bool {
            let mut by_position: Vec<(u32, Item)> = placed
                .iter()
                .zip(relevant)
                .filter_map(|(slot, &item)| slot.map(|pos| (pos, item)))
                .collect();
            by_position.sort_unstable();
            let ranking = Ranking::new(by_position.into_iter().map(|(_, it)| it).collect())
                .expect("placed items are distinct");
            satisfies_pattern(&ranking, labeling, pattern)
        };

        for (i, &slot) in slot_of_step.iter().enumerate().take(m) {
            let mut next: BTreeMap<State, f64> = BTreeMap::new();
            for (state, prob) in &states {
                for j in 0..=i {
                    let p_new = prob * rim.insertion_prob(i, j);
                    // Shift the placed items at or below the insertion point.
                    let mut placed: State = state
                        .iter()
                        .map(|slot| slot.map(|pos| if pos >= j as u32 { pos + 1 } else { pos }))
                        .collect();
                    if let Some(r) = slot {
                        placed[r] = Some(j as u32);
                        if placed_satisfies(&placed) {
                            satisfied_mass += p_new;
                            continue;
                        }
                    }
                    *next.entry(placed).or_insert(0.0) += p_new;
                }
            }
            if let Some(budget) = budget {
                budget.check(next.len())?;
            }
            states = next;
        }
        // States that survive to the end never satisfied the pattern: the
        // relative order of all relevant items is fully determined and the
        // satisfaction check already ran when the last relevant item was
        // placed.
        Ok(satisfied_mass.clamp(0.0, 1.0))
    }
}

/// The packed general-DAG kernel: one `slot_bits(m)`-wide field per relevant
/// item, flat sorted frontier, reused buffers, per-step insertion row, and the
/// embedding check compiled once over the slots' shifts and read straight off
/// the packed word.
fn solve_general_packed<W: Word>(
    rim: &RimModel,
    pattern: &Pattern,
    candidates: &[Vec<Item>],
    relevant: &[Item],
    slot_of_step: &[Option<usize>],
    budget: Option<&Budget>,
) -> Result<f64> {
    let slots = Slots::new(rim.num_items(), relevant.len(), 0);
    let mask = slots.mask();

    let check = CompiledPattern::new(pattern, candidates, |item| {
        slots.shift_of(
            relevant
                .binary_search(&item)
                .expect("candidates are relevant"),
        )
    })?;
    let mut chosen = vec![0u32; check.num_nodes()];
    // No step after the one that places the last relevant item can absorb
    // anything: `satisfied_mass` is final there, and the frontier that step
    // would leave behind is never read.
    let steps = slot_of_step
        .iter()
        .rposition(Option::is_some)
        .map_or(0, |last| last + 1);

    let mut frontier: Frontier<W> = Frontier::new(W::ZERO);
    let mut satisfied_mass = 0.0;
    for (i, (&step_slot, row)) in slot_of_step.iter().zip(rim.pi()).enumerate().take(steps) {
        let is_last = i + 1 == steps;
        let states = frontier.take_states();
        for &(state, prob) in &states {
            let Some(r) = step_slot else {
                // Any other item only shifts the placed ones: no relative
                // order among them changes, hence no embedding. (Never the
                // last step, which places a relevant item by definition.)
                frontier.push_shifts(state, prob, row, slots);
                continue;
            };
            // Across a gap the new item keeps its order relative to every
            // placed one, so the embedding check has one verdict per gap;
            // the mass still moves one position at a time, in order.
            let own_shift = slots.shift_of(r);
            packed::for_each_gap(state, row.len(), slots, |shifted, gap| {
                let placed_at = |j: usize| shifted.or(W::from_u32(j as u32 + 1).shl(own_shift));
                let placed = placed_at(gap.start);
                let position = |shift| packed::get_slot(placed, shift, mask);
                let embeds = check.embeds(position, &mut chosen);
                for j in gap {
                    let p_new = prob * row[j];
                    if embeds {
                        satisfied_mass += p_new;
                    } else if !is_last {
                        frontier.push_unshared(placed_at(j), p_new);
                    }
                }
            });
        }
        if is_last {
            break;
        }
        let next_len = frontier.merge_step(states);
        if let Some(budget) = budget {
            budget.check(next_len)?;
        }
        if next_len == 0 {
            break;
        }
    }
    Ok(satisfied_mass.clamp(0.0, 1.0))
}

impl ExactSolver for PatternSolver {
    fn name(&self) -> &'static str {
        if self.force_reference {
            "pattern-exact-reference"
        } else {
            "pattern-exact"
        }
    }

    /// Treats a singleton union as its member pattern; larger unions are the
    /// job of [`crate::GeneralSolver`].
    fn solve(&self, rim: &RimModel, labeling: &Labeling, union: &PatternUnion) -> Result<f64> {
        if union.num_patterns() != 1 {
            return Err(SolverError::Unsupported(
                "PatternSolver handles a single pattern; use GeneralSolver for unions".into(),
            ));
        }
        self.solve_pattern(rim, labeling, &union.patterns()[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute::BruteForceSolver;
    use crate::testutil::{cyclic_labeling, rim, sel};
    use ppd_patterns::Pattern;

    #[test]
    fn chain_patterns_agree_with_brute_force() {
        let brute = BruteForceSolver::new();
        let solver = PatternSolver::new();
        let chain3 = Pattern::new(vec![sel(1), sel(2), sel(0)], vec![(0, 1), (1, 2)]).unwrap();
        let diamond = Pattern::new(
            vec![sel(0), sel(1), sel(2), sel(0)],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap();
        for &m in &[4usize, 5, 6] {
            for &phi in &[0.1, 0.6, 1.0] {
                let model = rim(m, phi);
                let lab = cyclic_labeling(m, 3);
                for pattern in [&chain3, &diamond] {
                    let expected = brute
                        .solve(
                            &model,
                            &lab,
                            &PatternUnion::singleton(pattern.clone()).unwrap(),
                        )
                        .unwrap();
                    let got = solver.solve_pattern(&model, &lab, pattern).unwrap();
                    assert!(
                        (expected - got).abs() < 1e-9,
                        "m={m} phi={phi} pattern={pattern:?}: {expected} vs {got}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_kernel_is_bit_identical_to_reference() {
        let packed = PatternSolver::new();
        let reference = PatternSolver::reference();
        let chain3 = Pattern::new(vec![sel(1), sel(2), sel(0)], vec![(0, 1), (1, 2)]).unwrap();
        let diamond = Pattern::new(
            vec![sel(0), sel(1), sel(2), sel(0)],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap();
        for &m in &[4usize, 6, 7] {
            for &phi in &[0.0, 0.4, 1.0] {
                let model = rim(m, phi);
                let lab = cyclic_labeling(m, 3);
                for pattern in [&chain3, &diamond] {
                    let a = packed.solve_pattern(&model, &lab, pattern).unwrap();
                    let b = reference.solve_pattern(&model, &lab, pattern).unwrap();
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "m={m} phi={phi}: packed {a} vs reference {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn bipartite_dispatch_agrees_with_brute_force() {
        let model = rim(6, 0.3);
        let lab = cyclic_labeling(6, 3);
        let vee = Pattern::new(vec![sel(2), sel(0), sel(1)], vec![(0, 1), (0, 2)]).unwrap();
        let expected = BruteForceSolver::new()
            .solve(&model, &lab, &PatternUnion::singleton(vee.clone()).unwrap())
            .unwrap();
        let got = PatternSolver::new()
            .solve_pattern(&model, &lab, &vee)
            .unwrap();
        assert!((expected - got).abs() < 1e-9);
    }

    #[test]
    fn unsatisfiable_pattern_is_zero() {
        let model = rim(5, 0.5);
        let lab = cyclic_labeling(5, 3);
        let p = Pattern::new(vec![sel(0), sel(9), sel(1)], vec![(0, 1), (1, 2)]).unwrap();
        assert_eq!(
            PatternSolver::new()
                .solve_pattern(&model, &lab, &p)
                .unwrap(),
            0.0
        );
    }

    #[test]
    fn edgeless_pattern_is_one_when_selectors_match() {
        let model = rim(5, 0.5);
        let lab = cyclic_labeling(5, 3);
        let p = Pattern::new(vec![sel(0), sel(1)], vec![]).unwrap();
        assert_eq!(
            PatternSolver::new()
                .solve_pattern(&model, &lab, &p)
                .unwrap(),
            1.0
        );
    }

    #[test]
    fn non_singleton_union_rejected_via_trait() {
        let model = rim(5, 0.5);
        let lab = cyclic_labeling(5, 3);
        let union = PatternUnion::new(vec![
            Pattern::two_label(sel(0), sel(1)),
            Pattern::two_label(sel(1), sel(2)),
        ])
        .unwrap();
        assert!(matches!(
            PatternSolver::new().solve(&model, &lab, &union),
            Err(SolverError::Unsupported(_))
        ));
    }

    #[test]
    fn crowdrank_style_chain_on_moderate_m() {
        // A 3-node chain over m = 8 with overlapping candidate sets stays
        // exact and within [0, 1].
        let model = rim(8, 0.5);
        let lab = cyclic_labeling(8, 3);
        let chain = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2)]).unwrap();
        let p = PatternSolver::new()
            .solve_pattern(&model, &lab, &chain)
            .unwrap();
        let expected = BruteForceSolver::new()
            .solve(&model, &lab, &PatternUnion::singleton(chain).unwrap())
            .unwrap();
        assert!((expected - p).abs() < 1e-9);
    }

    #[test]
    fn packed_state_width_reported() {
        let model = rim(6, 0.5);
        let lab = cyclic_labeling(6, 3);
        let chain = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2)]).unwrap();
        // All 6 items match some node under the 3-label cyclic labeling:
        // 6 slots × 3 bits.
        assert_eq!(
            PatternSolver::packed_state_width(&model, &lab, &chain),
            Some(18)
        );
        // Bipartite patterns never use the general DP.
        let vee = Pattern::new(vec![sel(2), sel(0), sel(1)], vec![(0, 1), (0, 2)]).unwrap();
        assert_eq!(PatternSolver::packed_state_width(&model, &lab, &vee), None);
    }
}
