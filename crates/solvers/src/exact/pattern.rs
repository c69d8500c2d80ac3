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
//! correct but non-scalable baseline. Like the two-label and bipartite
//! kernels, the general DP packs a state into one unsigned key (one
//! `slot_bits(m)`-wide field per relevant item, a multiword key beyond 128
//! bits) and runs on the step loop of `exact::packed`.
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
//! and decides exactly what the map-based oracle's `satisfies_pattern` on a
//! rebuilt `Ranking` decides.
//!
//! # Why the kernel stops at the last relevant step
//!
//! Mass is absorbed into the answer only when a relevant item is placed: a
//! step that inserts any other item changes no relative order among the
//! relevant ones, hence no embedding. After the step that places the last
//! relevant item the answer is therefore final, and the packed kernel ends
//! there (or earlier, once the frontier is empty) instead of splitting and
//! re-merging the surviving states for the rest of σ; that last step pushes
//! nothing, since nothing reads the frontier it would leave behind.
//! Every `satisfied_mass += p_new` it executes is one the full-length loop
//! executes, in the same order and with the same operands — the steps it
//! skips add nothing to that sum — so no bit of the answer can move. The
//! map-based oracle keeps running all `m` steps; that is what makes it an
//! oracle for this.
//!
//! The steps in between that place no relevant item only shift the placed
//! ones, and cost one successor per gap instead of one per position
//! (`Frontier::push_shifts`). On a relevant step the successor spells out the
//! position taken and, un-shifted, the state it was taken from, so no two
//! transitions share one and each is appended without a lookup
//! (`Frontier::push_unshared`).
//!
//! # Which prefixes the kernel keeps
//!
//! A prefix that does not embed the pattern yet is worth carrying only if the
//! items still to come can change that. Whether they can is a question about
//! the pattern and the *order* of the placed relevant items, not about mass:
//! on a step that places a relevant item the packed kernel asks it once per
//! gap, right after the embedding check and of the same packed word
//! ([`CompiledPattern::can_complete`], the check's optimistic twin — a node
//! that still has an unplaced candidate takes its parents' bound instead of
//! failing), and pushes nothing for a gap whose prefix is dead. On `a ≻ b ≻ c`
//! over three items that is half the frontier from the second item on (the two
//! placed items are in the wrong order, and stay so through every shift step
//! up to the third), and the share grows with the number of nodes — where the
//! exponent of Section 4.1 lives. The walk never calls a prefix dead
//! that some completion embeds; with shared or several candidates per node it
//! may keep one that none does, which costs time and no correctness.
//!
//! No bit of the answer can move. Dead mass never reaches `satisfied_mass`:
//! a step that places no relevant item changes no relative order, hence no
//! verdict, and a successor of a dead prefix on a relevant step is dead too
//! (a completion of the successor is one of the prefix). Read the other way, a
//! live state has only live predecessors, so every transition into a state the
//! kernel keeps comes from a state it kept: the survivors' `+=` keep their
//! operands and — sources ascending by key, positions ascending, closed by
//! `Frontier::merge_step`'s sort — their order. The question is not asked on
//! the last relevant step, which pushes nothing anyway. What does change is
//! what a [`Budget`] sees: `with_max_states` now caps the *live* frontier. The
//! map-based oracle prunes nothing, which keeps it an oracle for this too.

use crate::budget::Budget;
use crate::exact::bipartite::BipartiteSolver;
use crate::exact::packed::{self, get_slot, run_steps, Slots, Wide, Word};
use crate::traits::ExactSolver;
use crate::{Result, SolverError};
use ppd_patterns::{CompiledPattern, Labeling, Pattern, PatternError, PatternUnion};
use ppd_rim::{Item, RimModel};

/// Exact single-pattern solver (the LTM substitute).
#[derive(Debug, Clone, Default)]
pub struct PatternSolver {
    budget: Option<Budget>,
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
    ///
    /// The frontier a step leaves behind is the *live* one: prefixes no
    /// placement of the remaining items can complete are dropped as they
    /// arise (see "Which prefixes the kernel keeps" in the module docs) and
    /// count against no cap.
    pub fn with_budget(budget: Budget) -> Self {
        PatternSolver {
            budget: Some(budget),
        }
    }

    /// Width in bits of the packed general-DAG state for this pattern (one
    /// slot per relevant item), or `None` when it exceeds 128 bits and the
    /// kernel runs on a multiword key, or when the pattern is not solved by
    /// the general DP at all (bipartite dispatch, unsatisfiable or edgeless
    /// patterns). Exposed for the wide-state tests and the kernel benchmark.
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
        let width = Slots::new(rim.num_items(), relevant.len(), 0).width();
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
            let mut solver = BipartiteSolver::new();
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
        self.solve_general(rim, pattern, candidates)
    }

    /// Relevant-item-position DP for general DAG patterns.
    fn solve_general(
        &self,
        rim: &RimModel,
        pattern: &Pattern,
        candidates: &[Vec<Item>],
    ) -> Result<f64> {
        let relevant = relevant_items(candidates);
        let budget = self.budget.as_ref();
        match Slots::new(rim.num_items(), relevant.len(), 0).width() {
            0..=64 => solve_general_packed::<u64>(rim, pattern, candidates, &relevant, budget),
            65..=128 => solve_general_packed::<u128>(rim, pattern, candidates, &relevant, budget),
            _ => solve_general_packed::<Wide>(rim, pattern, candidates, &relevant, budget),
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

/// Per insertion step: the relevant-item slot the step's item owns.
fn slot_of_step(rim: &RimModel, relevant: &[Item]) -> Vec<Option<usize>> {
    (rim.sigma().items().iter())
        .map(|item| relevant.binary_search(item).ok())
        .collect()
}

/// The packed general-DAG kernel: one `slot_bits(m)`-wide field per relevant
/// item, and the embedding check compiled once over the slots' shifts and
/// read straight off the packed key.
fn solve_general_packed<W: Word>(
    rim: &RimModel,
    pattern: &Pattern,
    candidates: &[Vec<Item>],
    relevant: &[Item],
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
    let slot_of_step = slot_of_step(rim, relevant);
    // No step after the one that places the last relevant item can absorb
    // anything: `satisfied_mass` is final there. That step pushes nothing
    // either, so its empty frontier ends the loop unpolled.
    let steps = slot_of_step
        .iter()
        .rposition(Option::is_some)
        .map_or(0, |last| last + 1);

    let mut satisfied_mass = 0.0;
    // Any other item only shifts the placed ones: no relative order among
    // them changes, hence no embedding. (Never the last step, which places a
    // relevant item by definition.)
    let shifts_only = |i: usize| slot_of_step[i].is_none();
    let rows = &rim.pi()[..steps];
    run_steps(
        W::ZERO,
        rows,
        slots,
        budget,
        shifts_only,
        |i, state, prob, row, frontier| {
            let is_last = i + 1 == steps;
            let own_shift =
                slots.shift_of(slot_of_step[i].expect("a step that places a relevant item"));
            // Across a gap the new item keeps its order relative to every
            // placed one, so the embedding check has one verdict per gap; the
            // mass still moves one position at a time, in order.
            packed::for_each_gap(state, row.len(), slots, |shifted, gap| {
                let placed_at = |j: usize| shifted.clone().or_at(own_shift, j as u64 + 1);
                let placed = placed_at(gap.start);
                let position = |shift| get_slot(&placed, shift, mask);
                if check.embeds(position, &mut chosen) {
                    for j in gap {
                        satisfied_mass += prob * row[j];
                    }
                } else if !is_last && check.can_complete(position, &mut chosen) {
                    // Still live: some placement of the items to come can
                    // embed. A prefix none can is dropped here, with every
                    // state it would have fanned out into.
                    for j in gap {
                        frontier.push_unshared(placed_at(j), prob * row[j]);
                    }
                }
            });
        },
    )?;
    Ok(satisfied_mass.clamp(0.0, 1.0))
}

impl ExactSolver for PatternSolver {
    fn name(&self) -> &'static str {
        "pattern-exact"
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
    use crate::exact::reference;
    use crate::testutil::{cyclic_labeling, rim, sel};
    use ppd_patterns::{satisfies_pattern, Pattern};
    use ppd_rim::Ranking;
    use proptest::prelude::*;

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
                    let b = reference::pattern(&model, &lab, pattern, None).unwrap();
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "m={m} phi={phi}: packed {a} vs reference {b}"
                    );
                }
            }
        }
    }

    /// The general DP packed in a `u64`, in a `u128` and in a multiword key,
    /// then the map-based oracle's, on any pattern whose selectors all match
    /// something, bipartite and edgeless ones included (the solver routes
    /// those elsewhere; the DP does not care).
    fn general_dp_on_every_kernel(
        model: &RimModel,
        lab: &Labeling,
        pattern: &Pattern,
        budget: Option<&Budget>,
    ) -> [Result<f64>; 4] {
        let candidates = pattern
            .candidate_sets(model.sigma().items(), lab)
            .expect("every selector matches an item");
        let relevant = relevant_items(&candidates);
        [
            solve_general_packed::<u64>(model, pattern, &candidates, &relevant, budget),
            solve_general_packed::<u128>(model, pattern, &candidates, &relevant, budget),
            solve_general_packed::<Wide>(model, pattern, &candidates, &relevant, budget),
            reference::general_dag(model, lab, pattern, budget),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Generated DAGs: 2–5 nodes, each possible edge `a → b` (a < b,
        /// nodes then listed from a random rotation so parents do not always
        /// precede their children) present or not, over `labels` labels dealt
        /// cyclically to 3–7 items — one label for all of them up to one
        /// each, so nodes share candidates, have several, or name one item.
        #[test]
        fn pruned_kernel_equals_the_reference_on_generated_dags(
            m in 3usize..=7,
            label_draw in 0u32..7,
            node_labels in proptest::collection::vec(0u32..7, 2..=5),
            edge_bits in 0u32..1024,
            rotate in 0usize..5,
            phi_index in 0usize..4,
        ) {
            let labels = 1 + label_draw % m as u32;
            let q = node_labels.len();
            let at = |i: usize| (i + rotate) % q;
            let mut nodes = vec![sel(0); q];
            for (i, &l) in node_labels.iter().enumerate() {
                nodes[at(i)] = sel(l % labels);
            }
            let mut edges = Vec::new();
            let mut bit = 0;
            for a in 0..q {
                for b in a + 1..q {
                    if edge_bits & (1 << bit) != 0 {
                        edges.push((at(a), at(b)));
                    }
                    bit += 1;
                }
            }
            let pattern = Pattern::new(nodes, edges).expect("edges go one way");
            let phi = [0.0, 0.2, 0.5, 1.0][phi_index];
            let (model, lab) = (rim(m, phi), cyclic_labeling(m, labels));
            let [narrow, wide, multiword, reference] =
                general_dp_on_every_kernel(&model, &lab, &pattern, None).map(Result::unwrap);
            prop_assert_eq!(narrow.to_bits(), reference.to_bits(), "u64 {} vs {}", narrow, reference);
            prop_assert_eq!(wide.to_bits(), reference.to_bits(), "u128 {} vs {}", wide, reference);
            prop_assert_eq!(
                multiword.to_bits(), reference.to_bits(), "multiword {} vs {}", multiword, reference
            );
            let brute = BruteForceSolver::new()
                .solve(&model, &lab, &PatternUnion::singleton(pattern).unwrap())
                .unwrap();
            prop_assert!((narrow - brute).abs() < 1e-12, "{} vs brute force {}", narrow, brute);
        }
    }

    /// What the kernel would carry without pruning: per executed step that
    /// leaves a frontier behind, the number of ways to put the relevant items
    /// inserted so far on distinct positions of the prefix without embedding
    /// the pattern (embedding is monotone, so those are exactly the prefixes
    /// no earlier step absorbed). Counted from the definition — positions
    /// enumerated, `satisfies_pattern` on the ranking they spell.
    fn unpruned_frontier_sizes(model: &RimModel, lab: &Labeling, pattern: &Pattern) -> Vec<usize> {
        let sigma = model.sigma().items();
        let candidates = pattern.candidate_sets(sigma, lab).unwrap();
        let steps = slot_of_step(model, &relevant_items(&candidates));
        let last = steps.iter().rposition(Option::is_some).unwrap_or(0);
        (0..last)
            .map(|step| {
                let placed: Vec<Item> = (sigma[..=step].iter().zip(&steps))
                    .filter_map(|(&item, slot)| slot.map(|_| item))
                    .collect();
                // Every injective map of `placed` into the step's positions.
                let mut placements: Vec<Vec<usize>> = vec![vec![]];
                for _ in &placed {
                    placements = (placements.iter())
                        .flat_map(|taken| {
                            (0..=step).filter(|pos| !taken.contains(pos)).map(|pos| {
                                let mut next = taken.clone();
                                next.push(pos);
                                next
                            })
                        })
                        .collect();
                }
                (placements.iter())
                    .filter(|positions| {
                        let mut by_position: Vec<(usize, Item)> = positions
                            .iter()
                            .copied()
                            .zip(placed.iter().copied())
                            .collect();
                        by_position.sort_unstable();
                        let prefix =
                            Ranking::new(by_position.into_iter().map(|(_, item)| item).collect())
                                .unwrap();
                        !satisfies_pattern(&prefix, lab, pattern)
                    })
                    .count()
            })
            .collect()
    }

    #[test]
    fn a_state_cap_counts_the_live_frontier() {
        // `solver_kernels`' item chain3 at m = 12: items 10 ≻ 1 ≻ 6, inserted
        // as 1, 6, 10. From step 6 on two of them are placed, in either
        // order without pruning; only "1 before 6" can still embed.
        let (model, lab) = (rim(12, 0.5), cyclic_labeling(12, 12));
        let chain = Pattern::new(vec![sel(10), sel(1), sel(6)], vec![(0, 1), (1, 2)]).unwrap();
        let unpruned_peak = *unpruned_frontier_sizes(&model, &lab, &chain)
            .iter()
            .max()
            .unwrap();
        assert_eq!(
            unpruned_peak,
            10 * 9,
            "steps 6..=9: ordered pairs of positions"
        );

        let capped = |cap: usize| {
            PatternSolver::with_budget(Budget::with_max_states(cap))
                .solve_pattern(&model, &lab, &chain)
        };
        let live_peak = (0..=unpruned_peak)
            .find(|&cap| capped(cap).is_ok())
            .expect("the kernel carries no more than the unpruned frontier");
        assert_eq!(live_peak, 10 * 9 / 2);
        assert!(matches!(
            capped(live_peak - 1),
            Err(SolverError::BudgetExceeded(_))
        ));
        // The cap of the acceptance bar: met by the kernel, exceeded by the
        // frontier it would carry unpruned — with the answer's bits in place.
        let cap = unpruned_peak * 55 / 100;
        assert!(live_peak <= cap && cap < unpruned_peak);
        let unbudgeted = PatternSolver::new()
            .solve_pattern(&model, &lab, &chain)
            .unwrap();
        assert_eq!(capped(cap).unwrap().to_bits(), unbudgeted.to_bits());
        // The map-based oracle drops nothing: it fails under the same cap.
        let [narrow, wide, multiword, reference] =
            general_dp_on_every_kernel(&model, &lab, &chain, Some(&Budget::with_max_states(cap)));
        assert_eq!(narrow.unwrap().to_bits(), unbudgeted.to_bits());
        assert_eq!(wide.unwrap().to_bits(), unbudgeted.to_bits());
        assert_eq!(multiword.unwrap().to_bits(), unbudgeted.to_bits());
        assert!(matches!(reference, Err(SolverError::BudgetExceeded(_))));
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
