//! Decomposition of patterns and pattern unions into item-level partial
//! orders and sub-rankings (Section 5.2 of the paper).
//!
//! A pattern `g` is satisfied by a ranking iff the ranking extends at least
//! one *instantiation* of the pattern: a partial order obtained by assigning
//! each pattern node a concrete candidate item and materialising the edges.
//! Each partial order is in turn equivalent to the union of its linear
//! extensions (sub-rankings). The importance-sampling solvers operate on the
//! resulting union of sub-rankings.

use crate::label::Labeling;
use crate::pattern::Pattern;
use crate::union::PatternUnion;
use crate::{PatternError, Result};
use ppd_rim::{Item, PartialOrder, SubRanking};
use std::collections::BTreeSet;

/// Caps applied during decomposition so that pathological inputs fail fast
/// instead of exhausting memory. The paper acknowledges that a pattern union
/// corresponds to exponentially many sub-rankings; MIS-AMP-lite only ever
/// consumes a prefix sorted by estimated distance, so a generous cap does not
/// change its behaviour on the benchmark workloads.
#[derive(Debug, Clone, Copy)]
pub struct DecompositionLimits {
    /// Maximum number of item-level partial orders per union.
    pub max_partial_orders: usize,
    /// Maximum number of sub-rankings per union.
    pub max_subrankings: usize,
}

impl Default for DecompositionLimits {
    fn default() -> Self {
        DecompositionLimits {
            max_partial_orders: 200_000,
            max_subrankings: 200_000,
        }
    }
}

/// The result of decomposing a pattern union.
#[derive(Debug, Clone)]
pub struct UnionDecomposition {
    /// Distinct item-level partial orders (the `υ ∈ ∆(g, λ)` of the paper),
    /// over all members of the union.
    pub partial_orders: Vec<PartialOrder>,
    /// Distinct sub-rankings (the `ψ` of the paper) over all members.
    pub subrankings: Vec<SubRanking>,
}

/// Decomposes a single pattern into its item-level partial orders under the
/// given labeling: one partial order per assignment of candidate items to
/// pattern nodes that does not contradict itself.
fn decompose_pattern(
    pattern: &Pattern,
    universe: &[Item],
    labeling: &Labeling,
    limits: &DecompositionLimits,
) -> Result<Vec<PartialOrder>> {
    let candidates = pattern.candidate_sets(universe, labeling)?;
    let q = pattern.num_nodes();
    let mut seen: BTreeSet<Vec<(Item, Item)>> = BTreeSet::new();
    let mut out: Vec<PartialOrder> = Vec::new();

    // Enumerate node→item assignments with a mixed-radix counter.
    let mut idx = vec![0usize; q];
    loop {
        // Build the instantiated partial order; skip contradictory ones.
        let mut edges: Vec<(Item, Item)> = Vec::with_capacity(pattern.num_edges());
        let mut valid = true;
        for &(a, b) in pattern.edges() {
            let (ia, ib) = (candidates[a][idx[a]], candidates[b][idx[b]]);
            if ia == ib {
                valid = false;
                break;
            }
            edges.push((ia, ib));
        }
        if valid {
            edges.sort_unstable();
            edges.dedup();
            if !seen.contains(&edges) {
                if let Ok(po) = PartialOrder::from_pairs(&edges) {
                    // Register isolated nodes of edgeless patterns so the
                    // partial order still mentions the matched items.
                    if pattern.num_edges() == 0 {
                        let mut po = po;
                        for (u, &choice) in idx.iter().enumerate() {
                            po.add_item(candidates[u][choice]);
                        }
                        seen.insert(edges);
                        out.push(po);
                    } else {
                        seen.insert(edges);
                        out.push(po);
                    }
                    if out.len() > limits.max_partial_orders {
                        return Err(PatternError::DecompositionTooLarge {
                            produced: out.len(),
                            cap: limits.max_partial_orders,
                        });
                    }
                }
                // Cyclic instantiations are simply skipped: no ranking can
                // extend them, so they contribute nothing to the union.
            }
        }
        // Advance the counter.
        let mut pos = 0;
        loop {
            if pos == q {
                return Ok(out);
            }
            idx[pos] += 1;
            if idx[pos] < candidates[pos].len() {
                break;
            }
            idx[pos] = 0;
            pos += 1;
        }
    }
}

/// Decomposes a pattern union into item-level partial orders and
/// sub-rankings. Both lists are deduplicated across members.
pub fn decompose_union(
    union: &PatternUnion,
    universe: &[Item],
    labeling: &Labeling,
    limits: &DecompositionLimits,
) -> Result<UnionDecomposition> {
    let mut partial_orders: Vec<PartialOrder> = Vec::new();
    let mut seen_po: BTreeSet<Vec<(Item, Item)>> = BTreeSet::new();
    let mut subrankings: Vec<SubRanking> = Vec::new();
    let mut seen_sub: BTreeSet<Vec<Item>> = BTreeSet::new();

    for pattern in union.patterns() {
        let pos = match decompose_pattern(pattern, universe, labeling, limits) {
            Ok(p) => p,
            // A member whose selector matches nothing contributes nothing.
            Err(PatternError::EmptySelector(_)) => continue,
            Err(e) => return Err(e),
        };
        for po in pos {
            let mut key = po.edges();
            key.sort_unstable();
            if !seen_po.insert(key) {
                continue;
            }
            let extensions = po.linear_extensions(limits.max_subrankings).ok_or(
                PatternError::DecompositionTooLarge {
                    produced: limits.max_subrankings,
                    cap: limits.max_subrankings,
                },
            )?;
            for ext in extensions {
                if seen_sub.insert(ext.items().to_vec()) {
                    subrankings.push(ext);
                    if subrankings.len() > limits.max_subrankings {
                        return Err(PatternError::DecompositionTooLarge {
                            produced: subrankings.len(),
                            cap: limits.max_subrankings,
                        });
                    }
                }
            }
            partial_orders.push(po);
        }
    }
    if subrankings.is_empty() {
        return Err(PatternError::EmptySelector(
            "no member of the union is satisfiable under the labeling".into(),
        ));
    }
    Ok(UnionDecomposition {
        partial_orders,
        subrankings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSelector;
    use crate::satisfy::satisfies_union;
    use ppd_rim::Ranking;

    fn sel(l: u32) -> NodeSelector {
        NodeSelector::single(l)
    }

    /// Items 0,1 carry label 0; items 2,3 carry label 1; item 4 carries label 2.
    fn labeling() -> Labeling {
        let mut lab = Labeling::new();
        lab.add(0, 0);
        lab.add(1, 0);
        lab.add(2, 1);
        lab.add(3, 1);
        lab.add(4, 2);
        lab
    }

    #[test]
    fn two_label_pattern_decomposes_into_pairs() {
        let lab = labeling();
        let g = Pattern::two_label(sel(0), sel(1));
        let pos =
            decompose_pattern(&g, &[0, 1, 2, 3, 4], &lab, &DecompositionLimits::default()).unwrap();
        // 2 candidates for each side → 4 distinct pairs.
        assert_eq!(pos.len(), 4);
        for po in &pos {
            assert_eq!(po.edges().len(), 1);
        }
    }

    #[test]
    fn contradictory_instantiations_are_skipped() {
        let lab = labeling();
        // l0 ≻ l0 over two items with label 0: instantiations (0,1) and (1,0)
        // survive, (0,0) and (1,1) are contradictory.
        let g = Pattern::two_label(sel(0), sel(0));
        let pos = decompose_pattern(&g, &[0, 1], &lab, &DecompositionLimits::default()).unwrap();
        assert_eq!(pos.len(), 2);
    }

    #[test]
    fn empty_selector_is_an_error() {
        let lab = labeling();
        let g = Pattern::two_label(sel(0), sel(9));
        assert!(matches!(
            decompose_pattern(&g, &[0, 1, 2], &lab, &DecompositionLimits::default()),
            Err(PatternError::EmptySelector(_))
        ));
    }

    #[test]
    fn cap_is_enforced() {
        let lab = labeling();
        let g = Pattern::two_label(sel(0), sel(1));
        let limits = DecompositionLimits {
            max_partial_orders: 2,
            max_subrankings: 2,
        };
        assert!(matches!(
            decompose_pattern(&g, &[0, 1, 2, 3, 4], &lab, &limits),
            Err(PatternError::DecompositionTooLarge { .. })
        ));
    }

    #[test]
    fn union_decomposition_equivalence() {
        // Invariant: a ranking satisfies the union iff it is consistent with
        // at least one decomposed sub-ranking.
        let lab = labeling();
        let universe = [0u32, 1, 2, 3, 4];
        let g1 = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2)]).unwrap();
        let g2 = Pattern::two_label(sel(2), sel(0));
        let union = PatternUnion::new(vec![g1, g2]).unwrap();
        let dec =
            decompose_union(&union, &universe, &lab, &DecompositionLimits::default()).unwrap();
        assert!(!dec.subrankings.is_empty());
        assert!(!dec.partial_orders.is_empty());
        for tau in Ranking::enumerate_all(&universe) {
            let direct = satisfies_union(&tau, &lab, &union);
            let via_subrankings = dec.subrankings.iter().any(|psi| psi.is_consistent(&tau));
            let via_pos = dec.partial_orders.iter().any(|po| po.is_consistent(&tau));
            assert_eq!(direct, via_subrankings, "ranking {tau}");
            assert_eq!(direct, via_pos, "ranking {tau}");
        }
    }

    #[test]
    fn vee_pattern_produces_both_extensions() {
        // Pattern with two parents of one child over singleton candidate sets
        // reproduces the ψ1/ψ2 example of Section 5.2.
        let mut lab = Labeling::new();
        lab.add(0, 0);
        lab.add(1, 1);
        lab.add(2, 2);
        let g = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 2), (1, 2)]).unwrap();
        let union = PatternUnion::singleton(g).unwrap();
        let dec =
            decompose_union(&union, &[0, 1, 2], &lab, &DecompositionLimits::default()).unwrap();
        assert_eq!(dec.partial_orders.len(), 1);
        assert_eq!(dec.subrankings.len(), 2);
    }

    #[test]
    fn wholly_unsatisfiable_union_is_an_error() {
        let lab = labeling();
        let g = Pattern::two_label(sel(9), sel(8));
        let union = PatternUnion::singleton(g).unwrap();
        assert!(decompose_union(&union, &[0, 1], &lab, &DecompositionLimits::default()).is_err());
    }
}
