//! The `ease` heuristic and relaxed upper-bound unions used by the
//! Most-Probable-Session top-k optimization (Sections 3.2 and 4.3.2).
//!
//! For a pattern `g`, every edge `(l, r)` of its transitive closure induces
//! the necessary condition `α(l) < β(r)` (the earliest `l`-item must precede
//! the latest `r`-item). Keeping only a few such constraints — preferably the
//! ones *hardest* to satisfy — yields a cheap-to-evaluate upper bound on the
//! probability of `g`. The `ease` of an edge estimates how easy the
//! constraint is to satisfy under `MAL(σ, φ)` by looking at label positions
//! in the centre ranking `σ`.

use crate::label::Labeling;
use crate::node::NodeSelector;
use crate::pattern::{Pattern, PatternEdge};
use crate::union::PatternUnion;
use crate::Result;
use ppd_rim::Ranking;

/// `ease(l, l' | σ) = β(l' | σ) − α(l | σ)`: the (signed) gap between the
/// lowest-ranked item matching the right selector and the highest-ranked item
/// matching the left selector, measured in the centre ranking `σ`. Larger
/// values mean the preference `l ≻ l'` is easier for a random permutation to
/// satisfy. Returns `None` when either selector matches no item of `σ`.
fn edge_ease(
    left: &NodeSelector,
    right: &NodeSelector,
    sigma: &Ranking,
    labeling: &Labeling,
) -> Option<i64> {
    let alpha = sigma
        .items()
        .iter()
        .enumerate()
        .filter(|&(_, &it)| left.matches(it, labeling))
        .map(|(pos, _)| pos as i64)
        .min()?;
    let beta = sigma
        .items()
        .iter()
        .enumerate()
        .filter(|&(_, &it)| right.matches(it, labeling))
        .map(|(pos, _)| pos as i64)
        .max()?;
    Some(beta - alpha)
}

/// Selects the `k` edges of `tc(pattern)` with the smallest ease values (the
/// hardest constraints), which give the tightest cheap upper bound. Edges
/// whose ease is undefined (selector matches nothing in `σ`) are treated as
/// hardest of all.
fn select_hardest_edges(
    pattern: &Pattern,
    sigma: &Ranking,
    labeling: &Labeling,
    k: usize,
) -> Result<Vec<PatternEdge>> {
    let closed = pattern.transitive_closure()?;
    let mut scored: Vec<(i64, PatternEdge)> = closed
        .edges()
        .iter()
        .map(|&(a, b)| {
            let ease = edge_ease(&closed.nodes()[a], &closed.nodes()[b], sigma, labeling)
                .unwrap_or(i64::MIN);
            (ease, (a, b))
        })
        .collect();
    scored.sort_by_key(|&(ease, edge)| (ease, edge));
    Ok(scored
        .into_iter()
        .take(k.max(1))
        .map(|(_, edge)| edge)
        .collect())
}

/// Builds the relaxed upper-bound union `G'` of Section 3.2: for every member
/// pattern, keep only the `edges_per_pattern` hardest transitive-closure
/// edges and treat each kept edge `(l, r)` as the independent constraint
/// `α(l) < β(r)`.
///
/// The relaxation is realised as a bipartite pattern in which the left and
/// right roles of a selector are *separate* nodes, so an embedding may pick
/// different witness items for the two roles — exactly the semantics of the
/// constraint set `U` in Section 4.3.2. Consequently
/// `Pr(G' | σ, Π, λ) ≥ Pr(G | σ, Π, λ)` (property-tested in `ppd-solvers`).
///
/// With `edges_per_pattern = 1` the result is a union of two-label patterns
/// ("1-edge" in Figure 8); with larger values it is a union of bipartite
/// patterns ("2-edge").
pub fn relaxed_upper_bound_union(
    union: &PatternUnion,
    sigma: &Ranking,
    labeling: &Labeling,
    edges_per_pattern: usize,
) -> Result<PatternUnion> {
    let mut relaxed_members = Vec::with_capacity(union.num_patterns());
    for pattern in union.patterns() {
        let closed = pattern.transitive_closure()?;
        let selected = select_hardest_edges(pattern, sigma, labeling, edges_per_pattern)?;
        let mut relaxed = Pattern::builder();
        // Map (selector, role) → node index in the relaxed pattern.
        let mut l_index: Vec<(NodeSelector, usize)> = Vec::new();
        let mut r_index: Vec<(NodeSelector, usize)> = Vec::new();
        for (a, b) in selected {
            let left_sel = closed.nodes()[a].clone();
            let right_sel = closed.nodes()[b].clone();
            let li = match l_index.iter().find(|(s, _)| *s == left_sel) {
                Some(&(_, idx)) => idx,
                None => {
                    let idx = relaxed.push_node(left_sel.clone());
                    l_index.push((left_sel, idx));
                    idx
                }
            };
            let ri = match r_index.iter().find(|(s, _)| *s == right_sel) {
                Some(&(_, idx)) => idx,
                None => {
                    let idx = relaxed.push_node(right_sel.clone());
                    r_index.push((right_sel, idx));
                    idx
                }
            };
            relaxed.push_edge(li, ri);
        }
        relaxed.validate()?;
        relaxed_members.push(relaxed);
    }
    PatternUnion::new(relaxed_members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::satisfy::{satisfies_pattern, satisfies_union};
    use crate::union::UnionClass;

    fn sel(l: u32) -> NodeSelector {
        NodeSelector::single(l)
    }

    /// σ = ⟨0,1,2,3,4,5⟩; labels: 0 on items {0,1}, 1 on {2,3}, 2 on {4,5}.
    fn setup() -> (Ranking, Labeling) {
        let sigma = Ranking::identity(6);
        let mut lab = Labeling::new();
        lab.add(0, 0);
        lab.add(1, 0);
        lab.add(2, 1);
        lab.add(3, 1);
        lab.add(4, 2);
        lab.add(5, 2);
        (sigma, lab)
    }

    #[test]
    fn ease_reflects_center_positions() {
        let (sigma, lab) = setup();
        // 0 ≻ 2 is easy (label 2 sits at the bottom of σ): ease = 5 − 0.
        assert_eq!(edge_ease(&sel(0), &sel(2), &sigma, &lab), Some(5));
        // 2 ≻ 0 is hard: ease = 1 − 4 = −3.
        assert_eq!(edge_ease(&sel(2), &sel(0), &sigma, &lab), Some(-3));
        // Undefined when a selector matches nothing.
        assert_eq!(edge_ease(&sel(9), &sel(0), &sigma, &lab), None);
    }

    #[test]
    fn hardest_edges_selected_from_transitive_closure() {
        let (sigma, lab) = setup();
        // Chain 2 ≻ 1 ≻ 0; tc adds 2 ≻ 0 which is the hardest edge.
        let chain = Pattern::new(vec![sel(2), sel(1), sel(0)], vec![(0, 1), (1, 2)]).unwrap();
        let hardest = select_hardest_edges(&chain, &sigma, &lab, 1).unwrap();
        assert_eq!(hardest.len(), 1);
        let (a, b) = hardest[0];
        assert_eq!(chain.nodes()[a], sel(2));
        assert_eq!(chain.nodes()[b], sel(0));
    }

    #[test]
    fn relaxed_union_class_matches_edge_budget() {
        let (sigma, lab) = setup();
        let chain = Pattern::new(vec![sel(2), sel(1), sel(0)], vec![(0, 1), (1, 2)]).unwrap();
        let union = PatternUnion::singleton(chain).unwrap();
        let one = relaxed_upper_bound_union(&union, &sigma, &lab, 1).unwrap();
        assert_eq!(one.classify(), UnionClass::TwoLabel);
        let two = relaxed_upper_bound_union(&union, &sigma, &lab, 2).unwrap();
        assert_eq!(two.classify(), UnionClass::Bipartite);
    }

    #[test]
    fn relaxation_is_an_upper_bound_pointwise() {
        // Every ranking satisfying the original union satisfies the relaxed
        // union (the probabilistic upper-bound property follows).
        let (sigma, lab) = setup();
        let chain = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2)]).unwrap();
        let other = Pattern::two_label(sel(2), sel(0));
        let union = PatternUnion::new(vec![chain, other]).unwrap();
        for k in 1..=3 {
            let relaxed = relaxed_upper_bound_union(&union, &sigma, &lab, k).unwrap();
            for tau in Ranking::enumerate_all(&[0, 1, 2, 3, 4, 5][..5]) {
                if satisfies_union(&tau, &lab, &union) {
                    assert!(
                        satisfies_union(&tau, &lab, &relaxed),
                        "k={k}, ranking {tau} breaks the upper bound"
                    );
                }
            }
        }
    }

    #[test]
    fn relaxed_pattern_allows_distinct_witnesses() {
        // Example 4.4: the relaxation of the chain la ≻ lb ≻ lc is satisfied
        // by ⟨b1, a, c, b2⟩ although the chain itself is not.
        let mut lab = Labeling::new();
        lab.add(0, 1); // b1: lb
        lab.add(1, 0); // a : la
        lab.add(2, 2); // c : lc
        lab.add(3, 1); // b2: lb
        let sigma = Ranking::new(vec![1, 0, 3, 2]).unwrap();
        let chain = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2)]).unwrap();
        let union = PatternUnion::singleton(chain.clone()).unwrap();
        let relaxed = relaxed_upper_bound_union(&union, &sigma, &lab, 3).unwrap();
        let tau = Ranking::new(vec![0, 1, 2, 3]).unwrap();
        assert!(!satisfies_pattern(&tau, &lab, &chain));
        assert!(satisfies_union(&tau, &lab, &relaxed));
    }
}
