//! Satisfaction semantics: does a ranking (with a labeling) match a pattern?
//!
//! This module is the single source of truth for the embedding semantics of
//! Section 2.3: every solver in `ppd-solvers` (brute force, exact DPs,
//! samplers) is validated against, or directly uses, these functions.

use crate::label::Labeling;
use crate::pattern::Pattern;
use crate::union::PatternUnion;
use crate::Result;
use ppd_rim::{Item, Ranking};

/// The embedding check of one pattern, compiled once so that evaluating it
/// ([`CompiledPattern::embeds`]) sorts, hashes and allocates nothing: the pattern's nodes in a topological
/// order, each node's parents as ranks into that order, and each node's
/// candidate items as caller-chosen `u32` *keys* (an item id, a slot shift
/// in a packed DP state, …).
///
/// Positions are *encoded*: `0` means "not placed", any other value orders
/// the placed items (larger = ranked lower). The check is the greedy
/// earliest embedding of Section 2.3: walking the nodes in topological
/// order, each node takes the smallest encoded position among its candidates
/// that is strictly above every parent's chosen position (a root's bound is
/// `0`, so an unplaced candidate is never chosen). Because making a node's
/// position smaller never invalidates its descendants, this greedy least
/// fixpoint succeeds whenever any embedding exists, so the check is both
/// sound and complete. It depends only on the relative order of the encoded
/// positions, so any order-isomorphic encoding (absolute positions in a
/// prefix with gaps, ranks in a full ranking) gives the same answer.
///
/// On a prefix that does not embed yet, [`CompiledPattern::can_complete`]
/// answers the other structural question an insertion DP has: whether the
/// items still to come can change that.
#[derive(Debug, Clone)]
pub struct CompiledPattern {
    /// Node indices in the topological order the check walks.
    order: Vec<usize>,
    /// Ranks (indices into `order`) of the parents of every node, node after
    /// node; `order[k]`'s are `parents[parent_ends[k - 1]..parent_ends[k]]`.
    parents: Vec<usize>,
    parent_ends: Vec<usize>,
    /// Keys of the candidates of every node, laid out like `parents`.
    keys: Vec<u32>,
    key_ends: Vec<usize>,
}

impl CompiledPattern {
    /// Compiles `pattern` given the candidate items of every node
    /// (`candidates[u]` for node `u`; a node without candidates makes the
    /// check fail on every input) and the key under which the position
    /// lookup will be asked about each item. Errors on a cyclic pattern.
    pub fn new(
        pattern: &Pattern,
        candidates: &[Vec<Item>],
        mut key_of: impl FnMut(Item) -> u32,
    ) -> Result<Self> {
        let order = pattern.topological_order()?;
        let mut rank_of = vec![0usize; order.len()];
        for (rank, &u) in order.iter().enumerate() {
            rank_of[u] = rank;
        }
        let mut compiled = CompiledPattern {
            parents: Vec::with_capacity(pattern.num_edges()),
            parent_ends: Vec::with_capacity(order.len()),
            keys: Vec::with_capacity(candidates.iter().map(Vec::len).sum()),
            key_ends: Vec::with_capacity(order.len()),
            order,
        };
        for &u in &compiled.order {
            let parents = pattern.edges().iter().filter(|&&(_, b)| b == u);
            compiled.parents.extend(parents.map(|&(a, _)| rank_of[a]));
            compiled.parent_ends.push(compiled.parents.len());
            compiled
                .keys
                .extend(candidates[u].iter().map(|&item| key_of(item)));
            compiled.key_ends.push(compiled.keys.len());
        }
        Ok(compiled)
    }

    /// Compiles `pattern` for rankings over (subsets of) `universe`: the
    /// candidates are the items of `universe` each selector matches under
    /// `labeling`, keyed by item id.
    fn for_items(pattern: &Pattern, universe: &[Item], labeling: &Labeling) -> Result<Self> {
        let candidates: Vec<Vec<Item>> = pattern
            .nodes()
            .iter()
            .map(|node| node.candidates(universe, labeling))
            .collect();
        CompiledPattern::new(pattern, &candidates, |item| item)
    }

    /// Number of pattern nodes — the length of the `chosen` scratch buffer
    /// [`CompiledPattern::embeds`] and [`CompiledPattern::can_complete`] need.
    pub fn num_nodes(&self) -> usize {
        self.order.len()
    }

    /// `true` when the items placed according to `encoded_position` (key →
    /// encoded position, `0` = not placed) embed the pattern. `chosen` is
    /// scratch of length [`CompiledPattern::num_nodes`]; on success it holds
    /// the earliest embedding's encoded position per topological rank.
    #[inline]
    pub fn embeds(&self, encoded_position: impl Fn(u32) -> u32, chosen: &mut [u32]) -> bool {
        self.walk::<false>(encoded_position, chosen)
    }

    /// The optimistic twin of [`CompiledPattern::embeds`], for a *prefix*:
    /// `false` only when no placement of the items still unplaced (encoded
    /// position `0`), wherever among the placed ones each of them lands, can
    /// make the pattern embed. Same walk, same `chosen` scratch, but a node
    /// that still has an unplaced candidate takes its parents' bound instead
    /// of looking for a placed one: that candidate may yet land right below
    /// them, so the node asks nothing more of its descendants than its
    /// parents already do.
    ///
    /// Sound: if some completion embeds through `f`, then by induction over
    /// the topological order `chosen[u]` is at most the encoded position of
    /// the lowest-ranked *placed* image `f(v)` over `u` and its ancestors `v`
    /// — a node whose candidates are all placed finds `f(u)` itself above
    /// that bound — so the walk never fails on a prefix that can still embed.
    /// Exact when every node has one candidate and no two nodes share it
    /// (landing each missing item right below its node's bound, in
    /// topological order, is then a completion that embeds); with shared or
    /// several candidates it may keep a prefix whose unplaced item is wanted
    /// in two places at once.
    #[inline]
    pub fn can_complete(&self, encoded_position: impl Fn(u32) -> u32, chosen: &mut [u32]) -> bool {
        self.walk::<true>(encoded_position, chosen)
    }

    /// The greedy walk behind [`CompiledPattern::embeds`] (`OPTIMISTIC` off)
    /// and [`CompiledPattern::can_complete`] (on).
    #[inline(always)]
    fn walk<const OPTIMISTIC: bool>(
        &self,
        encoded_position: impl Fn(u32) -> u32,
        chosen: &mut [u32],
    ) -> bool {
        let (mut parent_start, mut key_start) = (0, 0);
        for rank in 0..self.order.len() {
            let (parent_end, key_end) = (self.parent_ends[rank], self.key_ends[rank]);
            let mut above = 0;
            for &parent in &self.parents[parent_start..parent_end] {
                above = above.max(chosen[parent]);
            }
            let mut earliest = u32::MAX;
            for &key in &self.keys[key_start..key_end] {
                let position = encoded_position(key);
                if OPTIMISTIC && position == 0 {
                    earliest = above;
                    break;
                }
                if position > above && position < earliest {
                    earliest = position;
                }
            }
            if earliest == u32::MAX {
                return false;
            }
            chosen[rank] = earliest;
            (parent_start, key_start) = (parent_end, key_end);
        }
        true
    }

    /// The earliest embedding into `ranking`: for each pattern node (by node
    /// index) the 0-based position of the item it is matched to, or `None`
    /// if no embedding exists. Items outside the compiled universe are never
    /// matched.
    pub fn find_embedding(&self, ranking: &Ranking) -> Option<Vec<usize>> {
        let mut chosen = vec![0u32; self.order.len()];
        if !self.embeds(encoded_positions(ranking), &mut chosen) {
            return None;
        }
        let mut positions = vec![0usize; self.order.len()];
        for (&u, &encoded) in self.order.iter().zip(&chosen) {
            positions[u] = encoded as usize - 1;
        }
        Some(positions)
    }

    /// `true` when `ranking` satisfies the pattern.
    pub fn satisfied_by(&self, ranking: &Ranking) -> bool {
        let mut chosen = vec![0u32; self.order.len()];
        self.embeds(encoded_positions(ranking), &mut chosen)
    }
}

/// A ranking as the position lookup of a pattern compiled with item ids as
/// keys: `0` for an item it does not rank, its 1-based position otherwise.
fn encoded_positions(ranking: &Ranking) -> impl Fn(Item) -> u32 + '_ {
    |item| ranking.position_of(item).map_or(0, |pos| pos as u32 + 1)
}

/// Every member of a union compiled for rankings over one item universe —
/// what a caller that checks many rankings against the same union (brute
/// force, rejection sampling) builds once instead of calling
/// [`satisfies_union`] per ranking.
#[derive(Debug, Clone)]
pub struct CompiledUnion {
    members: Vec<CompiledPattern>,
}

impl CompiledUnion {
    /// Compiles every member with `CompiledPattern::for_items`. A cyclic
    /// member can never be embedded and is dropped.
    pub fn new(union: &PatternUnion, universe: &[Item], labeling: &Labeling) -> Self {
        CompiledUnion {
            members: union
                .patterns()
                .iter()
                .filter_map(|g| CompiledPattern::for_items(g, universe, labeling).ok())
                .collect(),
        }
    }

    /// `true` when `ranking` satisfies at least one member (`(τ, λ) |= G`).
    pub fn satisfied_by(&self, ranking: &Ranking) -> bool {
        self.members.iter().any(|g| g.satisfied_by(ranking))
    }
}

/// Finds an embedding of `pattern` into `ranking` (with respect to
/// `labeling`), returning for each pattern node the 0-based position of the
/// item it is matched to, or `None` if no embedding exists.
///
/// The embedding returned is the *earliest* one, as computed by
/// [`CompiledPattern`]: this compiles the pattern against the ranking's own
/// items and evaluates it once. Callers checking many rankings compile once
/// themselves.
pub fn find_embedding(
    ranking: &Ranking,
    labeling: &Labeling,
    pattern: &Pattern,
) -> Option<Vec<usize>> {
    CompiledPattern::for_items(pattern, ranking.items(), labeling)
        .ok()?
        .find_embedding(ranking)
}

/// `true` when the ranking satisfies the pattern (`(τ, λ) |= g`).
pub fn satisfies_pattern(ranking: &Ranking, labeling: &Labeling, pattern: &Pattern) -> bool {
    find_embedding(ranking, labeling, pattern).is_some()
}

/// `true` when the ranking satisfies at least one member of the union
/// (`(τ, λ) |= G`).
pub fn satisfies_union(ranking: &Ranking, labeling: &Labeling, union: &PatternUnion) -> bool {
    union
        .patterns()
        .iter()
        .any(|g| satisfies_pattern(ranking, labeling, g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSelector;
    use proptest::prelude::*;

    fn sel(l: u32) -> NodeSelector {
        NodeSelector::single(l)
    }

    /// The definition, from scratch on every call: re-derive a topological
    /// order, and for each node scan the ranking from one past its latest
    /// parent for the first item carrying its labels. [`CompiledPattern`] is
    /// held to this.
    fn from_scratch_embedding(
        ranking: &Ranking,
        labeling: &Labeling,
        pattern: &Pattern,
    ) -> Option<Vec<usize>> {
        let order = pattern.topological_order().ok()?;
        let mut positions: Vec<Option<usize>> = vec![None; pattern.num_nodes()];
        for &u in &order {
            let mut lower = 0usize;
            for p in pattern.parents(u) {
                lower = lower.max(positions[p]? + 1);
            }
            let selector = &pattern.nodes()[u];
            positions[u] = Some(
                (lower..ranking.len())
                    .find(|&pos| selector.matches(ranking.item_at(pos), labeling))?,
            );
        }
        positions.into_iter().collect()
    }

    /// Every ranking of every subset of `items` — the full rankings and the
    /// placed prefixes an insertion DP sees.
    fn rankings_of_all_subsets(items: &[Item]) -> Vec<Ranking> {
        (0u32..1 << items.len())
            .flat_map(|subset| {
                let chosen: Vec<Item> = items
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| subset & (1 << i) != 0)
                    .map(|(_, &item)| item)
                    .collect();
                Ranking::enumerate_all(&chosen)
            })
            .collect()
    }

    /// Holds the compiled check — compiled once over `items`, compiled per
    /// ranking by the free functions, and read through an order-isomorphic
    /// encoding with gaps (what the DP kernel's absolute positions are) —
    /// to the from-scratch search on every ranking of every subset.
    fn assert_compiled_matches_definition(pattern: &Pattern, items: &[Item], lab: &Labeling) {
        let compiled = CompiledPattern::for_items(pattern, items, lab).unwrap();
        let mut chosen = vec![0u32; compiled.num_nodes()];
        for tau in rankings_of_all_subsets(items) {
            let expected = from_scratch_embedding(&tau, lab, pattern);
            assert_eq!(
                compiled.find_embedding(&tau),
                expected,
                "compiled once: pattern {pattern:?}, ranking {tau}"
            );
            assert_eq!(
                find_embedding(&tau, lab, pattern),
                expected,
                "compiled per ranking: pattern {pattern:?}, ranking {tau}"
            );
            let gapped = |item| tau.position_of(item).map_or(0, |pos| 3 * pos as u32 + 2);
            assert_eq!(
                compiled.embeds(gapped, &mut chosen),
                expected.is_some(),
                "gapped positions: pattern {pattern:?}, ranking {tau}"
            );
        }
    }

    /// Items 0..m with label `i % 3`, and every other item also carrying
    /// label 3 or 4 — selectors that match several items, and items that
    /// several selectors match.
    fn overlapping_labeling(m: usize) -> Labeling {
        let mut lab = Labeling::new();
        for item in 0..m as u32 {
            lab.add(item, item % 3);
            if item % 2 == 0 {
                lab.add(item, 3 + (item / 2) % 2);
            }
        }
        lab
    }

    /// Shapes the solvers meet, over labels 0..=4 of [`overlapping_labeling`]
    /// (label 9 matches nothing).
    fn menagerie() -> Vec<Pattern> {
        vec![
            // The shapes of `ppd_solvers::testutil::sample_unions()`.
            Pattern::two_label(sel(0), sel(1)),
            Pattern::two_label(sel(2), sel(0)),
            Pattern::new(
                vec![sel(0), sel(1), sel(2), sel(3)],
                vec![(0, 2), (0, 3), (1, 3)],
            )
            .unwrap(),
            Pattern::new(vec![sel(1), sel(2), sel(0)], vec![(0, 1), (1, 2)]).unwrap(),
            // A node with two parents (the diamond's sink), and two nodes
            // whose selectors match the same items (its source and sink).
            Pattern::new(
                vec![sel(0), sel(1), sel(2), sel(0)],
                vec![(0, 1), (0, 2), (1, 3), (2, 3)],
            )
            .unwrap(),
            // A selector matching every item, above a conjunction of labels.
            Pattern::two_label(NodeSelector::any(), NodeSelector::all_of([0, 3])),
            // An isolated node beside an edge; one matching nothing.
            Pattern::new(vec![sel(0), sel(1), sel(4)], vec![(0, 1)]).unwrap(),
            Pattern::new(vec![sel(0), sel(1), sel(9)], vec![(0, 1)]).unwrap(),
            // Edgeless, and a node listed before its parent.
            Pattern::new(vec![sel(2), sel(3)], vec![]).unwrap(),
            Pattern::new(vec![sel(2), sel(1), sel(0)], vec![(2, 1), (1, 0), (2, 0)]).unwrap(),
        ]
    }

    #[test]
    fn compiled_check_equals_the_definition_on_the_menagerie() {
        let items: Vec<Item> = (0..7).collect();
        let lab = overlapping_labeling(7);
        for pattern in &menagerie() {
            assert_compiled_matches_definition(pattern, &items, &lab);
        }
    }

    /// Every placed prefix — a ranking of a subset of `items` — that some
    /// ranking of all of them which embeds the pattern extends.
    fn live_prefixes(
        compiled: &CompiledPattern,
        items: &[Item],
    ) -> std::collections::HashSet<Vec<Item>> {
        let mut live = std::collections::HashSet::new();
        for full in Ranking::enumerate_all(items) {
            if compiled.satisfied_by(&full) {
                for subset in 0u32..1 << items.len() {
                    let kept =
                        |item: &Item| subset & (1 << items.binary_search(item).unwrap()) != 0;
                    live.insert(full.items().iter().copied().filter(kept).collect());
                }
            }
        }
        live
    }

    /// Holds the optimistic walk to the definition of a live prefix on every
    /// ranking of every subset of `items` (sorted): it never gives up a
    /// prefix some completion embeds, and — where `exact` — keeps no other.
    fn assert_walk_keeps_live_prefixes(
        pattern: &Pattern,
        items: &[Item],
        lab: &Labeling,
        exact: bool,
    ) {
        let compiled = CompiledPattern::for_items(pattern, items, lab).unwrap();
        let live = live_prefixes(&compiled, items);
        let mut chosen = vec![0u32; compiled.num_nodes()];
        for tau in rankings_of_all_subsets(items) {
            let is_live = live.contains(tau.items());
            let kept = compiled.can_complete(encoded_positions(&tau), &mut chosen);
            assert!(
                kept || !is_live,
                "gave up a live prefix: pattern {pattern:?}, prefix {tau}"
            );
            assert!(
                kept == is_live || !exact,
                "kept a dead prefix: pattern {pattern:?}, prefix {tau}"
            );
            // Through an encoding with gaps, as the DP kernel reads it.
            let gapped = |item| tau.position_of(item).map_or(0, |pos| 3 * pos as u32 + 2);
            assert_eq!(compiled.can_complete(gapped, &mut chosen), kept);
        }
    }

    #[test]
    fn optimistic_walk_never_gives_up_a_live_prefix() {
        // Nodes that share candidates and have several each, m = 6 and 5.
        for m in [6usize, 5] {
            let items: Vec<Item> = (0..m as Item).collect();
            let lab = overlapping_labeling(m);
            let mut patterns = menagerie();
            patterns.extend([
                // A chain and a diamond whose every node has 2–3 candidates,
                // the ends of each sharing theirs.
                Pattern::new(vec![sel(0), sel(3), sel(0)], vec![(0, 1), (1, 2)]).unwrap(),
                Pattern::new(
                    vec![sel(3), sel(0), sel(1), sel(3)],
                    vec![(0, 1), (0, 2), (1, 3), (2, 3)],
                )
                .unwrap(),
                // Every node matches every item.
                Pattern::new(vec![NodeSelector::any(); 3], vec![(0, 1), (1, 2)]).unwrap(),
            ]);
            for pattern in &patterns {
                assert_walk_keeps_live_prefixes(pattern, &items, &lab, false);
            }
        }
    }

    #[test]
    fn optimistic_walk_is_exact_when_every_node_names_its_own_item() {
        // One label per item: a selector names one item, and no two nodes of
        // these patterns name the same one.
        let items: Vec<Item> = (0..6).collect();
        let mut lab = Labeling::new();
        for &item in &items {
            lab.add(item, item);
        }
        let patterns = [
            Pattern::new(vec![sel(4), sel(1), sel(3)], vec![(0, 1), (1, 2)]).unwrap(),
            Pattern::new(
                vec![sel(5), sel(0), sel(3), sel(2)],
                vec![(0, 1), (1, 2), (2, 3)],
            )
            .unwrap(),
            Pattern::new(
                vec![sel(2), sel(0), sel(5), sel(1)],
                vec![(0, 1), (0, 2), (1, 3), (2, 3)],
            )
            .unwrap(),
            // An N: 0 ≻ 2, 1 ≻ 2, 1 ≻ 3, its nodes listed sinks first.
            Pattern::new(
                vec![sel(3), sel(1), sel(4), sel(0)],
                vec![(2, 0), (3, 0), (3, 1)],
            )
            .unwrap(),
            Pattern::new(vec![sel(0), sel(1), sel(4)], vec![(0, 1)]).unwrap(),
        ];
        for pattern in &patterns {
            assert_walk_keeps_live_prefixes(pattern, &items, &lab, true);
        }
        // Two nodes naming one item is where exactness ends: `x ≻ a` and
        // `b ≻ x` with `a` placed above `b` want `x` on both sides, and the
        // walk, node by node, still sees room for it.
        let torn =
            Pattern::new(vec![sel(2), sel(0), sel(1), sel(2)], vec![(0, 1), (2, 3)]).unwrap();
        assert_walk_keeps_live_prefixes(&torn, &items[..3], &lab, false);
        let compiled = CompiledPattern::for_items(&torn, &items[..3], &lab).unwrap();
        let prefix = Ranking::new(vec![0, 1]).unwrap();
        assert!(!live_prefixes(&compiled, &items[..3]).contains(prefix.items()));
        assert!(compiled.can_complete(encoded_positions(&prefix), &mut [0; 4]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Generated DAGs: 2–5 nodes over labels 0..6 (label 5 matches
        /// nothing), each possible edge `a → b` (a < b after a random
        /// relabeling of the nodes) present or not, on 4–6 items.
        #[test]
        fn compiled_check_equals_the_definition_on_generated_dags(
            m in 4usize..=6,
            labels in proptest::collection::vec(0u32..6, 2..=5),
            edge_bits in 0u32..1024,
            rotate in 0usize..5,
        ) {
            let q = labels.len();
            // Node i of the DAG is listed at index (i + rotate) % q, so
            // parents do not always precede their children in node order.
            let at = |i: usize| (i + rotate) % q;
            let mut nodes = vec![NodeSelector::any(); q];
            for (i, &l) in labels.iter().enumerate() {
                nodes[at(i)] = sel(l);
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
            let items: Vec<Item> = (0..m as u32).collect();
            assert_compiled_matches_definition(&pattern, &items, &overlapping_labeling(m));
        }
    }

    /// The polling example of the paper (Figures 1 and 2, Example 2.3):
    /// items 0=Trump, 1=Clinton, 2=Sanders, 3=Rubio; labels 0=F, 1=M.
    fn polling_labeling() -> Labeling {
        let mut lab = Labeling::new();
        lab.add(0, 1);
        lab.add(1, 0);
        lab.add(2, 1);
        lab.add(3, 1);
        lab
    }

    #[test]
    fn example_2_3_embedding() {
        let lab = polling_labeling();
        let g = Pattern::two_label(sel(0), sel(1)); // F ≻ M
        let tau = Ranking::new(vec![0, 1, 2, 3]).unwrap(); // Trump, Clinton, Sanders, Rubio
        let emb = find_embedding(&tau, &lab, &g).unwrap();
        // F matches Clinton at position 1, M matches Sanders at position 2
        // (the earliest M after Clinton).
        assert_eq!(emb, vec![1, 2]);
        assert!(satisfies_pattern(&tau, &lab, &g));
    }

    #[test]
    fn pattern_violated_when_no_order_exists() {
        let lab = polling_labeling();
        let g = Pattern::two_label(sel(0), sel(1)); // F ≻ M
                                                    // Clinton last: no male candidate after her.
        let tau = Ranking::new(vec![0, 2, 3, 1]).unwrap();
        assert!(!satisfies_pattern(&tau, &lab, &g));
    }

    #[test]
    fn chain_needs_intermediate_item() {
        // Pattern l0 ≻ l1 ≻ l2 over items 0:{l0}, 1:{l1}, 2:{l2}.
        let mut lab = Labeling::new();
        lab.add(0, 0);
        lab.add(1, 1);
        lab.add(2, 2);
        let chain = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2)]).unwrap();
        assert!(satisfies_pattern(
            &Ranking::new(vec![0, 1, 2]).unwrap(),
            &lab,
            &chain
        ));
        assert!(!satisfies_pattern(
            &Ranking::new(vec![1, 0, 2]).unwrap(),
            &lab,
            &chain
        ));
        assert!(!satisfies_pattern(
            &Ranking::new(vec![0, 2, 1]).unwrap(),
            &lab,
            &chain
        ));
    }

    #[test]
    fn example_4_4_upper_bound_gap() {
        // Example 4.4: τ = ⟨b1, a, c, b2⟩ with λ = {a:la, b1:lb, b2:lb, c:lc}
        // does NOT satisfy the chain la ≻ lb ≻ lc even though every pairwise
        // min/max constraint holds.
        let mut lab = Labeling::new();
        lab.add(0, 1); // b1 : lb
        lab.add(1, 0); // a  : la
        lab.add(2, 2); // c  : lc
        lab.add(3, 1); // b2 : lb
        let chain = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2)]).unwrap();
        let tau = Ranking::new(vec![0, 1, 2, 3]).unwrap();
        assert!(!satisfies_pattern(&tau, &lab, &chain));
        // But the two-edge relaxation {la ≻ lb} ∪-conjunction {lb ≻ lc} holds.
        let e1 = Pattern::two_label(sel(0), sel(1));
        let e2 = Pattern::two_label(sel(1), sel(2));
        assert!(satisfies_pattern(&tau, &lab, &e1));
        assert!(satisfies_pattern(&tau, &lab, &e2));
    }

    #[test]
    fn non_injective_embeddings_allowed() {
        // Two incomparable nodes may match the same position.
        let mut lab = Labeling::new();
        lab.add_all(0, [0, 1]);
        lab.add(1, 2);
        let g = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 2), (1, 2)]).unwrap();
        let tau = Ranking::new(vec![0, 1]).unwrap();
        let emb = find_embedding(&tau, &lab, &g).unwrap();
        assert_eq!(emb, vec![0, 0, 1]);
    }

    #[test]
    fn union_satisfaction() {
        let lab = polling_labeling();
        let f_over_m = Pattern::two_label(sel(0), sel(1));
        let m_over_f = Pattern::two_label(sel(1), sel(0));
        let union = PatternUnion::new(vec![f_over_m, m_over_f]).unwrap();
        // Any ranking with both a male and a female candidate satisfies one
        // direction or the other.
        for tau in Ranking::enumerate_all(&[0, 1, 2, 3]) {
            assert!(satisfies_union(&tau, &lab, &union));
        }
    }

    #[test]
    fn selector_with_no_matching_item_fails() {
        let lab = polling_labeling();
        let g = Pattern::two_label(sel(0), sel(7));
        let tau = Ranking::new(vec![1, 0, 2, 3]).unwrap();
        assert!(!satisfies_pattern(&tau, &lab, &g));
    }

    #[test]
    fn exhaustive_embedding_consistency() {
        // The greedy embedding exists iff an exhaustive search over node→item
        // assignments finds one (cross-validation of the least-fixpoint
        // argument) on a small universe with overlapping labels.
        let mut lab = Labeling::new();
        lab.add_all(0, [0, 1]);
        lab.add_all(1, [1]);
        lab.add_all(2, [0, 2]);
        lab.add_all(3, [2]);
        let patterns = vec![
            Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2)]).unwrap(),
            Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (0, 2)]).unwrap(),
            Pattern::new(vec![sel(2), sel(1), sel(0)], vec![(0, 1), (1, 2)]).unwrap(),
        ];
        for pattern in &patterns {
            for tau in Ranking::enumerate_all(&[0, 1, 2, 3]) {
                let greedy = satisfies_pattern(&tau, &lab, pattern);
                let exhaustive = exhaustive_satisfies(&tau, &lab, pattern);
                assert_eq!(greedy, exhaustive, "pattern {pattern:?}, ranking {tau}");
            }
        }
    }

    /// Brute-force embedding search over all node→position assignments.
    fn exhaustive_satisfies(tau: &Ranking, lab: &Labeling, pattern: &Pattern) -> bool {
        let m = tau.len();
        let q = pattern.num_nodes();
        let mut assignment = vec![0usize; q];
        loop {
            let ok_labels =
                (0..q).all(|u| pattern.nodes()[u].matches(tau.item_at(assignment[u]), lab));
            let ok_edges = pattern
                .edges()
                .iter()
                .all(|&(a, b)| assignment[a] < assignment[b]);
            if ok_labels && ok_edges {
                return true;
            }
            // Increment the mixed-radix counter.
            let mut i = 0;
            loop {
                if i == q {
                    return false;
                }
                assignment[i] += 1;
                if assignment[i] < m {
                    break;
                }
                assignment[i] = 0;
                i += 1;
            }
        }
    }
}
