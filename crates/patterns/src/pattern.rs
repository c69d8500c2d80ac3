//! Label patterns: DAGs of label selectors.

use crate::label::Labeling;
use crate::node::NodeSelector;
use crate::{PatternError, Result};
use ppd_rim::Item;
use std::collections::BTreeSet;

/// A directed pattern edge `from ≻ to` between node indices: the item matched
/// by `from` must be preferred to the item matched by `to`.
pub type PatternEdge = (usize, usize);

/// A label pattern: a DAG whose nodes are [`NodeSelector`]s and whose edges
/// are preference constraints between the matched items (Section 2.1 of the
/// paper, e.g. Figure 2's `F ≻ M`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    nodes: Vec<NodeSelector>,
    edges: Vec<PatternEdge>,
}

impl Pattern {
    /// Builds a pattern from nodes and edges, validating indices and
    /// acyclicity.
    pub fn new(nodes: Vec<NodeSelector>, edges: Vec<PatternEdge>) -> Result<Self> {
        let p = Pattern { nodes, edges };
        p.validate()?;
        Ok(p)
    }

    /// Convenience constructor for the common two-label pattern `l ≻ r`.
    pub fn two_label(l: NodeSelector, r: NodeSelector) -> Self {
        Pattern {
            nodes: vec![l, r],
            edges: vec![(0, 1)],
        }
    }

    /// Starts an empty pattern to be grown with `Pattern::push_node` and
    /// `Pattern::push_edge`.
    pub(crate) fn builder() -> Pattern {
        Pattern {
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds a node and returns its index.
    pub(crate) fn push_node(&mut self, node: NodeSelector) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Adds the edge `from ≻ to`. Indices are validated by
    /// [`Pattern::validate`] / [`Pattern::new`].
    pub(crate) fn push_edge(&mut self, from: usize, to: usize) {
        self.edges.push((from, to));
    }

    /// Checks node indices and acyclicity.
    pub fn validate(&self) -> Result<()> {
        for &(a, b) in &self.edges {
            if a >= self.nodes.len() {
                return Err(PatternError::InvalidNodeIndex(a));
            }
            if b >= self.nodes.len() {
                return Err(PatternError::InvalidNodeIndex(b));
            }
            if a == b {
                return Err(PatternError::CyclicPattern);
            }
        }
        self.topological_order().map(|_| ())
    }

    /// The pattern's nodes.
    pub fn nodes(&self) -> &[NodeSelector] {
        &self.nodes
    }

    /// The pattern's edges (pairs of node indices).
    pub fn edges(&self) -> &[PatternEdge] {
        &self.edges
    }

    /// Number of nodes (the paper's `q`).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Indices of the direct predecessors (preferred side) of node `i`.
    pub fn parents(&self, i: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter(|&&(_, b)| b == i)
            .map(|&(a, _)| a)
            .collect()
    }

    /// Indices of the direct successors of node `i`.
    pub fn children(&self, i: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter(|&&(a, _)| a == i)
            .map(|&(_, b)| b)
            .collect()
    }

    /// A topological order of the node indices, or an error if the pattern
    /// graph is cyclic.
    pub fn topological_order(&self) -> Result<Vec<usize>> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for &(a, b) in &self.edges {
            if a >= n || b >= n {
                return Err(PatternError::InvalidNodeIndex(a.max(b)));
            }
            indeg[b] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for &(a, b) in &self.edges {
                if a == u {
                    indeg[b] -= 1;
                    if indeg[b] == 0 {
                        queue.push(b);
                    }
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(PatternError::CyclicPattern)
        }
    }

    /// The transitive closure `tc(g)`: same nodes, every implied edge made
    /// explicit (Section 4.3.2).
    pub fn transitive_closure(&self) -> Result<Pattern> {
        let order = self.topological_order()?;
        let n = self.nodes.len();
        let mut reach: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for &u in order.iter().rev() {
            let mut set = BTreeSet::new();
            for v in self.children(u) {
                set.insert(v);
                let extra: Vec<usize> = reach[v].iter().copied().collect();
                set.extend(extra);
            }
            reach[u] = set;
        }
        let mut edges = Vec::new();
        for (u, set) in reach.iter().enumerate() {
            for &v in set {
                edges.push((u, v));
            }
        }
        Ok(Pattern {
            nodes: self.nodes.clone(),
            edges,
        })
    }

    /// `true` when this is a *two-label pattern*: a single preference edge
    /// between two selectors (Section 4.2).
    pub(crate) fn is_two_label(&self) -> bool {
        self.nodes.len() == 2 && self.edges.len() == 1
    }

    /// `true` when this is a *bipartite pattern*: every node is used only as
    /// the preferred side (L-type) or only as the less-preferred side
    /// (R-type) of edges, and no node is isolated (Section 4.3).
    pub fn is_bipartite(&self) -> bool {
        if self.edges.is_empty() {
            return false;
        }
        let mut is_source = vec![false; self.nodes.len()];
        let mut is_target = vec![false; self.nodes.len()];
        for &(a, b) in &self.edges {
            is_source[a] = true;
            is_target[b] = true;
        }
        (0..self.nodes.len()).all(|i| {
            let (s, t) = (is_source[i], is_target[i]);
            (s || t) && !(s && t)
        })
    }

    /// The conjunction `g ∧ g'` used by the inclusion–exclusion general
    /// solver: the pattern containing all nodes and edges of both patterns.
    ///
    /// The node sets are kept *disjoint* — a selector appearing in both
    /// patterns becomes two separate nodes. This is essential for
    /// correctness: the conjunction of the events "g is embedded" and
    /// "g' is embedded" allows the two embeddings to pick different witness
    /// items for the same selector (Example 4.4 of the paper illustrates a
    /// ranking satisfying `la ≻ lb` and `lb ≻ lc` with two different
    /// `lb`-witnesses while violating the chain `la ≻ lb ≻ lc`).
    pub fn conjunction(&self, other: &Pattern) -> Result<Pattern> {
        let mut nodes = self.nodes.clone();
        let offset = nodes.len();
        nodes.extend(other.nodes.iter().cloned());
        let mut edges: Vec<PatternEdge> = self.edges.clone();
        for &(a, b) in &other.edges {
            edges.push((a + offset, b + offset));
        }
        Pattern::new(nodes, edges)
    }

    /// Candidate items of every node under `labeling`, restricted to
    /// `universe`. Errors if some node matches no item (such a pattern can
    /// never be satisfied, which callers usually want to detect explicitly).
    pub fn candidate_sets(&self, universe: &[Item], labeling: &Labeling) -> Result<Vec<Vec<Item>>> {
        let mut out = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let cands = node.candidates(universe, labeling);
            if cands.is_empty() {
                return Err(PatternError::EmptySelector(node.describe()));
            }
            out.push(cands);
        }
        Ok(out)
    }

    /// `true` when every node matches at least one item of `universe`.
    pub fn is_satisfiable_universe(&self, universe: &[Item], labeling: &Labeling) -> bool {
        self.candidate_sets(universe, labeling).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Labeling;

    fn sel(l: u32) -> NodeSelector {
        NodeSelector::single(l)
    }

    #[test]
    fn validation_catches_bad_edges_and_cycles() {
        assert!(Pattern::new(vec![sel(0)], vec![(0, 1)]).is_err());
        assert!(Pattern::new(vec![sel(0), sel(1)], vec![(0, 0)]).is_err());
        assert!(Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2), (2, 0)]).is_err());
        assert!(Pattern::new(vec![sel(0), sel(1)], vec![(0, 1)]).is_ok());
    }

    #[test]
    fn classification() {
        let two = Pattern::two_label(sel(0), sel(1));
        assert!(two.is_two_label());
        assert!(two.is_bipartite());

        // A ≻ C, A ≻ D, B ≻ D : bipartite but not two-label.
        let bip = Pattern::new(
            vec![sel(0), sel(1), sel(2), sel(3)],
            vec![(0, 2), (0, 3), (1, 3)],
        )
        .unwrap();
        assert!(!bip.is_two_label());
        assert!(bip.is_bipartite());

        // Chain l0 ≻ l1 ≻ l2 : not bipartite (node 1 is both source and target).
        let chain = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2)]).unwrap();
        assert!(!chain.is_bipartite());
        assert!(!chain.is_two_label());

        // Isolated node: not bipartite under our definition.
        let isolated = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1)]).unwrap();
        assert!(!isolated.is_bipartite());
    }

    #[test]
    fn parents_children_topo() {
        let p = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(p.parents(2), vec![1, 0]);
        assert_eq!(p.children(0), vec![1, 2]);
        let order = p.topological_order().unwrap();
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(pos(0) < pos(1) && pos(1) < pos(2));
    }

    #[test]
    fn transitive_closure_adds_edges() {
        let p = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2)]).unwrap();
        let tc = p.transitive_closure().unwrap();
        assert_eq!(tc.num_edges(), 3);
        assert!(tc.edges().contains(&(0, 2)));
    }

    #[test]
    fn conjunction_keeps_node_copies_disjoint() {
        let g1 = Pattern::two_label(sel(0), sel(1));
        let g2 = Pattern::two_label(sel(0), sel(2));
        let c = g1.conjunction(&g2).unwrap();
        assert_eq!(c.num_nodes(), 4);
        assert_eq!(c.num_edges(), 2);
        // Even conjoining a pattern with itself keeps separate copies — the
        // two embeddings are allowed to use different witness items.
        let same = g1.conjunction(&g1).unwrap();
        assert_eq!(same.num_nodes(), 4);
        assert_eq!(same.num_edges(), 2);
        // Opposite edges over the same selectors must not create a cycle.
        let forward = Pattern::two_label(sel(0), sel(1));
        let backward = Pattern::two_label(sel(1), sel(0));
        let both = forward.conjunction(&backward).unwrap();
        assert!(both.validate().is_ok());
        assert_eq!(both.num_nodes(), 4);
    }

    #[test]
    fn candidate_sets_and_satisfiability() {
        let mut lab = Labeling::new();
        lab.add(0, 0);
        lab.add(1, 1);
        lab.add_item(2);
        let p = Pattern::two_label(sel(0), sel(1));
        let cands = p.candidate_sets(&[0, 1, 2], &lab).unwrap();
        assert_eq!(cands, vec![vec![0], vec![1]]);
        assert!(p.is_satisfiable_universe(&[0, 1, 2], &lab));
        let q = Pattern::two_label(sel(0), sel(9));
        assert!(!q.is_satisfiable_universe(&[0, 1, 2], &lab));
        assert!(q.candidate_sets(&[0, 1, 2], &lab).is_err());
    }
}
