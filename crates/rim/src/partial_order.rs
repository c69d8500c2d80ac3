//! Partial orders over items: pairwise preference constraints.

use crate::{Item, Ranking, Result, RimError, SubRanking};
use std::collections::{BTreeMap, BTreeSet};

/// A strict partial order over a finite set of items, represented as a set of
/// directed edges `a ≻ b` ("a is preferred to b").
///
/// The order is kept transitively closed on demand (see
/// [`PartialOrder::transitive_closure`]); the raw edge set is whatever the
/// caller supplied. Cycle detection is performed on construction of the
/// closure and by [`PartialOrder::validate`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartialOrder {
    /// All items mentioned by the order (including isolated items added via
    /// [`PartialOrder::add_item`]).
    items: BTreeSet<Item>,
    /// Direct successors: `edges[a]` contains every `b` with `a ≻ b`.
    edges: BTreeMap<Item, BTreeSet<Item>>,
}

impl PartialOrder {
    /// Creates an empty partial order (no items, no constraints).
    pub fn new() -> Self {
        PartialOrder::default()
    }

    /// Creates a partial order from a list of `a ≻ b` pairs.
    pub fn from_pairs(pairs: &[(Item, Item)]) -> Result<Self> {
        let mut po = PartialOrder::new();
        for &(a, b) in pairs {
            po.add_edge(a, b)?;
        }
        po.validate()?;
        Ok(po)
    }

    /// Builds the chain partial order corresponding to a sub-ranking
    /// `ψ = ⟨x_1, …, x_k⟩`, i.e. the constraints `x_1 ≻ x_2 ≻ … ≻ x_k`.
    pub fn from_subranking(psi: &SubRanking) -> Self {
        let mut po = PartialOrder::new();
        let items = psi.items();
        for w in items.windows(2) {
            po.add_edge(w[0], w[1])
                .expect("sub-ranking has distinct consecutive items");
        }
        if let Some(&only) = items.first() {
            po.add_item(only);
        }
        po
    }

    /// Adds an isolated item to the order.
    pub fn add_item(&mut self, item: Item) {
        self.items.insert(item);
    }

    /// Adds the constraint `a ≻ b`. Self-loops are rejected.
    pub(crate) fn add_edge(&mut self, a: Item, b: Item) -> Result<()> {
        if a == b {
            return Err(RimError::CyclicPartialOrder);
        }
        self.items.insert(a);
        self.items.insert(b);
        self.edges.entry(a).or_default().insert(b);
        Ok(())
    }

    /// All items mentioned by the partial order (the paper's `A(υ)`).
    pub fn items(&self) -> Vec<Item> {
        self.items.iter().copied().collect()
    }

    /// Number of items mentioned by the order.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// The raw (non-closed) edge list.
    pub fn edges(&self) -> Vec<(Item, Item)> {
        let mut out = Vec::new();
        for (&a, succs) in &self.edges {
            for &b in succs {
                out.push((a, b));
            }
        }
        out
    }

    /// `true` when the order contains no constraints.
    pub fn is_empty(&self) -> bool {
        self.edges.values().all(|s| s.is_empty())
    }

    /// Direct successors of `item` (items it is directly preferred to).
    pub fn successors(&self, item: Item) -> Vec<Item> {
        self.edges
            .get(&item)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Direct predecessors of `item` (items directly preferred to it).
    pub fn predecessors(&self, item: Item) -> Vec<Item> {
        let mut out = Vec::new();
        for (&a, succs) in &self.edges {
            if succs.contains(&item) {
                out.push(a);
            }
        }
        out
    }

    /// Checks that the constraint graph is acyclic.
    pub fn validate(&self) -> Result<()> {
        self.topological_order().map(|_| ())
    }

    /// Returns the items in some topological order of the constraint graph,
    /// or an error if the graph contains a cycle.
    pub fn topological_order(&self) -> Result<Vec<Item>> {
        let mut indeg: BTreeMap<Item, usize> = self.items.iter().map(|&i| (i, 0)).collect();
        for succs in self.edges.values() {
            for &b in succs {
                *indeg.entry(b).or_insert(0) += 1;
            }
        }
        let mut queue: Vec<Item> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&i, _)| i)
            .collect();
        let mut order = Vec::with_capacity(self.items.len());
        while let Some(next) = queue.pop() {
            order.push(next);
            for &b in self.edges.get(&next).into_iter().flatten() {
                let d = indeg.get_mut(&b).expect("edge endpoint is an item");
                *d -= 1;
                if *d == 0 {
                    queue.push(b);
                }
            }
        }
        if order.len() == self.items.len() {
            Ok(order)
        } else {
            Err(RimError::CyclicPartialOrder)
        }
    }

    /// Returns the transitive closure `tc(υ)` of the partial order as a new
    /// partial order with the same items.
    pub fn transitive_closure(&self) -> Result<PartialOrder> {
        let order = self.topological_order()?;
        // Process items in reverse topological order, accumulating reachable sets.
        let mut reach: BTreeMap<Item, BTreeSet<Item>> = BTreeMap::new();
        for &item in order.iter().rev() {
            let mut set = BTreeSet::new();
            for &succ in self.edges.get(&item).into_iter().flatten() {
                set.insert(succ);
                if let Some(r) = reach.get(&succ) {
                    set.extend(r.iter().copied());
                }
            }
            reach.insert(item, set);
        }
        let mut closed = PartialOrder::new();
        for &item in &self.items {
            closed.add_item(item);
        }
        for (&a, succs) in &reach {
            for &b in succs {
                closed.add_edge(a, b)?;
            }
        }
        Ok(closed)
    }

    /// `true` when the pair `a ≻ b` is implied by the order (i.e. present in
    /// its transitive closure). Quadratic in the worst case; intended for
    /// small constraint sets and tests.
    pub fn implies(&self, a: Item, b: Item) -> bool {
        // BFS from a.
        let mut seen = BTreeSet::new();
        let mut stack = vec![a];
        while let Some(x) = stack.pop() {
            if !seen.insert(x) {
                continue;
            }
            for &succ in self.edges.get(&x).into_iter().flatten() {
                if succ == b {
                    return true;
                }
                stack.push(succ);
            }
        }
        false
    }

    /// `true` when the complete ranking `τ` is a linear extension of the
    /// partial order restricted to items present in `τ` (every constrained
    /// item must be present).
    pub fn is_consistent(&self, ranking: &Ranking) -> bool {
        for (a, succs) in &self.edges {
            let pa = match ranking.position_of(*a) {
                Some(p) => p,
                None => return false,
            };
            for b in succs {
                match ranking.position_of(*b) {
                    Some(pb) if pa < pb => {}
                    _ => return false,
                }
            }
        }
        true
    }

    /// Enumerates all linear extensions of the order over exactly the items
    /// it mentions, as [`SubRanking`]s (the paper's `∆(υ)`). Enumeration is
    /// capped at `cap` results; `None` is returned if the cap was exceeded.
    pub fn linear_extensions(&self, cap: usize) -> Option<Vec<SubRanking>> {
        let items: Vec<Item> = self.items.iter().copied().collect();
        let closed = match self.transitive_closure() {
            Ok(c) => c,
            Err(_) => return Some(Vec::new()),
        };
        let mut out = Vec::new();
        let mut remaining: BTreeSet<Item> = items.iter().copied().collect();
        let mut current: Vec<Item> = Vec::with_capacity(items.len());
        fn recurse(
            closed: &PartialOrder,
            remaining: &mut BTreeSet<Item>,
            current: &mut Vec<Item>,
            out: &mut Vec<SubRanking>,
            cap: usize,
        ) -> bool {
            if remaining.is_empty() {
                out.push(SubRanking::new(current.clone()).expect("extension has distinct items"));
                return out.len() <= cap;
            }
            let candidates: Vec<Item> = remaining
                .iter()
                .copied()
                .filter(|&x| {
                    closed
                        .predecessors(x)
                        .iter()
                        .all(|p| !remaining.contains(p))
                })
                .collect();
            for x in candidates {
                remaining.remove(&x);
                current.push(x);
                let ok = recurse(closed, remaining, current, out, cap);
                current.pop();
                remaining.insert(x);
                if !ok {
                    return false;
                }
            }
            true
        }
        let ok = recurse(&closed, &mut remaining, &mut current, &mut out, cap);
        if ok {
            Some(out)
        } else {
            None
        }
    }

    /// Merges another partial order into this one (union of items and edges).
    pub fn merge(&mut self, other: &PartialOrder) {
        for item in &other.items {
            self.items.insert(*item);
        }
        for (a, succs) in &other.edges {
            for b in succs {
                self.edges.entry(*a).or_default().insert(*b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query_edges() {
        let po = PartialOrder::from_pairs(&[(1, 2), (1, 3), (3, 4)]).unwrap();
        assert_eq!(po.num_items(), 4);
        assert_eq!(po.successors(1), vec![2, 3]);
        assert_eq!(po.predecessors(4), vec![3]);
        assert!(po.implies(1, 4));
        assert!(!po.implies(2, 4));
        assert!(!po.implies(4, 1));
    }

    #[test]
    fn self_loop_rejected() {
        let mut po = PartialOrder::new();
        assert!(po.add_edge(1, 1).is_err());
    }

    #[test]
    fn cycle_detected() {
        let mut po = PartialOrder::new();
        po.add_edge(1, 2).unwrap();
        po.add_edge(2, 3).unwrap();
        po.add_edge(3, 1).unwrap();
        assert_eq!(po.validate().unwrap_err(), RimError::CyclicPartialOrder);
        assert!(po.transitive_closure().is_err());
    }

    #[test]
    fn transitive_closure_adds_implied_edges() {
        let po = PartialOrder::from_pairs(&[(1, 2), (2, 3)]).unwrap();
        let tc = po.transitive_closure().unwrap();
        let edges: BTreeSet<(Item, Item)> = tc.edges().into_iter().collect();
        assert!(edges.contains(&(1, 3)));
        assert_eq!(edges.len(), 3);
    }

    #[test]
    fn consistency_with_ranking() {
        let po = PartialOrder::from_pairs(&[(1, 2), (3, 2)]).unwrap();
        let good = Ranking::new(vec![3, 1, 2, 4]).unwrap();
        let bad = Ranking::new(vec![2, 1, 3, 4]).unwrap();
        let missing = Ranking::new(vec![1, 2]).unwrap();
        assert!(po.is_consistent(&good));
        assert!(!po.is_consistent(&bad));
        assert!(!po.is_consistent(&missing));
    }

    #[test]
    fn linear_extensions_of_vee() {
        // υ = {a ≻ c, b ≻ c} has two extensions ⟨a,b,c⟩ and ⟨b,a,c⟩ (paper §5.2).
        let po = PartialOrder::from_pairs(&[(0, 2), (1, 2)]).unwrap();
        let exts = po.linear_extensions(100).unwrap();
        assert_eq!(exts.len(), 2);
        let sets: BTreeSet<Vec<Item>> = exts.iter().map(|s| s.items().to_vec()).collect();
        assert!(sets.contains(&vec![0, 1, 2]));
        assert!(sets.contains(&vec![1, 0, 2]));
    }

    #[test]
    fn linear_extensions_cap() {
        // An antichain of 5 items has 120 extensions; cap at 10.
        let mut po = PartialOrder::new();
        for i in 0..5 {
            po.add_item(i);
        }
        assert!(po.linear_extensions(10).is_none());
        assert_eq!(po.linear_extensions(120).unwrap().len(), 120);
    }

    #[test]
    fn from_subranking_builds_chain() {
        let psi = SubRanking::new(vec![4, 2, 7]).unwrap();
        let po = PartialOrder::from_subranking(&psi);
        assert!(po.implies(4, 7));
        assert!(po.implies(4, 2));
        assert!(po.implies(2, 7));
        assert!(!po.implies(7, 4));
    }

    #[test]
    fn merge_unions_edges() {
        let mut a = PartialOrder::from_pairs(&[(1, 2)]).unwrap();
        let b = PartialOrder::from_pairs(&[(2, 3)]).unwrap();
        a.merge(&b);
        assert!(a.implies(1, 3));
    }
}
