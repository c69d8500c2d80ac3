//! Sub-rankings: total orders over a subset of the item universe.

use crate::{Item, Ranking, Result, RimError};

/// A sub-ranking `ψ`: a total order over a subset `A(ψ)` of the items.
///
/// Sub-rankings arise when a label pattern is decomposed into partial orders
/// and each partial order into its linear extensions (Section 5.2 of the
/// paper). They are also the conditioning events of the AMP-based importance
/// samplers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SubRanking {
    items: Vec<Item>,
}

impl SubRanking {
    /// Builds a sub-ranking from an ordered list of distinct items.
    pub fn new(items: Vec<Item>) -> Result<Self> {
        let mut seen = std::collections::HashSet::with_capacity(items.len());
        for &it in &items {
            if !seen.insert(it) {
                return Err(RimError::DuplicateItem(it));
            }
        }
        Ok(SubRanking { items })
    }

    /// An empty sub-ranking.
    pub fn empty() -> Self {
        SubRanking { items: Vec::new() }
    }

    /// The items of the sub-ranking in preference order (the paper's `A(ψ)`,
    /// ordered).
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Number of items in the sub-ranking.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the sub-ranking mentions no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` when the sub-ranking contains `item`.
    pub fn contains(&self, item: Item) -> bool {
        self.items.contains(&item)
    }

    /// Position of `item` within the sub-ranking, if present.
    pub fn position_of(&self, item: Item) -> Option<usize> {
        self.items.iter().position(|&i| i == item)
    }

    /// The sub-ranking `ψ^{i→j}` obtained by inserting `item` at 0-based
    /// position `pos` (Algorithm 5 / 6 notation).
    pub fn insert_at(&self, item: Item, pos: usize) -> Result<SubRanking> {
        if self.contains(item) {
            return Err(RimError::DuplicateItem(item));
        }
        Ok(self.with_inserted(item, pos.min(self.items.len())))
    }

    /// [`SubRanking::insert_at`] for an `item` the caller knows is absent
    /// and a `pos ≤ len`: the greedy modal searches try every position for
    /// an item they have checked once.
    pub(crate) fn with_inserted(&self, item: Item, pos: usize) -> SubRanking {
        debug_assert!(!self.contains(item));
        let mut items = Vec::with_capacity(self.items.len() + 1);
        items.extend_from_slice(&self.items[..pos]);
        items.push(item);
        items.extend_from_slice(&self.items[pos..]);
        SubRanking { items }
    }

    /// `true` when the complete ranking `τ` is consistent with this
    /// sub-ranking, i.e. contains all of its items in the same relative order
    /// (the paper's `τ |= ψ`).
    pub fn is_consistent(&self, ranking: &Ranking) -> bool {
        let mut prev: Option<usize> = None;
        for &item in &self.items {
            match ranking.position_of(item) {
                Some(pos) => {
                    if let Some(p) = prev {
                        if pos <= p {
                            return false;
                        }
                    }
                    prev = Some(pos);
                }
                None => return false,
            }
        }
        true
    }

    /// Converts the sub-ranking into a full [`Ranking`] (only meaningful when
    /// it actually covers all items the caller cares about).
    pub(crate) fn to_ranking(&self) -> Ranking {
        Ranking::new(self.items.clone()).expect("sub-ranking items are distinct")
    }

    /// Number of discordant pairs between this sub-ranking and a reference
    /// ranking `σ`, counted over the items present in the sub-ranking
    /// (pairs ordered one way here and the other way in `σ`). This is the
    /// notion of `dist(ψ, σ)` used by Algorithms 5 and 6 of the paper.
    pub(crate) fn discordant_pairs_with(&self, sigma: &Ranking) -> usize {
        let ranks: Vec<usize> = self
            .items
            .iter()
            .filter_map(|&item| sigma.position_of(item))
            .collect();
        crate::kendall::inversions(&ranks)
    }
}

impl std::fmt::Display for SubRanking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨")?;
        for (i, it) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{it}")?;
        }
        write!(f, "⟩*")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_duplicates() {
        assert!(SubRanking::new(vec![1, 2, 2]).is_err());
        assert!(SubRanking::new(vec![1, 2, 3]).is_ok());
    }

    #[test]
    fn consistency() {
        let tau = Ranking::new(vec![5, 3, 8, 1, 9]).unwrap();
        assert!(SubRanking::new(vec![5, 8, 9]).unwrap().is_consistent(&tau));
        assert!(SubRanking::new(vec![3, 1]).unwrap().is_consistent(&tau));
        assert!(!SubRanking::new(vec![8, 3]).unwrap().is_consistent(&tau));
        assert!(!SubRanking::new(vec![5, 42]).unwrap().is_consistent(&tau));
        assert!(SubRanking::empty().is_consistent(&tau));
    }

    #[test]
    fn insert_positions() {
        let psi = SubRanking::new(vec![1, 2]).unwrap();
        assert_eq!(psi.insert_at(7, 0).unwrap().items(), &[7, 1, 2]);
        assert_eq!(psi.insert_at(7, 1).unwrap().items(), &[1, 7, 2]);
        assert_eq!(psi.insert_at(7, 2).unwrap().items(), &[1, 2, 7]);
        assert_eq!(psi.insert_at(7, 99).unwrap().items(), &[1, 2, 7]);
        assert!(psi.insert_at(1, 0).is_err());
    }

    #[test]
    fn discordant_pairs() {
        let sigma = Ranking::new(vec![0, 1, 2, 3]).unwrap();
        // ψ = ⟨3, 0⟩ reverses one pair relative to σ.
        let psi = SubRanking::new(vec![3, 0]).unwrap();
        assert_eq!(psi.discordant_pairs_with(&sigma), 1);
        // ψ = ⟨2, 1, 0⟩ reverses all three pairs among {0,1,2}.
        let psi = SubRanking::new(vec![2, 1, 0]).unwrap();
        assert_eq!(psi.discordant_pairs_with(&sigma), 3);
        // Fully concordant.
        let psi = SubRanking::new(vec![0, 2, 3]).unwrap();
        assert_eq!(psi.discordant_pairs_with(&sigma), 0);
    }
}
