//! Pattern unions `G = g₁ ∪ … ∪ g_z` and their classification.

use crate::pattern::Pattern;
use crate::{PatternError, Result};

/// Classification of a pattern union, determining which specialized exact
/// solver applies (Section 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnionClass {
    /// Every member is a two-label pattern (a single edge) — Algorithm 3
    /// applies.
    TwoLabel,
    /// Every member is a bipartite pattern — Algorithm 4 applies.
    Bipartite,
    /// Arbitrary DAG patterns — the general inclusion–exclusion solver is
    /// needed.
    General,
}

/// A union of label patterns. A ranking satisfies the union when it satisfies
/// at least one member pattern; query evaluation reduces to the marginal
/// probability of such unions over a labeled RIM model (Eq. 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternUnion {
    patterns: Vec<Pattern>,
}

impl PatternUnion {
    /// Builds a union from member patterns; the union must be non-empty and
    /// every member must be a valid DAG.
    pub fn new(patterns: Vec<Pattern>) -> Result<Self> {
        if patterns.is_empty() {
            return Err(PatternError::Empty);
        }
        for p in &patterns {
            p.validate()?;
        }
        Ok(PatternUnion { patterns })
    }

    /// A union with a single member.
    pub fn singleton(pattern: Pattern) -> Result<Self> {
        PatternUnion::new(vec![pattern])
    }

    /// The member patterns.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Number of member patterns (the paper's `z`).
    pub fn num_patterns(&self) -> usize {
        self.patterns.len()
    }

    /// Total number of nodes over all members (the paper's `q · z` when all
    /// members have `q` nodes).
    pub fn total_nodes(&self) -> usize {
        self.patterns.iter().map(|p| p.num_nodes()).sum()
    }

    /// Classifies the union into the solver family it belongs to.
    pub fn classify(&self) -> UnionClass {
        if self.patterns.iter().all(|p| p.is_two_label()) {
            UnionClass::TwoLabel
        } else if self.patterns.iter().all(|p| p.is_bipartite()) {
            UnionClass::Bipartite
        } else {
            UnionClass::General
        }
    }

    /// The conjunction of the member patterns selected by `indices`
    /// (used by the inclusion–exclusion expansion of the general solver).
    pub fn conjunction_of(&self, indices: &[usize]) -> Result<Pattern> {
        let mut iter = indices.iter();
        let first = *iter.next().ok_or(PatternError::Empty)?;
        let mut acc = self
            .patterns
            .get(first)
            .ok_or(PatternError::InvalidNodeIndex(first))?
            .clone();
        for &idx in iter {
            let next = self
                .patterns
                .get(idx)
                .ok_or(PatternError::InvalidNodeIndex(idx))?;
            acc = acc.conjunction(next)?;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSelector;

    fn sel(l: u32) -> NodeSelector {
        NodeSelector::single(l)
    }

    #[test]
    fn empty_union_rejected() {
        assert_eq!(PatternUnion::new(vec![]).unwrap_err(), PatternError::Empty);
    }

    #[test]
    fn classification_of_unions() {
        let two = Pattern::two_label(sel(0), sel(1));
        let bip = Pattern::new(
            vec![sel(0), sel(1), sel(2), sel(3)],
            vec![(0, 2), (0, 3), (1, 3)],
        )
        .unwrap();
        let chain = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2)]).unwrap();

        assert_eq!(
            PatternUnion::new(vec![two.clone(), two.clone()])
                .unwrap()
                .classify(),
            UnionClass::TwoLabel
        );
        assert_eq!(
            PatternUnion::new(vec![two.clone(), bip.clone()])
                .unwrap()
                .classify(),
            UnionClass::Bipartite
        );
        assert_eq!(
            PatternUnion::new(vec![two, chain]).unwrap().classify(),
            UnionClass::General
        );
    }

    #[test]
    fn conjunction_of_members() {
        let g1 = Pattern::two_label(sel(0), sel(1));
        let g2 = Pattern::two_label(sel(2), sel(3));
        let union = PatternUnion::new(vec![g1, g2]).unwrap();
        let c = union.conjunction_of(&[0, 1]).unwrap();
        assert_eq!(c.num_nodes(), 4);
        assert_eq!(c.num_edges(), 2);
        assert!(union.conjunction_of(&[]).is_err());
        assert!(union.conjunction_of(&[5]).is_err());
    }

    #[test]
    fn total_nodes_counts_multiplicity() {
        let g1 = Pattern::two_label(sel(0), sel(1));
        let g2 = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2)]).unwrap();
        let union = PatternUnion::new(vec![g1, g2]).unwrap();
        assert_eq!(union.total_nodes(), 5);
    }
}
