//! # ppd-patterns
//!
//! Label patterns over labeled rankings — the intermediate representation that
//! query evaluation over RIM-PPDs reduces to.
//!
//! A *label pattern* (Section 2.1 of the paper) is a directed acyclic graph
//! whose nodes are label selectors (conjunctions of labels an item must carry)
//! and whose edges state preferences between the matched items. A ranking
//! `τ` with labeling `λ` *satisfies* a pattern `g` when there is an embedding
//! of the pattern's nodes into positions of `τ` such that labels and edges
//! match ([`satisfy`]).
//!
//! Hard queries reduce to the marginal probability of a **union of patterns**
//! over a labeled RIM model (Eq. 2 of the paper). This crate provides:
//!
//! * [`Labeling`] and [`LabelInterner`] — the labeling function `λ`;
//! * [`NodeSelector`], [`Pattern`], [`PatternUnion`] — patterns and unions,
//!   with classification into the two-label / bipartite / general families
//!   that determine which solver applies;
//! * [`satisfy`] — the single satisfaction semantics shared by the
//!   brute-force reference solver, the samplers and the tests;
//! * [`decompose`] — the pattern → partial orders → sub-rankings
//!   decomposition of Section 5.2, feeding the importance-sampling solvers;
//! * [`ease`] — the `ease` heuristic and the relaxed upper-bound unions used
//!   by the Most-Probable-Session top-k optimization (Sections 3.2, 4.3.2).

pub mod decompose;
pub mod ease;
pub mod label;
pub mod node;
pub mod pattern;
pub mod satisfy;
pub mod union;

pub use decompose::{decompose_union, DecompositionLimits, UnionDecomposition};
pub use ease::relaxed_upper_bound_union;
pub use label::{LabelId, LabelInterner, Labeling};
pub use node::NodeSelector;
pub use pattern::{Pattern, PatternEdge};
pub use satisfy::{
    find_embedding, satisfies_pattern, satisfies_union, CompiledPattern, CompiledUnion,
};
pub use union::{PatternUnion, UnionClass};

/// Errors produced by the pattern layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternError {
    /// A pattern edge refers to a node index that does not exist.
    InvalidNodeIndex(usize),
    /// The pattern's edge relation contains a cycle (patterns must be DAGs).
    CyclicPattern,
    /// A pattern or union is empty where a non-empty one is required.
    Empty,
    /// Decomposition exceeded the configured limits.
    DecompositionTooLarge { produced: usize, cap: usize },
    /// A selector has no candidate items under the given labeling, making the
    /// requested operation meaningless (e.g. a decomposition).
    EmptySelector(String),
}

impl std::fmt::Display for PatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatternError::InvalidNodeIndex(i) => write!(f, "invalid node index {i}"),
            PatternError::CyclicPattern => write!(f, "pattern graph contains a cycle"),
            PatternError::Empty => write!(f, "empty pattern or union"),
            PatternError::DecompositionTooLarge { produced, cap } => write!(
                f,
                "decomposition produced more than {cap} objects ({produced}+)"
            ),
            PatternError::EmptySelector(s) => {
                write!(f, "selector {s} matches no item under the labeling")
            }
        }
    }
}

impl std::error::Error for PatternError {}

/// Convenience result alias for the pattern layer.
pub type Result<T> = std::result::Result<T, PatternError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(PatternError::CyclicPattern.to_string().contains("cycle"));
        assert!(PatternError::InvalidNodeIndex(4).to_string().contains('4'));
        assert!(PatternError::DecompositionTooLarge {
            produced: 100,
            cap: 10
        }
        .to_string()
        .contains("10"));
    }
}
