//! # ppd-rim
//!
//! Ranking models for probabilistic preference databases.
//!
//! This crate implements the preference-model substrate of the paper
//! *"Supporting Hard Queries over Probabilistic Preferences"* (VLDB 2020):
//!
//! * [`Ranking`], [`PartialOrder`] and [`SubRanking`] — the combinatorial
//!   objects that preferences are expressed over (Section 2.1 of the paper);
//! * [`RimModel`] — the Repeated Insertion Model, a generative distribution
//!   over permutations parameterised by a reference ranking `σ` and an
//!   insertion-probability function `Π` (Section 2.2, Algorithm 1);
//! * [`MallowsModel`] — the Mallows distribution `MAL(σ, φ)`, realised as a
//!   special case of RIM;
//! * [`AmpSampler`] — the Approximate Mallows Posterior sampler `AMP(σ, φ, υ)`
//!   that draws rankings from a Mallows model conditioned on a partial order,
//!   and evaluates the proposal probability of a ranking (needed for the
//!   importance-sampling solvers);
//! * [`greedy_modals`] / [`approximate_distance`] — Algorithms 5 and 6 of the
//!   paper, used to locate the modes of a conditioned Mallows posterior.
//!
//! Positions are 0-based throughout the crate; the paper uses 1-based
//! positions, and doc comments point out the correspondence where useful.

pub mod amp;
/// The oracle is written against the public API under the crate's own name,
/// so that `ppd_solvers`' tests can include the same file.
#[cfg(test)]
extern crate self as ppd_rim;
#[cfg(test)]
mod amp_reference;
pub mod kendall;
pub mod mallows;
pub mod modal;
pub mod partial_order;
pub mod ranking;
pub mod rim;
pub mod subranking;

pub use amp::{AmpMixture, AmpSampler, AmpScratch};
pub use kendall::kendall_tau;
pub use mallows::MallowsModel;
pub use modal::{approximate_distance, greedy_modals};
pub use partial_order::PartialOrder;
pub use ranking::Ranking;
pub use rim::RimModel;
pub use subranking::SubRanking;

/// Identifier of an item. Items are small integers managed by the caller
/// (typically indices into an item catalogue owned by `ppd-core`).
pub type Item = u32;

/// Errors produced by the ranking-model layer.
#[derive(Debug, Clone, PartialEq)]
pub enum RimError {
    /// A sequence of items that was supposed to be a ranking contains
    /// duplicate items.
    DuplicateItem(Item),
    /// An operation referred to an item that is not part of the model or
    /// ranking it was applied to.
    UnknownItem(Item),
    /// The insertion-probability matrix `Π` has the wrong shape or one of its
    /// rows does not form a probability distribution.
    InvalidInsertionMatrix(String),
    /// The Mallows dispersion parameter `φ` must lie in `[0, 1]`.
    InvalidPhi(f64),
    /// A partial order contains a cycle and therefore cannot be used as a
    /// preference constraint.
    CyclicPartialOrder,
    /// A constraint (partial order or sub-ranking) is incompatible with the
    /// item universe of the model it was combined with.
    IncompatibleConstraint(String),
}

impl std::fmt::Display for RimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RimError::DuplicateItem(it) => write!(f, "duplicate item {it} in ranking"),
            RimError::UnknownItem(it) => write!(f, "unknown item {it}"),
            RimError::InvalidInsertionMatrix(msg) => {
                write!(f, "invalid RIM insertion matrix: {msg}")
            }
            RimError::InvalidPhi(phi) => {
                write!(f, "Mallows dispersion must be in [0, 1], got {phi}")
            }
            RimError::CyclicPartialOrder => write!(f, "partial order contains a cycle"),
            RimError::IncompatibleConstraint(msg) => write!(f, "incompatible constraint: {msg}"),
        }
    }
}

impl std::error::Error for RimError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, RimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = RimError::DuplicateItem(3);
        assert!(e.to_string().contains('3'));
        let e = RimError::InvalidPhi(1.5);
        assert!(e.to_string().contains("1.5"));
        let e = RimError::CyclicPartialOrder;
        assert!(e.to_string().contains("cycle"));
    }
}
