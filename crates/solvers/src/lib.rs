//! # ppd-solvers
//!
//! Exact and approximate solvers for the central inference problem of the
//! paper *"Supporting Hard Queries over Probabilistic Preferences"*:
//! given a labeled RIM model `RIM_L(σ, Π, λ)` and a union of label patterns
//! `G = g₁ ∪ … ∪ g_z`, compute the marginal probability
//!
//! ```text
//! Pr(G | σ, Π, λ) = Σ_{τ : (τ,λ) |= G} Pr(τ | σ, Π)          (Eq. 2)
//! ```
//!
//! ## Exact solvers (Section 4)
//!
//! * [`BruteForceSolver`] — enumerates all `m!` rankings; the reference
//!   implementation every other solver is validated against.
//! * [`TwoLabelSolver`] — Algorithm 3: dynamic programming over RIM
//!   insertions tracking min/max label positions of the *violating* states
//!   and absorbing the mass of every transition that satisfies an edge.
//! * [`BipartiteSolver`] — Algorithm 4: DP over RIM insertions for unions of
//!   bipartite patterns, with pruning of satisfied/violated edges and
//!   patterns.
//! * [`PatternSolver`] — exact marginal of a *single* arbitrary pattern; this
//!   is the subroutine the paper delegates to LTM (Cohen et al., SIGMOD'18).
//!   Bipartite patterns are dispatched to the bipartite DP; general DAG
//!   patterns use an exact relevant-item-position DP (the substitution is
//!   described in `exact/pattern.rs`).
//! * [`GeneralSolver`] — Section 4.1: inclusion–exclusion over the union,
//!   calling [`PatternSolver`] on every conjunction of members.
//!
//! ## Approximate solvers (Section 5)
//!
//! * [`RejectionSampler`] — the naive Monte-Carlo baseline.
//! * [`is_amp_estimate`] — IS-AMP for a single sub-ranking (Section 5.3).
//! * [`mis_amp_estimate`] — MIS-AMP for a single sub-ranking with greedy
//!   modal search (Section 5.4).
//! * [`MisAmpLite`], [`MisAmpAdaptive`], [`MisAmpBudgeted`] — MIS-AMP for
//!   pattern unions (Section 5.5), three schedules of one run over one
//!   [`ProposalPool`] reporting one [`MixtureOutcome`]: lite samples once,
//!   adaptive adds proposals until the estimate settles, budgeted doubles its
//!   sample total until a confidence interval closes to `ε`.
//!
//! ## Unified dispatch
//!
//! * [`SolverKind`] — one object-safe, `Send + Sync` handle over both solver
//!   families, with a seeded entry point whose result depends only on the
//!   instance and the seed — the determinism contract the parallel
//!   evaluation engine in `ppd-core` relies on.

pub mod approx;
pub mod budget;
pub mod exact;
pub mod kind;
pub mod select;
pub mod traits;

pub use approx::budgeted::MisAmpBudgeted;
pub use approx::is_amp::is_amp_estimate;
pub use approx::mis_adaptive::MisAmpAdaptive;
pub use approx::mis_amp::mis_amp_estimate;
pub use approx::mis_lite::{
    MisAmpLite, MixtureOutcome, PreparedProposals, ProposalPool, SampleMoments,
};
pub use approx::mixture::{mixture_coefficients, stratified_allocation};
pub use approx::rejection::RejectionSampler;
pub use budget::{Budget, CancelProbe};
pub use exact::bipartite::BipartiteSolver;
pub use exact::brute::BruteForceSolver;
pub use exact::general::GeneralSolver;
pub use exact::pattern::PatternSolver;
pub use exact::two_label::TwoLabelSolver;
pub use kind::{SolveDetail, SolverKind};
pub use select::{choose_exact_solver, choose_exact_solver_with_budget};
pub use traits::{ApproxSolver, EstimateStats, ExactSolver};

use ppd_patterns::PatternError;
use ppd_rim::RimError;

/// Errors produced by the solver layer.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// Propagated error from the pattern layer.
    Pattern(PatternError),
    /// Propagated error from the ranking-model layer.
    Rim(RimError),
    /// The requested solver does not support the given union (e.g. a general
    /// union handed to the two-label solver).
    Unsupported(String),
    /// A state or time budget was exhausted before the solver finished
    /// (used by the scalability experiments that measure completion rates).
    BudgetExceeded(String),
    /// An externally supplied [`budget::CancelProbe`] fired mid-solve: the
    /// caller no longer wants the answer. Not a failure of the instance.
    Cancelled,
    /// The instance is degenerate (e.g. an empty item universe).
    InvalidInstance(String),
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::Pattern(e) => write!(f, "pattern error: {e}"),
            SolverError::Rim(e) => write!(f, "ranking-model error: {e}"),
            SolverError::Unsupported(msg) => write!(f, "unsupported input: {msg}"),
            SolverError::BudgetExceeded(msg) => write!(f, "budget exceeded: {msg}"),
            SolverError::Cancelled => write!(f, "cancelled by the caller"),
            SolverError::InvalidInstance(msg) => write!(f, "invalid instance: {msg}"),
        }
    }
}

impl std::error::Error for SolverError {}

impl From<PatternError> for SolverError {
    fn from(e: PatternError) -> Self {
        SolverError::Pattern(e)
    }
}

impl From<RimError> for SolverError {
    fn from(e: RimError) -> Self {
        SolverError::Rim(e)
    }
}

/// Convenience result alias for the solver layer.
pub type Result<T> = std::result::Result<T, SolverError>;

/// The exact kernels' oracle (`exact/reference.rs`) is written against the
/// public API under the crate's own name, so that integration tests and
/// benches can include the same file.
#[cfg(test)]
extern crate self as ppd_solvers;

/// `ppd_rim`'s test-only oracle for AMP sampling and the mixture pass (one
/// source file, compiled into both crates' tests): the estimators' bit pins
/// compare against it rather than against adapters of the kernel they run on.
#[cfg(test)]
#[path = "../../rim/src/amp_reference.rs"]
mod amp_reference;

pub mod testutil {
    //! Shared fixtures for solver tests: small labeled Mallows instances whose
    //! exact answers can be brute-forced. Public (not `cfg(test)`) so that
    //! integration tests and downstream crates can cross-validate solvers on
    //! the same menagerie.

    use ppd_patterns::{Labeling, NodeSelector, Pattern, PatternUnion};
    use ppd_rim::{MallowsModel, Ranking, RimModel};

    pub fn sel(l: u32) -> NodeSelector {
        NodeSelector::single(l)
    }

    /// m items; item i carries label (i % num_labels).
    pub fn cyclic_labeling(m: usize, num_labels: u32) -> Labeling {
        let mut lab = Labeling::new();
        for i in 0..m as u32 {
            lab.add(i, i % num_labels);
        }
        lab
    }

    pub fn mallows(m: usize, phi: f64) -> MallowsModel {
        MallowsModel::new(Ranking::identity(m), phi).unwrap()
    }

    pub fn rim(m: usize, phi: f64) -> RimModel {
        mallows(m, phi).to_rim()
    }

    /// A small menagerie of unions used by cross-validation tests.
    pub fn sample_unions() -> Vec<PatternUnion> {
        let two = Pattern::two_label(sel(0), sel(1));
        let two_rev = Pattern::two_label(sel(2), sel(0));
        let bip = Pattern::new(
            vec![sel(0), sel(1), sel(2), sel(3)],
            vec![(0, 2), (0, 3), (1, 3)],
        )
        .unwrap();
        let chain = Pattern::new(vec![sel(1), sel(2), sel(0)], vec![(0, 1), (1, 2)]).unwrap();
        vec![
            PatternUnion::singleton(two.clone()).unwrap(),
            PatternUnion::new(vec![two.clone(), two_rev.clone()]).unwrap(),
            PatternUnion::singleton(bip.clone()).unwrap(),
            PatternUnion::new(vec![bip, two_rev]).unwrap(),
            PatternUnion::singleton(chain.clone()).unwrap(),
            PatternUnion::new(vec![chain, two]).unwrap(),
        ]
    }

    #[cfg(test)]
    #[test]
    fn fixtures_are_well_formed() {
        assert_eq!(sample_unions().len(), 6);
        assert_eq!(cyclic_labeling(6, 4).items().len(), 6);
    }
}
