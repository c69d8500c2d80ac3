//! Solver traits shared by the exact and approximate implementations.

use crate::Result;
use ppd_patterns::{Labeling, PatternUnion};
use ppd_rim::{MallowsModel, RimModel};
use rand::RngCore;

/// An exact solver for the marginal probability of a pattern union over a
/// labeled RIM model (Eq. 2 of the paper).
///
/// Solvers are required to be `Send + Sync` so that a single boxed handle can
/// be shared by the worker threads of a parallel evaluation engine; every
/// solver in this crate is a plain configuration struct, so the bound is
/// free.
pub trait ExactSolver: Send + Sync {
    /// A short, stable identifier used in logs and experiment outputs.
    fn name(&self) -> &'static str;

    /// Computes `Pr(G | σ, Π, λ)` exactly.
    fn solve(&self, rim: &RimModel, labeling: &Labeling, union: &PatternUnion) -> Result<f64>;
}

/// Sampling-health statistics of one approximate solve, reported alongside
/// the estimate by [`ApproxSolver::estimate_with_stats`]. Purely
/// observational: nothing here feeds back into the estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EstimateStats {
    /// Total Monte-Carlo samples drawn.
    pub samples: usize,
    /// Samples on which the proposal mixture had zero density — drawn but
    /// contributing nothing to the estimate. Solvers that cannot track this
    /// report zero.
    pub zero_density_samples: usize,
}

/// An approximate solver for the marginal probability of a pattern union over
/// a labeled *Mallows* model. (The importance-sampling machinery of Section 5
/// exploits Mallows structure — distance-based probabilities and the AMP
/// posterior sampler — so the approximate interface takes a Mallows model
/// rather than a general RIM.)
///
/// Like [`ExactSolver`], approximate solvers must be `Send + Sync` so they
/// can be dispatched across evaluation worker threads.
pub trait ApproxSolver: Send + Sync {
    /// A short, stable identifier used in logs and experiment outputs.
    fn name(&self) -> &'static str;

    /// Estimates `Pr(G | σ, φ, λ)`.
    fn estimate(
        &self,
        mallows: &MallowsModel,
        labeling: &Labeling,
        union: &PatternUnion,
        rng: &mut dyn RngCore,
    ) -> Result<f64>;

    /// [`ApproxSolver::estimate`], additionally reporting sampling-health
    /// statistics. The estimate is bit-identical to
    /// [`ApproxSolver::estimate`] with the same RNG state. The default
    /// implementation reports empty stats for solvers that do not track
    /// them.
    fn estimate_with_stats(
        &self,
        mallows: &MallowsModel,
        labeling: &Labeling,
        union: &PatternUnion,
        rng: &mut dyn RngCore,
    ) -> Result<(f64, EstimateStats)> {
        self.estimate(mallows, labeling, union, rng)
            .map(|p| (p, EstimateStats::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BruteForceSolver, RejectionSampler};

    #[test]
    fn traits_are_object_safe() {
        let exact: Box<dyn ExactSolver> = Box::new(BruteForceSolver::new());
        let approx: Box<dyn ApproxSolver> = Box::new(RejectionSampler::new(10));
        assert_eq!(exact.name(), "brute-force");
        assert_eq!(approx.name(), "rejection-sampling");
    }
}
