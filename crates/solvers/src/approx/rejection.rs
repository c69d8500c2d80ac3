//! Rejection sampling: the naive Monte-Carlo baseline.

use crate::traits::ApproxSolver;
use crate::{Result, SolverError};
use ppd_patterns::{CompiledUnion, Labeling, PatternUnion};
use ppd_rim::MallowsModel;
use rand::RngCore;

/// Estimates `Pr(G | σ, φ, λ)` as the fraction of Mallows samples that
/// satisfy the union. Accurate for high-probability events but needs
/// exponentially many samples for rare ones (Section 5.1, Figure 9), which is
/// what motivates the importance-sampling solvers.
#[derive(Debug, Clone)]
pub struct RejectionSampler {
    num_samples: usize,
}

impl RejectionSampler {
    /// Creates a sampler that draws `num_samples` rankings per estimate.
    pub fn new(num_samples: usize) -> Self {
        RejectionSampler { num_samples }
    }

    /// Draws samples until the running estimate is within `rel_tol` of the
    /// externally supplied ground truth, returning the number of samples
    /// used, or `None` if `max_samples` was reached first. This mirrors the
    /// (optimistic) stopping rule the paper uses to cost rejection sampling
    /// in the Figure 9 experiment.
    #[allow(clippy::too_many_arguments)]
    pub fn samples_until_relative_error(
        &self,
        mallows: &MallowsModel,
        labeling: &Labeling,
        union: &PatternUnion,
        ground_truth: f64,
        rel_tol: f64,
        max_samples: usize,
        rng: &mut dyn RngCore,
    ) -> Option<usize> {
        let rim = mallows.to_rim();
        let check = CompiledUnion::new(union, rim.sigma().items(), labeling);
        let mut hits = 0usize;
        for n in 1..=max_samples {
            let tau = rim.sample(rng);
            if check.satisfied_by(&tau) {
                hits += 1;
            }
            let estimate = hits as f64 / n as f64;
            if ground_truth > 0.0 && ((estimate - ground_truth) / ground_truth).abs() <= rel_tol {
                // Require a minimum number of draws so a lucky first sample
                // does not count as convergence.
                if n >= 30 {
                    return Some(n);
                }
            }
        }
        None
    }
}

impl ApproxSolver for RejectionSampler {
    fn name(&self) -> &'static str {
        "rejection-sampling"
    }

    fn estimate(
        &self,
        mallows: &MallowsModel,
        labeling: &Labeling,
        union: &PatternUnion,
        rng: &mut dyn RngCore,
    ) -> Result<f64> {
        if self.num_samples == 0 {
            return Err(SolverError::InvalidInstance(
                "rejection sampling needs at least one sample".into(),
            ));
        }
        let rim = mallows.to_rim();
        let check = CompiledUnion::new(union, rim.sigma().items(), labeling);
        let mut hits = 0usize;
        for _ in 0..self.num_samples {
            let tau = rim.sample(rng);
            if check.satisfied_by(&tau) {
                hits += 1;
            }
        }
        Ok(hits as f64 / self.num_samples as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute::BruteForceSolver;
    use crate::testutil::{cyclic_labeling, mallows, sel};
    use crate::traits::ExactSolver;
    use ppd_patterns::{Pattern, PatternUnion};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn estimates_match_brute_force_within_monte_carlo_error() {
        let mut rng = StdRng::seed_from_u64(123);
        let model = mallows(6, 0.6);
        let lab = cyclic_labeling(6, 3);
        let union = PatternUnion::new(vec![
            Pattern::two_label(sel(2), sel(0)),
            Pattern::two_label(sel(1), sel(0)),
        ])
        .unwrap();
        let exact = BruteForceSolver::new()
            .solve(&model.to_rim(), &lab, &union)
            .unwrap();
        let est = RejectionSampler::new(20_000)
            .estimate(&model, &lab, &union, &mut rng)
            .unwrap();
        assert!((exact - est).abs() < 0.02, "exact {exact}, estimate {est}");
    }

    #[test]
    fn zero_samples_is_an_error() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = mallows(4, 0.5);
        let lab = cyclic_labeling(4, 2);
        let union = PatternUnion::singleton(Pattern::two_label(sel(0), sel(1))).unwrap();
        assert!(RejectionSampler::new(0)
            .estimate(&model, &lab, &union, &mut rng)
            .is_err());
    }

    #[test]
    fn rare_events_exhaust_the_sample_budget() {
        // σ_m ≻ σ_1 under a concentrated Mallows model is very unlikely;
        // rejection sampling should fail to converge within a small budget.
        let mut rng = StdRng::seed_from_u64(7);
        let model = mallows(8, 0.1);
        let lab = cyclic_labeling(8, 8);
        let union = PatternUnion::singleton(Pattern::two_label(sel(7), sel(0))).unwrap();
        let truth = BruteForceSolver::new()
            .solve(&model.to_rim(), &lab, &union)
            .unwrap();
        assert!(truth < 1e-4);
        let sampler = RejectionSampler::new(1);
        let needed = sampler
            .samples_until_relative_error(&model, &lab, &union, truth, 0.01, 2_000, &mut rng);
        assert!(needed.is_none());
        // An easy event converges quickly.
        let easy = PatternUnion::singleton(Pattern::two_label(sel(0), sel(7))).unwrap();
        let easy_truth = BruteForceSolver::new()
            .solve(&model.to_rim(), &lab, &easy)
            .unwrap();
        let needed = sampler
            .samples_until_relative_error(&model, &lab, &easy, easy_truth, 0.01, 50_000, &mut rng);
        assert!(needed.is_some());
    }
}
