//! MIS-AMP-adaptive: MIS-AMP-lite run again with more proposal distributions
//! until the estimate converges (Section 5.5) — the `GrowProposals` schedule
//! of the one MIS run loop (see `approx::mis_lite`).

use crate::approx::mis_lite::{MisAmpLite, MixtureOutcome, Schedule};
use crate::traits::{ApproxSolver, EstimateStats};
use crate::Result;
use ppd_patterns::{Labeling, PatternUnion};
use ppd_rim::MallowsModel;
use rand::RngCore;

/// Configuration of the adaptive estimator.
#[derive(Debug, Clone)]
pub struct MisAmpAdaptive {
    /// Number of proposal distributions used in the first round.
    pub initial_proposals: usize,
    /// How many proposals are added per round (the paper's `∆d`).
    pub proposal_increment: usize,
    /// Samples per proposal in every round.
    pub samples_per_proposal: usize,
    /// Convergence threshold on the relative change between consecutive
    /// rounds.
    pub tolerance: f64,
    /// Maximum number of rounds before giving up and returning the latest
    /// estimate.
    pub max_rounds: usize,
}

impl Default for MisAmpAdaptive {
    fn default() -> Self {
        MisAmpAdaptive {
            initial_proposals: 2,
            proposal_increment: 3,
            samples_per_proposal: 300,
            tolerance: 0.05,
            max_rounds: 8,
        }
    }
}

impl MisAmpAdaptive {
    /// A configuration suited to quick interactive use.
    pub fn new(samples_per_proposal: usize) -> Self {
        MisAmpAdaptive {
            samples_per_proposal,
            ..MisAmpAdaptive::default()
        }
    }

    /// Runs the adaptive schedule over one proposal pool, returning the
    /// estimate together with its round count, samples and stop reason.
    pub fn run(
        &self,
        mallows: &MallowsModel,
        labeling: &Labeling,
        union: &PatternUnion,
        rng: &mut dyn RngCore,
    ) -> Result<MixtureOutcome> {
        let lite = MisAmpLite::new(self.initial_proposals, self.samples_per_proposal);
        let schedule = Schedule::GrowProposals {
            step: self.proposal_increment,
            tolerance: self.tolerance,
            max_rounds: self.max_rounds,
        };
        lite.run(mallows, labeling, union, None, schedule, rng)
    }
}

impl ApproxSolver for MisAmpAdaptive {
    fn name(&self) -> &'static str {
        "mis-amp-adaptive"
    }

    fn estimate(
        &self,
        mallows: &MallowsModel,
        labeling: &Labeling,
        union: &PatternUnion,
        rng: &mut dyn RngCore,
    ) -> Result<f64> {
        self.run(mallows, labeling, union, rng).map(|o| o.estimate)
    }

    fn estimate_with_stats(
        &self,
        mallows: &MallowsModel,
        labeling: &Labeling,
        union: &PatternUnion,
        rng: &mut dyn RngCore,
    ) -> Result<(f64, EstimateStats)> {
        self.run(mallows, labeling, union, rng)
            .map(MixtureOutcome::with_stats)
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
    fn converges_and_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(77);
        let model = mallows(6, 0.3);
        let lab = cyclic_labeling(6, 3);
        let union = PatternUnion::new(vec![
            Pattern::two_label(sel(2), sel(0)),
            Pattern::two_label(sel(1), sel(0)),
        ])
        .unwrap();
        let exact = BruteForceSolver::new()
            .solve(&model.to_rim(), &lab, &union)
            .unwrap();
        let adaptive = MisAmpAdaptive {
            samples_per_proposal: 1_500,
            ..MisAmpAdaptive::default()
        };
        let outcome = adaptive.run(&model, &lab, &union, &mut rng).unwrap();
        assert!(outcome.rounds >= 2);
        assert!(
            ((outcome.estimate - exact) / exact).abs() < 0.15,
            "exact {exact}, estimate {}",
            outcome.estimate
        );
    }

    #[test]
    fn unsatisfiable_union_terminates_immediately_with_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = mallows(5, 0.5);
        let lab = cyclic_labeling(5, 3);
        let union = PatternUnion::singleton(Pattern::two_label(sel(8), sel(9))).unwrap();
        let outcome = MisAmpAdaptive::default()
            .run(&model, &lab, &union, &mut rng)
            .unwrap();
        assert_eq!(outcome.estimate, 0.0);
        assert!(outcome.converged);
        assert_eq!(outcome.rounds, 1);
    }

    #[test]
    fn zero_configuration_is_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = mallows(4, 0.5);
        let lab = cyclic_labeling(4, 2);
        let union = PatternUnion::singleton(Pattern::two_label(sel(0), sel(1))).unwrap();
        let bad = MisAmpAdaptive {
            initial_proposals: 0,
            ..MisAmpAdaptive::default()
        };
        assert!(bad.run(&model, &lab, &union, &mut rng).is_err());
    }
}
