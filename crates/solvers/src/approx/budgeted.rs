//! Error-budgeted MIS-AMP: sample until an empirical confidence interval on
//! the estimate closes to a caller-specified halfwidth.
//!
//! The fixed-budget estimators take a samples-per-proposal knob whose right
//! value depends on the instance: easy unions waste samples, hard ones come
//! back noisier than the caller can tolerate. [`MisAmpBudgeted`] instead takes
//! an *error budget* `(ε, confidence)` and runs MIS-AMP-lite in doubling
//! rounds — the `DoubleBudget` schedule of the one MIS run loop (see
//! `approx::mis_lite`) — until a normal-approximation confidence interval
//! from the weights' empirical variance has halfwidth at most `ε`, or reports
//! non-convergence after the final round so the caller can fall back to an
//! exact solver. Every stopping decision is a pure function of the recorded
//! moments, so the estimate depends only on the instance and the seed.

use crate::approx::mis_lite::{MisAmpLite, MixtureOutcome, ProposalPool, Schedule};
use crate::{Result, SolverError};
use ppd_patterns::{Labeling, PatternUnion};
use ppd_rim::MallowsModel;
use rand::RngCore;

/// Configuration of the error-budgeted estimator.
#[derive(Debug, Clone)]
pub struct MisAmpBudgeted {
    /// Target confidence-interval halfwidth on the (absolute) probability.
    pub epsilon: f64,
    /// Coverage of the interval, e.g. `0.95`.
    pub confidence: f64,
    /// Number of proposal distributions (fixed across rounds).
    pub num_proposals: usize,
    /// Total mixture samples in the first round, doubled every round and
    /// split across the pool — so easy unions can converge on fewer samples
    /// than one per-proposal quota.
    pub initial_samples: usize,
    /// Maximum number of doubling rounds before giving up.
    pub max_rounds: usize,
}

impl MisAmpBudgeted {
    /// A configuration targeting the given error budget with the default
    /// sampling shape: 10 proposals, 64 total initial samples, 12 doubling
    /// rounds — a worst case of `64 × (2¹² − 1) ≈ 262k` samples before the
    /// exact fallback.
    pub fn new(epsilon: f64, confidence: f64) -> Self {
        MisAmpBudgeted {
            epsilon,
            confidence,
            num_proposals: 10,
            initial_samples: 64,
            max_rounds: 12,
        }
    }

    /// Runs the doubling loop. `converged = false` in the outcome means the
    /// interval never closed to `ε`; the estimate is still the best (largest
    /// sample) round's, but callers wanting the guarantee should fall back to
    /// an exact solver — [`crate::SolverKind::budgeted`] does so
    /// automatically.
    pub fn run(
        &self,
        mallows: &MallowsModel,
        labeling: &Labeling,
        union: &PatternUnion,
        rng: &mut dyn RngCore,
    ) -> Result<MixtureOutcome> {
        self.run_with_pool(mallows, labeling, union, None, rng)
    }

    /// [`MisAmpBudgeted::run`], optionally on an already-built proposal pool
    /// for the same instance: that skips the union decomposition and reuses
    /// every greedy modal the pool has generated. This estimator always
    /// draws the same fixed `num_proposals`, so a run from a shared pool is
    /// bit-identical to a cold one.
    pub(crate) fn run_with_pool(
        &self,
        mallows: &MallowsModel,
        labeling: &Labeling,
        union: &PatternUnion,
        pool: Option<&mut ProposalPool>,
        rng: &mut dyn RngCore,
    ) -> Result<MixtureOutcome> {
        // Written so that a NaN fails every comparison and is rejected.
        let valid = self.epsilon.is_finite() && self.epsilon > 0.0;
        if !(valid && self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(SolverError::InvalidInstance(format!(
                "error budget needs epsilon > 0 and confidence in (0, 1), got ({}, {})",
                self.epsilon, self.confidence
            )));
        }
        let lite = MisAmpLite::new(self.num_proposals, self.initial_samples);
        let schedule = Schedule::DoubleBudget {
            epsilon: self.epsilon,
            z: normal_quantile(0.5 + self.confidence / 2.0),
            max_rounds: self.max_rounds,
        };
        lite.run(mallows, labeling, union, pool, schedule, rng)
    }
}

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 — far below what a sampling stop rule needs).
/// Self-contained so the solver crate stays dependency-free.
fn normal_quantile(p: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&p) && p > 0.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
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
    fn normal_quantile_matches_known_values() {
        for &(p, expected) in &[
            (0.5, 0.0),
            (0.975, 1.959964),
            (0.95, 1.644854),
            (0.995, 2.575829),
            (0.025, -1.959964),
        ] {
            let got = normal_quantile(p);
            assert!(
                (got - expected).abs() < 1e-4,
                "quantile({p}): expected {expected}, got {got}"
            );
        }
    }

    #[test]
    fn meets_the_budget_and_matches_brute_force() {
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
        let solver = MisAmpBudgeted::new(0.02, 0.95);
        let mut rng = StdRng::seed_from_u64(101);
        let outcome = solver.run(&model, &lab, &union, &mut rng).unwrap();
        assert!(outcome.converged, "interval never closed: {outcome:?}");
        assert!(outcome.halfwidth <= 0.02);
        assert!(
            (outcome.estimate - exact).abs() < 0.05,
            "exact {exact}, estimate {}",
            outcome.estimate
        );
    }

    #[test]
    fn looser_budgets_use_fewer_samples() {
        let model = mallows(7, 0.5);
        let lab = cyclic_labeling(7, 4);
        let union = PatternUnion::new(vec![
            Pattern::two_label(sel(3), sel(0)),
            Pattern::two_label(sel(2), sel(1)),
        ])
        .unwrap();
        let mut rng_loose = StdRng::seed_from_u64(5);
        let mut rng_tight = StdRng::seed_from_u64(5);
        let loose = MisAmpBudgeted::new(0.1, 0.9)
            .run(&model, &lab, &union, &mut rng_loose)
            .unwrap();
        let tight = MisAmpBudgeted::new(0.005, 0.99)
            .run(&model, &lab, &union, &mut rng_tight)
            .unwrap();
        assert!(loose.total_samples <= tight.total_samples);
    }

    #[test]
    fn is_deterministic_in_the_seed() {
        let model = mallows(6, 0.4);
        let lab = cyclic_labeling(6, 3);
        let union = PatternUnion::singleton(Pattern::two_label(sel(1), sel(0))).unwrap();
        let solver = MisAmpBudgeted::new(0.01, 0.95);
        let mut a_rng = StdRng::seed_from_u64(9);
        let mut b_rng = StdRng::seed_from_u64(9);
        let a = solver.run(&model, &lab, &union, &mut a_rng).unwrap();
        let b = solver.run(&model, &lab, &union, &mut b_rng).unwrap();
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a.total_samples, b.total_samples);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn warm_pool_reruns_are_bit_identical_to_cold_runs() {
        // The engine's proposal-pool cache replays `run_with_pool` on a pool
        // built by an earlier solve (possibly under a different ε): answers
        // must match a cold `run` bit for bit, with zero further
        // decomposition work — the budgeted estimator always draws the same
        // fixed proposal count, so the pool-reuse contract holds.
        let model = mallows(6, 0.4);
        let lab = cyclic_labeling(6, 3);
        let union = PatternUnion::new(vec![
            Pattern::two_label(sel(2), sel(0)),
            Pattern::two_label(sel(1), sel(0)),
        ])
        .unwrap();
        let loose = MisAmpBudgeted::new(0.05, 0.9);
        let tight = MisAmpBudgeted::new(0.01, 0.95);
        let mut pool = ProposalPool::build(&model, &lab, &union).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let warm_loose = loose
            .run_with_pool(&model, &lab, &union, Some(&mut pool), &mut rng)
            .unwrap();
        // Re-estimation under a tighter budget reuses the same pool.
        let mut rng = StdRng::seed_from_u64(22);
        let warm_tight = tight
            .run_with_pool(&model, &lab, &union, Some(&mut pool), &mut rng)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let cold_loose = loose.run(&model, &lab, &union, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        let cold_tight = tight.run(&model, &lab, &union, &mut rng).unwrap();
        assert_eq!(warm_loose.estimate.to_bits(), cold_loose.estimate.to_bits());
        assert_eq!(warm_loose.total_samples, cold_loose.total_samples);
        assert_eq!(warm_tight.estimate.to_bits(), cold_tight.estimate.to_bits());
        assert_eq!(warm_tight.total_samples, cold_tight.total_samples);
    }

    #[test]
    fn easy_instances_converge_below_one_per_proposal_quota() {
        // The mixture budget doubles as a *total*: an easy union (unique
        // labels, so the pattern is a single sub-ranking whose AMP proposal
        // covers it near-perfectly) should certify ε = 0.05 with fewer
        // samples than even one old-style per-proposal quota round
        // (num_proposals × initial_samples).
        let model = mallows(5, 0.5);
        let lab = cyclic_labeling(5, 5);
        let union = PatternUnion::singleton(Pattern::two_label(sel(1), sel(0))).unwrap();
        let solver = MisAmpBudgeted::new(0.05, 0.95);
        let mut rng = StdRng::seed_from_u64(11);
        let outcome = solver.run(&model, &lab, &union, &mut rng).unwrap();
        assert!(outcome.converged);
        assert!(
            outcome.total_samples < solver.num_proposals * solver.initial_samples,
            "budget granularity should beat per-proposal quotas, used {}",
            outcome.total_samples
        );
    }

    #[test]
    fn unsatisfiable_union_is_exactly_zero() {
        let model = mallows(5, 0.5);
        let lab = cyclic_labeling(5, 3);
        let union = PatternUnion::singleton(Pattern::two_label(sel(8), sel(9))).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = MisAmpBudgeted::new(0.01, 0.95)
            .run(&model, &lab, &union, &mut rng)
            .unwrap();
        assert_eq!(outcome.estimate, 0.0);
        assert_eq!(outcome.total_samples, 0);
        assert!(outcome.converged);
    }

    #[test]
    fn degenerate_budgets_are_rejected() {
        let model = mallows(4, 0.5);
        let lab = cyclic_labeling(4, 2);
        let union = PatternUnion::singleton(Pattern::two_label(sel(0), sel(1))).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for bad in [
            MisAmpBudgeted::new(0.0, 0.95),
            MisAmpBudgeted::new(-1.0, 0.95),
            MisAmpBudgeted::new(0.01, 0.0),
            MisAmpBudgeted::new(0.01, 1.0),
            MisAmpBudgeted::new(f64::NAN, 0.95),
        ] {
            assert!(
                bad.run(&model, &lab, &union, &mut rng).is_err(),
                "({}, {}) should be rejected",
                bad.epsilon,
                bad.confidence
            );
        }
    }
}
