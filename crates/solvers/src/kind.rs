//! A unifying, object-safe handle over exact and approximate solvers.
//!
//! Query-evaluation engines need to treat "solve this (model, union) work
//! unit" uniformly regardless of whether the underlying inference is an
//! exact dynamic program or a seeded Monte-Carlo estimator. [`SolverKind`]
//! wraps either family behind one value that is `Send + Sync` (so a single
//! handle can be shared by worker threads) and exposes a single
//! [`SolverKind::solve_seeded_detailed`] entry point whose determinism contract is
//! explicit: the result depends only on the instance and the seed, never on
//! ambient state such as evaluation order or the calling thread.

use crate::approx::budgeted::MisAmpBudgeted;
use crate::approx::mis_lite::ProposalPool;
use crate::select::choose_exact_solver;
use crate::traits::{ApproxSolver, ExactSolver};
use crate::Result;
use ppd_patterns::{Labeling, PatternUnion};
use ppd_rim::{MallowsModel, RimModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One object-safe handle over the two solver families.
///
/// The exact arm ignores the seed; the approximate arm derives its RNG from
/// the seed alone, which is what makes engine-level evaluation bit-identical
/// across thread counts and scheduling orders.
pub enum SolverKind {
    /// An exact solver (two-label / bipartite / general / brute-force).
    Exact(Box<dyn ExactSolver>),
    /// An approximate, seeded Monte-Carlo solver.
    Approx(Box<dyn ApproxSolver>),
    /// The error-budgeted estimator, with an automatic exact fallback when
    /// its confidence interval fails to close to the requested `ε`. The
    /// fallback decision depends only on the recorded sample moments, so the
    /// arm is deterministic in `(instance, seed)` like the other two.
    Budgeted(MisAmpBudgeted),
}

impl SolverKind {
    /// Wraps an exact solver.
    pub fn exact(solver: Box<dyn ExactSolver>) -> Self {
        SolverKind::Exact(solver)
    }

    /// Picks the cheapest exact solver matching the union's class, as
    /// [`choose_exact_solver`] does, and wraps it.
    pub fn exact_auto(union: &PatternUnion) -> Self {
        SolverKind::Exact(choose_exact_solver(union))
    }

    /// Wraps an approximate solver.
    pub fn approx(solver: Box<dyn ApproxSolver>) -> Self {
        SolverKind::Approx(solver)
    }

    /// Wraps the error-budgeted estimator (with exact fallback).
    pub fn budgeted(solver: MisAmpBudgeted) -> Self {
        SolverKind::Budgeted(solver)
    }

    /// The wrapped solver's stable identifier.
    pub fn name(&self) -> &'static str {
        match self {
            SolverKind::Exact(s) => s.name(),
            SolverKind::Approx(s) => s.name(),
            SolverKind::Budgeted(_) => "mis-amp-budgeted",
        }
    }

    /// Computes (or estimates) `Pr(G | σ, Π, λ)`, clamped to `[0, 1]`, with
    /// sampling-health statistics; the budgeted arm optionally reuses a
    /// prepared [`ProposalPool`].
    ///
    /// The exact arm consumes the RIM insertion-probability form, which the
    /// caller supplies *lazily* — an engine that prepares one `RimModel` per
    /// distinct model passes an accessor to the shared instance, and an
    /// approximate engine never pays for the expansion at all. `seed` fully
    /// determines the approximate arm's randomness.
    ///
    /// The probability is bit-identical with or without a pool: supplying
    /// one skips the union decomposition and greedy-modal walk, neither of
    /// which consumes randomness or alters the prepared proposals (pool
    /// preparation is deterministic in the instance). Non-budgeted arms
    /// ignore the pool.
    pub fn solve_seeded_detailed<'m>(
        &self,
        mallows: &MallowsModel,
        rim: impl FnOnce() -> &'m RimModel,
        labeling: &Labeling,
        union: &PatternUnion,
        seed: u64,
        pool: Option<&mut ProposalPool>,
    ) -> Result<SolveDetail> {
        let mut detail = SolveDetail::default();
        let p = match self {
            SolverKind::Exact(solver) => solver.solve(rim(), labeling, union)?,
            SolverKind::Approx(solver) => {
                let mut rng = StdRng::seed_from_u64(seed);
                let (p, stats) = solver.estimate_with_stats(mallows, labeling, union, &mut rng)?;
                detail.samples = stats.samples;
                detail.zero_density_samples = stats.zero_density_samples;
                p
            }
            SolverKind::Budgeted(solver) => {
                let mut rng = StdRng::seed_from_u64(seed);
                let outcome = solver.run_with_pool(mallows, labeling, union, pool, &mut rng)?;
                detail.samples = outcome.total_samples;
                detail.zero_density_samples = outcome.zero_density_samples;
                if outcome.converged {
                    outcome.estimate
                } else {
                    // The interval would not close to ε within the sampling
                    // budget: honour the accuracy contract by solving
                    // exactly. Which branch runs is a pure function of the
                    // recorded moments, hence of (instance, seed).
                    choose_exact_solver(union).solve(rim(), labeling, union)?
                }
            }
        };
        detail.probability = p.clamp(0.0, 1.0);
        Ok(detail)
    }
}

/// Result of [`SolverKind::solve_seeded_detailed`]: the (clamped) probability
/// plus the sampling-health statistics of the solve. Exact solves report zero
/// samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveDetail {
    /// The computed (or estimated) probability, clamped to `[0, 1]`.
    pub probability: f64,
    /// Total Monte-Carlo samples drawn (0 for exact solves).
    pub samples: usize,
    /// Samples on which the proposal mixture had zero density.
    pub zero_density_samples: usize,
}

impl std::fmt::Debug for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverKind::Exact(s) => write!(f, "SolverKind::Exact({})", s.name()),
            SolverKind::Approx(s) => write!(f, "SolverKind::Approx({})", s.name()),
            SolverKind::Budgeted(s) => write!(
                f,
                "SolverKind::Budgeted(ε = {}, confidence = {})",
                s.epsilon, s.confidence
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{cyclic_labeling, mallows, sel};
    use crate::{BruteForceSolver, MisAmpAdaptive, RejectionSampler};
    use ppd_patterns::Pattern;

    fn solve(
        kind: &SolverKind,
        model: &MallowsModel,
        rim: &RimModel,
        lab: &Labeling,
        union: &PatternUnion,
        seed: u64,
    ) -> f64 {
        kind.solve_seeded_detailed(model, || rim, lab, union, seed, None)
            .unwrap()
            .probability
    }

    fn instance() -> (MallowsModel, Labeling, PatternUnion) {
        let model = mallows(5, 0.4);
        let lab = cyclic_labeling(5, 3);
        let union = PatternUnion::singleton(Pattern::two_label(sel(1), sel(0))).unwrap();
        (model, lab, union)
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let exact = SolverKind::exact(Box::new(BruteForceSolver::new()));
        let approx = SolverKind::approx(Box::new(RejectionSampler::new(10)));
        assert_send_sync(&exact);
        assert_send_sync(&approx);
    }

    #[test]
    fn exact_arm_matches_direct_solver_and_ignores_seed() {
        let (model, lab, union) = instance();
        let rim = model.to_rim();
        let direct = BruteForceSolver::new().solve(&rim, &lab, &union).unwrap();
        let kind = SolverKind::exact_auto(&union);
        let a = solve(&kind, &model, &rim, &lab, &union, 1);
        let b = solve(&kind, &model, &rim, &lab, &union, 999);
        assert_eq!(a, b);
        assert!((a - direct).abs() < 1e-12);
    }

    #[test]
    fn budgeted_arm_is_deterministic_and_meets_the_budget() {
        let (model, lab, union) = instance();
        let rim = model.to_rim();
        let exact = BruteForceSolver::new().solve(&rim, &lab, &union).unwrap();
        let kind = SolverKind::budgeted(MisAmpBudgeted::new(0.02, 0.95));
        let a = solve(&kind, &model, &rim, &lab, &union, 5);
        let b = solve(&kind, &model, &rim, &lab, &union, 5);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!((a - exact).abs() < 0.05, "exact {exact}, estimate {a}");
    }

    #[test]
    fn budgeted_arm_falls_back_to_exact_when_the_interval_cannot_close() {
        // One round of one sample per proposal cannot certify ε = 1e-9, so
        // the arm must return the exact answer.
        let (model, lab, union) = instance();
        let rim = model.to_rim();
        let exact = BruteForceSolver::new().solve(&rim, &lab, &union).unwrap();
        let solver = MisAmpBudgeted {
            initial_samples: 1,
            max_rounds: 1,
            ..MisAmpBudgeted::new(1e-9, 0.999)
        };
        let kind = SolverKind::budgeted(solver);
        let p = solve(&kind, &model, &rim, &lab, &union, 3);
        assert!((p - exact).abs() < 1e-12, "exact {exact}, got {p}");
    }

    #[test]
    fn approx_arm_is_deterministic_in_the_seed() {
        let (model, lab, union) = instance();
        let rim = model.to_rim();
        let kind = SolverKind::approx(Box::new(MisAmpAdaptive::new(200)));
        let a = solve(&kind, &model, &rim, &lab, &union, 7);
        let b = solve(&kind, &model, &rim, &lab, &union, 7);
        let c = solve(&kind, &model, &rim, &lab, &union, 8);
        assert_eq!(a, b);
        // A different seed draws different samples (with overwhelming
        // probability on this instance).
        assert_ne!(a, c);
        assert!((0.0..=1.0).contains(&a));
    }
}
