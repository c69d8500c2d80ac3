//! Brute-force reference solver: enumerate all `m!` rankings.

use crate::traits::ExactSolver;
use crate::{Result, SolverError};
use ppd_patterns::{CompiledUnion, Labeling, PatternUnion};
use ppd_rim::{Ranking, RimModel};

/// Enumerates every ranking of the model's items and sums the probabilities
/// of those that satisfy the union. Exponential in `m`, but it implements
/// Eq. 2 literally and therefore serves as the correctness oracle for every
/// other solver (unit tests, property tests, and the accuracy experiments on
/// small instances).
#[derive(Debug, Clone, Default)]
pub struct BruteForceSolver;

/// Largest `m` the solver will accept (guards against accidental factorial
/// blow-ups in experiments).
const MAX_ITEMS: usize = 9;

impl BruteForceSolver {
    /// Creates a brute-force solver.
    pub fn new() -> Self {
        BruteForceSolver
    }
}

impl ExactSolver for BruteForceSolver {
    fn name(&self) -> &'static str {
        "brute-force"
    }

    fn solve(&self, rim: &RimModel, labeling: &Labeling, union: &PatternUnion) -> Result<f64> {
        let m = rim.num_items();
        if m == 0 {
            return Err(SolverError::InvalidInstance("empty item universe".into()));
        }
        if m > MAX_ITEMS {
            return Err(SolverError::Unsupported(format!(
                "brute force refuses m = {m} > {MAX_ITEMS}"
            )));
        }
        let check = CompiledUnion::new(union, rim.sigma().items(), labeling);
        let mut total = 0.0;
        for tau in Ranking::enumerate_all(rim.sigma().items()) {
            if check.satisfied_by(&tau) {
                total += rim.prob_of(&tau);
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{cyclic_labeling, rim, sel};
    use ppd_patterns::{Pattern, PatternUnion};

    #[test]
    fn refuses_large_instances() {
        let solver = BruteForceSolver::new();
        let model = rim(12, 0.5);
        let lab = cyclic_labeling(12, 3);
        let union = PatternUnion::singleton(Pattern::two_label(sel(0), sel(1))).unwrap();
        assert!(matches!(
            solver.solve(&model, &lab, &union),
            Err(SolverError::Unsupported(_))
        ));
    }

    #[test]
    fn uniform_two_label_probability_is_analytic() {
        // Under the uniform distribution (φ = 1) with exactly one item per
        // label, Pr(l0-item before l1-item) = 1/2.
        let model = rim(4, 1.0);
        let lab = cyclic_labeling(4, 4);
        let union = PatternUnion::singleton(Pattern::two_label(sel(0), sel(1))).unwrap();
        let p = BruteForceSolver::new().solve(&model, &lab, &union).unwrap();
        assert!((p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn phi_zero_probability_is_indicator_on_center() {
        // With φ = 0 the only possible world is σ itself, so the probability
        // of a pattern is 1 or 0 depending on whether σ satisfies it.
        let model = rim(5, 0.0);
        let lab = cyclic_labeling(5, 5);
        let forward = PatternUnion::singleton(Pattern::two_label(sel(0), sel(4))).unwrap();
        let backward = PatternUnion::singleton(Pattern::two_label(sel(4), sel(0))).unwrap();
        let solver = BruteForceSolver::new();
        assert!((solver.solve(&model, &lab, &forward).unwrap() - 1.0).abs() < 1e-12);
        assert!(solver.solve(&model, &lab, &backward).unwrap().abs() < 1e-12);
    }

    #[test]
    fn union_probability_is_monotone_in_members() {
        let model = rim(5, 0.3);
        let lab = cyclic_labeling(5, 3);
        let g1 = Pattern::two_label(sel(2), sel(0));
        let g2 = Pattern::two_label(sel(1), sel(0));
        let solver = BruteForceSolver::new();
        let p1 = solver
            .solve(&model, &lab, &PatternUnion::singleton(g1.clone()).unwrap())
            .unwrap();
        let p12 = solver
            .solve(&model, &lab, &PatternUnion::new(vec![g1, g2]).unwrap())
            .unwrap();
        assert!(p12 >= p1 - 1e-12);
        assert!(p12 <= 1.0 + 1e-12);
    }
}
