//! # ppd-datagen
//!
//! Generators for the six dataset families of the paper's experimental
//! evaluation (Section 6.1):
//!
//! * [`polls`] — the synthetic 2016-election polling database (item relation
//!   `Candidates`, o-relation `Voters`, p-relation `Polls`);
//! * [`benchmarks`] — Benchmark-A, -B, -C and -D: families of pattern unions
//!   over labeled Mallows models, used to stress individual solvers;
//! * [`movielens`] — a synthetic stand-in for the MovieLens dataset: a movie
//!   catalogue with year/genre/runtime/lead attributes and user sessions
//!   drawn from a 16-component Mallows mixture;
//! * [`crowdrank`] — a synthetic stand-in for the CrowdRank dataset: one HIT
//!   of 20 movies with 7 Mallows models and up to 200 000 synthetic worker
//!   sessions.
//!
//! The real MovieLens ratings and CrowdRank HITs are not redistributable
//! inputs, so the generators reproduce their *statistical shape* (catalogue
//! sizes, number of mixture components, attribute distributions).

pub mod benchmarks;
pub mod crowdrank;
pub mod movielens;
pub mod polls;

pub use benchmarks::{
    benchmark_a, benchmark_b, benchmark_c, benchmark_d, BenchmarkBConfig, BenchmarkCConfig,
    BenchmarkDConfig,
};
pub use crowdrank::{crowdrank_database, CrowdRankConfig};
pub use movielens::{movielens_database, MovieLensConfig};
pub use polls::{polls_database, polls_q1_query, PollsConfig};

use ppd_patterns::{Labeling, PatternUnion};
use ppd_rim::MallowsModel;

/// A self-contained solver workload: a labeled Mallows model plus a pattern
/// union whose marginal probability is to be computed. The benchmark
/// generators produce lists of these.
#[derive(Debug, Clone)]
pub struct SolverInstance {
    /// Human-readable description of the instance parameters.
    pub description: String,
    /// The Mallows model.
    pub model: MallowsModel,
    /// The labeling function over the model's items.
    pub labeling: Labeling,
    /// The pattern union to evaluate.
    pub union: PatternUnion,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppd_patterns::UnionClass;
    use ppd_solvers::{BipartiteSolver, ExactSolver};

    #[test]
    fn benchmark_a_instances_are_bipartite_and_solvable() {
        let instances = benchmark_a(4, 99);
        assert_eq!(instances.len(), 4);
        for inst in &instances {
            assert_eq!(inst.union.num_patterns(), 3);
            assert_eq!(inst.union.classify(), UnionClass::Bipartite);
            assert_eq!(inst.model.num_items(), 15);
            let p = BipartiteSolver::new()
                .solve(&inst.model.to_rim(), &inst.labeling, &inst.union)
                .unwrap();
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
