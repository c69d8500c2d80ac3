//! Property-based tests (proptest) on the core invariants of the solver
//! stack: solver agreement, probability bounds, decomposition equivalence,
//! and upper-bound monotonicity — over randomly generated labeled Mallows
//! instances and pattern unions.
//!
//! Determinism and bounds: the offline proptest stand-in (vendor/proptest)
//! derives its RNG seed from each test's module path and name, so every run
//! (locally and in CI) explores the same cases — the suite cannot flake.
//! The case count is tuned so the whole file finishes in seconds in debug
//! mode (the < 60 s budget in ISSUE 1 has an order of magnitude of slack).

use ppd::prelude::*;
use ppd_patterns::{
    decompose_union, relaxed_upper_bound_union, satisfies_union, DecompositionLimits, Labeling,
    NodeSelector, Pattern, PatternUnion, UnionClass,
};
use ppd_rim::{kendall_tau, Ranking};
use ppd_solvers::{BruteForceSolver, PatternSolver};
use proptest::prelude::*;

/// Strategy: a labeled Mallows instance with `m ∈ [4, 6]` items, 3 labels
/// assigned cyclically plus random extra labels, and `φ ∈ {0, …, 1}`.
fn arb_instance() -> impl Strategy<Value = (MallowsModel, Labeling)> {
    (4usize..=6, 0u64..1000, 0..=10u32).prop_map(|(m, seed, phi_step)| {
        let phi = phi_step as f64 / 10.0;
        let model = MallowsModel::new(Ranking::identity(m), phi).unwrap();
        let mut labeling = Labeling::new();
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for item in 0..m as u32 {
            labeling.add(item, item % 3);
            if next() % 2 == 0 {
                labeling.add(item, 3 + next() % 2);
            }
        }
        (model, labeling)
    })
}

/// Strategy: a pattern union of 1–3 members over labels 0..5, each member a
/// random DAG over 2–3 nodes.
fn arb_union() -> impl Strategy<Value = PatternUnion> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0u32..5, 2..=3),
            proptest::bool::ANY,
            proptest::bool::ANY,
        ),
        1..=3,
    )
    .prop_map(|members| {
        let patterns: Vec<Pattern> = members
            .into_iter()
            .map(|(labels, extra_edge, reverse)| {
                let nodes: Vec<NodeSelector> =
                    labels.iter().map(|&l| NodeSelector::single(l)).collect();
                let mut edges = vec![if reverse { (1, 0) } else { (0, 1) }];
                if nodes.len() == 3 {
                    edges.push(if extra_edge { (1, 2) } else { (0, 2) });
                }
                Pattern::new(nodes, edges).expect("edges form a DAG by construction")
            })
            .collect();
        PatternUnion::new(patterns).expect("non-empty union")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every solver that supports the union agrees with brute force, and the
    /// result is a probability.
    #[test]
    fn solvers_agree_with_brute_force((model, labeling) in arb_instance(), union in arb_union()) {
        let rim = model.to_rim();
        let expected = BruteForceSolver::new().solve(&rim, &labeling, &union).unwrap();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&expected));

        let general = GeneralSolver::new().solve(&rim, &labeling, &union).unwrap();
        prop_assert!((expected - general).abs() < 1e-8, "general: {expected} vs {general}");

        match union.classify() {
            UnionClass::TwoLabel => {
                let p = TwoLabelSolver::new().solve(&rim, &labeling, &union).unwrap();
                prop_assert!((expected - p).abs() < 1e-8, "two-label: {expected} vs {p}");
                let q = BipartiteSolver::new().solve(&rim, &labeling, &union).unwrap();
                prop_assert!((expected - q).abs() < 1e-8, "bipartite: {expected} vs {q}");
            }
            UnionClass::Bipartite => {
                let q = BipartiteSolver::new().solve(&rim, &labeling, &union).unwrap();
                prop_assert!((expected - q).abs() < 1e-8, "bipartite: {expected} vs {q}");
            }
            UnionClass::General => {}
        }
    }

    /// Single patterns: the exact pattern solver (LTM substitute) agrees with
    /// brute force regardless of the pattern's shape.
    #[test]
    fn pattern_solver_agrees_with_brute_force((model, labeling) in arb_instance(), union in arb_union()) {
        let rim = model.to_rim();
        let pattern = &union.patterns()[0];
        let singleton = PatternUnion::singleton(pattern.clone()).unwrap();
        let expected = BruteForceSolver::new().solve(&rim, &labeling, &singleton).unwrap();
        let got = PatternSolver::new().solve_pattern(&rim, &labeling, pattern).unwrap();
        prop_assert!((expected - got).abs() < 1e-8);
    }

    /// Adding a member to a union never decreases its probability.
    #[test]
    fn union_probability_is_monotone((model, labeling) in arb_instance(), union in arb_union()) {
        let rim = model.to_rim();
        let full = BruteForceSolver::new().solve(&rim, &labeling, &union).unwrap();
        let first = PatternUnion::singleton(union.patterns()[0].clone()).unwrap();
        let single = BruteForceSolver::new().solve(&rim, &labeling, &first).unwrap();
        prop_assert!(full >= single - 1e-12);
    }

    /// Decomposition equivalence (Section 5.2): a ranking satisfies the union
    /// iff it is consistent with at least one decomposed sub-ranking.
    #[test]
    fn decomposition_preserves_satisfaction((model, labeling) in arb_instance(), union in arb_union()) {
        let universe: Vec<u32> = model.sigma().items().to_vec();
        let decomposition = decompose_union(&union, &universe, &labeling, &DecompositionLimits::default());
        match decomposition {
            Err(_) => {
                // No member is satisfiable: no ranking may satisfy the union.
                for tau in Ranking::enumerate_all(&universe) {
                    prop_assert!(!satisfies_union(&tau, &labeling, &union));
                }
            }
            Ok(dec) => {
                for tau in Ranking::enumerate_all(&universe) {
                    let direct = satisfies_union(&tau, &labeling, &union);
                    let via = dec.subrankings.iter().any(|psi| psi.is_consistent(&tau));
                    prop_assert_eq!(direct, via);
                }
            }
        }
    }

    /// The 1-edge / 2-edge relaxations used by the top-k optimization are
    /// genuine upper bounds on the union probability.
    #[test]
    fn relaxed_unions_are_upper_bounds((model, labeling) in arb_instance(), union in arb_union()) {
        let rim = model.to_rim();
        let exact = BruteForceSolver::new().solve(&rim, &labeling, &union).unwrap();
        for edges in 1..=2usize {
            let relaxed = relaxed_upper_bound_union(&union, model.sigma(), &labeling, edges).unwrap();
            let bound = BruteForceSolver::new().solve(&rim, &labeling, &relaxed).unwrap();
            prop_assert!(bound + 1e-9 >= exact, "edges={edges}: bound {bound} < exact {exact}");
        }
    }

    /// Mallows sanity: probabilities are a distribution and respect the
    /// distance ordering.
    #[test]
    fn mallows_probabilities_are_consistent((model, _labeling) in arb_instance()) {
        let total: f64 = Ranking::enumerate_all(model.sigma().items())
            .iter()
            .map(|t| model.prob_of(t))
            .sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // A ranking closer to the centre is at least as probable as a farther one.
        let rankings = Ranking::enumerate_all(model.sigma().items());
        let a = &rankings[0];
        let b = &rankings[rankings.len() - 1];
        let (pa, pb) = (model.prob_of(a), model.prob_of(b));
        let (da, db) = (
            kendall_tau(a, model.sigma()),
            kendall_tau(b, model.sigma()),
        );
        if da <= db {
            prop_assert!(pa + 1e-15 >= pb);
        } else {
            prop_assert!(pb + 1e-15 >= pa);
        }
    }
}
