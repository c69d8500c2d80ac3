//! Cross-solver agreement: the heart of the paper's correctness story.
//!
//! Every exact solver must agree with brute-force enumeration on the shared
//! `ppd_solvers::testutil::sample_unions()` menagerie for m ≤ 7 and
//! φ ∈ {0.1, 0.5, 1.0}; every approximate solver must land within a
//! statistical tolerance of the exact answer under fixed RNG seeds (runs are
//! fully deterministic, so these tests cannot flake).

use ppd_patterns::{PatternUnion, UnionClass};
use ppd_solvers::testutil::{cyclic_labeling, mallows, sample_unions};
use ppd_solvers::{
    mixture_coefficients, stratified_allocation, ApproxSolver, BipartiteSolver, BruteForceSolver,
    ExactSolver, GeneralSolver, MisAmpAdaptive, MisAmpBudgeted, MisAmpLite, PatternSolver,
    RejectionSampler, TwoLabelSolver,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PHIS: [f64; 3] = [0.1, 0.5, 1.0];
const EXACT_TOL: f64 = 1e-9;

fn brute(m: usize, phi: f64, union: &PatternUnion) -> f64 {
    BruteForceSolver::new()
        .solve(&mallows(m, phi).to_rim(), &cyclic_labeling(m, 4), union)
        .expect("brute force solves every union")
}

/// The general (inclusion–exclusion) solver agrees with brute force on every
/// menagerie union, every m ≤ 7 and every dispersion.
#[test]
fn general_solver_agrees_with_brute_force() {
    for m in 4..=7 {
        for phi in PHIS {
            let rim = mallows(m, phi).to_rim();
            let lab = cyclic_labeling(m, 4);
            for (ui, union) in sample_unions().iter().enumerate() {
                let expected = brute(m, phi, union);
                assert!(
                    (0.0..=1.0 + 1e-12).contains(&expected),
                    "brute force out of [0,1]: {expected}"
                );
                let got = GeneralSolver::new().solve(&rim, &lab, union).unwrap();
                assert!(
                    (expected - got).abs() < EXACT_TOL,
                    "general vs brute, m={m} phi={phi} union#{ui}: {got} vs {expected}"
                );
            }
        }
    }
}

/// The two-label DP (Algorithm 3) agrees with brute force on every two-label
/// member of the menagerie.
#[test]
fn two_label_solver_agrees_with_brute_force() {
    let mut covered = 0;
    for m in 4..=7 {
        for phi in PHIS {
            let rim = mallows(m, phi).to_rim();
            let lab = cyclic_labeling(m, 4);
            for (ui, union) in sample_unions().iter().enumerate() {
                if union.classify() != UnionClass::TwoLabel {
                    continue;
                }
                covered += 1;
                let expected = brute(m, phi, union);
                let got = TwoLabelSolver::new().solve(&rim, &lab, union).unwrap();
                assert!(
                    (expected - got).abs() < EXACT_TOL,
                    "two-label vs brute, m={m} phi={phi} union#{ui}: {got} vs {expected}"
                );
            }
        }
    }
    assert!(covered > 0, "menagerie must contain two-label unions");
}

/// The bipartite DP (Algorithm 4) agrees with brute force on every two-label
/// and bipartite member of the menagerie.
#[test]
fn bipartite_solver_agrees_with_brute_force() {
    let mut covered = 0;
    for m in 4..=7 {
        for phi in PHIS {
            let rim = mallows(m, phi).to_rim();
            let lab = cyclic_labeling(m, 4);
            for (ui, union) in sample_unions().iter().enumerate() {
                if union.classify() == UnionClass::General {
                    continue;
                }
                covered += 1;
                let expected = brute(m, phi, union);
                let pruned = BipartiteSolver::new().solve(&rim, &lab, union).unwrap();
                assert!(
                    (expected - pruned).abs() < EXACT_TOL,
                    "bipartite vs brute, m={m} phi={phi} union#{ui}: {pruned} vs {expected}"
                );
            }
        }
    }
    assert!(covered > 0, "menagerie must contain bipartite unions");
}

/// The single-pattern exact solver (the LTM substitute) agrees with brute
/// force on every individual member of every menagerie union, regardless of
/// its shape.
#[test]
fn pattern_solver_agrees_with_brute_force_on_all_members() {
    for m in 4..=7 {
        for phi in PHIS {
            let rim = mallows(m, phi).to_rim();
            let lab = cyclic_labeling(m, 4);
            for (ui, union) in sample_unions().iter().enumerate() {
                for (pi, pattern) in union.patterns().iter().enumerate() {
                    let singleton = PatternUnion::singleton(pattern.clone()).unwrap();
                    let expected = brute(m, phi, &singleton);
                    let got = PatternSolver::new()
                        .solve_pattern(&rim, &lab, pattern)
                        .unwrap();
                    assert!(
                        (expected - got).abs() < EXACT_TOL,
                        "pattern vs brute, m={m} phi={phi} union#{ui} member#{pi}: \
                         {got} vs {expected}"
                    );
                }
            }
        }
    }
}

/// Runs an approximate solver over the full menagerie × dispersion grid with
/// a per-case fixed seed and asserts the estimate is a probability within
/// `abs_tol` of the exact answer (or within `rel_tol` of it, for estimates of
/// larger probabilities where relative accuracy is the natural yardstick).
fn assert_approx_solver_tracks_exact(
    solver: &dyn ApproxSolver,
    m: usize,
    abs_tol: f64,
    rel_tol: f64,
) {
    for (ci, phi) in PHIS.iter().enumerate() {
        let model = mallows(m, *phi);
        assert!(m <= 7, "brute-force ground truth needs a small universe");
        let lab = cyclic_labeling(m, 4);
        for (ui, union) in sample_unions().iter().enumerate() {
            let exact = brute(m, *phi, union);
            // One fixed, documented seed per (solver, φ, union) case.
            let mut rng = StdRng::seed_from_u64(0xA11CE + (ci * 100 + ui) as u64);
            let est = solver.estimate(&model, &lab, union, &mut rng).unwrap();
            // Every estimator — including MIS-AMP-lite with pruning active,
            // since its compensation is normalized in odds space — must
            // return a proper probability.
            assert!(
                (0.0..=1.0).contains(&est),
                "{} out of [0,1]: {est}",
                solver.name()
            );
            let abs_err = (est - exact).abs();
            let rel_err = if exact > 0.0 {
                abs_err / exact
            } else {
                abs_err
            };
            assert!(
                abs_err < abs_tol || rel_err < rel_tol,
                "{} φ={phi} union#{ui}: estimate {est} vs exact {exact} \
                 (abs err {abs_err:.4}, rel err {rel_err:.4})",
                solver.name()
            );
        }
    }
}

/// Rejection sampling converges to the exact answer (within Monte-Carlo
/// error at 4000 samples) on every menagerie union.
#[test]
fn rejection_sampler_tracks_exact_answers() {
    assert_approx_solver_tracks_exact(&RejectionSampler::new(4_000), 6, 0.05, 0.12);
}

/// MIS-AMP-lite converges to the exact answer on every menagerie union
/// **with pruning active**: the proposal budget of 8 is below the
/// sub-ranking count of the larger menagerie unions at m = 5, so the
/// compensation factors genuinely kick in. The odds-space normalization
/// keeps the pruned estimator a proper probability and close to exact —
/// the historical multiplicative `c_ψ · c_r` form overshot 1 by 30%+ on
/// high-probability unions, which is why this test used to dodge pruning
/// with a 64-proposal budget.
#[test]
fn mis_amp_lite_tracks_exact_answers() {
    assert_approx_solver_tracks_exact(&MisAmpLite::new(8, 400), 5, 0.06, 0.15);
}

/// The error-budgeted estimator honors its `±ε` contract on the menagerie:
/// on every union × dispersion where the doubling loop converges, the
/// estimate lands within `ε` of brute force (the confidence is 95%, but the
/// fixed seeds make the runs — and therefore this bound — deterministic);
/// any union where the interval never closes is exactly the case the engine
/// falls back to an exact solver for, so non-convergence is counted, not
/// failed. The budget must also be *cheaper where it can be*: across the
/// menagerie, the converged runs must not all have burned the full
/// worst-case sample budget.
#[test]
fn budgeted_estimator_meets_its_epsilon_on_the_menagerie() {
    let epsilon = 0.05;
    let solver = MisAmpBudgeted::new(epsilon, 0.95);
    // `initial_samples` is the round's *total* mixture budget (split across
    // the proposal pool), doubling each round.
    let worst_case_samples = solver.initial_samples * ((1 << solver.max_rounds) - 1);
    let mut converged_runs = 0;
    let mut fell_back = 0;
    let mut under_budget = 0;
    for (ci, phi) in PHIS.iter().enumerate() {
        let model = mallows(5, *phi);
        let lab = cyclic_labeling(5, 4);
        for (ui, union) in sample_unions().iter().enumerate() {
            let exact = brute(5, *phi, union);
            let mut rng = StdRng::seed_from_u64(0xB0D6E7 + (ci * 100 + ui) as u64);
            let outcome = solver.run(&model, &lab, union, &mut rng).unwrap();
            if !outcome.converged {
                fell_back += 1;
                continue;
            }
            converged_runs += 1;
            if outcome.total_samples < worst_case_samples {
                under_budget += 1;
            }
            assert!(
                (outcome.estimate - exact).abs() <= epsilon + 1e-12,
                "φ={phi} union#{ui}: estimate {} vs exact {exact} missed ±{epsilon} \
                 (halfwidth {}, {} samples)",
                outcome.estimate,
                outcome.halfwidth,
                outcome.total_samples
            );
        }
    }
    assert!(
        converged_runs > 0,
        "the budget must be attainable on the menagerie"
    );
    assert!(
        under_budget > 0,
        "no converged run stopped early — the stop rule is not saving work \
         ({converged_runs} converged, {fell_back} fell back)"
    );
}

/// What the error-budget contract actually delivers, measured rather than
/// promised: `MisAmpBudgeted::new(0.05, 0.95)` over the six menagerie unions
/// × 30 seeds at m = 6 (4 cyclic labels), counting the runs that converged
/// *and* landed within ε of brute force. A 95 % interval should put at least
/// 171 of 180 runs inside ε; at φ = 1.0 it does not (pruned-pool
/// compensation bias and a normal interval on heavy-tailed importance
/// weights are the suspects). The counts are the ones measured before the
/// estimators became schedules of one run, so the harness pins the budgeted
/// path bit for bit *and* records the shortfall: a fix that raises coverage
/// changes sampled bits, and re-records these counts with its
/// `SOLVER_REVISION` bump.
#[test]
fn error_budget_coverage_is_the_measured_rate() {
    let (epsilon, confidence, m) = (0.05, 0.95, 6);
    let solver = MisAmpBudgeted::new(epsilon, confidence);
    let lab = cyclic_labeling(m, 4);
    let mut got = Vec::new();
    for phi in [0.5, 1.0] {
        let model = mallows(m, phi);
        let mut within = 0;
        let mut runs = 0;
        for (ui, union) in sample_unions().iter().enumerate() {
            let exact = brute(m, phi, union);
            for s in 0..30u64 {
                let mut rng = StdRng::seed_from_u64(s * 7919 + ui as u64);
                let outcome = solver.run(&model, &lab, union, &mut rng).unwrap();
                runs += 1;
                if outcome.converged && (outcome.estimate - exact).abs() <= epsilon {
                    within += 1;
                }
            }
        }
        got.push((phi, within, runs));
    }
    assert_eq!(got, vec![(0.5, 175, 180), (1.0, 139, 180)], "{got:?}");
}

/// The mixture estimator under a *tight* total budget (384 samples split
/// across the proposal pool) still tracks exact answers at high dispersion,
/// where proposal overlap is heaviest and the balance heuristic's variance
/// reduction matters most. The tolerances are looser than the big-budget
/// test's, but a single bad mixture weight would blow far past them.
#[test]
fn tight_budget_mixture_tracks_exact_at_high_dispersion() {
    let (m, phi) = (5, 0.9);
    let model = mallows(m, phi);
    let lab = cyclic_labeling(m, 4);
    let solver = MisAmpLite::new(6, 64);
    for (ui, union) in sample_unions().iter().enumerate() {
        let exact = brute(m, phi, union);
        let mut rng = StdRng::seed_from_u64(0x717B + ui as u64);
        let est = solver.estimate(&model, &lab, union, &mut rng).unwrap();
        assert!((0.0..=1.0).contains(&est), "union#{ui} out of [0,1]: {est}");
        let abs_err = (est - exact).abs();
        let rel_err = if exact > 0.0 {
            abs_err / exact
        } else {
            abs_err
        };
        assert!(
            abs_err < 0.08 || rel_err < 0.2,
            "union#{ui}: tight-budget estimate {est} vs exact {exact} \
             (abs err {abs_err:.4}, rel err {rel_err:.4})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The balance heuristic is a partition of unity: for any ranking a kept
    /// proposal can draw, the per-proposal weights `c_i·q_i(τ) / mix(τ)` sum
    /// to exactly 1 — the identity that makes the mixture estimator unbiased
    /// regardless of how the budget is split across proposals.
    #[test]
    fn balance_heuristic_weights_sum_to_one(
        m in 4usize..=6,
        phi_step in 1u32..=10,
        ui in 0usize..64,
        proposals in 2usize..=8,
        total in 1usize..=64,
        seed in 0u64..1_000,
    ) {
        let phi = phi_step as f64 / 10.0;
        let unions = sample_unions();
        let union = &unions[ui % unions.len()];
        let model = mallows(m, phi);
        let lab = cyclic_labeling(m, 4);
        let prepared = MisAmpLite::new(proposals, 1)
            .prepare(&model, &lab, union)
            .expect("menagerie unions are satisfiable");
        let samplers = prepared.samplers();
        let allocation = stratified_allocation(total, samplers.len());
        let coefficients = mixture_coefficients(&allocation, total);
        let mut rng = StdRng::seed_from_u64(seed);
        for (i, sampler) in samplers.iter().enumerate() {
            if allocation[i] == 0 {
                continue;
            }
            let (tau, _) = sampler.sample_with_prob(&mut rng);
            let mix: f64 = samplers
                .iter()
                .zip(&coefficients)
                .map(|(s, &c)| if c > 0.0 { c * s.prob_of(&tau) } else { 0.0 })
                .sum();
            prop_assert!(mix > 0.0, "the drawing proposal gives τ positive density");
            let weight_sum: f64 = samplers
                .iter()
                .zip(&coefficients)
                .map(|(s, &c)| if c > 0.0 { c * s.prob_of(&tau) / mix } else { 0.0 })
                .sum();
            prop_assert!(
                (weight_sum - 1.0).abs() < 1e-12,
                "weights must partition unity: got {weight_sum} (proposal {i})"
            );
        }
    }
}

/// MIS-AMP-adaptive converges to the exact answer on every menagerie union.
/// Configured to grow the proposal pool aggressively so convergence means
/// "pruning bias is resolved", not "two biased rounds agreed".
#[test]
fn mis_amp_adaptive_tracks_exact_answers() {
    let solver = MisAmpAdaptive {
        initial_proposals: 8,
        proposal_increment: 16,
        samples_per_proposal: 400,
        tolerance: 0.02,
        max_rounds: 5,
    };
    assert_approx_solver_tracks_exact(&solver, 5, 0.06, 0.15);
}

/// Cross-commit pins: the bits below were recorded at commit de05593 (PR 12,
/// the last commit on which every draw walked `PartialOrder::implies` and
/// built a `Ranking`), so they hold the sampler family to that arithmetic
/// across commits rather than against an oracle compiled from the same tree.
/// A deliberate change to the sampling arithmetic bumps `SOLVER_REVISION`
/// and re-records them.
mod cross_commit_pins {
    use ppd::datagen::{
        crowdrank_database, movielens_database, polls_database, polls_q1_query, CrowdRankConfig,
        MovieLensConfig, PollsConfig,
    };
    use ppd::prelude::*;
    use ppd_rim::SubRanking;
    use ppd_solvers::{is_amp_estimate, mis_amp_estimate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// What one (database, query, config) evaluation is pinned by: the
    /// session count, an FNV-1a fold over every `(session, bits)` pair, the
    /// first three per-session values and the top-3 scores, all as
    /// `f64::to_bits`.
    #[derive(Debug, PartialEq)]
    struct Pin {
        sessions: usize,
        fold: u64,
        first: [u64; 3],
        top3: [u64; 3],
    }

    fn pin(db: &PpdDatabase, query: &ConjunctiveQuery, config: EvalConfig) -> Pin {
        let engine = Engine::new(EvalConfig {
            seed: 2016,
            ..config
        });
        let per_session = engine.session_probabilities(db, query).unwrap();
        let mut fold = 0xcbf2_9ce4_8422_2325u64;
        for &(index, p) in &per_session {
            for word in [index as u64, p.to_bits()] {
                for byte in word.to_le_bytes() {
                    fold = (fold ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        let (top, _) = engine
            .most_probable_sessions(db, query, 3, TopKStrategy::Naive)
            .unwrap();
        Pin {
            sessions: per_session.len(),
            fold,
            first: std::array::from_fn(|i| per_session[i].1.to_bits()),
            top3: std::array::from_fn(|i| top[i].probability.to_bits()),
        }
    }

    fn movies_query() -> ConjunctiveQuery {
        let movie = |id: &str, year: &str| {
            vec![
                Term::var(id),
                Term::any(),
                Term::var(year),
                Term::any(),
                Term::any(),
                Term::any(),
                Term::any(),
            ]
        };
        ConjunctiveQuery::new("old-over-new")
            .prefer("Ratings", vec![Term::any()], Term::var("a"), Term::var("b"))
            .atom("Movies", movie("a", "ya"))
            .atom("Movies", movie("b", "yb"))
            .compare("ya", CompareOp::Lt, Value::Int(1985))
            .compare("yb", CompareOp::Ge, Value::Int(1985))
    }

    fn workers_query() -> ConjunctiveQuery {
        ConjunctiveQuery::new("own-sex-lead")
            .prefer(
                "HitRankings",
                vec![Term::var("w")],
                Term::var("m1"),
                Term::var("m2"),
            )
            .atom(
                "Workers",
                vec![Term::var("w"), Term::var("sex"), Term::var("age")],
            )
            .atom(
                "Movies",
                vec![
                    Term::var("m1"),
                    Term::any(),
                    Term::var("sex"),
                    Term::any(),
                    Term::any(),
                ],
            )
            .atom(
                "Movies",
                vec![
                    Term::var("m2"),
                    Term::val("Thriller"),
                    Term::any(),
                    Term::any(),
                    Term::any(),
                ],
            )
    }

    #[test]
    fn engine_answers_keep_the_bits_recorded_at_pr_12() {
        let polls = polls_database(&PollsConfig {
            num_candidates: 8,
            num_voters: 40,
            seed: 11,
        });
        let movies = movielens_database(&MovieLensConfig {
            num_movies: 10,
            num_components: 4,
            num_users: 40,
            phi: 0.5,
            seed: 99,
        });
        let workers = crowdrank_database(&CrowdRankConfig {
            num_movies: 8,
            num_models: 4,
            num_workers: 40,
            phi: 0.4,
            seed: 1515,
        });
        let cases = [
            ("polls", &polls, polls_q1_query()),
            ("movielens", &movies, movies_query()),
            ("crowdrank", &workers, workers_query()),
        ];
        // The error budget is evaluated with the exact-cost threshold at zero
        // so that every unit goes to the budgeted sampler, not to the DP the
        // planner would pick for instances this small.
        let sampled_budget = EvalConfig {
            exact_cost_threshold: 0.0,
            ..EvalConfig::error_budget(0.05, 0.95)
        };
        let got: Vec<(&str, Pin, Pin)> = cases
            .iter()
            .map(|(name, db, query)| {
                (
                    *name,
                    pin(db, query, EvalConfig::approximate(100)),
                    pin(db, query, sampled_budget.clone()),
                )
            })
            .collect();
        let expected = vec![
            (
                "polls",
                Pin {
                    sessions: 40,
                    fold: 0x077743ae62e61563,
                    first: [0x3fee25b4ef4f39ae, 0x3ff0000000000000, 0x3fecad01ffe8b2b8],
                    top3: [0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000],
                },
                Pin {
                    sessions: 40,
                    fold: 0xb9cd1484691ae583,
                    first: [0x3fefa51586faaab1, 0x3fefefa6f4eaf07c, 0x3fec90bd580095e1],
                    top3: [0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000],
                },
            ),
            (
                "movielens",
                Pin {
                    sessions: 40,
                    fold: 0x19071b3e4a70fc29,
                    first: [0x3ff0000000000000, 0x3ff0000000000000, 0x3fefbd6965260e90],
                    top3: [0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000],
                },
                Pin {
                    sessions: 40,
                    fold: 0xcc2078f728664b31,
                    first: [0x3ff0000000000000, 0x3fefdd480987be7f, 0x3ff0000000000000],
                    top3: [0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000],
                },
            ),
            (
                "crowdrank",
                Pin {
                    sessions: 40,
                    fold: 0xc8d482f6b96c9aa1,
                    first: [0x3fe6fe01000dccc8, 0x3fee58048ad1b416, 0x3fefe859697329c4],
                    top3: [0x3feffed100d5a7b3, 0x3feffed100d5a7b3, 0x3feffed100d5a7b3],
                },
                Pin {
                    sessions: 40,
                    fold: 0x8756ee506fa6238e,
                    first: [0x3fe7891e266224e5, 0x3fee7841653618bf, 0x3feeb9288a50ae52],
                    top3: [0x3fef7af19d3d414f, 0x3fef7af19d3d414f, 0x3fef7af19d3d414f],
                },
            ),
        ];
        assert_eq!(got, expected, "{got:#x?}");
    }

    #[test]
    fn single_subranking_estimators_keep_the_bits_recorded_at_pr_12() {
        let model = MallowsModel::new(Ranking::identity(7), 0.35).unwrap();
        let psi = SubRanking::new(vec![5, 1, 6, 2]).unwrap();
        let mut rng = StdRng::seed_from_u64(2016);
        let mis = mis_amp_estimate(&model, &psi, 150, 16, &mut rng).unwrap();
        let is = is_amp_estimate(&model, &psi, 600, &mut rng).unwrap();
        // A centre that is not the identity, and φ close to uniform.
        let model = MallowsModel::new(Ranking::new(vec![3, 0, 5, 1, 4, 2]).unwrap(), 0.9).unwrap();
        let psi = SubRanking::new(vec![2, 3, 0]).unwrap();
        let mis_wide = mis_amp_estimate(&model, &psi, 90, 32, &mut rng).unwrap();
        let is_wide = is_amp_estimate(&model, &psi, 300, &mut rng).unwrap();
        let got = [mis, is, mis_wide, is_wide].map(f64::to_bits);
        let expected = [
            0x3f51fde16c2f7d27,
            0x3f527cbf894c0338,
            0x3fc195e309cf7c69,
            0x3fc0d3e488ce585c,
        ];
        assert_eq!(got, expected, "{got:#x?}");
    }
    fn prefers(query: ConjunctiveQuery, better: &str, worse: &str) -> ConjunctiveQuery {
        query.prefer(
            "Polls",
            vec![Term::any(), Term::any()],
            Term::val(better),
            Term::val(worse),
        )
    }

    /// Exact answers held to history: the bits below were recorded at commit
    /// 09fff27 (PR 14, the last commit on which the general-DAG kernel
    /// rebuilt a `Ranking` per transition, ran all m insertion steps, and
    /// `GeneralSolver` keyed a map per subset mask). `packed_equivalence`
    /// compares the packed kernel with a reference that shares
    /// `ppd_patterns::satisfy`; these do not share anything with the tree
    /// they test. The two-label rows (`q1` and `pair`) were re-recorded at
    /// solver revision 5, when the two-label DP began to sum the satisfied
    /// mass instead of answering `1 −` the violating mass; the `chain` rows
    /// keep the bits recorded at 09fff27.
    #[test]
    fn exact_answers_keep_the_bits_recorded_at_pr_14() {
        use ppd_patterns::Pattern;
        use ppd_solvers::testutil::{cyclic_labeling, rim, sel};
        use ppd_solvers::PatternSolver;

        let polls = polls_database(&PollsConfig {
            num_candidates: 8,
            num_voters: 40,
            seed: 11,
        });
        let pair = prefers(ConjunctiveQuery::new("pair"), "cand0", "cand1");
        let chain = prefers(
            prefers(ConjunctiveQuery::new("chain"), "cand0", "cand1"),
            "cand1",
            "cand2",
        );
        let general = EvalConfig {
            solver: SolverChoice::GeneralExact,
            ..EvalConfig::exact()
        };
        let got = vec![
            ("q1", pin(&polls, &polls_q1_query(), EvalConfig::exact())),
            ("chain", pin(&polls, &chain, EvalConfig::exact())),
            ("pair", pin(&polls, &pair, EvalConfig::exact())),
            ("chain, general solver", pin(&polls, &chain, general)),
        ];
        let expected = vec![
            (
                "q1",
                Pin {
                    sessions: 40,
                    fold: 0xbfcd2e09ef1128f8,
                    first: [0x3feefefefefeff00, 0x3fefcb92315df93e, 0x3fecd99fb7e7a9f3],
                    top3: [0x3fefff94a023915b, 0x3fefff94a023915b, 0x3feffde720b1d6c5],
                },
            ),
            (
                "chain",
                Pin {
                    sessions: 40,
                    fold: 0x7ef11a447ff135c0,
                    first: [0x3fc3813813813813, 0x3f922b1afa35b268, 0x3fc6bf17cddde72e],
                    top3: [0x3fea1b1fe1c3be52, 0x3fe8d05b79547c82, 0x3fe3813813813813],
                },
            ),
            (
                "pair",
                Pin {
                    sessions: 40,
                    fold: 0xc8eec0c4ae7583fe,
                    first: [0x3fce79e79e79e79e, 0x3f9235c885d2afc1, 0x3fda1ce926b3fe24],
                    top3: [0x3feffd968c9fcf58, 0x3feff608d7333981, 0x3feff608d733397f],
                },
            ),
            (
                "chain, general solver",
                Pin {
                    sessions: 40,
                    fold: 0x7ef11a447ff135c0,
                    first: [0x3fc3813813813813, 0x3f922b1afa35b268, 0x3fc6bf17cddde72e],
                    top3: [0x3fea1b1fe1c3be52, 0x3fe8d05b79547c82, 0x3fe3813813813813],
                },
            ),
        ];
        assert_eq!(got, expected, "{got:#x?}");

        // The label chain and the diamond of `packed_equivalence`'s
        // `general_patterns()`, straight through the kernel. m / 2 labels
        // (at least 3) keep the relevant items at 6–7, so the m = 12 DP is a
        // test and not a benchmark.
        let label_chain = Pattern::new(vec![sel(1), sel(2), sel(0)], vec![(0, 1), (1, 2)]).unwrap();
        let diamond = Pattern::new(
            vec![sel(0), sel(1), sel(2), sel(0)],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap();
        let mut got = Vec::new();
        for m in [6usize, 9, 12] {
            let lab = cyclic_labeling(m, (m as u32 / 2).max(3));
            for phi in [0.0, 0.5, 1.0] {
                let model = rim(m, phi);
                for pattern in [&label_chain, &diamond] {
                    let p = PatternSolver::new()
                        .solve_pattern(&model, &lab, pattern)
                        .unwrap();
                    got.push(p.to_bits());
                }
            }
        }
        let expected: Vec<u64> = vec![
            0x3ff0000000000000,
            0x3ff0000000000000,
            0x3fdf631f7c4a5943,
            0x3fda9e9f4bdf81c7,
            0x3fe0b60b60b60b5f,
            0x3fd555555555554f,
            0x3ff0000000000000,
            0x3ff0000000000000,
            0x3fec3ed4fdc510e7,
            0x3feb9148a1058b91,
            0x3fe35a35a35a1ed8,
            0x3fe15f15f15f1735,
            0x3ff0000000000000,
            0x3ff0000000000000,
            0x3fe4d5251d3db638,
            0x3fe2a31185716af2,
            0x3fe0b60b60b60536,
            0x3fd5555555554f5d,
        ];
        assert_eq!(got, expected, "{got:#x?}");
    }
}

/// Solver-level goldens: the bits below were recorded at commit b0698f9,
/// before MIS-AMP-lite, -adaptive and -budgeted became three schedules of one
/// run over one proposal pool. They hold what `cross_commit_pins` (engine
/// answers) and `bench_results/estimator_variance.json` (Part A's variance,
/// Part B's sample counts) do not reach: each estimator's own outcome — with
/// and without compensation, the sampling pass's raw moments at a total that
/// does not divide evenly, the adaptive and budgeted round counts, totals,
/// halfwidths and stop reasons, a run that cannot converge and a union that
/// cannot be satisfied. A change to the sampling arithmetic bumps
/// `SOLVER_REVISION` and re-records them; a refactor never edits them.
mod sampler_goldens {
    use super::*;
    use ppd_patterns::{Labeling, Pattern};
    use ppd_rim::MallowsModel;
    use ppd_solvers::testutil::sel;

    const M: usize = 6;

    /// Three menagerie unions (two-label pair, bipartite + two-label, chain +
    /// two-label) × two dispersions, each with its own seed.
    fn cases() -> Vec<(u64, MallowsModel, Labeling, PatternUnion)> {
        let unions = sample_unions();
        let mut cases = Vec::new();
        for (ci, phi) in [0.5, 0.9].into_iter().enumerate() {
            for ui in [1usize, 3, 5] {
                let seed = 0x601D + (ci * 10 + ui) as u64;
                cases.push((
                    seed,
                    mallows(M, phi),
                    cyclic_labeling(M, 4),
                    unions[ui].clone(),
                ));
            }
        }
        cases
    }

    fn unsatisfiable() -> PatternUnion {
        PatternUnion::singleton(Pattern::two_label(sel(8), sel(9))).unwrap()
    }

    #[test]
    fn mis_amp_lite_estimates_keep_their_bits() {
        // Three proposals prune the larger unions, so compensation matters.
        let with = MisAmpLite::new(3, 40);
        let without = MisAmpLite::new(3, 40).without_compensation();
        let mut got = Vec::new();
        for (seed, model, lab, union) in cases() {
            for solver in [&with, &without] {
                let mut rng = StdRng::seed_from_u64(seed);
                let (p, stats) = solver
                    .estimate_with_stats(&model, &lab, &union, &mut rng)
                    .unwrap();
                got.push((p.to_bits(), stats.samples, stats.zero_density_samples));
            }
        }
        let expected: Vec<(u64, usize, usize)> = vec![
            (0x3ff0000000000000, 120, 0),
            (0x3ff0000000000000, 120, 0),
            (0x3fee5a75f132e76d, 120, 0),
            (0x3feca85370bcb38c, 120, 0),
            (0x3fef24dc4771d2d9, 120, 0),
            (0x3feeba8c350f4211, 120, 0),
            (0x3fed7964cac9edab, 120, 0),
            (0x3feba0e840fc293b, 120, 0),
            (0x3fec53774cb11fa9, 120, 0),
            (0x3fe280245f92dfab, 120, 0),
            (0x3fee048730752e83, 120, 0),
            (0x3febd57f50d977ea, 120, 0),
        ];
        assert_eq!(got, expected, "{got:#x?}");
    }

    #[test]
    fn sampling_pass_moments_keep_their_bits() {
        let mut got = Vec::new();
        for (seed, model, lab, union) in cases() {
            let solver = MisAmpLite::new(4, 1);
            let prepared = solver.prepare(&model, &lab, &union).unwrap();
            // 4 · 25 + 3: the closest three proposals take one extra draw.
            let total = prepared.num_proposals() * 25 + 3;
            let mut rng = StdRng::seed_from_u64(seed);
            let (p, moments) = solver.estimate_prepared_total(&model, &prepared, total, &mut rng);
            got.push((
                p.to_bits(),
                moments.sum.to_bits(),
                moments.sum_squares.to_bits(),
                moments.samples,
                moments.zero_density,
            ));
        }
        let expected: Vec<(u64, u64, u64, usize, usize)> = vec![
            (
                0x3fefc9ab224dde1c,
                0x4059903609f65295,
                0x405ddc6b0bd50342,
                103,
                0,
            ),
            (
                0x3fed2874d39c8b00,
                0x4055ebfb3e944efb,
                0x4065ebe4ddbbe1d7,
                103,
                0,
            ),
            (
                0x3feffe9b4814f8ea,
                0x4059bebbf546a12a,
                0x405e84b70c2781c8,
                103,
                0,
            ),
            (
                0x3ff0000000000000,
                0x4059d150b45b0a49,
                0x4063623780fa798d,
                103,
                0,
            ),
            (
                0x3fecba96ab7ba1c0,
                0x40514b9288faa0c4,
                0x40621473b1e928b2,
                103,
                0,
            ),
            (
                0x3fec97385cdf5b75,
                0x405569009fea2a3b,
                0x4058a46994e20503,
                103,
                0,
            ),
        ];
        assert_eq!(got, expected, "{got:#x?}");
    }

    #[test]
    fn mis_amp_adaptive_runs_keep_their_bits() {
        let default = MisAmpAdaptive::new(60);
        // A tight tolerance and a small step: more rounds, a longer walk.
        let patient = MisAmpAdaptive {
            initial_proposals: 1,
            proposal_increment: 1,
            tolerance: 0.005,
            max_rounds: 6,
            ..MisAmpAdaptive::new(30)
        };
        let mut got = Vec::new();
        for (seed, model, lab, union) in cases() {
            for solver in [&default, &patient] {
                let mut rng = StdRng::seed_from_u64(seed);
                let o = solver.run(&model, &lab, &union, &mut rng).unwrap();
                got.push((
                    o.estimate.to_bits(),
                    o.rounds,
                    o.total_samples,
                    o.zero_density_samples,
                    o.converged,
                ));
            }
        }
        let expected: Vec<(u64, usize, usize, usize, bool)> = vec![
            (0x3ff0000000000000, 2, 420, 0, true),
            (0x3ff0000000000000, 5, 450, 0, true),
            (0x3fee2a48283cbc8a, 2, 420, 0, true),
            (0x3fed6383daa5300a, 4, 300, 0, true),
            (0x3fef136b69d2828e, 2, 420, 0, true),
            (0x3fefef8d1c9eb41f, 6, 630, 0, false),
            (0x3fef02e20c94cffd, 3, 900, 0, true),
            (0x3fee73ac37339d28, 6, 630, 0, false),
            (0x3feba74759fe34ab, 3, 900, 0, true),
            (0x3feb9b74b541c27b, 6, 630, 0, true),
            (0x3feea22df6617082, 2, 420, 0, true),
            (0x3fef9bc5ef5d965d, 6, 630, 0, false),
        ];
        assert_eq!(got, expected, "{got:#x?}");
    }

    #[test]
    fn mis_amp_budgeted_runs_keep_their_bits() {
        let default = MisAmpBudgeted::new(0.05, 0.95);
        let tight = MisAmpBudgeted::new(0.01, 0.9);
        // One round of one sample cannot converge: the engine's exact
        // fallback case.
        let starved = MisAmpBudgeted {
            initial_samples: 1,
            max_rounds: 1,
            ..MisAmpBudgeted::new(0.05, 0.95)
        };
        let mut got = Vec::new();
        let unsat = cases()
            .into_iter()
            .take(1)
            .map(|(seed, model, lab, _)| (seed, model, lab, unsatisfiable()));
        for (seed, model, lab, union) in cases().into_iter().chain(unsat) {
            for solver in [&default, &tight, &starved] {
                let mut rng = StdRng::seed_from_u64(seed);
                let o = solver.run(&model, &lab, &union, &mut rng).unwrap();
                got.push((
                    o.estimate.to_bits(),
                    o.halfwidth.to_bits(),
                    o.rounds,
                    o.total_samples,
                    o.zero_density_samples,
                    o.converged,
                ));
            }
        }
        let expected: Vec<(u64, u64, usize, usize, usize, bool)> = vec![
            (0x3ff0000000000000, 0x3f9c213f46884410, 5, 1984, 0, true),
            (0x3fefd6f5d4242d3e, 0x3f7a894fff4ad340, 10, 65472, 0, true),
            (0x3fe5555555555556, 0x7ff0000000000000, 1, 1, 0, false),
            (0x3fee2c1911574857, 0x3fa364823ad6a7e8, 6, 4032, 0, true),
            (0x3fee6c11fff1cf60, 0x3f80fe74e1677180, 10, 65472, 0, true),
            (0x3fcf12d44d8572fc, 0x7ff0000000000000, 1, 1, 0, false),
            (0x3ff0000000000000, 0x3fa0044f2c5de250, 5, 1984, 0, true),
            (0x3fefe2bd480e05cd, 0x3f813fa8e62bb7c0, 9, 32704, 0, true),
            (0x3fe55ba3c4e0aa47, 0x7ff0000000000000, 1, 1, 0, false),
            (0x3fefa11ffaa640b1, 0x3fa75800cf627740, 2, 192, 0, true),
            (0x3fef42a1cbdcfaee, 0x3f7e9d86a10d1200, 9, 32704, 0, true),
            (0x3fe0d79435e50d7a, 0x7ff0000000000000, 1, 1, 0, false),
            (0x3fed9c8f60631f60, 0x3fa53d55917bcac0, 5, 1984, 0, true),
            (0x3fed5a0012af75ab, 0x3f815d49e56fb1c0, 9, 32704, 0, true),
            (0x3fbe52efd3a9b4fa, 0x7ff0000000000000, 1, 1, 0, false),
            (0x3fef0458cc5ce903, 0x3fa30164043e8f48, 5, 1984, 0, true),
            (0x3fee43a22a09f12e, 0x3f824f9284f41280, 9, 32704, 0, true),
            (0x3fe17d57e2bc2acf, 0x7ff0000000000000, 1, 1, 0, false),
            (0, 0, 0, 0, 0, true),
            (0, 0, 0, 0, 0, true),
            (0, 0, 0, 0, 0, true),
        ];
        assert_eq!(got, expected, "{got:#x?}");
    }
}
