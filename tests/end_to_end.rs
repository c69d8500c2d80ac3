//! Cross-crate integration tests: database construction → query grounding →
//! solver inference → aggregation, validated against brute-force enumeration
//! of possible worlds.

use ppd::prelude::*;
use ppd_core::{ground_query, QueryShape};
use ppd_patterns::satisfies_union;

/// A small polling database (Figure 1 of the paper) whose possible worlds can
/// be enumerated exhaustively.
fn small_db() -> PpdDatabase {
    let candidates = Relation::new(
        "Candidates",
        vec!["candidate", "party", "sex", "age", "edu", "reg"],
        vec![
            vec!["Trump", "R", "M", "70", "BS", "NE"],
            vec!["Clinton", "D", "F", "69", "JD", "NE"],
            vec!["Sanders", "D", "M", "75", "BS", "NE"],
            vec!["Rubio", "R", "M", "45", "JD", "S"],
        ]
        .into_iter()
        .map(|row| row.into_iter().map(Value::from).collect())
        .collect(),
    )
    .unwrap();
    let voters = Relation::new(
        "Voters",
        vec!["voter", "sex", "age", "edu"],
        vec![
            vec!["Ann", "F", "20", "BS"],
            vec!["Bob", "M", "30", "BS"],
            vec!["Dave", "M", "50", "MS"],
        ]
        .into_iter()
        .map(|row| row.into_iter().map(Value::from).collect())
        .collect(),
    )
    .unwrap();
    let polls = PreferenceRelation::new(
        "Polls",
        vec!["voter", "date"],
        vec![
            Session::new(
                vec![Value::from("Ann"), Value::from("5/5")],
                MallowsModel::new(Ranking::new(vec![1, 2, 3, 0]).unwrap(), 0.3).unwrap(),
            ),
            Session::new(
                vec![Value::from("Bob"), Value::from("5/5")],
                MallowsModel::new(Ranking::new(vec![0, 3, 2, 1]).unwrap(), 0.3).unwrap(),
            ),
            Session::new(
                vec![Value::from("Dave"), Value::from("6/5")],
                MallowsModel::new(Ranking::new(vec![1, 2, 3, 0]).unwrap(), 0.5).unwrap(),
            ),
        ],
    )
    .unwrap();
    DatabaseBuilder::new()
        .item_relation(candidates, "candidate")
        .relation(voters)
        .preference_relation(polls)
        .build()
        .unwrap()
}

/// Per-session ground truth by enumerating all rankings of the session model.
fn brute_force_session_probability(
    db: &PpdDatabase,
    query: &ConjunctiveQuery,
    session_index: usize,
) -> f64 {
    let plan = ground_query(db, query).unwrap();
    let Some(squery) = plan
        .sessions
        .iter()
        .find(|s| s.session_index == session_index)
    else {
        return 0.0;
    };
    let model = db.preference_relation("Polls").unwrap().sessions()[session_index].model();
    Ranking::enumerate_all(model.sigma().items())
        .iter()
        .filter(|t| satisfies_union(t, &plan.labeling, &squery.union))
        .map(|t| model.prob_of(t))
        .sum()
}

fn q2() -> ConjunctiveQuery {
    ConjunctiveQuery::new("Q2")
        .prefer(
            "Polls",
            vec![Term::any(), Term::any()],
            Term::var("c1"),
            Term::var("c2"),
        )
        .atom(
            "Candidates",
            vec![
                Term::var("c1"),
                Term::val("D"),
                Term::any(),
                Term::any(),
                Term::var("e"),
                Term::any(),
            ],
        )
        .atom(
            "Candidates",
            vec![
                Term::var("c2"),
                Term::val("R"),
                Term::any(),
                Term::any(),
                Term::var("e"),
                Term::any(),
            ],
        )
}

#[test]
fn q0_constant_query_matches_brute_force() {
    let db = small_db();
    let q0 = ConjunctiveQuery::new("Q0")
        .prefer(
            "Polls",
            vec![Term::val("Ann"), Term::val("5/5")],
            Term::val("Trump"),
            Term::val("Clinton"),
        )
        .prefer(
            "Polls",
            vec![Term::val("Ann"), Term::val("5/5")],
            Term::val("Trump"),
            Term::val("Rubio"),
        );
    let exact = Engine::new(EvalConfig::exact())
        .evaluate_boolean(&db, &q0)
        .unwrap();
    let expected = brute_force_session_probability(&db, &q0, 0);
    assert!((exact - expected).abs() < 1e-9);
    // Ann's model is centred on Clinton ≻ Sanders ≻ Rubio ≻ Trump with a small
    // dispersion, so Trump beating both Clinton and Rubio is unlikely.
    assert!(exact < 0.1);
}

#[test]
fn q2_hard_query_full_pipeline_matches_brute_force() {
    let db = small_db();
    let q = q2();
    let plan = ground_query(&db, &q).unwrap();
    assert!(matches!(plan.shape, QueryShape::NonItemwise { .. }));

    let per_session = Engine::new(EvalConfig::exact())
        .session_probabilities(&db, &q)
        .unwrap();
    assert_eq!(per_session.len(), 3);
    let mut product = 1.0;
    for &(sidx, p) in &per_session {
        let expected = brute_force_session_probability(&db, &q, sidx);
        assert!((p - expected).abs() < 1e-9, "session {sidx}");
        product *= 1.0 - p;
    }
    let boolean = Engine::new(EvalConfig::exact())
        .evaluate_boolean(&db, &q)
        .unwrap();
    assert!((boolean - (1.0 - product)).abs() < 1e-12);

    let count = Engine::new(EvalConfig::exact())
        .count_sessions(&db, &q)
        .unwrap();
    let expected_count: f64 = per_session.iter().map(|&(_, p)| p).sum();
    assert!((count - expected_count).abs() < 1e-12);
}

#[test]
fn exact_and_approximate_evaluation_agree() {
    let db = small_db();
    let q = q2();
    let exact = Engine::new(EvalConfig::exact())
        .evaluate_boolean(&db, &q)
        .unwrap();
    let approx = Engine::new(EvalConfig::approximate(2_000))
        .evaluate_boolean(&db, &q)
        .unwrap();
    assert!(
        (exact - approx).abs() < 0.05,
        "exact {exact} vs approximate {approx}"
    );
}

#[test]
fn top_k_strategies_agree_end_to_end() {
    let db = small_db();
    let q = q2();
    let (naive, _) = Engine::new(EvalConfig::exact())
        .most_probable_sessions(&db, &q, 2, TopKStrategy::Naive)
        .unwrap();
    for edges in 1..=2 {
        let (optimized, _) = Engine::new(EvalConfig::exact())
            .most_probable_sessions(
                &db,
                &q,
                2,
                TopKStrategy::UpperBound {
                    edges_per_pattern: edges,
                },
            )
            .unwrap();
        assert_eq!(naive.len(), optimized.len());
        for (a, b) in naive.iter().zip(&optimized) {
            assert_eq!(a.session_index, b.session_index);
            assert!((a.probability - b.probability).abs() < 1e-9);
        }
    }
}

#[test]
fn solvers_cross_validate_on_generated_workloads() {
    use ppd::datagen::{benchmark_c, BenchmarkCConfig};
    use ppd_solvers::BruteForceSolver;
    // Small Benchmark-C instances: brute force vs bipartite vs general.
    let instances = benchmark_c(
        &BenchmarkCConfig {
            num_items: 6,
            patterns_per_union: 2,
            labels_per_pattern: 3,
            items_per_label: 2,
            instances: 5,
            phi: 0.4,
        },
        321,
    );
    for inst in &instances {
        let rim = inst.model.to_rim();
        let expected = BruteForceSolver::new()
            .solve(&rim, &inst.labeling, &inst.union)
            .unwrap();
        let bipartite = BipartiteSolver::new()
            .solve(&rim, &inst.labeling, &inst.union)
            .unwrap();
        let general = GeneralSolver::new()
            .solve(&rim, &inst.labeling, &inst.union)
            .unwrap();
        assert!((expected - bipartite).abs() < 1e-9);
        assert!((expected - general).abs() < 1e-9);
    }
}

/// Regression: Boolean, count and top-k evaluators agree on a two-candidate
/// database whose per-session answers follow from the m = 2 Mallows closed
/// form — `Pr(center order) = 1/(1+φ)`, `Pr(reversed) = φ/(1+φ)`:
///
/// * session 0: center ⟨A,B⟩, φ = 0.5 → Pr(A ≻ B) = 1/1.5      = 2/3
/// * session 1: center ⟨B,A⟩, φ = 1.0 → Pr(A ≻ B) = uniform    = 1/2
/// * session 2: center ⟨B,A⟩, φ = 0.5 → Pr(A ≻ B) = 0.5/1.5    = 1/3
///
/// Boolean = 1 − (1/3)(1/2)(2/3) = 8/9, count = 2/3 + 1/2 + 1/3 = 3/2, and
/// the top-2 sessions are 0 then 1 under every strategy.
#[test]
fn evaluators_agree_on_hand_computed_two_candidate_database() {
    let candidates = Relation::new(
        "Candidates",
        vec!["candidate", "party"],
        vec![
            vec![Value::from("A"), Value::from("D")],
            vec![Value::from("B"), Value::from("R")],
        ],
    )
    .unwrap();
    let sessions = vec![
        Session::new(
            vec![Value::from("v0")],
            MallowsModel::new(Ranking::new(vec![0, 1]).unwrap(), 0.5).unwrap(),
        ),
        Session::new(
            vec![Value::from("v1")],
            MallowsModel::new(Ranking::new(vec![1, 0]).unwrap(), 1.0).unwrap(),
        ),
        Session::new(
            vec![Value::from("v2")],
            MallowsModel::new(Ranking::new(vec![1, 0]).unwrap(), 0.5).unwrap(),
        ),
    ];
    let polls = PreferenceRelation::new("Polls", vec!["voter"], sessions).unwrap();
    let db = DatabaseBuilder::new()
        .item_relation(candidates, "candidate")
        .preference_relation(polls)
        .build()
        .unwrap();
    let q = ConjunctiveQuery::new("a-over-b").prefer(
        "Polls",
        vec![Term::any()],
        Term::val("A"),
        Term::val("B"),
    );

    let expected = [2.0 / 3.0, 0.5, 1.0 / 3.0];
    let per_session = Engine::new(EvalConfig::exact())
        .session_probabilities(&db, &q)
        .unwrap();
    assert_eq!(per_session.len(), 3);
    for &(sidx, p) in &per_session {
        assert!(
            (p - expected[sidx]).abs() < 1e-12,
            "session {sidx}: {p} vs {}",
            expected[sidx]
        );
    }

    let boolean = Engine::new(EvalConfig::exact())
        .evaluate_boolean(&db, &q)
        .unwrap();
    assert!((boolean - 8.0 / 9.0).abs() < 1e-12, "boolean = {boolean}");

    let count = Engine::new(EvalConfig::exact())
        .count_sessions(&db, &q)
        .unwrap();
    assert!((count - 1.5).abs() < 1e-12, "count = {count}");

    for strategy in [
        TopKStrategy::Naive,
        TopKStrategy::UpperBound {
            edges_per_pattern: 1,
        },
        TopKStrategy::UpperBound {
            edges_per_pattern: 2,
        },
    ] {
        let (top, _) = Engine::new(EvalConfig::exact())
            .most_probable_sessions(&db, &q, 2, strategy)
            .unwrap();
        assert_eq!(top.len(), 2, "{strategy:?}");
        assert_eq!(top[0].session_index, 0);
        assert_eq!(top[1].session_index, 1);
        assert!((top[0].probability - 2.0 / 3.0).abs() < 1e-12);
        assert!((top[1].probability - 0.5).abs() < 1e-12);
    }
}

#[test]
fn grouping_matches_naive_on_crowdrank_subset() {
    use ppd::datagen::{crowdrank_database, CrowdRankConfig};
    let db = crowdrank_database(&CrowdRankConfig {
        num_movies: 8,
        num_models: 3,
        num_workers: 40,
        phi: 0.4,
        seed: 5,
    });
    let q = ConjunctiveQuery::new("personalised")
        .prefer(
            "HitRankings",
            vec![Term::var("w")],
            Term::var("m1"),
            Term::var("m2"),
        )
        .atom(
            "Workers",
            vec![Term::var("w"), Term::var("sex"), Term::any()],
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
        );
    let grouped = Engine::new(EvalConfig::exact())
        .session_probabilities(&db, &q)
        .unwrap();
    let naive = Engine::new(EvalConfig::exact().without_grouping())
        .session_probabilities(&db, &q)
        .unwrap();
    assert_eq!(grouped.len(), naive.len());
    for (a, b) in grouped.iter().zip(&naive) {
        assert_eq!(a.0, b.0);
        assert!((a.1 - b.1).abs() < 1e-9);
    }
}
