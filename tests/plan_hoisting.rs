//! Grounding builds a union once per distinct session binding and planning
//! resolves it once per distinct item set; these tests hold both to what
//! doing the work session by session, with nothing shared, produces.

use ppd::core::{ground_query, GroundedSessionQuery, UnitKey, WorkUnit};
use ppd::datagen::{
    crowdrank_database, movielens_database, polls_database, polls_q1_query, CrowdRankConfig,
    MovieLensConfig, PollsConfig,
};
use ppd::prelude::*;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// The units of `query` keyed one session at a time: every session resolves
/// its own union from scratch ([`UnitKey::new`] is a plan of one), first seen
/// wins.
fn units_keyed_per_session(db: &PpdDatabase, query: &ConjunctiveQuery) -> Vec<WorkUnit> {
    let plan = ground_query(db, query).expect("query grounds");
    let sessions = db
        .preference_relation(&plan.prelation)
        .expect("grounded p-relation")
        .sessions();
    let mut seen: HashSet<UnitKey> = HashSet::new();
    let mut units = Vec::new();
    for squery in &plan.sessions {
        let (key, union) = UnitKey::new(
            &sessions[squery.session_index],
            &squery.union,
            &plan.labeling,
        );
        if seen.insert(key.clone()) {
            units.push(WorkUnit {
                key,
                union,
                session_index: squery.session_index,
            });
        }
    }
    units
}

fn assert_planned_as_keyed_per_session(db: &PpdDatabase, query: &ConjunctiveQuery) {
    let planned = Engine::new(EvalConfig::exact())
        .plan_units(db, query)
        .expect("query plans");
    let reference = units_keyed_per_session(db, query);
    assert_eq!(planned.len(), reference.len(), "{}", query.name());
    for (unit, expected) in planned.iter().zip(&reference) {
        assert_eq!(unit.key, expected.key, "{}", query.name());
        assert_eq!(unit.key.stable_hash(), expected.key.stable_hash());
        assert_eq!(unit.key.seed(42), expected.key.seed(42));
        assert_eq!(unit.session_index, expected.session_index);
        assert_eq!(unit.union, expected.union);
    }
}

fn crowdrank() -> PpdDatabase {
    crowdrank_database(&CrowdRankConfig {
        num_movies: 8,
        num_models: 4,
        num_workers: 40,
        phi: 0.4,
        seed: 1515,
    })
}

/// "The worker prefers a movie whose lead is of their own sex to a thriller":
/// a session-join atom, so θ — and with it the union — differs by worker.
fn own_sex_lead_query() -> ConjunctiveQuery {
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
fn plan_units_equal_per_session_keying_on_every_generator() {
    let polls = polls_database(&PollsConfig {
        num_candidates: 8,
        num_voters: 60,
        seed: 2016,
    });
    let same_party = ConjunctiveQuery::new("same-party")
        .prefer(
            "Polls",
            vec![Term::any(), Term::any()],
            Term::var("l"),
            Term::var("r"),
        )
        .atom(
            "Candidates",
            vec![
                Term::var("l"),
                Term::var("p"),
                Term::val("M"),
                Term::any(),
                Term::any(),
                Term::any(),
            ],
        )
        .atom(
            "Candidates",
            vec![
                Term::var("r"),
                Term::var("p"),
                Term::val("F"),
                Term::any(),
                Term::any(),
                Term::any(),
            ],
        );
    let chain = ConjunctiveQuery::new("chain")
        .prefer(
            "Polls",
            vec![Term::any(), Term::any()],
            Term::val("cand0"),
            Term::val("cand1"),
        )
        .prefer(
            "Polls",
            vec![Term::any(), Term::any()],
            Term::val("cand1"),
            Term::val("cand2"),
        );
    for query in [polls_q1_query(), same_party, chain] {
        assert_planned_as_keyed_per_session(&polls, &query);
    }

    let movies = movielens_database(&MovieLensConfig {
        num_movies: 10,
        num_components: 4,
        num_users: 40,
        phi: 0.5,
        seed: 99,
    });
    let old_over_new = ConjunctiveQuery::new("old-over-new")
        .prefer("Ratings", vec![Term::any()], Term::var("a"), Term::var("b"))
        .atom(
            "Movies",
            vec![
                Term::var("a"),
                Term::any(),
                Term::var("ya"),
                Term::any(),
                Term::any(),
                Term::any(),
                Term::any(),
            ],
        )
        .atom(
            "Movies",
            vec![
                Term::var("b"),
                Term::any(),
                Term::var("yb"),
                Term::any(),
                Term::any(),
                Term::any(),
                Term::any(),
            ],
        )
        .compare("ya", CompareOp::Lt, Value::Int(1985))
        .compare("yb", CompareOp::Ge, Value::Int(1985));
    assert_planned_as_keyed_per_session(&movies, &old_over_new);

    assert_planned_as_keyed_per_session(&crowdrank(), &own_sex_lead_query());
}

/// A database whose two sessions rank different items: the Candidates of
/// `polls_database` with one voter who ranks all four and one who never
/// heard of `cand0`.
fn uneven_polls() -> PpdDatabase {
    let full = polls_database(&PollsConfig {
        num_candidates: 4,
        num_voters: 2,
        seed: 7,
    });
    let mut db = full.clone();
    let mut narrow = full.preference_relation("Polls").unwrap().sessions()[1].clone();
    let items: Vec<u32> = narrow
        .model()
        .sigma()
        .items()
        .iter()
        .copied()
        .filter(|&item| item != 0)
        .collect();
    narrow = Session::new(
        narrow.attrs().to_vec(),
        MallowsModel::new(Ranking::new(items).unwrap(), narrow.model().phi()).unwrap(),
    );
    db.apply(Update::ReplaceSession {
        prelation: "Polls".into(),
        index: 1,
        session: narrow,
    })
    .expect("a session may rank a subset of the catalogue");
    db
}

#[test]
fn sessions_ranking_different_items_do_not_share_a_resolution() {
    let db = uneven_polls();
    // Both sessions hold the same union (no session join), but "any
    // candidate over cand1" resolves to different candidate sets for them.
    let any_over_cand1 = ConjunctiveQuery::new("any-over-cand1")
        .prefer(
            "Polls",
            vec![Term::any(), Term::any()],
            Term::var("x"),
            Term::val("cand1"),
        )
        .atom(
            "Candidates",
            vec![
                Term::var("x"),
                Term::any(),
                Term::any(),
                Term::any(),
                Term::any(),
                Term::any(),
            ],
        );
    let plan = ground_query(&db, &any_over_cand1).unwrap();
    assert!(Arc::ptr_eq(
        &plan.sessions[0].union,
        &plan.sessions[1].union
    ));
    assert_planned_as_keyed_per_session(&db, &any_over_cand1);
    // And the answers are the per-session answers.
    let engine = Engine::new(EvalConfig::exact());
    let shared = engine.session_probabilities(&db, &any_over_cand1).unwrap();
    let ungrouped = Engine::new(EvalConfig::exact().without_grouping())
        .session_probabilities(&db, &any_over_cand1)
        .unwrap();
    assert_eq!(shared, ungrouped);
}

/// `db` with every session of `prelation` but `keep` deleted.
fn only_session(db: &PpdDatabase, prelation: &str, keep: usize) -> PpdDatabase {
    let mut single = db.clone();
    let count = db.preference_relation(prelation).unwrap().num_sessions();
    for index in (0..count).rev().filter(|&index| index != keep) {
        single
            .apply(Update::DeleteSession {
                prelation: prelation.into(),
                index,
            })
            .unwrap();
    }
    single
}

/// A pattern with every selector resolved to the items it matches, and its
/// edges.
type ResolvedPattern = (Vec<Vec<u32>>, Vec<(usize, usize)>);

/// A union's patterns, resolved (label ids minted while grounding depend on
/// what was grounded before; the items they select do not).
fn resolved(
    db: &PpdDatabase,
    plan: &GroundedSessionQuery,
    union: &PatternUnion,
) -> Vec<ResolvedPattern> {
    union
        .patterns()
        .iter()
        .map(|pattern| {
            let nodes = pattern
                .nodes()
                .iter()
                .map(|node| node.candidates(&db.items(), &plan.labeling))
                .collect();
            (nodes, pattern.edges().to_vec())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With a session-join atom θ differs between sessions. Grounding the
    /// whole relation (one union per distinct θ, shared) must give every
    /// session the patterns that grounding it alone — a database holding
    /// only that session, so nothing to share with — gives it.
    #[test]
    fn shared_union_grounding_equals_per_session_grounding(seed in 0u64..10_000, workers in 2usize..12) {
        let db = crowdrank_database(&CrowdRankConfig {
            num_movies: 6,
            num_models: 3,
            num_workers: workers,
            phi: 0.4,
            seed,
        });
        let query = own_sex_lead_query();
        let shared = ground_query(&db, &query).unwrap();
        let mut grounded = shared.sessions.iter().peekable();
        for index in 0..workers {
            let alone = ground_query(&only_session(&db, "HitRankings", index), &query).unwrap();
            prop_assert_eq!(&alone.labeling, &shared.labeling);
            match alone.sessions.first() {
                None => prop_assert!(grounded.peek().map(|s| s.session_index) != Some(index)),
                Some(expected) => {
                    let got = grounded.next().expect("the session qualifies");
                    prop_assert_eq!(got.session_index, index);
                    prop_assert_eq!(
                        resolved(&db, &shared, &got.union),
                        resolved(&db, &alone, &expected.union)
                    );
                }
            }
        }
        prop_assert!(grounded.next().is_none());
    }
}
