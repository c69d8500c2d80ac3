//! A warm plan maps each session to its cached unit through two shortcuts:
//! the session's item set, sorted once when the session is built, matched
//! by slice against the item sets already resolved, and the unit hash read
//! from its union's per-low-byte fold table. These tests hold both to the
//! answers and unit keys of evaluation with nothing shared.

use ppd::core::{ground_query, UnitKey};
use ppd::prelude::*;
use ppd_datagen::{polls_database, polls_q1_query, PollsConfig};
use std::collections::HashSet;

fn reference_engine() -> Engine {
    Engine::new(EvalConfig::exact().with_threads(1).without_grouping())
}

fn bits(answers: &[(usize, f64)]) -> Vec<(usize, u64)> {
    answers.iter().map(|&(s, p)| (s, p.to_bits())).collect()
}

/// The planned units' keys are the keys of each session resolved on its
/// own ([`UnitKey::new`] is a plan of one, which folds its hash without a
/// table).
fn assert_units_keyed_per_session(engine: &Engine, db: &PpdDatabase, query: &ConjunctiveQuery) {
    let plan = ground_query(db, query).unwrap();
    let sessions = db.preference_relation(&plan.prelation).unwrap().sessions();
    let mut expected: Vec<UnitKey> = Vec::new();
    let mut seen = HashSet::new();
    for squery in &plan.sessions {
        let (key, _) = UnitKey::new(
            &sessions[squery.session_index],
            &squery.union,
            &plan.labeling,
        );
        if seen.insert(key.clone()) {
            expected.push(key);
        }
    }
    let planned = engine.plan_units(db, query).unwrap();
    assert_eq!(planned.len(), expected.len());
    for (unit, key) in planned.iter().zip(&expected) {
        assert_eq!(&unit.key, key);
        assert_eq!(unit.key.stable_hash(), key.stable_hash());
    }
}

/// Q1 over a Polls instance with more than 256 distinct models, so every
/// low byte of the model hashes recurs and the fold table serves most
/// units: the cold and warm answers keep the bits of an ungrouped
/// single-thread engine, and the warm pass is answered by the cache whole —
/// a hash the table got wrong would miss there.
#[test]
fn warm_answers_past_256_models_keep_the_reference_bits() {
    let db = polls_database(&PollsConfig {
        num_candidates: 6,
        num_voters: 2000,
        seed: 2016,
    });
    let sessions = db.preference_relation("Polls").unwrap().sessions();
    let models: HashSet<u64> = sessions.iter().map(Session::model_key_hash).collect();
    assert!(models.len() > 256, "{} distinct models", models.len());
    let q1 = polls_q1_query();
    let reference = bits(&reference_engine().session_probabilities(&db, &q1).unwrap());

    let engine = Engine::new(EvalConfig::exact());
    let cold = engine.session_probabilities(&db, &q1).unwrap();
    assert_eq!(bits(&cold), reference);
    let units = engine.plan_units(&db, &q1).unwrap().len() as u64;
    assert!(units > 256, "{units} units");
    let before = engine.cache_stats();
    assert_eq!(before.marginal_misses, units);
    let warm = engine.session_probabilities(&db, &q1).unwrap();
    assert_eq!(bits(&warm), reference);
    let after = engine.cache_stats();
    assert_eq!(after.marginal_misses, before.marginal_misses, "warm misses");
    // A cached answer is looked up per session.
    let requests = ground_query(&db, &q1).unwrap().sessions.len() as u64;
    assert_eq!(after.marginal_hits - before.marginal_hits, requests);
    assert_units_keyed_per_session(&engine, &db, &q1);
}

/// Sessions that rank a narrower item set, inserted into a warm engine's
/// database and planned in one wave beside full-set sessions: each is
/// matched to its own item set (two orders of one narrow set share one; a
/// narrow set of the same size with other items does not), and every
/// answer keeps the reference bits.
#[test]
fn narrower_item_sets_inserted_beside_full_sets_answer_like_the_reference() {
    let mut db = polls_database(&PollsConfig {
        num_candidates: 6,
        num_voters: 40,
        seed: 11,
    });
    let q1 = polls_q1_query();
    let engine = Engine::new(EvalConfig::exact());
    engine.session_probabilities(&db, &q1).unwrap();
    let arity = db
        .preference_relation("Polls")
        .unwrap()
        .session_columns()
        .len();
    let inserted = [
        (vec![4, 1, 3, 0], 0.3),
        (vec![0, 3, 1, 4], 0.3),
        (vec![5, 2, 4, 1], 0.3),
        (vec![5, 2, 4], 0.6),
        (vec![2, 0, 5, 1, 4, 3], 0.3),
    ];
    for (tag, (items, phi)) in inserted.into_iter().enumerate() {
        let session = Session::new(
            (0..arity)
                .map(|i| Value::from(format!("new{tag}-{i}")))
                .collect(),
            MallowsModel::new(Ranking::new(items).unwrap(), phi).unwrap(),
        );
        engine
            .apply_update(
                &mut db,
                Update::InsertSession {
                    prelation: "Polls".into(),
                    session,
                },
            )
            .unwrap();
    }
    let answers = bits(&engine.session_probabilities(&db, &q1).unwrap());
    let reference = bits(&reference_engine().session_probabilities(&db, &q1).unwrap());
    assert_eq!(answers, reference);
    // The two orders of one narrow set are different models, so different
    // units and different answers, but of the same resolution.
    let last = db.preference_relation("Polls").unwrap().num_sessions();
    let answer_of = |s: usize| answers.iter().find(|&&(i, _)| i == s).map(|&(_, p)| p);
    assert_ne!(answer_of(last - 5), answer_of(last - 4));
    assert_units_keyed_per_session(&engine, &db, &q1);
}
