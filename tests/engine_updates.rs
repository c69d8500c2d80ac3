//! Live-database contract at the engine layer: versioned updates, surgical
//! invalidation, and incremental cache persistence must never change a
//! single bit of any answer.
//!
//! A live engine that absorbs a stream of updates must answer exactly like
//! a fresh engine handed the final database — across thread counts, across
//! commuting update orders, and across a kill-and-reload through the
//! on-disk segment store mid-churn. Invalidation must be *surgical*: only
//! units covering changed sessions are dropped, everything else keeps
//! serving hits.

use ppd::prelude::*;
use ppd_datagen::{polls_database, polls_q1_query, PollsConfig};
use std::path::PathBuf;

fn db() -> PpdDatabase {
    polls_database(&PollsConfig {
        num_candidates: 6,
        num_voters: 30,
        seed: 11,
    })
}

fn scratch(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "ppd-engine-updates-{}-{name}.mcache",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

fn relation_of(db: &PpdDatabase) -> String {
    db.preference_relation_names()[0].to_string()
}

/// A session compatible with the polls schema: attribute arity taken from
/// the relation, a Mallows model over the same six candidates.
fn session(db: &PpdDatabase, tag: &str, perm: Vec<u32>, phi: f64) -> Session {
    let relation = relation_of(db);
    let arity = db
        .preference_relation(&relation)
        .unwrap()
        .session_columns()
        .len();
    Session::new(
        (0..arity)
            .map(|i| Value::from(format!("{tag}{i}")))
            .collect(),
        MallowsModel::new(Ranking::new(perm).unwrap(), phi).unwrap(),
    )
}

#[test]
fn interleaved_update_streams_match_fresh_engines_bitwise() {
    let q = polls_q1_query();
    for threads in [1usize, 0] {
        let mut config = EvalConfig::exact();
        config.threads = threads;
        let mut live_db = db();
        let engine = Engine::new(config.clone());
        assert_eq!(live_db.version(), 1);
        let rel = relation_of(&live_db);
        let updates = vec![
            Update::InsertSession {
                prelation: rel.clone(),
                session: session(&live_db, "a", vec![5, 4, 3, 2, 1, 0], 0.5),
            },
            Update::ReplaceSession {
                prelation: rel.clone(),
                index: 0,
                session: session(&live_db, "b", vec![1, 2, 0, 3, 5, 4], 0.35),
            },
            Update::DeleteSession {
                prelation: rel,
                index: 3,
            },
        ];
        for update in updates {
            // Query between updates: the live engine (with whatever cache
            // state churn left behind) must match a cache-less fresh engine
            // on the current snapshot.
            let live = engine.session_probabilities(&live_db, &q).unwrap();
            let fresh = Engine::new(config.clone())
                .session_probabilities(&live_db, &q)
                .unwrap();
            assert_eq!(live, fresh, "threads={threads}: live engine diverged");
            let (version, _) = engine.apply_update(&mut live_db, update).unwrap();
            assert_eq!(version, live_db.version());
            assert_eq!(engine.planned_version(), version);
        }
        let live = engine.session_probabilities(&live_db, &q).unwrap();
        let fresh = Engine::new(config.clone())
            .session_probabilities(&live_db, &q)
            .unwrap();
        assert_eq!(live, fresh, "threads={threads}: final snapshot diverged");
        assert_eq!(live_db.version(), 4, "three updates bump three versions");
    }
}

#[test]
fn commuting_update_orders_answer_identically() {
    // Insert appends, replace targets an existing index: the two orders
    // produce the same final session list, so the answers must agree
    // bitwise even though the engines invalidated in different orders.
    let q = polls_q1_query();
    let base = db();
    let rel = relation_of(&base);
    let insert = Update::InsertSession {
        prelation: rel.clone(),
        session: session(&base, "new", vec![2, 1, 0, 5, 4, 3], 0.4),
    };
    let replace = Update::ReplaceSession {
        prelation: rel,
        index: 1,
        session: session(&base, "rep", vec![0, 5, 1, 4, 2, 3], 0.6),
    };

    let mut db_a = base.clone();
    let engine_a = Engine::new(EvalConfig::exact());
    engine_a.session_probabilities(&db_a, &q).unwrap(); // warm before churn
    engine_a.apply_update(&mut db_a, insert.clone()).unwrap();
    engine_a.apply_update(&mut db_a, replace.clone()).unwrap();

    let mut db_b = base.clone();
    let engine_b = Engine::new(EvalConfig::exact());
    engine_b.apply_update(&mut db_b, replace).unwrap();
    engine_b.session_probabilities(&db_b, &q).unwrap(); // warm mid-stream
    engine_b.apply_update(&mut db_b, insert).unwrap();

    let a = engine_a.session_probabilities(&db_a, &q).unwrap();
    let b = engine_b.session_probabilities(&db_b, &q).unwrap();
    assert_eq!(a, b, "update order must not leak into answer bits");
}

#[test]
fn invalidation_is_surgical_not_a_cache_wipe() {
    let q = polls_q1_query();
    let mut live = db();
    let engine = Engine::new(EvalConfig::exact());
    engine.session_probabilities(&live, &q).unwrap();
    let cached_before = engine.cached_marginals();
    assert!(cached_before > 0, "the warm-up must populate the cache");

    let replace = Update::ReplaceSession {
        prelation: relation_of(&live),
        index: 2,
        session: session(&live, "x", vec![3, 2, 5, 0, 1, 4], 0.45),
    };
    let (version, dropped) = engine.apply_update(&mut live, replace).unwrap();
    assert_eq!(version, 2);
    assert!(dropped > 0, "the replaced session's units were cached");
    assert!(
        (dropped as usize) < cached_before,
        "replacing one of 30 sessions must not wipe the cache \
         (dropped {dropped} of {cached_before})"
    );
    assert_eq!(engine.cache_stats().units_invalidated, dropped);

    // Re-serving the query recomputes only the changed session's units;
    // everything else replays from cache. A fresh engine recomputes it all.
    let misses_before = engine.cache_stats().marginal_misses;
    let live_answers = engine.session_probabilities(&live, &q).unwrap();
    let recomputed = engine.cache_stats().marginal_misses - misses_before;

    let cold = Engine::new(EvalConfig::exact());
    let cold_answers = cold.session_probabilities(&live, &q).unwrap();
    let cold_misses = cold.cache_stats().marginal_misses;
    assert_eq!(
        live_answers, cold_answers,
        "invalidation changed answer bits"
    );
    assert!(
        recomputed < cold_misses,
        "surgical invalidation must recompute strictly less than a cold \
         engine ({recomputed} vs {cold_misses})"
    );
}

#[test]
fn a_burst_invalidates_at_most_the_cache_and_hit_rate_recovers_in_a_round() {
    // 24 voters × 8 candidates, a burst of 3 replacements spread across the
    // relation, the same query in rounds around it.
    let (num_voters, num_candidates, burst) = (24usize, 8usize, 3usize);
    let q = polls_q1_query();
    let mut live = polls_database(&PollsConfig {
        num_candidates,
        num_voters,
        seed: 2020,
    });
    let engine = Engine::new(EvalConfig::exact());
    // One round's hit rate, from the counters it moved.
    let mut last = (0u64, 0u64);
    let mut round = |db: &PpdDatabase| {
        engine.session_probabilities(db, &q).unwrap();
        let stats = engine.cache_stats();
        let (hits, misses) = (stats.marginal_hits - last.0, stats.marginal_misses - last.1);
        last = (stats.marginal_hits, stats.marginal_misses);
        hits as f64 / (hits + misses).max(1) as f64
    };
    round(&live);
    round(&live);
    let steady = round(&live);
    assert_eq!(steady, 1.0, "the third identical round is all hits");

    let cached_before = engine.cached_marginals();
    let rel = relation_of(&live);
    let stride = num_voters / burst;
    let mut invalidated = 0u64;
    for i in 0..burst {
        let rotated = (0..num_candidates)
            .map(|j| ((j + i + 1) % num_candidates) as u32)
            .collect();
        let replace = Update::ReplaceSession {
            prelation: rel.clone(),
            index: i * stride,
            session: session(&live, &format!("upd{i}-"), rotated, 0.34 + 0.04 * i as f64),
        };
        invalidated += engine.apply_update(&mut live, replace).unwrap().1;
    }
    assert!(
        invalidated as usize <= cached_before,
        "invalidation is bounded by the covering units \
         ({invalidated} dropped of {cached_before} cached)"
    );

    let degraded = round(&live);
    assert!(degraded < steady, "the burst's sessions must be re-solved");
    let recovered = round(&live);
    assert!(
        recovered >= 0.8 * steady,
        "hit rate must recover to ≥ 80 % of steady state one round after \
         the burst (steady {steady:.3}, recovered {recovered:.3})"
    );
}

#[test]
fn kill_and_reload_mid_churn_misses_only_churned_units() {
    let q = polls_q1_query();
    let path = scratch("mid-churn");
    let mut live = db();
    let engine = Engine::new(EvalConfig::exact());
    engine.session_probabilities(&live, &q).unwrap();
    engine.save_marginals(&path).unwrap();

    // Churn after the first save: the incremental second save appends the
    // delta (tombstones for the dropped units ride along).
    let rel = relation_of(&live);
    let replace = Update::ReplaceSession {
        prelation: rel.clone(),
        index: 0,
        session: session(&live, "churn", vec![4, 5, 0, 1, 2, 3], 0.55),
    };
    let (_, dropped_a) = engine.apply_update(&mut live, replace).unwrap();
    let (_, dropped_b) = engine
        .apply_update(
            &mut live,
            Update::DeleteSession {
                prelation: rel,
                index: 7,
            },
        )
        .unwrap();
    let dropped = dropped_a + dropped_b;
    assert!(dropped > 0);
    engine.save_marginals(&path).unwrap();

    // "Kill" the process: a fresh engine reloads the store and serves the
    // post-churn database. Only units covering churned sessions may miss.
    let reloaded = Engine::new(EvalConfig::exact());
    reloaded.load_marginals(&path).unwrap();
    let replayed = reloaded.session_probabilities(&live, &q).unwrap();
    let expect = Engine::new(EvalConfig::exact())
        .session_probabilities(&live, &q)
        .unwrap();
    assert_eq!(replayed, expect, "reloaded bits diverged");
    let stats = reloaded.cache_stats();
    assert!(stats.marginal_hits > 0, "untouched units must replay");
    assert!(
        stats.marginal_misses <= dropped,
        "only churned units may miss after a reload \
         (misses {} vs {dropped} dropped)",
        stats.marginal_misses
    );
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn corrupt_segments_reject_the_whole_load() {
    let q = polls_q1_query();
    let live = db();
    let path = scratch("corrupt");
    let engine = Engine::new(EvalConfig::exact());
    engine.session_probabilities(&live, &q).unwrap();
    engine.save_marginals(&path).unwrap();
    let segment = path.join("seg-00000000.ppdmseg");
    let pristine = std::fs::read(&segment).unwrap();

    // A truncated segment (crash mid-write) is rejected whole...
    std::fs::write(&segment, &pristine[..pristine.len() / 2]).unwrap();
    let cold = Engine::new(EvalConfig::exact());
    let err = cold.load_marginals(&path).unwrap_err();
    assert!(
        matches!(err, ppd::core::PpdError::Persist(_)),
        "expected a persistence error, got {err:?}"
    );
    assert_eq!(cold.cached_marginals(), 0, "nothing may be half-loaded");

    // ...and so is a bit-flipped record kind inside an intact-length file.
    let mut flipped = pristine.clone();
    let first_record = 24; // just past the fixed segment header
    flipped[first_record] ^= 0xff;
    std::fs::write(&segment, &flipped).unwrap();
    let cold = Engine::new(EvalConfig::exact());
    assert!(cold.load_marginals(&path).is_err());
    assert_eq!(cold.cached_marginals(), 0);

    // Restoring the original bytes makes the store loadable again: the
    // rejection above was the store's content, not lost state elsewhere.
    std::fs::write(&segment, &pristine).unwrap();
    let recovered = Engine::new(EvalConfig::exact());
    assert!(recovered.load_marginals(&path).unwrap() > 0);
    let _ = std::fs::remove_dir_all(&path);
}
