//! Determinism contract of the cache subsystem: sharding, LRU eviction, and
//! disk persistence must never change a single bit of any answer.
//!
//! For exact and approximate solvers alike, `session_probabilities` must be
//! **bit-identical** across
//! - marginal-cache shard counts (1, 4, 16),
//! - eviction capacities (unbounded vs. a tiny bound that forces churn), and
//! - a save → load → re-serve persistence round-trip into a fresh engine,
//!
//! and the persisted snapshot must warm-start the fresh engine completely
//! (zero misses on the repeat run).

use ppd::core::{WaveAnswer, WavePlan};
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

fn solver_choices() -> Vec<(&'static str, SolverChoice)> {
    vec![
        ("exact-auto", SolverChoice::ExactAuto),
        (
            "approximate",
            SolverChoice::Approximate {
                samples_per_proposal: 120,
            },
        ),
    ]
}

fn config_with(solver: &SolverChoice) -> EvalConfig {
    EvalConfig {
        solver: solver.clone(),
        ..EvalConfig::default()
    }
}

fn scratch(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "ppd-engine-cache-{}-{name}.mcache",
        std::process::id()
    ));
    // Leftovers from an earlier aborted run would make saves append to a
    // non-empty store; every test wants a fresh one.
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn results_are_bit_identical_across_shards_and_eviction_capacity() {
    let db = db();
    let q = polls_q1_query();
    for (name, solver) in solver_choices() {
        let reference = Engine::new(config_with(&solver))
            .session_probabilities(&db, &q)
            .unwrap();
        assert!(!reference.is_empty());
        for shards in [1usize, 4, 16] {
            for capacity in [CacheCapacity::Unbounded, CacheCapacity::Entries(2)] {
                let engine = Engine::new(
                    config_with(&solver)
                        .with_cache_shards(shards)
                        .with_cache_capacity(capacity),
                );
                // Two passes: the second replays hits where capacity allows
                // and re-solves where eviction struck — either way the bits
                // must not move.
                let first = engine.session_probabilities(&db, &q).unwrap();
                let second = engine.session_probabilities(&db, &q).unwrap();
                assert_eq!(
                    reference, first,
                    "{name}: shards={shards} capacity={capacity:?} diverged"
                );
                assert_eq!(
                    first, second,
                    "{name}: repeat run under shards={shards} capacity={capacity:?} diverged"
                );
            }
        }
    }
}

#[test]
fn eviction_bounds_the_cache_and_counts_in_stats() {
    let db = db();
    let q = polls_q1_query();
    let budget = 4;
    let engine = Engine::new(
        EvalConfig::exact()
            .with_cache_shards(1)
            .with_cache_capacity(CacheCapacity::Entries(budget)),
    );
    let bounded = engine.session_probabilities(&db, &q).unwrap();
    let stats = engine.cache_stats();
    assert!(
        stats.marginal_misses > budget as u64,
        "workload must overflow the budget for this test to bite \
         (misses {}, budget {budget})",
        stats.marginal_misses
    );
    assert!(
        stats.marginal_evictions > 0,
        "an over-budget workload must evict"
    );
    assert!(
        engine.cached_marginals() <= budget,
        "cache holds {} entries over the {budget}-entry budget",
        engine.cached_marginals()
    );
    // Unbounded default: same answer, no evictions.
    let unbounded = Engine::new(EvalConfig::exact());
    assert_eq!(unbounded.session_probabilities(&db, &q).unwrap(), bounded);
    assert_eq!(unbounded.cache_stats().marginal_evictions, 0);
}

#[test]
fn persistence_round_trip_serves_the_saved_bits() {
    let db = db();
    let q = polls_q1_query();
    for (name, solver) in solver_choices() {
        let path = scratch(&format!("round-trip-{name}"));
        let warm = Engine::new(config_with(&solver));
        let first = warm.session_probabilities(&db, &q).unwrap();
        let saved = warm.save_marginals(&path).unwrap();
        assert_eq!(saved as usize, warm.cached_marginals(), "{name}");
        assert_eq!(warm.cache_stats().marginals_saved, saved, "{name}");

        // A fresh engine in (conceptually) a fresh process: load, then
        // serve the whole query from the snapshot.
        let cold = Engine::new(config_with(&solver));
        let loaded = cold.load_marginals(&path).unwrap();
        assert_eq!(loaded, saved, "{name}");
        assert_eq!(cold.cache_stats().marginals_loaded, loaded, "{name}");
        let replayed = cold.session_probabilities(&db, &q).unwrap();
        assert_eq!(first, replayed, "{name}: persisted bits diverged");
        let stats = cold.cache_stats();
        assert_eq!(
            stats.marginal_misses, 0,
            "{name}: a loaded snapshot must serve the identical query entirely"
        );
        assert!(stats.marginal_hits > 0, "{name}");

        // Saving equal content into a fresh store writes a byte-identical
        // first segment (records are sorted by content hash).
        let resaved = scratch(&format!("round-trip-{name}-resave"));
        cold.save_marginals(&resaved).unwrap();
        assert_eq!(
            std::fs::read(path.join("seg-00000000.ppdmseg")).unwrap(),
            std::fs::read(resaved.join("seg-00000000.ppdmseg")).unwrap(),
            "{name}: fresh stores of equal content must be byte-identical"
        );

        // A quiet save appends nothing: the store still holds one segment.
        assert_eq!(cold.save_marginals(&resaved).unwrap(), 0, "{name}");
        assert_eq!(
            std::fs::read_dir(&resaved).unwrap().count(),
            1,
            "{name}: a save with nothing new must not grow the store"
        );
        let _ = std::fs::remove_dir_all(&path);
        let _ = std::fs::remove_dir_all(&resaved);
    }
}

#[test]
fn persistence_composes_with_sharding_and_eviction() {
    let db = db();
    let q = polls_q1_query();
    let reference = Engine::new(EvalConfig::exact())
        .session_probabilities(&db, &q)
        .unwrap();
    let path = scratch("composed");
    let warm = Engine::new(EvalConfig::exact());
    warm.session_probabilities(&db, &q).unwrap();
    warm.save_marginals(&path).unwrap();

    // Load into a bounded, differently sharded engine: the capacity applies
    // to loaded entries too, and answers still cannot move.
    let bounded = Engine::new(
        EvalConfig::exact()
            .with_cache_shards(4)
            .with_cache_capacity(CacheCapacity::Entries(2)),
    );
    bounded.load_marginals(&path).unwrap();
    assert!(
        bounded.cached_marginals() <= 2 + 4,
        "loaded entries must respect the capacity bound (plus the per-shard \
         most-recent-slot allowance), got {}",
        bounded.cached_marginals()
    );
    assert_eq!(bounded.session_probabilities(&db, &q).unwrap(), reference);
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn approximate_snapshots_do_not_leak_across_base_seeds() {
    // Approximate estimates are a function of (unit content, budget, base
    // seed). A snapshot from a seed-42 engine loaded into a seed-7 engine
    // must contribute no hits: the seed-7 engine has to produce exactly the
    // bits it would have produced with no snapshot at all.
    let db = db();
    let q = polls_q1_query();
    let solver = SolverChoice::Approximate {
        samples_per_proposal: 120,
    };
    let path = scratch("cross-seed");
    let seeded_42 = Engine::new(config_with(&solver));
    let bits_42 = seeded_42.session_probabilities(&db, &q).unwrap();
    seeded_42.save_marginals(&path).unwrap();

    let mut config_7 = config_with(&solver);
    config_7.seed = 7;
    let pristine_7 = Engine::new(config_7.clone());
    let bits_7 = pristine_7.session_probabilities(&db, &q).unwrap();
    assert_ne!(
        bits_42, bits_7,
        "distinct seeds must give distinct estimates"
    );

    let warmed_7 = Engine::new(config_7);
    warmed_7.load_marginals(&path).unwrap();
    let bits_7_warmed = warmed_7.session_probabilities(&db, &q).unwrap();
    assert_eq!(
        bits_7, bits_7_warmed,
        "a foreign-seed snapshot must not change this engine's answers"
    );
    assert_eq!(
        warmed_7.cache_stats().marginal_hits,
        0,
        "foreign-seed approximate entries must contribute no hits"
    );
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn corrupt_snapshots_are_rejected_not_half_loaded() {
    let engine = Engine::new(EvalConfig::exact());
    let missing = scratch("does-not-exist");
    assert!(engine.load_marginals(&missing).is_err());

    let garbage = scratch("garbage");
    std::fs::write(&garbage, b"definitely not a snapshot").unwrap();
    let err = engine.load_marginals(&garbage).unwrap_err();
    assert!(
        matches!(err, ppd::core::PpdError::Persist(_)),
        "expected a persistence error, got {err:?}"
    );
    assert_eq!(engine.cached_marginals(), 0);
    assert_eq!(engine.cache_stats().marginals_loaded, 0);
    let _ = std::fs::remove_file(&garbage);
}

/// `q`'s per-session probabilities, planned into a wave under `budget` and
/// executed on `engine`.
fn probabilities_under(
    engine: &Engine,
    db: &PpdDatabase,
    q: &ConjunctiveQuery,
    budget: ErrorBudget,
) -> Vec<(usize, f64)> {
    let answer = std::sync::Mutex::new(None);
    let deliver = |_, delivered: ppd::core::Result<WaveAnswer>| {
        *answer.lock().unwrap() = Some(delivered);
    };
    let mut wave = WavePlan::default();
    let queries = std::slice::from_ref(q);
    engine.plan_into(
        &mut wave,
        db,
        queries,
        Some(budget),
        &[],
        &|_| false,
        &deliver,
    );
    engine.execute_wave(wave, |_| false, deliver);
    match answer
        .into_inner()
        .unwrap()
        .expect("the query is delivered")
    {
        Ok(WaveAnswer::Batch(answer)) => answer.session_probabilities,
        other => panic!("unexpected delivery: {other:?}"),
    }
}

#[test]
fn shared_proposal_pools_skip_rebuilds_and_never_move_bits() {
    // A small universe keeps three full budgeted evaluations fast; the
    // pool-reuse contract is per-unit, so scale adds nothing.
    let db = polls_database(&PollsConfig {
        num_candidates: 5,
        num_voters: 6,
        seed: 11,
    });
    let q = polls_q1_query();
    // Zero threshold forces every unit onto the budgeted sampler, so each
    // unique unit needs a proposal pool.
    let budget = |epsilon| ErrorBudget {
        epsilon,
        confidence: 0.9,
    };
    let config = EvalConfig::default().with_exact_cost_threshold(0.0);

    // Cold reference: a fresh engine at the tight budget builds every pool
    // itself.
    let cold = Engine::new(EvalConfig {
        solver: SolverChoice::ErrorBudget(budget(0.02)),
        ..config.clone()
    });
    let reference = cold.session_probabilities(&db, &q).unwrap();
    let cold_stats = cold.cache_stats();
    assert!(
        cold_stats.pools_built > 0,
        "budgeted units must build pools"
    );
    assert_eq!(cold_stats.pool_hits, 0);

    // Warm path: one engine plans the query under a loose budget, then
    // re-estimates the same units under a tight one. Pools are content
    // addressed and budget independent, so the second plan must build
    // nothing — every unit reuses the first plan's decomposition and
    // greedy-modal walk.
    let engine = Engine::new(config);
    probabilities_under(&engine, &db, &q, budget(0.05));
    let built = engine.cache_stats().pools_built;
    assert_eq!(built, cold_stats.pools_built);

    let warmed = probabilities_under(&engine, &db, &q, budget(0.02));
    let warm_stats = engine.cache_stats();
    assert_eq!(
        warm_stats.pools_built, built,
        "warm re-estimation must perform zero new union decompositions"
    );
    assert_eq!(
        warm_stats.pool_hits, built,
        "every budgeted unit must reuse a prepared pool"
    );
    assert_eq!(
        warmed, reference,
        "a warm pool must reproduce the cold build's bits exactly"
    );
}

#[test]
fn topk_strategies_agree_under_sharded_bounded_caches() {
    let db = db();
    let q = polls_q1_query();
    let k = 4;
    let (reference, _) = Engine::new(EvalConfig::exact())
        .most_probable_sessions(&db, &q, k, TopKStrategy::Naive)
        .unwrap();
    for shards in [1usize, 16] {
        for capacity in [CacheCapacity::Unbounded, CacheCapacity::Entries(2)] {
            let engine = Engine::new(
                EvalConfig::exact()
                    .with_cache_shards(shards)
                    .with_cache_capacity(capacity),
            );
            let (bounded, stats) = engine
                .most_probable_sessions(
                    &db,
                    &q,
                    k,
                    TopKStrategy::UpperBound {
                        edges_per_pattern: 2,
                    },
                )
                .unwrap();
            assert_eq!(reference.len(), bounded.len());
            for (a, b) in reference.iter().zip(&bounded) {
                assert_eq!(a.session_index, b.session_index);
                assert_eq!(
                    a.probability.to_bits(),
                    b.probability.to_bits(),
                    "top-k diverged at shards={shards} capacity={capacity:?}"
                );
            }
            assert!(stats.upper_bounds_computed > 0);
        }
    }
}

/// Many error budgets over the same units: each budget is a fingerprint of
/// its own, and a unit's slot holds every fingerprint solved for it, so the
/// entry bound must hold even where one slot alone would outgrow a shard's
/// share. Q1's 8 units under nine budgets: a single shard stays within the
/// bound, and 16 shards within 16 shares of one entry (38 entries before a
/// sole overweight slot was trimmed). Every answer keeps the bits of a
/// dedicated unbounded engine under the same budget.
#[test]
fn an_entry_bound_holds_however_many_budgets_share_a_unit() {
    let db = polls_database(&PollsConfig {
        num_candidates: 5,
        num_voters: 8,
        seed: 11,
    });
    let q = polls_q1_query();
    let limit = 4;
    let config = EvalConfig::exact().with_exact_cost_threshold(0.0);
    let budgets: Vec<ErrorBudget> = (0..9)
        .map(|i| ErrorBudget {
            epsilon: 0.05 + 0.01 * f64::from(i),
            confidence: 0.9,
        })
        .collect();
    let references: Vec<_> = budgets
        .iter()
        .map(|&budget| probabilities_under(&Engine::new(config.clone()), &db, &q, budget))
        .collect();
    for shards in [1usize, 16] {
        let engine = Engine::new(
            config
                .clone()
                .with_cache_shards(shards)
                .with_cache_capacity(CacheCapacity::Entries(limit)),
        );
        let per_shard = limit.div_ceil(shards);
        for (budget, reference) in budgets.iter().zip(&references) {
            let answer = probabilities_under(&engine, &db, &q, *budget);
            assert_eq!(&answer, reference, "shards={shards} {budget:?}");
            assert!(
                engine.cached_marginals() <= shards * per_shard,
                "shards={shards}: {} entries held over {} shares of {per_shard} after {budget:?}",
                engine.cached_marginals(),
                shards
            );
        }
        assert_eq!(
            engine.cache_stats().marginal_misses,
            8 * budgets.len() as u64,
            "Q1 has 8 units here, and every budget solves each once"
        );
    }
}

fn prefers(query: ConjunctiveQuery, better: &str, worse: &str) -> ConjunctiveQuery {
    query.prefer(
        "Polls",
        vec![Term::any(), Term::any()],
        Term::val(better),
        Term::val(worse),
    )
}

/// One round of a warm mix — Q1, a chain and a pair per session, then a
/// top-k of Q1 — flattened to session indices and probability bits.
fn mix_bits(engine: &Engine, db: &PpdDatabase) -> Vec<u64> {
    let chain = prefers(
        prefers(ConjunctiveQuery::new("chain"), "cand0", "cand1"),
        "cand1",
        "cand2",
    );
    let pair = prefers(ConjunctiveQuery::new("pair"), "cand0", "cand1");
    let mut bits = Vec::new();
    for q in [polls_q1_query(), chain, pair] {
        for (session, p) in engine.session_probabilities(db, &q).unwrap() {
            bits.extend([session as u64, p.to_bits()]);
        }
    }
    let strategy = TopKStrategy::UpperBound {
        edges_per_pattern: 2,
    };
    let (top, _) = engine
        .most_probable_sessions(db, &polls_q1_query(), 4, strategy)
        .unwrap();
    for score in top {
        bits.extend([score.session_index as u64, score.probability.to_bits()]);
    }
    bits
}

fn lookups(stats: CacheStats) -> u64 {
    stats.marginal_hits + stats.marginal_misses
}

/// Two threads replaying the mix on one warm engine get the bits of a
/// serial reference, and the hit and miss counters — which each planning
/// call adds to once, not per lookup — lose no lookup between them: the
/// concurrent rounds count exactly what as many serial rounds do. Under a
/// bound that churns, the re-solves keep the bits too.
#[test]
fn two_threads_on_one_warm_engine_return_serial_bits_and_count_every_lookup() {
    let db = db();
    let reference = mix_bits(&Engine::new(EvalConfig::exact()), &db);
    for capacity in [CacheCapacity::Unbounded, CacheCapacity::Entries(6)] {
        let engine = Engine::new(EvalConfig::exact().with_cache_capacity(capacity));
        assert_eq!(mix_bits(&engine, &db), reference, "{capacity:?}: cold");
        let before = engine.cache_stats();
        assert_eq!(mix_bits(&engine, &db), reference, "{capacity:?}: warm");
        let round = lookups(engine.cache_stats()) - lookups(before);
        assert!(round > 0);
        let rounds = 12;
        let start = engine.cache_stats();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..rounds {
                        assert_eq!(mix_bits(&engine, &db), reference, "{capacity:?}");
                    }
                });
            }
        });
        let end = engine.cache_stats();
        assert_eq!(
            lookups(end) - lookups(start),
            2 * rounds * round,
            "{capacity:?}: hits + misses must equal the lookups made"
        );
        if capacity == CacheCapacity::Unbounded {
            assert_eq!(
                end.marginal_misses, before.marginal_misses,
                "warm: no solve"
            );
            assert_eq!(end.marginal_hits - start.marginal_hits, 2 * rounds * round);
        }
    }
}
