//! Determinism contract of the parallel evaluation engine: for every solver
//! choice, `session_probabilities` must be **bit-identical** across
//! - thread counts (`1`, `4`, and `0` = auto),
//! - grouping on/off, and
//! - session order in the p-relation,
//!
//! and repeated evaluation through one engine (cache hits) must return the
//! same bits as the first evaluation.

use ppd::obs::TraceLog;
use ppd::prelude::*;
use ppd_datagen::{polls_database, polls_q1_query, PollsConfig};
use std::sync::{Arc, Mutex};

fn db() -> PpdDatabase {
    polls_database(&PollsConfig {
        num_candidates: 8,
        num_voters: 40,
        seed: 11,
    })
}

fn solver_choices() -> Vec<(&'static str, SolverChoice)> {
    vec![
        ("exact-auto", SolverChoice::ExactAuto),
        ("general-exact", SolverChoice::GeneralExact),
        (
            "approximate",
            SolverChoice::Approximate {
                samples_per_proposal: 150,
            },
        ),
        (
            "error-budget",
            SolverChoice::ErrorBudget(ErrorBudget {
                epsilon: 0.05,
                confidence: 0.9,
            }),
        ),
    ]
}

#[test]
fn results_are_bit_identical_across_threads_and_grouping() {
    let db = db();
    let q = polls_q1_query();
    for (name, solver) in solver_choices() {
        let reference = Engine::new(
            EvalConfig {
                solver: solver.clone(),
                ..EvalConfig::default()
            }
            .with_threads(1),
        )
        .session_probabilities(&db, &q)
        .unwrap();
        assert!(!reference.is_empty());
        for threads in [1usize, 4, 0] {
            for grouping in [true, false] {
                let mut config = EvalConfig {
                    solver: solver.clone(),
                    ..EvalConfig::default()
                }
                .with_threads(threads);
                if !grouping {
                    config = config.without_grouping();
                }
                let run = Engine::new(config.clone())
                    .session_probabilities(&db, &q)
                    .unwrap();
                assert_eq!(
                    reference, run,
                    "{name}: threads={threads} grouping={grouping} diverged"
                );
            }
        }
    }
}

#[test]
fn results_are_bit_identical_under_session_reordering() {
    // Build the same p-relation content in reversed session order: each
    // session's probability must not move by a single bit, because RNG seeds
    // derive from work-unit content rather than plan iteration order.
    let forward = db();
    let prel = forward.preference_relation("Polls").unwrap();
    let reversed_sessions: Vec<Session> = prel.sessions().iter().rev().cloned().collect();
    let n = reversed_sessions.len();
    let reversed_prel =
        PreferenceRelation::new("Polls", prel.session_columns().to_vec(), reversed_sessions)
            .unwrap();
    let builder = DatabaseBuilder::new()
        .item_relation(forward.item_relation().clone(), "candidate")
        .relation(forward.relation("Voters").unwrap().clone());
    let reversed = builder.preference_relation(reversed_prel).build().unwrap();

    let q = polls_q1_query();
    for (name, solver) in solver_choices() {
        let config = EvalConfig {
            solver,
            ..EvalConfig::default()
        };
        let fwd = Engine::new(config.clone())
            .session_probabilities(&forward, &q)
            .unwrap();
        let rev = Engine::new(config.clone())
            .session_probabilities(&reversed, &q)
            .unwrap();
        assert_eq!(fwd.len(), rev.len(), "{name}");
        for &(idx, p) in &fwd {
            let mirrored = n - 1 - idx;
            let &(_, p_rev) = rev
                .iter()
                .find(|&&(i, _)| i == mirrored)
                .unwrap_or_else(|| panic!("{name}: session {mirrored} missing"));
            assert_eq!(
                p.to_bits(),
                p_rev.to_bits(),
                "{name}: session {idx} diverged under reordering"
            );
        }
    }
}

#[test]
fn engine_cache_hits_return_the_first_run_bits() {
    let db = db();
    let q = polls_q1_query();
    for (name, solver) in solver_choices() {
        let engine = Engine::new(EvalConfig {
            solver,
            ..EvalConfig::default()
        });
        let first = engine.session_probabilities(&db, &q).unwrap();
        let second = engine.session_probabilities(&db, &q).unwrap();
        assert_eq!(first, second, "{name}: cached rerun diverged");
        let stats = engine.cache_stats();
        assert!(stats.marginal_hits > 0, "{name}: no cache hits recorded");
    }
}

#[test]
fn calibration_state_never_changes_answer_bits() {
    // Measured-cost calibration steers wave order and eviction weights only.
    // For every solver choice, answers must be bit-identical (a) with
    // calibration on vs. off and (b) on a warm store (whose measured
    // timings reorder the second run's waves) vs. a cold one.
    let db = db();
    let q = polls_q1_query();
    for (name, solver) in solver_choices() {
        let base = EvalConfig {
            solver: solver.clone(),
            ..EvalConfig::default()
        };
        let cold = Engine::new(base.clone());
        let reference = cold.session_probabilities(&db, &q).unwrap();

        let uncalibrated = Engine::new(base.clone().without_calibration())
            .session_probabilities(&db, &q)
            .unwrap();
        assert_eq!(
            reference, uncalibrated,
            "{name}: calibration on vs. off diverged"
        );

        // Warm store: the first run recorded real timings, so the second
        // run's wave order genuinely differs — the bits must not.
        assert!(
            cold.calibrated_units() > 0,
            "{name}: first run recorded no timings"
        );
        let warm = cold.session_probabilities(&db, &q).unwrap();
        assert_eq!(reference, warm, "{name}: warm-store rerun diverged");
    }
}

#[test]
fn calibration_snapshots_round_trip_through_the_engine() {
    // A store saved to disk and loaded into a fresh engine must steer that
    // engine's scheduling without moving a single answer bit — and the
    // loaded store must be byte-identical when saved again.
    let db = db();
    let q = polls_q1_query();
    let dir = std::env::temp_dir().join(format!(
        "ppd-calib-roundtrip-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("calibration.bin");

    let warm = Engine::new(EvalConfig::exact());
    let reference = warm.session_probabilities(&db, &q).unwrap();
    let recorded = warm.calibrated_units();
    assert!(recorded > 0, "warm engine recorded no timings");
    warm.save_calibration(&path).unwrap();

    let loaded = Engine::new(EvalConfig::exact());
    loaded.load_calibration(&path).unwrap();
    assert_eq!(loaded.calibrated_units(), recorded);
    let answers = loaded.session_probabilities(&db, &q).unwrap();
    assert_eq!(reference, answers, "loaded store changed answer bits");

    // `loaded` re-solved its (cold) marginal cache and recorded fresh
    // timings on top of the snapshot, so its store may hold updated entries.
    // The byte-identity contract is on the snapshot alone: load it into an
    // engine that evaluates nothing and save again.
    let fresh = Engine::new(EvalConfig::exact());
    fresh.load_calibration(&path).unwrap();
    let path3 = dir.join("calibration3.bin");
    fresh.save_calibration(&path3).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&path3).unwrap(),
        "save → load → save must be byte-identical"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn topk_strategies_agree_on_the_engine_for_every_thread_count() {
    let db = db();
    let q = polls_q1_query();
    let k = 5;
    let reference = Engine::new(EvalConfig::exact().with_threads(1))
        .most_probable_sessions(&db, &q, k, TopKStrategy::Naive)
        .unwrap()
        .0;
    for threads in [1usize, 4, 0] {
        let config = EvalConfig::exact().with_threads(threads);
        let (naive, _) = Engine::new(config.clone())
            .most_probable_sessions(&db, &q, k, TopKStrategy::Naive)
            .unwrap();
        let (bounded, stats) = Engine::new(config.clone())
            .most_probable_sessions(
                &db,
                &q,
                k,
                TopKStrategy::UpperBound {
                    edges_per_pattern: 2,
                },
            )
            .unwrap();
        assert_eq!(
            naive, reference,
            "naive top-k diverged at threads={threads}"
        );
        assert_eq!(naive.len(), bounded.len());
        for (a, b) in naive.iter().zip(&bounded) {
            assert_eq!(a.session_index, b.session_index);
            assert_eq!(
                a.probability.to_bits(),
                b.probability.to_bits(),
                "upper-bound top-k diverged at threads={threads}"
            );
        }
        assert!(stats.upper_bounds_computed > 0);
    }
}

#[test]
fn observability_mode_never_changes_answer_bits() {
    // The obs bundle is write-only. For every solver choice, a fully
    // instrumented engine (live registry + trace ring) and an engine whose
    // instruments resolve against a disabled registry must both serve the
    // same bits as the plain constructor — and the instrumented arm must
    // actually have recorded something, so the equality is not vacuous.
    let db = db();
    let q = polls_q1_query();
    for (name, solver) in solver_choices() {
        let config = EvalConfig {
            solver,
            ..EvalConfig::default()
        };
        let reference = Engine::new(config.clone())
            .session_probabilities(&db, &q)
            .unwrap();

        let registry = Registry::new(true);
        let trace = Arc::new(TraceLog::new(TraceMode::All, 4096));
        let instrumented = Engine::with_obs(
            config.clone(),
            EngineObs::new(&registry, &[("tenant", "det")]).with_trace(Arc::clone(&trace)),
        );
        assert_eq!(
            instrumented.session_probabilities(&db, &q).unwrap(),
            reference,
            "{name}: full instrumentation changed answer bits"
        );
        let text = registry.render();
        assert!(
            text.contains("ppd_cache_misses_total{tenant=\"det\"}"),
            "{name}: the instrumented run recorded no cache activity:\n{text}"
        );
        assert!(
            text.contains("ppd_unit_solve_seconds_count"),
            "{name}: the instrumented run timed no unit solves:\n{text}"
        );

        let dark = Engine::with_obs(config.clone(), EngineObs::new(&Registry::new(false), &[]));
        assert_eq!(
            dark.session_probabilities(&db, &q).unwrap(),
            reference,
            "{name}: a disabled registry changed answer bits"
        );
    }
}

#[test]
fn trace_sampling_never_changes_streamed_answer_bits() {
    // The traced streamed path: identical trace ids evaluated with tracing
    // off, sampled 1-in-2, and on must deliver bit-identical answers, and
    // the fully traced arm must have recorded per-unit spans.
    let db = db();
    let queries = [polls_q1_query(), polls_q1_query()];
    let traces = [2u64, 3u64];
    let run = |log: Option<Arc<TraceLog>>| -> Vec<Option<Vec<(usize, f64)>>> {
        let mut obs = EngineObs::new(&Registry::new(false), &[]);
        if let Some(log) = log {
            obs = obs.with_trace(log);
        }
        let engine = Engine::with_obs(EvalConfig::exact(), obs);
        let answers = Mutex::new(vec![None, None]);
        engine.evaluate_batch_streamed(
            &db,
            &queries,
            &traces,
            |_| false,
            |qi, result| {
                answers.lock().unwrap()[qi] =
                    Some(result.expect("query answers").session_probabilities);
            },
        );
        answers.into_inner().unwrap()
    };

    let untraced = run(None);
    assert!(untraced.iter().all(Option::is_some));

    let sampled_log = Arc::new(TraceLog::new(TraceMode::SampleEvery(2), 4096));
    assert_eq!(
        run(Some(Arc::clone(&sampled_log))),
        untraced,
        "1-in-2 sampling changed streamed answer bits"
    );

    let full_log = Arc::new(TraceLog::new(TraceMode::All, 4096));
    assert_eq!(
        run(Some(Arc::clone(&full_log))),
        untraced,
        "full tracing changed streamed answer bits"
    );
    for trace in traces {
        let events = full_log.events(trace);
        assert!(
            events
                .iter()
                .any(|e| matches!(e.event, SpanEvent::UnitSolved { .. })),
            "trace {trace} recorded no unit-solved spans: {events:?}"
        );
    }
    // The sampled ring saw only the sampled submission (trace 2 of {2, 3}).
    assert!(!sampled_log.events(2).is_empty());
    assert!(sampled_log.events(3).is_empty());
}

#[test]
fn batch_answers_match_single_query_answers_bitwise() {
    let db = db();
    let q = polls_q1_query();
    let q2 = ConjunctiveQuery::new("cand0-over-cand1").prefer(
        "Polls",
        vec![Term::any(), Term::any()],
        Term::val("cand0"),
        Term::val("cand1"),
    );
    for threads in [1usize, 0] {
        let engine = Engine::new(EvalConfig::exact().with_threads(threads));
        let answers = engine
            .evaluate_batch(&db, &[q.clone(), q2.clone()])
            .unwrap();
        let solo = Engine::new(EvalConfig::exact().with_threads(threads));
        assert_eq!(
            answers[0].session_probabilities,
            solo.session_probabilities(&db, &q).unwrap()
        );
        assert_eq!(
            answers[1].session_probabilities,
            solo.session_probabilities(&db, &q2).unwrap()
        );
    }
}
