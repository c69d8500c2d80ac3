//! `cold_exact` and `cold_approx`: the paper's core path with nothing in
//! front of it — no service, no wire, and a cache that only inserts. One
//! driver thread; every iteration builds a fresh engine, evaluates the three
//! queries as one batch, then runs one top-k.
//!
//! * `cold_exact`: grounding, content-hash dedup, cost-ordered scheduling
//!   and the exact DP kernels do all the work. A wire or dispatcher change
//!   must show no movement here.
//! * `cold_approx`: AMP sampling, union decomposition, proposal-pool
//!   building and the mixture estimator do the work and the exact kernels do
//!   none, so a sampler optimisation shows here and must not move
//!   `cold_exact`. Every estimate is held against the exact value, which
//!   catches a speed-up bought with accuracy. Polls at m = 10 rather than
//!   MovieLens at m = 24, because accuracy needs an exact reference. Its
//!   batch is six two-label queries of Q1's shape (`inputs::split_queries`),
//!   40 voters, ≈ 240 units an iteration.

use super::{closed_loop, op_id, ClientLog, Phase, ProbeInputs, Workload, THREADS};
use crate::inputs::{self, TOP_K, TOP_K_STRATEGY};
use ppd_core::{
    BatchAnswer, ConjunctiveQuery, Engine, EngineObs, EvalConfig, PpdDatabase, SessionScore,
};
use ppd_obs::Registry;
use ppd_service::ObsConfig;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Samples per proposal of the approximate workload.
pub const APPROX_SAMPLES: usize = 100;
/// The accuracy every estimate must meet. At 100 samples per proposal the
/// largest error over an iteration's ≈ 250 estimates is 0.03–0.07 depending
/// on the seed and the queries, so this gate trips on a lost digit, not on
/// sampling noise; `abs_err_max` carries the measured value.
pub const MAX_ABS_ERR: f64 = 0.10;

pub struct Cold {
    db: PpdDatabase,
    eval: EvalConfig,
    approximate: bool,
    queries: Vec<ConjunctiveQuery>,
    /// Exact answers from the serial, ungrouped reference engine.
    batch_reference: Vec<BatchAnswer>,
    topk_reference: Vec<SessionScore>,
    /// With obs on, the registry every iteration's engine records into.
    registry: Option<Registry>,
    datagen_ms: f64,
}

impl Cold {
    pub fn setup(seed: u64, quick: bool, obs: ObsConfig, approximate: bool) -> Self {
        let (voters, candidates) = match (approximate, quick) {
            (false, false) => (300, 12),
            (false, true) => (40, 8),
            (true, false) => (40, 10),
            (true, true) => (6, 8),
        };
        let started = Instant::now();
        let db = inputs::polls(seed, voters, candidates);
        let datagen_ms = started.elapsed().as_secs_f64() * 1e3;
        let eval = if approximate {
            EvalConfig::approximate(APPROX_SAMPLES)
        } else {
            EvalConfig::exact()
        }
        .with_threads(THREADS);
        let queries = if approximate {
            inputs::split_queries()
        } else {
            inputs::queries()
        };
        let engine = inputs::reference_engine();
        let batch_reference = engine
            .evaluate_batch(&db, &queries)
            .expect("the reference batch evaluates");
        let topk_reference = engine
            .most_probable_sessions(&db, &queries[0], TOP_K, TOP_K_STRATEGY)
            .expect("the reference top-k evaluates")
            .0;
        Cold {
            db,
            eval,
            approximate,
            queries,
            batch_reference,
            topk_reference,
            registry: obs.metrics.then(|| Registry::new(true)),
            datagen_ms,
        }
    }

    fn engine(&self) -> Engine {
        match &self.registry {
            Some(registry) => Engine::with_obs(
                self.eval.clone(),
                EngineObs::new(registry, &[("tenant", "bench")]),
            ),
            None => Engine::new(self.eval.clone()),
        }
    }

    /// Checks one iteration's four answers; returns how many failed and the
    /// largest absolute error (0 on the exact workload, where any differing
    /// bit is a failure).
    fn verify(&self, batch: &[BatchAnswer], topk: &[SessionScore]) -> (u64, f64) {
        if !self.approximate {
            let wrong = batch
                .iter()
                .zip(&self.batch_reference)
                .filter(|(got, want)| !inputs::same_batch_answer(got, want))
                .count()
                + usize::from(!inputs::same_scores(topk, &self.topk_reference));
            return (wrong as u64, 0.0);
        }
        let mut failed = 0;
        let mut worst = 0.0f64;
        for (got, want) in batch.iter().zip(&self.batch_reference) {
            let exact: HashMap<usize, f64> = want.session_probabilities.iter().copied().collect();
            let err = max_abs_err(&exact, &got.session_probabilities);
            // An estimate for a session the exact answer omits, or a missing
            // session, is wrong whatever its value.
            let same_sessions = got.session_probabilities.len() == exact.len();
            failed += u64::from(!same_sessions || err > MAX_ABS_ERR);
            worst = worst.max(err);
        }
        // Top-k estimates are held against Q1's exact per-session values:
        // under sampling the ranking itself may legitimately differ.
        let exact: HashMap<usize, f64> = self.batch_reference[0]
            .session_probabilities
            .iter()
            .copied()
            .collect();
        let scores: Vec<(usize, f64)> = topk
            .iter()
            .map(|s| (s.session_index, s.probability))
            .collect();
        let err = max_abs_err(&exact, &scores);
        failed += u64::from(scores.len() != self.topk_reference.len() || err > MAX_ABS_ERR);
        (failed, worst.max(err))
    }
}

/// Largest |estimate − exact|; a session without an exact value counts as
/// infinitely wrong.
fn max_abs_err(exact: &HashMap<usize, f64>, estimates: &[(usize, f64)]) -> f64 {
    estimates
        .iter()
        .map(|(session, estimate)| match exact.get(session) {
            Some(value) => (estimate - value).abs(),
            None => f64::INFINITY,
        })
        .fold(0.0, f64::max)
}

impl Workload for Cold {
    fn run(&mut self, duration: Duration, epoch: Instant, trace: bool) -> Phase {
        let this = &*self;
        let (elapsed, logs) = closed_loop(1, duration, epoch, trace, |client| {
            move |step, log: &mut ClientLog| {
                let id = op_id(client, step);
                let op = log.spans.begin("op", None, id);
                let start = Instant::now();
                let engine = log
                    .spans
                    .leaf("core.engine.new", Some(op), id, || this.engine());
                let batch = log
                    .spans
                    .leaf("core.engine.evaluate_batch", Some(op), id, || {
                        engine.evaluate_batch(&this.db, &this.queries)
                    });
                let topk = log
                    .spans
                    .leaf("core.topk.most_probable_sessions", Some(op), id, || {
                        engine.most_probable_sessions(
                            &this.db,
                            &this.queries[0],
                            TOP_K,
                            TOP_K_STRATEGY,
                        )
                    });
                let latency = start.elapsed();
                let answered = this.queries.len() as u64 + 1;
                let (failed, err) =
                    log.spans
                        .leaf("harness.verify", Some(op), id, || match (&batch, &topk) {
                            (Ok(batch), Ok((topk, _))) => this.verify(batch, topk),
                            _ => (answered, 0.0),
                        });
                log.spans.end(op);
                log.latencies_ms.push(latency.as_secs_f64() * 1e3);
                log.queries += answered;
                log.attempted += answered;
                log.failed += failed;
                log.abs_err_max = log.abs_err_max.max(err);
                let cache = engine.cache_stats();
                log.cache_hits += cache.marginal_hits;
                log.cache_misses += cache.marginal_misses;
                log.cache_evictions += cache.marginal_evictions;
            }
        });
        let mut phase = Phase::from_clients(elapsed, logs);
        if let Some(registry) = &self.registry {
            phase.metrics_text = registry.render();
        }
        phase
    }

    fn probe_inputs(&self) -> ProbeInputs {
        ProbeInputs {
            db: self.db.clone(),
            eval: self.eval.clone(),
            queries: self.queries.clone(),
        }
    }

    fn finish(self: Box<Self>) -> (u64, u64) {
        // Every iteration was already checked against the fixed reference.
        (0, 0)
    }

    fn datagen_ms(&self) -> f64 {
        self.datagen_ms
    }
}
