//! The parallel evaluation engine: work units → scheduler → cache →
//! aggregation.
//!
//! [`Engine`] is the reusable, thread-safe heart of query evaluation. Where
//! the original evaluator solved sessions one by one inside each call, the
//! engine:
//!
//! 1. **deduplicates** a grounded plan into [`WorkUnit`]s keyed by the
//!    *content* of each `(model, pattern union)` instance (Section 6.4 of
//!    the paper, generalized to be query- and label-interning-independent);
//! 2. consults a **cross-query marginal cache** so units solved by any
//!    earlier query served by this engine are never solved again;
//! 3. **fans the remaining units out** over a scoped worker pool
//!    ([`EvalConfig::threads`]: `0` = one worker per hardware thread, `1` =
//!    the serial path) with per-unit RNG seeds derived from the unit key, so
//!    results are bit-identical regardless of thread count, session order,
//!    or grouping;
//! 4. shares **prepared per-model state** ([`PreparedModel`]): the
//!    `to_rim()` insertion-probability expansion is built once per distinct
//!    model, not once per session;
//! 5. **aggregates** per-session probabilities into Boolean, Count-Session,
//!    Most-Probable-Session, and batch answers.
//!
//! Steps 1–3 and 5 are the two stages of the **wave pipeline** in the
//! `wave` module: a *plan* stage ([`Engine::plan_into`]) that grounds,
//! deduplicates and consults the cache — and already delivers every query
//! the cache answers whole — and an *execute* stage
//! ([`Engine::execute_wave`]) that solves what is left and streams answers
//! out. Every evaluation method runs the two back to back — a single query
//! is a wave of one, a blocking call a wave streamed into a collector; a
//! serving layer that batches requests over time keeps the [`WavePlan`]
//! between them and lets later requests join it.
//!
//! Hold one [`Engine`] and feed it queries (or batches via
//! [`Engine::evaluate_batch`]) to benefit from the caches.

mod cache;
mod cost;
mod obs;
mod scheduler;
mod unit;
mod wave;

pub use cache::{CacheCapacity, CacheStats, PoolCache, PreparedModel};
pub use obs::EngineObs;
use unit::{PlannedUnit, UnionResolver};
pub use unit::{UnitKey, WorkUnit};
use wave::CancelFn;
pub(crate) use wave::UnitRequest;
pub use wave::{BatchAnswer, WaveAnswer, WavePlan};

use crate::database::{PpdDatabase, Update};
use crate::eval::EvalConfig;
use crate::query::ConjunctiveQuery;
use crate::topk::{SessionScore, TopKStats, TopKStrategy};
use crate::translate::ground_query;
use crate::{PpdError, Result};
use cache::{MarginalCache, ModelCache};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A reusable, thread-safe query-evaluation engine with cross-query caches.
///
/// See the [module documentation](self) for the pipeline. All methods take
/// `&self`; the engine may be shared behind an `Arc` and queried from many
/// threads concurrently.
#[derive(Debug)]
pub struct Engine {
    config: EvalConfig,
    marginals: MarginalCache,
    models: ModelCache,
    /// Invalidation reverse index: model content hash
    /// ([`Session::model_key_hash`](crate::session::Session::model_key_hash)) → the unit content hashes covering a
    /// session with that model. Populated at cache-insert time and from
    /// segment-store loads; consulted by [`Engine::invalidate`] so a
    /// database update drops exactly the cached units it stales. Entries
    /// for evicted units are kept — they may still be live in the segment
    /// store, and invalidating an absent hash is a no-op.
    covered: Mutex<HashMap<u64, HashSet<u64>>>,
    /// Model hashes invalidated since the last [`Engine::save_marginals`],
    /// drained into segment tombstones so on-disk records for stale models
    /// die too.
    pending_tombstones: Mutex<HashSet<u64>>,
    /// The [`PpdDatabase::version`] most recently seen by a planning or
    /// update call — what answers computed right now are computed against.
    planned_version: AtomicU64,
    /// Cached marginal entries dropped by [`Engine::invalidate`].
    units_invalidated: AtomicU64,
    /// Segment-store byte accounting after the last save or load.
    segment_live_bytes: AtomicU64,
    segment_dead_bytes: AtomicU64,
    /// Segment compactions run by [`Engine::save_marginals`].
    compactions: AtomicU64,
    /// Prepared proposal pools of the error-budget sampling path, keyed by
    /// unit content hash. Shareable across engines (see
    /// [`Engine::with_pool_cache`]): a tenant's per-budget engines
    /// re-estimate the same units under different ε, and the pool — the
    /// decomposition plus greedy-modal walk — is ε- and seed-independent.
    pools: Arc<PoolCache>,
    /// Pre-resolved observability handles. Write-only from the pipeline's
    /// point of view: nothing recorded here is ever read back into seeds,
    /// cache keys, scheduling, or solver selection.
    obs: EngineObs,
}

impl Engine {
    /// Creates an engine. The configuration (solver choice, seed, grouping,
    /// thread count, cache sharding and capacity) is fixed for the engine's
    /// lifetime, which is what keeps its caches coherent.
    pub fn new(config: EvalConfig) -> Self {
        Engine::with_obs(config, EngineObs::disabled())
    }

    /// [`Engine::new`] with observability instruments attached. The bundle
    /// only ever *records* — an engine with [`EngineObs::disabled`] (the
    /// plain-constructor default) produces bit-identical answers.
    pub fn with_obs(config: EvalConfig, obs: EngineObs) -> Self {
        Engine::with_pool_cache(config, obs, Arc::new(PoolCache::default()))
    }

    /// [`Engine::with_obs`] sharing an externally owned [`PoolCache`].
    /// Serving layers hand every engine of one tenant the same cache so
    /// re-estimating a unit under a different error budget (a second
    /// per-budget engine) reuses the first engine's union decompositions
    /// and greedy-modal walks. Sharing never changes answers: pools are
    /// keyed by unit content hash and prepared deterministically, so a
    /// warm pool reproduces a cold build's bits exactly.
    pub fn with_pool_cache(config: EvalConfig, obs: EngineObs, pools: Arc<PoolCache>) -> Self {
        let marginals = MarginalCache::new(config.cache_shards, config.cache_capacity);
        Engine {
            config,
            marginals,
            models: ModelCache::default(),
            covered: Mutex::new(HashMap::new()),
            pending_tombstones: Mutex::new(HashSet::new()),
            planned_version: AtomicU64::new(0),
            units_invalidated: AtomicU64::new(0),
            segment_live_bytes: AtomicU64::new(0),
            segment_dead_bytes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            pools,
            obs,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EvalConfig {
        &self.config
    }

    /// Snapshot of cache activity since construction.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            marginal_hits: self.marginals.hits(),
            marginal_misses: self.marginals.misses(),
            marginal_evictions: self.marginals.evictions(),
            marginal_evicted_bytes: self.marginals.evicted_bytes(),
            marginals_loaded: self.marginals.loaded(),
            marginals_saved: self.marginals.saved(),
            models_prepared: self.models.len() as u64,
            units_invalidated: self.units_invalidated.load(Ordering::Relaxed),
            segment_live_bytes: self.segment_live_bytes.load(Ordering::Relaxed),
            segment_dead_bytes: self.segment_dead_bytes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            pools_built: self.pools.built(),
            pool_hits: self.pools.hits(),
        }
    }

    /// The [`PpdDatabase::version`] this engine most recently planned
    /// against (or applied an update at) — `0` before any call that saw a
    /// database. Serving layers stamp answers with it so clients know
    /// which snapshot a number describes.
    pub fn planned_version(&self) -> u64 {
        self.planned_version.load(Ordering::Relaxed)
    }

    /// Records the database version a planning call is working against.
    pub(crate) fn note_planned_version(&self, db: &PpdDatabase) {
        self.planned_version.store(db.version(), Ordering::Relaxed);
    }

    /// Surgically drops every cached artifact covering the given model
    /// content hashes ([`Session::model_key_hash`](crate::session::Session::model_key_hash) of changed sessions):
    /// their marginal-cache entries, proposal pools, and prepared models —
    /// and nothing else; unrelated entries stay warm. The hashes are also
    /// queued as segment tombstones so the next
    /// [`Engine::save_marginals`] kills their on-disk records. Returns the
    /// number of marginal entries dropped.
    ///
    /// Invalidation never changes bits: re-solving an invalidated unit
    /// against the *same* content reproduces its exact value, and changed
    /// content hashes to different unit keys outright.
    pub fn invalidate(&self, changed_models: &[u64]) -> u64 {
        if changed_models.is_empty() {
            return 0;
        }
        let mut unit_hashes: HashSet<u64> = HashSet::new();
        {
            let mut covered = self.covered.lock().expect("invalidation index poisoned");
            for model in changed_models {
                if let Some(units) = covered.remove(model) {
                    unit_hashes.extend(units);
                }
            }
        }
        let model_set: HashSet<u64> = changed_models.iter().copied().collect();
        self.models.remove_hashes(&model_set);
        self.pools.remove_hashes(&unit_hashes);
        let dropped = self.marginals.remove_hashes(&unit_hashes);
        self.pending_tombstones
            .lock()
            .expect("tombstone queue poisoned")
            .extend(model_set);
        self.units_invalidated.fetch_add(dropped, Ordering::Relaxed);
        self.obs.invalidated(dropped);
        dropped
    }

    /// Applies `update` to the database and invalidates exactly the cached
    /// units covering its changed sessions, as one step. Returns the new
    /// database version and the number of marginal entries dropped. On a
    /// rejected update (unknown p-relation, bad index, arity or item
    /// mismatch) neither the database nor the caches change.
    pub fn apply_update(&self, db: &mut PpdDatabase, update: Update) -> Result<(u64, u64)> {
        let (version, changed) = db.apply(update)?;
        let dropped = self.invalidate(&changed);
        self.planned_version.store(version, Ordering::Relaxed);
        Ok((version, dropped))
    }

    /// Persists the marginal cache **incrementally** into the segment
    /// store at `path` (a directory, created if missing; see
    /// `engine/cache/persist.rs` for the format) and returns the number of
    /// value records appended. Only units solved since the store was last
    /// written are appended — a quiet save writes nothing — together with
    /// tombstones for models invalidated by [`Engine::invalidate`] since
    /// the last save; once dead records dominate the store it is compacted
    /// down to its live set. Values are stored as raw `f64` bits, so a
    /// later [`Engine::load_marginals`] — in this process or any other —
    /// serves exactly the bits this engine computed.
    ///
    /// Each segment write is atomic (temp file + rename): a crash mid-save
    /// never corrupts the store. One writer per store directory at a time;
    /// concurrent saves from *different* engines to the same store are not
    /// supported.
    pub fn save_marginals(&self, path: impl AsRef<Path>) -> Result<u64> {
        let model_of: HashMap<u64, u64> = {
            let covered = self.covered.lock().expect("invalidation index poisoned");
            covered
                .iter()
                .flat_map(|(&model, units)| units.iter().map(move |&unit| (unit, model)))
                .collect()
        };
        let tombstones = self
            .pending_tombstones
            .lock()
            .expect("tombstone queue poisoned")
            .clone();
        let report =
            cache::persist::save(&self.marginals, &model_of, &tombstones, path.as_ref())
                .map_err(|e| PpdError::Persist(format!("save {}: {e}", path.as_ref().display())))?;
        // Only tombstones that made it to disk are retired; ones queued by
        // a concurrent invalidation ride along with the next save.
        self.pending_tombstones
            .lock()
            .expect("tombstone queue poisoned")
            .retain(|model| !tombstones.contains(model));
        self.segment_live_bytes
            .store(report.live_bytes, Ordering::Relaxed);
        self.segment_dead_bytes
            .store(report.dead_bytes, Ordering::Relaxed);
        if report.compacted {
            self.compactions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(report.appended)
    }

    /// Warm-starts the marginal cache from a segment store written by
    /// [`Engine::save_marginals`] and returns the number of live records
    /// read. Keys are content hashes, so stores are valid across processes
    /// by construction; entries already present keep their in-memory
    /// value, and the engine's [`CacheCapacity`] applies to loaded entries
    /// too. The records' model hashes rebuild the invalidation reverse
    /// index, so updates arriving after a reload still invalidate
    /// surgically. A store with any corrupt segment is rejected whole and
    /// nothing is absorbed.
    ///
    /// Every record carries its solver fingerprint — for approximate
    /// entries that includes the sampling budget *and* the engine base
    /// seed that produced the estimate — and fingerprints never alias, so
    /// loading a store from an engine with a different configuration
    /// (solver choice, budget, or seed) is safe: mismatched entries simply
    /// contribute no hits.
    pub fn load_marginals(&self, path: impl AsRef<Path>) -> Result<u64> {
        let report = cache::persist::load(&self.marginals, path.as_ref())
            .map_err(|e| PpdError::Persist(format!("load {}: {e}", path.as_ref().display())))?;
        {
            let mut covered = self.covered.lock().expect("invalidation index poisoned");
            for &(unit, model) in &report.index {
                covered.entry(model).or_default().insert(unit);
            }
        }
        self.segment_live_bytes
            .store(report.live_bytes, Ordering::Relaxed);
        self.segment_dead_bytes
            .store(report.dead_bytes, Ordering::Relaxed);
        Ok(report.records)
    }

    /// Number of distinct marginals currently cached.
    pub fn cached_marginals(&self) -> usize {
        self.marginals.len()
    }

    /// Records that the unit with content hash `unit_hash` covers a
    /// session whose model hashes to `model_hash`, so a later update to
    /// that session can invalidate it.
    fn index_unit(&self, model_hash: u64, unit_hash: u64) {
        self.covered
            .lock()
            .expect("invalidation index poisoned")
            .entry(model_hash)
            .or_default()
            .insert(unit_hash);
    }

    /// The work units a query reduces to, without solving them — the
    /// engine's introspection hook, used by benchmarks and capacity
    /// planning to report deduplication factors.
    pub fn plan_units(&self, db: &PpdDatabase, query: &ConjunctiveQuery) -> Result<Vec<WorkUnit>> {
        self.note_planned_version(db);
        let plan = ground_query(db, query)?;
        let prel = db
            .preference_relation(&plan.prelation)
            .ok_or_else(|| PpdError::UnknownName(plan.prelation.clone()))?;
        // First-seen-wins over unit identities — the same rule
        // `plan_requests` applies, so the reported units are exactly the
        // ones a grouped evaluation would solve.
        let mut resolver = UnionResolver::default();
        let mut seen: HashSet<PlannedUnit<'_>> = HashSet::new();
        let mut units = Vec::new();
        for squery in &plan.sessions {
            let session = &prel.sessions()[squery.session_index];
            let resolved = resolver.resolve(
                &squery.union,
                &plan.labeling,
                session.model().sigma().items(),
            );
            if seen.insert(resolved.unit_of(session)) {
                units.push(WorkUnit {
                    key: resolved.key_for(session),
                    union: Arc::clone(&resolved.ordered),
                    session_index: squery.session_index,
                });
            }
        }
        Ok(units)
    }

    /// Computes, for every qualifying session, the probability that the
    /// query holds in that session. Sessions that cannot satisfy the query
    /// are omitted (their probability is zero).
    pub fn session_probabilities(
        &self,
        db: &PpdDatabase,
        query: &ConjunctiveQuery,
    ) -> Result<Vec<(usize, f64)>> {
        Ok(self.answer(db, query)?.session_probabilities)
    }

    /// Evaluates a Boolean query: the probability that *some* session
    /// satisfies it, assuming session independence: `1 − Π_i (1 − Pr(Q | s_i))`.
    pub fn evaluate_boolean(&self, db: &PpdDatabase, query: &ConjunctiveQuery) -> Result<f64> {
        Ok(self.answer(db, query)?.boolean)
    }

    /// Evaluates `count(Q)`: under the possible-world semantics the count of
    /// sessions satisfying `Q` is a random variable whose expectation is the
    /// sum of the per-session probabilities, `Σ_i Pr(Q | s_i)`.
    pub fn count_sessions(&self, db: &PpdDatabase, query: &ConjunctiveQuery) -> Result<f64> {
        Ok(self.answer(db, query)?.expected_count)
    }

    /// One query's answer: a wave of one.
    fn answer(&self, db: &PpdDatabase, query: &ConjunctiveQuery) -> Result<BatchAnswer> {
        let mut answers = self.evaluate_batch(db, std::slice::from_ref(query))?;
        Ok(answers.pop().expect("one answer per query"))
    }

    /// Evaluates `top(Q, k)`: the `k` sessions with the highest probability
    /// of satisfying `Q`, with the strategy's statistics. A wave of one: the
    /// first stage is planned and solved like any query's requests, the
    /// second walks behind it.
    pub fn most_probable_sessions(
        &self,
        db: &PpdDatabase,
        query: &ConjunctiveQuery,
        k: usize,
        strategy: TopKStrategy,
    ) -> Result<(Vec<SessionScore>, TopKStats)> {
        let answer = Mutex::new(None);
        let deliver = |_, delivered: Result<WaveAnswer>| {
            *answer.lock().expect("top-k answer slot poisoned") = Some(delivered);
        };
        let mut wave = WavePlan::default();
        self.plan_topk_into(&mut wave, db, query, k, strategy, 0, &|_| false, &deliver);
        self.run_wave(wave, None, deliver);
        let answer = answer.into_inner().expect("top-k answer slot poisoned");
        match answer.expect("a wave delivers every planned query exactly once")? {
            WaveAnswer::TopK(scores, stats) => Ok((scores, stats)),
            WaveAnswer::Batch(_) => unreachable!("a planned top-k is answered as one"),
        }
    }

    /// Evaluates a batch of queries in **one scheduling wave**: every query
    /// is grounded, the union of all their work units is deduplicated
    /// globally (and against the engine's cache), solved across the worker
    /// pool, and the per-query answers are assembled.
    ///
    /// Compared to evaluating the queries one by one, a batch overlaps the
    /// units of cheap and expensive queries on the pool and shares marginals
    /// between queries within the same wave.
    ///
    /// This is [`Engine::evaluate_batch_streamed`] into a collector (one
    /// pipeline, so the two can never diverge) that nobody can cancel: all
    /// answers are gathered and returned together, and if any query fails,
    /// the first failure in query order is returned for the whole batch.
    pub fn evaluate_batch(
        &self,
        db: &PpdDatabase,
        queries: &[ConjunctiveQuery],
    ) -> Result<Vec<BatchAnswer>> {
        let answers: Mutex<Vec<Option<Result<BatchAnswer>>>> =
            Mutex::new((0..queries.len()).map(|_| None).collect());
        self.run_batch(db, queries, &[], None, |query_index, answer| {
            answers.lock().expect("batch answer slots poisoned")[query_index] = Some(answer);
        });
        answers
            .into_inner()
            .expect("batch answer slots poisoned")
            .into_iter()
            .map(|slot| slot.expect("every query is delivered exactly once"))
            .collect()
    }

    /// Evaluates a batch of queries in one scheduling wave like
    /// [`Engine::evaluate_batch`], but **streams** each query's answer
    /// through `deliver(query_index, answer)` as soon as the last work unit
    /// *that query* depends on completes — not when the whole wave does.
    ///
    /// This is the engine half of the serving layer's streamed responses,
    /// and the two stages of the wave pipeline run back to back:
    /// [`Engine::plan_into`] delivers every query that fails to ground or
    /// is served by the cache alone before anything is solved, and
    /// [`Engine::execute_wave`] delivers the rest as their units land (a
    /// unit that fails to solve fails exactly the queries depending on it).
    ///
    /// `deliver` is invoked exactly once per query, concurrently from
    /// worker threads (with `threads = 1`, in completion order on the
    /// calling thread). It should hand the answer off quickly — e.g. push
    /// it down a channel — and must not call back into this engine, or the
    /// wave's workers may deadlock behind it.
    ///
    /// Cancellation: a query for which `cancelled(query_index)` fires —
    /// polled once at planning, before each unit solve, and mid-solve by the
    /// exact DP kernels — is delivered [`PpdError::Cancelled`] exactly once,
    /// and a unit nobody live waits on is never solved. See
    /// [`Engine::execute_wave`] for the contract; co-batched queries are
    /// never affected. Pass `|_| false` for a batch nobody cancels.
    ///
    /// Tracing: `traces[query_index]` is the submission's trace id (`0` or
    /// out of range = untraced, so `&[]` traces nothing). For sampled traces
    /// the engine records `wave-joined` when the query is planned and one
    /// `unit-solved` per completed unit the query depended on, into the
    /// [`ppd_obs::TraceLog`] attached via [`EngineObs::with_trace`]. Purely
    /// observational: the trace ids never reach seeds, cache keys, or
    /// scheduling.
    ///
    /// Determinism: the delivered answers are bit-identical to
    /// [`Engine::evaluate_batch`] on the same queries — streaming, tracing
    /// and the cancellation of *other* queries change when an answer is
    /// released, never its bits.
    pub fn evaluate_batch_streamed(
        &self,
        db: &PpdDatabase,
        queries: &[ConjunctiveQuery],
        traces: &[u64],
        cancelled: impl Fn(usize) -> bool + Send + Sync + 'static,
        deliver: impl Fn(usize, Result<BatchAnswer>) + Sync,
    ) {
        self.run_batch(db, queries, traces, Some(Arc::new(cancelled)), deliver);
    }

    /// Plans `queries` into a fresh wave and executes it.
    fn run_batch(
        &self,
        db: &PpdDatabase,
        queries: &[ConjunctiveQuery],
        traces: &[u64],
        cancelled: Option<Arc<CancelFn>>,
        deliver: impl Fn(usize, Result<BatchAnswer>) + Sync,
    ) {
        let deliver = |query_index, answer: Result<WaveAnswer>| {
            deliver(
                query_index,
                answer.map(|answer| match answer {
                    WaveAnswer::Batch(answer) => answer,
                    WaveAnswer::TopK(..) => unreachable!("no top-k was planned into this wave"),
                }),
            )
        };
        let is_cancelled = |query_index| cancelled.as_ref().is_some_and(|c| c(query_index));
        let mut wave = WavePlan::default();
        self.plan_into(&mut wave, db, queries, traces, &is_cancelled, &deliver);
        self.run_wave(wave, cancelled, deliver);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{EvalConfig, SolverChoice};
    use crate::query::Term as T;
    use crate::testdb::polling_database;

    fn q1() -> ConjunctiveQuery {
        ConjunctiveQuery::new("Q1")
            .prefer(
                "Polls",
                vec![T::any(), T::any()],
                T::var("c1"),
                T::var("c2"),
            )
            .atom(
                "Candidates",
                vec![
                    T::var("c1"),
                    T::any(),
                    T::val("F"),
                    T::any(),
                    T::any(),
                    T::any(),
                ],
            )
            .atom(
                "Candidates",
                vec![
                    T::var("c2"),
                    T::any(),
                    T::val("M"),
                    T::any(),
                    T::any(),
                    T::any(),
                ],
            )
    }

    #[test]
    fn marginal_cache_persists_across_queries() {
        let db = polling_database();
        let engine = Engine::new(EvalConfig::exact());
        let first = engine.session_probabilities(&db, &q1()).unwrap();
        let stats_after_first = engine.cache_stats();
        assert_eq!(stats_after_first.marginal_hits, 0);
        assert!(stats_after_first.marginal_misses > 0);
        let second = engine.session_probabilities(&db, &q1()).unwrap();
        assert_eq!(first, second);
        let stats_after_second = engine.cache_stats();
        // The repeat run is answered entirely from the cache.
        assert_eq!(
            stats_after_second.marginal_misses,
            stats_after_first.marginal_misses
        );
        assert!(stats_after_second.marginal_hits >= first.len() as u64);
    }

    #[test]
    fn prepared_models_are_shared_across_sessions() {
        let db = polling_database();
        let engine = Engine::new(EvalConfig::exact());
        engine.session_probabilities(&db, &q1()).unwrap();
        // Ann, Bob, and Dave have three distinct models in the testdb.
        assert_eq!(engine.cache_stats().models_prepared, 3);
    }

    #[test]
    fn plan_units_deduplicate_by_content() {
        let db = polling_database();
        let engine = Engine::new(EvalConfig::exact());
        let units = engine.plan_units(&db, &q1()).unwrap();
        // Three sessions with three distinct models: three units.
        assert_eq!(units.len(), 3);
        let seeds: Vec<u64> = units.iter().map(|u| u.key.seed(42)).collect();
        assert!(seeds.iter().collect::<std::collections::HashSet<_>>().len() == 3);
    }

    #[test]
    fn batch_matches_sequential_evaluation_and_shares_work() {
        let db = polling_database();
        let q2 = ConjunctiveQuery::new("clinton-trump").prefer(
            "Polls",
            vec![T::any(), T::any()],
            T::val("Clinton"),
            T::val("Trump"),
        );
        let batch_engine = Engine::new(EvalConfig::exact());
        let answers = batch_engine
            .evaluate_batch(&db, &[q1(), q2.clone(), q1()])
            .unwrap();
        assert_eq!(answers.len(), 3);
        let solo = Engine::new(EvalConfig::exact());
        assert_eq!(
            answers[0].session_probabilities,
            solo.session_probabilities(&db, &q1()).unwrap()
        );
        assert_eq!(
            answers[1].session_probabilities,
            solo.session_probabilities(&db, &q2).unwrap()
        );
        // The duplicated query contributes no extra work units.
        assert_eq!(
            answers[0].session_probabilities,
            answers[2].session_probabilities
        );
        let stats = batch_engine.cache_stats();
        assert_eq!(
            stats.marginal_misses as usize,
            batch_engine.cached_marginals()
        );
        for answer in &answers {
            let expected_count: f64 = answer.session_probabilities.iter().map(|&(_, p)| p).sum();
            assert!((answer.expected_count - expected_count).abs() < 1e-12);
            assert!((0.0..=1.0).contains(&answer.boolean));
        }
    }

    #[test]
    fn streamed_batch_matches_blocking_batch_bitwise() {
        let db = polling_database();
        let q2 = ConjunctiveQuery::new("clinton-trump").prefer(
            "Polls",
            vec![T::any(), T::any()],
            T::val("Clinton"),
            T::val("Trump"),
        );
        let queries = vec![q1(), q2, q1()];
        let blocking = Engine::new(EvalConfig::exact())
            .evaluate_batch(&db, &queries)
            .unwrap();
        for threads in [1usize, 4] {
            let engine = Engine::new(EvalConfig::exact().with_threads(threads));
            let delivered: Mutex<Vec<Option<BatchAnswer>>> = Mutex::new(vec![None; queries.len()]);
            engine.evaluate_batch_streamed(
                &db,
                &queries,
                &[],
                |_| false,
                |qi, answer| {
                    let slot = &mut delivered.lock().unwrap()[qi];
                    assert!(slot.is_none(), "each query is delivered exactly once");
                    *slot = Some(answer.unwrap());
                },
            );
            let delivered = delivered.into_inner().unwrap();
            for (expect, got) in blocking.iter().zip(&delivered) {
                let got = got.as_ref().expect("every query is delivered");
                assert_eq!(expect.session_probabilities, got.session_probabilities);
                assert_eq!(expect.boolean.to_bits(), got.boolean.to_bits());
                assert_eq!(
                    expect.expected_count.to_bits(),
                    got.expected_count.to_bits()
                );
            }
        }
    }

    #[test]
    fn streamed_batch_fails_unplannable_queries_individually() {
        let db = polling_database();
        let bad = ConjunctiveQuery::new("bad").prefer(
            "NoSuchPolls",
            vec![T::any(), T::any()],
            T::val("Clinton"),
            T::val("Trump"),
        );
        let queries = vec![q1(), bad];
        let engine = Engine::new(EvalConfig::exact());
        let delivered: Mutex<Vec<Option<Result<BatchAnswer>>>> = Mutex::new(vec![None, None]);
        engine.evaluate_batch_streamed(
            &db,
            &queries,
            &[],
            |_| false,
            |qi, answer| {
                delivered.lock().unwrap()[qi] = Some(answer);
            },
        );
        let delivered = delivered.into_inner().unwrap();
        assert!(delivered[0].as_ref().unwrap().is_ok());
        assert!(matches!(
            delivered[1].as_ref().unwrap(),
            Err(PpdError::UnknownName(_))
        ));
    }

    #[test]
    fn streamed_batch_serves_a_warm_engine_before_solving() {
        let db = polling_database();
        let engine = Engine::new(EvalConfig::exact());
        engine.session_probabilities(&db, &q1()).unwrap();
        let misses_before = engine.cache_stats().marginal_misses;
        let delivered = Mutex::new(Vec::new());
        engine.evaluate_batch_streamed(
            &db,
            &[q1()],
            &[],
            |_| false,
            |qi, answer| {
                delivered.lock().unwrap().push((qi, answer.unwrap()));
            },
        );
        assert_eq!(delivered.into_inner().unwrap().len(), 1);
        assert_eq!(
            engine.cache_stats().marginal_misses,
            misses_before,
            "a fully cached streamed batch must not solve anything"
        );
    }

    #[test]
    fn cancelled_queries_resolve_cancelled_without_poisoning_wave_mates() {
        let db = polling_database();
        let q2 = ConjunctiveQuery::new("clinton-trump").prefer(
            "Polls",
            vec![T::any(), T::any()],
            T::val("Clinton"),
            T::val("Trump"),
        );
        let direct = Engine::new(EvalConfig::exact())
            .evaluate_batch(&db, std::slice::from_ref(&q2))
            .unwrap();
        let engine = Engine::new(EvalConfig::exact());
        let delivered: Mutex<Vec<Option<Result<BatchAnswer>>>> = Mutex::new(vec![None, None]);
        engine.evaluate_batch_streamed(
            &db,
            &[q1(), q2],
            &[],
            |qi| qi == 0,
            |qi, answer| {
                let slot = &mut delivered.lock().unwrap()[qi];
                assert!(slot.is_none(), "each query is delivered exactly once");
                *slot = Some(answer);
            },
        );
        let delivered = delivered.into_inner().unwrap();
        assert!(matches!(delivered[0], Some(Err(PpdError::Cancelled))));
        // The surviving wave-mate's bits are unaffected by the cancellation.
        let got = delivered[1].as_ref().unwrap().as_ref().unwrap();
        assert_eq!(direct[0].session_probabilities, got.session_probabilities);
        assert_eq!(direct[0].boolean.to_bits(), got.boolean.to_bits());
    }

    #[test]
    fn units_of_fully_cancelled_batches_are_never_solved() {
        let db = polling_database();
        let engine = Engine::new(EvalConfig::exact());
        let delivered = Mutex::new(Vec::new());
        engine.evaluate_batch_streamed(
            &db,
            &[q1()],
            &[],
            |_| true,
            |qi, answer| delivered.lock().unwrap().push((qi, answer)),
        );
        let delivered = delivered.into_inner().unwrap();
        assert_eq!(delivered.len(), 1);
        assert!(matches!(delivered[0], (0, Err(PpdError::Cancelled))));
        // Refcounts were released without running a single solve: nothing
        // was inserted into the marginal cache.
        assert_eq!(engine.cached_marginals(), 0);
    }

    #[test]
    fn general_exact_upper_bound_topk_is_not_served_auto_exact_bits() {
        // Two-label unions relax to themselves, so the top-k optimizer's
        // stage-1 upper bounds (always auto-exact) share unit content with
        // its stage-2 full solves. Under a GeneralExact engine the cache
        // must keep the two exact algorithms apart — otherwise stage 2 would
        // be served the two-label DP's bits when grouping is on and the
        // inclusion–exclusion solver's bits when it is off.
        let db = polling_database();
        let q = q1();
        let config = EvalConfig {
            solver: SolverChoice::GeneralExact,
            ..EvalConfig::default()
        };
        let strategy = TopKStrategy::UpperBound {
            edges_per_pattern: 2,
        };
        let (grouped, _) = Engine::new(config.clone())
            .most_probable_sessions(&db, &q, 3, strategy)
            .unwrap();
        let (ungrouped, _) = Engine::new(config.without_grouping())
            .most_probable_sessions(&db, &q, 3, strategy)
            .unwrap();
        assert_eq!(grouped, ungrouped);
    }

    #[test]
    fn updates_invalidate_surgically_and_match_a_fresh_engine_bitwise() {
        use crate::session::Session;
        use crate::value::Value;
        use ppd_rim::{MallowsModel, Ranking};
        let mut db = polling_database();
        let engine = Engine::new(EvalConfig::exact());
        engine.session_probabilities(&db, &q1()).unwrap();
        let cached_before = engine.cached_marginals();
        let misses_before = engine.cache_stats().marginal_misses;
        assert_eq!(cached_before, 3, "one unit per distinct model");
        assert_eq!(engine.planned_version(), 1);

        // Replace Dave's session with a different model: exactly Dave's
        // unit is invalidated, Ann's and Bob's stay warm.
        let replacement = Session::new(
            vec![Value::from("Dave"), Value::from("6/5")],
            MallowsModel::new(Ranking::new(vec![3, 2, 1, 0]).unwrap(), 0.7).unwrap(),
        );
        let (version, dropped) = engine
            .apply_update(
                &mut db,
                Update::ReplaceSession {
                    prelation: "Polls".into(),
                    index: 2,
                    session: replacement,
                },
            )
            .unwrap();
        assert_eq!(version, 2);
        assert_eq!(engine.planned_version(), 2);
        assert_eq!(dropped, 1, "only the changed session's unit drops");
        assert_eq!(engine.cached_marginals(), cached_before - 1);
        assert_eq!(engine.cache_stats().units_invalidated, 1);

        // Post-update answers are bit-identical to a fresh engine built on
        // the final snapshot, and only the new unit is solved.
        let updated = engine.session_probabilities(&db, &q1()).unwrap();
        let fresh = Engine::new(EvalConfig::exact())
            .session_probabilities(&db, &q1())
            .unwrap();
        assert_eq!(updated.len(), fresh.len());
        for ((i, p), (j, q)) in updated.iter().zip(&fresh) {
            assert_eq!(i, j);
            assert_eq!(p.to_bits(), q.to_bits(), "session {i}");
        }
        assert_eq!(
            engine.cache_stats().marginal_misses,
            misses_before + 1,
            "the untouched sessions must be served from the warm cache"
        );

        // A rejected update leaves version and caches untouched.
        let err = engine.apply_update(
            &mut db,
            Update::DeleteSession {
                prelation: "Polls".into(),
                index: 99,
            },
        );
        assert!(err.is_err());
        assert_eq!(engine.planned_version(), 2);
        assert_eq!(engine.cache_stats().units_invalidated, 1);
    }

    #[test]
    fn threads_do_not_change_exact_results() {
        let db = polling_database();
        let serial = Engine::new(EvalConfig {
            threads: 1,
            ..EvalConfig::exact()
        });
        let parallel = Engine::new(EvalConfig {
            threads: 4,
            ..EvalConfig::exact()
        });
        assert_eq!(
            serial.session_probabilities(&db, &q1()).unwrap(),
            parallel.session_probabilities(&db, &q1()).unwrap()
        );
    }
}
