//! The wave pipeline: **plan**, then **execute**, over one extendable set of
//! work units.
//!
//! A wave is a set of queries solved together so that equal work units are
//! solved once (Section 6.4 of the paper, applied across queries). It has
//! two stages with a seam between them:
//!
//! 1. **Plan** ([`Engine::plan_into`], [`Engine::plan_topk_into`]): ground
//!    each query, reduce its sessions to work units, deduplicate them against
//!    the units the wave already holds and look the rest up in the marginal
//!    cache. A query that cannot ground, was cancelled, or needs nothing but
//!    cache hits is delivered *here*. Planning never solves anything, and
//!    may be repeated on the same [`WavePlan`]: later queries join the same
//!    unit set.
//! 2. **Execute** ([`Engine::execute_wave`]): solve the wave's unsolved units
//!    across the worker pool in cost order, streaming each waiting query's
//!    answer out the moment its last unit lands.
//!
//! What the plan leaves unsolved ([`WavePlan::unsolved_units`]) is therefore
//! known before any solver runs, so a caller that batches requests over time
//! (the serving layer's batching window) can decide from the plan whether
//! waiting for company can save any work at all.
//!
//! Nothing about *when* or *with whom* a query is planned reaches its
//! answer: seeds and cache keys are functions of unit content alone.

use super::cache::SolverFingerprint;
use super::unit::{PlannedUnit, UnionResolver};
use super::{cost, obs, scheduler, Engine, UnitKey};
use crate::database::PpdDatabase;
use crate::eval::SolverChoice;
use crate::query::ConjunctiveQuery;
use crate::session::Session;
use crate::topk::{self, SecondStage, SessionScore, TopKStats, TopKStrategy, TopKTail};
use crate::translate::{ground_query, GroundedSessionQuery, SessionQuery};
use crate::{PpdError, Result};
use ppd_patterns::{Labeling, PatternUnion, UnionClass};
use ppd_solvers::{
    choose_exact_solver_with_budget, Budget, CancelProbe, GeneralSolver, MisAmpAdaptive,
    MisAmpBudgeted, ProposalPool, SolverKind,
};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A request to solve one session's pattern union under a plan's labeling.
/// Requests from different plans (hence different labelings) can be mixed in
/// one wave — identity is content-based via [`UnitKey`]. The session lives
/// in the database (`'db`); the plan only has to outlive the planning call.
pub(crate) struct UnitRequest<'db, 'p> {
    pub(crate) session: &'db Session,
    pub(crate) labeling: &'p Arc<Labeling>,
    pub(crate) union: &'p PatternUnion,
}

/// One deduplicated, cache-missed unit of a wave, ready to solve. Owns its
/// share of the plan that produced it, so a wave can keep its units while
/// further queries are grounded and planned into it.
struct Pending<'db> {
    /// The key's stable content hash: the cache address and the seed
    /// ingredient, computed once per request.
    hash: u64,
    /// The session's model content hash — the invalidation reverse-index
    /// key under which this unit is filed when its value is cached.
    model_hash: u64,
    /// The union to solve, in canonical member order.
    union: Arc<PatternUnion>,
    session: &'db Session,
    labeling: Arc<Labeling>,
    /// The solver family that will produce this unit's number. Per-unit
    /// because [`SolverChoice::ErrorBudget`] picks exact DP or the budgeted
    /// sampler unit by unit (on the static cost alone), and because a
    /// top-k bound is solved exactly whatever the engine's choice.
    fingerprint: SolverFingerprint,
    /// The static cost estimate — a pure function of unit content and
    /// configuration, and what the wave is ordered by.
    static_cost: f64,
    /// The union class (`0` two-label, `1` bipartite, `2` general): the
    /// solve-time histogram's column.
    class: u8,
}

/// Where a request's probability comes from after planning.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Served from the marginal cache during planning.
    Cached(f64),
    /// Solved by the pending unit with this index.
    Unit(usize),
}

/// The plan stage's product: the unsolved units of every request planned so
/// far and, per request in planning order, where its probability will come
/// from. [`Engine::plan_requests`] extends it.
#[derive(Default)]
struct UnitSet<'db> {
    pending: Vec<Pending<'db>>,
    sources: Vec<Source>,
    /// Cache identity → pending index over the units earlier planning calls
    /// left behind, so a later call's requests join them instead of solving
    /// a twin. Filled at the start of the next call: a set planned once
    /// never builds it.
    joined: HashMap<(u64, SolverFingerprint), usize>,
}

/// The answers [`Engine::evaluate_batch`] produces for one query.
#[derive(Debug, Clone)]
pub struct BatchAnswer {
    /// Per qualifying session, the probability that the query holds in it.
    pub session_probabilities: Vec<(usize, f64)>,
    /// `Pr(Q)`: the probability that *some* session satisfies the query.
    pub boolean: f64,
    /// `count(Q)`: the expected number of satisfying sessions.
    pub expected_count: f64,
}

/// What a wave delivers for one planned query.
#[derive(Debug, Clone)]
pub enum WaveAnswer {
    /// A query planned by [`Engine::plan_into`].
    Batch(BatchAnswer),
    /// A `top(Q, k)` planned by [`Engine::plan_topk_into`].
    TopK(Vec<SessionScore>, TopKStats),
}

/// One planned query. It stays in the wave while it waits on at least one
/// unsolved unit, or on a second stage the cache could not finish.
struct PlannedQuery<'db> {
    /// The wave-wide query index handed to `deliver`.
    index: usize,
    /// The submission's trace id (`0` = untraced).
    trace: u64,
    /// The query's requests, as a range of [`UnitSet::sources`].
    span: Range<usize>,
    /// The distinct pending units those requests wait on, ascending.
    units: Vec<usize>,
    /// The grounded sessions, in request order.
    sessions: Vec<SessionQuery>,
    /// Set for a `top(Q, k)`: the requests are its first stage.
    topk: Option<TopKTail<'db>>,
    /// Set for a `top(Q, k)` the plan stage found the whole first stage of
    /// in the cache, but not the whole second: the walk, stopped at the
    /// first session it would have to solve.
    second_stage: Option<SecondStage>,
}

/// A wave between its two stages: the unit set planned so far and the
/// queries waiting on it. Start from [`WavePlan::default`], extend it with
/// [`Engine::plan_into`] / [`Engine::plan_topk_into`] any number of times,
/// then hand it to [`Engine::execute_wave`] — all on the **same engine and
/// database snapshot**, whose sessions the plan borrows for `'db`.
///
/// Queries are numbered in planning order across all planning calls; that
/// number is the `query_index` the `deliver` and `cancelled` callbacks see.
#[derive(Default)]
pub struct WavePlan<'db> {
    units: UnitSet<'db>,
    waiting: Vec<PlannedQuery<'db>>,
    planned: usize,
}

impl WavePlan<'_> {
    /// The work [`Engine::execute_wave`] will do: the units the plan could
    /// neither deduplicate nor find cached, plus one for each `top(Q, k)`
    /// whose second stage reached a session the cache does not hold (how
    /// many it goes on to solve is only known as it walks). Zero means every
    /// query planned so far has already been delivered.
    pub fn unsolved_units(&self) -> usize {
        let stopped_walks = self
            .waiting
            .iter()
            .filter(|query| query.second_stage.is_some())
            .count();
        self.units.pending.len() + stopped_walks
    }
}

/// A wave's cancellation predicate, over wave-wide query indices.
pub(super) type CancelFn = dyn Fn(usize) -> bool + Send + Sync;

/// What [`Engine::request_value`] does about a value the cache does not hold.
#[derive(Clone, Copy)]
enum OnMiss<'a> {
    /// Reports it: the plan stage solves nothing.
    Stop,
    /// Solves it, abandoning the solve when the probe — if the wave can be
    /// cancelled at all — fires.
    Solve(Option<&'a CancelProbe>),
}

/// Per-wave completion state shared by the pool's workers.
struct Tracker {
    /// Solved probability per pending unit, as completions land.
    values: Vec<Option<f64>>,
    /// Distinct unsolved units left per waiting query.
    remaining: Vec<usize>,
    /// Whether the query's answer (or error) has been delivered.
    done: Vec<bool>,
}

impl Engine {
    /// The plan stage for a slice of queries: grounds each, reduces them to
    /// work units in **one** pass (so queries of one call deduplicate
    /// against each other without hashing, and against the wave's earlier
    /// units by cache identity), and consults the marginal cache.
    ///
    /// `deliver(query_index, answer)` is invoked before this returns for
    /// every query that is already decided: one that fails to ground gets
    /// its error, one `cancelled(query_index)` flags gets
    /// [`PpdError::Cancelled`], and one whose units are all cache hits gets
    /// its answer — on a warm engine that is the whole slice, and nothing is
    /// left to execute. The others wait in `wave` for
    /// [`Engine::execute_wave`]. `traces[i]` is the `i`-th query's trace id
    /// (`0` or out of range = untraced); sampled traces record
    /// `wave-joined` here.
    pub fn plan_into<'db>(
        &self,
        wave: &mut WavePlan<'db>,
        db: &'db PpdDatabase,
        queries: &[ConjunctiveQuery],
        traces: &[u64],
        cancelled: &impl Fn(usize) -> bool,
        deliver: &impl Fn(usize, Result<WaveAnswer>),
    ) {
        self.note_planned_version(db);
        let first = wave.planned;
        wave.planned += queries.len();
        // Ground every query up front; a query that cannot ground fails
        // alone, without poisoning its wave-mates.
        let mut grounded = Vec::with_capacity(queries.len());
        for (offset, query) in queries.iter().enumerate() {
            match ground_on(db, query) {
                Ok(plan) => grounded.push((offset, plan)),
                Err(e) => deliver(first + offset, Err(e)),
            }
        }
        let mut requests: Vec<UnitRequest<'db, '_>> = Vec::new();
        let mut spans: Vec<Range<usize>> = Vec::with_capacity(grounded.len());
        let base = wave.units.sources.len();
        for (_, (prel, labeling, sessions)) in &grounded {
            let start = base + requests.len();
            requests.extend(sessions.iter().map(|squery| UnitRequest {
                session: &prel.sessions()[squery.session_index],
                labeling,
                union: &squery.union,
            }));
            spans.push(start..base + requests.len());
        }
        self.plan_requests(&mut wave.units, &requests, false);
        drop(requests);
        for ((offset, (_, _, sessions)), span) in grounded.into_iter().zip(spans) {
            let query = PlannedQuery {
                index: first + offset,
                trace: traces.get(offset).copied().unwrap_or(0),
                span,
                units: Vec::new(),
                sessions,
                topk: None,
                second_stage: None,
            };
            self.admit(wave, query, cancelled, deliver);
        }
    }

    /// The plan stage for one `top(Q, k)`: its **first stage** — every
    /// session's full union under [`TopKStrategy::Naive`], the relaxed
    /// upper-bound unions (always solved exactly: bounds must be sound)
    /// under [`TopKStrategy::UpperBound`] — joins the wave's unit set like
    /// any query's requests. If the cache already holds all of it, the
    /// second stage walks here as far as the cache reaches; a walk that ends
    /// on cache hits alone delivers the answer before this returns. Otherwise
    /// the query waits for [`Engine::execute_wave`], which walks the second
    /// stage — solving as it goes — once the wave's units are in.
    #[allow(clippy::too_many_arguments)]
    pub fn plan_topk_into<'db>(
        &self,
        wave: &mut WavePlan<'db>,
        db: &'db PpdDatabase,
        query: &ConjunctiveQuery,
        k: usize,
        strategy: TopKStrategy,
        trace: u64,
        cancelled: &impl Fn(usize) -> bool,
        deliver: &impl Fn(usize, Result<WaveAnswer>),
    ) {
        self.note_planned_version(db);
        let index = wave.planned;
        wave.planned += 1;
        let planned = ground_on(db, query).and_then(|(prel, labeling, sessions)| {
            let relaxed = match strategy {
                TopKStrategy::Naive => None,
                TopKStrategy::UpperBound { edges_per_pattern } => {
                    Some(topk::relax(prel, &labeling, &sessions, edges_per_pattern)?)
                }
            };
            Ok((prel, labeling, sessions, relaxed))
        });
        let (prel, labeling, sessions, relaxed) = match planned {
            Ok(planned) => planned,
            Err(e) => return deliver(index, Err(e)),
        };
        let start = wave.units.sources.len();
        let requests: Vec<UnitRequest<'db, '_>> = sessions
            .iter()
            .enumerate()
            .map(|(i, squery)| UnitRequest {
                session: &prel.sessions()[squery.session_index],
                labeling: &labeling,
                union: match &relaxed {
                    Some((unions, of_session)) => &unions[of_session[i]],
                    None => &squery.union,
                },
            })
            .collect();
        self.plan_requests(&mut wave.units, &requests, relaxed.is_some());
        drop(requests);
        let query = PlannedQuery {
            index,
            trace,
            span: start..wave.units.sources.len(),
            units: Vec::new(),
            sessions,
            topk: Some(TopKTail {
                k,
                strategy,
                prel,
                labeling,
            }),
            second_stage: None,
        };
        self.admit(wave, query, cancelled, deliver);
    }

    /// Files one freshly planned query (its `units` still to be filled in):
    /// delivered at once when it is cancelled or the cache answers it whole,
    /// parked in the wave otherwise.
    fn admit<'db>(
        &self,
        wave: &mut WavePlan<'db>,
        mut query: PlannedQuery<'db>,
        cancelled: &impl Fn(usize) -> bool,
        deliver: &impl Fn(usize, Result<WaveAnswer>),
    ) {
        let sources = &wave.units.sources[query.span.clone()];
        // The *distinct* pending units the query still needs — shared units
        // count once for each query that needs them.
        query.units = sources
            .iter()
            .filter_map(|source| match source {
                Source::Unit(unit) => Some(*unit),
                Source::Cached(_) => None,
            })
            .collect();
        query.units.sort_unstable();
        query.units.dedup();
        // Trace: each sampled submission learns the wave's shape as it
        // joins — units in the wave so far, how many it depends on, how
        // many of its requests the cache already answered.
        if let Some(log) = self.obs.trace().filter(|log| log.traced(query.trace)) {
            log.record(
                query.trace,
                ppd_obs::SpanEvent::WaveJoined {
                    wave_units: wave.units.pending.len(),
                    units: query.units.len(),
                    cached: sources
                        .iter()
                        .filter(|source| matches!(source, Source::Cached(_)))
                        .count(),
                },
            );
        }
        if cancelled(query.index) {
            return deliver(query.index, Err(PpdError::Cancelled));
        }
        if !query.units.is_empty() {
            return wave.waiting.push(query);
        }
        let values = probabilities(sources, &[]);
        let Some(tail) = &query.topk else {
            return deliver(query.index, Ok(batch_answer(&query.sessions, values)));
        };
        // The second stage, on cache hits alone: the plan stage solves
        // nothing, whoever's thread it runs on. A walk that needs a solve
        // waits, where it stopped, for the execute stage.
        let mut stage = SecondStage::begin(tail, &query.sessions, values);
        match stage.advance(tail, &query.sessions, |request| {
            self.request_value(&request, OnMiss::Stop)
        }) {
            Ok(true) => {
                let (scores, stats) = stage.finish(tail.k);
                deliver(query.index, Ok(WaveAnswer::TopK(scores, stats)));
            }
            Ok(false) => {
                query.second_stage = Some(stage);
                wave.waiting.push(query);
            }
            Err(e) => deliver(query.index, Err(e)),
        }
    }

    /// The value of one request *now*, under the engine's configured solver:
    /// what the marginal cache holds for it, or — where `on_miss` allows — a
    /// solve on the calling thread, cached like any wave unit's. This is how
    /// a `top(Q, k)` walk gets each next session's probability; `None` means
    /// the walk stops here.
    fn request_value(
        &self,
        request: &UnitRequest<'_, '_>,
        on_miss: OnMiss<'_>,
    ) -> Result<Option<f64>> {
        if let OnMiss::Solve(Some(probe)) = on_miss {
            if probe.is_cancelled() {
                return Err(PpdError::Cancelled);
            }
        }
        let grouping = self.config.group_identical;
        let sigma = request.session.model().sigma().items();
        let mut resolver = UnionResolver::default();
        let resolved = resolver.resolve(request.union, request.labeling, sigma);
        let model_hash = request.session.model_key_hash();
        let hash = resolved.stable_hash(model_hash);
        let fingerprint = self.unit_fingerprint(request.union, sigma.len(), false);
        if grouping {
            // A value the walk will not go on to solve is not counted as a
            // miss — the solve that follows, in the execute stage, counts it.
            let found = match on_miss {
                OnMiss::Stop => self.marginals.get_if_present(hash, fingerprint),
                OnMiss::Solve(_) => self.marginals.get(hash, fingerprint),
            };
            if let Some(p) = found {
                self.obs.cache_hit();
                return Ok(Some(p));
            }
        }
        let OnMiss::Solve(probe) = on_miss else {
            return Ok(None);
        };
        if grouping {
            self.obs.cache_miss();
        }
        let unit = self.pending_unit(request, &resolved.ordered, hash, model_hash, fingerprint);
        let (p, _) = self.solve_pending(&unit, probe.cloned())?;
        self.cache_solved(&unit, p);
        Ok(Some(p))
    }

    /// The execute stage: solves the wave's unsolved units across the worker
    /// pool, most expensive first, and **streams** each waiting query's
    /// answer through `deliver(query_index, answer)` as soon as the last
    /// unit *that query* depends on completes — not when the whole wave
    /// does. A unit that fails to solve fails exactly the queries depending
    /// on it. A `top(Q, k)` walks (the rest of) its second stage after the
    /// pool has drained, so it is served by everything the wave solved.
    ///
    /// Cancellation: before each unit solve the engine polls
    /// `cancelled(query_index)` for the unit's still-undelivered dependents.
    /// A query whose predicate fires is delivered [`PpdError::Cancelled`]
    /// exactly once and its claims are released; a unit every dependent of
    /// which has been cancelled or delivered is **skipped** — its solve
    /// never runs and nothing is cached for it. Exact DP kernels also poll
    /// mid-solve through a [`CancelProbe`], so a long solve whose last
    /// waiter gives up is abandoned. A unit with a live dependent is solved
    /// normally, with the same content-derived seed, so surviving queries'
    /// answers are bit-identical to an uncancelled run.
    ///
    /// `deliver` is invoked exactly once per waiting query, concurrently
    /// from worker threads (with `threads = 1`, in completion order on the
    /// calling thread). It should hand the answer off quickly and must not
    /// call back into this engine. `cancelled` is polled from worker threads
    /// and must be cheap; once it returns `true` for a query it must keep
    /// returning `true`.
    pub fn execute_wave(
        &self,
        wave: WavePlan<'_>,
        cancelled: impl Fn(usize) -> bool + Send + Sync + 'static,
        deliver: impl Fn(usize, Result<WaveAnswer>) + Sync,
    ) {
        self.run_wave(wave, Some(Arc::new(cancelled)), deliver);
    }

    /// [`Engine::execute_wave`], for callers inside the engine too: the
    /// blocking entry points hand in no `cancelled` at all, and a wave
    /// nobody can cancel builds no probes and polls nothing.
    pub(super) fn run_wave(
        &self,
        wave: WavePlan<'_>,
        cancelled: Option<Arc<CancelFn>>,
        deliver: impl Fn(usize, Result<WaveAnswer>) + Sync,
    ) {
        let WavePlan {
            units, mut waiting, ..
        } = wave;
        let UnitSet {
            pending, sources, ..
        } = units;
        if waiting.is_empty() {
            return;
        }
        // `top(Q, k)` queries whose first stage is in, walked after the pool
        // drains — starting with the ones the plan stage left mid-walk.
        let second_stage: Mutex<Vec<(usize, SecondStage)>> = Mutex::new(
            waiting
                .iter_mut()
                .enumerate()
                .filter_map(|(qi, query)| Some((qi, query.second_stage.take()?)))
                .collect(),
        );
        // Per unit, the waiting queries that depend on it. Arc-owned, like
        // the queries' wave-wide indices, so the per-unit cancel probes
        // (which must be `'static`) can share them.
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); pending.len()];
        for (qi, query) in waiting.iter().enumerate() {
            for &unit in &query.units {
                dependents[unit].push(qi);
            }
        }
        let dependents = Arc::new(dependents);
        let index_of: Arc<Vec<usize>> = Arc::new(waiting.iter().map(|q| q.index).collect());
        let tracker = Arc::new(Mutex::new(Tracker {
            values: vec![None; pending.len()],
            remaining: waiting.iter().map(|q| q.units.len()).collect(),
            done: vec![false; waiting.len()],
        }));

        let order = wave_order(&pending);
        scheduler::run_indexed(order.len(), self.config.threads, |slot| {
            let unit = order[slot];
            // Sweep at solve time: dependents whose predicate now fires
            // resolve `Cancelled` and release their refcounts; if nothing
            // live is left waiting on this unit, the solve itself is
            // skipped.
            let mut dropped: Vec<usize> = Vec::new();
            let mut live = false;
            {
                let mut t = tracker.lock().expect("streaming tracker poisoned");
                for &qi in &dependents[unit] {
                    if t.done[qi] {
                        continue;
                    }
                    if cancelled.as_ref().is_some_and(|c| c(index_of[qi])) {
                        t.done[qi] = true;
                        dropped.push(qi);
                    } else {
                        live = true;
                    }
                }
            }
            for qi in dropped {
                deliver(index_of[qi], Err(PpdError::Cancelled));
            }
            if !live {
                return;
            }
            // Mid-solve cancellation: the probe fires once every dependent
            // of this unit is delivered or cancelled, and the exact DP
            // kernels poll it per insertion step.
            let probe = cancelled.as_ref().map(|cancelled| {
                let tracker = Arc::clone(&tracker);
                let dependents = Arc::clone(&dependents);
                let index_of = Arc::clone(&index_of);
                let cancelled = Arc::clone(cancelled);
                CancelProbe::new(move || {
                    let t = tracker.lock().expect("streaming tracker poisoned");
                    dependents[unit]
                        .iter()
                        .all(|&qi| t.done[qi] || cancelled(index_of[qi]))
                })
            });
            let outcome = self.solve_pending(&pending[unit], probe);
            // Queries completed by this unit, with their requests'
            // probabilities (or the unit's error); answered after the
            // tracker lock is released so a slow consumer never serializes
            // the other workers' completions.
            let mut finished: Vec<(usize, Result<Vec<f64>>)> = Vec::new();
            match outcome {
                Ok((p, elapsed_ns)) => {
                    self.cache_solved(&pending[unit], p);
                    let mut t = tracker.lock().expect("streaming tracker poisoned");
                    t.values[unit] = Some(p);
                    for &qi in &dependents[unit] {
                        if t.done[qi] {
                            continue;
                        }
                        // The span goes into the ring while the lock still
                        // hides the decrement: whichever worker completes
                        // the query's last unit — and hands the answer to
                        // `deliver` — does so after every `unit-solved` of
                        // that query is recorded.
                        if let Some(log) = self.obs.trace() {
                            log.record(
                                waiting[qi].trace,
                                ppd_obs::SpanEvent::UnitSolved {
                                    unit_hash: pending[unit].hash,
                                    solver: obs::solver_tag(pending[unit].fingerprint),
                                    micros: elapsed_ns / 1_000,
                                },
                            );
                        }
                        t.remaining[qi] -= 1;
                        if t.remaining[qi] == 0 {
                            t.done[qi] = true;
                            let probabilities =
                                probabilities(&sources[waiting[qi].span.clone()], &t.values);
                            finished.push((qi, Ok(probabilities)));
                        }
                    }
                }
                Err(e) => {
                    let mut t = tracker.lock().expect("streaming tracker poisoned");
                    for &qi in &dependents[unit] {
                        if t.done[qi] {
                            continue;
                        }
                        t.done[qi] = true;
                        finished.push((qi, Err(e.clone())));
                    }
                }
            }
            for (qi, probabilities) in finished {
                let query = &waiting[qi];
                match (probabilities, &query.topk) {
                    (Ok(bounds), Some(tail)) => second_stage
                        .lock()
                        .expect("second-stage list poisoned")
                        .push((qi, SecondStage::begin(tail, &query.sessions, bounds))),
                    (Ok(probabilities), None) => deliver(
                        query.index,
                        Ok(batch_answer(&query.sessions, probabilities)),
                    ),
                    (Err(e), _) => deliver(query.index, Err(e)),
                }
            }
        });

        let mut second_stage = second_stage
            .into_inner()
            .expect("second-stage list poisoned");
        second_stage.sort_unstable_by_key(|&(qi, _)| qi);
        for (qi, mut stage) in second_stage {
            let query = &waiting[qi];
            let tail = query.topk.as_ref().expect("only a top-k has two stages");
            // The walk polls its query's predicate before each session and
            // hands it to the exact kernels of every solve it runs.
            let probe = cancelled.as_ref().map(|cancelled| {
                let (cancelled, index) = (Arc::clone(cancelled), query.index);
                CancelProbe::new(move || cancelled(index))
            });
            let answer = if probe.as_ref().is_some_and(CancelProbe::is_cancelled) {
                Err(PpdError::Cancelled)
            } else {
                stage
                    .advance(tail, &query.sessions, |request| {
                        self.request_value(&request, OnMiss::Solve(probe.as_ref()))
                    })
                    .map(|_certain| {
                        let (scores, stats) = stage.finish(tail.k);
                        WaveAnswer::TopK(scores, stats)
                    })
            };
            deliver(query.index, answer);
        }
    }

    /// Files a solved unit's value: into the marginal cache under its
    /// content hash and solver fingerprint, and into the invalidation
    /// reverse index under its model. Without grouping nothing is cached.
    fn cache_solved(&self, unit: &Pending<'_>, p: f64) {
        if self.config.group_identical {
            let evicted_bytes = self.marginals.insert(unit.hash, unit.fingerprint, p);
            self.obs.evicted_bytes(evicted_bytes);
            self.index_unit(unit.model_hash, unit.hash);
        }
    }

    /// Reduces a slice of requests to unsolved units, appending to `set`:
    /// content deduplication (under
    /// [`EvalConfig::group_identical`](crate::eval::EvalConfig)) within the
    /// slice and against the units `set` already holds, then cache lookup,
    /// recording for each request where its probability will come from.
    ///
    /// With `force_exact` the units use the automatically selected exact
    /// solver regardless of the configured [`SolverChoice`] — the top-k
    /// optimizer's upper bounds must be sound, so they are never estimated.
    fn plan_requests<'db>(
        &self,
        set: &mut UnitSet<'db>,
        requests: &[UnitRequest<'db, '_>],
        force_exact: bool,
    ) {
        let grouping = self.config.group_identical;
        if grouping {
            // Distinct identities by construction, so the map's size is
            // also the number of pending units already indexed.
            for (unit, pending) in set.pending.iter().enumerate().skip(set.joined.len()) {
                set.joined.insert((pending.hash, pending.fingerprint), unit);
            }
        }
        // What a request shares with the other sessions of its query — the
        // union's canonical form — is resolved once for all of them; per
        // request only the model is folded in.
        let mut resolver = UnionResolver::default();
        let mut unit_of: HashMap<PlannedUnit<'db>, usize> = HashMap::new();
        set.sources.reserve(requests.len());
        for request in requests {
            let sigma = request.session.model().sigma().items();
            let resolved = resolver.resolve(request.union, request.labeling, sigma);
            let planned = resolved.unit_of(request.session);
            let m = sigma.len();
            let fingerprint = self.unit_fingerprint(request.union, m, force_exact);
            if grouping {
                if let Some(&unit) = unit_of.get(&planned) {
                    set.sources.push(Source::Unit(unit));
                    continue;
                }
            }
            let model_hash = request.session.model_key_hash();
            let hash = resolved.stable_hash(model_hash);
            if grouping {
                if let Some(&unit) = set.joined.get(&(hash, fingerprint)) {
                    unit_of.insert(planned, unit);
                    set.sources.push(Source::Unit(unit));
                    continue;
                }
                if let Some(p) = self.marginals.get(hash, fingerprint) {
                    self.obs.cache_hit();
                    set.sources.push(Source::Cached(p));
                    continue;
                }
                self.obs.cache_miss();
            }
            let unit = set.pending.len();
            if grouping {
                unit_of.insert(planned, unit);
            }
            set.pending.push(self.pending_unit(
                request,
                &resolved.ordered,
                hash,
                model_hash,
                fingerprint,
            ));
            set.sources.push(Source::Unit(unit));
        }
    }

    /// The unit that solves `request`, whose union in canonical member order
    /// is `ordered`, under the solver `fingerprint` names.
    fn pending_unit<'db>(
        &self,
        request: &UnitRequest<'db, '_>,
        ordered: &Arc<PatternUnion>,
        hash: u64,
        model_hash: u64,
        fingerprint: SolverFingerprint,
    ) -> Pending<'db> {
        let m = request.session.model().sigma().len();
        let approx_budget = match fingerprint {
            SolverFingerprint::Approx {
                samples_per_proposal,
                ..
            } => Some(samples_per_proposal),
            _ => None,
        };
        let class = match request.union.classify() {
            UnionClass::TwoLabel => 0u8,
            UnionClass::Bipartite => 1,
            UnionClass::General => 2,
        };
        Pending {
            union: Arc::clone(ordered),
            hash,
            model_hash,
            session: request.session,
            labeling: Arc::clone(request.labeling),
            fingerprint,
            static_cost: cost::unit_cost(request.union, m, approx_budget),
            class,
        }
    }

    /// Solves one pending unit: prepared-model lookup, solver selection, and
    /// a seeded solve whose result depends only on the unit's content and
    /// the engine's base seed. Returns `(probability, elapsed nanoseconds)`:
    /// the elapsed time feeds the solve-time histogram and trace events,
    /// never an answer. An optional [`CancelProbe`] is threaded into the
    /// exact DP kernels' budget checks for mid-solve cancellation.
    fn solve_pending(&self, unit: &Pending<'_>, probe: Option<CancelProbe>) -> Result<(f64, u64)> {
        let prepared = self.models.get_or_insert(unit.session);
        let kind = self.solver_kind(&unit.union, unit.fingerprint, probe);
        let seed = UnitKey::seed_from_stable_hash(unit.hash, self.config.seed);
        // Error-budget units reuse the cached proposal pool (the union
        // decomposition + greedy-modal walk) when one exists; a warm pool
        // only skips preparation work, the estimate's bits are identical.
        let pool = match (unit.fingerprint, &self.config.solver) {
            (SolverFingerprint::ErrorBudget { .. }, SolverChoice::ErrorBudget(_)) => {
                Some(self.pools.get_or_build(unit.hash, || {
                    ProposalPool::build(prepared.mallows(), &unit.labeling, &unit.union)
                })?)
            }
            _ => None,
        };
        let started = Instant::now();
        let mut pool_guard = pool
            .as_ref()
            .map(|pool| pool.lock().expect("proposal pool poisoned"));
        let detail = kind.solve_seeded_detailed(
            prepared.mallows(),
            || prepared.rim(),
            &unit.labeling,
            &unit.union,
            seed,
            pool_guard.as_deref_mut(),
        )?;
        drop(pool_guard);
        let p = detail.probability;
        self.obs
            .zero_density_samples(detail.zero_density_samples as u64);
        let elapsed = started.elapsed();
        self.obs.record_solve(unit.fingerprint, unit.class, elapsed);
        let elapsed_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        Ok((p, elapsed_ns))
    }

    /// The solver handle for one unit: the one its fingerprint names (which
    /// already folds in a forced-exact bound and, under
    /// [`SolverChoice::ErrorBudget`], the per-unit selection). A supplied
    /// cancel probe rides into the exact solvers' budgets; the sampling arms
    /// ignore it (their rounds are short, and unit-granularity cancellation
    /// covers them).
    fn solver_kind(
        &self,
        union: &PatternUnion,
        fingerprint: SolverFingerprint,
        probe: Option<CancelProbe>,
    ) -> SolverKind {
        match (fingerprint, &self.config.solver) {
            (SolverFingerprint::GeneralExact, _) => {
                let solver = GeneralSolver::new();
                let solver = match probe {
                    Some(p) => solver.with_budget(Budget::cancellable(p)),
                    None => solver,
                };
                SolverKind::exact(Box::new(solver))
            }
            (
                SolverFingerprint::Approx { .. },
                SolverChoice::Approximate {
                    samples_per_proposal,
                },
            ) => SolverKind::approx(Box::new(MisAmpAdaptive::new(*samples_per_proposal))),
            (SolverFingerprint::ErrorBudget { .. }, SolverChoice::ErrorBudget(budget)) => {
                SolverKind::budgeted(MisAmpBudgeted::new(budget.epsilon, budget.confidence))
            }
            _ => match probe {
                Some(p) => SolverKind::exact(choose_exact_solver_with_budget(
                    union,
                    Budget::cancellable(p),
                )),
                None => SolverKind::exact_auto(union),
            },
        }
    }

    /// The cache discriminant for the solver that will produce one unit's
    /// number. `force_exact` always means the auto-selected exact solver,
    /// which matches the `ExactAuto` configuration but must *not* alias
    /// with `GeneralExact`: the two exact algorithms differ in low-order
    /// float bits, and a relaxed upper-bound union can be content-identical
    /// to the full union. Under [`SolverChoice::ErrorBudget`] the
    /// fingerprint is per unit: the *static* exact cost decides between
    /// exact DP and the budgeted sampler — a pure function of content and
    /// configuration, so selection is identical warm or cold.
    fn unit_fingerprint(
        &self,
        union: &PatternUnion,
        m: usize,
        force_exact: bool,
    ) -> SolverFingerprint {
        if force_exact {
            return SolverFingerprint::ExactAuto;
        }
        match &self.config.solver {
            SolverChoice::ExactAuto => SolverFingerprint::ExactAuto,
            SolverChoice::GeneralExact => SolverFingerprint::GeneralExact,
            SolverChoice::Approximate {
                samples_per_proposal,
            } => SolverFingerprint::Approx {
                samples_per_proposal: *samples_per_proposal,
                base_seed: self.config.seed,
            },
            SolverChoice::ErrorBudget(budget) => {
                if cost::unit_cost(union, m, None) <= self.config.exact_cost_threshold {
                    SolverFingerprint::ExactAuto
                } else {
                    SolverFingerprint::ErrorBudget {
                        epsilon_bits: budget.epsilon.to_bits(),
                        confidence_bits: budget.confidence.to_bits(),
                        base_seed: self.config.seed,
                    }
                }
            }
        }
    }
}

/// A grounded query with its p-relation resolved and its labeling shared:
/// what the plan stage needs of a [`GroundedSessionQuery`].
type Grounded<'db> = (
    &'db crate::session::PreferenceRelation,
    Arc<Labeling>,
    Vec<SessionQuery>,
);

/// Grounds `query` against `db`.
fn ground_on<'db>(db: &'db PpdDatabase, query: &ConjunctiveQuery) -> Result<Grounded<'db>> {
    let GroundedSessionQuery {
        prelation,
        labeling,
        sessions,
        ..
    } = ground_query(db, query)?;
    let prel = db
        .preference_relation(&prelation)
        .ok_or(PpdError::UnknownName(prelation))?;
    Ok((prel, Arc::new(labeling), sessions))
}

/// The wave's execution order: pending-unit indices sorted descending by
/// static cost, so the most expensive units start first and the wave tail
/// shrinks. Execution order never affects results — seeds and cache keys
/// are functions of unit content alone.
fn wave_order(pending: &[Pending<'_>]) -> Vec<usize> {
    let costs: Vec<f64> = pending.iter().map(|unit| unit.static_cost).collect();
    cost::schedule_order(&costs)
}

/// The probabilities of a query's requests, in request order, once every
/// unit they wait on has a value in `solved` (indexed like the pending set).
fn probabilities(sources: &[Source], solved: &[Option<f64>]) -> Vec<f64> {
    sources
        .iter()
        .map(|source| match source {
            Source::Cached(p) => *p,
            Source::Unit(unit) => solved[*unit].expect("all of the query's units are solved"),
        })
        .collect()
}

/// A query's answer from its sessions' probabilities, in plan order.
fn batch_answer(sessions: &[SessionQuery], probabilities: Vec<f64>) -> WaveAnswer {
    let session_probabilities: Vec<(usize, f64)> = sessions
        .iter()
        .map(|squery| squery.session_index)
        .zip(probabilities)
        .collect();
    WaveAnswer::Batch(BatchAnswer {
        boolean: boolean_from(&session_probabilities),
        expected_count: count_from(&session_probabilities),
        session_probabilities,
    })
}

/// `1 − Π_i (1 − pᵢ)` over per-session probabilities.
fn boolean_from(per_session: &[(usize, f64)]) -> f64 {
    1.0 - per_session.iter().map(|&(_, p)| 1.0 - p).product::<f64>()
}

/// `Σ_i pᵢ` over per-session probabilities.
fn count_from(per_session: &[(usize, f64)]) -> f64 {
    per_session.iter().map(|&(_, p)| p).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Update;
    use crate::engine::EngineObs;
    use crate::eval::EvalConfig;
    use crate::query::Term as T;
    use crate::testdb::polling_database;
    use crate::value::Value;
    use ppd_obs::{Registry, SpanEvent, TraceLog, TraceMode};
    use ppd_rim::{MallowsModel, Ranking};

    fn clinton_over_trump() -> ConjunctiveQuery {
        ConjunctiveQuery::new("clinton-trump").prefer(
            "Polls",
            vec![T::any(), T::any()],
            T::val("Clinton"),
            T::val("Trump"),
        )
    }

    fn sanders_over_rubio() -> ConjunctiveQuery {
        ConjunctiveQuery::new("sanders-rubio").prefer(
            "Polls",
            vec![T::any(), T::any()],
            T::val("Sanders"),
            T::val("Rubio"),
        )
    }

    /// The polling database widened to `sessions` sessions with pairwise
    /// distinct models, so a query over all of them is that many units.
    fn wide_database(sessions: usize) -> PpdDatabase {
        let mut db = polling_database();
        for i in 3..sessions {
            let model = MallowsModel::new(
                Ranking::new(vec![2, 0, 3, 1]).unwrap(),
                0.1 + 0.01 * i as f64,
            );
            db.apply(Update::InsertSession {
                prelation: "Polls".into(),
                session: Session::new(
                    vec![Value::from(format!("voter{i}")), Value::from("7/5")],
                    model.unwrap(),
                ),
            })
            .unwrap();
        }
        db
    }

    #[test]
    fn no_unit_solved_span_follows_its_query_s_delivery() {
        // Two queries sharing every unit, solved on several threads: the
        // worker that completes a query's last unit hands its answer off
        // while another may still be inside the completion of an earlier
        // shared unit. That worker's `unit-solved` span must already be in
        // the ring — a timeline ends at delivery.
        let db = wide_database(24);
        let queries = [clinton_over_trump(), clinton_over_trump()];
        let traces = [1u64, 2];
        for round in 0..1000 {
            let log = Arc::new(TraceLog::new(TraceMode::All, 4096));
            let obs = EngineObs::new(&Registry::new(false), &[]).with_trace(Arc::clone(&log));
            let engine = Engine::with_obs(EvalConfig::exact().with_threads(4), obs);
            engine.evaluate_batch_streamed(
                &db,
                &queries,
                &traces,
                |_| false,
                |qi, answer| {
                    answer.expect("query answers");
                    // What the serving layer records when it hands off.
                    log.record(traces[qi], SpanEvent::Delivered { micros: 0 });
                },
            );
            for trace in traces {
                let events = log.events(trace);
                let solved = events
                    .iter()
                    .filter(|e| matches!(e.event, SpanEvent::UnitSolved { .. }))
                    .count();
                assert_eq!(solved, 24, "round {round}: one span per shared unit");
                assert_eq!(
                    events.last().expect("timeline nonempty").event.name(),
                    "delivered",
                    "round {round}: trace {trace} does not end at delivery: {events:?}"
                );
            }
        }
    }

    #[test]
    fn waves_start_their_statically_costliest_units_first() {
        // Cheap two-label units planned ahead of general-class chains: the
        // wave still starts every chain first, in descending static cost.
        let db = wide_database(8);
        let chain = clinton_over_trump().prefer(
            "Polls",
            vec![T::any(), T::any()],
            T::val("Trump"),
            T::val("Rubio"),
        );
        let engine = Engine::new(EvalConfig::exact());
        let mut wave = WavePlan::default();
        let deliver = |_: usize, _: Result<WaveAnswer>| panic!("nothing is cached yet");
        engine.plan_into(
            &mut wave,
            &db,
            &[sanders_over_rubio(), chain],
            &[],
            &|_| false,
            &deliver,
        );
        let pending = &wave.units.pending;
        let order = wave_order(pending);
        let classes: Vec<u8> = order.iter().map(|&unit| pending[unit].class).collect();
        assert_eq!(classes, [[2u8; 8], [0; 8]].concat());
        assert!(order
            .windows(2)
            .all(|pair| pending[pair[0]].static_cost >= pending[pair[1]].static_cost));
    }

    #[test]
    fn later_planning_calls_join_the_units_of_earlier_ones() {
        let db = wide_database(8);
        let engine = Engine::new(EvalConfig::exact().with_threads(2));
        let direct = Engine::new(EvalConfig::exact())
            .evaluate_batch(&db, &[clinton_over_trump(), sanders_over_rubio()])
            .unwrap();
        let delivered: Mutex<Vec<Option<BatchAnswer>>> = Mutex::new(vec![None; 3]);
        let deliver = |qi: usize, answer: Result<WaveAnswer>| {
            let WaveAnswer::Batch(answer) = answer.expect("query answers") else {
                panic!("only batch queries were planned");
            };
            let slot = &mut delivered.lock().unwrap()[qi];
            assert!(slot.is_none(), "each query is delivered exactly once");
            *slot = Some(answer);
        };
        let mut wave = WavePlan::default();
        engine.plan_into(
            &mut wave,
            &db,
            &[clinton_over_trump()],
            &[],
            &|_| false,
            &deliver,
        );
        assert_eq!(wave.unsolved_units(), 8);
        // A joiner asking the same thing adds no unit; one asking something
        // else adds only its own. Query indices run on across the calls.
        engine.plan_into(
            &mut wave,
            &db,
            &[clinton_over_trump(), sanders_over_rubio()],
            &[],
            &|_| false,
            &deliver,
        );
        assert_eq!(wave.unsolved_units(), 16);
        assert!(
            delivered.lock().unwrap().iter().all(Option::is_none),
            "nothing is cached yet: every query waits for the execute stage"
        );
        engine.execute_wave(wave, |_| false, deliver);
        assert_eq!(engine.cache_stats().marginal_misses, 16);
        assert_eq!(engine.cached_marginals(), 16);
        let delivered = delivered.into_inner().unwrap();
        for (qi, expect) in [(0, &direct[0]), (1, &direct[0]), (2, &direct[1])] {
            let got = delivered[qi].as_ref().expect("every query is delivered");
            assert_eq!(expect.session_probabilities, got.session_probabilities);
            assert_eq!(expect.boolean.to_bits(), got.boolean.to_bits());
        }
    }

    #[test]
    fn a_warm_plan_leaves_nothing_to_execute() {
        let db = wide_database(8);
        let engine = Engine::new(EvalConfig::exact());
        let strategy = TopKStrategy::UpperBound {
            edges_per_pattern: 1,
        };
        let cold_batch = engine.evaluate_batch(&db, &[clinton_over_trump()]).unwrap();
        let (cold_topk, _) = engine
            .most_probable_sessions(&db, &clinton_over_trump(), 3, strategy)
            .unwrap();
        let misses = engine.cache_stats().marginal_misses;

        // Warm: both kinds are answered by the plan stage alone.
        let delivered = Mutex::new(Vec::new());
        let deliver = |qi: usize, answer: Result<WaveAnswer>| {
            delivered.lock().unwrap().push((qi, answer.unwrap()));
        };
        let mut wave = WavePlan::default();
        engine.plan_into(
            &mut wave,
            &db,
            &[clinton_over_trump()],
            &[],
            &|_| false,
            &deliver,
        );
        engine.plan_topk_into(
            &mut wave,
            &db,
            &clinton_over_trump(),
            3,
            strategy,
            0,
            &|_| false,
            &deliver,
        );
        assert_eq!(wave.unsolved_units(), 0);
        let delivered = delivered.into_inner().unwrap();
        assert_eq!(delivered.len(), 2, "nothing waits for an execute stage");
        match &delivered[0] {
            (0, WaveAnswer::Batch(answer)) => assert_eq!(
                answer.session_probabilities,
                cold_batch[0].session_probabilities
            ),
            other => panic!("unexpected first delivery: {other:?}"),
        }
        match &delivered[1] {
            (1, WaveAnswer::TopK(scores, _)) => assert_eq!(scores, &cold_topk),
            other => panic!("unexpected second delivery: {other:?}"),
        }
        assert_eq!(engine.cache_stats().marginal_misses, misses);
    }

    #[test]
    fn a_topk_walk_that_needs_a_solve_waits_for_the_execute_stage() {
        // Two edges per pattern, relaxed to one: the bounds' unions are not
        // the full unions. A `k = 1` walk caches every bound and only the
        // full unions it had to evaluate; `k = 8` over the same bounds must
        // evaluate them all.
        let db = wide_database(8);
        let query = clinton_over_trump().prefer(
            "Polls",
            vec![T::any(), T::any()],
            T::val("Clinton"),
            T::val("Rubio"),
        );
        let strategy = TopKStrategy::UpperBound {
            edges_per_pattern: 1,
        };
        let (alone, alone_stats) = Engine::new(EvalConfig::exact())
            .most_probable_sessions(&db, &query, 8, strategy)
            .unwrap();
        let engine = Engine::new(EvalConfig::exact());
        let (_, warm_stats) = engine
            .most_probable_sessions(&db, &query, 1, strategy)
            .unwrap();
        assert!(warm_stats.exact_evaluations < 8, "the walk skipped nothing");
        let before = engine.cache_stats();

        let delivered = Mutex::new(Vec::new());
        let deliver = |qi: usize, answer: Result<WaveAnswer>| {
            delivered.lock().unwrap().push((qi, answer.unwrap()));
        };
        let mut wave = WavePlan::default();
        engine.plan_topk_into(&mut wave, &db, &query, 8, strategy, 0, &|_| false, &deliver);
        // Every bound was a hit, so the walk started — and stopped at the
        // first full union it would have had to solve. The plan stage ran no
        // solver and says so.
        assert!(delivered.lock().unwrap().is_empty());
        assert_eq!(wave.unsolved_units(), 1);
        let planned = engine.cache_stats();
        assert_eq!(planned.marginal_misses, before.marginal_misses);
        assert_eq!(
            planned.marginal_hits,
            before.marginal_hits + 8 + warm_stats.exact_evaluations as u64,
            "eight bounds and the full unions the first walk left behind"
        );

        engine.execute_wave(wave, |_| false, deliver);
        let delivered = delivered.into_inner().unwrap();
        match &delivered[..] {
            [(0, WaveAnswer::TopK(scores, stats))] => {
                assert_eq!(scores, &alone);
                assert_eq!(stats.exact_evaluations, alone_stats.exact_evaluations);
                assert_eq!(stats.upper_bounds_computed, 8);
            }
            other => panic!("unexpected deliveries: {other:?}"),
        }
        let solved = engine.cache_stats().marginal_misses - before.marginal_misses;
        assert_eq!(
            solved as usize,
            alone_stats.exact_evaluations - warm_stats.exact_evaluations,
            "each full union the walk went on to is solved, and missed, once"
        );
    }

    #[test]
    fn a_topk_cancelled_after_its_first_stage_stops_walking() {
        // Cold engine, so the plan stage counts every miss of the first
        // stage: eight bounds and the batch query's eight units. The token
        // fires once the walk behind them has missed three times.
        let db = wide_database(8);
        let query = clinton_over_trump().prefer(
            "Polls",
            vec![T::any(), T::any()],
            T::val("Clinton"),
            T::val("Rubio"),
        );
        let strategy = TopKStrategy::UpperBound {
            edges_per_pattern: 1,
        };
        let uncancelled = Engine::new(EvalConfig::exact())
            .evaluate_batch(&db, &[sanders_over_rubio()])
            .unwrap();
        let engine = Arc::new(Engine::new(EvalConfig::exact().with_threads(2)));
        let delivered: Mutex<Vec<Option<Result<WaveAnswer>>>> = Mutex::new(vec![None, None]);
        let deliver = |qi: usize, answer: Result<WaveAnswer>| {
            let slot = &mut delivered.lock().unwrap()[qi];
            assert!(slot.is_none(), "each query is delivered exactly once");
            *slot = Some(answer);
        };
        let mut wave = WavePlan::default();
        engine.plan_topk_into(&mut wave, &db, &query, 8, strategy, 0, &|_| false, &deliver);
        engine.plan_into(
            &mut wave,
            &db,
            &[sanders_over_rubio()],
            &[],
            &|_| false,
            &deliver,
        );
        assert_eq!(engine.marginals.misses(), 16);
        let token = Arc::clone(&engine);
        engine.execute_wave(
            wave,
            move |qi| qi == 0 && token.marginals.misses() >= 19,
            deliver,
        );
        let delivered = delivered.into_inner().unwrap();
        assert!(matches!(delivered[0], Some(Err(PpdError::Cancelled))));
        assert_eq!(
            engine.marginals.misses(),
            19,
            "k = 8 walks all eight sessions unless the token stops it"
        );
        match &delivered[1] {
            Some(Ok(WaveAnswer::Batch(answer))) => {
                assert_eq!(
                    answer.session_probabilities,
                    uncancelled[0].session_probabilities
                );
                assert_eq!(answer.boolean.to_bits(), uncancelled[0].boolean.to_bits());
            }
            other => panic!("the batch query was not answered: {other:?}"),
        }
    }

    #[test]
    fn a_cold_topk_shares_the_wave_with_batch_queries() {
        // Naive top-k asks for exactly the units the Boolean query does:
        // planned into one wave, each is solved once, and the top-k's
        // answer equals a lone top-k's bit for bit.
        let db = wide_database(8);
        let (alone, alone_stats) = Engine::new(EvalConfig::exact())
            .most_probable_sessions(&db, &clinton_over_trump(), 3, TopKStrategy::Naive)
            .unwrap();
        let engine = Engine::new(EvalConfig::exact().with_threads(2));
        let delivered = Mutex::new(Vec::new());
        let deliver = |qi: usize, answer: Result<WaveAnswer>| {
            delivered.lock().unwrap().push((qi, answer.unwrap()));
        };
        let mut wave = WavePlan::default();
        engine.plan_into(
            &mut wave,
            &db,
            &[clinton_over_trump()],
            &[],
            &|_| false,
            &deliver,
        );
        engine.plan_topk_into(
            &mut wave,
            &db,
            &clinton_over_trump(),
            3,
            TopKStrategy::Naive,
            0,
            &|_| false,
            &deliver,
        );
        assert_eq!(wave.unsolved_units(), 8);
        engine.execute_wave(wave, |_| false, deliver);
        assert_eq!(engine.cache_stats().marginal_misses, 8);
        let delivered = delivered.into_inner().unwrap();
        assert_eq!(delivered.len(), 2);
        let topk = delivered
            .iter()
            .find_map(|(qi, answer)| match answer {
                WaveAnswer::TopK(scores, stats) if *qi == 1 => Some((scores, stats)),
                _ => None,
            })
            .expect("the top-k is delivered under its own index");
        assert_eq!(topk.0, &alone);
        assert_eq!(topk.1.exact_evaluations, alone_stats.exact_evaluations);
    }
}
