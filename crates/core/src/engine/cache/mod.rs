//! The engine's cache subsystem: solved marginals and prepared per-model
//! state.
//!
//! Both caches are engine-lifetime (not per-call, as the pre-engine
//! evaluator's grouping map was), so a long-lived [`Engine`] amortizes work
//! across every query it serves:
//!
//! * the [`MarginalCache`] maps a work unit's stable content hash (plus the
//!   solver family that produced the number) to its marginal probability, so
//!   repeated and overlapping queries skip inference entirely. It is split
//!   into three layers:
//!   - [`sharded`] — the concurrent front: the map is partitioned across N
//!     independently locked shards ([`EvalConfig::cache_shards`]) so that at
//!     high thread counts and tiny work units the cache lock is no longer
//!     the bottleneck a single `Mutex<HashMap>` was; lookups are counted
//!     by their callers and added once per planning call, so a warm lookup
//!     writes no shared counter;
//!   - [`eviction`] — each shard is a size-bounded LRU store
//!     ([`CacheCapacity`]: unbounded by default, or a bound in entries)
//!     with per-shard accounting and `O(1)` amortised recency; an
//!     unbounded shard keeps no recency state, so a hit there writes
//!     nothing beyond the shard's lock;
//!   - [`persist`] — opt-in snapshots of the `(content hash, fingerprint,
//!     f64 bits)` triples in a versioned, endian-stable binary format, so a
//!     warm cache survives process restarts bit-exactly
//!     ([`Engine::save_marginals`] / [`Engine::load_marginals`]);
//! * the [`ModelCache`] holds one [`PreparedModel`] per distinct Mallows
//!   model, so the `to_rim()` insertion-probability expansion is computed
//!   once per model instead of once per session.
//!
//! Eviction and persistence never change answers: every value is a pure
//! function of `(unit content, solver fingerprint, engine base seed)` under
//! the engine's bit-determinism contract, so re-solving an evicted unit
//! reproduces its bits and a persisted value is valid in any process.
//!
//! [`Engine`]: crate::engine::Engine
//! [`Engine::save_marginals`]: crate::engine::Engine::save_marginals
//! [`Engine::load_marginals`]: crate::engine::Engine::load_marginals
//! [`EvalConfig::cache_shards`]: crate::eval::EvalConfig::cache_shards

mod eviction;
#[cfg(test)]
mod lru_oracle;
pub(crate) mod persist;
mod sharded;

pub use eviction::CacheCapacity;
pub(crate) use sharded::MarginalCache;

use crate::engine::unit::PremixedState;
use crate::session::Session;
use ppd_rim::{MallowsModel, RimModel};
use ppd_solvers::ProposalPool;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Which solver algorithm produced a cached marginal. Numbers from
/// different algorithms for the same instance must not alias: approximate
/// estimates differ from exact answers outright, and even two exact solvers
/// (auto-selected DP vs. inclusion–exclusion) differ in low-order float
/// bits — serving one for the other would break the engine's bit-identity
/// contract (e.g. the top-k optimizer's auto-exact upper bounds landing in
/// the cache of a `GeneralExact` engine whose relaxed unions equal the full
/// ones).
///
/// The fingerprint is part of the persisted snapshot format (see
/// [`persist`]), so variants must keep a stable on-disk encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum SolverFingerprint {
    /// The auto-selected exact solver. Deterministic per unit content: the
    /// selection depends only on the union's class.
    ExactAuto,
    /// The inclusion–exclusion general solver.
    GeneralExact,
    /// The approximate solver with the given sampling budget, under the
    /// given engine base seed. The seed is part of the fingerprint because
    /// approximate estimates are a function of `(unit content, budget,
    /// base seed)`: within one engine the seed is constant, but a persisted
    /// snapshot may be loaded by an engine configured with a different
    /// seed, and serving the other seed's bits would silently change that
    /// engine's answers. Exact marginals are seed-independent, so the
    /// exact variants carry no seed and remain valid across engines.
    Approx {
        /// Samples per proposal distribution.
        samples_per_proposal: usize,
        /// The engine's [`EvalConfig::seed`](crate::eval::EvalConfig::seed).
        base_seed: u64,
    },
    /// The error-budgeted estimator (with exact fallback) under the given
    /// `(ε, confidence)` target and engine base seed. The budget parameters
    /// are stored as `f64::to_bits` so the fingerprint stays `Eq + Hash +
    /// Ord`; two budgets whose floats differ in any bit are different
    /// estimators. The seed matters for the same reason as in
    /// [`SolverFingerprint::Approx`] — and also decides *whether the exact
    /// fallback ran*, which is a pure function of `(content, budget, seed)`.
    ErrorBudget {
        /// `ε.to_bits()` of the target halfwidth.
        epsilon_bits: u64,
        /// `confidence.to_bits()` of the target coverage.
        confidence_bits: u64,
        /// The engine's [`EvalConfig::seed`](crate::eval::EvalConfig::seed).
        base_seed: u64,
    },
}

/// A Mallows model with lazily prepared derived state, shared by every work
/// unit over that model.
#[derive(Debug)]
pub struct PreparedModel {
    mallows: MallowsModel,
    rim: OnceLock<RimModel>,
}

impl PreparedModel {
    /// Wraps a model; derived state is built on first use.
    pub fn new(mallows: MallowsModel) -> Self {
        PreparedModel {
            mallows,
            rim: OnceLock::new(),
        }
    }

    /// The Mallows parameters (what approximate solvers consume).
    pub fn mallows(&self) -> &MallowsModel {
        &self.mallows
    }

    /// The RIM insertion-probability form (what exact solvers consume),
    /// built once per model and reused by every unit and query thereafter.
    pub fn rim(&self) -> &RimModel {
        self.rim.get_or_init(|| self.mallows.to_rim())
    }
}

/// Snapshot of an engine's cache activity (used by tests and benches, and
/// handy when sizing a deployment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Work units answered straight from the marginal cache.
    pub marginal_hits: u64,
    /// Work units that had to be solved.
    pub marginal_misses: u64,
    /// Cached marginal entries dropped by the LRU eviction policy to stay
    /// within [`CacheCapacity`]. Zero under the default unbounded capacity.
    pub marginal_evictions: u64,
    /// Estimated heap bytes freed by those evictions (slot overhead +
    /// per-entry payload), so eviction pressure is visible in bytes under
    /// an entry-count bound.
    pub marginal_evicted_bytes: u64,
    /// Marginal entries **read** from disk snapshots via
    /// [`Engine::load_marginals`](crate::engine::Engine::load_marginals).
    /// Keep-first conflicts with entries already in memory and capacity
    /// eviction during the load can leave fewer entries resident; compare
    /// [`Engine::cached_marginals`](crate::engine::Engine::cached_marginals)
    /// for what actually stuck.
    pub marginals_loaded: u64,
    /// Marginal entries written to disk snapshots via
    /// [`Engine::save_marginals`](crate::engine::Engine::save_marginals).
    pub marginals_saved: u64,
    /// Distinct models for which prepared state was built.
    pub models_prepared: u64,
    /// Cached marginal entries dropped by surgical invalidation after a
    /// database update ([`Engine::invalidate`]): exactly the entries whose
    /// unit covered a changed session's model, never the rest of the cache.
    ///
    /// [`Engine::invalidate`]: crate::engine::Engine::invalidate
    pub units_invalidated: u64,
    /// Bytes of live (most-recent, non-tombstoned) records across the
    /// cache's persisted segment files after the last save.
    pub segment_live_bytes: u64,
    /// Bytes of dead records (superseded or tombstoned) across the
    /// persisted segment files after the last save; the compaction trigger
    /// watches the dead/total ratio.
    pub segment_dead_bytes: u64,
    /// Segment compactions run (dead records rewritten away because the
    /// dead-bytes ratio crossed the threshold).
    pub compactions: u64,
    /// Proposal pools built for the error-budget sampling path (one union
    /// decomposition + greedy-modal walk each).
    pub pools_built: u64,
    /// Error-budget solves that reused a previously built proposal pool,
    /// skipping the decomposition and modal walk entirely.
    pub pool_hits: u64,
}

/// Counter-wise sum, for totals over several engines. The right-hand side
/// is destructured exhaustively: a counter added to [`CacheStats`] does not
/// compile until it is summed here.
impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, other: CacheStats) {
        let CacheStats {
            marginal_hits,
            marginal_misses,
            marginal_evictions,
            marginal_evicted_bytes,
            marginals_loaded,
            marginals_saved,
            models_prepared,
            units_invalidated,
            segment_live_bytes,
            segment_dead_bytes,
            compactions,
            pools_built,
            pool_hits,
        } = other;
        self.marginal_hits += marginal_hits;
        self.marginal_misses += marginal_misses;
        self.marginal_evictions += marginal_evictions;
        self.marginal_evicted_bytes += marginal_evicted_bytes;
        self.marginals_loaded += marginals_loaded;
        self.marginals_saved += marginals_saved;
        self.models_prepared += models_prepared;
        self.units_invalidated += units_invalidated;
        self.segment_live_bytes += segment_live_bytes;
        self.segment_dead_bytes += segment_dead_bytes;
        self.compactions += compactions;
        self.pools_built += pools_built;
        self.pool_hits += pool_hits;
    }
}

impl CacheStats {
    /// Fraction of marginal lookups served from the cache: `hits / (hits +
    /// misses)`, or `0.0` before any lookup happened.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.marginal_hits + self.marginal_misses;
        if lookups == 0 {
            0.0
        } else {
            self.marginal_hits as f64 / lookups as f64
        }
    }
}

/// One-line summary for service logs and bench harnesses, e.g.
/// `marginals 120 hit / 30 solved (80.0% hit rate), 0 evicted, 0 loaded, 0
/// saved; 12 models prepared`.
impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "marginals {} hit / {} solved ({:.1}% hit rate), {} evicted ({}B), {} loaded, \
             {} saved; {} models prepared; {} invalidated; \
             segments {}B live / {}B dead, {} compactions; \
             pools {} built / {} reused",
            self.marginal_hits,
            self.marginal_misses,
            self.hit_rate() * 100.0,
            self.marginal_evictions,
            self.marginal_evicted_bytes,
            self.marginals_loaded,
            self.marginals_saved,
            self.models_prepared,
            self.units_invalidated,
            self.segment_live_bytes,
            self.segment_dead_bytes,
            self.compactions,
            self.pools_built,
            self.pool_hits
        )
    }
}

/// A cache of prepared [`ProposalPool`]s for the error-budget sampling
/// path, keyed like the marginal cache by the work unit's stable content
/// hash. The pool — the union decomposition plus the greedy-modal walk —
/// is the expensive, ε- and seed-independent part of preparing the budgeted
/// estimator, so re-estimating a unit under a different budget (a query
/// asking for another ε, or the same ε after invalidation of the marginal
/// entry alone) skips it entirely.
///
/// [`ProposalPool::build`] fixes the pool's shape itself, so the content
/// hash is the whole key. A model or union change addresses a different
/// entry outright (stale pools can waste memory, never serve wrong
/// proposals), and pool preparation draws no randomness, so a warm pool
/// yields bit-identical answers to a cold build — a contract
/// `warm_pool_reruns_are_bit_identical_to_cold_runs` pins at the solver
/// layer and `tests/engine_cache.rs` pins end to end.
#[derive(Debug, Default)]
pub(crate) struct PoolCache {
    map: Mutex<HashMap<u64, Arc<Mutex<ProposalPool>>>>,
    built: AtomicU64,
    hits: AtomicU64,
}

impl PoolCache {
    /// Returns the pool for the given unit content hash, building it via
    /// `build` on first sight. The build runs outside the map lock (pools
    /// are expensive; a global lock would serialize the wave's workers), so
    /// two threads racing on one hash may both build — the first insert
    /// wins, and both builds are counted.
    pub(crate) fn get_or_build<E>(
        &self,
        hash: u64,
        build: impl FnOnce() -> Result<ProposalPool, E>,
    ) -> Result<Arc<Mutex<ProposalPool>>, E> {
        if let Some(pool) = self.map.lock().expect("pool cache poisoned").get(&hash) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(pool));
        }
        let pool = Arc::new(Mutex::new(build()?));
        self.built.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.lock().expect("pool cache poisoned");
        Ok(Arc::clone(map.entry(hash).or_insert(pool)))
    }

    /// Pools built since construction.
    pub(crate) fn built(&self) -> u64 {
        self.built.load(Ordering::Relaxed)
    }

    /// Lookups served from an already-built pool.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Drops the pools of the given unit content hashes (invalidation
    /// hygiene — content addressing already prevents stale reuse, this
    /// frees the memory).
    pub(crate) fn remove_hashes(&self, hashes: &std::collections::HashSet<u64>) {
        self.map
            .lock()
            .expect("pool cache poisoned")
            .retain(|hash, _| !hashes.contains(hash));
    }
}

/// Engine-lifetime map from model content to shared prepared state, keyed
/// by [`Session::model_key_hash`], which each session holds already folded.
/// A hit compares the model itself (σ and φ), so two models whose hashes
/// collide never share prepared state.
#[derive(Debug, Default)]
pub(crate) struct ModelCache {
    map: Mutex<HashMap<u64, Arc<PreparedModel>, PremixedState>>,
}

impl ModelCache {
    /// Returns the prepared state for the session's model, creating it on
    /// first sight of the model content. A model whose hash another cached
    /// model holds is prepared for this caller and not cached.
    pub(crate) fn get_or_insert(&self, session: &Session) -> Arc<PreparedModel> {
        let model = session.model();
        let mut map = self.map.lock().expect("model cache poisoned");
        match map.entry(session.model_key_hash()) {
            Entry::Occupied(entry) => {
                let cached = entry.get().mallows();
                if cached.sigma().items() == model.sigma().items()
                    && cached.phi().to_bits() == model.phi().to_bits()
                {
                    Arc::clone(entry.get())
                } else {
                    drop(map);
                    Arc::new(PreparedModel::new(model.clone()))
                }
            }
            Entry::Vacant(entry) => {
                Arc::clone(entry.insert(Arc::new(PreparedModel::new(model.clone()))))
            }
        }
    }

    /// Drops the prepared state of every model whose
    /// [`Session::model_key_hash`] is in `hashes`, returning the number of
    /// models dropped. Serves invalidation after a database update;
    /// untouched models stay warm.
    pub(crate) fn remove_hashes(&self, hashes: &std::collections::HashSet<u64>) -> u64 {
        let mut map = self.map.lock().expect("model cache poisoned");
        hashes
            .iter()
            .filter(|hash| map.remove(hash).is_some())
            .count() as u64
    }

    pub(crate) fn len(&self) -> usize {
        self.map.lock().expect("model cache poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use ppd_rim::{MallowsModel, Ranking};

    fn session(phi: f64) -> Session {
        Session::new(
            vec![Value::from("s")],
            MallowsModel::new(Ranking::identity(3), phi).unwrap(),
        )
    }

    #[test]
    fn prepared_rim_is_built_once_and_correct() {
        let model = MallowsModel::new(Ranking::identity(4), 0.4).unwrap();
        let prepared = PreparedModel::new(model.clone());
        let direct = model.to_rim();
        let a = prepared.rim() as *const RimModel;
        let b = prepared.rim() as *const RimModel;
        assert_eq!(a, b, "rim must be built once and shared");
        assert_eq!(prepared.rim().pi(), direct.pi());
    }

    #[test]
    fn model_cache_shares_by_content() {
        let cache = ModelCache::default();
        let a = cache.get_or_insert(&session(0.4));
        let b = cache.get_or_insert(&session(0.4));
        let c = cache.get_or_insert(&session(0.7));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn model_cache_removal_is_surgical_by_model_hash() {
        let cache = ModelCache::default();
        let kept = session(0.4);
        let dropped = session(0.7);
        let kept_arc = cache.get_or_insert(&kept);
        cache.get_or_insert(&dropped);
        let doomed: std::collections::HashSet<u64> = [dropped.model_key_hash(), 0xdead_beef]
            .into_iter()
            .collect();
        assert_eq!(cache.remove_hashes(&doomed), 1, "unknown hashes are no-ops");
        assert_eq!(cache.len(), 1);
        assert!(
            Arc::ptr_eq(&kept_arc, &cache.get_or_insert(&kept)),
            "the surviving model must stay warm, not be rebuilt"
        );
    }

    #[test]
    fn a_model_hash_collision_is_prepared_uncached_not_shared() {
        // Forge the collision: file one model's prepared state under the
        // other's hash. A hit compares the model, so the second session
        // gets its own model, and the entry stays with the first.
        let cache = ModelCache::default();
        let (holder, colliding) = (session(0.4), session(0.7));
        let forged = Arc::new(PreparedModel::new(holder.model().clone()));
        cache
            .map
            .lock()
            .unwrap()
            .insert(colliding.model_key_hash(), Arc::clone(&forged));
        let got = cache.get_or_insert(&colliding);
        assert!(!Arc::ptr_eq(&got, &forged));
        assert_eq!(got.mallows().phi().to_bits(), 0.7f64.to_bits());
        assert_eq!(got.mallows().sigma(), colliding.model().sigma());
        assert_eq!(cache.len(), 1);
        assert!(Arc::ptr_eq(
            &cache.map.lock().unwrap()[&colliding.model_key_hash()],
            &forged
        ));
    }

    #[test]
    fn cache_stats_hit_rate_and_display() {
        let empty = CacheStats::default();
        assert_eq!(empty.hit_rate(), 0.0);
        let stats = CacheStats {
            marginal_hits: 3,
            marginal_misses: 1,
            models_prepared: 2,
            ..CacheStats::default()
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        let line = stats.to_string();
        assert!(line.contains("3 hit"), "{line}");
        assert!(line.contains("75.0% hit rate"), "{line}");
        assert!(line.contains("2 models prepared"), "{line}");
        assert!(!line.contains('\n'), "one line, not a dump: {line}");
    }

    #[test]
    fn pool_cache_counts_builds_and_reuses_by_content_hash() {
        use ppd_patterns::{Labeling, NodeSelector, Pattern, PatternUnion};
        let model = MallowsModel::new(Ranking::identity(4), 0.4).unwrap();
        let mut lab = Labeling::new();
        for i in 0..4u32 {
            lab.add(i, i % 2);
        }
        let union = PatternUnion::singleton(Pattern::two_label(
            NodeSelector::single(1),
            NodeSelector::single(0),
        ))
        .unwrap();
        let cache = PoolCache::default();
        let a = cache
            .get_or_build(7, || ProposalPool::build(&model, &lab, &union))
            .unwrap();
        assert_eq!((cache.built(), cache.hits()), (1, 0));
        let b = cache
            .get_or_build(7, || -> Result<ProposalPool, ppd_solvers::SolverError> {
                panic!("a warm hash must not rebuild its pool")
            })
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.built(), cache.hits()), (1, 1));
        cache.remove_hashes(&[7u64].into_iter().collect());
        cache
            .get_or_build(7, || ProposalPool::build(&model, &lab, &union))
            .unwrap();
        assert_eq!((cache.built(), cache.hits()), (2, 1));
    }

    #[test]
    fn solver_fingerprints_do_not_alias() {
        use crate::engine::unit::UnitKey;
        use ppd_patterns::{Labeling, NodeSelector, Pattern, PatternUnion};
        let mut lab = Labeling::new();
        for i in 0..3u32 {
            lab.add(i, i);
        }
        let union = PatternUnion::singleton(Pattern::two_label(
            NodeSelector::single(0),
            NodeSelector::single(1),
        ))
        .unwrap();
        let (key, _) = UnitKey::new(&session(0.4), &union, &lab);
        let hash = key.stable_hash();
        let cache = MarginalCache::unbounded();
        cache.insert(hash, SolverFingerprint::ExactAuto, 0.25);
        assert_eq!(cache.get(hash, SolverFingerprint::ExactAuto), Some(0.25));
        // Neither a different exact algorithm nor an approximate budget may
        // be served from the auto-exact entry.
        assert_eq!(cache.get(hash, SolverFingerprint::GeneralExact), None);
        assert_eq!(
            cache.get(
                hash,
                SolverFingerprint::Approx {
                    samples_per_proposal: 100,
                    base_seed: 42,
                }
            ),
            None
        );
        // The same budget under a different engine seed is a different
        // estimate and must not alias either.
        cache.insert(
            hash,
            SolverFingerprint::Approx {
                samples_per_proposal: 100,
                base_seed: 42,
            },
            0.5,
        );
        assert_eq!(
            cache.get(
                hash,
                SolverFingerprint::Approx {
                    samples_per_proposal: 100,
                    base_seed: 7,
                }
            ),
            None
        );
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 3);
        cache.insert(hash, SolverFingerprint::GeneralExact, 0.26);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(hash, SolverFingerprint::ExactAuto), Some(0.25));
        assert_eq!(cache.get(hash, SolverFingerprint::GeneralExact), Some(0.26));
    }
}
