//! Request routing: the per-database tenant registry behind the front
//! door's single admission layer.
//!
//! Each registered database gets its own [`Engine`] — engines pin their
//! evaluation configuration and own content-addressed caches, and content
//! hashes from different databases must never share a marginal cache
//! keyspace conceptually (two tenants coincidentally producing the same
//! unit content *may* share bits safely, but isolation keeps per-tenant
//! cache capacity and stats meaningful). Routing is by database id at
//! submission time; an unknown id fails fast with
//! [`ServiceError::UnknownDatabase`](crate::ServiceError::UnknownDatabase)
//! before anything is queued.

use crate::request::ServiceError;
use ppd_core::{
    CacheStats, Engine, EngineObs, ErrorBudget, EvalConfig, PoolCache, PpdDatabase, PpdError,
    SolverChoice, Update,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

/// How many per-budget engines one tenant keeps alive at once. Requests
/// carrying distinct error budgets legitimately produce different answer
/// bits, so each distinct budget needs its own engine — but an unbounded
/// registry would let a scan over budgets pin unbounded cache memory. Past
/// this bound the least-recently-used engine is retired.
pub(crate) const MAX_BUDGET_ENGINES: usize = 8;

/// One lazily created error-budget engine plus its last-use tick, the LRU
/// retirement key.
struct BudgetSlot {
    engine: Arc<Engine>,
    last_used: u64,
}

/// One database and the engine dedicated to it.
pub(crate) struct Tenant {
    pub(crate) id: String,
    /// The live database. Written only by the dispatcher *between* waves
    /// (see `run_wave`), read for the duration of each wave group — so
    /// wave-mates always evaluate one fixed snapshot.
    pub(crate) db: RwLock<PpdDatabase>,
    pub(crate) engine: Engine,
    /// The tenant's base evaluation configuration, kept so per-request
    /// error-budget engines inherit everything except the solver choice.
    eval: EvalConfig,
    /// The tenant's engine instrument bundle: cloned into every engine this
    /// tenant spawns, so the base and all budget engines aggregate into one
    /// labelled set of cells. Purely observational.
    obs: EngineObs,
    /// The tenant's shared proposal-pool cache, handed to the base engine
    /// and every budget engine: pools are keyed by unit content and are
    /// budget independent, so a request arriving under a new error budget
    /// reuses the union decompositions and greedy-modal walks an earlier
    /// budget already paid for. Sharing never crosses tenants — different
    /// databases keep separate pool keyspaces like every other cache.
    pools: Arc<PoolCache>,
    /// Lazily created engines for requests that override the solver with an
    /// [`ErrorBudget`], keyed by `(epsilon.to_bits(), confidence.to_bits())`
    /// so bit-identical budgets share one engine (and its caches) while
    /// distinct budgets — which legitimately produce different answer bits —
    /// never share a marginal-cache keyspace with the base engine. Bounded
    /// to [`MAX_BUDGET_ENGINES`] with LRU retirement.
    budget_engines: Mutex<BTreeMap<(u64, u64), BudgetSlot>>,
    /// Monotonic use counter ordering budget-engine retirement. A logical
    /// clock rather than wall time: deterministic under test and immune to
    /// clock steps.
    use_tick: AtomicU64,
}

impl Tenant {
    /// The database version currently served.
    pub(crate) fn version(&self) -> u64 {
        self.read_db().version()
    }

    pub(crate) fn read_db(&self) -> RwLockReadGuard<'_, PpdDatabase> {
        self.db.read().expect("tenant database poisoned")
    }

    /// Applies one update to this tenant's database and surgically
    /// invalidates *every* engine serving it — the base engine and all live
    /// budget engines cache work units keyed by session content, so all of
    /// them must drop the units covering changed sessions. Returns the new
    /// version id and the total number of cached units invalidated. On a
    /// rejected update nothing changes anywhere.
    pub(crate) fn apply_update(&self, update: Update) -> Result<(u64, u64), PpdError> {
        let mut db = self.db.write().expect("tenant database poisoned");
        let (version, changed) = db.apply(update)?;
        let mut invalidated = self.engine.invalidate(&changed);
        let engines = self
            .budget_engines
            .lock()
            .expect("budget engine registry poisoned");
        for slot in engines.values() {
            invalidated += slot.engine.invalidate(&changed);
        }
        Ok((version, invalidated))
    }

    /// The engine that serves requests carrying `budget`: created on first
    /// sight of that exact `(ε, confidence)` pair, reused afterwards so its
    /// marginal cache warms up across requests. Creating one past the
    /// [`MAX_BUDGET_ENGINES`] bound retires the least recently used engine.
    pub(crate) fn budget_engine(&self, budget: ErrorBudget) -> Arc<Engine> {
        let key = (budget.epsilon.to_bits(), budget.confidence.to_bits());
        let tick = self.use_tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut engines = self
            .budget_engines
            .lock()
            .expect("budget engine registry poisoned");
        if let Some(slot) = engines.get_mut(&key) {
            slot.last_used = tick;
            return Arc::clone(&slot.engine);
        }
        if engines.len() >= MAX_BUDGET_ENGINES {
            let oldest = engines
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(&key, _)| key)
                .expect("non-empty registry has an LRU entry");
            engines.remove(&oldest);
        }
        let mut eval = self.eval.clone();
        eval.solver = SolverChoice::ErrorBudget(budget);
        let engine = Arc::new(Engine::with_pool_cache(
            eval,
            self.obs.clone(),
            Arc::clone(&self.pools),
        ));
        engines.insert(
            key,
            BudgetSlot {
                engine: Arc::clone(&engine),
                last_used: tick,
            },
        );
        engine
    }

    /// Cache counters summed over *all* of this tenant's engines: the base
    /// engine plus every budget engine currently alive. The proposal-pool
    /// counters are the exception — every engine reports the one
    /// [`PoolCache`] the tenant's engines share, so they count once.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        let base = self.engine.cache_stats();
        let mut total = base;
        let engines = self
            .budget_engines
            .lock()
            .expect("budget engine registry poisoned");
        for slot in engines.values() {
            total += slot.engine.cache_stats();
        }
        total.pools_built = base.pools_built;
        total.pool_hits = base.pool_hits;
        total
    }
}

/// The tenant registry: id → engine/database, fixed at service start.
///
/// The first registered tenant is the *default*: requests that name no
/// database route there, which is what keeps the single-database API
/// (`Service::new` + `Service::submit`) working unchanged on top of the
/// multi-tenant core.
pub(crate) struct Router {
    tenants: Vec<Tenant>,
    by_id: HashMap<String, usize>,
}

impl Router {
    /// Builds the registry, one fresh engine per database, all sharing one
    /// evaluation configuration (the determinism contract is per-config).
    /// `engine_obs` yields each tenant's instrument bundle by id. Duplicate
    /// ids keep the first registration.
    pub(crate) fn new(
        databases: Vec<(String, PpdDatabase)>,
        eval: &EvalConfig,
        engine_obs: impl Fn(&str) -> EngineObs,
    ) -> Self {
        let mut tenants: Vec<Tenant> = Vec::with_capacity(databases.len());
        let mut by_id = HashMap::new();
        for (id, db) in databases {
            if by_id.contains_key(&id) {
                continue;
            }
            by_id.insert(id.clone(), tenants.len());
            let obs = engine_obs(&id);
            let pools = Arc::new(PoolCache::default());
            tenants.push(Tenant {
                id,
                db: RwLock::new(db),
                engine: Engine::with_pool_cache(eval.clone(), obs.clone(), Arc::clone(&pools)),
                eval: eval.clone(),
                obs,
                pools,
                budget_engines: Mutex::new(BTreeMap::new()),
                use_tick: AtomicU64::new(0),
            });
        }
        assert!(!tenants.is_empty(), "a service needs at least one database");
        Router { tenants, by_id }
    }

    /// Resolves a request's database id to a tenant index; `None` routes to
    /// the default (first) tenant.
    pub(crate) fn route(&self, database: Option<&str>) -> Result<usize, ServiceError> {
        match database {
            None => Ok(0),
            Some(id) => self
                .by_id
                .get(id)
                .copied()
                .ok_or_else(|| ServiceError::UnknownDatabase(id.to_string())),
        }
    }

    pub(crate) fn tenant(&self, index: usize) -> &Tenant {
        &self.tenants[index]
    }

    pub(crate) fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppd_datagen::{polls_database, PollsConfig};

    fn db(seed: u64) -> PpdDatabase {
        polls_database(&PollsConfig {
            num_candidates: 4,
            num_voters: 3,
            seed,
        })
    }

    #[test]
    fn routes_by_id_with_a_default() {
        let router = Router::new(
            vec![("a".into(), db(1)), ("b".into(), db(2))],
            &EvalConfig::exact(),
            |_| EngineObs::disabled(),
        );
        assert_eq!(router.route(None).unwrap(), 0);
        assert_eq!(router.route(Some("a")).unwrap(), 0);
        assert_eq!(router.route(Some("b")).unwrap(), 1);
        assert!(matches!(
            router.route(Some("c")),
            Err(ServiceError::UnknownDatabase(id)) if id == "c"
        ));
        assert_eq!(router.tenants().len(), 2);
        assert_eq!(router.tenant(1).id, "b");
    }

    #[test]
    fn budget_engines_are_created_once_per_distinct_budget() {
        let router = Router::new(vec![("a".into(), db(1))], &EvalConfig::exact(), |_| {
            EngineObs::disabled()
        });
        let tenant = router.tenant(0);
        let budget = ErrorBudget {
            epsilon: 0.01,
            confidence: 0.95,
        };
        let first = tenant.budget_engine(budget);
        let again = tenant.budget_engine(budget);
        assert!(
            Arc::ptr_eq(&first, &again),
            "bit-identical budgets share one engine"
        );
        let other = tenant.budget_engine(ErrorBudget {
            epsilon: 0.05,
            confidence: 0.95,
        });
        assert!(!Arc::ptr_eq(&first, &other), "distinct budgets do not");
        assert_eq!(tenant.budget_engines.lock().unwrap().len(), 2);
    }

    #[test]
    fn budget_engines_share_one_proposal_pool_cache_per_tenant() {
        use ppd_datagen::polls_q1_query;
        // Zero threshold forces every unit onto the budgeted sampler so
        // each unique unit needs a proposal pool.
        let eval = EvalConfig::exact().with_exact_cost_threshold(0.0);
        let router = Router::new(vec![("a".into(), db(1))], &eval, |_| EngineObs::disabled());
        let tenant = router.tenant(0);
        let q = polls_q1_query();

        let loose = tenant.budget_engine(ErrorBudget {
            epsilon: 0.05,
            confidence: 0.9,
        });
        loose.session_probabilities(&tenant.read_db(), &q).unwrap();
        let built = loose.cache_stats().pools_built;
        assert!(built > 0, "budgeted units must build pools");

        // A second engine under a different budget re-estimates the same
        // units: its marginal cache is cold, but every proposal pool comes
        // from the tenant's shared cache — zero new decompositions.
        let tight = tenant.budget_engine(ErrorBudget {
            epsilon: 0.01,
            confidence: 0.9,
        });
        tight.session_probabilities(&tenant.read_db(), &q).unwrap();
        let stats = tight.cache_stats();
        assert_eq!(
            stats.pools_built, built,
            "a sibling budget engine must not rebuild pools"
        );
        assert_eq!(
            stats.pool_hits, built,
            "every budgeted unit must reuse the sibling's pool"
        );
        // Three engines report the one shared pool cache; the tenant's
        // total counts it once, while per-engine counters still add up.
        let total = tenant.cache_stats();
        assert_eq!((total.pools_built, total.pool_hits), (built, built));
        assert_eq!(
            total.marginal_misses,
            loose.cache_stats().marginal_misses + stats.marginal_misses
        );
    }

    #[test]
    fn budget_engines_retire_least_recently_used_past_the_bound() {
        let router = Router::new(vec![("a".into(), db(1))], &EvalConfig::exact(), |_| {
            EngineObs::disabled()
        });
        let tenant = router.tenant(0);
        let budget = |i: usize| ErrorBudget {
            epsilon: 0.01 + i as f64 * 0.001,
            confidence: 0.9,
        };
        let first = tenant.budget_engine(budget(0));
        let second = tenant.budget_engine(budget(1));
        for i in 2..MAX_BUDGET_ENGINES {
            tenant.budget_engine(budget(i));
        }
        // Touch the oldest so budget(1) becomes the LRU victim...
        assert!(Arc::ptr_eq(&first, &tenant.budget_engine(budget(0))));
        // ...then overflow the bound, retiring it.
        tenant.budget_engine(budget(MAX_BUDGET_ENGINES));
        assert_eq!(
            tenant.budget_engines.lock().unwrap().len(),
            MAX_BUDGET_ENGINES,
            "the registry must stay bounded"
        );
        assert!(
            Arc::ptr_eq(&first, &tenant.budget_engine(budget(0))),
            "recently used engines survive"
        );
        let second_after = tenant.budget_engine(budget(1));
        assert!(
            !Arc::ptr_eq(&second, &second_after),
            "the LRU victim was retired and is rebuilt on next use"
        );
    }

    #[test]
    fn tenant_updates_bump_the_version_and_invalidate_every_engine() {
        use ppd_core::{MallowsModel, Ranking, Session, Update, Value};
        let router = Router::new(vec![("a".into(), db(1))], &EvalConfig::exact(), |_| {
            EngineObs::disabled()
        });
        let tenant = router.tenant(0);
        assert_eq!(tenant.version(), 1);
        let relation = tenant.read_db().preference_relation_names()[0].to_string();
        let arity = tenant
            .read_db()
            .preference_relation(&relation)
            .unwrap()
            .session_columns()
            .len();
        let session = Session::new(
            (0..arity).map(|i| Value::from(format!("s{i}"))).collect(),
            MallowsModel::new(Ranking::new(vec![1, 0, 2, 3]).unwrap(), 0.4).unwrap(),
        );
        let (version, invalidated) = tenant
            .apply_update(Update::InsertSession {
                prelation: relation.clone(),
                session,
            })
            .unwrap();
        assert_eq!(version, 2);
        assert_eq!(invalidated, 0, "nothing was cached yet");
        assert_eq!(tenant.version(), 2);
        assert!(tenant
            .apply_update(Update::DeleteSession {
                prelation: relation,
                index: 99,
            })
            .is_err());
        assert_eq!(tenant.version(), 2, "rejected updates change nothing");
    }

    #[test]
    fn duplicate_ids_keep_the_first_registration() {
        let first = db(1);
        let router = Router::new(
            vec![("a".into(), first.clone()), ("a".into(), db(2))],
            &EvalConfig::exact(),
            |_| EngineObs::disabled(),
        );
        assert_eq!(router.tenants().len(), 1);
    }
}
