//! Request routing: the per-database tenant registry behind the front
//! door's single admission layer.
//!
//! Each registered database gets exactly one [`Engine`], which serves every
//! request routed to it, whatever error budget the request carries: the
//! budget is a planning input of the query, and the solver fingerprint in
//! every cache key keeps budgets apart. Engines pin their evaluation
//! configuration and own content-addressed caches, and content hashes from
//! different databases must never share a marginal cache keyspace
//! conceptually (two tenants coincidentally producing the same unit content
//! *may* share bits safely, but isolation keeps per-tenant cache capacity
//! and stats meaningful). Routing is by database id at submission time; an
//! unknown id fails fast with
//! [`ServiceError::UnknownDatabase`](crate::ServiceError::UnknownDatabase)
//! before anything is queued.

use crate::request::ServiceError;
use ppd_core::{Engine, EngineObs, EvalConfig, PpdDatabase, PpdError, Update};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{RwLock, RwLockReadGuard};

/// One database and the engine dedicated to it.
pub(crate) struct Tenant {
    pub(crate) id: String,
    /// The live database. Written only by the dispatcher *between* waves
    /// (see `run_wave`), read for the duration of each wave group — so
    /// wave-mates always evaluate one fixed snapshot — and by a query
    /// answered at admission for the duration of its plan.
    pub(crate) db: RwLock<PpdDatabase>,
    pub(crate) engine: Engine,
    /// Updates admitted and not yet settled (applied, rejected or
    /// cancelled). While any is pending, no query is answered at admission:
    /// a query admitted after an update must read what it wrote.
    pending_updates: AtomicUsize,
}

impl Tenant {
    /// The database version currently served.
    pub(crate) fn version(&self) -> u64 {
        self.read_db().version()
    }

    pub(crate) fn read_db(&self) -> RwLockReadGuard<'_, PpdDatabase> {
        self.db.read().expect("tenant database poisoned")
    }

    /// An update is about to enter the admission queue.
    pub(crate) fn update_admitted(&self) {
        self.pending_updates.fetch_add(1, Ordering::AcqRel);
    }

    /// An update left the service's hands: applied, rejected, cancelled,
    /// or refused at admission. Called after any write to the database and
    /// before its receipt is delivered, so a query submitted once the
    /// receipt is in reads the update's snapshot.
    pub(crate) fn update_settled(&self) {
        self.pending_updates.fetch_sub(1, Ordering::AcqRel);
    }

    /// Whether an admitted update has not settled yet.
    pub(crate) fn updates_pending(&self) -> bool {
        self.pending_updates.load(Ordering::Acquire) > 0
    }

    /// Applies one update to this tenant's database and surgically
    /// invalidates the engine's cached units covering changed sessions.
    /// Returns the new version id and the number of cached units
    /// invalidated. On a rejected update nothing changes anywhere.
    pub(crate) fn apply_update(&self, update: Update) -> Result<(u64, u64), PpdError> {
        let mut db = self.db.write().expect("tenant database poisoned");
        self.engine.apply_update(&mut db, update)
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
            let engine = Engine::with_obs(eval.clone(), engine_obs(&id));
            tenants.push(Tenant {
                id,
                db: RwLock::new(db),
                engine,
                pending_updates: AtomicUsize::new(0),
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
