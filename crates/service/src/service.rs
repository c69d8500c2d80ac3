//! The service proper: admission (with warm hits answered on the
//! submitting thread), routing, the dispatcher thread, wave execution with
//! class priority and cancellation, between-wave database updates, and
//! graceful shutdown.

use crate::admission::{AdmissionQueue, AdmitError, Popped};
use crate::config::ServiceConfig;
use crate::deadline::CancelToken;
use crate::obs::ServiceObs;
use crate::request::{
    AdmissionClass, Answer, Delivery, Outcome, Request, ServiceError, SubmitOptions, Ticket,
};
use crate::router::{Router, Tenant};
use crate::stats::ServiceStats;
use ppd_core::{
    CacheStats, ConjunctiveQuery, Engine, ErrorBudget, PpdDatabase, PpdError, Update, WaveAnswer,
    WavePlan,
};
use ppd_obs::SpanRecord;
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc, Mutex, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Database id [`Service::new`] registers its single database under.
pub const DEFAULT_DATABASE: &str = "default";

/// Where a job's outcome goes: a ticket's one-shot channel, or a callback
/// (the wire server's per-connection writer). Either is invoked on the
/// submitting thread for a query answered at admission.
pub(crate) enum ReplySink {
    Channel(mpsc::Sender<Outcome>),
    Callback(Box<dyn FnOnce(Outcome) + Send>),
}

impl ReplySink {
    fn send(self, outcome: Outcome) {
        match self {
            // A client that dropped its ticket just discards the answer.
            ReplySink::Channel(tx) => drop(tx.send(outcome)),
            ReplySink::Callback(callback) => callback(outcome),
        }
    }
}

/// What one admitted job asks for: a query evaluated against a wave's
/// snapshot, or a database update applied *between* waves.
#[derive(Debug)]
pub(crate) enum Work {
    Query(Request),
    Update(Update),
}

/// One admitted job on its way to a wave.
struct Job {
    tenant: usize,
    work: Work,
    class: AdmissionClass,
    budget: Option<ErrorBudget>,
    submitted: Instant,
    cancel: CancelToken,
    /// The submission's trace id — observability only, never read back
    /// into routing, grouping, or evaluation.
    trace: u64,
    reply: ReplySink,
}

impl Job {
    fn request(&self) -> &Request {
        match &self.work {
            Work::Query(request) => request,
            Work::Update(_) => unreachable!("updates never reach a query group"),
        }
    }
}

/// Everything the dispatcher thread and the client-facing handle share.
struct Inner {
    config: ServiceConfig,
    router: Router,
    queue: AdmissionQueue<Job>,
    obs: ServiceObs,
}

/// The multi-tenant query front door: per-database engines behind a single
/// two-lane admission layer.
///
/// Clients on any thread [`submit`](Service::submit) queries — optionally
/// routed by database id, classed `Interactive` or `Batch`, and bounded by
/// a deadline via [`submit_with`](Service::submit_with) — and block on (or
/// poll) the returned [`Ticket`]s. A query is first planned on the
/// submitting thread, under its tenant's read guard: if the marginal cache
/// answers it whole, the ticket is resolved before `submit` returns and
/// the query never enters the admission queue (so `max_queue` never sheds
/// it). Everything else — a miss, a top-k walk that reaches an uncached
/// session, a grounding error, an expired deadline, any query while an
/// update to its database is pending, and every update — is queued. A
/// dispatcher thread coalesces the admission queue into waves (interactive
/// first), runs each tenant's sub-batch on that tenant's engine, and
/// streams each query's answer back as its work units complete. See the
/// [crate documentation](crate) for the architecture and the determinism
/// contract.
///
/// Databases are *live*: [`submit_update`](Service::submit_update) admits a
/// mutation through the same queue, and the dispatcher applies it at the
/// start of the next wave — before any of that wave's queries run — so
/// every query in a wave observes one fixed snapshot. Each [`Ticket`]
/// carries the version current at admission
/// ([`read_version`](Ticket::read_version)) and reports the version its
/// answer was computed against
/// ([`wait_versioned`](Ticket::wait_versioned)).
///
/// The service is `Sync`: share it by reference (e.g. across scoped
/// threads) or behind an `Arc`. Dropping it shuts it down gracefully —
/// every admitted query is answered first.
pub struct Service {
    inner: Arc<Inner>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Service {
    /// Builds a single-database service (registered under
    /// [`DEFAULT_DATABASE`]) and starts the dispatcher thread.
    pub fn new(db: PpdDatabase, config: ServiceConfig) -> Self {
        Service::with_databases(vec![(DEFAULT_DATABASE.to_string(), db)], config)
    }

    /// Builds a multi-tenant service: one engine per database, all behind
    /// one admission layer. The first database is the default route for
    /// requests that name none. Panics on an empty registry.
    pub fn with_databases(databases: Vec<(String, PpdDatabase)>, config: ServiceConfig) -> Self {
        // Tenant ids in registration order, first occurrence wins — the
        // same dedup the router applies, so per-tenant instruments line up
        // with tenant indices.
        let mut ids: Vec<&str> = Vec::with_capacity(databases.len());
        for (id, _) in &databases {
            if !ids.contains(&id.as_str()) {
                ids.push(id);
            }
        }
        let obs = ServiceObs::new(&config.obs, &ids);
        let router = Router::new(databases, &config.eval, |id| obs.engine_obs(id));
        let inner = Arc::new(Inner {
            router,
            queue: AdmissionQueue::new(config.max_queue, config.max_queue_batch),
            obs,
            config,
        });
        let dispatcher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("ppd-service-dispatcher".into())
                .spawn(move || dispatch_loop(&inner))
                .expect("spawn service dispatcher")
        };
        Service {
            inner,
            dispatcher: Some(dispatcher),
        }
    }

    /// Submits an interactive query against the default database with no
    /// deadline. On admission, returns a [`Ticket`] that resolves when the
    /// query's own work units finish; under overload or shutdown, fails
    /// fast instead of queueing unbounded work.
    pub fn submit(&self, request: Request) -> Result<Ticket, ServiceError> {
        self.submit_with(request, SubmitOptions::default())
    }

    /// [`Service::submit`] with explicit routing, admission class, and
    /// deadline. An unknown database id fails before anything is queued;
    /// a request whose deadline passes before its answer is assembled
    /// resolves [`ServiceError::DeadlineExceeded`] and releases its claim
    /// on any work units only it needed.
    pub fn submit_with(
        &self,
        request: Request,
        options: SubmitOptions,
    ) -> Result<Ticket, ServiceError> {
        let (reply, receiver) = mpsc::channel();
        let query_name = request.query().name().to_string();
        let (cancel, read_version, trace) = self.enqueue(
            Work::Query(request),
            options,
            ReplySink::Channel(reply),
            |_| {},
        )?;
        Ok(Ticket::new(
            query_name,
            receiver,
            cancel,
            read_version,
            trace,
        ))
    }

    /// Submits a database update against the default database. The update
    /// rides the same admission queue as queries (interactive class) but is
    /// applied *between* waves: at the start of the next wave, before any of
    /// that wave's queries run. The ticket resolves
    /// [`Answer::Updated`] with the new version id and the number of cached
    /// work units surgically invalidated; a rejected update (unknown
    /// relation, bad index, arity mismatch) resolves
    /// [`ServiceError::Eval`] and changes nothing.
    pub fn submit_update(&self, update: Update) -> Result<Ticket, ServiceError> {
        self.submit_update_with(update, SubmitOptions::default())
    }

    /// [`Service::submit_update`] with explicit routing, admission class,
    /// and deadline. The `error_budget` option is ignored — updates mutate
    /// the database, they do not evaluate anything.
    pub fn submit_update_with(
        &self,
        update: Update,
        options: SubmitOptions,
    ) -> Result<Ticket, ServiceError> {
        let (reply, receiver) = mpsc::channel();
        let (cancel, read_version, trace) = self.enqueue(
            Work::Update(update),
            options,
            ReplySink::Channel(reply),
            |_| {},
        )?;
        Ok(Ticket::new(
            "update".into(),
            receiver,
            cancel,
            read_version,
            trace,
        ))
    }

    /// Callback-style submission, used by the wire server: `callback` is
    /// invoked exactly once with the outcome — on this thread, before this
    /// returns, for a query answered at admission; otherwise from a
    /// dispatcher or engine worker thread. It must hand off quickly and
    /// must not call back into this service. `on_queued` runs only for a
    /// job that enters the admission queue, with its cancel token, before
    /// the dispatcher can see the job (so before `callback` can run).
    pub(crate) fn submit_callback(
        &self,
        work: Work,
        options: SubmitOptions,
        callback: Box<dyn FnOnce(Outcome) + Send>,
        on_queued: impl FnOnce(&CancelToken),
    ) -> Result<(), ServiceError> {
        self.enqueue(work, options, ReplySink::Callback(callback), on_queued)
            .map(drop)
    }

    /// Routes one job and answers it at admission if the cache holds its
    /// answer whole, or enqueues it. Returns its cancel token, the routed
    /// database's version at admission time, and its trace id.
    fn enqueue(
        &self,
        work: Work,
        options: SubmitOptions,
        reply: ReplySink,
        on_queued: impl FnOnce(&CancelToken),
    ) -> Result<(CancelToken, u64, u64), ServiceError> {
        let index = self.inner.router.route(options.database.as_deref())?;
        let tenant = self.inner.router.tenant(index);
        let cancel = CancelToken::new(options.deadline.map(|d| Instant::now() + d));
        // Budgets steer solver choice; updates evaluate nothing.
        let budget = match work {
            Work::Query(_) => options.error_budget,
            Work::Update(_) => None,
        };
        let trace = self.inner.obs.trace().assign();
        let job = Job {
            tenant: index,
            work,
            class: options.class,
            budget,
            submitted: Instant::now(),
            cancel: cancel.clone(),
            trace,
            reply,
        };
        let obs = &self.inner.obs;
        if let Some((answer, version)) = self.answer_at_admission(&job) {
            obs.answered_at_admission(trace, &tenant.id, options.class);
            finish(&self.inner, job, Ok(answer), version);
            return Ok((cancel, version, trace));
        }
        let is_update = matches!(job.work, Work::Update(_));
        if is_update {
            tenant.update_admitted();
        }
        let read_version = tenant.version();
        // The admission is recorded from inside the push, *before* the job
        // is visible: the dispatcher can pop it (recording `wave-joined`) and
        // deliver it before this thread resumes, and a traced timeline must
        // still start at `admitted`.
        let admitted = self.inner.queue.push(options.class, job, |depth| {
            obs.admitted(trace, &tenant.id, options.class, depth);
            on_queued(&cancel);
        });
        let error = match admitted {
            Ok(()) => return Ok((cancel, read_version, trace)),
            Err(AdmitError::Overloaded { depth }) => ServiceError::Overloaded { depth },
            Err(AdmitError::ShuttingDown) => ServiceError::ShuttingDown,
        };
        if is_update {
            tenant.update_settled();
        }
        obs.rejected(trace, options.class, &error);
        Err(error)
    }

    /// The answer to a query job the marginal cache holds whole, planned on
    /// the calling thread under its tenant's read guard, with the version it
    /// was computed against. `None` — the job queues — for an update, for
    /// any query while an update to its tenant is pending (a query admitted
    /// after an update reads what it wrote), for a cancelled job, after
    /// shutdown has begun, and whenever [`Engine::answer_cached`] finds
    /// something to solve or an error to report. The guard is released
    /// before the caller delivers, so a slow reader never holds up an
    /// update.
    fn answer_at_admission(&self, job: &Job) -> Option<(Answer, u64)> {
        let Work::Query(request) = &job.work else {
            return None;
        };
        let tenant = self.inner.router.tenant(job.tenant);
        if tenant.updates_pending()
            || job.cancel.is_cancelled()
            || self.inner.queue.is_shutting_down()
        {
            return None;
        }
        let topk = match request {
            Request::TopK { k, strategy, .. } => Some((*k, *strategy)),
            _ => None,
        };
        let db = tenant.read_db();
        let answer = (tenant.engine).answer_cached(&db, request.query(), topk, job.budget)?;
        Some((project(request, answer), db.version()))
    }

    /// Snapshot of the service's activity — read from the instruments the
    /// [`metrics_text`](Service::metrics_text) exposition renders, which
    /// count with metrics off too — including the engines' cache counters
    /// summed across tenants.
    pub fn stats(&self) -> ServiceStats {
        let depths = self.inner.queue.depths();
        self.inner.obs.stats(depths, self.aggregate_cache_stats())
    }

    /// The Prometheus-style text exposition of every registered instrument
    /// — engine counters/histograms labelled by tenant plus the service's
    /// own lane, wave, and error instruments. Empty when metrics are off
    /// ([`ObsConfig::metrics`](ppd_obs::ObsConfig)). Served over the wire
    /// by the `metrics` control frame.
    pub fn metrics_text(&self) -> String {
        self.inner.obs.render(self.inner.queue.depths())
    }

    /// The still-buffered span events of one submission's trace, in
    /// recording order — empty for untraced ids (tracing off, unsampled,
    /// or aged out of the bounded ring). The id comes from
    /// [`Ticket::trace_id`] or the wire response's `trace` field; served
    /// over the wire by the `trace` control frame.
    pub fn trace_events(&self, trace: u64) -> Vec<SpanRecord> {
        self.inner.obs.trace().events(trace)
    }

    fn aggregate_cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for tenant in self.inner.router.tenants() {
            total += tenant.engine.cache_stats();
        }
        total
    }

    /// The default tenant's engine — for cache persistence
    /// (`save_marginals` / `load_marginals`) and introspection. Evaluating
    /// through it directly is safe (answers are bit-identical either way)
    /// but bypasses admission control.
    pub fn engine(&self) -> &Engine {
        &self.inner.router.tenant(0).engine
    }

    /// The engine serving the database registered under `id`.
    pub(crate) fn engine_for(&self, id: &str) -> Option<&Engine> {
        let index = self.inner.router.route(Some(id)).ok()?;
        Some(&self.inner.router.tenant(index).engine)
    }

    /// A read snapshot of the default tenant's database. The guard blocks
    /// queued updates from applying while held — take it, read, drop it.
    pub fn database(&self) -> RwLockReadGuard<'_, PpdDatabase> {
        self.inner.router.tenant(0).read_db()
    }

    /// The version currently served by the database registered under `id`
    /// (`None` for an unknown id). Versions start at 1 and bump by one per
    /// applied update.
    pub fn database_version(&self, id: &str) -> Option<u64> {
        let index = self.inner.router.route(Some(id)).ok()?;
        Some(self.inner.router.tenant(index).version())
    }

    /// The registered database ids, in registration order (the first is
    /// the default route).
    pub(crate) fn database_ids(&self) -> Vec<&str> {
        self.inner
            .router
            .tenants()
            .iter()
            .map(|tenant| tenant.id.as_str())
            .collect()
    }

    /// The service's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Begins graceful shutdown without blocking: new submissions fail with
    /// [`ServiceError::ShuttingDown`], while every already-admitted query
    /// is still solved and delivered. Use [`Service::shutdown`] (or drop
    /// the service) to also wait for the drain to finish.
    pub fn initiate_shutdown(&self) {
        self.inner.queue.shutdown();
    }

    /// Gracefully shuts down: stops admission, waits until every admitted
    /// query has been answered and the dispatcher has exited, and returns
    /// the final stats.
    pub fn shutdown(mut self) -> ServiceStats {
        self.join_dispatcher();
        self.stats()
    }

    fn join_dispatcher(&mut self) {
        self.inner.queue.shutdown();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.join_dispatcher();
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("config", &self.inner.config)
            .field("databases", &self.database_ids())
            .field("queue_depths", &self.inner.queue.depths())
            .finish_non_exhaustive()
    }
}

/// The dispatcher: pops waves off the admission queue until shutdown has
/// drained it.
fn dispatch_loop(inner: &Inner) {
    while let Some(popped) = inner.queue.pop_wave(inner.config.max_batch) {
        inner.obs.wave_started();
        run_wave(inner, popped);
        inner.obs.wave_finished();
    }
}

/// A wave's query groups, in execution order: tenants in registration
/// order, the interactive lane before the batch lane within a tenant.
type Groups<'w> = BTreeMap<(usize, usize), Group<'w>>;

/// One `(tenant, class)` group of a wave — one engine wave against its
/// tenant's database snapshot. Jobs under different error budgets share
/// it: each budget is planned into the one wave by its own call, and the
/// solver fingerprint in every unit's identity keeps their units apart.
struct Group<'w> {
    db: &'w PpdDatabase,
    engine: &'w Engine,
    plan: WavePlan<'w>,
    /// The group's jobs by the plan's query index; each is taken by its
    /// delivery.
    jobs: Vec<Mutex<Option<Job>>>,
    /// Their cancel tokens, by the same index.
    cancels: Vec<CancelToken>,
}

/// Executes one wave: **plan first, hold the batching window only if the
/// plan left something to solve.** Most warm hits never get here — they
/// are answered at admission ([`Service::submit`]); the plan stage below
/// still delivers the hits that queued, e.g. behind an update.
///
/// 1. Updates apply, in wave order (interactive lane before batch — the
///    wave is already ordered that way), while no read guard is held — the
///    only place a database is ever written. Every query of the wave then
///    observes one fixed post-update snapshot, never a half-applied state.
/// 2. The queries are planned, group by group: grounded, reduced to work
///    units, looked up in the cache. Every query the cache answers whole is
///    delivered here — a warm request never waits for anyone.
/// 3. Only if some group is left with unsolved units is the window held:
///    until [`ServiceConfig::max_wait`] after the wave's first sighting, or
///    [`ServiceConfig::max_batch`] jobs, whichever comes first. Requests
///    arriving meanwhile are planned into the same groups — so they share
///    the wave's solves — and answered at once when they turn out cached.
///    A queued update closes the window and, with everything admitted after
///    it, waits for the next wave: the tenants' read guards are held from
///    planning to the last delivery.
/// 4. The groups execute in order. Running the interactive sub-batch as its
///    own engine wave (rather than mixing classes into one cost-ordered
///    wave) is what makes the priority real: every interactive answer is
///    delivered before the first batch unit starts.
fn run_wave(inner: &Inner, popped: Popped<Job>) {
    let mut size = popped.items.len();
    let mut queries: Vec<Job> = Vec::with_capacity(size);
    for job in popped.items {
        inner.obs.queue_wait(job.submitted.elapsed());
        match &job.work {
            Work::Update(_) => run_update(inner, job),
            Work::Query(_) => queries.push(job),
        }
    }
    // The read guards pin the wave's snapshots: updates admitted from here
    // on wait for the next wave boundary.
    let dbs: Vec<RwLockReadGuard<'_, PpdDatabase>> = if queries.is_empty() {
        Vec::new()
    } else {
        inner.router.tenants().iter().map(Tenant::read_db).collect()
    };
    let mut groups = Groups::new();
    plan_jobs(inner, &dbs, &mut groups, queries);
    let mut held = Duration::ZERO;
    if groups.values().any(|group| group.plan.unsolved_units() > 0) {
        let hold_started = Instant::now();
        let deadline = popped.sighted + inner.config.max_wait;
        let mut open = true;
        while open {
            let room = inner.config.max_batch.max(1).saturating_sub(size);
            let (joiners, still_open) = inner
                .queue
                .pop_joiners(room, deadline, |job| matches!(job.work, Work::Update(_)));
            open = still_open;
            size += joiners.len();
            for job in &joiners {
                inner.obs.queue_wait(job.submitted.elapsed());
            }
            plan_jobs(inner, &dbs, &mut groups, joiners);
        }
        held = hold_started.elapsed();
    }
    inner.obs.wave_formed(size, held);
    for ((tenant, _), group) in groups {
        inner.obs.wave_group(tenant, group.jobs.len());
        group.execute(inner);
    }
}

/// Plans `jobs` (queries only) into their groups, creating the groups they
/// are the first of.
fn plan_jobs<'w>(
    inner: &'w Inner,
    dbs: &'w [RwLockReadGuard<'w, PpdDatabase>],
    groups: &mut Groups<'w>,
    jobs: Vec<Job>,
) {
    let mut arriving: BTreeMap<_, Vec<Job>> = BTreeMap::new();
    for job in jobs {
        arriving
            .entry((job.tenant, job.class.lane()))
            .or_default()
            .push(job);
    }
    for (key, jobs) in arriving {
        let group = groups.entry(key).or_insert_with(|| Group {
            db: &dbs[key.0],
            engine: &inner.router.tenant(key.0).engine,
            plan: WavePlan::default(),
            jobs: Vec::new(),
            cancels: Vec::new(),
        });
        group.plan_jobs(inner, jobs);
    }
}

impl Group<'_> {
    /// The plan stage for `jobs`: the streamable kinds (Boolean / count /
    /// per-session) in one planning pass per error budget, so they
    /// deduplicate against each other cheaply, then the top-k queries one by
    /// one. Whatever the cache answers whole is delivered from here.
    fn plan_jobs(&mut self, inner: &Inner, jobs: Vec<Job>) {
        let Group {
            db,
            engine,
            plan,
            jobs: planned,
            cancels,
        } = self;
        let mut topk = Vec::new();
        let mut streamable: BTreeMap<_, Vec<Job>> = BTreeMap::new();
        for job in jobs {
            if matches!(job.request(), Request::TopK { .. }) {
                topk.push(job);
                continue;
            }
            let bits = job
                .budget
                .map(|b| (b.epsilon.to_bits(), b.confidence.to_bits()));
            streamable.entry(bits).or_default().push(job);
        }

        for jobs in streamable.into_values() {
            let budget = jobs[0].budget;
            let queries: Vec<ConjunctiveQuery> = jobs
                .iter()
                .map(|job| job.request().query().clone())
                .collect();
            let traces: Vec<u64> = jobs.iter().map(|job| job.trace).collect();
            // The engine numbers a wave's queries in planning order, across
            // calls — each job's slot in `planned`.
            for job in jobs {
                cancels.push(job.cancel.clone());
                planned.push(Mutex::new(Some(job)));
            }
            engine.plan_into(
                plan,
                db,
                &queries,
                budget,
                &traces,
                &|qi| cancels[qi].is_cancelled(),
                &|qi, outcome| deliver(inner, planned, db.version(), qi, outcome),
            );
        }

        for job in topk {
            let Request::TopK { query, k, strategy } = job.request().clone() else {
                unreachable!("partitioned on the request kind");
            };
            let (budget, trace) = (job.budget, job.trace);
            cancels.push(job.cancel.clone());
            planned.push(Mutex::new(Some(job)));
            engine.plan_topk_into(
                plan,
                db,
                &query,
                k,
                strategy,
                budget,
                trace,
                &|qi| cancels[qi].is_cancelled(),
                &|qi, outcome| deliver(inner, planned, db.version(), qi, outcome),
            );
        }
    }

    /// The execute stage: one cancellable streamed engine wave over what the
    /// plan left unsolved, each answer delivered the moment its units
    /// finish.
    fn execute(self, inner: &Inner) {
        let Group {
            db,
            engine,
            plan,
            jobs,
            cancels,
        } = self;
        engine.execute_wave(
            plan,
            // `move` satisfies the engine's `'static` bound (the probe
            // reaches exact DP kernels mid-solve); the tokens are Arc-backed.
            move |qi| cancels[qi].is_cancelled(),
            |qi, outcome| deliver(inner, &jobs, db.version(), qi, outcome),
        );
        // The engine delivers every query exactly once; anything still here
        // would be a contract violation, surfaced instead of hung on.
        for slot in &jobs {
            if let Some(job) = slot.lock().expect("wave delivery slot poisoned").take() {
                debug_assert!(false, "engine failed to deliver a planned query");
                finish(inner, job, Err(ServiceError::Disconnected), 0);
            }
        }
    }
}

/// Hands one engine outcome to the job it belongs to. Exactly once per
/// query, possibly from an engine worker thread — the hand-off is all that
/// happens here.
fn deliver(
    inner: &Inner,
    jobs: &[Mutex<Option<Job>>],
    version: u64,
    qi: usize,
    outcome: Result<WaveAnswer, PpdError>,
) {
    let taken = jobs[qi].lock().expect("wave delivery slot poisoned").take();
    if let Some(job) = taken {
        let delivery = match outcome {
            Ok(answer) => Ok(project(job.request(), answer)),
            Err(e) => Err(eval_error(&job, e)),
        };
        finish(inner, job, delivery, version);
    }
}

/// Applies one admitted update to its tenant's database and delivers the
/// receipt. Runs on the dispatcher thread before the wave's queries are
/// planned, while no wave holds a read guard — the only place the database
/// is ever written. The update is settled before its receipt goes out, so
/// a query submitted once the receipt is in may be answered at admission
/// again, against the new snapshot.
fn run_update(inner: &Inner, job: Job) {
    let Work::Update(update) = &job.work else {
        unreachable!("only update jobs reach run_update");
    };
    let tenant: &Tenant = inner.router.tenant(job.tenant);
    let (delivery, version) = if job.cancel.is_cancelled() {
        (Err(eval_error(&job, PpdError::Cancelled)), 0)
    } else {
        match tenant.apply_update(update.clone()) {
            Ok((version, invalidated)) => {
                inner.obs.update_applied();
                let receipt = Answer::Updated {
                    version,
                    invalidated,
                };
                (Ok(receipt), version)
            }
            Err(e) => (Err(eval_error(&job, e)), 0),
        }
    };
    tenant.update_settled();
    finish(inner, job, delivery, version);
}

/// Maps an engine error onto the service error a client should see: a
/// cancellation that stems from the job's deadline is `DeadlineExceeded`;
/// everything else (including a cancellation from a dropped ticket, whose
/// delivery nobody reads) surfaces as an evaluation error.
fn eval_error(job: &Job, e: PpdError) -> ServiceError {
    match e {
        PpdError::Cancelled if job.cancel.deadline_expired() => ServiceError::DeadlineExceeded,
        other => ServiceError::Eval(other),
    }
}

/// Projects the engine's answer onto the shape the request asked for.
fn project(request: &Request, answer: WaveAnswer) -> Answer {
    match (request, answer) {
        (Request::Boolean(_), WaveAnswer::Batch(answer)) => Answer::Boolean(answer.boolean),
        (Request::Count(_), WaveAnswer::Batch(answer)) => Answer::Count(answer.expected_count),
        (Request::SessionProbabilities(_), WaveAnswer::Batch(answer)) => {
            Answer::SessionProbabilities(answer.session_probabilities)
        }
        (Request::TopK { .. }, WaveAnswer::TopK(scores, _stats)) => Answer::TopK(scores),
        (request, _) => unreachable!("{} was planned as another kind", request.query().name()),
    }
}

/// Records the delivery and sends it stamped with the version it was
/// computed against (`0` = never reached a versioned snapshot); a client
/// that dropped its ticket just discards the answer.
fn finish(inner: &Inner, job: Job, delivery: Delivery, version: u64) {
    inner
        .obs
        .finished(job.trace, &delivery, job.submitted.elapsed());
    job.reply.send(Outcome::new(delivery, version, job.trace));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppd_core::{EvalConfig, MallowsModel, Ranking, Session, Term, Value};
    use ppd_datagen::{polls_database, polls_q1_query, PollsConfig};

    fn tiny_db() -> PpdDatabase {
        polls_database(&PollsConfig {
            num_candidates: 5,
            num_voters: 8,
            seed: 11,
        })
    }

    #[test]
    fn answers_every_request_kind() {
        let db = tiny_db();
        let service = Service::new(db.clone(), ServiceConfig::new(EvalConfig::exact()));
        let q = polls_q1_query();
        let tickets = vec![
            service.submit(Request::Boolean(q.clone())).unwrap(),
            service.submit(Request::Count(q.clone())).unwrap(),
            service
                .submit(Request::SessionProbabilities(q.clone()))
                .unwrap(),
            service
                .submit(Request::TopK {
                    query: q.clone(),
                    k: 3,
                    strategy: ppd_core::TopKStrategy::Naive,
                })
                .unwrap(),
        ];
        let answers: Vec<Answer> = tickets
            .into_iter()
            .map(|t| t.wait().expect("query answers"))
            .collect();
        let engine = Engine::new(EvalConfig::exact());
        assert_eq!(
            answers[0],
            Answer::Boolean(engine.evaluate_boolean(&db, &q).unwrap())
        );
        assert_eq!(
            answers[1],
            Answer::Count(engine.count_sessions(&db, &q).unwrap())
        );
        assert_eq!(
            answers[2],
            Answer::SessionProbabilities(engine.session_probabilities(&db, &q).unwrap())
        );
        assert_eq!(
            answers[3],
            Answer::TopK(
                engine
                    .most_probable_sessions(&db, &q, 3, ppd_core::TopKStrategy::Naive)
                    .unwrap()
                    .0
            )
        );
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.interactive_submitted, 4);
        assert_eq!(stats.answered, 4);
        assert_eq!(stats.failed + stats.rejected + stats.expired, 0);
        assert_eq!(stats.queue_depth, 0);
        assert!(stats.waves >= 1);
    }

    #[test]
    fn routes_by_database_id() {
        // Two tenants with *different* databases: answers must come from
        // the right one.
        let db_a = tiny_db();
        let db_b = polls_database(&PollsConfig {
            num_candidates: 5,
            num_voters: 4,
            seed: 77,
        });
        let q = polls_q1_query();
        let expect_a = Engine::new(EvalConfig::exact())
            .evaluate_boolean(&db_a, &q)
            .unwrap();
        let expect_b = Engine::new(EvalConfig::exact())
            .evaluate_boolean(&db_b, &q)
            .unwrap();
        assert_ne!(expect_a.to_bits(), expect_b.to_bits());
        let service = Service::with_databases(
            vec![("a".into(), db_a), ("b".into(), db_b)],
            ServiceConfig::new(EvalConfig::exact()),
        );
        assert_eq!(service.database_ids(), vec!["a", "b"]);
        let on = |id: &str| {
            service
                .submit_with(
                    Request::Boolean(q.clone()),
                    SubmitOptions::interactive().on_database(id),
                )
                .unwrap()
                .wait()
                .unwrap()
        };
        assert_eq!(on("a"), Answer::Boolean(expect_a));
        assert_eq!(on("b"), Answer::Boolean(expect_b));
        // Defaulting routes to the first tenant.
        let defaulted = service
            .submit(Request::Boolean(q.clone()))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(defaulted, Answer::Boolean(expect_a));
        assert!(matches!(
            service.submit_with(
                Request::Boolean(q),
                SubmitOptions::interactive().on_database("nope")
            ),
            Err(ServiceError::UnknownDatabase(_))
        ));
    }

    #[test]
    fn error_budget_requests_match_a_dedicated_engine_bitwise() {
        let db = tiny_db();
        let q = polls_q1_query();
        let service = Service::new(db.clone(), ServiceConfig::new(EvalConfig::exact()));
        let budgeted = service
            .submit_with(
                Request::Boolean(q.clone()),
                SubmitOptions::interactive().with_error_budget(0.05, 0.9),
            )
            .unwrap()
            .wait()
            .unwrap();
        let direct = Engine::new(EvalConfig::error_budget(0.05, 0.9))
            .evaluate_boolean(&db, &q)
            .unwrap();
        assert_eq!(
            budgeted,
            Answer::Boolean(direct),
            "a per-request budget must answer exactly like a dedicated \
             error-budget engine"
        );
        // The budget-less path through the same service is untouched.
        let exact = service
            .submit(Request::Boolean(q.clone()))
            .unwrap()
            .wait()
            .unwrap();
        let direct_exact = Engine::new(EvalConfig::exact())
            .evaluate_boolean(&db, &q)
            .unwrap();
        assert_eq!(exact, Answer::Boolean(direct_exact));
    }

    #[test]
    fn stats_count_the_tenant_shared_pool_cache_once() {
        // Zero threshold: every unit of a budgeted request is sampled, so
        // each needs a proposal pool.
        let eval = EvalConfig::exact().with_exact_cost_threshold(0.0);
        let service = Service::new(tiny_db(), ServiceConfig::new(eval));
        let ask = |epsilon: f64| {
            service
                .submit_with(
                    Request::Boolean(polls_q1_query()),
                    SubmitOptions::interactive().with_error_budget(epsilon, 0.9),
                )
                .unwrap()
                .wait()
                .unwrap()
        };
        ask(0.05);
        let first = service.stats().cache;
        let built = first.pools_built;
        assert!(built > 0, "a budgeted request must build proposal pools");
        assert_eq!(first.pool_hits, 0);
        // A second budget re-estimates every unit on the same engine: every
        // pool is reused and counted once, while each budget's solves add
        // up.
        ask(0.02);
        let cache = service.stats().cache;
        assert_eq!((cache.pools_built, cache.pool_hits), (built, built));
        assert_eq!(cache.marginal_misses, 2 * first.marginal_misses);
    }

    /// Q1 on the tiny db under `budget` (`None` = the configured solver).
    fn ask_q1(service: &Service, budget: Option<(f64, f64)>) -> Answer {
        let mut options = SubmitOptions::interactive();
        if let Some((epsilon, confidence)) = budget {
            options = options.with_error_budget(epsilon, confidence);
        }
        let request = Request::Boolean(polls_q1_query());
        service
            .submit_with(request, options)
            .unwrap()
            .wait()
            .unwrap()
    }

    #[test]
    fn a_budgeted_request_warms_the_cache_of_a_plain_one() {
        // Every Q1 unit is cheap enough for exact DP under the default
        // threshold, so the budget solves the very entries the plain
        // request asks for.
        let service = Service::new(tiny_db(), ServiceConfig::new(EvalConfig::exact()));
        ask_q1(&service, Some((0.05, 0.9)));
        let misses = service.stats().cache.marginal_misses;
        assert_eq!(misses, 8, "one miss per unit");
        ask_q1(&service, None);
        assert_eq!(service.stats().cache.marginal_misses, misses);
    }

    #[test]
    fn ten_budgets_count_every_solve_and_prepare_each_model_once() {
        // Zero threshold: every unit is sampled under its own budget.
        let eval = EvalConfig::exact().with_exact_cost_threshold(0.0);
        let service = Service::new(tiny_db(), ServiceConfig::new(eval));
        for i in 1..=10u64 {
            ask_q1(&service, Some((0.05 + 0.001 * i as f64, 0.9)));
            let cache = service.stats().cache;
            assert_eq!(cache.marginal_misses, 8 * i, "after budget {i}");
            assert_eq!(cache.models_prepared, 8, "after budget {i}");
        }
    }

    #[test]
    fn budgeted_entries_share_the_tenant_cache_bound() {
        // One shard, so the bound is not rounded up per shard.
        let eval = EvalConfig::exact()
            .with_exact_cost_threshold(0.0)
            .with_cache_shards(1)
            .with_cache_capacity(ppd_core::CacheCapacity::Entries(4));
        let service = Service::new(tiny_db(), ServiceConfig::new(eval));
        for i in 1..=9u64 {
            ask_q1(&service, Some((0.05 + 0.001 * i as f64, 0.9)));
        }
        let cache = service.stats().cache;
        let held = service.engine().cached_marginals() as u64;
        assert_eq!(held, cache.marginal_misses - cache.marginal_evictions);
        assert!(held <= 4, "{held} entries held against a bound of 4");
    }

    #[test]
    fn budgeted_stats_rows_sum_to_the_service_cache() {
        use crate::wire::{WireClient, WireServer};
        let service = Arc::new(Service::with_databases(
            vec![("a".into(), tiny_db()), ("b".into(), tiny_db())],
            ServiceConfig::new(EvalConfig::exact().with_exact_cost_threshold(0.0)),
        ));
        for (database, epsilon) in [("a", 0.05), ("a", 0.02), ("b", 0.05)] {
            let options = (SubmitOptions::interactive().on_database(database))
                .with_error_budget(epsilon, 0.9);
            let request = Request::Boolean(polls_q1_query());
            service
                .submit_with(request, options)
                .unwrap()
                .wait()
                .unwrap();
        }
        let server = WireServer::bind_tcp("127.0.0.1:0", Arc::clone(&service)).unwrap();
        let mut client = WireClient::connect_tcp(server.local_addr().unwrap()).unwrap();
        let report = client.stats().unwrap();
        let mut rows = CacheStats::default();
        for (_, _, cache) in &report.tenants {
            rows += *cache;
        }
        assert_eq!(
            rows.marginal_misses, 24,
            "three budgeted requests of 8 units"
        );
        assert_eq!(rows, report.service.cache);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn a_lane_runs_every_budget_as_one_engine_wave() {
        // The window holds the cold first request until all three jobs are
        // in, so they share one wave; their lane is one group of three.
        let config = ServiceConfig::new(EvalConfig::exact())
            .with_max_batch(3)
            .with_max_wait(Duration::from_secs(30));
        let service = Service::new(tiny_db(), config);
        let tickets: Vec<Ticket> = [None, Some(0.05), Some(0.02)]
            .into_iter()
            .map(|epsilon| {
                let mut options = SubmitOptions::interactive();
                if let Some(epsilon) = epsilon {
                    options = options.with_error_budget(epsilon, 0.9);
                }
                service
                    .submit_with(Request::Boolean(polls_q1_query()), options)
                    .unwrap()
            })
            .collect();
        let answers: Vec<Answer> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let direct = Engine::new(EvalConfig::error_budget(0.02, 0.9))
            .evaluate_boolean(&tiny_db(), &polls_q1_query())
            .unwrap();
        assert_eq!(answers[2], Answer::Boolean(direct));
        assert_eq!(service.stats().waves, 1);
        let text = service.metrics_text();
        let series = |name: &str| {
            let prefix = format!("ppd_wave_group_size_{name}{{tenant=\"default\"}} ");
            text.lines().find_map(|line| line.strip_prefix(&prefix))
        };
        assert_eq!(
            (series("count"), series("sum")),
            (Some("1"), Some("3")),
            "{text}"
        );
        // Every unit is cheap enough for exact DP under either budget, so
        // the wave solved each once.
        assert_eq!(service.stats().cache.marginal_misses, 8);
    }

    #[test]
    fn evaluation_errors_are_delivered_not_hung() {
        let service = Service::new(tiny_db(), ServiceConfig::new(EvalConfig::exact()));
        let bad = ConjunctiveQuery::new("bad").prefer(
            "NoSuchRelation",
            vec![Term::any(), Term::any()],
            Term::val("cand0"),
            Term::val("cand1"),
        );
        let ticket = service.submit(Request::Boolean(bad)).unwrap();
        assert!(matches!(ticket.wait(), Err(ServiceError::Eval(_))));
        let stats = service.shutdown();
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn drop_drains_admitted_queries() {
        let db = tiny_db();
        let service = Service::new(db, ServiceConfig::new(EvalConfig::exact()));
        let tickets: Vec<Ticket> = (0..6)
            .map(|_| service.submit(Request::Boolean(polls_q1_query())).unwrap())
            .collect();
        drop(service);
        for ticket in tickets {
            assert!(
                ticket.wait().is_ok(),
                "dropping the service must still answer admitted queries"
            );
        }
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let service = Service::new(tiny_db(), ServiceConfig::new(EvalConfig::exact()));
        service.initiate_shutdown();
        assert!(matches!(
            service.submit(Request::Boolean(polls_q1_query())),
            Err(ServiceError::ShuttingDown)
        ));
    }

    #[test]
    fn batch_class_answers_match_interactive_bitwise() {
        let db = tiny_db();
        let q = polls_q1_query();
        let service = Service::new(db, ServiceConfig::new(EvalConfig::exact()));
        let interactive = service
            .submit_with(Request::Boolean(q.clone()), SubmitOptions::interactive())
            .unwrap()
            .wait()
            .unwrap();
        let batch = service
            .submit_with(Request::Boolean(q), SubmitOptions::batch())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(interactive, batch, "class must never change answer bits");
        let stats = service.shutdown();
        assert_eq!(stats.interactive_submitted, 1);
        assert_eq!(stats.batch_submitted, 1);
    }

    fn insert_update(db: &PpdDatabase) -> Update {
        let relation = db.preference_relation_names()[0].to_string();
        let arity = db
            .preference_relation(&relation)
            .unwrap()
            .session_columns()
            .len();
        Update::InsertSession {
            prelation: relation,
            session: Session::new(
                (0..arity).map(|i| Value::from(format!("s{i}"))).collect(),
                MallowsModel::new(Ranking::new(vec![2, 0, 1, 3, 4]).unwrap(), 0.3).unwrap(),
            ),
        }
    }

    #[test]
    fn updates_apply_between_waves_and_version_the_answers() {
        let db = tiny_db();
        let q = polls_q1_query();
        let service = Service::new(db.clone(), ServiceConfig::new(EvalConfig::exact()));
        assert_eq!(service.database_version(DEFAULT_DATABASE), Some(1));
        assert_eq!(service.database_version("nope"), None);

        // A query before any update is computed against version 1.
        let ticket = service.submit(Request::Boolean(q.clone())).unwrap();
        assert_eq!(ticket.read_version(), 1);
        let (delivery, version) = ticket.wait_versioned();
        delivery.unwrap();
        assert_eq!(version, Some(1));

        // The update receipt reports the version it produced...
        let ticket = service.submit_update(insert_update(&db)).unwrap();
        let (delivery, version) = ticket.wait_versioned();
        assert_eq!(
            delivery,
            Ok(Answer::Updated {
                version: 2,
                invalidated: 0
            }),
            "nothing touching the base relation was cached yet"
        );
        assert_eq!(version, Some(2));
        assert_eq!(service.database_version(DEFAULT_DATABASE), Some(2));

        // ...and a later query answers against the new snapshot, matching a
        // fresh engine on the updated database bit for bit.
        let mut updated = db.clone();
        updated.apply(insert_update(&db)).unwrap();
        let expect = Engine::new(EvalConfig::exact())
            .evaluate_boolean(&updated, &q)
            .unwrap();
        let ticket = service.submit(Request::Boolean(q.clone())).unwrap();
        assert_eq!(ticket.read_version(), 2);
        let (delivery, version) = ticket.wait_versioned();
        assert_eq!(delivery, Ok(Answer::Boolean(expect)));
        assert_eq!(version, Some(2));

        let stats = service.shutdown();
        assert_eq!(stats.updates_applied, 1);
        assert_eq!(stats.answered, 3, "update receipts count as answered");
    }

    #[test]
    fn rejected_updates_fail_without_changing_the_database() {
        let service = Service::new(tiny_db(), ServiceConfig::new(EvalConfig::exact()));
        let ticket = service
            .submit_update(Update::DeleteSession {
                prelation: "NoSuchRelation".into(),
                index: 0,
            })
            .unwrap();
        assert!(matches!(ticket.wait(), Err(ServiceError::Eval(_))));
        assert_eq!(service.database_version(DEFAULT_DATABASE), Some(1));
        let stats = service.shutdown();
        assert_eq!(stats.updates_applied, 0);
        assert_eq!(stats.failed, 1);
    }
}
