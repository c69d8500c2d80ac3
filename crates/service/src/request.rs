//! The service's client-facing types: what clients submit ([`Request`]
//! plus [`SubmitOptions`]), what they get back ([`Answer`] behind a
//! [`Ticket`]), and how things fail ([`ServiceError`]).

use crate::deadline::CancelToken;
use ppd_core::{ConjunctiveQuery, ErrorBudget, PpdError, SessionScore, TopKStrategy};
use std::cell::Cell;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One query a client submits to the service.
#[derive(Debug, Clone)]
pub enum Request {
    /// `Pr(Q)`: the probability that some session satisfies the query.
    Boolean(ConjunctiveQuery),
    /// `count(Q)`: the expected number of satisfying sessions.
    Count(ConjunctiveQuery),
    /// Per qualifying session, the probability that the query holds in it.
    SessionProbabilities(ConjunctiveQuery),
    /// `top(Q, k)`: the `k` sessions most likely to satisfy the query.
    TopK {
        /// The query to rank sessions by.
        query: ConjunctiveQuery,
        /// How many sessions to return.
        k: usize,
        /// Naive or upper-bound-driven evaluation.
        strategy: TopKStrategy,
    },
}

impl Request {
    /// The underlying conjunctive query.
    pub fn query(&self) -> &ConjunctiveQuery {
        match self {
            Request::Boolean(q)
            | Request::Count(q)
            | Request::SessionProbabilities(q)
            | Request::TopK { query: q, .. } => q,
        }
    }
}

/// The admission class of a request: which lane of the admission queue it
/// occupies and how the dispatcher prioritizes it within a wave.
///
/// Interactive requests pre-empt batch requests at wave formation — a wave
/// takes every queued interactive request before the first batch one, and
/// executes the interactive sub-batch first — and the two lanes have
/// separate bounds ([`ServiceConfig`](crate::ServiceConfig)), so a flood of
/// batch traffic fills the batch lane and sheds with
/// [`ServiceError::Overloaded`] while interactive admission stays open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AdmissionClass {
    /// Latency-sensitive traffic: prioritized lane, served first.
    #[default]
    Interactive,
    /// Throughput traffic: yielded lane, first to be shed under load.
    Batch,
}

impl AdmissionClass {
    /// Lane index (`Interactive` = 0, `Batch` = 1).
    pub(crate) fn lane(self) -> usize {
        match self {
            AdmissionClass::Interactive => 0,
            AdmissionClass::Batch => 1,
        }
    }

    /// Lowercase name, for logs and the wire protocol.
    pub fn name(self) -> &'static str {
        match self {
            AdmissionClass::Interactive => "interactive",
            AdmissionClass::Batch => "batch",
        }
    }
}

/// Per-submission options: target database, admission class, and deadline.
///
/// The default is an interactive request against the service's default
/// database with no deadline — exactly what
/// [`Service::submit`](crate::Service::submit) uses.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Which database to route to; `None` means the service's default (its
    /// first registered database). Unknown ids fail submission with
    /// [`ServiceError::UnknownDatabase`].
    pub database: Option<String>,
    /// The admission class (lane + wave priority).
    pub class: AdmissionClass,
    /// Time budget measured from submission. When it runs out the ticket
    /// resolves [`ServiceError::DeadlineExceeded`] and the service abandons
    /// any work only this request needed.
    pub deadline: Option<Duration>,
    /// Accuracy target overriding the tenant's configured solver: each
    /// per-unit marginal is answered within `±epsilon` at the given
    /// confidence, by exact DP or the budgeted sampler — whichever the
    /// static cost model predicts is cheaper. The tenant's one engine
    /// serves every budget; only bit-identical budgets share cached
    /// estimates. `None` uses the tenant's configured solver.
    pub error_budget: Option<ErrorBudget>,
}

impl SubmitOptions {
    /// Interactive, default database, no deadline.
    pub fn interactive() -> Self {
        SubmitOptions::default()
    }

    /// Batch class, default database, no deadline.
    pub fn batch() -> Self {
        SubmitOptions {
            class: AdmissionClass::Batch,
            ..SubmitOptions::default()
        }
    }

    /// Routes the request to the database registered under `id`.
    pub fn on_database(mut self, id: impl Into<String>) -> Self {
        self.database = Some(id.into());
        self
    }

    /// Sets the deadline, measured from submission.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Answers this request within `±epsilon` at the given confidence (see
    /// [`SubmitOptions::error_budget`]).
    pub fn with_error_budget(mut self, epsilon: f64, confidence: f64) -> Self {
        self.error_budget = Some(ErrorBudget {
            epsilon,
            confidence,
        });
        self
    }
}

/// The answer to one [`Request`], shaped by its variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Answer to [`Request::Boolean`].
    Boolean(f64),
    /// Answer to [`Request::Count`].
    Count(f64),
    /// Answer to [`Request::SessionProbabilities`].
    SessionProbabilities(Vec<(usize, f64)>),
    /// Answer to [`Request::TopK`], sorted by decreasing probability.
    TopK(Vec<SessionScore>),
    /// Receipt for a submitted [`Update`](ppd_core::Update): the database
    /// version the update produced and the number of cached work units the
    /// service invalidated (exactly those covering changed sessions).
    Updated {
        /// The database version id after the update applied.
        version: u64,
        /// Cached marginal entries dropped by surgical invalidation.
        invalidated: u64,
    },
}

/// How a submission or an admitted query can fail.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Admission control refused the query: its class's lane already holds
    /// `depth` queries. Backpressure — retry later or shed the query.
    Overloaded {
        /// Lane depth observed at rejection time.
        depth: usize,
    },
    /// The service is shutting down and admits no new queries.
    ShuttingDown,
    /// The request named a database id the service does not serve.
    UnknownDatabase(String),
    /// The request's deadline passed before its answer was assembled. Work
    /// the request alone depended on is abandoned, not finished.
    DeadlineExceeded,
    /// The query was admitted but evaluation failed (bad query, unknown
    /// relation, solver error).
    Eval(PpdError),
    /// A wire-protocol frame could not be encoded or decoded.
    Protocol(String),
    /// The service dropped the query without answering — only possible if
    /// the dispatcher died; a bug, surfaced rather than hung on.
    Disconnected,
}

impl ServiceError {
    /// The stable, wire-safe name of this error's variant: the wire
    /// protocol's `error_kind` field and the label space of the service's
    /// `ppd_errors_total` counter. Evaluation errors defer to
    /// [`PpdError::kind`]; renaming a variant must not change its string.
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceError::Overloaded { .. } => "overloaded",
            ServiceError::ShuttingDown => "shutting-down",
            ServiceError::UnknownDatabase(_) => "unknown-database",
            ServiceError::DeadlineExceeded => "deadline-exceeded",
            ServiceError::Eval(e) => e.kind(),
            ServiceError::Protocol(_) => "protocol",
            ServiceError::Disconnected => "disconnected",
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { depth } => {
                write!(f, "service overloaded: {depth} queries already queued")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::UnknownDatabase(id) => write!(f, "unknown database: {id}"),
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServiceError::Eval(e) => write!(f, "evaluation failed: {e}"),
            ServiceError::Protocol(m) => write!(f, "wire protocol error: {m}"),
            ServiceError::Disconnected => write!(f, "service dropped the query (dispatcher died)"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<PpdError> for ServiceError {
    fn from(e: PpdError) -> Self {
        ServiceError::Eval(e)
    }
}

/// What flows through a ticket's one-shot channel.
pub(crate) type Delivery = Result<Answer, ServiceError>;

/// A delivery plus the database version it was computed against (`0` when
/// the request failed before reaching a versioned snapshot — admission
/// errors, protocol errors, expiry in the queue).
pub(crate) struct Outcome {
    pub(crate) delivery: Delivery,
    pub(crate) version: u64,
    /// The submission's trace id (0 when the request failed before one was
    /// assigned) — observability only, carried so wire responses can echo
    /// it for the `trace` verb.
    pub(crate) trace: u64,
}

impl Outcome {
    pub(crate) fn new(delivery: Delivery, version: u64, trace: u64) -> Self {
        Outcome {
            delivery,
            version,
            trace,
        }
    }
}

/// A claim on one submitted query's future answer.
///
/// The ticket is the receiving half of a one-shot channel the service
/// delivers into the moment the query's own work units finish — possibly
/// mid-wave, while co-batched queries are still being solved.
///
/// A ticket carries its request's deadline: once it passes, every wait
/// method resolves [`ServiceError::DeadlineExceeded`] instead of blocking
/// (an answer that arrived *before* the call still wins the race and is
/// returned). Dropping a ticket — or timing out — cancels the request: the
/// service abandons any work units only this request needed.
#[derive(Debug)]
pub struct Ticket {
    query_name: String,
    receiver: mpsc::Receiver<Outcome>,
    cancel: CancelToken,
    read_version: u64,
    trace: u64,
    computed_version: Cell<u64>,
}

impl Ticket {
    pub(crate) fn new(
        query_name: String,
        receiver: mpsc::Receiver<Outcome>,
        cancel: CancelToken,
        read_version: u64,
        trace: u64,
    ) -> Self {
        Ticket {
            query_name,
            receiver,
            cancel,
            read_version,
            trace,
            computed_version: Cell::new(0),
        }
    }

    /// Name of the submitted query, for logs.
    pub fn query_name(&self) -> &str {
        &self.query_name
    }

    /// The submission's trace id: the key into the service's span ring
    /// ([`Service::trace_events`](crate::Service::trace_events)) and the
    /// wire protocol's `trace` field. Assigned even when tracing is off
    /// (events are simply not recorded then); never 0.
    pub fn trace_id(&self) -> u64 {
        self.trace
    }

    /// The routed database's version id current when this request was
    /// admitted. Updates queued ahead of the request may still apply before
    /// it runs — compare with the version [`Ticket::wait_versioned`] returns to
    /// tell.
    pub fn read_version(&self) -> u64 {
        self.read_version
    }

    /// The database version the delivered answer was computed against:
    /// `None` until an answer (or versioned error) has been received
    /// through [`Ticket::try_wait`] / [`Ticket::wait_timeout`], or when the
    /// request failed before reaching a versioned snapshot.
    pub(crate) fn computed_version(&self) -> Option<u64> {
        match self.computed_version.get() {
            0 => None,
            version => Some(version),
        }
    }

    /// Unwraps an outcome, remembering its computed-against version.
    fn accept(&self, outcome: Outcome) -> Delivery {
        self.computed_version.set(outcome.version);
        outcome.delivery
    }

    /// The request's absolute deadline, if one was set at submission.
    pub fn deadline(&self) -> Option<Instant> {
        self.cancel.deadline()
    }

    /// Blocks until the answer is delivered or the deadline passes.
    pub fn wait(self) -> Delivery {
        self.wait_versioned().0
    }

    /// [`Ticket::wait`], also returning the database version the answer was
    /// computed against (`None` for unversioned failures).
    pub fn wait_versioned(self) -> (Delivery, Option<u64>) {
        let delivery = self.wait_inner();
        let version = self.computed_version();
        (delivery, version)
    }

    fn wait_inner(&self) -> Delivery {
        let Some(deadline) = self.cancel.deadline() else {
            return match self.receiver.recv() {
                Ok(outcome) => self.accept(outcome),
                Err(mpsc::RecvError) => Err(ServiceError::Disconnected),
            };
        };
        let now = Instant::now();
        if now >= deadline {
            return self.resolve_expired();
        }
        match self.receiver.recv_timeout(deadline - now) {
            Ok(outcome) => self.accept(outcome),
            Err(mpsc::RecvTimeoutError::Timeout) => self.resolve_expired(),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServiceError::Disconnected),
        }
    }

    /// Non-blocking poll: `None` while the query is still in flight and
    /// within its deadline.
    pub fn try_wait(&self) -> Option<Delivery> {
        match self.receiver.try_recv() {
            Ok(outcome) => Some(self.accept(outcome)),
            Err(mpsc::TryRecvError::Empty) => {
                if self.cancel.deadline_expired() {
                    self.cancel.cancel();
                    Some(Err(ServiceError::DeadlineExceeded))
                } else {
                    None
                }
            }
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServiceError::Disconnected)),
        }
    }

    /// Blocks up to `timeout` (clipped to the deadline): `None` if the
    /// query is still in flight then, `Some(Err(DeadlineExceeded))` once
    /// the deadline has passed.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Delivery> {
        let effective = match self.cancel.deadline() {
            Some(deadline) => deadline
                .saturating_duration_since(Instant::now())
                .min(timeout),
            None => timeout,
        };
        match self.receiver.recv_timeout(effective) {
            Ok(outcome) => Some(self.accept(outcome)),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if self.cancel.deadline_expired() {
                    // Answer-vs-deadline race: a delivery that landed while
                    // we timed out still wins.
                    match self.receiver.try_recv() {
                        Ok(outcome) => Some(self.accept(outcome)),
                        Err(_) => {
                            self.cancel.cancel();
                            Some(Err(ServiceError::DeadlineExceeded))
                        }
                    }
                } else {
                    None
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServiceError::Disconnected)),
        }
    }

    /// Deadline passed: a delivery that already landed still wins the race;
    /// otherwise cancel the in-flight work and report expiry.
    fn resolve_expired(&self) -> Delivery {
        match self.receiver.try_recv() {
            Ok(outcome) => self.accept(outcome),
            Err(_) => {
                self.cancel.cancel();
                Err(ServiceError::DeadlineExceeded)
            }
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        // An abandoned ticket releases its claim on the service: work units
        // only this request needed are skipped. (Consuming `wait` drops the
        // ticket too — by then the answer is delivered and the flag moot.)
        self.cancel.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticket(deadline: Option<Duration>) -> (mpsc::Sender<Outcome>, Ticket, CancelToken) {
        let (tx, rx) = mpsc::channel();
        let cancel = CancelToken::new(deadline.map(|d| Instant::now() + d));
        let ticket = Ticket::new("q".into(), rx, cancel.clone(), 1, 7);
        (tx, ticket, cancel)
    }

    #[test]
    fn ticket_resolves_once_delivered() {
        let (tx, ticket, _cancel) = ticket(None);
        assert_eq!(ticket.query_name(), "q");
        assert_eq!(ticket.read_version(), 1);
        assert_eq!(ticket.trace_id(), 7);
        assert_eq!(ticket.computed_version(), None, "nothing delivered yet");
        assert!(ticket.try_wait().is_none(), "nothing delivered yet");
        tx.send(Outcome::new(Ok(Answer::Boolean(0.5)), 3, 7))
            .unwrap();
        let (delivery, version) = ticket.wait_versioned();
        assert_eq!(delivery, Ok(Answer::Boolean(0.5)));
        assert_eq!(version, Some(3), "the answer reports its snapshot");
    }

    #[test]
    fn dropped_sender_surfaces_as_disconnected() {
        let (tx, rx) = mpsc::channel::<Outcome>();
        drop(tx);
        let ticket = Ticket::new("q".into(), rx, CancelToken::new(None), 1, 1);
        assert_eq!(ticket.try_wait(), Some(Err(ServiceError::Disconnected)));
        assert_eq!(ticket.wait(), Err(ServiceError::Disconnected));
    }

    #[test]
    fn expired_ticket_resolves_deadline_exceeded_and_cancels() {
        let (_tx, ticket, cancel) = ticket(Some(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        assert!(!cancel.is_cancelled() || cancel.deadline_expired());
        assert_eq!(
            ticket.wait_timeout(Duration::from_secs(5)),
            Some(Err(ServiceError::DeadlineExceeded)),
            "an expired ticket must not block"
        );
        assert!(cancel.is_cancelled());
        assert_eq!(ticket.wait(), Err(ServiceError::DeadlineExceeded));
    }

    #[test]
    fn answer_delivered_before_the_deadline_wins_the_race() {
        let (tx, ticket, _cancel) = ticket(Some(Duration::from_millis(1)));
        tx.send(Outcome::new(Ok(Answer::Count(2.0)), 1, 1)).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        // The deadline has passed, but the answer landed first: deliver it.
        assert_eq!(ticket.wait(), Ok(Answer::Count(2.0)));
    }

    #[test]
    fn dropping_a_ticket_cancels_its_request() {
        let (_tx, ticket, cancel) = ticket(None);
        assert!(!cancel.is_cancelled());
        drop(ticket);
        assert!(cancel.is_cancelled());
    }

    #[test]
    fn errors_render_for_logs() {
        let overloaded = ServiceError::Overloaded { depth: 9 };
        assert!(overloaded.to_string().contains("9 queries"));
        let eval: ServiceError = PpdError::UnknownName("Nope".into()).into();
        assert!(eval.to_string().contains("Nope"));
        assert!(ServiceError::UnknownDatabase("x".into())
            .to_string()
            .contains("x"));
        assert!(ServiceError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
    }

    #[test]
    fn error_kinds_are_stable_strings() {
        assert_eq!(ServiceError::Overloaded { depth: 1 }.kind(), "overloaded");
        assert_eq!(ServiceError::ShuttingDown.kind(), "shutting-down");
        assert_eq!(
            ServiceError::UnknownDatabase("x".into()).kind(),
            "unknown-database"
        );
        assert_eq!(ServiceError::DeadlineExceeded.kind(), "deadline-exceeded");
        assert_eq!(
            ServiceError::Eval(PpdError::UnknownName("x".into())).kind(),
            "unknown-name"
        );
        assert_eq!(ServiceError::Eval(PpdError::Cancelled).kind(), "cancelled");
        assert_eq!(ServiceError::Protocol("bad".into()).kind(), "protocol");
        assert_eq!(ServiceError::Disconnected.kind(), "disconnected");
    }

    #[test]
    fn submit_options_compose() {
        let options = SubmitOptions::batch()
            .on_database("polls")
            .with_deadline(Duration::from_millis(100))
            .with_error_budget(0.01, 0.95);
        assert_eq!(options.class, AdmissionClass::Batch);
        assert_eq!(options.database.as_deref(), Some("polls"));
        assert_eq!(options.deadline, Some(Duration::from_millis(100)));
        assert_eq!(
            options.error_budget,
            Some(ErrorBudget {
                epsilon: 0.01,
                confidence: 0.95
            })
        );
        assert_eq!(SubmitOptions::default().error_budget, None);
        assert_eq!(
            SubmitOptions::interactive().class,
            AdmissionClass::Interactive
        );
        assert_eq!(AdmissionClass::Batch.name(), "batch");
    }
}
