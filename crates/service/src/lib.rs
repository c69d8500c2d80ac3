//! # ppd-service
//!
//! The query front door for [`ppd_core`]: a multi-tenant serving layer that
//! turns a blocking, caller-drives-everything [`Engine`](ppd_core::Engine)
//! into something that can sit under heavy concurrent query traffic — and,
//! via the wire protocol ([`WireServer`]/[`WireClient`]), under remote
//! clients on a socket.
//!
//! ```text
//!  clients (threads or sockets)      dispatcher thread         per-database engines
//!  ───────────────────────────      ─────────────────         ────────────────────
//!  submit_with(request, opts)          admission queue
//!    │ routed by database id     ┌──────────────────────┐
//!    │ (unknown id fails fast)   │ interactive lane ████│──┐  wave: interactive
//!    ├──────────admit───────────▶│ batch lane       ██  │  │  sub-batches first,
//!    │  per-class bounds;        └──────────────────────┘  │  then batch, grouped
//!    ▼  `Overloaded` when full      │ pop what is queued   │  by tenant
//!  Ticket ◀────── cache hits ───────┤ (≤ max_batch), plan: ├─▶ engine("polls")
//!    │ answered from the plan       ▼ ground, dedup, cache ├─▶ engine("movies")
//!    │                           [ wave ] units unsolved?  │   units deduplicated,
//!    │ deadline? then waits         │ only then hold the   │   cost-ordered, solved
//!    ▼ resolve `DeadlineExceeded`   ▼ window ≤ max_wait    │   across the pool
//!  wait() ◀── answer streams back as soon as ──────────────┘
//!             *its* units finish; cancelled/expired
//!             queries release their units
//! ```
//!
//! The layer is hand-rolled on `std::thread` + `std::sync::mpsc` +
//! `std::net` — no async runtime — and has these parts:
//!
//! * **Routing** ([`Service::with_databases`], [`SubmitOptions::on_database`]):
//!   one engine per registered database behind a single admission layer.
//!   Requests route by database id at submission; unknown ids fail with
//!   [`ServiceError::UnknownDatabase`] before anything is queued. The first
//!   database is the default route, which keeps the single-database API
//!   ([`Service::new`] + [`Service::submit`]) unchanged.
//! * **Two admission classes** ([`AdmissionClass`]): `Interactive` and
//!   `Batch` occupy separate bounded lanes
//!   ([`ServiceConfig::max_queue`] / [`ServiceConfig::max_queue_batch`]).
//!   A wave takes every queued interactive request before the first batch
//!   one and runs the interactive sub-batch first, so a batch flood sheds
//!   from its own lane with [`ServiceError::Overloaded`] while interactive
//!   latency stays flat.
//! * **Deadlines and cancellation** ([`SubmitOptions::with_deadline`]): a
//!   request's [`Ticket`] resolves [`ServiceError::DeadlineExceeded`] once
//!   its deadline passes instead of blocking (an answer that already landed
//!   still wins the race). Expired or dropped tickets cancel their request:
//!   the engine skips any work units every remaining dependent of which is
//!   cancelled, without touching co-batched queries.
//! * **Wave batching + streamed answers**: the dispatcher pops whatever is
//!   queued (at most [`ServiceConfig::max_batch`]) and *plans* it first;
//!   co-waved queries on one tenant share deduplicated work units (the
//!   paper's Section 6.4 grouping applied *between* clients), and a query
//!   the cache answers whole is delivered from the plan. Only a wave whose
//!   plan left units to **solve** holds its batching window — at most
//!   [`ServiceConfig::max_wait`] from its first sighting — since only a
//!   solve can be shared; requests arriving meanwhile join its pending
//!   units, and a queued update closes the window. Each ticket resolves as
//!   soon as the last unit *its* query needs completes.
//! * **Per-request error budgets** ([`SubmitOptions::with_error_budget`],
//!   wire fields `epsilon`/`confidence`): a request may override its
//!   tenant's solver with an accuracy target — each per-unit marginal lands
//!   within `±ε` at the given confidence, by exact DP or the budgeted
//!   sampler, whichever the static cost model predicts is cheaper.
//!   Bit-identical budgets share one lazily created engine per tenant, so
//!   their caches warm across requests.
//! * **Wire protocol** ([`WireServer`] / [`WireClient`]): line-delimited
//!   JSON over TCP or Unix sockets, one object per line, answers streamed
//!   out of order and matched by id. Floats cross the socket bit-exactly
//!   (shortest-round-trip formatting), so remote answers are bit-identical
//!   to in-process ones. The framing rule: every frame leaves in one
//!   `write` with its newline appended, and TCP sockets carry `TCP_NODELAY`
//!   on both ends — a reply never waits out a delayed ACK — while accepted
//!   sockets carry a write timeout, so a client that stops reading loses its
//!   connection instead of stalling the dispatcher its replies are written
//!   on. A `{"kind": "stats"}` control frame
//!   ([`WireClient::stats`]) returns the [`ServiceStats`] snapshot plus
//!   per-tenant cache counters as a [`WireStatsReport`].
//! * **Graceful shutdown + stats** ([`Service::shutdown`],
//!   [`ServiceStats`]): shutdown drains every admitted query; the stats
//!   snapshot reports per-class admission counters, queue depths, wave
//!   sizes, latency, expiry counts, and cache counters summed over tenants.
//!
//! **Determinism contract:** for a fixed [`EvalConfig`](ppd_core::EvalConfig)
//! every answer is bit-identical to calling the engine directly — regardless
//! of batch window, arrival order, wave composition, admission class,
//! transport (in-process or wire), or thread count. The engine guarantees
//! this per unit (content-derived seeds and cache keys); the service adds no
//! state of its own to the numbers. The repo's `service_determinism` test
//! pins the contract across both classes and both transports.

mod admission;
mod config;
mod deadline;
mod obs;
mod request;
mod router;
mod service;
mod stats;
mod wire;

pub use config::ServiceConfig;
pub use request::{AdmissionClass, Answer, Request, ServiceError, SubmitOptions, Ticket};
pub use service::{Service, DEFAULT_DATABASE};
pub use stats::ServiceStats;
pub use wire::{WireClient, WireServer, WireStatsReport};
// The observability configuration and trace types are part of the service's
// public surface (`ServiceConfig::obs`, `Service::trace_events`);
// re-exported so embedders need no direct `ppd_obs` dependency.
pub use ppd_obs::{ObsConfig, SpanEvent, SpanRecord, TraceMode};
