//! The service's instrument bundle and its one store of service facts:
//! the metrics [`Registry`] and span [`TraceLog`] every layer of the front
//! door records into, plus pre-resolved handles for the service-level
//! instruments — admissions, sheds and deliveries by outcome, latency,
//! lane depths, waves in flight, queue wait, wave formation, per-tenant
//! wave sizes.
//!
//! [`ServiceStats`] is a snapshot of these handles
//! ([`ServiceObs::stats`]): each fact is counted once, by a counter or
//! gauge that stays live with metrics off (a disabled registry only stops
//! storing and exposing them). The one other record is the exact
//! wave-size table, written by the dispatcher once per wave — the log
//! histogram is exact only below 64. No lock is taken on the per-request
//! path.
//!
//! Everything here is purely observational: no instrument is ever read
//! back into admission, scheduling, solver selection, seeds, or cache
//! keys, so a service with observability off, fully on, or sampled
//! delivers bit-identical answers (`tests/service_determinism.rs` pins
//! this).

use crate::request::{AdmissionClass, Delivery, ServiceError};
use crate::stats::ServiceStats;
use ppd_core::{CacheStats, EngineObs, PpdError};
use ppd_obs::{
    Counter, Gauge, Histogram, ObsConfig, Registry, SpanEvent, TraceLog, SECONDS_PER_NANO,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Stable lane labels, indexed by [`AdmissionClass::lane`].
const LANE_TAGS: [&str; 2] = ["interactive", "batch"];

/// The stable error kinds ([`ServiceError::kind`]) a delivery can carry —
/// every kind but admission's refusals and the wire's protocol errors,
/// which are answered before a job exists. Their `ppd_errors_total`
/// series are resolved once, at start-up.
const DELIVERY_ERROR_KINDS: [&str; 10] = [
    "deadline-exceeded",
    "disconnected",
    "unknown-name",
    "malformed",
    "unsupported-query",
    "pattern",
    "rim",
    "solver",
    "persist",
    "cancelled",
];

/// Pre-resolved service instruments plus the shared registry and span
/// ring. One per service, shared by reference through `Inner`.
pub(crate) struct ServiceObs {
    registry: Registry,
    trace: Arc<TraceLog>,
    started: Instant,
    in_flight_waves: Gauge,
    uptime_seconds: Gauge,
    /// Admission-lane depth, by lane; refreshed from the queue at render
    /// time.
    lane_depth: [Gauge; 2],
    /// Submissions admitted, by lane.
    submitted: [Counter; 2],
    /// Of those, queries the cache answered whole at admission, on the
    /// submitting thread: they never entered a lane.
    answered_at_admission: Counter,
    /// Submissions refused by admission control (`Overloaded`), by lane.
    shed_total: [Counter; 2],
    /// Deliveries by outcome, as [`ServiceStats`] classifies them.
    answered: Counter,
    failed: Counter,
    expired: Counter,
    updates_applied: Counter,
    /// Submit-to-delivery latency over every delivery: sum and maximum, in
    /// nanoseconds.
    latency_ns: Counter,
    latency_max_ns: Gauge,
    /// Deliveries that resolved `DeadlineExceeded`.
    deadline_expired: Counter,
    /// Failed deliveries by stable error kind, one per
    /// [`DELIVERY_ERROR_KINDS`] entry.
    errors: Vec<(&'static str, Counter)>,
    /// Submission-to-wave-pop wait.
    queue_wait: Histogram,
    /// How long each wave held its batching window open for joiners.
    wave_window: Histogram,
    /// Per-tenant group size within a wave, indexed like the router's
    /// tenants.
    wave_size: Vec<Histogram>,
    /// Exact wave sizes: size → waves of that size. Written by the
    /// dispatcher once per wave and read by [`ServiceObs::stats`].
    waves: Mutex<BTreeMap<usize, u64>>,
}

impl ServiceObs {
    /// Builds the bundle for a service over `tenants` (registration order,
    /// duplicates already dropped — indices must match the router's).
    pub(crate) fn new(config: &ObsConfig, tenants: &[&str]) -> Self {
        let registry = Registry::new(config.metrics);
        let trace = Arc::new(TraceLog::new(config.trace, config.trace_capacity));
        let by_lane = |name: &str, help: &str| {
            std::array::from_fn(|lane| registry.counter(name, help, &[("lane", LANE_TAGS[lane])]))
        };
        let counter = |name: &str, help: &str| registry.counter(name, help, &[]);
        let wave_size = tenants
            .iter()
            .map(|tenant| {
                registry.histogram(
                    "ppd_wave_group_size",
                    "Queries per tenant group within a dispatched wave; observed when \
                     the wave's groups execute, after its plan stage has already \
                     delivered the answers the cache held whole",
                    &[("tenant", tenant)],
                    1.0,
                )
            })
            .collect();
        ServiceObs {
            in_flight_waves: registry.gauge(
                "ppd_in_flight_waves",
                "Waves currently being executed by the dispatcher",
                &[],
            ),
            uptime_seconds: registry.gauge(
                "ppd_uptime_seconds",
                "Whole seconds since the service started",
                &[],
            ),
            lane_depth: std::array::from_fn(|lane| {
                registry.gauge(
                    "ppd_queue_depth",
                    "Submissions currently waiting in an admission lane",
                    &[("lane", LANE_TAGS[lane])],
                )
            }),
            submitted: by_lane("ppd_submitted_total", "Submissions admitted, by lane"),
            answered_at_admission: counter(
                "ppd_answered_at_admission_total",
                "Queries the cache answered whole on the submitting thread, never queued",
            ),
            shed_total: by_lane(
                "ppd_shed_total",
                "Submissions refused by admission control, by lane",
            ),
            answered: counter(
                "ppd_answered_total",
                "Deliveries that carried an answer (update receipts included)",
            ),
            failed: counter(
                "ppd_failed_total",
                "Deliveries that carried an error other than an expiry or a cancellation",
            ),
            expired: counter(
                "ppd_expired_total",
                "Deliveries that resolved DeadlineExceeded or were cancelled",
            ),
            updates_applied: counter(
                "ppd_updates_applied_total",
                "Database updates applied between waves",
            ),
            latency_ns: counter(
                "ppd_delivery_latency_nanoseconds_total",
                "Submit-to-delivery latency summed over every delivery",
            ),
            latency_max_ns: registry.gauge(
                "ppd_delivery_latency_max_nanoseconds",
                "Worst submit-to-delivery latency so far",
                &[],
            ),
            deadline_expired: counter(
                "ppd_deadline_expired_total",
                "Deliveries that resolved DeadlineExceeded",
            ),
            errors: DELIVERY_ERROR_KINDS
                .iter()
                .map(|&kind| {
                    let help = "Deliveries that failed, by stable error kind";
                    (
                        kind,
                        registry.counter("ppd_errors_total", help, &[("kind", kind)]),
                    )
                })
                .collect(),
            queue_wait: registry.histogram(
                "ppd_queue_wait_seconds",
                "Submission-to-wave-pop wait",
                &[],
                SECONDS_PER_NANO,
            ),
            wave_window: registry.histogram(
                "ppd_wave_window_seconds",
                "Time each wave held its batching window open for joiners",
                &[],
                SECONDS_PER_NANO,
            ),
            wave_size,
            waves: Mutex::default(),
            registry,
            trace,
            started: Instant::now(),
        }
    }

    /// The shared span ring (trace ids are assigned from it even when
    /// tracing is off, so wire responses keep a stable shape).
    pub(crate) fn trace(&self) -> &Arc<TraceLog> {
        &self.trace
    }

    /// The engine instrument bundle for one tenant's engine, its cells
    /// labelled by tenant.
    pub(crate) fn engine_obs(&self, tenant: &str) -> EngineObs {
        EngineObs::new(&self.registry, &[("tenant", tenant)]).with_trace(Arc::clone(&self.trace))
    }

    /// One submission entered its lane at `depth`: counts it and records
    /// its `admitted` span. Called from inside the admission push, *before*
    /// the job is visible to the dispatcher, which may pop it (and record
    /// `wave-joined`) the instant it is: recording afterwards would let a
    /// traced timeline start mid-wave, and a delivery be counted before its
    /// submission.
    pub(crate) fn admitted(&self, trace: u64, tenant: &str, class: AdmissionClass, depth: usize) {
        self.submitted[class.lane()].inc();
        if self.trace.traced(trace) {
            self.trace.record(
                trace,
                SpanEvent::Admitted {
                    tenant: tenant.to_string(),
                    class: class.name(),
                    depth,
                },
            );
        }
    }

    /// One query was answered at admission, on the submitting thread, and
    /// never entered a lane: counted as submitted (with an `admitted` span
    /// at depth 0) and as answered there. Its delivery is recorded by
    /// [`ServiceObs::finished`], like any other; no `wave-joined` precedes
    /// it.
    pub(crate) fn answered_at_admission(&self, trace: u64, tenant: &str, class: AdmissionClass) {
        self.admitted(trace, tenant, class, 0);
        self.answered_at_admission.inc();
    }

    /// Admission refused a submission: a full lane (`Overloaded`, counted as
    /// shed) or shutdown. Its timeline is the one terminal `failed` event.
    pub(crate) fn rejected(&self, trace: u64, class: AdmissionClass, error: &ServiceError) {
        if let ServiceError::Overloaded { .. } = error {
            self.shed_total[class.lane()].inc();
        }
        if self.trace.traced(trace) {
            self.trace.record(
                trace,
                SpanEvent::Failed {
                    error_kind: error.kind(),
                    micros: 0,
                },
            );
        }
    }

    /// The dispatcher popped a wave.
    pub(crate) fn wave_started(&self) {
        self.in_flight_waves.add(1);
    }

    /// The wave closed its window at `size` jobs, after holding it open for
    /// `held` — zero for a wave whose plan left nothing to solve.
    pub(crate) fn wave_formed(&self, size: usize, held: Duration) {
        *self
            .waves
            .lock()
            .expect("wave record poisoned")
            .entry(size)
            .or_insert(0) += 1;
        self.wave_window.record_duration(held);
    }

    /// The wave's last group finished.
    pub(crate) fn wave_finished(&self) {
        self.in_flight_waves.add(-1);
    }

    /// How long one popped job waited in its lane.
    pub(crate) fn queue_wait(&self, wait: Duration) {
        self.queue_wait.record_duration(wait);
    }

    /// Size of one tenant's query group within a wave.
    ///
    /// Observed when the wave's groups execute, after the whole plan stage.
    /// The plan stage already delivers every answer the cache holds whole,
    /// and a warm answer must not wait for its wave's other plans, so a
    /// scrape right after a cached answer may precede its wave's
    /// observation.
    pub(crate) fn wave_group(&self, tenant: usize, size: usize) {
        if let Some(h) = self.wave_size.get(tenant) {
            h.record(size as u64);
        }
    }

    /// One database update was applied.
    pub(crate) fn update_applied(&self) {
        self.updates_applied.inc();
    }

    /// One delivery left the service: count it by outcome — an answer, an
    /// expiry (`DeadlineExceeded`, or abandoned by cancellation), or a
    /// failure — with its submit-to-delivery `latency` and error kind, and
    /// emit the terminal span event.
    pub(crate) fn finished(&self, trace: u64, delivery: &Delivery, latency: Duration) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.latency_ns.add(nanos);
        self.latency_max_ns
            .max(i64::try_from(nanos).unwrap_or(i64::MAX));
        match delivery {
            Ok(_) => self.answered.inc(),
            Err(e) => {
                if let Some((_, counter)) = self.errors.iter().find(|(k, _)| *k == e.kind()) {
                    counter.inc();
                }
                match e {
                    ServiceError::DeadlineExceeded => {
                        self.deadline_expired.inc();
                        self.expired.inc();
                    }
                    ServiceError::Eval(PpdError::Cancelled) => self.expired.inc(),
                    _ => self.failed.inc(),
                }
            }
        }
        if !self.trace.traced(trace) {
            return;
        }
        let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let event = match delivery {
            Ok(_) => SpanEvent::Delivered { micros },
            Err(ServiceError::DeadlineExceeded) => SpanEvent::Expired { micros },
            Err(ServiceError::Eval(PpdError::Cancelled)) => SpanEvent::Cancelled { micros },
            Err(e) => SpanEvent::Failed {
                error_kind: e.kind(),
                micros,
            },
        };
        self.trace.record(trace, event);
    }

    /// The snapshot [`Service::stats`](crate::Service::stats) reports: the
    /// counters and gauges as they stand, the lane `depths` the admission
    /// queue reports, and the engines' summed `cache` counters.
    pub(crate) fn stats(&self, depths: [usize; 2], cache: CacheStats) -> ServiceStats {
        let wave_sizes: Vec<(usize, u64)> = {
            let waves = self.waves.lock().expect("wave record poisoned");
            waves.iter().map(|(&size, &n)| (size, n)).collect()
        };
        let [interactive, batch] = [AdmissionClass::Interactive, AdmissionClass::Batch];
        let (answered, failed, expired) =
            (self.answered.get(), self.failed.get(), self.expired.get());
        let delivered = answered + failed + expired;
        ServiceStats {
            submitted: self.submitted.iter().map(Counter::get).sum(),
            rejected: self.shed_total.iter().map(Counter::get).sum(),
            interactive_submitted: self.submitted[interactive.lane()].get(),
            interactive_rejected: self.shed_total[interactive.lane()].get(),
            batch_submitted: self.submitted[batch.lane()].get(),
            batch_rejected: self.shed_total[batch.lane()].get(),
            answered,
            answered_at_admission: self.answered_at_admission.get(),
            failed,
            expired,
            updates_applied: self.updates_applied.get(),
            queue_depth: depths.iter().sum(),
            interactive_queue_depth: depths[interactive.lane()],
            batch_queue_depth: depths[batch.lane()],
            uptime: self.started.elapsed(),
            in_flight_waves: self.in_flight_waves.get().max(0) as u64,
            waves: wave_sizes.iter().map(|&(_, n)| n).sum(),
            max_wave: wave_sizes.last().map_or(0, |&(size, _)| size),
            wave_sizes,
            mean_latency: Duration::from_nanos(
                self.latency_ns.get().checked_div(delivered).unwrap_or(0),
            ),
            max_latency: Duration::from_nanos(self.latency_max_ns.get().max(0) as u64),
            cache,
        }
    }

    /// Renders the Prometheus-style exposition, refreshing the computed
    /// gauges first: uptime, and the lane `depths` the admission queue
    /// reports now.
    pub(crate) fn render(&self, depths: [usize; 2]) -> String {
        self.uptime_seconds
            .set(self.started.elapsed().as_secs() as i64);
        for (gauge, depth) in self.lane_depth.iter().zip(depths) {
            gauge.set(depth as i64);
        }
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppd_obs::TraceMode;

    #[test]
    fn admitted_and_finished_record_spans_and_counters() {
        let obs = ServiceObs::new(&ObsConfig::full(), &["a", "b"]);
        let trace = obs.trace().assign();
        obs.admitted(trace, "a", AdmissionClass::Interactive, 3);
        obs.queue_wait(Duration::from_micros(40));
        obs.wave_started();
        obs.wave_formed(1, Duration::from_micros(10));
        obs.wave_group(0, 2);
        obs.wave_group(99, 2); // out of range: ignored, not panicked
        obs.finished(
            trace,
            &Ok(crate::request::Answer::Boolean(0.5)),
            Duration::from_micros(90),
        );
        obs.wave_finished();
        let events = obs.trace().events(trace);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].event.name(), "admitted");
        assert_eq!(events[1].event.name(), "delivered");
        // The lane gauges read the depths the queue reports at render time.
        let text = obs.render([2, 0]);
        assert!(
            text.contains("ppd_queue_depth{lane=\"interactive\"} 2"),
            "{text}"
        );
        assert!(text.contains("ppd_answered_total 1"), "{text}");
        assert!(
            text.contains("ppd_delivery_latency_nanoseconds_total 90000"),
            "{text}"
        );
        assert!(
            text.contains("ppd_wave_group_size_count{tenant=\"a\"} 1"),
            "{text}"
        );
        assert!(text.contains("ppd_in_flight_waves 0"), "{text}");
        assert!(text.contains("ppd_uptime_seconds"), "{text}");
        let stats = obs.stats([2, 0], CacheStats::default());
        assert_eq!(stats.in_flight_waves, 0);
        assert_eq!((stats.answered, stats.waves, stats.max_wave), (1, 1, 1));
        assert_eq!(stats.max_latency, Duration::from_micros(90));
    }

    #[test]
    fn failures_count_by_kind_and_expiries_split_out() {
        let obs = ServiceObs::new(&ObsConfig::full(), &["a"]);
        let t1 = obs.trace().assign();
        let t2 = obs.trace().assign();
        let t3 = obs.trace().assign();
        obs.finished(
            t1,
            &Err(ServiceError::Eval(PpdError::UnknownName("x".into()))),
            Duration::from_micros(5),
        );
        obs.finished(
            t2,
            &Err(ServiceError::DeadlineExceeded),
            Duration::from_micros(5),
        );
        obs.finished(
            t3,
            &Err(ServiceError::Eval(PpdError::Cancelled)),
            Duration::from_micros(5),
        );
        let text = obs.render([0, 0]);
        assert!(
            text.contains("ppd_errors_total{kind=\"unknown-name\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ppd_errors_total{kind=\"deadline-exceeded\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ppd_errors_total{kind=\"cancelled\"} 1"),
            "{text}"
        );
        assert!(text.contains("ppd_deadline_expired_total 1"), "{text}");
        let stats = obs.stats([0, 0], CacheStats::default());
        assert_eq!((stats.failed, stats.expired), (1, 2));
        assert_eq!(obs.trace().events(t2)[0].event.name(), "expired");
        assert_eq!(obs.trace().events(t3)[0].event.name(), "cancelled");
        assert_eq!(obs.trace().events(t1)[0].event.name(), "failed");
    }

    #[test]
    fn rejected_submission_timeline_is_terminal() {
        let obs = ServiceObs::new(&ObsConfig::full(), &["a"]);
        let (shed, late) = (obs.trace().assign(), obs.trace().assign());
        let overloaded = ServiceError::Overloaded { depth: 9 };
        obs.rejected(shed, AdmissionClass::Interactive, &overloaded);
        obs.rejected(late, AdmissionClass::Batch, &ServiceError::ShuttingDown);
        for trace in [shed, late] {
            let events = obs.trace().events(trace);
            assert_eq!(events.len(), 1, "a refused submission never entered a lane");
            assert_eq!(events[0].event.name(), "failed");
            assert!(events[0].event.is_terminal());
        }
        assert!(obs
            .render([0, 0])
            .contains("ppd_shed_total{lane=\"interactive\"} 1"));
        let stats = obs.stats([0, 0], CacheStats::default());
        assert_eq!(
            (stats.rejected, stats.batch_rejected),
            (1, 0),
            "shutdown sheds nothing"
        );
    }

    #[test]
    fn off_bundle_records_nothing_but_still_assigns_ids() {
        let obs = ServiceObs::new(&ObsConfig::off(), &["a"]);
        let trace = obs.trace().assign();
        assert_ne!(trace, 0, "ids flow even with tracing off");
        obs.admitted(trace, "a", AdmissionClass::Batch, 1);
        obs.finished(trace, &Err(ServiceError::Disconnected), Duration::ZERO);
        assert!(obs.trace().events(trace).is_empty());
        assert_eq!(obs.render([1, 0]), "", "disabled registry renders nothing");
    }

    #[test]
    fn off_bundle_still_counts_every_stats_fact() {
        let obs = ServiceObs::new(&ObsConfig::off(), &["a"]);
        let overloaded = ServiceError::Overloaded { depth: 1 };
        obs.admitted(obs.trace().assign(), "a", AdmissionClass::Batch, 1);
        obs.rejected(0, AdmissionClass::Interactive, &overloaded);
        obs.wave_started();
        obs.wave_formed(70, Duration::ZERO);
        obs.update_applied();
        let (t1, t2) = (obs.trace().assign(), obs.trace().assign());
        obs.finished(
            t1,
            &Err(ServiceError::Disconnected),
            Duration::from_micros(3),
        );
        obs.finished(t2, &Err(ServiceError::DeadlineExceeded), Duration::ZERO);
        let stats = obs.stats([0, 4], CacheStats::default());
        assert_eq!((stats.batch_submitted, stats.interactive_rejected), (1, 1));
        assert_eq!(
            (stats.failed, stats.expired, stats.updates_applied),
            (1, 1, 1)
        );
        assert_eq!((stats.in_flight_waves, stats.batch_queue_depth), (1, 4));
        assert_eq!(
            stats.wave_sizes,
            vec![(70, 1)],
            "exact past the histogram's 64"
        );
        assert_eq!(stats.mean_latency, Duration::from_nanos(1500));
        assert_eq!(obs.render([0, 4]), "");
    }

    #[test]
    fn every_deliverable_error_kind_is_resolved_at_start_up() {
        let obs = ServiceObs::new(&ObsConfig::full(), &["a"]);
        let deliverable = [
            ServiceError::DeadlineExceeded,
            ServiceError::Disconnected,
            ServiceError::Eval(PpdError::UnknownName("x".into())),
            ServiceError::Eval(PpdError::Malformed("x".into())),
            ServiceError::Eval(PpdError::UnsupportedQuery("x".into())),
            ServiceError::Eval(PpdError::Persist("x".into())),
            ServiceError::Eval(PpdError::Cancelled),
        ];
        for error in &deliverable {
            assert!(
                DELIVERY_ERROR_KINDS.contains(&error.kind()),
                "{} failures would go uncounted by kind",
                error.kind()
            );
        }
        let text = obs.render([0, 0]);
        for kind in DELIVERY_ERROR_KINDS {
            let series = format!("ppd_errors_total{{kind=\"{kind}\"}} 0");
            assert!(text.contains(&series), "{text}");
        }
    }

    #[test]
    fn sampled_mode_traces_deterministically_by_id() {
        let obs = ServiceObs::new(
            &ObsConfig {
                metrics: true,
                trace: TraceMode::SampleEvery(2),
                trace_capacity: 64,
            },
            &["a"],
        );
        let odd = obs.trace().assign(); // 1
        let even = obs.trace().assign(); // 2
        obs.finished(
            odd,
            &Ok(crate::request::Answer::Boolean(1.0)),
            Duration::ZERO,
        );
        obs.finished(
            even,
            &Ok(crate::request::Answer::Boolean(1.0)),
            Duration::ZERO,
        );
        assert!(obs.trace().events(odd).is_empty());
        assert_eq!(obs.trace().events(even).len(), 1);
    }
}
