//! The service's instrument bundle: the metrics [`Registry`] and span
//! [`TraceLog`] every layer of the front door records into, plus
//! pre-resolved handles for the service-level instruments (lane depths,
//! shedding, deadline expiries, queue wait, wave formation, per-tenant
//! wave sizes).
//!
//! Everything here is purely observational: no instrument is ever read
//! back into admission, scheduling, solver selection, seeds, or cache
//! keys, so a service with observability off, fully on, or sampled
//! delivers bit-identical answers (`tests/service_determinism.rs` pins
//! this).

use crate::request::{AdmissionClass, Delivery, ServiceError};
use ppd_core::{EngineObs, PpdError};
use ppd_obs::{
    Counter, Gauge, Histogram, ObsConfig, Registry, SpanEvent, TraceLog, SECONDS_PER_NANO,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stable lane labels, indexed by [`AdmissionClass::lane`].
const LANE_TAGS: [&str; 2] = ["interactive", "batch"];

/// Pre-resolved service instruments plus the shared registry and span
/// ring. One per service, shared by reference through `Inner`.
pub(crate) struct ServiceObs {
    registry: Registry,
    trace: Arc<TraceLog>,
    started: Instant,
    /// Live wave count, kept in a plain atomic so `ServiceStats` reports
    /// it even with metrics off; mirrored into the gauge.
    in_flight: AtomicU64,
    in_flight_waves: Gauge,
    uptime_seconds: Gauge,
    /// Current admission-lane depth, by lane.
    lane_depth: [Gauge; 2],
    /// Submissions refused by admission control (`Overloaded`), by lane.
    shed_total: [Counter; 2],
    /// Deliveries that resolved `DeadlineExceeded`.
    deadline_expired: Counter,
    /// Submission-to-wave-pop wait.
    queue_wait: Histogram,
    /// How long each wave held its batching window open for joiners.
    wave_window: Histogram,
    /// Per-tenant group size within a wave, indexed like the router's
    /// tenants.
    wave_size: Vec<Histogram>,
}

impl ServiceObs {
    /// Builds the bundle for a service over `tenants` (registration order,
    /// duplicates already dropped — indices must match the router's).
    pub(crate) fn new(config: &ObsConfig, tenants: &[&str]) -> Self {
        let registry = Registry::new(config.metrics);
        let trace = Arc::new(TraceLog::new(config.trace, config.trace_capacity));
        let lane_depth = std::array::from_fn(|lane| {
            registry.gauge(
                "ppd_queue_depth",
                "Submissions currently waiting in an admission lane",
                &[("lane", LANE_TAGS[lane])],
            )
        });
        let shed_total = std::array::from_fn(|lane| {
            registry.counter(
                "ppd_shed_total",
                "Submissions refused by admission control, by lane",
                &[("lane", LANE_TAGS[lane])],
            )
        });
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
            in_flight: AtomicU64::new(0),
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
            deadline_expired: registry.counter(
                "ppd_deadline_expired_total",
                "Deliveries that resolved DeadlineExceeded",
                &[],
            ),
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
            lane_depth,
            shed_total,
            wave_size,
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

    /// One submission entered its lane at `depth`: records its `admitted`
    /// span and the lane gauge. Called from inside the admission push,
    /// *before* the job is visible to the dispatcher, which may pop it (and
    /// record `wave-joined`) the instant it is: recording afterwards would
    /// let a traced timeline start mid-wave.
    pub(crate) fn admitted(&self, trace: u64, tenant: &str, class: AdmissionClass, depth: usize) {
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
        self.lane_depth[class.lane()].set(depth as i64);
    }

    /// One submission was refused (`Overloaded`).
    pub(crate) fn shed(&self, class: AdmissionClass) {
        self.shed_total[class.lane()].inc();
    }

    /// Admission refused a submission (lane full, or shutting down): its
    /// timeline is the one terminal `failed` event.
    pub(crate) fn rejected(&self, trace: u64, error: &ServiceError) {
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

    /// The dispatcher popped a wave: record the lane depths it left behind
    /// and count the wave in flight.
    pub(crate) fn wave_started(&self, depths: [usize; 2]) {
        for (gauge, depth) in self.lane_depth.iter().zip(depths) {
            gauge.set(depth as i64);
        }
        let live = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.in_flight_waves.set(live as i64);
    }

    /// How long the wave held its batching window open — zero for a wave
    /// whose plan left nothing to solve.
    pub(crate) fn wave_window(&self, held: Duration) {
        self.wave_window.record_duration(held);
    }

    /// The wave's last group finished.
    pub(crate) fn wave_finished(&self) {
        let live = self.in_flight.fetch_sub(1, Ordering::Relaxed) - 1;
        self.in_flight_waves.set(live as i64);
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

    /// One delivery left the service: emit the terminal span event and the
    /// expiry / error-kind counters. `latency` is submit-to-delivery.
    pub(crate) fn finished(&self, trace: u64, delivery: &Delivery, latency: Duration) {
        if let Err(e) = delivery {
            let kind = e.kind();
            self.registry
                .counter(
                    "ppd_errors_total",
                    "Deliveries that failed, by stable error kind",
                    &[("kind", kind)],
                )
                .inc();
            if matches!(e, ServiceError::DeadlineExceeded) {
                self.deadline_expired.inc();
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

    /// Time since the service started.
    pub(crate) fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Waves currently in flight (0 or 1 with one dispatcher).
    pub(crate) fn in_flight_waves(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Renders the Prometheus-style exposition, refreshing the computed
    /// gauges (uptime) first.
    pub(crate) fn render(&self) -> String {
        self.uptime_seconds.set(self.uptime().as_secs() as i64);
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
        // The pop drains the lane: the wave resets the post-pop depths.
        obs.wave_started([2, 0]);
        obs.wave_window(Duration::from_micros(10));
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
        let text = obs.render();
        assert!(
            text.contains("ppd_queue_depth{lane=\"interactive\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("ppd_wave_group_size_count{tenant=\"a\"} 1"),
            "{text}"
        );
        assert!(text.contains("ppd_in_flight_waves 0"), "{text}");
        assert!(text.contains("ppd_uptime_seconds"), "{text}");
        assert_eq!(obs.in_flight_waves(), 0);
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
        let text = obs.render();
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
        assert_eq!(obs.trace().events(t2)[0].event.name(), "expired");
        assert_eq!(obs.trace().events(t3)[0].event.name(), "cancelled");
        assert_eq!(obs.trace().events(t1)[0].event.name(), "failed");
    }

    #[test]
    fn rejected_submission_timeline_is_terminal() {
        let obs = ServiceObs::new(&ObsConfig::full(), &["a"]);
        let trace = obs.trace().assign();
        obs.shed(AdmissionClass::Interactive);
        obs.rejected(trace, &ServiceError::Overloaded { depth: 9 });
        let events = obs.trace().events(trace);
        assert_eq!(events.len(), 1, "a shed submission never entered a lane");
        assert_eq!(events[0].event.name(), "failed");
        assert!(events[0].event.is_terminal());
        assert!(obs
            .render()
            .contains("ppd_shed_total{lane=\"interactive\"} 1"));
    }

    #[test]
    fn off_bundle_records_nothing_but_still_assigns_ids() {
        let obs = ServiceObs::new(&ObsConfig::off(), &["a"]);
        let trace = obs.trace().assign();
        assert_ne!(trace, 0, "ids flow even with tracing off");
        obs.admitted(trace, "a", AdmissionClass::Batch, 1);
        obs.finished(trace, &Err(ServiceError::Disconnected), Duration::ZERO);
        assert!(obs.trace().events(trace).is_empty());
        assert_eq!(obs.render(), "", "disabled registry renders nothing");
        assert_eq!(obs.in_flight_waves(), 0);
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
