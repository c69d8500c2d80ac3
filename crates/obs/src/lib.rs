//! Observability for the ppd stack: a metrics registry of lock-free
//! counters, gauges, and log-bucketed latency histograms, plus a trace
//! layer that records per-submission span events into a bounded ring
//! buffer. Hand-rolled on `std` — no tokio, no `tracing` — consistent with
//! the workspace's offline vendor policy.
//!
//! The house rule, inherited from the engine's bit-determinism contract:
//! **observability is purely observational**. Nothing in this crate is ever
//! read back into seeds, cache keys, scheduling, or solver selection — the
//! instruments are write-only from the hot path's point of view, and the
//! engine/service determinism suites pin bit-equality across obs on, off,
//! and sampled.
//!
//! Three pieces:
//!
//! * [`Registry`] + [`Counter`] / [`Gauge`] / [`Histogram`]: instrument
//!   registration is a short mutex hold at startup; every *recording* is a
//!   relaxed atomic op on a pre-resolved handle. [`Registry::render`]
//!   produces Prometheus-style text exposition. Counters and gauges are
//!   always live, so a component can read its own handles as its one store
//!   of a fact (the service's stats do); a disabled registry stores none
//!   of them and makes histograms a branch-and-skip.
//! * [`TraceLog`]: every submission is assigned a trace id; sampled
//!   submissions record [`SpanEvent`]s (admitted, wave-joined,
//!   unit-solved, delivered/expired/cancelled) into a bounded ring,
//!   queryable per trace id.
//! * [`parse_exposition`]: a strict parser for the exposition format, used
//!   by smoke tests to assert the served text is well-formed.

mod metrics;
mod trace;

pub use metrics::{
    parse_exposition, Counter, ExpositionBuilder, Gauge, Histogram, Registry, SECONDS_PER_NANO,
};
pub use trace::{SpanEvent, SpanRecord, TraceLog, TraceMode};

/// How much observability a component runs with. The default is full
/// instrumentation: metrics on, every submission traced. Any mode yields
/// bit-identical answers — the knob trades visibility against a few atomic
/// ops and ring-buffer pushes per query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Whether the registry stores and exposes its instruments. Off turns
    /// off the histograms and the exposition (it renders empty); counters
    /// and gauges keep counting, since the service's stats are read from
    /// them.
    pub metrics: bool,
    /// Which submissions record span events.
    pub trace: TraceMode,
    /// Bound of the span ring buffer, in events. Oldest events fall off.
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            metrics: true,
            trace: TraceMode::All,
            trace_capacity: 8192,
        }
    }
}

impl ObsConfig {
    /// Everything off: no histograms, no exposition, no spans recorded.
    /// Trace ids are still assigned (they are just a counter), so wire
    /// responses keep their shape.
    pub fn off() -> Self {
        ObsConfig {
            metrics: false,
            trace: TraceMode::Off,
            trace_capacity: 0,
        }
    }

    /// Full instrumentation (the default).
    pub fn full() -> Self {
        ObsConfig::default()
    }

    /// Metrics on, but only every `n`-th submission records spans.
    pub fn sampled(n: u64) -> Self {
        ObsConfig {
            trace: TraceMode::SampleEvery(n.max(1)),
            ..ObsConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_config_modes() {
        assert!(ObsConfig::default().metrics);
        assert_eq!(ObsConfig::default().trace, TraceMode::All);
        assert!(!ObsConfig::off().metrics);
        assert_eq!(ObsConfig::off().trace, TraceMode::Off);
        assert_eq!(ObsConfig::sampled(3).trace, TraceMode::SampleEvery(3));
        assert_eq!(
            ObsConfig::sampled(0).trace,
            TraceMode::SampleEvery(1),
            "zero clamps to every submission"
        );
    }
}
