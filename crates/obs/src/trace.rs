//! Per-submission tracing: a trace id assigned at the wire/service
//! boundary, span events recorded as the submission moves through
//! admission, wave formation, unit solving, and delivery, all held in one
//! bounded ring buffer queryable per trace id.
//!
//! Recording takes a short mutex on the ring — tracing sits on the
//! per-query path (a handful of events per submission), not the per-sample
//! metrics path, so a lock is fine and keeps eviction exact. Ids are
//! always assigned, even with tracing off, so wire responses keep a stable
//! shape; sampling only decides whether events are *recorded*.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which submissions record span events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No submission records events.
    Off,
    /// Every submission records events.
    All,
    /// Every `n`-th trace id records events (deterministic in the id, so a
    /// given submission's fate doesn't depend on thread timing).
    SampleEvery(u64),
}

/// One step of a submission's journey. Times are microseconds relative to
/// the span that started the trace, except where the event carries its own
/// duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanEvent {
    /// The service accepted the submission into an admission lane.
    Admitted {
        tenant: String,
        class: &'static str,
        depth: usize,
    },
    /// The submission's ticket joined a formed wave: how many work units
    /// the wave holds in total, how many this submission depends on, and
    /// how many of those were already cached.
    WaveJoined {
        wave_units: usize,
        units: usize,
        cached: usize,
    },
    /// One of the submission's work units was solved (not cache-served).
    UnitSolved {
        unit_hash: u64,
        solver: &'static str,
        micros: u64,
    },
    /// The answer reached the ticket, `micros` after the trace started.
    Delivered { micros: u64 },
    /// The deadline passed before delivery.
    Expired { micros: u64 },
    /// The submission was cancelled (ticket dropped / explicit cancel).
    Cancelled { micros: u64 },
    /// Evaluation failed; `error_kind` is the stable per-variant name.
    Failed {
        error_kind: &'static str,
        micros: u64,
    },
}

impl SpanEvent {
    /// The stable lowercase event name used in wire exposition.
    pub fn name(&self) -> &'static str {
        match self {
            SpanEvent::Admitted { .. } => "admitted",
            SpanEvent::WaveJoined { .. } => "wave-joined",
            SpanEvent::UnitSolved { .. } => "unit-solved",
            SpanEvent::Delivered { .. } => "delivered",
            SpanEvent::Expired { .. } => "expired",
            SpanEvent::Cancelled { .. } => "cancelled",
            SpanEvent::Failed { .. } => "failed",
        }
    }

    /// Whether this event ends a trace (no further events expected).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            SpanEvent::Delivered { .. }
                | SpanEvent::Expired { .. }
                | SpanEvent::Cancelled { .. }
                | SpanEvent::Failed { .. }
        )
    }
}

/// One recorded event: which trace, a global sequence number (total order
/// across all traces), when relative to the log's epoch, and what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub trace: u64,
    pub seq: u64,
    pub at_micros: u64,
    pub event: SpanEvent,
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<SpanRecord>,
    seq: u64,
}

/// The bounded span ring. Shared (`Arc`) between the service front door,
/// the engine, and the wire layer.
#[derive(Debug)]
pub struct TraceLog {
    mode: TraceMode,
    capacity: usize,
    next_id: AtomicU64,
    epoch: Instant,
    ring: Mutex<Ring>,
}

impl TraceLog {
    pub fn new(mode: TraceMode, capacity: usize) -> Self {
        TraceLog {
            mode,
            capacity,
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            ring: Mutex::new(Ring {
                events: VecDeque::new(),
                seq: 0,
            }),
        }
    }

    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Assigns the next trace id. Ids are never 0 (0 means "untraced" in
    /// carriers that default it) and are assigned regardless of mode.
    pub fn assign(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Whether events for `trace` are recorded under the current mode.
    pub fn traced(&self, trace: u64) -> bool {
        if trace == 0 {
            return false;
        }
        match self.mode {
            TraceMode::Off => false,
            TraceMode::All => true,
            TraceMode::SampleEvery(n) => trace.is_multiple_of(n.max(1)),
        }
    }

    /// Microseconds since the log was created (the timeline's time base).
    fn now_micros(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Records `event` for `trace` if it is sampled. Oldest events fall
    /// off when the ring is full.
    pub fn record(&self, trace: u64, event: SpanEvent) {
        if !self.traced(trace) || self.capacity == 0 {
            return;
        }
        let at_micros = self.now_micros();
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        ring.seq += 1;
        let seq = ring.seq;
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(SpanRecord {
            trace,
            seq,
            at_micros,
            event,
        });
    }

    /// All still-buffered events for `trace`, in recording order.
    pub fn events(&self, trace: u64) -> Vec<SpanRecord> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        ring.events
            .iter()
            .filter(|r| r.trace == trace)
            .cloned()
            .collect()
    }

    /// Total events recorded since creation (monotone; not bounded by
    /// capacity).
    pub fn recorded(&self) -> u64 {
        self.ring.lock().expect("trace ring poisoned").seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assigns_distinct_nonzero_ids() {
        let log = TraceLog::new(TraceMode::All, 16);
        let a = log.assign();
        let b = log.assign();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn records_and_queries_per_trace() {
        let log = TraceLog::new(TraceMode::All, 16);
        let t1 = log.assign();
        let t2 = log.assign();
        log.record(
            t1,
            SpanEvent::Admitted {
                tenant: "a".into(),
                class: "interactive",
                depth: 1,
            },
        );
        log.record(t2, SpanEvent::Delivered { micros: 5 });
        log.record(t1, SpanEvent::Delivered { micros: 9 });
        let events = log.events(t1);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].event.name(), "admitted");
        assert_eq!(events[1].event.name(), "delivered");
        assert!(events[0].seq < events[1].seq);
        assert!(events[1].event.is_terminal());
        assert_eq!(log.events(t2).len(), 1);
        assert_eq!(log.recorded(), 3);
    }

    #[test]
    fn ring_is_bounded_and_drops_oldest() {
        let log = TraceLog::new(TraceMode::All, 4);
        let t = log.assign();
        for i in 0..10 {
            log.record(t, SpanEvent::Delivered { micros: i });
        }
        let events = log.events(t);
        assert_eq!(events.len(), 4, "capacity bounds the ring");
        assert!(
            matches!(events[0].event, SpanEvent::Delivered { micros: 6 }),
            "oldest fell off"
        );
        assert_eq!(log.recorded(), 10, "monotone count unaffected");
    }

    #[test]
    fn off_and_sampled_modes() {
        let off = TraceLog::new(TraceMode::Off, 16);
        let t = off.assign();
        off.record(t, SpanEvent::Delivered { micros: 1 });
        assert!(off.events(t).is_empty());
        assert!(!off.traced(t));

        let sampled = TraceLog::new(TraceMode::SampleEvery(3), 16);
        assert!(!sampled.traced(1));
        assert!(sampled.traced(3));
        assert!(!sampled.traced(4));
        assert!(sampled.traced(6));
        assert!(!sampled.traced(0), "0 is the untraced sentinel");
    }
}
