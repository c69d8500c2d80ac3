//! The [`ServiceStats`] snapshot: what the `stats` verb reports, read from
//! the same counters and gauges the `metrics` verb exposes (the service's
//! instrument bundle is their one store), so the two verbs never disagree,
//! and every count in the snapshot stays live with metrics off.

use ppd_core::CacheStats;
use std::time::Duration;

/// Snapshot of a service's activity since construction.
///
/// `answered + failed + expired` accounts for every admitted job, whether
/// it was answered at admission or left the queue;
/// `submitted − answered − failed − expired − queue_depth` is the number
/// currently being solved. Per-class splits of `submitted` and
/// `rejected` are in the `interactive_*` / `batch_*` fields.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Queries admitted across both classes.
    pub submitted: u64,
    /// Queries refused by admission control (`Overloaded`), both classes.
    pub rejected: u64,
    /// Interactive queries admitted.
    pub interactive_submitted: u64,
    /// Interactive queries refused by admission control.
    pub interactive_rejected: u64,
    /// Batch queries admitted.
    pub batch_submitted: u64,
    /// Batch queries refused by admission control.
    pub batch_rejected: u64,
    /// Queries answered successfully.
    pub answered: u64,
    /// Of `answered`, the queries the marginal cache answered whole at
    /// admission, on the submitting thread: they never entered the queue or
    /// a wave, so `wave_sizes` carries `submitted − answered_at_admission`
    /// jobs once the service is idle.
    pub answered_at_admission: u64,
    /// Queries delivered an evaluation error.
    pub failed: u64,
    /// Queries resolved `DeadlineExceeded` or abandoned by cancellation.
    pub expired: u64,
    /// Database updates applied (admitted like requests, applied between
    /// waves; rejected updates count under `failed`).
    pub updates_applied: u64,
    /// Queries currently waiting in the admission queue (both lanes).
    pub queue_depth: usize,
    /// Queries currently waiting in the interactive lane.
    pub interactive_queue_depth: usize,
    /// Queries currently waiting in the batch lane.
    pub batch_queue_depth: usize,
    /// Time since the service started.
    pub uptime: Duration,
    /// Waves being executed right now (0 or 1 with one dispatcher).
    pub in_flight_waves: u64,
    /// Waves dispatched so far.
    pub waves: u64,
    /// Size of the largest wave.
    pub max_wave: usize,
    /// Wave-size histogram: `(size, number of waves of that size)`,
    /// ascending by size.
    pub wave_sizes: Vec<(usize, u64)>,
    /// Mean submit-to-delivery latency over delivered queries.
    pub mean_latency: Duration,
    /// Worst submit-to-delivery latency.
    pub max_latency: Duration,
    /// The engines' cache counters summed across tenants, carried over so
    /// one snapshot tells the whole story (the hit rate is where batching
    /// pays off).
    pub cache: CacheStats,
}

impl ServiceStats {
    /// Mean wave size (0 before the first wave).
    pub fn mean_wave_size(&self) -> f64 {
        if self.waves == 0 {
            return 0.0;
        }
        let batched: u64 = self
            .wave_sizes
            .iter()
            .map(|&(size, count)| size as u64 * count)
            .sum();
        batched as f64 / self.waves as f64
    }
}

/// One-line summary for service logs, e.g. `service: 40 submitted (30
/// interactive / 10 batch, 2 rejected), 36 answered (20 at admission), 1
/// failed, 1 expired, 0 updates, 0 queued; 5 waves (mean 7.6, max 12);
/// latency mean 3.2ms, max 11.0ms | marginals …`.
impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "service: {} submitted ({} interactive / {} batch, {} rejected), \
             {} answered ({} at admission), {} failed, {} expired, {} updates, {} queued; \
             {} waves (mean {:.1}, max {}); latency mean {:.1?}, max {:.1?} | {}",
            self.submitted,
            self.interactive_submitted,
            self.batch_submitted,
            self.rejected,
            self.answered,
            self.answered_at_admission,
            self.failed,
            self.expired,
            self.updates_applied,
            self.queue_depth,
            self.waves,
            self.mean_wave_size(),
            self.max_wave,
            self.mean_latency,
            self.max_latency,
            self.cache
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_line() {
        let line = ServiceStats::default().to_string();
        assert!(line.starts_with("service:"), "{line}");
        assert!(line.contains("interactive"), "{line}");
        assert!(
            line.contains("marginals"),
            "cache summary rides along: {line}"
        );
        assert!(!line.contains('\n'), "{line}");
    }

    #[test]
    fn empty_stats_have_zero_means() {
        let stats = ServiceStats::default();
        assert_eq!(stats.mean_wave_size(), 0.0);
        assert_eq!(stats.mean_latency, Duration::ZERO);
    }
}
