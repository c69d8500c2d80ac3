//! Service configuration: admission bound, batching window, and the engine
//! configuration the service pins for its lifetime.

use ppd_core::EvalConfig;
use ppd_obs::ObsConfig;
use std::time::Duration;

/// Configuration of a [`Service`](crate::Service).
///
/// The engine configuration is fixed at construction — that is what makes
/// the engine's caches coherent and every answer independent of how queries
/// happen to be batched.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission bound of the **interactive** lane: interactive queries
    /// waiting for a wave. When the lane is this deep,
    /// [`Service::submit`](crate::Service::submit) fails with
    /// [`ServiceError::Overloaded`](crate::ServiceError::Overloaded)
    /// (clamped to at least 1).
    pub max_queue: usize,
    /// Admission bound of the **batch** lane. Separate from the interactive
    /// bound so a batch flood sheds from its own lane while interactive
    /// admission stays open (clamped to at least 1).
    pub max_queue_batch: usize,
    /// Most requests coalesced into one wave (clamped to at least 1). `1`
    /// disables batching: every request is its own wave.
    pub max_batch: usize,
    /// Upper bound of the hold a wave with unsolved units takes. A wave is
    /// whatever is queued when the dispatcher looks (at most
    /// [`max_batch`](ServiceConfig::max_batch)), and it is planned at once;
    /// a wave the cache answers whole never waits. Only if the plan leaves
    /// units to solve does the dispatcher hold the wave open — until
    /// `max_wait` after it first saw the wave's first request, or
    /// `max_batch` requests — so that requests arriving meanwhile share its
    /// solves. `Duration::ZERO` means "never hold": batching still happens
    /// under backlog.
    pub max_wait: Duration,
    /// The evaluation-engine configuration (solver, seed, threads, cache
    /// sharding/capacity) of each tenant's engine. Its `cache_capacity`
    /// bounds a tenant across all error budgets: budgeted and budget-less
    /// entries share one cache and one LRU.
    pub eval: EvalConfig,
    /// The observability configuration: whether metrics record, which
    /// submissions trace, and how many span events the trace ring holds.
    /// Purely observational — answers are bit-identical under every
    /// setting (the `service_determinism` test pins this).
    pub obs: ObsConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_queue: 1024,
            max_queue_batch: 1024,
            max_batch: 32,
            max_wait: Duration::from_millis(2),
            eval: EvalConfig::default(),
            obs: ObsConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// A configuration around an engine configuration, with default
    /// admission and batching parameters.
    pub fn new(eval: EvalConfig) -> Self {
        ServiceConfig {
            eval,
            ..ServiceConfig::default()
        }
    }

    /// Sets the interactive lane's admission bound.
    pub fn with_max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue;
        self
    }

    /// Sets the batch lane's admission bound.
    pub fn with_max_queue_batch(mut self, max_queue_batch: usize) -> Self {
        self.max_queue_batch = max_queue_batch;
        self
    }

    /// Sets the wave-size cap.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the batching window: the upper bound of the hold a wave with
    /// unsolved units takes (see [`ServiceConfig::max_wait`]).
    pub fn with_max_wait(mut self, max_wait: Duration) -> Self {
        self.max_wait = max_wait;
        self
    }

    /// Sets the observability configuration (metrics on/off, trace mode and
    /// ring capacity).
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let config = ServiceConfig::new(EvalConfig::exact())
            .with_max_queue(7)
            .with_max_queue_batch(5)
            .with_max_batch(3)
            .with_max_wait(Duration::from_millis(9))
            .with_obs(ObsConfig::off());
        assert_eq!(config.max_queue, 7);
        assert_eq!(config.max_queue_batch, 5);
        assert_eq!(config.max_batch, 3);
        assert_eq!(config.max_wait, Duration::from_millis(9));
        assert!(!config.obs.metrics);
        assert!(ServiceConfig::default().obs.metrics, "obs defaults on");
    }
}
