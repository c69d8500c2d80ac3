//! The engine's instrument bundle: pre-resolved handles for every counter
//! and histogram the evaluation pipeline records into, plus the shared
//! trace ring.
//!
//! Handles are resolved once, at engine construction, so the hot path
//! (cache lookups, unit solves) never touches the registry lock. The
//! bundle is purely observational under the engine's bit-determinism
//! contract: nothing here is ever read back into seeds, cache keys,
//! scheduling, or solver selection — [`EngineObs::disabled`] and a fully
//! instrumented engine produce bit-identical answers, which
//! `tests/engine_determinism.rs` pins.

use super::cache::SolverFingerprint;
use ppd_obs::{Counter, Histogram, Registry, TraceLog, SECONDS_PER_NANO};
use std::sync::Arc;
use std::time::Duration;

/// Stable solver labels of the solve-time histogram, indexed by
/// [`solver_tag_index`]. The names match [`SolverKind::name`]
/// (`ppd_solvers`) where a kind exists.
pub(crate) const SOLVER_TAGS: [&str; 4] = ["exact", "general-exact", "mis-amp", "mis-amp-budgeted"];

/// Stable union-class labels, indexed by a pending unit's class tag (`0`
/// two-label, `1` bipartite, `2` general).
pub(crate) const CLASS_TAGS: [&str; 3] = ["two-label", "bipartite", "general"];

/// The histogram row a unit's solve timing lands in, from the solver
/// fingerprint recorded at planning time.
pub(crate) fn solver_tag_index(fingerprint: SolverFingerprint) -> usize {
    match fingerprint {
        SolverFingerprint::ExactAuto => 0,
        SolverFingerprint::GeneralExact => 1,
        SolverFingerprint::Approx { .. } => 2,
        SolverFingerprint::ErrorBudget { .. } => 3,
    }
}

/// The stable solver label for one unit (used by trace `unit-solved`
/// events and the solve-time histogram alike).
pub(crate) fn solver_tag(fingerprint: SolverFingerprint) -> &'static str {
    SOLVER_TAGS[solver_tag_index(fingerprint)]
}

/// Pre-resolved engine instruments. Cloning shares the underlying cells.
#[derive(Debug, Clone)]
pub struct EngineObs {
    /// Work units answered straight from the marginal cache at planning.
    cache_hits: Counter,
    /// Work units that missed and entered the wave.
    cache_misses: Counter,
    /// Cached entries dropped by surgical invalidation after updates.
    cache_invalidated: Counter,
    /// Estimated heap bytes freed by LRU eviction.
    cache_evicted_bytes: Counter,
    /// Monte-Carlo samples the sampling solvers drew but discarded because
    /// the proposal mixture had zero density at the sampled ranking. A
    /// rising rate means the kept proposals cover their own draws poorly.
    sampler_zero_density: Counter,
    /// Per-unit solve wall time, split `[solver][union class]`.
    solve_seconds: [[Histogram; CLASS_TAGS.len()]; SOLVER_TAGS.len()],
    /// The shared span ring, when this engine participates in tracing.
    trace: Option<Arc<TraceLog>>,
}

impl EngineObs {
    /// A bundle of permanently disabled handles: every recording is a
    /// branch-and-skip. What [`Engine::new`](super::Engine::new) installs.
    pub fn disabled() -> Self {
        EngineObs {
            cache_hits: Counter::noop(),
            cache_misses: Counter::noop(),
            cache_invalidated: Counter::noop(),
            cache_evicted_bytes: Counter::noop(),
            sampler_zero_density: Counter::noop(),
            solve_seconds: std::array::from_fn(|_| std::array::from_fn(|_| Histogram::noop())),
            trace: None,
        }
    }

    /// Registers the engine's instruments in `registry` under `labels`
    /// (typically `[("tenant", name)]`). Re-registering the same labels —
    /// e.g. for a tenant's per-budget engines — resolves to the *same*
    /// cells, so all of a tenant's engines aggregate together.
    pub fn new(registry: &Registry, labels: &[(&str, &str)]) -> Self {
        let solve_seconds = std::array::from_fn(|s| {
            std::array::from_fn(|c| {
                let mut with: Vec<(&str, &str)> = labels.to_vec();
                with.push(("solver", SOLVER_TAGS[s]));
                with.push(("class", CLASS_TAGS[c]));
                registry.histogram(
                    "ppd_unit_solve_seconds",
                    "Per-unit solver wall time by solver kind and union class",
                    &with,
                    SECONDS_PER_NANO,
                )
            })
        });
        EngineObs {
            cache_hits: registry.counter(
                "ppd_cache_hits_total",
                "Work units served from the marginal cache",
                labels,
            ),
            cache_misses: registry.counter(
                "ppd_cache_misses_total",
                "Work units that missed the marginal cache and were solved",
                labels,
            ),
            cache_invalidated: registry.counter(
                "ppd_cache_invalidated_total",
                "Cached marginal entries dropped by update invalidation",
                labels,
            ),
            cache_evicted_bytes: registry.counter(
                "ppd_cache_evicted_bytes_total",
                "Estimated heap bytes freed by marginal-cache eviction",
                labels,
            ),
            sampler_zero_density: registry.counter(
                "ppd_sampler_zero_density_total",
                "Samples discarded because the proposal mixture had zero density",
                labels,
            ),
            solve_seconds,
            trace: None,
        }
    }

    /// Attaches the shared span ring, enabling trace recording from this
    /// engine's waves.
    pub fn with_trace(mut self, trace: Arc<TraceLog>) -> Self {
        self.trace = Some(trace);
        self
    }

    pub(crate) fn cache_hit(&self) {
        self.cache_hits.inc();
    }

    pub(crate) fn cache_miss(&self) {
        self.cache_misses.inc();
    }

    pub(crate) fn invalidated(&self, entries: u64) {
        self.cache_invalidated.add(entries);
    }

    pub(crate) fn evicted_bytes(&self, bytes: u64) {
        if bytes > 0 {
            self.cache_evicted_bytes.add(bytes);
        }
    }

    pub(crate) fn zero_density_samples(&self, samples: u64) {
        if samples > 0 {
            self.sampler_zero_density.add(samples);
        }
    }

    pub(crate) fn record_solve(
        &self,
        fingerprint: SolverFingerprint,
        class: u8,
        elapsed: Duration,
    ) {
        let row = &self.solve_seconds[solver_tag_index(fingerprint)];
        row[usize::from(class).min(CLASS_TAGS.len() - 1)].record_duration(elapsed);
    }

    pub(crate) fn trace(&self) -> Option<&Arc<TraceLog>> {
        self.trace.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_tags_cover_every_fingerprint() {
        assert_eq!(solver_tag(SolverFingerprint::ExactAuto), "exact");
        assert_eq!(solver_tag(SolverFingerprint::GeneralExact), "general-exact");
        assert_eq!(
            solver_tag(SolverFingerprint::Approx {
                samples_per_proposal: 10,
                base_seed: 1,
            }),
            "mis-amp"
        );
        assert_eq!(
            solver_tag(SolverFingerprint::ErrorBudget {
                epsilon_bits: 0,
                confidence_bits: 0,
                base_seed: 1,
            }),
            "mis-amp-budgeted"
        );
    }

    #[test]
    fn registered_bundle_shares_cells_per_label_set() {
        let registry = Registry::new(true);
        let a = EngineObs::new(&registry, &[("tenant", "t")]);
        let b = EngineObs::new(&registry, &[("tenant", "t")]);
        a.cache_hit();
        b.cache_hit();
        let text = registry.render();
        assert!(
            text.contains("ppd_cache_hits_total{tenant=\"t\"} 2"),
            "both bundles aggregate into one cell:\n{text}"
        );
        a.record_solve(SolverFingerprint::ExactAuto, 0, Duration::from_micros(5));
        assert!(registry.render().contains(
            "ppd_unit_solve_seconds_count{class=\"two-label\",solver=\"exact\",tenant=\"t\"} 1"
        ));
        a.zero_density_samples(5);
        b.zero_density_samples(2);
        assert!(registry
            .render()
            .contains("ppd_sampler_zero_density_total{tenant=\"t\"} 7"));
    }

    #[test]
    fn disabled_bundle_records_nothing_and_is_cheap() {
        let obs = EngineObs::disabled();
        obs.cache_hit();
        obs.cache_miss();
        obs.invalidated(3);
        obs.evicted_bytes(100);
        obs.zero_density_samples(7);
        obs.record_solve(SolverFingerprint::ExactAuto, 2, Duration::from_secs(1));
        assert!(obs.trace().is_none());
    }

    #[test]
    fn out_of_range_class_clamps_to_general() {
        let registry = Registry::new(true);
        let obs = EngineObs::new(&registry, &[]);
        obs.record_solve(SolverFingerprint::ExactAuto, 9, Duration::from_micros(1));
        assert!(registry
            .render()
            .contains("ppd_unit_solve_seconds_count{class=\"general\",solver=\"exact\"} 1"));
    }
}
