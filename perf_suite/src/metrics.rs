//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo root
//! is generated from these tables (`perf_suite --emit-benchmark-json`), and
//! a test holds the committed file to them.

use serde_json::{json, Value};

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 28;

/// `(name, why)` per workload.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "wire_warm",
        "2 TCP clients cycle the 5-request mix on a warm cache (hit rate 1): solvers idle, so time is wire, socket, admission, wave window, grounding, cache lookup, aggregation",
    ),
    (
        "cold_exact",
        "fresh engine per iteration, 3-query batch + top-k, no service or wire: grounding, dedup, scheduling and the exact DP kernels do all the work; a wire change must not move it",
    ),
    (
        "cold_approx",
        "same shape, 6 two-label queries under MIS-AMP-adaptive sampling, each estimate held within 0.1 of exact: samplers and pools do the work, exact kernels none; catches speed bought with accuracy",
    ),
    (
        "live_churn",
        "in-process service, cache half the working set, session replacements beside queries: invalidation, LRU eviction, re-solves and updates between waves; the cache used the other way",
    ),
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The bounds are the widest the benchmark's contract allows, because that
/// is what the reference box supports: at one seed and one commit, ten 10 s
/// runs of the CPU-bound workloads spread (interquartile range over median)
/// by 0.12–0.17 in `qps` and `latency_p50_ms` when the host is busy, 0.05
/// when it is quiet (README, "First findings").
///
/// `latency_p95_ms` is not here but in the per-layer list: the tail of a run
/// is the slowest spell the host had during it, and over ten runs it spread
/// by 0.18–0.30 on `cold_exact` and 0.20 on `live_churn`, past any bound the
/// contract allows. The issue's rule for such a metric is to demote it, not
/// to widen its bound.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "qps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)` per per-layer metric. A metric whose layer a
/// workload does not touch reads 0 there (see the README's table).
pub const PER_LAYER: [(&str, &str, &str); 51] = [
    ("service.wire.tcp_overhead_ms", "ms", "lower"),
    ("service.wire.unix_overhead_ms", "ms", "lower"),
    ("service.wire.pipelined_qps", "1/s", "higher"),
    ("service.wire.reconciliation_ratio", "ratio", "lower"),
    ("service.dispatch.overhead_ms", "ms", "lower"),
    ("service.wave.window_p50_ms", "ms", "lower"),
    ("service.admission.queue_wait_p50_ms", "ms", "lower"),
    ("service.wave.mean_size", "count", "higher"),
    ("service.wave.count", "count", "higher"),
    ("service.update.invalidated_per_update", "count", "lower"),
    ("update_latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("core.translate.ground_us_per_query", "us", "lower"),
    ("core.engine.plan_us_per_query", "us", "lower"),
    ("core.engine.dedup_factor", "ratio", "higher"),
    ("core.engine.cache.lookup_ns_per_unit", "ns", "lower"),
    ("core.engine.cache.hit_rate", "ratio", "higher"),
    ("core.engine.cache.evictions_per_query", "count", "lower"),
    ("core.engine.cache.resolve_fraction", "ratio", "lower"),
    ("core.engine.cold_us_per_unit", "us", "lower"),
    ("core.engine.solved_units_per_s", "1/s", "higher"),
    ("core.engine.scheduler.speedup_2t", "ratio", "higher"),
    ("core.engine.warm_p50_ms", "ms", "lower"),
    ("core.topk.ms_per_call", "ms", "lower"),
    ("core.topk.exact_eval_fraction", "ratio", "lower"),
    ("core.engine.persist.save_ms", "ms", "lower"),
    ("core.engine.persist.load_ms", "ms", "lower"),
    ("core.engine.persist.bytes_per_entry", "bytes", "lower"),
    ("solvers.exact.two_label_us", "us", "lower"),
    ("solvers.exact.bipartite_us", "us", "lower"),
    ("solvers.exact.general_us", "us", "lower"),
    ("solvers.exact.units.two_label", "count", "lower"),
    ("solvers.exact.units.bipartite", "count", "lower"),
    ("solvers.exact.units.general", "count", "lower"),
    ("solvers.exact.share_of_p50", "ratio", "lower"),
    ("solvers.approx.adaptive_ms_per_unit", "ms", "lower"),
    ("solvers.approx.samples_per_unit", "count", "lower"),
    ("solvers.approx.zero_density_fraction", "ratio", "lower"),
    ("solvers.approx.share_of_p50", "ratio", "lower"),
    ("solvers.approx.budgeted_ms_per_unit", "ms", "lower"),
    ("solvers.approx.budgeted_samples_to_eps", "count", "lower"),
    ("rim.amp.sample_ns", "ns", "lower"),
    ("rim.amp.mix_prob_ns", "ns", "lower"),
    ("patterns.decompose_us_per_union", "us", "lower"),
    ("obs.overhead_fraction", "ratio", "lower"),
    ("datagen.polls_build_ms", "ms", "lower"),
    ("abs_err_max", "prob", "lower"),
    ("failed_fraction", "ratio", "lower"),
    ("harness.latency_samples", "count", "higher"),
    ("harness.tail_percentile", "percentile", "higher"),
    ("harness.traced_qps", "1/s", "higher"),
];

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|(name, why)| json!({ "name": *name, "why": *why }))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound }))
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| json!({ "name": *name, "unit": *unit, "better": *better }))
        .collect();
    json!({
        "command": [
            "cargo", "run", "--release", "--offline", "--quiet",
            "--manifest-path", "perf_suite/Cargo.toml", "--"
        ],
        "paths": ["perf_suite"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

/// The unit of a metric, wherever it is declared.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        name.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_the_contracts_charset() {
        assert!(name_ok("core.engine.cache.hit_rate") && name_ok("p95-x_1"));
        assert!(!name_ok(".leading") && !name_ok("has space") && !name_ok("slash/no"));
        assert!(!name_ok(&"x".repeat(65)) && !name_ok(""));
        assert!(unit_ok("1/s") && unit_ok("%") && !unit_ok("per second") && !unit_ok(""));

        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(unit_ok(unit), "bad unit {unit:?}");
        }
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
            assert!(["higher", "lower"].contains(&m.better));
        }
        assert!(PER_LAYER.iter().all(|m| ["higher", "lower"].contains(&m.2)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = serde_json::from_str(&committed).expect("BENCHMARK.json parses");
        // Compared as text: a parsed 28 and a generated 28 differ only in
        // which integer variant holds them.
        let text = |value: &Value| serde_json::to_string(value).expect("serializes");
        assert!(
            text(&committed) == text(&benchmark_json()),
            "BENCHMARK.json is stale: regenerate it with --emit-benchmark-json"
        );
        let keys: Vec<&str> = committed
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }
}
