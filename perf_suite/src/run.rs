//! One run of one workload in this process: set-up, warm-up, the measured
//! phase, the correctness gate, and the metrics of the requested kind.
//!
//! `--trace 0` measures the end-to-end metrics with observability off and
//! the span recorder off. `--trace 1` is the separate traced run: half the
//! time untraced (the baseline the overhead is taken against), half with
//! `ObsConfig::full()` and the harness's span recorder on, then the
//! layer-probe pass; it reports the per-layer metrics and writes the trace.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::{self, SpanLog};
use crate::workloads::{self, Phase, Workload};
use crate::{probes, prom, stats};
use ppd_service::ObsConfig;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What to run.
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny databases and short probes: the smoke run.
    pub quick: bool,
}

/// The result line's content.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Untimed warm-up before the measured phase of an untraced run.
const WARMUP: Duration = Duration::from_secs(2);
/// Set-ups per untraced run: at least this many, and more (up to
/// `MAX_SETUPS`) while they are short, so `setup_s` is a median of several.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 49;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Tolerance of the `wire_warm` reconciliation.
const RECONCILIATION_TOLERANCE: f64 = 0.15;

/// Where a run may write: the build's target directory, which is inside the
/// checkout and ignored by git.
pub fn output_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("perf_suite")
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn setup(opts: &Options, obs: ObsConfig) -> Box<dyn Workload> {
    workloads::setup(&opts.workload, opts.seed, opts.quick, obs)
        .unwrap_or_else(|| panic!("unknown workload {:?}", opts.workload))
}

fn qps(phase: &Phase) -> f64 {
    phase.queries as f64 / phase.seconds
}

pub fn run(opts: &Options) -> Outcome {
    if opts.trace {
        traced(opts)
    } else {
        untraced(opts)
    }
}

fn untraced(opts: &Options) -> Outcome {
    let mut setups = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    let budget = Instant::now();
    // The smoke run sets up twice: enough to exercise the tear-down path.
    let (min_setups, max_setups) = if opts.quick {
        (2, 2)
    } else {
        (MIN_SETUPS, MAX_SETUPS)
    };
    while setups.len() < min_setups
        || (setups.len() < max_setups && budget.elapsed() < SETUP_BUDGET)
    {
        // The previous instance goes first, so peak memory is one
        // instance's; only the instance that is measured gets `finish`'s
        // end-of-run check.
        drop(workload.take());
        let started = Instant::now();
        workload = Some(setup(opts, ObsConfig::off()));
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up ran");
    let epoch = Instant::now();
    let warmup = if opts.quick { WARMUP / 20 } else { WARMUP };
    workload.run(warmup, epoch, false);
    let phase = workload.run(Duration::from_secs_f64(opts.seconds), epoch, false);
    let (checked, wrong) = workload.finish();

    let latencies = stats::sorted(phase.latencies_ms.clone());
    let tail = stats::tail(&latencies);
    println!(
        "{}: {} operations, {} queries in {:.2} s; tail p{:.1} {:.3} ms, p99 {:.3} ms, max {:.3} ms; {} set-ups; {} updates, update_latency_p50_ms {:.3}; abs_err_max {:.4}",
        opts.workload,
        latencies.len(),
        phase.queries,
        phase.seconds,
        tail.percentile,
        tail.value,
        stats::percentile(&latencies, 99.0),
        latencies.last().copied().unwrap_or(0.0),
        setups.len(),
        phase.update_latencies_ms.len(),
        stats::median(&phase.update_latencies_ms),
        phase.abs_err_max,
    );
    let value = |name: &str| match name {
        "qps" => qps(&phase),
        "latency_p50_ms" => stats::percentile(&latencies, 50.0),
        "peak_rss_mb" => peak_rss_mb(),
        "setup_s" => stats::median(&setups),
        other => unreachable!("no measurement for end-to-end metric {other}"),
    };
    let attempted = phase.attempted + checked;
    let failed = phase.failed + wrong;
    Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics: END_TO_END.iter().map(|m| (m.name, value(m.name))).collect(),
    }
}

fn traced(opts: &Options) -> Outcome {
    let arm = Duration::from_secs_f64(opts.seconds * if opts.quick { 0.2 } else { 0.4 });
    let warmup = if opts.quick { WARMUP / 20 } else { WARMUP / 2 };
    let epoch = Instant::now();

    // Baseline arm: the program and the harness both untraced.
    let mut workload = setup(opts, ObsConfig::off());
    workload.run(warmup, epoch, false);
    let base = workload.run(arm, epoch, false);
    let (mut checked, mut wrong) = workload.finish();

    // Traced arm: full observability in the program, spans in the harness.
    let mut workload = setup(opts, ObsConfig::full());
    workload.run(warmup, epoch, false);
    let mut phase = workload.run(arm, epoch, true);

    let base_latencies = stats::sorted(base.latencies_ms.clone());
    let base_p50 = stats::percentile(&base_latencies, 50.0);
    let operations = phase.latencies_ms.len().max(1) as f64;
    let out_dir = output_dir();
    std::fs::create_dir_all(&out_dir).expect("the output directory is writable");
    let mut probe_log = SpanLog::new(epoch, true);
    let report = probes::run(
        &workload.probe_inputs(),
        base_p50,
        phase.cache_misses as f64 / operations,
        opts.quick,
        &out_dir,
        &mut probe_log,
    );
    let datagen_ms = workload.datagen_ms();
    let (c, w) = workload.finish();
    checked += c + report.checked;
    wrong += w + report.failed;

    let mut all_spans = std::mem::take(&mut phase.spans);
    probe_log.append_to(&mut all_spans);
    let trace_path = out_dir.join(format!("trace_{}.json", opts.workload));
    let trace = serde_json::to_string(&spans::to_json(&opts.workload, &all_spans))
        .expect("the trace serializes");
    std::fs::write(&trace_path, trace).expect("the trace file is writable");
    println!(
        "{}: {} spans written to {}",
        opts.workload,
        all_spans.len(),
        trace_path.display()
    );

    let probe = |name: &str| {
        report
            .values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    };
    // The doors a `wire_warm` request passes must add up to what the
    // untraced clients saw, or a layer is missing from the list.
    let mut reconciliation = 0.0;
    if opts.workload == "wire_warm" {
        let sum: f64 = [
            "service.wire.tcp_overhead_ms",
            "service.dispatch.overhead_ms",
            "core.engine.warm_p50_ms",
        ]
        .iter()
        .map(|name| probe(name).expect("the service probes ran"))
        .sum();
        reconciliation = sum / base_p50;
        let holds = (reconciliation - 1.0).abs() <= RECONCILIATION_TOLERANCE;
        println!(
            "wire_warm reconciliation: tcp overhead + dispatch overhead + warm engine p50 = {sum:.3} ms vs untraced latency_p50_ms {base_p50:.3} ms (ratio {reconciliation:.3}, {})",
            if holds { "holds" } else { "FAILS: the layer list is incomplete" }
        );
        checked += 1;
        wrong += u64::from(!holds);
    }

    let lookups = (phase.cache_hits + phase.cache_misses).max(1) as f64;
    let queries = phase.queries.max(1) as f64;
    let quantile_ms = |name: &str| {
        prom::histogram_quantile(&phase.metrics_text, name, 0.5).map_or(0.0, |s| s * 1e3)
    };
    // Accuracy, failures and update latency describe the program, not the
    // tracing, so they are read from both arms.
    let attempted = base.attempted + phase.attempted + checked;
    let failed = base.failed + phase.failed + wrong;
    let mut updates = base.update_latencies_ms.clone();
    updates.extend(&phase.update_latencies_ms);
    let value = |name: &str| -> f64 {
        if let Some(v) = probe(name) {
            return v;
        }
        match name {
            "service.wire.reconciliation_ratio" => reconciliation,
            "service.wave.window_p50_ms" => quantile_ms(prom::WAVE_WINDOW),
            "service.admission.queue_wait_p50_ms" => quantile_ms(prom::QUEUE_WAIT),
            "service.wave.mean_size" => phase.wave_requests as f64 / phase.waves.max(1) as f64,
            "service.wave.count" => phase.waves as f64,
            "service.update.invalidated_per_update" => {
                phase.invalidated as f64 / phase.update_latencies_ms.len().max(1) as f64
            }
            "update_latency_p50_ms" => stats::median(&updates),
            "core.engine.cache.hit_rate" => phase.cache_hits as f64 / lookups,
            "core.engine.cache.evictions_per_query" => phase.cache_evictions as f64 / queries,
            "core.engine.cache.resolve_fraction" => phase.cache_misses as f64 / lookups,
            "obs.overhead_fraction" => 1.0 - qps(&phase) / qps(&base),
            "datagen.polls_build_ms" => datagen_ms,
            "abs_err_max" => base.abs_err_max.max(phase.abs_err_max),
            "failed_fraction" => failed as f64 / attempted.max(1) as f64,
            "harness.latency_samples" => base_latencies.len() as f64,
            "latency_p95_ms" => stats::tail(&base_latencies).value,
            "harness.tail_percentile" => stats::tail(&base_latencies).percentile,
            "harness.traced_qps" => qps(&phase),
            other => unreachable!("no measurement for per-layer metric {other}"),
        }
    };
    Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics: PER_LAYER.iter().map(|m| (m.0, value(m.0))).collect(),
    }
}
