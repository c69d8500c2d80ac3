//! The four workloads and the closed-loop driver they share.
//!
//! Load shape, all workloads: closed loop — callers of this system each wait
//! for their reply — with at most two client threads, because the reference
//! box has two cores and one process generates the load.

pub mod cold;
mod live_churn;
mod wire_warm;

use crate::spans::{Span, SpanLog};
use ppd_core::{CacheStats, ConjunctiveQuery, EvalConfig, PpdDatabase};
use ppd_service::{Answer, ObsConfig, ServiceError};
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["wire_warm", "cold_exact", "cold_approx", "live_churn"];

/// Client threads of the service workloads, and worker threads of the
/// engines the workloads configure: the reference box's core count.
pub const THREADS: usize = 2;

/// What one client thread recorded during a phase.
pub struct ClientLog {
    /// One latency per client-visible operation (request, or cold iteration).
    pub latencies_ms: Vec<f64>,
    /// Queries answered (a cold iteration answers four).
    pub queries: u64,
    /// Answers checked, and how many were errors, refusals or wrong.
    pub attempted: u64,
    pub failed: u64,
    /// `submit_update` → receipt, and cached units the receipts reported
    /// invalidated.
    pub update_latencies_ms: Vec<f64>,
    pub invalidated: u64,
    /// Cache counters of engines this client built and dropped itself.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    /// Largest |estimate − exact| seen (approximate workload only).
    pub abs_err_max: f64,
    pub spans: SpanLog,
}

impl ClientLog {
    fn new(epoch: Instant, trace: bool) -> Self {
        ClientLog {
            latencies_ms: Vec::new(),
            queries: 0,
            attempted: 0,
            failed: 0,
            update_latencies_ms: Vec::new(),
            invalidated: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            abs_err_max: 0.0,
            spans: SpanLog::new(epoch, trace),
        }
    }

    /// One request of the mix: times `call` as a span named `layer` under a
    /// per-operation root, then checks the answer bit for bit against
    /// `expected` (when the workload has a fixed reference). An error, a
    /// refusal and a wrong answer all count as failed.
    pub fn request(
        &mut self,
        layer: &'static str,
        op_id: u64,
        expected: Option<&Answer>,
        call: impl FnOnce() -> Result<Answer, ServiceError>,
    ) {
        let op = self.spans.begin("op", None, op_id);
        let start = Instant::now();
        let delivery = self.spans.leaf(layer, Some(op), op_id, call);
        let latency = start.elapsed();
        let ok = self.spans.leaf("harness.verify", Some(op), op_id, || {
            match (&delivery, expected) {
                (Ok(answer), Some(expected)) => crate::inputs::same_bits(answer, expected),
                (Ok(_), None) => true,
                (Err(_), _) => false,
            }
        });
        self.spans.end(op);
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        self.queries += 1;
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Runs `clients` closed-loop threads for `duration`. `make(client)` runs on
/// the client's own thread and returns its step function, called with the
/// step index until the deadline passes; a step always completes, so the
/// phase overruns by at most one operation per client.
pub fn closed_loop<S>(
    clients: usize,
    duration: Duration,
    epoch: Instant,
    trace: bool,
    make: impl Fn(usize) -> S + Sync,
) -> (Duration, Vec<ClientLog>)
where
    S: FnMut(usize, &mut ClientLog),
{
    let start = Instant::now();
    let deadline = start + duration;
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let make = &make;
                scope.spawn(move || {
                    let mut log = ClientLog::new(epoch, trace);
                    let mut step = make(client);
                    let mut i = 0;
                    while Instant::now() < deadline {
                        step(i, &mut log);
                        i += 1;
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect::<Vec<_>>()
    });
    (start.elapsed(), logs)
}

/// Identifies one client operation across its spans.
pub fn op_id(client: usize, step: usize) -> u64 {
    ((client as u64) << 40) | step as u64
}

/// What a measured phase observed, all clients merged.
#[derive(Default)]
pub struct Phase {
    pub seconds: f64,
    pub latencies_ms: Vec<f64>,
    pub queries: u64,
    pub attempted: u64,
    pub failed: u64,
    pub update_latencies_ms: Vec<f64>,
    pub invalidated: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    /// Waves the service ran and the requests they carried.
    pub waves: u64,
    pub wave_requests: u64,
    /// The service's metrics exposition at phase end (empty with obs off or
    /// when the workload has no service).
    pub metrics_text: String,
    pub abs_err_max: f64,
    pub spans: Vec<Span>,
}

impl Phase {
    /// Merges the clients' logs.
    pub fn from_clients(elapsed: Duration, logs: Vec<ClientLog>) -> Self {
        let mut phase = Phase {
            seconds: elapsed.as_secs_f64(),
            ..Phase::default()
        };
        let mut span_logs = Vec::with_capacity(logs.len());
        for log in logs {
            phase.latencies_ms.extend(log.latencies_ms);
            phase.queries += log.queries;
            phase.attempted += log.attempted;
            phase.failed += log.failed;
            phase.update_latencies_ms.extend(log.update_latencies_ms);
            phase.invalidated += log.invalidated;
            phase.cache_hits += log.cache_hits;
            phase.cache_misses += log.cache_misses;
            phase.cache_evictions += log.cache_evictions;
            phase.abs_err_max = phase.abs_err_max.max(log.abs_err_max);
            span_logs.push(log.spans);
        }
        phase.spans = SpanLog::merge(span_logs);
        phase
    }

    /// Adds what a service's counters moved by between two snapshots.
    pub fn add_service_delta(
        &mut self,
        before: &ppd_service::ServiceStats,
        after: &ppd_service::ServiceStats,
    ) {
        let cache = |s: &CacheStats| (s.marginal_hits, s.marginal_misses, s.marginal_evictions);
        let (h0, m0, e0) = cache(&before.cache);
        let (h1, m1, e1) = cache(&after.cache);
        self.cache_hits += h1 - h0;
        self.cache_misses += m1 - m0;
        self.cache_evictions += e1 - e0;
        self.waves += after.waves - before.waves;
        let carried = |s: &ppd_service::ServiceStats| -> u64 {
            s.wave_sizes.iter().map(|&(size, n)| size as u64 * n).sum()
        };
        self.wave_requests += carried(after) - carried(before);
    }
}

/// What the layer probes replay: the workload's own database and engine
/// configuration.
pub struct ProbeInputs {
    pub db: PpdDatabase,
    pub eval: EvalConfig,
    /// The workload's distinct queries; the first is its top-k query.
    pub queries: Vec<ConjunctiveQuery>,
}

/// One workload, set up and ready to be driven.
pub trait Workload {
    /// Drives the workload's closed loop for `duration`; `trace` turns the
    /// harness's span recorder on.
    fn run(&mut self, duration: Duration, epoch: Instant, trace: bool) -> Phase;

    /// The inputs the layer probes replay.
    fn probe_inputs(&self) -> ProbeInputs;

    /// Tears the workload down after an end-of-run correctness check;
    /// returns `(checked, failed)`.
    fn finish(self: Box<Self>) -> (u64, u64);

    /// Wall time of the `polls_database` call inside set-up, in ms.
    fn datagen_ms(&self) -> f64;
}

/// Sets a workload up: data generation, engine/service/server construction,
/// reference answers, and the cache warm-up pass where the workload is warm.
/// `quick` shrinks the databases for the smoke run.
pub fn setup(name: &str, seed: u64, quick: bool, obs: ObsConfig) -> Option<Box<dyn Workload>> {
    Some(match name {
        "wire_warm" => Box::new(wire_warm::WireWarm::setup(seed, quick, obs)),
        "cold_exact" => Box::new(cold::Cold::setup(seed, quick, obs, false)),
        "cold_approx" => Box::new(cold::Cold::setup(seed, quick, obs, true)),
        "live_churn" => Box::new(live_churn::LiveChurn::setup(seed, quick, obs)),
        _ => return None,
    })
}
