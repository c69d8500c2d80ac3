//! `live_churn`: the cache layer used the other way — writes beside reads.
//! An in-process service (no wire, so a socket stall cannot mask anything)
//! whose cache holds half the mix's working set; client 0 cycles the query
//! mix while client 1 repeats one session replacement followed by four mix
//! queries. That exercises invalidation through the reverse index, LRU
//! eviction, re-solves, and updates applied between waves; a hit-path
//! optimisation that slows invalidation or eviction shows here.

use super::{closed_loop, op_id, ClientLog, Phase, ProbeInputs, Workload, THREADS};
use crate::inputs;
use ppd_core::{CacheCapacity, Engine, EvalConfig, PpdDatabase};
use ppd_service::{Answer, ObsConfig, Request, Service, ServiceConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Mix queries client 1 sends after each update.
const QUERIES_PER_UPDATE: usize = 4;

pub struct LiveChurn {
    service: Service,
    eval: EvalConfig,
    mix: Vec<Request>,
    stride: usize,
    /// Updates sent so far; survives across phases so the stream never
    /// replays a replacement.
    round: AtomicUsize,
    datagen_ms: f64,
}

impl LiveChurn {
    pub fn setup(seed: u64, quick: bool, obs: ObsConfig) -> Self {
        let (voters, candidates) = if quick { (60, 8) } else { (400, 10) };
        let started = Instant::now();
        let db = inputs::polls(seed, voters, candidates);
        let datagen_ms = started.elapsed().as_secs_f64() * 1e3;
        let planner = Engine::new(EvalConfig::exact());
        let working_set: usize = inputs::queries()
            .iter()
            .map(|q| planner.plan_units(&db, q).expect("the mix plans").len())
            .sum();
        let eval = EvalConfig::exact()
            .with_threads(THREADS)
            .with_cache_capacity(CacheCapacity::Entries((working_set / 2).max(1)));
        let service = Service::new(db, ServiceConfig::new(eval.clone()).with_obs(obs));
        // One pass of the mix, so the measured phase starts from a full
        // cache (of half the working set) like any long-lived service.
        let mix = inputs::mix();
        for request in &mix {
            service
                .submit(request.clone())
                .and_then(|ticket| ticket.wait())
                .expect("the warm-up pass answers");
        }
        LiveChurn {
            service,
            eval,
            mix,
            stride: inputs::update_stride(seed),
            round: AtomicUsize::new(0),
            datagen_ms,
        }
    }

    fn query(&self, log: &mut ClientLog, id: u64, slot: usize) {
        // The database moves under the queries, so there is no fixed
        // reference here; `finish` checks the final snapshot.
        log.request("service.submit_wait", id, None, || {
            self.service
                .submit(self.mix[slot].clone())
                .and_then(|ticket| ticket.wait())
        });
    }

    fn update(&self, log: &mut ClientLog, id: u64) {
        let round = self.round.fetch_add(1, Ordering::Relaxed);
        // The guard blocks queued updates while held: build, then drop it.
        let update = inputs::replacement(&self.service.database(), round, self.stride);
        let op = log.spans.begin("op.update", None, id);
        let start = Instant::now();
        let receipt = log
            .spans
            .leaf("service.submit_update_wait", Some(op), id, || {
                self.service
                    .submit_update(update)
                    .and_then(|ticket| ticket.wait())
            });
        let latency = start.elapsed();
        log.spans.end(op);
        log.attempted += 1;
        match receipt {
            Ok(Answer::Updated { invalidated, .. }) => {
                log.update_latencies_ms.push(latency.as_secs_f64() * 1e3);
                log.invalidated += invalidated;
            }
            _ => log.failed += 1,
        }
    }
}

impl Workload for LiveChurn {
    fn run(&mut self, duration: Duration, epoch: Instant, trace: bool) -> Phase {
        let this = &*self;
        let before = this.service.stats();
        let (elapsed, logs) = closed_loop(THREADS, duration, epoch, trace, |client| {
            move |step, log: &mut ClientLog| {
                if client == 0 {
                    this.query(log, op_id(client, step), step % this.mix.len());
                    return;
                }
                let per_step = QUERIES_PER_UPDATE + 1;
                this.update(log, op_id(client, step * per_step));
                for k in 0..QUERIES_PER_UPDATE {
                    let slot = (step * QUERIES_PER_UPDATE + k + 1) % this.mix.len();
                    this.query(log, op_id(client, step * per_step + k + 1), slot);
                }
            }
        });
        let mut phase = Phase::from_clients(elapsed, logs);
        phase.add_service_delta(&before, &this.service.stats());
        phase.metrics_text = this.service.metrics_text();
        phase
    }

    fn probe_inputs(&self) -> ProbeInputs {
        ProbeInputs {
            db: self.service.database().clone(),
            eval: self.eval.clone(),
            queries: inputs::queries(),
        }
    }

    /// Every receipt is in by now, so the served mix must equal, bit for
    /// bit, a fresh serial engine's answers on the final snapshot.
    fn finish(self: Box<Self>) -> (u64, u64) {
        let final_db: PpdDatabase = self.service.database().clone();
        let engine = inputs::reference_engine();
        let failed = self
            .mix
            .iter()
            .filter(|request| {
                let served = self
                    .service
                    .submit((*request).clone())
                    .and_then(|ticket| ticket.wait());
                !matches!(&served, Ok(answer)
                    if inputs::same_bits(answer, &inputs::direct(&engine, &final_db, request)))
            })
            .count();
        (self.mix.len() as u64, failed as u64)
    }

    fn datagen_ms(&self) -> f64 {
        self.datagen_ms
    }
}
