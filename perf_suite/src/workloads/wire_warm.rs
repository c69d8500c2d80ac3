//! `wire_warm`: the steady state of a long-lived service. Two TCP clients
//! cycle the request mix against a server whose cache already holds every
//! unit (hit rate ≈ 1), so solvers do nothing and the time is wire
//! encode/decode and socket, admission, the wave window, grounding, cache
//! lookup and aggregation.

use super::{closed_loop, op_id, Phase, ProbeInputs, Workload, THREADS};
use crate::inputs;
use ppd_core::{EvalConfig, PpdDatabase};
use ppd_service::{
    Answer, ObsConfig, Request, Service, ServiceConfig, SubmitOptions, WireClient, WireServer,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct WireWarm {
    db: PpdDatabase,
    service: Arc<Service>,
    server: WireServer,
    addr: SocketAddr,
    mix: Vec<Request>,
    reference: Vec<Answer>,
    datagen_ms: f64,
}

impl WireWarm {
    pub fn setup(seed: u64, quick: bool, obs: ObsConfig) -> Self {
        let (voters, candidates) = if quick { (60, 8) } else { (1000, 10) };
        let started = Instant::now();
        let db = inputs::polls(seed, voters, candidates);
        let datagen_ms = started.elapsed().as_secs_f64() * 1e3;
        // Library defaults on purpose (2 ms window, waves of up to 32): the
        // workload measures the service as a user gets it.
        let service = Arc::new(Service::new(
            db.clone(),
            ServiceConfig::new(EvalConfig::exact()).with_obs(obs),
        ));
        let server = WireServer::bind_tcp("127.0.0.1:0", Arc::clone(&service))
            .expect("bind a loopback TCP port");
        let addr = server.local_addr().expect("a TCP server has an address");
        let mix = inputs::mix();
        let engine = inputs::reference_engine();
        let reference: Vec<Answer> = mix
            .iter()
            .map(|request| inputs::direct(&engine, &db, request))
            .collect();
        // One pass of the mix fills the cache; from here on every unit hits.
        let mut client = WireClient::connect_tcp(addr).expect("connect to the loopback server");
        for request in &mix {
            client
                .call(request, &SubmitOptions::default())
                .expect("the warm-up pass answers");
        }
        WireWarm {
            db,
            service,
            server,
            addr,
            mix,
            reference,
            datagen_ms,
        }
    }
}

impl Workload for WireWarm {
    fn run(&mut self, duration: Duration, epoch: Instant, trace: bool) -> Phase {
        let before = self.service.stats();
        let (elapsed, logs) = closed_loop(THREADS, duration, epoch, trace, |client| {
            let mut conn =
                WireClient::connect_tcp(self.addr).expect("connect to the loopback server");
            let options = SubmitOptions::default();
            let (mix, reference) = (&self.mix, &self.reference);
            move |step, log: &mut super::ClientLog| {
                let slot = (client + step) % mix.len();
                log.request(
                    "service.wire.call",
                    op_id(client, step),
                    Some(&reference[slot]),
                    || conn.call(&mix[slot], &options),
                );
            }
        });
        let mut phase = Phase::from_clients(elapsed, logs);
        phase.add_service_delta(&before, &self.service.stats());
        phase.metrics_text = self.service.metrics_text();
        phase
    }

    fn probe_inputs(&self) -> ProbeInputs {
        ProbeInputs {
            db: self.db.clone(),
            eval: EvalConfig::exact(),
            queries: inputs::queries(),
        }
    }

    fn finish(self: Box<Self>) -> (u64, u64) {
        self.server.shutdown();
        // Every answer was already checked against the fixed reference.
        (0, 0)
    }

    fn datagen_ms(&self) -> f64 {
        self.datagen_ms
    }
}
