//! Service load test: N closed-loop client threads hammering one
//! `ppd_service::Service` with a mixed Boolean / count / per-session /
//! top-k Polls workload.
//!
//! Reports end-to-end throughput, client-observed latency percentiles
//! (p50/p99), the wave-size histogram (how much the batching window
//! actually coalesces), and the engine's cache hit rate, and writes
//! `bench_results/service_load.json`. Before the timed run it spot-checks
//! the determinism contract: the service's answers for the workload mix
//! are bit-identical to direct engine calls.
//!
//! A second, **mixed-priority** phase then measures the QoS isolation the
//! two admission classes buy: interactive p99 latency is measured unloaded,
//! then again while flooder threads saturate a deliberately shallow batch
//! lane — each as the median p99 of several rounds of probes. The phase
//! asserts the PR-6 acceptance criteria in-process — interactive p99 under
//! batch flood stays within 2× of unloaded (of [`QOS_NOISE_FLOOR_MS`] when
//! the unloaded p99 is below it), and the flood itself sheds with
//! `Overloaded` — and the numbers land in the same JSON artifact under
//! `"qos"`.
//!
//! A third, **warm-window** phase pins what the batching window is *for*:
//! closed-loop clients on a warm service configured with a 20 ms window
//! must see a p50 below half of it — a request the cache answers whole has
//! no solve to share and never waits for company. Numbers land under
//! `"warm_window"`.
//!
//! Environment:
//! * `PPD_SCALE`   — `small` (default: 120 voters) or `paper` (1000);
//! * `PPD_VOTERS` / `PPD_CANDIDATES` — explicit size overrides;
//! * `PPD_CLIENTS` — client threads (default 4);
//! * `PPD_QUERIES` — queries per client (default 24 small / 100 paper);
//! * `PPD_QOS_QUERIES` — interactive probes per QoS round (default 200; a
//!   measurement is the median of [`QOS_ROUNDS`] rounds);
//! * `PPD_FLOODERS` — batch flooder threads in the loaded phase (default 4).

use ppd_bench::{env_usize, print_table, write_results, Scale};
use ppd_core::{ConjunctiveQuery, Engine, EvalConfig, Term, TopKStrategy};
use ppd_datagen::{polls_database, polls_q1_query, PollsConfig};
use ppd_obs::Histogram;
use ppd_service::{Answer, Request, Service, ServiceConfig, ServiceError, SubmitOptions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Rounds per QoS measurement. A round's p99 at sub-millisecond scale moves
/// with one scheduler hiccup; the median of five does not.
const QOS_ROUNDS: usize = 5;

/// The smallest unloaded p99 the QoS bound is taken relative to. Both phases
/// are cache-hot and hold no window, so what they measure is tens of
/// microseconds of service time plus thread wake-ups — and under the flood
/// the wake-ups compete with this harness's own flooder threads for the
/// cores. On the 2-CPU reference box the *same* unloaded measurement read
/// 0.04–0.5 ms from run to run (some 60 runs) while the loaded p99 read
/// 0.11–0.40 ms whatever the unloaded one did; a bound below 0.5 ms would sit
/// inside that spread. A priority inversion costs a solve — milliseconds.
const QOS_NOISE_FLOOR_MS: f64 = 0.25;

fn pair_query() -> ConjunctiveQuery {
    ConjunctiveQuery::new("pair").prefer(
        "Polls",
        vec![Term::any(), Term::any()],
        Term::val("cand0"),
        Term::val("cand1"),
    )
}

fn chain_query() -> ConjunctiveQuery {
    ConjunctiveQuery::new("chain")
        .prefer(
            "Polls",
            vec![Term::any(), Term::any()],
            Term::val("cand0"),
            Term::val("cand1"),
        )
        .prefer(
            "Polls",
            vec![Term::any(), Term::any()],
            Term::val("cand1"),
            Term::val("cand2"),
        )
}

/// The request mix, cycled per client with a per-client offset so
/// concurrent waves blend kinds.
fn mix() -> Vec<Request> {
    vec![
        Request::Boolean(polls_q1_query()),
        Request::Count(chain_query()),
        Request::SessionProbabilities(pair_query()),
        Request::TopK {
            query: polls_q1_query(),
            k: 5,
            strategy: TopKStrategy::UpperBound {
                edges_per_pattern: 2,
            },
        },
        Request::Boolean(pair_query()),
    ]
}

/// Direct-engine reference answer for one request.
fn direct(engine: &Engine, db: &ppd_core::PpdDatabase, request: &Request) -> Answer {
    match request {
        Request::Boolean(q) => Answer::Boolean(engine.evaluate_boolean(db, q).unwrap()),
        Request::Count(q) => Answer::Count(engine.count_sessions(db, q).unwrap()),
        Request::SessionProbabilities(q) => {
            Answer::SessionProbabilities(engine.session_probabilities(db, q).unwrap())
        }
        Request::TopK { query, k, strategy } => Answer::TopK(
            engine
                .most_probable_sessions(db, query, *k, *strategy)
                .unwrap()
                .0,
        ),
    }
}

/// The median of `values`.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// The mixed-priority QoS phase: interactive p99 unloaded vs. under a batch
/// flood into a deliberately shallow batch lane. Asserts the isolation
/// contract (p99 ratio ≤ 2, flood sheds with `Overloaded`, interactive
/// admission untouched) and returns the numbers for the JSON artifact.
fn qos_phase(db: &ppd_core::PpdDatabase) -> serde_json::Value {
    let probes = env_usize("PPD_QOS_QUERIES").unwrap_or(200).max(10);
    let flooders = env_usize("PPD_FLOODERS").unwrap_or(4).max(1);
    // A shallow batch lane (2) under a generous interactive lane: the flood
    // saturates and sheds from its own lane, never queueing in front of
    // interactive traffic. Every request of both phases is cache-hot, so no
    // wave holds the 2 ms window: the measurements are service times.
    let service = Service::new(
        db.clone(),
        ServiceConfig::new(EvalConfig::exact())
            .with_max_batch(16)
            .with_max_wait(Duration::from_millis(2))
            .with_max_queue(1024)
            .with_max_queue_batch(2),
    );
    let probe = Request::Boolean(polls_q1_query());
    let flood = Request::Count(pair_query());
    // Warm both queries' work units so the phases run cache-hot, the way a
    // long-lived service would.
    for request in [probe.clone(), flood.clone()] {
        service
            .submit(request)
            .expect("admitted")
            .wait()
            .expect("warmup answers");
    }

    // Latencies land in the observability crate's log-bucketed histogram —
    // the same recorder the served `metrics` verb exposes — instead of a
    // sorted vector, so quantiles come from one implementation.
    // One measurement: `QOS_ROUNDS` rounds of `probes` closed-loop requests,
    // reported as the medians of the rounds' p50 and p99.
    let measure = |phase: &str| -> (f64, f64) {
        let rounds: Vec<Histogram> = (0..QOS_ROUNDS)
            .map(|_| {
                let latencies = Histogram::standalone();
                for _ in 0..probes {
                    let submitted = Instant::now();
                    service
                        .submit_with(probe.clone(), SubmitOptions::interactive())
                        .unwrap_or_else(|e| panic!("interactive admission failed ({phase}): {e}"))
                        .wait()
                        .unwrap_or_else(|e| panic!("interactive query failed ({phase}): {e}"));
                    latencies.record_duration(submitted.elapsed());
                }
                latencies
            })
            .collect();
        let of = |p: f64| median(rounds.iter().map(|round| round.percentile_ms(p)).collect());
        (of(50.0), of(99.0))
    };

    let (p50_unloaded, p99_unloaded) = measure("unloaded");

    let stop = AtomicBool::new(false);
    let mut shed = 0u64;
    let mut flood_answered = 0u64;
    let (mut p50_loaded, mut p99_loaded) = (0.0, 0.0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..flooders)
            .map(|_| {
                let (service, stop, flood) = (&service, &stop, &flood);
                scope.spawn(move || {
                    let (mut answered, mut local_shed) = (0u64, 0u64);
                    while !stop.load(Ordering::Relaxed) {
                        match service.submit_with(flood.clone(), SubmitOptions::batch()) {
                            Ok(ticket) => {
                                ticket.wait().expect("batch queries answer");
                                answered += 1;
                            }
                            Err(ServiceError::Overloaded { .. }) => {
                                local_shed += 1;
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("batch submit failed: {e}"),
                        }
                    }
                    (answered, local_shed)
                })
            })
            .collect();
        // Let the flood saturate its lane before probing.
        std::thread::sleep(Duration::from_millis(20));
        (p50_loaded, p99_loaded) = measure("loaded");
        stop.store(true, Ordering::Relaxed);
        for worker in workers {
            let (answered, local_shed) = worker.join().expect("flooder panicked");
            flood_answered += answered;
            shed += local_shed;
        }
    });
    let stats = service.shutdown();

    assert!(
        shed > 0,
        "the batch flood must shed with Overloaded (lane bound 2, {flooders} flooders)"
    );
    assert_eq!(
        stats.interactive_rejected, 0,
        "a batch flood must never close interactive admission"
    );
    let bound = 2.0 * p99_unloaded.max(QOS_NOISE_FLOOR_MS);
    assert!(
        p99_loaded <= bound,
        "interactive p99 under batch flood ({p99_loaded:.3}ms) exceeded {bound:.3}ms — 2× the \
         unloaded p99 ({p99_unloaded:.3}ms, taken as at least {QOS_NOISE_FLOOR_MS}ms) — class \
         isolation is broken"
    );

    println!(
        "\nQoS phase ({QOS_ROUNDS} rounds × {probes} probes, medians; {flooders} batch flooders):"
    );
    print_table(
        &["phase", "p50", "p99"],
        &[
            vec![
                "interactive unloaded".into(),
                format!("{p50_unloaded:.3}ms"),
                format!("{p99_unloaded:.3}ms"),
            ],
            vec![
                "interactive + batch flood".into(),
                format!("{p50_loaded:.3}ms"),
                format!("{p99_loaded:.3}ms"),
            ],
        ],
    );
    println!(
        "batch flood: {flood_answered} answered, {shed} shed with Overloaded; \
         interactive p99 ratio {:.2}, {:.2} of its bound",
        p99_loaded / p99_unloaded.max(1e-9),
        p99_loaded / bound
    );

    serde_json::json!({
        "rounds": QOS_ROUNDS,
        "probes": probes,
        "flooders": flooders,
        "interactive_p50_unloaded_ms": p50_unloaded,
        "interactive_p99_unloaded_ms": p99_unloaded,
        "interactive_p50_loaded_ms": p50_loaded,
        "interactive_p99_loaded_ms": p99_loaded,
        "p99_ratio": p99_loaded / p99_unloaded.max(1e-9),
        "p99_bound_ms": bound,
        "batch_answered": flood_answered,
        "batch_shed": shed,
    })
}

/// `clients` closed-loop client threads, each cycling the mix (with a
/// per-client offset) for `per_client` requests; on `Overloaded` a client
/// yields and retries. Returns the client-observed latencies — recorded
/// straight into one shared log-bucketed histogram (cloned handles share the
/// cells; recording is lock-free) — and the number of retries.
fn closed_loop(service: &Service, clients: usize, per_client: usize) -> (Histogram, u64) {
    let latencies = Histogram::standalone();
    let mut retries = 0u64;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|client| {
                let latencies = latencies.clone();
                scope.spawn(move || {
                    let requests = mix();
                    let mut local_retries = 0u64;
                    for i in 0..per_client {
                        let request = requests[(client + i) % requests.len()].clone();
                        let submitted = Instant::now();
                        let ticket = loop {
                            match service.submit(request.clone()) {
                                Ok(ticket) => break ticket,
                                Err(ServiceError::Overloaded { .. }) => {
                                    local_retries += 1;
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("submit failed: {e}"),
                            }
                        };
                        ticket.wait().expect("query answers");
                        latencies.record_duration(submitted.elapsed());
                    }
                    local_retries
                })
            })
            .collect();
        for worker in workers {
            retries += worker.join().expect("client thread panicked");
        }
    });
    (latencies, retries)
}

/// The warm-window phase: `clients` closed-loop clients cycle the mix on a
/// warm service whose batching window is 20 ms. Asserts the client p50 is
/// below half the window and returns the numbers for the JSON artifact.
fn warm_window_phase(
    db: &ppd_core::PpdDatabase,
    clients: usize,
    per_client: usize,
) -> serde_json::Value {
    let window = Duration::from_millis(20);
    let service = Service::new(
        db.clone(),
        ServiceConfig::new(EvalConfig::exact())
            .with_max_batch(16)
            .with_max_wait(window),
    );
    for request in mix() {
        service
            .submit(request)
            .expect("admitted")
            .wait()
            .expect("warmup answers");
    }
    let (latencies, _) = closed_loop(&service, clients, per_client);
    let stats = service.shutdown();
    let p50 = latencies.percentile_ms(50.0);
    let window_ms = window.as_secs_f64() * 1e3;
    println!(
        "\nwarm-window phase ({clients} clients × {per_client} queries, {window_ms:.0}ms \
         window): p50 {p50:.2}ms, p99 {:.2}ms, mean wave {:.2}",
        latencies.percentile_ms(99.0),
        stats.mean_wave_size()
    );
    assert!(
        p50 < window_ms / 2.0,
        "warm closed-loop p50 ({p50:.2}ms) is not below half the {window_ms:.0}ms window — \
         cache hits are waiting for company they cannot share a solve with"
    );
    serde_json::json!({
        "window_ms": window_ms,
        "clients": clients,
        "queries_per_client": per_client,
        "p50_ms": p50,
        "p99_ms": latencies.percentile_ms(99.0),
        "mean_wave_size": stats.mean_wave_size(),
    })
}

fn main() {
    let scale = Scale::from_env();
    let num_voters = env_usize("PPD_VOTERS").unwrap_or_else(|| scale.pick(120, 1000));
    let num_candidates = env_usize("PPD_CANDIDATES")
        .unwrap_or_else(|| scale.pick(10, 20))
        .max(3);
    let clients = env_usize("PPD_CLIENTS").unwrap_or(4).max(1);
    let per_client = env_usize("PPD_QUERIES")
        .unwrap_or_else(|| scale.pick(24, 100))
        .max(1);
    let db = polls_database(&PollsConfig {
        num_candidates,
        num_voters,
        seed: 2016,
    });
    let eval = EvalConfig::exact();
    let service = Service::new(
        db.clone(),
        ServiceConfig::new(eval.clone())
            .with_max_batch(16)
            .with_max_wait(Duration::from_millis(1)),
    );
    println!(
        "service_load: {num_voters} voters × {num_candidates} candidates, \
         {clients} clients × {per_client} queries\n"
    );

    // Determinism spot-check before the timed run (also warms the cache the
    // way any long-lived service would be warm).
    let reference_engine = Engine::new(eval);
    for request in mix() {
        let served = service
            .submit(request.clone())
            .expect("admitted")
            .wait()
            .expect("answers");
        assert_eq!(
            served,
            direct(&reference_engine, &db, &request),
            "service answers must be bit-identical to direct engine calls"
        );
    }

    let start = Instant::now();
    let (latencies, retries) = closed_loop(&service, clients, per_client);
    let wall = start.elapsed();
    let stats = service.shutdown();
    println!("{stats}\n");

    let total_queries = latencies.count() as usize;
    let throughput = total_queries as f64 / wall.as_secs_f64().max(1e-9);
    let p50 = latencies.percentile_ms(50.0);
    let p99 = latencies.percentile_ms(99.0);
    let mean = latencies.mean() * 1e-6;
    print_table(
        &["queries", "wall-clock", "throughput", "p50", "p99", "mean"],
        &[vec![
            total_queries.to_string(),
            format!("{:.1?}", wall),
            format!("{throughput:.1}/s"),
            format!("{p50:.2}ms"),
            format!("{p99:.2}ms"),
            format!("{mean:.2}ms"),
        ]],
    );
    println!("\nwave sizes:");
    print_table(
        &["size", "waves"],
        &stats
            .wave_sizes
            .iter()
            .map(|&(size, count)| vec![size.to_string(), count.to_string()])
            .collect::<Vec<_>>(),
    );

    let qos = qos_phase(&db);
    let warm_window = warm_window_phase(&db, clients, per_client);

    write_results(
        "service_load",
        &serde_json::json!({
            "experiment": "service_load",
            "num_voters": num_voters,
            "num_candidates": num_candidates,
            "clients": clients,
            "queries_per_client": per_client,
            "total_queries": total_queries,
            "wall_clock_ms": wall.as_secs_f64() * 1e3,
            "throughput_qps": throughput,
            "latency_ms": { "p50": p50, "p99": p99, "mean": mean },
            "overload_retries": retries,
            "waves": stats.waves,
            "mean_wave_size": stats.mean_wave_size(),
            "max_wave": stats.max_wave,
            "wave_size_histogram": stats.wave_sizes.iter()
                .map(|&(size, count)| serde_json::json!({"size": size, "waves": count}))
                .collect::<Vec<_>>(),
            "cache_hit_rate": stats.cache.hit_rate(),
            "marginals_solved": stats.cache.marginal_misses,
            "marginals_hit": stats.cache.marginal_hits,
            "qos": qos,
            "warm_window": warm_window,
        }),
    );
}
