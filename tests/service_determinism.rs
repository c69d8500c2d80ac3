//! The serving layer's determinism contract: for a fixed engine
//! configuration, answers served through the `ppd_service` front-end are
//! **bit-identical** to calling the `Engine` directly — regardless of batch
//! window, arrival order, wave composition, admission class, transport
//! (in-process ticket or the JSON wire protocol), or thread count.
//!
//! The contract is what makes the serving layer safe to deploy: batching,
//! class priority, and the socket hop are purely operational concerns and
//! can never change a result. It holds because every work unit's RNG seed
//! and cache key derive from the unit's content alone, the service adds no
//! state of its own to the numbers, and the wire codec round-trips floats
//! with shortest-round-trip formatting.
//!
//! Equality below is `assert_eq!` on `f64`s — bitwise, no tolerance.

use ppd::datagen::{polls_database, polls_q1_query, PollsConfig};
use ppd::obs::parse_exposition;
use ppd::prelude::*;
use std::sync::Arc;

fn database() -> PpdDatabase {
    polls_database(&PollsConfig {
        num_candidates: 6,
        num_voters: 24,
        seed: 2020,
    })
}

/// A two-label query naming concrete candidates.
fn pair_query() -> ConjunctiveQuery {
    ConjunctiveQuery::new("pair").prefer(
        "Polls",
        vec![Term::any(), Term::any()],
        Term::val("cand0"),
        Term::val("cand1"),
    )
}

/// A chain `cand0 ≻ cand1 ≻ cand2` — a general-class union, so the exact
/// configuration exercises the inclusion–exclusion solver too.
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

/// A mixed workload covering every request kind, with a duplicate to give
/// waves shared work units.
fn workload() -> Vec<Request> {
    vec![
        Request::Boolean(polls_q1_query()),
        Request::Count(chain_query()),
        Request::SessionProbabilities(pair_query()),
        Request::TopK {
            query: polls_q1_query(),
            k: 3,
            strategy: TopKStrategy::UpperBound {
                edges_per_pattern: 2,
            },
        },
        Request::TopK {
            query: pair_query(),
            k: 2,
            strategy: TopKStrategy::Naive,
        },
        Request::Boolean(polls_q1_query()),
    ]
}

/// The reference: each request evaluated directly on one `Engine`.
fn direct_answers(db: &PpdDatabase, eval: &EvalConfig) -> Vec<Answer> {
    let engine = Engine::new(eval.clone());
    workload()
        .into_iter()
        .map(|request| match request {
            Request::Boolean(q) => Answer::Boolean(engine.evaluate_boolean(db, &q).unwrap()),
            Request::Count(q) => Answer::Count(engine.count_sessions(db, &q).unwrap()),
            Request::SessionProbabilities(q) => {
                Answer::SessionProbabilities(engine.session_probabilities(db, &q).unwrap())
            }
            Request::TopK { query, k, strategy } => Answer::TopK(
                engine
                    .most_probable_sessions(db, &query, k, strategy)
                    .unwrap()
                    .0,
            ),
        })
        .collect()
}

/// Answers the workload through a service, optionally submitting in
/// reversed order, and returns the answers in workload order.
fn service_answers(
    db: &PpdDatabase,
    eval: &EvalConfig,
    max_batch: usize,
    reversed: bool,
) -> Vec<Answer> {
    let window = if max_batch > 1 {
        std::time::Duration::from_millis(50)
    } else {
        std::time::Duration::ZERO
    };
    let service = Service::new(
        db.clone(),
        ServiceConfig::new(eval.clone())
            .with_max_batch(max_batch)
            .with_max_wait(window),
    );
    let requests = workload();
    let n = requests.len();
    let order: Vec<usize> = if reversed {
        (0..n).rev().collect()
    } else {
        (0..n).collect()
    };
    let mut tickets: Vec<Option<Ticket>> = (0..n).map(|_| None).collect();
    for &i in &order {
        tickets[i] = Some(service.submit(requests[i].clone()).expect("admitted"));
    }
    let answers: Vec<Answer> = tickets
        .into_iter()
        .map(|t| t.unwrap().wait().expect("query answers"))
        .collect();
    let stats = service.shutdown();
    assert_eq!(stats.submitted, n as u64);
    assert_eq!(stats.answered, n as u64);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.max_wave <= max_batch);
    answers
}

/// The full matrix for one engine configuration: batch windows {1, max},
/// submission order {forward, reversed}, threads {1, 0 = auto}.
fn pin_contract(eval_base: EvalConfig) {
    let db = database();
    let max = workload().len();
    for threads in [1usize, 0] {
        let eval = eval_base.clone().with_threads(threads);
        let direct = direct_answers(&db, &eval);
        for max_batch in [1usize, max] {
            for reversed in [false, true] {
                let served = service_answers(&db, &eval, max_batch, reversed);
                assert_eq!(
                    served, direct,
                    "service answers diverged from direct engine answers \
                     (threads={threads}, max_batch={max_batch}, reversed={reversed})"
                );
            }
        }
    }
}

#[test]
fn exact_answers_are_bit_identical_to_direct_engine_calls() {
    pin_contract(EvalConfig::exact());
}

#[test]
fn approximate_answers_are_bit_identical_to_direct_engine_calls() {
    // The strong half of the contract: Monte-Carlo estimates depend on RNG
    // streams, so any leak of batching, arrival order, or scheduling into
    // the seeds would show up here first.
    pin_contract(EvalConfig::approximate(60));
}

#[test]
fn grouping_off_still_matches_direct_calls() {
    // Without grouping every request is its own unit and the cache is
    // bypassed; the service must still serve the same bits.
    pin_contract(EvalConfig::exact().without_grouping());
}

/// Answers the workload through one service with a per-request admission
/// class, in workload order.
fn classed_answers(db: &PpdDatabase, eval: &EvalConfig, class: AdmissionClass) -> Vec<Answer> {
    let service = Service::new(
        db.clone(),
        ServiceConfig::new(eval.clone())
            .with_max_batch(workload().len())
            .with_max_wait(std::time::Duration::from_millis(50)),
    );
    let options = match class {
        AdmissionClass::Interactive => SubmitOptions::interactive(),
        AdmissionClass::Batch => SubmitOptions::batch(),
    };
    let tickets: Vec<Ticket> = workload()
        .into_iter()
        .map(|request| {
            service
                .submit_with(request, options.clone())
                .expect("admitted")
        })
        .collect();
    tickets
        .into_iter()
        .map(|t| t.wait().expect("query answers"))
        .collect()
}

#[test]
fn a_long_lived_service_serves_its_second_pass_bit_identically() {
    // One service, two passes: the second is served from the caches the
    // first warmed, and its bits must equal the direct reference.
    let db = database();
    let direct = direct_answers(&db, &EvalConfig::exact());
    let service = Service::new(
        db.clone(),
        ServiceConfig::new(EvalConfig::exact())
            .with_max_batch(workload().len())
            .with_max_wait(std::time::Duration::from_millis(50)),
    );
    let mut hits = Vec::new();
    for pass in 0..2 {
        let tickets: Vec<Ticket> = workload()
            .into_iter()
            .map(|request| service.submit(request).expect("admitted"))
            .collect();
        let answers: Vec<Answer> = tickets
            .into_iter()
            .map(|t| t.wait().expect("query answers"))
            .collect();
        assert_eq!(answers, direct, "pass {pass} diverged from direct answers");
        hits.push(service.engine().cache_stats().marginal_hits);
    }
    assert!(
        hits[1] > hits[0],
        "the second pass must actually have been served from the warm cache"
    );
    service.shutdown();
}

#[test]
fn observability_mode_never_changes_served_bits() {
    // The serving layer's half of the zero-bit-impact contract: the same
    // workload served with observability off, fully on, and trace-sampled
    // 1-in-2 must be bit-identical to the direct engine reference — and the
    // instrumented arms must actually have recorded, so the equality is
    // not vacuous.
    let db = database();
    for eval in [EvalConfig::exact(), EvalConfig::approximate(60)] {
        let direct = direct_answers(&db, &eval);
        for obs in [ObsConfig::off(), ObsConfig::full(), ObsConfig::sampled(2)] {
            let service = Service::new(
                db.clone(),
                ServiceConfig::new(eval.clone())
                    .with_max_batch(workload().len())
                    .with_max_wait(std::time::Duration::from_millis(50))
                    .with_obs(obs),
            );
            let tickets: Vec<Ticket> = workload()
                .into_iter()
                .map(|request| service.submit(request).expect("admitted"))
                .collect();
            let traces: Vec<u64> = tickets.iter().map(Ticket::trace_id).collect();
            let answers: Vec<Answer> = tickets
                .into_iter()
                .map(|t| t.wait().expect("query answers"))
                .collect();
            assert_eq!(
                answers, direct,
                "obs mode {obs:?} diverged from direct engine answers"
            );

            let text = service.metrics_text();
            if obs.metrics {
                let samples = parse_exposition(&text).expect("exposition parses strictly");
                assert!(!samples.is_empty(), "metrics on but exposition empty");
                for instrument in [
                    "ppd_unit_solve_seconds",
                    "ppd_queue_wait_seconds",
                    "ppd_cache_misses_total",
                ] {
                    assert!(
                        samples
                            .iter()
                            .any(|(series, _)| series.starts_with(instrument)),
                        "{instrument} missing with obs {obs:?}:\n{text}"
                    );
                }
            } else {
                assert!(text.is_empty(), "metrics off must render nothing: {text}");
            }

            // Trace ids are always assigned; timelines exist per the mode.
            assert!(traces.iter().all(|&t| t != 0));
            let timelines = traces
                .iter()
                .filter(|&&t| !service.trace_events(t).is_empty())
                .count();
            match obs.trace {
                TraceMode::Off => assert_eq!(timelines, 0, "obs off recorded spans"),
                TraceMode::All => {
                    assert_eq!(timelines, traces.len(), "full tracing missed submissions");
                    for &trace in &traces {
                        let events = service.trace_events(trace);
                        assert_eq!(
                            events.last().expect("timeline nonempty").event.name(),
                            "delivered",
                            "trace {trace} does not end at delivery: {events:?}"
                        );
                    }
                }
                TraceMode::SampleEvery(_) => {
                    assert!(
                        timelines > 0 && timelines < traces.len(),
                        "1-in-2 sampling should trace some but not all of \
                         {} submissions (traced {timelines})",
                        traces.len()
                    );
                }
            }
            service.shutdown();
        }
    }
}

#[test]
fn admission_class_never_changes_answer_bits() {
    let db = database();
    for eval in [EvalConfig::exact(), EvalConfig::approximate(60)] {
        let direct = direct_answers(&db, &eval);
        for class in [AdmissionClass::Interactive, AdmissionClass::Batch] {
            assert_eq!(
                classed_answers(&db, &eval, class),
                direct,
                "{} answers diverged from direct engine answers",
                class.name()
            );
        }
    }
}

/// The observability verbs over one connected client: responses carry the
/// trace id, `metrics` serves a parseable exposition naming the core
/// instruments, and `trace` serves the submission's span timeline.
fn verify_obs_verbs(client: &mut WireClient) {
    let id = client
        .send(
            &Request::Boolean(polls_q1_query()),
            &SubmitOptions::default(),
        )
        .expect("send frame");
    let (_, _, trace) = client.recv_traced(id).expect("query answers");
    assert_ne!(trace, 0, "wire responses must carry the trace id");

    let text = client.metrics().expect("metrics verb answers");
    let samples = parse_exposition(&text).expect("served exposition parses strictly");
    for instrument in ["ppd_unit_solve_seconds", "ppd_queue_wait_seconds"] {
        assert!(
            samples
                .iter()
                .any(|(series, _)| series.starts_with(instrument)),
            "{instrument} missing from the served exposition:\n{text}"
        );
    }

    let events = client.trace(trace).expect("trace verb answers");
    assert!(!events.is_empty(), "traced submission has no timeline");
    assert_eq!(
        events.last().expect("timeline nonempty").event.name(),
        "delivered",
        "the timeline ends at delivery: {events:?}"
    );
}

/// Answers the workload through a wire client, alternating admission
/// classes, with every request pipelined before the first receive — so
/// responses genuinely stream back out of order and are re-matched by id.
fn wire_answers(client: &mut WireClient) -> Vec<Answer> {
    let ids: Vec<u64> = workload()
        .iter()
        .enumerate()
        .map(|(i, request)| {
            let options = if i % 2 == 0 {
                SubmitOptions::interactive()
            } else {
                SubmitOptions::batch()
            };
            client.send(request, &options).expect("send frame")
        })
        .collect();
    ids.into_iter()
        .map(|id| client.recv(id).expect("query answers over the wire"))
        .collect()
}

#[test]
fn tcp_wire_answers_are_bit_identical_to_direct_engine_calls() {
    let db = database();
    for eval in [EvalConfig::exact(), EvalConfig::approximate(60)] {
        let direct = direct_answers(&db, &eval);
        let service = Arc::new(Service::new(db.clone(), ServiceConfig::new(eval.clone())));
        let server = WireServer::bind_tcp("127.0.0.1:0", Arc::clone(&service)).expect("bind tcp");
        let addr = server.local_addr().expect("tcp server has an address");
        let mut client = WireClient::connect_tcp(addr).expect("connect");
        assert_eq!(
            wire_answers(&mut client),
            direct,
            "TCP wire answers diverged from direct engine answers"
        );
        verify_obs_verbs(&mut client);
        drop(client);
        server.shutdown();
    }
}

#[test]
fn error_budget_answers_are_bit_identical_across_transports() {
    // A deep chain whose static exact cost clears the planner's threshold,
    // so the budgeted sampler genuinely runs (with deterministic doubling
    // rounds) rather than the whole workload short-circuiting to exact DP.
    let deep_chain = {
        let mut q = ConjunctiveQuery::new("deep-chain");
        for i in 0..5 {
            q = q.prefer(
                "Polls",
                vec![Term::any(), Term::any()],
                Term::val(format!("cand{i}")),
                Term::val(format!("cand{}", i + 1)),
            );
        }
        q
    };
    let db = database();
    let (epsilon, confidence) = (0.05, 0.9);
    let requests = [
        Request::Boolean(polls_q1_query()),
        Request::Boolean(deep_chain),
    ];
    let dedicated = Engine::new(EvalConfig::error_budget(epsilon, confidence));
    let direct: Vec<Answer> = requests
        .iter()
        .map(|r| Answer::Boolean(dedicated.evaluate_boolean(&db, r.query()).unwrap()))
        .collect();

    let service = Arc::new(Service::new(
        db.clone(),
        ServiceConfig::new(EvalConfig::exact()),
    ));
    let options = SubmitOptions::interactive().with_error_budget(epsilon, confidence);
    let in_process: Vec<Answer> = requests
        .iter()
        .map(|r| {
            service
                .submit_with(r.clone(), options.clone())
                .expect("admitted")
                .wait()
                .expect("query answers")
        })
        .collect();
    assert_eq!(
        in_process, direct,
        "per-request budgets diverged from a dedicated error-budget engine"
    );

    let server = WireServer::bind_tcp("127.0.0.1:0", Arc::clone(&service)).expect("bind tcp");
    let mut client = WireClient::connect_tcp(server.local_addr().expect("bound")).expect("connect");
    let wired: Vec<Answer> = requests
        .iter()
        .map(|r| client.call(r, &options).expect("wire answers"))
        .collect();
    assert_eq!(
        wired, direct,
        "the budget must cross the wire without changing bits"
    );

    // The stats verb sees the traffic and lists the tenant with counters
    // summed over its budget engines: the base engine solved nothing here,
    // so every miss is a budget engine's.
    let report = client.stats().expect("stats verb answers");
    assert_eq!(report.service.submitted, 4);
    assert_eq!(report.service.answered, 4);
    assert_eq!(report.tenants.len(), 1);
    assert_eq!(report.tenants[0].0, DEFAULT_DATABASE);
    assert!(
        report.service.cache.marginal_misses > 0,
        "aggregated stats must include the budget engines' counters: {}",
        report.service.cache
    );
    drop(client);
    server.shutdown();
}

#[cfg(unix)]
#[test]
fn unix_socket_answers_are_bit_identical_to_direct_engine_calls() {
    let db = database();
    let eval = EvalConfig::exact();
    let direct = direct_answers(&db, &eval);
    let path = std::env::temp_dir().join(format!("ppd-wire-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let service = Arc::new(Service::new(db, ServiceConfig::new(eval)));
    let server = WireServer::bind_unix(&path, Arc::clone(&service)).expect("bind unix");
    let mut client = WireClient::connect_unix(&path).expect("connect");
    assert_eq!(
        wire_answers(&mut client),
        direct,
        "Unix-socket answers diverged from direct engine answers"
    );
    verify_obs_verbs(&mut client);
    drop(client);
    server.shutdown();
    assert!(!path.exists(), "shutdown unlinks the socket path");
}
