//! A query the marginal cache answers whole is answered at admission, on
//! the thread that submits it, and never enters the admission queue:
//!
//! * it does not wait out another tenant's cold batch wave;
//! * a query admitted after an update still reads what the update wrote,
//!   in process and pipelined on one wire connection, and every answer of
//!   a mixed query/update workload equals a fresh engine's on the database
//!   replayed to the version the answer reports;
//! * after shutdown has begun it is refused like any other submission, and
//!   a full lane sheds what would queue but not a hit;
//! * its traced timeline is `admitted` then `delivered`, nothing between.

use ppd::datagen::{polls_database, polls_q1_query, PollsConfig};
use ppd::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn small_db() -> PpdDatabase {
    polls_database(&PollsConfig {
        num_candidates: 5,
        num_voters: 12,
        seed: 11,
    })
}

fn pair_query(better: &str, worse: &str) -> ConjunctiveQuery {
    ConjunctiveQuery::new(format!("{better}-over-{worse}")).prefer(
        "Polls",
        vec![Term::any(), Term::any()],
        Term::val(better),
        Term::val(worse),
    )
}

/// A fresh session for the polls relation of `db`, tagged so every call
/// inserts a distinct one.
fn insert(db: &PpdDatabase, tag: &str, perm: Vec<u32>, phi: f64) -> Update {
    let prelation = db.preference_relation_names()[0].to_string();
    let arity = db
        .preference_relation(&prelation)
        .unwrap()
        .session_columns()
        .len();
    Update::InsertSession {
        prelation,
        session: Session::new(
            (0..arity)
                .map(|i| Value::from(format!("{tag}-{i}")))
                .collect(),
            MallowsModel::new(Ranking::new(perm).unwrap(), phi).unwrap(),
        ),
    }
}

/// Answers `request` on a fresh engine, bypassing the service.
fn fresh(db: &PpdDatabase, request: &Request) -> Answer {
    let engine = Engine::new(EvalConfig::exact());
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

/// Blocks until the dispatcher has popped everything queued and is inside a
/// wave.
fn wait_until_busy(service: &Service) {
    let started = Instant::now();
    loop {
        let stats = service.stats();
        if stats.queue_depth == 0 && stats.in_flight_waves == 1 {
            return;
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the dispatcher never picked the job up: {stats}"
        );
        std::thread::yield_now();
    }
}

/// A database and a Count of a five-candidate chain over its 1,000
/// sessions: a cold wave of many general-DAG solves.
fn slow_tenant() -> (PpdDatabase, Request) {
    let db = polls_database(&PollsConfig {
        num_candidates: 14,
        num_voters: 1000,
        seed: 7,
    });
    let chain = pair_query("cand0", "cand1")
        .prefer(
            "Polls",
            vec![Term::any(), Term::any()],
            Term::val("cand1"),
            Term::val("cand2"),
        )
        .prefer(
            "Polls",
            vec![Term::any(), Term::any()],
            Term::val("cand2"),
            Term::val("cand3"),
        )
        .prefer(
            "Polls",
            vec![Term::any(), Term::any()],
            Term::val("cand3"),
            Term::val("cand4"),
        );
    (db, Request::Count(chain))
}

#[test]
fn a_warm_request_does_not_wait_out_another_tenant_s_cold_batch_wave() {
    // Tenant b's batch Count is a long cold wave; tenant a's Q1 is warm.
    let (db_b, chain) = slow_tenant();
    let service = Service::with_databases(
        vec![("a".into(), small_db()), ("b".into(), db_b)],
        ServiceConfig::new(EvalConfig::exact()),
    );
    let q1 = Request::Boolean(polls_q1_query());
    let on = |id: &str, options: SubmitOptions| options.on_database(id);
    let expect = service
        .submit_with(q1.clone(), on("a", SubmitOptions::interactive()))
        .unwrap()
        .wait()
        .unwrap();

    let batch_started = Instant::now();
    let batch = service
        .submit_with(chain, on("b", SubmitOptions::batch()))
        .unwrap();
    wait_until_busy(&service);
    let started = Instant::now();
    let answer = service
        .submit_with(q1, on("a", SubmitOptions::interactive()))
        .unwrap()
        .wait()
        .unwrap();
    let took = started.elapsed();
    let batch_pending = batch.try_wait().is_none();
    batch.wait().unwrap();
    let wave = batch_started.elapsed();
    assert!(
        wave > Duration::from_millis(20),
        "tenant b's cold wave took only {wave:?}: too short to test anything"
    );
    assert!(
        batch_pending,
        "the warm request was answered after the wave"
    );
    assert_eq!(answer, expect);
    assert!(
        took < Duration::from_millis(5),
        "a warm interactive request took {took:?} during another tenant's \
         {wave:?} batch wave"
    );
    assert_eq!(service.stats().answered_at_admission, 1);
}

#[test]
fn a_query_pipelined_behind_an_update_on_one_connection_reads_it() {
    // Tenant b's cold wave keeps the dispatcher from applying tenant a's
    // update for a while; a's Q1 is warm, so only the pending update keeps
    // it from being answered at admission against the old snapshot.
    let db = small_db();
    let (db_b, chain) = slow_tenant();
    let service = Arc::new(Service::with_databases(
        vec![("a".into(), db.clone()), ("b".into(), db_b)],
        ServiceConfig::new(EvalConfig::exact()),
    ));
    let q1 = Request::Boolean(polls_q1_query());
    service.submit(q1.clone()).unwrap().wait().unwrap();
    let server = WireServer::bind_tcp("127.0.0.1:0", Arc::clone(&service)).expect("bind tcp");
    let mut wire = WireClient::connect_tcp(server.local_addr().unwrap()).expect("connect");
    let options = SubmitOptions::interactive();
    let update = insert(&db, "late", vec![4, 3, 2, 1, 0], 0.2);
    let slow = service
        .submit_with(chain, SubmitOptions::batch().on_database("b"))
        .unwrap();
    wait_until_busy(&service);

    let receipt = wire.send_update(&update, &options).unwrap();
    let query = wire.send(&q1, &options).unwrap();
    let (answer, version) = wire.recv_versioned(query).unwrap();
    let (receipt, receipt_version) = wire.recv_versioned(receipt).unwrap();
    assert!(
        matches!(receipt, Answer::Updated { version: 2, .. }),
        "{receipt:?}"
    );
    assert_eq!(receipt_version, Some(2));
    assert_eq!(
        version,
        Some(2),
        "the query read the snapshot before the update"
    );
    let mut updated = db.clone();
    updated.apply(update).unwrap();
    assert_eq!(answer, fresh(&updated, &q1));
    assert_ne!(answer, fresh(&db, &q1), "the update must move Q1's answer");
    slow.wait().unwrap();
    drop(wire);
    server.shutdown();
}

#[test]
fn every_versioned_answer_of_a_mixed_wire_workload_matches_a_replayed_database() {
    const CLIENTS: usize = 3;
    const ROUNDS: usize = 4;
    let db = small_db();
    let service = Arc::new(Service::new(
        db.clone(),
        ServiceConfig::new(EvalConfig::exact()),
    ));
    let requests = vec![
        Request::Boolean(polls_q1_query()),
        Request::Count(pair_query("cand0", "cand1")),
        Request::TopK {
            query: polls_q1_query(),
            k: 3,
            strategy: TopKStrategy::Naive,
        },
    ];
    for request in &requests {
        service.submit(request.clone()).unwrap().wait().unwrap();
    }
    let server = WireServer::bind_tcp("127.0.0.1:0", Arc::clone(&service)).expect("bind tcp");
    let addr = server.local_addr().unwrap();
    // version → the update that produced it; (request, version, answer).
    let applied: Mutex<BTreeMap<u64, Update>> = Mutex::default();
    let answered: Mutex<Vec<(usize, u64, Answer)>> = Mutex::default();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (db, requests, applied, answered) = (&db, &requests, &applied, &answered);
            scope.spawn(move || {
                let mut wire = WireClient::connect_tcp(addr).expect("connect");
                let options = SubmitOptions::interactive();
                for round in 0..ROUNDS {
                    // An update pipelined between two queries every other
                    // round; the rest warm queries.
                    let mut sent = Vec::new();
                    for (kind, request) in requests.iter().enumerate() {
                        sent.push((Some(kind), wire.send(request, &options).unwrap(), None));
                        if kind == 0 && (client + round) % 2 == 0 {
                            let phi = 0.1 + 0.1 * (client * ROUNDS + round) as f64 / 12.0;
                            let tag = format!("c{client}r{round}");
                            let update = insert(db, &tag, vec![1, 0, 3, 2, 4], phi);
                            let id = wire.send_update(&update, &options).unwrap();
                            sent.push((None, id, Some(update)));
                        }
                    }
                    for (kind, id, update) in sent {
                        let (answer, version) = wire.recv_versioned(id).unwrap();
                        let version = version.expect("every answer is versioned");
                        match (kind, update) {
                            (Some(kind), _) => {
                                answered.lock().unwrap().push((kind, version, answer))
                            }
                            (None, Some(update)) => {
                                assert!(matches!(answer, Answer::Updated { .. }));
                                let previous = applied.lock().unwrap().insert(version, update);
                                assert!(previous.is_none(), "two updates made version {version}");
                            }
                            (None, None) => unreachable!(),
                        }
                    }
                }
            });
        }
    });
    drop(server);
    let applied = applied.into_inner().unwrap();
    let answered = answered.into_inner().unwrap();
    assert_eq!(applied.len(), CLIENTS * ROUNDS / 2);
    let versions: Vec<u64> = applied.keys().copied().collect();
    assert_eq!(versions, (2..2 + applied.len() as u64).collect::<Vec<_>>());
    // The database at every version, replayed from version 1.
    let mut replayed = vec![db.clone()];
    for update in applied.into_values() {
        let mut next = replayed.last().unwrap().clone();
        next.apply(update).unwrap();
        replayed.push(next);
    }
    let mut expected: BTreeMap<(usize, u64), Answer> = BTreeMap::new();
    for (kind, version, answer) in &answered {
        let at = &replayed[(*version - 1) as usize];
        let expect = expected
            .entry((*kind, *version))
            .or_insert_with(|| fresh(at, &requests[*kind]));
        assert_eq!(
            answer,
            expect,
            "{} at version {version} diverged from a fresh engine on the \
             replayed database",
            requests[*kind].query().name()
        );
    }
    assert_eq!(answered.len(), CLIENTS * ROUNDS * requests.len());
    assert!(
        service.stats().answered_at_admission > 0,
        "nothing was warm"
    );
}

#[test]
fn a_warm_request_after_shutdown_has_begun_is_refused() {
    let service = Service::new(small_db(), ServiceConfig::new(EvalConfig::exact()));
    let q1 = Request::Boolean(polls_q1_query());
    service.submit(q1.clone()).unwrap().wait().unwrap();
    service.submit(q1.clone()).unwrap().wait().unwrap();
    assert_eq!(service.stats().answered_at_admission, 1);
    service.initiate_shutdown();
    assert!(matches!(
        service.submit(q1),
        Err(ServiceError::ShuttingDown)
    ));
    let stats = service.shutdown();
    assert_eq!((stats.submitted, stats.answered_at_admission), (2, 1));
}

#[test]
fn a_full_lane_sheds_what_would_queue_but_not_a_hit() {
    // Tenant a's update waits behind a read guard, so the dispatcher sits in
    // its first wave; the interactive lane holds one job.
    let service = Service::with_databases(
        vec![("a".into(), small_db()), ("b".into(), small_db())],
        ServiceConfig::new(EvalConfig::exact()).with_max_queue(1),
    );
    let on_b = || SubmitOptions::interactive().on_database("b");
    let q1 = Request::Boolean(polls_q1_query());
    service
        .submit_with(q1.clone(), on_b())
        .unwrap()
        .wait()
        .unwrap();
    let guard = service.database();
    let update = service.submit_update(insert(&small_db(), "held", vec![0, 1, 2, 3, 4], 0.5));
    let update = update.unwrap();
    wait_until_busy(&service);
    let cold = |name: &str| Request::Count(pair_query("cand3", name));
    let queued = service.submit_with(cold("cand4"), on_b()).unwrap();
    assert!(matches!(
        service.submit_with(cold("cand2"), on_b()),
        Err(ServiceError::Overloaded { depth: 1 })
    ));
    let hit = service.submit_with(q1, on_b()).unwrap();
    assert!(hit.try_wait().is_some(), "a hit never waits for the lane");
    drop(guard);
    update.wait().unwrap();
    queued.wait().unwrap();
    let stats = service.shutdown();
    assert_eq!((stats.rejected, stats.answered_at_admission), (1, 1));
}

#[test]
fn a_traced_hit_s_timeline_is_admitted_then_delivered() {
    let service = Service::new(
        small_db(),
        ServiceConfig::new(EvalConfig::exact()).with_obs(ObsConfig::full()),
    );
    let q1 = Request::Boolean(polls_q1_query());
    let cold = service.submit(q1.clone()).unwrap();
    let cold_trace = cold.trace_id();
    cold.wait().unwrap();
    let names = |trace| -> Vec<&'static str> {
        let events = service.trace_events(trace);
        events.iter().map(|record| record.event.name()).collect()
    };
    assert!(
        names(cold_trace).contains(&"wave-joined"),
        "the cold one queued"
    );
    let hit = service.submit(q1).unwrap();
    let trace = hit.trace_id();
    hit.wait().unwrap();
    assert_eq!(names(trace), ["admitted", "delivered"]);
    let events = service.trace_events(trace);
    assert!(
        matches!(&events[0].event, SpanEvent::Admitted { depth: 0, .. }),
        "a hit never entered a lane: {events:?}"
    );
}
