//! The batching window is held for work, not for time: a wave plans first
//! and waits for company only when the plan left something to solve.
//!
//! * a request the cache answers whole never sleeps — alone, or arriving
//!   while another wave is holding its window;
//! * a held window still closes at an update, which (with everything
//!   admitted after it) belongs to the next wave;
//! * planning solves nothing — a top-k the cache answers only halfway waits
//!   its turn behind the interactive lane;
//! * a warm request is answered at admission, so only a cold backlog
//!   forms waves — and under backlog, waves still batch.

use ppd::datagen::{polls_database, polls_q1_query, PollsConfig};
use ppd::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn database() -> PpdDatabase {
    polls_database(&PollsConfig {
        num_candidates: 6,
        num_voters: 24,
        seed: 2016,
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

/// One request of every kind, over two queries.
fn mix() -> Vec<Request> {
    vec![
        Request::Boolean(polls_q1_query()),
        Request::Count(pair_query("cand0", "cand1")),
        Request::SessionProbabilities(polls_q1_query()),
        Request::TopK {
            query: polls_q1_query(),
            k: 3,
            strategy: TopKStrategy::UpperBound {
                edges_per_pattern: 1,
            },
        },
        Request::TopK {
            query: pair_query("cand0", "cand1"),
            k: 2,
            strategy: TopKStrategy::Naive,
        },
    ]
}

/// Answers `request` on `engine` directly, bypassing the service.
fn direct(engine: &Engine, db: &PpdDatabase, request: &Request) -> Answer {
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

/// Fills the service's cache with everything `mix` needs, without going
/// through admission (a cold request would hold the window under test),
/// and returns how many units that took to solve.
fn warm(service: &Service) -> u64 {
    for request in mix() {
        direct(service.engine(), &service.database(), &request);
    }
    service.stats().cache.marginal_misses
}

/// Blocks until the dispatcher has popped everything queued and is inside a
/// wave — with a cold request and a long window, inside its hold.
fn wait_until_holding(service: &Service) {
    let started = Instant::now();
    loop {
        let stats = service.stats();
        if stats.queue_depth == 0 && stats.in_flight_waves == 1 {
            return;
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the dispatcher never picked the request up: {stats}"
        );
        std::thread::yield_now();
    }
}

#[test]
fn a_lone_warm_request_does_not_wait_out_the_window() {
    let db = database();
    let service = Service::new(
        db.clone(),
        ServiceConfig::new(EvalConfig::exact()).with_max_wait(Duration::from_secs(5)),
    );
    let solved = warm(&service);
    let reference = Engine::new(EvalConfig::exact());
    for request in mix() {
        let started = Instant::now();
        let answer = service.submit(request.clone()).unwrap().wait().unwrap();
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "a cached {} answer took {took:?} under a 5 s window",
            request.query().name()
        );
        assert_eq!(answer, direct(&reference, &db, &request));
    }
    let stats = service.shutdown();
    assert_eq!(stats.answered, mix().len() as u64);
    assert_eq!(
        stats.cache.marginal_misses, solved,
        "nothing was left to solve"
    );
}

#[test]
fn a_warm_request_joining_a_held_window_is_answered_at_once() {
    let db = database();
    let service = Service::new(
        db.clone(),
        ServiceConfig::new(EvalConfig::exact())
            .with_max_batch(8)
            .with_max_wait(Duration::from_secs(1)),
    );
    warm(&service);
    // Nothing cached covers this query: its wave holds the 1 s window.
    let cold_query = pair_query("cand2", "cand3");
    let cold = service
        .submit(Request::Boolean(cold_query.clone()))
        .unwrap();
    wait_until_holding(&service);

    let started = Instant::now();
    let warm_answer = service
        .submit(Request::Boolean(polls_q1_query()))
        .unwrap()
        .wait()
        .unwrap();
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "a cached answer waited {took:?} behind another request's window"
    );
    assert!(
        cold.try_wait().is_none(),
        "the cold request is still holding its window"
    );
    let held = service.stats();
    assert_eq!(
        (held.answered_at_admission, held.in_flight_waves),
        (1, 1),
        "the warm request was answered at admission while the cold one held \
         its window: {held}"
    );
    let reference = Engine::new(EvalConfig::exact());
    assert_eq!(
        warm_answer,
        Answer::Boolean(reference.evaluate_boolean(&db, &polls_q1_query()).unwrap())
    );
    assert_eq!(
        cold.wait().unwrap(),
        Answer::Boolean(reference.evaluate_boolean(&db, &cold_query).unwrap())
    );
    let stats = service.shutdown();
    assert_eq!(stats.waves, 1, "only the cold request formed a wave");
    assert_eq!(
        stats.wave_sizes,
        vec![(1, 1)],
        "the cold wave stayed size 1"
    );
}

#[test]
fn an_update_fences_the_held_window() {
    let db = database();
    let service = Service::new(
        db.clone(),
        ServiceConfig::new(EvalConfig::exact())
            .with_max_batch(8)
            .with_max_wait(Duration::from_secs(1)),
    );
    let version = service.database_version(DEFAULT_DATABASE).unwrap();
    let q = polls_q1_query();
    // Cold: Q1's wave reads its snapshot, plans, and holds the window.
    let q1 = service.submit(Request::Boolean(q.clone())).unwrap();
    wait_until_holding(&service);

    let relation = db.preference_relation_names()[0].to_string();
    let arity = db
        .preference_relation(&relation)
        .unwrap()
        .session_columns()
        .len();
    let update = Update::InsertSession {
        prelation: relation,
        session: Session::new(
            (0..arity).map(|i| Value::from(format!("new{i}"))).collect(),
            MallowsModel::new(Ranking::new(vec![4, 1, 5, 0, 3, 2]).unwrap(), 0.35).unwrap(),
        ),
    };
    let started = Instant::now();
    let receipt = service.submit_update(update.clone()).unwrap();
    let q2 = service.submit(Request::Boolean(q.clone())).unwrap();

    // The update cannot apply under Q1's snapshot, so it closes the window:
    // Q1 answers on the version it read, the update and Q2 form the next
    // wave, and Q2 — admitted after the update — reads what it wrote.
    let (q1_answer, q1_version) = q1.wait_versioned();
    assert!(
        started.elapsed() < Duration::from_millis(800),
        "the queued update must cut the 1 s window short"
    );
    assert_eq!(q1_version, Some(version));
    assert!(matches!(
        receipt.wait().unwrap(),
        Answer::Updated { version: v, .. } if v == version + 1
    ));
    let (q2_answer, q2_version) = q2.wait_versioned();
    assert_eq!(q2_version, Some(version + 1));

    let before = Engine::new(EvalConfig::exact());
    assert_eq!(
        q1_answer.unwrap(),
        Answer::Boolean(before.evaluate_boolean(&db, &q).unwrap())
    );
    let mut updated = db.clone();
    updated.apply(update).unwrap();
    let fresh = Engine::new(EvalConfig::exact());
    assert_eq!(
        q2_answer.unwrap(),
        Answer::Boolean(fresh.evaluate_boolean(&updated, &q).unwrap()),
        "Q2's bits diverged from a fresh engine on the updated database"
    );
    let stats = service.shutdown();
    assert_eq!(stats.updates_applied, 1);
}

#[test]
fn a_half_cached_batch_top_k_solves_after_its_interactive_wave_mate() {
    let db = database();
    let service = Service::new(
        db.clone(),
        ServiceConfig::new(EvalConfig::exact().with_threads(1))
            .with_max_batch(2)
            .with_max_wait(Duration::from_secs(5))
            .with_obs(ObsConfig::full()),
    );
    // Two edges per pattern, relaxed to one: a session's bound is not its
    // full union.
    let chain = pair_query("cand0", "cand1").prefer(
        "Polls",
        vec![Term::any(), Term::any()],
        Term::val("cand1"),
        Term::val("cand2"),
    );
    let top = |k| Request::TopK {
        query: chain.clone(),
        k,
        strategy: TopKStrategy::UpperBound {
            edges_per_pattern: 1,
        },
    };
    // `k = 1` caches every session's bound and the few full unions its walk
    // needed; the same bounds under `k = 24` walk every session.
    direct(service.engine(), &service.database(), &top(1));
    let solved = service.stats().cache.marginal_misses;

    // The top-k's bounds are all hits, its walk stops at a cold full union:
    // it holds the window. The interactive request fills the wave.
    let batch = service
        .submit_with(top(24), SubmitOptions::batch())
        .unwrap();
    wait_until_holding(&service);
    assert!(batch.try_wait().is_none(), "the plan stage solved the walk");
    let cold_query = pair_query("cand2", "cand3");
    let interactive = service
        .submit_with(
            Request::Boolean(cold_query.clone()),
            SubmitOptions::interactive(),
        )
        .unwrap();
    let (batch_trace, interactive_trace) = (batch.trace_id(), interactive.trace_id());

    let reference = Engine::new(EvalConfig::exact());
    assert_eq!(
        interactive.wait().unwrap(),
        Answer::Boolean(reference.evaluate_boolean(&db, &cold_query).unwrap())
    );
    assert_eq!(batch.wait().unwrap(), direct(&reference, &db, &top(24)));

    // Span sequence numbers are global: the interactive answer went out
    // before the batch lane's walk — solves and all — finished.
    let delivered = |trace| {
        let events = service.trace_events(trace);
        let last = events.last().expect("timeline nonempty");
        assert_eq!(last.event.name(), "delivered", "{events:?}");
        last.seq
    };
    assert!(
        delivered(interactive_trace) < delivered(batch_trace),
        "a batch-lane top-k was answered ahead of its interactive wave-mate"
    );
    let stats = service.shutdown();
    assert_eq!(
        stats.waves, 1,
        "the interactive request joined the held wave"
    );
    assert!(
        stats.cache.marginal_misses > solved + 24,
        "the walk had full unions of its own to solve beside the 24 units \
         of the interactive query: {stats}"
    );
}

const CLIENTS: usize = 4;
const IN_FLIGHT: usize = 16;

/// Serves `service` over TCP to `CLIENTS` wire clients, each pipelining
/// `IN_FLIGHT` requests of `mix` per round before its first read, and
/// checks every answer against a fresh engine's, bit for bit.
fn pipelined_clients(service: &Arc<Service>, db: &PpdDatabase, rounds: usize) {
    let reference = Engine::new(EvalConfig::exact());
    let expected: Vec<Answer> = mix()
        .iter()
        .map(|request| direct(&reference, db, request))
        .collect();
    let server = WireServer::bind_tcp("127.0.0.1:0", Arc::clone(service)).expect("bind tcp");
    let addr = server.local_addr().expect("bound");
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let expected = &expected;
            scope.spawn(move || {
                let mut wire = WireClient::connect_tcp(addr).expect("connect");
                let options = SubmitOptions::interactive();
                let mix = mix();
                for _ in 0..rounds {
                    // Sixteen requests on the wire before the first read.
                    let sent: Vec<(u64, usize)> = (0..IN_FLIGHT)
                        .map(|i| {
                            let kind = (client + i) % mix.len();
                            (wire.send(&mix[kind], &options).expect("send"), kind)
                        })
                        .collect();
                    for (id, kind) in sent {
                        assert_eq!(
                            wire.recv(id).expect("answer"),
                            expected[kind],
                            "client {client}: wire answer diverged from direct"
                        );
                    }
                }
            });
        }
    });

    server.shutdown();
}

#[test]
fn pipelined_clients_still_share_waves_on_a_warm_service() {
    const ROUNDS: usize = 4;
    let db = database();
    let service = Arc::new(Service::new(
        db.clone(),
        ServiceConfig::new(EvalConfig::exact()),
    ));
    let solved = warm(&service);
    pipelined_clients(&service, &db, ROUNDS);
    let stats = service.stats();
    let requests = (CLIENTS * IN_FLIGHT * ROUNDS) as u64;
    assert_eq!(stats.answered, requests);
    assert_eq!(stats.cache.marginal_misses, solved);
    assert_eq!(
        stats.answered_at_admission, requests,
        "every warm request was answered at admission: {stats}"
    );

    // Cold, the same backlog queues, and its waves still batch: the first
    // holds its window until the whole backlog has joined it.
    let cold = Arc::new(Service::new(
        db.clone(),
        ServiceConfig::new(EvalConfig::exact())
            .with_max_batch(CLIENTS * IN_FLIGHT)
            .with_max_wait(Duration::from_secs(5)),
    ));
    pipelined_clients(&cold, &db, 1);
    let stats = cold.stats();
    assert!(
        stats.max_wave > 1,
        "a backlog of {} requests in flight never shared a wave: {stats}",
        CLIENTS * IN_FLIGHT
    );
}
