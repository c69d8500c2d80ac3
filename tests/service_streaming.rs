//! Streaming, admission control, and graceful shutdown of the serving
//! layer — the behavioural half of the `ppd_service` acceptance criteria
//! (`service_determinism.rs` is the bit-exactness half).
//!
//! The key property: answers are **streamed**, not released at wave
//! boundaries. A query's answer is delivered the moment the last work unit
//! *it* depends on completes, so a cheap query co-batched with an expensive
//! one is answered while the expensive one is still being solved.
//!
//! The deterministic construction used throughout: `chain_for_one_voter`
//! grounds to a *single* general-class unit, whose cost estimate
//! (`2·m⁴`-ish) tops every two-label unit (`m³`) of the broad `pair`
//! query — so cost-descending wave scheduling starts it first, and with
//! `threads = 1` the delivery order is fully deterministic: the one-unit
//! query is answered first, the many-unit query last.

use ppd::datagen::{polls_database, PollsConfig};
use ppd::prelude::*;
use std::sync::Mutex;
use std::time::Duration;

fn database() -> PpdDatabase {
    polls_database(&PollsConfig {
        num_candidates: 8,
        num_voters: 40,
        seed: 7,
    })
}

/// Two-label `cand0 ≻ cand1` over every session: many cheap work units.
fn pair_query() -> ConjunctiveQuery {
    ConjunctiveQuery::new("pair-all").prefer(
        "Polls",
        vec![Term::any(), Term::any()],
        Term::val("cand0"),
        Term::val("cand1"),
    )
}

/// Chain `cand0 ≻ cand1 ≻ cand2` for one voter's session only: a single
/// general-class unit with the top per-unit cost estimate in any wave it
/// shares with `pair_query`'s units.
fn chain_for_one_voter() -> ConjunctiveQuery {
    ConjunctiveQuery::new("chain-voter0")
        .prefer(
            "Polls",
            vec![Term::var("v"), Term::any()],
            Term::val("cand0"),
            Term::val("cand1"),
        )
        .prefer(
            "Polls",
            vec![Term::var("v"), Term::any()],
            Term::val("cand1"),
            Term::val("cand2"),
        )
        .compare("v", CompareOp::Eq, "voter0")
}

#[test]
fn cheap_query_is_delivered_before_cobatched_expensive_query() {
    let db = database();
    // Sanity: the construction behaves as documented above.
    let engine = Engine::new(EvalConfig::exact().with_threads(1));
    let cheap_sessions = engine
        .session_probabilities(&db, &chain_for_one_voter())
        .unwrap();
    assert_eq!(cheap_sessions.len(), 1, "the cheap query must be one unit");
    let expensive_sessions = engine.session_probabilities(&db, &pair_query()).unwrap();
    assert!(
        expensive_sessions.len() >= 30,
        "the expensive query must fan out"
    );

    // The acceptance test proper: co-batch the two queries on a cold
    // engine and record the order answers stream out.
    let cold = Engine::new(EvalConfig::exact().with_threads(1));
    let queries = vec![pair_query(), chain_for_one_voter()];
    let deliveries: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    cold.evaluate_batch_streamed(
        &db,
        &queries,
        &[],
        |_| false,
        |qi, answer| {
            answer.expect("both queries answer");
            deliveries.lock().unwrap().push(qi);
        },
    );
    assert_eq!(
        deliveries.into_inner().unwrap(),
        vec![1, 0],
        "the one-unit query must stream out before the co-batched \
         many-unit query finishes"
    );
}

#[test]
fn service_streams_cheap_answer_while_expensive_query_is_still_running() {
    let db = database();
    // Approximate solving makes every expensive-query unit millisecond
    // scale, so the gap between the two deliveries is wide enough to
    // observe from the client side.
    let eval = EvalConfig::approximate(400).with_threads(1);
    let service = Service::new(
        db.clone(),
        ServiceConfig::new(eval.clone())
            .with_max_batch(2)
            .with_max_wait(Duration::from_secs(5)),
    );
    let expensive = service
        .submit(Request::SessionProbabilities(pair_query()))
        .unwrap();
    let cheap = service
        .submit(Request::Boolean(chain_for_one_voter()))
        .unwrap();

    let cheap_answer = cheap.wait().expect("cheap query answers");
    assert!(
        expensive.try_wait().is_none(),
        "when the cheap answer arrives, the co-batched expensive query \
         must still be in flight"
    );
    let expensive_answer = expensive.wait().expect("expensive query answers");

    // Streamed delivery changed timing only: both answers carry the bits a
    // direct engine would produce.
    let direct = Engine::new(eval);
    assert_eq!(
        cheap_answer,
        Answer::Boolean(
            direct
                .evaluate_boolean(&db, &chain_for_one_voter())
                .unwrap()
        )
    );
    assert_eq!(
        expensive_answer,
        Answer::SessionProbabilities(direct.session_probabilities(&db, &pair_query()).unwrap())
    );

    let stats = service.shutdown();
    assert_eq!(stats.waves, 1, "the two queries must share one wave");
    assert_eq!(stats.max_wave, 2);
}

#[test]
fn trace_timelines_show_streamed_delivery_inside_the_wave() {
    // The tracing half of the streaming property: the span timelines of two
    // co-batched queries must show the cheap one-unit query delivered while
    // its expensive wave-mate was still solving units. Span sequence
    // numbers are globally monotonic in the ring, so cross-trace ordering
    // is exact.
    let db = database();
    let service = Service::new(
        db,
        ServiceConfig::new(EvalConfig::approximate(400).with_threads(1))
            .with_max_batch(2)
            .with_max_wait(Duration::from_secs(5))
            .with_obs(ObsConfig::full()),
    );
    let expensive = service
        .submit(Request::SessionProbabilities(pair_query()))
        .unwrap();
    let cheap = service
        .submit(Request::Boolean(chain_for_one_voter()))
        .unwrap();
    let (expensive_trace, cheap_trace) = (expensive.trace_id(), cheap.trace_id());
    cheap.wait().expect("cheap query answers");
    expensive.wait().expect("expensive query answers");

    let cheap_events = service.trace_events(cheap_trace);
    let expensive_events = service.trace_events(expensive_trace);
    for (label, events) in [("cheap", &cheap_events), ("expensive", &expensive_events)] {
        assert_eq!(
            events.first().expect("timeline nonempty").event.name(),
            "admitted",
            "{label} timeline must start at admission: {events:?}"
        );
        assert_eq!(
            events.last().expect("timeline nonempty").event.name(),
            "delivered",
            "{label} timeline must end at delivery: {events:?}"
        );
    }
    // The wave-joined spans agree the two queries shared one wave, and the
    // cheap query depended on exactly one unit.
    let joined = |events: &[SpanRecord]| {
        events
            .iter()
            .find_map(|e| match e.event {
                SpanEvent::WaveJoined { units, .. } => Some(units),
                _ => None,
            })
            .expect("wave-joined span present")
    };
    assert_eq!(joined(&cheap_events), 1, "the cheap query is one unit");
    assert!(
        joined(&expensive_events) >= 30,
        "the expensive query fans out"
    );

    // The streamed-delivery evidence: the cheap query's `delivered` span
    // precedes `unit-solved` spans the expensive wave-mate recorded after
    // it — delivery happened mid-wave, not at the wave boundary.
    let cheap_delivered = cheap_events.last().expect("timeline nonempty").seq;
    let solved_after = expensive_events
        .iter()
        .filter(|e| matches!(e.event, SpanEvent::UnitSolved { .. }) && e.seq > cheap_delivered)
        .count();
    assert!(
        solved_after > 0,
        "the expensive query must still have been solving units when the \
         cheap answer went out (cheap delivered at seq {cheap_delivered})"
    );
    service.shutdown();
}

#[test]
fn dropped_ticket_trace_ends_in_cancelled() {
    // Dropping a ticket cancels the request; its span timeline must record
    // that fate terminally rather than dangling forever.
    let db = database();
    let service = Service::new(
        db,
        ServiceConfig::new(EvalConfig::approximate(300).with_threads(1))
            .with_max_batch(1)
            .with_max_wait(Duration::ZERO)
            .with_obs(ObsConfig::full()),
    );
    // The first query occupies the single-query wave, so the doomed ticket
    // is still queued when its handle is dropped.
    let busy = service.submit(Request::Count(pair_query())).unwrap();
    let doomed = service.submit(Request::Count(pair_query())).unwrap();
    let trace = doomed.trace_id();
    drop(doomed);
    busy.wait().expect("busy query answers");
    // The lanes are FIFO: once this later submission answers, the
    // dispatcher has popped (and finished) the cancelled job before it.
    service
        .submit(Request::Boolean(chain_for_one_voter()))
        .unwrap()
        .wait()
        .expect("drain query answers");

    let events = service.trace_events(trace);
    assert!(
        !events.is_empty(),
        "the cancelled submission must have a timeline"
    );
    assert_eq!(
        events.last().expect("timeline nonempty").event.name(),
        "cancelled",
        "a dropped ticket's trace must end in cancellation: {events:?}"
    );
    assert!(
        events
            .last()
            .expect("timeline nonempty")
            .event
            .is_terminal(),
        "cancellation is a terminal span event"
    );
    service.shutdown();
}

#[test]
fn admission_control_sheds_load_and_recovers() {
    let db = database();
    // One-deep queue, one-query waves, and a workload whose waves take
    // hundreds of milliseconds: a quick burst must overflow admission.
    let service = Service::new(
        db,
        ServiceConfig::new(EvalConfig::approximate(300).with_threads(1))
            .with_max_queue(1)
            .with_max_batch(1)
            .with_max_wait(Duration::ZERO),
    );
    let mut admitted: Vec<Ticket> = Vec::new();
    let mut rejections = 0usize;
    for _ in 0..3 {
        match service.submit(Request::Count(pair_query())) {
            Ok(ticket) => admitted.push(ticket),
            Err(ServiceError::Overloaded { .. }) => rejections += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(
        rejections >= 1,
        "a burst of 3 into a 1-deep queue must shed at least one query"
    );
    assert!(!admitted.is_empty(), "the first query is always admitted");
    for ticket in admitted {
        ticket.wait().expect("admitted queries still answer");
    }
    // Backpressure clears once the queue drains.
    let retry = service
        .submit(Request::Count(pair_query()))
        .expect("submit succeeds after drain");
    retry.wait().expect("retried query answers");
    let stats = service.shutdown();
    assert_eq!(stats.rejected as usize, rejections);
    assert_eq!(stats.answered + stats.rejected, 4);
}

#[test]
fn graceful_shutdown_answers_every_admitted_query() {
    let db = database();
    let service = Service::new(
        db,
        ServiceConfig::new(EvalConfig::exact().with_threads(1)).with_max_batch(2),
    );
    let tickets: Vec<Ticket> = (0..5)
        .map(|_| service.submit(Request::Boolean(pair_query())).unwrap())
        .collect();
    service.initiate_shutdown();
    assert!(
        matches!(
            service.submit(Request::Boolean(pair_query())),
            Err(ServiceError::ShuttingDown)
        ),
        "no new work after shutdown begins"
    );
    for ticket in tickets {
        ticket
            .wait()
            .expect("admitted queries are drained, not dropped");
    }
    let stats = service.shutdown();
    assert_eq!(stats.answered, 5);
    assert_eq!(stats.queue_depth, 0);
}
