//! Failure containment at the wire: a misbehaving connection fails alone and
//! never wedges the dispatcher that every tenant's waves run on.

use ppd::datagen::{polls_database, PollsConfig};
use ppd::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-session answers over 1000 sessions: ≈ 30 kB a reply, so a few dozen
/// unread replies overrun any socket buffer.
fn wide_request() -> Request {
    Request::SessionProbabilities(ConjunctiveQuery::new("pair").prefer(
        "Polls",
        vec![Term::any(), Term::any()],
        Term::val("cand0"),
        Term::val("cand1"),
    ))
}

fn wide_service() -> Arc<Service> {
    let db = polls_database(&PollsConfig {
        num_candidates: 6,
        num_voters: 1000,
        seed: 2016,
    });
    Arc::new(Service::new(db, ServiceConfig::new(EvalConfig::exact())))
}

/// Connection A pipelines `pipelined` wide requests and never reads a reply;
/// connection B must still be served, and A — whose replies the dispatcher
/// could no longer write — must find itself disconnected, not half-served.
fn a_reader_that_stops_reading_fails_alone(pipelined: usize, connect: impl Fn() -> WireClient) {
    let options = SubmitOptions::default();
    let mut b = connect();
    let warm = b.call(&wide_request(), &options).expect("warm-up answers");

    let mut a = connect();
    let ids: Vec<u64> = (0..pipelined)
        .map(|_| a.send(&wide_request(), &options).expect("A pipelines"))
        .collect();

    // Replies are written on the dispatcher thread: with no write timeout the
    // first one that does not fit A's socket buffers blocks it for good, and
    // this call never returns.
    let answer = b.call(&wide_request(), &options).expect("B is answered");
    assert_eq!(answer, warm);

    // The server gives A up once a write to it makes no progress; A learns
    // of it when a send fails. (Had every reply fitted the socket buffers
    // there would be no stall to recover from: pipeline more.)
    let patience = Instant::now() + Duration::from_secs(30);
    while a.send(&wide_request(), &options).is_ok() {
        assert!(
            Instant::now() < patience,
            "the server kept a connection that reads nothing"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // What fitted A's buffers is still there to read; then the stream ends.
    assert!(ids.iter().any(|&id| a.recv(id).is_err()));
    // Nothing of A's is left behind to block later waves.
    assert_eq!(b.call(&wide_request(), &options).expect("B again"), warm);
}

#[test]
fn a_tcp_reader_that_stops_reading_does_not_wedge_the_dispatcher() {
    let server = WireServer::bind_tcp("127.0.0.1:0", wide_service()).expect("bind");
    let addr = server.local_addr().expect("bound address");
    a_reader_that_stops_reading_fails_alone(512, || {
        WireClient::connect_tcp(addr).expect("connect")
    });
    server.shutdown();
}

#[cfg(unix)]
#[test]
fn a_unix_reader_that_stops_reading_does_not_wedge_the_dispatcher() {
    let path = std::env::temp_dir().join(format!("ppd-faults-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = WireServer::bind_unix(&path, wide_service()).expect("bind");
    a_reader_that_stops_reading_fails_alone(64, || {
        WireClient::connect_unix(&path).expect("connect")
    });
    server.shutdown();
}
