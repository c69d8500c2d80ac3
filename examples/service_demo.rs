//! The serving layer in action: several client threads sharing one
//! [`Service`], each printing its answers as they stream back, followed by
//! the service's one-line stats summary.
//!
//! Run with `cargo run --release --example service_demo`.
//!
//! What to look for in the output:
//! * clients submit concurrently on a cold cache, so the first wave finds
//!   units to solve, holds its batching window, and the others' queries
//!   join it (see `waves (mean …)` in the stats line) — a warm service
//!   answers each query on the client's own thread, at admission, without
//!   queueing it at all (`answered (… at admission)`);
//! * overlapping queries share deduplicated work units through the one
//!   engine — the cache hit rate at the end is the work the service never
//!   had to repeat;
//! * answers arrive per query (streamed), not per wave: the interleaving
//!   of the client prints is real concurrency, not buffered output.

use ppd::datagen::{polls_database, polls_q1_query, PollsConfig};
use ppd::prelude::*;
use std::time::{Duration, Instant};

fn main() {
    let db = polls_database(&PollsConfig {
        num_candidates: 10,
        num_voters: 120,
        seed: 7,
    });

    // One service, shared by reference across scoped client threads. A wave
    // whose plan leaves units to solve holds its window up to 5 ms, so
    // concurrent cold submissions coalesce and share those solves.
    let service = Service::new(
        db,
        ServiceConfig::new(EvalConfig::exact())
            .with_max_batch(16)
            .with_max_wait(Duration::from_millis(5)),
    );

    // Three dashboard-ish clients with overlapping interests.
    let pair = ConjunctiveQuery::new("c0-over-c1").prefer(
        "Polls",
        vec![Term::any(), Term::any()],
        Term::val("cand0"),
        Term::val("cand1"),
    );
    let workloads: Vec<(&str, Vec<Request>)> = vec![
        (
            "alice",
            vec![
                Request::Boolean(polls_q1_query()),
                Request::Count(polls_q1_query()),
            ],
        ),
        (
            "bob",
            vec![
                Request::Boolean(pair.clone()),
                Request::TopK {
                    query: polls_q1_query(),
                    k: 3,
                    strategy: TopKStrategy::UpperBound {
                        edges_per_pattern: 2,
                    },
                },
            ],
        ),
        (
            "carol",
            vec![
                // Same question as alice's first — the wave answers it from
                // the same work units at zero marginal cost.
                Request::Boolean(polls_q1_query()),
                Request::SessionProbabilities(pair),
            ],
        ),
    ];

    let start = Instant::now();
    std::thread::scope(|scope| {
        for (client, requests) in workloads {
            let service = &service;
            scope.spawn(move || {
                // Submit everything first (so the wave can coalesce), then
                // print answers in the order they resolve.
                let tickets: Vec<Ticket> = requests
                    .into_iter()
                    .map(|request| service.submit(request).expect("admitted"))
                    .collect();
                for ticket in tickets {
                    let name = ticket.query_name().to_string();
                    let answer = ticket.wait().expect("query answers");
                    let at = start.elapsed();
                    match answer {
                        Answer::Boolean(p) => {
                            println!("[{at:>8.1?}] {client:>6}: Pr({name}) = {p:.4}")
                        }
                        Answer::Count(c) => {
                            println!("[{at:>8.1?}] {client:>6}: count({name}) = {c:.2}")
                        }
                        Answer::SessionProbabilities(probs) => println!(
                            "[{at:>8.1?}] {client:>6}: {name} holds in {} sessions (max p = {:.4})",
                            probs.len(),
                            probs.iter().map(|&(_, p)| p).fold(0.0, f64::max),
                        ),
                        Answer::TopK(scores) => println!(
                            "[{at:>8.1?}] {client:>6}: top-{} for {name}: {}",
                            scores.len(),
                            scores
                                .iter()
                                .map(|s| format!(
                                    "session {} ({:.3})",
                                    s.session_index, s.probability
                                ))
                                .collect::<Vec<_>>()
                                .join(", "),
                        ),
                        Answer::Updated { version, .. } => {
                            println!("[{at:>8.1?}] {client:>6}: database now at version {version}")
                        }
                    }
                }
            });
        }
    });

    // Graceful shutdown: drains anything still queued, then reports.
    let stats = service.shutdown();
    println!("\n{stats}");
}
