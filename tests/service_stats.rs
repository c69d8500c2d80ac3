//! The `stats` snapshot is read from the service's own instruments — the
//! counters and gauges the `metrics` verb renders — so every fact in it is
//! counted once, whatever the observability mode:
//!
//! * a scripted workload lands each submission, shed, delivery outcome,
//!   update, wave, latency and lane depth where `ServiceStats` says, and
//!   the exposition agrees with it;
//! * the same workload counts the same under `ObsConfig::off()`, `full()`
//!   and `sampled(2)`;
//! * under four submitting threads no admission or delivery is lost;
//! * the lane-depth gauge reads the queue, not the depth a joiner was
//!   admitted at.

use ppd::datagen::{polls_database, polls_q1_query, PollsConfig};
use ppd::prelude::*;
use std::sync::Barrier;
use std::time::{Duration, Instant};

fn tiny_db() -> PpdDatabase {
    polls_database(&PollsConfig {
        num_candidates: 5,
        num_voters: 8,
        seed: 11,
    })
}

fn insert_update(db: &PpdDatabase) -> Update {
    let relation = db.preference_relation_names()[0].to_string();
    let arity = db
        .preference_relation(&relation)
        .unwrap()
        .session_columns()
        .len();
    Update::InsertSession {
        prelation: relation,
        session: Session::new(
            (0..arity).map(|i| Value::from(format!("s{i}"))).collect(),
            MallowsModel::new(Ranking::new(vec![2, 0, 1, 3, 4]).unwrap(), 0.3).unwrap(),
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

/// Blocks until the dispatcher has finished its last wave (a wave ends
/// after its last delivery).
fn wait_until_idle(service: &Service) {
    let started = Instant::now();
    while service.stats().in_flight_waves != 0 {
        assert!(started.elapsed() < Duration::from_secs(10));
        std::thread::yield_now();
    }
}

/// The value of one exposition series, if rendered.
fn series(text: &str, name: &str) -> Option<f64> {
    let prefix = format!("{name} ");
    text.lines()
        .find_map(|line| line.strip_prefix(&prefix))
        .map(|value| value.parse().unwrap())
}

/// How long the first wave's update is held behind a read guard.
const HOLD: Duration = Duration::from_millis(20);

/// A scripted workload over two tenants with `max_queue = 3` and
/// `max_queue_batch = 1`. An update to tenant `a` is held behind a read
/// guard of `a`'s database, so the dispatcher sits in its first wave while
/// tenant `b`'s submissions queue up: one batch query is admitted and one
/// shed; three interactive ones — a good one, one against a relation that
/// does not exist, one whose 1 ms deadline passes in the queue — are
/// admitted and a fourth is shed. Returns the stats before the guard drops,
/// the exposition then, the stats after shutdown and the exposition then.
fn scripted(obs: ObsConfig) -> (ServiceStats, String, ServiceStats, String) {
    let config = ServiceConfig::new(EvalConfig::exact())
        .with_max_queue(3)
        .with_max_queue_batch(1)
        .with_obs(obs);
    let service = Service::with_databases(
        vec![("a".into(), tiny_db()), ("b".into(), tiny_db())],
        config,
    );
    let guard = service.database();
    let update = service.submit_update(insert_update(&tiny_db())).unwrap();
    wait_until_busy(&service);

    let on_b = |options: SubmitOptions| options.on_database("b");
    let q1 = || Request::Boolean(polls_q1_query());
    let bad = Request::Boolean(ConjunctiveQuery::new("bad").prefer(
        "NoSuchRelation",
        vec![Term::any(), Term::any()],
        Term::val("cand0"),
        Term::val("cand1"),
    ));
    let mut tickets = vec![service
        .submit_with(q1(), on_b(SubmitOptions::batch()))
        .unwrap()];
    assert!(matches!(
        service.submit_with(q1(), on_b(SubmitOptions::batch())),
        Err(ServiceError::Overloaded { depth: 1 })
    ));
    tickets.push(
        service
            .submit_with(q1(), on_b(SubmitOptions::interactive()))
            .unwrap(),
    );
    tickets.push(
        service
            .submit_with(bad, on_b(SubmitOptions::interactive()))
            .unwrap(),
    );
    let expiring = SubmitOptions::interactive().with_deadline(Duration::from_millis(1));
    tickets.push(service.submit_with(q1(), on_b(expiring)).unwrap());
    assert!(matches!(
        service.submit_with(q1(), on_b(SubmitOptions::interactive())),
        Err(ServiceError::Overloaded { depth: 3 })
    ));
    std::thread::sleep(HOLD);
    let held = service.stats();
    let held_text = service.metrics_text();
    drop(guard);

    assert!(update.wait().is_ok());
    for ticket in tickets {
        let _ = ticket.wait();
    }
    wait_until_idle(&service);
    let text = service.metrics_text();
    (held, held_text, service.shutdown(), text)
}

#[test]
fn a_scripted_workload_lands_every_fact_where_the_stats_say() {
    let (held, held_text, stats, text) = scripted(ObsConfig::full());

    // Depths while the dispatcher is held, in both verbs.
    assert_eq!(
        (
            held.interactive_queue_depth,
            held.batch_queue_depth,
            held.queue_depth
        ),
        (3, 1, 4)
    );
    assert_eq!(held.in_flight_waves, 1);
    assert_eq!(
        series(&held_text, "ppd_queue_depth{lane=\"interactive\"}"),
        Some(3.0)
    );
    assert_eq!(
        series(&held_text, "ppd_queue_depth{lane=\"batch\"}"),
        Some(1.0)
    );
    assert_eq!(series(&held_text, "ppd_in_flight_waves"), Some(1.0));

    // Admission by lane: the update rides the interactive lane.
    assert_eq!((stats.interactive_submitted, stats.batch_submitted), (4, 1));
    assert_eq!((stats.interactive_rejected, stats.batch_rejected), (1, 1));
    assert_eq!((stats.submitted, stats.rejected), (5, 2));

    // Deliveries by outcome: the update receipt counts as answered.
    assert_eq!((stats.answered, stats.failed, stats.expired), (3, 1, 1));
    assert_eq!(stats.updates_applied, 1);

    // The update's wave, then the four queries' wave.
    assert_eq!(stats.wave_sizes, vec![(1, 1), (4, 1)]);
    assert_eq!((stats.waves, stats.max_wave), (2, 4));
    assert!((stats.mean_wave_size() - 2.5).abs() < 1e-12);

    // Latency: the update waited out the hold; the mean and maximum are
    // the exposition's sum over five deliveries and its running maximum.
    assert!(stats.max_latency >= HOLD, "{stats}");
    assert!(Duration::ZERO < stats.mean_latency && stats.mean_latency <= stats.max_latency);
    let sum = series(&text, "ppd_delivery_latency_nanoseconds_total").unwrap() as u64;
    assert_eq!(stats.mean_latency, Duration::from_nanos(sum / 5));
    let max = series(&text, "ppd_delivery_latency_max_nanoseconds").unwrap() as u64;
    assert_eq!(stats.max_latency, Duration::from_nanos(max));

    // Idle again, in both verbs.
    assert_eq!((stats.queue_depth, stats.in_flight_waves), (0, 0));
    assert_eq!(
        series(&text, "ppd_queue_depth{lane=\"interactive\"}"),
        Some(0.0)
    );
    assert_eq!(series(&text, "ppd_queue_depth{lane=\"batch\"}"), Some(0.0));
    for (name, value) in [
        ("ppd_submitted_total{lane=\"interactive\"}", 4),
        ("ppd_submitted_total{lane=\"batch\"}", 1),
        ("ppd_shed_total{lane=\"interactive\"}", 1),
        ("ppd_shed_total{lane=\"batch\"}", 1),
        ("ppd_answered_total", 3),
        ("ppd_failed_total", 1),
        ("ppd_expired_total", 1),
        ("ppd_updates_applied_total", 1),
        ("ppd_errors_total{kind=\"unknown-name\"}", 1),
        ("ppd_errors_total{kind=\"deadline-exceeded\"}", 1),
        ("ppd_in_flight_waves", 0),
    ] {
        assert_eq!(series(&text, name), Some(value as f64), "{name}:\n{text}");
    }
}

#[test]
fn every_observability_mode_counts_the_same_workload_the_same() {
    let counts = |stats: &ServiceStats| {
        [
            stats.interactive_submitted,
            stats.batch_submitted,
            stats.interactive_rejected,
            stats.batch_rejected,
            stats.answered,
            stats.failed,
            stats.expired,
            stats.updates_applied,
            stats.waves,
        ]
    };
    let (_, _, full, _) = scripted(ObsConfig::full());
    let (_, off_held_text, off, off_text) = scripted(ObsConfig::off());
    let (_, _, sampled, _) = scripted(ObsConfig::sampled(2));
    assert_eq!(counts(&full), [4, 1, 1, 1, 3, 1, 1, 1, 2]);
    assert_eq!(
        counts(&off),
        counts(&full),
        "metrics off counts all the same"
    );
    assert_eq!(counts(&sampled), counts(&full));
    assert_eq!(off.wave_sizes, full.wave_sizes);
    assert!(
        off.max_latency >= HOLD,
        "latency is counted with metrics off"
    );
    assert_eq!((off_held_text.as_str(), off_text.as_str()), ("", ""));
}

#[test]
fn concurrent_submitters_lose_no_admission_and_no_delivery() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 200;
    let config = ServiceConfig::new(EvalConfig::exact())
        .with_max_queue(4)
        .with_max_queue_batch(4);
    let service = Service::new(tiny_db(), config);
    let start = Barrier::new(THREADS);
    let admitted: Vec<Ticket> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (service, start) = (&service, &start);
                scope.spawn(move || {
                    let mut tickets = Vec::new();
                    start.wait();
                    for i in 0..PER_THREAD {
                        let options = if (t + i) % 2 == 0 {
                            SubmitOptions::interactive()
                        } else {
                            SubmitOptions::batch()
                        };
                        match service.submit_with(Request::Boolean(polls_q1_query()), options) {
                            Ok(ticket) => tickets.push(ticket),
                            Err(ServiceError::Overloaded { .. }) => {}
                            Err(e) => panic!("unexpected refusal: {e}"),
                        }
                    }
                    tickets
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().unwrap())
            .collect()
    });
    let stats = service.shutdown();
    assert_eq!(
        stats.submitted + stats.rejected,
        (THREADS * PER_THREAD) as u64,
        "{stats}"
    );
    assert_eq!(stats.submitted, admitted.len() as u64);
    assert_eq!(
        stats.interactive_submitted + stats.batch_submitted,
        stats.submitted
    );
    assert_eq!(
        stats.answered + stats.failed + stats.expired,
        stats.submitted,
        "{stats}"
    );
    let carried: u64 = stats
        .wave_sizes
        .iter()
        .map(|&(size, n)| size as u64 * n)
        .sum();
    assert_eq!(
        carried + stats.answered_at_admission,
        stats.submitted,
        "every admitted job was answered at admission or rode one wave: {stats}"
    );
    for ticket in admitted {
        assert!(ticket.wait().is_ok());
    }
}

#[test]
fn the_lane_depth_gauge_reads_the_queue_after_a_joiner_drained_it() {
    // A cold request holds a long window; a second one joins it, popped by
    // the window rather than by a wave's first pop.
    let config = ServiceConfig::new(EvalConfig::exact())
        .with_max_batch(2)
        .with_max_wait(Duration::from_secs(30));
    let service = Service::new(tiny_db(), config);
    let first = service.submit(Request::Boolean(polls_q1_query())).unwrap();
    wait_until_busy(&service);
    let joiner = service.submit(Request::Boolean(polls_q1_query())).unwrap();
    assert!(first.wait().is_ok() && joiner.wait().is_ok());
    wait_until_idle(&service);
    let stats = service.stats();
    assert_eq!(stats.wave_sizes, vec![(2, 1)], "the second request joined");
    let text = service.metrics_text();
    assert_eq!(
        series(&text, "ppd_queue_depth{lane=\"interactive\"}"),
        Some(stats.interactive_queue_depth as f64),
        "{text}"
    );
    assert_eq!(
        series(&text, "ppd_queue_depth{lane=\"batch\"}"),
        Some(stats.batch_queue_depth as f64),
        "{text}"
    );
    assert_eq!(stats.queue_depth, 0);
}
