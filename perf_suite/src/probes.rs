//! The layer-probe pass of a traced run: after the measured phase, the
//! workload's own inputs are replayed through direct calls into each layer's
//! public functions, each call one span. Layers are measured from outside;
//! nothing here reads a counter the program does not already publish.

use crate::inputs::{self, PRELATION, TOP_K, TOP_K_STRATEGY};
use crate::spans::{SpanId, SpanLog};
use crate::stats;
use crate::workloads::{closed_loop, cold::APPROX_SAMPLES, op_id, ProbeInputs, THREADS};
use ppd_core::{
    ground_query, CacheCapacity, ConjunctiveQuery, Engine, EvalConfig, PpdDatabase, SolverChoice,
    WorkUnit,
};
use ppd_datagen::{
    benchmark_a, benchmark_b, benchmark_c, benchmark_d, BenchmarkBConfig, BenchmarkCConfig,
    BenchmarkDConfig, SolverInstance,
};
use ppd_patterns::{decompose_union, DecompositionLimits, Labeling, UnionClass};
use ppd_rim::{AmpSampler, AmpScratch, MallowsModel, PartialOrder, Ranking};
use ppd_service::{
    ObsConfig, Request, Service, ServiceConfig, ServiceError, SubmitOptions, WireClient, WireServer,
};
use ppd_solvers::{choose_exact_solver, MisAmpAdaptive, MisAmpBudgeted, SolverKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the fixed solver instances and of every probe-side RNG: the
/// probes compare one commit with the next, so their inputs never vary.
const FIXED_SEED: u64 = 2016;
/// Requests the pipelined probe keeps in flight on its one connection.
const PIPELINE_DEPTH: usize = 16;
/// Units the sampling probes draw from the workload's plan.
const SAMPLED_UNITS: usize = 72;

/// What the probe pass found.
pub struct Report {
    pub values: Vec<(&'static str, f64)>,
    /// Probe-side checks (persisted cache replays as all hits) and how many
    /// of them failed.
    pub checked: u64,
    pub failed: u64,
}

/// Times calls into one layer, each as a span under the probe root.
struct Prober<'a> {
    log: &'a mut SpanLog,
    root: SpanId,
    /// Wall-clock one repeated measurement may take.
    slice: Duration,
}

impl Prober<'_> {
    /// One call: its result and its seconds.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = self.log.leaf(name, Some(self.root), 0, f);
        (out, start.elapsed().as_secs_f64())
    }

    /// Repeats a call until the slice is spent (at least once, at most 25
    /// times): the last result and the median seconds.
    fn median<T>(&mut self, name: &'static str, mut f: impl FnMut() -> T) -> (T, f64) {
        let started = Instant::now();
        let mut seconds = Vec::new();
        loop {
            let (out, s) = self.time(name, &mut f);
            seconds.push(s);
            if started.elapsed() >= self.slice || seconds.len() >= 25 {
                return (out, stats::median(&seconds));
            }
        }
    }
}

/// One query of the workload, grounded and planned.
struct Planned {
    query: ConjunctiveQuery,
    labeling: Labeling,
    sessions: usize,
    units: Vec<WorkUnit>,
}

fn model_of<'a>(db: &'a PpdDatabase, unit: &WorkUnit) -> &'a MallowsModel {
    db.preference_relation(PRELATION)
        .expect("the Polls database has a Polls p-relation")
        .sessions()[unit.session_index]
        .model()
}

/// The item-level partial orders `unit`'s union decomposes into; none when
/// no item can satisfy any member (a split with an empty side).
fn partial_orders(db: &PpdDatabase, query: &Planned, unit: &WorkUnit) -> Vec<PartialOrder> {
    decompose_union(
        &unit.union,
        model_of(db, unit).sigma().items(),
        &query.labeling,
        &DecompositionLimits::default(),
    )
    .map(|decomposition| decomposition.partial_orders)
    .unwrap_or_default()
}

/// Runs every probe. `op_p50_ms` and `misses_per_op` describe the measured
/// phase (for the solver-share metrics); `scratch` is a directory inside the
/// checkout for the persistence and unix-socket probes.
pub fn run(
    inputs: &ProbeInputs,
    op_p50_ms: f64,
    misses_per_op: f64,
    quick: bool,
    scratch: &Path,
    log: &mut SpanLog,
) -> Report {
    let root = log.begin("probe", None, 0);
    let mut p = Prober {
        log,
        root,
        slice: Duration::from_millis(if quick { 40 } else { 300 }),
    };
    let mut report = Report {
        values: Vec::new(),
        checked: 0,
        failed: 0,
    };
    let db = &inputs.db;
    // Probes look at layers in isolation: eviction is the measured phase's
    // business, so the probe engines are unbounded.
    let eval = inputs
        .eval
        .clone()
        .with_cache_capacity(CacheCapacity::Unbounded);
    let approximate = matches!(eval.solver, SolverChoice::Approximate { .. });

    let planned = plan(&mut p, db, &eval, &inputs.queries, &mut report.values);
    let queries: Vec<ConjunctiveQuery> = planned.iter().map(|q| q.query.clone()).collect();
    engine(&mut p, db, &eval, &planned, &queries, &mut report.values);
    topk(&mut p, db, &eval, &planned[0], &mut report.values);
    persist(&mut p, db, &eval, &queries, scratch, &mut report);

    let units: usize = planned.iter().map(|q| q.units.len()).sum();
    // The share of an operation's median that direct solver calls explain:
    // all of the plan's units when the phase solved at least that many per
    // operation (the cold workloads), none when it solved none (warm).
    let solved_share = (misses_per_op / units.max(1) as f64).min(1.0);
    let share = |solve_seconds: f64| {
        if op_p50_ms > 0.0 {
            solve_seconds * 1e3 / THREADS as f64 * solved_share / op_p50_ms
        } else {
            0.0
        }
    };
    let exact_seconds = exact_solvers(&mut p, db, &planned, quick, &mut report.values);
    let approx_seconds = approx_solvers(&mut p, db, &planned, quick, &mut report.values);
    report.values.push((
        "solvers.exact.share_of_p50",
        if approximate {
            0.0
        } else {
            share(exact_seconds)
        },
    ));
    report.values.push((
        "solvers.approx.share_of_p50",
        if approximate {
            share(approx_seconds)
        } else {
            0.0
        },
    ));
    sampler(&mut p, db, &planned, &mut report.values);
    service(&mut p, db, &eval, quick, scratch, &mut report.values);

    let Prober { log, root, .. } = p;
    log.end(root);
    report
}

/// `core.translate` and the planning half of `core.engine`.
fn plan(
    p: &mut Prober,
    db: &PpdDatabase,
    eval: &EvalConfig,
    queries: &[ConjunctiveQuery],
    out: &mut Vec<(&'static str, f64)>,
) -> Vec<Planned> {
    let engine = Engine::new(eval.clone());
    let (mut ground_s, mut plan_s) = (0.0, 0.0);
    let planned: Vec<Planned> = queries
        .iter()
        .cloned()
        .map(|query| {
            let (grounded, g) = p.median("core.translate.ground_query", || {
                ground_query(db, &query).expect("the workload's queries ground")
            });
            let (units, u) = p.median("core.engine.plan_units", || {
                engine
                    .plan_units(db, &query)
                    .expect("the workload's queries plan")
            });
            ground_s += g;
            // `plan_units` grounds first; what is left is unit keying.
            plan_s += (u - g).max(0.0);
            Planned {
                query,
                labeling: grounded.labeling,
                sessions: grounded.sessions.len(),
                units,
            }
        })
        .collect();
    let n = planned.len() as f64;
    let sessions: usize = planned.iter().map(|q| q.sessions).sum();
    let units: usize = planned.iter().map(|q| q.units.len()).sum();
    out.push(("core.translate.ground_us_per_query", ground_s / n * 1e6));
    out.push(("core.engine.plan_us_per_query", plan_s / n * 1e6));
    out.push((
        "core.engine.dedup_factor",
        sessions as f64 / units.max(1) as f64,
    ));
    planned
}

/// The solving and cache-lookup halves of `core.engine`.
fn engine(
    p: &mut Prober,
    db: &PpdDatabase,
    eval: &EvalConfig,
    planned: &[Planned],
    queries: &[ConjunctiveQuery],
    out: &mut Vec<(&'static str, f64)>,
) {
    let cold = |p: &mut Prober, threads: usize| {
        p.median("core.engine.evaluate_batch.cold", || {
            let engine = Engine::new(eval.clone().with_threads(threads));
            engine
                .evaluate_batch(db, queries)
                .expect("the workload's batch evaluates");
            engine
        })
    };
    let (_, serial_s) = cold(p, 1);
    let (warm, parallel_s) = cold(p, THREADS);
    let solved = warm.cache_stats().marginal_misses as f64;
    out.push(("core.engine.cold_us_per_unit", parallel_s / solved * 1e6));
    out.push(("core.engine.solved_units_per_s", solved / parallel_s));
    out.push(("core.engine.scheduler.speedup_2t", serial_s / parallel_s));

    let (_, warm_s) = p.median("core.engine.evaluate_batch.warm", || {
        warm.evaluate_batch(db, queries)
            .expect("the workload's batch evaluates")
    });
    let (_, ground_s) = p.median("core.translate.ground_query", || {
        for query in queries {
            ground_query(db, query).expect("the workload's queries ground");
        }
    });
    let sessions: usize = planned.iter().map(|q| q.sessions).sum();
    out.push((
        "core.engine.cache.lookup_ns_per_unit",
        (warm_s - ground_s).max(0.0) / sessions.max(1) as f64 * 1e9,
    ));
}

/// `core.topk`, cold: a fresh engine per call.
fn topk(
    p: &mut Prober,
    db: &PpdDatabase,
    eval: &EvalConfig,
    q1: &Planned,
    out: &mut Vec<(&'static str, f64)>,
) {
    let ((_, stats), seconds) = p.median("core.topk.most_probable_sessions", || {
        Engine::new(eval.clone())
            .most_probable_sessions(db, &q1.query, TOP_K, TOP_K_STRATEGY)
            .expect("the workload's top-k evaluates")
    });
    out.push(("core.topk.ms_per_call", seconds * 1e3));
    out.push((
        "core.topk.exact_eval_fraction",
        stats.exact_evaluations as f64 / q1.sessions.max(1) as f64,
    ));
}

/// `core.engine.persist`: save a warm cache, load it into a fresh engine,
/// and check the replay is served entirely from the loaded entries.
fn persist(
    p: &mut Prober,
    db: &PpdDatabase,
    eval: &EvalConfig,
    queries: &[ConjunctiveQuery],
    scratch: &Path,
    report: &mut Report,
) {
    let store = scratch.join(format!("marginals-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let warm = Engine::new(eval.clone());
    warm.evaluate_batch(db, queries)
        .expect("the workload's batch evaluates");
    let (saved, save_s) = p.time("core.engine.save_marginals", || {
        warm.save_marginals(&store).expect("the cache saves")
    });
    let bytes: u64 = std::fs::read_dir(&store)
        .map(|dir| {
            dir.filter_map(|entry| entry.ok()?.metadata().ok())
                .map(|meta| meta.len())
                .sum()
        })
        .unwrap_or(0);
    let fresh = Engine::new(eval.clone());
    let (_, load_s) = p.time("core.engine.load_marginals", || {
        fresh.load_marginals(&store).expect("the cache loads")
    });
    fresh
        .evaluate_batch(db, queries)
        .expect("the workload's batch evaluates");
    report.checked += 1;
    report.failed += u64::from(fresh.cache_stats().marginal_misses != 0);
    let _ = std::fs::remove_dir_all(&store);
    report.values.extend([
        ("core.engine.persist.save_ms", save_s * 1e3),
        ("core.engine.persist.load_ms", load_s * 1e3),
        (
            "core.engine.persist.bytes_per_entry",
            bytes as f64 / saved.max(1) as f64,
        ),
    ]);
}

/// The fixed solver instances that give every union class samples whatever
/// the workload's own plan contains, kept small enough to solve exactly.
fn fixed_instances(quick: bool) -> Vec<SolverInstance> {
    let instances = if quick { 1 } else { 3 };
    let mut all = benchmark_d(
        &BenchmarkDConfig {
            num_items: 12,
            instances,
            ..BenchmarkDConfig::default()
        },
        FIXED_SEED,
    );
    all.extend(benchmark_c(
        &BenchmarkCConfig {
            num_items: 10,
            instances,
            ..BenchmarkCConfig::default()
        },
        FIXED_SEED,
    ));
    all.extend(benchmark_b(
        &BenchmarkBConfig {
            num_items: 8,
            instances,
            ..BenchmarkBConfig::default()
        },
        FIXED_SEED,
    ));
    all
}

/// `solvers.exact`: one direct solve per unit of the workload's plan and
/// per fixed instance, by union class. Returns the seconds the plan's own
/// units took in total.
fn exact_solvers(
    p: &mut Prober,
    db: &PpdDatabase,
    planned: &[Planned],
    quick: bool,
    out: &mut Vec<(&'static str, f64)>,
) -> f64 {
    let mut by_class: [Vec<f64>; 3] = Default::default();
    let slot = |class: UnionClass| match class {
        UnionClass::TwoLabel => 0,
        UnionClass::Bipartite => 1,
        UnionClass::General => 2,
    };
    let mut plan_seconds = 0.0;
    for query in planned {
        for unit in &query.units {
            let rim = model_of(db, unit).to_rim();
            let solver = choose_exact_solver(&unit.union);
            let (_, s) = p.time("solvers.exact.solve", || {
                solver
                    .solve(&rim, &query.labeling, &unit.union)
                    .expect("the plan's units solve exactly")
            });
            plan_seconds += s;
            by_class[slot(unit.union.classify())].push(s * 1e6);
        }
    }
    for instance in fixed_instances(quick) {
        let rim = instance.model.to_rim();
        let solver = choose_exact_solver(&instance.union);
        let (_, s) = p.time("solvers.exact.solve", || {
            solver
                .solve(&rim, &instance.labeling, &instance.union)
                .expect("the fixed instances solve exactly")
        });
        by_class[slot(instance.union.classify())].push(s * 1e6);
    }
    let names = [
        (
            "solvers.exact.two_label_us",
            "solvers.exact.units.two_label",
        ),
        (
            "solvers.exact.bipartite_us",
            "solvers.exact.units.bipartite",
        ),
        ("solvers.exact.general_us", "solvers.exact.units.general"),
    ];
    for ((median_name, count_name), samples) in names.into_iter().zip(&by_class) {
        out.push((median_name, stats::median(samples)));
        out.push((count_name, samples.len() as f64));
    }
    plan_seconds
}

/// Up to `SAMPLED_UNITS` units spread evenly over the plan.
fn sampled_units(planned: &[Planned], quick: bool) -> Vec<(&Planned, &WorkUnit)> {
    let all: Vec<(&Planned, &WorkUnit)> = planned
        .iter()
        .flat_map(|q| q.units.iter().map(move |u| (q, u)))
        .collect();
    let want = if quick { 3 } else { SAMPLED_UNITS }.min(all.len());
    (0..want).map(|i| all[i * all.len() / want]).collect()
}

/// `solvers.approx` and `patterns.decompose`: the adaptive sampler on a
/// sample of the plan's units, and the budgeted sampler on fixed instances.
/// Returns the adaptive sampler's seconds scaled up to the whole plan.
fn approx_solvers(
    p: &mut Prober,
    db: &PpdDatabase,
    planned: &[Planned],
    quick: bool,
    out: &mut Vec<(&'static str, f64)>,
) -> f64 {
    let sample = sampled_units(planned, quick);
    let adaptive = SolverKind::approx(Box::new(MisAmpAdaptive::new(APPROX_SAMPLES)));
    let (mut seconds, mut samples, mut zero, mut decompose_s) = (0.0, 0usize, 0usize, 0.0);
    for (query, unit) in &sample {
        let model = model_of(db, unit);
        let rim = model.to_rim();
        let (detail, s) = p.time("solvers.approx.solve", || {
            adaptive
                .solve_seeded_detailed(
                    model,
                    || &rim,
                    &query.labeling,
                    &unit.union,
                    unit.key.seed(FIXED_SEED),
                    None,
                )
                .expect("the plan's units estimate")
        });
        seconds += s;
        samples += detail.samples;
        zero += detail.zero_density_samples;
        decompose_s += p
            .time("patterns.decompose_union", || {
                partial_orders(db, query, unit)
            })
            .1;
    }
    let n = sample.len().max(1) as f64;
    out.extend([
        ("solvers.approx.adaptive_ms_per_unit", seconds / n * 1e3),
        ("solvers.approx.samples_per_unit", samples as f64 / n),
        (
            "solvers.approx.zero_density_fraction",
            zero as f64 / samples.max(1) as f64,
        ),
        ("patterns.decompose_us_per_union", decompose_s / n * 1e6),
    ]);

    let count = if quick { 1 } else { 2 };
    let mut instances = benchmark_a(count, FIXED_SEED);
    instances.extend(benchmark_c(
        &BenchmarkCConfig {
            instances: count,
            ..BenchmarkCConfig::default()
        },
        FIXED_SEED,
    ));
    let budgeted = MisAmpBudgeted::new(0.05, 0.95);
    let (mut budgeted_s, mut budgeted_samples) = (0.0, 0usize);
    for instance in &instances {
        let mut rng = StdRng::seed_from_u64(FIXED_SEED);
        let (outcome, s) = p.time("solvers.approx.budgeted", || {
            budgeted
                .run(
                    &instance.model,
                    &instance.labeling,
                    &instance.union,
                    &mut rng,
                )
                .expect("the fixed instances estimate")
        });
        budgeted_s += s;
        budgeted_samples += outcome.total_samples;
    }
    let n_fixed = instances.len() as f64;
    out.extend([
        (
            "solvers.approx.budgeted_ms_per_unit",
            budgeted_s / n_fixed * 1e3,
        ),
        (
            "solvers.approx.budgeted_samples_to_eps",
            budgeted_samples as f64 / n_fixed,
        ),
    ]);
    let units: usize = planned.iter().map(|q| q.units.len()).sum();
    seconds / n * units as f64
}

/// `rim.amp`: one draw, and one mixture-density evaluation, on proposals
/// built from the decomposition of one of the plan's unions.
fn sampler(
    p: &mut Prober,
    db: &PpdDatabase,
    planned: &[Planned],
    out: &mut Vec<(&'static str, f64)>,
) {
    // The last unit of the plan that decomposes into something: a `pair`
    // unit on the exact workloads, a split-query unit (dozens of partial
    // orders) on the sampling one.
    let found = planned.iter().rev().find_map(|query| {
        query.units.iter().find_map(|unit| {
            let orders = partial_orders(db, query, unit);
            (!orders.is_empty()).then(|| (model_of(db, unit), orders))
        })
    });
    let Some((model, orders)) = found else {
        out.push(("rim.amp.sample_ns", 0.0));
        out.push(("rim.amp.mix_prob_ns", 0.0));
        return;
    };
    let samplers: Vec<AmpSampler> = orders
        .iter()
        .take(4)
        .map(|order| AmpSampler::from_model(model, order).expect("the order is over ranked items"))
        .collect();
    let coefficients = vec![1.0 / samplers.len() as f64; samplers.len()];
    let mut rng = StdRng::seed_from_u64(FIXED_SEED);
    let mut scratch = AmpScratch::default();
    let mut tau = Ranking::new(Vec::new()).expect("the empty ranking is valid");
    const DRAWS: usize = 2000;
    let (_, sample_s) = p.median("rim.amp.sample_with_prob_into", || {
        for _ in 0..DRAWS {
            std::hint::black_box(samplers[0].sample_with_prob_into(
                &mut rng,
                &mut scratch,
                &mut tau,
            ));
        }
    });
    let (_, mix_s) = p.median("rim.amp.mix_prob_of", || {
        for _ in 0..DRAWS {
            std::hint::black_box(AmpSampler::mix_prob_of(
                &samplers,
                &coefficients,
                std::hint::black_box(&tau),
                &mut scratch,
            ));
        }
    });
    out.push(("rim.amp.sample_ns", sample_s / DRAWS as f64 * 1e9));
    out.push(("rim.amp.mix_prob_ns", mix_s / DRAWS as f64 * 1e9));
}

/// Median latency of the request mix under the workloads' own load shape
/// (two closed-loop clients), through whatever `connect` returns.
fn mix_p50_ms<C>(
    p: &mut Prober,
    layer: &'static str,
    mix: &[Request],
    duration: Duration,
    connect: impl Fn() -> C + Sync,
) -> f64
where
    C: FnMut(&Request) -> Result<ppd_service::Answer, ServiceError>,
{
    let span = p.log.begin(layer, Some(p.root), 0);
    let (_, logs) = closed_loop(THREADS, duration, Instant::now(), false, |client| {
        let mut call = connect();
        move |step, log: &mut crate::workloads::ClientLog| {
            let request = &mix[(client + step) % mix.len()];
            log.request(layer, op_id(client, step), None, || call(request));
        }
    });
    p.log.end(span);
    let latencies: Vec<f64> = logs.into_iter().flat_map(|log| log.latencies_ms).collect();
    stats::median(&latencies)
}

/// `service.wire` and `service.dispatch`: the same warm mix, under the same
/// load shape, through four doors — the engine directly, the in-process
/// service, a unix socket, TCP — so that each door's cost is a difference
/// of medians, plus one pipelined TCP connection.
fn service(
    p: &mut Prober,
    db: &PpdDatabase,
    eval: &EvalConfig,
    quick: bool,
    scratch: &Path,
    out: &mut Vec<(&'static str, f64)>,
) {
    let duration = Duration::from_millis(if quick { 100 } else { 1000 });
    let mix = inputs::mix();
    let service = Arc::new(Service::new(
        db.clone(),
        ServiceConfig::new(eval.clone()).with_obs(ObsConfig::off()),
    ));
    for request in &mix {
        service
            .submit(request.clone())
            .and_then(|ticket| ticket.wait())
            .expect("the warm-up pass answers");
    }
    let options = &SubmitOptions::default();

    let direct = mix_p50_ms(p, "core.engine.warm_mix", &mix, duration, || {
        |request: &Request| Ok(inputs::direct(service.engine(), db, request))
    });
    let in_process = mix_p50_ms(p, "service.submit_wait", &mix, duration, || {
        |request: &Request| {
            service
                .submit(request.clone())
                .and_then(|ticket| ticket.wait())
        }
    });

    let socket = scratch.join(format!("wire-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let unix_server =
        WireServer::bind_unix(&socket, Arc::clone(&service)).expect("bind a unix socket");
    let unix = mix_p50_ms(p, "service.wire.call.unix", &mix, duration, || {
        let mut conn = WireClient::connect_unix(&socket).expect("connect to the unix socket");
        move |request: &Request| conn.call(request, options)
    });
    unix_server.shutdown();

    let tcp_server = WireServer::bind_tcp("127.0.0.1:0", Arc::clone(&service))
        .expect("bind a loopback TCP port");
    let addr = tcp_server
        .local_addr()
        .expect("a TCP server has an address");
    let tcp = mix_p50_ms(p, "service.wire.call.tcp", &mix, duration, || {
        let mut conn = WireClient::connect_tcp(addr).expect("connect to the loopback server");
        move |request: &Request| conn.call(request, options)
    });

    // The wire used differently: one connection, many requests in flight.
    let mut conn = WireClient::connect_tcp(addr).expect("connect to the loopback server");
    let span = p.log.begin("service.wire.pipelined", Some(p.root), 0);
    let started = Instant::now();
    let mut in_flight = std::collections::VecDeque::new();
    let (mut sent, mut answered) = (0usize, 0usize);
    while started.elapsed() < duration || !in_flight.is_empty() {
        while in_flight.len() < PIPELINE_DEPTH && started.elapsed() < duration {
            let id = conn
                .send(&mix[sent % mix.len()], options)
                .expect("the pipelined request is sent");
            in_flight.push_back(id);
            sent += 1;
        }
        if let Some(id) = in_flight.pop_front() {
            conn.recv(id).expect("the pipelined request answers");
            answered += 1;
        }
    }
    let pipelined_qps = answered as f64 / started.elapsed().as_secs_f64();
    p.log.end(span);
    drop(conn);
    tcp_server.shutdown();

    out.extend([
        ("core.engine.warm_p50_ms", direct),
        ("service.dispatch.overhead_ms", in_process - direct),
        ("service.wire.unix_overhead_ms", unix - in_process),
        ("service.wire.tcp_overhead_ms", tcp - in_process),
        ("service.wire.pipelined_qps", pipelined_qps),
    ]);
}
