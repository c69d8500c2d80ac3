//! Figure 4: runtimes of the two-label, bipartite and general exact solvers
//! and of MIS-AMP-adaptive on a two-label query over the Polls database
//! ("a male candidate preferred to a female candidate of the same party"),
//! as the number of candidates grows; plus the accuracy of the approximate
//! solver.
//!
//! The figure's claim — the abstract's "exact solvers that target specific
//! common kinds of queries are far more efficient than general solvers" — is
//! asserted, not only printed: the three exact solvers must agree within 1e-9
//! on every session, and the general solver's time summed over the run must
//! not be below the two-label solver's. Each exact timing is the median of
//! [`REPS`] repetitions, so a microsecond reading is not a coin flip. (The
//! paper's "two-label < bipartite" is not asserted: at this scale the
//! bipartite DP reads as fast or faster; see ROADMAP.)

use ppd_bench::{median_duration, print_table, relative_error, timed, write_results, Scale};
use ppd_core::{ground_query, ConjunctiveQuery, Term as T};
use ppd_datagen::{polls_database, PollsConfig};
use ppd_solvers::{
    ApproxSolver, BipartiteSolver, ExactSolver, GeneralSolver, MisAmpAdaptive, TwoLabelSolver,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;
use std::time::Duration;

/// Repetitions behind each exact solver's per-session timing.
const REPS: usize = 5;

/// Runs an exact solve [`REPS`] times; its answer and the median time.
fn timed_median(solve: impl Fn() -> ppd_solvers::Result<f64>) -> (f64, Duration) {
    let runs: Vec<(f64, Duration)> = (0..REPS)
        .map(|_| {
            let (p, t) = timed(&solve);
            (p.expect("exact solve"), t)
        })
        .collect();
    let times: Vec<Duration> = runs.iter().map(|&(_, t)| t).collect();
    (runs[0].0, median_duration(&times))
}

fn fig4_query() -> ConjunctiveQuery {
    ConjunctiveQuery::new("fig4")
        .prefer("Polls", vec![T::any(), T::any()], T::var("l"), T::var("r"))
        .atom(
            "Candidates",
            vec![
                T::var("l"),
                T::var("p"),
                T::val("M"),
                T::any(),
                T::any(),
                T::any(),
            ],
        )
        .atom(
            "Candidates",
            vec![
                T::var("r"),
                T::var("p"),
                T::val("F"),
                T::any(),
                T::any(),
                T::any(),
            ],
        )
}

fn main() {
    let scale = Scale::from_env();
    let ms: Vec<usize> = scale.pick(vec![10, 12, 14], vec![20, 22, 24, 26, 28, 30]);
    let voters = scale.pick(5, 20);
    let samples = scale.pick(300, 1000);
    println!("Figure 4 — exact vs approximate solvers on the Polls two-label query");
    println!("scale: {scale:?}, candidates m ∈ {ms:?}, {voters} sessions per m\n");

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let (mut total_two_label, mut total_general) = (Duration::ZERO, Duration::ZERO);
    for &m in &ms {
        let db = polls_database(&PollsConfig {
            num_candidates: m,
            num_voters: voters,
            seed: 2016 + m as u64,
        });
        let plan = ground_query(&db, &fig4_query()).expect("query grounds");
        let prel = db.preference_relation("Polls").unwrap();
        let mut per_solver: Vec<(&str, Vec<Duration>, Vec<f64>)> = vec![
            ("two-label", Vec::new(), Vec::new()),
            ("bipartite", Vec::new(), Vec::new()),
            ("general", Vec::new(), Vec::new()),
            ("mis-amp-adaptive", Vec::new(), Vec::new()),
        ];
        for (order, squery) in plan.sessions.iter().enumerate() {
            let model = prel.sessions()[squery.session_index].model();
            let rim = model.to_rim();
            let (exact, t_two) =
                timed_median(|| TwoLabelSolver::new().solve(&rim, &plan.labeling, &squery.union));
            per_solver[0].1.push(t_two);
            per_solver[0].2.push(exact);
            let (p_bip, t_bip) =
                timed_median(|| BipartiteSolver::new().solve(&rim, &plan.labeling, &squery.union));
            per_solver[1].1.push(t_bip);
            per_solver[1].2.push(p_bip);
            let (p_gen, t_gen) =
                timed_median(|| GeneralSolver::new().solve(&rim, &plan.labeling, &squery.union));
            per_solver[2].1.push(t_gen);
            per_solver[2].2.push(p_gen);
            for (name, p) in [("bipartite", p_bip), ("general", p_gen)] {
                assert!(
                    (p - exact).abs() < 1e-9,
                    "m={m} session {}: {name} {p} vs two-label {exact}",
                    squery.session_index
                );
            }
            total_two_label += t_two;
            total_general += t_gen;
            let mut rng = StdRng::seed_from_u64(1000 + order as u64);
            let adaptive = MisAmpAdaptive::new(samples);
            let (p_apx, t_apx) =
                timed(|| adaptive.estimate(model, &plan.labeling, &squery.union, &mut rng));
            per_solver[3].1.push(t_apx);
            per_solver[3]
                .2
                .push(relative_error(exact, p_apx.expect("adaptive estimate")));
        }
        for (name, times, values) in &per_solver {
            let median = median_duration(times);
            let accuracy = if *name == "mis-amp-adaptive" {
                format!("median rel.err {:.3}", ppd_bench::median(values))
            } else {
                String::new()
            };
            rows.push(vec![
                m.to_string(),
                name.to_string(),
                format!("{:.1}", median.as_secs_f64() * 1e6),
                accuracy.clone(),
            ]);
            records.push(json!({
                "m": m,
                "solver": name,
                "median_seconds": median.as_secs_f64(),
                "note": accuracy,
            }));
        }
    }
    print_table(&["m", "solver", "median time (µs)", "accuracy"], &rows);
    println!(
        "\nExpected shape (paper): two-label < bipartite < general in runtime; \
         MIS-AMP-adaptive scales best with low relative error."
    );
    println!(
        "summed over the run: two-label {:.1} µs, general {:.1} µs",
        total_two_label.as_secs_f64() * 1e6,
        total_general.as_secs_f64() * 1e6
    );
    write_results("fig04", &json!({ "series": records }));
    assert!(
        total_general >= total_two_label,
        "the general solver ({total_general:?} over the run) must not be faster than the \
         two-label solver ({total_two_label:?}) on a two-label query"
    );
}
