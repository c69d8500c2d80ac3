//! Figure 15: scalability over the number of sessions in the CrowdRank-like
//! dataset — naive per-session evaluation vs. grouping identical requests.
//!
//! Grounding is timed on its own; the two evaluation columns time the whole
//! call — grounding included — on a fresh engine each, so nothing is served
//! from a cache.

use ppd_bench::{print_table, timed, write_results, Scale};
use ppd_core::{ground_query, ConjunctiveQuery, Engine, EvalConfig, Term as T};
use ppd_datagen::{crowdrank_database, CrowdRankConfig};
use serde_json::json;

/// The Section 6.4 query: the worker prefers a short movie whose lead matches
/// their sex to a short movie whose lead is around their age, which is in
/// turn preferred to some thriller.
fn fig15_query() -> ConjunctiveQuery {
    ConjunctiveQuery::new("fig15")
        .prefer("HitRankings", vec![T::var("v")], T::var("m1"), T::var("m2"))
        .prefer("HitRankings", vec![T::var("v")], T::var("m2"), T::var("m3"))
        .atom("Workers", vec![T::var("v"), T::var("sex"), T::var("age")])
        .atom(
            "Movies",
            vec![
                T::var("m1"),
                T::any(),
                T::var("sex"),
                T::any(),
                T::val("short"),
            ],
        )
        .atom(
            "Movies",
            vec![
                T::var("m2"),
                T::any(),
                T::any(),
                T::var("age"),
                T::val("short"),
            ],
        )
        .atom(
            "Movies",
            vec![
                T::var("m3"),
                T::val("Thriller"),
                T::any(),
                T::any(),
                T::any(),
            ],
        )
}

fn main() {
    let scale = Scale::from_env();
    let session_counts: Vec<usize> = scale.pick(
        vec![100, 1_000, 5_000],
        vec![100, 1_000, 10_000, 100_000, 200_000],
    );
    let naive_cap = scale.pick(500, 2_000);
    let samples = scale.pick(100, 300);
    println!("Figure 15 — session scalability on the CrowdRank-like dataset");
    println!(
        "scale: {scale:?}, session counts {session_counts:?}, naive evaluation capped at {naive_cap} sessions\n"
    );

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for &count in &session_counts {
        let db = crowdrank_database(&CrowdRankConfig {
            num_movies: 20,
            num_models: 7,
            num_workers: count,
            phi: 0.4,
            seed: 1515,
        });
        let q = fig15_query();
        let (_, grounding_time) = timed(|| ground_query(&db, &q).expect("query grounds"));
        let grouped_engine = Engine::new(EvalConfig::approximate(samples));
        let (grouped, grouped_time) =
            timed(|| grouped_engine.session_probabilities(&db, &q).unwrap());
        let naive_note;
        let naive_seconds;
        if count <= naive_cap {
            let naive_engine = Engine::new(EvalConfig::approximate(samples).without_grouping());
            let (_, naive_time) = timed(|| naive_engine.session_probabilities(&db, &q).unwrap());
            naive_seconds = Some(naive_time.as_secs_f64());
            naive_note = format!("{:.2}", naive_time.as_secs_f64());
        } else {
            naive_seconds = None;
            naive_note = "skipped (linear in #sessions)".to_string();
        }
        rows.push(vec![
            count.to_string(),
            grouped.len().to_string(),
            format!("{:.2}", grounding_time.as_secs_f64()),
            format!("{:.2}", grouped_time.as_secs_f64()),
            naive_note,
        ]);
        records.push(json!({
            "sessions": count,
            "evaluated": grouped.len(),
            "grounding_seconds": grounding_time.as_secs_f64(),
            "grouped_seconds": grouped_time.as_secs_f64(),
            "naive_seconds": naive_seconds,
        }));
    }
    print_table(
        &[
            "#sessions",
            "evaluated",
            "grounding (s)",
            "grouped evaluation (s)",
            "naive evaluation (s)",
        ],
        &rows,
    );
    println!(
        "\nExpected shape (paper): naive evaluation grows linearly with the number of sessions, \
         while grouping identical (model, pattern-union) requests converges to a constant \
         inference cost — only grounding remains linear."
    );
    write_results("fig15", &json!({ "series": records }));
}
