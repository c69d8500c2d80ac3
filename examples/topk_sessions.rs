//! Most-Probable-Session at scale: find the workers most likely to satisfy a
//! demographically-personalised preference query over the CrowdRank-like
//! dataset, and show the effect of grouping identical requests.
//!
//! Run with `cargo run --release --example topk_sessions`.

use ppd::datagen::{crowdrank_database, CrowdRankConfig};
use ppd::prelude::*;
use std::time::Instant;

fn main() {
    let db = crowdrank_database(&CrowdRankConfig {
        num_movies: 20,
        num_models: 7,
        num_workers: 5_000,
        phi: 0.4,
        seed: 99,
    });
    println!(
        "CrowdRank-like database: {} movies, {} worker sessions",
        db.num_items(),
        db.preference_relation("HitRankings")
            .unwrap()
            .num_sessions()
    );

    // "The worker prefers a short movie whose lead matches their own sex to
    //  some thriller" — the query is personalised per worker through the
    //  Workers join, yet only a handful of distinct (model, pattern-union)
    //  groups exist, so grouped evaluation is fast.
    let query = ConjunctiveQuery::new("personalised")
        .prefer(
            "HitRankings",
            vec![Term::var("w")],
            Term::var("m1"),
            Term::var("m2"),
        )
        .atom(
            "Workers",
            vec![Term::var("w"), Term::var("sex"), Term::any()],
        )
        .atom(
            "Movies",
            vec![
                Term::var("m1"),
                Term::any(),
                Term::var("sex"),
                Term::any(),
                Term::val("short"),
            ],
        )
        .atom(
            "Movies",
            vec![
                Term::var("m2"),
                Term::val("Thriller"),
                Term::any(),
                Term::any(),
                Term::any(),
            ],
        );

    // Expected number of workers for whom the statement holds.
    let start = Instant::now();
    let expected = Engine::new(EvalConfig::exact())
        .count_sessions(&db, &query)
        .unwrap();
    let grouped_elapsed = start.elapsed();
    println!(
        "\n[count] expected #workers satisfying the personalised query: {expected:.0} \
         (grouped evaluation took {grouped_elapsed:.2?})"
    );

    // The same evaluation without grouping, on a small prefix of the workers,
    // to illustrate why grouping matters (Section 6.4 / Figure 15).
    let small_db = crowdrank_database(&CrowdRankConfig {
        num_movies: 20,
        num_models: 7,
        num_workers: 500,
        phi: 0.4,
        seed: 99,
    });
    let start = Instant::now();
    let _ = Engine::new(EvalConfig::exact().without_grouping())
        .count_sessions(&small_db, &query)
        .unwrap();
    let naive_elapsed = start.elapsed();
    println!("[count] naive (ungrouped) evaluation over just 500 workers took {naive_elapsed:.2?}");

    // Top-5 workers most likely to satisfy the query, with the upper-bound
    // optimization.
    let (top, stats) = Engine::new(EvalConfig::exact())
        .most_probable_sessions(
            &db,
            &query,
            5,
            TopKStrategy::UpperBound {
                edges_per_pattern: 1,
            },
        )
        .unwrap();
    println!(
        "\n[top-k] most supportive workers (exact evaluations performed: {} of {}):",
        stats.exact_evaluations,
        db.preference_relation("HitRankings")
            .unwrap()
            .num_sessions()
    );
    let workers = db.relation("Workers").unwrap();
    for score in top {
        let row = &workers.tuples()[score.session_index];
        println!(
            "  {:<8} (sex {}, age {})  probability {:.4}",
            row[0].render(),
            row[1].render(),
            row[2].render(),
            score.probability
        );
    }
}
