//! Figure 14: MIS-AMP-adaptive runtime over the MovieLens-like dataset as the
//! number of movies grows (the Section 6.3 query, grounded over genres).
//!
//! The time is that of the whole call — grounding included — on a fresh
//! engine per point, so nothing is served from a cache.

use ppd_bench::{print_table, timed, write_results, Scale};
use ppd_core::{ground_query, CompareOp, ConjunctiveQuery, Engine, EvalConfig, Term as T};
use ppd_datagen::{movielens_database, MovieLensConfig};
use serde_json::json;

/// The Section 6.3 query: a fixed movie preferred to another fixed movie, and
/// some post-1990 movie preferred both to a pre-1990 movie of the same genre
/// and to the second fixed movie.
fn fig14_query(favourite: i64, baseline: i64) -> ConjunctiveQuery {
    ConjunctiveQuery::new("fig14")
        .prefer(
            "Ratings",
            vec![T::any()],
            T::val(favourite),
            T::val(baseline),
        )
        .prefer("Ratings", vec![T::any()], T::var("x"), T::val(baseline))
        .prefer("Ratings", vec![T::any()], T::var("x"), T::var("y"))
        .atom(
            "Movies",
            vec![
                T::var("x"),
                T::any(),
                T::var("year1"),
                T::var("g"),
                T::any(),
                T::any(),
                T::any(),
            ],
        )
        .atom(
            "Movies",
            vec![
                T::var("y"),
                T::any(),
                T::var("year2"),
                T::var("g"),
                T::any(),
                T::any(),
                T::any(),
            ],
        )
        .compare("year1", CompareOp::Ge, 1990)
        .compare("year2", CompareOp::Lt, 1990)
}

fn main() {
    let scale = Scale::from_env();
    let movie_counts: Vec<usize> = scale.pick(vec![20, 30, 40], vec![40, 80, 120, 160, 200]);
    let users = scale.pick(4, 16);
    let samples = scale.pick(150, 500);
    println!("Figure 14 — MIS-AMP-adaptive over the MovieLens-like dataset");
    println!("scale: {scale:?}, m ∈ {movie_counts:?}, {users} user sessions per m\n");

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for &m in &movie_counts {
        let db = movielens_database(&MovieLensConfig {
            num_movies: m,
            num_components: 16,
            num_users: users,
            phi: 0.3,
            seed: 1414,
        });
        let q = fig14_query(3, 7);
        let plan = ground_query(&db, &q).expect("query grounds");
        let patterns_per_union = plan
            .sessions
            .first()
            .map(|s| s.union.num_patterns())
            .unwrap_or(0);
        let engine = Engine::new(EvalConfig::approximate(samples));
        let (result, elapsed) = timed(|| engine.session_probabilities(&db, &q));
        let evaluated = result.expect("evaluation succeeds").len();
        rows.push(vec![
            m.to_string(),
            patterns_per_union.to_string(),
            evaluated.to_string(),
            format!("{:.2}", elapsed.as_secs_f64()),
        ]);
        records.push(json!({
            "m": m,
            "patterns_per_union": patterns_per_union,
            "sessions_evaluated": evaluated,
            "seconds": elapsed.as_secs_f64(),
        }));
    }
    print_table(
        &["m", "#patterns/union", "sessions", "total time (s)"],
        &rows,
    );
    println!(
        "\nExpected shape (paper): runtime grows with the number of movies, mostly because more \
         genres survive into the grounded union (more patterns per union)."
    );
    write_results("fig14", &json!({ "series": records }));
}
