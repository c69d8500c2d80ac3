//! Movie-preference analytics over the MovieLens-like dataset: queries over
//! item attributes (year, genre, runtime) evaluated with the approximate
//! MIS-AMP solvers, which scale to catalogues of hundreds of movies.
//!
//! Run with `cargo run --release --example movie_analytics`.

use ppd::datagen::{movielens_database, MovieLensConfig};
use ppd::prelude::*;

fn main() {
    // Catalogue size is chosen so the example stays interactive: the adaptive
    // MIS-AMP solver costs O(d²·n·m²) per session and non-itemwise queries
    // over the genre join decompose into many sub-rankings, so m = 24 keeps
    // each approximate evaluation to a few hundred milliseconds. The figure
    // harnesses (fig06, fig07) sweep the larger catalogues.
    let db = movielens_database(&MovieLensConfig {
        num_movies: 24,
        num_components: 4,
        num_users: 12,
        phi: 0.3,
        seed: 7,
    });
    println!(
        "MovieLens-like database: {} movies, {} user sessions",
        db.num_items(),
        db.preference_relation("Ratings").unwrap().num_sessions()
    );

    // Query A: is a post-1990 movie preferred to a pre-1990 movie of the same
    // genre? (The genre join makes this a hard, non-itemwise query.)
    let q_era = ConjunctiveQuery::new("new-over-old-same-genre")
        .prefer("Ratings", vec![Term::any()], Term::var("x"), Term::var("y"))
        .atom(
            "Movies",
            vec![
                Term::var("x"),
                Term::any(),
                Term::var("y1"),
                Term::var("g"),
                Term::any(),
                Term::any(),
                Term::any(),
            ],
        )
        .atom(
            "Movies",
            vec![
                Term::var("y"),
                Term::any(),
                Term::var("y2"),
                Term::var("g"),
                Term::any(),
                Term::any(),
                Term::any(),
            ],
        )
        .compare("y1", CompareOp::Ge, 1990)
        .compare("y2", CompareOp::Lt, 1990);
    let p = Engine::new(EvalConfig::approximate(150))
        .evaluate_boolean(&db, &q_era)
        .unwrap();
    let expected = Engine::new(EvalConfig::approximate(150))
        .count_sessions(&db, &q_era)
        .unwrap();
    println!("\n[boolean] some user prefers a 90s+ movie to an older same-genre movie: {p:.4}");
    println!("[count]   expected number of such users: {expected:.1}");

    // Query B: short thriller preferred to a long drama — a two-label query
    // cheap enough to evaluate exactly, so we can sanity-check the sampler.
    let q_thriller = ConjunctiveQuery::new("short-thriller-over-long-drama")
        .prefer("Ratings", vec![Term::any()], Term::var("a"), Term::var("b"))
        .atom(
            "Movies",
            vec![
                Term::var("a"),
                Term::any(),
                Term::any(),
                Term::val("Thriller"),
                Term::val("short"),
                Term::any(),
                Term::any(),
            ],
        )
        .atom(
            "Movies",
            vec![
                Term::var("b"),
                Term::any(),
                Term::any(),
                Term::val("Drama"),
                Term::val("long"),
                Term::any(),
                Term::any(),
            ],
        );
    let exact = Engine::new(EvalConfig::exact())
        .count_sessions(&db, &q_thriller)
        .unwrap();
    let approx = Engine::new(EvalConfig::approximate(200))
        .count_sessions(&db, &q_thriller)
        .unwrap();
    println!("\n[count]   users preferring a short thriller to a long drama:");
    println!("            exact   = {exact:.2}");
    println!("            MIS-AMP = {approx:.2}");

    // Query C: which users most strongly prefer female-led movies to
    // male-led movies? (Most-Probable-Session over a two-label query.)
    let q_lead = ConjunctiveQuery::new("female-lead-over-male-lead")
        .prefer("Ratings", vec![Term::any()], Term::var("f"), Term::var("m"))
        .atom(
            "Movies",
            vec![
                Term::var("f"),
                Term::any(),
                Term::any(),
                Term::any(),
                Term::any(),
                Term::val("F"),
                Term::any(),
            ],
        )
        .atom(
            "Movies",
            vec![
                Term::var("m"),
                Term::any(),
                Term::any(),
                Term::any(),
                Term::any(),
                Term::val("M"),
                Term::any(),
            ],
        );
    let (top, _) = Engine::new(EvalConfig::exact())
        .most_probable_sessions(&db, &q_lead, 3, TopKStrategy::Naive)
        .unwrap();
    println!("\n[top-k] users most likely to rank some female-led movie above a male-led one:");
    for score in top {
        println!(
            "  user session #{:<4} probability {:.4}",
            score.session_index, score.probability
        );
    }
}
