//! Election analytics over the synthetic Polls database: Boolean, count and
//! non-itemwise queries over a polling p-relation with hundreds of voters.
//!
//! Run with `cargo run --release --example polls_election`.

use ppd::datagen::{polls_database, PollsConfig};
use ppd::prelude::*;

fn main() {
    // A mid-sized polling database: 14 candidates, 200 voters (sessions).
    let db = polls_database(&PollsConfig {
        num_candidates: 14,
        num_voters: 200,
        seed: 20,
    });
    println!(
        "Polls database: {} candidates, {} voters/sessions",
        db.num_items(),
        db.preference_relation("Polls").unwrap().num_sessions()
    );

    // Query A (itemwise): is some female candidate preferred to some male one?
    let q_gender = ConjunctiveQuery::new("female-over-male")
        .prefer(
            "Polls",
            vec![Term::any(), Term::any()],
            Term::var("c1"),
            Term::var("c2"),
        )
        .atom(
            "Candidates",
            vec![
                Term::var("c1"),
                Term::any(),
                Term::val("F"),
                Term::any(),
                Term::any(),
                Term::any(),
            ],
        )
        .atom(
            "Candidates",
            vec![
                Term::var("c2"),
                Term::any(),
                Term::val("M"),
                Term::any(),
                Term::any(),
                Term::any(),
            ],
        );
    let expected_sessions = Engine::new(EvalConfig::exact())
        .count_sessions(&db, &q_gender)
        .unwrap();
    println!(
        "\n[count]  expected #sessions preferring a female to a male candidate: {expected_sessions:.1}"
    );

    // Query B (non-itemwise, the paper's Figure 4 query): a male candidate
    // preferred to a female candidate of the *same party*. The shared party
    // variable is grounded over the party domain.
    let q_same_party = ConjunctiveQuery::new("male-over-female-same-party")
        .prefer(
            "Polls",
            vec![Term::any(), Term::any()],
            Term::var("l"),
            Term::var("r"),
        )
        .atom(
            "Candidates",
            vec![
                Term::var("l"),
                Term::var("p"),
                Term::val("M"),
                Term::any(),
                Term::any(),
                Term::any(),
            ],
        )
        .atom(
            "Candidates",
            vec![
                Term::var("r"),
                Term::var("p"),
                Term::val("F"),
                Term::any(),
                Term::any(),
                Term::any(),
            ],
        );
    let p_exact = Engine::new(EvalConfig::exact())
        .evaluate_boolean(&db, &q_same_party)
        .unwrap();
    println!("\n[boolean] same-party query, exact:        {p_exact:.6}");
    // The exact-vs-approximate comparison runs on a smaller sub-database:
    // MIS-AMP-adaptive costs seconds per session when its convergence check
    // keeps adding proposals, so spot-checking the agreement on 25 sessions
    // keeps the example interactive (fig04/fig09 sweep the full trade-off).
    let db_small = polls_database(&PollsConfig {
        num_candidates: 10,
        num_voters: 25,
        seed: 21,
    });
    let p_small_exact = Engine::new(EvalConfig::exact())
        .evaluate_boolean(&db_small, &q_same_party)
        .unwrap();
    let p_small_approx = Engine::new(EvalConfig::approximate(200))
        .evaluate_boolean(&db_small, &q_same_party)
        .unwrap();
    println!("[boolean] same query, 25-voter subset, exact:   {p_small_exact:.6}");
    println!("[boolean] same query, 25-voter subset, MIS-AMP: {p_small_approx:.6}");

    // Query C: voters polled on 5/5 who prefer an under-60 candidate from the
    // North-East to some JD-educated candidate (demonstrates comparisons and
    // session selections together).
    let q_under60_ne = ConjunctiveQuery::new("under-60-northeasterner")
        .prefer(
            "Polls",
            vec![Term::any(), Term::var("d")],
            Term::var("x"),
            Term::var("y"),
        )
        .atom(
            "Candidates",
            vec![
                Term::var("x"),
                Term::any(),
                Term::any(),
                Term::var("a"),
                Term::any(),
                Term::val("NE"),
            ],
        )
        .atom(
            "Candidates",
            vec![
                Term::var("y"),
                Term::any(),
                Term::any(),
                Term::any(),
                Term::val("JD"),
                Term::any(),
            ],
        )
        .compare("a", CompareOp::Lt, 60)
        .compare("d", CompareOp::Eq, "5/5");
    let per_session = Engine::new(EvalConfig::exact())
        .session_probabilities(&db, &q_under60_ne)
        .unwrap();
    println!(
        "\n[sessions] {} sessions qualify for the 5/5 under-60-NE query",
        per_session.len()
    );
    let avg: f64 =
        per_session.iter().map(|&(_, p)| p).sum::<f64>() / per_session.len().max(1) as f64;
    println!("[sessions] average per-session probability: {avg:.4}");

    // Query D: which 5 voters most strongly prefer a Democrat to a Republican
    // of the same sex (the hard Q2 shape), using the top-k optimizer. The
    // shared variable ranges over sex (2 values → a 2-pattern union): the
    // exact two-label DP is O(m^(2z'+1)) in the number of distinct selectors,
    // so grounding over a wide domain like education (6 values) is exact-
    // intractable at m = 14 and belongs to the approximate solvers instead.
    let q2 = ConjunctiveQuery::new("Q2")
        .prefer(
            "Polls",
            vec![Term::any(), Term::any()],
            Term::var("c1"),
            Term::var("c2"),
        )
        .atom(
            "Candidates",
            vec![
                Term::var("c1"),
                Term::val("D"),
                Term::var("s"),
                Term::any(),
                Term::any(),
                Term::any(),
            ],
        )
        .atom(
            "Candidates",
            vec![
                Term::var("c2"),
                Term::val("R"),
                Term::var("s"),
                Term::any(),
                Term::any(),
                Term::any(),
            ],
        );
    let (top, stats) = Engine::new(EvalConfig::exact())
        .most_probable_sessions(
            &db,
            &q2,
            5,
            TopKStrategy::UpperBound {
                edges_per_pattern: 1,
            },
        )
        .unwrap();
    println!(
        "\n[top-k] 5 most supportive sessions for Q2 (exact evaluations: {}):",
        stats.exact_evaluations
    );
    let voters = db.relation("Voters").unwrap();
    for score in top {
        let voter = voters.tuples()[score.session_index][0].render();
        println!("  {voter:<10} Pr(Q2) = {:.4}", score.probability);
    }
}
