//! Quickstart: build the paper's running example (Figure 1), ask the hard
//! query Q2, and evaluate it exactly and approximately.
//!
//! Run with `cargo run --release --example quickstart`.

use ppd::prelude::*;

fn main() {
    // ---- 1. The Candidates item relation (items get labels from attributes).
    let candidates = Relation::new(
        "Candidates",
        vec!["candidate", "party", "sex", "age", "edu", "reg"],
        vec![
            vec!["Trump", "R", "M", "70", "BS", "NE"],
            vec!["Clinton", "D", "F", "69", "JD", "NE"],
            vec!["Sanders", "D", "M", "75", "BS", "NE"],
            vec!["Rubio", "R", "M", "45", "JD", "S"],
        ]
        .into_iter()
        .map(|row| row.into_iter().map(Value::from).collect())
        .collect(),
    )
    .expect("valid relation");

    // ---- 2. The Polls preference relation: one Mallows model per session.
    // Item ids follow the order of the Candidates relation:
    // 0 = Trump, 1 = Clinton, 2 = Sanders, 3 = Rubio.
    let polls = PreferenceRelation::new(
        "Polls",
        vec!["voter", "date"],
        vec![
            Session::new(
                vec![Value::from("Ann"), Value::from("5/5")],
                MallowsModel::new(Ranking::new(vec![1, 2, 3, 0]).unwrap(), 0.3).unwrap(),
            ),
            Session::new(
                vec![Value::from("Bob"), Value::from("5/5")],
                MallowsModel::new(Ranking::new(vec![0, 3, 2, 1]).unwrap(), 0.3).unwrap(),
            ),
            Session::new(
                vec![Value::from("Dave"), Value::from("6/5")],
                MallowsModel::new(Ranking::new(vec![1, 2, 3, 0]).unwrap(), 0.5).unwrap(),
            ),
        ],
    )
    .expect("valid p-relation");

    let db = DatabaseBuilder::new()
        .item_relation(candidates, "candidate")
        .preference_relation(polls)
        .build()
        .expect("valid database");

    // ---- 3. Q2 of the paper: is some Democrat preferred to some Republican
    //         with the same education? The shared variable `e` makes the
    //         query non-itemwise (provably hard), so the engine grounds it
    //         into a union of itemwise queries behind the scenes.
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
                Term::any(),
                Term::any(),
                Term::var("e"),
                Term::any(),
            ],
        )
        .atom(
            "Candidates",
            vec![
                Term::var("c2"),
                Term::val("R"),
                Term::any(),
                Term::any(),
                Term::var("e"),
                Term::any(),
            ],
        );

    // ---- 4. Exact evaluation (auto-selected two-label solver per session).
    // One engine serves every query below: what one solves, the next reuses.
    let engine = Engine::new(EvalConfig::exact());
    let exact = engine.evaluate_boolean(&db, &q2).expect("exact evaluation");
    println!("Pr(Q2 holds in some session), exact        = {exact:.6}");

    // Per-session probabilities and the expected number of supporting sessions.
    for (session, p) in engine.session_probabilities(&db, &q2).unwrap() {
        println!("  session #{session}: Pr(Q2) = {p:.6}");
    }
    let count = engine.count_sessions(&db, &q2).unwrap();
    println!("expected number of supporting sessions     = {count:.4}");

    // ---- 5. Approximate evaluation with MIS-AMP-adaptive.
    let approx = Engine::new(EvalConfig::approximate(1_000))
        .evaluate_boolean(&db, &q2)
        .expect("approximate evaluation");
    println!("Pr(Q2 holds in some session), MIS-AMP      = {approx:.6}");

    // ---- 6. Which sessions support Q2 the most? (Most-Probable-Session.)
    let (top, _) = engine
        .most_probable_sessions(
            &db,
            &q2,
            2,
            TopKStrategy::UpperBound {
                edges_per_pattern: 1,
            },
        )
        .expect("top-k evaluation");
    println!("top-2 supporting sessions:");
    for score in top {
        println!(
            "  session #{} with probability {:.6}",
            score.session_index, score.probability
        );
    }
}
