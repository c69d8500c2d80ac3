//! Figure 8: the Most-Probable-Session top-k optimization over Polls — full
//! evaluation vs. the 1-edge and 2-edge upper-bound strategies.

use ppd_bench::{print_table, timed, write_results, Scale};
use ppd_core::{CompareOp, ConjunctiveQuery, Engine, EvalConfig, Term as T, TopKStrategy};
use ppd_datagen::{polls_database, PollsConfig};
use serde_json::json;

/// The self-join query of Section 6.2.
fn fig8_query() -> ConjunctiveQuery {
    ConjunctiveQuery::new("fig8")
        .prefer(
            "Polls",
            vec![T::any(), T::var("date")],
            T::var("c1"),
            T::var("c2"),
        )
        .prefer(
            "Polls",
            vec![T::any(), T::var("date")],
            T::var("c1"),
            T::var("c3"),
        )
        .prefer(
            "Polls",
            vec![T::any(), T::var("date")],
            T::var("c1"),
            T::var("c4"),
        )
        .atom(
            "Candidates",
            vec![
                T::var("c1"),
                T::var("p"),
                T::any(),
                T::any(),
                T::any(),
                T::val("NE"),
            ],
        )
        .atom(
            "Candidates",
            vec![
                T::var("c2"),
                T::var("p"),
                T::any(),
                T::any(),
                T::any(),
                T::val("MW"),
            ],
        )
        .atom(
            "Candidates",
            vec![
                T::var("c3"),
                T::any(),
                T::any(),
                T::var("age"),
                T::any(),
                T::val("NE"),
            ],
        )
        .atom(
            "Candidates",
            vec![
                T::var("c4"),
                T::any(),
                T::val("M"),
                T::any(),
                T::val("BA"),
                T::any(),
            ],
        )
        .compare("date", CompareOp::Eq, "5/5")
        .compare("age", CompareOp::Eq, 50)
}

fn main() {
    let scale = Scale::from_env();
    let db = polls_database(&PollsConfig {
        num_candidates: scale.pick(10, 16),
        num_voters: scale.pick(40, 1000),
        seed: 808,
    });
    let ks: Vec<usize> = scale.pick(vec![1, 3], vec![1, 10, 100]);
    println!("Figure 8 — top-k optimization over Polls");
    println!(
        "scale: {scale:?}, {} candidates, {} sessions\n",
        db.num_items(),
        db.preference_relation("Polls").unwrap().num_sessions()
    );

    let q = fig8_query();
    let strategies = [
        ("full", TopKStrategy::Naive),
        (
            "1-edge",
            TopKStrategy::UpperBound {
                edges_per_pattern: 1,
            },
        ),
        (
            "2-edge",
            TopKStrategy::UpperBound {
                edges_per_pattern: 2,
            },
        ),
    ];
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for &k in &ks {
        let mut reference: Option<Vec<usize>> = None;
        for (name, strategy) in strategies {
            let ((scores, stats), elapsed) = timed(|| {
                Engine::new(EvalConfig::exact())
                    .most_probable_sessions(&db, &q, k, strategy)
                    .expect("top-k evaluation")
            });
            let ids: Vec<usize> = scores.iter().map(|s| s.session_index).collect();
            match &reference {
                None => reference = Some(ids.clone()),
                Some(r) => assert_eq!(
                    r.len(),
                    ids.len(),
                    "strategies must return the same number of sessions"
                ),
            }
            rows.push(vec![
                k.to_string(),
                name.to_string(),
                format!("{:.3}", elapsed.as_secs_f64()),
                stats.exact_evaluations.to_string(),
                stats.upper_bounds_computed.to_string(),
            ]);
            records.push(json!({
                "k": k,
                "strategy": name,
                "seconds": elapsed.as_secs_f64(),
                "exact_evaluations": stats.exact_evaluations,
                "upper_bounds": stats.upper_bounds_computed,
            }));
        }
    }
    print_table(
        &["k", "strategy", "time (s)", "exact evals", "upper bounds"],
        &rows,
    );
    println!(
        "\nExpected shape (paper): the 1-edge and 2-edge strategies evaluate far fewer sessions \
         exactly and are several times faster than full evaluation, especially for small k."
    );
    write_results("fig08", &json!({ "series": records }));
}
