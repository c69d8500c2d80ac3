//! Figure 10: relative error of MIS-AMP-lite as a function of the number of
//! proposal distributions, over Benchmark-A and a Benchmark-C cell.

use ppd_bench::{median, print_table, relative_error, timed, write_results, Scale};
use ppd_datagen::{benchmark_a, benchmark_c, BenchmarkCConfig, SolverInstance};
use ppd_solvers::{ApproxSolver, BipartiteSolver, Budget, ExactSolver, MisAmpLite};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;
use std::time::Duration;

fn errors_for(
    name: &str,
    instances: &[SolverInstance],
    proposal_counts: &[usize],
    samples: usize,
    truth_budget: Duration,
    rows: &mut Vec<Vec<String>>,
    records: &mut Vec<serde_json::Value>,
) {
    // Exact ground truth (skip instances whose exact solve exceeds the budget).
    let mut with_truth = Vec::new();
    for inst in instances {
        let solver = BipartiteSolver::new().with_budget(Budget::with_time_limit(truth_budget));
        let (result, _) = timed(|| solver.solve(&inst.model.to_rim(), &inst.labeling, &inst.union));
        if let Ok(truth) = result {
            with_truth.push((inst, truth));
        }
    }
    for &d in proposal_counts {
        // A failed estimate is counted, not folded into the median.
        let mut errs = Vec::new();
        let mut failed = 0;
        for (idx, (inst, truth)) in with_truth.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(10_000 + (d * 100 + idx) as u64);
            let lite = MisAmpLite::new(d, samples);
            match lite.estimate(&inst.model, &inst.labeling, &inst.union, &mut rng) {
                Ok(estimate) => errs.push(relative_error(*truth, estimate)),
                Err(_) => failed += 1,
            }
        }
        rows.push(vec![
            name.to_string(),
            d.to_string(),
            format!("{:.4}", median(&errs)),
            with_truth.len().to_string(),
        ]);
        records.push(json!({
            "benchmark": name,
            "proposal_distributions": d,
            "median_relative_error": median(&errs),
            "instances": with_truth.len(),
            "failed": failed,
        }));
    }
}

fn main() {
    let scale = Scale::from_env();
    let proposal_counts: Vec<usize> = vec![1, 2, 5, 10, 20];
    let samples = scale.pick(400, 2000);
    let truth_budget = scale.pick(Duration::from_secs(30), Duration::from_secs(3600));
    println!("Figure 10 — MIS-AMP-lite accuracy vs number of proposal distributions");
    println!("scale: {scale:?}\n");

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let bench_a = benchmark_a(scale.pick(4, 33), 99);
    errors_for(
        "benchmark-a",
        &bench_a,
        &proposal_counts,
        samples,
        truth_budget,
        &mut rows,
        &mut records,
    );
    let bench_c = benchmark_c(
        &BenchmarkCConfig {
            num_items: scale.pick(10, 16),
            patterns_per_union: 3,
            labels_per_pattern: 3,
            items_per_label: 3,
            instances: scale.pick(4, 10),
            phi: 0.1,
        },
        123,
    );
    errors_for(
        "benchmark-c",
        &bench_c,
        &proposal_counts,
        samples,
        truth_budget,
        &mut rows,
        &mut records,
    );
    print_table(
        &["benchmark", "#proposals", "median rel. error", "#instances"],
        &rows,
    );
    println!(
        "\nExpected shape (paper): relative error decreases as proposal distributions are added \
         and plateaus around 20 distributions."
    );
    write_results("fig10", &json!({ "series": records }));
}
