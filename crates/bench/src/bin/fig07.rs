//! Figure 7: scalability of the bipartite solver over Benchmark-C —
//! (a) runtime vs. number of items and labels per pattern,
//! (b) runtime vs. number of items and patterns per union.

use ppd_bench::{
    finished_within_budget, median_duration, print_table, timed, write_results, Scale,
};
use ppd_datagen::{benchmark_c, BenchmarkCConfig};
use ppd_solvers::{BipartiteSolver, Budget, ExactSolver};
use serde_json::json;
use std::time::Duration;

fn run_cell(config: &BenchmarkCConfig, seed: u64, budget: Duration) -> (Duration, usize, usize) {
    let family = benchmark_c(config, seed);
    let mut times = Vec::new();
    let mut timeouts = 0usize;
    for inst in &family {
        let solver = BipartiteSolver::new().with_budget(Budget::with_time_limit(budget));
        let (result, elapsed) =
            timed(|| solver.solve(&inst.model.to_rim(), &inst.labeling, &inst.union));
        if finished_within_budget(&result) {
            times.push(elapsed);
        } else {
            timeouts += 1;
        }
    }
    (median_duration(&times), times.len(), timeouts)
}

fn main() {
    let scale = Scale::from_env();
    let ms: Vec<usize> = scale.pick(vec![8, 10, 12], vec![10, 12, 14, 16]);
    let instances = scale.pick(4, 10);
    let budget = scale.pick(Duration::from_secs(10), Duration::from_secs(3600));
    println!("Figure 7 — bipartite solver scalability over Benchmark-C");
    println!("scale: {scale:?}, per-instance budget {budget:?}\n");

    // (a) 3 patterns/union, 3 items/label; vary #labels per pattern.
    let mut rows_a = Vec::new();
    let mut records = Vec::new();
    for &labels in &[2usize, 3, 4] {
        for &m in &ms {
            let config = BenchmarkCConfig {
                num_items: m,
                patterns_per_union: 3,
                labels_per_pattern: labels,
                items_per_label: 3,
                instances,
                phi: 0.1,
            };
            let (median, finished, timeouts) = run_cell(&config, 7 + (labels * m) as u64, budget);
            rows_a.push(vec![
                m.to_string(),
                labels.to_string(),
                format!("{:.3}", median.as_secs_f64()),
                format!("{finished}/{}", finished + timeouts),
            ]);
            records.push(json!({
                "panel": "a", "m": m, "labels_per_pattern": labels,
                "median_seconds": median.as_secs_f64(),
                "finished": finished, "timeouts": timeouts,
            }));
        }
    }
    println!("(a) 3 patterns/union, 3 items/label");
    print_table(
        &["m", "#labels/pattern", "median time (s)", "finished"],
        &rows_a,
    );

    // (b) 3 labels/pattern, 3 items/label; vary #patterns per union.
    let mut rows_b = Vec::new();
    for &patterns in &[1usize, 2, 3] {
        for &m in &ms {
            let config = BenchmarkCConfig {
                num_items: m,
                patterns_per_union: patterns,
                labels_per_pattern: 3,
                items_per_label: 3,
                instances,
                phi: 0.1,
            };
            let (median, finished, timeouts) =
                run_cell(&config, 31 + (patterns * m) as u64, budget);
            rows_b.push(vec![
                m.to_string(),
                patterns.to_string(),
                format!("{:.3}", median.as_secs_f64()),
                format!("{finished}/{}", finished + timeouts),
            ]);
            records.push(json!({
                "panel": "b", "m": m, "patterns_per_union": patterns,
                "median_seconds": median.as_secs_f64(),
                "finished": finished, "timeouts": timeouts,
            }));
        }
    }
    println!("\n(b) 3 labels/pattern, 3 items/label");
    print_table(
        &["m", "#patterns/union", "median time (s)", "finished"],
        &rows_b,
    );
    println!(
        "\nExpected shape (paper): runtime grows quickly with both the number of items and \
         the total number of labels, but stays practical for small m."
    );
    write_results("fig07", &json!({ "series": records }));
}
