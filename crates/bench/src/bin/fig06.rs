//! Figure 6: fraction of Benchmark-D instances the two-label solver finishes
//! within a time budget, as a function of the number of items and of the
//! number of patterns per union.

use ppd_bench::{finished_within_budget, print_table, write_results, Scale};
use ppd_datagen::{benchmark_d, BenchmarkDConfig};
use ppd_solvers::{Budget, ExactSolver, TwoLabelSolver};
use serde_json::json;
use std::time::Duration;

fn main() {
    let scale = Scale::from_env();
    let ms: Vec<usize> = scale.pick(vec![12, 16, 20], vec![20, 30, 40, 50, 60]);
    let pattern_counts: Vec<usize> = scale.pick(vec![2, 3], vec![2, 3, 4, 5]);
    let instances = scale.pick(4, 10);
    let time_limit = scale.pick(Duration::from_secs(2), Duration::from_secs(600));
    println!("Figure 6 — two-label solver completion rate over Benchmark-D");
    println!("scale: {scale:?}, per-instance budget {time_limit:?}\n");

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for &patterns in &pattern_counts {
        for &m in &ms {
            let config = BenchmarkDConfig {
                num_items: m,
                patterns_per_union: patterns,
                items_per_label: 3,
                instances,
                phi: 0.5,
            };
            let family = benchmark_d(&config, 100 + (m * patterns) as u64);
            let mut finished = 0usize;
            for inst in &family {
                let solver = TwoLabelSolver::with_budget(Budget::with_time_limit(time_limit));
                let result = solver.solve(&inst.model.to_rim(), &inst.labeling, &inst.union);
                if finished_within_budget(&result) {
                    finished += 1;
                }
            }
            let fraction = finished as f64 / family.len() as f64;
            rows.push(vec![
                m.to_string(),
                patterns.to_string(),
                format!("{:.0}%", fraction * 100.0),
            ]);
            records.push(json!({
                "m": m,
                "patterns_per_union": patterns,
                "finished_fraction": fraction,
            }));
        }
    }
    print_table(&["m", "#patterns", "finished within budget"], &rows);
    println!(
        "\nExpected shape (paper): completion rate decreases with both the number of items \
         and the number of patterns per union."
    );
    write_results("fig06", &json!({ "series": records }));
}
