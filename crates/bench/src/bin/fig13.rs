//! Figure 13: MIS-AMP-adaptive over Benchmark-B — (a) proposal-construction
//! overhead vs. query size, (b) sampling/convergence time vs. number of items.

use ppd_bench::{median_duration, print_table, timed, write_results, Scale};
use ppd_datagen::{benchmark_b, BenchmarkBConfig};
use ppd_solvers::MisAmpLite;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;

fn main() {
    let scale = Scale::from_env();
    let instances_per_cell = scale.pick(3, 10);
    let proposals = scale.pick(5, 10);
    let samples = scale.pick(300, 1000);
    println!("Figure 13 — MIS-AMP proposal-construction overhead and sampling time (Benchmark-B)");
    println!("scale: {scale:?}\n");

    let mut rows_a = Vec::new();
    let mut records = Vec::new();
    // (a) overhead: m fixed, 3 patterns/union, vary labels and items/label.
    let m_a = scale.pick(30, 100);
    for &labels in &[3usize, 4, 5] {
        for &items in scale.pick(&[3usize, 5][..], &[3usize, 5, 7][..]) {
            let config = BenchmarkBConfig {
                num_items: m_a,
                phi: 0.1,
                patterns_per_union: 3,
                labels_per_pattern: labels,
                items_per_label: items,
                instances: instances_per_cell,
            };
            let family = benchmark_b(&config, 13 + (labels * items) as u64);
            let mut overheads = Vec::new();
            for inst in &family {
                let lite = MisAmpLite::new(proposals, samples);
                let (prepared, overhead) =
                    timed(|| lite.prepare(&inst.model, &inst.labeling, &inst.union));
                if prepared.is_ok() {
                    overheads.push(overhead);
                }
            }
            let median = median_duration(&overheads);
            rows_a.push(vec![
                labels.to_string(),
                items.to_string(),
                format!("{:.3}", median.as_secs_f64()),
            ]);
            records.push(json!({
                "panel": "a", "m": m_a, "labels_per_pattern": labels,
                "items_per_label": items,
                "median_overhead_seconds": median.as_secs_f64(),
            }));
        }
    }
    println!("(a) proposal-construction overhead, m = {m_a}, 3 patterns/union");
    print_table(
        &["#labels/pattern", "#items/label", "median overhead (s)"],
        &rows_a,
    );

    // (b) sampling time: 2 patterns/union, 5 items/label, vary m and labels.
    let mut rows_b = Vec::new();
    for &labels in &[3usize, 4, 5] {
        for &m in scale.pick(&[10usize, 20, 40][..], &[20usize, 50, 100, 200][..]) {
            let config = BenchmarkBConfig {
                num_items: m,
                phi: 0.1,
                patterns_per_union: 2,
                labels_per_pattern: labels,
                items_per_label: 5,
                instances: instances_per_cell,
            };
            let family = benchmark_b(&config, 77 + (labels * m) as u64);
            let mut sampling_times = Vec::new();
            for (idx, inst) in family.iter().enumerate() {
                let lite = MisAmpLite::new(proposals, samples);
                let Ok(prepared) = lite.prepare(&inst.model, &inst.labeling, &inst.union) else {
                    continue;
                };
                let mut rng = StdRng::seed_from_u64(1300 + idx as u64);
                let total = prepared.num_proposals() * samples;
                let (_, sampling) =
                    timed(|| lite.estimate_prepared_total(&inst.model, &prepared, total, &mut rng));
                sampling_times.push(sampling);
            }
            let median = median_duration(&sampling_times);
            rows_b.push(vec![
                m.to_string(),
                labels.to_string(),
                format!("{:.3}", median.as_secs_f64()),
            ]);
            records.push(json!({
                "panel": "b", "m": m, "labels_per_pattern": labels,
                "median_sampling_seconds": median.as_secs_f64(),
            }));
        }
    }
    println!("\n(b) sampling (convergence) time, 2 patterns/union, 5 items/label");
    print_table(&["m", "#labels/pattern", "median sampling (s)"], &rows_b);
    println!(
        "\nExpected shape (paper): the construction overhead rises sharply with the number of \
         labels and items per label, while the sampling time grows only moderately with m and is \
         largely insensitive to the query size."
    );
    write_results("fig13", &json!({ "series": records }));
}
