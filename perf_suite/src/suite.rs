//! Suite mode (`--workload all`): every workload in a child process of its
//! own — so `peak_rss_mb` is per workload and a blow-up fails one workload
//! instead of killing the suite — repeated `--aa K` times on the same code,
//! with the spread of every end-to-end metric held against its bound, plus
//! one traced run per workload. Results go to `perf_suite/results/`.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::NAMES;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// What to run.
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Untraced repetitions per workload.
    pub rounds: usize,
}

/// The last line of a child's standard output, parsed.
struct ChildResult {
    lost: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process. A child that dies, runs out of
/// memory or prints no result is `lost`, which fails its whole workload.
fn child(workload: &str, opts: &Options, trace: bool) -> ChildResult {
    let lost = ChildResult {
        lost: true,
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: BTreeMap::new(),
    };
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if opts.quick {
        command.arg("--quick");
    }
    // `output` waits for the child to end.
    let Ok(output) = command.output() else {
        return lost;
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("  {line}");
    }
    let parsed = stdout
        .lines()
        .last()
        .and_then(|line| serde_json::from_str(line).ok());
    let Some(result) = parsed else {
        println!(
            "  {workload}: the child printed no result ({})",
            output.status
        );
        return lost;
    };
    let field = |key: &str| result.get(key).and_then(Value::as_u64).unwrap_or(0);
    ChildResult {
        lost: false,
        correct: result.get("correct").and_then(Value::as_bool) == Some(true)
            && output.status.success(),
        attempted: field("attempted").max(1),
        failed: field("failed"),
        metrics: result
            .get("metrics")
            .and_then(Value::as_object)
            .map(|metrics| {
                metrics
                    .iter()
                    .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default(),
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the numbers were taken.
fn environment(opts: &Options) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    json!({
        "seed": opts.seed,
        "commit": command_line("git", &["rev-parse", "HEAD"]),
        "rustc": command_line("rustc", &["-V"]),
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        "cpu_model": cpu_model,
        "run_seconds": opts.seconds,
        "aa_rounds": opts.rounds as u64,
    })
}

/// Runs the suite; returns whether every gate held.
pub fn run(opts: &Options) -> bool {
    let mut ok = true;
    let mut workloads = BTreeMap::new();
    for workload in NAMES {
        println!("== {workload}");
        let (mut attempted, mut failed, mut lost) = (0, 0, false);
        let mut runs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for round in 0..opts.rounds {
            println!(" untraced run {} of {}", round + 1, opts.rounds);
            let result = child(workload, opts, false);
            ok &= result.correct;
            lost |= result.lost;
            attempted += result.attempted;
            failed += result.failed;
            for m in &END_TO_END {
                if let Some(&value) = result.metrics.get(m.name) {
                    runs.entry(m.name).or_default().push(value);
                }
            }
        }
        println!(" traced run");
        let traced = child(workload, opts, true);
        ok &= traced.correct;
        lost |= traced.lost;
        attempted += traced.attempted;
        failed += traced.failed;

        let mut end_to_end = BTreeMap::new();
        for m in &END_TO_END {
            let values = runs.remove(m.name).unwrap_or_default();
            let sorted = stats::sorted(values.clone());
            let mut entry = json!({
                "unit": m.unit,
                "better": m.better,
                "bound": m.bound,
                "median": stats::percentile(&sorted, 50.0),
                "runs": values,
            });
            let mut line = format!(
                "  {:<16} {:>12.4} {:<4}",
                m.name,
                stats::percentile(&sorted, 50.0),
                m.unit
            );
            if sorted.len() >= 2 {
                let [q1, _, q3] = stats::quartiles(&sorted);
                let spread = stats::relative_spread(&sorted);
                // Set-up time is gated on its median only, like the driver.
                let over = spread > m.bound && m.name != "setup_s";
                ok &= !over;
                line += &format!(
                    "  q1 {q1:.4}  q3 {q3:.4}  spread {spread:.4} vs bound {}{}",
                    m.bound,
                    if over { "  OVER ITS BOUND" } else { "" }
                );
                if let Value::Object(fields) = &mut entry {
                    fields.insert("q1".into(), q1.into());
                    fields.insert("q3".into(), q3.into());
                    fields.insert("relative_spread".into(), spread.into());
                }
            }
            println!("{line}");
            end_to_end.insert(m.name.to_string(), entry);
        }
        let mut per_layer = BTreeMap::new();
        for (name, unit, _) in PER_LAYER {
            let value = traced.metrics.get(name).copied();
            println!(
                "  {name:<42} {:>14} {unit}",
                value.map_or("missing".to_string(), |v| format!("{v:.4}"))
            );
            per_layer.insert(name.to_string(), json!({ "unit": unit, "value": value }));
        }
        // A lost child (crash, out of memory) fails the workload outright.
        let failed_fraction = if lost {
            1.0
        } else {
            failed as f64 / attempted.max(1) as f64
        };
        println!("  failed_fraction {failed_fraction} ({failed} of {attempted})");
        workloads.insert(
            workload.to_string(),
            json!({
                "attempted": attempted,
                "failed": failed,
                "failed_fraction": failed_fraction,
                "end_to_end": Value::Object(end_to_end),
                "per_layer": Value::Object(per_layer),
            }),
        );
    }
    if !opts.quick {
        write_results(opts, &Value::Object(workloads));
    }
    ok
}

/// Writes `perf_suite/results/seed_<seed>.json`. The file states what was
/// measured and claims nothing: its last key is `"claim": null`.
fn write_results(opts: &Options, workloads: &Value) {
    let dir = Path::new("perf_suite/results");
    let path = dir.join(format!("seed_{}.json", opts.seed));
    let pretty = |value: &Value| serde_json::to_string_pretty(value).expect("results serialize");
    let body = format!(
        "{{\n\"environment\": {},\n\"workloads\": {},\n\"claim\": null\n}}\n",
        pretty(&environment(opts)),
        pretty(workloads),
    );
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => println!("results not written to {}: {e}", path.display()),
    }
}
