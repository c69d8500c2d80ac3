//! `perf_suite`: the repo's benchmark. One command, four workloads, named
//! end-to-end and per-layer metrics; see `README.md` beside `Cargo.toml`.
//!
//! ```text
//! perf_suite --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! perf_suite --workload all    [--seed N] [--seconds S] [--aa K]      [--quick]
//! perf_suite --emit-benchmark-json
//! ```
//!
//! With one workload named, the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` and the exit code
//! is non-zero when any answer was wrong. `--workload all` re-executes this
//! binary once per workload and run.

mod inputs;
mod metrics;
mod probes;
mod prom;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 2016;
/// Same-code repetitions of suite mode when `--aa` is not given.
const DEFAULT_AA_ROUNDS: usize = 5;
/// Measured seconds of the `--quick` smoke run.
const QUICK_SECONDS: f64 = 2.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    rounds: Option<usize>,
    quick: bool,
    emit_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        rounds: None,
        quick: false,
        emit_benchmark_json: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name or `all`")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => args.trace = true,
            "--aa" => {
                let rounds: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--aa: {e}"))?;
                if rounds == 0 {
                    return Err("--aa must be at least 1".into());
                }
                args.rounds = Some(rounds);
            }
            "--quick" => args.quick = true,
            "--emit-benchmark-json" => args.emit_benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The result line the benchmark's driver reads.
fn result_line(outcome: &run::Outcome) -> String {
    let metrics: BTreeMap<String, Value> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = metrics::unit_of(name).expect("every reported metric is declared");
            (name.to_string(), json!({ "value": *value, "unit": unit }))
        })
        .collect();
    serde_json::to_string(&json!({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics),
    }))
    .expect("the result serializes")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perf_suite: {message}");
            return ExitCode::from(2);
        }
    };
    if args.emit_benchmark_json {
        println!(
            "{}",
            serde_json::to_string_pretty(&metrics::benchmark_json())
                .expect("BENCHMARK.json serializes")
        );
        return ExitCode::SUCCESS;
    }
    if cfg!(debug_assertions) {
        eprintln!("perf_suite: refusing to measure a build with debug assertions on; build with --release");
        return ExitCode::from(2);
    }
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        metrics::RUN_SECONDS as f64
    });
    let Some(workload) = args.workload else {
        eprintln!("perf_suite: --workload <name|all> is required");
        return ExitCode::from(2);
    };
    if workload == "all" {
        let rounds = args
            .rounds
            .unwrap_or(if args.quick { 1 } else { DEFAULT_AA_ROUNDS });
        let ok = suite::run(&suite::Options {
            seed: args.seed,
            seconds,
            quick: args.quick,
            rounds,
        });
        return if ok {
            ExitCode::SUCCESS
        } else {
            eprintln!("perf_suite: a correctness or spread gate failed");
            ExitCode::FAILURE
        };
    }
    if !workloads::NAMES.contains(&workload.as_str()) {
        eprintln!(
            "perf_suite: unknown workload {workload:?}; one of {:?} or `all`",
            workloads::NAMES
        );
        return ExitCode::from(2);
    }
    let outcome = run::run(&run::Options {
        workload,
        seed: args.seed,
        seconds,
        trace: args.trace,
        quick: args.quick,
    });
    for (name, value) in &outcome.metrics {
        let unit = metrics::unit_of(name).expect("every reported metric is declared");
        println!("  {name:<42} {value:>14.4} {unit}");
    }
    println!(
        "  failed_fraction {} ({} of {})",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{}", result_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
