//! # ppd-bench
//!
//! Experiment harnesses regenerating the figures of the paper's evaluation
//! (Section 6). Each binary `figNN` prints the series its figure plots and
//! writes a JSON record under `bench_results/`.
//!
//! Every harness supports two scales, selected with the `PPD_SCALE`
//! environment variable:
//!
//! * `small` (default) — parameters reduced so the whole suite finishes in
//!   minutes on a laptop; trends and solver orderings are preserved.
//! * `paper` — the parameter ranges of the paper (some runs take hours, as
//!   they did for the authors).
//!
//! Latency percentiles in the harnesses come from [`ppd_obs::Histogram`] —
//! the same log-bucketed recorder the served `metrics` verb exposes — so
//! the benches and the service report quantiles through one implementation.

use ppd_solvers::SolverError;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced parameters (default): minutes, not hours.
    Small,
    /// The paper's parameter ranges.
    Paper,
}

impl Scale {
    /// Reads the scale from the `PPD_SCALE` environment variable.
    pub fn from_env() -> Scale {
        match std::env::var("PPD_SCALE").unwrap_or_default().as_str() {
            "paper" => Scale::Paper,
            _ => Scale::Small,
        }
    }

    /// Picks between the small-scale and paper-scale value.
    pub fn pick<T>(&self, small: T, paper: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Paper => paper,
        }
    }
}

/// Reads a `usize` override from the environment (the harnesses' shared
/// `PPD_VOTERS` / `PPD_CANDIDATES` / `PPD_ROUNDS` knobs).
pub fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Median of a slice of durations (returns zero for an empty slice).
pub fn median_duration(durations: &[Duration]) -> Duration {
    if durations.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = durations.to_vec();
    sorted.sort();
    sorted[sorted.len() / 2]
}

/// Median of a slice of floats (returns NaN for an empty slice). Sorts by
/// `f64::total_cmp`, so a NaN input sorts last instead of panicking.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Relative error of an estimate against an exact value.
pub fn relative_error(exact: f64, estimate: f64) -> f64 {
    if exact == 0.0 {
        estimate.abs()
    } else {
        ((estimate - exact) / exact).abs()
    }
}

/// Whether a solve run under a time or state budget finished: `true` for an
/// answer, `false` for [`SolverError::BudgetExceeded`], the one error a
/// completion-rate figure may count as "not finished within budget". Any
/// other error — an `Unsupported` or `InvalidInstance` instance, a
/// cancellation — says nothing about the solver's speed, so it panics
/// instead of being counted as a timeout.
pub fn finished_within_budget<T>(result: &Result<T, SolverError>) -> bool {
    match result {
        Ok(_) => true,
        Err(SolverError::BudgetExceeded(_)) => false,
        Err(e) => panic!("a budgeted solve failed with something other than its budget: {e}"),
    }
}

/// Writes an experiment record as pretty JSON under `bench_results/`.
pub fn write_results(name: &str, value: &serde_json::Value) {
    let dir = PathBuf::from("bench_results");
    if std::fs::create_dir_all(&dir).is_err() {
        eprintln!("warning: could not create bench_results/");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(body) => {
            if std::fs::write(&path, body).is_ok() {
                println!("\n[results written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialise results: {e}"),
    }
}

/// Prints a simple aligned table: a header row followed by data rows.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(header.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Small.pick(1, 2), 1);
        assert_eq!(Scale::Paper.pick(1, 2), 2);
    }

    #[test]
    fn statistics_helpers() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
        assert_eq!(
            median_duration(&[Duration::from_secs(3), Duration::from_secs(1)]),
            Duration::from_secs(3)
        );
        assert_eq!(relative_error(2.0, 1.0), 0.5);
        assert_eq!(relative_error(0.0, 0.25), 0.25);
    }

    #[test]
    fn median_of_a_slice_with_a_nan_does_not_panic() {
        // A positive NaN sorts after every number.
        assert_eq!(median(&[3.0, f64::NAN, 1.0, 2.0]), 3.0);
        assert_eq!(median(&[f64::NAN, 1.0, 2.0]), 2.0);
        assert!(median(&[f64::NAN]).is_nan());
    }

    #[test]
    fn only_an_exceeded_budget_counts_as_not_finished() {
        assert!(finished_within_budget(&Ok(0.5)));
        let timeout: Result<f64, _> = Err(SolverError::BudgetExceeded("1 s".into()));
        assert!(!finished_within_budget(&timeout));
        for error in [
            SolverError::Unsupported("no such solver".into()),
            SolverError::InvalidInstance("empty item universe".into()),
            SolverError::Cancelled,
        ] {
            let failed: Result<f64, _> = Err(error);
            let verdict = std::panic::catch_unwind(|| finished_within_budget(&failed));
            assert!(verdict.is_err(), "{failed:?} must not read as a timeout");
        }
    }

    #[test]
    fn timed_measures_something() {
        let (value, elapsed) = timed(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(elapsed < Duration::from_secs(1));
    }
}
