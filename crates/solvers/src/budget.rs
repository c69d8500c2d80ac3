//! Resource budgets for exact solvers.
//!
//! The paper's scalability experiments (e.g. Figure 6) report the fraction of
//! instances an exact solver finishes within a wall-clock budget. Rust cannot
//! interrupt a running DP from the outside, so the solvers periodically check
//! a [`Budget`] and abort with [`crate::SolverError::BudgetExceeded`].
//!
//! A budget can additionally carry a [`CancelProbe`]: an externally supplied
//! predicate polled at the same per-insertion-step cadence, aborting with
//! [`crate::SolverError::Cancelled`] when it fires. The serving layer uses
//! this for mid-solve cancellation — a long-running unit stops as soon as
//! every ticket depending on it has expired or been dropped.

use std::sync::Arc;
use std::time::{Duration, Instant};

/// An externally supplied cancellation predicate a [`Budget`] polls between
/// DP insertion steps. The closure must be cheap (it runs once per outer
/// step) and `Send + Sync` (solves run on worker threads).
#[derive(Clone)]
pub struct CancelProbe(Arc<dyn Fn() -> bool + Send + Sync>);

impl CancelProbe {
    /// Wraps a predicate that returns `true` once the work should stop.
    pub fn new(probe: impl Fn() -> bool + Send + Sync + 'static) -> Self {
        CancelProbe(Arc::new(probe))
    }

    /// Polls the predicate.
    pub fn is_cancelled(&self) -> bool {
        (self.0)()
    }
}

impl std::fmt::Debug for CancelProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CancelProbe(..)")
    }
}

/// A state-count and wall-clock budget checked by the exact DP solvers once
/// per insertion step.
#[derive(Debug, Clone)]
pub struct Budget {
    max_states: Option<usize>,
    time_limit: Option<Duration>,
    cancel: Option<CancelProbe>,
    started: Instant,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget that never triggers.
    fn unlimited() -> Self {
        Budget {
            max_states: None,
            time_limit: None,
            cancel: None,
            started: Instant::now(),
        }
    }

    /// Limits the number of simultaneously tracked DP states: the distinct
    /// states a kernel carries from one insertion step to the next. For the
    /// packed general-DAG kernel those are the *live* ones — a prefix no
    /// placement of the remaining items can complete is dropped, not carried
    /// (see [`PatternSolver::with_budget`](crate::PatternSolver::with_budget)).
    pub fn with_max_states(max_states: usize) -> Self {
        Budget {
            max_states: Some(max_states),
            ..Budget::unlimited()
        }
    }

    /// Limits wall-clock time; the clock starts when the budget is created.
    pub fn with_time_limit(limit: Duration) -> Self {
        Budget {
            time_limit: Some(limit),
            ..Budget::unlimited()
        }
    }

    /// A budget whose only trigger is the given cancellation probe.
    pub fn cancellable(probe: CancelProbe) -> Self {
        Budget {
            cancel: Some(probe),
            ..Budget::unlimited()
        }
    }

    /// Combines a state cap and a time limit.
    pub fn new(max_states: Option<usize>, time_limit: Option<Duration>) -> Self {
        Budget {
            max_states,
            time_limit,
            cancel: None,
            started: Instant::now(),
        }
    }

    /// Polls only the cancellation probe (if any). Solvers whose progress
    /// metric is not a state count (e.g. the inclusion–exclusion loop over
    /// conjunctions) call this between units of work.
    pub(crate) fn check_cancelled(&self) -> crate::Result<()> {
        if let Some(probe) = &self.cancel {
            if probe.is_cancelled() {
                return Err(crate::SolverError::Cancelled);
            }
        }
        Ok(())
    }

    /// Checks the budget against the current number of tracked states.
    pub fn check(&self, current_states: usize) -> crate::Result<()> {
        self.check_cancelled()?;
        if let Some(max) = self.max_states {
            if current_states > max {
                return Err(crate::SolverError::BudgetExceeded(format!(
                    "{current_states} states exceed the cap of {max}"
                )));
            }
        }
        if let Some(limit) = self.time_limit {
            let elapsed = self.started.elapsed();
            if elapsed > limit {
                return Err(crate::SolverError::BudgetExceeded(format!(
                    "elapsed {elapsed:?} exceeds the limit of {limit:?}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_triggers() {
        let b = Budget::unlimited();
        assert!(b.check(usize::MAX / 2).is_ok());
    }

    #[test]
    fn state_cap_triggers() {
        let b = Budget::with_max_states(10);
        assert!(b.check(10).is_ok());
        assert!(b.check(11).is_err());
    }

    #[test]
    fn cancel_probe_triggers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let flag = Arc::new(AtomicBool::new(false));
        let probe = {
            let flag = Arc::clone(&flag);
            CancelProbe::new(move || flag.load(Ordering::Relaxed))
        };
        let b = Budget::cancellable(probe);
        assert!(b.check(usize::MAX / 2).is_ok());
        assert!(b.check_cancelled().is_ok());
        flag.store(true, Ordering::Relaxed);
        assert!(matches!(b.check(0), Err(crate::SolverError::Cancelled)));
        assert!(matches!(
            b.check_cancelled(),
            Err(crate::SolverError::Cancelled)
        ));
    }

    #[test]
    fn time_limit_triggers() {
        let b = Budget::with_time_limit(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.check(0).is_err());
        assert!(Budget::with_time_limit(Duration::from_secs(60))
            .check(0)
            .is_ok());
    }
}
