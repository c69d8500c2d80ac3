//! The work-unit scheduler: a scoped worker pool over an index space.
//!
//! Work units are embarrassingly parallel (per-unit marginal inference
//! dominates query cost, as both the consensus-answers and the
//! probabilistic-database dichotomy lines of work observe), so the scheduler
//! is deliberately simple: `threads` scoped workers pull unit indices from a
//! shared atomic counter and run the caller's closure on each. Dynamic
//! (counter-based) pulling balances load when unit costs are skewed — one
//! hard union does not idle the rest of the pool the way static chunking
//! would.
//!
//! Determinism: the scheduler imposes no ordering on *execution*, so
//! everything order-dependent (RNG seeds, cache keys) must be a pure
//! function of the unit itself — which [`UnitKey`](crate::engine::UnitKey)
//! guarantees.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a configured thread count: `0` means one worker per available
/// hardware thread, and the pool never exceeds the number of units.
pub(crate) fn effective_threads(configured: usize, num_units: usize) -> usize {
    let hw = || {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    };
    let requested = if configured == 0 { hw() } else { configured };
    requested.min(num_units).max(1)
}

/// Runs `f` once for every index of `0..n` on `threads` workers (after
/// [`effective_threads`] resolution) and returns when all of them have.
/// Whatever an index produces, `f` hands on itself — the engine's wave
/// releases a query's answer from inside `f` the moment its last unit lands,
/// so nothing waits for the join.
///
/// `f` runs concurrently on worker threads, in no promised order across
/// them; anything order-sensitive must live behind the caller's own
/// synchronization. With one effective worker it runs on the caller's thread
/// in index order with no synchronization — the engine's `threads = 1` mode
/// therefore *is* the serial evaluation path, not a degenerate pool.
pub(crate) fn run_indexed(n: usize, configured_threads: usize, f: impl Fn(usize) + Sync) {
    let threads = effective_threads(configured_threads, n);
    if threads <= 1 {
        return (0..n).for_each(f);
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    f(i);
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("engine worker panicked");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_resolution() {
        assert_eq!(effective_threads(1, 100), 1);
        assert_eq!(effective_threads(4, 100), 4);
        assert_eq!(effective_threads(4, 2), 2);
        assert_eq!(effective_threads(3, 0), 1);
        assert!(effective_threads(0, 100) >= 1);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        run_indexed(0, 4, |i| panic!("index {i} of an empty space was run"));
    }

    #[test]
    fn notify_fires_exactly_once_per_index_before_the_wave_joins() {
        // What an index produces it hands on from inside `f`: `f` is the
        // notification, and it runs once per index.
        use std::sync::Mutex;
        for threads in [1usize, 3] {
            let ran = Mutex::new(Vec::new());
            run_indexed(17, threads, |i| ran.lock().unwrap().push(i));
            let mut ran = ran.into_inner().unwrap();
            if threads == 1 {
                // The serial path runs in index order on the caller's
                // thread — the property streamed-delivery tests pin on.
                assert_eq!(ran, (0..17).collect::<Vec<_>>());
            }
            ran.sort_unstable();
            assert_eq!(ran, (0..17).collect::<Vec<_>>());
        }
    }

    #[test]
    fn workers_share_the_index_space() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        for threads in [2usize, 4, 7] {
            let seen = Mutex::new(HashSet::new());
            run_indexed(100, threads, |i| {
                assert!(seen.lock().unwrap().insert(i), "index {i} ran twice");
            });
            assert_eq!(seen.lock().unwrap().len(), 100);
        }
    }
}
