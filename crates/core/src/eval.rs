//! The user-facing configuration of query evaluation. Evaluation itself is
//! the [`crate::engine::Engine`]'s.

use crate::engine::CacheCapacity;

/// An accuracy target for [`SolverChoice::ErrorBudget`]: the per-unit
/// marginal must land within `±epsilon` of the exact value at the given
/// confidence level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBudget {
    /// Target half-width of the confidence interval (absolute probability
    /// error). Must be positive.
    pub epsilon: f64,
    /// Coverage of the interval, in `(0, 1)` (e.g. `0.95`).
    pub confidence: f64,
}

/// Which inference engine to use for the per-session marginal probabilities.
#[derive(Debug, Clone)]
pub enum SolverChoice {
    /// Pick the cheapest exact solver matching each union's class
    /// (two-label / bipartite / general).
    ExactAuto,
    /// Always use the inclusion–exclusion general solver (the paper's
    /// baseline; mostly useful for experiments).
    GeneralExact,
    /// Use the MIS-AMP-adaptive approximate solver with the given number of
    /// samples per proposal distribution.
    Approximate {
        /// Samples drawn from each proposal distribution per round.
        samples_per_proposal: usize,
    },
    /// Pick per unit between exact DP and the error-budgeted sampler: units
    /// whose *static* cost estimate is at or below
    /// [`EvalConfig::exact_cost_threshold`] are solved exactly (the DP is
    /// cheaper than any sampling run that could certify `ε`), the rest run
    /// the budgeted MIS-AMP estimator, which doubles its total mixture
    /// budget until the compensated confidence interval closes to
    /// `±epsilon` — and falls back to exact when it cannot. The selection
    /// thresholds the *static* formula, never measured timings, so which
    /// solver runs — hence the answer's bits — is a pure function of unit
    /// content and configuration.
    ErrorBudget(ErrorBudget),
}

/// Configuration of query evaluation.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// The inference engine.
    pub solver: SolverChoice,
    /// Whether sessions sharing the same (model, pattern union) content are
    /// deduplicated into one work unit, solved once, and cached across
    /// queries (Section 6.4). Turning this off solves every session
    /// independently; because RNG seeds derive from work-unit content, the
    /// answers are identical either way.
    pub group_identical: bool,
    /// Base seed for the approximate solvers. Each work unit draws its RNG
    /// seed from this base combined with the unit's content hash, so
    /// estimates are reproducible and independent of evaluation order.
    pub seed: u64,
    /// Worker threads for the evaluation engine: `0` uses one worker per
    /// available hardware thread, `1` is the serial path, any other value
    /// is an explicit pool size. Results are bit-identical for every
    /// setting.
    pub threads: usize,
    /// Number of independently locked shards of the engine's marginal
    /// cache (clamped to at least 1). More shards reduce lock contention
    /// between worker threads; the count never affects results, only
    /// throughput. Default: 16.
    pub cache_shards: usize,
    /// Capacity bound of the marginal cache, split evenly across shards
    /// and enforced with per-shard LRU eviction. Default:
    /// [`CacheCapacity::Unbounded`] (the cache grows for the engine's
    /// lifetime, the pre-eviction behaviour). Eviction never affects
    /// results — an evicted unit is re-solved to the same bits on next
    /// demand.
    pub cache_capacity: CacheCapacity,
    /// Static-cost threshold of [`SolverChoice::ErrorBudget`]'s per-unit
    /// solver selection: units whose static exact cost is at or under this
    /// value run the exact DP, the rest run the budgeted estimator. Part of
    /// the configuration precisely so that selection — hence the answer's
    /// bits — stays a pure function of unit content and explicit
    /// configuration; the engine never reads a measured value here on its
    /// own. Default: `1e5`.
    pub exact_cost_threshold: f64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            solver: SolverChoice::ExactAuto,
            group_identical: true,
            seed: 42,
            threads: 0,
            cache_shards: 16,
            cache_capacity: CacheCapacity::Unbounded,
            exact_cost_threshold: 1e5,
        }
    }
}

impl EvalConfig {
    /// Exact evaluation with automatic solver selection and grouping.
    pub fn exact() -> Self {
        EvalConfig::default()
    }

    /// Approximate evaluation with MIS-AMP-adaptive.
    pub fn approximate(samples_per_proposal: usize) -> Self {
        EvalConfig {
            solver: SolverChoice::Approximate {
                samples_per_proposal,
            },
            ..EvalConfig::default()
        }
    }

    /// Error-budgeted evaluation: each unit is answered within `±epsilon`
    /// at the given confidence, by exact DP or by the budgeted sampler —
    /// whichever the static cost model predicts is cheaper.
    pub fn error_budget(epsilon: f64, confidence: f64) -> Self {
        EvalConfig {
            solver: SolverChoice::ErrorBudget(ErrorBudget {
                epsilon,
                confidence,
            }),
            ..EvalConfig::default()
        }
    }

    /// Disables grouping of identical (model, union) requests.
    pub fn without_grouping(mut self) -> Self {
        self.group_identical = false;
        self
    }

    /// Sets the worker-thread count (`0` = auto, `1` = serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the marginal-cache shard count (clamped to at least 1).
    pub fn with_cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards;
        self
    }

    /// Sets the marginal-cache capacity bound.
    pub fn with_cache_capacity(mut self, capacity: CacheCapacity) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the static-cost threshold of error-budget solver selection.
    /// Changing it changes which units sample — and therefore their bits —
    /// so treat it like the seed: fix it per deployment, don't tune it
    /// per query.
    pub fn with_exact_cost_threshold(mut self, threshold: f64) -> Self {
        self.exact_cost_threshold = threshold;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::PpdDatabase;
    use crate::engine::Engine;
    use crate::query::{CompareOp, ConjunctiveQuery, Term as T};
    use crate::testdb::polling_database;
    use crate::translate::ground_query;
    use ppd_patterns::CompiledUnion;
    use ppd_rim::Ranking;

    fn q1() -> ConjunctiveQuery {
        ConjunctiveQuery::new("Q1")
            .prefer(
                "Polls",
                vec![T::any(), T::any()],
                T::var("c1"),
                T::var("c2"),
            )
            .atom(
                "Candidates",
                vec![
                    T::var("c1"),
                    T::any(),
                    T::val("F"),
                    T::any(),
                    T::any(),
                    T::any(),
                ],
            )
            .atom(
                "Candidates",
                vec![
                    T::var("c2"),
                    T::any(),
                    T::val("M"),
                    T::any(),
                    T::any(),
                    T::any(),
                ],
            )
    }

    /// Brute-force a session probability straight from the definition.
    fn brute_session_probability(
        db: &PpdDatabase,
        query: &ConjunctiveQuery,
        session_index: usize,
    ) -> f64 {
        let plan = ground_query(db, query).unwrap();
        let squery = plan
            .sessions
            .iter()
            .find(|s| s.session_index == session_index)
            .unwrap();
        let prel = db.preference_relation("Polls").unwrap();
        let model = prel.sessions()[session_index].model();
        let items = model.sigma().items();
        let check = CompiledUnion::new(&squery.union, items, &plan.labeling);
        Ranking::enumerate_all(items)
            .iter()
            .filter(|t| check.satisfied_by(t))
            .map(|t| model.prob_of(t))
            .sum()
    }

    #[test]
    fn per_session_probabilities_match_brute_force() {
        let db = polling_database();
        let q = q1();
        let per_session = Engine::new(EvalConfig::exact())
            .session_probabilities(&db, &q)
            .unwrap();
        assert_eq!(per_session.len(), 3);
        for &(sidx, p) in &per_session {
            let expected = brute_session_probability(&db, &q, sidx);
            assert!((p - expected).abs() < 1e-9, "session {sidx}");
        }
    }

    #[test]
    fn boolean_aggregation_uses_independence() {
        let db = polling_database();
        let q = q1();
        let per_session = Engine::new(EvalConfig::exact())
            .session_probabilities(&db, &q)
            .unwrap();
        let ln_none = (per_session.iter()).fold(-0.0, |sum: f64, &(_, p)| sum + (-p).ln_1p());
        let expected = -ln_none.exp_m1();
        let got = Engine::new(EvalConfig::exact())
            .evaluate_boolean(&db, &q)
            .unwrap();
        assert!((expected - got).abs() < 1e-12);
        assert!(got > 0.0 && got <= 1.0);
    }

    #[test]
    fn count_is_sum_of_session_probabilities() {
        let db = polling_database();
        let q = q1();
        let per_session = Engine::new(EvalConfig::exact())
            .session_probabilities(&db, &q)
            .unwrap();
        let expected: f64 = per_session.iter().map(|&(_, p)| p).sum();
        let count = Engine::new(EvalConfig::exact())
            .count_sessions(&db, &q)
            .unwrap();
        assert!((count - expected).abs() < 1e-12);
        // Three sessions, each with probability in (0, 1).
        assert!(count > 0.0 && count < 3.0);
    }

    #[test]
    fn count_of_certain_query_equals_number_of_sessions() {
        // With φ > 0 every pairwise order has positive probability; a query
        // that is certain (an item preferred to itself is impossible, so use
        // a tautology-like union via two opposite constants) is approximated
        // here by "Clinton before Trump OR Trump before Clinton" expressed as
        // a count of a single certain direction per session being < 1 while
        // the total stays below the number of sessions.
        let db = polling_database();
        let q = ConjunctiveQuery::new("single-direction").prefer(
            "Polls",
            vec![T::any(), T::any()],
            T::val("Clinton"),
            T::val("Trump"),
        );
        let count = Engine::new(EvalConfig::exact())
            .count_sessions(&db, &q)
            .unwrap();
        assert!(count > 0.0 && count < 3.0);
    }

    #[test]
    fn count_of_unsatisfiable_query_is_zero() {
        let db = polling_database();
        let q = ConjunctiveQuery::new("impossible")
            .prefer(
                "Polls",
                vec![T::any(), T::any()],
                T::val("Clinton"),
                T::val("Trump"),
            )
            .prefer(
                "Polls",
                vec![T::any(), T::any()],
                T::val("Trump"),
                T::val("Clinton"),
            );
        let count = Engine::new(EvalConfig::exact())
            .count_sessions(&db, &q)
            .unwrap();
        assert_eq!(count, 0.0);
    }

    #[test]
    fn grouping_does_not_change_results() {
        let db = polling_database();
        let q = q1();
        let grouped = Engine::new(EvalConfig::exact())
            .session_probabilities(&db, &q)
            .unwrap();
        let ungrouped = Engine::new(EvalConfig::exact().without_grouping())
            .session_probabilities(&db, &q)
            .unwrap();
        assert_eq!(grouped.len(), ungrouped.len());
        for (a, b) in grouped.iter().zip(&ungrouped) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-12);
        }
    }

    #[test]
    fn general_solver_choice_agrees_with_auto() {
        let db = polling_database();
        let q = q1();
        let auto = Engine::new(EvalConfig::exact())
            .session_probabilities(&db, &q)
            .unwrap();
        let config = EvalConfig {
            solver: SolverChoice::GeneralExact,
            ..EvalConfig::default()
        };
        let general = Engine::new(config.clone())
            .session_probabilities(&db, &q)
            .unwrap();
        for (a, b) in auto.iter().zip(&general) {
            assert!((a.1 - b.1).abs() < 1e-9);
        }
    }

    #[test]
    fn approximate_estimates_are_bit_identical_under_grouping_toggle() {
        // Seeds derive from work-unit content (not plan iteration order), so
        // disabling grouping must not change a single bit of the estimates.
        let db = polling_database();
        let q = q1();
        let config = EvalConfig::approximate(300);
        let grouped = Engine::new(config.clone())
            .session_probabilities(&db, &q)
            .unwrap();
        let ungrouped = Engine::new(config.clone().without_grouping())
            .session_probabilities(&db, &q)
            .unwrap();
        assert_eq!(grouped, ungrouped);
    }

    #[test]
    fn approximate_evaluation_is_close_to_exact() {
        let db = polling_database();
        let q = q1();
        let exact = Engine::new(EvalConfig::exact())
            .evaluate_boolean(&db, &q)
            .unwrap();
        let approx = Engine::new(EvalConfig::approximate(1_500))
            .evaluate_boolean(&db, &q)
            .unwrap();
        assert!(
            (exact - approx).abs() < 0.05,
            "exact {exact}, approximate {approx}"
        );
    }

    #[test]
    fn non_itemwise_query_evaluates() {
        // Q2 of the paper (Democrat preferred to Republican with same edu).
        let db = polling_database();
        let q = ConjunctiveQuery::new("Q2")
            .prefer(
                "Polls",
                vec![T::any(), T::any()],
                T::var("c1"),
                T::var("c2"),
            )
            .atom(
                "Candidates",
                vec![
                    T::var("c1"),
                    T::val("D"),
                    T::any(),
                    T::any(),
                    T::var("e"),
                    T::any(),
                ],
            )
            .atom(
                "Candidates",
                vec![
                    T::var("c2"),
                    T::val("R"),
                    T::any(),
                    T::any(),
                    T::var("e"),
                    T::any(),
                ],
            );
        let per_session = Engine::new(EvalConfig::exact())
            .session_probabilities(&db, &q)
            .unwrap();
        assert_eq!(per_session.len(), 3);
        for &(sidx, p) in &per_session {
            let expected = brute_session_probability(&db, &q, sidx);
            assert!((p - expected).abs() < 1e-9, "session {sidx}");
            assert!(p > 0.0 && p < 1.0);
        }
        // Ann and Dave share the same centre ranking (Clinton first), so the
        // query is very likely for them and less likely for Bob.
        let p_of = |i: usize| per_session.iter().find(|&&(s, _)| s == i).unwrap().1;
        assert!(p_of(0) > p_of(1));
        assert!(p_of(2) > p_of(1));
    }

    #[test]
    fn session_filter_with_comparison() {
        let db = polling_database();
        let q = ConjunctiveQuery::new("dated")
            .prefer(
                "Polls",
                vec![T::any(), T::var("d")],
                T::val("Clinton"),
                T::val("Trump"),
            )
            .compare("d", CompareOp::Eq, "6/5");
        let per_session = Engine::new(EvalConfig::exact())
            .session_probabilities(&db, &q)
            .unwrap();
        assert_eq!(per_session.len(), 1);
        assert_eq!(per_session[0].0, 2);
    }
}
