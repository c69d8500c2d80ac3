//! Most-Probable-Session queries (Section 3.2): the `k` sessions most likely
//! to satisfy a query, with the upper-bound-driven top-k optimization.
//!
//! Both strategies run on the evaluation engine: the naive strategy solves
//! all full unions as one parallel wave of work units, and the upper-bound
//! strategy parallelizes its bounding stage the same way before walking the
//! bounded sessions serially (the early-termination loop is inherently
//! sequential). Full-union marginals go through the engine's cache, so
//! repeated top-k queries — or a top-k after a Boolean query — reuse
//! earlier work.

use crate::engine::UnitRequest;
use crate::eval::ErrorBudget;
use crate::session::PreferenceRelation;
use crate::translate::SessionQuery;
use crate::Result;
use ppd_patterns::{relaxed_upper_bound_union, Labeling, PatternUnion};
use ppd_rim::Item;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// Evaluation strategy for `top(Q, k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopKStrategy {
    /// Compute the exact probability of every session, then sort ("full" in
    /// Figure 8).
    Naive,
    /// First compute cheap upper bounds from a relaxed union that keeps only
    /// the hardest `edges_per_pattern` transitive-closure edges per pattern
    /// ("1-edge" / "2-edge" in Figure 8), then evaluate sessions exactly in
    /// decreasing upper-bound order until the answer is certain.
    UpperBound {
        /// Number of edges kept per pattern when building the relaxation.
        edges_per_pattern: usize,
    },
}

/// One entry of a top-k answer.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionScore {
    /// Index of the session within its p-relation.
    pub session_index: usize,
    /// Exact (or approximate, per the configuration) probability that the
    /// session satisfies the query.
    pub probability: f64,
}

/// Bookkeeping about a top-k evaluation, used by the Figure 8 harness.
///
/// Both counters tally the sessions each strategy *requested* an answer for
/// — the quantity the paper's strategy comparison is about. Since evaluation
/// runs on the [`Engine`](crate::engine::Engine), a request may be served
/// from the engine's marginal cache (e.g. on a warm engine, or when sessions
/// share a work unit) without invoking a solver; use
/// [`Engine::cache_stats`](crate::engine::Engine::cache_stats) to see how
/// much inference actually ran.
#[derive(Debug, Clone, Default)]
pub struct TopKStats {
    /// Number of sessions whose probability was requested with the full
    /// (non-relaxed) union.
    pub exact_evaluations: usize,
    /// Number of sessions whose upper bound was requested.
    pub upper_bounds_computed: usize,
}

/// What a planned `top(Q, k)` carries from its first stage (every session's
/// bound — or, under [`TopKStrategy::Naive`], its probability — planned into
/// a wave like any query's requests) to its second ([`SecondStage`]).
pub(crate) struct TopKTail<'db> {
    pub(crate) k: usize,
    pub(crate) strategy: TopKStrategy,
    pub(crate) prel: &'db PreferenceRelation,
    pub(crate) labeling: Arc<Labeling>,
    /// The query's error budget, which the second stage solves under too.
    pub(crate) budget: Option<ErrorBudget>,
}

/// The relaxed upper-bound unions of a grounded query and, per session in
/// plan order, which of them bounds it. The relaxation reads the union and,
/// to rank a member's transitive-closure edges by `ease`, the centre ranking
/// — so sessions sharing both share one relaxed union. A union none of whose
/// members has a second edge leaves `ease` nothing to rank: every member
/// keeps its one edge whatever σ says, the relaxed union is the same for
/// every centre ranking, and it is built (and later resolved to its
/// [`UnitKey`](crate::engine::UnitKey) share) once for all the sessions that
/// carry the union. Two kept edges are already too many for that: `ease`
/// decides which comes first, and with it the node order of the relaxed
/// pattern, which the unit's key and the solver's arithmetic both read.
pub(crate) fn relax(
    prel: &PreferenceRelation,
    labeling: &Labeling,
    sessions: &[SessionQuery],
    edges_per_pattern: usize,
) -> Result<(Vec<PatternUnion>, Vec<usize>)> {
    let mut relaxed: Vec<PatternUnion> = Vec::new();
    // `None` for the centre ranking of a union whose relaxation ignores it.
    let mut relaxed_of: HashMap<(*const PatternUnion, Option<&[Item]>), usize> = HashMap::new();
    let mut of_session = Vec::with_capacity(sessions.len());
    for squery in sessions {
        let sigma = prel.sessions()[squery.session_index].model().sigma();
        let key = (
            Arc::as_ptr(&squery.union),
            relaxation_reads_sigma(&squery.union).then_some(sigma.items()),
        );
        let index = match relaxed_of.entry(key) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(new) => {
                relaxed.push(relaxed_upper_bound_union(
                    &squery.union,
                    sigma,
                    labeling,
                    edges_per_pattern,
                )?);
                *new.insert(relaxed.len() - 1)
            }
        };
        of_session.push(index);
    }
    Ok((relaxed, of_session))
}

/// Whether [`relaxed_upper_bound_union`] of `union` depends on the centre
/// ranking it is given: it does as soon as one member has two edges to rank.
fn relaxation_reads_sigma(union: &PatternUnion) -> bool {
    #[cfg(test)]
    if tests::KEY_EVERY_UNION_BY_SIGMA.get() {
        return true;
    }
    union.patterns().iter().any(|g| g.num_edges() > 1)
}

/// The second stage of a `top(Q, k)`: from the first stage's per-session
/// values to the ranked answer. Under [`TopKStrategy::Naive`] the values
/// *are* the probabilities and there is nothing left to do; under
/// [`TopKStrategy::UpperBound`] they are bounds, and sessions are evaluated
/// exactly in decreasing bound order until the answer is certain —
/// inherently serial, each evaluation may prove the answer complete.
///
/// The walk is resumable: [`SecondStage::advance`] stops where its `solve`
/// has no value to give, so the plan stage can take it as far as the cache
/// reaches and the execute stage pick it up from there.
pub(crate) struct SecondStage {
    /// The sessions with their bounds, by decreasing bound — the walk's
    /// order; empty under [`TopKStrategy::Naive`].
    bounded: Vec<(usize, f64)>,
    /// Sessions whose probability is in so far, in evaluation order.
    scores: Vec<SessionScore>,
    upper_bounds_computed: usize,
}

impl SecondStage {
    /// Opens the second stage on the first stage's values, in plan order.
    pub(crate) fn begin(
        tail: &TopKTail<'_>,
        sessions: &[SessionQuery],
        first_stage: Vec<f64>,
    ) -> Self {
        let by_session = sessions.iter().map(|s| s.session_index).zip(first_stage);
        match tail.strategy {
            TopKStrategy::Naive => Self {
                bounded: Vec::new(),
                scores: by_session
                    .map(|(session_index, probability)| SessionScore {
                        session_index,
                        probability,
                    })
                    .collect(),
                upper_bounds_computed: 0,
            },
            TopKStrategy::UpperBound { .. } => {
                let mut bounded: Vec<(usize, f64)> = by_session.collect();
                bounded.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
                Self {
                    bounded,
                    scores: Vec::new(),
                    upper_bounds_computed: sessions.len(),
                }
            }
        }
    }

    /// Walks on from where the last call stopped. `solve` answers a
    /// session's full-union request, or `None` to stop the walk there.
    /// Returns whether the answer is now certain.
    pub(crate) fn advance(
        &mut self,
        tail: &TopKTail<'_>,
        sessions: &[SessionQuery],
        mut solve: impl FnMut(UnitRequest<'_, '_>) -> Result<Option<f64>>,
    ) -> Result<bool> {
        let union_of: HashMap<usize, &PatternUnion> = sessions
            .iter()
            .map(|s| (s.session_index, &*s.union))
            .collect();
        evaluate_in_bound_order(&self.bounded, tail.k, &mut self.scores, |session_index| {
            solve(UnitRequest {
                session: &tail.prel.sessions()[session_index],
                labeling: &tail.labeling,
                union: union_of
                    .get(&session_index)
                    .expect("bounded sessions come from the plan"),
            })
        })
    }

    /// The ranked answer of a walk [`SecondStage::advance`] reported certain.
    pub(crate) fn finish(mut self, k: usize) -> (Vec<SessionScore>, TopKStats) {
        let stats = TopKStats {
            exact_evaluations: self.scores.len(),
            upper_bounds_computed: self.upper_bounds_computed,
        };
        self.scores.sort_by(|a, b| {
            b.probability
                .partial_cmp(&a.probability)
                .unwrap()
                .then(a.session_index.cmp(&b.session_index))
        });
        self.scores.truncate(k);
        (self.scores, stats)
    }
}

/// The upper-bound strategy's early-terminating walk: solves sessions in the
/// order of `bounded` (sorted by decreasing upper bound) until the k-th best
/// exact probability found so far dominates every remaining upper bound.
///
/// The termination test is a **strict** `kth >= next_ub`. The bounds are
/// exact marginals of relaxed unions, so no epsilon slack is justified: the
/// sound-skip argument is `p ≤ ub ≤ kth` for every unevaluated session, and
/// subtracting a tolerance from `next_ub` (as this code once did with
/// `1e-12`) breaks it — a session whose true probability lies within the
/// tolerance *above* the current k-th score gets skipped, silently violating
/// the paper's upper-bound guarantee (Figure 8) and diverging from
/// [`TopKStrategy::Naive`]. Sessions whose probability ties the k-th score
/// exactly may still be skipped (`p ≤ ub = kth` cannot *beat* the k-th
/// score): the returned probabilities are always a valid top-k, but among
/// sessions tied at exactly the k-th score the chosen indices may differ
/// from Naive's index-ascending tie-break.
///
/// `scores` holds the sessions evaluated so far, in evaluation order — one
/// per walked entry of `bounded`, so its length is where the walk stands and
/// the number of exact evaluations performed. The walk resumes from there
/// and stops early, returning `false`, at the first session `solve` answers
/// `None` for; `true` means the answer is certain (the caller sorts and
/// truncates).
fn evaluate_in_bound_order(
    bounded: &[(usize, f64)],
    k: usize,
    scores: &mut Vec<SessionScore>,
    mut solve: impl FnMut(usize) -> Result<Option<f64>>,
) -> Result<bool> {
    if k == 0 {
        // Nothing can enter an empty top-k; Naive answers it with an empty
        // truncation, and so must the walk (indexing `exact_so_far[k - 1]`
        // would underflow).
        return Ok(true);
    }
    while let Some(&(session_index, _ub)) = bounded.get(scores.len()) {
        let Some(p) = solve(session_index)? else {
            return Ok(false);
        };
        scores.push(SessionScore {
            session_index,
            probability: p,
        });
        if scores.len() >= k {
            let mut exact_so_far: Vec<f64> = scores.iter().map(|s| s.probability).collect();
            exact_so_far.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let kth = exact_so_far[k - 1];
            let next_ub = bounded.get(scores.len()).map(|&(_, ub)| ub).unwrap_or(0.0);
            if kth >= next_ub {
                break;
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::eval::EvalConfig;
    use crate::query::{ConjunctiveQuery, Term as T};
    use crate::testdb::{polling_database, polls_24_by_8};
    use crate::translate::ground_query;

    fn query_f_over_m() -> ConjunctiveQuery {
        ConjunctiveQuery::new("topk-f-over-m")
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

    thread_local! {
        /// The oracle of the relaxation tests: while set, [`relax`] on this
        /// thread keys every relaxed union by its centre ranking, as it did
        /// before it knew which relaxations ignore it.
        pub(super) static KEY_EVERY_UNION_BY_SIGMA: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

    /// Runs `run` with [`relax`] keyed per centre ranking throughout.
    fn keyed_by_sigma<T>(run: impl FnOnce() -> T) -> T {
        KEY_EVERY_UNION_BY_SIGMA.set(true);
        let out = run();
        KEY_EVERY_UNION_BY_SIGMA.set(false);
        out
    }

    fn prefers(query: ConjunctiveQuery, better: &str, worse: &str) -> ConjunctiveQuery {
        query.prefer(
            "Polls",
            vec![T::any(), T::any()],
            T::val(better),
            T::val(worse),
        )
    }

    /// Q1 (one edge a member), an item chain (three closure edges) and an
    /// item vee (two).
    fn relaxation_queries() -> [ConjunctiveQuery; 3] {
        let chain = ConjunctiveQuery::new("chain");
        let vee = ConjunctiveQuery::new("vee");
        [
            query_f_over_m(),
            prefers(prefers(chain, "cand0", "cand1"), "cand1", "cand2"),
            prefers(prefers(vee, "cand0", "cand1"), "cand0", "cand2"),
        ]
    }

    #[test]
    fn a_relaxation_that_ignores_the_centre_ranking_is_built_once() {
        let db = polls_24_by_8();
        let [q1, chain, vee] = relaxation_queries();
        let relaxed_unions = |query: &ConjunctiveQuery, edges_per_pattern: usize| {
            let grounded = ground_query(&db, query).unwrap();
            let prel = db.preference_relation(&grounded.prelation).unwrap();
            let sigma_of = |s: &SessionQuery| prel.sessions()[s.session_index].model().sigma();
            let distinct_sigmas: std::collections::HashSet<&[Item]> = grounded
                .sessions
                .iter()
                .map(|s| sigma_of(s).items())
                .collect();
            assert_eq!(grounded.sessions.len(), 24);
            let relax = || {
                relax(
                    prel,
                    &grounded.labeling,
                    &grounded.sessions,
                    edges_per_pattern,
                )
            };
            let (relaxed, of_session) = relax().unwrap();
            // Session by session, the union `relax` hands out is the one the
            // session's own centre ranking gives — under either keying.
            let (per_sigma, per_sigma_of_session) = keyed_by_sigma(relax).unwrap();
            assert_eq!(per_sigma.len(), distinct_sigmas.len());
            for (i, squery) in grounded.sessions.iter().enumerate() {
                let own = relaxed_upper_bound_union(
                    &squery.union,
                    sigma_of(squery),
                    &grounded.labeling,
                    edges_per_pattern,
                )
                .unwrap();
                assert_eq!(relaxed[of_session[i]], own, "session {i}");
                assert_eq!(per_sigma[per_sigma_of_session[i]], own, "session {i}");
            }
            (relaxed, distinct_sigmas.len())
        };
        for edges_per_pattern in [1, 2] {
            let (relaxed, _) = relaxed_unions(&q1, edges_per_pattern);
            assert_eq!(relaxed.len(), 1, "Q1 keeps its one edge a member");
            for query in [&chain, &vee] {
                let (relaxed, sigmas) = relaxed_unions(query, edges_per_pattern);
                assert_eq!(relaxed.len(), sigmas, "{}", query.name());
            }
        }
        // Why two kept edges are one too many to share: the vee keeps both
        // of its edges under a budget of 2, in an order `ease` reads off σ.
        let (relaxed, _) = relaxed_unions(&vee, 2);
        assert!(relaxed.iter().all(|u| u.patterns()[0].num_edges() == 2));
        assert!(relaxed.iter().any(|u| u != &relaxed[0]));
    }

    #[test]
    fn top_k_is_the_per_sigma_relaxation_s_to_the_bit_and_to_the_counter() {
        let db = polls_24_by_8();
        let answer = |query: &ConjunctiveQuery, edges_per_pattern: usize| {
            let engine = Engine::new(EvalConfig::exact());
            let strategy = TopKStrategy::UpperBound { edges_per_pattern };
            let (scores, stats) = engine
                .most_probable_sessions(&db, query, 5, strategy)
                .unwrap();
            let scores: Vec<(usize, u64)> = scores
                .iter()
                .map(|s| (s.session_index, s.probability.to_bits()))
                .collect();
            let cache = engine.cache_stats();
            (
                scores,
                (stats.exact_evaluations, stats.upper_bounds_computed),
                (cache.marginal_hits, cache.marginal_misses),
            )
        };
        for query in &relaxation_queries() {
            for edges_per_pattern in [1, 2] {
                let got = answer(query, edges_per_pattern);
                let expected = keyed_by_sigma(|| answer(query, edges_per_pattern));
                assert_eq!(got, expected, "{} under {edges_per_pattern}", query.name());
                assert_eq!(got.0.len(), 5);
                assert_eq!(got.1 .1, 24);
            }
        }
    }

    #[test]
    fn naive_and_upper_bound_strategies_agree() {
        let db = polling_database();
        let q = query_f_over_m();
        for k in 1..=3 {
            let (naive, _) = Engine::new(EvalConfig::exact())
                .most_probable_sessions(&db, &q, k, TopKStrategy::Naive)
                .unwrap();
            for edges in 1..=2 {
                let (optimized, stats) = Engine::new(EvalConfig::exact())
                    .most_probable_sessions(
                        &db,
                        &q,
                        k,
                        TopKStrategy::UpperBound {
                            edges_per_pattern: edges,
                        },
                    )
                    .unwrap();
                assert_eq!(naive.len(), optimized.len());
                for (a, b) in naive.iter().zip(&optimized) {
                    assert_eq!(a.session_index, b.session_index);
                    assert!((a.probability - b.probability).abs() < 1e-9);
                }
                assert!(stats.upper_bounds_computed == 3);
                assert!(stats.exact_evaluations >= k);
            }
        }
    }

    #[test]
    fn upper_bound_strategy_can_skip_exact_evaluations() {
        let db = polling_database();
        // Ann and Dave strongly prefer Clinton; Bob does not. With k = 1 the
        // optimizer should not need to evaluate every session exactly.
        let q = ConjunctiveQuery::new("clinton-first")
            .prefer(
                "Polls",
                vec![T::any(), T::any()],
                T::val("Clinton"),
                T::val("Trump"),
            )
            .prefer(
                "Polls",
                vec![T::any(), T::any()],
                T::val("Clinton"),
                T::val("Rubio"),
            );
        let (top, stats) = Engine::new(EvalConfig::exact())
            .most_probable_sessions(
                &db,
                &q,
                1,
                TopKStrategy::UpperBound {
                    edges_per_pattern: 2,
                },
            )
            .unwrap();
        assert_eq!(top.len(), 1);
        assert!(top[0].session_index == 0 || top[0].session_index == 2);
        assert!(stats.exact_evaluations <= 3);
        let (naive, naive_stats) = Engine::new(EvalConfig::exact())
            .most_probable_sessions(&db, &q, 1, TopKStrategy::Naive)
            .unwrap();
        assert_eq!(naive_stats.exact_evaluations, 3);
        assert!((naive[0].probability - top[0].probability).abs() < 1e-9);
    }

    #[test]
    fn termination_is_strict_on_near_ties() {
        // Session 0 carries a loose bound (0.5) and is walked first; its
        // exact probability lands 1e-13 *below* session 1's tight bound of
        // 0.4. The historical `kth >= next_ub - 1e-12` test terminated here
        // and returned session 0 — a different set than Naive, whose winner
        // is session 1 at exactly 0.4. The strict test must keep walking.
        let bounded = vec![(0usize, 0.5), (1usize, 0.4)];
        let mut evaluated = Vec::new();
        let mut scores = Vec::new();
        let certain = evaluate_in_bound_order(&bounded, 1, &mut scores, |session_index| {
            evaluated.push(session_index);
            Ok(Some(match session_index {
                0 => 0.4 - 1e-13,
                1 => 0.4,
                _ => unreachable!("only two sessions are bounded"),
            }))
        })
        .unwrap();
        assert!(certain);
        assert_eq!(
            evaluated,
            vec![0, 1],
            "a bound within 1e-12 above the k-th score must still be walked"
        );
        let best = scores
            .iter()
            .max_by(|a, b| a.probability.partial_cmp(&b.probability).unwrap())
            .unwrap();
        assert_eq!(best.session_index, 1);
        assert_eq!(best.probability, 0.4);
    }

    #[test]
    fn termination_stops_on_exact_tie_with_next_bound() {
        // Once the k-th score *equals* the next bound, no unevaluated
        // session can beat it (p ≤ ub = kth), so the walk may stop — this is
        // the skipping power the optimizer exists for.
        let bounded = vec![(0usize, 0.5), (1usize, 0.4), (2usize, 0.4)];
        let mut evaluated = Vec::new();
        let mut scores = Vec::new();
        let certain = evaluate_in_bound_order(&bounded, 1, &mut scores, |session_index| {
            evaluated.push(session_index);
            Ok(Some(0.4))
        })
        .unwrap();
        assert!(certain);
        assert_eq!(evaluated, vec![0]);
        assert_eq!(scores.len(), 1);
    }

    #[test]
    fn a_walk_stopped_for_want_of_a_value_resumes_where_it_stood() {
        // Session 0's probability is at hand, session 1's is not: the walk
        // stops there undecided, and picks up at session 1 — not at the top
        // — once told to solve.
        let bounded = vec![(0usize, 0.9), (1usize, 0.8), (2usize, 0.1)];
        let mut scores = Vec::new();
        let certain = evaluate_in_bound_order(&bounded, 1, &mut scores, |session_index| {
            Ok((session_index == 0).then_some(0.3))
        })
        .unwrap();
        assert!(!certain);
        assert_eq!(scores.len(), 1);
        let mut evaluated = Vec::new();
        let certain = evaluate_in_bound_order(&bounded, 1, &mut scores, |session_index| {
            evaluated.push(session_index);
            Ok(Some(0.5))
        })
        .unwrap();
        assert!(certain);
        assert_eq!(evaluated, vec![1], "0.5 dominates session 2's bound of 0.1");
        assert_eq!(scores.len(), 2);
    }

    #[test]
    fn engineered_exact_ties_agree_with_naive() {
        // Ann and Dave share a centre ranking; with k spanning a tie the
        // upper-bound strategy must return exactly the sessions Naive does
        // (probability ties break towards the lower session index in both).
        let db = polling_database();
        let q = ConjunctiveQuery::new("clinton-first").prefer(
            "Polls",
            vec![T::any(), T::any()],
            T::val("Clinton"),
            T::val("Trump"),
        );
        for k in 1..=3 {
            let (naive, _) = Engine::new(EvalConfig::exact())
                .most_probable_sessions(&db, &q, k, TopKStrategy::Naive)
                .unwrap();
            for edges in 1..=2 {
                let (optimized, _) = Engine::new(EvalConfig::exact())
                    .most_probable_sessions(
                        &db,
                        &q,
                        k,
                        TopKStrategy::UpperBound {
                            edges_per_pattern: edges,
                        },
                    )
                    .unwrap();
                let naive_set: Vec<usize> = naive.iter().map(|s| s.session_index).collect();
                let optimized_set: Vec<usize> = optimized.iter().map(|s| s.session_index).collect();
                assert_eq!(naive_set, optimized_set, "k={k} edges={edges}");
            }
        }
    }

    #[test]
    fn k_of_zero_is_empty_for_both_strategies() {
        let db = polling_database();
        let q = query_f_over_m();
        let (naive, _) = Engine::new(EvalConfig::exact())
            .most_probable_sessions(&db, &q, 0, TopKStrategy::Naive)
            .unwrap();
        assert!(naive.is_empty());
        let (bounded, _) = Engine::new(EvalConfig::exact())
            .most_probable_sessions(
                &db,
                &q,
                0,
                TopKStrategy::UpperBound {
                    edges_per_pattern: 1,
                },
            )
            .unwrap();
        assert!(bounded.is_empty());
    }

    #[test]
    fn k_larger_than_session_count_returns_everything() {
        let db = polling_database();
        let q = query_f_over_m();
        let (top, _) = Engine::new(EvalConfig::exact())
            .most_probable_sessions(&db, &q, 10, TopKStrategy::Naive)
            .unwrap();
        assert_eq!(top.len(), 3);
        // Scores are sorted in decreasing order.
        for w in top.windows(2) {
            assert!(w[0].probability >= w[1].probability);
        }
    }
}
