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

use crate::database::PpdDatabase;
use crate::engine::{Engine, UnitRequest};
use crate::eval::EvalConfig;
use crate::query::ConjunctiveQuery;
use crate::translate::ground_query;
use crate::{PpdError, Result};
use ppd_patterns::{relaxed_upper_bound_union, PatternUnion};
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
/// runs on the [`Engine`], a request may be served from the engine's
/// marginal cache (e.g. on a warm engine, or when sessions share a work
/// unit) without invoking a solver; use [`Engine::cache_stats`] to see how
/// much inference actually ran.
#[derive(Debug, Clone, Default)]
pub struct TopKStats {
    /// Number of sessions whose probability was requested with the full
    /// (non-relaxed) union.
    pub exact_evaluations: usize,
    /// Number of sessions whose upper bound was requested.
    pub upper_bounds_computed: usize,
}

/// Evaluates `top(Q, k)`: the `k` sessions with the highest probability of
/// satisfying `Q`, together with evaluation statistics.
///
/// Constructs a transient [`Engine`] per call; hold an [`Engine`] and use
/// [`Engine::most_probable_sessions`] to reuse caches across queries.
pub fn most_probable_sessions(
    db: &PpdDatabase,
    query: &ConjunctiveQuery,
    k: usize,
    strategy: TopKStrategy,
    config: &EvalConfig,
) -> Result<(Vec<SessionScore>, TopKStats)> {
    Engine::new(config.clone()).most_probable_sessions(db, query, k, strategy)
}

/// The engine-backed top-k evaluation both [`most_probable_sessions`] and
/// [`Engine::most_probable_sessions`] delegate to.
pub(crate) fn most_probable_with_engine(
    engine: &Engine,
    db: &PpdDatabase,
    query: &ConjunctiveQuery,
    k: usize,
    strategy: TopKStrategy,
) -> Result<(Vec<SessionScore>, TopKStats)> {
    engine.note_planned_version(db);
    let plan = ground_query(db, query)?;
    let prel = db
        .preference_relation(&plan.prelation)
        .ok_or_else(|| PpdError::UnknownName(plan.prelation.clone()))?;
    let mut stats = TopKStats::default();

    fn request_for<'a>(
        prel: &'a crate::session::PreferenceRelation,
        labeling: &'a ppd_patterns::Labeling,
        session_index: usize,
        union: &'a PatternUnion,
    ) -> UnitRequest<'a> {
        UnitRequest {
            session: &prel.sessions()[session_index],
            labeling,
            union,
        }
    }

    let mut scores: Vec<SessionScore>;
    match strategy {
        TopKStrategy::Naive => {
            // One parallel wave over every session's full union.
            let requests: Vec<UnitRequest<'_>> = plan
                .sessions
                .iter()
                .map(|s| request_for(prel, &plan.labeling, s.session_index, &s.union))
                .collect();
            let probabilities = engine.solve_requests(&requests, false)?;
            stats.exact_evaluations += requests.len();
            scores = plan
                .sessions
                .iter()
                .zip(probabilities)
                .map(|(squery, probability)| SessionScore {
                    session_index: squery.session_index,
                    probability,
                })
                .collect();
        }
        TopKStrategy::UpperBound { edges_per_pattern } => {
            // Stage 1: cheap upper bounds from the relaxed unions, as one
            // parallel wave. Bounds must be sound, so they are always solved
            // exactly regardless of the engine's solver choice.
            // The relaxation reads the union and the centre ranking only,
            // so sessions sharing both share one relaxed union.
            let mut relaxed: Vec<PatternUnion> = Vec::new();
            let mut relaxed_of: HashMap<(*const PatternUnion, &[Item]), usize> = HashMap::new();
            let mut relaxed_index = Vec::with_capacity(plan.sessions.len());
            for squery in &plan.sessions {
                let sigma = prel.sessions()[squery.session_index].model().sigma();
                let index = match relaxed_of.entry((Arc::as_ptr(&squery.union), sigma.items())) {
                    Entry::Occupied(known) => *known.get(),
                    Entry::Vacant(new) => {
                        relaxed.push(relaxed_upper_bound_union(
                            &squery.union,
                            sigma,
                            &plan.labeling,
                            edges_per_pattern,
                        )?);
                        *new.insert(relaxed.len() - 1)
                    }
                };
                relaxed_index.push(index);
            }
            let ub_requests: Vec<UnitRequest<'_>> = plan
                .sessions
                .iter()
                .zip(relaxed_index)
                .map(|(squery, index)| {
                    request_for(prel, &plan.labeling, squery.session_index, &relaxed[index])
                })
                .collect();
            let upper_bounds = engine.solve_requests(&ub_requests, true)?;
            stats.upper_bounds_computed += upper_bounds.len();
            let mut bounded: Vec<(usize, f64)> = plan
                .sessions
                .iter()
                .map(|s| s.session_index)
                .zip(upper_bounds)
                .collect();
            // Stage 2: exact evaluation in decreasing upper-bound order.
            // Inherently serial — each solve may prove the answer complete —
            // but every solve still flows through the engine's unit cache.
            bounded.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            let union_of: HashMap<usize, &PatternUnion> = plan
                .sessions
                .iter()
                .map(|s| (s.session_index, &*s.union))
                .collect();
            scores = evaluate_in_bound_order(&bounded, k, |session_index| {
                let union = union_of
                    .get(&session_index)
                    .expect("bounded sessions come from the plan");
                let request = request_for(prel, &plan.labeling, session_index, union);
                Ok(engine.solve_requests(&[request], false)?[0])
            })?;
            stats.exact_evaluations += scores.len();
        }
    }
    scores.sort_by(|a, b| {
        b.probability
            .partial_cmp(&a.probability)
            .unwrap()
            .then(a.session_index.cmp(&b.session_index))
    });
    scores.truncate(k);
    Ok((scores, stats))
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
/// Returns the evaluated scores in evaluation order (the caller sorts and
/// truncates); its length is the number of exact evaluations performed.
fn evaluate_in_bound_order(
    bounded: &[(usize, f64)],
    k: usize,
    mut solve: impl FnMut(usize) -> Result<f64>,
) -> Result<Vec<SessionScore>> {
    if k == 0 {
        // Nothing can enter an empty top-k; Naive answers it with an empty
        // truncation, and so must the walk (indexing `exact_so_far[k - 1]`
        // would underflow).
        return Ok(Vec::new());
    }
    let mut scores: Vec<SessionScore> = Vec::new();
    for (pos, &(session_index, _ub)) in bounded.iter().enumerate() {
        let p = solve(session_index)?;
        scores.push(SessionScore {
            session_index,
            probability: p,
        });
        if scores.len() >= k {
            let mut exact_so_far: Vec<f64> = scores.iter().map(|s| s.probability).collect();
            exact_so_far.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let kth = exact_so_far[k - 1];
            let next_ub = bounded.get(pos + 1).map(|&(_, ub)| ub).unwrap_or(0.0);
            if kth >= next_ub {
                break;
            }
        }
    }
    Ok(scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Term as T;
    use crate::testdb::polling_database;

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

    #[test]
    fn naive_and_upper_bound_strategies_agree() {
        let db = polling_database();
        let q = query_f_over_m();
        for k in 1..=3 {
            let (naive, _) =
                most_probable_sessions(&db, &q, k, TopKStrategy::Naive, &EvalConfig::exact())
                    .unwrap();
            for edges in 1..=2 {
                let (optimized, stats) = most_probable_sessions(
                    &db,
                    &q,
                    k,
                    TopKStrategy::UpperBound {
                        edges_per_pattern: edges,
                    },
                    &EvalConfig::exact(),
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
        let (top, stats) = most_probable_sessions(
            &db,
            &q,
            1,
            TopKStrategy::UpperBound {
                edges_per_pattern: 2,
            },
            &EvalConfig::exact(),
        )
        .unwrap();
        assert_eq!(top.len(), 1);
        assert!(top[0].session_index == 0 || top[0].session_index == 2);
        assert!(stats.exact_evaluations <= 3);
        let (naive, naive_stats) =
            most_probable_sessions(&db, &q, 1, TopKStrategy::Naive, &EvalConfig::exact()).unwrap();
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
        let scores = evaluate_in_bound_order(&bounded, 1, |session_index| {
            evaluated.push(session_index);
            Ok(match session_index {
                0 => 0.4 - 1e-13,
                1 => 0.4,
                _ => unreachable!("only two sessions are bounded"),
            })
        })
        .unwrap();
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
        let scores = evaluate_in_bound_order(&bounded, 1, |session_index| {
            evaluated.push(session_index);
            Ok(0.4)
        })
        .unwrap();
        assert_eq!(evaluated, vec![0]);
        assert_eq!(scores.len(), 1);
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
            let (naive, _) =
                most_probable_sessions(&db, &q, k, TopKStrategy::Naive, &EvalConfig::exact())
                    .unwrap();
            for edges in 1..=2 {
                let (optimized, _) = most_probable_sessions(
                    &db,
                    &q,
                    k,
                    TopKStrategy::UpperBound {
                        edges_per_pattern: edges,
                    },
                    &EvalConfig::exact(),
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
        let (naive, _) =
            most_probable_sessions(&db, &q, 0, TopKStrategy::Naive, &EvalConfig::exact()).unwrap();
        assert!(naive.is_empty());
        let (bounded, _) = most_probable_sessions(
            &db,
            &q,
            0,
            TopKStrategy::UpperBound {
                edges_per_pattern: 1,
            },
            &EvalConfig::exact(),
        )
        .unwrap();
        assert!(bounded.is_empty());
    }

    #[test]
    fn k_larger_than_session_count_returns_everything() {
        let db = polling_database();
        let q = query_f_over_m();
        let (top, _) =
            most_probable_sessions(&db, &q, 10, TopKStrategy::Naive, &EvalConfig::exact()).unwrap();
        assert_eq!(top.len(), 3);
        // Scores are sorted in decreasing order.
        for w in top.windows(2) {
            assert!(w[0].probability >= w[1].probability);
        }
    }
}
