//! Greedy search for the modes ("modals") of a Mallows posterior conditioned
//! on a sub-ranking — Algorithms 5 and 6 of the paper.

use crate::{Ranking, SubRanking};

/// Distance `dist(ψ, σ)` between a sub-ranking and a reference ranking, used
/// while greedily growing sub-rankings in Algorithms 5 and 6: the number of
/// item pairs within `ψ` whose order disagrees with `σ`.
fn subranking_distance_to_center(psi: &SubRanking, sigma: &Ranking) -> usize {
    psi.discordant_pairs_with(sigma)
}

/// The `σ`-rank of each item of a sub-ranking, in its order; `None` for an
/// item `σ` does not rank, which no distance counts.
fn center_ranks(psi: &SubRanking, sigma: &Ranking) -> Vec<Option<usize>> {
    psi.items()
        .iter()
        .map(|&item| sigma.position_of(item))
        .collect()
}

/// For every position `0..=ranks.len()` at which the item of `σ`-rank `r`
/// could join a sub-ranking whose items have the `σ`-ranks `ranks`: the
/// number of discordant pairs the insertion adds — items ahead of it that
/// `σ` ranks after it, plus items behind it that `σ` ranks before it. The
/// pairs among the items already there do not depend on the position, so
/// these costs order the insertions exactly as
/// [`subranking_distance_to_center`] of each result would.
fn insertion_costs(ranks: &[Option<usize>], r: usize) -> Vec<usize> {
    let behind = ranks.iter().flatten().filter(|&&rank| rank < r).count();
    let mut costs = Vec::with_capacity(ranks.len() + 1);
    costs.push(behind);
    let mut cost = behind;
    for rank in ranks {
        // Moving one position down puts this item ahead of the new one.
        match rank {
            Some(rank) if *rank < r => cost -= 1,
            Some(_) => cost += 1,
            None => {}
        }
        costs.push(cost);
    }
    costs
}

/// Algorithm 5 (`GreedyModals`): given a sub-ranking `ψ` and a Mallows centre
/// `σ`, greedily completes `ψ` into full rankings by inserting every missing
/// item of `σ` (in `σ` order) at all positions that minimise the distance to
/// `σ`, keeping every minimiser.
///
/// The completions approximate the modes of the Mallows posterior conditioned
/// on `ψ` — the rankings consistent with `ψ` that are closest to `σ`. The set
/// of minimisers can grow combinatorially, so the search is capped at `cap`
/// candidates (the paper keeps all of them; a cap of a few dozen preserves the
/// behaviour on the benchmark workloads and is configurable by callers).
pub fn greedy_modals(psi: &SubRanking, sigma: &Ranking, cap: usize) -> Vec<Ranking> {
    let cap = cap.max(1);
    let mut frontier: Vec<SubRanking> = vec![psi.clone()];
    for i in 0..sigma.len() {
        let item = sigma.item_at(i);
        if psi.contains(item) {
            continue;
        }
        let mut next: Vec<SubRanking> = Vec::new();
        for candidate in &frontier {
            let costs = insertion_costs(&center_ranks(candidate, sigma), i);
            let best = *costs.iter().min().expect("position 0 always exists");
            next.extend(
                (0..costs.len())
                    .filter(|&j| costs[j] == best)
                    .map(|j| candidate.with_inserted(item, j)),
            );
        }
        next.sort_by(|a, b| a.items().cmp(b.items()));
        next.dedup();
        if next.len() > cap {
            // Keep the candidates closest to σ so the surviving completions
            // remain the best modes found so far.
            next.sort_by_key(|s| subranking_distance_to_center(s, sigma));
            next.truncate(cap);
        }
        frontier = next;
    }
    frontier.into_iter().map(|s| s.to_ranking()).collect()
}

/// Algorithm 6 (`ApproximateDistance`): estimates the Kendall-tau distance
/// between the Mallows centre `σ` and the *closest* completion of the
/// sub-ranking `ψ`, by greedily inserting each missing item at one
/// distance-minimising position. (Finding the true closest completion is
/// NP-hard, per the paper's reference to Brandenburg et al.)
pub fn approximate_distance(psi: &SubRanking, sigma: &Ranking) -> usize {
    // The completion is only ever asked for its distance, so it is grown as
    // the σ-ranks of its items rather than as the items themselves.
    let mut ranks = center_ranks(psi, sigma);
    for i in 0..sigma.len() {
        if psi.contains(sigma.item_at(i)) {
            continue;
        }
        let costs = insertion_costs(&ranks, i);
        // The first of several equally cheap positions.
        let j = (0..costs.len())
            .min_by_key(|&j| costs[j])
            .expect("position 0 always exists");
        ranks.insert(j, Some(i));
    }
    let ranked: Vec<usize> = ranks.into_iter().flatten().collect();
    crate::kendall::inversions(&ranked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MallowsModel;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Algorithm 5 as it was first written: every candidate insertion is
    /// materialised and its distance to σ counted from scratch.
    fn greedy_modals_by_full_recount(
        psi: &SubRanking,
        sigma: &Ranking,
        cap: usize,
    ) -> Vec<Ranking> {
        let mut frontier = vec![psi.clone()];
        for i in 0..sigma.len() {
            let item = sigma.item_at(i);
            if psi.contains(item) {
                continue;
            }
            let mut next: Vec<SubRanking> = Vec::new();
            for candidate in &frontier {
                let insertions: Vec<SubRanking> = (0..=candidate.len())
                    .map(|j| candidate.insert_at(item, j).unwrap())
                    .collect();
                let best = insertions
                    .iter()
                    .map(|s| s.discordant_pairs_with(sigma))
                    .min()
                    .unwrap();
                next.extend(
                    insertions
                        .into_iter()
                        .filter(|s| s.discordant_pairs_with(sigma) == best),
                );
            }
            next.sort_by(|a, b| a.items().cmp(b.items()));
            next.dedup();
            if next.len() > cap {
                next.sort_by_key(|s| s.discordant_pairs_with(sigma));
                next.truncate(cap);
            }
            frontier = next;
        }
        frontier.into_iter().map(|s| s.to_ranking()).collect()
    }

    /// Algorithm 6 the same way; the first of several equally close
    /// insertions wins.
    fn approximate_distance_by_full_recount(psi: &SubRanking, sigma: &Ranking) -> usize {
        let mut tau = psi.clone();
        for i in 0..sigma.len() {
            let item = sigma.item_at(i);
            if tau.contains(item) {
                continue;
            }
            tau = (0..=tau.len())
                .map(|j| tau.insert_at(item, j).unwrap())
                .min_by_key(|s| s.discordant_pairs_with(sigma))
                .unwrap();
        }
        crate::kendall_tau(&tau.to_ranking(), sigma)
    }

    #[test]
    fn incremental_costs_choose_what_a_full_recount_chooses() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for case in 0..120 {
            let m = 2 + case % 7;
            // σ and ψ over items 0..m; every fourth ψ also ranks an item σ
            // has never heard of, which no distance may count.
            let mut items: Vec<crate::Item> = (0..m as crate::Item).collect();
            items.shuffle(&mut rng);
            let sigma = Ranking::new(items.clone()).unwrap();
            items.shuffle(&mut rng);
            items.truncate(rng.gen_range(0..=m));
            if case % 4 == 0 {
                items.insert(rng.gen_range(0..=items.len()), 99);
            }
            let psi = SubRanking::new(items).unwrap();
            assert_eq!(
                approximate_distance(&psi, &sigma),
                approximate_distance_by_full_recount(&psi, &sigma),
                "ψ = {psi}, σ = {sigma}"
            );
            for cap in [1, 3, 64] {
                assert_eq!(
                    greedy_modals(&psi, &sigma, cap),
                    greedy_modals_by_full_recount(&psi, &sigma, cap),
                    "ψ = {psi}, σ = {sigma}, cap = {cap}"
                );
            }
        }
    }

    #[test]
    fn empty_subranking_completes_to_center() {
        let sigma = Ranking::identity(5);
        let modals = greedy_modals(&SubRanking::empty(), &sigma, 16);
        assert_eq!(modals, vec![sigma.clone()]);
        assert_eq!(approximate_distance(&SubRanking::empty(), &sigma), 0);
    }

    #[test]
    fn example_5_2_finds_both_modals() {
        // Example 5.1/5.2 of the paper: ψ = ⟨σ3, σ1⟩ over σ = ⟨σ1, σ2, σ3⟩
        // has two modals ⟨σ3, σ1, σ2⟩ and ⟨σ2, σ3, σ1⟩.
        let sigma = Ranking::new(vec![1, 2, 3]).unwrap();
        let psi = SubRanking::new(vec![3, 1]).unwrap();
        let mut modals = greedy_modals(&psi, &sigma, 16);
        modals.sort_by(|a, b| a.items().cmp(b.items()));
        assert_eq!(modals.len(), 2);
        assert_eq!(modals[0].items(), &[2, 3, 1]);
        assert_eq!(modals[1].items(), &[3, 1, 2]);
    }

    #[test]
    fn modals_are_consistent_and_minimal_distance() {
        let sigma = Ranking::identity(6);
        let psi = SubRanking::new(vec![5, 2, 0]).unwrap();
        let modals = greedy_modals(&psi, &sigma, 64);
        assert!(!modals.is_empty());
        // Every modal must be consistent with ψ.
        for modal in &modals {
            assert!(psi.is_consistent(modal));
        }
        // The greedy distance estimate should match the modal distances.
        let est = approximate_distance(&psi, &sigma);
        let mal = MallowsModel::new(sigma.clone(), 0.5).unwrap();
        for modal in &modals {
            assert_eq!(crate::kendall_tau(mal.sigma(), modal), est);
        }
        // Exhaustively verify no consistent completion is strictly closer.
        let best_exhaustive = Ranking::enumerate_all(sigma.items())
            .into_iter()
            .filter(|t| psi.is_consistent(t))
            .map(|t| crate::kendall_tau(mal.sigma(), &t))
            .min()
            .unwrap();
        assert!(est >= best_exhaustive);
        assert_eq!(est, best_exhaustive, "greedy is exact on this instance");
    }

    #[test]
    fn cap_limits_frontier() {
        let sigma = Ranking::identity(7);
        // A reversed pair far from σ generates several ties while completing.
        let psi = SubRanking::new(vec![6, 0]).unwrap();
        let capped = greedy_modals(&psi, &sigma, 2);
        assert!(capped.len() <= 2);
    }

    #[test]
    fn approximate_distance_of_reversed_pair() {
        let sigma = Ranking::identity(4);
        // ψ = ⟨3, 0⟩: the closest completion needs at least 3 inversions
        // (3 must pass 1 and 2 or 0 must drop below them).
        let psi = SubRanking::new(vec![3, 0]).unwrap();
        let est = approximate_distance(&psi, &sigma);
        let best = Ranking::enumerate_all(sigma.items())
            .into_iter()
            .filter(|t| psi.is_consistent(t))
            .map(|t| crate::kendall_tau(&t, &sigma))
            .min()
            .unwrap();
        assert_eq!(est, best);
    }
}
