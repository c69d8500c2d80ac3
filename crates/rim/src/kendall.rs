//! Kendall-tau distances between rankings.

use crate::Ranking;

/// Kendall-tau distance between two complete rankings over the same item set:
/// the number of item pairs ordered one way by `a` and the other way by `b`.
///
/// Items present in only one of the rankings are ignored (the distance is
/// computed over the common items), which matches the paper's use of the
/// distance between rankings over a shared universe.
pub fn kendall_tau(a: &Ranking, b: &Ranking) -> usize {
    inversions(&ranks_in_order_of(a, b))
}

/// `b`'s rank of every item the two rankings share, in `a`'s order: `a`
/// orders any two of them as listed, so the pairs the rankings order
/// differently are the inversions of this array.
fn ranks_in_order_of(a: &Ranking, b: &Ranking) -> Vec<usize> {
    a.items()
        .iter()
        .filter_map(|&item| b.position_of(item))
        .collect()
}

/// Number of pairs `i < j` with `ranks[i] > ranks[j]`.
pub(crate) fn inversions<T: Copy + PartialOrd>(ranks: &[T]) -> usize {
    let mut count = 0;
    for (i, &earlier) in ranks.iter().enumerate() {
        count += ranks[i + 1..]
            .iter()
            .filter(|&&later| later < earlier)
            .count();
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Item;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    #[test]
    fn identical_rankings_have_zero_distance() {
        let a = Ranking::new(vec![1, 2, 3, 4]).unwrap();
        assert_eq!(kendall_tau(&a, &a), 0);
    }

    #[test]
    fn reversed_ranking_has_max_distance() {
        let a = Ranking::new(vec![1, 2, 3, 4]).unwrap();
        let b = Ranking::new(vec![4, 3, 2, 1]).unwrap();
        assert_eq!(kendall_tau(&a, &b), 6);
    }

    #[test]
    fn single_swap_distance_one() {
        let a = Ranking::new(vec![1, 2, 3]).unwrap();
        let b = Ranking::new(vec![2, 1, 3]).unwrap();
        assert_eq!(kendall_tau(&a, &b), 1);
    }

    #[test]
    fn distance_over_common_items_only() {
        let a = Ranking::new(vec![1, 2, 3]).unwrap();
        let b = Ranking::new(vec![3, 1, 99]).unwrap();
        // Common items {1, 3}: a says 1 ≻ 3, b says 3 ≻ 1 → distance 1.
        assert_eq!(kendall_tau(&a, &b), 1);
    }

    #[test]
    fn symmetry() {
        let a = Ranking::new(vec![5, 1, 4, 2, 3]).unwrap();
        let b = Ranking::new(vec![1, 2, 3, 4, 5]).unwrap();
        assert_eq!(kendall_tau(&a, &b), kendall_tau(&b, &a));
    }

    #[test]
    fn reversal_distance_is_m_choose_2_for_every_m() {
        for m in 2..=9usize {
            let forward = Ranking::identity(m);
            let reversed = Ranking::new((0..m as Item).rev().collect()).unwrap();
            assert_eq!(kendall_tau(&forward, &reversed), m * (m - 1) / 2, "m = {m}");
        }
    }

    #[test]
    fn normalized_distance_lies_in_unit_interval() {
        // Deterministic pseudo-random permutations via a small LCG.
        let mut state: u64 = 0xBEEF;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for m in 2..=8usize {
            for _ in 0..20 {
                let mut items: Vec<Item> = (0..m as Item).collect();
                for i in (1..items.len()).rev() {
                    items.swap(i, next() % (i + 1));
                }
                let tau = Ranking::new(items).unwrap();
                let sigma = Ranking::identity(m);
                // The distance over the most discordant pairs it can count.
                let norm = kendall_tau(&tau, &sigma) as f64 / (m * (m - 1) / 2) as f64;
                assert!((0.0..=1.0).contains(&norm), "m = {m}: {norm}");
                assert_eq!(kendall_tau(&tau, &sigma), kendall_tau(&sigma, &tau));
            }
        }
    }

    #[test]
    fn position_arrays_count_what_pairwise_lookups_count() {
        // Against the definition, a pair at a time through `position_of`, on
        // rankings that share only some of their items.
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut shuffled = |from: Item, to: Item| {
            let mut items: Vec<Item> = (from..to).collect();
            items.shuffle(&mut rng);
            Ranking::new(items).unwrap()
        };
        for _ in 0..50 {
            let a = shuffled(0, 9);
            let b = shuffled(3, 12);
            let by_definition = |items: &[Item]| {
                let mut count = 0;
                for (i, &x) in items.iter().enumerate() {
                    for &y in &items[i + 1..] {
                        if let (Some(ax), Some(ay), Some(bx), Some(by)) = (
                            a.position_of(x),
                            a.position_of(y),
                            b.position_of(x),
                            b.position_of(y),
                        ) {
                            count += usize::from((ax < ay) != (bx < by));
                        }
                    }
                }
                count
            };
            assert_eq!(kendall_tau(&a, &b), by_definition(a.items()));
        }
    }

    #[test]
    fn fewer_than_two_common_items_normalizes_to_zero() {
        let a = Ranking::new(vec![1, 2]).unwrap();
        let b = Ranking::new(vec![2, 3]).unwrap();
        assert_eq!(kendall_tau(&a, &b), 0);
        let c = Ranking::new(vec![8, 9]).unwrap();
        assert_eq!(kendall_tau(&a, &c), 0);
    }
}
