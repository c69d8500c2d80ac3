//! The Repeated Insertion Model (RIM).

use crate::{Item, Ranking, Result, RimError};
use rand::Rng;

/// A Repeated Insertion Model `RIM(σ, Π)` (Doignon et al. 2004; Section 2.2
/// and Algorithm 1 of the paper).
///
/// The model is parameterised by a reference ranking `σ = ⟨σ_1, …, σ_m⟩` and
/// insertion probabilities `Π(i, j)` — the probability of inserting the item
/// `σ_i` at position `j` of the partially-built ranking. Sampling proceeds by
/// inserting the items of `σ` one by one; after step `i` the partial ranking
/// contains exactly the first `i` items of `σ`.
///
/// Internally both indices are 0-based: `pi[i][j]` is the probability of
/// inserting `σ_{i+1}` (paper indexing) at position `j+1` (paper indexing),
/// so row `i` has `i + 1` entries.
#[derive(Debug, Clone, PartialEq)]
pub struct RimModel {
    sigma: Ranking,
    pi: Vec<Vec<f64>>,
}

impl RimModel {
    /// Builds a RIM model, validating that `pi` has one row per item, that row
    /// `i` has exactly `i + 1` entries, and that every row sums to 1 (within a
    /// small tolerance).
    pub fn new(sigma: Ranking, pi: Vec<Vec<f64>>) -> Result<Self> {
        if pi.len() != sigma.len() {
            return Err(RimError::InvalidInsertionMatrix(format!(
                "expected {} rows, got {}",
                sigma.len(),
                pi.len()
            )));
        }
        for (i, row) in pi.iter().enumerate() {
            if row.len() != i + 1 {
                return Err(RimError::InvalidInsertionMatrix(format!(
                    "row {} must have {} entries, got {}",
                    i,
                    i + 1,
                    row.len()
                )));
            }
            let sum: f64 = row.iter().sum();
            if row.iter().any(|&p| !(0.0..=1.0 + 1e-9).contains(&p)) || (sum - 1.0).abs() > 1e-6 {
                return Err(RimError::InvalidInsertionMatrix(format!(
                    "row {i} is not a probability distribution (sum = {sum})"
                )));
            }
        }
        Ok(RimModel { sigma, pi })
    }

    /// Builds the RIM model corresponding to the uniform distribution over
    /// all rankings of `σ`'s items (`Π(i, j) = 1/i`).
    pub fn uniform(sigma: Ranking) -> Self {
        let m = sigma.len();
        let pi = (0..m)
            .map(|i| vec![1.0 / (i as f64 + 1.0); i + 1])
            .collect();
        RimModel { sigma, pi }
    }

    /// The reference ranking `σ`.
    pub fn sigma(&self) -> &Ranking {
        &self.sigma
    }

    /// The insertion-probability matrix (row `i` has `i + 1` entries).
    pub fn pi(&self) -> &[Vec<f64>] {
        &self.pi
    }

    /// Number of items `m` ranked by the model.
    pub fn num_items(&self) -> usize {
        self.sigma.len()
    }

    /// The probability `Π(i, j)` of inserting the `i`-th reference item
    /// (0-based) at position `j` (0-based).
    pub fn insertion_prob(&self, i: usize, j: usize) -> f64 {
        self.pi[i][j]
    }

    /// Draws a random ranking using the repeated insertion procedure
    /// (Algorithm 1 of the paper).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Ranking {
        let m = self.num_items();
        let mut items: Vec<Item> = Vec::with_capacity(m);
        for i in 0..m {
            let j = sample_index(&self.pi[i], rng);
            items.insert(j, self.sigma.item_at(i));
        }
        Ranking::new(items).expect("insertion of distinct reference items yields a permutation")
    }

    /// The exact probability of generating the complete ranking `τ`
    /// (`Pr(τ | σ, Π)`); 0 if `τ` does not range over exactly the model's
    /// items.
    pub fn prob_of(&self, tau: &Ranking) -> f64 {
        self.log_prob_of(tau).map(f64::exp).unwrap_or(0.0)
    }

    /// Natural logarithm of [`RimModel::prob_of`], or `None` when the ranking
    /// is not over the model's item set or has probability zero.
    fn log_prob_of(&self, tau: &Ranking) -> Option<f64> {
        let m = self.num_items();
        if tau.len() != m {
            return None;
        }
        let mut logp = 0.0;
        for i in 0..m {
            let j = insertion_position(&self.sigma, tau, i)?;
            let p = self.pi[i][j];
            if p <= 0.0 {
                return None;
            }
            logp += p.ln();
        }
        Some(logp)
    }
}

/// Position at which `σ_i` must have been inserted for the final ranking to be
/// `τ`: the number of reference items `σ_0 … σ_{i-1}` that precede `σ_i` in
/// `τ`. (The relative order of already-inserted items never changes, so the
/// insertion position is determined by the final ranking.)
fn insertion_position(sigma: &Ranking, tau: &Ranking, i: usize) -> Option<usize> {
    let item = sigma.item_at(i);
    let pos_item = tau.position_of(item)?;
    let mut j = 0;
    for k in 0..i {
        let earlier = sigma.item_at(k);
        let pos_earlier = tau.position_of(earlier)?;
        if pos_earlier < pos_item {
            j += 1;
        }
    }
    Some(j)
}

/// Samples an index from an (unnormalised is fine) discrete distribution.
pub(crate) fn sample_index<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> usize {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0, "weights must have positive mass");
    let mut u = rng.gen::<f64>() * total;
    for (idx, &w) in weights.iter().enumerate() {
        if u < w {
            return idx;
        }
        u -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn simple_rim() -> RimModel {
        // m = 3, a hand-crafted Π.
        let sigma = Ranking::new(vec![10, 20, 30]).unwrap();
        let pi = vec![vec![1.0], vec![0.3, 0.7], vec![0.2, 0.3, 0.5]];
        RimModel::new(sigma, pi).unwrap()
    }

    #[test]
    fn validation_rejects_bad_matrices() {
        let sigma = Ranking::new(vec![1, 2]).unwrap();
        assert!(RimModel::new(sigma.clone(), vec![vec![1.0]]).is_err());
        assert!(RimModel::new(sigma.clone(), vec![vec![1.0], vec![0.5, 0.6]]).is_err());
        assert!(RimModel::new(sigma.clone(), vec![vec![1.0], vec![0.5, 0.4, 0.1]]).is_err());
        assert!(RimModel::new(sigma, vec![vec![1.0], vec![0.5, 0.5]]).is_ok());
    }

    #[test]
    fn probabilities_sum_to_one() {
        let rim = simple_rim();
        let mass: f64 = Ranking::enumerate_all(rim.sigma().items())
            .iter()
            .map(|tau| rim.prob_of(tau))
            .sum();
        assert!((mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn example_2_1_probability() {
        // Example 2.1 of the paper: Pr(⟨b, c, a⟩ | ⟨a, b, c⟩, Π) = Π(1,1)·Π(2,1)·Π(3,2).
        let sigma = Ranking::new(vec![0, 1, 2]).unwrap(); // a=0, b=1, c=2
        let pi = vec![vec![1.0], vec![0.4, 0.6], vec![0.1, 0.2, 0.7]];
        let rim = RimModel::new(sigma, pi).unwrap();
        let tau = Ranking::new(vec![1, 2, 0]).unwrap();
        let expected = 1.0 * 0.4 * 0.2;
        assert!((rim.prob_of(&tau) - expected).abs() < 1e-12);
    }

    #[test]
    fn prob_of_wrong_universe_is_zero() {
        let rim = simple_rim();
        let tau = Ranking::new(vec![10, 20]).unwrap();
        assert_eq!(rim.prob_of(&tau), 0.0);
        let tau = Ranking::new(vec![10, 20, 99]).unwrap();
        assert_eq!(rim.prob_of(&tau), 0.0);
    }

    #[test]
    fn uniform_rim_is_uniform() {
        let rim = RimModel::uniform(Ranking::identity(4));
        for tau in Ranking::enumerate_all(&[0, 1, 2, 3]) {
            assert!((rim.prob_of(&tau) - 1.0 / 24.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_matches_probabilities() {
        let rim = simple_rim();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 40_000;
        let mut counts: std::collections::HashMap<Vec<Item>, usize> = Default::default();
        for _ in 0..n {
            let tau = rim.sample(&mut rng);
            *counts.entry(tau.items().to_vec()).or_default() += 1;
        }
        for tau in Ranking::enumerate_all(&[10, 20, 30]) {
            let expected = rim.prob_of(&tau);
            let observed = *counts.get(tau.items()).unwrap_or(&0) as f64 / n as f64;
            assert!(
                (expected - observed).abs() < 0.02,
                "ranking {tau}: expected {expected}, observed {observed}"
            );
        }
    }

    #[test]
    fn insertion_positions_roundtrip() {
        let rim = simple_rim();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let tau = rim.sample(&mut rng);
            // Rebuild the ranking from the positions and compare.
            let mut items: Vec<Item> = Vec::new();
            for i in 0..rim.num_items() {
                let j = insertion_position(rim.sigma(), &tau, i).unwrap();
                items.insert(j, rim.sigma().item_at(i));
            }
            assert_eq!(items, tau.items());
        }
    }
}
