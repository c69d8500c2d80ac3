//! The Mallows ranking model `MAL(σ, φ)`.

use crate::{kendall_tau, Ranking, Result, RimError, RimModel};
use rand::Rng;

/// The Mallows model `MAL(σ, φ)` with centre ranking `σ` and dispersion
/// `φ ∈ [0, 1]` (Mallows 1957; Section 2.2 of the paper).
///
/// The probability of a ranking `τ` is proportional to `φ^dist(σ, τ)` where
/// `dist` is the Kendall-tau distance. `φ = 0` concentrates all mass on `σ`
/// (we treat `0^0 = 1`), and `φ = 1` is the uniform distribution.
///
/// The model is realised as a special case of [`RimModel`] with
/// `Π(i, j) = φ^{i−j} / (1 + φ + … + φ^{i−1})` (1-based indices), which is the
/// classical equivalence of Doignon et al. used throughout the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct MallowsModel {
    sigma: Ranking,
    phi: f64,
}

impl MallowsModel {
    /// Creates a Mallows model; `phi` must lie in `[0, 1]`.
    pub fn new(sigma: Ranking, phi: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&phi) || phi.is_nan() {
            return Err(RimError::InvalidPhi(phi));
        }
        Ok(MallowsModel { sigma, phi })
    }

    /// The centre ranking `σ`.
    pub fn sigma(&self) -> &Ranking {
        &self.sigma
    }

    /// The dispersion parameter `φ`.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Number of items ranked by the model.
    pub fn num_items(&self) -> usize {
        self.sigma.len()
    }

    /// Converts the model into its equivalent repeated-insertion form.
    pub fn to_rim(&self) -> RimModel {
        let m = self.num_items();
        let mut pi = Vec::with_capacity(m);
        for i in 0..m {
            // Row i (0-based) has i+1 entries; weight of position j is φ^{i-j}.
            let mut row = Vec::with_capacity(i + 1);
            let mut total = 0.0;
            for j in 0..=i {
                let w = pow_phi(self.phi, i - j);
                row.push(w);
                total += w;
            }
            for w in &mut row {
                *w /= total;
            }
            pi.push(row);
        }
        RimModel::new(self.sigma.clone(), pi).expect("Mallows insertion rows are distributions")
    }

    /// The Mallows partition function
    /// `Z = Π_{k=1}^{m} (1 + φ + … + φ^{k−1})`. Each factor is the
    /// left-to-right fold of the one before it plus one more power, so all
    /// `m` of them come out of a single running sum: `m` powers, not `m²/2`.
    /// A loop over many rankings of one model should still call this once
    /// (as [`crate::AmpMixture`] does) rather than through
    /// [`MallowsModel::prob_of`].
    pub(crate) fn partition_function(&self) -> f64 {
        let mut z = 1.0;
        let mut geometric_sum = 0.0;
        for k in 0..self.num_items() {
            geometric_sum += pow_phi(self.phi, k);
            z *= geometric_sum;
        }
        z
    }

    /// The exact probability of a complete ranking `τ` over the model's items:
    /// `φ^{dist(σ, τ)} / Z`. Returns 0 for rankings over a different item set.
    pub fn prob_of(&self, tau: &Ranking) -> f64 {
        if tau.len() != self.num_items() || !tau.items().iter().all(|&it| self.sigma.contains(it)) {
            return 0.0;
        }
        let d = kendall_tau(&self.sigma, tau);
        pow_phi(self.phi, d) / self.partition_function()
    }

    /// Draws a random ranking via the repeated insertion procedure.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Ranking {
        self.to_rim().sample(rng)
    }
}

/// `φ^k` with the convention `0^0 = 1` (needed for `φ = 0`).
pub(crate) fn pow_phi(phi: f64, k: usize) -> f64 {
    if k == 0 {
        1.0
    } else {
        phi.powi(k as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn phi_validation() {
        let sigma = Ranking::identity(3);
        assert!(MallowsModel::new(sigma.clone(), -0.1).is_err());
        assert!(MallowsModel::new(sigma.clone(), 1.1).is_err());
        assert!(MallowsModel::new(sigma.clone(), f64::NAN).is_err());
        assert!(MallowsModel::new(sigma, 0.5).is_ok());
    }

    #[test]
    fn partition_function_keeps_the_bits_of_separately_summed_factors() {
        // Z used to be a product of m geometric sums, each folded from
        // scratch; the running-sum form must be that number exactly.
        for m in [0usize, 1, 2, 5, 10, 20, 130] {
            for phi in [0.0, 1e-160, 0.3, 0.5, 0.9, 1.0] {
                let mut z = 1.0;
                for k in 1..=m {
                    z *= (0..k).map(|e| pow_phi(phi, e)).sum::<f64>();
                }
                let model = MallowsModel::new(Ranking::identity(m), phi).unwrap();
                assert_eq!(model.partition_function().to_bits(), z.to_bits());
            }
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        for &phi in &[0.0, 0.1, 0.5, 1.0] {
            let mal = MallowsModel::new(Ranking::identity(4), phi).unwrap();
            let total: f64 = Ranking::enumerate_all(&[0, 1, 2, 3])
                .iter()
                .map(|tau| mal.prob_of(tau))
                .sum();
            assert!((total - 1.0).abs() < 1e-9, "phi={phi}: total={total}");
        }
    }

    #[test]
    fn rim_form_agrees_with_direct_formula() {
        let mal = MallowsModel::new(Ranking::new(vec![3, 1, 4, 2]).unwrap(), 0.3).unwrap();
        let rim = mal.to_rim();
        for tau in Ranking::enumerate_all(&[1, 2, 3, 4]) {
            assert!(
                (mal.prob_of(&tau) - rim.prob_of(&tau)).abs() < 1e-12,
                "disagreement on {tau}"
            );
        }
    }

    #[test]
    fn phi_zero_concentrates_on_center() {
        let sigma = Ranking::new(vec![2, 0, 1]).unwrap();
        let mal = MallowsModel::new(sigma.clone(), 0.0).unwrap();
        assert!((mal.prob_of(&sigma) - 1.0).abs() < 1e-12);
        let other = Ranking::new(vec![0, 2, 1]).unwrap();
        assert_eq!(mal.prob_of(&other), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            assert_eq!(mal.sample(&mut rng), sigma);
        }
    }

    #[test]
    fn phi_one_is_uniform() {
        let mal = MallowsModel::new(Ranking::identity(4), 1.0).unwrap();
        for tau in Ranking::enumerate_all(&[0, 1, 2, 3]) {
            assert!((mal.prob_of(&tau) - 1.0 / 24.0).abs() < 1e-12);
        }
    }

    #[test]
    fn closer_rankings_are_more_probable() {
        let mal = MallowsModel::new(Ranking::identity(5), 0.4).unwrap();
        let near = Ranking::new(vec![0, 1, 2, 4, 3]).unwrap();
        let far = Ranking::new(vec![4, 3, 2, 1, 0]).unwrap();
        assert!(mal.prob_of(&near) > mal.prob_of(&far));
        // Ratio equals φ^{Δdist}.
        let ratio = mal.prob_of(&far) / mal.prob_of(&near);
        let delta = kendall_tau(mal.sigma(), &far) - kendall_tau(mal.sigma(), &near);
        assert!((ratio - 0.4f64.powi(delta as i32)).abs() < 1e-12);
    }

    #[test]
    fn sampling_empirical_distance_decreases_with_phi() {
        let sigma = Ranking::identity(6);
        let mut rng = StdRng::seed_from_u64(11);
        let mean_dist = |phi: f64, rng: &mut StdRng| {
            let mal = MallowsModel::new(sigma.clone(), phi).unwrap();
            let n = 2000;
            (0..n)
                .map(|_| kendall_tau(mal.sigma(), &mal.sample(rng)) as f64)
                .sum::<f64>()
                / n as f64
        };
        let d_small = mean_dist(0.1, &mut rng);
        let d_large = mean_dist(0.9, &mut rng);
        assert!(d_small < d_large);
    }
}
