//! IS-AMP: importance sampling with a single AMP proposal distribution
//! (Section 5.3 of the paper).

use crate::Result;
use ppd_rim::{AmpMixture, AmpSampler, MallowsModel, SubRanking};
use rand::RngCore;

/// Estimates `Pr(τ |= ψ)` for `τ ∼ MAL(σ, φ)` — the probability that a random
/// ranking is consistent with the sub-ranking `ψ` — by importance sampling
/// with the proposal distribution `AMP(σ, φ, ψ)`.
///
/// Every sample drawn from the proposal satisfies `ψ`, so the indicator is
/// identically 1 and the estimator reduces to the mean importance factor
/// `p(x) / q(x)`. As Example 5.1 of the paper shows, a single proposal
/// centred on `σ` can badly underestimate multi-modal posteriors; the
/// MIS-AMP estimator addresses that.
pub fn is_amp_estimate(
    mallows: &MallowsModel,
    psi: &SubRanking,
    num_samples: usize,
    rng: &mut dyn RngCore,
) -> Result<f64> {
    let sampler = AmpSampler::for_subranking(mallows.sigma().clone(), mallows.phi(), psi)?;
    let mut pass = AmpMixture::new(mallows, std::slice::from_ref(&sampler))?;
    let mut total = 0.0;
    let n = num_samples.max(1);
    for _ in 0..n {
        let q = pass.draw(0, rng);
        let p = pass.model_prob();
        if q > 0.0 {
            total += p / q;
        }
    }
    // Importance weights have unbounded variance in the tails, so the raw
    // mean can stray above 1; clamp to the valid probability range.
    Ok((total / n as f64).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppd_rim::Ranking;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Exact Pr(τ consistent with ψ) by enumeration.
    fn exact_consistency(mallows: &MallowsModel, psi: &SubRanking) -> f64 {
        Ranking::enumerate_all(mallows.sigma().items())
            .iter()
            .filter(|t| psi.is_consistent(t))
            .map(|t| mallows.prob_of(t))
            .sum()
    }

    #[test]
    fn unconstrained_subranking_estimates_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = MallowsModel::new(Ranking::identity(5), 0.4).unwrap();
        let est = is_amp_estimate(&model, &SubRanking::empty(), 500, &mut rng).unwrap();
        assert!((est - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_dispersion_against_the_centre_estimates_exactly_zero() {
        // φ = 0 puts all mass on σ, which ranks 0 before 3: ψ = ⟨3, 0⟩ has
        // probability 0. Its proposal has to place 3 where every insertion
        // weight is zero; that used to be a failed assertion in debug builds
        // and 0/0 in release builds.
        let mut rng = StdRng::seed_from_u64(7);
        let model = MallowsModel::new(Ranking::identity(4), 0.0).unwrap();
        let psi = SubRanking::new(vec![3, 0]).unwrap();
        let est = is_amp_estimate(&model, &psi, 50, &mut rng).unwrap();
        assert_eq!(est.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn accurate_on_unimodal_posteriors() {
        // ψ consistent with the centre: the posterior is unimodal around σ
        // and a single proposal suffices.
        let mut rng = StdRng::seed_from_u64(11);
        let model = MallowsModel::new(Ranking::identity(6), 0.5).unwrap();
        let psi = SubRanking::new(vec![1, 3, 5]).unwrap();
        let exact = exact_consistency(&model, &psi);
        let est = is_amp_estimate(&model, &psi, 20_000, &mut rng).unwrap();
        assert!(
            ((est - exact) / exact).abs() < 0.05,
            "exact {exact}, estimate {est}"
        );
    }

    #[test]
    fn example_5_1_proposal_ignores_second_mode() {
        // Example 5.1: ψ = ⟨σ3, σ1⟩ with φ = 0.01 has a bimodal posterior
        // (modes ⟨σ3,σ1,σ2⟩ and ⟨σ2,σ3,σ1⟩). The single AMP proposal centred
        // on σ places almost all of its mass on the first mode, which is what
        // makes the plain IS-AMP estimator extremely high-variance here.
        let model = MallowsModel::new(Ranking::new(vec![1, 2, 3]).unwrap(), 0.01).unwrap();
        let psi = SubRanking::new(vec![3, 1]).unwrap();
        let sampler =
            ppd_rim::AmpSampler::for_subranking(model.sigma().clone(), model.phi(), &psi).unwrap();
        let mode_a = Ranking::new(vec![3, 1, 2]).unwrap();
        let mode_b = Ranking::new(vec![2, 3, 1]).unwrap();
        // The two modes carry (essentially) equal posterior mass…
        assert!((model.prob_of(&mode_a) - model.prob_of(&mode_b)).abs() < 1e-9);
        // …but the proposal all but ignores the second one.
        assert!(sampler.prob_of(&mode_a) > 0.9);
        assert!(sampler.prob_of(&mode_b) < 0.05);
        // With plenty of samples the estimator still converges (it is
        // unbiased), so accuracy itself is not the failure mode.
        let mut rng = StdRng::seed_from_u64(19);
        let exact = exact_consistency(&model, &psi);
        let est = is_amp_estimate(&model, &psi, 20_000, &mut rng).unwrap();
        assert!(((est - exact) / exact).abs() < 0.5);
    }
}
