//! MIS-AMP: multiple importance sampling for a single sub-ranking
//! (Section 5.4 of the paper).

use crate::approx::mixture::{mixture_coefficients, mixture_weight_moments, stratified_allocation};
use crate::Result;
use ppd_rim::{greedy_modals, AmpSampler, MallowsModel, SubRanking};
use rand::RngCore;

/// Estimates `Pr(τ |= ψ)` for `τ ∼ MAL(σ, φ)` with Multiple Importance
/// Sampling: the greedy modal search (Algorithm 5) locates the modes of the
/// posterior conditioned on `ψ`, one AMP proposal distribution is built per
/// mode, and a total budget of `modes × samples_per_proposal` samples is
/// drawn from their stratified mixture and combined with the balance
/// heuristic of Veach & Guibas (Eq. 6 of the paper).
///
/// The sampling pass runs on integer arrays throughout (no per-call modal
/// clones, no per-sample allocation); the replication on the reference
/// formulation in `mixture_semantics_are_bit_pinned` pins the exact bits.
pub fn mis_amp_estimate(
    mallows: &MallowsModel,
    psi: &SubRanking,
    samples_per_proposal: usize,
    modal_cap: usize,
    rng: &mut dyn RngCore,
) -> Result<f64> {
    let modals = greedy_modals(psi, mallows.sigma(), modal_cap);
    // The modal rankings are moved into their samplers rather than cloned —
    // the modal list has no further use here.
    let proposals: Vec<AmpSampler> = modals
        .into_iter()
        .map(|modal| AmpSampler::for_subranking(modal, mallows.phi(), psi))
        .collect::<std::result::Result<_, _>>()?;
    let d = proposals.len();
    if d == 0 {
        return Ok(0.0);
    }
    let total = d * samples_per_proposal.max(1);
    let allocation = stratified_allocation(total, d);
    let coefficients = mixture_coefficients(&allocation, total);
    let moments = mixture_weight_moments(mallows, &proposals, &allocation, &coefficients, rng);
    // Importance weights have unbounded variance in the tails, so the raw
    // mean can stray above 1; clamp to the valid probability range.
    Ok(moments.mean().clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amp_reference::{self, AmpReference};
    use ppd_rim::{PartialOrder, Ranking};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exact_consistency(mallows: &MallowsModel, psi: &SubRanking) -> f64 {
        Ranking::enumerate_all(mallows.sigma().items())
            .iter()
            .filter(|t| psi.is_consistent(t))
            .map(|t| mallows.prob_of(t))
            .sum()
    }

    #[test]
    fn example_5_2_recovers_multimodal_mass() {
        // The instance on which IS-AMP fails (Example 5.1/5.2): MIS-AMP with
        // both greedy modals recovers the full posterior mass.
        let mut rng = StdRng::seed_from_u64(23);
        let model = MallowsModel::new(Ranking::new(vec![1, 2, 3]).unwrap(), 0.01).unwrap();
        let psi = SubRanking::new(vec![3, 1]).unwrap();
        let exact = exact_consistency(&model, &psi);
        let est = mis_amp_estimate(&model, &psi, 5_000, 16, &mut rng).unwrap();
        assert!(
            ((est - exact) / exact).abs() < 0.1,
            "exact {exact}, estimate {est}"
        );
    }

    #[test]
    fn accurate_across_dispersions() {
        let mut rng = StdRng::seed_from_u64(5);
        for &phi in &[0.1, 0.5, 0.9] {
            let model = MallowsModel::new(Ranking::identity(6), phi).unwrap();
            let psi = SubRanking::new(vec![4, 1, 5]).unwrap();
            let exact = exact_consistency(&model, &psi);
            let est = mis_amp_estimate(&model, &psi, 4_000, 32, &mut rng).unwrap();
            assert!(
                ((est - exact) / exact).abs() < 0.15,
                "phi={phi}: exact {exact}, estimate {est}"
            );
        }
    }

    #[test]
    fn mixture_semantics_are_bit_pinned() {
        // Exact-bits regression pin: replicate the estimator on the
        // reference formulation (a `Ranking` per draw, a `PartialOrder` walk
        // per insertion, per-component densities) under the same mixture
        // weighting, and require identical bits from the production pass.
        let model = MallowsModel::new(Ranking::identity(6), 0.45).unwrap();
        let psi = SubRanking::new(vec![4, 1, 5]).unwrap();
        let chain = PartialOrder::from_subranking(&psi);
        for &(seed, n, cap) in &[(19u64, 120usize, 16usize), (4u64, 250, 32)] {
            let proposals: Vec<AmpReference> = ppd_rim::greedy_modals(&psi, model.sigma(), cap)
                .into_iter()
                .map(|modal| AmpReference::new(modal, model.phi(), &chain))
                .collect();
            let d = proposals.len();
            assert!(d > 0);
            let total = d * n;
            let mut rng = StdRng::seed_from_u64(seed);
            let (sum, _, _) = amp_reference::mixture_pass(
                model.sigma(),
                model.phi(),
                &proposals,
                &vec![n; d],
                &vec![n as f64 / total as f64; d],
                &mut rng,
            );
            let expected = (sum / total as f64).clamp(0.0, 1.0);
            let mut rng = StdRng::seed_from_u64(seed);
            let got = mis_amp_estimate(&model, &psi, n, cap, &mut rng).unwrap();
            assert_eq!(
                expected.to_bits(),
                got.to_bits(),
                "seed {seed}: reference {expected} vs production {got}"
            );
        }
    }

    #[test]
    fn empty_subranking_estimates_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = MallowsModel::new(Ranking::identity(5), 0.3).unwrap();
        let est = mis_amp_estimate(&model, &SubRanking::empty(), 200, 8, &mut rng).unwrap();
        assert!((est - 1.0).abs() < 1e-9);
    }
}
