//! The shared mixture-sampling core of the MIS estimators (`mis_amp_estimate`
//! and the one run loop behind [`MisAmpLite`] and its schedules): one total
//! budget `N` split over the `d` kept proposals in fixed pool order, and one
//! pass weighting every draw by Veach & Guibas' balance heuristic (Eq. 6 of
//! the paper, with coefficients `n_j/N` rather than `1/d`). The allocation is
//! a pure function of `(N, d)` and all draws come from the caller's one
//! seeded RNG stream, so every estimate built on the weight sums depends only
//! on the instance, the budget and the seed.
//!
//! [`MisAmpLite`]: crate::MisAmpLite

use crate::approx::mis_lite::SampleMoments;
use ppd_rim::{AmpMixture, AmpSampler, MallowsModel};
use rand::RngCore;

/// Splits a total sample budget of `total` across `parts` proposals in fixed
/// pool order: the first `total mod parts` proposals receive `⌈total/parts⌉`
/// samples, the rest `⌊total/parts⌋`. The leftmost proposals are the modals
/// closest to the Mallows centre, so the remainder lands where the posterior
/// mass is. Returns an empty allocation when `parts == 0`.
pub fn stratified_allocation(total: usize, parts: usize) -> Vec<usize> {
    if parts == 0 {
        return Vec::new();
    }
    let base = total / parts;
    let remainder = total % parts;
    (0..parts)
        .map(|i| base + usize::from(i < remainder))
        .collect()
}

/// The mixture coefficients `n_i / N` matching a stratified allocation: the
/// share of the total budget drawn from each proposal, which is exactly the
/// weight of that proposal's density in the balance-heuristic denominator.
/// All-zero (empty mixture) when `total == 0`.
pub fn mixture_coefficients(allocation: &[usize], total: usize) -> Vec<f64> {
    if total == 0 {
        return vec![0.0; allocation.len()];
    }
    allocation
        .iter()
        .map(|&n| n as f64 / total as f64)
        .collect()
}

/// Runs one mixture sampling pass: draws `allocation[i]` samples from
/// `samplers[i]` (in pool order, from one RNG stream), weights each by
/// `p(τ) / mix(τ)` with `mix(τ) = Σ_j coefficients[j]·q_j(τ)`, and returns
/// the accumulated weight moments. Samples where the mixture density is zero
/// contribute nothing to the sums and are counted in
/// [`SampleMoments::zero_density`].
///
/// The pass runs on [`AmpMixture`]'s integer arrays: no ranking is built and
/// nothing is allocated per sample. A sample costs its draw, then an
/// inversion count and one density walk per other proposal with a positive
/// coefficient, both linear in `m`; the drawing proposal's density is the
/// draw's own probability.
pub(crate) fn mixture_weight_moments(
    mallows: &MallowsModel,
    samplers: &[AmpSampler],
    allocation: &[usize],
    coefficients: &[f64],
    rng: &mut dyn RngCore,
) -> SampleMoments {
    debug_assert_eq!(samplers.len(), allocation.len());
    debug_assert_eq!(samplers.len(), coefficients.len());
    let mut sum = 0.0;
    let mut sum_squares = 0.0;
    let mut zero_density = 0usize;
    let mut pass = AmpMixture::new(mallows, samplers)
        .expect("every proposal is centred on a ranking of the model's items");
    for (proposal, &quota) in allocation.iter().enumerate() {
        for _ in 0..quota {
            pass.draw(proposal, rng);
            let p = pass.model_prob();
            let mix = pass.density(coefficients);
            if mix > 0.0 {
                let w = p / mix;
                sum += w;
                sum_squares += w * w;
            } else {
                zero_density += 1;
            }
        }
    }
    SampleMoments {
        sum,
        sum_squares,
        samples: allocation.iter().sum(),
        zero_density,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amp_reference::{self, AmpReference};
    use crate::testutil::{cyclic_labeling, mallows, sample_unions};
    use ppd_patterns::{decompose_union, DecompositionLimits};
    use ppd_rim::{PartialOrder, SubRanking};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn allocation_is_stratified_in_pool_order() {
        assert_eq!(stratified_allocation(10, 3), vec![4, 3, 3]);
        assert_eq!(stratified_allocation(9, 3), vec![3, 3, 3]);
        assert_eq!(stratified_allocation(2, 4), vec![1, 1, 0, 0]);
        assert_eq!(stratified_allocation(0, 3), vec![0, 0, 0]);
        assert_eq!(stratified_allocation(5, 0), Vec::<usize>::new());
        for (total, parts) in [(1usize, 1usize), (7, 3), (64, 10), (1000, 7)] {
            let allocation = stratified_allocation(total, parts);
            assert_eq!(allocation.iter().sum::<usize>(), total);
            assert!(allocation.windows(2).all(|w| w[0] >= w[1]), "front-loaded");
        }
    }

    #[test]
    fn coefficients_sum_to_one_for_positive_budgets() {
        for (total, parts) in [(1usize, 1usize), (7, 3), (64, 10), (999, 13)] {
            let allocation = stratified_allocation(total, parts);
            let coefficients = mixture_coefficients(&allocation, total);
            let sum: f64 = coefficients.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "N={total} d={parts}: {sum}");
        }
        assert_eq!(mixture_coefficients(&[0, 0], 0), vec![0.0, 0.0]);
    }

    #[test]
    fn moments_match_the_reference_pass_on_decomposed_unions() {
        // Proposals built the way `perf_suite` probes them: `from_model` on
        // the partial orders a union decomposes into — several components,
        // isolated items, all centred on σ whether or not σ satisfies them
        // (at φ = 0 that is the zero-mass limit). Uneven coefficients, the
        // last proposal without a draw.
        let limits = DecompositionLimits::default();
        for m in [5usize, 8, 10, 12] {
            let lab = cyclic_labeling(m, 4);
            for phi in [0.0, 0.1, 0.5, 0.9, 1.0] {
                let model = mallows(m, phi);
                for (ui, union) in sample_unions().iter().enumerate() {
                    let orders = decompose_union(union, model.sigma().items(), &lab, &limits)
                        .unwrap()
                        .partial_orders;
                    let orders = &orders[..orders.len().min(4)];
                    let samplers: Vec<AmpSampler> = orders
                        .iter()
                        .map(|order| AmpSampler::from_model(&model, order).unwrap())
                        .collect();
                    let references: Vec<AmpReference> = orders
                        .iter()
                        .map(|order| AmpReference::new(model.sigma().clone(), phi, order))
                        .collect();
                    let mut allocation: Vec<usize> = (1..=samplers.len()).rev().collect();
                    if let Some(last) = allocation.last_mut() {
                        *last = 0;
                    }
                    let total: usize = allocation.iter().sum();
                    let coefficients = mixture_coefficients(&allocation, total);
                    let mut rng = StdRng::seed_from_u64((m * 10 + ui) as u64);
                    let mut reference_rng = rng.clone();
                    let moments = mixture_weight_moments(
                        &model,
                        &samplers,
                        &allocation,
                        &coefficients,
                        &mut rng,
                    );
                    let expected = amp_reference::mixture_pass(
                        model.sigma(),
                        phi,
                        &references,
                        &allocation,
                        &coefficients,
                        &mut reference_rng,
                    );
                    assert_eq!(
                        (
                            moments.sum.to_bits(),
                            moments.sum_squares.to_bits(),
                            moments.zero_density
                        ),
                        (expected.0.to_bits(), expected.1.to_bits(), expected.2),
                        "m={m} φ={phi} union#{ui}"
                    );
                    assert_eq!(rng.next_u64(), reference_rng.next_u64());
                }
            }
        }
    }

    #[test]
    fn weight_mean_is_unbiased_for_the_covered_region() {
        // One pass over a two-proposal mixture with an uneven allocation:
        // the mean weight must estimate the probability mass of the union of
        // the proposals' supports (here: everything, since one component is
        // unconstrained), not the equal-quota average.
        let model = mallows(5, 0.5);
        let samplers = vec![
            AmpSampler::new(model.sigma().clone(), model.phi(), &PartialOrder::new()).unwrap(),
            AmpSampler::for_subranking(
                model.sigma().clone(),
                model.phi(),
                &SubRanking::new(vec![4, 0]).unwrap(),
            )
            .unwrap(),
        ];
        let allocation = stratified_allocation(5_001, samplers.len());
        let coefficients = mixture_coefficients(&allocation, 5_001);
        let mut rng = StdRng::seed_from_u64(77);
        let moments =
            mixture_weight_moments(&model, &samplers, &allocation, &coefficients, &mut rng);
        assert_eq!(moments.samples, 5_001);
        assert_eq!(moments.zero_density, 0, "the mixture covers every sample");
        assert!(
            (moments.mean() - 1.0).abs() < 0.05,
            "covered region is the full ranking space, got {}",
            moments.mean()
        );
    }
}
