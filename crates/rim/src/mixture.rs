//! Mixtures of Mallows models.
//!
//! The paper's MovieLens and CrowdRank experiments consume Mallows mixtures
//! learned by an external tool (Stoyanovich et al., WebDB 2016). This module
//! provides the mixture representation those experiments need, plus a simple
//! Lloyd-style fitting procedure that stands in for the external learner when
//! generating the synthetic MovieLens/CrowdRank-like datasets.

use crate::{kendall_tau, Item, MallowsModel, Ranking, Result, RimError};
use rand::Rng;
use std::collections::HashMap;

/// One component of a Mallows mixture: a mixing weight and a Mallows model.
#[derive(Debug, Clone)]
pub struct MixtureComponent {
    /// Mixing weight in `[0, 1]`; weights of a mixture sum to 1.
    pub weight: f64,
    /// The component's Mallows model.
    pub model: MallowsModel,
}

/// A finite mixture of Mallows models over a common item universe.
#[derive(Debug, Clone)]
pub struct MallowsMixture {
    components: Vec<MixtureComponent>,
}

impl MallowsMixture {
    /// Builds a mixture, validating that there is at least one component,
    /// that weights are non-negative and sum to 1, and that all components
    /// rank the same number of items.
    pub fn new(components: Vec<MixtureComponent>) -> Result<Self> {
        if components.is_empty() {
            return Err(RimError::InvalidMixture("no components".into()));
        }
        let total: f64 = components.iter().map(|c| c.weight).sum();
        if components.iter().any(|c| c.weight < 0.0) || (total - 1.0).abs() > 1e-6 {
            return Err(RimError::InvalidMixture(format!(
                "weights must be non-negative and sum to 1 (sum = {total})"
            )));
        }
        let m = components[0].model.num_items();
        if components.iter().any(|c| c.model.num_items() != m) {
            return Err(RimError::InvalidMixture(
                "components rank different numbers of items".into(),
            ));
        }
        Ok(MallowsMixture { components })
    }

    /// Builds a mixture with uniform weights.
    pub fn uniform(models: Vec<MallowsModel>) -> Result<Self> {
        let k = models.len();
        if k == 0 {
            return Err(RimError::InvalidMixture("no components".into()));
        }
        MallowsMixture::new(
            models
                .into_iter()
                .map(|model| MixtureComponent {
                    weight: 1.0 / k as f64,
                    model,
                })
                .collect(),
        )
    }

    /// The mixture components.
    pub fn components(&self) -> &[MixtureComponent] {
        &self.components
    }

    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Number of items ranked by the mixture.
    pub fn num_items(&self) -> usize {
        self.components[0].model.num_items()
    }

    /// Probability of a complete ranking under the mixture.
    pub fn prob_of(&self, tau: &Ranking) -> f64 {
        self.components
            .iter()
            .map(|c| c.weight * c.model.prob_of(tau))
            .sum()
    }

    /// Draws a component index according to the mixing weights.
    fn sample_component<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let weights: Vec<f64> = self.components.iter().map(|c| c.weight).collect();
        crate::rim::sample_index(&weights, rng)
    }

    /// Draws a random ranking from the mixture.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Ranking {
        let idx = self.sample_component(rng);
        self.components[idx].model.sample(rng)
    }

    /// Fits a `k`-component mixture to observed complete rankings with a
    /// simple hard-assignment (Lloyd-style) procedure:
    ///
    /// 1. initialise centres from `k` distinct observed rankings;
    /// 2. assign each ranking to the nearest centre (Kendall-tau);
    /// 3. re-estimate each centre by Borda aggregation of its cluster and its
    ///    dispersion by moment-matching the mean Kendall distance;
    /// 4. repeat for `iterations` rounds.
    ///
    /// This is a pragmatic substitute for the external mixture learner used in
    /// the paper; it produces mixtures with the statistical structure the
    /// downstream experiments require (several well-separated centres with
    /// per-cluster dispersions).
    pub fn fit<R: Rng + ?Sized>(
        rankings: &[Ranking],
        k: usize,
        iterations: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if rankings.is_empty() || k == 0 {
            return Err(RimError::InvalidMixture(
                "need at least one ranking and one component".into(),
            ));
        }
        let m = rankings[0].len();
        if rankings.iter().any(|r| r.len() != m) {
            return Err(RimError::InvalidMixture(
                "rankings have inconsistent lengths".into(),
            ));
        }
        let k = k.min(rankings.len());
        // Initialise centres from random distinct observations.
        let mut centers: Vec<Ranking> = Vec::with_capacity(k);
        let mut tries = 0;
        while centers.len() < k && tries < 50 * k {
            let cand = rankings[rng.gen_range(0..rankings.len())].clone();
            if !centers.contains(&cand) {
                centers.push(cand);
            }
            tries += 1;
        }
        while centers.len() < k {
            centers.push(rankings[centers.len() % rankings.len()].clone());
        }

        let mut assignment: Vec<usize> = vec![0; rankings.len()];
        for _ in 0..iterations.max(1) {
            // Assignment step.
            for (ri, r) in rankings.iter().enumerate() {
                let mut best = 0;
                let mut best_d = usize::MAX;
                for (ci, c) in centers.iter().enumerate() {
                    let d = kendall_tau(r, c);
                    if d < best_d {
                        best_d = d;
                        best = ci;
                    }
                }
                assignment[ri] = best;
            }
            // Update step.
            for (ci, center) in centers.iter_mut().enumerate() {
                let cluster: Vec<&Ranking> = rankings
                    .iter()
                    .zip(&assignment)
                    .filter(|(_, &a)| a == ci)
                    .map(|(r, _)| r)
                    .collect();
                if cluster.is_empty() {
                    continue;
                }
                *center = borda_center(&cluster);
            }
        }

        // Build the final components.
        let mut components = Vec::with_capacity(centers.len());
        for (ci, center) in centers.iter().enumerate() {
            let cluster: Vec<&Ranking> = rankings
                .iter()
                .zip(&assignment)
                .filter(|(_, &a)| a == ci)
                .map(|(r, _)| r)
                .collect();
            if cluster.is_empty() {
                continue;
            }
            let mean_dist = cluster
                .iter()
                .map(|r| kendall_tau(r, center) as f64)
                .sum::<f64>()
                / cluster.len() as f64;
            let phi = fit_phi_by_mean_distance(m, mean_dist);
            components.push(MixtureComponent {
                weight: cluster.len() as f64 / rankings.len() as f64,
                model: MallowsModel::new(center.clone(), phi)?,
            });
        }
        MallowsMixture::new(components)
    }
}

/// Borda aggregation: orders items by their average position in the cluster.
fn borda_center(cluster: &[&Ranking]) -> Ranking {
    let mut totals: HashMap<Item, (usize, usize)> = HashMap::new();
    for r in cluster {
        for (pos, &item) in r.items().iter().enumerate() {
            let e = totals.entry(item).or_insert((0, 0));
            e.0 += pos;
            e.1 += 1;
        }
    }
    let mut scored: Vec<(Item, f64)> = totals
        .into_iter()
        .map(|(item, (sum, n))| (item, sum as f64 / n as f64))
        .collect();
    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
    Ranking::new(scored.into_iter().map(|(item, _)| item).collect())
        .expect("each item appears once per ranking")
}

/// Expected Kendall-tau distance from the centre under `MAL(·, φ)` with `m`
/// items, derived from the insertion view: step `i` contributes the mean of
/// `0..i` weighted by `φ^k`.
fn expected_kendall_distance(m: usize, phi: f64) -> f64 {
    let mut total = 0.0;
    for i in 1..m {
        // Inserting the (i+1)-th item creates j displacements with weight φ^j.
        let mut num = 0.0;
        let mut den = 0.0;
        for j in 0..=i {
            let w = if j == 0 { 1.0 } else { phi.powi(j as i32) };
            num += j as f64 * w;
            den += w;
        }
        total += num / den;
    }
    total
}

/// Finds `φ` whose expected Kendall distance matches the observed mean, by
/// bisection over `[0, 1]`.
fn fit_phi_by_mean_distance(m: usize, mean_dist: f64) -> f64 {
    if mean_dist <= 1e-9 {
        return 0.0;
    }
    let max_expected = expected_kendall_distance(m, 1.0);
    if mean_dist >= max_expected {
        return 1.0;
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if expected_kendall_distance(m, mid) < mean_dist {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mixture_validation() {
        let m1 = MallowsModel::new(Ranking::identity(3), 0.2).unwrap();
        let m2 = MallowsModel::new(Ranking::identity(4), 0.2).unwrap();
        assert!(MallowsMixture::new(vec![]).is_err());
        assert!(MallowsMixture::new(vec![
            MixtureComponent {
                weight: 0.7,
                model: m1.clone()
            },
            MixtureComponent {
                weight: 0.7,
                model: m1.clone()
            },
        ])
        .is_err());
        assert!(MallowsMixture::new(vec![
            MixtureComponent {
                weight: 0.5,
                model: m1.clone()
            },
            MixtureComponent {
                weight: 0.5,
                model: m2
            },
        ])
        .is_err());
        assert!(MallowsMixture::uniform(vec![m1.clone(), m1]).is_ok());
    }

    #[test]
    fn mixture_probabilities_sum_to_one() {
        let m1 = MallowsModel::new(Ranking::identity(4), 0.2).unwrap();
        let m2 = MallowsModel::new(Ranking::new(vec![3, 2, 1, 0]).unwrap(), 0.6).unwrap();
        let mix = MallowsMixture::new(vec![
            MixtureComponent {
                weight: 0.3,
                model: m1,
            },
            MixtureComponent {
                weight: 0.7,
                model: m2,
            },
        ])
        .unwrap();
        let total: f64 = Ranking::enumerate_all(&[0, 1, 2, 3])
            .iter()
            .map(|t| mix.prob_of(t))
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expected_distance_monotone_in_phi() {
        let d1 = expected_kendall_distance(10, 0.1);
        let d2 = expected_kendall_distance(10, 0.5);
        let d3 = expected_kendall_distance(10, 1.0);
        assert!(d1 < d2 && d2 < d3);
        // Uniform case: expected distance is m(m-1)/4.
        assert!((d3 - 10.0 * 9.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn fit_recovers_two_well_separated_clusters() {
        let mut rng = StdRng::seed_from_u64(17);
        let c1 = MallowsModel::new(Ranking::identity(6), 0.2).unwrap();
        let c2 = MallowsModel::new(Ranking::new(vec![5, 4, 3, 2, 1, 0]).unwrap(), 0.2).unwrap();
        let mut data: Vec<Ranking> = (0..150).map(|_| c1.sample(&mut rng)).collect();
        data.extend((0..150).map(|_| c2.sample(&mut rng)));
        let mix = MallowsMixture::fit(&data, 2, 5, &mut rng).unwrap();
        assert_eq!(mix.num_components(), 2);
        // Each fitted centre should be close to one of the true centres.
        for comp in mix.components() {
            let d1 = kendall_tau(comp.model.sigma(), c1.sigma());
            let d2 = kendall_tau(comp.model.sigma(), c2.sigma());
            assert!(d1.min(d2) <= 3, "fitted centre too far from both truths");
            assert!(comp.weight > 0.3 && comp.weight < 0.7);
        }
    }

    #[test]
    fn sampling_uses_all_components() {
        let mut rng = StdRng::seed_from_u64(2);
        let m1 = MallowsModel::new(Ranking::identity(5), 0.0).unwrap();
        let m2 = MallowsModel::new(Ranking::new(vec![4, 3, 2, 1, 0]).unwrap(), 0.0).unwrap();
        let mix = MallowsMixture::uniform(vec![m1, m2]).unwrap();
        let mut seen_first = false;
        let mut seen_second = false;
        for _ in 0..100 {
            let t = mix.sample(&mut rng);
            if t.items() == [0, 1, 2, 3, 4] {
                seen_first = true;
            }
            if t.items() == [4, 3, 2, 1, 0] {
                seen_second = true;
            }
        }
        assert!(seen_first && seen_second);
    }
}
