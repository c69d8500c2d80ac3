//! The formulation of AMP sampling, proposal density and the mixture pass
//! that `amp.rs` ran on before it had a dense kernel, kept as the oracle the
//! kernel is held to bit for bit: a breadth-first walk of the `PartialOrder`
//! for every (inserted item, new item) pair, a `Ranking` per draw, `powi`
//! for every weight, a Kendall distance through hash lookups and a partition
//! function per probability.
//!
//! Compiled into tests only — `ppd_rim`'s own and, through a `#[path]`
//! include, `ppd_solvers`' — so it is written against `ppd_rim`'s public API
//! and shares no arithmetic helper with the code it checks. The one rule it
//! has in common with the kernel is the `φ → 0` limit (a range whose weights
//! sum to zero puts probability 1 on its highest position), which the old
//! code left as `0 / 0`.

use ppd_rim::{Item, PartialOrder, Ranking};
use rand::Rng;

fn pow_phi(phi: f64, k: usize) -> f64 {
    if k == 0 {
        1.0
    } else {
        phi.powi(k as i32)
    }
}

/// `AMP(center, φ, constraint)`, one `PartialOrder::implies` at a time.
pub struct AmpReference {
    center: Ranking,
    phi: f64,
    constraint: PartialOrder,
}

impl AmpReference {
    pub fn new(center: Ranking, phi: f64, constraint: &PartialOrder) -> Self {
        AmpReference {
            center,
            phi,
            constraint: constraint.transitive_closure().expect("acyclic"),
        }
    }

    fn feasible_range(&self, items: &[Item], item: Item, i: usize) -> (usize, usize) {
        let mut lo = 0usize;
        let mut hi = i;
        for (pos, &other) in items.iter().enumerate() {
            if self.constraint.implies(other, item) {
                lo = lo.max(pos + 1);
            }
            if self.constraint.implies(item, other) {
                hi = hi.min(pos);
            }
        }
        (lo, hi)
    }

    pub fn sample_with_prob<R: Rng + ?Sized>(&self, rng: &mut R) -> (Ranking, f64) {
        let mut items: Vec<Item> = Vec::new();
        let mut prob = 1.0;
        for i in 0..self.center.len() {
            let item = self.center.item_at(i);
            let (lo, hi) = self.feasible_range(&items, item, i);
            let weights: Vec<f64> = (lo..=hi).map(|j| pow_phi(self.phi, i - j)).collect();
            let total: f64 = weights.iter().sum();
            let mut u = rng.gen::<f64>() * total;
            let mut idx = weights.len() - 1;
            for (candidate, &w) in weights.iter().enumerate() {
                if u < w {
                    idx = candidate;
                    break;
                }
                u -= w;
            }
            if total > 0.0 {
                prob *= weights[idx] / total;
            }
            items.insert(lo + idx, item);
        }
        (Ranking::new(items).expect("distinct items"), prob)
    }

    pub fn prob_of(&self, tau: &Ranking) -> f64 {
        let m = self.center.len();
        if tau.len() != m {
            return 0.0;
        }
        let mut items: Vec<Item> = Vec::new();
        let mut prob = 1.0;
        for i in 0..m {
            let item = self.center.item_at(i);
            let Some(pos_final) = tau.position_of(item) else {
                return 0.0;
            };
            let j = items
                .iter()
                .filter(|&&other| tau.position_of(other).is_some_and(|p| p < pos_final))
                .count();
            let (lo, hi) = self.feasible_range(&items, item, i);
            if j < lo || j > hi {
                return 0.0;
            }
            let total: f64 = (lo..=hi).map(|jj| pow_phi(self.phi, i - jj)).sum();
            if total > 0.0 {
                prob *= pow_phi(self.phi, i - j) / total;
            } else if j != hi {
                return 0.0;
            }
            items.insert(j, item);
        }
        prob
    }
}

/// `Σ_i coefficients[i] · q_i(τ)` in slice order, skipping zero coefficients.
pub fn mix_prob_of(proposals: &[AmpReference], coefficients: &[f64], tau: &Ranking) -> f64 {
    let mut mix = 0.0;
    for (proposal, &coefficient) in proposals.iter().zip(coefficients) {
        if coefficient > 0.0 {
            mix += coefficient * proposal.prob_of(tau);
        }
    }
    mix
}

/// `φ^{dist(σ, τ)} / Z` for `τ` over `σ`'s items, with the distance counted
/// pair by pair and `Z` multiplied up from `m` separately summed factors.
fn mallows_prob_of(sigma: &Ranking, phi: f64, tau: &Ranking) -> f64 {
    let items = sigma.items();
    let mut distance = 0;
    for (i, &x) in items.iter().enumerate() {
        for &y in &items[i + 1..] {
            let in_tau = |item| tau.position_of(item).expect("τ ranks σ's items");
            if in_tau(x) > in_tau(y) {
                distance += 1;
            }
        }
    }
    let mut z = 1.0;
    for k in 1..=items.len() {
        z *= (0..k).map(|e| pow_phi(phi, e)).sum::<f64>();
    }
    pow_phi(phi, distance) / z
}

/// One mixture sampling pass, a `Ranking` per draw: `(Σw, Σw², draws on
/// which the mixture density was zero)`.
pub fn mixture_pass<R: Rng + ?Sized>(
    sigma: &Ranking,
    phi: f64,
    proposals: &[AmpReference],
    allocation: &[usize],
    coefficients: &[f64],
    rng: &mut R,
) -> (f64, f64, usize) {
    let (mut sum, mut sum_squares, mut zero_density) = (0.0, 0.0, 0);
    for (proposal, &quota) in proposals.iter().zip(allocation) {
        for _ in 0..quota {
            let (tau, _) = proposal.sample_with_prob(rng);
            let p = mallows_prob_of(sigma, phi, &tau);
            let mix = mix_prob_of(proposals, coefficients, &tau);
            if mix > 0.0 {
                let w = p / mix;
                sum += w;
                sum_squares += w * w;
            } else {
                zero_density += 1;
            }
        }
    }
    (sum, sum_squares, zero_density)
}
