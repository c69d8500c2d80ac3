//! AMP: the Approximate Mallows Posterior sampler (Lu & Boutilier 2014),
//! used here both as a conditioned sampler and as an importance-sampling
//! proposal distribution.
//!
//! # Index space
//!
//! Sampling and density evaluation run on **centre positions**: item `i` is
//! the `i`-th item of the sampler's centre ranking, and a ranking is the
//! array of ranks it gives those items, indexed by `i`. A draw builds it by
//! insertion (item `i` at rank `j` bumps the entries `≥ j` and appends `j`).
//! A density walk reads it complete and keeps the final ranks inserted so
//! far as a **rank mask** of `⌈m/64⌉` `u64` limbs: item `i` goes in at the
//! popcount below its own final rank, and an earlier item `k` — what bounds
//! a constrained step — sits at the popcount below `k`'s. [`AmpMixture`]
//! counts a draw's inversions on the same mask. No `Ranking`, hash map or
//! `PartialOrder` is touched per draw. The public methods taking or
//! returning a [`Ranking`] translate at the edge and run the same two walks
//! ([`AmpSampler::sample_with_prob_into`] and
//! `AmpSampler::prob_of_with_scratch` are thin adapters), and
//! [`AmpMixture`] runs a whole balance-heuristic pass over a pool of
//! samplers without leaving integer arrays.
//!
//! # Precomputed in [`AmpSampler::new`]
//!
//! * `φ^k` for `k < m`, filled by the one `pow_phi` every other Mallows
//!   quantity in the crate uses;
//! * the normaliser `Σ_j φ^{i−j}` of an unconstrained insertion step `i`,
//!   and its **step quotients** `φ^{i−j} / Σ_j φ^{i−j}`, a triangular table
//!   a step whose range is all of `0..=i` reads instead of dividing;
//! * the transitively-closed constraint as an `m × m` table over centre
//!   positions (row `i` says, for each earlier item `k < i`, whether `k`
//!   must stay before `i`, after it, or is unrelated) — any `m`, no bitset
//!   width to outgrow;
//! * per item, whether any earlier item constrains it at all; an
//!   unconstrained step skips the range scan.
//!
//! [`AmpMixture::new`] adds the **Kendall powers** `φ^k` for every inversion
//! count `k ≤ m(m−1)/2`, once per pass.
//!
//! # Bit rules
//!
//! Every estimate built on this module is pinned bit for bit, so the walks
//! keep three orders fixed:
//!
//! 1. **Draw order** — one `gen::<f64>()` per insertion step, steps in
//!    centre order, whatever the feasible range (a forced step still
//!    consumes its variate).
//! 2. **Fold order** — a step's weights `φ^{i−j}` are summed left to right
//!    for `j = lo..=hi`, the variate is scaled by that sum and walked
//!    through the same weights in the same order, and the running
//!    probability is multiplied by `w / total` step by step. A step-quotient
//!    entry is that same `w / total` division, done once, so it is the same
//!    `f64`; a draw's probability is the product the density walk forms for
//!    what it drew, so [`AmpMixture`] reuses it as that proposal's density.
//! 3. **Pool order** — a mixture density is `Σ_s c_s · q_s(τ)` accumulated
//!    in slice order, skipping components whose coefficient is zero.
//!
//! A range whose weights sum to zero (`φ = 0`, or `φ` so small that its
//! powers underflow, with a constraint the centre violates) is the `φ → 0`
//! limit: all of its mass sits on its highest position, which is drawn with
//! probability 1.

use crate::mallows::pow_phi;
use crate::{Item, MallowsModel, PartialOrder, Ranking, Result, RimError, SubRanking};
use rand::Rng;

/// Reusable scratch buffers for [`AmpSampler`]'s walks: a draw's ranks of
/// the centre items, a complete ranking's ranks of them (a density walk's
/// input), the rank mask of a density walk or an inversion count, and the
/// drawn items on their way into a [`Ranking`]. Reusing one across calls
/// removes every per-call allocation; results do not depend on its contents.
#[derive(Debug, Clone, Default)]
pub struct AmpScratch {
    placed: Vec<u32>,
    tpos: Vec<u32>,
    mask: Vec<u64>,
    items: Vec<Item>,
}

/// How an earlier centre item `k < i` constrains the insertion of item `i`.
const UNRELATED: u8 = 0;
/// `k ≻ i`: `k` must stay before `i`.
const STAYS_BEFORE: u8 = 1;
/// `i ≻ k`: `i` must be placed before `k`.
const STAYS_AFTER: u8 = 2;

/// `AMP(σ, φ, υ)`: a sampler over rankings consistent with a partial order
/// `υ`, obtained by running the Mallows repeated-insertion procedure while
/// restricting each insertion to positions that do not violate `υ`
/// (Section 2.2, Example 2.2 of the paper).
///
/// Besides sampling, the type evaluates the probability `q(τ)` with which it
/// would generate a given ranking — the quantity needed to re-weight samples
/// in the importance-sampling estimators of Section 5.
#[derive(Debug, Clone)]
pub struct AmpSampler {
    center: Ranking,
    phi: f64,
    /// `pow[k] = φ^k` for `k < m`.
    pow: Vec<f64>,
    /// `full[i] = Σ_{j=0..=i} φ^{i−j}`, folded in `j` order.
    full: Vec<f64>,
    /// `quotient[i(i+1)/2 + j] = pow[i − j] / full[i]` for `j ≤ i`.
    quotient: Vec<f64>,
    /// Row `i`, column `k < i`: the closed constraint between centre items
    /// `k` and `i` (`m × m`, row-major; columns `k ≥ i` are unused).
    relation: Vec<u8>,
    /// `constrained[i]`: row `i` of `relation` has an entry for some `k < i`.
    constrained: Vec<bool>,
}

impl AmpSampler {
    /// Builds an AMP sampler for `MAL(center, phi)` conditioned on the partial
    /// order `constraint`. Every item mentioned by the constraint must be
    /// ranked by the model.
    pub fn new(center: Ranking, phi: f64, constraint: &PartialOrder) -> Result<Self> {
        if !(0.0..=1.0).contains(&phi) || phi.is_nan() {
            return Err(RimError::InvalidPhi(phi));
        }
        for item in constraint.items() {
            if !center.contains(item) {
                return Err(RimError::IncompatibleConstraint(format!(
                    "constraint item {item} is not ranked by the model"
                )));
            }
        }
        let m = center.len();
        let pow: Vec<f64> = (0..m).map(|k| pow_phi(phi, k)).collect();
        let full: Vec<f64> = (0..m).map(|i| pow[..=i].iter().rev().sum()).collect();
        let mut quotient = Vec::with_capacity(m * (m + 1) / 2);
        for (i, &total) in full.iter().enumerate() {
            quotient.extend(pow[..=i].iter().rev().map(|&w| w / total));
        }
        let mut relation = vec![UNRELATED; m * m];
        let mut constrained = vec![false; m];
        for (a, b) in constraint.transitive_closure()?.edges() {
            let rank = |item| center.position_of(item).expect("checked above");
            let (a, b) = (rank(a), rank(b));
            let (later, earlier, kind) = if a < b {
                (b, a, STAYS_BEFORE)
            } else {
                (a, b, STAYS_AFTER)
            };
            relation[later * m + earlier] = kind;
            constrained[later] = true;
        }
        Ok(AmpSampler {
            center,
            phi,
            pow,
            full,
            quotient,
            relation,
            constrained,
        })
    }

    /// Convenience constructor conditioning on a sub-ranking (a chain).
    pub fn for_subranking(center: Ranking, phi: f64, psi: &SubRanking) -> Result<Self> {
        let chain = PartialOrder::from_subranking(psi);
        AmpSampler::new(center, phi, &chain)
    }

    /// Convenience constructor from a [`MallowsModel`].
    pub fn from_model(model: &MallowsModel, constraint: &PartialOrder) -> Result<Self> {
        AmpSampler::new(model.sigma().clone(), model.phi(), constraint)
    }

    /// The centre ranking of the underlying Mallows model.
    pub fn center(&self) -> &Ranking {
        &self.center
    }

    /// The dispersion parameter of the underlying Mallows model.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Draws a ranking consistent with the constraint and returns it together
    /// with the probability with which this sampler generated it.
    pub fn sample_with_prob<R: Rng + ?Sized>(&self, rng: &mut R) -> (Ranking, f64) {
        let mut scratch = AmpScratch::default();
        let mut out = Ranking::new(Vec::new()).expect("the empty ranking is valid");
        let prob = self.sample_with_prob_into(rng, &mut scratch, &mut out);
        (out, prob)
    }

    /// [`AmpSampler::sample_with_prob`] into reused buffers: the sampled
    /// ranking replaces `out`'s contents and the probability is returned.
    /// Draws the same random variates and performs the same arithmetic as
    /// the allocating entry point, so results are bit-identical.
    pub fn sample_with_prob_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut AmpScratch,
        out: &mut Ranking,
    ) -> f64 {
        let prob = self.draw(rng, &mut scratch.placed);
        scratch.items.resize(scratch.placed.len(), 0);
        for (&item, &rank) in self.center.items().iter().zip(&scratch.placed) {
            scratch.items[rank as usize] = item;
        }
        out.assign(&scratch.items)
            .expect("AMP inserts distinct items");
        prob
    }

    /// Draws a ranking consistent with the constraint.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Ranking {
        self.sample_with_prob(rng).0
    }

    /// The probability `q(τ)` that this sampler generates the complete ranking
    /// `τ`; 0 when `τ` is not over the model's items or is inconsistent with
    /// the constraint.
    pub fn prob_of(&self, tau: &Ranking) -> f64 {
        let mut scratch = AmpScratch::default();
        self.prob_of_with_scratch(tau, &mut scratch)
    }

    /// [`AmpSampler::prob_of`] with reused buffers; bit-identical results.
    pub(crate) fn prob_of_with_scratch(&self, tau: &Ranking, scratch: &mut AmpScratch) -> f64 {
        if !self.translate(tau, &mut scratch.tpos) {
            return 0.0;
        }
        self.density(&scratch.tpos, &mut scratch.mask)
    }

    /// Fills `tpos` with the rank `τ` gives each centre item; `false` when
    /// `τ` does not rank exactly the centre's items.
    fn translate(&self, tau: &Ranking, tpos: &mut Vec<u32>) -> bool {
        let items = self.center.items();
        tpos.clear();
        tpos.extend(
            items
                .iter()
                .map_while(|&item| Some(tau.position_of(item)? as u32)),
        );
        tau.len() == items.len() && tpos.len() == items.len()
    }

    /// The density `Σ_i coefficients[i] · q_i(tau)` of a **mixture** of AMP
    /// proposals, accumulated in slice order: the balance-heuristic
    /// denominator of the MIS estimators (Eq. 6 of the paper), a component's
    /// coefficient being its share of the sample budget. Zero-coefficient
    /// components are skipped; every other one runs the density walk of
    /// `AmpSampler::prob_of_with_scratch`, and consecutive ones with the same
    /// centre share one translation of `tau`. A sampling loop should run on
    /// [`AmpMixture`] instead, which never materialises `tau`.
    pub fn mix_prob_of(
        samplers: &[AmpSampler],
        coefficients: &[f64],
        tau: &Ranking,
        scratch: &mut AmpScratch,
    ) -> f64 {
        debug_assert_eq!(
            samplers.len(),
            coefficients.len(),
            "one mixture coefficient per proposal"
        );
        let mut mix = 0.0;
        let mut translated = None; // the centre `scratch.tpos` translates `tau` for
        for (sampler, &coefficient) in samplers.iter().zip(coefficients) {
            if coefficient > 0.0 {
                let centre = sampler.center.items();
                if translated != Some(centre) {
                    translated = sampler.translate(tau, &mut scratch.tpos).then_some(centre);
                }
                let q =
                    translated.map_or(0.0, |_| sampler.density(&scratch.tpos, &mut scratch.mask));
                mix += coefficient * q;
            }
        }
        mix
    }

    /// Feasible insertion range `[lo, hi]` (inclusive) of centre item `i`.
    /// `keys[k]` orders the centre items `k < i` as the partial ranking does,
    /// and `rank(key)` is the rank among them of the item holding `key`.
    fn feasible_range(
        &self,
        i: usize,
        keys: &[u32],
        rank: impl Fn(u32) -> usize,
    ) -> (usize, usize) {
        if !self.constrained[i] {
            return (0, i);
        }
        // The last item `i` must follow and the first it must precede.
        let (mut last_before, mut first_after) = (None, None::<u32>);
        let row = &self.relation[i * self.center.len()..][..i];
        for (&kind, &key) in row.iter().zip(keys) {
            match kind {
                STAYS_BEFORE => last_before = last_before.max(Some(key)),
                STAYS_AFTER => first_after = Some(first_after.map_or(key, |k| k.min(key))),
                _ => {}
            }
        }
        let lo = last_before.map_or(0, |key| rank(key) + 1);
        let hi = first_after.map_or(i, rank);
        debug_assert!(lo <= hi, "transitively closed constraint keeps range valid");
        (lo, hi)
    }

    /// `Σ_{j=lo..=hi} φ^{i−j}`, folded in `j` order: the normaliser of
    /// insertion step `i` over the feasible range `[lo, hi]`.
    fn range_mass(&self, i: usize, lo: usize, hi: usize) -> f64 {
        if lo == 0 && hi == i {
            self.full[i]
        } else {
            self.pow[i - hi..=i - lo].iter().rev().sum()
        }
    }

    /// The sampling walk: leaves the drawn ranking in `placed` (the rank of
    /// each centre item) and returns the probability of the draw.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R, placed: &mut Vec<u32>) -> f64 {
        placed.clear();
        let mut prob = 1.0;
        for i in 0..self.center.len() {
            let (lo, hi) = self.feasible_range(i, placed, |rank| rank as usize);
            let total = self.range_mass(i, lo, hi);
            // Inverse-CDF walk over the weights φ^{i−j}, j = lo..=hi; the
            // last position takes whatever rounding leaves over — and the
            // whole of a zero-mass range, with probability 1.
            let mut u = rng.gen::<f64>() * total;
            let mut j = hi;
            for candidate in lo..hi {
                let w = self.pow[i - candidate];
                if u < w {
                    j = candidate;
                    break;
                }
                u -= w;
            }
            if lo == 0 && hi == i {
                prob *= self.quotient[i * (i + 1) / 2 + j];
            } else if total > 0.0 {
                prob *= self.pow[i - j] / total;
            }
            insert_at_rank(placed, j);
        }
        prob
    }

    /// The density walk: `q(τ)` for the complete ranking that puts centre
    /// item `i` at rank `tpos[i]`. `mask` is scratch.
    fn density(&self, tpos: &[u32], mask: &mut Vec<u64>) -> f64 {
        debug_assert_eq!(tpos.len(), self.center.len());
        mask.clear();
        mask.resize(tpos.len().div_ceil(64), 0);
        let mut prob = 1.0;
        for (i, &rank) in tpos.iter().enumerate() {
            // Where τ puts item i among the items inserted before it.
            let j = count_below(mask, rank);
            let (lo, hi) = self.feasible_range(i, tpos, |key| count_below(mask, key));
            if j < lo || j > hi {
                return 0.0;
            }
            let total = self.range_mass(i, lo, hi);
            if lo == 0 && hi == i {
                prob *= self.quotient[i * (i + 1) / 2 + j];
            } else if total > 0.0 {
                prob *= self.pow[i - j] / total;
            } else if j != hi {
                return 0.0;
            }
            mask[rank as usize / 64] |= 1 << (rank % 64);
        }
        prob
    }
}

/// Inserts the next centre item at rank `j` of the partial ranking whose
/// items have the ranks `placed`: everything at or after `j` moves down one.
fn insert_at_rank(placed: &mut Vec<u32>, j: usize) {
    let j = j as u32;
    for rank in placed.iter_mut() {
        *rank += u32::from(*rank >= j);
    }
    placed.push(j);
}

/// How many of the ranks in `mask` are below `rank`.
fn count_below(mask: &[u64], rank: u32) -> usize {
    let (limb, bit) = (rank as usize / 64, rank % 64);
    let below: u32 = mask[..limb].iter().map(|l| l.count_ones()).sum();
    (below + (mask[limb] & ((1 << bit) - 1)).count_ones()) as usize
}

/// The inversions of `ranks`, a permutation of `0..ranks.len()`: how many
/// earlier entries exceed each entry, read off their rank mask.
fn inversions(ranks: &[u32], mask: &mut Vec<u64>) -> usize {
    mask.clear();
    mask.resize(ranks.len().div_ceil(64), 0);
    let mut count = 0;
    for (r, &rank) in ranks.iter().enumerate() {
        count += r - count_below(mask, rank);
        mask[rank as usize / 64] |= 1 << (rank % 64);
    }
    count
}

/// One balance-heuristic sampling pass over a pool of AMP proposals for a
/// Mallows model, on integer arrays from draw to weight: a draw from any
/// proposal is held as the rank of each item of the model's centre `σ`, so
/// the model's probability of it is `φ^inversions / Z`, with the inversions
/// counted on a rank mask and `φ^k` and `Z` computed once for the pass. Its
/// density under the proposal that drew it is the draw's own probability,
/// and under every other proposal one allocation-free rank-mask walk,
/// linear in `m`. Proposals may be centred anywhere (the MIS estimators
/// centre them on posterior modes), as long as they rank exactly the
/// model's items.
///
/// The arithmetic and the random variates are those of
/// [`AmpSampler::sample_with_prob_into`], [`MallowsModel::prob_of`] and
/// [`AmpSampler::mix_prob_of`] on the same ranking, bit for bit.
#[derive(Debug)]
pub struct AmpMixture<'a> {
    samplers: &'a [AmpSampler],
    partition_function: f64,
    /// `kendall_pow[k] = φ^k` for every inversion count `k ≤ m(m−1)/2`.
    kendall_pow: Vec<f64>,
    /// Row `s`, column `k`: the position in `σ` of proposal `s`'s `k`-th
    /// centre item (`d × m`, row-major).
    to_sigma: Vec<u32>,
    /// The current draw: `ranks[r]` is the rank of `σ`'s `r`-th item (`σ`
    /// itself until the first draw).
    ranks: Vec<u32>,
    /// The current draw's inversions against `σ`.
    inversions: usize,
    /// The proposal the current draw came from, and its probability there.
    drawn: Option<(usize, f64)>,
    scratch: AmpScratch,
}

impl<'a> AmpMixture<'a> {
    /// Prepares a pass over `samplers`, each of which must rank exactly the
    /// items of `model`.
    pub fn new(model: &MallowsModel, samplers: &'a [AmpSampler]) -> Result<Self> {
        let sigma = model.sigma();
        let m = sigma.len();
        let mut to_sigma = Vec::with_capacity(samplers.len() * m);
        for sampler in samplers {
            if sampler.center.len() != m {
                return Err(RimError::IncompatibleConstraint(format!(
                    "a proposal ranks {} items, the model {m}",
                    sampler.center.len()
                )));
            }
            for &item in sampler.center.items() {
                let rank = sigma.position_of(item).ok_or(RimError::UnknownItem(item))?;
                to_sigma.push(rank as u32);
            }
        }
        Ok(AmpMixture {
            samplers,
            partition_function: model.partition_function(),
            kendall_pow: (0..=m * m.saturating_sub(1) / 2)
                .map(|k| pow_phi(model.phi(), k))
                .collect(),
            to_sigma,
            ranks: (0..m as u32).collect(),
            inversions: 0,
            drawn: None,
            scratch: AmpScratch::default(),
        })
    }

    /// Draws the pass's current ranking from proposal `s` and returns the
    /// probability with which that proposal generated it.
    pub fn draw<R: Rng + ?Sized>(&mut self, s: usize, rng: &mut R) -> f64 {
        let prob = self.samplers[s].draw(rng, &mut self.scratch.placed);
        let m = self.ranks.len();
        let to_sigma = &self.to_sigma[s * m..][..m];
        for (&r, &rank) in to_sigma.iter().zip(&self.scratch.placed) {
            self.ranks[r as usize] = rank;
        }
        self.inversions = inversions(&self.ranks, &mut self.scratch.mask);
        self.drawn = Some((s, prob));
        prob
    }

    /// The probability `φ^{dist(σ, τ)} / Z` the model gives the current
    /// draw `τ`.
    pub fn model_prob(&self) -> f64 {
        self.kendall_pow[self.inversions] / self.partition_function
    }

    /// The mixture density `Σ_s coefficients[s] · q_s(τ)` of the current
    /// draw, accumulated in pool order; zero-coefficient proposals are
    /// skipped, and the drawing proposal's term reuses the draw's
    /// probability.
    pub fn density(&mut self, coefficients: &[f64]) -> f64 {
        debug_assert_eq!(
            self.samplers.len(),
            coefficients.len(),
            "one mixture coefficient per proposal"
        );
        let mut mix = 0.0;
        for (s, (sampler, &coefficient)) in self.samplers.iter().zip(coefficients).enumerate() {
            if coefficient > 0.0 {
                let q = match self.drawn {
                    Some((drawn, q)) if drawn == s => q,
                    _ => {
                        let AmpScratch { tpos, mask, .. } = &mut self.scratch;
                        let m = self.ranks.len();
                        let to_sigma = &self.to_sigma[s * m..][..m];
                        tpos.clear();
                        tpos.extend(to_sigma.iter().map(|&r| self.ranks[r as usize]));
                        sampler.density(tpos, mask)
                    }
                };
                mix += coefficient * q;
            }
        }
        mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amp_reference::{self, AmpReference};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{RngCore, SeedableRng};

    /// Dispersions the kernel is held to the reference at: the `φ → 0`
    /// limit, a `φ` whose third power underflows to zero, uniform, and three
    /// in between — 0.3 and 0.9 because their powers, unlike those of 0.5,
    /// do not add up exactly, so a fold in the wrong order shows.
    const PHIS: [f64; 6] = [0.0, 1e-160, 0.3, 0.5, 0.9, 1.0];

    /// A random ranking of the items `100..100 + m` (so that no item is its
    /// own position).
    fn random_ranking(m: usize, rng: &mut StdRng) -> Ranking {
        let mut items: Vec<Item> = (100..100 + m as Item).collect();
        items.shuffle(rng);
        Ranking::new(items).unwrap()
    }

    /// A random constraint over some of `ranking`'s items, unrelated to the
    /// order `ranking` puts them in: nothing, a chain, or a few components
    /// (edges that follow a hidden random order, so acyclic) next to items
    /// that are mentioned but left unconstrained.
    fn random_constraint(ranking: &Ranking, shape: usize, rng: &mut StdRng) -> PartialOrder {
        let mut hidden: Vec<Item> = ranking.items().to_vec();
        hidden.shuffle(rng);
        let m = hidden.len();
        match shape % 3 {
            0 => PartialOrder::new(),
            1 => {
                let length = rng.gen_range(0..=m.min(6));
                PartialOrder::from_subranking(&SubRanking::new(hidden[..length].to_vec()).unwrap())
            }
            _ => {
                let mut order = PartialOrder::new();
                for _ in 0..rng.gen_range(0..=m) {
                    let (a, b) = (rng.gen_range(0..m), rng.gen_range(0..m));
                    if a != b {
                        order.add_edge(hidden[a.min(b)], hidden[a.max(b)]).unwrap();
                    }
                }
                if let Some(&isolated) = hidden.first() {
                    order.add_item(isolated);
                }
                order
            }
        }
    }

    /// Draws from the kernel and the reference off equally seeded streams
    /// and requires the same ranking, the same probability bits, the same
    /// density bits for that ranking and for an arbitrary one, and streams
    /// left at the same place.
    fn assert_walks_match_reference(m: usize, phi: f64, shape: usize, seed: u64, draws: usize) {
        let mut setup = StdRng::seed_from_u64(seed);
        let center = random_ranking(m, &mut setup);
        let constraint = random_constraint(&center, shape, &mut setup);
        let kernel = AmpSampler::new(center.clone(), phi, &constraint).unwrap();
        let reference = AmpReference::new(center, phi, &constraint);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut reference_rng = rng.clone();
        let mut scratch = AmpScratch::default();
        let mut tau = Ranking::identity(0);
        for _ in 0..draws {
            let q = kernel.sample_with_prob_into(&mut rng, &mut scratch, &mut tau);
            let (expected, expected_q) = reference.sample_with_prob(&mut reference_rng);
            assert_eq!(tau, expected, "m={m} φ={phi} shape={shape} seed={seed}");
            assert_eq!(q.to_bits(), expected_q.to_bits(), "q of {tau}");
            assert!(q.is_finite());
            let other = random_ranking(m, &mut setup);
            for ranking in [&tau, &other] {
                assert_eq!(
                    kernel.prob_of_with_scratch(ranking, &mut scratch).to_bits(),
                    reference.prob_of(ranking).to_bits(),
                    "density of {ranking}, m={m} φ={phi} shape={shape} seed={seed}"
                );
            }
        }
        assert_eq!(rng.next_u64(), reference_rng.next_u64());
    }

    /// The density walk of proposal `s` at the pass's current draw, run
    /// afresh rather than reused from the draw.
    fn recomputed_density(pass: &AmpMixture, s: usize) -> f64 {
        let m = pass.ranks.len();
        let to_sigma = &pass.to_sigma[s * m..][..m];
        let tpos: Vec<u32> = to_sigma.iter().map(|&r| pass.ranks[r as usize]).collect();
        pass.samplers[s].density(&tpos, &mut Vec::new())
    }

    /// Runs a mixture pass on [`AmpMixture`] and on the reference's
    /// `Ranking`-per-draw pass off equally seeded streams, requiring the same
    /// Σw, Σw² and zero-density count, the streams left at the same place,
    /// and every draw's probability equal to its proposal's recomputed
    /// density (the term the pass reuses). Returns the zero-density count.
    fn run_pass_against_reference(
        model: &MallowsModel,
        kernels: &[AmpSampler],
        references: &[AmpReference],
        allocation: &[usize],
        coefficients: &[f64],
        seed: u64,
    ) -> usize {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut reference_rng = rng.clone();
        let (mut sum, mut sum_squares, mut zero_density) = (0.0, 0.0, 0);
        let mut pass = AmpMixture::new(model, kernels).unwrap();
        for (s, &quota) in allocation.iter().enumerate() {
            for _ in 0..quota {
                let q = pass.draw(s, &mut rng);
                assert_eq!(q.to_bits(), recomputed_density(&pass, s).to_bits());
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
        let expected = amp_reference::mixture_pass(
            model.sigma(),
            model.phi(),
            references,
            allocation,
            coefficients,
            &mut reference_rng,
        );
        assert_eq!(
            (sum.to_bits(), sum_squares.to_bits(), zero_density),
            (expected.0.to_bits(), expected.1.to_bits(), expected.2)
        );
        assert_eq!(rng.next_u64(), reference_rng.next_u64());
        zero_density
    }

    /// A whole mixture pass on [`AmpMixture`] — proposals centred anywhere,
    /// an uneven allocation with zero-quota proposals — against the
    /// reference's pass.
    fn assert_pass_matches_reference(m: usize, phi: f64, pool: usize, budget: usize, seed: u64) {
        let mut setup = StdRng::seed_from_u64(seed);
        let model = MallowsModel::new(random_ranking(m, &mut setup), phi).unwrap();
        let mut kernels = Vec::new();
        let mut references = Vec::new();
        for shape in 0..pool {
            let mut center = model.sigma().items().to_vec();
            center.shuffle(&mut setup);
            let center = Ranking::new(center).unwrap();
            let constraint = random_constraint(&center, shape + 1, &mut setup);
            kernels.push(AmpSampler::new(center.clone(), phi, &constraint).unwrap());
            references.push(AmpReference::new(center, phi, &constraint));
        }
        // Front-loaded like the estimators' stratified split, with the
        // tail of the pool left without a single draw.
        let allocation: Vec<usize> = (0..pool)
            .map(|s| {
                if s < pool.div_ceil(2) {
                    budget / (s + 1)
                } else {
                    0
                }
            })
            .collect();
        let total: usize = allocation.iter().sum();
        let coefficients: Vec<f64> = allocation
            .iter()
            .map(|&n| {
                if total == 0 {
                    0.0
                } else {
                    n as f64 / total as f64
                }
            })
            .collect();
        run_pass_against_reference(
            &model,
            &kernels,
            &references,
            &allocation,
            &coefficients,
            seed,
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn walks_match_the_reference_bit_for_bit(
            m in 0usize..=12,
            phi in 0usize..PHIS.len(),
            shape in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            assert_walks_match_reference(m, PHIS[phi], shape, seed, 6);
        }

        #[test]
        fn mixture_pass_matches_the_reference_pass(
            m in 1usize..=10,
            phi in 0usize..PHIS.len(),
            pool in 1usize..=5,
            budget in 0usize..=40,
            seed in 0u64..1_000_000,
        ) {
            assert_pass_matches_reference(m, PHIS[phi], pool, budget, seed);
        }
    }

    /// Sizes on either side of a limb boundary of the rank mask: a rank that
    /// is a multiple of 64 opens a limb, and at 65 and 129 the top limb holds
    /// one bit.
    const LIMB_EDGES: [usize; 7] = [63, 64, 65, 127, 128, 129, 130];

    #[test]
    fn walks_match_the_reference_past_any_machine_word() {
        for m in LIMB_EDGES {
            for (pi, phi) in PHIS.into_iter().enumerate() {
                let seed = (m * 10 + pi) as u64;
                for shape in 0..3 {
                    assert_walks_match_reference(m, phi, shape, seed, 2);
                }
                assert_pass_matches_reference(m, phi, 3, 4, seed);
            }
        }
    }

    #[test]
    fn mask_inversions_are_the_kendall_inversions() {
        let mut rng = StdRng::seed_from_u64(35);
        let mut mask = vec![u64::MAX; 5];
        for m in (0..=12).chain(LIMB_EDGES) {
            for _ in 0..8 {
                let mut ranks: Vec<u32> = (0..m as u32).collect();
                ranks.shuffle(&mut rng);
                let expected = crate::kendall::inversions(&ranks);
                assert_eq!(inversions(&ranks, &mut mask), expected, "m={m}");
            }
            let reversed: Vec<u32> = (0..m as u32).rev().collect();
            assert_eq!(
                inversions(&reversed, &mut mask),
                m * m.saturating_sub(1) / 2
            );
        }
    }

    #[test]
    fn zero_mass_steps_reuse_the_drawn_density_bit_for_bit() {
        // Centres that violate their constraints at φ = 0 and at a φ whose
        // fourth power underflows: items 4 and 0 force zero-mass steps (the
        // φ → 0 limit), and 3 ≻ 1 a range whose mass is a subnormal. A draw's
        // probability is reused as its proposal's density, so it must be
        // that density bit for bit; under the second coefficients the
        // drawing proposals do not count and draws land at zero density.
        for phi in [0.0, 1e-160] {
            let model = MallowsModel::new(Ranking::identity(5), phi).unwrap();
            let proposals = [
                (vec![0, 1, 2, 3, 4], vec![(4, 0), (3, 1)]),
                (vec![4, 3, 2, 1, 0], vec![(0, 4)]),
                (vec![0, 1, 2, 3, 4], vec![]),
            ];
            let mut kernels = Vec::new();
            let mut references = Vec::new();
            for (center, pairs) in proposals {
                let center = Ranking::new(center).unwrap();
                let constraint = PartialOrder::from_pairs(&pairs).unwrap();
                kernels.push(AmpSampler::new(center.clone(), phi, &constraint).unwrap());
                references.push(AmpReference::new(center, phi, &constraint));
            }
            let allocation = [6, 3, 2];
            let mixed = [0.5, 0.25, 0.25];
            run_pass_against_reference(&model, &kernels, &references, &allocation, &mixed, 7);
            let zero_density = run_pass_against_reference(
                &model,
                &kernels,
                &references,
                &allocation,
                &[0.0, 0.0, 1.0],
                7,
            );
            assert_eq!(zero_density, 9, "φ={phi}");
        }
    }

    #[test]
    fn zero_dispersion_with_a_violated_constraint_is_the_limit_not_nan() {
        // φ = 0 and a constraint the centre violates: item 3 may only go
        // before item 0, where every weight is 0^k = 0. The φ → 0 limit puts
        // it at the highest feasible position with probability 1 — in debug
        // and release builds alike.
        let constraint = PartialOrder::from_pairs(&[(3, 0)]).unwrap();
        let amp = AmpSampler::new(Ranking::identity(4), 0.0, &constraint).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let (tau, q) = amp.sample_with_prob(&mut rng);
        assert_eq!(tau.items(), &[3, 0, 1, 2]);
        assert_eq!(q, 1.0);
        assert_eq!(amp.prob_of(&tau), 1.0);
        for other in Ranking::enumerate_all(&[0, 1, 2, 3]) {
            if other != tau {
                assert_eq!(amp.prob_of(&other), 0.0, "{other}");
            }
        }
    }

    #[test]
    fn unconstrained_amp_equals_mallows() {
        let sigma = Ranking::identity(4);
        let phi = 0.3;
        let amp = AmpSampler::new(sigma.clone(), phi, &PartialOrder::new()).unwrap();
        let mal = MallowsModel::new(sigma, phi).unwrap();
        for tau in Ranking::enumerate_all(&[0, 1, 2, 3]) {
            assert!((amp.prob_of(&tau) - mal.prob_of(&tau)).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_respect_constraint() {
        let sigma = Ranking::identity(5);
        let constraint = PartialOrder::from_pairs(&[(4, 0), (3, 1)]).unwrap();
        let amp = AmpSampler::new(sigma, 0.5, &constraint).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let tau = amp.sample(&mut rng);
            assert!(constraint.is_consistent(&tau));
        }
    }

    #[test]
    fn proposal_probabilities_sum_to_one_over_consistent_rankings() {
        let sigma = Ranking::identity(4);
        let constraint = PartialOrder::from_pairs(&[(3, 0), (2, 1)]).unwrap();
        let amp = AmpSampler::new(sigma, 0.4, &constraint).unwrap();
        let mut total = 0.0;
        for tau in Ranking::enumerate_all(&[0, 1, 2, 3]) {
            let q = amp.prob_of(&tau);
            if !constraint.is_consistent(&tau) {
                assert_eq!(q, 0.0, "inconsistent ranking must have zero proposal mass");
            }
            total += q;
        }
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn example_2_2_probability() {
        // Example 2.2: AMP(⟨a,b,c⟩, φ, {c ≻ a}) generates ⟨b, c, a⟩ with
        // probability φ/(1+φ)².
        let phi = 0.3;
        let sigma = Ranking::new(vec![0, 1, 2]).unwrap(); // a=0, b=1, c=2
        let constraint = PartialOrder::from_pairs(&[(2, 0)]).unwrap();
        let amp = AmpSampler::new(sigma, phi, &constraint).unwrap();
        let tau = Ranking::new(vec![1, 2, 0]).unwrap();
        let expected = phi / ((1.0 + phi) * (1.0 + phi));
        assert!((amp.prob_of(&tau) - expected).abs() < 1e-12);
    }

    #[test]
    fn sample_with_prob_matches_prob_of() {
        let sigma = Ranking::identity(5);
        let constraint = PartialOrder::from_pairs(&[(4, 1), (3, 2)]).unwrap();
        let amp = AmpSampler::new(sigma, 0.6, &constraint).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let (tau, p) = amp.sample_with_prob(&mut rng);
            assert!((amp.prob_of(&tau) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn sampled_rankings_have_valid_proposal_probability() {
        // Proposal-probability consistency: for every sampled ranking the
        // reported probability is strictly positive, at most 1, and agrees
        // with an independent `prob_of` evaluation — across dispersions and
        // constraint shapes (unconstrained, partial order, chain).
        let sigma = Ranking::identity(6);
        let constraints = [
            PartialOrder::new(),
            PartialOrder::from_pairs(&[(5, 0), (4, 1)]).unwrap(),
            PartialOrder::from_subranking(&SubRanking::new(vec![3, 1, 0]).unwrap()),
        ];
        for (ci, constraint) in constraints.iter().enumerate() {
            for (pi, phi) in [0.1, 0.5, 1.0].into_iter().enumerate() {
                let amp = AmpSampler::new(sigma.clone(), phi, constraint).unwrap();
                let mut rng = StdRng::seed_from_u64(100 + (ci * 10 + pi) as u64);
                for _ in 0..50 {
                    let (tau, q) = amp.sample_with_prob(&mut rng);
                    assert!(q > 0.0, "constraint {ci}, phi {phi}: q = {q}");
                    assert!(q <= 1.0 + 1e-12, "constraint {ci}, phi {phi}: q = {q}");
                    assert!((amp.prob_of(&tau) - q).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn mix_prob_of_matches_weighted_component_densities() {
        let sigma = Ranking::identity(5);
        let samplers = vec![
            AmpSampler::new(sigma.clone(), 0.4, &PartialOrder::new()).unwrap(),
            AmpSampler::new(
                Ranking::new(vec![4, 3, 2, 1, 0]).unwrap(),
                0.4,
                &PartialOrder::from_pairs(&[(4, 0)]).unwrap(),
            )
            .unwrap(),
            AmpSampler::new(
                sigma.clone(),
                0.4,
                &PartialOrder::from_pairs(&[(3, 1)]).unwrap(),
            )
            .unwrap(),
            // Shares its centre with the proposal before it, and so the
            // translation of `tau`.
            AmpSampler::new(
                sigma.clone(),
                0.4,
                &PartialOrder::from_pairs(&[(4, 0), (2, 1)]).unwrap(),
            )
            .unwrap(),
        ];
        let coefficients = [0.4, 0.2, 0.2, 0.2];
        let mut scratch = AmpScratch::default();
        let mut rng = StdRng::seed_from_u64(17);
        for draw in 0..50 {
            let tau = match draw % 5 {
                // Rankings of other items or of too few: every density is 0.
                3 => Ranking::new(vec![0, 1, 2, 3, 9]).unwrap(),
                4 => Ranking::identity(4),
                _ => samplers[draw % 4].sample(&mut rng),
            };
            let expected: f64 = samplers
                .iter()
                .zip(&coefficients)
                .map(|(q, &c)| c * q.prob_of(&tau))
                .sum();
            let got = AmpSampler::mix_prob_of(&samplers, &coefficients, &tau, &mut scratch);
            assert_eq!(expected.to_bits(), got.to_bits());
        }
    }

    #[test]
    fn mix_prob_of_skips_zero_coefficient_components() {
        // A zero-budget component contributes no density, so the mixture over
        // {q₀: 1.0, q₁: 0.0} equals q₀ alone — bit for bit.
        let sigma = Ranking::identity(4);
        let samplers = vec![
            AmpSampler::new(sigma.clone(), 0.3, &PartialOrder::new()).unwrap(),
            AmpSampler::new(sigma, 0.3, &PartialOrder::from_pairs(&[(3, 0)]).unwrap()).unwrap(),
        ];
        let mut scratch = AmpScratch::default();
        for tau in Ranking::enumerate_all(&[0, 1, 2, 3]) {
            let got = AmpSampler::mix_prob_of(&samplers, &[1.0, 0.0], &tau, &mut scratch);
            assert_eq!(samplers[0].prob_of(&tau).to_bits(), got.to_bits());
        }
    }

    #[test]
    fn constraint_item_outside_model_rejected() {
        let sigma = Ranking::identity(3);
        let constraint = PartialOrder::from_pairs(&[(0, 7)]).unwrap();
        assert!(AmpSampler::new(sigma, 0.5, &constraint).is_err());
    }

    #[test]
    fn subranking_constructor_constrains_chain() {
        let sigma = Ranking::identity(4);
        let psi = SubRanking::new(vec![3, 0]).unwrap();
        let amp = AmpSampler::for_subranking(sigma, 0.2, &psi).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let tau = amp.sample(&mut rng);
            assert!(psi.is_consistent(&tau));
        }
    }
}
