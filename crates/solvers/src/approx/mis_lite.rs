//! MIS-AMP-lite: multiple importance sampling for pattern unions with
//! sub-ranking and modal pruning plus compensation (Section 5.5 of the paper).
//!
//! A pattern union corresponds to (possibly exponentially) many sub-rankings,
//! each with several posterior modes. MIS-AMP-lite keeps only `d` proposal
//! distributions: it sorts the sub-rankings by their estimated Kendall
//! distance from the Mallows centre (Algorithm 6), walks them in that order
//! generating greedy modals (Algorithm 5), and keeps the `d` modals closest
//! to the centre. Two compensation factors — `c_ψ` for the pruned
//! sub-rankings and `c_r` for the pruned modals — rescale the estimate by the
//! share of `φ^distance` mass the kept objects represent.

use crate::approx::mixture::{mixture_coefficients, mixture_weight_moments, stratified_allocation};
use crate::traits::{ApproxSolver, EstimateStats};
use crate::{Result, SolverError};
use ppd_patterns::{decompose_union, DecompositionLimits, Labeling, PatternError, PatternUnion};
use ppd_rim::{
    approximate_distance, greedy_modals, kendall_tau, AmpSampler, MallowsModel, Ranking, SubRanking,
};
use rand::RngCore;

/// Configuration of the MIS-AMP-lite estimator.
#[derive(Debug, Clone)]
pub struct MisAmpLite {
    /// Number of proposal distributions `d`.
    pub num_proposals: usize,
    /// Samples drawn from each proposal.
    pub samples_per_proposal: usize,
    /// Whether the compensation factors `c_ψ · c_r` are applied (Figure 11c
    /// and Figure 12 evaluate the estimator with this turned off).
    pub compensation: bool,
    /// Cap on the number of modals kept per sub-ranking by the greedy modal
    /// search.
    pub modal_cap: usize,
    /// Caps applied to the union decomposition.
    pub limits: DecompositionLimits,
}

impl Default for MisAmpLite {
    fn default() -> Self {
        MisAmpLite {
            num_proposals: 10,
            samples_per_proposal: 300,
            compensation: true,
            modal_cap: 64,
            limits: DecompositionLimits::default(),
        }
    }
}

/// Proposal distributions prepared for a particular (model, union) instance.
/// Preparing the proposals (decomposition + modal search) is the expensive,
/// sample-independent part of MIS-AMP-lite; Figure 13a reports it separately
/// from the sampling time, so the two stages are exposed separately here too.
#[derive(Debug)]
pub struct PreparedProposals {
    /// One AMP proposal sampler per kept modal, in pool order (modals
    /// closest to the Mallows centre first).
    samplers: Vec<AmpSampler>,
    /// Compensation factor for pruned sub-rankings (`c_ψ ≥ 1`).
    pub compensation_subrankings: f64,
    /// Compensation factor for pruned modals (`c_r ≥ 1`).
    pub compensation_modals: f64,
    /// Number of sub-rankings in the full decomposition.
    pub total_subrankings: usize,
    /// Number of sub-rankings that contributed proposals.
    pub selected_subrankings: usize,
}

impl PreparedProposals {
    /// An empty preparation representing a union with probability zero.
    fn empty() -> Self {
        PreparedProposals {
            samplers: Vec::new(),
            compensation_subrankings: 1.0,
            compensation_modals: 1.0,
            total_subrankings: 0,
            selected_subrankings: 0,
        }
    }

    /// Number of proposal distributions actually constructed.
    pub fn num_proposals(&self) -> usize {
        self.samplers.len()
    }

    /// The kept proposal samplers, in pool order. The sampling stage splits
    /// its budget across exactly this slice (see
    /// [`crate::approx::mixture::stratified_allocation`]); exposing it lets
    /// callers — benches, property tests — evaluate the same mixture the
    /// estimator weights against.
    pub fn samplers(&self) -> &[AmpSampler] {
        &self.samplers
    }
}

/// The sample-independent state of MIS-AMP-lite for one `(model, union)`
/// instance: the union decomposition, the distance-sorted sub-rankings, and
/// the greedy modals generated so far.
///
/// Building the pool (the decomposition) and extending its walk (the greedy
/// modal search) are the expensive parts of proposal preparation; drawing a
/// [`PreparedProposals`] for a given proposal count from an existing pool
/// only replays cheap bookkeeping. [`MisAmpAdaptive`] builds one pool per
/// instance and reuses it across its rounds of growing proposal counts,
/// instead of re-decomposing the union every round.
///
/// A pool is tied to the `(model, union, modal_cap, limits)` it was built
/// with; as long as the proposal counts drawn from it never decrease,
/// `MisAmpLite::prepare_from_pool` yields bit-identical proposals to a
/// fresh [`MisAmpLite::prepare`] with the same configuration (see its
/// documentation for the precise contract).
///
/// [`MisAmpAdaptive`]: crate::MisAmpAdaptive
#[derive(Debug, Clone)]
pub struct ProposalPool {
    sigma: Ranking,
    phi: f64,
    modal_cap: usize,
    /// Sub-rankings sorted by estimated distance from the centre.
    scored: Vec<(usize, SubRanking)>,
    /// Total `φ^distance` mass over every sub-ranking.
    mass_all: f64,
    /// Number of sub-rankings already consumed by the walk.
    walked: usize,
    /// `φ^distance` mass of the walked sub-rankings.
    mass_selected: f64,
    /// Modals generated so far: `(modal, sub-ranking, Kendall distance)`.
    available: Vec<(Ranking, SubRanking, usize)>,
    /// The union had no satisfiable member.
    unsatisfiable: bool,
}

impl ProposalPool {
    fn phi_pow(&self, d: usize) -> f64 {
        if d == 0 {
            1.0
        } else {
            self.phi.powi(d as i32)
        }
    }

    /// Walks further sub-rankings (in distance order) until at least
    /// `d_target` modals are available or the decomposition is exhausted,
    /// keeping `available` sorted by (distance, modal items) so that draws
    /// can slice the closest `d` without cloning or re-sorting the list.
    fn extend_to(&mut self, d_target: usize) {
        let before = self.available.len();
        while self.available.len() < d_target && self.walked < self.scored.len() {
            let (dist, psi) = self.scored[self.walked].clone();
            let modals = greedy_modals(&psi, &self.sigma, self.modal_cap);
            self.mass_selected += self.phi_pow(dist);
            self.walked += 1;
            for modal in modals {
                let modal_dist = kendall_tau(&modal, &self.sigma);
                self.available.push((modal, psi.clone(), modal_dist));
            }
        }
        if self.available.len() > before {
            self.available
                .sort_by(|(ma, _, da), (mb, _, db)| (da, ma.items()).cmp(&(db, mb.items())));
        }
    }
}

impl MisAmpLite {
    /// Convenience constructor fixing the two main knobs.
    pub fn new(num_proposals: usize, samples_per_proposal: usize) -> Self {
        MisAmpLite {
            num_proposals,
            samples_per_proposal,
            ..MisAmpLite::default()
        }
    }

    /// Disables the compensation factors (used by the ablation experiments).
    pub fn without_compensation(mut self) -> Self {
        self.compensation = false;
        self
    }

    /// Builds the reusable proposal pool for an instance: decomposes the
    /// union and scores its sub-rankings by estimated distance from the
    /// centre. The walk that generates greedy modals is performed lazily by
    /// `MisAmpLite::prepare_from_pool`.
    pub fn build_pool(
        &self,
        mallows: &MallowsModel,
        labeling: &Labeling,
        union: &PatternUnion,
    ) -> Result<ProposalPool> {
        let universe = mallows.sigma().items();
        let sigma = mallows.sigma().clone();
        let phi = mallows.phi();
        let mut pool = ProposalPool {
            sigma,
            phi,
            modal_cap: self.modal_cap,
            scored: Vec::new(),
            mass_all: 0.0,
            walked: 0,
            mass_selected: 0.0,
            available: Vec::new(),
            unsatisfiable: false,
        };
        let decomposition = match decompose_union(union, universe, labeling, &self.limits) {
            Ok(d) => d,
            // No member is satisfiable: the probability is exactly zero.
            Err(PatternError::EmptySelector(_)) => {
                pool.unsatisfiable = true;
                return Ok(pool);
            }
            Err(e) => return Err(e.into()),
        };
        let mut scored: Vec<(usize, SubRanking)> = decomposition
            .subrankings
            .into_iter()
            .map(|psi| (approximate_distance(&psi, &pool.sigma), psi))
            .collect();
        scored.sort_by(|(da, pa), (db, pb)| (da, pa.items()).cmp(&(db, pb.items())));
        pool.mass_all = scored.iter().map(|&(d, _)| pool.phi_pow(d)).sum();
        pool.scored = scored;
        Ok(pool)
    }

    /// Draws the proposal distributions for this configuration's
    /// `num_proposals` from a pool, extending the pool's greedy-modal walk as
    /// needed, reusing the decomposition and every modal generated by
    /// earlier draws.
    ///
    /// Bit-identical with a fresh [`MisAmpLite::prepare`] **as long as the
    /// proposal counts drawn from one pool never decrease** (the adaptive
    /// solver's access pattern): the walk only ever extends, so a draw with
    /// a *smaller* count than an earlier one reuses the wider walk and
    /// yields different (more thoroughly compensated) factors than a fresh
    /// preparation would.
    pub(crate) fn prepare_from_pool(&self, pool: &mut ProposalPool) -> Result<PreparedProposals> {
        if pool.unsatisfiable {
            return Ok(PreparedProposals::empty());
        }
        let d_target = self.num_proposals.max(1);
        pool.extend_to(d_target);
        if pool.available.is_empty() {
            return Ok(PreparedProposals::empty());
        }

        // Keep the d modals closest to the centre: `available` is sorted by
        // `extend_to`, so the draw is a prefix slice — only the kept modals
        // are cloned (to build their samplers), never the whole pool.
        let mass_all_modals: f64 = pool
            .available
            .iter()
            .map(|&(_, _, d)| pool.phi_pow(d))
            .sum();
        let kept: &[(Ranking, SubRanking, usize)] =
            &pool.available[..d_target.min(pool.available.len())];
        let mass_kept_modals: f64 = kept.iter().map(|&(_, _, d)| pool.phi_pow(d)).sum();

        let compensation_subrankings = if pool.mass_selected > 0.0 {
            pool.mass_all / pool.mass_selected
        } else {
            1.0
        };
        let compensation_modals = if mass_kept_modals > 0.0 {
            mass_all_modals / mass_kept_modals
        } else {
            1.0
        };

        let mut samplers = Vec::with_capacity(kept.len());
        for (modal, psi, _) in kept {
            samplers.push(AmpSampler::for_subranking(modal.clone(), pool.phi, psi)?);
        }
        Ok(PreparedProposals {
            samplers,
            compensation_subrankings,
            compensation_modals,
            total_subrankings: pool.scored.len(),
            selected_subrankings: pool.walked,
        })
    }

    /// Builds the proposal distributions for the given instance.
    pub fn prepare(
        &self,
        mallows: &MallowsModel,
        labeling: &Labeling,
        union: &PatternUnion,
    ) -> Result<PreparedProposals> {
        let mut pool = self.build_pool(mallows, labeling, union)?;
        self.prepare_from_pool(&mut pool)
    }

    /// Runs the sampling stage on prepared proposals and returns the
    /// (optionally compensated) estimate — a proper probability in `[0, 1]`
    /// by construction. The total mixture budget is `d · samples_per_proposal`
    /// (see [`MisAmpLite::estimate_prepared_total`] for an explicit budget).
    ///
    /// The plain MIS average estimates the probability of the **covered
    /// region**: the rankings reachable from the kept proposals. Pruning
    /// compensation extrapolates from there to the full union using the
    /// `φ^distance` mass ratios `c_ψ · c_r ≥ 1`. Multiplying the covered
    /// probability directly (the original Section 5.5 heuristic) over-counts
    /// the overlap between sub-ranking events and pushed the raw estimator
    /// above 1 on high-probability unions; the factors are therefore applied
    /// in **odds space** (see `compensate` below), which agrees with the
    /// multiplicative form to first order in the covered probability — the
    /// rare-event regime compensation exists for — while saturating below 1
    /// as the covered probability grows.
    pub fn estimate_prepared(
        &self,
        mallows: &MallowsModel,
        prepared: &PreparedProposals,
        rng: &mut dyn RngCore,
    ) -> f64 {
        self.estimate_prepared_with_moments(mallows, prepared, rng)
            .0
    }

    /// [`MisAmpLite::estimate_prepared`], additionally reporting the first
    /// and second moments of the per-sample MIS weights. The estimate is
    /// bit-identical to [`MisAmpLite::estimate_prepared`] with the same RNG
    /// state: the weight sum is accumulated by exactly the same operations
    /// (the extra squared-weight accumulator never feeds back into it). The
    /// error-budgeted estimator uses the moments to size its sample budget
    /// from the empirical variance.
    pub(crate) fn estimate_prepared_with_moments(
        &self,
        mallows: &MallowsModel,
        prepared: &PreparedProposals,
        rng: &mut dyn RngCore,
    ) -> (f64, SampleMoments) {
        let total = prepared.num_proposals() * self.samples_per_proposal.max(1);
        self.estimate_prepared_total(mallows, prepared, total, rng)
    }

    /// The sampling stage with an explicit **total** mixture budget: the
    /// budget is split across the kept proposals by
    /// [`stratified_allocation`] (in pool order — the closest modals take the
    /// remainder), every sample is weighted against the balance-heuristic
    /// mixture `Σ_i (n_i/N)·q_i` over **all** kept proposals, and the mean
    /// weight (clamped, then compensated in odds space) is the estimate.
    /// Samples where the mixture density vanishes contribute zero and are
    /// counted in [`SampleMoments::zero_density`].
    ///
    /// This is the entry point the error-budgeted estimator doubles through:
    /// growing `total` directly — rather than in per-proposal quota steps of
    /// `d` — lets its confidence interval close at the smallest sufficient
    /// budget.
    pub fn estimate_prepared_total(
        &self,
        mallows: &MallowsModel,
        prepared: &PreparedProposals,
        total_samples: usize,
        rng: &mut dyn RngCore,
    ) -> (f64, SampleMoments) {
        let d = prepared.num_proposals();
        if d == 0 {
            return (0.0, SampleMoments::default());
        }
        let total = total_samples.max(1);
        let allocation = stratified_allocation(total, d);
        let coefficients = mixture_coefficients(&allocation, total);
        let moments = mixture_weight_moments(
            mallows,
            prepared.samplers(),
            &allocation,
            &coefficients,
            rng,
        );
        // The uncompensated MIS average estimates the covered-region
        // probability; finite-sample noise can stray marginally above 1, so
        // clamp before compensating (exactly what the compensation-free
        // estimator always did).
        let covered = moments.mean().clamp(0.0, 1.0);
        let estimate = if self.compensation {
            compensate(
                covered,
                prepared.compensation_subrankings * prepared.compensation_modals,
            )
        } else {
            covered
        };
        debug_assert!(
            (0.0..=1.0).contains(&estimate),
            "odds-space compensation must yield a probability, got {estimate}"
        );
        (estimate.clamp(0.0, 1.0), moments)
    }
}

/// First and second moments of the per-sample MIS weights from one sampling
/// pass, as reported by `MisAmpLite::estimate_prepared_with_moments`. The
/// mean of the weights estimates the covered-region probability; the moments
/// give its empirical variance, which the error-budgeted estimator turns into
/// a confidence-interval halfwidth.
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleMoments {
    /// Sum of the per-sample weights (samples with zero mixture probability
    /// contribute zero).
    pub sum: f64,
    /// Sum of the squared per-sample weights.
    pub sum_squares: f64,
    /// Total number of samples drawn.
    pub samples: usize,
    /// Samples on which every kept proposal had zero density: they
    /// contribute zero weight, so a large count means the kept mixture
    /// covers its own draws poorly (an estimator-health signal, surfaced as
    /// a solver stat and an observability counter by the engine).
    pub zero_density: usize,
}

impl SampleMoments {
    /// Mean of the per-sample weights: the uncompensated covered-region
    /// estimate, before clamping.
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum / self.samples as f64
        }
    }

    /// Unbiased sample variance of the per-sample weights.
    pub fn variance(&self) -> f64 {
        if self.samples < 2 {
            return 0.0;
        }
        let n = self.samples as f64;
        let mean = self.mean();
        ((self.sum_squares - n * mean * mean) / (n - 1.0)).max(0.0)
    }

    /// Standard error of the mean weight.
    pub(crate) fn standard_error(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            (self.variance() / self.samples as f64).sqrt()
        }
    }
}

/// Applies a pruning-compensation factor `c ≥ 1` to the covered-region
/// probability `p` in **odds space**: `p′ = c·p / (c·p + (1 − p))`, i.e. the
/// odds `p/(1−p)` are multiplied by `c` rather than the probability itself.
///
/// This is the normalization that makes the compensated estimator a proper
/// probability: for any `p ∈ [0, 1]` and `c ≥ 1` the result is in `[p, 1]`,
/// and for small `p` it reduces to the multiplicative `c·p` (to first order)
/// that the paper's compensation targets. `c = 1` (nothing pruned) is an
/// exact no-op bit for bit.
pub(crate) fn compensate(p: f64, c: f64) -> f64 {
    if c <= 1.0 {
        return p;
    }
    let scaled = c * p;
    scaled / (scaled + (1.0 - p))
}

impl ApproxSolver for MisAmpLite {
    fn name(&self) -> &'static str {
        "mis-amp-lite"
    }

    fn estimate(
        &self,
        mallows: &MallowsModel,
        labeling: &Labeling,
        union: &PatternUnion,
        rng: &mut dyn RngCore,
    ) -> Result<f64> {
        if self.num_proposals == 0 || self.samples_per_proposal == 0 {
            return Err(SolverError::InvalidInstance(
                "MIS-AMP-lite needs at least one proposal and one sample".into(),
            ));
        }
        let prepared = self.prepare(mallows, labeling, union)?;
        Ok(self.estimate_prepared(mallows, &prepared, rng))
    }

    fn estimate_with_stats(
        &self,
        mallows: &MallowsModel,
        labeling: &Labeling,
        union: &PatternUnion,
        rng: &mut dyn RngCore,
    ) -> Result<(f64, EstimateStats)> {
        if self.num_proposals == 0 || self.samples_per_proposal == 0 {
            return Err(SolverError::InvalidInstance(
                "MIS-AMP-lite needs at least one proposal and one sample".into(),
            ));
        }
        let prepared = self.prepare(mallows, labeling, union)?;
        let (estimate, moments) = self.estimate_prepared_with_moments(mallows, &prepared, rng);
        Ok((
            estimate,
            EstimateStats {
                samples: moments.samples,
                zero_density_samples: moments.zero_density,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amp_reference::{self, AmpReference};
    use crate::exact::brute::BruteForceSolver;
    use crate::testutil::{cyclic_labeling, mallows, sel};
    use crate::traits::ExactSolver;
    use ppd_patterns::{Pattern, PatternUnion};
    use ppd_rim::PartialOrder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn relative_error(exact: f64, est: f64) -> f64 {
        if exact == 0.0 {
            est.abs()
        } else {
            ((est - exact) / exact).abs()
        }
    }

    #[test]
    fn accurate_on_two_label_unions() {
        let mut rng = StdRng::seed_from_u64(31);
        let model = mallows(6, 0.3);
        let lab = cyclic_labeling(6, 3);
        let union = PatternUnion::new(vec![
            Pattern::two_label(sel(2), sel(0)),
            Pattern::two_label(sel(1), sel(0)),
        ])
        .unwrap();
        let exact = BruteForceSolver::new()
            .solve(&model.to_rim(), &lab, &union)
            .unwrap();
        let solver = MisAmpLite::new(10, 2_000);
        let est = solver.estimate(&model, &lab, &union, &mut rng).unwrap();
        assert!(
            relative_error(exact, est) < 0.1,
            "exact {exact}, estimate {est}"
        );
    }

    #[test]
    fn accurate_on_rare_bipartite_unions() {
        // A low-probability union (the kind rejection sampling cannot handle).
        let mut rng = StdRng::seed_from_u64(47);
        let model = mallows(7, 0.1);
        let lab = cyclic_labeling(7, 7);
        let union = PatternUnion::singleton(
            Pattern::new(
                vec![sel(6), sel(5), sel(0), sel(1)],
                vec![(0, 2), (0, 3), (1, 3)],
            )
            .unwrap(),
        )
        .unwrap();
        let exact = BruteForceSolver::new()
            .solve(&model.to_rim(), &lab, &union)
            .unwrap();
        assert!(exact < 0.01, "the test needs a rare event, got {exact}");
        let solver = MisAmpLite::new(20, 2_000);
        let est = solver.estimate(&model, &lab, &union, &mut rng).unwrap();
        assert!(
            relative_error(exact, est) < 0.25,
            "exact {exact}, estimate {est}"
        );
    }

    #[test]
    fn accurate_on_general_chain_union() {
        let mut rng = StdRng::seed_from_u64(53);
        let model = mallows(6, 0.4);
        let lab = cyclic_labeling(6, 3);
        let chain = Pattern::new(vec![sel(1), sel(2), sel(0)], vec![(0, 1), (1, 2)]).unwrap();
        let union = PatternUnion::new(vec![chain, Pattern::two_label(sel(2), sel(1))]).unwrap();
        let exact = BruteForceSolver::new()
            .solve(&model.to_rim(), &lab, &union)
            .unwrap();
        let solver = MisAmpLite::new(15, 2_000);
        let est = solver.estimate(&model, &lab, &union, &mut rng).unwrap();
        assert!(
            relative_error(exact, est) < 0.15,
            "exact {exact}, estimate {est}"
        );
    }

    #[test]
    fn compensation_never_decreases_the_estimate() {
        let mut rng = StdRng::seed_from_u64(61);
        let model = mallows(6, 0.2);
        let lab = cyclic_labeling(6, 3);
        let union = PatternUnion::singleton(Pattern::two_label(sel(2), sel(0))).unwrap();
        let with = MisAmpLite::new(1, 500);
        let without = MisAmpLite::new(1, 500).without_compensation();
        let prepared = with.prepare(&model, &lab, &union).unwrap();
        assert!(prepared.compensation_subrankings >= 1.0);
        assert!(prepared.compensation_modals >= 1.0);
        let mut rng2 = StdRng::seed_from_u64(61);
        let est_with = with.estimate_prepared(&model, &prepared, &mut rng);
        let est_without = without.estimate_prepared(&model, &prepared, &mut rng2);
        assert!(est_with >= est_without);
    }

    #[test]
    fn pool_based_preparation_matches_fresh_preparation() {
        let model = mallows(6, 0.4);
        let lab = cyclic_labeling(6, 3);
        let chain = Pattern::new(vec![sel(1), sel(2), sel(0)], vec![(0, 1), (1, 2)]).unwrap();
        let union = PatternUnion::new(vec![chain, Pattern::two_label(sel(2), sel(1))]).unwrap();
        let mut pool = MisAmpLite::default()
            .build_pool(&model, &lab, &union)
            .unwrap();
        // Growing proposal counts, as the adaptive solver requests them.
        for d in [1usize, 3, 6, 12] {
            let lite = MisAmpLite::new(d, 200);
            let fresh = lite.prepare(&model, &lab, &union).unwrap();
            let pooled = lite.prepare_from_pool(&mut pool).unwrap();
            assert_eq!(fresh.num_proposals(), pooled.num_proposals());
            assert_eq!(
                fresh.compensation_subrankings,
                pooled.compensation_subrankings
            );
            assert_eq!(fresh.compensation_modals, pooled.compensation_modals);
            assert_eq!(fresh.total_subrankings, pooled.total_subrankings);
            assert_eq!(fresh.selected_subrankings, pooled.selected_subrankings);
            let mut rng_fresh = StdRng::seed_from_u64(99);
            let mut rng_pooled = StdRng::seed_from_u64(99);
            let est_fresh = lite.estimate_prepared(&model, &fresh, &mut rng_fresh);
            let est_pooled = lite.estimate_prepared(&model, &pooled, &mut rng_pooled);
            assert_eq!(est_fresh, est_pooled);
        }
    }

    #[test]
    fn pruning_compensation_is_a_proper_probability() {
        // A certain union (`a ≻ b ∨ b ≻ a` over non-empty labels) estimated
        // with a single kept proposal: heavy pruning makes `c_ψ · c_r` large,
        // and the *multiplicative* compensation of the original Section 5.5
        // heuristic pushed the raw estimator above 1 here (PR 1's agreement
        // tests dodged the case by using a proposal budget large enough that
        // nothing was pruned). The odds-space normalization must instead
        // yield a probability that still tracks the exact answer.
        let model = mallows(6, 0.8);
        let lab = cyclic_labeling(6, 2);
        let union = PatternUnion::new(vec![
            Pattern::two_label(sel(0), sel(1)),
            Pattern::two_label(sel(1), sel(0)),
        ])
        .unwrap();
        let exact = BruteForceSolver::new()
            .solve(&model.to_rim(), &lab, &union)
            .unwrap();
        assert!(exact > 0.999, "the union is certain, got {exact}");
        let solver = MisAmpLite::new(1, 400);
        let prepared = solver.prepare(&model, &lab, &union).unwrap();
        let mut rng_nc = StdRng::seed_from_u64(13);
        let uncompensated =
            solver
                .clone()
                .without_compensation()
                .estimate_prepared(&model, &prepared, &mut rng_nc);
        let factors = prepared.compensation_subrankings * prepared.compensation_modals;
        assert!(
            uncompensated * factors > 1.0,
            "the regression premise needs the multiplicative form to overshoot, got {}",
            uncompensated * factors
        );
        let mut rng = StdRng::seed_from_u64(13);
        let est = solver.estimate_prepared(&model, &prepared, &mut rng);
        assert!(
            (0.0..=1.0).contains(&est),
            "normalized compensation must stay a probability, got {est}"
        );
        assert!(
            est > uncompensated,
            "compensation must still push the covered estimate ({uncompensated}) up, got {est}"
        );
        assert!(
            (exact - est).abs() < 0.2,
            "normalized estimate {est} should track the exact answer {exact}"
        );
    }

    /// The reference twins of the first `d` proposals a pool hands out.
    fn reference_proposals(pool: &ProposalPool, d: usize) -> Vec<AmpReference> {
        pool.available
            .iter()
            .take(d)
            .map(|(modal, psi, _)| {
                AmpReference::new(modal.clone(), pool.phi, &PartialOrder::from_subranking(psi))
            })
            .collect()
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // Exact-bits regression pin for the sampling stage: re-run it on the
        // reference formulation (a `Ranking` and fresh buffers per sample,
        // a `PartialOrder` walk per insertion), weighting each sample
        // against the coefficient-weighted mixture, and require the
        // production pass — integer arrays, one scratch set across all
        // samples — to produce the same bits.
        let model = mallows(6, 0.35);
        let lab = cyclic_labeling(6, 3);
        let chain = Pattern::new(vec![sel(1), sel(2), sel(0)], vec![(0, 1), (1, 2)]).unwrap();
        let union = PatternUnion::new(vec![chain, Pattern::two_label(sel(2), sel(1))]).unwrap();
        for &(seed, n) in &[(2024u64, 150usize), (7u64, 300)] {
            let solver = MisAmpLite::new(4, n);
            let mut pool = solver.build_pool(&model, &lab, &union).unwrap();
            let prepared = solver.prepare_from_pool(&mut pool).unwrap();
            let d = prepared.num_proposals();
            assert!(d > 0);
            let total_budget = d * n;
            // Equal stratified allocation (d divides the budget), so every
            // mixture coefficient is n / (d·n) — computed exactly as the
            // production path computes it.
            let mut rng = StdRng::seed_from_u64(seed);
            let (total, _, _) = amp_reference::mixture_pass(
                model.sigma(),
                model.phi(),
                &reference_proposals(&pool, d),
                &vec![n; d],
                &vec![n as f64 / total_budget as f64; d],
                &mut rng,
            );
            let covered = (total / total_budget as f64).clamp(0.0, 1.0);
            let expected = super::compensate(
                covered,
                prepared.compensation_subrankings * prepared.compensation_modals,
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let got = solver.estimate_prepared(&model, &prepared, &mut rng);
            assert_eq!(
                expected.to_bits(),
                got.to_bits(),
                "seed {seed}: reference {expected} vs production {got}"
            );
        }
    }

    #[test]
    fn sampling_stage_matches_the_reference_pass_across_the_menagerie() {
        // Pools of modals (centres that are not σ) of three sizes, over the
        // menagerie, four universe sizes and dispersions from the φ → 0
        // limit to uniform; one budget that does not divide evenly and one
        // smaller than the pool, which leaves proposals without a draw. The
        // weight moments and the RNG's next output must be the reference's.
        for m in [5usize, 8, 10, 12] {
            let lab = cyclic_labeling(m, 4);
            for phi in [0.0, 0.1, 0.5, 0.9, 1.0] {
                let model = mallows(m, phi);
                for (ui, union) in crate::testutil::sample_unions().iter().enumerate() {
                    for d in [1usize, 4, 12] {
                        let solver = MisAmpLite::new(d, 1);
                        let mut pool = solver.build_pool(&model, &lab, union).unwrap();
                        let prepared = solver.prepare_from_pool(&mut pool).unwrap();
                        let kept = prepared.num_proposals();
                        assert!(kept > 0, "menagerie unions are satisfiable");
                        let references = reference_proposals(&pool, kept);
                        for total in [2 * kept + 1, kept.div_ceil(2)] {
                            let allocation = stratified_allocation(total, kept);
                            let coefficients = mixture_coefficients(&allocation, total);
                            let mut rng = StdRng::seed_from_u64((m * 100 + ui * 10 + d) as u64);
                            let mut reference_rng = rng.clone();
                            let (_, moments) =
                                solver.estimate_prepared_total(&model, &prepared, total, &mut rng);
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
                                "m={m} φ={phi} union#{ui} d={d} N={total}"
                            );
                            assert_eq!(moments.samples, total);
                            assert_eq!(rng.next_u64(), reference_rng.next_u64());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn total_budget_entry_point_allocates_stratified() {
        // A budget that does not divide evenly must still draw exactly
        // `total` samples, with the remainder going to the closest modals,
        // and `d · n` budgets must match the per-proposal entry point bit
        // for bit.
        let model = mallows(6, 0.4);
        let lab = cyclic_labeling(6, 3);
        let chain = Pattern::new(vec![sel(1), sel(2), sel(0)], vec![(0, 1), (1, 2)]).unwrap();
        let union = PatternUnion::new(vec![chain, Pattern::two_label(sel(2), sel(1))]).unwrap();
        let solver = MisAmpLite::new(4, 100);
        let prepared = solver.prepare(&model, &lab, &union).unwrap();
        let d = prepared.num_proposals();
        assert!(d > 1);

        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        let (est_a, mom_a) = solver.estimate_prepared_with_moments(&model, &prepared, &mut rng_a);
        let (est_b, mom_b) = solver.estimate_prepared_total(&model, &prepared, d * 100, &mut rng_b);
        assert_eq!(est_a.to_bits(), est_b.to_bits());
        assert_eq!(mom_a.samples, mom_b.samples);

        let mut rng = StdRng::seed_from_u64(4);
        let (_, moments) = solver.estimate_prepared_total(&model, &prepared, 101, &mut rng);
        assert_eq!(moments.samples, 101, "awkward budgets are spent exactly");
    }

    #[test]
    fn unsatisfiable_union_estimates_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        let model = mallows(5, 0.5);
        let lab = cyclic_labeling(5, 3);
        let union = PatternUnion::singleton(Pattern::two_label(sel(8), sel(9))).unwrap();
        let est = MisAmpLite::new(5, 100)
            .estimate(&model, &lab, &union, &mut rng)
            .unwrap();
        assert_eq!(est, 0.0);
    }

    #[test]
    fn more_proposals_do_not_hurt_much() {
        // Accuracy with 10 proposals should be at least comparable to 1
        // proposal on a multi-pattern union (Figure 10's trend).
        let mut rng = StdRng::seed_from_u64(71);
        let model = mallows(7, 0.1);
        let lab = cyclic_labeling(7, 4);
        let union = PatternUnion::new(vec![
            Pattern::two_label(sel(3), sel(0)),
            Pattern::two_label(sel(2), sel(1)),
            Pattern::two_label(sel(3), sel(1)),
        ])
        .unwrap();
        let exact = BruteForceSolver::new()
            .solve(&model.to_rim(), &lab, &union)
            .unwrap();
        let few = MisAmpLite::new(1, 3_000)
            .estimate(&model, &lab, &union, &mut rng)
            .unwrap();
        let many = MisAmpLite::new(10, 3_000)
            .estimate(&model, &lab, &union, &mut rng)
            .unwrap();
        assert!(relative_error(exact, many) <= relative_error(exact, few) + 0.05);
    }
}
