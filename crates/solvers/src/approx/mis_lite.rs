//! MIS-AMP-lite: multiple importance sampling for pattern unions with
//! sub-ranking and modal pruning plus compensation (Section 5.5 of the paper)
//! — and the one run loop the whole pattern-union MIS family shares.
//!
//! A pattern union corresponds to (possibly exponentially) many sub-rankings,
//! each with several posterior modes. MIS-AMP-lite keeps only `d` proposal
//! distributions: it sorts the sub-rankings by their estimated Kendall
//! distance from the Mallows centre (Algorithm 6), walks them in that order
//! generating greedy modals (Algorithm 5), and keeps the `d` modals closest
//! to the centre. Two compensation factors — `c_ψ` for the pruned
//! sub-rankings and `c_r` for the pruned modals — rescale the estimate by the
//! share of `φ^distance` mass the kept objects represent.
//!
//! MIS-AMP-adaptive is "run MIS-AMP-lite again with more proposals" and the
//! error-budgeted estimator is MIS-AMP-lite sampled again with a doubled
//! total, so all three are schedules — `Once`, `GrowProposals`,
//! `DoubleBudget` — of one loop over one [`ProposalPool`] (`MisAmpLite::run`),
//! reporting one [`MixtureOutcome`]. See also [`MisAmpAdaptive`] and
//! [`MisAmpBudgeted`].
//!
//! [`MisAmpAdaptive`]: crate::MisAmpAdaptive
//! [`MisAmpBudgeted`]: crate::MisAmpBudgeted

use crate::approx::mixture::{mixture_coefficients, mixture_weight_moments, stratified_allocation};
use crate::traits::{ApproxSolver, EstimateStats};
use crate::{Result, SolverError};
use ppd_patterns::{decompose_union, DecompositionLimits, Labeling, PatternError, PatternUnion};
use ppd_rim::{
    approximate_distance, greedy_modals, kendall_tau, AmpSampler, MallowsModel, Ranking, SubRanking,
};
use rand::RngCore;

/// Cap on the modals the greedy search keeps per sub-ranking. With the
/// default [`DecompositionLimits`] it fixes a pool's shape, so a pool is a
/// function of `(model, labeling, union)` alone — which is what lets the
/// engine's pool cache key it by unit content.
const MODAL_CAP: usize = 64;

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
}

/// Proposal distributions drawn from a [`ProposalPool`] for one proposal
/// count. Preparing the proposals (decomposition + modal search) is the
/// expensive, sample-independent part of MIS-AMP-lite; Figure 13a reports it
/// separately from the sampling time, so the two stages are exposed
/// separately here too.
#[derive(Debug)]
pub struct PreparedProposals {
    /// One AMP proposal sampler per kept modal, in pool order (modals
    /// closest to the Mallows centre first).
    samplers: Vec<AmpSampler>,
    /// Pruning compensation `c_ψ · c_r ≥ 1`: the `φ^distance` mass of every
    /// sub-ranking over that of the walked ones, times the mass of every
    /// generated modal over that of the kept ones.
    pub compensation: f64,
}

impl PreparedProposals {
    /// Number of proposal distributions actually constructed.
    pub fn num_proposals(&self) -> usize {
        self.samplers.len()
    }

    /// The kept proposal samplers, in pool order: the mixture the sampling
    /// stage splits its budget across and weights against.
    pub fn samplers(&self) -> &[AmpSampler] {
        &self.samplers
    }
}

/// The sample-independent state of the MIS estimators for one `(model,
/// labeling, union)` instance: the union decomposition, the distance-sorted
/// sub-rankings, and the greedy modals generated so far.
///
/// Building the pool (the decomposition) and extending its walk (the greedy
/// modal search) are the expensive parts of proposal preparation; drawing
/// [`PreparedProposals`] from an existing pool only replays cheap
/// bookkeeping. As long as the proposal counts drawn from one pool never
/// decrease, a draw is bit-identical to the same draw from a fresh pool: the
/// walk only ever extends, so a *smaller* count than an earlier one would
/// reuse the wider walk and compensate differently. The adaptive schedule
/// grows its count; the budgeted one, the only one the engine hands a cached
/// pool, always draws the same count.
#[derive(Debug, Clone)]
pub struct ProposalPool {
    sigma: Ranking,
    phi: f64,
    /// Sub-rankings sorted by estimated distance from the centre (none when
    /// the union has no satisfiable member).
    scored: Vec<(usize, SubRanking)>,
    /// Total `φ^distance` mass over every sub-ranking.
    mass_all: f64,
    /// Number of sub-rankings already consumed by the walk.
    walked: usize,
    /// `φ^distance` mass of the walked sub-rankings.
    mass_selected: f64,
    /// Modals generated so far: `(modal, sub-ranking, Kendall distance)`.
    available: Vec<(Ranking, SubRanking, usize)>,
}

impl ProposalPool {
    /// Builds the pool for an instance: decomposes the union under the
    /// default [`DecompositionLimits`] and scores its sub-rankings by
    /// estimated distance from the centre. The greedy-modal walk happens
    /// lazily, as draws ask for modals.
    pub fn build(
        mallows: &MallowsModel,
        labeling: &Labeling,
        union: &PatternUnion,
    ) -> Result<ProposalPool> {
        let sigma = mallows.sigma().clone();
        let limits = DecompositionLimits::default();
        let subrankings = match decompose_union(union, sigma.items(), labeling, &limits) {
            Ok(decomposition) => decomposition.subrankings,
            // No member is satisfiable: the probability is exactly zero.
            Err(PatternError::EmptySelector(_)) => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let mut scored: Vec<(usize, SubRanking)> = subrankings
            .into_iter()
            .map(|psi| (approximate_distance(&psi, &sigma), psi))
            .collect();
        scored.sort_by(|(da, pa), (db, pb)| (da, pa.items()).cmp(&(db, pb.items())));
        let mut pool = ProposalPool {
            sigma,
            phi: mallows.phi(),
            scored,
            mass_all: 0.0,
            walked: 0,
            mass_selected: 0.0,
            available: Vec::new(),
        };
        pool.mass_all = pool.scored.iter().map(|&(d, _)| pool.phi_pow(d)).sum();
        Ok(pool)
    }

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
            let modals = greedy_modals(&psi, &self.sigma, MODAL_CAP);
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

    /// Draws the `d` proposals closest to the centre (at least one; fewer
    /// when the decomposition runs out, none for an unsatisfiable union),
    /// extending the greedy-modal walk as needed and reusing every modal
    /// generated by earlier draws.
    pub(crate) fn draw(&mut self, d: usize) -> Result<PreparedProposals> {
        let d_target = d.max(1);
        self.extend_to(d_target);
        if self.available.is_empty() {
            return Ok(PreparedProposals {
                samplers: Vec::new(),
                compensation: 1.0,
            });
        }

        // Keep the d modals closest to the centre: `available` is sorted by
        // `extend_to`, so the draw is a prefix slice — only the kept modals
        // are cloned (to build their samplers), never the whole pool.
        let kept = &self.available[..d_target.min(self.available.len())];
        let mass = |modals: &[(Ranking, SubRanking, usize)]| -> f64 {
            modals.iter().map(|&(_, _, d)| self.phi_pow(d)).sum()
        };
        let ratio = |all: f64, kept: f64| if kept > 0.0 { all / kept } else { 1.0 };
        let mut samplers = Vec::with_capacity(kept.len());
        for (modal, psi, _) in kept {
            samplers.push(AmpSampler::for_subranking(modal.clone(), self.phi, psi)?);
        }
        Ok(PreparedProposals {
            samplers,
            compensation: ratio(self.mass_all, self.mass_selected)
                * ratio(mass(&self.available), mass(kept)),
        })
    }
}

/// How the rounds of one run grow and when they stop. Every schedule ends
/// after `max_rounds` rounds (at least one) if its own rule has not stopped
/// it first.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Schedule {
    /// MIS-AMP-lite: one round of `d × samples_per_proposal`.
    Once,
    /// MIS-AMP-adaptive: every round keeps `d` proposals and samples
    /// `kept × samples_per_proposal`, then grows `d` by `step`. Stops when the
    /// estimate's relative change from the previous round is at most
    /// `tolerance`, or when a draw keeps fewer proposals than it asked for.
    GrowProposals {
        step: usize,
        tolerance: f64,
        max_rounds: usize,
    },
    /// Error-budgeted: `d` is fixed, the first round samples
    /// `samples_per_proposal` in total and every further round twice the
    /// last. Stops when the compensated confidence interval at normal
    /// quantile `z` has halfwidth at most `epsilon`.
    DoubleBudget {
        epsilon: f64,
        z: f64,
        max_rounds: usize,
    },
}

/// What one run of the mixture estimator reports, whichever its schedule.
#[derive(Debug, Clone, Default)]
pub struct MixtureOutcome {
    /// The final round's estimate.
    pub estimate: f64,
    /// Rounds executed.
    pub rounds: usize,
    /// Total samples drawn across all rounds.
    pub total_samples: usize,
    /// Samples (across all rounds) on which the proposal mixture had zero
    /// density: drawn, but contributing nothing.
    pub zero_density_samples: usize,
    /// Confidence-interval halfwidth of the final round under the
    /// error-budget schedule; `0` for an unsatisfiable union (the answer is
    /// exactly zero), `∞` under schedules that compute no interval.
    pub halfwidth: f64,
    /// Whether the schedule's own stop rule ended the run (as opposed to
    /// exhausting `max_rounds`).
    pub converged: bool,
}

impl MixtureOutcome {
    /// The estimate with the statistics [`ApproxSolver`] reports.
    pub(crate) fn with_stats(self) -> (f64, EstimateStats) {
        (
            self.estimate,
            EstimateStats {
                samples: self.total_samples,
                zero_density_samples: self.zero_density_samples,
            },
        )
    }
}

impl MisAmpLite {
    /// `d` proposals of `samples_per_proposal` draws each, compensated.
    pub fn new(num_proposals: usize, samples_per_proposal: usize) -> Self {
        MisAmpLite {
            num_proposals,
            samples_per_proposal,
            compensation: true,
        }
    }

    /// Disables the compensation factors (used by the ablation experiments).
    pub fn without_compensation(mut self) -> Self {
        self.compensation = false;
        self
    }

    /// Builds the proposal distributions for the given instance.
    pub fn prepare(
        &self,
        mallows: &MallowsModel,
        labeling: &Labeling,
        union: &PatternUnion,
    ) -> Result<PreparedProposals> {
        ProposalPool::build(mallows, labeling, union)?.draw(self.num_proposals)
    }

    /// The sampling stage, the one way into a mixture pass: draws a **total**
    /// of `total_samples` from the kept proposals' balance-heuristic mixture
    /// (see `approx::mixture`) and returns the mean weight with the weight
    /// moments. The mean estimates the probability of the **covered region**,
    /// the rankings reachable from the kept proposals; compensation (unless
    /// disabled) extrapolates it to the full union in odds space (see
    /// `compensate` below), so the estimate is a probability by construction.
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
        // Finite-sample noise can push the covered-region average marginally
        // above 1: clamp before compensating.
        let covered = moments.mean().clamp(0.0, 1.0);
        let estimate = if self.compensation {
            compensate(covered, prepared.compensation)
        } else {
            covered
        };
        debug_assert!(
            (0.0..=1.0).contains(&estimate),
            "odds-space compensation must yield a probability, got {estimate}"
        );
        (estimate.clamp(0.0, 1.0), moments)
    }

    /// The one round loop of the MIS family: draws `num_proposals` from `pool`
    /// (built from the instance when `None`), then every round samples and
    /// asks `schedule` whether to stop or how to grow. `samples_per_proposal`
    /// is the per-proposal quota, or the first total under `DoubleBudget`.
    /// Draw counts never decrease and all samples come from one RNG stream,
    /// so the outcome depends only on instance, configuration and seed.
    pub(crate) fn run(
        &self,
        mallows: &MallowsModel,
        labeling: &Labeling,
        union: &PatternUnion,
        pool: Option<&mut ProposalPool>,
        schedule: Schedule,
        rng: &mut dyn RngCore,
    ) -> Result<MixtureOutcome> {
        if self.num_proposals == 0 || self.samples_per_proposal == 0 {
            return Err(SolverError::InvalidInstance(
                "MIS-AMP needs at least one proposal and one sample".into(),
            ));
        }
        let mut built = None;
        let pool = match pool {
            Some(pool) => pool,
            None => built.insert(ProposalPool::build(mallows, labeling, union)?),
        };
        let (max_rounds, doubles) = match schedule {
            Schedule::Once => (1, false),
            Schedule::GrowProposals { max_rounds, .. } => (max_rounds.max(1), false),
            Schedule::DoubleBudget { max_rounds, .. } => (max_rounds.max(1), true),
        };
        let mut d = self.num_proposals;
        let mut prepared = pool.draw(d)?;
        if prepared.num_proposals() == 0 {
            // Unsatisfiable union: exactly zero, a zero-width interval. The
            // adaptive estimator counts this empty draw as a round, the
            // budgeted one only sampling rounds.
            return Ok(MixtureOutcome {
                rounds: usize::from(!doubles),
                converged: true,
                ..MixtureOutcome::default()
            });
        }
        let mut total = if doubles {
            self.samples_per_proposal
        } else {
            prepared.num_proposals() * self.samples_per_proposal
        };
        let mut outcome = MixtureOutcome {
            halfwidth: f64::INFINITY,
            ..MixtureOutcome::default()
        };
        let mut previous: Option<f64> = None;
        loop {
            outcome.rounds += 1;
            let (estimate, moments) = self.estimate_prepared_total(mallows, &prepared, total, rng);
            outcome.estimate = estimate;
            outcome.total_samples += moments.samples;
            outcome.zero_density_samples += moments.zero_density;
            outcome.converged = match schedule {
                Schedule::Once => true,
                Schedule::GrowProposals { tolerance, .. } => {
                    let settled = previous.is_some_and(|prev| {
                        ((estimate - prev) / estimate.abs().max(1e-12)).abs() <= tolerance
                    });
                    previous = Some(estimate);
                    // A draw that kept fewer proposals than it asked for
                    // used the whole pool: more cannot change the answer.
                    settled || prepared.num_proposals() < d
                }
                Schedule::DoubleBudget { epsilon, z, .. } => {
                    outcome.halfwidth = compensated_halfwidth(&moments, prepared.compensation, z);
                    outcome.halfwidth <= epsilon
                }
            };
            if outcome.converged || outcome.rounds == max_rounds {
                return Ok(outcome);
            }
            if let Schedule::GrowProposals { step, .. } = schedule {
                d += step.max(1);
                prepared = pool.draw(d)?;
                total = prepared.num_proposals() * self.samples_per_proposal;
            } else {
                total *= 2;
            }
        }
    }
}

/// First and second moments of the per-sample MIS weights from one sampling
/// pass: the mean estimates the covered-region probability, the variance
/// sizes the error-budgeted schedule's confidence interval.
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
}

/// Applies a pruning-compensation factor `c ≥ 1` to the covered-region
/// probability `p` in **odds space**: `p′ = c·p / (c·p + (1 − p))`, i.e. the
/// odds `p/(1−p)` are multiplied by `c` rather than the probability itself.
///
/// This is the normalization that makes the compensated estimator a proper
/// probability: for any `p ∈ [0, 1]` and `c ≥ 1` the result is in `[p, 1]`,
/// and for small `p` it reduces to the multiplicative `c·p` (to first order)
/// that the paper's compensation targets — the rare-event regime it exists
/// for — where multiplying the probability itself over-counts the overlap of
/// sub-ranking events and passes 1 on likely unions. `c = 1` (nothing
/// pruned) is an exact no-op bit for bit.
fn compensate(p: f64, c: f64) -> f64 {
    if c <= 1.0 {
        return p;
    }
    let scaled = c * p;
    scaled / (scaled + (1.0 - p))
}

/// Confidence-interval halfwidth of the *compensated* estimate: the normal
/// interval on the covered-region mean is mapped endpoint-wise through the
/// odds-space compensation (a monotone map, so the image of an interval is an
/// interval) and the halfwidth of the image is reported.
fn compensated_halfwidth(moments: &SampleMoments, factor: f64, z: f64) -> f64 {
    // Fewer than two samples carry no variance information: the empirical
    // interval would collapse to a point and certify any ε vacuously.
    if moments.samples < 2 {
        return f64::INFINITY;
    }
    let se = (moments.variance() / moments.samples as f64).sqrt();
    let mean = moments.mean().clamp(0.0, 1.0);
    let lo = compensate((mean - z * se).clamp(0.0, 1.0), factor);
    let hi = compensate((mean + z * se).clamp(0.0, 1.0), factor);
    (hi - lo) / 2.0
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
        self.estimate_with_stats(mallows, labeling, union, rng)
            .map(|(p, _)| p)
    }

    fn estimate_with_stats(
        &self,
        mallows: &MallowsModel,
        labeling: &Labeling,
        union: &PatternUnion,
        rng: &mut dyn RngCore,
    ) -> Result<(f64, EstimateStats)> {
        self.run(mallows, labeling, union, None, Schedule::Once, rng)
            .map(MixtureOutcome::with_stats)
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

    /// The sampling stage at the estimator's own budget, `d × n`.
    fn estimate_prepared(
        solver: &MisAmpLite,
        model: &MallowsModel,
        prepared: &PreparedProposals,
        rng: &mut StdRng,
    ) -> f64 {
        let total = prepared.num_proposals() * solver.samples_per_proposal;
        solver
            .estimate_prepared_total(model, prepared, total, rng)
            .0
    }

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
        assert!(prepared.compensation >= 1.0);
        let mut rng2 = StdRng::seed_from_u64(61);
        let est_with = estimate_prepared(&with, &model, &prepared, &mut rng);
        let est_without = estimate_prepared(&without, &model, &prepared, &mut rng2);
        assert!(est_with >= est_without);
    }

    #[test]
    fn pool_based_preparation_matches_fresh_preparation() {
        let model = mallows(6, 0.4);
        let lab = cyclic_labeling(6, 3);
        let chain = Pattern::new(vec![sel(1), sel(2), sel(0)], vec![(0, 1), (1, 2)]).unwrap();
        let union = PatternUnion::new(vec![chain, Pattern::two_label(sel(2), sel(1))]).unwrap();
        let mut pool = ProposalPool::build(&model, &lab, &union).unwrap();
        // Growing proposal counts, as the adaptive solver requests them.
        for d in [1usize, 3, 6, 12] {
            let lite = MisAmpLite::new(d, 200);
            let fresh = lite.prepare(&model, &lab, &union).unwrap();
            let pooled = pool.draw(d).unwrap();
            assert_eq!(fresh.num_proposals(), pooled.num_proposals());
            assert_eq!(fresh.compensation, pooled.compensation);
            let mut rng_fresh = StdRng::seed_from_u64(99);
            let mut rng_pooled = StdRng::seed_from_u64(99);
            let est_fresh = estimate_prepared(&lite, &model, &fresh, &mut rng_fresh);
            let est_pooled = estimate_prepared(&lite, &model, &pooled, &mut rng_pooled);
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
        let uncompensated = estimate_prepared(
            &solver.clone().without_compensation(),
            &model,
            &prepared,
            &mut rng_nc,
        );
        let factors = prepared.compensation;
        assert!(
            uncompensated * factors > 1.0,
            "the regression premise needs the multiplicative form to overshoot, got {}",
            uncompensated * factors
        );
        let mut rng = StdRng::seed_from_u64(13);
        let est = estimate_prepared(&solver, &model, &prepared, &mut rng);
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
            let mut pool = ProposalPool::build(&model, &lab, &union).unwrap();
            let prepared = pool.draw(solver.num_proposals).unwrap();
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
            let expected = super::compensate(covered, prepared.compensation);
            let mut rng = StdRng::seed_from_u64(seed);
            let got = estimate_prepared(&solver, &model, &prepared, &mut rng);
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
                        let mut pool = ProposalPool::build(&model, &lab, union).unwrap();
                        let prepared = pool.draw(d).unwrap();
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
        // and the estimator's one round must be the entry point at `d · n`
        // bit for bit.
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
        let (est_a, stats_a) = solver
            .estimate_with_stats(&model, &lab, &union, &mut rng_a)
            .unwrap();
        let (est_b, mom_b) = solver.estimate_prepared_total(&model, &prepared, d * 100, &mut rng_b);
        assert_eq!(est_a.to_bits(), est_b.to_bits());
        assert_eq!(stats_a.samples, mom_b.samples);

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
