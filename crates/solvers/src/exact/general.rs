//! The general solver (Section 4.1): inclusion–exclusion over the members of
//! a pattern union, with every conjunction evaluated by the exact
//! single-pattern solver.
//!
//! `Pr(g₁ ∪ … ∪ g_z) = Σ_i Pr(g_i) − Σ_{i<j} Pr(g_i ∧ g_j) + …` where the
//! conjunction of patterns is the pattern containing all of their nodes and
//! edges. The solver is exponential in `z` (it evaluates `2^z − 1`
//! conjunctions) *and* each conjunction is itself costly, which is exactly why
//! the paper treats it as the non-scalable baseline; the specialised
//! two-label and bipartite solvers and the MIS-AMP family exist to avoid it.

use crate::budget::Budget;
use crate::exact::pattern::PatternSolver;
use crate::traits::ExactSolver;
use crate::{Result, SolverError};
use ppd_patterns::{Labeling, Pattern, PatternUnion};
use ppd_rim::{Item, RimModel};
use std::collections::HashMap;

/// Exact solver for arbitrary pattern unions via inclusion–exclusion.
#[derive(Debug, Clone, Default)]
pub struct GeneralSolver {
    budget: Option<Budget>,
}

/// The most satisfiable members the solver expands: 2¹⁶ − 1 conjunctions.
const MAX_MEMBERS: usize = 16;

/// A union member that can be satisfied, with the candidate items of each of
/// its nodes (all non-empty — that is what "can be satisfied" means here).
type Member<'a> = (&'a Pattern, Vec<Vec<Item>>);

impl GeneralSolver {
    /// Creates a solver. Unions of more than 16 satisfiable members (more
    /// than 65 535 conjunctions) are [`SolverError::Unsupported`].
    pub fn new() -> Self {
        GeneralSolver::default()
    }

    /// Attaches a resource budget, forwarded to every conjunction evaluation.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    fn pattern_solver(&self) -> PatternSolver {
        match &self.budget {
            Some(b) => PatternSolver::with_budget(b.clone()),
            None => PatternSolver::new(),
        }
    }

    /// Evaluates one conjunction of members; exposed so that experiment
    /// harnesses (Figure 5) can time individual conjunction evaluations.
    pub fn conjunction_probability(
        &self,
        rim: &RimModel,
        labeling: &Labeling,
        union: &PatternUnion,
        member_indices: &[usize],
    ) -> Result<f64> {
        let conjunction = union.conjunction_of(member_indices)?;
        self.pattern_solver()
            .solve_pattern(rim, labeling, &conjunction)
    }
}

/// `Pr` of the conjunction of the members selected by `classes` (a non-empty
/// bit set over `members`). A single member is solved in place; several are
/// folded with [`Pattern::conjunction`], which lays their nodes side by side
/// in order — so the conjunction's candidate sets are the members' in order.
fn solve_conjunction(
    solver: &PatternSolver,
    rim: &RimModel,
    labeling: &Labeling,
    members: &[Member<'_>],
    classes: u64,
) -> Result<f64> {
    let mut selected = (0..members.len())
        .filter(|&i| classes & (1 << i) != 0)
        .map(|i| &members[i]);
    let (first, first_candidates) = selected.next().expect("a non-empty set of classes");
    if classes.count_ones() == 1 {
        return solver.solve_with_candidates(rim, labeling, first, first_candidates);
    }
    let mut conjunction = (*first).clone();
    let mut candidates = first_candidates.clone();
    for (pattern, member_candidates) in selected {
        conjunction = conjunction.conjunction(pattern)?;
        candidates.extend_from_slice(member_candidates);
    }
    solver.solve_with_candidates(rim, labeling, &conjunction, &candidates)
}

impl ExactSolver for GeneralSolver {
    fn name(&self) -> &'static str {
        "general"
    }

    fn solve(&self, rim: &RimModel, labeling: &Labeling, union: &PatternUnion) -> Result<f64> {
        self.solve_counting(rim, labeling, union).map(|(p, _)| p)
    }
}

impl GeneralSolver {
    /// [`ExactSolver::solve`], additionally reporting how many *distinct*
    /// conjunctions were actually evaluated. Within a single solve,
    /// conjunction probabilities are memoized by canonical conjunction:
    /// duplicate members canonicalize to the same conjunction pattern
    /// (`g ∧ g = g` — an embedding of each copy is an embedding of one), so
    /// distinct member subsets can share one evaluation. The count is
    /// exposed for the memoization tests and the experiment harnesses.
    fn solve_counting(
        &self,
        rim: &RimModel,
        labeling: &Labeling,
        union: &PatternUnion,
    ) -> Result<(f64, usize)> {
        if rim.num_items() == 0 {
            return Err(SolverError::InvalidInstance("empty item universe".into()));
        }
        // Members that cannot be satisfied contribute nothing, and removing
        // them shrinks the inclusion–exclusion expansion. The candidate sets
        // that show a member satisfiable are what its solve starts from.
        let universe = rim.sigma().items();
        let members: Vec<Member<'_>> = union
            .patterns()
            .iter()
            .filter_map(|g| Some((g, g.candidate_sets(universe, labeling).ok()?)))
            .collect();
        let z = members.len();
        if z == 0 {
            return Ok((0.0, 0));
        }
        if z > MAX_MEMBERS {
            return Err(SolverError::Unsupported(format!(
                "inclusion–exclusion over {z} members exceeds the cap of {MAX_MEMBERS}"
            )));
        }
        let solver = self.pattern_solver();
        if let [(pattern, candidates)] = &members[..] {
            // One member is its own expansion: `0.0 + p` is `p`, so there is
            // no subset to enumerate and nothing to memoise. Polled once,
            // like the one mask the loop below would have visited.
            if let Some(budget) = &self.budget {
                budget.check_cancelled()?;
            }
            let p = solver.solve_with_candidates(rim, labeling, pattern, candidates)?;
            return Ok((p.clamp(0.0, 1.0), 1));
        }
        // Content classes: members with structurally equal patterns share a
        // class, named by the bit of the class's first occurrence.
        let class_bit: Vec<u64> = (0..z)
            .map(|i| {
                let first = (0..i).find(|&j| members[j].0 == members[i].0);
                1 << first.unwrap_or(i)
            })
            .collect();
        let mut memo: HashMap<u64, f64> = HashMap::new();
        let mut total = 0.0;
        // Iterate over all non-empty subsets of members.
        for mask in 1u64..(1u64 << z) {
            // The per-conjunction PatternSolver polls the budget inside its
            // DP, but memo hits skip it entirely; poll the cancellation probe
            // here so even a fully memoized expansion stays interruptible.
            if let Some(budget) = &self.budget {
                budget.check_cancelled()?;
            }
            // Canonical conjunction: the set of distinct content classes.
            // Conjunction is idempotent and order-insensitive in
            // probability, so equal sets have equal conjunction marginals.
            let classes = (0..z)
                .filter(|&i| mask & (1 << i) != 0)
                .fold(0, |set, i| set | class_bit[i]);
            let p = match memo.get(&classes) {
                Some(&p) => p,
                None => {
                    let p = solve_conjunction(&solver, rim, labeling, &members, classes)?;
                    memo.insert(classes, p);
                    p
                }
            };
            // Inclusion–exclusion sign from the *original* subset size
            // (duplicates included).
            if mask.count_ones() % 2 == 1 {
                total += p;
            } else {
                total -= p;
            }
        }
        Ok((total.clamp(0.0, 1.0), memo.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::bipartite::BipartiteSolver;
    use crate::exact::brute::BruteForceSolver;
    use crate::exact::two_label::TwoLabelSolver;
    use crate::testutil::{cyclic_labeling, rim, sample_unions, sel};
    use ppd_patterns::{Pattern, PatternUnion, UnionClass};

    #[test]
    fn example_4_1_inclusion_exclusion() {
        // G = {l1 ≻ l2} ∪ {l3 ≻ l4}: Pr(G) = Pr(g1) + Pr(g2) − Pr(g1 ∧ g2).
        let model = rim(6, 0.5);
        let lab = cyclic_labeling(6, 4);
        let g1 = Pattern::two_label(sel(1), sel(2));
        let g2 = Pattern::two_label(sel(3), sel(0));
        let union = PatternUnion::new(vec![g1.clone(), g2.clone()]).unwrap();
        let solver = GeneralSolver::new();
        let p1 = solver
            .conjunction_probability(&model, &lab, &union, &[0])
            .unwrap();
        let p2 = solver
            .conjunction_probability(&model, &lab, &union, &[1])
            .unwrap();
        let p12 = solver
            .conjunction_probability(&model, &lab, &union, &[0, 1])
            .unwrap();
        let total = solver.solve(&model, &lab, &union).unwrap();
        assert!((total - (p1 + p2 - p12)).abs() < 1e-9);
        // The members are not mutually exclusive: Pr(G) < Pr(g1) + Pr(g2).
        assert!(total < p1 + p2);
    }

    #[test]
    fn agrees_with_brute_force_on_all_sample_unions() {
        let brute = BruteForceSolver::new();
        let solver = GeneralSolver::new();
        for &m in &[5usize, 6] {
            for &phi in &[0.2, 0.8] {
                let model = rim(m, phi);
                let lab = cyclic_labeling(m, 4);
                for union in sample_unions() {
                    let expected = brute.solve(&model, &lab, &union).unwrap();
                    let got = solver.solve(&model, &lab, &union).unwrap();
                    assert!(
                        (expected - got).abs() < 1e-9,
                        "m={m} phi={phi} union={union:?}: {expected} vs {got}"
                    );
                }
            }
        }
    }

    #[test]
    fn agrees_with_specialised_solvers_on_their_fragments() {
        let model = rim(7, 0.4);
        let lab = cyclic_labeling(7, 4);
        let general = GeneralSolver::new();
        for union in sample_unions() {
            let p = general.solve(&model, &lab, &union).unwrap();
            match union.classify() {
                UnionClass::TwoLabel => {
                    let q = TwoLabelSolver::new().solve(&model, &lab, &union).unwrap();
                    assert!((p - q).abs() < 1e-9);
                }
                UnionClass::Bipartite => {
                    let q = BipartiteSolver::new().solve(&model, &lab, &union).unwrap();
                    assert!((p - q).abs() < 1e-9);
                }
                UnionClass::General => {}
            }
        }
    }

    #[test]
    fn union_size_cap_enforced() {
        let model = rim(5, 0.5);
        let lab = cyclic_labeling(5, 3);
        let copies = |z: usize| {
            let members = (0..z).map(|_| Pattern::two_label(sel(1), sel(0))).collect();
            GeneralSolver::new().solve(&model, &lab, &PatternUnion::new(members).unwrap())
        };
        // At the cap the expansion runs (65 535 subsets, one distinct
        // conjunction) and sums back to the one member's probability.
        let one = copies(1).unwrap();
        assert!((copies(16).unwrap() - one).abs() < 1e-9);
        // One member more is refused, and so are 64, where subsets as `u64`
        // masks would overflow (`1 << 64`: a debug panic, a release wrap to
        // an empty loop and a silent 0.0).
        for z in [17, 64] {
            assert!(
                matches!(copies(z), Err(SolverError::Unsupported(_))),
                "{z} members"
            );
        }
    }

    #[test]
    fn cancellation_aborts_a_general_dag_solve_before_its_last_relevant_step() {
        use crate::budget::CancelProbe;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        // Item 8 ≻ item 1 ≻ item 5 over m = 10: the kernel runs steps 0..=8
        // and polls after each of them but the last.
        let model = rim(10, 0.5);
        let lab = cyclic_labeling(10, 10);
        let chain = Pattern::new(vec![sel(8), sel(1), sel(5)], vec![(0, 1), (1, 2)]).unwrap();
        let union = PatternUnion::singleton(chain).unwrap();
        let solve_with_probe_firing_after = |k: usize| {
            let polls = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&polls);
            let probe = CancelProbe::new(move || counter.fetch_add(1, Ordering::SeqCst) >= k);
            let result = GeneralSolver::new()
                .with_budget(Budget::cancellable(probe))
                .solve(&model, &lab, &union);
            (result, polls.load(Ordering::SeqCst))
        };
        // One poll per subset mask, then one per executed step that leaves a
        // frontier behind (steps 0..=7).
        let (result, polls) = solve_with_probe_firing_after(usize::MAX);
        let expected = GeneralSolver::new().solve(&model, &lab, &union).unwrap();
        assert_eq!(result.unwrap().to_bits(), expected.to_bits());
        assert_eq!(polls, 1 + 8);
        for k in [0, 1, 4, 8] {
            let (result, polls) = solve_with_probe_firing_after(k);
            assert!(
                matches!(result, Err(SolverError::Cancelled)),
                "k={k}: {result:?}"
            );
            assert_eq!(polls, k + 1, "the solve stops at the poll that fires");
        }
    }

    #[test]
    fn duplicate_members_share_conjunction_evaluations() {
        // G = {g, g', g}: 7 non-empty subsets, but only 3 canonical
        // conjunctions ({g}, {g'}, {g ∧ g'}) need solving.
        let model = rim(6, 0.5);
        let lab = cyclic_labeling(6, 3);
        let g = Pattern::two_label(sel(1), sel(2));
        let g2 = Pattern::new(vec![sel(1), sel(2), sel(0)], vec![(0, 1), (1, 2)]).unwrap();
        let union = PatternUnion::new(vec![g.clone(), g2.clone(), g.clone()]).unwrap();
        let (p, evaluated) = GeneralSolver::new()
            .solve_counting(&model, &lab, &union)
            .unwrap();
        assert_eq!(evaluated, 3);
        let expected = BruteForceSolver::new().solve(&model, &lab, &union).unwrap();
        assert!((expected - p).abs() < 1e-9, "{expected} vs {p}");
        // A duplicate-free union evaluates every subset exactly once.
        let distinct = PatternUnion::new(vec![g, g2]).unwrap();
        let (_, evaluated) = GeneralSolver::new()
            .solve_counting(&model, &lab, &distinct)
            .unwrap();
        assert_eq!(evaluated, 3);
    }

    #[test]
    fn wholly_unsatisfiable_union_is_zero() {
        let model = rim(5, 0.5);
        let lab = cyclic_labeling(5, 3);
        let union = PatternUnion::singleton(Pattern::two_label(sel(9), sel(8))).unwrap();
        assert_eq!(
            GeneralSolver::new().solve(&model, &lab, &union).unwrap(),
            0.0
        );
    }
}
