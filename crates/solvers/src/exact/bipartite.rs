//! The bipartite solver (Algorithm 4 of the paper).
//!
//! Handles unions of *bipartite patterns*: patterns whose nodes are used
//! either only as the preferred side (L-type) or only as the less-preferred
//! side (R-type) of edges. A ranking satisfies such a pattern iff every edge
//! `(l, r)` satisfies `α(l) < β(r)`, where `α` is the minimum position of an
//! item matching `l` and `β` the maximum position of an item matching `r` —
//! the earliest L-witness and the latest R-witness can serve every edge
//! simultaneously.
//!
//! The solver is a dynamic program over the RIM insertion process whose
//! states track these min/max positions, pruning the bookkeeping that can no
//! longer influence the outcome: satisfied edges, violated patterns, and the
//! positions of selectors that no longer appear in any uncertain edge. A
//! state — position slots plus one uncertain-edge bitmask field per member
//! pattern — is packed into one unsigned key and advanced by the step loop of
//! `exact::packed` (see there for the determinism argument, and for how a
//! step whose item matches no selector costs one successor per gap between
//! the stored positions instead of one per position).
//!
//! Two-label unions are the bipartite unions with one edge per member, and
//! the two solvers share everything but their kernels' expansion and answer:
//! the compiled form of a union (deduplicated selectors, their match rows,
//! each member's edges) and the shift-then-fold update of the witness slots.

use crate::budget::Budget;
use crate::exact::packed::{get_slot, insert_witness, run_steps, Slots, Wide, Word};
use crate::exact::satisfiable_members;
use crate::traits::ExactSolver;
use crate::{Result, SolverError};
use ppd_patterns::{Labeling, NodeSelector, Pattern, PatternUnion, UnionClass};
use ppd_rim::RimModel;

/// Exact solver for unions of bipartite patterns (Algorithm 4).
///
/// Complexity: `O(m^{Σ_g q_g})` states in the worst case (`q_g` = number of
/// nodes of member `g`), with substantial practical savings from pruning.
#[derive(Debug, Clone, Default)]
pub struct BipartiteSolver {
    budget: Option<Budget>,
}

impl BipartiteSolver {
    /// Creates a solver without resource limits.
    pub fn new() -> Self {
        BipartiteSolver::default()
    }

    /// Attaches a resource budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Width in bits of the packed state for this instance (position slots
    /// plus per-pattern uncertain-edge masks), or `None` when it exceeds 128
    /// bits and the kernel runs on a multiword key. Exposed for the
    /// wide-state tests and the kernel benchmark.
    #[doc(hidden)]
    pub fn packed_state_width(
        rim: &RimModel,
        labeling: &Labeling,
        union: &PatternUnion,
    ) -> Option<u32> {
        let members = satisfiable_members(rim, labeling, union)?;
        let width = packed_width(rim.num_items(), &compile(rim, labeling, &members));
        (width <= 128).then_some(width)
    }
}

/// A union of bipartite members — two-label unions included — compiled for
/// the packed kernels: its selectors deduplicated per role into *entries*,
/// one position slot each (the L entries, holding `α`, then the R entries,
/// holding `β`, each in order of first use), each member's deduplicated
/// edges over those slots, and per insertion step which entries the step's
/// item matches.
pub(crate) struct Compiled {
    /// Number of L entries: slots `0..num_l` hold `α`, the rest `β`.
    pub(crate) num_l: usize,
    /// Per member, its edges as `(L slot, R slot)` pairs.
    pub(crate) member_edges: Vec<Vec<(usize, usize)>>,
    /// One row of `num_slots()` flags per step: does the step's item match
    /// the slot's selector?
    matches: Vec<bool>,
    /// Per slot, the last step whose item matches its selector.
    pub(crate) last: Vec<usize>,
}

impl Compiled {
    pub(crate) fn num_slots(&self) -> usize {
        self.last.len()
    }

    /// Which entries the item inserted at step `i` matches, slot by slot.
    pub(crate) fn matches(&self, i: usize) -> &[bool] {
        let n = self.num_slots();
        &self.matches[i * n..(i + 1) * n]
    }

    /// The item inserted at step `i` matches no entry: the step only shifts
    /// the stored witnesses, and a shift keeps every `α < β` as it is.
    pub(crate) fn shifts_only(&self, i: usize) -> bool {
        !self.matches(i).contains(&true)
    }
}

/// Index of `selector` among `entries`, appended on first use.
fn entry<'a>(entries: &mut Vec<&'a NodeSelector>, selector: &'a NodeSelector) -> usize {
    entries
        .iter()
        .position(|&s| s == selector)
        .unwrap_or_else(|| {
            entries.push(selector);
            entries.len() - 1
        })
}

pub(crate) fn compile(rim: &RimModel, labeling: &Labeling, members: &[&Pattern]) -> Compiled {
    let (mut l_entries, mut r_entries) = (Vec::new(), Vec::new());
    let mut member_edges: Vec<Vec<(usize, usize)>> = (members.iter())
        .map(|pattern| {
            let mut edges = Vec::with_capacity(pattern.num_edges());
            for &(a, b) in pattern.edges() {
                let edge = (
                    entry(&mut l_entries, &pattern.nodes()[a]),
                    entry(&mut r_entries, &pattern.nodes()[b]),
                );
                if !edges.contains(&edge) {
                    edges.push(edge);
                }
            }
            edges
        })
        .collect();
    let num_l = l_entries.len();
    for (_, r) in member_edges.iter_mut().flatten() {
        *r += num_l;
    }
    let selectors: Vec<&NodeSelector> = l_entries.into_iter().chain(r_entries).collect();
    let matches: Vec<bool> = (rim.sigma().items().iter())
        .flat_map(|&item| selectors.iter().map(move |s| s.matches(item, labeling)))
        .collect();
    // Every member that reaches here is satisfiable, so every entry has a
    // candidate and its last step is a step that matches it — which is why a
    // step that matches no entry can never be the one that violates an edge.
    let n = selectors.len();
    let last = (0..n)
        .map(|e| (0..rim.num_items()).rev().find(|&i| matches[i * n + e]))
        .map(|last| last.unwrap_or(0))
        .collect();
    Compiled {
        num_l,
        member_edges,
        matches,
        last,
    }
}

/// Packed width of the pruning DP state: one slot per entry plus one
/// bitmask field (one bit per edge) per member.
fn packed_width(m: usize, c: &Compiled) -> u32 {
    let mask_bits: u32 = c.member_edges.iter().map(|e| e.len() as u32).sum();
    Slots::new(m, c.num_slots(), 0).width() + mask_bits
}

impl ExactSolver for BipartiteSolver {
    fn name(&self) -> &'static str {
        "bipartite"
    }

    fn solve(&self, rim: &RimModel, labeling: &Labeling, union: &PatternUnion) -> Result<f64> {
        match union.classify() {
            UnionClass::TwoLabel | UnionClass::Bipartite => {}
            UnionClass::General => {
                return Err(SolverError::Unsupported(
                    "the bipartite solver requires a union of bipartite patterns".into(),
                ))
            }
        }
        let m = rim.num_items();
        if m == 0 {
            return Err(SolverError::InvalidInstance("empty item universe".into()));
        }
        let Some(members) = satisfiable_members(rim, labeling, union) else {
            return Ok(0.0);
        };
        // A satisfiable member without edges is satisfied by every ranking.
        if members.iter().any(|p| p.num_edges() == 0) {
            return Ok(1.0);
        }
        let compiled = compile(rim, labeling, &members);
        if let Some(edges) = compiled.member_edges.iter().find(|e| e.len() > 64) {
            return Err(SolverError::Unsupported(format!(
                "a member with {} deduplicated edges exceeds the pruning DP's 64-edge \
                 uncertain-edge mask (and its state space is intractable anyway)",
                edges.len()
            )));
        }
        let budget = self.budget.as_ref();
        match packed_width(m, &compiled) {
            0..=64 => solve_packed::<u64>(rim, &compiled, budget),
            65..=128 => solve_packed::<u128>(rim, &compiled, budget),
            _ => solve_packed::<Wide>(rim, &compiled, budget),
        }
    }
}

/// The pruning kernel. Key layout, most to least significant: the position
/// slots (`α` entries, then `β`; `None → 0`, `Some(p) → p + 1`), then one
/// uncertain-edge bitmask field per member (member 0 highest, bit `e` for
/// its edge `e`). Integer order over this layout equals the oracle's derived
/// `Ord` over (positions, masks), which is what makes the two sum floats in
/// the same order.
fn solve_packed<W: Word>(rim: &RimModel, c: &Compiled, budget: Option<&Budget>) -> Result<f64> {
    let mask_bits: u32 = c.member_edges.iter().map(|e| e.len() as u32).sum();
    let slots = Slots::new(rim.num_items(), c.num_slots(), mask_bits);
    let slot_mask = slots.mask();
    // Per member, its mask field's shift and its all-uncertain value (a
    // member has 1 to 64 edges).
    let mut shift = mask_bits;
    let fields: Vec<(u32, u64)> = (c.member_edges.iter())
        .map(|edges| {
            shift -= edges.len() as u32;
            (shift, u64::MAX >> (64 - edges.len()))
        })
        .collect();
    let initial = (fields.iter()).fold(W::ZERO, |key, &(shift, all)| key.or_at(shift, all));

    let mut satisfied_mass = 0.0;
    run_steps(
        initial,
        rim.pi(),
        slots,
        budget,
        |i| c.shifts_only(i),
        |i, state, prob, row, frontier| {
            let matches = c.matches(i);
            'insertion: for (j, &pj) in row.iter().enumerate() {
                let p_new = prob * pj;
                // Entries no uncertain edge of `state` reads are unplaced
                // there; whatever this fills in for them is dropped below.
                let positions = insert_witness(state, j as u32 + 1, matches, c.num_l, slots);
                let slot = |e: usize| get_slot(&positions, slots.shift_of(e), slot_mask);
                // Re-evaluate the uncertain edges of every member.
                let mut next = W::ZERO;
                let mut any_uncertain = false;
                for (edges, &(shift, all)) in c.member_edges.iter().zip(&fields) {
                    let mask = state.field(shift) & all;
                    if mask == 0 {
                        // Violated at an earlier step.
                        continue;
                    }
                    let mut remaining = 0u64;
                    let mut violated = false;
                    for (e, &(l, r)) in edges.iter().enumerate() {
                        if mask & (1 << e) == 0 {
                            continue;
                        }
                        let a = slot(l);
                        if a != 0 && a < slot(r) {
                            // Satisfied, and a shift keeps it so.
                            continue;
                        }
                        if i >= c.last[l] && i >= c.last[r] {
                            // All witnesses are in and the edge still
                            // does not hold: it never will.
                            violated = true;
                            break;
                        }
                        remaining |= 1 << e;
                    }
                    if violated {
                        continue;
                    }
                    if remaining == 0 {
                        // The member — hence the union — is satisfied.
                        satisfied_mass += p_new;
                        continue 'insertion;
                    }
                    any_uncertain = true;
                    next = next.or_at(shift, remaining);
                    // Keep only the positions uncertain edges still read, so
                    // that behaviourally identical states merge.
                    for (e, &(l, r)) in edges.iter().enumerate() {
                        if remaining & (1 << e) != 0 {
                            for s in [l, r] {
                                next = next.or_at(slots.shift_of(s), u64::from(slot(s)));
                            }
                        }
                    }
                }
                // With no member uncertain, every member is violated.
                if any_uncertain {
                    frontier.push(next, p_new);
                }
            }
        },
    )?;
    Ok(satisfied_mass.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute::BruteForceSolver;
    use crate::exact::reference;
    use crate::exact::two_label::TwoLabelSolver;
    use crate::testutil::{cyclic_labeling, rim, sel};
    use ppd_patterns::{Pattern, PatternUnion};

    /// The kernel on a `u128` and on a multiword key, then the map-based
    /// oracle — and on a `u64` first when the state fits one.
    fn every_kernel(
        model: &RimModel,
        lab: &Labeling,
        union: &PatternUnion,
        budget: Option<&Budget>,
    ) -> Vec<Result<f64>> {
        let members = satisfiable_members(model, lab, union).expect("a satisfiable union");
        let c = compile(model, lab, &members);
        let mut results = Vec::new();
        if packed_width(model.num_items(), &c) <= 64 {
            results.push(solve_packed::<u64>(model, &c, budget));
        }
        results.push(solve_packed::<u128>(model, &c, budget));
        results.push(solve_packed::<Wide>(model, &c, budget));
        results.push(reference::bipartite(model, lab, union, budget));
        results
    }

    fn bipartite_unions() -> Vec<PatternUnion> {
        let two = Pattern::two_label(sel(0), sel(1));
        let vee = Pattern::new(vec![sel(2), sel(0), sel(1)], vec![(0, 1), (0, 2)]).unwrap();
        let benchmark_a_shape = Pattern::new(
            vec![sel(0), sel(1), sel(2), sel(3)],
            vec![(0, 2), (0, 3), (1, 3)],
        )
        .unwrap();
        vec![
            PatternUnion::singleton(two.clone()).unwrap(),
            PatternUnion::singleton(vee.clone()).unwrap(),
            PatternUnion::singleton(benchmark_a_shape.clone()).unwrap(),
            PatternUnion::new(vec![two.clone(), vee]).unwrap(),
            PatternUnion::new(vec![benchmark_a_shape, two]).unwrap(),
        ]
    }

    #[test]
    fn rejects_general_unions() {
        let chain = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2)]).unwrap();
        let union = PatternUnion::singleton(chain).unwrap();
        let model = rim(5, 0.5);
        let lab = cyclic_labeling(5, 3);
        assert!(matches!(
            BipartiteSolver::new().solve(&model, &lab, &union),
            Err(SolverError::Unsupported(_))
        ));
    }

    #[test]
    fn agrees_with_brute_force() {
        let brute = BruteForceSolver::new();
        for &m in &[4usize, 5, 6] {
            for &phi in &[0.0, 0.2, 0.7, 1.0] {
                let model = rim(m, phi);
                for &labels in &[3u32, 4] {
                    let lab = cyclic_labeling(m, labels);
                    for union in bipartite_unions() {
                        let expected = brute.solve(&model, &lab, &union).unwrap();
                        let got = BipartiteSolver::new().solve(&model, &lab, &union).unwrap();
                        assert!(
                            (expected - got).abs() < 1e-9,
                            "m={m} phi={phi} labels={labels}: {expected} vs {got}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn packed_kernel_is_bit_identical_to_reference() {
        for &m in &[4usize, 6, 8] {
            for &phi in &[0.0, 0.4, 1.0] {
                let model = rim(m, phi);
                let lab = cyclic_labeling(m, 4);
                for union in bipartite_unions() {
                    let solved = BipartiteSolver::new().solve(&model, &lab, &union).unwrap();
                    let results = every_kernel(&model, &lab, &union, None);
                    assert_eq!(results.len(), 4, "every instance here fits a u64");
                    for p in results.into_iter().map(Result::unwrap) {
                        assert_eq!(
                            solved.to_bits(),
                            p.to_bits(),
                            "m={m}, phi={phi}, {union:?}: solver {solved} vs {p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn two_label_unions_also_supported() {
        // The bipartite solver must handle two-label unions as a special case
        // and agree with the dedicated two-label solver.
        let model = rim(7, 0.4);
        let lab = cyclic_labeling(7, 3);
        let union = PatternUnion::new(vec![
            Pattern::two_label(sel(2), sel(0)),
            Pattern::two_label(sel(1), sel(0)),
        ])
        .unwrap();
        let a = TwoLabelSolver::new().solve(&model, &lab, &union).unwrap();
        let b = BipartiteSolver::new().solve(&model, &lab, &union).unwrap();
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn unsatisfiable_members_do_not_crash() {
        let model = rim(5, 0.5);
        let lab = cyclic_labeling(5, 3);
        let good = Pattern::two_label(sel(1), sel(0));
        let bad = Pattern::new(vec![sel(9), sel(0), sel(1)], vec![(0, 1), (0, 2)]).unwrap();
        let union = PatternUnion::new(vec![good.clone(), bad]).unwrap();
        let expected = BruteForceSolver::new().solve(&model, &lab, &union).unwrap();
        let got = BipartiteSolver::new().solve(&model, &lab, &union).unwrap();
        assert!((expected - got).abs() < 1e-9);
        // A union in which nothing is satisfiable has probability zero.
        let bad2 = Pattern::two_label(sel(9), sel(8));
        let empty = PatternUnion::singleton(bad2).unwrap();
        assert_eq!(
            BipartiteSolver::new().solve(&model, &lab, &empty).unwrap(),
            0.0
        );
    }

    #[test]
    fn edgeless_members_classify_as_general_and_are_rejected() {
        // An edgeless pattern is not bipartite (`Pattern::is_bipartite`), so
        // a union containing one classifies as General and is rejected here
        // before any kernel runs; the in-solver edgeless shortcut is defence
        // in depth for the (currently unreachable) direct path.
        let model = rim(5, 0.5);
        let lab = cyclic_labeling(5, 3);
        let edgeless = Pattern::new(vec![sel(0), sel(1)], vec![]).unwrap();
        let union = PatternUnion::new(vec![edgeless, Pattern::two_label(sel(1), sel(0))]).unwrap();
        assert!(matches!(
            BipartiteSolver::new().solve(&model, &lab, &union),
            Err(SolverError::Unsupported(_))
        ));
    }

    #[test]
    fn budget_abort_is_reported() {
        let model = rim(10, 0.5);
        let lab = cyclic_labeling(10, 4);
        let union = PatternUnion::singleton(
            Pattern::new(
                vec![sel(0), sel(1), sel(2), sel(3)],
                vec![(0, 2), (0, 3), (1, 3)],
            )
            .unwrap(),
        )
        .unwrap();
        let budget = Budget::with_max_states(2);
        assert!(matches!(
            BipartiteSolver::new()
                .with_budget(budget.clone())
                .solve(&model, &lab, &union),
            Err(SolverError::BudgetExceeded(_))
        ));
        for result in every_kernel(&model, &lab, &union, Some(&budget)) {
            assert!(matches!(result, Err(SolverError::BudgetExceeded(_))));
        }
    }

    #[test]
    fn sixty_four_edge_member_runs_the_packed_kernel_without_overflow() {
        // A complete 8×8 bipartite member has exactly 64 deduplicated edges,
        // the uncertain-edge mask's capacity (the `1 << 64` overflow case):
        // 16 slots × 2 bits + 64 mask bits, a u128 key. Keep m tiny so that
        // brute force and the oracle are trivially tractable.
        let m = 2usize;
        let model = rim(m, 0.5);
        let mut lab = Labeling::new();
        for item in 0..m as u32 {
            for k in 0..9u32 {
                lab.add(item, k);
                lab.add(item, 100 + k);
            }
        }
        let build = |num_l: u32| {
            let mut nodes: Vec<NodeSelector> = (0..num_l).map(sel).collect();
            nodes.extend((0..8u32).map(|k| sel(100 + k)));
            let edges: Vec<(usize, usize)> = (0..num_l as usize)
                .flat_map(|l| (0..8usize).map(move |r| (l, num_l as usize + r)))
                .collect();
            PatternUnion::singleton(Pattern::new(nodes, edges).unwrap()).unwrap()
        };
        let union64 = build(8);
        assert_eq!(
            BipartiteSolver::packed_state_width(&model, &lab, &union64),
            Some(96)
        );
        let expected = BruteForceSolver::new()
            .solve(&model, &lab, &union64)
            .unwrap();
        let got = BipartiteSolver::new()
            .solve(&model, &lab, &union64)
            .unwrap();
        assert_eq!(got.to_bits(), expected.to_bits(), "{expected} vs {got}");
        for p in every_kernel(&model, &lab, &union64, None) {
            assert_eq!(p.unwrap().to_bits(), got.to_bits());
        }
        // Beyond 64 edges the pruning DP refuses cleanly instead of
        // answering wrongly.
        let union72 = build(9);
        assert!(matches!(
            BipartiteSolver::new().solve(&model, &lab, &union72),
            Err(SolverError::Unsupported(_))
        ));
    }

    #[test]
    fn packed_state_width_reported() {
        let model = rim(6, 0.5);
        let lab = cyclic_labeling(6, 3);
        // The vee: 1 L selector, 2 R selectors, 2 edges over m = 6
        // (3 bits/slot): 3 × 3 + 2 = 11 bits.
        let vee = Pattern::new(vec![sel(2), sel(0), sel(1)], vec![(0, 1), (0, 2)]).unwrap();
        let union = PatternUnion::singleton(vee).unwrap();
        assert_eq!(
            BipartiteSolver::packed_state_width(&model, &lab, &union),
            Some(11)
        );
    }
}
