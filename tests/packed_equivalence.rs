//! Bitwise equivalence of the packed DP kernels and the map-based oracle
//! they replaced (`crates/solvers/src/exact/reference.rs`, included below).
//!
//! Three solvers run packed kernels: two-label, bipartite (pruning), and the
//! pattern solver's general-DAG DP. The packed encodings are
//! order-isomorphic to the oracle's state structs and merge transition mass
//! in generation order, so every result must match the oracle **bit for
//! bit** — not merely within a tolerance. This suite pins that claim over
//!
//! * a menagerie sweep (`m ≤ 12`, `φ` and union shapes crossed),
//! * the shapes production serves — an item-level `pair` and `chain3` —
//!   over *every* placement of their items in σ, so every interleaving of
//!   steps that place a tracked item and steps that only shift the placed
//!   ones is covered,
//! * a budget pinned to the distinct-state count of a wide-word instance
//!   whose steps generate many more transitions than states,
//! * deterministic property tests over random instances and unions,
//! * states wider than 128 bits (the same kernels on a multiword key must
//!   still match the oracle and agree with brute force), and
//! * literal answer bits and state caps of wide states, recorded while the
//!   oracle's map-based formulation still answered them in production.

use ppd_patterns::{Labeling, NodeSelector, Pattern, PatternUnion, UnionClass};
use ppd_rim::{MallowsModel, Ranking, RimModel};
use ppd_solvers::testutil::{cyclic_labeling, rim, sel};
use ppd_solvers::{
    BipartiteSolver, BruteForceSolver, Budget, ExactSolver, GeneralSolver, PatternSolver,
    SolverError, TwoLabelSolver,
};
use proptest::prelude::*;

#[path = "../crates/solvers/src/exact/reference.rs"]
mod reference;

fn two_label_unions() -> Vec<PatternUnion> {
    vec![
        PatternUnion::singleton(Pattern::two_label(sel(0), sel(1))).unwrap(),
        PatternUnion::new(vec![
            Pattern::two_label(sel(0), sel(1)),
            Pattern::two_label(sel(2), sel(0)),
        ])
        .unwrap(),
        PatternUnion::new(vec![
            Pattern::two_label(sel(2), sel(0)),
            Pattern::two_label(sel(2), sel(1)),
            Pattern::two_label(sel(1), sel(0)),
        ])
        .unwrap(),
    ]
}

fn bipartite_unions() -> Vec<PatternUnion> {
    let two = Pattern::two_label(sel(0), sel(1));
    let vee = Pattern::new(vec![sel(2), sel(0), sel(1)], vec![(0, 1), (0, 2)]).unwrap();
    let a_shape = Pattern::new(
        vec![sel(0), sel(1), sel(2), sel(3)],
        vec![(0, 2), (0, 3), (1, 3)],
    )
    .unwrap();
    vec![
        PatternUnion::singleton(vee.clone()).unwrap(),
        PatternUnion::singleton(a_shape.clone()).unwrap(),
        PatternUnion::new(vec![two.clone(), vee]).unwrap(),
        PatternUnion::new(vec![a_shape, two]).unwrap(),
    ]
}

fn general_patterns() -> Vec<Pattern> {
    vec![
        Pattern::new(vec![sel(1), sel(2), sel(0)], vec![(0, 1), (1, 2)]).unwrap(),
        Pattern::new(
            vec![sel(0), sel(1), sel(2), sel(0)],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap(),
    ]
}

#[test]
fn two_label_menagerie_bitwise() {
    let packed = TwoLabelSolver::new();
    for &m in &[4usize, 6, 9, 12] {
        for &phi in &[0.0, 0.5, 1.0] {
            for &labels in &[3u32, 4] {
                let model = rim(m, phi);
                let lab = cyclic_labeling(m, labels);
                for union in two_label_unions() {
                    let a = packed.solve(&model, &lab, &union).unwrap();
                    let b = reference::two_label(&model, &lab, &union, None).unwrap();
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "m={m} phi={phi} labels={labels}: packed {a} vs reference {b}"
                    );
                }
            }
        }
    }
}

#[test]
fn bipartite_menagerie_bitwise() {
    let packed = BipartiteSolver::new();
    for &m in &[4usize, 6, 9, 12] {
        for &phi in &[0.0, 0.5, 1.0] {
            for &labels in &[3u32, 4] {
                let model = rim(m, phi);
                let lab = cyclic_labeling(m, labels);
                for union in bipartite_unions() {
                    let a = packed.solve(&model, &lab, &union).unwrap();
                    let b = reference::bipartite(&model, &lab, &union, None).unwrap();
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "m={m} phi={phi} labels={labels}: packed {a} vs reference {b}"
                    );
                }
            }
        }
    }
}

#[test]
fn pattern_menagerie_bitwise() {
    let packed = PatternSolver::new();
    for &m in &[4usize, 6, 8] {
        for &phi in &[0.0, 0.5, 1.0] {
            for &labels in &[3u32, 4] {
                let model = rim(m, phi);
                let lab = cyclic_labeling(m, labels);
                for pattern in general_patterns() {
                    let a = packed.solve_pattern(&model, &lab, &pattern).unwrap();
                    let b = reference::pattern(&model, &lab, &pattern, None).unwrap();
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "m={m} phi={phi} labels={labels}: packed {a} vs reference {b}"
                    );
                }
            }
        }
    }
}

/// Where the relevant items of an item-specific pattern sit in σ (the
/// identity, so item `i` is inserted at step `i`): the first three steps (the
/// kernel stops after step 2), spread over σ, and the last three (no early
/// stop at all). A fourth item, for the diamond, goes in between.
fn placements(m: usize) -> [[u32; 4]; 3] {
    let m = m as u32;
    [
        [0, 1, 2, 3],
        [1, m / 2, m - 2, m / 2 - 1],
        [m - 3, m - 2, m - 1, m - 4],
    ]
}

/// The serving shape — `cand_a ≻ cand_b ≻ cand_c` under a labeling that gives
/// every item its own label — in an order σ agrees with, one it partly
/// reverses, and one it fully reverses; and a diamond over four items.
fn item_patterns([a, b, c, d]: [u32; 4]) -> Vec<Pattern> {
    let chain = |x, y, z| Pattern::new(vec![sel(x), sel(y), sel(z)], vec![(0, 1), (1, 2)]).unwrap();
    vec![
        chain(a, b, c),
        chain(c, a, b),
        chain(c, b, a),
        Pattern::new(
            vec![sel(b), sel(a), sel(c), sel(d)],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap(),
    ]
}

#[test]
fn item_pattern_menagerie_bitwise() {
    let packed = PatternSolver::new();
    for &m in &[5usize, 9, 12] {
        let lab = cyclic_labeling(m, m as u32);
        for &phi in &[0.0, 0.5, 1.0] {
            let model = rim(m, phi);
            for placement in placements(m) {
                for pattern in item_patterns(placement) {
                    let a = packed.solve_pattern(&model, &lab, &pattern).unwrap();
                    let b = reference::pattern(&model, &lab, &pattern, None).unwrap();
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "m={m} phi={phi} items={placement:?} {pattern:?}: \
                         packed {a} vs reference {b}"
                    );
                }
            }
        }
    }
}

/// The item-level `pair` query (`cand_a ≻ cand_b`, one label per item) at the
/// serving size, wherever the two items sit in σ: 132 ordered placements, on
/// both kernels that solve it. Two of the twelve steps place a tracked item;
/// the other ten take the one-successor-per-gap path, before, between and
/// after them.
#[test]
fn item_pair_at_every_placement_bitwise() {
    let m = 12usize;
    let lab = cyclic_labeling(m, m as u32);
    for &phi in &[0.2, 0.5, 0.8] {
        let model = rim(m, phi);
        for a in 0..m as u32 {
            for b in (0..m as u32).filter(|&b| b != a) {
                let union = PatternUnion::singleton(Pattern::two_label(sel(a), sel(b))).unwrap();
                let two = TwoLabelSolver::new().solve(&model, &lab, &union).unwrap();
                let two_ref = reference::two_label(&model, &lab, &union, None).unwrap();
                assert_eq!(
                    two.to_bits(),
                    two_ref.to_bits(),
                    "two-label phi={phi} {a}>{b}: packed {two} vs reference {two_ref}"
                );
                let bip = BipartiteSolver::new().solve(&model, &lab, &union).unwrap();
                let bip_ref = reference::bipartite(&model, &lab, &union, None).unwrap();
                assert_eq!(
                    bip.to_bits(),
                    bip_ref.to_bits(),
                    "bipartite phi={phi} {a}>{b}: packed {bip} vs reference {bip_ref}"
                );
            }
        }
    }
}

/// The item-level `chain3` query (`cand_a ≻ cand_b ≻ cand_c`) over all 720
/// ordered placements at m = 10, through the pattern solver and through the
/// general solver that production reaches it by (a singleton union is one
/// inclusion–exclusion term, so the bits are the pattern solver's).
#[test]
fn item_chain3_at_every_placement_bitwise() {
    let m = 10usize;
    let lab = cyclic_labeling(m, m as u32);
    let model = rim(m, 0.5);
    let items = 0..m as u32;
    for a in items.clone() {
        for b in items.clone().filter(|&b| b != a) {
            for c in items.clone().filter(|&c| c != a && c != b) {
                let chain =
                    Pattern::new(vec![sel(a), sel(b), sel(c)], vec![(0, 1), (1, 2)]).unwrap();
                let packed = PatternSolver::new()
                    .solve_pattern(&model, &lab, &chain)
                    .unwrap();
                let reference = reference::pattern(&model, &lab, &chain, None).unwrap();
                assert_eq!(
                    packed.to_bits(),
                    reference.to_bits(),
                    "{a}>{b}>{c}: packed {packed} vs reference {reference}"
                );
                let general = GeneralSolver::new()
                    .solve(&model, &lab, &PatternUnion::singleton(chain).unwrap())
                    .unwrap();
                assert_eq!(
                    general.to_bits(),
                    reference.to_bits(),
                    "{a}>{b}>{c}: general {general} vs reference {reference}"
                );
            }
        }
    }
}

/// A state wider than 64 bits over a small state space: nine `l_k ≻ r_k`
/// members track 18 selectors (18 slots × 4 bits, plus nine mask bits in the
/// bipartite kernel), but only items 2 and 9 carry `l` labels and only items
/// 5 and 12 carry `r` labels, so a state is four positions seen through 18
/// slots and the other ten steps only shift them — each frontier state
/// spends its `i + 1` transitions on a handful of successors.
fn wide_word_narrow_frontier() -> (RimModel, Labeling, PatternUnion) {
    let m = 14usize;
    let mut lab = Labeling::new();
    for k in 0..9u32 {
        lab.add(if k < 5 { 2 } else { 9 }, k);
        lab.add(if k % 2 == 0 { 5 } else { 12 }, 100 + k);
    }
    let members: Vec<Pattern> = (0..9u32)
        .map(|k| Pattern::two_label(sel(k), sel(100 + k)))
        .collect();
    (rim(m, 0.6), lab, PatternUnion::new(members).unwrap())
}

#[test]
fn wide_word_narrow_frontier_bitwise() {
    let (model, lab, union) = wide_word_narrow_frontier();
    assert_eq!(
        TwoLabelSolver::packed_state_width(&model, &lab, &union),
        Some(72),
        "the instance must need the u128 word"
    );
    assert_eq!(
        BipartiteSolver::packed_state_width(&model, &lab, &union),
        Some(81)
    );
    let two = TwoLabelSolver::new().solve(&model, &lab, &union).unwrap();
    let two_ref = reference::two_label(&model, &lab, &union, None).unwrap();
    assert_eq!(two.to_bits(), two_ref.to_bits(), "{two} vs {two_ref}");
    let bip = BipartiteSolver::new().solve(&model, &lab, &union).unwrap();
    let bip_ref = reference::bipartite(&model, &lab, &union, None).unwrap();
    assert_eq!(bip.to_bits(), bip_ref.to_bits(), "{bip} vs {bip_ref}");
}

/// `Budget::with_max_states` counts the *distinct* states a step leaves
/// behind, not the transitions that fed them: the packed kernel passes at
/// exactly the cap the oracle's map length passes at, and fails one below it.
#[test]
fn budget_counts_distinct_states_not_transitions() {
    let (model, lab, union) = wide_word_narrow_frontier();
    let solve = |cap: usize| {
        BipartiteSolver::new()
            .with_budget(Budget::with_max_states(cap))
            .solve(&model, &lab, &union)
    };
    // The widest frontier of the oracle, found from below.
    let widest = (1..)
        .find(|&cap| {
            reference::bipartite(&model, &lab, &union, Some(&Budget::with_max_states(cap))).is_ok()
        })
        .unwrap();
    // Each state of a late step has 12–14 insertion positions, so a count of
    // transitions would overshoot this cap many times over.
    assert!((8..200).contains(&widest), "widest frontier: {widest}");
    let at_cap = solve(widest).unwrap();
    let unbounded = reference::bipartite(&model, &lab, &union, None).unwrap();
    assert_eq!(at_cap.to_bits(), unbounded.to_bits());
    assert!(matches!(
        solve(widest - 1),
        Err(SolverError::BudgetExceeded(_))
    ));
}

/// Instances between 65 and 128 bits, so the `u128` instantiation of the
/// kernel runs: m = 16 with every item relevant is 16 slots × 5 bits. What
/// keeps them tractable is absorption: a pattern of selectors that match
/// every item is embedded as soon as as many items are placed as its longest
/// chain has nodes, so the frontier (and the oracle's map) never holds
/// more than a few hundred states and is empty long before step m.
#[test]
fn wide_word_patterns_bitwise() {
    let m = 16usize;
    let any = NodeSelector::any;
    let chain_of_any =
        |q: usize| Pattern::new(vec![any(); q], (1..q).map(|i| (i - 1, i)).collect()).unwrap();
    let diamond_of_any = Pattern::new(
        vec![any(), any(), any(), any()],
        vec![(0, 1), (0, 2), (1, 3), (2, 3)],
    )
    .unwrap();
    // Unsatisfied only while every label-0 item sits in the last two places:
    // impossible from the third label-0 item (step 6) on.
    let rooted = Pattern::new(vec![sel(0), any(), any()], vec![(0, 1), (1, 2)]).unwrap();
    let cases = [
        (chain_of_any(4), 0.5),
        (chain_of_any(5), 1.0),
        (chain_of_any(6), 0.3),
        (diamond_of_any, 0.7),
        (rooted, 0.5),
    ];
    let lab = cyclic_labeling(m, 3);
    for (pattern, phi) in cases {
        let model = rim(m, phi);
        assert_eq!(
            PatternSolver::packed_state_width(&model, &lab, &pattern),
            Some(80),
            "the instance must need the u128 word"
        );
        let a = PatternSolver::new()
            .solve_pattern(&model, &lab, &pattern)
            .unwrap();
        let b = reference::pattern(&model, &lab, &pattern, None).unwrap();
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "phi={phi} {pattern:?}: packed {a} vs reference {b}"
        );
    }
}

/// An instance engineered to exceed the 128-bit packing width on a tiny,
/// brute-forceable universe: every item carries every label, and the union
/// tracks 33 distinct L and 33 distinct R selectors (66 slots × 2 bits over
/// m = 3). Both specialised solvers must run their kernel on a multiword key,
/// match the oracle and agree with brute force.
fn wide_instance() -> (RimModel, Labeling, PatternUnion) {
    let m = 3usize;
    let model = rim(m, 0.4);
    let mut lab = Labeling::new();
    for item in 0..m as u32 {
        for l in 0..33u32 {
            lab.add(item, l);
            lab.add(item, 100 + l);
        }
    }
    let members: Vec<Pattern> = (0..33u32)
        .map(|k| Pattern::two_label(sel(k), sel(100 + k)))
        .collect();
    let union = PatternUnion::new(members).unwrap();
    (model, lab, union)
}

#[test]
fn packing_width_fallback_two_label() {
    let (model, lab, union) = wide_instance();
    assert_eq!(
        TwoLabelSolver::packed_state_width(&model, &lab, &union),
        None,
        "the wide instance must exceed the packing width"
    );
    let expected = BruteForceSolver::new().solve(&model, &lab, &union).unwrap();
    let fallback = TwoLabelSolver::new().solve(&model, &lab, &union).unwrap();
    let reference = reference::two_label(&model, &lab, &union, None).unwrap();
    assert_eq!(
        fallback.to_bits(),
        reference.to_bits(),
        "the wide kernel must match the oracle"
    );
    assert!(
        (expected - fallback).abs() < 1e-9,
        "{expected} vs {fallback}"
    );
}

#[test]
fn packing_width_fallback_bipartite() {
    let (model, lab, union) = wide_instance();
    assert_eq!(
        BipartiteSolver::packed_state_width(&model, &lab, &union),
        None,
        "the wide instance must exceed the packing width"
    );
    let expected = BruteForceSolver::new().solve(&model, &lab, &union).unwrap();
    let fallback = BipartiteSolver::new().solve(&model, &lab, &union).unwrap();
    let reference = reference::bipartite(&model, &lab, &union, None).unwrap();
    assert_eq!(
        fallback.to_bits(),
        reference.to_bits(),
        "the wide kernel must match the oracle"
    );
    assert!(
        (expected - fallback).abs() < 1e-9,
        "{expected} vs {fallback}"
    );
}

#[test]
fn packing_width_fallback_pattern_solver_width_only() {
    // For the general-DAG DP a beyond-128-bit state needs > 25 relevant
    // items: m = 26 with all items relevant needs 26 slots × 5 bits = 130 >
    // 128, a multiword key.
    let m = 26usize;
    let model = rim(m, 0.5);
    let lab = cyclic_labeling(m, 3);
    let chain = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2)]).unwrap();
    assert_eq!(
        PatternSolver::packed_state_width(&model, &lab, &chain),
        None
    );
    // A 9-item instance of the same shape packs into 36 bits.
    let small = rim(9, 0.5);
    let lab9 = cyclic_labeling(9, 3);
    assert_eq!(
        PatternSolver::packed_state_width(&small, &lab9, &chain),
        Some(36)
    );
}

/// The general-DAG kernel runs beyond 128 bits, not only decides to: with
/// 26 relevant items absorption keeps the frontier small, as in
/// `wide_word_patterns_bitwise`.
#[test]
fn wide_general_dag_state_runs_the_packed_kernel() {
    let m = 26usize;
    let any = NodeSelector::any;
    let lab = cyclic_labeling(m, 3);
    let rooted = Pattern::new(vec![sel(0), any(), any()], vec![(0, 1), (1, 2)]).unwrap();
    let model = rim(m, 0.5);
    assert_eq!(
        PatternSolver::packed_state_width(&model, &lab, &rooted),
        None
    );
    let a = PatternSolver::new()
        .solve_pattern(&model, &lab, &rooted)
        .unwrap();
    let b = reference::pattern(&model, &lab, &rooted, None).unwrap();
    assert_eq!(a.to_bits(), b.to_bits(), "packed {a} vs reference {b}");
    // Any four placed items embed a chain of four unconstrained nodes, so
    // every transition of the fourth step is absorbed; at φ = 0.7 the
    // absorbed masses sum to exactly 1 (at φ = 0.5, one ulp short of it).
    let chain = Pattern::new(vec![any(); 4], vec![(0, 1), (1, 2), (2, 3)]).unwrap();
    let p = PatternSolver::new()
        .solve_pattern(&rim(m, 0.7), &lab, &chain)
        .unwrap();
    assert_eq!(p, 1.0);
}

/// Strategy: a labeled Mallows instance with `m ∈ [4, 7]` items, 3 labels
/// assigned cyclically plus random extra labels, and `φ ∈ {0, …, 1}`.
fn arb_instance() -> impl Strategy<Value = (RimModel, Labeling)> {
    (4usize..=7, 0u64..1000, 0..=10u32).prop_map(|(m, seed, phi_step)| {
        let phi = phi_step as f64 / 10.0;
        let model = MallowsModel::new(Ranking::identity(m), phi)
            .unwrap()
            .to_rim();
        let mut labeling = Labeling::new();
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for item in 0..m as u32 {
            labeling.add(item, item % 3);
            if next() % 2 == 0 {
                labeling.add(item, 3 + next() % 2);
            }
        }
        (model, labeling)
    })
}

/// Strategy: a pattern union of 1–3 members over labels 0..5, each member a
/// random DAG over 2–3 nodes (the same generator shape as the main property
/// suite, so all three union classes occur).
fn arb_union() -> impl Strategy<Value = PatternUnion> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0u32..5, 2..=3),
            proptest::bool::ANY,
            proptest::bool::ANY,
        ),
        1..=3,
    )
    .prop_map(|members| {
        let patterns: Vec<Pattern> = members
            .into_iter()
            .map(|(labels, extra_edge, reverse)| {
                let nodes: Vec<NodeSelector> =
                    labels.iter().map(|&l| NodeSelector::single(l)).collect();
                let mut edges = vec![if reverse { (1, 0) } else { (0, 1) }];
                if nodes.len() == 3 {
                    edges.push(if extra_edge { (1, 2) } else { (0, 2) });
                }
                Pattern::new(nodes, edges).expect("edges form a DAG by construction")
            })
            .collect();
        PatternUnion::new(patterns).expect("non-empty union")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Wherever a specialised packed kernel applies, its result is bitwise
    /// equal to the oracle's.
    #[test]
    fn packed_kernels_match_reference_bitwise(
        (model, labeling) in arb_instance(),
        union in arb_union(),
    ) {
        match union.classify() {
            UnionClass::TwoLabel => {
                let a = TwoLabelSolver::new().solve(&model, &labeling, &union).unwrap();
                let b = reference::two_label(&model, &labeling, &union, None).unwrap();
                prop_assert_eq!(a.to_bits(), b.to_bits(), "two-label: {} vs {}", a, b);
                let c = BipartiteSolver::new().solve(&model, &labeling, &union).unwrap();
                let d = reference::bipartite(&model, &labeling, &union, None).unwrap();
                prop_assert_eq!(c.to_bits(), d.to_bits(), "bipartite-on-two-label: {} vs {}", c, d);
            }
            UnionClass::Bipartite => {
                let a = BipartiteSolver::new().solve(&model, &labeling, &union).unwrap();
                let b = reference::bipartite(&model, &labeling, &union, None).unwrap();
                prop_assert_eq!(a.to_bits(), b.to_bits(), "bipartite: {} vs {}", a, b);
            }
            UnionClass::General => {}
        }
        // The pattern solver's general DP applies to any single member.
        let pattern = &union.patterns()[0];
        let a = PatternSolver::new().solve_pattern(&model, &labeling, pattern).unwrap();
        let b = reference::pattern(&model, &labeling, pattern, None).unwrap();
        prop_assert_eq!(a.to_bits(), b.to_bits(), "pattern: {} vs {}", a, b);
    }

    /// The packed kernels remain exact: wherever brute force is feasible the
    /// packed result matches it within float tolerance.
    #[test]
    fn packed_kernels_agree_with_brute_force(
        (model, labeling) in arb_instance(),
        union in arb_union(),
    ) {
        let expected = BruteForceSolver::new().solve(&model, &labeling, &union).unwrap();
        match union.classify() {
            UnionClass::TwoLabel => {
                let p = TwoLabelSolver::new().solve(&model, &labeling, &union).unwrap();
                prop_assert!((expected - p).abs() < 1e-8, "two-label: {} vs {}", expected, p);
            }
            UnionClass::Bipartite => {
                let p = BipartiteSolver::new().solve(&model, &labeling, &union).unwrap();
                prop_assert!((expected - p).abs() < 1e-8, "bipartite: {} vs {}", expected, p);
            }
            UnionClass::General => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Item-specific patterns at any m up to 12, wherever their relevant
    /// items sit in σ: the early-stopping packed kernel is bitwise equal to
    /// the oracle, which runs all m steps.
    #[test]
    fn item_patterns_match_reference_bitwise(
        m in 5usize..=12,
        phi_step in 0..=10u32,
        placement in 0usize..3,
        shape in 0usize..4,
    ) {
        let model = rim(m, phi_step as f64 / 10.0);
        let lab = cyclic_labeling(m, m as u32);
        let pattern = item_patterns(placements(m)[placement]).swap_remove(shape);
        let a = PatternSolver::new().solve_pattern(&model, &lab, &pattern).unwrap();
        let b = reference::pattern(&model, &lab, &pattern, None).unwrap();
        prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?}: {} vs {}", pattern, a, b);
    }
}

/// Answers of states wider than 128 bits, recorded as literals while the
/// solvers still ran them on the map-based kernels, so that whatever runs
/// them later is held to the same bits — and, for two-label and bipartite,
/// to the same state count: each case passes at its recorded
/// `Budget::with_max_states` cap and fails one below it. The general-DAG
/// cases pin bits only: the packed kernel drops dead prefixes the map-based
/// one carries, so its cap differs legitimately. The two-label values were
/// re-recorded at solver revision 5, when the two-label DP began to sum the
/// satisfied mass instead of answering `1 −` the violating mass, and to stop
/// after its last tracked item (which is what lowers the
/// `wide_word_narrow_frontier` cap: the steps after it only spread states).
mod wide_state_goldens {
    use super::*;

    /// Every item carries every label: the complete 8×8 bipartite member
    /// (64 deduplicated edges) at m = 2.
    fn complete_member_8x8() -> (RimModel, Labeling, PatternUnion) {
        let mut lab = Labeling::new();
        for item in 0..2u32 {
            for k in 0..8u32 {
                lab.add(item, k);
                lab.add(item, 100 + k);
            }
        }
        (rim(2, 0.5), lab, member_8x8())
    }

    /// The same member over m = 3 with the L labels on items 0 and 1 and the
    /// R labels on items 1 and 2: violated only by the ranking 2 ≻ 1 ≻ 0.
    fn spread_member_8x8() -> (RimModel, Labeling, PatternUnion) {
        let mut lab = Labeling::new();
        for k in 0..8u32 {
            lab.add(0, k);
            lab.add(1, k);
            lab.add(1, 100 + k);
            lab.add(2, 100 + k);
        }
        (rim(3, 0.4), lab, member_8x8())
    }

    fn member_8x8() -> PatternUnion {
        let mut nodes: Vec<NodeSelector> = (0..8).map(sel).collect();
        nodes.extend((0..8u32).map(|k| sel(100 + k)));
        let edges = (0..8).flat_map(|l| (8..16).map(move |r| (l, r))).collect();
        PatternUnion::singleton(Pattern::new(nodes, edges).unwrap()).unwrap()
    }

    /// 65 members `l_k ≻ r` sharing one R selector at m = 2 (65 L entries),
    /// every label on both items.
    fn shared_right_65() -> (RimModel, Labeling, PatternUnion) {
        let mut lab = Labeling::new();
        for item in 0..2u32 {
            (0..65u32).for_each(|k| lab.add(item, k));
            lab.add(item, 100);
        }
        (rim(2, 0.3), lab, shared_right_union())
    }

    /// The same union with `l_k` on item `k mod 2` and `r` on item 1.
    fn spread_shared_right_65() -> (RimModel, Labeling, PatternUnion) {
        let mut lab = Labeling::new();
        (0..65u32).for_each(|k| lab.add(k % 2, k));
        lab.add(1, 100);
        (rim(2, 0.3), lab, shared_right_union())
    }

    fn shared_right_union() -> PatternUnion {
        let members = (0..65u32)
            .map(|k| Pattern::two_label(sel(k), sel(100)))
            .collect();
        PatternUnion::new(members).unwrap()
    }

    /// 33 members `l_k ≻ r_k` (66 slots × 3 bits at m = 6) whose labels sit
    /// on one item each, cycling over the item pairs 0 ≻ 3, 4 ≻ 1, 2 ≻ 5:
    /// a frontier of tens of states, not one.
    fn scattered_33() -> (RimModel, Labeling, PatternUnion) {
        let pairs = [(0, 3), (4, 1), (2, 5)];
        let mut lab = Labeling::new();
        for k in 0..33u32 {
            let (a, b) = pairs[k as usize % pairs.len()];
            lab.add(a, k);
            lab.add(b, 100 + k);
        }
        let members = (0..33u32)
            .map(|k| Pattern::two_label(sel(k), sel(100 + k)))
            .collect();
        (rim(6, 0.7), lab, PatternUnion::new(members).unwrap())
    }

    /// `solve` answers `bits` at the state cap `cap` and exceeds the budget
    /// one below it.
    fn assert_pinned(
        what: &str,
        solve: impl Fn(Budget) -> Result<f64, SolverError>,
        cap: usize,
        bits: u64,
    ) {
        let p = solve(Budget::with_max_states(cap))
            .unwrap_or_else(|e| panic!("{what}: fails at its cap of {cap}: {e}"));
        assert_eq!(p.to_bits(), bits, "{what}: {p}");
        assert!(
            matches!(
                solve(Budget::with_max_states(cap - 1)),
                Err(SolverError::BudgetExceeded(_))
            ),
            "{what}: passes below its cap of {cap}"
        );
    }

    #[test]
    fn two_label_wide_states_keep_their_bits_and_caps() {
        let cases = [
            ("wide_instance", wide_instance(), 1, 0x3ff0000000000000),
            (
                "wide_word_narrow_frontier",
                wide_word_narrow_frontier(),
                2860,
                0x3fefb551b492413c,
            ),
            (
                "65 members sharing r",
                shared_right_65(),
                1,
                0x3fefffffffffffff,
            ),
            (
                "65 members sharing r, spread",
                spread_shared_right_65(),
                1,
                0x3fe89d89d89d89d8,
            ),
            (
                "33 scattered members",
                scattered_33(),
                90,
                0x3fedef35d8f2595d,
            ),
        ];
        for (what, (model, lab, union), cap, bits) in cases {
            let solve = |b| TwoLabelSolver::with_budget(b).solve(&model, &lab, &union);
            assert_pinned(what, solve, cap, bits);
        }
    }

    #[test]
    fn bipartite_wide_states_keep_their_bits_and_caps() {
        let cases = [
            ("wide_instance", wide_instance(), 1, 0x3ff0000000000000),
            (
                "wide_word_narrow_frontier",
                wide_word_narrow_frontier(),
                110,
                0x3fefb551b492413b,
            ),
            (
                "65 members sharing r",
                shared_right_65(),
                1,
                0x3fefffffffffffff,
            ),
            (
                "65 members sharing r, spread",
                spread_shared_right_65(),
                1,
                0x3fe89d89d89d89d8,
            ),
            (
                "33 scattered members",
                scattered_33(),
                12,
                0x3fedef35d8f25960,
            ),
            (
                "complete 8x8 member",
                complete_member_8x8(),
                1,
                0x3ff0000000000000,
            ),
            (
                "complete 8x8 member, spread",
                spread_member_8x8(),
                1,
                0x3fef0ff0ff0ff100,
            ),
        ];
        for (what, (model, lab, union), cap, bits) in cases {
            let solve = |b| {
                BipartiteSolver::new()
                    .with_budget(b)
                    .solve(&model, &lab, &union)
            };
            assert_pinned(what, solve, cap, bits);
        }
    }

    #[test]
    fn general_dag_wide_states_keep_their_bits() {
        // m = 26 with every item relevant: 26 slots × 5 bits = 130.
        let m = 26usize;
        let any = NodeSelector::any;
        let rooted = Pattern::new(vec![sel(0), any(), any()], vec![(0, 1), (1, 2)]).unwrap();
        let chain_of_any_4 = Pattern::new(vec![any(); 4], vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        let (model, lab) = (rim(m, 0.5), cyclic_labeling(m, 3));
        for (what, pattern, bits) in [
            ("rooted", rooted, 0x3feffffffffffff8u64),
            ("chain_of_any(4)", chain_of_any_4, 0x3fefffffffffffff),
        ] {
            let p = PatternSolver::new()
                .solve_pattern(&model, &lab, &pattern)
                .unwrap();
            assert_eq!(p.to_bits(), bits, "{what}: {p}");
        }
    }
}

/// The two-label DP answers the satisfied mass, summed as it is absorbed, so
/// a tiny marginal keeps its relative precision instead of rounding to a
/// multiple of one ulp of 1.
mod relative_precision {
    use super::*;

    const PHIS: [f64; 6] = [0.01, 0.02, 0.05, 0.1, 0.5, 1.0];

    fn assert_relative(what: &str, got: f64, want: f64) {
        let gap = (got - want).abs();
        assert!(
            gap <= 1e-12 * want.abs().max(got.abs()),
            "{what}: {got:e} vs {want:e}"
        );
    }

    /// Item-level unions (one label per item, tracked items early, late and
    /// far apart in σ) and the label-level menagerie, at `m`.
    fn cases(m: usize) -> Vec<(String, Labeling, PatternUnion)> {
        let m32 = m as u32;
        let pair = |a: u32, b: u32| Pattern::two_label(sel(a), sel(b));
        let item_unions = [
            vec![pair(m32 - 1, 0)],
            vec![pair(m32 - 2, 1)],
            vec![pair(1, m32 - 2)],
            vec![pair(2, 1)],
            vec![pair(m32 - 1, 0), pair(m32 - 2, 1)],
        ];
        let mut cases: Vec<(String, Labeling, PatternUnion)> = (item_unions.into_iter())
            .map(|members| {
                let union = PatternUnion::new(members).unwrap();
                (format!("item {union:?}"), cyclic_labeling(m, m32), union)
            })
            .collect();
        for labels in [3u32, 4] {
            for union in two_label_unions() {
                let what = format!("{labels} labels {union:?}");
                cases.push((what, cyclic_labeling(m, labels), union));
            }
        }
        cases
    }

    #[test]
    fn two_label_is_relatively_exact_against_bipartite() {
        for m in 4..=12 {
            for phi in PHIS {
                let model = rim(m, phi);
                for (what, lab, union) in cases(m) {
                    let got = TwoLabelSolver::new().solve(&model, &lab, &union).unwrap();
                    let want = BipartiteSolver::new().solve(&model, &lab, &union).unwrap();
                    assert_relative(&format!("m={m} phi={phi} {what}"), got, want);
                }
            }
        }
    }

    #[test]
    fn two_label_is_relatively_exact_against_brute_force() {
        for m in 4..=7 {
            for phi in PHIS {
                let model = rim(m, phi);
                for (what, lab, union) in cases(m) {
                    let got = TwoLabelSolver::new().solve(&model, &lab, &union).unwrap();
                    let want = BruteForceSolver::new().solve(&model, &lab, &union).unwrap();
                    assert_relative(&format!("m={m} phi={phi} {what}"), got, want);
                }
            }
        }
    }

    /// Item 11 ≻ item 0 at m = 12, one label per item, σ = identity: the
    /// preferred item is inserted last, so the event needs it to climb past
    /// all eleven others. `1 − Σ violating` answered these with absolute
    /// precision only (φ = 0.02 read 2.2204e-16, one ulp of 1); the bits are
    /// bipartite's too.
    #[test]
    fn rare_item_pair_keeps_its_significant_digits() {
        let m = 12;
        let lab = cyclic_labeling(m, m as u32);
        let union = PatternUnion::singleton(Pattern::two_label(sel(11), sel(0))).unwrap();
        for (phi, bits, approx) in [
            (0.1, 0x3ddaf0230dcf9742u64, 9.8000000001e-11),
            (0.05, 0x3d2c965971ea9c92, 5.078125e-14),
            (0.02, 0x3c4453377b761de9, 2.203648e-18),
        ] {
            let p = TwoLabelSolver::new()
                .solve(&rim(m, phi), &lab, &union)
                .unwrap();
            assert_eq!(p.to_bits(), bits, "phi={phi}: {p:e}");
            assert_relative(&format!("phi={phi}"), p, approx);
        }
    }

    /// Under `MAL(σ, φ)` the items at σ-positions `i < j = i + d` come out
    /// inverted with probability `g(d) − g(d + 1)`, `g(k) = k·φ^k / (1 − φ^k)`,
    /// whatever `m` and `i` are. Both kernels that solve an item pair must
    /// reproduce it to 1e-12 relative (absolute below `f64::MIN_POSITIVE`),
    /// early in σ, and late where the DP runs to the last step (m ≤ 200; at
    /// m = 500 the pair stays within the first 60 positions).
    #[test]
    fn item_pairs_match_the_closed_form_inversion_probability() {
        let g = |phi: f64, k: f64| k * phi.powf(k) / -(k * phi.ln()).exp_m1();
        for m in [30usize, 100, 200, 500] {
            let lab = cyclic_labeling(m, m as u32);
            for phi in [0.02, 0.1, 0.5, 0.9, 0.99, 0.999] {
                let model = rim(m, phi);
                for d in [1usize, 2, 5, 11] {
                    let late = if m <= 200 { m - 1 - d } else { 59 - d };
                    let want = g(phi, d as f64) - g(phi, d as f64 + 1.0);
                    for i in [0, late] {
                        let (j, i) = ((i + d) as u32, i as u32);
                        let union =
                            PatternUnion::singleton(Pattern::two_label(sel(j), sel(i))).unwrap();
                        let two = TwoLabelSolver::new().solve(&model, &lab, &union).unwrap();
                        let bip = BipartiteSolver::new().solve(&model, &lab, &union).unwrap();
                        for (solver, got) in [("two-label", two), ("bipartite", bip)] {
                            let gap = (got - want).abs();
                            assert!(
                                gap <= 1e-12 * want.max(f64::MIN_POSITIVE),
                                "{solver} m={m} phi={phi} {j}>{i}: {got:e} vs {want:e}"
                            );
                        }
                    }
                }
            }
        }
    }
}
