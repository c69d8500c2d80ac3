//! The map-based formulations of the three exact DPs — two-label
//! (Algorithm 3), pruning bipartite (Algorithm 4) and the general-DAG
//! relevant-item-position DP — as they ran before their states were packed
//! into integer keys, kept as the oracle the packed kernels are held to bit
//! for bit: a `BTreeMap` keyed by vectors of optional positions, whose
//! derived lexicographic `Ord` the packed keys reproduce, so both iterate
//! states in one order and sum floats identically.
//!
//! Compiled into tests only — `ppd_solvers`' own and, through `#[path]`
//! includes, `tests/packed_equivalence.rs` and the `solver_kernels` bench —
//! so it is written against the public API (`RimModel::insertion_prob`,
//! `NodeSelector::matches`, `satisfies_pattern`, `Budget::check`) and shares
//! no code with the kernels it checks. It prunes nothing the map did not, and
//! runs all `m` steps.

use ppd_patterns::{
    satisfies_pattern, Labeling, NodeSelector, Pattern, PatternError, PatternUnion,
};
use ppd_rim::{Item, Ranking, RimModel};
use ppd_solvers::{Budget, SolverError};
use std::collections::BTreeMap;

type Result<T> = std::result::Result<T, SolverError>;

/// Minimum positions of the L selectors and maximum positions of the R
/// selectors among the items inserted so far (`None` = no matching item
/// inserted yet, or the selector is not tracked). Positions are 0-based.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Positions {
    alpha: Vec<Option<u32>>,
    beta: Vec<Option<u32>>,
}

impl Positions {
    /// Inserts an item at position `j`, given which L/R selectors it
    /// matches; only the selectors `track_l` / `track_r` select are kept.
    /// Positions at or below `j` shift down one *before* the min/max with `j`
    /// is taken, which keeps `α`/`β` the true minimum/maximum even when the
    /// old witness itself shifts.
    fn insert(&self, j: u32, matches: [&[bool]; 2], track: [&[bool]; 2]) -> Positions {
        let update = |slots: &[Option<u32>],
                      matches: &[bool],
                      track: &[bool],
                      fold: fn(u32, u32) -> u32|
         -> Vec<Option<u32>> {
            (slots.iter().zip(matches).zip(track))
                .map(|((&slot, &is_match), &tracked)| {
                    let shifted = slot.map(|p| if p >= j { p + 1 } else { p });
                    match (tracked, is_match, shifted) {
                        (false, _, _) => None,
                        (true, true, Some(p)) => Some(fold(p, j)),
                        (true, true, None) => Some(j),
                        (true, false, shifted) => shifted,
                    }
                })
                .collect()
        };
        Positions {
            alpha: update(&self.alpha, matches[0], track[0], u32::min),
            beta: update(&self.beta, matches[1], track[1], u32::max),
        }
    }

    fn edge_satisfied(&self, l: usize, r: usize) -> bool {
        matches!((self.alpha[l], self.beta[r]), (Some(a), Some(b)) if a < b)
    }
}

/// A union's selectors deduplicated per role in order of first use, each
/// member's deduplicated edges over them, and per insertion step which
/// selectors the step's item matches and the last step any item does.
struct Compiled {
    pattern_edges: Vec<Vec<(usize, usize)>>,
    match_l: Vec<Vec<bool>>,
    match_r: Vec<Vec<bool>>,
    last_l: Vec<usize>,
    last_r: Vec<usize>,
}

fn compile(rim: &RimModel, labeling: &Labeling, members: &[&Pattern]) -> Compiled {
    let mut l_selectors: Vec<NodeSelector> = Vec::new();
    let mut r_selectors: Vec<NodeSelector> = Vec::new();
    let index = |selectors: &mut Vec<NodeSelector>, s: &NodeSelector| match selectors
        .iter()
        .position(|t| t == s)
    {
        Some(i) => i,
        None => {
            selectors.push(s.clone());
            selectors.len() - 1
        }
    };
    let mut pattern_edges = Vec::new();
    for pattern in members {
        let mut edges = Vec::new();
        for &(a, b) in pattern.edges() {
            let li = index(&mut l_selectors, &pattern.nodes()[a]);
            let ri = index(&mut r_selectors, &pattern.nodes()[b]);
            if !edges.contains(&(li, ri)) {
                edges.push((li, ri));
            }
        }
        pattern_edges.push(edges);
    }
    let rows = |selectors: &[NodeSelector]| -> Vec<Vec<bool>> {
        (0..rim.num_items())
            .map(|i| {
                let item = rim.sigma().item_at(i);
                selectors
                    .iter()
                    .map(|s| s.matches(item, labeling))
                    .collect()
            })
            .collect()
    };
    let (match_l, match_r) = (rows(&l_selectors), rows(&r_selectors));
    let last = |rows: &[Vec<bool>], count: usize| -> Vec<usize> {
        (0..count)
            .map(|e| (0..rows.len()).rev().find(|&i| rows[i][e]).unwrap_or(0))
            .collect()
    };
    Compiled {
        last_l: last(&match_l, l_selectors.len()),
        last_r: last(&match_r, r_selectors.len()),
        pattern_edges,
        match_l,
        match_r,
    }
}

/// The members every selector of which matches some item.
fn satisfiable<'a>(
    rim: &RimModel,
    labeling: &Labeling,
    union: &'a PatternUnion,
) -> Vec<&'a Pattern> {
    let universe = rim.sigma().items();
    (union.patterns().iter())
        .filter(|p| p.is_satisfiable_universe(universe, labeling))
        .collect()
}

fn check(budget: Option<&Budget>, states: usize) -> Result<()> {
    budget.map_or(Ok(()), |b| b.check(states))
}

/// `TwoLabelSolver`'s answer: the DP over the *violating* states (those that
/// satisfy no edge yet), a transition that satisfies an edge absorbing its
/// mass into the answer.
pub fn two_label(
    rim: &RimModel,
    labeling: &Labeling,
    union: &PatternUnion,
    budget: Option<&Budget>,
) -> Result<f64> {
    let members = satisfiable(rim, labeling, union);
    if members.is_empty() {
        return Ok(0.0);
    }
    let c = compile(rim, labeling, &members);
    let edges: Vec<(usize, usize)> = c.pattern_edges.concat();
    let (num_l, num_r) = (c.last_l.len(), c.last_r.len());
    let (all_l, all_r) = (vec![true; num_l], vec![true; num_r]);
    let mut states = BTreeMap::from([(
        Positions {
            alpha: vec![None; num_l],
            beta: vec![None; num_r],
        },
        1.0,
    )]);
    let mut satisfied_mass = 0.0;
    for i in 0..rim.num_items() {
        let mut next: BTreeMap<Positions, f64> = BTreeMap::new();
        for (state, prob) in &states {
            for j in 0..=i {
                let placed =
                    state.insert(j as u32, [&c.match_l[i], &c.match_r[i]], [&all_l, &all_r]);
                let p_new = prob * rim.insertion_prob(i, j);
                if edges.iter().any(|&(l, r)| placed.edge_satisfied(l, r)) {
                    satisfied_mass += p_new;
                    continue;
                }
                *next.entry(placed).or_insert(0.0) += p_new;
            }
        }
        check(budget, next.len())?;
        states = next;
    }
    Ok(satisfied_mass.clamp(0.0, 1.0))
}

/// `BipartiteSolver`'s answer: the pruning DP, whose state is the tracked
/// positions plus, per member, the bitmask of its still-uncertain edges (a
/// zero mask is a violated member); a member whose last uncertain edge
/// resolves to satisfied absorbs the transition's mass into the answer.
pub fn bipartite(
    rim: &RimModel,
    labeling: &Labeling,
    union: &PatternUnion,
    budget: Option<&Budget>,
) -> Result<f64> {
    let members = satisfiable(rim, labeling, union);
    if members.is_empty() {
        return Ok(0.0);
    }
    if members.iter().any(|p| p.num_edges() == 0) {
        return Ok(1.0);
    }
    let c = compile(rim, labeling, &members);
    if c.pattern_edges.iter().any(|e| e.len() > 64) {
        return Err(SolverError::Unsupported(
            "more than 64 edges in a member".into(),
        ));
    }
    let (num_l, num_r) = (c.last_l.len(), c.last_r.len());
    let full_masks: Vec<u64> = (c.pattern_edges.iter())
        .map(|edges| u64::MAX >> (64 - edges.len()))
        .collect();
    let empty = Positions {
        alpha: vec![None; num_l],
        beta: vec![None; num_r],
    };
    let mut states: BTreeMap<(Positions, Vec<u64>), f64> =
        BTreeMap::from([((empty, full_masks), 1.0)]);
    let mut satisfied_mass = 0.0;
    // The selectors a set of uncertain-edge masks reads.
    let referenced = |masks: &[u64]| {
        let (mut l_used, mut r_used) = (vec![false; num_l], vec![false; num_r]);
        for (edges, &mask) in c.pattern_edges.iter().zip(masks) {
            for (e, &(l, r)) in edges.iter().enumerate() {
                if mask & (1 << e) != 0 {
                    (l_used[l], r_used[r]) = (true, true);
                }
            }
        }
        (l_used, r_used)
    };
    for i in 0..rim.num_items() {
        let mut next: BTreeMap<(Positions, Vec<u64>), f64> = BTreeMap::new();
        for ((positions, uncertain), prob) in &states {
            let (track_l, track_r) = referenced(uncertain);
            'insertion: for j in 0..=i {
                let p_new = prob * rim.insertion_prob(i, j);
                let placed = positions.insert(
                    j as u32,
                    [&c.match_l[i], &c.match_r[i]],
                    [&track_l, &track_r],
                );
                // Re-evaluate the uncertain edges of every member: `None`
                // once one can no longer hold.
                let mut remaining_masks = vec![0u64; uncertain.len()];
                for (p, &mask) in uncertain.iter().enumerate().filter(|&(_, &mask)| mask != 0) {
                    let mut remaining = Some(0u64);
                    for (e, &(l, r)) in c.pattern_edges[p].iter().enumerate() {
                        if mask & (1 << e) == 0 || placed.edge_satisfied(l, r) {
                            continue;
                        }
                        if i >= c.last_l[l] && i >= c.last_r[r] {
                            // Every witness is in and the edge does not hold.
                            remaining = None;
                            break;
                        }
                        remaining = remaining.map(|bits| bits | 1 << e);
                    }
                    match remaining {
                        Some(0) => {
                            satisfied_mass += p_new;
                            continue 'insertion;
                        }
                        Some(bits) => remaining_masks[p] = bits,
                        None => {}
                    }
                }
                if remaining_masks.iter().all(|&mask| mask == 0) {
                    // Every member is violated.
                    continue;
                }
                // Forget the positions no uncertain edge reads any more, so
                // that behaviourally identical states merge.
                let (keep_l, keep_r) = referenced(&remaining_masks);
                let keep = |slots: Vec<Option<u32>>, kept: &[bool]| {
                    slots
                        .into_iter()
                        .zip(kept)
                        .map(|(slot, &k)| slot.filter(|_| k))
                        .collect()
                };
                let kept = Positions {
                    alpha: keep(placed.alpha, &keep_l),
                    beta: keep(placed.beta, &keep_r),
                };
                *next.entry((kept, remaining_masks)).or_insert(0.0) += p_new;
            }
        }
        check(budget, next.len())?;
        states = next;
    }
    Ok(satisfied_mass.clamp(0.0, 1.0))
}

/// `PatternSolver::solve_pattern`'s answer: zero for a pattern with an
/// unmatched selector, the bipartite DP for a bipartite pattern, one for an
/// edgeless one, and [`general_dag`] otherwise.
pub fn pattern(
    rim: &RimModel,
    labeling: &Labeling,
    pattern: &Pattern,
    budget: Option<&Budget>,
) -> Result<f64> {
    match pattern.candidate_sets(rim.sigma().items(), labeling) {
        Err(PatternError::EmptySelector(_)) => Ok(0.0),
        Err(e) => Err(e.into()),
        Ok(_) if pattern.is_bipartite() => bipartite(
            rim,
            labeling,
            &PatternUnion::singleton(pattern.clone())?,
            budget,
        ),
        Ok(_) if pattern.num_edges() == 0 => Ok(1.0),
        Ok(_) => general_dag(rim, labeling, pattern, budget),
    }
}

/// The relevant-item-position DP on any pattern whose selectors all match
/// some item: the state is the current position of every item that matches
/// some node (`None` = not inserted yet), and a state whose placed items
/// embed the pattern is absorbed into the answer.
pub fn general_dag(
    rim: &RimModel,
    labeling: &Labeling,
    pattern: &Pattern,
    budget: Option<&Budget>,
) -> Result<f64> {
    let mut relevant: Vec<Item> = (pattern.candidate_sets(rim.sigma().items(), labeling)?).concat();
    relevant.sort_unstable();
    relevant.dedup();
    let placed_satisfies = |placed: &[Option<u32>]| -> bool {
        let mut by_position: Vec<(u32, Item)> = (placed.iter().zip(&relevant))
            .filter_map(|(slot, &item)| slot.map(|pos| (pos, item)))
            .collect();
        by_position.sort_unstable();
        let ranking = Ranking::new(by_position.into_iter().map(|(_, item)| item).collect())
            .expect("placed items are distinct");
        satisfies_pattern(&ranking, labeling, pattern)
    };
    let mut states: BTreeMap<Vec<Option<u32>>, f64> =
        BTreeMap::from([(vec![None; relevant.len()], 1.0)]);
    let mut satisfied_mass = 0.0;
    for (i, item) in rim.sigma().items().iter().enumerate() {
        let slot = relevant.binary_search(item).ok();
        let mut next: BTreeMap<Vec<Option<u32>>, f64> = BTreeMap::new();
        for (state, prob) in &states {
            for j in 0..=i as u32 {
                let p_new = prob * rim.insertion_prob(i, j as usize);
                // Shift the placed items at or below the insertion point.
                let mut placed: Vec<Option<u32>> = (state.iter())
                    .map(|slot| slot.map(|pos| if pos >= j { pos + 1 } else { pos }))
                    .collect();
                if let Some(r) = slot {
                    placed[r] = Some(j);
                    if placed_satisfies(&placed) {
                        satisfied_mass += p_new;
                        continue;
                    }
                }
                *next.entry(placed).or_insert(0.0) += p_new;
            }
        }
        check(budget, next.len())?;
        states = next;
    }
    // The states left never embedded the pattern: the check ran when the
    // last relevant item was placed.
    Ok(satisfied_mass.clamp(0.0, 1.0))
}
