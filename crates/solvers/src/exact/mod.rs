//! Exact solvers (Section 4 of the paper).

pub mod bipartite;
pub mod brute;
pub mod general;
pub(crate) mod packed;
pub mod pattern;
/// The map-based oracle of the three packed kernels, in tests only.
#[cfg(test)]
pub(crate) mod reference;
pub mod two_label;

use ppd_patterns::{Labeling, Pattern, PatternUnion};
use ppd_rim::RimModel;

/// The members of `union` every selector of which matches some item of the
/// model; the others can never be satisfied and contribute nothing to the
/// union. `None` when no member is left: the union has probability 0.
pub(crate) fn satisfiable_members<'a>(
    rim: &RimModel,
    labeling: &Labeling,
    union: &'a PatternUnion,
) -> Option<Vec<&'a Pattern>> {
    let universe = rim.sigma().items();
    let members: Vec<&Pattern> = union
        .patterns()
        .iter()
        .filter(|p| p.is_satisfiable_universe(universe, labeling))
        .collect();
    (!members.is_empty()).then_some(members)
}
