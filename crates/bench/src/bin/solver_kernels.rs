//! Solver-kernel microbenchmark: per-solve latency of the exact DP kernels
//! (two-label, bipartite, pattern) across `m` and `z′` sweeps, packed kernel
//! vs. the map-based formulation it replaced — the test oracle
//! `crates/solvers/src/exact/reference.rs`, included here by path.
//!
//! This is the repo's first solver-level perf baseline: every marginal the
//! engine serves on a cache miss bottoms out in these kernels, so their
//! constant factors dominate end-to-end latency. On every sweep point the
//! harness additionally asserts the packed result is **bit-identical** to
//! the reference result, then reports the per-point speedup and the
//! geometric-mean speedup per kernel family. Results are written to
//! `bench_results/solver_kernels.json`.
//!
//! Every family must keep a packed ÷ reference geometric mean of at least
//! its [`MIN_SPEEDUP`] — a ratio on one runner, never an absolute time — or
//! the binary fails. The general-DAG kernel's embedding check is compiled
//! once per solve, all three kernels accumulate a successor's mass where it
//! lands instead of sorting transitions, and a step that places no tracked
//! item costs one successor per gap: a change that puts per-transition work
//! back shows up here first. Each family sweeps label-level unions *and* the
//! item-level shapes production solves (`pair`, `chain3`, one label per item,
//! 2–3 of the m items tracked); the two cost very differently, and a sweep of
//! only the former once let a 37 µs unit read as 8 µs. The packed general-DAG
//! kernel also drops the prefixes no placement of the remaining items can
//! complete, which the reference kernel carries to the end: the item-level
//! `chain3` / `diamond` points — and `chain4` at paper scale — are where
//! that shows.
//!
//! Environment:
//! * `PPD_SCALE`       — `small` (default) or `paper` (larger `m` sweep);
//! * `PPD_KERNEL_REPS` — timed repetitions per point (default 7 small,
//!   5 paper); the per-solve latency reported is the median;
//! * `PPD_KERNEL_MAX_M` — drop sweep points above this `m` (the CI smoke
//!   run caps the sweep at 12 this way, which keeps the serving shape).

use ppd_bench::{env_usize, median_duration, timed, write_results, Scale};
use ppd_patterns::{Labeling, Pattern, PatternUnion};
use ppd_rim::RimModel;
use ppd_solvers::testutil::{cyclic_labeling, rim, sel};
use ppd_solvers::{BipartiteSolver, ExactSolver, PatternSolver, TwoLabelSolver};
use std::time::Duration;

#[path = "../../../solvers/src/exact/reference.rs"]
mod reference;

/// Floors on each family's geometric-mean speedup over the reference. The
/// two-label and bipartite floors sit between what the sort-merge kernels
/// they replaced reach under this same sweep (best of 9 runs: 3.04× and
/// 3.71×) and the worst of 9 runs of the accumulating kernels (4.56× and
/// 4.99×; `bench_results/pr20_before_after.json` lists every run), so going
/// back to a sort over transitions, or to one successor per position on the
/// steps that place no tracked item, fails here.
const MIN_SPEEDUP: [(&str, f64); 3] = [("two-label", 3.8), ("bipartite", 4.3), ("pattern", 4.0)];

/// A boxed solve closure over a fixed union/pattern.
type SolveFn = Box<dyn Fn(&RimModel, &Labeling) -> f64>;

/// One sweep point: a kernel family, an instance, and the two solvers to
/// compare on it. The model/labeling are built once at construction so the
/// reported `packed_width` always describes the instance that gets timed.
struct Point {
    family: &'static str,
    m: usize,
    /// Distinct tracked selectors (`z′`) for the DP families; pattern nodes
    /// for the general DP.
    z_prime: usize,
    label: String,
    model: RimModel,
    lab: Labeling,
    packed: SolveFn,
    reference: SolveFn,
    packed_width: Option<u32>,
}

fn two_label_union(z: usize) -> PatternUnion {
    let members: Vec<Pattern> = match z {
        1 => vec![Pattern::two_label(sel(1), sel(0))],
        2 => vec![
            Pattern::two_label(sel(1), sel(0)),
            Pattern::two_label(sel(2), sel(0)),
        ],
        _ => vec![
            Pattern::two_label(sel(1), sel(0)),
            Pattern::two_label(sel(2), sel(0)),
            Pattern::two_label(sel(3), sel(2)),
        ],
    };
    PatternUnion::new(members).unwrap()
}

fn bipartite_union(shape: &str) -> PatternUnion {
    let vee = Pattern::new(vec![sel(2), sel(0), sel(1)], vec![(0, 1), (0, 2)]).unwrap();
    let a_shape = Pattern::new(
        vec![sel(0), sel(1), sel(2), sel(3)],
        vec![(0, 2), (0, 3), (1, 3)],
    )
    .unwrap();
    match shape {
        "vee" => PatternUnion::singleton(vee).unwrap(),
        "a-shape" => PatternUnion::singleton(a_shape).unwrap(),
        _ => PatternUnion::new(vec![vee, Pattern::two_label(sel(3), sel(1))]).unwrap(),
    }
}

fn main() {
    let scale = Scale::from_env();
    let reps = env_usize("PPD_KERNEL_REPS").unwrap_or_else(|| scale.pick(7, 5));
    let max_m = env_usize("PPD_KERNEL_MAX_M").unwrap_or(usize::MAX);

    let two_label_ms: Vec<usize> = scale.pick(vec![8, 10, 12, 14], vec![10, 14, 18, 22]);
    let bipartite_ms: Vec<usize> = scale.pick(vec![8, 10, 12], vec![10, 12, 14]);
    let pattern_ms: Vec<usize> = scale.pick(vec![6, 7, 8], vec![7, 8, 9]);
    let serving_ms: Vec<usize> = vec![10, 12];
    let phi = 0.5;

    let two_label_point =
        |label: String, m: usize, z_prime: usize, labels: u32, union: PatternUnion| {
            let lab = cyclic_labeling(m, labels);
            let model = rim(m, phi);
            let width = TwoLabelSolver::packed_state_width(&model, &lab, &union);
            let (u1, u2) = (union.clone(), union);
            Point {
                family: "two-label",
                m,
                z_prime,
                label,
                model,
                lab,
                packed: Box::new(move |r, l| TwoLabelSolver::new().solve(r, l, &u1).unwrap()),
                reference: Box::new(move |r, l| reference::two_label(r, l, &u2, None).unwrap()),
                packed_width: width,
            }
        };
    let bipartite_point = |label: String, m: usize, labels: u32, union: PatternUnion| {
        let lab = cyclic_labeling(m, labels);
        let model = rim(m, phi);
        let width = BipartiteSolver::packed_state_width(&model, &lab, &union);
        let z_prime = union.total_nodes();
        let (u1, u2) = (union.clone(), union);
        Point {
            family: "bipartite",
            m,
            z_prime,
            label,
            model,
            lab,
            packed: Box::new(move |r, l| BipartiteSolver::new().solve(r, l, &u1).unwrap()),
            reference: Box::new(move |r, l| reference::bipartite(r, l, &u2, None).unwrap()),
            packed_width: width,
        }
    };

    let mut points: Vec<Point> = Vec::new();
    for &m in two_label_ms.iter().filter(|&&m| m <= max_m) {
        for z in [1usize, 2, 3] {
            // z edges share selector 0 on the right: z + 1 tracked selectors.
            let label = format!("two-label m={m} z={z}");
            points.push(two_label_point(label, m, z + 1, 4, two_label_union(z)));
        }
    }
    for &m in bipartite_ms.iter().filter(|&&m| m <= max_m) {
        for shape in ["vee", "a-shape", "vee+two"] {
            let label = format!("bipartite m={m} {shape}");
            points.push(bipartite_point(label, m, 4, bipartite_union(shape)));
        }
    }
    // The item-level `pair` production solves (`cand_a ≻ cand_b` over a
    // session's own σ): one label per item, two of the m items tracked, the
    // preferred one late in σ. Both families that can take it.
    for &m in serving_ms.iter().filter(|&&m| m <= max_m) {
        let (early, late) = (1, m as u32 - 2);
        let pair = PatternUnion::singleton(Pattern::two_label(sel(late), sel(early))).unwrap();
        let label = format!("two-label m={m} item pair");
        points.push(two_label_point(label, m, 2, m as u32, pair.clone()));
        let label = format!("bipartite m={m} item pair");
        points.push(bipartite_point(label, m, m as u32, pair));
    }
    // The same pair with both items early in σ (positions 1 and 2): the
    // two-label kernel stops after the step that places them, where the
    // oracle goes on through all m steps.
    if max_m >= 12 {
        let pair = PatternUnion::singleton(Pattern::two_label(sel(2), sel(1))).unwrap();
        let label = "two-label m=12 early item pair".to_string();
        points.push(two_label_point(label, 12, 2, 12, pair));
    }
    let pattern_point = |label: String, m: usize, labels: u32, pattern: Pattern| {
        let lab = cyclic_labeling(m, labels);
        let model = rim(m, phi);
        let width = PatternSolver::packed_state_width(&model, &lab, &pattern);
        let z_prime = pattern.num_nodes();
        let (p1, p2) = (pattern.clone(), pattern);
        Point {
            family: "pattern",
            m,
            z_prime,
            label,
            model,
            lab,
            packed: Box::new(move |r, l| PatternSolver::new().solve_pattern(r, l, &p1).unwrap()),
            reference: Box::new(move |r, l| reference::pattern(r, l, &p2, None).unwrap()),
            packed_width: width,
        }
    };
    for &m in pattern_ms.iter().filter(|&&m| m <= max_m) {
        let chain = Pattern::new(vec![sel(0), sel(1), sel(2)], vec![(0, 1), (1, 2)]).unwrap();
        points.push(pattern_point(format!("pattern m={m} chain3"), m, 3, chain));
    }
    // The shape production solves (`cand0 ≻ cand1 ≻ cand2` over a session's
    // own σ): one label per item, so a selector names one item and only 3–4
    // of the m items are relevant, spread over σ.
    for &m in serving_ms.iter().filter(|&&m| m <= max_m) {
        let (early, mid, late) = (1, m as u32 / 2, m as u32 - 2);
        let chain =
            Pattern::new(vec![sel(late), sel(early), sel(mid)], vec![(0, 1), (1, 2)]).unwrap();
        points.push(pattern_point(
            format!("pattern m={m} item chain3"),
            m,
            m as u32,
            chain,
        ));
        let diamond = Pattern::new(
            vec![sel(mid), sel(early), sel(late), sel(0)],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap();
        points.push(pattern_point(
            format!("pattern m={m} item diamond"),
            m,
            m as u32,
            diamond,
        ));
    }
    // One node more (`a ≻ b ≻ c ≻ d`, items spread over σ, the preferred
    // ones late): from the second item on, the prefixes no placement of the
    // missing items can complete are most of what an unpruned kernel carries.
    // The reference kernel carries them to the end; paper scale only.
    let chain4_ms: Vec<usize> = scale.pick(vec![], vec![12, 16]);
    for &m in chain4_ms.iter().filter(|&&m| m <= max_m) {
        let m32 = m as u32;
        let chain = Pattern::new(
            vec![sel(m32 - 2), sel(m32 / 3), sel(1), sel(2 * m32 / 3)],
            vec![(0, 1), (1, 2), (2, 3)],
        )
        .unwrap();
        points.push(pattern_point(
            format!("pattern m={m} item chain4"),
            m,
            m32,
            chain,
        ));
    }

    println!(
        "solver_kernels: {} points, {reps} reps each (phi = {phi})\n",
        points.len()
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut records = Vec::new();
    let mut speedups_by_family: std::collections::BTreeMap<&str, Vec<f64>> =
        std::collections::BTreeMap::new();
    for point in &points {
        let (model, lab) = (&point.model, &point.lab);
        // Warm-up solve of each kernel, which also pins bit-identity.
        let p0 = (point.packed)(model, lab);
        let r0 = (point.reference)(model, lab);
        assert_eq!(
            p0.to_bits(),
            r0.to_bits(),
            "{}: packed {p0} vs reference {r0} must be bit-identical",
            point.label
        );
        let mut packed_times: Vec<Duration> = Vec::with_capacity(reps);
        let mut reference_times: Vec<Duration> = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (p, t) = timed(|| (point.packed)(model, lab));
            assert_eq!(
                p.to_bits(),
                p0.to_bits(),
                "{}: unstable result",
                point.label
            );
            packed_times.push(t);
            let (r, t) = timed(|| (point.reference)(model, lab));
            assert_eq!(
                r.to_bits(),
                r0.to_bits(),
                "{}: unstable result",
                point.label
            );
            reference_times.push(t);
        }
        let packed_us = median_duration(&packed_times).as_secs_f64() * 1e6;
        let reference_us = median_duration(&reference_times).as_secs_f64() * 1e6;
        let speedup = reference_us / packed_us.max(1e-9);
        speedups_by_family
            .entry(point.family)
            .or_default()
            .push(speedup);
        rows.push(vec![
            point.label.clone(),
            match point.packed_width {
                Some(w) => format!("{w}b"),
                None => "wide".into(),
            },
            format!("{reference_us:.1}"),
            format!("{packed_us:.1}"),
            format!("{speedup:.2}x"),
        ]);
        records.push(serde_json::json!({
            "family": point.family,
            "m": point.m,
            "z_prime": point.z_prime,
            "label": point.label.clone(),
            "packed_width_bits": point.packed_width,
            "probability": p0,
            "reference_us": reference_us,
            "packed_us": packed_us,
            "speedup": speedup,
        }));
    }

    ppd_bench::print_table(
        &["point", "state", "reference µs", "packed µs", "speedup"],
        &rows,
    );
    println!();

    let geomean =
        |v: &[f64]| -> f64 { (v.iter().map(|s| s.ln()).sum::<f64>() / v.len() as f64).exp() };
    let mut summaries: std::collections::BTreeMap<String, serde_json::Value> =
        std::collections::BTreeMap::new();
    for (family, speedups) in &speedups_by_family {
        let g = geomean(speedups);
        println!(
            "{family}: geometric-mean speedup {g:.2}x over {} points",
            speedups.len()
        );
        summaries.insert(family.to_string(), serde_json::json!(g));
    }

    write_results(
        "solver_kernels",
        &serde_json::json!({
            "scale": format!("{scale:?}"),
            "phi": phi,
            "reps": reps,
            "points": records,
            "geomean_speedup": serde_json::Value::Object(summaries),
        }),
    );

    for (family, floor) in MIN_SPEEDUP {
        if let Some(speedups) = speedups_by_family.get(family) {
            let speedup = geomean(speedups);
            assert!(
                speedup >= floor,
                "{family} family: packed is only {speedup:.2}x the reference (floor {floor}x)"
            );
        }
    }
}
