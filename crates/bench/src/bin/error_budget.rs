//! Error-budget benchmark: error budgets buy only the samples they need.
//!
//! Over the solver menagerie the budgeted MIS-AMP estimator
//! ([`ppd_solvers::MisAmpBudgeted`]) runs with `ε = 0.05` at 95%
//! confidence; every converged run must land within `ε` of the exact
//! answer while spending a fraction of the worst-case fixed sample budget
//! the same guarantee would cost without adaptive stopping. The harness
//! also times the exact DP on a cheap union and on a deep-chain union,
//! showing why the engine's selection threshold sends cheap units to the
//! DP and expensive ones to the sampler.
//!
//! Results are written to `bench_results/error_budget.json`.
//!
//! Environment:
//! * `PPD_SCALE` — `small` (default) or `paper`.

use ppd_bench::{timed, write_results, Scale};
use ppd_solvers::testutil::{cyclic_labeling, mallows, sample_unions, sel};
use ppd_solvers::{ExactSolver, GeneralSolver, MisAmpBudgeted};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn part_b(scale: Scale) -> serde_json::Value {
    let (epsilon, confidence) = (0.05, 0.95);
    let m = 6;
    let phi = 0.5;
    let solver = MisAmpBudgeted::new(epsilon, confidence);
    // `initial_samples` is a round's *total* mixture budget, doubling each
    // round.
    let worst_case = solver.initial_samples * ((1 << solver.max_rounds) - 1);
    let model = mallows(m, phi);
    let rim = model.to_rim();
    let lab = cyclic_labeling(m, 4);

    let mut converged = 0usize;
    let mut fell_back = 0usize;
    let mut max_err: f64 = 0.0;
    let mut sample_shares: Vec<f64> = Vec::new();
    let mut exact_us: Vec<f64> = Vec::new();
    let mut budgeted_us: Vec<f64> = Vec::new();
    for (ui, union) in sample_unions().iter().enumerate() {
        let (exact, t_exact) = timed(|| GeneralSolver::new().solve(&rim, &lab, union).unwrap());
        exact_us.push(t_exact.as_secs_f64() * 1e6);
        let mut rng = StdRng::seed_from_u64(0xCA11B + ui as u64);
        let (outcome, t_budget) = timed(|| solver.run(&model, &lab, union, &mut rng).unwrap());
        budgeted_us.push(t_budget.as_secs_f64() * 1e6);
        if outcome.converged {
            converged += 1;
            max_err = max_err.max((outcome.estimate - exact).abs());
            sample_shares.push(outcome.total_samples as f64 / worst_case as f64);
        } else {
            fell_back += 1;
        }
    }
    assert!(
        max_err <= epsilon + 1e-12,
        "a converged run missed its ±{epsilon} budget: {max_err}"
    );
    let mean_share = sample_shares.iter().sum::<f64>() / sample_shares.len().max(1) as f64;

    // Why the threshold: the exact DP on a cheap (two-label) union vs the
    // budgeted sampler certifying the same answer, then a deep chain where
    // the DP's state space has grown by orders of magnitude.
    let cheap =
        ppd_patterns::PatternUnion::singleton(ppd_patterns::Pattern::two_label(sel(1), sel(0)))
            .unwrap();
    let (_, cheap_exact) = timed(|| GeneralSolver::new().solve(&rim, &lab, &cheap).unwrap());
    let mut rng = StdRng::seed_from_u64(0xCA11B0);
    let (_, cheap_budget) = timed(|| solver.run(&model, &lab, &cheap, &mut rng).unwrap());

    let deep_m = scale.pick(8, 10);
    let deep_nodes = scale.pick(6, 7);
    let chain = ppd_patterns::Pattern::new(
        (0..deep_nodes as u32).map(sel).collect(),
        (0..deep_nodes - 1).map(|i| (i, i + 1)).collect(),
    )
    .unwrap();
    let deep = ppd_patterns::PatternUnion::singleton(chain).unwrap();
    let deep_model = mallows(deep_m, phi);
    let deep_lab = cyclic_labeling(deep_m, deep_nodes as u32);
    let (_, deep_exact) = timed(|| {
        GeneralSolver::new()
            .solve(&deep_model.to_rim(), &deep_lab, &deep)
            .unwrap()
    });
    let mut rng = StdRng::seed_from_u64(0xCA11B1);
    let (_, deep_budget) = timed(|| solver.run(&deep_model, &deep_lab, &deep, &mut rng).unwrap());

    println!("Part B — error-budgeted selection (ε = {epsilon}, confidence {confidence})\n");
    println!(
        "  menagerie, m={m} φ={phi}: {converged} converged / {fell_back} fell back \
         (exact fallback); max |err| {max_err:.4}\n  \
         mean sample spend {:.1}% of the {worst_case}-sample worst case\n  \
         exact DP median {:.0} µs vs budgeted sampler median {:.0} µs per union\n  \
         cheap two-label union: exact {:.0} µs, budgeted {:.0} µs — the threshold \
         keeps it on the DP\n  deep chain ({deep_nodes} nodes, m={deep_m}): exact {:.1} ms, \
         budgeted {:.1} ms\n",
        mean_share * 100.0,
        ppd_bench::median(&exact_us),
        ppd_bench::median(&budgeted_us),
        cheap_exact.as_secs_f64() * 1e6,
        cheap_budget.as_secs_f64() * 1e6,
        deep_exact.as_secs_f64() * 1e3,
        deep_budget.as_secs_f64() * 1e3,
    );

    serde_json::json!({
        "epsilon": epsilon,
        "confidence": confidence,
        "m": m,
        "phi": phi,
        "worst_case_samples": worst_case,
        "converged": converged,
        "fell_back": fell_back,
        "max_abs_err": max_err,
        "mean_sample_share": mean_share,
        "exact_median_us": ppd_bench::median(&exact_us),
        "budgeted_median_us": ppd_bench::median(&budgeted_us),
        "cheap_exact_us": cheap_exact.as_secs_f64() * 1e6,
        "cheap_budgeted_us": cheap_budget.as_secs_f64() * 1e6,
        "deep_chain": {
            "nodes": deep_nodes,
            "m": deep_m,
            "exact_ms": deep_exact.as_secs_f64() * 1e3,
            "budgeted_ms": deep_budget.as_secs_f64() * 1e3,
        },
    })
}

fn main() {
    let scale = Scale::from_env();
    let budget = part_b(scale);
    write_results(
        "error_budget",
        &serde_json::json!({
            "scale": format!("{scale:?}"),
            "budget": budget,
        }),
    );
}
