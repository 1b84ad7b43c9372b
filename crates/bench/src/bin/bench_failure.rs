//! **bench_failure** — correctness + efficiency benchmark of the rare-event
//! reliability engine on the paper package.
//!
//! The scenario: wire elongations `δⱼ ~ N(0.17, 0.048)` (the paper's
//! metrology fit), the paper transient at a benchmark-sized horizon, and a
//! failure threshold on `Y = max_t maxⱼ T_bw,j`. To make the reference
//! tail-shape-proof, the threshold is **calibrated from the seeded
//! brute-force Monte Carlo reference itself**: `b = k`-th largest of the
//! `N_mc` reference responses, so the reference estimate is `k/N_mc` (for
//! the full profile `4/4000 = 1e-3` — the paper's ≤ 1e-3 regime) by
//! construction. Subset simulation then estimates the same exceedance
//! through the session/ensemble stack with in-run early exit.
//!
//! Gates (full profile):
//! * agreement: `|p_ss − p_mc| ≤ 3·√(σ_mc² + σ_ss²)` (3 combined CoVs),
//! * efficiency: ≥ 5× fewer transient solves than a plain-MC campaign
//!   would spend to reach the subset run's CoV at the reference
//!   probability,
//! * determinism: the subset estimate is bit-identical when the ensemble
//!   evaluates on a different thread count,
//! * fusing search: the critical wire current stays below the Onderdonk
//!   adiabatic melt current for the horizon.
//!
//! Flags: `--quick` (CI smoke: tiny horizon/populations, gates relaxed to
//! determinism + sanity), `--samples-mc M`, `--n-level N`, `--tail-k K`,
//! `--steps S`, `--t-end T`, `--threads T`, `--seed S`, `--mesh-xy`,
//! `--mesh-z`, `--out PATH`.

use etherm_bench::{arg_f64, arg_flag, arg_usize, arg_value, json_f64};
use etherm_bondwire::analytic::{
    allowable_current, onderdonk_fusing_current, preece_fusing_current,
};
use etherm_core::{run_ensemble, EnsembleOptions, FullSolve, QoiEvaluator, Session, SolverOptions};
use etherm_package::{
    build_model, paper_elongation_distribution, BuildOptions, FailureScenario, PackageGeometry,
};
use etherm_reliability::{
    find_critical_load, FailureEstimate, FailureEstimator, FusingSearchOptions, QoiLimitState,
    SubsetSimulation,
};
use etherm_uq::{draw_samples, Distribution, MonteCarloSampler};
use std::sync::Arc;
use std::time::Instant;

const MOLD_T_CRITICAL: f64 = 523.0;

fn levels_json(estimate: &FailureEstimate, indent: &str) -> String {
    estimate
        .levels
        .iter()
        .map(|l| {
            format!(
                "{indent}{{\"threshold_k\": {}, \"conditional_probability\": {}, \
                 \"acceptance_rate\": {}, \"gamma\": {}, \"n_chains\": {}, \"n_samples\": {}}}",
                json_f64(l.threshold),
                json_f64(l.conditional_probability),
                json_f64(l.acceptance_rate),
                json_f64(l.gamma),
                l.n_chains,
                l.n_samples
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

#[allow(clippy::too_many_arguments)]
fn estimate_json(
    method: &str,
    estimate: &FailureEstimate,
    wall_s: f64,
    thermal_solves: usize,
    indent: &str,
) -> String {
    format!(
        "{indent}{{\n{indent}  \"method\": \"{method}\",\n\
         {indent}  \"probability\": {},\n{indent}  \"cov\": {},\n\
         {indent}  \"evaluations\": {},\n{indent}  \"thermal_solves\": {thermal_solves},\n\
         {indent}  \"wall_s\": {wall_s:.3},\n{indent}  \"levels\": [\n{}\n{indent}  ]\n{indent}}}",
        json_f64(estimate.probability),
        json_f64(estimate.cov),
        estimate.n_evaluations,
        levels_json(estimate, &format!("{indent}    ")),
    )
}

fn main() {
    let quick = arg_flag("quick");
    let (d_xy, d_z, d_steps, d_tend, d_mc, d_k, d_level) = if quick {
        (1.3e-3, 0.7e-3, 4, 8.0, 80, 8, 40)
    } else {
        (0.9e-3, 0.5e-3, 8, 16.0, 4000, 4, 500)
    };
    let mesh_xy = arg_f64("mesh-xy", d_xy);
    let mesh_z = arg_f64("mesh-z", d_z);
    let steps = arg_usize("steps", d_steps);
    let t_end = arg_f64("t-end", d_tend);
    let n_mc = arg_usize("samples-mc", d_mc);
    let tail_k = arg_usize("tail-k", d_k).max(1);
    let n_level = arg_usize("n-level", d_level);
    let threads = arg_usize("threads", 1);
    let seed = arg_usize("seed", 2016) as u64;

    let build = BuildOptions {
        target_spacing_xy: mesh_xy,
        target_spacing_z: mesh_z,
        ..BuildOptions::paper_fig7()
    };
    let built = build_model(&PackageGeometry::paper(), &build).expect("package builds");
    let compiled = Arc::new(built.compile(SolverOptions::fast()).expect("compiles"));
    let dofs = compiled.layout().n_total();
    let delta = paper_elongation_distribution();
    eprintln!(
        "bench_failure: {dofs} DoFs, {steps} steps over {t_end} s, {threads} thread(s), \
         MC {n_mc} (tail k = {tail_k}), subset N = {n_level}"
    );

    // ---- 1. Brute-force MC reference: full transients, no early exit ----
    // (threshold-free exploration — exactly what the repo could do before
    // this engine: run everything, assess afterwards).
    let explore = built.failure_scenario(t_end, steps, f64::INFINITY);
    let dists: Vec<&dyn Distribution> = (0..12).map(|_| &delta as &dyn Distribution).collect();
    let mut generator = MonteCarloSampler::new(seed);
    let inputs = draw_samples(&mut generator, &dists, n_mc);
    let start = Instant::now();
    let reference = run_ensemble(
        &compiled,
        &explore,
        &inputs,
        &EnsembleOptions {
            n_threads: threads,
            ..EnsembleOptions::default()
        },
    )
    .expect("MC reference campaign");
    let wall_mc = start.elapsed().as_secs_f64();
    let mc_solves = reference.counters.thermal_solves;
    let mut ys: Vec<f64> = reference
        .outputs
        .iter()
        .map(|q| q[FailureScenario::QOI_PEAK])
        .collect();
    ys.sort_by(|a, b| b.partial_cmp(a).expect("finite responses"));
    assert!(tail_k < ys.len(), "--tail-k must be below --samples-mc");
    // Calibrated threshold: k-th largest response ⇒ the reference sees
    // exactly k failures (Y ≥ b).
    let threshold = ys[tail_k - 1];
    let p_mc = tail_k as f64 / n_mc as f64;
    let cov_mc = ((1.0 - p_mc) / (n_mc as f64 * p_mc)).sqrt();
    let mc_estimate = FailureEstimate {
        probability: p_mc,
        cov: cov_mc,
        n_evaluations: n_mc,
        levels: vec![],
        quarantined: 0,
    };
    eprintln!(
        "mc reference:   {wall_mc:.1} s, threshold {threshold:.3} K, p = {p_mc:.3e} (cov {cov_mc:.2})"
    );

    // ---- 2. Subset simulation at the calibrated threshold --------------
    let scenario = built.failure_scenario(t_end, steps, threshold);
    let marginals = || -> Vec<Box<dyn Distribution>> {
        (0..12)
            .map(|_| Box::new(delta) as Box<dyn Distribution>)
            .collect()
    };
    // p0 = 0.35: shorter chains than the 0.25 default — on this package the
    // lower per-level correlation buys more than the extra levels cost (the
    // crate default stays at the more conservative 0.25).
    let subset = SubsetSimulation {
        p0: 0.35,
        ..SubsetSimulation::new(n_level, seed.wrapping_add(1))
    };
    let run_subset = |n_threads: usize| -> (FailureEstimate, usize, f64) {
        let options = EnsembleOptions {
            n_threads,
            ..EnsembleOptions::default()
        };
        let mut state = QoiLimitState::new(
            FullSolve::new(&compiled, &scenario, scenario.n_wires(), options),
            marginals(),
            threshold,
        );
        let start = Instant::now();
        let estimate = subset.estimate(&mut state).expect("subset simulation");
        (
            estimate,
            state.evaluator().counters().thermal_solves,
            start.elapsed().as_secs_f64(),
        )
    };
    let (ss, ss_solves, wall_ss) = run_subset(threads);
    eprintln!(
        "subset:         {wall_ss:.1} s, p = {:.3e} (cov {:.2}), {} evaluations, {} levels",
        ss.probability,
        ss.cov,
        ss.n_evaluations,
        ss.levels.len()
    );

    // Determinism across worker counts: bit-identical estimate.
    let other_threads = if threads == 1 { 2 } else { 1 };
    let (ss_other, _, wall_det) = run_subset(other_threads);
    assert_eq!(
        format!("{ss:?}"),
        format!("{ss_other:?}"),
        "subset estimate must be bit-identical for any n_threads"
    );
    eprintln!("determinism:    {other_threads}-thread re-run bit-identical ({wall_det:.1} s)");

    // ---- 3. Gates -------------------------------------------------------
    let combined =
        (mc_estimate.std_error().powi(2) + ss.std_error().powi(2)).sqrt();
    let agreement_z = (ss.probability - p_mc).abs() / combined;
    // Equal-CoV yardstick at the reference probability: transients a plain
    // MC campaign needs for the subset run's CoV, in solve units.
    let mc_solves_per_run = mc_solves as f64 / n_mc as f64;
    let equal_cov_mc_runs = (1.0 - p_mc) / (p_mc * ss.cov * ss.cov);
    let eval_reduction = equal_cov_mc_runs / ss.n_evaluations as f64;
    let solve_reduction = equal_cov_mc_runs * mc_solves_per_run / ss_solves as f64;
    eprintln!(
        "agreement: {agreement_z:.2} combined CoVs; equal-CoV MC would need {equal_cov_mc_runs:.0} \
         transients -> reduction {eval_reduction:.1}x (evaluations), {solve_reduction:.1}x (solves)"
    );
    assert!(
        ss.probability > 0.0 && ss.probability < 1.0,
        "degenerate subset estimate"
    );
    assert!(
        agreement_z <= 3.0,
        "subset vs MC disagree: {} vs {p_mc} ({agreement_z:.2} combined CoVs)",
        ss.probability
    );
    if !quick {
        assert!(
            solve_reduction >= 5.0,
            "subset must use >= 5x fewer transient solves at equal CoV, got {solve_reduction:.2}x"
        );
        assert!(
            (1e-4..=1e-2).contains(&p_mc),
            "calibrated probability {p_mc} left the rare-event band"
        );
    }

    // ---- 4. Fusing-current search at nominal elongations ----------------
    let mut session = Session::new(Arc::clone(&compiled));
    let fusing_options = FusingSearchOptions {
        t_end,
        n_steps: steps,
        threshold: MOLD_T_CRITICAL,
        scale_lo: 1.0,
        scale_hi: 64.0,
        tol_rel: 1e-2,
        max_iter: 40,
    };
    let start = Instant::now();
    let critical = find_critical_load(&mut session, &fusing_options).expect("fusing search");
    let wall_fusing = start.elapsed().as_secs_f64();
    // Wire current at the critical (safe) scale: hottest wire at the end of
    // a fresh run.
    session.reset();
    let sol = session.run_transient(t_end, steps, &[]).expect("critical-load transient");
    let (hot_wire, _) = sol.hottest_wire().expect("package has wires");
    let p_wire = *sol.wire_powers[hot_wire].last().unwrap();
    let t_wire = *sol.wire_series(hot_wire).last().unwrap();
    let wire = &compiled.model().wires()[hot_wire].wire;
    let i_critical = (p_wire / wire.resistance(t_wire)).sqrt();
    let i_preece = preece_fusing_current(wire.diameter());
    let i_onderdonk = onderdonk_fusing_current(wire.cross_section(), t_end, 300.0);
    let i_fin = allowable_current(wire, 300.0, 300.0, 0.0, MOLD_T_CRITICAL, 10.0);
    eprintln!(
        "fusing search:  critical scale {:.2} ({} runs, {} early exits, {wall_fusing:.1} s); \
         wire current {i_critical:.3} A vs fin {i_fin:.3} / preece {i_preece:.3} / onderdonk {i_onderdonk:.3} A",
        critical.scale, critical.runs, critical.early_exits
    );
    assert!(critical.scale > 0.0, "paper drive must be safe at 523 K");
    assert!(critical.early_exits > 0, "failing probes must early-exit");
    assert!(
        i_critical < i_onderdonk,
        "degradation-limited current {i_critical} A must undercut the Onderdonk melt bound {i_onderdonk} A"
    );

    // ---- 5. Report ------------------------------------------------------
    let estimates = [
        estimate_json("monte-carlo reference", &mc_estimate, wall_mc, mc_solves, "    "),
        estimate_json("subset-simulation", &ss, wall_ss, ss_solves, "    "),
    ];
    let json = format!(
        "{{\n  \"bench\": \"failure\",\n  \"package\": \"paper 28-pad / 12-wire\",\n  \
         \"dofs\": {dofs},\n  \"steps\": {steps},\n  \"t_end_s\": {t_end},\n  \
         \"threads\": {threads},\n  \"seed\": {seed},\n  \
         \"mesh_xy_m\": {mesh_xy:e},\n  \"mesh_z_m\": {mesh_z:e},\n  \
         \"threshold_k\": {},\n  \"tail_k\": {tail_k},\n  \
         \"estimates\": [\n{}\n  ],\n  \
         \"agreement_combined_cov_multiple\": {},\n  \
         \"equal_cov_mc_transients\": {},\n  \
         \"evaluation_reduction_vs_equal_cov_mc\": {},\n  \
         \"solve_reduction_vs_equal_cov_mc\": {},\n  \
         \"deterministic_across_threads\": true,\n  \
         \"fusing\": {{\n    \"threshold_k\": {MOLD_T_CRITICAL},\n    \
         \"critical_drive_scale\": {},\n    \"bracket\": [{}, {}],\n    \
         \"runs\": {},\n    \"early_exits\": {},\n    \
         \"failing_crossing_time_s\": {},\n    \
         \"wire_current_a\": {},\n    \"fin_allowable_current_a\": {},\n    \
         \"preece_fusing_current_a\": {},\n    \"onderdonk_fusing_current_a\": {}\n  }}\n}}\n",
        json_f64(threshold),
        estimates.join(",\n"),
        json_f64(agreement_z),
        json_f64(equal_cov_mc_runs),
        json_f64(eval_reduction),
        json_f64(solve_reduction),
        json_f64(critical.scale),
        json_f64(critical.bracket.0),
        json_f64(critical.bracket.1),
        critical.runs,
        critical.early_exits,
        json_f64(critical.failing_crossing_time.unwrap_or(f64::NAN)),
        json_f64(i_critical),
        json_f64(i_fin),
        json_f64(i_preece),
        json_f64(i_onderdonk),
    );
    let out = arg_value("out").unwrap_or_else(|| "BENCH_failure.json".into());
    std::fs::write(&out, &json).expect("write benchmark report");
    println!("{json}");
    eprintln!(
        "subset {:.1}x fewer transient solves than equal-CoV MC -> {out}",
        solve_reduction
    );
}
