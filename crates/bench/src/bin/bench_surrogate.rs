//! **bench_surrogate** — correctness + efficiency benchmark of the
//! error-controlled surrogate fast path on the paper package.
//!
//! The scenario: wire elongations `δⱼ ~ N(0.17, 0.048)`, the paper
//! transient at a benchmark-sized horizon, QoI `Y = max_t maxⱼ T_bw,j`.
//! A seeded training campaign fits a per-QoI PCE surrogate through the
//! batched ensemble engine; the same Monte Carlo population that
//! calibrates the failure threshold (`b = k`-th largest response, so the
//! reference probability is `k/N_mc` by construction) doubles as the
//! served-accuracy oracle. Subset simulation then runs twice at the
//! calibrated threshold over identical seeds — once on full solves only,
//! once screened through [`SurrogateWithFallback`] with a near-threshold
//! guard, so full transients are reserved for samples the error model
//! cannot certify or that land within one tolerance of the threshold.
//!
//! Gates (full profile):
//! * speed: one surrogate evaluation is ≥ 1000× faster than one full
//!   transient solve,
//! * accuracy: `max |served − full solve|` over the oracle population is
//!   within the serving tolerance,
//! * efficiency: the screened subset run reaches the reference probability
//!   (≤ 3 combined CoVs, CoV within 25 % of the unscreened run) with
//!   ≥ 3× fewer full transient solves,
//! * determinism: the screened estimate and its serving ledger are
//!   bit-identical for 1, 2 and 4 worker threads.
//!
//! Flags: `--quick` (CI smoke: tiny populations, efficiency gates relaxed
//! to determinism + sanity), `--samples-mc M`, `--n-train N`,
//! `--degree D`, `--n-level N`, `--tail-k K`, `--steps S`, `--t-end T`,
//! `--threads T`, `--seed S`, `--mesh-xy`, `--mesh-z`, `--out PATH`.

use etherm_bench::{arg_f64, arg_flag, arg_usize, arg_value, json_f64};
use etherm_core::{
    run_ensemble, EnsembleOptions, FullSolve, QoiEvaluator, SolverOptions, TransientSolution,
};
use etherm_package::{build_model, paper_elongation_distribution, BuildOptions, PackageGeometry};
use etherm_reliability::{
    train_surrogates, FailureEstimate, FailureEstimator, QoiLimitState, SubsetSimulation,
    SurrogateTrainingPlan, SurrogateWithFallback,
};
use etherm_uq::{draw_samples, Distribution, MonteCarloSampler, SurrogateOptions};
use std::sync::Arc;
use std::time::Instant;

const N_WIRES: usize = 12;

fn estimate_json(method: &str, e: &FailureEstimate, full_solves: usize, wall_s: f64) -> String {
    format!(
        "    {{\"method\": \"{method}\", \"probability\": {}, \"cov\": {}, \
         \"evaluations\": {}, \"full_solves\": {full_solves}, \"levels\": {}, \
         \"wall_s\": {wall_s:.3}}}",
        json_f64(e.probability),
        json_f64(e.cov),
        e.n_evaluations,
        e.levels.len(),
    )
}

/// Campaign QoI: the peak bond-wire temperature over the whole transient.
fn peak(sol: &TransientSolution) -> Vec<f64> {
    let mut m = f64::NEG_INFINITY;
    for j in 0..sol.n_wires() {
        for &t in sol.wire_series(j) {
            m = m.max(t);
        }
    }
    vec![m]
}

fn main() {
    let quick = arg_flag("quick");
    let (d_xy, d_z, d_steps, d_tend, d_mc, d_k, d_train, d_deg, d_level) = if quick {
        (1.3e-3, 0.7e-3, 4, 8.0, 40, 4, 40, 1, 60)
    } else {
        (1.1e-3, 0.6e-3, 5, 10.0, 400, 4, 160, 2, 400)
    };
    let mesh_xy = arg_f64("mesh-xy", d_xy);
    let mesh_z = arg_f64("mesh-z", d_z);
    let steps = arg_usize("steps", d_steps);
    let t_end = arg_f64("t-end", d_tend);
    let n_mc = arg_usize("samples-mc", d_mc);
    let tail_k = arg_usize("tail-k", d_k).max(1);
    let n_train = arg_usize("n-train", d_train);
    let degree = arg_usize("degree", d_deg);
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
    let marginals = || -> Vec<Box<dyn Distribution>> {
        (0..N_WIRES)
            .map(|_| Box::new(delta) as Box<dyn Distribution>)
            .collect()
    };
    let options = |n_threads: usize| EnsembleOptions {
        n_threads,
        ..EnsembleOptions::default()
    };
    let scenario = built.elongation_scenario(t_end, steps, peak);
    eprintln!(
        "bench_surrogate: {dofs} DoFs, {steps} steps over {t_end} s, {threads} thread(s), \
         train {n_train} (degree {degree}), MC {n_mc} (tail k = {tail_k}), subset N = {n_level}"
    );

    // ---- 1. Training: batched DoE -> per-QoI surrogate + error model ----
    let plan = SurrogateTrainingPlan {
        n_train,
        seed: seed.wrapping_add(7),
        surrogate: SurrogateOptions {
            degree,
            ..SurrogateOptions::default()
        },
    };
    let start = Instant::now();
    let trained = train_surrogates(&compiled, &scenario, &marginals(), &plan, &options(threads))
        .expect("surrogate training");
    let wall_train = start.elapsed().as_secs_f64();
    let train_solves = trained.counters.thermal_solves;
    let cv = trained.surrogates[0].cv_error();
    let tolerance = 5.0 * cv;
    assert!(cv > 0.0 && cv.is_finite(), "degenerate cv error {cv}");
    eprintln!(
        "training:       {wall_train:.1} s, {train_solves} thermal solves, cv error {cv:.3e} K \
         -> tolerance {tolerance:.3e} K"
    );

    // ---- 2. MC reference: threshold calibration + serving oracle --------
    let dists: Vec<&dyn Distribution> = (0..N_WIRES).map(|_| &delta as &dyn Distribution).collect();
    let mut generator = MonteCarloSampler::new(seed);
    let inputs = draw_samples(&mut generator, &dists, n_mc);
    let start = Instant::now();
    let reference =
        run_ensemble(&compiled, &scenario, &inputs, &options(threads)).expect("MC reference");
    let wall_mc = start.elapsed().as_secs_f64();
    let oracle: Vec<f64> = reference.outputs.iter().map(|q| q[0]).collect();
    let mut ys = oracle.clone();
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

    // ---- 3. Serving accuracy + speed on the oracle population -----------
    let full = FullSolve::new(&compiled, &scenario, N_WIRES, options(threads));
    let mut server =
        SurrogateWithFallback::new(full, trained.surrogates.clone(), marginals(), tolerance)
            .expect("serving tier");
    let start = Instant::now();
    let served_outputs = server.evaluate(&inputs).expect("serving sweep");
    let wall_serve = start.elapsed().as_secs_f64();
    let mut max_abs_error = 0.0f64;
    for (out, truth) in served_outputs.iter().zip(&oracle) {
        max_abs_error = max_abs_error.max((out[0] - truth).abs());
    }
    let served = server.served();
    let fallbacks = server.full_solves();
    let max_served_estimate = server.max_served_error();
    // Raw prediction latency: many evaluations of the fitted chaos at the
    // oracle germ points (cheap enough to time in bulk).
    let germs: Vec<Vec<f64>> = inputs
        .iter()
        .map(|x| x.iter().map(|&v| delta.to_std_normal(v)).collect())
        .collect();
    let reps = 20_000usize.div_ceil(germs.len());
    let start = Instant::now();
    for _ in 0..reps {
        for g in &germs {
            std::hint::black_box(trained.surrogates[0].predict_with_error(g));
        }
    }
    let surrogate_eval_s = start.elapsed().as_secs_f64() / (reps * germs.len()) as f64;
    let full_solve_s = wall_mc / n_mc as f64;
    let speedup = full_solve_s / surrogate_eval_s;
    eprintln!(
        "serving:        {served} served / {fallbacks} full ({wall_serve:.1} s), \
         max |dQoI| {max_abs_error:.3e} K vs tolerance {tolerance:.3e} K"
    );
    eprintln!(
        "speed:          surrogate {surrogate_eval_s:.2e} s/eval vs transient {full_solve_s:.2e} \
         s/solve -> {speedup:.0}x"
    );

    // ---- 4. Subset simulation: full solves vs surrogate-screened --------
    let subset = SubsetSimulation {
        p0: 0.35,
        ..SubsetSimulation::new(n_level, seed.wrapping_add(1))
    };
    let run_full = |n_threads: usize| {
        let full = FullSolve::new(&compiled, &scenario, N_WIRES, options(n_threads));
        let mut state = QoiLimitState::new(full, marginals(), threshold);
        let start = Instant::now();
        let estimate = subset.estimate(&mut state).expect("full subset");
        let solves = state.evaluator().full_solves();
        (estimate, solves, start.elapsed().as_secs_f64())
    };
    // The screened run: guarded serving (full solves reserved for the
    // near-threshold band), fallback points folded back into the chaos
    // every 64 solves.
    let run_screened = |n_threads: usize| {
        let full = FullSolve::new(&compiled, &scenario, N_WIRES, options(n_threads));
        let tier =
            SurrogateWithFallback::new(full, trained.surrogates.clone(), marginals(), tolerance)
                .expect("serving tier")
                .with_near_threshold_guard(threshold, tolerance)
                .with_auto_refine(64);
        let mut state = QoiLimitState::new(tier, marginals(), threshold);
        let start = Instant::now();
        let estimate = subset.estimate(&mut state).expect("screened subset");
        let wall = start.elapsed().as_secs_f64();
        (estimate, state.into_evaluator(), wall)
    };
    let (ss_full, ss_full_solves, wall_ss_full) = run_full(threads);
    eprintln!(
        "subset (full):  {wall_ss_full:.1} s, p = {:.3e} (cov {:.2}), {} full solves",
        ss_full.probability, ss_full.cov, ss_full_solves
    );
    let (ss_scr, screened_tier, wall_ss_scr) = run_screened(threads);
    let scr_solves = screened_tier.full_solves();
    let solve_reduction = ss_full_solves as f64 / scr_solves.max(1) as f64;
    eprintln!(
        "subset (screened): {wall_ss_scr:.1} s, p = {:.3e} (cov {:.2}), {} full solves \
         + {} served, {} refinement pass(es) -> {solve_reduction:.1}x fewer solves",
        ss_scr.probability,
        ss_scr.cov,
        scr_solves,
        screened_tier.served(),
        screened_tier.refinements()
    );

    // Determinism: the screened estimate and its serving ledger across
    // 1/2/4 worker threads.
    let reference_fp = format!(
        "{ss_scr:?} served={} solves={}",
        screened_tier.served(),
        screened_tier.full_solves()
    );
    for other in [2usize, 4] {
        let (e, tier, _) = run_screened(other);
        let fp = format!("{e:?} served={} solves={}", tier.served(), tier.full_solves());
        assert_eq!(
            reference_fp, fp,
            "screened subset must be bit-identical for any n_threads"
        );
    }
    eprintln!("determinism:    2- and 4-thread re-runs bit-identical");

    // ---- 5. Gates -------------------------------------------------------
    let combined = (mc_estimate.std_error().powi(2) + ss_scr.std_error().powi(2)).sqrt();
    let agreement_z = (ss_scr.probability - p_mc).abs() / combined;
    assert!(
        ss_scr.probability > 0.0 && ss_scr.probability < 1.0,
        "degenerate screened estimate"
    );
    assert!(
        max_abs_error <= tolerance,
        "served answer drifted {max_abs_error} K > tolerance {tolerance} K"
    );
    assert!(served > 0, "serving tier answered nothing");
    if !quick {
        assert!(
            speedup >= 1000.0,
            "surrogate must be >= 1000x faster per eval, got {speedup:.0}x"
        );
        assert!(
            agreement_z <= 3.0,
            "screened subset vs MC disagree: {} vs {p_mc} ({agreement_z:.2} combined CoVs)",
            ss_scr.probability
        );
        assert!(
            ss_scr.cov <= 1.25 * ss_full.cov,
            "screened CoV {} vs full {} is not equal-CoV",
            ss_scr.cov,
            ss_full.cov
        );
        assert!(
            solve_reduction >= 3.0,
            "screening must save >= 3x full solves at equal CoV, got {solve_reduction:.2}x"
        );
    }

    // ---- 6. Report ------------------------------------------------------
    let estimates = [
        estimate_json("monte-carlo reference", &mc_estimate, n_mc, wall_mc),
        estimate_json("subset-full-solver", &ss_full, ss_full_solves, wall_ss_full),
        estimate_json("subset-surrogate-screened", &ss_scr, scr_solves, wall_ss_scr),
    ];
    let json = format!(
        "{{\n  \"bench\": \"surrogate\",\n  \"package\": \"paper 28-pad / 12-wire\",\n  \
         \"dofs\": {dofs},\n  \"steps\": {steps},\n  \"t_end_s\": {t_end},\n  \
         \"threads\": {threads},\n  \"seed\": {seed},\n  \
         \"mesh_xy_m\": {mesh_xy:e},\n  \"mesh_z_m\": {mesh_z:e},\n  \
         \"threshold_k\": {},\n  \"tail_k\": {tail_k},\n  \"tolerance_k\": {},\n  \
         \"training\": {{\"n_train\": {n_train}, \"degree\": {degree}, \
         \"quarantined\": {}, \"thermal_solves\": {train_solves}, \
         \"cv_error_k\": {}, \"wall_s\": {wall_train:.3}}},\n  \
         \"serving\": {{\"n\": {n_mc}, \"served\": {served}, \"full_solves\": {fallbacks}, \
         \"max_served_error_estimate_k\": {}, \"max_abs_error_k\": {}, \
         \"surrogate_eval_s\": {}, \"full_solve_s\": {}, \"speedup\": {}}},\n  \
         \"estimates\": [\n{}\n  ],\n  \
         \"screened\": {{\"served\": {}, \"full_solves\": {scr_solves}, \
         \"refinements\": {}, \"solve_reduction_vs_full_subset\": {}}},\n  \
         \"agreement_combined_cov_multiple\": {},\n  \
         \"deterministic_across_threads\": true\n}}\n",
        json_f64(threshold),
        json_f64(tolerance),
        trained.quarantined,
        json_f64(cv),
        json_f64(max_served_estimate),
        json_f64(max_abs_error),
        json_f64(surrogate_eval_s),
        json_f64(full_solve_s),
        json_f64(speedup),
        estimates.join(",\n"),
        screened_tier.served(),
        screened_tier.refinements(),
        json_f64(solve_reduction),
        json_f64(agreement_z),
    );
    let out = arg_value("out").unwrap_or_else(|| "BENCH_surrogate.json".into());
    std::fs::write(&out, &json).expect("write benchmark report");
    println!("{json}");
    eprintln!(
        "screened subset: {solve_reduction:.1}x fewer full solves, surrogate {speedup:.0}x \
         faster per eval -> {out}"
    );
}
