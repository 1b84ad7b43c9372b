//! End-to-end smoke test of the full paper pipeline on reduced budgets:
//! package → synthetic X-ray → distribution fit → Monte Carlo → Fig. 7
//! statistics.

use etherm::core::{
    run_ensemble_batched, EnsembleOptions, Scenario, Session, SolverOptions, TransientSolution,
};
use etherm::package::{
    build_model, paper_elongation_distribution, BuildOptions, BuiltPackage, PackageGeometry,
    XrayMetrology,
};
use etherm::uq::dist::Distribution;
use etherm::uq::{run_monte_carlo, McOptions, MonteCarloSampler};
use std::sync::Arc;

fn coarse_options() -> BuildOptions {
    BuildOptions {
        target_spacing_xy: 0.6e-3,
        target_spacing_z: 0.3e-3,
        ..BuildOptions::paper_fig7()
    }
}

#[test]
fn xray_to_fit_pipeline() {
    let geometry = PackageGeometry::paper();
    let measurements = XrayMetrology::default().measure(&geometry);
    assert_eq!(measurements.len(), 12);
    let fit = XrayMetrology::fit(&measurements);
    // One virtual chip lands near the paper's N(0.17, 0.048).
    assert!((fit.mu() - 0.17).abs() < 0.06, "mu = {}", fit.mu());
    assert!((fit.sigma() - 0.048).abs() < 0.05, "sigma = {}", fit.sigma());
}

#[test]
fn nominal_paper_transient_reaches_plausible_temperatures() {
    let geometry = PackageGeometry::paper();
    let built = build_model(&geometry, &coarse_options()).unwrap();
    let mut session = Session::new(built.compile(SolverOptions::fast()).unwrap());
    let sol = session.run_transient(50.0, 25, &[]).unwrap();
    let series = sol.max_wire_series();
    // Starts at ambient, rises monotonically (to solver tolerance), ends in
    // the paper's regime (well above 400 K, below the runaway range).
    assert_eq!(series[0], 300.0);
    for w in series.windows(2) {
        assert!(w[1] >= w[0] - 1e-6, "non-monotone rise: {w:?}");
    }
    let end = *series.last().unwrap();
    assert!((420.0..560.0).contains(&end), "E_max(50 s) = {end} K");
    // The hottest wire is among the shortest (paper §V-D).
    let (j_hot, _) = sol.hottest_wire().unwrap();
    let mut lengths = built.nominal_lengths.clone();
    lengths.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = lengths[6];
    assert!(
        built.nominal_lengths[j_hot] <= median,
        "hottest wire #{j_hot} is not among the shorter half"
    );
}

#[test]
fn mini_monte_carlo_statistics_are_sane() {
    let geometry = PackageGeometry::paper();
    let built = build_model(&geometry, &coarse_options()).unwrap();
    let delta = paper_elongation_distribution();
    let dists: Vec<&dyn Distribution> = (0..12).map(|_| &delta as &dyn Distribution).collect();
    let steps = 10;
    // Compile once; reset + apply per sample is bit-identical to a rebuild.
    let mut session = Session::new(built.compile(SolverOptions::fast()).unwrap());
    let scenario = built.elongation_scenario(50.0, steps, |sol| vec![sol.max_wire_series()[steps]]);
    let mut gen = MonteCarloSampler::new(5);
    let result = run_monte_carlo(
        &mut gen,
        &dists,
        8,
        McOptions::default(),
        |_, deltas| -> Result<Vec<f64>, String> {
            session.reset();
            scenario
                .apply(&mut session, deltas)
                .and_then(|()| scenario.evaluate(&mut session))
                .map_err(|e| e.to_string())
        },
    )
    .unwrap();
    let stats = result.output(0);
    assert_eq!(stats.count(), 8);
    // Spread from the elongation uncertainty is nonzero but far below the
    // temperature rise itself.
    assert!(stats.sample_std() > 0.05, "sigma = {}", stats.sample_std());
    assert!(stats.sample_std() < 0.3 * (stats.mean() - 300.0));
    // Eq. (6): error = sigma/sqrt(M).
    let expect = stats.sample_std() / (8f64).sqrt();
    assert!((stats.mc_error() - expect).abs() < 1e-12);
}

#[test]
fn elongation_increases_resistance_decreases_power() {
    // Single deterministic check of the core MC mechanism: longer wires →
    // larger resistance → less dissipated power at fixed voltage.
    let geometry = PackageGeometry::paper();
    let mut built = build_model(&geometry, &coarse_options()).unwrap();

    built.apply_elongations(&[0.05; 12]).unwrap();
    let mut session = Session::new(built.compile(SolverOptions::fast()).unwrap());
    let sol_short = session.run_transient(10.0, 5, &[]).unwrap();
    let p_short: f64 = sol_short.wire_powers.iter().map(|w| *w.last().unwrap()).sum();

    built.apply_elongations(&[0.30; 12]).unwrap();
    let mut session = Session::new(built.compile(SolverOptions::fast()).unwrap());
    let sol_long = session.run_transient(10.0, 5, &[]).unwrap();
    let p_long: f64 = sol_long.wire_powers.iter().map(|w| *w.last().unwrap()).sum();

    assert!(
        p_short > p_long * 1.1,
        "short wires {p_short} W vs long wires {p_long} W"
    );
}

/// The Fig. 7 package on the 0.9/0.5 mm mesh (5,100 DoFs).
fn predictor_package() -> BuiltPackage {
    build_model(
        &PackageGeometry::paper(),
        &BuildOptions {
            target_spacing_xy: 0.9e-3,
            target_spacing_z: 0.5e-3,
            ..BuildOptions::paper_fig7()
        },
    )
    .unwrap()
}

#[test]
fn step_predictor_saves_picard_iterates() {
    // Ten 1 s steps of the Fig. 7 package on the 0.9/0.5 mm mesh (5,100
    // DoFs). Each continuation step starts its Picard loop from the step
    // predictor 2·Tₙ − Tₙ₋₁, so its first iterate already evaluates σ, λ
    // and the wire heat near the new time level. That takes 44 iterates
    // under both profiles and in a lock-step panel; starting every step
    // from Tₙ took 52.
    let built = predictor_package();
    let mut peaks = Vec::new();
    for (name, options) in [
        ("default", SolverOptions::default()),
        ("uq", SolverOptions::uq()),
    ] {
        let mut session = Session::new(built.compile(options).unwrap());
        let sol = session.run_transient(10.0, 10, &[]).unwrap();
        let picard: usize = sol.picard_iterations.iter().sum();
        assert!(
            picard <= 45,
            "{name}: {picard} Picard iterates over 10 steps"
        );
        let series = sol.max_wire_series();
        peaks.push(series.into_iter().fold(f64::NEG_INFINITY, f64::max));
    }
    // A panel of two samples under `uq()` steps in lock step. Its
    // step-increment transplant skips the loose early iterates, whose
    // solves would stop near the transplanted guess and keep its error.
    let panel = SolverOptions {
        batch_width: 2,
        ..SolverOptions::uq()
    };
    let compiled = Arc::new(built.compile(panel).unwrap());
    let scenario = built.elongation_scenario(10.0, 10, |sol| {
        vec![sol.picard_iterations.iter().sum::<usize>() as f64]
    });
    let samples = [vec![0.17; 12], vec![0.25; 12]];
    let options = EnsembleOptions {
        n_threads: 1,
        ..EnsembleOptions::default()
    };
    let r = run_ensemble_batched(&compiled, &scenario, &samples, &options).unwrap();
    for y in &r.outputs {
        assert!(y[0] <= 45.0, "panel: {} Picard iterates over 10 steps", y[0]);
    }
    // Inexact Picard (`uq`) agrees with the default profile within the
    // Picard tolerance, predictor or not.
    let tol = SolverOptions::default().picard_tol * peaks[0];
    assert!(
        (peaks[0] - peaks[1]).abs() <= tol,
        "peak wire temperature {} K (default) vs {} K (uq)",
        peaks[0],
        peaks[1]
    );
}

/// The hottest wire temperature of a transient (K).
fn peak_wire_temperature(sol: &TransientSolution) -> f64 {
    sol.max_wire_series()
        .into_iter()
        .fold(f64::NEG_INFINITY, f64::max)
}

#[test]
fn forcing_loosens_the_electrical_solves() {
    // Ten 1 s steps on the mesh of `step_predictor_saves_picard_iterates`.
    // Under `uq()`'s forcing, each Picard iterate solves its potential as
    // tightly as its temperature: the early iterates' potentials are
    // discarded with their temperatures, so their electrical CG stops at
    // the forcing tolerance instead of 1e-9. That saves more than half of
    // the electrical CG, on one session and in a lock-step panel, within
    // the Picard tolerance of the unforced answer.
    let built = predictor_package();
    // Electrical CG iterations and peak wire temperatures of one session
    // and of a panel of two samples.
    let run = |options: SolverOptions| {
        let mut session = Session::new(built.compile(options.clone()).unwrap());
        let sol = session.run_transient(10.0, 10, &[]).unwrap();
        let single = (
            session.counters().electrical_iterations,
            vec![peak_wire_temperature(&sol)],
        );
        let panel = SolverOptions {
            batch_width: 2,
            ..options
        };
        let compiled = Arc::new(built.compile(panel).unwrap());
        let scenario = built.elongation_scenario(10.0, 10, |sol| vec![peak_wire_temperature(sol)]);
        let samples = [vec![0.17; 12], vec![0.25; 12]];
        let ensemble = EnsembleOptions {
            n_threads: 1,
            ..EnsembleOptions::default()
        };
        let r = run_ensemble_batched(&compiled, &scenario, &samples, &ensemble).unwrap();
        let peaks = r.outputs.iter().map(|y| y[0]).collect();
        [
            ("session", single),
            ("panel", (r.counters.electrical_iterations, peaks)),
        ]
    };
    let unforced = SolverOptions {
        picard_forcing: false,
        ..SolverOptions::uq()
    };
    let picard_tol = SolverOptions::uq().picard_tol;
    for ((name, (forced_cg, forced)), (_, (tight_cg, tight))) in
        run(SolverOptions::uq()).into_iter().zip(run(unforced))
    {
        assert!(
            2 * forced_cg < tight_cg,
            "{name}: {forced_cg} electrical CG iterations forced, {tight_cg} unforced"
        );
        for (f, t) in forced.iter().zip(&tight) {
            assert!(
                (f - t).abs() <= picard_tol * t,
                "{name}: peak wire temperature {f} K forced vs {t} K unforced"
            );
        }
    }
}
