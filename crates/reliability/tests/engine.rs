//! End-to-end tests of the reliability engine over the real coupled
//! solver: thread-count bit-determinism, estimator cross-agreement, the
//! early-exit cost advantage, and the fusing-current search with its
//! analytic sanity bounds.

use etherm_bondwire::analytic::{
    allowable_current, onderdonk_fusing_current, preece_fusing_current,
};
use etherm_core::{
    run_ensemble, CompiledModel, CoreError, ElectrothermalModel, EnsembleOptions, FailurePolicy,
    FullSolve, QoiEvaluator, Scenario, Session, SolverOptions, ThresholdObserver,
};
use etherm_fit::boundary::ThermalBoundary;
use etherm_grid::{Axis, CellPaint, Grid3, MaterialId};
use etherm_materials::{library, MaterialTable};
use etherm_reliability::{
    find_critical_load, find_critical_load_sampled, FailureEstimator, FusingSearchOptions,
    MonteCarloEstimator, QoiLimitState, SubsetSimulation,
};
use etherm_uq::{Distribution, TruncatedNormal};
use std::sync::Arc;

const WIRE_DIAMETER: f64 = 25.4e-6;

/// A driven epoxy block with one bond wire; wire length is the uncertain
/// parameter. The drive is a fixed voltage across the wire's attachment
/// nodes, so a *shorter* wire (lower resistance, `P = V²/R`) runs hotter —
/// the failure tail sits at short lengths.
fn wire_model() -> ElectrothermalModel {
    let grid = Grid3::new(
        Axis::uniform(0.0, 2e-3, 4).unwrap(),
        Axis::uniform(0.0, 1e-3, 2).unwrap(),
        Axis::uniform(0.0, 0.5e-3, 1).unwrap(),
    );
    let paint = CellPaint::new(&grid, MaterialId(0));
    let mut materials = MaterialTable::new();
    materials.add(library::epoxy_resin());
    let mut model = ElectrothermalModel::new(grid, paint, materials).unwrap();
    let wire =
        etherm_bondwire::BondWire::new("w", 1.5e-3, WIRE_DIAMETER, library::copper()).unwrap();
    model
        .add_wire(wire, (0.0, 0.5e-3, 0.5e-3), (2e-3, 0.5e-3, 0.5e-3))
        .unwrap();
    let a = model.wires()[0].node_a;
    let b = model.wires()[0].node_b;
    model.set_electric_potential(&[a], 0.02);
    model.set_electric_potential(&[b], -0.02);
    model.set_thermal_boundary(ThermalBoundary::convective(25.0, 300.0));
    model
}

fn compiled() -> Arc<CompiledModel> {
    Arc::new(CompiledModel::compile(wire_model(), SolverOptions::default()).unwrap())
}

/// Scenario: sample = [wire length (m)]; QoI 0 = early-exited peak
/// `max_t T_bw` against `threshold`.
struct LengthScenario {
    t_end: f64,
    n_steps: usize,
    threshold: f64,
}

impl Scenario for LengthScenario {
    fn apply(&self, session: &mut Session, sample: &[f64]) -> Result<(), CoreError> {
        session.set_wire_length(0, sample[0])
    }
    fn evaluate(&self, session: &mut Session) -> Result<Vec<f64>, CoreError> {
        let mut observer = ThresholdObserver::new(self.threshold);
        let observed =
            session.run_transient_observed(self.t_end, self.n_steps, &[], &mut observer)?;
        Ok(vec![
            observer.peak(),
            (observed.steps_executed + observed.bisection_steps) as f64,
        ])
    }
}

fn length_marginal() -> TruncatedNormal {
    // ~N(1.5 mm, 0.06 mm) truncated well inside the block span.
    TruncatedNormal::new(1.5e-3, 0.06e-3, 1.2e-3, 1.9e-3).unwrap()
}

/// A threshold in the upper response tail of the length scatter, giving a
/// moderate failure probability the 400-sample MC reference can still see.
fn scenario(threshold: f64) -> LengthScenario {
    LengthScenario {
        t_end: 2.0,
        n_steps: 4,
        threshold,
    }
}

#[test]
fn subset_estimate_is_bit_deterministic_for_any_thread_count() {
    let compiled = compiled();
    let threshold = find_tail_threshold(&compiled);
    let scn = scenario(threshold);
    let estimate = |n_threads: usize| {
        let options = EnsembleOptions {
            n_threads,
            ..EnsembleOptions::default()
        };
        let mut ls = QoiLimitState::new(
            FullSolve::new(&compiled, &scn, 1, options),
            vec![Box::new(length_marginal()) as Box<dyn Distribution>],
            threshold,
        );
        SubsetSimulation::new(64, 2016).estimate(&mut ls).unwrap()
    };
    let serial = estimate(1);
    assert!(serial.probability > 0.0 && serial.probability < 1.0);
    assert!(serial.levels.len() >= 2, "calibration should need a ladder");
    for n_threads in [2, 3] {
        let par = estimate(n_threads);
        // Debug formatting is value-exact for f64 (shortest roundtrip) and
        // NaN-tolerant, unlike PartialEq on NaN diagnostics fields.
        assert_eq!(
            format!("{par:?}"),
            format!("{serial:?}"),
            "subset estimate must be bit-identical at {n_threads} threads"
        );
    }
}

/// A length scenario whose samples below `cutoff` fail outright — the
/// stand-in for a solver breakdown the recovery ladder cannot absorb.
struct BrittleLengthScenario {
    inner: LengthScenario,
    cutoff: f64,
}

impl Scenario for BrittleLengthScenario {
    fn apply(&self, session: &mut Session, sample: &[f64]) -> Result<(), CoreError> {
        if sample[0] < self.cutoff {
            return Err(CoreError::InvalidModel("injected sample failure".into()));
        }
        self.inner.apply(session, sample)
    }
    fn evaluate(&self, session: &mut Session) -> Result<Vec<f64>, CoreError> {
        self.inner.evaluate(session)
    }
}

#[test]
fn quarantined_samples_surface_through_the_estimate() {
    let compiled = compiled();
    let threshold = find_tail_threshold(&compiled);
    let marginal = length_marginal();
    // Fail everything below the ~10th percentile length: the campaign keeps
    // going under quarantine and the estimate must carry the count.
    let scn = BrittleLengthScenario {
        inner: scenario(threshold),
        cutoff: marginal.quantile(0.10),
    };
    let estimate = |n_threads: usize| {
        let options = EnsembleOptions {
            n_threads,
            failure_policy: FailurePolicy::Quarantine { max_failures: 200 },
            ..EnsembleOptions::default()
        };
        let mut ls = QoiLimitState::new(
            FullSolve::new(&compiled, &scn, 1, options),
            vec![Box::new(length_marginal()) as Box<dyn Distribution>],
            threshold,
        );
        let est = MonteCarloEstimator::new(200, 7).estimate(&mut ls).unwrap();
        assert_eq!(ls.quarantined(), est.quarantined);
        assert_eq!(ls.evaluator().quarantined(), est.quarantined);
        est
    };
    let serial = estimate(1);
    assert!(
        serial.quarantined > 0 && serial.quarantined < 200,
        "cutoff at the 10th percentile must quarantine some but not all of \
         200 samples, got {}",
        serial.quarantined
    );
    assert_eq!(serial.levels[0].quarantined, serial.quarantined);
    assert!(serial.probability.is_finite());
    // Quarantine never cancels within tolerance, so the outcome is
    // thread-count independent.
    let par = estimate(3);
    assert_eq!(format!("{par:?}"), format!("{serial:?}"));
}

/// Calibrates a threshold with P(Y ≥ threshold) in a convenient band by
/// probing the response at a high quantile of the length scatter.
fn find_tail_threshold(compiled: &Arc<CompiledModel>) -> f64 {
    let marginal = length_marginal();
    // Response at the ~5th percentile length (short = hot) → p ≈ 5 %.
    let short = marginal.quantile(0.05);
    let scn = scenario(f64::INFINITY);
    let r = run_ensemble(
        compiled,
        &scn,
        &[vec![short]],
        &EnsembleOptions::default(),
    )
    .unwrap();
    r.outputs[0][0]
}

#[test]
fn subset_agrees_with_monte_carlo_and_exits_early() {
    let compiled = compiled();
    let threshold = find_tail_threshold(&compiled);
    let scn = scenario(threshold);
    let marginals = || vec![Box::new(length_marginal()) as Box<dyn Distribution>];

    let full_solve = || FullSolve::new(&compiled, &scn, 1, EnsembleOptions::default());
    let mut mc_state = QoiLimitState::new(full_solve(), marginals(), threshold);
    let mc = MonteCarloEstimator::new(400, 7).estimate(&mut mc_state).unwrap();
    assert!(mc.probability > 0.0, "threshold calibration failed");

    let mut ss_state = QoiLimitState::new(full_solve(), marginals(), threshold);
    let ss = SubsetSimulation::new(80, 2016).estimate(&mut ss_state).unwrap();
    assert!(
        ss.agrees_with(&mc, 3.0),
        "subset {} (cov {}) vs MC {} (cov {})",
        ss.probability,
        ss.cov,
        mc.probability,
        mc.cov
    );
    // The engine actually went through the ensemble machinery: every
    // evaluation was one full transient. (The early-exit solve-count
    // advantage is gated at paper step counts in `bench_failure` — at 4
    // steps the crossing bisection overhead dominates what an early exit
    // saves.)
    assert_eq!(ss_state.evaluator().full_solves(), ss.n_evaluations);
    assert!(ss_state.evaluator().counters().thermal_solves > 0);
}

#[test]
fn fusing_current_search_brackets_and_cross_checks_with_analytic_rules() {
    let compiled = compiled();
    let mut session = Session::new(Arc::clone(&compiled));
    let options = FusingSearchOptions {
        t_end: 2.0,
        n_steps: 4,
        threshold: 360.0,
        scale_lo: 0.25,
        scale_hi: 16.0,
        tol_rel: 2e-2,
        max_iter: 30,
    };
    let critical = find_critical_load(&mut session, &options).unwrap();
    assert!(
        critical.scale > options.scale_lo && critical.scale < options.scale_hi,
        "critical scale {} not interior to the bracket",
        critical.scale
    );
    assert!(critical.bracket.1 - critical.bracket.0 <= options.tol_rel * critical.bracket.1);
    assert!(critical.runs >= 4);
    assert!(critical.early_exits > 0, "failing probes must early-exit");
    assert!(critical.failing_crossing_time.is_some());
    // The session is left at the safe scale.
    assert_eq!(session.drive_scale(), critical.scale);

    // Verify the bracket physically: safe at the returned scale, failing
    // just above the failing end.
    let peak_at = |session: &mut Session, scale: f64| -> f64 {
        session.set_drive_scale(scale).unwrap();
        session.reset();
        let sol = session.run_transient(2.0, 4, &[]).unwrap();
        sol.max_wire_series()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    };
    assert!(peak_at(&mut session, critical.scale) < 360.0);
    assert!(peak_at(&mut session, critical.bracket.1 * 1.05) >= 360.0);

    // Cross-check against `etherm_bondwire::analytic`. (1) The adiabatic
    // Onderdonk melt current over the transient horizon is a hard upper
    // bound: degradation at 360 K must trip long before copper melt.
    // (2) The steady 1-D fin model with ambient pads and an insulated
    // mantle is the textbook analogue of this epoxy-embedded wire; the
    // field-coupled search must land in its neighborhood (the field model
    // runs hotter because its attachment nodes heat up, so its limit is
    // lower — but the same order of magnitude).
    session.set_drive_scale(critical.scale).unwrap();
    session.reset();
    let sol = session.run_transient(2.0, 4, &[]).unwrap();
    let p_wire = *sol.wire_powers[0].last().unwrap();
    let t_wire = *sol.wire_series(0).last().unwrap();
    let wire = &compiled.model().wires()[0].wire;
    let r_wire = wire.resistance(t_wire);
    let i_critical = (p_wire / r_wire).sqrt();
    let area = std::f64::consts::PI / 4.0 * WIRE_DIAMETER * WIRE_DIAMETER;
    let i_onderdonk = onderdonk_fusing_current(area, 2.0, 300.0);
    assert!(
        i_critical > 0.0 && i_critical < i_onderdonk,
        "degradation current {i_critical} A must undercut Onderdonk melt {i_onderdonk} A"
    );
    let i_fin = allowable_current(wire, 300.0, 300.0, 0.0, 360.0, 5.0);
    assert!(
        i_critical > i_fin / 3.0 && i_critical < i_fin * 3.0,
        "field-coupled limit {i_critical} A should be the fin model's order ({i_fin} A)"
    );
    assert!(
        i_critical < i_fin,
        "coupled package (heated pads) must allow less than ambient-pad fin: \
         {i_critical} vs {i_fin}"
    );
    // Preece's steady free-air rule is a diameter-only rule of thumb; just
    // pin its magnitude so the cross-check stays anchored.
    let i_preece = preece_fusing_current(WIRE_DIAMETER);
    assert!(i_preece > 0.2 && i_preece < 0.5);
}

#[test]
fn sampled_fusing_search_tracks_the_threshold_distribution() {
    let compiled = compiled();
    let mut session = Session::new(Arc::clone(&compiled));
    let options = FusingSearchOptions {
        t_end: 2.0,
        n_steps: 4,
        threshold: f64::NAN, // overridden per sample — must never be read
        scale_lo: 0.25,
        scale_hi: 16.0,
        tol_rel: 2e-2,
        max_iter: 30,
    };
    // Mold degradation threshold scattered around 360 K.
    let t_crit = TruncatedNormal::new(360.0, 8.0, 340.0, 380.0).unwrap();
    let probes = [0.1, 0.5, 0.9];
    let sampled =
        find_critical_load_sampled(&mut session, &options, &t_crit, &probes).unwrap();
    assert_eq!(sampled.len(), 3);
    // Realized thresholds are the distribution's quantiles, in probe order.
    for (s, &u) in sampled.iter().zip(&probes) {
        assert_eq!(s.threshold, t_crit.quantile(u));
        assert!(
            s.load.scale > options.scale_lo && s.load.scale < options.scale_hi,
            "critical scale {} not interior to the bracket",
            s.load.scale
        );
    }
    // A hotter allowed threshold can only raise the surviving load: the
    // safe scales must be monotone along the sorted probe points.
    assert!(sampled[0].load.scale <= sampled[1].load.scale);
    assert!(sampled[1].load.scale <= sampled[2].load.scale);
    assert!(sampled[0].load.scale < sampled[2].load.scale);

    // The median probe reproduces the fixed-threshold search bitwise on a
    // fresh session (the sweep itself shares one session without a reset,
    // whose cached preconditioners only shape iteration counts, not the
    // bisection decisions).
    let mut fresh = Session::new(Arc::clone(&compiled));
    let fixed = find_critical_load(
        &mut fresh,
        &FusingSearchOptions {
            threshold: t_crit.quantile(0.5),
            ..options.clone()
        },
    )
    .unwrap();
    assert_eq!(sampled[1].load.scale, fixed.scale);
    assert_eq!(sampled[1].load.bracket, fixed.bracket);

    // Probe points outside (0, 1) are rejected.
    assert!(find_critical_load_sampled(&mut session, &options, &t_crit, &[0.0]).is_err());
    assert!(find_critical_load_sampled(&mut session, &options, &t_crit, &[1.0]).is_err());
}

#[test]
fn fusing_search_saturates_and_rejects_bad_brackets() {
    let compiled = compiled();
    let mut session = Session::new(Arc::clone(&compiled));
    let base = FusingSearchOptions {
        t_end: 2.0,
        n_steps: 4,
        threshold: 360.0,
        scale_lo: 0.1,
        scale_hi: 0.2,
        tol_rel: 1e-2,
        max_iter: 20,
    };
    // Entire bracket safe.
    let safe = find_critical_load(&mut session, &base).unwrap();
    assert_eq!(safe.scale, 0.2);
    assert_eq!(safe.bracket, (0.2, 0.2));
    // Entire bracket failing.
    let all_fail = FusingSearchOptions {
        scale_lo: 20.0,
        scale_hi: 40.0,
        ..base.clone()
    };
    let failing = find_critical_load(&mut session, &all_fail).unwrap();
    assert_eq!(failing.scale, 0.0);
    assert!(failing.failing_crossing_time.is_some());
    // Bad options.
    let bad = FusingSearchOptions {
        scale_hi: 0.05,
        ..base
    };
    assert!(find_critical_load(&mut session, &bad).is_err());
}

/// The doublings stop at the first failing probe, so a high end far past
/// the critical scale is never probed: the search makes the same probes
/// and returns the same bits for `scale_hi` 16 and 1024. A second search on
/// the same session, without a reset, starts from the first search's
/// cached preconditioners: they change iteration counts, never a probe's
/// verdict, so it makes the same probes as a fresh session.
#[test]
fn fusing_search_ignores_a_distant_high_end() {
    let compiled = compiled();
    let search = |session: &mut Session, scale_hi: f64| {
        let options = FusingSearchOptions {
            t_end: 2.0,
            n_steps: 4,
            threshold: 360.0,
            scale_lo: 0.25,
            scale_hi,
            tol_rel: 2e-2,
            max_iter: 30,
        };
        find_critical_load(session, &options).unwrap()
    };
    let near = search(&mut Session::new(Arc::clone(&compiled)), 16.0);
    let far = search(&mut Session::new(Arc::clone(&compiled)), 1024.0);
    let mut reused = Session::new(Arc::clone(&compiled));
    let _ = search(&mut reused, 16.0);
    let again = search(&mut reused, 16.0);
    for other in [&far, &again] {
        assert_eq!(near.runs, other.runs);
        assert_eq!(near.early_exits, other.early_exits);
        assert_eq!(near.scale.to_bits(), other.scale.to_bits());
        assert_eq!(near.bracket.0.to_bits(), other.bracket.0.to_bits());
        assert_eq!(near.bracket.1.to_bits(), other.bracket.1.to_bits());
    }
    assert_eq!(
        near.failing_crossing_time.map(f64::to_bits),
        far.failing_crossing_time.map(f64::to_bits)
    );
    assert!(near.scale > 0.25 && near.bracket.1 < 16.0, "{near:?}");
}
