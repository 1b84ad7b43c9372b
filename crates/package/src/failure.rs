//! Reliability glue: the package limit state as an ensemble scenario.
//!
//! The paper's reliability question — does `maxⱼ T_bw,j(t)` reach the mold
//! degradation threshold `T_critical = 523 K` under uncertain wire
//! elongations? — becomes a [`Scenario`] whose per-sample evaluation runs
//! the transient through [`Session::run_transient_observed`] with a
//! [`ThresholdObserver`]: a failing sample terminates (and bisects its
//! crossing) the moment the limit state is decided, so the rare-event
//! engine pays a fraction of a full transient for it.
//!
//! A sample binds the 12 relative elongations `δⱼ` and, optionally, a
//! drive (current) scale as a trailing 13th entry — the load parameter of
//! the fusing-current search; without it the paper drive runs unscaled.
//!
//! The rare-event estimators of `etherm_reliability` evaluate it through
//! `QoiLimitState` over an `etherm_core::FullSolve`, which reads
//! [`FailureScenario::QOI_PEAK`] as the limit-state response.

use crate::builder::{elongation_length, BuiltPackage};
use etherm_core::{CoreError, Scenario, Session, ThresholdObserver};

/// A [`Scenario`] over wire elongations (+ optional drive scale) whose QoI
/// vector is the limit-state response:
///
/// | index | content |
/// |-------|---------|
/// | [`FailureScenario::QOI_PEAK`] | response `Y = max_t maxⱼ T_bw,j` (K); for an early-exited run the peak up to the crossing step, which is ≥ the threshold — exactly the information the indicator `Y ≥ b` needs for any `b ≤` threshold |
/// | [`FailureScenario::QOI_CROSSING`] | bisected first-crossing time (s), `NaN` when the run never crossed |
/// | [`FailureScenario::QOI_SOLVES`] | implicit-Euler solves spent (accepted steps + bisection sub-steps) |
///
/// The crossing is refined with [`ThresholdObserver::new`]'s default 4
/// bisection sub-steps.
#[derive(Debug, Clone)]
pub struct FailureScenario {
    wire_indices: Vec<usize>,
    direct_distances: Vec<f64>,
    t_end: f64,
    n_steps: usize,
    threshold: f64,
}

impl BuiltPackage {
    /// Limit-state scenario for this package: the paper transient over
    /// `t_end` with `n_steps` implicit-Euler steps, early-exited at
    /// `threshold` (K). Samples are one relative elongation `δⱼ` per wire,
    /// optionally followed by a drive-scale multiplier.
    pub fn failure_scenario(&self, t_end: f64, n_steps: usize, threshold: f64) -> FailureScenario {
        FailureScenario {
            wire_indices: self.wire_indices.clone(),
            direct_distances: self.direct_distances.clone(),
            t_end,
            n_steps,
            threshold,
        }
    }
}

impl FailureScenario {
    /// QoI index of the response `Y = max_t maxⱼ T_bw,j`.
    pub const QOI_PEAK: usize = 0;
    /// QoI index of the bisected crossing time (`NaN` = never crossed).
    pub const QOI_CROSSING: usize = 1;
    /// QoI index of the solve count (accepted + bisection sub-steps).
    pub const QOI_SOLVES: usize = 2;

    /// The failure threshold (K).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of wires (= elongation entries per sample).
    pub fn n_wires(&self) -> usize {
        self.wire_indices.len()
    }
}

impl Scenario for FailureScenario {
    fn apply(&self, session: &mut Session, sample: &[f64]) -> Result<(), CoreError> {
        let n = self.wire_indices.len();
        assert!(
            sample.len() == n || sample.len() == n + 1,
            "FailureScenario: sample must hold {n} elongations (+ optional drive scale), got {}",
            sample.len()
        );
        for (j, &delta) in sample[..n].iter().enumerate() {
            let length = elongation_length(self.direct_distances[j], delta)?;
            session.set_wire_length(self.wire_indices[j], length)?;
        }
        session.set_drive_scale(sample.get(n).copied().unwrap_or(1.0))
    }

    fn evaluate(&self, session: &mut Session) -> Result<Vec<f64>, CoreError> {
        let mut observer = ThresholdObserver::new(self.threshold);
        let observed =
            session.run_transient_observed(self.t_end, self.n_steps, &[], &mut observer)?;
        Ok(vec![
            observer.peak(),
            observed.crossing_time.unwrap_or(f64::NAN),
            (observed.steps_executed + observed.bisection_steps) as f64,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_model, BuildOptions};
    use crate::geometry::PackageGeometry;
    use etherm_core::{run_ensemble, EnsembleOptions, SolverOptions};
    use std::sync::Arc;

    fn coarse_package() -> BuiltPackage {
        let opts = BuildOptions {
            target_spacing_xy: 0.9e-3,
            target_spacing_z: 0.5e-3,
            ..BuildOptions::paper_fig7()
        };
        build_model(&PackageGeometry::paper(), &opts).unwrap()
    }

    #[test]
    fn failed_samples_exit_early_and_report_crossings() {
        let built = coarse_package();
        let compiled = Arc::new(built.compile(SolverOptions::fast()).unwrap());
        let n_steps = 20;
        // A threshold low enough that the nominal package crosses it during
        // the heating ramp; a safe sample gets one far above.
        let scenario = built.failure_scenario(20.0, n_steps, 340.0);
        let samples = vec![vec![0.17; 12]];
        let r = run_ensemble(&compiled, &scenario, &samples, &EnsembleOptions::default())
            .unwrap();
        let out = &r.outputs[0];
        assert!(out[FailureScenario::QOI_PEAK] >= 340.0);
        let crossing = out[FailureScenario::QOI_CROSSING];
        assert!(crossing.is_finite() && crossing > 0.0 && crossing < 20.0);
        assert!(
            out[FailureScenario::QOI_SOLVES] < n_steps as f64,
            "early exit must beat the full step count, spent {}",
            out[FailureScenario::QOI_SOLVES]
        );

        // Far threshold: full run, no crossing, exact response.
        let safe = built.failure_scenario(20.0, n_steps, 1000.0);
        let r = run_ensemble(&compiled, &safe, &samples, &EnsembleOptions::default()).unwrap();
        let out = &r.outputs[0];
        assert!(out[FailureScenario::QOI_PEAK] < 1000.0);
        assert!(out[FailureScenario::QOI_CROSSING].is_nan());
        assert_eq!(out[FailureScenario::QOI_SOLVES], n_steps as f64);
    }

    #[test]
    fn trailing_sample_entry_scales_the_drive() {
        let built = coarse_package();
        let compiled = Arc::new(built.compile(SolverOptions::fast()).unwrap());
        let scenario = built.failure_scenario(10.0, 10, 1e6); // never exits
        // Same elongations, drive scale 1 vs 1.5: the scaled sample must
        // run hotter.
        let mut base = vec![0.17; 12];
        let mut hot = base.clone();
        base.push(1.0);
        hot.push(1.5);
        let r = run_ensemble(
            &compiled,
            &scenario,
            &[base, hot],
            &EnsembleOptions::default(),
        )
        .unwrap();
        let y0 = r.outputs[0][FailureScenario::QOI_PEAK];
        let y1 = r.outputs[1][FailureScenario::QOI_PEAK];
        assert!(y1 > y0 + 1.0, "drive scale had no effect: {y0} vs {y1}");
        assert_eq!(scenario.n_wires(), 12);
        assert_eq!(scenario.threshold(), 1e6);
    }

    #[test]
    fn invalid_elongation_or_scale_rejected() {
        let built = coarse_package();
        let compiled = Arc::new(built.compile(SolverOptions::fast()).unwrap());
        let scenario = built.failure_scenario(10.0, 10, 523.0);
        let mut session = Session::new(compiled);
        assert!(scenario.apply(&mut session, &[1.0; 12]).is_err());
        let mut bad_scale = vec![0.17; 12];
        bad_scale.push(f64::NAN);
        assert!(scenario.apply(&mut session, &bad_scale).is_err());
        assert!(scenario.apply(&mut session, &[0.17; 12]).is_ok());
    }
}
