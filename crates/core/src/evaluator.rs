//! The QoI-evaluation abstraction behind the surrogate fast path: batches of
//! physical-space parameter samples go in, QoI vectors come out, and the
//! caller neither knows nor cares whether each answer came from a full
//! transient solve or a microsecond surrogate prediction.
//!
//! * [`QoiEvaluator`] — the trait: batch evaluation plus bookkeeping of how
//!   many samples paid for a full solve vs. were served cheaply,
//! * [`FullSolve`] — the reference path: every sample fans out over
//!   [`run_ensemble`] worker sessions.
//!
//! `FullSolve` is also how the rare-event estimators reach the engine:
//! `etherm_reliability::QoiLimitState` over a `FullSolve` is their one
//! engine-backed limit state. The surrogate-serving implementation
//! (`SurrogateWithFallback`) lives in `etherm_reliability` too, next to the
//! training pipeline and the estimators that consume it.

use crate::compiled::CompiledModel;
use crate::ensemble::{run_ensemble, EnsembleOptions, Scenario};
use crate::error::CoreError;
use crate::session::SolveCounters;
use std::sync::Arc;

/// Evaluates QoI vectors for batches of *physical-space* parameter samples.
///
/// Contract:
///
/// * the output has one entry per input sample, in sample order;
/// * an **empty** QoI vector marks a quarantined sample (the evaluator could
///   not produce an answer under a tolerant failure policy) — non-empty
///   vectors all have the same length;
/// * evaluation is deterministic: the same batch yields bit-identical
///   outputs regardless of worker-thread count.
pub trait QoiEvaluator {
    /// Length of one parameter sample.
    fn dim(&self) -> usize;

    /// Evaluates one batch of samples.
    ///
    /// # Errors
    ///
    /// Propagates solver failures per the underlying failure policy.
    fn evaluate(&mut self, samples: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, CoreError>;

    /// Cumulative number of samples routed through the full transient
    /// solver.
    fn full_solves(&self) -> usize;

    /// Cumulative number of samples answered without a transient solve
    /// (0 for a pure full-solve evaluator).
    fn served(&self) -> usize;

    /// Merged linear-solver counters for all full solves so far.
    fn counters(&self) -> SolveCounters;
}

/// The reference [`QoiEvaluator`]: every sample is a full transient solve,
/// fanned out over [`run_ensemble`] worker sessions. It owns its compiled
/// model and scenario, so it can live as long as a serving tier; pass
/// `&scenario` to borrow one instead.
pub struct FullSolve<S: Scenario> {
    compiled: Arc<CompiledModel>,
    scenario: S,
    dim: usize,
    options: EnsembleOptions,
    counters: SolveCounters,
    evaluated: usize,
    quarantined: usize,
}

impl<S: Scenario> FullSolve<S> {
    /// Wraps a compiled model and scenario; `dim` is the per-sample
    /// parameter count and `options` controls the worker fan-out per batch.
    pub fn new(
        compiled: &Arc<CompiledModel>,
        scenario: S,
        dim: usize,
        options: EnsembleOptions,
    ) -> Self {
        FullSolve {
            compiled: Arc::clone(compiled),
            scenario,
            dim,
            options,
            counters: SolveCounters::default(),
            evaluated: 0,
            quarantined: 0,
        }
    }

    /// Samples quarantined (empty QoI vector) so far.
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// The ensemble options every batch runs with.
    pub fn options(&self) -> &EnsembleOptions {
        &self.options
    }

    /// The scenario every sample runs.
    pub fn scenario(&self) -> &S {
        &self.scenario
    }
}

impl<S: Scenario> QoiEvaluator for FullSolve<S> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn evaluate(&mut self, samples: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, CoreError> {
        if samples.is_empty() {
            return Ok(Vec::new());
        }
        let result = run_ensemble(&self.compiled, &self.scenario, samples, &self.options)?;
        self.counters.merge(&result.counters);
        self.evaluated += samples.len();
        self.quarantined += result.outputs.iter().filter(|o| o.is_empty()).count();
        Ok(result.outputs)
    }

    fn full_solves(&self) -> usize {
        self.evaluated
    }

    fn served(&self) -> usize {
        0
    }

    fn counters(&self) -> SolveCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ElectrothermalModel;
    use crate::options::SolverOptions;
    use crate::session::Session;
    use etherm_fit::boundary::ThermalBoundary;
    use etherm_grid::{Axis, CellPaint, Grid3, MaterialId};
    use etherm_materials::{library, MaterialTable};

    /// A driven epoxy block with one wire across it (same fixture as the
    /// ensemble tests).
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
            etherm_bondwire::BondWire::new("w", 1.5e-3, 25.4e-6, library::copper()).unwrap();
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

    struct LengthScenario;
    impl Scenario for LengthScenario {
        fn apply(&self, session: &mut Session, sample: &[f64]) -> Result<(), CoreError> {
            session.set_wire_length(0, sample[0])
        }
        fn evaluate(&self, session: &mut Session) -> Result<Vec<f64>, CoreError> {
            let sol = session.run_transient(2.0, 4, &[])?;
            Ok(vec![*sol.wire_series(0).last().unwrap()])
        }
    }

    #[test]
    fn full_solve_matches_direct_ensemble_and_tracks_counts() {
        let compiled =
            Arc::new(CompiledModel::compile(wire_model(), SolverOptions::fast()).unwrap());
        let samples: Vec<Vec<f64>> =
            (0..5).map(|i| vec![1.2e-3 + 1e-4 * i as f64]).collect();
        let options = EnsembleOptions::default();
        let direct =
            run_ensemble(&compiled, &LengthScenario, &samples, &options).expect("direct");

        let mut fs = FullSolve::new(&compiled, &LengthScenario, 1, options);
        assert_eq!(fs.evaluate(&[]).expect("empty batch"), Vec::<Vec<f64>>::new());
        let out = fs.evaluate(&samples).expect("full solve");
        assert_eq!(format!("{out:?}"), format!("{:?}", direct.outputs));
        assert_eq!(fs.dim(), 1);
        assert_eq!(fs.full_solves(), 5);
        assert_eq!(fs.served(), 0);
        assert_eq!(fs.quarantined(), 0);
        assert_eq!(fs.counters().thermal_solves, direct.counters.thermal_solves);
    }
}
