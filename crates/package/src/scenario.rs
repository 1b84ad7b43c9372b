//! UQ-campaign glue: the paper's elongation sampling as an ensemble
//! [`Scenario`].
//!
//! The Monte Carlo campaign of Fig. 7 perturbs exactly one thing per
//! sample: the 12 wire lengths `L_j = d_j / (1 − δ_j)`. Applying a sample
//! through a [`Session`] therefore touches only the 12 wire records (their
//! stamped conductance values and segment heat capacities) — no model
//! rebuild, no pattern re-recording, no new compiled model.

use crate::builder::BuiltPackage;
use etherm_core::{
    BatchScenario, CompiledModel, CoreError, Scenario, Session, SolverOptions, TransientSolution,
};

impl BuiltPackage {
    /// Compiles the package model for session reuse (see
    /// [`etherm_core::CompiledModel`]). The wires carry their nominal
    /// lengths; samples are applied per run via an [`ElongationScenario`]
    /// or [`Session::set_wire_length`].
    ///
    /// # Errors
    ///
    /// Propagates [`CompiledModel::compile`] failures.
    pub fn compile(&self, options: SolverOptions) -> Result<CompiledModel, CoreError> {
        CompiledModel::compile(self.model.clone(), options)
    }

    /// An ensemble scenario sampling this package's wire elongations: each
    /// sample is one relative elongation `δ_j` per wire, the run is the
    /// paper transient over `t_end` with `n_steps` implicit-Euler steps,
    /// and `qoi` extracts the per-sample outputs from the solution.
    pub fn elongation_scenario<F>(
        &self,
        t_end: f64,
        n_steps: usize,
        qoi: F,
    ) -> ElongationScenario<F>
    where
        F: Fn(&TransientSolution) -> Vec<f64> + Sync,
    {
        ElongationScenario {
            wire_indices: self.wire_indices.clone(),
            direct_distances: self.direct_distances.clone(),
            t_end,
            n_steps,
            qoi,
        }
    }
}

/// A [`Scenario`] over relative wire elongations: sample `j` sets wire `j`
/// to `L_j = d_j / (1 − δ_j)`, evaluation runs the transient and extracts
/// QoIs with the user closure.
#[derive(Debug, Clone)]
pub struct ElongationScenario<F>
where
    F: Fn(&TransientSolution) -> Vec<f64> + Sync,
{
    wire_indices: Vec<usize>,
    direct_distances: Vec<f64>,
    t_end: f64,
    n_steps: usize,
    qoi: F,
}

impl<F> ElongationScenario<F>
where
    F: Fn(&TransientSolution) -> Vec<f64> + Sync,
{
    /// A scenario over explicit wire indices and direct bond-to-bond
    /// distances (for custom models; packages use
    /// [`BuiltPackage::elongation_scenario`]).
    ///
    /// # Panics
    ///
    /// Panics if `wire_indices` and `direct_distances` differ in length.
    pub fn new(
        wire_indices: Vec<usize>,
        direct_distances: Vec<f64>,
        t_end: f64,
        n_steps: usize,
        qoi: F,
    ) -> Self {
        assert_eq!(
            wire_indices.len(),
            direct_distances.len(),
            "one direct distance per wire"
        );
        ElongationScenario {
            wire_indices,
            direct_distances,
            t_end,
            n_steps,
            qoi,
        }
    }
}

impl<F> Scenario for ElongationScenario<F>
where
    F: Fn(&TransientSolution) -> Vec<f64> + Sync,
{
    fn apply(&self, session: &mut Session, deltas: &[f64]) -> Result<(), CoreError> {
        assert_eq!(
            deltas.len(),
            self.wire_indices.len(),
            "one delta per wire required"
        );
        for (j, &delta) in deltas.iter().enumerate() {
            let length = crate::builder::elongation_length(self.direct_distances[j], delta)?;
            session.set_wire_length(self.wire_indices[j], length)?;
        }
        Ok(())
    }

    fn evaluate(&self, session: &mut Session) -> Result<Vec<f64>, CoreError> {
        let sol = session.run_transient(self.t_end, self.n_steps, &[])?;
        Ok((self.qoi)(&sol))
    }
}

impl<F> BatchScenario for ElongationScenario<F>
where
    F: Fn(&TransientSolution) -> Vec<f64> + Sync,
{
    fn t_end(&self) -> f64 {
        self.t_end
    }

    fn n_steps(&self) -> usize {
        self.n_steps
    }

    fn qoi(&self, solution: &TransientSolution) -> Vec<f64> {
        (self.qoi)(solution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_model, BuildOptions};
    use crate::geometry::PackageGeometry;
    use etherm_core::{run_ensemble, EnsembleOptions};
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
    fn scenario_matches_rebuild_per_sample_bitwise() {
        // The headline contract of the compile-once refactor: session reuse
        // (exact mode) reproduces a fresh compiled model and session per
        // sample bit for bit across an elongation sweep.
        let mut built = coarse_package();
        let samples: Vec<Vec<f64>> = [0.1, 0.17, 0.25, 0.12]
            .iter()
            .map(|&d| vec![d; 12])
            .collect();
        let opts = etherm_core::SolverOptions::fast();

        // Reference path: mutate the model, recompile it per sample.
        let mut rebuild_outputs = Vec::new();
        for deltas in &samples {
            built.apply_elongations(deltas).unwrap();
            let mut session = Session::new(built.compile(opts.clone()).unwrap());
            let sol = session.run_transient(5.0, 5, &[]).unwrap();
            let mut out = Vec::new();
            for j in 0..sol.n_wires() {
                out.extend_from_slice(sol.wire_series(j));
            }
            rebuild_outputs.push(out);
        }

        // New path: compile once, one exact-mode session.
        built.apply_elongations(&[0.17; 12]).unwrap();
        let compiled = Arc::new(built.compile(opts).unwrap());
        let scenario = built.elongation_scenario(5.0, 5, |sol| {
            let mut out = Vec::new();
            for j in 0..sol.n_wires() {
                out.extend_from_slice(sol.wire_series(j));
            }
            out
        });
        let result =
            run_ensemble(&compiled, &scenario, &samples, &EnsembleOptions::default()).unwrap();
        assert_eq!(result.outputs, rebuild_outputs);
    }

    #[test]
    fn scenario_rejects_invalid_elongation() {
        let built = coarse_package();
        let compiled = Arc::new(built.compile(etherm_core::SolverOptions::fast()).unwrap());
        let scenario = built.elongation_scenario(5.0, 5, |_| vec![0.0]);
        let mut session = Session::new(compiled);
        assert!(scenario.apply(&mut session, &[1.0; 12]).is_err());
        assert!(scenario.apply(&mut session, &[f64::NAN; 12]).is_err());
        assert!(scenario.apply(&mut session, &[0.2; 12]).is_ok());
    }
}
