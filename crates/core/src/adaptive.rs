//! Adaptive implicit-Euler time stepping (step doubling).
//!
//! The paper integrates with a fixed `Δt = 1 s`; its discussion of
//! multirate effects (§I) motivates a controller that resolves the fast
//! initial heating with small steps and strides through the near-stationary
//! tail. The classic step-doubling estimator compares one `Δt` step against
//! two `Δt/2` steps; for the O(Δt) implicit Euler method the difference is
//! a consistent local-error estimate and the halved-step result is kept
//! (local extrapolation).

use crate::error::CoreError;
use crate::session::Session;
use crate::solution::TransientSolution;
use etherm_numerics::vector;
use std::sync::Arc;

/// Controls for [`Session::run_transient_adaptive`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOptions {
    /// Target local error per step, in Kelvin (∞-norm over all DoFs).
    pub tol: f64,
    /// Initial step size (s).
    pub dt_init: f64,
    /// Smallest allowed step (s). A step of this size is accepted whatever
    /// its error estimate.
    pub dt_min: f64,
    /// Largest allowed step (s).
    pub dt_max: f64,
    /// Safety factor of the controller (< 1).
    pub safety: f64,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            tol: 0.05,
            dt_init: 0.25,
            dt_min: 1e-4,
            dt_max: 10.0,
            safety: 0.8,
        }
    }
}

impl Session {
    /// Runs the transient over `[0, t_end]` with adaptive step sizes.
    ///
    /// Each accepted step records one entry in the returned solution (the
    /// `times` vector is therefore non-uniform). Snapshot requests are not
    /// supported here — use the fixed-step [`Session::run_transient`] for
    /// field dumps at exact times.
    ///
    /// Living on the session, the controller is available to ensemble and
    /// reliability workers that hold long-lived sessions.
    ///
    /// The controller clamps every proposed step to `[dt_min, dt_max]` and
    /// accepts a step of `dt_min` whatever its error estimate, so a problem
    /// that needs smaller steps runs at `dt_min` with local errors above
    /// `tol` rather than failing.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidModel`] if the options are inconsistent;
    /// solver failures propagate.
    pub fn run_transient_adaptive(
        &mut self,
        t_end: f64,
        options: &AdaptiveOptions,
    ) -> Result<TransientSolution, CoreError> {
        // All comparisons are false for NaN inputs, so NaN anywhere fails
        // validation.
        let valid = t_end > 0.0
            && options.tol > 0.0
            && options.dt_init > 0.0
            && options.dt_min > 0.0
            && options.dt_max >= options.dt_min
            && options.safety > 0.0
            && options.safety < 1.0;
        if !valid {
            return Err(CoreError::InvalidModel(
                "inconsistent adaptive time-stepping options".into(),
            ));
        }
        // Same run-start invalidation as the fixed-step path: without it, a
        // reused session whose previous run ended on `dt_init`-sized steps
        // would start its first Picard iterate from a step predictor
        // extrapolated across runs.
        self.begin_transient_run();
        let compiled = Arc::clone(self.compiled());
        let layout = compiled.layout();
        let mut state = self.initial_temperature();
        let mut phi = vec![0.0; layout.n_total()];
        let mut solution = TransientSolution::with_capacity(layout.n_wires(), 0);
        solution.record(layout, 0.0, &state, &[], 0.0);

        let mut t = 0.0;
        let mut dt = options.dt_init.min(options.dt_max).min(t_end);
        let mut step_index = 0usize;
        while t < t_end - 1e-12 * t_end {
            dt = dt.min(t_end - t);
            step_index += 1;
            // One full step vs two half steps.
            let mut phi_full = phi.clone();
            let full = self.step(&state, dt, &mut phi_full, step_index)?;
            let mut phi_half = phi.clone();
            let h1 = self.step(&state, 0.5 * dt, &mut phi_half, step_index)?;
            let h2 = self.step(&h1.temperature, 0.5 * dt, &mut phi_half, step_index)?;
            let err = vector::max_abs_diff(&full.temperature, &h2.temperature);
            let linear = full.linear_iterations + h1.linear_iterations + h2.linear_iterations;
            solution.linear_iterations += linear;

            if err <= options.tol || dt <= options.dt_min * (1.0 + 1e-12) {
                // Accept (keep the more accurate halved-step result).
                t += dt;
                state = h2.temperature;
                phi = phi_half;
                solution.record(layout, t, &state, &h2.wire_powers, h2.field_power);
                solution
                    .picard_iterations
                    .push(full.picard_iterations + h1.picard_iterations + h2.picard_iterations);
            }
            // Controller (order-1 method → local error ~ dt²).
            let factor = if err > 0.0 {
                (options.safety * (options.tol / err).sqrt()).clamp(0.3, 2.0)
            } else {
                2.0
            };
            dt = (dt * factor).clamp(options.dt_min, options.dt_max);
        }
        Ok(solution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledModel;
    use crate::model::ElectrothermalModel;
    use crate::options::SolverOptions;
    use etherm_fit::boundary::ThermalBoundary;
    use etherm_grid::{Axis, CellPaint, Grid3, MaterialId};
    use etherm_materials::{Material, MaterialTable, TemperatureModel};

    fn session(model: ElectrothermalModel) -> Session {
        Session::new(CompiledModel::compile(model, SolverOptions::default()).unwrap())
    }

    fn cooling_block() -> ElectrothermalModel {
        let grid = Grid3::new(
            Axis::uniform(0.0, 1e-3, 3).unwrap(),
            Axis::uniform(0.0, 1e-3, 3).unwrap(),
            Axis::uniform(0.0, 1e-3, 2).unwrap(),
        );
        let paint = CellPaint::new(&grid, MaterialId(0));
        let mut materials = MaterialTable::new();
        materials.add(Material::new(
            "m",
            TemperatureModel::Constant(1.0),
            TemperatureModel::Constant(200.0),
            2e6,
        ));
        let mut model = ElectrothermalModel::new(grid, paint, materials).unwrap();
        model.set_ambient(360.0);
        model.set_thermal_boundary(ThermalBoundary::convective(500.0, 300.0));
        model
    }

    /// A driven epoxy block with one copper wire across it.
    fn driven_wire_block() -> ElectrothermalModel {
        use etherm_materials::library;
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
        let (a, b) = (model.wires()[0].node_a, model.wires()[0].node_b);
        model.set_electric_potential(&[a], 0.02);
        model.set_electric_potential(&[b], -0.02);
        model.set_thermal_boundary(ThermalBoundary::convective(25.0, 300.0));
        model
    }

    #[test]
    fn adaptive_matches_fine_fixed_step() {
        let mut s = session(driven_wire_block());
        let tol = 0.02;
        let adaptive = s
            .run_transient_adaptive(
                5.0,
                &AdaptiveOptions {
                    tol,
                    dt_init: 0.05,
                    ..Default::default()
                },
            )
            .unwrap();
        let fixed = s.run_transient(5.0, 500, &[]).unwrap();
        assert!((adaptive.times.last().unwrap() - 5.0).abs() < 1e-9);
        // Each accepted step commits a local error of at most `tol` (the
        // step-doubling estimate of the full step, larger than the error of
        // the kept half steps), so the global error is at most `tol` per
        // accepted step. The 500-step reference is much closer to the
        // exact solution than that bound.
        let n_accepted = adaptive.times.len() - 1;
        let bound = tol * n_accepted as f64;
        let a_end = *adaptive.wire_series(0).last().unwrap();
        let f_end = *fixed.wire_series(0).last().unwrap();
        let heating = f_end - fixed.wire_series(0)[0];
        assert!(heating > 10.0 * bound, "wire heats by only {heating} K");
        assert!(
            (a_end - f_end).abs() <= bound,
            "adaptive {a_end} K vs fixed {f_end} K, bound {bound} K over {n_accepted} steps"
        );
        // Step sizes grow as the dynamics die down.
        let dts: Vec<f64> = adaptive.times.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(dts.last().unwrap() > dts.first().unwrap(), "{dts:?}");
    }

    #[test]
    fn steps_at_dt_min_are_accepted_whatever_the_error() {
        let mut s = session(cooling_block());
        let sol = s
            .run_transient_adaptive(
                2.0,
                &AdaptiveOptions {
                    tol: 1e-12,
                    dt_init: 0.5,
                    dt_min: 0.5,
                    dt_max: 0.5,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(sol.times, vec![0.0, 0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn adaptive_needs_fewer_steps_than_equivalent_fixed() {
        let mut s = session(cooling_block());
        let adaptive = s
            .run_transient_adaptive(
                10.0,
                &AdaptiveOptions {
                    tol: 0.05,
                    dt_init: 0.02,
                    ..Default::default()
                },
            )
            .unwrap();
        // Exponential decay: the controller must stretch the steps by at
        // least 5× over the run.
        let dts: Vec<f64> = adaptive.times.windows(2).map(|w| w[1] - w[0]).collect();
        let ratio = dts.last().unwrap() / dts.first().unwrap();
        assert!(ratio > 5.0, "step growth only {ratio}");
    }

    #[test]
    fn reused_session_is_bit_identical_to_fresh_session() {
        // Regression: the adaptive path must invalidate the cross-run
        // extrapolation history like the fixed-step path does. Trigger: a
        // fixed-step run leaves (t_hist, last_dt = 0.5) behind; an adaptive
        // run starting with dt_init = 0.5 on the same session would
        // otherwise start its first Picard iterate from a predictor
        // extrapolated from the previous run's final step.
        // A driven block with one wire, so the run has a temperature
        // observable that is sensitive to the CG initial guess at the
        // solver-tolerance level.
        let model = driven_wire_block();
        // No preconditioner: the only cross-run session state that can
        // influence results is the extrapolation history this test targets
        // (a cached preconditioner legitimately persists across runs and
        // moves results at tolerance level; `reset()` is the documented way
        // to drop it).
        let solver = SolverOptions {
            preconditioner: crate::options::PrecondKind::None,
            ..SolverOptions::default()
        };
        let compiled = Arc::new(CompiledModel::compile(model, solver).unwrap());
        let opts = AdaptiveOptions {
            dt_init: 0.5,
            dt_min: 0.5,
            dt_max: 0.5,
            ..Default::default()
        };
        let mut reused = Session::new(Arc::clone(&compiled));
        let _ = reused.run_transient(2.0, 4, &[]).unwrap(); // dt = 0.5
        let second = reused.run_transient_adaptive(2.0, &opts).unwrap();
        let mut fresh = Session::new(compiled);
        let reference = fresh.run_transient_adaptive(2.0, &opts).unwrap();
        assert_eq!(second.times, reference.times);
        assert_eq!(second.wire_temperatures, reference.wire_temperatures);
        assert_eq!(second.linear_iterations, reference.linear_iterations);
    }

    #[test]
    fn rejects_bad_options() {
        let mut s = session(cooling_block());
        let bad = AdaptiveOptions {
            tol: -1.0,
            ..Default::default()
        };
        assert!(s.run_transient_adaptive(1.0, &bad).is_err());
        let bad = AdaptiveOptions {
            dt_min: 1.0,
            dt_max: 0.1,
            ..Default::default()
        };
        assert!(s.run_transient_adaptive(1.0, &bad).is_err());
    }

    #[test]
    fn reaches_exactly_t_end() {
        let mut s = session(cooling_block());
        let sol = s
            .run_transient_adaptive(1.0, &AdaptiveOptions::default())
            .unwrap();
        assert!((sol.times.last().unwrap() - 1.0).abs() < 1e-9);
        // Times strictly increasing.
        for w in sol.times.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert_eq!(sol.wire_temperatures.len(), 0); // no wires in this model
    }
}
