//! The immutable, shareable half of the solver: everything that is
//! invariant across parameter perturbations of one model.
//!
//! A Monte Carlo campaign evaluates the *same* package thousands of times
//! with only the 12 wire elongations changing. Nothing structural changes
//! between samples: the grid, the DoF layout, the Dirichlet maps, the
//! grid part of the heat-capacity diagonal and — because the stamping
//! sequences are deterministic — the CSR sparsity patterns of all three
//! reduced systems are sample-independent. [`CompiledModel`] computes all
//! of that exactly once ("compile"), and any number of [`crate::Session`]s
//! (typically one per worker thread) then share it read-only through an
//! [`std::sync::Arc`], refilling values over the frozen patterns.
//!
//! What is frozen here vs. per-run in the session:
//!
//! | frozen in `CompiledModel`            | per-run in `Session`            |
//! |--------------------------------------|---------------------------------|
//! | model (grid, paint, materials, BCs)  | wire lengths (sampled)          |
//! | DoF layout and Dirichlet `DofMap`s   | value-filled matrices           |
//! | grid heat-capacity diagonal          | wire heat capacities            |
//! | recorded stamping patterns (CSR)     | cached preconditioners          |
//! | solver options                       | Krylov workspaces, scratch      |

use crate::assembly::{self, CoeffBufs};
use crate::error::CoreError;
use crate::layout::DofLayout;
use crate::model::ElectrothermalModel;
use crate::options::SolverOptions;
use etherm_fit::matrices::node_capacitance_diagonal;
use etherm_fit::{CachedStamper, DofMap};

/// The compile-once product shared by all sessions of one model: DoF
/// layout, Dirichlet maps, the grid heat-capacity diagonal and the recorded
/// assembly templates (frozen CSR patterns + triplet→slot maps).
///
/// Create with [`CompiledModel::compile`], then spawn cheap per-run
/// [`crate::Session`]s with [`crate::Session::new`].
#[derive(Debug)]
pub struct CompiledModel {
    model: ElectrothermalModel,
    options: SolverOptions,
    layout: DofLayout,
    elec_map: DofMap,
    therm_map: DofMap,
    /// Heat capacity of the grid DoFs (J/K), full numbering; wire-internal
    /// entries are zero — sessions add the per-run wire capacities on top.
    grid_mass_diag: Vec<f64>,
    /// Recorded electrical assembly (pattern + slots), `None` when the
    /// model has no electric drive (the potential is identically zero and
    /// the system is never assembled).
    elec_template: Option<CachedStamper>,
    /// Recorded transient thermal assembly (with mass stamps).
    therm_template: CachedStamper,
    /// Recorded stationary thermal assembly (no mass stamps — a different
    /// emission sequence, hence its own template).
    therm_stationary_template: CachedStamper,
}

impl CompiledModel {
    /// Compiles the model: validates constraints, builds the DoF layout and
    /// Dirichlet maps, and records the frozen assembly patterns of all
    /// three reduced systems with one synthetic stamping round each (at the
    /// ambient temperature, with the nominal wires).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidModel`] for inconsistent constraints
    /// (e.g. out-of-range Dirichlet nodes).
    pub fn compile(
        model: ElectrothermalModel,
        options: SolverOptions,
    ) -> Result<Self, CoreError> {
        let n_grid = model.grid().n_nodes();
        let wires: Vec<_> = model
            .wires()
            .iter()
            .map(|w| (&w.wire, w.node_a, w.node_b))
            .collect();
        let layout = DofLayout::new(n_grid, &wires);
        for &(n, _) in model.electric_dirichlet() {
            if n >= n_grid {
                return Err(CoreError::InvalidModel(format!(
                    "electric Dirichlet node {n} out of range"
                )));
            }
        }
        for &(n, _) in model.thermal_dirichlet() {
            if n >= n_grid {
                return Err(CoreError::InvalidModel(format!(
                    "thermal Dirichlet node {n} out of range"
                )));
            }
        }
        let elec_map = DofMap::new(layout.n_total(), model.electric_dirichlet());
        let therm_map = DofMap::new(layout.n_total(), model.thermal_dirichlet());

        let mut grid_mass_diag = node_capacitance_diagonal(model.grid(), model.paint(), model.materials());
        grid_mass_diag.resize(layout.n_total(), 0.0);

        let mut compiled = CompiledModel {
            model,
            options,
            layout,
            elec_map: elec_map.clone(),
            therm_map: therm_map.clone(),
            grid_mass_diag,
            elec_template: None,
            therm_template: CachedStamper::new(&therm_map),
            therm_stationary_template: CachedStamper::new(&therm_map),
        };
        compiled.record_templates();
        Ok(compiled)
    }

    /// Records the three assembly patterns by running one full stamping
    /// round each with the nominal wires at the initial temperature. The
    /// emission *structure* is value-independent (zero conductances are
    /// stamped, mass entries never change sign with wire length), so the
    /// recorded patterns and slot maps are valid for every sample.
    fn record_templates(&mut self) {
        let t0 = self.initial_temperature();
        let mut bufs = CoeffBufs::default();
        let wires = self.model.wires();
        let mass_diag = self.mass_diag_for(wires);
        let q = vec![0.0; self.layout.n_total()];

        if !self.model.electric_dirichlet().is_empty() {
            assembly::fill_sigma(&self.model, &t0, &mut bufs);
            let mut st = CachedStamper::new(&self.elec_map);
            assembly::stamp_electrical(&self.model, &self.layout, wires, &t0, &bufs, &mut st);
            st.finish();
            self.elec_template = Some(st);
        }

        assembly::fill_lambda(&self.model, &t0, &mut bufs);
        assembly::stamp_thermal(
            &self.model,
            &self.layout,
            wires,
            &t0,
            &t0,
            Some(1.0),
            &mass_diag,
            &q,
            &bufs,
            &mut self.therm_template,
        );
        self.therm_template.finish();

        assembly::stamp_thermal(
            &self.model,
            &self.layout,
            wires,
            &t0,
            &t0,
            None,
            &mass_diag,
            &q,
            &bufs,
            &mut self.therm_stationary_template,
        );
        self.therm_stationary_template.finish();
    }

    /// The full heat-capacity diagonal for a given wire set: the frozen
    /// grid part plus each wire's per-segment capacity `ρc·A·L/n` on its
    /// internal DoFs.
    pub(crate) fn mass_diag_for(&self, wires: &[crate::model::WireAttachment]) -> Vec<f64> {
        let mut mass = self.grid_mass_diag.clone();
        self.fill_wire_mass(wires, &mut mass);
        mass
    }

    /// Overwrites the wire-internal entries of `mass` with the capacities
    /// of `wires` (the grid prefix is untouched).
    pub(crate) fn fill_wire_mass(
        &self,
        wires: &[crate::model::WireAttachment],
        mass: &mut [f64],
    ) {
        for (j, att) in wires.iter().enumerate() {
            let topo = self.layout.topology(j);
            if topo.n_internal() == 0 {
                continue;
            }
            let seg_capacity = att.wire.heat_capacity() / att.wire.segments() as f64;
            for i in 0..topo.n_internal() {
                mass[topo.internal_offset + i] = seg_capacity;
            }
        }
    }

    /// The model this was compiled from (nominal wires).
    pub fn model(&self) -> &ElectrothermalModel {
        &self.model
    }

    /// The solver options shared by all sessions.
    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// The DoF layout (grid + wire internal DoFs).
    pub fn layout(&self) -> &DofLayout {
        &self.layout
    }

    /// The electrical Dirichlet map.
    pub fn elec_map(&self) -> &DofMap {
        &self.elec_map
    }

    /// The thermal Dirichlet map.
    pub fn therm_map(&self) -> &DofMap {
        &self.therm_map
    }

    pub(crate) fn elec_template(&self) -> Option<&CachedStamper> {
        self.elec_template.as_ref()
    }

    pub(crate) fn therm_template(&self) -> &CachedStamper {
        &self.therm_template
    }

    pub(crate) fn therm_stationary_template(&self) -> &CachedStamper {
        &self.therm_stationary_template
    }

    /// Initial full state: everything at the ambient temperature, wire
    /// internals interpolated.
    pub fn initial_temperature(&self) -> Vec<f64> {
        let mut t = vec![self.model.ambient(); self.layout.n_total()];
        for &(n, value) in self.model.thermal_dirichlet() {
            t[n] = value;
        }
        self.layout.interpolate_wire_internals(&mut t);
        t
    }
}
