//! Shared assembly routines.
//!
//! The exact stamping sequences of the three reduced systems live here and
//! are used twice: once by [`crate::CompiledModel`] to *record* the frozen
//! CSR patterns at compile time, and on every Picard iterate by
//! [`crate::Session`] to *refill* values over those patterns. Keeping both
//! callers on one code path guarantees the structural contract of
//! `CachedStamper` (identical call sequence every round) can never drift.

use crate::layout::DofLayout;
use crate::model::{ElectrothermalModel, WireAttachment};
use etherm_bondwire::stamp::{stamp_wire, WirePhysics};
use etherm_fit::matrices::{
    cell_property_into, cell_temperatures_into, edge_material_diagonal_into, Property,
};
use etherm_fit::CachedStamper;

/// Buffers for the per-iterate material-coefficient evaluation (cell
/// temperatures, conductivities and edge diagonals), allocation-free after
/// the first fill.
#[derive(Debug, Clone, Default)]
pub(crate) struct CoeffBufs {
    /// Per-cell mean temperature.
    pub cell_t: Vec<f64>,
    /// Per-cell electrical conductivity at the lagged temperature.
    pub cell_sigma: Vec<f64>,
    /// Edge conductance diagonal `Mσ`.
    pub m_sigma: Vec<f64>,
    /// Per-cell thermal conductivity at the lagged temperature.
    pub cell_lambda: Vec<f64>,
    /// Edge conductance diagonal `Mλ`.
    pub m_lambda: Vec<f64>,
}

/// Evaluates the per-cell mean of the lagged temperature `t_star` into
/// `bufs.cell_t`, which [`fill_sigma`] and [`fill_lambda`] both read: one
/// evaluation per Picard iterate serves both fills.
pub(crate) fn fill_cell_temperatures(
    model: &ElectrothermalModel,
    t_star: &[f64],
    bufs: &mut CoeffBufs,
) {
    let grid = model.grid();
    cell_temperatures_into(grid, &t_star[..grid.n_nodes()], &mut bufs.cell_t);
}

/// Evaluates σ per cell at `bufs.cell_t` (see [`fill_cell_temperatures`])
/// and the edge conductance diagonal `Mσ` into `bufs` (`cell_sigma`,
/// `m_sigma`).
pub(crate) fn fill_sigma(model: &ElectrothermalModel, bufs: &mut CoeffBufs) {
    let grid = model.grid();
    cell_property_into(
        grid,
        model.paint(),
        model.materials(),
        &bufs.cell_t,
        Property::Electrical,
        &mut bufs.cell_sigma,
    );
    edge_material_diagonal_into(grid, &bufs.cell_sigma, &mut bufs.m_sigma);
}

/// Evaluates λ per cell at `bufs.cell_t` (see [`fill_cell_temperatures`])
/// and the edge conductance diagonal `Mλ` into `bufs` (`cell_lambda`,
/// `m_lambda`).
pub(crate) fn fill_lambda(model: &ElectrothermalModel, bufs: &mut CoeffBufs) {
    let grid = model.grid();
    cell_property_into(
        grid,
        model.paint(),
        model.materials(),
        &bufs.cell_t,
        Property::Thermal,
        &mut bufs.cell_lambda,
    );
    edge_material_diagonal_into(grid, &bufs.cell_lambda, &mut bufs.m_lambda);
}

/// Stamps the electrical system (grid edges + wire chains) for one Picard
/// iterate at the lagged temperature `t_star`. `bufs.m_sigma` must already
/// hold the edge conductances (see [`fill_sigma`]). Begins a new round on
/// `stamper`; the caller finishes it.
pub(crate) fn stamp_electrical(
    model: &ElectrothermalModel,
    layout: &DofLayout,
    wires: &[WireAttachment],
    t_star: &[f64],
    bufs: &CoeffBufs,
    stamper: &mut CachedStamper,
) {
    let grid = model.grid();
    stamper.begin();
    for e in 0..grid.n_edges() {
        let (a, b) = grid.edge_endpoints(e);
        stamper.add_conductance(a, b, bufs.m_sigma[e]);
    }
    for (j, att) in wires.iter().enumerate() {
        stamp_wire(
            &att.wire,
            layout.topology(j),
            t_star,
            WirePhysics::Electrical,
            &mut *stamper,
        );
    }
}

/// Stamps the thermal system (grid edges, wire chains, boundary, mass term
/// and heat-source right-hand side) for one Picard iterate at the lagged
/// temperature `t_star`. `dt = None` omits the mass stamps (stationary
/// pattern). `bufs.m_lambda` must already hold the edge conductances (see
/// [`fill_lambda`]). Begins a new round on `stamper`; the caller finishes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stamp_thermal(
    model: &ElectrothermalModel,
    layout: &DofLayout,
    wires: &[WireAttachment],
    t_star: &[f64],
    t_prev: &[f64],
    dt: Option<f64>,
    mass_diag: &[f64],
    q: &[f64],
    bufs: &CoeffBufs,
    stamper: &mut CachedStamper,
) {
    let grid = model.grid();
    stamper.begin();
    for e in 0..grid.n_edges() {
        let (a, b) = grid.edge_endpoints(e);
        stamper.add_conductance(a, b, bufs.m_lambda[e]);
    }
    for (j, att) in wires.iter().enumerate() {
        stamp_wire(
            &att.wire,
            layout.topology(j),
            t_star,
            WirePhysics::Thermal,
            &mut *stamper,
        );
    }
    model
        .thermal_boundary()
        .stamp(grid, &t_star[..grid.n_nodes()], &mut *stamper);
    if let Some(dt) = dt {
        for i in 0..layout.n_total() {
            let m = mass_diag[i] / dt;
            if m != 0.0 {
                stamper.add_diag(i, m);
                stamper.add_rhs(i, m * t_prev[i]);
            }
        }
    }
    for (i, &qi) in q.iter().enumerate() {
        if qi != 0.0 {
            stamper.add_rhs(i, qi);
        }
    }
}
