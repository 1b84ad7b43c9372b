//! The electrothermal model: geometry, materials, wires and boundary
//! conditions.

use crate::error::CoreError;
use etherm_bondwire::BondWire;
use etherm_fit::boundary::ThermalBoundary;
use etherm_grid::{CellPaint, Grid3};
use etherm_materials::MaterialTable;

/// A bonding wire attached between two grid nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAttachment {
    /// The wire.
    pub wire: BondWire,
    /// Grid node of the first (chip-side) bond.
    pub node_a: usize,
    /// Grid node of the second (pad-side) bond.
    pub node_b: usize,
}

/// A complete electrothermal package model.
///
/// Build it from a conforming grid (see `etherm_grid::GridBuilder`), a
/// staircase material paint, a material table, lumped wires and boundary
/// conditions; compile it with [`crate::CompiledModel::compile`] and solve
/// it on a [`crate::Session`].
///
/// # Example
///
/// ```
/// use etherm_core::ElectrothermalModel;
/// use etherm_grid::{Axis, CellPaint, Grid3, MaterialId};
/// use etherm_materials::{library, MaterialTable};
///
/// let grid = Grid3::new(
///     Axis::uniform(0.0, 1e-3, 4).unwrap(),
///     Axis::uniform(0.0, 1e-3, 4).unwrap(),
///     Axis::uniform(0.0, 0.5e-3, 2).unwrap(),
/// );
/// let paint = CellPaint::new(&grid, MaterialId(0));
/// let mut materials = MaterialTable::new();
/// materials.add(library::epoxy_resin());
/// let model = ElectrothermalModel::new(grid, paint, materials).unwrap();
/// assert_eq!(model.wires().len(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct ElectrothermalModel {
    grid: Grid3,
    paint: CellPaint,
    materials: MaterialTable,
    wires: Vec<WireAttachment>,
    electric_dirichlet: Vec<(usize, f64)>,
    thermal_dirichlet: Vec<(usize, f64)>,
    thermal_boundary: ThermalBoundary,
    ambient: f64,
}

impl ElectrothermalModel {
    /// Creates a model with no wires, no electric constraints and the
    /// paper's default thermal boundary.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidModel`] if the paint does not match the
    /// grid or references materials missing from the table.
    pub fn new(
        grid: Grid3,
        paint: CellPaint,
        materials: MaterialTable,
    ) -> Result<Self, CoreError> {
        if paint.n_cells() != grid.n_cells() {
            return Err(CoreError::InvalidModel(format!(
                "paint covers {} cells but grid has {}",
                paint.n_cells(),
                grid.n_cells()
            )));
        }
        for c in 0..paint.n_cells() {
            let id = paint.material(c).0 as usize;
            if materials.try_get(id).is_none() {
                return Err(CoreError::InvalidModel(format!(
                    "cell {c} painted with unknown material id {id}"
                )));
            }
        }
        Ok(ElectrothermalModel {
            grid,
            paint,
            materials,
            wires: Vec::new(),
            electric_dirichlet: Vec::new(),
            thermal_dirichlet: Vec::new(),
            thermal_boundary: ThermalBoundary::paper_default(),
            ambient: 300.0,
        })
    }

    /// Attaches a wire between the grid nodes nearest to the two physical
    /// points; returns the wire index.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidModel`] if both points snap to the same
    /// node (mesh too coarse to separate the bonds).
    pub fn add_wire(
        &mut self,
        wire: BondWire,
        point_a: (f64, f64, f64),
        point_b: (f64, f64, f64),
    ) -> Result<usize, CoreError> {
        let a = self.grid.nearest_node(point_a.0, point_a.1, point_a.2);
        let b = self.grid.nearest_node(point_b.0, point_b.1, point_b.2);
        self.add_wire_between_nodes(wire, a, b)
    }

    /// Attaches a wire between two explicit grid nodes; returns the wire
    /// index.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidModel`] for out-of-range or coincident
    /// nodes.
    pub fn add_wire_between_nodes(
        &mut self,
        wire: BondWire,
        node_a: usize,
        node_b: usize,
    ) -> Result<usize, CoreError> {
        let n = self.grid.n_nodes();
        if node_a >= n || node_b >= n {
            return Err(CoreError::InvalidModel(format!(
                "wire attachment node out of range ({node_a}, {node_b}) vs {n} nodes"
            )));
        }
        if node_a == node_b {
            return Err(CoreError::InvalidModel(
                "wire endpoints snapped to the same grid node; refine the mesh".into(),
            ));
        }
        self.wires.push(WireAttachment {
            wire,
            node_a,
            node_b,
        });
        Ok(self.wires.len() - 1)
    }

    /// Fixes the electric potential (PEC contact) of the given nodes.
    pub fn set_electric_potential(&mut self, nodes: &[usize], potential: f64) {
        for &n in nodes {
            self.electric_dirichlet.push((n, potential));
        }
    }

    /// Fixes the temperature of the given nodes (e.g. an ideal heat sink).
    /// The paper uses none — convection/radiation only.
    pub fn set_fixed_temperature(&mut self, nodes: &[usize], temperature: f64) {
        for &n in nodes {
            self.thermal_dirichlet.push((n, temperature));
        }
    }

    /// Sets the convective/radiative thermal boundary.
    pub fn set_thermal_boundary(&mut self, boundary: ThermalBoundary) {
        self.thermal_boundary = boundary;
    }

    /// Sets the ambient/initial temperature (K).
    pub fn set_ambient(&mut self, ambient: f64) {
        self.ambient = ambient;
    }

    /// Replaces wire `j` entirely (e.g. to swap its material model) while
    /// keeping its grid attachment.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidModel`] for an invalid index.
    pub fn replace_wire(&mut self, j: usize, wire: BondWire) -> Result<(), CoreError> {
        let att = self
            .wires
            .get_mut(j)
            .ok_or_else(|| CoreError::InvalidModel(format!("no wire {j}")))?;
        att.wire = wire;
        Ok(())
    }

    /// Replaces the length of wire `j` (Monte Carlo sampling of uncertain
    /// elongations).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidModel`] for an invalid length or index.
    pub fn set_wire_length(&mut self, j: usize, length: f64) -> Result<(), CoreError> {
        let att = self
            .wires
            .get_mut(j)
            .ok_or_else(|| CoreError::InvalidModel(format!("no wire {j}")))?;
        att.wire = att
            .wire
            .with_length(length)
            .map_err(|e| CoreError::InvalidModel(e.to_string()))?;
        Ok(())
    }

    /// The grid.
    pub fn grid(&self) -> &Grid3 {
        &self.grid
    }

    /// The cell material paint.
    pub fn paint(&self) -> &CellPaint {
        &self.paint
    }

    /// The material table.
    pub fn materials(&self) -> &MaterialTable {
        &self.materials
    }

    /// The attached wires.
    pub fn wires(&self) -> &[WireAttachment] {
        &self.wires
    }

    /// The electric Dirichlet (PEC) constraints as `(node, potential)`.
    pub fn electric_dirichlet(&self) -> &[(usize, f64)] {
        &self.electric_dirichlet
    }

    /// The thermal Dirichlet constraints as `(node, temperature)`.
    pub fn thermal_dirichlet(&self) -> &[(usize, f64)] {
        &self.thermal_dirichlet
    }

    /// The convective/radiative boundary.
    pub fn thermal_boundary(&self) -> &ThermalBoundary {
        &self.thermal_boundary
    }

    /// Ambient/initial temperature (K).
    pub fn ambient(&self) -> f64 {
        self.ambient
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etherm_grid::{Axis, MaterialId};
    use etherm_materials::library;

    fn base() -> ElectrothermalModel {
        let grid = Grid3::new(
            Axis::uniform(0.0, 1.0, 2).unwrap(),
            Axis::uniform(0.0, 1.0, 2).unwrap(),
            Axis::uniform(0.0, 1.0, 2).unwrap(),
        );
        let paint = CellPaint::new(&grid, MaterialId(0));
        let mut materials = MaterialTable::new();
        materials.add(library::epoxy_resin());
        ElectrothermalModel::new(grid, paint, materials).unwrap()
    }

    fn wire() -> BondWire {
        BondWire::new("w", 1e-3, 2e-5, library::copper()).unwrap()
    }

    #[test]
    fn rejects_unknown_material() {
        let grid = Grid3::new(
            Axis::uniform(0.0, 1.0, 1).unwrap(),
            Axis::uniform(0.0, 1.0, 1).unwrap(),
            Axis::uniform(0.0, 1.0, 1).unwrap(),
        );
        let paint = CellPaint::new(&grid, MaterialId(3));
        let materials = MaterialTable::new();
        assert!(matches!(
            ElectrothermalModel::new(grid, paint, materials),
            Err(CoreError::InvalidModel(_))
        ));
    }

    #[test]
    fn wire_attachment_by_point_snaps_to_nodes() {
        let mut m = base();
        let j = m.add_wire(wire(), (0.1, 0.1, 0.9), (0.9, 0.9, 0.9)).unwrap();
        assert_eq!(j, 0);
        let att = &m.wires()[0];
        let pa = m.grid().node_position(att.node_a);
        assert_eq!(pa, (0.0, 0.0, 1.0));
        let pb = m.grid().node_position(att.node_b);
        assert_eq!(pb, (1.0, 1.0, 1.0));
    }

    #[test]
    fn coincident_attachment_is_rejected() {
        let mut m = base();
        let e = m.add_wire(wire(), (0.1, 0.1, 0.1), (0.15, 0.1, 0.1));
        assert!(matches!(e, Err(CoreError::InvalidModel(_))));
    }

    #[test]
    fn dirichlet_accumulates() {
        let mut m = base();
        m.set_electric_potential(&[0, 1], 0.02);
        m.set_electric_potential(&[2], -0.02);
        assert_eq!(m.electric_dirichlet().len(), 3);
        m.set_fixed_temperature(&[5], 350.0);
        assert_eq!(m.thermal_dirichlet(), &[(5, 350.0)]);
    }

    #[test]
    fn wire_length_update() {
        let mut m = base();
        m.add_wire(wire(), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0)).unwrap();
        m.set_wire_length(0, 2e-3).unwrap();
        assert_eq!(m.wires()[0].wire.length(), 2e-3);
        assert!(m.set_wire_length(0, -1.0).is_err());
        assert!(m.set_wire_length(5, 1e-3).is_err());
    }

    #[test]
    fn wire_replacement_keeps_attachment() {
        let mut m = base();
        m.add_wire(wire(), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0)).unwrap();
        let (a, b) = (m.wires()[0].node_a, m.wires()[0].node_b);
        let gold = BondWire::new("g", 1.5e-3, 2e-5, library::gold()).unwrap();
        m.replace_wire(0, gold).unwrap();
        assert_eq!(m.wires()[0].wire.material().name(), "gold");
        assert_eq!(m.wires()[0].node_a, a);
        assert_eq!(m.wires()[0].node_b, b);
        let other = BondWire::new("x", 1e-3, 2e-5, library::copper()).unwrap();
        assert!(m.replace_wire(3, other).is_err());
    }

    #[test]
    fn defaults() {
        let m = base();
        assert_eq!(m.ambient(), 300.0);
        assert!(m.thermal_boundary().is_active());
    }
}
