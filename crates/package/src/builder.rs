//! Builds the FIT model of the package: conforming mesh, staircase
//! materials, PEC contacts, wires, Table II boundary conditions.

use crate::geometry::PackageGeometry;
use etherm_bondwire::BondWire;
use etherm_core::{CoreError, ElectrothermalModel};
use etherm_fit::boundary::ThermalBoundary;
use etherm_grid::{BoxRegion, CellPaint, GridBuilder, MaterialId};
use etherm_materials::{library, MaterialTable};

/// Mesh/model construction options.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildOptions {
    /// Maximum lateral (x/y) cell size (m).
    pub target_spacing_xy: f64,
    /// Maximum vertical (z) cell size (m).
    pub target_spacing_z: f64,
    /// DC potential magnitude applied to the pad pairs (±V_dc, paper:
    /// 20 mV so that V_bw = 40 mV per pair).
    pub v_dc: f64,
    /// Wire diameter (m), Table II: 25.4 µm.
    pub wire_diameter: f64,
    /// Lumped segments per wire (1 = the paper's two-terminal element).
    pub wire_segments: usize,
    /// Depth of the PEC contact strip at the outer pad end (m).
    pub contact_depth: f64,
    /// Effective cooled-area fraction of the boundary (see
    /// `ThermalBoundary::area_scale`); 1.0 = the full surface convects and
    /// radiates as in the paper's §V-B description.
    pub boundary_area_scale: f64,
    /// Override for the mold compound's volumetric heat capacity ρc
    /// (J/K/m³). `None` keeps the literature value. Used by the calibrated
    /// Fig. 7 reproduction — see README, "Reproduction choices": the
    /// paper's published power (~90 mW), temperature rise (~200 K) and
    /// settling time (~15 s) are mutually consistent only with an
    /// effective package heat capacity far below literature epoxy values.
    pub mold_rho_c: Option<f64>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            target_spacing_xy: 0.30e-3,
            target_spacing_z: 0.15e-3,
            v_dc: 20e-3,
            wire_diameter: 25.4e-6,
            wire_segments: 1,
            contact_depth: 0.12e-3,
            boundary_area_scale: 1.0,
            mold_rho_c: None,
        }
    }
}

impl BuildOptions {
    /// The calibrated Fig. 7 reproduction preset: all Table I/II values
    /// unchanged, with the two unpublished environment parameters
    /// (`boundary_area_scale`, mold ρc) fitted to the two observable
    /// features of the paper's Fig. 7 — steady hottest-wire level ≈ 495 K
    /// and settling by t ≈ 50 s. See README, "Reproduction choices", for
    /// the fit.
    pub fn paper_fig7() -> Self {
        BuildOptions {
            boundary_area_scale: PAPER_FIG7_AREA_SCALE,
            mold_rho_c: Some(PAPER_FIG7_MOLD_RHO_C),
            ..BuildOptions::default()
        }
    }
}

/// Calibrated effective cooled-area fraction for the Fig. 7 preset.
pub const PAPER_FIG7_AREA_SCALE: f64 = 0.072;
/// Calibrated mold ρc (J/K/m³) for the Fig. 7 preset.
pub const PAPER_FIG7_MOLD_RHO_C: f64 = 4.0e4;

/// The built model plus the bookkeeping needed by experiments.
#[derive(Debug, Clone)]
pub struct BuiltPackage {
    /// The electrothermal model, ready for [`BuiltPackage::compile`].
    pub model: ElectrothermalModel,
    /// Wire index (into `model.wires()`) per planned wire (same order as
    /// [`PackageGeometry::wire_plan`]).
    pub wire_indices: Vec<usize>,
    /// Direct distances `d_j` per wire (m) — the deterministic part of the
    /// uncertain lengths `L_j = d_j/(1 − δ_j)`.
    pub direct_distances: Vec<f64>,
    /// Nominal wire lengths installed in the model (`d_j/(1 − µ_δ)`).
    pub nominal_lengths: Vec<f64>,
}

/// The uncertain wire length `L = d / (1 − δ)` of the paper's elongation
/// model — the single definition shared by the rebuild-per-sample path
/// ([`BuiltPackage::apply_elongations`]) and the session path
/// (`ElongationScenario`), so the two can never diverge.
///
/// # Errors
///
/// Returns [`CoreError::InvalidModel`] if `δ` is NaN or ≥ 1 (infinite
/// wire).
pub fn elongation_length(direct_distance: f64, delta: f64) -> Result<f64, CoreError> {
    if delta.is_nan() || delta >= 1.0 {
        return Err(CoreError::InvalidModel(format!(
            "relative elongation δ = {delta} must be < 1"
        )));
    }
    Ok(direct_distance / (1.0 - delta))
}

impl BuiltPackage {
    /// Applies sampled relative elongations: wire `j` gets length
    /// `L_j = d_j / (1 − δ_j)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidModel`] if a delta is ≥ 1 (infinite
    /// wire) or produces an invalid length.
    ///
    /// # Panics
    ///
    /// Panics if `deltas.len()` differs from the wire count.
    pub fn apply_elongations(&mut self, deltas: &[f64]) -> Result<(), CoreError> {
        assert_eq!(
            deltas.len(),
            self.wire_indices.len(),
            "one delta per wire required"
        );
        for (j, &delta) in deltas.iter().enumerate() {
            let length = elongation_length(self.direct_distances[j], delta)?;
            self.model.set_wire_length(self.wire_indices[j], length)?;
        }
        Ok(())
    }
}

/// Material ids used by the package paint.
pub const MAT_EPOXY: MaterialId = MaterialId(0);
/// Copper id (pads, chip, wires — paper Table I).
pub const MAT_COPPER: MaterialId = MaterialId(1);

/// Builds the package model with the mean elongation `µ_δ = 0.17` installed
/// as the nominal wire lengths.
///
/// # Errors
///
/// Returns [`CoreError::InvalidModel`] if the mesh is too coarse to separate
/// bond points or the geometry is inconsistent.
pub fn build_model(
    geometry: &PackageGeometry,
    options: &BuildOptions,
) -> Result<BuiltPackage, CoreError> {
    // ---- mesh: conform to every box face ---------------------------------
    let (mold_lo, mold_hi) = geometry.mold_box();
    let mut gb = GridBuilder::new()
        .with_box(&BoxRegion::new(mold_lo, mold_hi))
        .with_box(&{
            let (lo, hi) = geometry.chip_box();
            BoxRegion::new(lo, hi)
        });
    for pad in geometry.pads() {
        gb = gb.with_box(&BoxRegion::new(pad.lo, pad.hi));
    }
    // Key planes at the bond points so wires attach to exact nodes.
    for w in geometry.wire_plan() {
        gb = gb
            .with_key_plane_x(w.pad_bond.0)
            .with_key_plane_y(w.pad_bond.1)
            .with_key_plane_x(w.chip_bond.0)
            .with_key_plane_y(w.chip_bond.1);
    }
    let grid = gb
        .with_target_spacings(
            options.target_spacing_xy,
            options.target_spacing_xy,
            options.target_spacing_z,
        )
        .build()
        .map_err(|e| CoreError::InvalidModel(format!("mesh generation failed: {e}")))?;

    // ---- materials --------------------------------------------------------
    let mut paint = CellPaint::new(&grid, MAT_EPOXY);
    let (clo, chi) = geometry.chip_box();
    paint.paint(&grid, &BoxRegion::new(clo, chi), MAT_COPPER);
    for pad in geometry.pads() {
        paint.paint(&grid, &BoxRegion::new(pad.lo, pad.hi), MAT_COPPER);
    }
    let mut materials = MaterialTable::new();
    let epoxy = match options.mold_rho_c {
        None => library::epoxy_resin(),
        Some(rho_c) => {
            let lib = library::epoxy_resin();
            etherm_materials::Material::new(
                "epoxy resin (calibrated rho_c)",
                lib.electrical_model().clone(),
                lib.thermal_model().clone(),
                rho_c,
            )
        }
    };
    materials.add(epoxy); // id 0
    materials.add(library::copper()); // id 1

    let mut model = ElectrothermalModel::new(grid, paint, materials)?;
    let mut boundary = ThermalBoundary::paper_default();
    boundary.area_scale = options.boundary_area_scale;
    model.set_thermal_boundary(boundary);
    model.set_ambient(300.0);

    // ---- wires -------------------------------------------------------------
    let plan = geometry.wire_plan();
    let mu_delta = 0.17;
    let mut wire_indices = Vec::with_capacity(plan.len());
    let mut direct_distances = Vec::with_capacity(plan.len());
    let mut nominal_lengths = Vec::with_capacity(plan.len());
    for w in &plan {
        let nominal_length = w.direct_distance / (1.0 - mu_delta);
        let wire = BondWire::new(
            format!("wire-{}", w.wire_id),
            nominal_length,
            options.wire_diameter,
            library::copper(),
        )
        .map_err(|e| CoreError::InvalidModel(e.to_string()))?
        .with_segments(options.wire_segments)
        .map_err(|e| CoreError::InvalidModel(e.to_string()))?;
        let idx = model.add_wire(wire, w.chip_bond, w.pad_bond)?;
        wire_indices.push(idx);
        direct_distances.push(w.direct_distance);
        nominal_lengths.push(nominal_length);
    }

    // ---- PEC contacts -------------------------------------------------------
    // Each pair: +V_dc on its first pad's outer end, −V_dc on the second's.
    let pads = geometry.pads();
    for pair in 0..6 {
        let wires: Vec<_> = plan.iter().filter(|w| w.pair_id == pair).collect();
        debug_assert_eq!(wires.len(), 2);
        for (k, w) in wires.iter().enumerate() {
            let pad = &pads[w.pad_index];
            let (lo, hi) = pad.outer_contact_box(options.contact_depth);
            let nodes = model.grid().nodes_in_box(lo, hi);
            if nodes.is_empty() {
                return Err(CoreError::InvalidModel(format!(
                    "no PEC nodes found on pad {} — refine the mesh",
                    w.pad_index
                )));
            }
            let v = if k == 0 { options.v_dc } else { -options.v_dc };
            model.set_electric_potential(&nodes, v);
        }
    }

    Ok(BuiltPackage {
        model,
        wire_indices,
        direct_distances,
        nominal_lengths,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coarse() -> BuildOptions {
        BuildOptions {
            target_spacing_xy: 0.45e-3,
            target_spacing_z: 0.25e-3,
            ..BuildOptions::default()
        }
    }

    #[test]
    fn builds_paper_package() {
        let g = PackageGeometry::paper();
        let built = build_model(&g, &coarse()).unwrap();
        assert_eq!(built.model.wires().len(), 12);
        assert_eq!(built.wire_indices.len(), 12);
        // Nominal lengths average Table II's 1.55 mm.
        let mean_l: f64 = built.nominal_lengths.iter().sum::<f64>() / 12.0;
        assert!(
            (mean_l - 1.55e-3).abs() < 5e-6,
            "mean nominal length {mean_l}"
        );
        // PEC constraints exist on 12 pads.
        assert!(built.model.electric_dirichlet().len() >= 12);
        // Balanced drive: as many +20 mV as −20 mV pad contacts... per pair
        // the node counts may differ slightly, but both signs must appear.
        let pos = built
            .model
            .electric_dirichlet()
            .iter()
            .filter(|&&(_, v)| v > 0.0)
            .count();
        let neg = built
            .model
            .electric_dirichlet()
            .iter()
            .filter(|&&(_, v)| v < 0.0)
            .count();
        assert!(pos > 0 && neg > 0);
    }

    #[test]
    fn wires_attach_to_distinct_nodes() {
        let g = PackageGeometry::paper();
        let built = build_model(&g, &coarse()).unwrap();
        let mut endpoints: Vec<(usize, usize)> = built
            .model
            .wires()
            .iter()
            .map(|w| (w.node_a.min(w.node_b), w.node_a.max(w.node_b)))
            .collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        assert_eq!(endpoints.len(), 12, "wires share endpoints");
    }

    #[test]
    fn copper_volume_is_plausible() {
        let g = PackageGeometry::paper();
        let built = build_model(&g, &coarse()).unwrap();
        let grid = built.model.grid();
        let paint = built.model.paint();
        let cu = paint.material_volume(grid, MAT_COPPER);
        // Expected: chip + 28 pads.
        let chip_vol = {
            let (lo, hi) = g.chip_box();
            (hi.0 - lo.0) * (hi.1 - lo.1) * (hi.2 - lo.2)
        };
        let pad_vol: f64 = g
            .pads()
            .iter()
            .map(|p| (p.hi.0 - p.lo.0) * (p.hi.1 - p.lo.1) * (p.hi.2 - p.lo.2))
            .sum();
        let expect = chip_vol + pad_vol;
        assert!(
            (cu - expect).abs() < 0.02 * expect,
            "copper volume {cu} vs {expect}"
        );
    }

    #[test]
    fn apply_elongations_scales_lengths() {
        let g = PackageGeometry::paper();
        let mut built = build_model(&g, &coarse()).unwrap();
        let deltas = vec![0.2; 12];
        built.apply_elongations(&deltas).unwrap();
        for (j, &idx) in built.wire_indices.iter().enumerate() {
            let l = built.model.wires()[idx].wire.length();
            let expect = built.direct_distances[j] / 0.8;
            assert!((l - expect).abs() < 1e-12);
        }
        // δ ≥ 1 rejected.
        assert!(built.apply_elongations(&[1.0; 12]).is_err());
    }

    #[test]
    fn mesh_respects_targets() {
        let g = PackageGeometry::paper();
        let opts = coarse();
        let built = build_model(&g, &opts).unwrap();
        let grid = built.model.grid();
        assert!(grid.x().max_spacing() <= opts.target_spacing_xy + 1e-12);
        assert!(grid.z().max_spacing() <= opts.target_spacing_z + 1e-12);
        // Grid is modest at this coarseness.
        assert!(grid.n_nodes() < 60_000, "grid too fine: {}", grid.n_nodes());
    }
}
