//! Model specifications: the wire format that names a compiled model.
//!
//! A [`ModelSpec`] fully determines geometry + mesh + materials + solver
//! profile, so its canonical string is a *content identity*: two requests
//! with the same spec share one [`etherm_core::CompiledModel`] in the
//! registry, keyed by [`ModelSpec::content_hash`] (FNV-1a over the
//! canonical form — stable across processes and platforms, unlike
//! `DefaultHasher`).
//!
//! Two families exist today:
//!
//! * [`SpecKind::Paper`] — the paper's 28-pad / 12-wire package at a given
//!   mesh spacing (µm), built through `etherm_package`;
//! * [`SpecKind::Block`] — a small single-wire epoxy block for tests, CI
//!   and latency-sensitive smoke traffic (compiles in milliseconds).

use crate::json::Value;
use etherm_core::{CompiledModel, CoreError, ElectrothermalModel, SolverOptions};
use etherm_fit::boundary::ThermalBoundary;
use etherm_grid::{Axis, CellPaint, Grid3, MaterialId};
use etherm_materials::{library, MaterialTable};
use etherm_package::{build_model, BuildOptions, PackageGeometry};

/// The solver-option profile a model is compiled with (options are frozen
/// inside the compiled model, so the profile is part of the identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverProfile {
    /// [`SolverOptions::default`]: the accuracy-first paper configuration.
    Default,
    /// [`SolverOptions::uq`]: the campaign profile (AMG preconditioner,
    /// inexact Picard through [`SolverOptions::picard_forcing`]); answers
    /// agree with the `Default` profile within `picard_tol × T`, not to
    /// the CG tolerance.
    Uq,
    /// [`SolverOptions::fast`]: the latency-first profile.
    Fast,
}

impl SolverProfile {
    fn as_str(self) -> &'static str {
        match self {
            SolverProfile::Default => "default",
            SolverProfile::Uq => "uq",
            SolverProfile::Fast => "fast",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "default" => Some(SolverProfile::Default),
            "uq" => Some(SolverProfile::Uq),
            "fast" => Some(SolverProfile::Fast),
            _ => None,
        }
    }

    /// The solver options this profile compiles with.
    pub fn options(self) -> SolverOptions {
        match self {
            SolverProfile::Default => SolverOptions::default(),
            SolverProfile::Uq => SolverOptions::uq(),
            SolverProfile::Fast => SolverOptions::fast(),
        }
    }
}

/// The geometry/mesh family of a spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecKind {
    /// The paper package at lateral / vertical mesh spacings in µm.
    Paper { xy_um: u32, z_um: u32 },
    /// A single-wire epoxy block: `nx × ny × nz` cells of 0.5 mm, one
    /// copper wire of `wire_um` µm length bonded across the x extent,
    /// ±20 mV drive, convective boundary.
    Block {
        nx: u32,
        ny: u32,
        nz: u32,
        wire_um: u32,
    },
}

/// A fully-specified model identity: geometry family + solver profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSpec {
    pub kind: SpecKind,
    pub profile: SolverProfile,
}

impl ModelSpec {
    /// The coarse paper package (the mesh the test suite and UQ benches
    /// use) under the campaign solver profile.
    pub fn paper_coarse() -> ModelSpec {
        ModelSpec {
            kind: SpecKind::Paper { xy_um: 900, z_um: 500 },
            profile: SolverProfile::Uq,
        }
    }

    /// The default test block: 4×2×1 cells, 1.5 mm wire.
    pub fn block_small() -> ModelSpec {
        ModelSpec {
            kind: SpecKind::Block {
                nx: 4,
                ny: 2,
                nz: 1,
                wire_um: 1500,
            },
            profile: SolverProfile::Default,
        }
    }

    /// The canonical identity string: every field that influences the
    /// compiled model, in a fixed order. Materials are named because the
    /// builders bind them from the library by construction.
    pub fn canonical(&self) -> String {
        match self.kind {
            SpecKind::Paper { xy_um, z_um } => format!(
                "paper-v1;pads=28;wires=12;mat=epoxy+copper;xy_um={xy_um};z_um={z_um};profile={}",
                self.profile.as_str()
            ),
            SpecKind::Block { nx, ny, nz, wire_um } => format!(
                "block-v1;cell_um=500;mat=epoxy+copper;nx={nx};ny={ny};nz={nz};wire_um={wire_um};profile={}",
                self.profile.as_str()
            ),
        }
    }

    /// FNV-1a 64-bit hash of [`ModelSpec::canonical`] — the registry key.
    pub fn content_hash(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }

    /// Serializes to the protocol's `model` object.
    pub fn to_value(&self) -> Value {
        let mut members = Vec::new();
        match self.kind {
            SpecKind::Paper { xy_um, z_um } => {
                members.push(("kind".to_string(), Value::str("paper")));
                members.push(("xy_um".to_string(), Value::uint(u64::from(xy_um))));
                members.push(("z_um".to_string(), Value::uint(u64::from(z_um))));
            }
            SpecKind::Block { nx, ny, nz, wire_um } => {
                members.push(("kind".to_string(), Value::str("block")));
                members.push(("nx".to_string(), Value::uint(u64::from(nx))));
                members.push(("ny".to_string(), Value::uint(u64::from(ny))));
                members.push(("nz".to_string(), Value::uint(u64::from(nz))));
                members.push(("wire_um".to_string(), Value::uint(u64::from(wire_um))));
            }
        }
        members.push((
            "profile".to_string(),
            Value::str(self.profile.as_str()),
        ));
        Value::Object(members)
    }

    /// Parses the protocol's `model` object; `None` on any missing or
    /// out-of-range field.
    pub fn from_value(v: &Value) -> Option<ModelSpec> {
        let profile = SolverProfile::from_str(v.get("profile")?.as_str()?)?;
        let field_u32 = |name: &str| -> Option<u32> {
            let x = v.get(name)?.as_u64()?;
            u32::try_from(x).ok().filter(|&x| x > 0)
        };
        let kind = match v.get("kind")?.as_str()? {
            "paper" => SpecKind::Paper {
                xy_um: field_u32("xy_um")?,
                z_um: field_u32("z_um")?,
            },
            "block" => SpecKind::Block {
                nx: field_u32("nx")?,
                ny: field_u32("ny")?,
                nz: field_u32("nz")?,
                wire_um: field_u32("wire_um")?,
            },
            _ => return None,
        };
        Some(ModelSpec { kind, profile })
    }

    /// Builds and compiles the model. This is the expensive single-flight
    /// path behind the registry.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidModel`] for infeasible dimensions (e.g. a paper
    /// mesh too coarse to separate bond points).
    pub fn build(&self) -> Result<CompiledModel, CoreError> {
        let model = match self.kind {
            SpecKind::Paper { xy_um, z_um } => {
                let geometry = PackageGeometry::paper();
                let options = BuildOptions {
                    target_spacing_xy: f64::from(xy_um) * 1e-6,
                    target_spacing_z: f64::from(z_um) * 1e-6,
                    ..BuildOptions::paper_fig7()
                };
                build_model(&geometry, &options)?.model
            }
            SpecKind::Block { nx, ny, nz, wire_um } => build_block(nx, ny, nz, wire_um)?,
        };
        CompiledModel::compile(model, self.profile.options())
    }
}

/// Builds the single-wire epoxy block (the `wire_model` fixture of the
/// core ensemble tests, parameterized).
fn build_block(nx: u32, ny: u32, nz: u32, wire_um: u32) -> Result<ElectrothermalModel, CoreError> {
    const CELL: f64 = 0.5e-3;
    let invalid = |what: &str| CoreError::InvalidModel(format!("block spec: {what}"));
    let (lx, ly, lz) = (
        f64::from(nx) * CELL,
        f64::from(ny) * CELL,
        f64::from(nz) * CELL,
    );
    let grid = Grid3::new(
        Axis::uniform(0.0, lx, nx as usize).map_err(|e| invalid(&e.to_string()))?,
        Axis::uniform(0.0, ly, ny as usize).map_err(|e| invalid(&e.to_string()))?,
        Axis::uniform(0.0, lz, nz as usize).map_err(|e| invalid(&e.to_string()))?,
    );
    let paint = CellPaint::new(&grid, MaterialId(0));
    let mut materials = MaterialTable::new();
    materials.add(library::epoxy_resin());
    let mut model = ElectrothermalModel::new(grid, paint, materials)?;
    let wire = etherm_bondwire::BondWire::new(
        "w",
        f64::from(wire_um) * 1e-6,
        25.4e-6,
        library::copper(),
    )
    .map_err(|e| invalid(&e.to_string()))?;
    model.add_wire(wire, (0.0, ly / 2.0, lz / 2.0), (lx, ly / 2.0, lz / 2.0))?;
    let a = model.wires()[0].node_a;
    let b = model.wires()[0].node_b;
    model.set_electric_potential(&[a], 0.02);
    model.set_electric_potential(&[b], -0.02);
    model.set_thermal_boundary(ThermalBoundary::convective(25.0, 300.0));
    Ok(model)
}

/// FNV-1a, 64-bit: tiny, allocation-free, stable across builds — exactly
/// what a cross-process cache key needs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_identity_distinguishes_specs() {
        let a = ModelSpec::block_small();
        let mut b = a;
        b.profile = SolverProfile::Fast;
        assert_ne!(a.content_hash(), b.content_hash());
        let c = ModelSpec::paper_coarse();
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn value_round_trip() {
        for spec in [ModelSpec::block_small(), ModelSpec::paper_coarse()] {
            let v = spec.to_value();
            assert_eq!(ModelSpec::from_value(&v), Some(spec));
        }
    }

    #[test]
    fn rejects_malformed_values() {
        use crate::json::parse;
        for src in [
            r#"{"kind":"paper","profile":"uq"}"#,
            r#"{"kind":"block","nx":0,"ny":1,"nz":1,"wire_um":1500,"profile":"default"}"#,
            r#"{"kind":"sphere","profile":"default"}"#,
            r#"{"profile":"default"}"#,
            r#"{"kind":"paper","xy_um":900,"z_um":500,"profile":"warp"}"#,
        ] {
            let v = parse(src).unwrap();
            assert_eq!(ModelSpec::from_value(&v), None, "{src}");
        }
    }

    #[test]
    fn block_spec_builds() {
        let compiled = ModelSpec::block_small().build().unwrap();
        assert_eq!(compiled.model().wires().len(), 1);
    }
}
