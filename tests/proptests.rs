//! Cross-crate property-based tests.

use etherm::bondwire::BondWire;
use etherm::core::{CompiledModel, ElectrothermalModel, Session, SolverOptions};
use etherm::fit::boundary::ThermalBoundary;
use etherm::grid::{Axis, CellPaint, Grid3, MaterialId};
use etherm::materials::{library, Material, MaterialTable, TemperatureModel};
use etherm::uq::dist::Distribution;
use etherm::uq::{Normal, TruncatedNormal};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Electrical dissipation in a homogeneous bar equals V²·σA/L for any
    /// conductivity and drive voltage.
    #[test]
    fn bar_power_scales_with_sigma_and_voltage(
        sigma in 1e5f64..1e8,
        v in 1e-4f64..0.1,
    ) {
        let grid = Grid3::new(
            Axis::uniform(0.0, 1e-3, 4).unwrap(),
            Axis::uniform(0.0, 0.5e-3, 2).unwrap(),
            Axis::uniform(0.0, 0.5e-3, 2).unwrap(),
        );
        let paint = CellPaint::new(&grid, MaterialId(0));
        let mut materials = MaterialTable::new();
        materials.add(Material::new(
            "m",
            TemperatureModel::Constant(sigma),
            TemperatureModel::Constant(100.0),
            1e6,
        ));
        let mut model = ElectrothermalModel::new(grid, paint, materials).unwrap();
        let left: Vec<usize> = (0..model.grid().n_nodes())
            .filter(|&n| model.grid().node_position(n).0 == 0.0)
            .collect();
        let right: Vec<usize> = (0..model.grid().n_nodes())
            .filter(|&n| (model.grid().node_position(n).0 - 1e-3).abs() < 1e-12)
            .collect();
        model.set_electric_potential(&left, v);
        model.set_electric_potential(&right, 0.0);
        model.set_thermal_boundary(ThermalBoundary::convective(1000.0, 300.0));
        let compiled = CompiledModel::compile(model, SolverOptions::default()).unwrap();
        let st = Session::new(compiled).solve_stationary().unwrap();
        let expect = v * v * sigma * 0.25e-6 / 1e-3;
        prop_assert!(
            (st.field_power - expect).abs() < 1e-6 * expect,
            "power {} vs {}", st.field_power, expect
        );
    }

    /// Wire conductance laws: longer wires conduct less, thicker wires
    /// more, hotter wires less — for arbitrary valid geometry.
    #[test]
    fn wire_conductance_monotonicity(
        length_mm in 0.5f64..4.0,
        d_um in 10.0f64..60.0,
        t in 300.0f64..520.0,
    ) {
        let l = length_mm * 1e-3;
        let d = d_um * 1e-6;
        let w = BondWire::new("w", l, d, library::copper()).unwrap();
        let longer = w.with_length(l * 1.3).unwrap();
        prop_assert!(longer.electrical_conductance(t) < w.electrical_conductance(t));
        let thicker = BondWire::new("w2", l, d * 1.2, library::copper()).unwrap();
        prop_assert!(thicker.electrical_conductance(t) > w.electrical_conductance(t));
        prop_assert!(w.electrical_conductance(t + 50.0) < w.electrical_conductance(t));
        // Thermal and electrical conductances share the geometry factor.
        let ratio = w.thermal_conductance(t) / w.electrical_conductance(t);
        let expect = library::copper().lambda(t) / library::copper().sigma(t);
        prop_assert!((ratio - expect).abs() < 1e-12 * expect);
    }

    /// Distribution sampling by inversion stays inside truncation bounds
    /// and reproduces the mean within the MC error.
    #[test]
    fn truncated_sampling_respects_bounds(
        mu in -1.0f64..1.0,
        sigma in 0.01f64..0.5,
        seed in 0u64..1000,
    ) {
        let lo = mu - 1.5 * sigma;
        let hi = mu + 2.0 * sigma;
        let dist = TruncatedNormal::new(mu, sigma, lo, hi).unwrap();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut sum = 0.0;
        let n = 500;
        for _ in 0..n {
            let x = dist.quantile(rng.gen::<f64>().clamp(1e-12, 1.0 - 1e-12));
            prop_assert!(x >= lo - 1e-12 && x <= hi + 1e-12);
            sum += x;
        }
        let mean = sum / n as f64;
        prop_assert!((mean - dist.mean()).abs() < 6.0 * dist.std_dev() / (n as f64).sqrt());
    }

    /// The normal quantile transform preserves stochastic ordering.
    #[test]
    fn quantile_is_monotone(mu in -5.0f64..5.0, sigma in 0.1f64..3.0, u1 in 0.01f64..0.99, u2 in 0.01f64..0.99) {
        let n = Normal::new(mu, sigma).unwrap();
        let (a, b) = (u1.min(u2), u1.max(u2));
        prop_assert!(n.quantile(a) <= n.quantile(b) + 1e-12);
    }

    /// Grid paint + capacitance: total heat capacity equals the painted
    /// volumes times their ρc, independent of mesh resolution.
    #[test]
    fn heat_capacity_is_mesh_independent(n in 2usize..6) {
        let grid = Grid3::new(
            Axis::uniform(0.0, 1.0, n).unwrap(),
            Axis::uniform(0.0, 1.0, n).unwrap(),
            Axis::uniform(0.0, 1.0, n).unwrap(),
        );
        let paint = CellPaint::new(&grid, MaterialId(0));
        let mut materials = MaterialTable::new();
        materials.add(library::copper());
        let cap = etherm::fit::matrices::node_capacitance_diagonal(&grid, &paint, &materials);
        let total: f64 = cap.iter().sum();
        let expect = library::copper().rho_c(); // 1 m³ of copper
        prop_assert!((total - expect).abs() < 1e-6 * expect);
    }
}
