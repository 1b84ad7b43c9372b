//! Cross-crate validation of the coupled solver against analytic solutions.

use etherm::bondwire::BondWire;
use etherm::core::{ElectrothermalModel, Simulator, SolverOptions};
use etherm::fit::boundary::ThermalBoundary;
use etherm::grid::{Axis, BoxRegion, CellPaint, Grid3, GridBuilder, MaterialId};
use etherm::materials::{library, Material, MaterialTable, TemperatureModel};

/// A homogeneous copper block (constant properties for exact comparisons).
fn copper_block(nx: usize) -> ElectrothermalModel {
    let grid = Grid3::new(
        Axis::uniform(0.0, 1e-3, nx).unwrap(),
        Axis::uniform(0.0, 1e-3, 2).unwrap(),
        Axis::uniform(0.0, 1e-3, 2).unwrap(),
    );
    let paint = CellPaint::new(&grid, MaterialId(0));
    let mut materials = MaterialTable::new();
    materials.add(Material::new(
        "const copper",
        TemperatureModel::Constant(5.8e7),
        TemperatureModel::Constant(398.0),
        3.45e6,
    ));
    ElectrothermalModel::new(grid, paint, materials).unwrap()
}

#[test]
fn block_resistance_matches_analytic() {
    // R = L/(σA) with L = A_cross = 1e-3 ... R = 1e-3/(5.8e7 · 1e-6).
    let mut model = copper_block(8);
    let left: Vec<usize> = (0..model.grid().n_nodes())
        .filter(|&n| model.grid().node_position(n).0 == 0.0)
        .collect();
    let right: Vec<usize> = (0..model.grid().n_nodes())
        .filter(|&n| (model.grid().node_position(n).0 - 1e-3).abs() < 1e-12)
        .collect();
    let v = 1e-3;
    model.set_electric_potential(&left, v);
    model.set_electric_potential(&right, 0.0);
    model.set_thermal_boundary(ThermalBoundary::convective(100.0, 300.0));

    let sim = Simulator::new(&model, SolverOptions::default()).unwrap();
    let st = sim.solve_stationary().unwrap();
    let r_analytic = 1e-3 / (5.8e7 * 1e-6);
    let p_expected = v * v / r_analytic;
    assert!(
        (st.field_power - p_expected).abs() < 1e-9 * p_expected,
        "power {} vs {}",
        st.field_power,
        p_expected
    );
}

#[test]
fn lumped_capacity_cooling_matches_ode() {
    // A copper block starting at 350 K in a 300 K environment with pure
    // convection cools as T(t) = 300 + 50·exp(−hA·t/C) (Biot ≪ 1).
    let mut model = copper_block(4);
    model.set_ambient(350.0);
    let h = 200.0;
    model.set_thermal_boundary(ThermalBoundary::convective(h, 300.0));
    let sim = Simulator::new(&model, SolverOptions::default()).unwrap();

    let volume = 1e-9; // (1 mm)³
    let area = 6e-6; // 6 faces × 1 mm²
    let c = 3.45e6 * volume;
    let tau = c / (h * area);

    // Integrate 2·tau with enough steps that the implicit-Euler error is
    // a few percent.
    let t_end = 2.0 * tau;
    let steps = 400;
    let sol = sim.run_transient(t_end, steps, &[t_end]).unwrap();
    let (_, state) = &sol.snapshots[0];
    let mean: f64 =
        state[..model.grid().n_nodes()].iter().sum::<f64>() / model.grid().n_nodes() as f64;
    let analytic = 300.0 + 50.0 * (-t_end / tau).exp();
    assert!(
        (mean - analytic).abs() < 0.5,
        "block cooled to {mean} K, ODE predicts {analytic} K (tau = {tau} s)"
    );
}

#[test]
fn implicit_euler_is_first_order_in_dt() {
    // The copper block of `lumped_capacity_cooling_matches_ode`, run to 2τ
    // with N, 2N and 4N steps. The spatial error is the same in every run,
    // so it cancels in the successive differences, and
    // log2(|T_N − T_2N| / |T_2N − T_4N|) estimates the time order.
    let mut model = copper_block(4);
    model.set_ambient(350.0);
    let h = 200.0;
    model.set_thermal_boundary(ThermalBoundary::convective(h, 300.0));
    let tau = 3.45e6 * 1e-9 / (h * 6e-6);
    let t_end = 2.0 * tau;
    let n_grid = model.grid().n_nodes();
    let mean_at_end = |steps: usize| {
        let sim = Simulator::new(&model, SolverOptions::default()).unwrap();
        let sol = sim.run_transient(t_end, steps, &[t_end]).unwrap();
        let (_, state) = &sol.snapshots[0];
        state[..n_grid].iter().sum::<f64>() / n_grid as f64
    };
    let means: Vec<f64> = [25, 50, 100, 200, 400]
        .into_iter()
        .map(mean_at_end)
        .collect();
    for (i, w) in means.windows(3).enumerate() {
        let order = ((w[0] - w[1]).abs() / (w[1] - w[2]).abs()).log2();
        assert!(
            (0.9..=1.1).contains(&order),
            "observed order {order} from N = {} (means {means:?})",
            25 << i
        );
    }
}

#[test]
fn stationary_equals_long_transient_with_wire() {
    // Two pads + wire: the transient must converge to the stationary limit.
    let pad_a = BoxRegion::new((0.0, 0.0, 0.0), (0.4e-3, 0.4e-3, 0.2e-3));
    let pad_b = BoxRegion::new((1.2e-3, 0.0, 0.0), (1.6e-3, 0.4e-3, 0.2e-3));
    let mold = BoxRegion::new((0.0, 0.0, 0.0), (1.6e-3, 0.4e-3, 0.2e-3));
    let grid = GridBuilder::new()
        .with_box(&mold)
        .with_box(&pad_a)
        .with_box(&pad_b)
        .with_target_spacing(0.2e-3)
        .build()
        .unwrap();
    let mut paint = CellPaint::new(&grid, MaterialId(0));
    paint.paint(&grid, &pad_a, MaterialId(1));
    paint.paint(&grid, &pad_b, MaterialId(1));
    let mut materials = MaterialTable::new();
    materials.add(library::epoxy_resin());
    materials.add(library::copper());
    let mut model = ElectrothermalModel::new(grid, paint, materials).unwrap();
    let wire = BondWire::new("w", 1.0e-3, 25.4e-6, library::copper()).unwrap();
    model
        .add_wire(wire, (0.4e-3, 0.2e-3, 0.2e-3), (1.2e-3, 0.2e-3, 0.2e-3))
        .unwrap();
    let left = model.grid().nodes_in_box((0.0, 0.0, 0.0), (0.0, 0.4e-3, 0.2e-3));
    let right = model
        .grid()
        .nodes_in_box((1.6e-3, 0.0, 0.0), (1.6e-3, 0.4e-3, 0.2e-3));
    model.set_electric_potential(&left, 20e-3);
    model.set_electric_potential(&right, -20e-3);

    // The stationary fixed point converges slowly here (strong σ(T)
    // feedback at a large temperature rise) — allow more Picard iterations.
    let options = SolverOptions {
        picard_max_iter: 120,
        ..SolverOptions::default()
    };
    let sim = Simulator::new(&model, options).unwrap();
    let st = sim.solve_stationary().unwrap();
    assert!(st.converged, "picard iterations: {}", st.picard_iterations);
    let tr = sim.run_transient(200.0, 100, &[]).unwrap();
    let t_wire_stationary =
        sim.layout().topology(0).average_temperature(&st.temperature);
    let t_wire_end = *tr.wire_series(0).last().unwrap();
    assert!(
        (t_wire_end - t_wire_stationary).abs() < 0.05 * (t_wire_stationary - 300.0).abs().max(0.1),
        "transient end {t_wire_end} K vs stationary {t_wire_stationary} K"
    );
    // Energy balance in the stationary limit.
    let n_grid = model.grid().n_nodes();
    let out = model
        .thermal_boundary()
        .outgoing_power(model.grid(), &st.temperature[..n_grid]);
    let total_in = st.field_power + st.wire_powers.iter().sum::<f64>();
    assert!(
        (out - total_in).abs() < 0.03 * total_in,
        "energy balance: in {total_in} W vs out {out} W"
    );
}

#[test]
fn multi_segment_wire_agrees_with_single_segment_on_qoi() {
    // The endpoint-average QoI must be nearly independent of segmentation.
    let run = |segments: usize| -> f64 {
        let pad_a = BoxRegion::new((0.0, 0.0, 0.0), (0.4e-3, 0.4e-3, 0.2e-3));
        let pad_b = BoxRegion::new((1.2e-3, 0.0, 0.0), (1.6e-3, 0.4e-3, 0.2e-3));
        let mold = BoxRegion::new((0.0, 0.0, 0.0), (1.6e-3, 0.4e-3, 0.2e-3));
        let grid = GridBuilder::new()
            .with_box(&mold)
            .with_box(&pad_a)
            .with_box(&pad_b)
            .with_target_spacing(0.2e-3)
            .build()
            .unwrap();
        let mut paint = CellPaint::new(&grid, MaterialId(0));
        paint.paint(&grid, &pad_a, MaterialId(1));
        paint.paint(&grid, &pad_b, MaterialId(1));
        let mut materials = MaterialTable::new();
        materials.add(library::epoxy_resin());
        materials.add(library::copper());
        let mut model = ElectrothermalModel::new(grid, paint, materials).unwrap();
        let wire = BondWire::new("w", 1.0e-3, 25.4e-6, library::copper())
            .unwrap()
            .with_segments(segments)
            .unwrap();
        model
            .add_wire(wire, (0.4e-3, 0.2e-3, 0.2e-3), (1.2e-3, 0.2e-3, 0.2e-3))
            .unwrap();
        let left = model.grid().nodes_in_box((0.0, 0.0, 0.0), (0.0, 0.4e-3, 0.2e-3));
        let right = model
            .grid()
            .nodes_in_box((1.6e-3, 0.0, 0.0), (1.6e-3, 0.4e-3, 0.2e-3));
        model.set_electric_potential(&left, 20e-3);
        model.set_electric_potential(&right, -20e-3);
        let sim = Simulator::new(&model, SolverOptions::default()).unwrap();
        let sol = sim.run_transient(30.0, 30, &[]).unwrap();
        *sol.wire_series(0).last().unwrap()
    };
    let t1 = run(1);
    let t4 = run(4);
    assert!(
        (t1 - t4).abs() < 0.02 * (t1 - 300.0),
        "1 segment: {t1} K, 4 segments: {t4} K"
    );
}
