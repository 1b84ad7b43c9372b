//! Cross-crate validation of the coupled solver against analytic solutions.

use etherm::bondwire::BondWire;
use etherm::core::{CompiledModel, ElectrothermalModel, Session, SolverOptions};
use etherm::fit::boundary::ThermalBoundary;
use etherm::grid::{Axis, BoxRegion, CellPaint, Grid3, GridBuilder, MaterialId};
use etherm::materials::{library, Material, MaterialTable, TemperatureModel};

/// A fresh session over `model` compiled with `options`.
fn open_session(model: &ElectrothermalModel, options: SolverOptions) -> Session {
    Session::new(CompiledModel::compile(model.clone(), options).unwrap())
}

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

    let mut session = open_session(&model, SolverOptions::default());
    let st = session.solve_stationary().unwrap();
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
    let mut session = open_session(&model, SolverOptions::default());

    let volume = 1e-9; // (1 mm)³
    let area = 6e-6; // 6 faces × 1 mm²
    let c = 3.45e6 * volume;
    let tau = c / (h * area);

    // Integrate 2·tau with enough steps that the implicit-Euler error is
    // a few percent.
    let t_end = 2.0 * tau;
    let steps = 400;
    let sol = session.run_transient(t_end, steps, &[t_end]).unwrap();
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
        let mut session = open_session(&model, SolverOptions::default());
        let sol = session.run_transient(t_end, steps, &[t_end]).unwrap();
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
fn fit_is_second_order_in_h() {
    // A copper bar with 300 K ends and adiabatic sides, started at
    // 300 + A·sin(πx/L). The sine decays at the continuous rate α(π/L)²;
    // on the grid it is an exact eigenvector with rate λ_h. One
    // implicit-Euler step scales it by 1/(1 + Δt·λ_h), which recovers λ_h
    // free of any time error, so |λ_h − α(π/L)²| measures the spatial error
    // alone. (A quadratic profile would not do: the grid reproduces it
    // exactly.) Halving h must cut that error fourfold.
    use std::f64::consts::PI;
    let (l, amp, dt) = (1e-3, 10.0, 1e-3);
    let exact = 398.0 / 3.45e6 * (PI / l).powi(2);
    let rate_error = |nx: usize| {
        let mut model = copper_block(nx);
        let grid = model.grid();
        let ends: Vec<usize> = (0..grid.n_nodes())
            .filter(|&n| {
                let x = grid.node_position(n).0;
                x == 0.0 || (x - l).abs() < 1e-12
            })
            .collect();
        let mode: Vec<f64> = (0..grid.n_nodes())
            .map(|n| (PI * grid.node_position(n).0 / l).sin())
            .collect();
        model.set_fixed_temperature(&ends, 300.0);
        model.set_thermal_boundary(ThermalBoundary::adiabatic());
        let mut session = open_session(&model, SolverOptions::default());
        let t0: Vec<f64> = mode.iter().map(|s| 300.0 + amp * s).collect();
        let mut phi = vec![0.0; t0.len()];
        let t1 = session.step(&t0, dt, &mut phi).unwrap().temperature;
        // Project the decayed excess on the mode: g = 1/(1 + Δt·λ_h).
        let excess: f64 = mode.iter().zip(&t1).map(|(s, t)| s * (t - 300.0)).sum();
        let g = excess / (amp * mode.iter().map(|s| s * s).sum::<f64>());
        ((1.0 / g - 1.0) / dt - exact).abs()
    };
    let (e_h, e_h2) = (rate_error(8), rate_error(16));
    let order = (e_h / e_h2).log2();
    assert!(
        (1.8..=2.2).contains(&order),
        "observed order {order} (rate errors {e_h:e} and {e_h2:e} 1/s)"
    );
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
    let mut session = open_session(&model, options);
    let st = session.solve_stationary().unwrap();
    assert!(st.converged, "picard iterations: {}", st.picard_iterations);
    let tr = session.run_transient(200.0, 100, &[]).unwrap();
    let t_wire_stationary =
        session.compiled().layout().topology(0).average_temperature(&st.temperature);
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
        let mut session = open_session(&model, SolverOptions::default());
        let sol = session.run_transient(30.0, 30, &[]).unwrap();
        *sol.wire_series(0).last().unwrap()
    };
    let t1 = run(1);
    let t4 = run(4);
    assert!(
        (t1 - t4).abs() < 0.02 * (t1 - 300.0),
        "1 segment: {t1} K, 4 segments: {t4} K"
    );
}
