//! Physics-invariant tests of the coupled solver on small models: zero
//! drive means no heating, geometric symmetry means symmetric fields,
//! Dirichlet pins hold exactly, and more drive means more heat.

use etherm::bondwire::BondWire;
use etherm::core::{CompiledModel, ElectrothermalModel, Session, SolverOptions};
use etherm::grid::{Axis, CellPaint, Grid3, MaterialId};
use etherm::materials::{library, MaterialTable};

/// A fresh session over `model` compiled with `options`.
fn open_session(model: &ElectrothermalModel, options: SolverOptions) -> Session {
    Session::new(CompiledModel::compile(model.clone(), options).unwrap())
}

/// A small epoxy block with two copper end blocks and one wire between
/// their inner top edges, `±v` PEC drive at the outer faces.
fn two_pad_model(v: f64) -> ElectrothermalModel {
    let grid = Grid3::new(
        Axis::uniform(0.0, 2.0e-3, 8).unwrap(),
        Axis::uniform(0.0, 0.5e-3, 2).unwrap(),
        Axis::uniform(0.0, 0.25e-3, 2).unwrap(),
    );
    let mut paint = CellPaint::new(&grid, MaterialId(0));
    let pad_a = etherm::grid::BoxRegion::new((0.0, 0.0, 0.0), (0.5e-3, 0.5e-3, 0.25e-3));
    let pad_b = etherm::grid::BoxRegion::new((1.5e-3, 0.0, 0.0), (2.0e-3, 0.5e-3, 0.25e-3));
    paint.paint(&grid, &pad_a, MaterialId(1));
    paint.paint(&grid, &pad_b, MaterialId(1));
    let mut materials = MaterialTable::new();
    materials.add(library::epoxy_resin());
    materials.add(library::copper());
    let mut model = ElectrothermalModel::new(grid, paint, materials).expect("valid model");
    let wire = BondWire::new("w", 1.2e-3, 25.4e-6, library::copper()).expect("wire");
    model
        .add_wire(wire, (0.5e-3, 0.25e-3, 0.25e-3), (1.5e-3, 0.25e-3, 0.25e-3))
        .expect("attach");
    let left: Vec<usize> = model
        .grid()
        .nodes_in_box((0.0, 0.0, 0.0), (0.0, 0.5e-3, 0.25e-3));
    let right: Vec<usize> = model
        .grid()
        .nodes_in_box((2.0e-3, 0.0, 0.0), (2.0e-3, 0.5e-3, 0.25e-3));
    model.set_electric_potential(&left, v);
    model.set_electric_potential(&right, -v);
    model
}

#[test]
fn zero_drive_stays_at_ambient() {
    let model = two_pad_model(0.0);
    let mut session = open_session(&model, SolverOptions::default());
    let sol = session.run_transient(10.0, 10, &[]).expect("transient");
    for j in 0..sol.n_wires() {
        for &t in sol.wire_series(j) {
            assert!(
                (t - 300.0).abs() < 1e-6,
                "wire {j} left ambient without drive: {t} K"
            );
        }
    }
}

#[test]
fn drive_polarity_does_not_matter() {
    // Joule heat is quadratic in the field: flipping the sign of the drive
    // must produce the identical temperature series.
    let pos = two_pad_model(20e-3);
    let neg = two_pad_model(-20e-3);
    let sol_p = open_session(&pos, SolverOptions::default())
        .run_transient(10.0, 10, &[])
        .unwrap();
    let sol_n = open_session(&neg, SolverOptions::default())
        .run_transient(10.0, 10, &[])
        .unwrap();
    for i in 0..sol_p.n_times() {
        let a = sol_p.wire_series(0)[i];
        let b = sol_n.wire_series(0)[i];
        assert!((a - b).abs() < 1e-9, "step {i}: {a} vs {b}");
    }
}

#[test]
fn more_drive_means_monotonically_more_heat() {
    let temps: Vec<f64> = [10e-3, 20e-3, 40e-3]
        .iter()
        .map(|&v| {
            let model = two_pad_model(v);
            let mut session = open_session(&model, SolverOptions::default());
            let sol = session.run_transient(10.0, 10, &[]).unwrap();
            *sol.wire_series(0).last().unwrap()
        })
        .collect();
    assert!(
        temps[0] < temps[1] && temps[1] < temps[2],
        "temperatures not monotone in drive: {temps:?}"
    );
    // Low-temperature limit: Joule power ∝ V², so the rise roughly
    // quadruples per doubling while the coupling is weak.
    let rise01 = temps[1] - 300.0;
    let rise0 = temps[0] - 300.0;
    let ratio = rise01 / rise0;
    assert!(
        ratio > 2.5 && ratio < 4.5,
        "rise ratio {ratio} not ~4 (quadratic heating)"
    );
}

#[test]
fn mirror_symmetry_of_the_two_pads() {
    // The model is symmetric under x → 2 mm − x (pads, drive magnitude,
    // wire midpoint). The temperature field must share that symmetry.
    let model = two_pad_model(20e-3);
    let mut session = open_session(&model, SolverOptions::default());
    let sol = session.run_transient(10.0, 10, &[10.0]).unwrap();
    let (_, field) = &sol.snapshots[0];
    let grid = model.grid();
    let lx = 2.0e-3;
    for n in 0..grid.n_nodes() {
        let (x, y, z) = grid.node_position(n);
        let m = grid.nearest_node(lx - x, y, z);
        let (xm, _, _) = grid.node_position(m);
        // Only compare true mirror pairs (uniform axis ⇒ always exact).
        if ((lx - x) - xm).abs() < 1e-12 {
            assert!(
                (field[n] - field[m]).abs() < 1e-6,
                "asymmetry at x = {x}: {} vs {}",
                field[n],
                field[m]
            );
        }
    }
}

#[test]
fn fixed_temperature_nodes_hold_exactly() {
    let mut model = two_pad_model(20e-3);
    let sink: Vec<usize> = model
        .grid()
        .nodes_in_box((0.0, 0.0, 0.0), (0.0, 0.5e-3, 0.25e-3));
    model.set_fixed_temperature(&sink, 310.0);
    let mut session = open_session(&model, SolverOptions::default());
    let sol = session.run_transient(5.0, 5, &[5.0]).unwrap();
    let (_, field) = &sol.snapshots[0];
    for &n in &sink {
        assert_eq!(field[n], 310.0, "Dirichlet node {n} drifted");
    }
}

#[test]
fn stationary_limit_matches_long_transient() {
    let model = two_pad_model(20e-3);
    // The stationary fixed point starts from ambient, far from the
    // solution — allow more Picard iterations than the per-step default.
    let options = SolverOptions {
        picard_max_iter: 400,
        ..SolverOptions::default()
    };
    let mut session = open_session(&model, options);
    let stationary = session.solve_stationary().expect("stationary solve");
    assert!(
        stationary.converged,
        "stationary Picard stalled after {} iterations",
        stationary.picard_iterations
    );
    // March far past the settling time of this tiny block.
    let sol = session.run_transient(2000.0, 200, &[]).expect("transient");
    let t_end = *sol.wire_series(0).last().unwrap();
    let t_stat = session
        .compiled()
        .layout()
        .topology(0)
        .average_temperature(&stationary.temperature);
    assert!(
        (t_end - t_stat).abs() < 0.05 * (t_stat - 300.0).max(0.1),
        "transient end {t_end} K vs stationary {t_stat} K"
    );
}
