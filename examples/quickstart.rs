//! Quickstart: build a tiny electrothermal model — two copper pads in epoxy
//! joined by one bonding wire — drive it with a DC voltage and watch the
//! wire heat up.
//!
//! Run with `cargo run --release --example quickstart`.

use etherm::bondwire::BondWire;
use etherm::core::{CompiledModel, ElectrothermalModel, Session, SolverOptions};
use etherm::fit::boundary::ThermalBoundary;
use etherm::grid::{BoxRegion, CellPaint, GridBuilder, MaterialId};
use etherm::materials::{library, MaterialTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Geometry: a 2 × 0.5 × 0.25 mm epoxy block with two copper pads.
    let pad_a = BoxRegion::new((0.0, 0.0, 0.0), (0.5e-3, 0.5e-3, 0.25e-3));
    let pad_b = BoxRegion::new((1.5e-3, 0.0, 0.0), (2.0e-3, 0.5e-3, 0.25e-3));
    let mold = BoxRegion::new((0.0, 0.0, 0.0), (2.0e-3, 0.5e-3, 0.25e-3));
    let grid = GridBuilder::new()
        .with_box(&mold)
        .with_box(&pad_a)
        .with_box(&pad_b)
        .with_target_spacing(0.125e-3)
        .build()?;
    println!("mesh: {} nodes", grid.n_nodes());

    // 2. Materials: epoxy background, copper pads.
    let mut paint = CellPaint::new(&grid, MaterialId(0));
    paint.paint(&grid, &pad_a, MaterialId(1));
    paint.paint(&grid, &pad_b, MaterialId(1));
    let mut materials = MaterialTable::new();
    materials.add(library::epoxy_resin());
    materials.add(library::copper());

    // 3. Model: one 25.4 µm copper wire bridging the pads' top inner edges.
    let mut model = ElectrothermalModel::new(grid, paint, materials)?;
    let wire = BondWire::new("w1", 1.2e-3, 25.4e-6, library::copper())?;
    model.add_wire(wire, (0.5e-3, 0.25e-3, 0.25e-3), (1.5e-3, 0.25e-3, 0.25e-3))?;

    // 4. Boundary conditions: ±20 mV PEC at the outer pad ends, convective
    //    cooling everywhere.
    let left: Vec<usize> = model
        .grid()
        .nodes_in_box((0.0, 0.0, 0.0), (0.0, 0.5e-3, 0.25e-3));
    let right: Vec<usize> = model
        .grid()
        .nodes_in_box((2.0e-3, 0.0, 0.0), (2.0e-3, 0.5e-3, 0.25e-3));
    model.set_electric_potential(&left, 20e-3);
    model.set_electric_potential(&right, -20e-3);
    model.set_thermal_boundary(ThermalBoundary::paper_default());

    // 5. Compile the model once, then solve 50 s of the coupled transient
    //    with implicit Euler on a session over it.
    let mut session = Session::new(CompiledModel::compile(model, SolverOptions::default())?);
    let solution = session.run_transient(50.0, 50, &[])?;

    // 6. Inspect the wire temperature (the paper's Eq. 5 quantity).
    let series = solution.wire_series(0);
    println!("wire temperature over time:");
    for i in (0..=50).step_by(10) {
        println!("  t = {:4.1} s : {:6.2} K", solution.times[i], series[i]);
    }
    let (j, t_end) = solution.hottest_wire().expect("one wire");
    println!("hottest wire #{j} ends at {t_end:.2} K");
    println!(
        "dissipated wire power: {:.2} mW",
        solution.wire_powers[0][50] * 1e3
    );
    Ok(())
}
