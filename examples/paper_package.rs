//! The paper's full 28-pad / 12-wire package: build it, run one nominal
//! transient, and print the wire-temperature table plus the temperature
//! field at the end time — a one-command tour of the whole reproduction.
//!
//! Run with `cargo run --release --example paper_package`.

use etherm::core::export::VtkExporter;
use etherm::core::qoi::field_slice_at_z;
use etherm::core::{Session, SolverOptions};
use etherm::package::{build_model, BuildOptions, PackageGeometry};
use etherm::report::HeatMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Geometry calibrated so nominal wire lengths average Table II's 1.55 mm.
    let geometry = PackageGeometry::paper();
    println!(
        "package: {:.1} x {:.1} x {:.2} mm, {} pads, chip {:.2} mm half-width",
        geometry.mold_width * 1e3,
        geometry.mold_width * 1e3,
        geometry.mold_height * 1e3,
        geometry.n_pads(),
        geometry.chip_half_width * 1e3
    );

    // Fig. 7 preset = Table I/II values + the calibrated thermal environment.
    let mut options = BuildOptions::paper_fig7();
    options.target_spacing_xy = 0.42e-3; // MC production mesh
    options.target_spacing_z = 0.22e-3;
    let built = build_model(&geometry, &options)?;
    println!("mesh: {} nodes, {} wires\n", built.model.grid().n_nodes(), built.model.wires().len());

    let mut session = Session::new(built.compile(SolverOptions::fast())?);
    let sol = session.run_transient(50.0, 50, &[50.0])?;

    println!("wire temperatures (T_bw = X^T T, paper Eq. 5):");
    println!("  wire   L[mm]   T(10s)   T(30s)   T(50s)   P[mW]");
    for j in 0..12 {
        let s = sol.wire_series(j);
        println!(
            "  {:4}  {:6.3}  {:7.1}  {:7.1}  {:7.1}  {:6.1}",
            j,
            built.nominal_lengths[j] * 1e3,
            s[10],
            s[30],
            s[50],
            sol.wire_powers[j][50] * 1e3
        );
    }
    let (j, t) = sol.hottest_wire().expect("wires");
    println!("\nhottest wire: #{j} at {t:.1} K (critical: 523 K)");

    // Fig. 8-style field plot at the wire-bond plane.
    let (_, state) = &sol.snapshots[0];
    let (_, chip_hi) = geometry.chip_box();
    let slice = field_slice_at_z(built.model.grid(), state, chip_hi.2);
    println!("\ntemperature field at t = 50 s (wire-bond plane):");
    println!(
        "{}",
        HeatMap::new(slice.nx, slice.ny, slice.values.clone())?.render()
    );

    // Export the full 3D field for ParaView, into the gitignored bench
    // output directory rather than the repo root.
    let mut vtk = VtkExporter::new(built.model.grid(), "etherm paper package, t = 50 s");
    vtk.add_field("temperature", state)?;
    std::fs::create_dir_all("bench_out")?;
    let out = std::path::Path::new("bench_out/paper_package_t50.vtk");
    vtk.write_to(out)?;
    println!("wrote {} (open in ParaView/VisIt)", out.display());
    Ok(())
}
