//! **A4** — mesh-refinement convergence of the hottest-wire temperature.
//!
//! Runs the nominal (mean elongation) transient on a sequence of mesh
//! targets and reports the hottest-wire end temperature, validating the MC
//! production mesh.

use etherm_bench::arg_usize;
use etherm_core::{Session, SolverOptions};
use etherm_package::{build_model, BuildOptions, PackageGeometry};
use etherm_report::TextTable;

fn main() {
    let steps = arg_usize("steps", 25);
    let geometry = PackageGeometry::paper();
    let levels: [(f64, f64, &str); 4] = [
        (0.60e-3, 0.30e-3, "coarse"),
        (0.42e-3, 0.22e-3, "MC production"),
        (0.30e-3, 0.15e-3, "default"),
        (0.22e-3, 0.11e-3, "fine"),
    ];

    println!("A4: mesh convergence of the nominal hottest-wire temperature (t = 50 s)\n");
    let mut t = TextTable::new(&["mesh", "h_xy [mm]", "nodes", "E_hot(50s) [K]", "diff to finest [K]"]);
    let mut results = Vec::new();
    for &(hxy, hz, name) in &levels {
        let opts = BuildOptions {
            target_spacing_xy: hxy,
            target_spacing_z: hz,
            ..BuildOptions::paper_fig7()
        };
        let built = build_model(&geometry, &opts).expect("build");
        let sol = Session::new(built.compile(SolverOptions::fast()).expect("compile"))
            .run_transient(50.0, steps, &[])
            .expect("transient");
        let e = sol.max_wire_series()[steps];
        results.push((name, hxy, built.model.grid().n_nodes(), e));
        eprintln!("  {name} done ({} nodes)", built.model.grid().n_nodes());
    }
    let finest = results.last().expect("levels ran").3;
    for &(name, hxy, nodes, e) in &results {
        t.add_row_owned(vec![
            name.into(),
            format!("{:.2}", hxy * 1e3),
            format!("{nodes}"),
            format!("{e:.2}"),
            format!("{:.3}", (e - finest).abs()),
        ]);
    }
    println!("{}", t.render());
    println!("the MC production mesh must sit within a small fraction of sigma_MC (≈4-5 K) of the finest level.");
}
