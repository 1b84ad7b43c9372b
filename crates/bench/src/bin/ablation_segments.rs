//! **A1** — single lumped element vs multi-segment wires.
//!
//! The paper (§III-B) notes that a wire can be modeled "by a number of
//! concatenated lumped elements resulting in a piecewise linear temperature
//! distribution". This ablation compares 1/2/4/8 segments per wire on the
//! nominal package: reported endpoint temperatures `T_bw = XᵀT` (Eq. 5)
//! must be nearly unchanged, while the wire's *interior* hot spot only
//! becomes visible with internal nodes.

use etherm_bench::arg_usize;
use etherm_core::{Session, SolverOptions};
use etherm_package::{build_model, BuildOptions, PackageGeometry};
use etherm_report::TextTable;

fn main() {
    let steps = arg_usize("steps", 25);
    let geometry = PackageGeometry::paper();

    println!("A1: lumped-element segmentation of the bonding wires\n");
    let mut t = TextTable::new(&[
        "segments",
        "extra DoFs",
        "E_hot endpoint [K]",
        "wire max (incl. interior) [K]",
        "interior excess [K]",
    ]);
    for segments in [1usize, 2, 4, 8] {
        let opts = BuildOptions {
            wire_segments: segments,
            ..BuildOptions::paper_fig7()
        };
        let mut opts = opts;
        opts.target_spacing_xy = 0.42e-3;
        opts.target_spacing_z = 0.22e-3;
        let built = build_model(&geometry, &opts).expect("build");
        let mut session = Session::new(built.compile(SolverOptions::fast()).expect("compile"));
        let sol = session.run_transient(50.0, steps, &[50.0]).expect("transient");
        let endpoint = sol.max_wire_series()[steps];

        // Interior hot spot: inspect the final snapshot through the layout.
        let (_, state) = &sol.snapshots[0];
        let mut wire_max = f64::NEG_INFINITY;
        for j in 0..12 {
            let topology = session.compiled().layout().topology(j);
            wire_max = wire_max.max(topology.max_temperature(state));
        }
        let extra = (segments - 1) * 12;
        t.add_row_owned(vec![
            format!("{segments}"),
            format!("{extra}"),
            format!("{endpoint:.2}"),
            format!("{wire_max:.2}"),
            format!("{:.2}", wire_max - endpoint),
        ]);
        eprintln!("  {segments} segment(s) done");
    }
    println!("{}", t.render());
    println!("expected: the endpoint QoI (the paper's Eq. 5) is insensitive to segmentation,");
    println!("while internal nodes expose the wire's mid-span excess temperature that the");
    println!("paper's two-terminal element cannot represent.");
}
