//! **A3** — boundary-condition ablation: adiabatic / convection-only /
//! convection + radiation.
//!
//! The paper's §V-D credits convection and radiation for the stationary
//! limit ("Thanks to convection and radiation at the chip's boundaries, a
//! stationary situation is observed after t ≈ 50 s"). This ablation shows
//! the transient under each boundary variant.

use etherm_bench::{arg_usize, build_paper_package};
use etherm_core::{Session, SolverOptions};
use etherm_fit::boundary::ThermalBoundary;
use etherm_grid::Face;
use etherm_package::builder::PAPER_FIG7_AREA_SCALE;
use etherm_report::TextTable;

fn main() {
    let steps = arg_usize("steps", 25);
    let scale = PAPER_FIG7_AREA_SCALE;
    let variants: Vec<(&str, ThermalBoundary)> = vec![
        ("adiabatic", ThermalBoundary::adiabatic()),
        ("convection only", {
            let mut b = ThermalBoundary::convective(25.0, 300.0);
            b.area_scale = scale;
            b
        }),
        ("convection + radiation (paper)", {
            let mut b = ThermalBoundary::paper_default();
            b.area_scale = scale;
            b
        }),
        ("top face only", {
            let mut b = ThermalBoundary::paper_default();
            b.faces = vec![Face::ZMax];
            b.area_scale = scale * 6.0_f64.min(1.0 / scale);
            b
        }),
    ];

    println!("A3: thermal boundary-condition ablation (E_hot over time)\n");
    let mut t = TextTable::new(&["boundary", "E(10s)", "E(30s)", "E(50s)", "dE/dt at 50s [K/s]"]);
    for (name, boundary) in variants {
        let mut built = build_paper_package();
        built.model.set_thermal_boundary(boundary);
        let sol = Session::new(built.compile(SolverOptions::fast()).expect("compile"))
            .run_transient(50.0, steps, &[])
            .expect("transient");
        let series = sol.max_wire_series();
        let i10 = steps * 10 / 50;
        let i30 = steps * 30 / 50;
        let slope = (series[steps] - series[steps - 1]) / (50.0 / steps as f64);
        t.add_row_owned(vec![
            name.into(),
            format!("{:.1}", series[i10]),
            format!("{:.1}", series[i30]),
            format!("{:.1}", series[steps]),
            format!("{slope:.2}"),
        ]);
        eprintln!("  {name} done");
    }
    println!("{}", t.render());
    println!("adiabatic: temperature keeps climbing (no stationary state, positive dE/dt);");
    println!("with convection(+radiation) the system settles — the paper's §V-D observation.");
    println!("radiation contributes a visible share at elevated temperatures (T^4 growth).");
}
