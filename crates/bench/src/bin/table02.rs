//! **Table II** — simulation parameters, cross-checked against the built
//! package model (the table is not just printed: every row is verified
//! against what the solver will actually use).

use etherm_package::{build_model, BuildOptions, PackageGeometry, PaperParameters};
use etherm_report::TextTable;

fn main() {
    let p = PaperParameters::default();
    let geometry = PackageGeometry::paper();
    let built = build_model(&geometry, &BuildOptions::paper_fig7()).expect("package builds");

    // Cross-checks.
    let mean_len: f64 =
        built.nominal_lengths.iter().sum::<f64>() / built.nominal_lengths.len() as f64;
    let bc = built.model.thermal_boundary();
    let all_dirichlet_magnitudes_ok = built
        .model
        .electric_dirichlet()
        .iter()
        .all(|&(_, v)| (v.abs() - p.v_dc()).abs() < 1e-15);

    let mut t = TextTable::new(&["Parameter", "Paper", "Model", "ok"]);
    let mut row = |name: &str, paper: String, model: String, ok: bool| {
        t.add_row_owned(vec![name.into(), paper, model, if ok { "yes" } else { "NO" }.into()]);
    };
    row(
        "Bonding wire voltage V_bw",
        "40 mV".into(),
        format!("{:.0} mV (±{:.0} mV PEC)", p.wire_voltage * 1e3, p.v_dc() * 1e3),
        all_dirichlet_magnitudes_ok,
    );
    row("End time", "50 s".into(), format!("{} s", p.end_time), p.end_time == 50.0);
    row(
        "No. of time steps",
        "51 points".into(),
        format!("{} steps + t=0", p.n_steps()),
        p.n_steps() == 50,
    );
    row(
        "No. of MC samples",
        "1000".into(),
        format!("{}", p.n_mc_samples),
        p.n_mc_samples == 1000,
    );
    row(
        "Wires' diameter",
        "25.4 um".into(),
        format!("{:.1} um", built.model.wires()[0].wire.diameter() * 1e6),
        (built.model.wires()[0].wire.diameter() - 25.4e-6).abs() < 1e-12,
    );
    row(
        "Average wires' length",
        "1.55 mm".into(),
        format!("{:.4} mm (nominal, mu_delta = 0.17)", mean_len * 1e3),
        (mean_len - 1.55e-3).abs() < 1e-5,
    );
    row(
        "Ambient temperature",
        "300 K".into(),
        format!("{} K", built.model.ambient()),
        built.model.ambient() == 300.0,
    );
    row(
        "Heat transfer coefficient",
        "25 W/m2/K".into(),
        format!("{} W/m2/K", bc.heat_transfer_coefficient),
        bc.heat_transfer_coefficient == 25.0,
    );
    row(
        "Emissivity",
        "0.2475".into(),
        format!("{}", bc.emissivity),
        bc.emissivity == 0.2475,
    );
    println!("Table II: simulation parameters (paper vs built model)");
    println!("{}", t.render());
    println!(
        "12 wires on {} pads, {} PEC contact nodes, grid {} nodes.",
        geometry.n_pads(),
        built.model.electric_dirichlet().len(),
        built.model.grid().n_nodes()
    );
    println!(
        "calibrated environment (README, \"Reproduction choices\"): cooled-area fraction {}, \
         mold rho_c {:.1e} J/K/m3.",
        bc.area_scale,
        built.model.materials().get(0).rho_c()
    );
}
