//! Degradation and lifetime analysis: combine the coupled transient with
//! the critical-temperature criterion and the Arrhenius damage model — the
//! paper's "future research" direction of more sophisticated degradation
//! modeling, on top of the same simulation stack.
//!
//! Run with `cargo run --release --example lifetime_analysis -- [voltage_mV]`.

use etherm::bondwire::degradation::{assess_against_critical, ArrheniusDamage};
use etherm::bondwire::{BondWire, T_CRITICAL};
use etherm::core::{CompiledModel, ElectrothermalModel, Session, SolverOptions};
use etherm::fit::boundary::ThermalBoundary;
use etherm::grid::{BoxRegion, CellPaint, GridBuilder, MaterialId};
use etherm::materials::{library, MaterialTable};

fn build(v_mv: f64) -> Result<ElectrothermalModel, Box<dyn std::error::Error>> {
    let mold = BoxRegion::new((0.0, 0.0, 0.0), (2.0e-3, 0.5e-3, 0.25e-3));
    let pad_a = BoxRegion::new((0.0, 0.0, 0.0), (0.5e-3, 0.5e-3, 0.25e-3));
    let pad_b = BoxRegion::new((1.5e-3, 0.0, 0.0), (2.0e-3, 0.5e-3, 0.25e-3));
    let grid = GridBuilder::new()
        .with_box(&mold)
        .with_box(&pad_a)
        .with_box(&pad_b)
        .with_target_spacing(0.15e-3)
        .build()?;
    let mut paint = CellPaint::new(&grid, MaterialId(0));
    paint.paint(&grid, &pad_a, MaterialId(1));
    paint.paint(&grid, &pad_b, MaterialId(1));
    let mut materials = MaterialTable::new();
    materials.add(library::epoxy_resin());
    materials.add(library::copper());
    let mut model = ElectrothermalModel::new(grid, paint, materials)?;
    let wire = BondWire::new("w", 1.2e-3, 25.4e-6, library::copper())?;
    model.add_wire(wire, (0.5e-3, 0.25e-3, 0.25e-3), (1.5e-3, 0.25e-3, 0.25e-3))?;
    let left = model.grid().nodes_in_box((0.0, 0.0, 0.0), (0.0, 0.5e-3, 0.25e-3));
    let right = model
        .grid()
        .nodes_in_box((2.0e-3, 0.0, 0.0), (2.0e-3, 0.5e-3, 0.25e-3));
    model.set_electric_potential(&left, v_mv * 1e-3 / 2.0);
    model.set_electric_potential(&right, -v_mv * 1e-3 / 2.0);
    model.set_thermal_boundary(ThermalBoundary::paper_default());
    Ok(model)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let v_mv: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(40.0);

    println!("lifetime analysis of a single-wire package at V = {v_mv} mV\n");
    println!("voltage  T_end    margin    crossing    damage/50s      est. lifetime");
    for scale in [0.5, 1.0, 1.5, 2.0, 2.5] {
        let model = build(v_mv * scale)?;
        let mut session = Session::new(CompiledModel::compile(model, SolverOptions::fast())?);
        let sol = session.run_transient(50.0, 50, &[])?;
        let series = sol.wire_series(0);
        let assessment = assess_against_critical(&sol.times, series);
        let damage_model = ArrheniusDamage::default();
        let damage = damage_model.accumulate(&sol.times, series);
        let lifetime = damage_model
            .lifetime_at(*series.last().expect("series"))
            .map_or("inf".to_string(), |s| format!("{:.1} h", s / 3600.0));
        println!(
            "{:5.0}mV  {:6.1}K  {:+7.1}K  {:>9}  {:.3e}  {:>12}",
            v_mv * scale,
            assessment.peak_temperature,
            assessment.margin,
            assessment
                .first_crossing
                .map_or("never".to_string(), |t| format!("{t:.1} s")),
            damage,
            lifetime,
        );
    }
    println!("\ncritical temperature: {T_CRITICAL} K; damage = 1 means end of life;");
    println!("lifetime = steady-state Arrhenius extrapolation at the end temperature.");
    Ok(())
}
