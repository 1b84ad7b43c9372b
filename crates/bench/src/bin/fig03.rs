//! **Fig. 3** — the X-ray measurement of the investigated chip.
//!
//! The physical photographs are replaced by the synthetic metrology model
//! (README, "Reproduction choices"): this binary prints the per-wire measurement record the
//! "X-ray" produces — direct distance `d`, misplacement `Δs`, bending `Δh`
//! (with the camera quirk hiding it for 6 of 12 wires), total length `L`
//! and relative elongation `δ`.

use etherm_bench::arg_usize;
use etherm_package::{PackageGeometry, XrayMetrology};
use etherm_report::TextTable;

fn main() {
    let seed = arg_usize("seed", 2016) as u64;
    let geometry = PackageGeometry::paper();
    let xray = XrayMetrology {
        seed,
        ..XrayMetrology::default()
    };
    let measurements = xray.measure(&geometry);

    println!("Fig. 3: synthetic X-ray metrology of the 12 bonding wires (seed {seed})");
    println!("(substitutes the paper's photographs; see README, \"Reproduction choices\")\n");
    let mut t = TextTable::new(&[
        "wire", "d [mm]", "ds [mm]", "dh true [mm]", "dh observed", "L [mm]", "delta",
    ]);
    for m in &measurements {
        t.add_row_owned(vec![
            format!("{}", m.wire_id),
            format!("{:.4}", m.direct * 1e3),
            format!("{:.4}", m.delta_s * 1e3),
            format!("{:.4}", m.delta_h_true * 1e3),
            match m.delta_h_observed {
                Some(v) => format!("{:.4}", v * 1e3),
                None => format!("hidden->{:.4}", m.delta_h_used * 1e3),
            },
            format!("{:.4}", m.length * 1e3),
            format!("{:.4}", m.delta_rel),
        ]);
    }
    println!("{}", t.render());

    let mean_l: f64 = measurements.iter().map(|m| m.length).sum::<f64>() / 12.0;
    let hidden = measurements
        .iter()
        .filter(|m| m.delta_h_observed.is_none())
        .count();
    println!("mean measured length: {:.4} mm (paper Table II: 1.55 mm)", mean_l * 1e3);
    println!("camera quirk: {hidden} of 12 wires have hidden dh, imputed with the mean of the visible 6 (paper §IV-B)");
}
