//! **A5** — implicit-Euler time-step convergence (first order).
//!
//! Runs the nominal transient with successively halved step counts and
//! verifies `O(Δt)` convergence of the hottest-wire end temperature — the
//! consistency check for the paper's 51-point discretization.

use etherm_bench::build_paper_package;
use etherm_core::{Session, SolverOptions};
use etherm_report::TextTable;

fn main() {
    let built = build_paper_package();
    let step_counts = [10usize, 25, 50, 100, 200];

    println!("A5: implicit-Euler convergence of E_hot(50 s)\n");
    let mut results = Vec::new();
    let mut session = Session::new(built.compile(SolverOptions::fast()).expect("compile"));
    for &steps in &step_counts {
        session.reset();
        let sol = session.run_transient(50.0, steps, &[]).expect("transient");
        results.push((steps, sol.max_wire_series()[steps]));
        eprintln!("  {steps} steps done");
    }
    let reference = results.last().expect("ran").1;
    let mut t = TextTable::new(&["steps", "dt [s]", "E_hot(50s) [K]", "error vs finest [K]", "order"]);
    let mut prev_err: Option<f64> = None;
    for &(steps, e) in &results[..results.len() - 1] {
        let err = (e - reference).abs();
        let order = prev_err.map_or(String::from("-"), |p| {
            if err > 0.0 {
                format!("{:.2}", (p / err).log2())
            } else {
                "-".into()
            }
        });
        t.add_row_owned(vec![
            format!("{steps}"),
            format!("{:.2}", 50.0 / steps as f64),
            format!("{e:.3}"),
            format!("{err:.4}"),
            order,
        ]);
        prev_err = Some(err);
    }
    t.add_row_owned(vec![
        format!("{}", step_counts[step_counts.len() - 1]),
        format!("{:.2}", 50.0 / *step_counts.last().expect("nonempty") as f64),
        format!("{reference:.3}"),
        "reference".into(),
        "-".into(),
    ]);
    println!("{}", t.render());
    println!("halving dt should halve the error (order ≈ 1.0 between successive rows).");
    println!("the paper's 50 steps (dt = 1 s) are well inside the asymptotic regime.");
}
