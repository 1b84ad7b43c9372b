//! **A11** — variance reduction vs the paper's plain Monte Carlo (Eq. 6).
//!
//! The hottest-wire temperature is monotone in each wire elongation
//! (longer wire → larger resistance → more self-heating), which is the
//! textbook case for *antithetic variates*: pairs `(u, 1 − u)` are
//! negatively correlated through the model, shrinking `σ_MC` at equal cost.
//!
//! Usage: `cargo run --release -p etherm-bench --bin variance_reduction --
//!         [--pairs N] [--steps S]`

use etherm_bench::{arg_usize, build_paper_package, flatten_wire_series, mc_sample_outputs};
use etherm_core::{Session, SolverOptions};
use etherm_package::paper_elongation_distribution;
use etherm_report::TextTable;
use etherm_uq::{antithetic, Distribution, RunningStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_WIRES: usize = 12;

fn main() {
    let n_pairs = arg_usize("pairs", 8);
    let steps = arg_usize("steps", 25);
    let delta_dist = paper_elongation_distribution();
    println!("A11: antithetic variates vs plain MC, {n_pairs} pairs, {steps} steps\n");

    let built = build_paper_package();
    let mut session = Session::new(built.compile(SolverOptions::fast()).expect("compile"));
    let scenario = built.elongation_scenario(50.0, steps, flatten_wire_series);
    let mut hottest_of = |u: &[f64]| -> f64 {
        let deltas: Vec<f64> = u
            .iter()
            .map(|&ui| {
                delta_dist
                    .quantile(ui.clamp(1e-12, 1.0 - 1e-12))
                    .min(0.9)
            })
            .collect();
        let outputs = mc_sample_outputs(&mut session, &scenario, &deltas);
        (0..N_WIRES)
            .map(|j| outputs[j * (steps + 1) + steps])
            .fold(f64::NEG_INFINITY, f64::max)
    };

    // Antithetic estimate (2·n_pairs model evaluations).
    let anti = antithetic(&mut hottest_of, N_WIRES, n_pairs, 77).expect("antithetic estimate");
    eprintln!("  antithetic done");

    // Plain MC at the same budget.
    let mut rng = StdRng::seed_from_u64(77);
    let mut plain = RunningStats::new();
    for s in 0..2 * n_pairs {
        let u: Vec<f64> = (0..N_WIRES).map(|_| rng.gen::<f64>()).collect();
        plain.push(hottest_of(&u));
        if (s + 1) % 4 == 0 {
            eprintln!("  plain MC {}/{}", s + 1, 2 * n_pairs);
        }
    }

    let mut t = TextTable::new(&["estimator", "mean [K]", "std error [K]", "evals"]);
    t.add_row_owned(vec![
        "plain MC (Eq. 6 baseline)".into(),
        format!("{:.3}", plain.mean()),
        format!("{:.4}", plain.mc_error()),
        format!("{}", 2 * n_pairs),
    ]);
    t.add_row_owned(vec![
        "antithetic pairs".into(),
        format!("{:.3}", anti.mean),
        format!("{:.4}", anti.std_error),
        format!("{}", anti.evaluations),
    ]);
    println!("{}", t.render());
    println!("Expectation: both means agree within error; the antithetic standard error is");
    println!("noticeably below the plain-MC σ/√M because the QoI is monotone in every δ_j.");
}
