//! **A10** — polynomial chaos vs Monte Carlo on the wire problem.
//!
//! The paper notes that "the application of other methods is
//! straightforward" (§IV-C). This experiment fits a Wiener–Hermite chaos
//! surrogate of the hottest-wire end temperature over the 12 iid elongation
//! germs by least-squares regression, and compares its analytic mean/std
//! against plain Monte Carlo at the same evaluation budget. The chaos
//! coefficients also yield per-wire Sobol' sensitivity indices for free.
//!
//! Usage: `cargo run --release -p etherm-bench --bin conv_pce --
//!         [--samples N] [--degree P] [--steps S]`

use etherm_bench::{arg_usize, build_paper_package, flatten_wire_series, mc_sample_outputs};
use etherm_core::{Session, SolverOptions};
use etherm_package::paper_elongation_distribution;
use etherm_report::TextTable;
use etherm_uq::special::normal_quantile;
use etherm_uq::{fit_regression, Distribution, MultiIndexSet, RunningStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_WIRES: usize = 12;

fn main() {
    let degree = arg_usize("degree", 1);
    let basis_size = MultiIndexSet::total_degree(N_WIRES, degree)
        .expect("basis")
        .len();
    // Oversample the regression ~3× for a stable fit.
    let n_fit = arg_usize("samples", 3 * basis_size.max(13));
    let steps = arg_usize("steps", 25);
    let delta_dist = paper_elongation_distribution();
    let (mu, sd) = (delta_dist.mean(), delta_dist.std_dev());

    println!("A10: PCE (degree {degree}, {basis_size} terms, {n_fit} fit samples) vs MC");
    println!("QoI: hottest-wire temperature at t = 50 s, {steps} implicit-Euler steps\n");

    let built = build_paper_package();
    let mut session = Session::new(built.compile(SolverOptions::fast()).expect("compile"));
    let scenario = built.elongation_scenario(50.0, steps, flatten_wire_series);
    let mut rng = StdRng::seed_from_u64(2016);
    let mut xi_samples: Vec<Vec<f64>> = Vec::with_capacity(n_fit);
    let mut responses: Vec<f64> = Vec::with_capacity(n_fit);
    let mut mc = RunningStats::new();
    for s in 0..n_fit {
        // Germ ξ ~ N(0, I₁₂) via inversion; δ_j = µ + σ ξ_j, kept < 1.
        let xi: Vec<f64> = (0..N_WIRES)
            .map(|_| normal_quantile(rng.gen::<f64>().clamp(1e-12, 1.0 - 1e-12)))
            .collect();
        let deltas: Vec<f64> = xi.iter().map(|&x| (mu + sd * x).min(0.9)).collect();
        let outputs = mc_sample_outputs(&mut session, &scenario, &deltas);
        // Hottest wire at the final time.
        let hottest = (0..N_WIRES)
            .map(|j| outputs[j * (steps + 1) + steps])
            .fold(f64::NEG_INFINITY, f64::max);
        xi_samples.push(xi);
        responses.push(hottest);
        mc.push(hottest);
        if (s + 1) % 10 == 0 {
            eprintln!("  sample {}/{n_fit}", s + 1);
        }
    }

    let model =
        fit_regression(&xi_samples, &responses, N_WIRES, degree).expect("PCE regression fits");

    let mut t = TextTable::new(&["estimator", "mean [K]", "std [K]", "evals"]);
    t.add_row_owned(vec![
        format!("Monte Carlo (same {n_fit} samples)"),
        format!("{:.3}", mc.mean()),
        format!("{:.3}", mc.sample_std()),
        format!("{n_fit}"),
    ]);
    t.add_row_owned(vec![
        format!("PCE degree {degree} (analytic moments)"),
        format!("{:.3}", model.mean()),
        format!("{:.3}", model.std_dev()),
        format!("{n_fit}"),
    ]);
    println!("{}", t.render());

    println!("Per-wire Sobol' indices from the chaos coefficients:");
    let mut s = TextTable::new(&["wire", "S_first", "S_total"]);
    let mut ranked: Vec<usize> = (0..N_WIRES).collect();
    ranked.sort_by(|&a, &b| model.sobol_total(b).total_cmp(&model.sobol_total(a)));
    for &j in &ranked {
        s.add_row_owned(vec![
            format!("{}", j + 1),
            format!("{:.4}", model.sobol_first(j)),
            format!("{:.4}", model.sobol_total(j)),
        ]);
    }
    println!("{}", s.render());
    println!("Expectation: the PCE mean/std match the MC estimates within the MC error,");
    println!("and the Sobol' ranking singles out the wires nearest the hot corner — the");
    println!("same wires Fig. 8 shows glowing.");
}
