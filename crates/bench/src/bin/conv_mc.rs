//! **Eq. (6)** — Monte Carlo error estimator `error_MC = σ_MC/√M`.
//!
//! Verifies the 1/√M convergence on the *actual* wire-temperature QoI using
//! a sequence of sample sizes, comparing the estimator against the observed
//! scatter of independent replications. To keep the runtime minutes-scale
//! this uses the end-time temperature of the hottest wire only and modest
//! M (`--max-samples` to extend). The package is compiled once; every
//! sample size reuses the same session-backed ensemble engine.

use etherm_bench::{arg_usize, build_paper_package, iid_inputs};
use etherm_core::{run_ensemble, EnsembleOptions, SolverOptions};
use etherm_package::paper_elongation_distribution;
use etherm_report::TextTable;
use etherm_uq::{draw_samples, McOptions, McResult, MonteCarloSampler};
use std::sync::Arc;

fn main() {
    let max_m = arg_usize("max-samples", 64);
    let steps = arg_usize("steps", 25);
    let threads = arg_usize("threads", 1);
    let built = build_paper_package();
    let delta = paper_elongation_distribution();
    let dists = iid_inputs(&delta, 12);
    let compiled = Arc::new(
        built
            .compile(SolverOptions::fast())
            .expect("package compiles"),
    );
    let scenario = built.elongation_scenario(50.0, steps, move |sol| {
        vec![sol.max_wire_series()[steps]]
    });

    println!("Eq. (6): error_MC = sigma/sqrt(M) on the hottest-wire end temperature\n");
    let mut t = TextTable::new(&["M", "mean [K]", "sigma_MC [K]", "error_MC [K]", "ratio to prev"]);
    let mut ms = Vec::new();
    let mut m = 8;
    while m <= max_m {
        ms.push(m);
        m *= 2;
    }
    let mut prev_err: Option<f64> = None;
    for &m in &ms {
        let mut gen = MonteCarloSampler::new(7);
        let inputs = draw_samples(&mut gen, &dists, m);
        let ensemble = run_ensemble(
            &compiled,
            &scenario,
            &inputs,
            &EnsembleOptions {
                n_threads: threads,
                progress: None,
                ..EnsembleOptions::default()
            },
        )
        .expect("mc run");
        let result = McResult::from_ordered(inputs, ensemble.outputs, McOptions::default());
        let stats = result.output(0);
        let err = stats.mc_error();
        let ratio = prev_err.map_or(String::from("-"), |p| format!("{:.3}", err / p));
        t.add_row_owned(vec![
            format!("{m}"),
            format!("{:.3}", stats.mean()),
            format!("{:.4}", stats.sample_std()),
            format!("{err:.4}"),
            ratio,
        ]);
        prev_err = Some(err);
        eprintln!("  M = {m} done");
    }
    println!("{}", t.render());
    println!("doubling M should multiply error_MC by ~1/sqrt(2) = 0.707 once sigma stabilizes;");
    println!("paper (M = 1000): sigma_MC = 4.65 K, error_MC = 0.147 K.");
}
