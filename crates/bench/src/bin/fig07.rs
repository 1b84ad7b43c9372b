//! **Fig. 7** — expected temperature of the hottest bonding wire over time
//! with 6σ_MC error bars against the critical temperature `T_crit = 523 K`.
//!
//! Monte Carlo over the 12 wires' relative elongations
//! `δ ~ N(0.17, 0.048)` (paper §IV), `M = 1000` samples by default
//! (`--samples M` to override), implicit Euler with 50 steps to 50 s. Also
//! reports σ_MC, `error_MC = σ_MC/√M` (Eq. 6) and the first crossing of
//! `E + 6σ` with the critical temperature (paper: t ≈ 26 s).
//!
//! The campaign runs on the compile-once/run-many engine: the package model
//! is compiled once, every worker thread owns one `Session`, and samples
//! are merged in index order — so the statistics are bit-identical for any
//! `--threads`, and bit-identical to the historical rebuild-per-sample
//! driver with the same seed.

use etherm_bench::{
    arg_f64, arg_usize, arg_value, build_paper_package, flatten_wire_series, iid_inputs,
};
use etherm_bondwire::degradation::first_crossing;
use etherm_bondwire::T_CRITICAL;
use etherm_core::{run_ensemble, EnsembleOptions, SolverOptions};
use etherm_package::paper_elongation_distribution;
use etherm_report::svg::{SvgChart, SvgOptions};
use etherm_report::{ChartOptions, CsvWriter, LineChart};
use etherm_uq::{draw_samples, McOptions, McResult, MonteCarloSampler};
use std::sync::Arc;
use std::time::Instant;

fn progress(done: usize, total: usize) {
    if done.is_multiple_of(25) || done == total {
        eprintln!("  sample {done}/{total}");
    }
}

fn main() {
    let m = arg_usize("samples", 1000);
    let steps = arg_usize("steps", 50);
    let seed = arg_usize("seed", 2016) as u64;
    let threads = arg_usize("threads", 1);
    let t_end = 50.0;
    let n_times = steps + 1;
    let n_wires = 12;

    eprintln!("fig07: M = {m} samples, {steps} steps, seed {seed}, {threads} thread(s)");
    let built = build_paper_package();
    eprintln!(
        "package grid: {} nodes, {} wires",
        built.model.grid().n_nodes(),
        built.model.wires().len()
    );

    let delta = paper_elongation_distribution();
    let dists = iid_inputs(&delta, n_wires);
    let mut gen = MonteCarloSampler::new(seed);
    let inputs = draw_samples(&mut gen, &dists, m);

    let started = Instant::now();
    // Compile once; the ensemble engine reuses one session per worker.
    let compiled = Arc::new(
        built
            .compile(SolverOptions::fast())
            .expect("package compiles"),
    );
    let scenario = built.elongation_scenario(t_end, steps, flatten_wire_series);
    let ensemble = run_ensemble(
        &compiled,
        &scenario,
        &inputs,
        &EnsembleOptions {
            n_threads: threads,
            progress: Some(Arc::new(progress)),
            ..EnsembleOptions::default()
        },
    )
    .expect("monte carlo run");
    let result = McResult::from_ordered(inputs, ensemble.outputs, McOptions::default());
    eprintln!("MC finished in {:.1} s", started.elapsed().as_secs_f64());
    let c = ensemble.counters;
    eprintln!(
        "solver: {} CG iterations in {} solves, {} precond rebuilds / {} reuses",
        c.electrical_iterations + c.thermal_iterations,
        c.electrical_solves + c.thermal_solves,
        c.precond_rebuilds,
        c.precond_reuses
    );

    // Output index (j, i) = j*n_times + i.
    let means = result.means();
    let stds = result.std_devs();
    let times: Vec<f64> = (0..n_times).map(|i| t_end * i as f64 / steps as f64).collect();

    // E_j(t) per wire; E_max(t) = max_j E_j(t) (paper Eq. 7).
    let e_max: Vec<f64> = (0..n_times)
        .map(|i| {
            (0..n_wires)
                .map(|j| means[j * n_times + i])
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect();
    // Hottest wire at the end time.
    let j_hot = (0..n_wires)
        .max_by(|&a, &b| {
            means[a * n_times + steps]
                .partial_cmp(&means[b * n_times + steps])
                .expect("finite")
        })
        .expect("wires exist");
    let e_hot: Vec<f64> = (0..n_times).map(|i| means[j_hot * n_times + i]).collect();
    let s_hot: Vec<f64> = (0..n_times).map(|i| stds[j_hot * n_times + i]).collect();
    let sigma_mc = s_hot[steps];
    let error_mc = sigma_mc / (m as f64).sqrt();

    // Crossing of E + 6σ with the critical temperature.
    let upper: Vec<f64> = e_hot.iter().zip(&s_hot).map(|(e, s)| e + 6.0 * s).collect();
    let crossing = first_crossing(&times, &upper, T_CRITICAL);

    // ---- render -----------------------------------------------------------
    let mut chart = LineChart::new(ChartOptions {
        width: 70,
        height: 24,
        x_label: "time (s)".into(),
        y_label: "temperature (K), hottest wire, ±6σ_MC".into(),
    });
    let bars: Vec<f64> = s_hot.iter().map(|s| 6.0 * s).collect();
    chart.add_series_with_bars(&times, &e_hot, &bars, '*');
    chart.add_threshold(T_CRITICAL, "T_crit = 523 K");
    println!("{}", chart.render());

    println!("Fig. 7 reproduction (M = {m}, {steps} implicit-Euler steps to {t_end} s)");
    println!("  hottest wire: #{j_hot} (E_max at t = {t_end} s)");
    println!("  E_max(50 s)          = {:.2} K   (paper: just below 523 K)", e_max[steps]);
    println!("  sigma_MC(50 s)       = {sigma_mc:.3} K   (paper: 4.65 K)");
    println!("  error_MC = s/sqrt(M) = {error_mc:.3} K   (paper: 0.147 K)");
    match crossing {
        Some(t) => println!("  E+6sigma crosses T_crit at t = {t:.1} s  (paper: t > 26 s)"),
        None => println!("  E+6sigma never crosses T_crit  (paper: crossing for t > 26 s)"),
    }
    println!("  (shape check) E settles: E(30)/E(50) rel. rise = {:.3}",
        (e_hot[(30 * steps) / 50] - 300.0) / (e_hot[steps] - 300.0));

    // Per-wire summary: shortest wires must be the hottest.
    println!("\n  wire  L_nominal[mm]  E(50s)[K]  sigma[K]");
    for j in 0..n_wires {
        println!(
            "  {:4}  {:12.3}  {:9.2}  {:7.3}",
            j,
            built.nominal_lengths[j] * 1e3,
            means[j * n_times + steps],
            stds[j * n_times + steps]
        );
    }

    if let Some(path) = arg_value("csv") {
        let mut csv = CsvWriter::new();
        csv.add_column("t", &times);
        csv.add_column("E_hottest", &e_hot);
        csv.add_column("sigma_hottest", &s_hot);
        csv.add_column("E_max", &e_max);
        csv.write_to(std::path::Path::new(&path)).expect("write csv");
        eprintln!("wrote {path}");
    }
    if let Some(path) = arg_value("svg") {
        let mut svg = SvgChart::new(SvgOptions {
            x_label: "time (s)".into(),
            y_label: "temperature (K)".into(),
            title: format!("Fig. 7: hottest-wire E(t) ± 6σ_MC (M = {m})"),
            ..SvgOptions::default()
        });
        svg.add_series_with_bars(&times, &e_hot, &bars, "#0057b8", "E(t) hottest wire");
        svg.add_threshold(T_CRITICAL, "#d62728", "T_crit = 523 K");
        std::fs::write(&path, svg.render()).expect("write svg");
        eprintln!("wrote {path}");
    }
    let _ = arg_f64("unused", 0.0);
}
