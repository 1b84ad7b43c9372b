//! Polynomial chaos study of a single bonding wire: propagate the paper's
//! elongation uncertainty `δ ~ N(0.17, 0.048)` through the analytic fin
//! model with a 1D Wiener–Hermite expansion and compare against plain
//! Monte Carlo — exponential vs `1/√M` convergence on the same problem —
//! then fit an error-controlled [`Surrogate`] on the same QoI and check
//! its cross-validated error estimate against the true error.
//!
//! Run with `cargo run --release --example pce_study`.

use etherm::bondwire::analytic::FinModel;
use etherm::bondwire::BondWire;
use etherm::materials::library;
use etherm::package::paper_elongation_distribution;
use etherm::uq::special::normal_quantile;
use etherm::uq::{fit_projection_1d, Distribution, RunningStats, Surrogate, SurrogateOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Peak steady temperature of a 25.4 µm copper wire of length `l` carrying
/// 0.45 A between 300 K pads (the analytic fin baseline of
/// `etherm_bondwire::analytic`).
///
/// The nominal wire is built once; each evaluation only re-parameterizes
/// its length — the same compile-once/run-many discipline as the field
/// solver's `Session`, at analytic-model scale.
fn peak_temperature(nominal: &BondWire, l: f64) -> Result<f64, Box<dyn std::error::Error>> {
    let mut fin = FinModel::new(nominal.with_length(l)?, 300.0, 300.0, 300.0, 25.0, 0.45);
    let (_, t_max) = fin.solve_self_consistent(1e-10, 200);
    Ok(t_max)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nominal = BondWire::new("w", 1.3e-3, 25.4e-6, library::copper())?;
    let delta = paper_elongation_distribution();
    let (mu, sd) = (delta.mean(), delta.std_dev());
    let d_direct = 1.3e-3; // direct pad–chip distance (m)
    let length_of = |dlt: f64| d_direct / (1.0 - dlt.min(0.9));

    println!("QoI: peak fin temperature of one wire, L = d/(1−δ), δ ~ N({mu}, {sd})\n");

    // Reference: high-order PCE (converged to quadrature accuracy).
    let reference = fit_projection_1d(
        |xi| peak_temperature(&nominal, length_of(mu + sd * xi)).expect("fin solves"),
        9,
        24,
    )?;
    println!(
        "reference (degree 9, 24-point Gauss–Hermite): mean = {:.4} K, std = {:.4} K\n",
        reference.mean(),
        reference.std_dev()
    );

    println!("PCE spectral convergence (n_quad = degree + 3 evaluations):");
    println!("{:>7} {:>14} {:>14} {:>10}", "degree", "mean [K]", "std [K]", "evals");
    for degree in [1usize, 2, 3, 4, 5] {
        let model = fit_projection_1d(
            |xi| peak_temperature(&nominal, length_of(mu + sd * xi)).expect("fin solves"),
            degree,
            degree + 3,
        )?;
        println!(
            "{:>7} {:>14.6} {:>14.6} {:>10}",
            degree,
            model.mean(),
            model.std_dev(),
            degree + 3
        );
    }

    println!("\nMonte Carlo convergence on the same QoI:");
    println!("{:>7} {:>14} {:>14} {:>10}", "M", "mean [K]", "std [K]", "|Δmean|");
    let mut rng = StdRng::seed_from_u64(1);
    for m in [16usize, 64, 256, 1024] {
        let mut stats = RunningStats::new();
        for _ in 0..m {
            let xi = normal_quantile(rng.gen::<f64>().clamp(1e-12, 1.0 - 1e-12));
            stats.push(peak_temperature(&nominal, length_of(mu + sd * xi))?);
        }
        println!(
            "{:>7} {:>14.6} {:>14.6} {:>10.2e}",
            m,
            stats.mean(),
            stats.sample_std(),
            (stats.mean() - reference.mean()).abs()
        );
    }

    // Surrogate fast path: a regression-fitted chaos with a held-out error
    // model. Serving decisions use `err(ξ)` only — the truth is evaluated
    // here purely to audit the estimate.
    let mut rng = StdRng::seed_from_u64(2);
    let design: Vec<Vec<f64>> = (0..48)
        .map(|_| vec![normal_quantile(rng.gen::<f64>().clamp(1e-12, 1.0 - 1e-12))])
        .collect();
    let mut responses = Vec::with_capacity(design.len());
    for p in &design {
        responses.push(peak_temperature(&nominal, length_of(mu + sd * p[0]))?);
    }
    let opts = SurrogateOptions {
        degree: 3,
        ..SurrogateOptions::default()
    };
    let surrogate = Surrogate::fit(&design, &responses, 1, opts)?;
    println!(
        "\nsurrogate fast path: degree 3 fit on {} solves, cv error = {:.2e} K",
        surrogate.n_samples(),
        surrogate.cv_error()
    );
    println!(
        "{:>7} {:>14} {:>14} {:>14} {:>8}",
        "xi", "pred [K]", "err est [K]", "true err [K]", "served?"
    );
    let tolerance = 1.5 * surrogate.cv_error();
    for z in [-2.5, -1.0, 0.0, 1.0, 2.5, 4.0] {
        let (pred, err) = surrogate.predict_with_error(&[z]);
        let truth = peak_temperature(&nominal, length_of(mu + sd * z))?;
        println!(
            "{:>7.1} {:>14.4} {:>14.2e} {:>14.2e} {:>8}",
            z,
            pred,
            err,
            (pred - truth).abs(),
            if err <= tolerance { "yes" } else { "no" }
        );
    }
    println!(
        "inside the design the estimate tracks the held-out residuals; at ξ = 4\n\
         (outside every training sample) it inflates like the first untracked\n\
         order and the serving tier would fall back to the full model instead."
    );

    println!("\nA degree-3 chaos (6 solves) already matches the reference to ~µK, while");
    println!("MC still wanders by ~0.1 K after 1024 solves — the 'other methods' the");
    println!("paper alludes to in §IV-C pay off whenever the QoI is smooth in δ.");
    Ok(())
}
