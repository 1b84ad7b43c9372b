//! The Monte Carlo driver (paper §IV-C).
//!
//! Repeatedly solves a user-supplied model for random input sets and
//! accumulates per-output running statistics. Outputs are vectors (e.g. one
//! wire-temperature time series per wire, flattened), so a single run
//! yields every `E_j(t)`, `σ_j(t)` and the `σ/√M` error estimate of Eq. 6.

use crate::dist::Distribution;
use crate::sampling::SampleGenerator;
use crate::stats::RunningStats;

/// Options for [`run_monte_carlo`].
#[derive(Debug, Clone, Copy, Default)]
pub struct McOptions {
    /// Keep every per-sample output vector (needed for histograms /
    /// quantiles; costs `M × n_outputs` doubles).
    pub keep_samples: bool,
    /// Progress callback `(samples_done, total)`, invoked after each sample
    /// is accumulated, in sample order.
    pub progress: Option<fn(usize, usize)>,
}

/// Accumulated results of a Monte Carlo study.
#[derive(Debug, Clone)]
pub struct McResult {
    /// Per-output running statistics.
    pub outputs: Vec<RunningStats>,
    /// Number of samples evaluated.
    pub n_samples: usize,
    /// Raw inputs per sample (always kept; inputs are few).
    pub inputs: Vec<Vec<f64>>,
    /// Raw outputs per sample (only with [`McOptions::keep_samples`]).
    pub samples: Option<Vec<Vec<f64>>>,
}

impl McResult {
    /// Mean per output.
    pub fn means(&self) -> Vec<f64> {
        self.outputs.iter().map(RunningStats::mean).collect()
    }

    /// Sample standard deviation per output.
    pub fn std_devs(&self) -> Vec<f64> {
        self.outputs.iter().map(RunningStats::sample_std).collect()
    }

    /// Monte Carlo error `σ/√M` per output (paper Eq. 6).
    pub fn mc_errors(&self) -> Vec<f64> {
        self.outputs.iter().map(RunningStats::mc_error).collect()
    }

    /// Statistics of output `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn output(&self, k: usize) -> &RunningStats {
        &self.outputs[k]
    }

    /// Accumulates pre-computed, sample-ordered outputs (e.g. from
    /// `etherm_core::run_ensemble`) into an [`McResult`]. Statistics are
    /// pushed in sample order, so the result is bit-identical to
    /// [`run_monte_carlo`] evaluating the same outputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `outputs` differ in length or the output
    /// length changes between samples.
    pub fn from_ordered(
        inputs: Vec<Vec<f64>>,
        outputs: Vec<Vec<f64>>,
        options: McOptions,
    ) -> McResult {
        assert_eq!(inputs.len(), outputs.len(), "one output vector per sample");
        let n = outputs.len();
        let mut stats: Vec<RunningStats> = Vec::new();
        let mut samples = options.keep_samples.then(|| Vec::with_capacity(n));
        for y in outputs {
            if stats.is_empty() {
                stats = vec![RunningStats::new(); y.len()];
            }
            assert_eq!(
                y.len(),
                stats.len(),
                "model output length changed between samples"
            );
            for (stat, &v) in stats.iter_mut().zip(&y) {
                stat.push(v);
            }
            if let Some(s) = samples.as_mut() {
                s.push(y);
            }
        }
        McResult {
            outputs: stats,
            n_samples: n,
            inputs,
            samples,
        }
    }
}

/// Maps `n` points from `generator` through the `dists` quantiles
/// (inversion sampling) — the design-drawing step of [`run_monte_carlo`],
/// exposed so campaign engines can draw the same design and evaluate it
/// elsewhere (e.g. `etherm_core::run_ensemble`).
///
/// # Panics
///
/// Panics if `dists` is empty.
pub fn draw_samples(
    generator: &mut dyn SampleGenerator,
    dists: &[&dyn Distribution],
    n: usize,
) -> Vec<Vec<f64>> {
    assert!(!dists.is_empty(), "draw_samples: no input distributions");
    generator
        .generate(n, dists.len())
        .into_iter()
        .map(|u| {
            u.iter()
                .zip(dists)
                .map(|(&ui, dist)| dist.quantile(ui.clamp(1e-15, 1.0 - 1e-15)))
                .collect()
        })
        .collect()
}

/// Runs a Monte Carlo study: draws `n` points from `generator`, maps each
/// through the `dists` quantiles (inversion sampling) and evaluates
/// `model(sample_index, inputs) → outputs`.
///
/// The output length must be identical across samples.
///
/// # Errors
///
/// Propagates the first error returned by `model` (already-accumulated
/// statistics are discarded).
///
/// # Panics
///
/// Panics if `model` returns inconsistent output lengths, or `dists` is
/// empty.
///
/// # Example
///
/// ```
/// use etherm_uq::{run_monte_carlo, McOptions, MonteCarloSampler, Normal};
///
/// let delta = Normal::new(0.17, 0.048).unwrap();
/// let mut gen = MonteCarloSampler::new(7);
/// let dists: Vec<&dyn etherm_uq::Distribution> = vec![&delta, &delta];
/// let result = run_monte_carlo(
///     &mut gen,
///     &dists,
///     1000,
///     McOptions::default(),
///     |_i, x| Ok::<_, std::convert::Infallible>(vec![x[0] + x[1]]),
/// )
/// .unwrap();
/// assert!((result.means()[0] - 0.34).abs() < 0.01);
/// ```
pub fn run_monte_carlo<F, E>(
    generator: &mut dyn SampleGenerator,
    dists: &[&dyn Distribution],
    n: usize,
    options: McOptions,
    mut model: F,
) -> Result<McResult, E>
where
    F: FnMut(usize, &[f64]) -> Result<Vec<f64>, E>,
{
    assert!(!dists.is_empty(), "run_monte_carlo: no input distributions");
    let points = draw_samples(generator, dists, n);
    let mut outputs: Vec<RunningStats> = Vec::new();
    let mut inputs = Vec::with_capacity(n);
    let mut samples = if options.keep_samples {
        Some(Vec::with_capacity(n))
    } else {
        None
    };

    for (i, x) in points.into_iter().enumerate() {
        let y = model(i, &x)?;
        if outputs.is_empty() {
            outputs = vec![RunningStats::new(); y.len()];
        }
        assert_eq!(
            y.len(),
            outputs.len(),
            "model output length changed between samples"
        );
        for (stat, &v) in outputs.iter_mut().zip(&y) {
            stat.push(v);
        }
        inputs.push(x);
        if let Some(s) = samples.as_mut() {
            s.push(y);
        }
        if let Some(progress) = options.progress {
            progress(i + 1, n);
        }
    }

    Ok(McResult {
        outputs,
        n_samples: n,
        inputs,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Normal, Uniform};
    use crate::sampling::{Halton, LatinHypercube, MonteCarloSampler};

    #[test]
    fn estimates_linear_functional() {
        // E[3X + 2Y] with X ~ N(1, 0.5), Y ~ U[0, 2] → 3·1 + 2·1 = 5.
        let x = Normal::new(1.0, 0.5).unwrap();
        let y = Uniform::new(0.0, 2.0).unwrap();
        let dists: Vec<&dyn Distribution> = vec![&x, &y];
        let mut gen = MonteCarloSampler::new(3);
        let r = run_monte_carlo(&mut gen, &dists, 4000, McOptions::default(), |_, v| {
            Ok::<_, std::convert::Infallible>(vec![3.0 * v[0] + 2.0 * v[1]])
        })
        .unwrap();
        assert_eq!(r.n_samples, 4000);
        assert!((r.means()[0] - 5.0).abs() < 3.0 * r.mc_errors()[0] + 0.05);
        // Known variance: 9·0.25 + 4·(4/12) = 2.25 + 4/3.
        let want_std = (2.25f64 + 4.0 / 3.0).sqrt();
        assert!((r.std_devs()[0] - want_std).abs() < 0.1);
    }

    #[test]
    fn mc_error_shrinks_with_samples() {
        let x = Normal::new(0.0, 1.0).unwrap();
        let dists: Vec<&dyn Distribution> = vec![&x];
        let run = |n: usize| {
            let mut gen = MonteCarloSampler::new(11);
            run_monte_carlo(&mut gen, &dists, n, McOptions::default(), |_, v| {
                Ok::<_, std::convert::Infallible>(vec![v[0]])
            })
            .unwrap()
            .mc_errors()[0]
        };
        let e100 = run(100);
        let e10000 = run(10_000);
        // σ/√M: factor ~10 reduction.
        assert!(e10000 < e100 / 5.0, "{e100} vs {e10000}");
    }

    #[test]
    fn lhs_beats_mc_on_smooth_functional() {
        // Variance of the LHS estimate of E[sum of inputs] is far below MC.
        let x = Normal::new(0.0, 1.0).unwrap();
        let dists: Vec<&dyn Distribution> = vec![&x, &x, &x];
        let estimate = |gen: &mut dyn SampleGenerator, seed_shift: u64| -> f64 {
            let _ = seed_shift;
            run_monte_carlo(gen, &dists, 200, McOptions::default(), |_, v| {
                Ok::<_, std::convert::Infallible>(vec![v.iter().sum()])
            })
            .unwrap()
            .means()[0]
        };
        let mut mc_errs = Vec::new();
        let mut lhs_errs = Vec::new();
        for seed in 0..20 {
            let mut mc = MonteCarloSampler::new(seed);
            let mut lhs = LatinHypercube::new(seed);
            mc_errs.push(estimate(&mut mc, seed).abs());
            lhs_errs.push(estimate(&mut lhs, seed).abs());
        }
        let mc_rms: f64 =
            (mc_errs.iter().map(|e| e * e).sum::<f64>() / mc_errs.len() as f64).sqrt();
        let lhs_rms: f64 =
            (lhs_errs.iter().map(|e| e * e).sum::<f64>() / lhs_errs.len() as f64).sqrt();
        assert!(
            lhs_rms < 0.5 * mc_rms,
            "LHS rms {lhs_rms} not better than MC rms {mc_rms}"
        );
    }

    #[test]
    fn halton_integrates_smooth_function_accurately() {
        let u = Uniform::new(0.0, 1.0).unwrap();
        let dists: Vec<&dyn Distribution> = vec![&u, &u];
        let mut h = Halton::default();
        let r = run_monte_carlo(&mut h, &dists, 2000, McOptions::default(), |_, v| {
            Ok::<_, std::convert::Infallible>(vec![v[0] * v[1]])
        })
        .unwrap();
        // E[XY] = 1/4 for independent U(0,1).
        assert!((r.means()[0] - 0.25).abs() < 1e-3);
    }

    #[test]
    fn keeps_samples_when_requested() {
        let u = Uniform::new(0.0, 1.0).unwrap();
        let dists: Vec<&dyn Distribution> = vec![&u];
        let mut gen = MonteCarloSampler::new(1);
        let r = run_monte_carlo(
            &mut gen,
            &dists,
            10,
            McOptions { keep_samples: true, ..Default::default() },
            |i, v| Ok::<_, std::convert::Infallible>(vec![v[0], i as f64]),
        )
        .unwrap();
        let samples = r.samples.as_ref().unwrap();
        assert_eq!(samples.len(), 10);
        assert_eq!(samples[3][1], 3.0);
        assert_eq!(r.inputs.len(), 10);
        assert_eq!(r.output(1).count(), 10);
    }

    #[test]
    fn progress_is_ordered_and_serialized() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static LAST_DONE: AtomicUsize = AtomicUsize::new(0);
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        fn progress(done: usize, total: usize) {
            assert_eq!(total, 40);
            // Samples are accumulated in order: `done` never decreases.
            let prev = LAST_DONE.swap(done, Ordering::SeqCst);
            assert!(done >= prev, "progress went backwards: {prev} -> {done}");
            CALLS.fetch_add(1, Ordering::SeqCst);
        }
        let u = Uniform::new(0.0, 1.0).unwrap();
        let dists: Vec<&dyn Distribution> = vec![&u];
        let mut gen = MonteCarloSampler::new(5);
        let options = McOptions {
            progress: Some(progress),
            ..Default::default()
        };
        run_monte_carlo(&mut gen, &dists, 40, options, |_, v| {
            Ok::<_, std::convert::Infallible>(vec![v[0]])
        })
        .unwrap();
        assert_eq!(LAST_DONE.load(Ordering::SeqCst), 40);
        assert_eq!(CALLS.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn from_ordered_matches_serial_accumulation() {
        let u = Uniform::new(0.0, 1.0).unwrap();
        let dists: Vec<&dyn Distribution> = vec![&u, &u];
        let mut gen = MonteCarloSampler::new(9);
        let serial = run_monte_carlo(&mut gen, &dists, 200, McOptions::default(), |_, v| {
            Ok::<_, std::convert::Infallible>(vec![v[0] * v[1], v[0] + v[1]])
        })
        .unwrap();
        let mut gen = MonteCarloSampler::new(9);
        let inputs = draw_samples(&mut gen, &dists, 200);
        let outputs: Vec<Vec<f64>> = inputs
            .iter()
            .map(|v| vec![v[0] * v[1], v[0] + v[1]])
            .collect();
        let rebuilt = McResult::from_ordered(inputs, outputs, McOptions::default());
        assert_eq!(rebuilt.n_samples, serial.n_samples);
        assert_eq!(rebuilt.means(), serial.means());
        assert_eq!(rebuilt.std_devs(), serial.std_devs());
        assert_eq!(rebuilt.inputs, serial.inputs);
    }

    #[test]
    fn propagates_model_error() {
        let u = Uniform::new(0.0, 1.0).unwrap();
        let dists: Vec<&dyn Distribution> = vec![&u];
        let mut gen = MonteCarloSampler::new(1);
        let r = run_monte_carlo(&mut gen, &dists, 10, McOptions::default(), |i, _| {
            if i == 5 {
                Err("boom")
            } else {
                Ok(vec![0.0])
            }
        });
        assert_eq!(r.unwrap_err(), "boom");
    }
}
