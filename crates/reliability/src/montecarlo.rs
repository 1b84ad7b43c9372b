//! Direct-sampling baselines: plain Monte Carlo and mean-shift importance
//! sampling in the standard-normal space.

use crate::error::ReliabilityError;
use crate::limit_state::{
    FailureEstimate, FailureEstimator, LevelStats, LimitState, StdNormal,
};

/// Brute-force Monte Carlo on the indicator `Y ≥ threshold` — the unbiased
/// reference every other estimator is validated against. Needs
/// `O(1/(p·δ²))` evaluations for a CoV of `δ`, hence hopeless for the
/// paper's ≤ 1e-3 regime but exact in the limit.
#[derive(Debug, Clone)]
pub struct MonteCarloEstimator {
    /// Number of samples.
    pub n: usize,
    /// RNG seed (results are bit-reproducible per seed).
    pub seed: u64,
    /// Evaluation batch size (bounds peak memory of a batch; the estimate
    /// is independent of it).
    pub batch: usize,
}

impl MonteCarloEstimator {
    /// `n` samples under `seed`, evaluated in batches of 1024.
    pub fn new(n: usize, seed: u64) -> Self {
        MonteCarloEstimator {
            n,
            seed,
            batch: 1024,
        }
    }
}

impl FailureEstimator for MonteCarloEstimator {
    fn name(&self) -> &'static str {
        "monte-carlo"
    }

    fn estimate(
        &self,
        limit_state: &mut dyn LimitState,
    ) -> Result<FailureEstimate, ReliabilityError> {
        if self.n == 0 || self.batch == 0 {
            return Err(ReliabilityError::InvalidOptions(
                "monte carlo needs n ≥ 1 and batch ≥ 1".into(),
            ));
        }
        let d = limit_state.dim();
        let threshold = limit_state.threshold();
        let mut draw = StdNormal::new(self.seed);
        let mut failures = 0usize;
        let mut quarantined = 0usize;
        let mut remaining = self.n;
        while remaining > 0 {
            let m = remaining.min(self.batch);
            let points: Vec<Vec<f64>> = (0..m).map(|_| draw.point(d)).collect();
            let ys = checked_evaluate(limit_state, &points)?;
            failures += ys.iter().filter(|&&y| y >= threshold).count();
            quarantined += ys.iter().filter(|y| y.is_nan()).count();
            remaining -= m;
        }
        let p = failures as f64 / self.n as f64;
        let cov = if failures > 0 {
            ((1.0 - p) / (self.n as f64 * p)).sqrt()
        } else {
            f64::INFINITY
        };
        Ok(FailureEstimate {
            probability: p,
            cov,
            n_evaluations: self.n,
            levels: vec![LevelStats {
                threshold,
                conditional_probability: p,
                acceptance_rate: f64::NAN,
                gamma: 0.0,
                n_chains: 0,
                n_samples: self.n,
                quarantined,
            }],
            quarantined,
        })
    }
}

/// Mean-shift importance sampling: samples `U = shift + Z`, `Z ~ N(0, I)`,
/// and reweights by the exact density ratio
/// `w(u) = φ(u)/φ(u − shift) = exp(−uᵀ·shift + |shift|²/2)`. With a shift
/// toward the design point (e.g. from a pilot subset run or physical
/// insight: longer wires → hotter) the variance drops by orders of
/// magnitude over plain MC; a poor shift degrades gracefully toward it.
#[derive(Debug, Clone)]
pub struct ImportanceSamplingEstimator {
    /// Number of samples.
    pub n: usize,
    /// RNG seed.
    pub seed: u64,
    /// Mean shift in standard-normal space (length = limit-state dim).
    pub shift: Vec<f64>,
    /// Evaluation batch size.
    pub batch: usize,
}

impl ImportanceSamplingEstimator {
    /// `n` samples under `seed` with the given mean shift.
    pub fn new(n: usize, seed: u64, shift: Vec<f64>) -> Self {
        ImportanceSamplingEstimator {
            n,
            seed,
            shift,
            batch: 1024,
        }
    }
}

impl FailureEstimator for ImportanceSamplingEstimator {
    fn name(&self) -> &'static str {
        "importance-sampling"
    }

    fn estimate(
        &self,
        limit_state: &mut dyn LimitState,
    ) -> Result<FailureEstimate, ReliabilityError> {
        let d = limit_state.dim();
        if self.n == 0 || self.batch == 0 {
            return Err(ReliabilityError::InvalidOptions(
                "importance sampling needs n ≥ 1 and batch ≥ 1".into(),
            ));
        }
        if self.shift.len() != d {
            return Err(ReliabilityError::InvalidOptions(format!(
                "shift has dimension {}, limit state {d}",
                self.shift.len()
            )));
        }
        let threshold = limit_state.threshold();
        let shift_sq: f64 = self.shift.iter().map(|s| s * s).sum();
        let mut draw = StdNormal::new(self.seed);
        // Welford accumulation of the weighted indicator.
        let mut mean = 0.0f64;
        let mut m2 = 0.0f64;
        let mut count = 0usize;
        let mut failures = 0usize;
        let mut quarantined = 0usize;
        let mut remaining = self.n;
        while remaining > 0 {
            let m = remaining.min(self.batch);
            let points: Vec<Vec<f64>> = (0..m)
                .map(|_| {
                    (0..d)
                        .map(|k| self.shift[k] + draw.next())
                        .collect::<Vec<f64>>()
                })
                .collect();
            let ys = checked_evaluate(limit_state, &points)?;
            quarantined += ys.iter().filter(|y| y.is_nan()).count();
            for (u, &y) in points.iter().zip(&ys) {
                let failed = y >= threshold;
                failures += failed as usize;
                let w = if failed {
                    let dot: f64 = u.iter().zip(&self.shift).map(|(a, b)| a * b).sum();
                    (-dot + 0.5 * shift_sq).exp()
                } else {
                    0.0
                };
                count += 1;
                let delta = w - mean;
                mean += delta / count as f64;
                m2 += delta * (w - mean);
            }
            remaining -= m;
        }
        let p = mean;
        let var = m2 / (count.max(2) - 1) as f64;
        let cov = if p > 0.0 {
            (var / count as f64).sqrt() / p
        } else {
            f64::INFINITY
        };
        Ok(FailureEstimate {
            probability: p,
            cov,
            n_evaluations: self.n,
            levels: vec![LevelStats {
                threshold,
                conditional_probability: failures as f64 / self.n as f64,
                acceptance_rate: f64::NAN,
                gamma: 0.0,
                n_chains: 0,
                n_samples: self.n,
                quarantined,
            }],
            quarantined,
        })
    }
}

/// Evaluates a batch and validates the output length.
pub(crate) fn checked_evaluate(
    limit_state: &mut dyn LimitState,
    points: &[Vec<f64>],
) -> Result<Vec<f64>, ReliabilityError> {
    let ys = limit_state.evaluate(points)?;
    if ys.len() != points.len() {
        return Err(ReliabilityError::Evaluation(format!(
            "limit state returned {} responses for {} points",
            ys.len(),
            points.len()
        )));
    }
    Ok(ys)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Y(u) = u₀`, except every `stride`-th evaluation is quarantined
    /// (`NaN`).
    struct SpottyState {
        stride: usize,
        evaluated: usize,
    }

    impl LimitState for SpottyState {
        fn dim(&self) -> usize {
            1
        }
        fn threshold(&self) -> f64 {
            1.0
        }
        fn evaluate(&mut self, points: &[Vec<f64>]) -> Result<Vec<f64>, ReliabilityError> {
            Ok(points
                .iter()
                .map(|u| {
                    let k = self.evaluated;
                    self.evaluated += 1;
                    if k.is_multiple_of(self.stride) {
                        f64::NAN
                    } else {
                        u[0]
                    }
                })
                .collect())
        }
    }

    #[test]
    fn monte_carlo_counts_quarantined_responses() {
        let mut ls = SpottyState {
            stride: 10,
            evaluated: 0,
        };
        let est = MonteCarloEstimator::new(500, 3).estimate(&mut ls).unwrap();
        assert_eq!(est.quarantined, 50);
        assert_eq!(est.levels[0].quarantined, 50);
        assert_eq!(est.n_evaluations, 500);
        // NaN responses count as "not failed": p stays a valid probability.
        assert!(est.probability >= 0.0 && est.probability <= 1.0);
    }

    #[test]
    fn importance_sampling_counts_quarantined_responses() {
        let mut ls = SpottyState {
            stride: 25,
            evaluated: 0,
        };
        let est = ImportanceSamplingEstimator::new(500, 3, vec![1.0])
            .estimate(&mut ls)
            .unwrap();
        assert_eq!(est.quarantined, 20);
        assert_eq!(est.levels[0].quarantined, 20);
    }

    #[test]
    fn clean_runs_report_zero_quarantined() {
        let mut ls = SpottyState {
            stride: usize::MAX,
            evaluated: 1, // never hits k % stride == 0
        };
        let est = MonteCarloEstimator::new(100, 3).estimate(&mut ls).unwrap();
        assert_eq!(est.quarantined, 0);
    }
}
