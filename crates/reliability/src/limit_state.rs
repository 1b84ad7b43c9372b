//! The limit-state abstraction and the estimator interface.
//!
//! Every estimator in this crate works in the **standard-normal space**
//! `U = (u₁ … u_d) ~ N(0, I)`: the physical uncertain parameters are
//! reached through the per-marginal isoprobabilistic transform
//! `xᵢ = Fᵢ⁻¹(Φ(uᵢ))` (`etherm_uq::Distribution::from_std_normal`). A
//! [`LimitState`] evaluates the scalar response `Y(u)` for a batch of
//! points; **failure is `Y ≥ threshold`**, matching the degradation
//! criterion `max_t maxⱼ T_bw,j ≥ T_critical`.
//!
//! The batch interface is what lets the engine-backed implementation
//! ([`crate::QoiLimitState`] over `etherm_core::FullSolve`) fan each batch
//! out over worker sessions while keeping results in sample order —
//! estimators stay deterministic for any worker count.

use crate::error::ReliabilityError;
use etherm_uq::special::normal_quantile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A scalar limit-state response over the standard-normal space; failure is
/// `Y ≥ threshold`.
pub trait LimitState {
    /// Input dimension `d`.
    fn dim(&self) -> usize;

    /// Failure threshold on the response.
    fn threshold(&self) -> f64;

    /// Evaluates the responses for a batch of standard-normal points,
    /// returned in batch order. `NaN` responses are treated as "not failed"
    /// by the estimators (they compare with `≥`), but indicate a broken
    /// model and should be avoided.
    ///
    /// # Errors
    ///
    /// Implementation-defined (solver failures, invalid parameters).
    fn evaluate(&mut self, points: &[Vec<f64>]) -> Result<Vec<f64>, ReliabilityError>;
}

/// Per-level diagnostics of an estimate. Plain Monte Carlo and importance
/// sampling report a single pseudo-level; subset simulation one entry per
/// threshold of its ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelStats {
    /// Threshold of this level (the final entry is the failure threshold).
    pub threshold: f64,
    /// Estimated conditional probability `P(Y ≥ threshold | previous)`.
    pub conditional_probability: f64,
    /// Accepted-transition fraction of the conditional-sampling chains
    /// (`NaN` for a direct-sampling level).
    pub acceptance_rate: f64,
    /// Au–Beck chain-correlation factor γ entering this level's CoV
    /// (`0` for a direct-sampling level).
    pub gamma: f64,
    /// Number of Markov chains (0 for a direct-sampling level).
    pub n_chains: usize,
    /// Samples of this level.
    pub n_samples: usize,
    /// `NaN` responses in this level's sample population — quarantined
    /// samples of an ensemble-backed limit state running under
    /// `FailurePolicy::Quarantine`. They count as "not failed".
    pub quarantined: usize,
}

/// A failure-probability estimate with its accuracy and cost.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureEstimate {
    /// Estimated failure probability `P(Y ≥ threshold)`.
    pub probability: f64,
    /// Coefficient of variation `δ = σ[p̂]/p̂` of the estimator
    /// (`∞` when no failure was observed).
    pub cov: f64,
    /// Limit-state evaluations spent (= transient solves for a
    /// simulator-backed state).
    pub n_evaluations: usize,
    /// Threshold ladder and per-level diagnostics.
    pub levels: Vec<LevelStats>,
    /// Total `NaN` responses over every evaluation of the run (quarantined
    /// samples, counted as "not failed"). A non-zero count means the
    /// estimate is biased low by at most `quarantined / n_evaluations` and
    /// the campaign should be inspected.
    pub quarantined: usize,
}

impl FailureEstimate {
    /// Standard error `σ[p̂] = p̂·δ`.
    pub fn std_error(&self) -> f64 {
        self.probability * self.cov
    }

    /// Whether two estimates agree within `k` combined standard errors
    /// (`|p₁ − p₂| ≤ k·√(σ₁² + σ₂²)`).
    pub fn agrees_with(&self, other: &FailureEstimate, k: f64) -> bool {
        let combined = (self.std_error().powi(2) + other.std_error().powi(2)).sqrt();
        (self.probability - other.probability).abs() <= k * combined
    }

    /// Plain-Monte-Carlo evaluations needed to reach this estimate's CoV at
    /// this probability: `N = (1 − p)/(p·δ²)` — the solve-budget yardstick
    /// of the efficiency gate.
    pub fn equivalent_mc_evaluations(&self) -> f64 {
        if self.probability <= 0.0 || !self.cov.is_finite() || self.cov <= 0.0 {
            return f64::INFINITY;
        }
        (1.0 - self.probability) / (self.probability * self.cov * self.cov)
    }
}

/// A failure-probability estimator over a [`LimitState`].
pub trait FailureEstimator {
    /// Short name for reports ("subset-simulation", "monte-carlo", …).
    fn name(&self) -> &'static str;

    /// Runs the estimator. Deterministic: a fixed seed yields bit-identical
    /// results for any batch-evaluation parallelism.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures and invalid options.
    fn estimate(
        &self,
        limit_state: &mut dyn LimitState,
    ) -> Result<FailureEstimate, ReliabilityError>;
}

/// Seeded standard-normal stream: inversion sampling through the Acklam
/// quantile, so every estimator draws from exactly one deterministic,
/// platform-independent source.
#[derive(Debug)]
pub(crate) struct StdNormal {
    rng: StdRng,
}

impl StdNormal {
    pub(crate) fn new(seed: u64) -> Self {
        StdNormal {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// One `N(0, 1)` variate.
    pub(crate) fn next(&mut self) -> f64 {
        normal_quantile(self.uniform())
    }

    /// One `U(0, 1)` variate, clamped away from the endpoints so quantile
    /// transforms stay finite.
    pub(crate) fn uniform(&mut self) -> f64 {
        self.rng.gen::<f64>().clamp(1e-16, 1.0 - 1e-16)
    }

    /// Fills a fresh `d`-dimensional standard-normal point.
    pub(crate) fn point(&mut self, d: usize) -> Vec<f64> {
        (0..d).map(|_| self.next()).collect()
    }
}

/// SplitMix64-style mixing of (seed, level, chain) into independent
/// deterministic substreams — chain RNGs never depend on scheduling.
pub(crate) fn substream(seed: u64, level: u64, chain: u64) -> u64 {
    let mut z = seed
        ^ level.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ chain.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_normal_stream_is_deterministic_and_standard() {
        let mut a = StdNormal::new(7);
        let mut b = StdNormal::new(7);
        let xs: Vec<f64> = (0..5000).map(|_| a.next()).collect();
        let ys: Vec<f64> = (0..5000).map(|_| b.next()).collect();
        assert_eq!(xs, ys);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
        assert!(xs.iter().all(|x| x.is_finite()));
        let p = a.point(3);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn substreams_differ() {
        let a = substream(1, 0, 0);
        assert_eq!(a, substream(1, 0, 0));
        assert_ne!(a, substream(1, 0, 1));
        assert_ne!(a, substream(1, 1, 0));
        assert_ne!(a, substream(2, 0, 0));
    }

    #[test]
    fn estimate_accessors() {
        let e = FailureEstimate {
            probability: 1e-3,
            cov: 0.2,
            n_evaluations: 1000,
            levels: vec![],
            quarantined: 0,
        };
        assert!((e.std_error() - 2e-4).abs() < 1e-18);
        // (1 - 1e-3)/(1e-3·0.04) ≈ 24 975.
        assert!((e.equivalent_mc_evaluations() - 24_975.0).abs() < 0.5);
        let f = FailureEstimate {
            probability: 1.1e-3,
            ..e.clone()
        };
        assert!(e.agrees_with(&f, 3.0));
        let g = FailureEstimate {
            probability: 1e-2,
            ..e.clone()
        };
        assert!(!e.agrees_with(&g, 3.0));
        let zero = FailureEstimate {
            probability: 0.0,
            cov: f64::INFINITY,
            n_evaluations: 10,
            levels: vec![],
            quarantined: 0,
        };
        assert_eq!(zero.equivalent_mc_evaluations(), f64::INFINITY);
    }
}
