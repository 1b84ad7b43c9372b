//! Subset simulation (Au & Beck 2001): rare-event probability estimation
//! by a ladder of adaptive intermediate thresholds.
//!
//! The failure probability factorizes over nested events
//! `P(Y ≥ b_m) = P(Y ≥ b₁) · Π P(Y ≥ b_{i+1} | Y ≥ b_i)`, with the
//! intermediate thresholds `b_i` chosen adaptively so every conditional
//! probability is ≈ `p0` (default 0.25). Level 0 is plain Monte Carlo;
//! each conditional level re-populates the failure domain with
//! **modified-Metropolis conditional-sampling** Markov chains started from
//! the previous level's seeds: each component moves by the correlated
//! proposal `ξ = ρ·u + √(1−ρ²)·z`, which leaves the N(0,1) marginal
//! exactly invariant (marginal acceptance ratio 1), and the whole
//! candidate is accepted iff its response stays above the current
//! threshold. A target probability of `1e-3` thus costs a handful of
//! levels × N evaluations instead of the ≫ 10⁵ plain MC draws the same
//! CoV would need.
//!
//! Determinism: level-0 draws come from one seeded stream; every chain owns
//! a [`substream`]-derived RNG keyed by `(seed, level, chain index)`, and
//! candidate batches are evaluated in chain order — the result is
//! bit-identical for a fixed seed regardless of how the batch evaluation is
//! parallelized (the ensemble engine merges in sample order).

use crate::error::ReliabilityError;
use crate::limit_state::{
    substream, FailureEstimate, FailureEstimator, LevelStats, LimitState, StdNormal,
};
use crate::montecarlo::checked_evaluate;

/// Subset-simulation estimator.
#[derive(Debug, Clone)]
pub struct SubsetSimulation {
    /// Samples per level `N` (level 0 and each conditional level).
    pub n_per_level: usize,
    /// Target conditional probability per level (`0 < p0 < 1`, default
    /// 0.25 — short chains keep the Au–Beck γ small); `round(N·p0)`
    /// samples seed the next level's chains.
    pub p0: f64,
    /// RNG seed.
    pub seed: u64,
    /// Correlation ρ of the component-wise conditional-sampling proposal
    /// `ξ = ρ·u + √(1−ρ²)·z` (default 0.8). Closer to 1 = smaller steps:
    /// higher domain acceptance but slower mixing.
    pub proposal_correlation: f64,
    /// Level budget: the event must be reachable within `p0^max_levels`
    /// (default 12 ⇒ probabilities down to ~6e-8 at p0 = 0.25).
    pub max_levels: usize,
}

impl SubsetSimulation {
    /// Standard configuration: `p0 = 0.25`, `ρ = 0.8`, 12 levels.
    pub fn new(n_per_level: usize, seed: u64) -> Self {
        SubsetSimulation {
            n_per_level,
            p0: 0.25,
            seed,
            proposal_correlation: 0.8,
            max_levels: 12,
        }
    }

    fn validate(&self) -> Result<usize, ReliabilityError> {
        if self.n_per_level < 10 {
            return Err(ReliabilityError::InvalidOptions(format!(
                "n_per_level = {} too small (need ≥ 10)",
                self.n_per_level
            )));
        }
        if !(self.p0 > 0.0 && self.p0 < 1.0) {
            return Err(ReliabilityError::InvalidOptions(format!(
                "p0 = {} outside (0, 1)",
                self.p0
            )));
        }
        if !(self.proposal_correlation > 0.0 && self.proposal_correlation < 1.0) {
            return Err(ReliabilityError::InvalidOptions(format!(
                "proposal_correlation = {} outside (0, 1)",
                self.proposal_correlation
            )));
        }
        let nc = ((self.n_per_level as f64 * self.p0).round() as usize).max(1);
        if nc >= self.n_per_level {
            return Err(ReliabilityError::InvalidOptions(format!(
                "p0 = {} keeps every sample as a seed",
                self.p0
            )));
        }
        Ok(nc)
    }
}

/// One Markov chain's states at a conditional level, in transition order
/// (first entry = seed).
struct Chain {
    points: Vec<Vec<f64>>,
    ys: Vec<f64>,
}

/// NaN-safe descending order on responses (NaN sorts last), ties broken by
/// index for determinism.
fn order_desc(ys: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ys.len()).collect();
    order.sort_by(|&a, &b| {
        let (ya, yb) = (ys[a], ys[b]);
        yb.partial_cmp(&ya)
            .unwrap_or_else(|| ya.is_nan().cmp(&yb.is_nan()))
            .then(a.cmp(&b))
    });
    order
}

/// Au–Beck chain-correlation factor γ of the indicator `Y ≥ b` over the
/// level's chains: `γ = 2 Σ_{k≥1} (1 − k·Nc/N)·R(k)/R(0)` with `R(k)` the
/// lag-`k` autocovariance along chains. Clamped to `≥ 0`; 0 when the
/// indicator is degenerate.
fn au_beck_gamma(chains: &[Chain], b: f64) -> f64 {
    let n: usize = chains.iter().map(|c| c.ys.len()).sum();
    if n == 0 {
        return 0.0;
    }
    let p = chains
        .iter()
        .flat_map(|c| c.ys.iter())
        .filter(|&&y| y >= b)
        .count() as f64
        / n as f64;
    let r0 = p * (1.0 - p);
    if r0 <= 0.0 {
        return 0.0;
    }
    let n_chains = chains.len();
    let max_len = chains.iter().map(|c| c.ys.len()).max().unwrap_or(0);
    let mut gamma = 0.0;
    for k in 1..max_len {
        let mut sum = 0.0;
        let mut count = 0usize;
        for chain in chains {
            let len = chain.ys.len();
            for j in 0..len.saturating_sub(k) {
                let a = (chain.ys[j] >= b) as usize as f64;
                let c = (chain.ys[j + k] >= b) as usize as f64;
                sum += a * c;
                count += 1;
            }
        }
        if count == 0 {
            break;
        }
        let rk = sum / count as f64 - p * p;
        gamma += 2.0 * (1.0 - (k * n_chains) as f64 / n as f64) * rk / r0;
    }
    gamma.max(0.0)
}

impl FailureEstimator for SubsetSimulation {
    fn name(&self) -> &'static str {
        "subset-simulation"
    }

    fn estimate(
        &self,
        limit_state: &mut dyn LimitState,
    ) -> Result<FailureEstimate, ReliabilityError> {
        let nc = self.validate()?;
        let n = self.n_per_level;
        let d = limit_state.dim();
        let threshold = limit_state.threshold();

        // Level 0: plain Monte Carlo.
        let mut draw = StdNormal::new(substream(self.seed, 0, u64::MAX));
        let points: Vec<Vec<f64>> = (0..n).map(|_| draw.point(d)).collect();
        let ys = checked_evaluate(limit_state, &points)?;
        let mut n_evaluations = n;
        // NaN responses over all evaluations — quarantined samples of an
        // ensemble-backed limit state; `≥` comparisons count them as "not
        // failed" everywhere below.
        let mut total_quarantined = ys.iter().filter(|y| y.is_nan()).count();
        // Current population, as chains (level 0 = one "chain" per sample:
        // independent draws carry no serial correlation, γ = 0).
        let mut chains: Vec<Chain> = points
            .into_iter()
            .zip(ys)
            .map(|(p, y)| Chain {
                points: vec![p],
                ys: vec![y],
            })
            .collect();

        let mut probability = 1.0;
        let mut cov_sq = 0.0;
        let mut levels = Vec::new();

        for level in 0..=self.max_levels {
            let flat_ys: Vec<f64> = chains.iter().flat_map(|c| c.ys.iter().copied()).collect();
            let order = order_desc(&flat_ys);
            let b_candidate = flat_ys[order[nc - 1]];
            let level_quarantined = flat_ys.iter().filter(|y| y.is_nan()).count();
            let n_fail = flat_ys.iter().filter(|&&y| y >= threshold).count();
            let direct = level == 0;
            let gamma = if direct {
                0.0
            } else {
                au_beck_gamma(&chains, b_candidate.min(threshold))
            };

            if b_candidate >= threshold {
                // Final level: estimate P(Y ≥ threshold | current domain).
                // The nc-th largest response is at or above the threshold,
                // so n_fail ≥ nc ≥ 1 here — p_l can never be zero.
                let p_l = n_fail as f64 / n as f64;
                probability *= p_l;
                cov_sq += (1.0 - p_l) / (n as f64 * p_l) * (1.0 + gamma);
                levels.push(LevelStats {
                    threshold,
                    conditional_probability: p_l,
                    acceptance_rate: levels
                        .last()
                        .map(|l: &LevelStats| l.acceptance_rate)
                        .filter(|_| !direct)
                        .unwrap_or(f64::NAN),
                    gamma,
                    n_chains: if direct { 0 } else { chains.len() },
                    n_samples: n,
                    quarantined: level_quarantined,
                });
                return Ok(FailureEstimate {
                    probability,
                    cov: cov_sq.sqrt(),
                    n_evaluations,
                    levels,
                    quarantined: total_quarantined,
                });
            }
            if level == self.max_levels {
                return Err(ReliabilityError::NotConverged(format!(
                    "threshold {threshold} not reached after {} levels (ladder at {b_candidate})",
                    self.max_levels
                )));
            }

            // Intermediate threshold: exactly nc seeds survive.
            let b = b_candidate;
            let p_cond = nc as f64 / n as f64;
            cov_sq += (1.0 - p_cond) / (n as f64 * p_cond) * (1.0 + gamma);

            // Chain lengths: distribute N states over nc chains.
            let base = n / nc;
            let extra = n % nc;
            // Seeds: the nc highest responses (deterministic tie-break).
            let flat_points: Vec<&Vec<f64>> = chains.iter().flat_map(|c| &c.points).collect();
            let mut new_chains: Vec<Chain> = order[..nc]
                .iter()
                .map(|&i| Chain {
                    points: vec![flat_points[i].clone()],
                    ys: vec![flat_ys[i]],
                })
                .collect();
            let target_len =
                |c: usize| -> usize { base + usize::from(c < extra) };
            let mut rngs: Vec<StdNormal> = (0..nc)
                .map(|c| StdNormal::new(substream(self.seed, level as u64 + 1, c as u64)))
                .collect();

            let mut proposed = 0usize;
            let mut accepted = 0usize;
            let max_len = base + usize::from(extra > 0);
            for step in 1..max_len {
                // Every still-growing chain proposes one candidate; both
                // passes below walk the chains in the same order, so batch
                // indices are sequential.
                let mut batch: Vec<Vec<f64>> = Vec::new();
                for (c, chain) in new_chains.iter().enumerate() {
                    if step >= target_len(c) {
                        continue;
                    }
                    proposed += 1;
                    let current = chain.points.last().expect("chain non-empty");
                    let rho = self.proposal_correlation;
                    let tangent = (1.0 - rho * rho).sqrt();
                    // Conditional-sampling proposal (the modern form of the
                    // modified-Metropolis component update): per component
                    // ξ = ρ·u + √(1−ρ²)·z leaves the N(0,1) marginal
                    // exactly invariant, so the marginal acceptance ratio
                    // is 1 and every component moves — the only rejection
                    // left is the limit-state domain check below, which
                    // keeps chain correlation (γ) far below the classic
                    // random-walk variant's.
                    let candidate: Vec<f64> = current
                        .iter()
                        .map(|&u| rho * u + tangent * rngs[c].next())
                        .collect();
                    batch.push(candidate);
                }
                let ys_cand = if batch.is_empty() {
                    Vec::new()
                } else {
                    n_evaluations += batch.len();
                    checked_evaluate(limit_state, &batch)?
                };
                total_quarantined += ys_cand.iter().filter(|y| y.is_nan()).count();
                let mut bi = 0usize;
                for (c, chain) in new_chains.iter_mut().enumerate() {
                    if step >= target_len(c) {
                        continue;
                    }
                    if ys_cand[bi] >= b {
                        chain.points.push(batch[bi].clone());
                        chain.ys.push(ys_cand[bi]);
                        accepted += 1;
                    } else {
                        // Domain-rejected: the chain repeats its state.
                        chain.points.push(chain.points.last().unwrap().clone());
                        chain.ys.push(*chain.ys.last().unwrap());
                    }
                    bi += 1;
                }
                debug_assert_eq!(bi, ys_cand.len());
            }
            debug_assert_eq!(
                new_chains.iter().map(|c| c.ys.len()).sum::<usize>(),
                n,
                "conditional level must re-populate exactly N samples"
            );
            levels.push(LevelStats {
                threshold: b,
                conditional_probability: p_cond,
                acceptance_rate: if proposed > 0 {
                    accepted as f64 / proposed as f64
                } else {
                    f64::NAN
                },
                gamma,
                n_chains: nc,
                n_samples: n,
                quarantined: level_quarantined,
            });
            probability *= p_cond;
            chains = new_chains;
        }
        unreachable!("loop returns or errors within max_levels + 1 iterations");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etherm_uq::special::normal_cdf;

    /// `Y(u) = Σ uᵢ/√d`: exactly standard normal, `P(Y ≥ β) = Φ(−β)`.
    struct LinearState {
        d: usize,
        beta: f64,
        evaluations: usize,
    }

    impl LimitState for LinearState {
        fn dim(&self) -> usize {
            self.d
        }
        fn threshold(&self) -> f64 {
            self.beta
        }
        fn evaluate(&mut self, points: &[Vec<f64>]) -> Result<Vec<f64>, ReliabilityError> {
            self.evaluations += points.len();
            Ok(points
                .iter()
                .map(|u| u.iter().sum::<f64>() / (self.d as f64).sqrt())
                .collect())
        }
    }

    fn exact_p(beta: f64) -> f64 {
        normal_cdf(-beta)
    }

    #[test]
    fn recovers_known_tail_probability_in_1d() {
        // β = 3 → p = 1.35e-3: far beyond what N = 1000 plain MC could see,
        // routine for 3–4 subset levels.
        let mut ls = LinearState {
            d: 1,
            beta: 3.0,
            evaluations: 0,
        };
        let ss = SubsetSimulation::new(1000, 42);
        let est = ss.estimate(&mut ls).unwrap();
        let p = exact_p(3.0);
        assert!(est.cov > 0.0 && est.cov < 0.6, "cov = {}", est.cov);
        assert!(
            (est.probability - p).abs() < 3.0 * p.max(est.probability) * est.cov,
            "estimate {} vs exact {p} (cov {})",
            est.probability,
            est.cov
        );
        assert!(est.levels.len() >= 3);
        assert_eq!(est.n_evaluations, ls.evaluations);
        // Ladder is increasing and ends at the threshold.
        for w in est.levels.windows(2) {
            assert!(w[1].threshold > w[0].threshold);
        }
        assert_eq!(est.levels.last().unwrap().threshold, 3.0);
        // Conditional levels report healthy chains.
        for l in &est.levels[1..est.levels.len() - 1] {
            assert!(l.acceptance_rate > 0.1 && l.acceptance_rate < 0.9);
            assert!(l.n_chains > 0);
        }
        // Far cheaper than the MC reference at equal CoV.
        assert!(est.equivalent_mc_evaluations() > 5.0 * est.n_evaluations as f64);
    }

    #[test]
    fn recovers_known_tail_probability_in_12d() {
        // The paper's dimensionality (12 iid elongations).
        let mut ls = LinearState {
            d: 12,
            beta: 2.7,
            evaluations: 0,
        };
        let ss = SubsetSimulation::new(1200, 7);
        let est = ss.estimate(&mut ls).unwrap();
        let p = exact_p(2.7);
        assert!(
            (est.probability - p).abs() < 3.0 * p.max(est.probability) * est.cov,
            "estimate {} vs exact {p} (cov {})",
            est.probability,
            est.cov
        );
    }

    #[test]
    fn bit_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut ls = LinearState {
                d: 3,
                beta: 2.5,
                evaluations: 0,
            };
            SubsetSimulation::new(300, seed).estimate(&mut ls).unwrap()
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a, b, "same seed must be bit-identical");
        let c = run(12);
        assert_ne!(a.probability, c.probability);
    }

    #[test]
    fn non_rare_event_finishes_at_level_zero() {
        let mut ls = LinearState {
            d: 2,
            beta: 0.5, // p ≈ 0.31
            evaluations: 0,
        };
        let est = SubsetSimulation::new(500, 3).estimate(&mut ls).unwrap();
        assert_eq!(est.levels.len(), 1);
        assert_eq!(est.n_evaluations, 500);
        let p = exact_p(0.5);
        assert!((est.probability - p).abs() < 3.0 * p * est.cov);
        assert_eq!(est.levels[0].gamma, 0.0);
        assert!(est.levels[0].acceptance_rate.is_nan());
    }

    #[test]
    fn level_budget_exhaustion_is_reported() {
        let mut ls = LinearState {
            d: 1,
            beta: 40.0, // p ~ 1e-350: unreachable
            evaluations: 0,
        };
        let ss = SubsetSimulation {
            max_levels: 3,
            ..SubsetSimulation::new(100, 5)
        };
        match ss.estimate(&mut ls) {
            Err(ReliabilityError::NotConverged(msg)) => {
                assert!(msg.contains("levels"), "{msg}")
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_options() {
        let mut ls = LinearState {
            d: 1,
            beta: 2.0,
            evaluations: 0,
        };
        for ss in [
            SubsetSimulation::new(5, 1),
            SubsetSimulation {
                p0: 1.5,
                ..SubsetSimulation::new(100, 1)
            },
            SubsetSimulation {
                p0: 0.999,
                ..SubsetSimulation::new(100, 1)
            },
            SubsetSimulation {
                proposal_correlation: 0.0,
                ..SubsetSimulation::new(100, 1)
            },
            SubsetSimulation {
                proposal_correlation: 1.0,
                ..SubsetSimulation::new(100, 1)
            },
        ] {
            assert!(matches!(
                ss.estimate(&mut ls),
                Err(ReliabilityError::InvalidOptions(_))
            ));
        }
    }

    #[test]
    fn order_desc_is_nan_safe_and_stable() {
        let ys = [1.0, f64::NAN, 3.0, 1.0, 2.0];
        let order = order_desc(&ys);
        assert_eq!(order, vec![2, 4, 0, 3, 1]);
    }
}
