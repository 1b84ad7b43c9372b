//! Rare-event reliability engine: failure probabilities for the coupled
//! electrothermal package under uncertain wire geometry.
//!
//! The source paper frames bonding-wire degradation as a threshold
//! question — does `max_t maxⱼ T_bw,j(t)` reach `T_critical = 523 K`, and
//! with what probability under the measured elongation scatter (a 6σ
//! framing, i.e. failure probabilities far below what brute-force Monte
//! Carlo over full transients can resolve)? This crate answers it with a
//! dedicated estimator stack over the compile-once/run-many session
//! machinery of `etherm_core`:
//!
//! * [`LimitState`] / [`FailureEstimator`] — the estimator interface in
//!   standard-normal space (per-marginal isoprobabilistic transforms from
//!   `etherm_uq::Distribution::from_std_normal`),
//! * [`SubsetSimulation`] — Au–Beck subset simulation: adaptive threshold
//!   ladder, modified-Metropolis conditional chains, Au–Beck CoV with
//!   chain-correlation factors; seeded and bit-deterministic for any
//!   worker count,
//! * [`MonteCarloEstimator`] / [`ImportanceSamplingEstimator`] — the
//!   direct-sampling baselines behind the same trait,
//! * [`find_critical_load`] — fusing-current search: bisection on the
//!   session drive scale for the largest load the package survives,
//!   cross-checkable against the Preece/Onderdonk rules in
//!   `etherm_bondwire::analytic`; [`find_critical_load_sampled`] sweeps it
//!   over a `Distribution`-valued degradation threshold for the fusing
//!   current as a random variable,
//! * [`QoiLimitState`] — the one binding of an estimator to the engine:
//!   standard-normal points go through the marginals into any
//!   `etherm_core::QoiEvaluator`, QoI 0 is the response. Over
//!   `etherm_core::FullSolve` every batch fans out over `run_ensemble`
//!   worker sessions; under `etherm_package::FailureScenario` each
//!   transient early-exits the moment the limit state is decided
//!   (`Session::run_transient_observed` + `ThresholdObserver`),
//! * [`train_surrogates`] / [`SurrogateWithFallback`] — the
//!   error-controlled surrogate fast path: per-QoI PCE surrogates fitted
//!   through the batched ensemble engine serve microsecond answers
//!   whenever their cross-validated error estimate is within tolerance and
//!   fall back to full transients otherwise (logging the points for
//!   active-learning refinement); behind [`QoiLimitState`] they screen any
//!   estimator's candidates, so full solves are reserved for
//!   near-threshold samples.

#![forbid(unsafe_code)]

mod error;
mod fusing;
mod limit_state;
mod montecarlo;
mod subset;
mod surrogate;

pub use error::ReliabilityError;
pub use fusing::{
    find_critical_load, find_critical_load_sampled, CriticalLoad, FusingSearchOptions,
    SampledCriticalLoad,
};
pub use limit_state::{FailureEstimate, FailureEstimator, LevelStats, LimitState};
pub use montecarlo::{ImportanceSamplingEstimator, MonteCarloEstimator};
pub use subset::SubsetSimulation;
pub use surrogate::{
    train_surrogates, QoiLimitState, SurrogateTrainingPlan, SurrogateWithFallback,
    TrainedSurrogate,
};
