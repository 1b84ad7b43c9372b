//! Uncertainty quantification: distributions, sampling designs, Monte Carlo
//! drivers and statistics (paper §IV).
//!
//! The paper quantifies the effect of uncertain bonding-wire elongations
//! `δ ~ N(0.17, 0.048)` by plain Monte Carlo with `M = 1000` samples and the
//! error estimator `error_MC = σ_MC/√M` (Eq. 6), noting that "the
//! application of other methods is straightforward" — hence this crate also
//! ships Latin Hypercube and Halton quasi-Monte Carlo designs for the A6
//! convergence ablation.
//!
//! * [`special`] — `erf`/`erfc`, normal pdf/cdf and the Acklam inverse
//!   normal CDF, implemented from scratch (no external stats crates),
//! * [`dist`] — [`Distribution`] trait with Normal, truncated Normal,
//!   Uniform and LogNormal,
//! * [`sampling`] — [`SampleGenerator`]: iid Monte Carlo, Latin Hypercube,
//!   Halton,
//! * [`stats`] — Welford running moments, histograms, normal fits,
//!   Kolmogorov–Smirnov goodness of fit,
//! * [`montecarlo`] — the sampling driver with per-output running stats and
//!   the `σ/√M` error estimate,
//! * [`sensitivity`] — correlation / standardized-regression screening and
//!   Saltelli variance-based Sobol' indices,
//! * [`pce`] — Wiener–Hermite polynomial chaos expansions (projection and
//!   regression) with analytic moments and Sobol' indices,
//! * [`surrogate`] — [`Surrogate`]: strict (un-ridged) PCE regression with a
//!   cross-validated error model and deterministic refit, the basis of the
//!   error-controlled fast-serving tier,
//! * [`variance_reduction`] — antithetic variates, control variates and
//!   stratified sampling on top of the same unit-hypercube designs.

#![forbid(unsafe_code)]

pub mod dist;
pub mod error;
pub mod montecarlo;
pub mod pce;
pub mod sampling;
pub mod sensitivity;
pub mod sobol;
pub mod sparse_grid;
pub mod special;
pub mod stats;
pub mod surrogate;
pub mod variance_reduction;

pub use dist::{Distribution, LogNormal, Normal, TruncatedNormal, Uniform};
pub use error::UqError;
pub use montecarlo::{draw_samples, run_monte_carlo, McOptions, McResult};
pub use pce::{
    fit_projection_1d, fit_regression, fit_regression_strict, fit_sparse_projection,
    fit_tensor_projection, MultiIndexSet, PceModel,
};
pub use sampling::{Halton, LatinHypercube, MonteCarloSampler, SampleGenerator};
pub use sensitivity::{sobol_saltelli, SobolIndices};
pub use sobol::Sobol;
pub use sparse_grid::SparseGrid;
pub use stats::{fit_normal, Histogram, RunningStats};
pub use surrogate::{Surrogate, SurrogateOptions};
pub use variance_reduction::{antithetic, control_variate, stratified, VrEstimate};
