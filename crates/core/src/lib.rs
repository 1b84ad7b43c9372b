//! Coupled transient electrothermal field–circuit solver with embedded
//! lumped bonding wires — the primary contribution of Casper et al.
//! (DATE 2016).
//!
//! The discrete system (paper Eqs. 3–4 extended by the wire stamps) is
//!
//! ```text
//! S̃ Mσ(T) S̃ᵀ Φ  +  Σⱼ Pⱼ G_el,j(T_bw,j) Pⱼᵀ Φ = 0
//! Mρc Ṫ + S̃ Mλ(T) S̃ᵀ T + Σⱼ Pⱼ G_th,j(T_bw,j) Pⱼᵀ T = Q(T, Φ)
//! ```
//!
//! with `Q = Q_el + Q_bnd + Q_bw`. Time is discretized by the implicit
//! Euler method with a fixed step (the paper: `Δt = 1 s`); each step is
//! solved by Picard (fixed-point) iteration with all temperature-dependent
//! coefficients lagged, which keeps every linear system symmetric positive
//! definite. A step whose Picard loop hits its iteration cap is accepted
//! and reported as not converged.
//!
//! Entry points:
//!
//! * [`ElectrothermalModel`] — geometry + materials + wires + boundary
//!   conditions,
//! * [`CompiledModel`] / [`Session`] — the one way to run a model:
//!   [`CompiledModel::compile`] derives the invariants once, a [`Session`]
//!   over it solves; [`Session::run_transient`] produces a
//!   [`TransientSolution`], [`Session::solve_stationary`] the steady state.
//!   A one-shot run is `Session::new(CompiledModel::compile(model, options)?)`;
//!   a parameter campaign opens one cheap session per worker and re-runs it
//!   with new parameters,
//! * [`ensemble`] — evaluate one compiled model for many parameter samples
//!   across threads with deterministic sample-order merging,
//! * [`QoiEvaluator`] / [`FullSolve`] — the batch QoI-evaluation seam the
//!   surrogate fast path plugs into: callers ask for QoI vectors and need
//!   not know whether a full transient or a surrogate answered,
//! * [`observer`] — in-run step observation with early exit and
//!   crossing-time bisection, the transient-side workhorse of the
//!   rare-event reliability engine,
//! * [`qoi`] — quantities of interest: per-wire temperatures `T_bw = XᵀT`,
//!   the hottest-wire envelope of Fig. 7, field slices for Fig. 8.

#![forbid(unsafe_code)]

mod assembly;
mod compiled;
pub mod ensemble;
mod error;
mod evaluator;
pub mod export;
mod layout;
mod model;
pub mod observer;
pub mod options;
pub mod qoi;
mod session;
mod solution;

pub use compiled::CompiledModel;
pub use ensemble::{
    run_ensemble, run_ensemble_batched, BatchScenario, EnsembleOptions, EnsembleResult,
    FailurePolicy, SampleFailure, Scenario,
};
pub use error::CoreError;
pub use evaluator::{FullSolve, QoiEvaluator};
pub use etherm_numerics::solvers::{Fault, FaultKind, FaultPlan};
pub use layout::DofLayout;
pub use model::{ElectrothermalModel, WireAttachment};
pub use observer::{
    ObservedTransient, ObserverAction, StepObserver, StepRecord, ThresholdObserver,
};
pub use options::{JouleScheme, PrecondKind, SolverOptions};
pub use session::{RecoveryLedger, Session, SolveCounters, StationaryResult, StepResult};
pub use solution::TransientSolution;
