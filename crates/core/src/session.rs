//! The per-run, mutable half of the solver: value-filled matrices, cached
//! preconditioners, workspaces and warm-start state.
//!
//! A [`Session`] is created from a shared [`CompiledModel`] and owns
//! everything that changes between (or during) runs: the sampled wire
//! parameters, the value-filled CSR matrices (over the compiled model's
//! frozen patterns), the lazily-refreshed preconditioners, the Krylov
//! workspaces and all scratch buffers. Creating a session never re-derives
//! anything structural — it clones the recorded stamping templates and
//! allocates buffers, which makes one session per worker thread cheap and
//! the per-sample cost of a campaign essentially the solve itself.
//!
//! Two reuse modes:
//!
//! * **exact** (default): call [`Session::reset`] between samples. Cached
//!   preconditioners are dropped and warm-start state cleared, so every run
//!   is *bit-identical* to a freshly constructed [`crate::Simulator`] on
//!   the same model — the mode used by the Fig. 7 reproduction, whose
//!   statistics must not move.
//! * **warm** ([`Session::set_warm_start`]): preconditioners are carried
//!   across samples (refreshed in place by the usual lazy policy) and every
//!   thermal CG solve is warm-started from the previous sample's solution
//!   at the same (step, Picard-iterate) position by transplanting its
//!   update increment. Warm starts and preconditioner state only change
//!   *iteration counts*; the converged physics agrees with the exact mode
//!   within the inner solver tolerance.

use crate::assembly::{self, CoeffBufs};
use crate::compiled::CompiledModel;
use crate::error::CoreError;
use crate::observer::{ObservedTransient, ObserverAction, StepObserver, StepRecord};
use crate::options::{JouleScheme, PrecondKind, RecoveryPolicy, SolverOptions};
use crate::solution::TransientSolution;
use etherm_bondwire::stamp::wire_joule_heat;
use etherm_fit::CachedStamper;
use etherm_numerics::solvers::{
    pcg_with, AmgOptions, AmgPrecond, AmgSmoother, CgOptions, FaultInjector, FaultPlan,
    FaultyLinOp, IdentityPrecond, IncompleteCholesky, JacobiPrecond, KrylovWorkspace,
    Preconditioner, SolveReport, Ssor,
};
use etherm_numerics::sparse::Csr;
use etherm_numerics::{vector, MultiVec, NumericsError};
use std::sync::Arc;

/// A cached preconditioner of the kind selected in
/// [`SolverOptions::preconditioner`], refreshable in place over the frozen
/// assembly pattern.
#[derive(Debug, Clone)]
pub(crate) enum CachedPrecond {
    Identity(IdentityPrecond),
    Jacobi(JacobiPrecond),
    Ic(IncompleteCholesky),
    Ssor(Ssor),
    Amg(Box<AmgPrecond>),
}

impl CachedPrecond {
    /// Builds a preconditioner of an explicit kind — the recovery ladder's
    /// downgrade rung builds a *different* kind than the configured one.
    pub(crate) fn build_kind(
        kind: PrecondKind,
        options: &SolverOptions,
        a: &Csr,
    ) -> Result<Self, NumericsError> {
        Ok(match kind {
            PrecondKind::None => CachedPrecond::Identity(IdentityPrecond::new(a.n_rows())),
            PrecondKind::Jacobi => CachedPrecond::Jacobi(JacobiPrecond::new(a)?),
            PrecondKind::Ic(level) => CachedPrecond::Ic(IncompleteCholesky::with_fill_drop(
                a,
                level,
                options.precond_droptol,
            )?),
            PrecondKind::Ssor(omega) => CachedPrecond::Ssor(Ssor::new(a, omega)?),
            PrecondKind::Amg { theta, omega } => CachedPrecond::Amg(Box::new(AmgPrecond::new(
                a,
                AmgOptions {
                    strength_theta: theta,
                    smoother: AmgSmoother::Ssor { omega, sweeps: 1 },
                    ..AmgOptions::default()
                },
            )?)),
        })
    }

    pub(crate) fn refresh(&mut self, a: &Csr) -> Result<(), NumericsError> {
        match self {
            CachedPrecond::Identity(_) => Ok(()),
            CachedPrecond::Jacobi(p) => p.refresh(a),
            CachedPrecond::Ic(p) => p.refresh(a),
            CachedPrecond::Ssor(p) => p.refresh(a),
            CachedPrecond::Amg(p) => p.refresh(a),
        }
    }

    /// Coarsest-level dimension of an AMG hierarchy (`None` otherwise).
    pub(crate) fn coarse_dim(&self) -> Option<usize> {
        match self {
            CachedPrecond::Amg(p) => Some(p.coarse_dim()),
            _ => None,
        }
    }
}

impl Preconditioner for CachedPrecond {
    fn dim(&self) -> usize {
        match self {
            CachedPrecond::Identity(p) => p.dim(),
            CachedPrecond::Jacobi(p) => p.dim(),
            CachedPrecond::Ic(p) => p.dim(),
            CachedPrecond::Ssor(p) => p.dim(),
            CachedPrecond::Amg(p) => p.dim(),
        }
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            CachedPrecond::Identity(p) => p.apply(r, z),
            CachedPrecond::Jacobi(p) => p.apply(r, z),
            CachedPrecond::Ic(p) => p.apply(r, z),
            CachedPrecond::Ssor(p) => p.apply(r, z),
            CachedPrecond::Amg(p) => p.apply(r, z),
        }
    }

    // Dispatch to each kind's fused panel kernel — the default would loop
    // the scalar `apply` and lose the one-traversal-per-panel batching.
    fn apply_block(&self, r: &MultiVec, z: &mut MultiVec) {
        match self {
            CachedPrecond::Identity(p) => p.apply_block(r, z),
            CachedPrecond::Jacobi(p) => p.apply_block(r, z),
            CachedPrecond::Ic(p) => p.apply_block(r, z),
            CachedPrecond::Ssor(p) => p.apply_block(r, z),
            CachedPrecond::Amg(p) => p.apply_block(r, z),
        }
    }
}

/// Per-subsystem solver state: the cached preconditioner, the Krylov
/// workspace, and the bookkeeping driving the lazy refresh policy.
#[derive(Debug, Clone, Default)]
struct SubsystemCache {
    precond: Option<CachedPrecond>,
    ws: KrylovWorkspace,
    /// CG iterations of the first solve after the last (re)build — the
    /// reference for the degradation trigger.
    baseline_iters: Option<usize>,
    /// Solves since the last (re)build.
    reuses: usize,
    /// How many times the recovery ladder has downgraded this subsystem's
    /// preconditioner kind (`0` = the configured kind). Sticky until
    /// [`SubsystemCache::clear`].
    fallback_level: usize,
    /// The CG initial guess saved at solve entry: retry rungs restart from
    /// it so a failed attempt cannot leak NaN contamination into the next.
    guess_backup: Vec<f64>,
}

impl SubsystemCache {
    fn mark_rebuilt(&mut self) {
        self.baseline_iters = None;
        self.reuses = 0;
    }

    /// Drops the cached preconditioner (exact-mode reset): the next solve
    /// rebuilds from scratch, exactly like a fresh simulator. Also forgets
    /// any recovery downgrade of the preconditioner kind.
    fn clear(&mut self) {
        self.precond = None;
        self.fallback_level = 0;
        self.guess_backup.clear();
        self.mark_rebuilt();
    }
}

/// The downgrade ladder of the recovery policy: each kind's next cheaper,
/// more robust fallback (`None` = bottom of the ladder).
fn next_fallback(kind: PrecondKind) -> Option<PrecondKind> {
    match kind {
        PrecondKind::Amg { .. } => Some(PrecondKind::Ic(1)),
        PrecondKind::Ic(_) | PrecondKind::Ssor(_) => Some(PrecondKind::Jacobi),
        PrecondKind::Jacobi | PrecondKind::None => None,
    }
}

/// The preconditioner kind after `fallback_level` downgrades of the
/// configured kind.
fn effective_kind(options: &SolverOptions, fallback_level: usize) -> PrecondKind {
    let mut kind = options.preconditioner;
    for _ in 0..fallback_level {
        match next_fallback(kind) {
            Some(next) => kind = next,
            None => break,
        }
    }
    kind
}

/// Scratch buffers reused across Picard iterates and time steps: the
/// per-iterate material averaging, heat sources and reduced unknowns run
/// allocation-free after the first iterate.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Material-coefficient buffers (cell temperatures, σ/λ, edge diagonals).
    coeff: CoeffBufs,
    /// Heat sources, full numbering (W per DoF).
    q: Vec<f64>,
    /// Reduced unknowns of the current linear solve.
    x_red: Vec<f64>,
    /// Joule power per wire (W), refreshed every heat-source evaluation.
    wire_powers: Vec<f64>,
    /// Lagged Picard temperature (full numbering).
    t_star: Vec<f64>,
    /// Next Picard temperature (full numbering).
    t_new: Vec<f64>,
    /// Start state of the previous transient step (for the extrapolated CG
    /// initial guess of the first thermal solve of a step).
    t_hist: Vec<f64>,
    /// Extrapolated CG initial guess `2·t_prev − t_hist`.
    t_guess: Vec<f64>,
    /// Step size of the previous transient step (predictor validity check).
    last_dt: f64,
}

/// Warm-start state: the reduced thermal solutions of the previous and the
/// current run, indexed `[step − 1][picard_iterate − 1]`.
#[derive(Debug, Clone, Default)]
struct WarmState {
    enabled: bool,
    traj_prev: Vec<Vec<Vec<f64>>>,
    traj_cur: Vec<Vec<Vec<f64>>>,
}

/// The three independently cached linear subsystems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Subsystem {
    Electrical,
    ThermalTransient,
    ThermalStationary,
}

impl Subsystem {
    fn name(self) -> &'static str {
        match self {
            Subsystem::Electrical => "electrical",
            Subsystem::ThermalTransient | Subsystem::ThermalStationary => "thermal",
        }
    }
}

/// Result of one implicit-Euler step.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Full temperature vector after the step (K).
    pub temperature: Vec<f64>,
    /// Full potential vector at the end of the step (V).
    pub potential: Vec<f64>,
    /// Picard iterations used.
    pub picard_iterations: usize,
    /// Inner CG iterations used (electrical + thermal).
    pub linear_iterations: usize,
    /// Whether the Picard loop met its tolerance.
    pub converged: bool,
    /// Joule power per wire (W).
    pub wire_powers: Vec<f64>,
    /// Total field Joule power (W).
    pub field_power: f64,
}

/// Result of a stationary (steady-state) solve.
#[derive(Debug, Clone)]
pub struct StationaryResult {
    /// Full temperature vector (K).
    pub temperature: Vec<f64>,
    /// Full potential vector (V).
    pub potential: Vec<f64>,
    /// Picard iterations used.
    pub picard_iterations: usize,
    /// Whether the outer iteration converged.
    pub converged: bool,
    /// Joule power per wire (W).
    pub wire_powers: Vec<f64>,
    /// Total field Joule power (W).
    pub field_power: f64,
}

/// What the recovery ladder did during a run: every escalation is counted,
/// so a campaign can tell *degraded-but-recovered* samples from clean ones.
/// All-zero means no rung ever fired — the solve path was identical to a
/// session with recovery disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryLedger {
    /// Plain same-configuration solve retries.
    pub solve_retries: usize,
    /// Preconditioner refreshes forced by a failing solve.
    pub forced_refreshes: usize,
    /// Preconditioner-kind downgrades (`Amg` → `Ic(1)` → `Jacobi`).
    pub precond_fallbacks: usize,
    /// Transient steps redone as two half-size sub-steps.
    pub dt_halvings: usize,
    /// Solves that failed at least once but succeeded after escalation.
    pub recovered_solves: usize,
    /// Steps that failed at least once but succeeded after `dt`-halving.
    pub recovered_steps: usize,
}

impl RecoveryLedger {
    /// Accumulates `other` into `self` (sums all rung counts).
    pub fn merge(&mut self, other: &RecoveryLedger) {
        self.solve_retries += other.solve_retries;
        self.forced_refreshes += other.forced_refreshes;
        self.precond_fallbacks += other.precond_fallbacks;
        self.dt_halvings += other.dt_halvings;
        self.recovered_solves += other.recovered_solves;
        self.recovered_steps += other.recovered_steps;
    }

    /// Whether any rung fired.
    pub fn any(&self) -> bool {
        *self != RecoveryLedger::default()
    }
}

/// Cumulative iteration counters per subsystem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveCounters {
    /// CG iterations spent in electrical solves.
    pub electrical_iterations: usize,
    /// Number of electrical solves.
    pub electrical_solves: usize,
    /// CG iterations spent in thermal solves.
    pub thermal_iterations: usize,
    /// Number of thermal solves.
    pub thermal_solves: usize,
    /// Outer Picard iterations (all steps and stationary solves).
    pub picard_iterations: usize,
    /// Preconditioner (re)builds and in-place refreshes, all subsystems.
    pub precond_rebuilds: usize,
    /// Solves that reused a cached preconditioner unchanged.
    pub precond_reuses: usize,
    /// Largest coarsest-level dimension any AMG hierarchy reached (0 when
    /// no AMG preconditioner was built).
    pub peak_coarse_dim: usize,
    /// What the recovery ladder did (all-zero on clean runs).
    pub recovery: RecoveryLedger,
}

impl SolveCounters {
    /// Accumulates `other` into `self` (sums; `peak_coarse_dim` takes the
    /// maximum). Used by the ensemble engine to merge per-worker counters.
    pub fn merge(&mut self, other: &SolveCounters) {
        self.electrical_iterations += other.electrical_iterations;
        self.electrical_solves += other.electrical_solves;
        self.thermal_iterations += other.thermal_iterations;
        self.thermal_solves += other.thermal_solves;
        self.picard_iterations += other.picard_iterations;
        self.precond_rebuilds += other.precond_rebuilds;
        self.precond_reuses += other.precond_reuses;
        self.peak_coarse_dim = self.peak_coarse_dim.max(other.peak_coarse_dim);
        self.recovery.merge(&other.recovery);
    }
}

/// Per-run solver state over a shared [`CompiledModel`].
///
/// All solve entry points take `&mut self`; a session is single-threaded by
/// construction (spawn one per worker). See the module docs for the
/// exact-vs-warm reuse contract.
#[derive(Debug, Clone)]
pub struct Session {
    compiled: Arc<CompiledModel>,
    /// Per-run wire state: starts at the compiled model's nominal wires,
    /// mutated by [`Session::set_wire_length`] between runs.
    wires: Vec<crate::model::WireAttachment>,
    /// Per-run electric drive scale (1.0 = the model's nominal Dirichlet
    /// potentials). See [`Session::set_drive_scale`].
    drive_scale: f64,
    /// Full heat-capacity diagonal: frozen grid part + current wire
    /// capacities.
    mass_diag: Vec<f64>,
    /// Value-filled assemblies over the compiled frozen patterns.
    elec_stamper: Option<CachedStamper>,
    therm_stamper: CachedStamper,
    therm_stationary_stamper: CachedStamper,
    /// Per-subsystem cached preconditioner + Krylov workspace.
    elec_solver: SubsystemCache,
    therm_solver: SubsystemCache,
    therm_stationary_solver: SubsystemCache,
    scratch: Scratch,
    counters: SolveCounters,
    warm: WarmState,
    /// Deterministic fault injection for resilience testing
    /// ([`Session::set_fault_plan`]); `None` on the production path.
    fault: Option<FaultInjector>,
    /// Krylov iterations spent in the current run, charged against
    /// [`RecoveryPolicy::linear_iteration_budget`].
    budget_spent: usize,
    /// Per-session override of the compiled options'
    /// [`RecoveryPolicy::linear_iteration_budget`]
    /// ([`Session::set_iteration_budget`]): a serving front end assigns
    /// budgets per request class without recompiling the shared model.
    /// `None` defers to the compiled options; `Some(0)` means unlimited.
    budget_override: Option<usize>,
}

impl Session {
    /// Creates a session over the compiled model: clones the recorded
    /// stamping templates and the nominal wires; no structural work.
    pub fn new(compiled: Arc<CompiledModel>) -> Self {
        let wires = compiled.model().wires().to_vec();
        let mass_diag = compiled.mass_diag_for(&wires);
        let elec_stamper = compiled.elec_template().cloned();
        let therm_stamper = compiled.therm_template().clone();
        let therm_stationary_stamper = compiled.therm_stationary_template().clone();
        Session {
            compiled,
            wires,
            drive_scale: 1.0,
            mass_diag,
            elec_stamper,
            therm_stamper,
            therm_stationary_stamper,
            elec_solver: SubsystemCache::default(),
            therm_solver: SubsystemCache::default(),
            therm_stationary_solver: SubsystemCache::default(),
            scratch: Scratch::default(),
            counters: SolveCounters::default(),
            warm: WarmState::default(),
            fault: None,
            budget_spent: 0,
            budget_override: None,
        }
    }

    /// The shared compiled model.
    pub fn compiled(&self) -> &Arc<CompiledModel> {
        &self.compiled
    }

    /// The solver options in use.
    pub fn options(&self) -> &SolverOptions {
        self.compiled.options()
    }

    /// The current per-run wires (sampled lengths).
    pub fn wires(&self) -> &[crate::model::WireAttachment] {
        &self.wires
    }

    /// Snapshot of the cumulative per-system iteration counters.
    pub fn counters(&self) -> SolveCounters {
        self.counters
    }

    /// Clears the cumulative counters (e.g. between benchmark configs).
    pub fn reset_counters(&mut self) {
        self.counters = SolveCounters::default();
    }

    /// Snapshot of the cumulative recovery-ladder ledger — the health
    /// signal a serving front end sheds load on. Equivalent to
    /// `counters().recovery`, published directly so monitoring code does
    /// not depend on the full counter layout.
    pub fn recovery_ledger(&self) -> RecoveryLedger {
        self.counters.recovery
    }

    /// Overrides the compiled options'
    /// [`RecoveryPolicy::linear_iteration_budget`] for this session only:
    /// subsequent runs abort with [`CoreError::BudgetExhausted`] once their
    /// spent Krylov iterations reach `budget`. `Some(0)` disables the cap;
    /// `None` restores the compiled options' budget. The override is a
    /// session *parameter* like the wire lengths — it survives
    /// [`Session::reset`] — so a pool can assign budgets per request class
    /// over one shared [`CompiledModel`].
    pub fn set_iteration_budget(&mut self, budget: Option<usize>) {
        self.budget_override = budget;
    }

    /// The effective per-run Krylov iteration budget (`0` = unlimited):
    /// the [`Session::set_iteration_budget`] override when set, otherwise
    /// the compiled options' budget.
    pub fn iteration_budget(&self) -> usize {
        self.budget_override
            .unwrap_or(self.compiled.options().recovery.linear_iteration_budget)
    }

    /// Enables or disables warm-starting across runs (default: off). See
    /// the module docs: warm mode trades bit-reproducibility against a
    /// rebuild-per-sample reference for fewer CG iterations; the physics
    /// stays within the inner solver tolerance.
    ///
    /// Memory: warm mode records the reduced thermal solution of every
    /// transient solve and keeps the previous *and* current run's
    /// trajectories — `2 · n_steps · Picard-iterates · n_reduced` doubles
    /// per session (≈ 2 × 21 MB on the paper package at 50 steps × 6
    /// iterates), multiplied by the worker count in an ensemble. Disabling
    /// warm start frees both trajectories.
    pub fn set_warm_start(&mut self, enabled: bool) {
        self.warm.enabled = enabled;
        if !enabled {
            self.warm.traj_prev.clear();
            self.warm.traj_cur.clear();
        }
    }

    /// Installs (or removes, with `None`) a deterministic fault plan: the
    /// selected solves of subsequent runs see a [`FaultyLinOp`]-wrapped
    /// operator that injects the planned breakdowns, NaN/Inf contamination
    /// or iteration-cap stalls. The plan is a *parameter* like the wire
    /// lengths — it survives [`Session::reset`] — and an empty plan is
    /// normalized to `None`, keeping the production path zero-cost.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan
            .filter(|p| !p.is_empty())
            .map(FaultInjector::new);
    }

    /// The number of planned faults injected so far (0 without a plan).
    pub fn faults_fired(&self) -> usize {
        self.fault.as_ref().map_or(0, |f| f.fired())
    }

    /// Resets all per-run solver state so the next run is bit-identical to
    /// a freshly built [`crate::Simulator`] on the same model: drops the
    /// cached preconditioners (patterns and workspaces are kept — they do
    /// not influence results, only allocations) and clears the warm-start
    /// trajectories and step-extrapolation history. Cumulative counters and
    /// the current wire lengths are kept.
    pub fn reset(&mut self) {
        self.elec_solver.clear();
        self.therm_solver.clear();
        self.therm_stationary_solver.clear();
        self.scratch.t_hist.clear();
        self.scratch.last_dt = 0.0;
        self.warm.traj_prev.clear();
        self.warm.traj_cur.clear();
    }

    /// Forks the session: an independent session sharing the same compiled
    /// model, with the current solver state (preconditioners, warm
    /// trajectories, wire lengths) *cloned*. Spawning warm workers from a
    /// burned-in session skips their cold start.
    pub fn fork(&self) -> Session {
        self.clone()
    }

    /// Replaces the length of wire `j` — the Monte Carlo parameter of the
    /// paper's campaign. Only the wire's stamped values and its segment
    /// heat capacities change; all patterns stay frozen.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidModel`] for an invalid length or index.
    pub fn set_wire_length(&mut self, j: usize, length: f64) -> Result<(), CoreError> {
        let att = self
            .wires
            .get_mut(j)
            .ok_or_else(|| CoreError::InvalidModel(format!("no wire {j}")))?;
        att.wire = att
            .wire
            .with_length(length)
            .map_err(|e| CoreError::InvalidModel(e.to_string()))?;
        self.compiled.fill_wire_mass(&self.wires, &mut self.mass_diag);
        Ok(())
    }

    /// Scales the electric drive: every Dirichlet potential of the
    /// electrical subsystem becomes `scale ×` its model value. At a frozen
    /// temperature field the electrical system is linear in Φ, so the
    /// injected current scales proportionally — this is the load parameter
    /// of the reliability engine's fusing-current search (the σ(T) feedback
    /// then moves the operating point like any physical overload would).
    /// Like [`Session::set_wire_length`] this is a *parameter*, kept across
    /// [`Session::reset`]; `scale = 1` restores the nominal drive
    /// bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidModel`] for a negative or non-finite
    /// scale.
    pub fn set_drive_scale(&mut self, scale: f64) -> Result<(), CoreError> {
        if !(scale.is_finite() && scale >= 0.0) {
            return Err(CoreError::InvalidModel(format!(
                "drive scale must be finite and non-negative, got {scale}"
            )));
        }
        if let Some(stamper) = self.elec_stamper.as_mut() {
            stamper.set_dirichlet_scale(scale);
        }
        self.drive_scale = scale;
        Ok(())
    }

    /// The current electric drive scale.
    pub fn drive_scale(&self) -> f64 {
        self.drive_scale
    }

    /// Initial full state: everything at the ambient temperature, wire
    /// internals interpolated.
    pub fn initial_temperature(&self) -> Vec<f64> {
        self.compiled.initial_temperature()
    }

    /// Performs one implicit-Euler step of size `dt` from the full state
    /// `t_prev`, warm-starting the electrical solve from `phi_warm`.
    ///
    /// # Errors
    ///
    /// Returns solver failures; a stalled Picard loop is an error only with
    /// [`SolverOptions::strict_picard`].
    pub fn step(
        &mut self,
        t_prev: &[f64],
        dt: f64,
        phi_warm: &mut [f64],
        step_index: usize,
    ) -> Result<StepResult, CoreError> {
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(CoreError::InvalidModel(format!("invalid time step {dt}")));
        }
        self.coupled_solve(t_prev, Some(dt), phi_warm, step_index)
    }

    /// Solves the stationary coupled problem (steady state).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidModel`] if neither a thermal boundary nor
    /// thermal Dirichlet nodes anchor the temperature (singular system).
    pub fn solve_stationary(&mut self) -> Result<StationaryResult, CoreError> {
        let model = self.compiled.model();
        if !model.thermal_boundary().is_active() && model.thermal_dirichlet().is_empty() {
            return Err(CoreError::InvalidModel(
                "stationary solve needs an active thermal boundary or fixed temperatures".into(),
            ));
        }
        let t0 = self.initial_temperature();
        let mut phi = vec![0.0; self.compiled.layout().n_total()];
        self.begin_recovery_run();
        let r = self.coupled_solve(&t0, None, &mut phi, 0)?;
        Ok(StationaryResult {
            temperature: r.temperature,
            potential: r.potential,
            picard_iterations: r.picard_iterations,
            converged: r.converged,
            wire_powers: r.wire_powers,
            field_power: r.field_power,
        })
    }

    /// Runs the implicit-Euler transient over `[0, t_end]` with `n_steps`
    /// equal steps (the paper: 50 s, 51 time points → 50 steps), recording
    /// full-field snapshots at the requested times (matched to the nearest
    /// step).
    ///
    /// # Errors
    ///
    /// Propagates step failures.
    ///
    /// # Panics
    ///
    /// Panics if `n_steps == 0` or `t_end ≤ 0`.
    pub fn run_transient(
        &mut self,
        t_end: f64,
        n_steps: usize,
        snapshot_times: &[f64],
    ) -> Result<TransientSolution, CoreError> {
        self.run_transient_impl(t_end, n_steps, snapshot_times, None)
            .map(|observed| observed.solution)
    }

    /// [`Session::run_transient`] with an in-run [`StepObserver`]: the
    /// observer is evaluated on the initial state and after every accepted
    /// step, and may terminate the run ([`ObserverAction::Stop`]) or
    /// terminate *and* refine the threshold-crossing time by time-bisection
    /// inside the violating step ([`ObserverAction::StopAndBisect`]). An
    /// observer that always continues leaves the run bit-identical to
    /// [`Session::run_transient`] — observation never influences the
    /// solver.
    ///
    /// # Errors
    ///
    /// Propagates step failures (including bisection sub-steps).
    ///
    /// # Panics
    ///
    /// Panics if `n_steps == 0` or `t_end ≤ 0`.
    pub fn run_transient_observed(
        &mut self,
        t_end: f64,
        n_steps: usize,
        snapshot_times: &[f64],
        observer: &mut dyn StepObserver,
    ) -> Result<ObservedTransient, CoreError> {
        self.run_transient_impl(t_end, n_steps, snapshot_times, Some(observer))
    }

    fn run_transient_impl(
        &mut self,
        t_end: f64,
        n_steps: usize,
        snapshot_times: &[f64],
        mut observer: Option<&mut dyn StepObserver>,
    ) -> Result<ObservedTransient, CoreError> {
        assert!(n_steps > 0, "need at least one step");
        assert!(t_end > 0.0, "end time must be positive");
        let dt = t_end / n_steps as f64;
        let compiled = Arc::clone(&self.compiled);
        let layout = compiled.layout();
        let n_wires = self.wires.len();
        let n_total = layout.n_total();

        // Map snapshot times to step indices.
        let snap_indices: Vec<usize> = snapshot_times
            .iter()
            .map(|&t| ((t / dt).round() as usize).min(n_steps))
            .collect();

        self.begin_transient_run();

        let mut t_state = self.initial_temperature();
        let mut phi = vec![0.0; n_total];
        let mut solution = TransientSolution {
            times: Vec::with_capacity(n_steps + 1),
            wire_temperatures: vec![Vec::with_capacity(n_steps + 1); n_wires],
            wire_powers: vec![Vec::with_capacity(n_steps + 1); n_wires],
            field_power: Vec::with_capacity(n_steps + 1),
            picard_iterations: Vec::with_capacity(n_steps),
            linear_iterations: 0,
            snapshots: Vec::new(),
        };

        let record = |sol: &mut TransientSolution,
                      time: f64,
                      state: &[f64],
                      powers: &[f64],
                      fp: f64| {
            sol.times.push(time);
            for j in 0..n_wires {
                sol.wire_temperatures[j]
                    .push(layout.topology(j).average_temperature(state));
                sol.wire_powers[j].push(powers.get(j).copied().unwrap_or(0.0));
            }
            sol.field_power.push(fp);
        };

        record(&mut solution, 0.0, &t_state, &vec![0.0; n_wires], 0.0);
        if snap_indices.contains(&0) {
            solution.snapshots.push((0.0, t_state.clone()));
        }

        // Observer bookkeeping (allocated only when observing — the
        // unobserved path stays byte-for-byte the historical loop).
        let mut stopped_early = false;
        let mut crossing_time = None;
        let mut bisection_steps = 0usize;
        let mut wire_buf: Vec<f64> = Vec::new();
        let mut stop = false;
        if let Some(obs) = observer.as_deref_mut() {
            wire_buf.clear();
            for j in 0..n_wires {
                wire_buf.push(solution.wire_temperatures[j][0]);
            }
            let action = obs.observe(&StepRecord {
                step: 0,
                time: 0.0,
                dt: 0.0,
                wire_temperatures: &wire_buf,
                temperature: &t_state,
            });
            match action {
                ObserverAction::Continue => {}
                ObserverAction::Stop => stop = true,
                ObserverAction::StopAndBisect { .. } => {
                    // The initial state already violates the limit: the
                    // crossing is at t = 0, nothing to bisect.
                    crossing_time = Some(0.0);
                    stop = true;
                }
            }
            stopped_early = stop;
        }

        let mut steps_executed = 0usize;
        let max_halvings = self.compiled.options().recovery.max_dt_halvings;
        for step in 1..=n_steps {
            if stop {
                break;
            }
            let result = self
                .step_recovering(&t_state, dt, &mut phi, step, max_halvings)
                .map_err(|e| CoreError::StepFailed {
                    step,
                    time: dt * (step - 1) as f64,
                    source: Box::new(e),
                })?;
            steps_executed = step;
            let time = dt * step as f64;
            record(
                &mut solution,
                time,
                &result.temperature,
                &result.wire_powers,
                result.field_power,
            );
            solution.picard_iterations.push(result.picard_iterations);
            solution.linear_iterations += result.linear_iterations;
            if snap_indices.contains(&step) {
                solution.snapshots.push((time, result.temperature.clone()));
            }
            if let Some(obs) = observer.as_deref_mut() {
                wire_buf.clear();
                for j in 0..n_wires {
                    wire_buf.push(solution.wire_temperatures[j][step]);
                }
                let action = obs.observe(&StepRecord {
                    step,
                    time,
                    dt,
                    wire_temperatures: &wire_buf,
                    temperature: &result.temperature,
                });
                match action {
                    ObserverAction::Continue => {}
                    ObserverAction::Stop => {
                        stopped_early = true;
                        stop = true;
                    }
                    ObserverAction::StopAndBisect {
                        threshold,
                        bisections,
                    } => {
                        stopped_early = true;
                        stop = true;
                        let y_hi = wire_buf
                            .iter()
                            .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
                        let y_lo = (0..n_wires)
                            .map(|j| solution.wire_temperatures[j][step - 1])
                            .fold(f64::NEG_INFINITY, f64::max);
                        // `t_state` still holds the step-start state here —
                        // the bracket the bisection re-steps from.
                        let (t_cross, substeps) = self.bisect_crossing(
                            &t_state,
                            time - dt,
                            dt,
                            y_lo,
                            y_hi,
                            threshold,
                            bisections,
                            &mut phi,
                            step,
                        )?;
                        crossing_time = Some(t_cross);
                        bisection_steps = substeps;
                    }
                }
            }
            t_state = result.temperature;
        }
        Ok(ObservedTransient {
            solution,
            steps_executed,
            bisection_steps,
            stopped_early,
            crossing_time,
        })
    }

    /// Invalidates the extrapolation history of any previous transient (the
    /// first step of a run must not extrapolate across runs) and rotates
    /// the warm-start trajectory: the previous run becomes this run's guess
    /// source. Every transient entry point calls this first.
    pub(crate) fn begin_transient_run(&mut self) {
        self.scratch.t_hist.clear();
        self.scratch.last_dt = 0.0;
        if self.warm.enabled {
            self.warm.traj_prev = std::mem::take(&mut self.warm.traj_cur);
        }
        self.begin_recovery_run();
    }

    /// Resets the per-run recovery state: the iteration budget restarts and
    /// the fault plan rewinds to its first solve.
    fn begin_recovery_run(&mut self) {
        self.budget_spent = 0;
        if let Some(f) = &self.fault {
            f.begin_run();
        }
    }

    /// [`Session::step`] behind the `dt`-halving rung of the recovery
    /// ladder: a retryable step failure (the solve-level rungs are already
    /// exhausted at this point) is redone as two implicit-Euler sub-steps of
    /// `dt/2` from the saved step-start state, recursively up to
    /// `halvings_left` levels. The electrical warm-start vector is restored
    /// before re-stepping so NaN contamination from the failed attempt
    /// cannot leak into the recovery path; the step-extrapolation predictor
    /// self-disables on the next full step because the recorded `last_dt` no
    /// longer matches.
    fn step_recovering(
        &mut self,
        t_prev: &[f64],
        dt: f64,
        phi_warm: &mut [f64],
        step_index: usize,
        halvings_left: usize,
    ) -> Result<StepResult, CoreError> {
        let phi_backup = if halvings_left > 0 {
            Some(phi_warm.to_vec())
        } else {
            None
        };
        match self.step(t_prev, dt, phi_warm, step_index) {
            Ok(r) => Ok(r),
            Err(e) if phi_backup.is_some() && step_error_is_retryable(&e) => {
                if let Some(phi0) = &phi_backup {
                    phi_warm.copy_from_slice(phi0);
                }
                self.counters.recovery.dt_halvings += 1;
                let half = 0.5 * dt;
                let first =
                    self.step_recovering(t_prev, half, phi_warm, step_index, halvings_left - 1)?;
                let second = self.step_recovering(
                    &first.temperature,
                    half,
                    phi_warm,
                    step_index,
                    halvings_left - 1,
                )?;
                self.counters.recovery.recovered_steps += 1;
                Ok(StepResult {
                    temperature: second.temperature,
                    potential: second.potential,
                    picard_iterations: first.picard_iterations + second.picard_iterations,
                    linear_iterations: first.linear_iterations + second.linear_iterations,
                    converged: first.converged && second.converged,
                    wire_powers: second.wire_powers,
                    field_power: second.field_power,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// `maxⱼ T_bw,j` of a full state vector (`-∞` without wires).
    fn max_wire_temperature_of(&self, state: &[f64]) -> f64 {
        let layout = self.compiled.layout();
        (0..self.wires.len())
            .map(|j| layout.topology(j).average_temperature(state))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Refines the first crossing of `maxⱼ T_bw,j = threshold` inside the
    /// step `[t_start, t_start + dt]` whose start state is `state_prev`
    /// (below the threshold) and whose end state reached `y_hi ≥ threshold`:
    /// time-bisection with one implicit-Euler sub-step per probe, then
    /// linear interpolation on the final bracket. Returns the crossing time
    /// and the number of sub-step solves spent.
    #[allow(clippy::too_many_arguments)]
    fn bisect_crossing(
        &mut self,
        state_prev: &[f64],
        t_start: f64,
        dt: f64,
        mut y_lo: f64,
        mut y_hi: f64,
        threshold: f64,
        bisections: usize,
        phi: &mut [f64],
        step_index: usize,
    ) -> Result<(f64, usize), CoreError> {
        let mut lo = 0.0f64;
        let mut hi = dt;
        let mut substeps = 0usize;
        for _ in 0..bisections {
            let mid = 0.5 * (lo + hi);
            if !(mid > lo && mid < hi) {
                break; // bracket exhausted floating-point resolution
            }
            let probe = self.step(state_prev, mid, phi, step_index)?;
            substeps += 1;
            let y_mid = self.max_wire_temperature_of(&probe.temperature);
            if y_mid >= threshold {
                hi = mid;
                y_hi = y_mid;
            } else {
                lo = mid;
                y_lo = y_mid;
            }
        }
        let fraction = if y_hi > y_lo {
            ((threshold - y_lo) / (y_hi - y_lo)).clamp(0.0, 1.0)
        } else {
            1.0
        };
        Ok((t_start + lo + fraction * (hi - lo), substeps))
    }

    /// The coupled Picard loop shared by [`Session::step`] (`dt = Some`)
    /// and [`Session::solve_stationary`] (`dt = None`).
    fn coupled_solve(
        &mut self,
        t_prev: &[f64],
        dt: Option<f64>,
        phi_warm: &mut [f64],
        step_index: usize,
    ) -> Result<StepResult, CoreError> {
        let n_total = self.compiled.layout().n_total();
        assert_eq!(t_prev.len(), n_total, "state length");
        let options = self.compiled.options().clone();
        let predict = self.begin_coupled(t_prev, dt);
        let mut linear_total = 0usize;
        let mut field_power = 0.0;
        let mut converged = false;
        let mut iterations = 0usize;
        let mut update = f64::INFINITY;

        let mut elec_solved = false;
        for k in 1..=options.picard_max_iter {
            iterations = k;
            if !elec_solved || options.resolve_electrical_every_picard {
                linear_total += self.solve_electrical(phi_warm)?;
                elec_solved = true;
            }
            field_power = self.heat_sources(phi_warm);
            linear_total += self.solve_thermal(t_prev, dt, predict && k == 1, step_index, k)?;
            update = self.picard_update_and_swap();
            if update <= options.picard_tol {
                converged = true;
                break;
            }
        }
        self.note_picard(iterations);
        if !converged && options.strict_picard {
            return Err(CoreError::PicardNotConverged {
                step: step_index,
                update,
            });
        }
        self.record_step_history(t_prev, dt);
        Ok(StepResult {
            temperature: self.scratch.t_star.clone(),
            potential: phi_warm.to_vec(),
            picard_iterations: iterations,
            linear_iterations: linear_total,
            converged,
            wire_powers: self.scratch.wire_powers.clone(),
            field_power,
        })
    }

    /// Solves the electrical subsystem at the lagged temperature
    /// `scratch.t_star`. `phi_warm` (full numbering) is used as the initial
    /// guess and updated in place with the solution. The lagged
    /// conductivities stay behind in the coefficient buffers for the
    /// heat-source evaluation.
    pub(crate) fn solve_electrical(&mut self, phi_warm: &mut [f64]) -> Result<usize, CoreError> {
        let Session {
            compiled,
            wires,
            drive_scale,
            elec_stamper,
            elec_solver,
            scratch,
            counters,
            fault,
            budget_spent,
            budget_override,
            ..
        } = self;
        let model = compiled.model();
        assembly::fill_sigma(model, &scratch.t_star, &mut scratch.coeff);

        if model.electric_dirichlet().is_empty() {
            // No drive: the potential is identically zero.
            phi_warm.fill(0.0);
            return Ok(0);
        }
        let Some(stamper) = elec_stamper.as_mut() else {
            // CompiledModel records the template whenever Dirichlet drives
            // exist, so this indicates a corrupted model.
            return Err(CoreError::InvalidModel(
                "electrical template missing for a driven model".into(),
            ));
        };
        assembly::stamp_electrical(
            model,
            compiled.layout(),
            wires,
            &scratch.t_star,
            &scratch.coeff,
            stamper,
        );
        let (a, b) = stamper.finish();
        compiled.elec_map().restrict_into(phi_warm, &mut scratch.x_red);
        let iterations = solve_reduced(
            compiled.options(),
            counters,
            elec_solver,
            Subsystem::Electrical,
            a,
            b,
            &mut scratch.x_red,
            fault.as_ref(),
            budget_spent,
            *budget_override,
        )?;
        // Expansion must insert the *scaled* Dirichlet potentials so the
        // heat-source evaluation sees the same drive the assembly condensed
        // against. `1.0 × v` is bitwise `v`, so the unscaled path stays
        // bit-identical.
        if *drive_scale == 1.0 {
            compiled.elec_map().expand_into(&scratch.x_red, phi_warm);
        } else {
            compiled
                .elec_map()
                .expand_scaled_into(&scratch.x_red, phi_warm, *drive_scale);
        }
        Ok(iterations)
    }

    /// Heat sources (W per DoF) from field Joule heating and wire
    /// self-heating into `scratch.q` / `scratch.wire_powers`; returns the
    /// total field Joule power. Uses the conductivities left in the
    /// coefficient buffers by the last electrical solve and the potential
    /// in `phi`.
    pub(crate) fn heat_sources(&mut self, phi: &[f64]) -> f64 {
        let Session {
            compiled,
            wires,
            scratch,
            ..
        } = self;
        let model = compiled.model();
        let grid = model.grid();
        let phi_grid = &phi[..grid.n_nodes()];
        // Nodal field heat into the grid prefix of q, then extend with zeros
        // for the wire-internal DoFs.
        match compiled.options().joule {
            JouleScheme::CellBased => etherm_fit::joule::joule_heat_cell_based_into(
                grid,
                &scratch.coeff.cell_sigma,
                phi_grid,
                &mut scratch.q,
            ),
            JouleScheme::EdgeBased => etherm_fit::joule::joule_heat_edge_based_into(
                grid,
                &scratch.coeff.m_sigma,
                phi_grid,
                &mut scratch.q,
            ),
        }
        let field_power: f64 = vector::sum(&scratch.q);
        scratch.q.resize(compiled.layout().n_total(), 0.0);
        scratch.wire_powers.clear();
        for (j, att) in wires.iter().enumerate() {
            let p = wire_joule_heat(
                &att.wire,
                compiled.layout().topology(j),
                &scratch.t_star,
                phi,
                &mut scratch.q,
            );
            scratch.wire_powers.push(p);
        }
        field_power
    }

    /// Assembles and solves the thermal system for one Picard iterate at
    /// the lagged temperature `scratch.t_star`, writing the new temperature
    /// to `scratch.t_new`.
    ///
    /// `dt = None` means stationary (no mass term); `t_prev` is the
    /// previous time level (ignored when stationary). In warm mode the CG
    /// initial guess is improved by transplanting the previous run's
    /// solution increment at the same `(step_index, picard_k)` position.
    fn solve_thermal(
        &mut self,
        t_prev: &[f64],
        dt: Option<f64>,
        use_predictor: bool,
        step_index: usize,
        picard_k: usize,
    ) -> Result<usize, CoreError> {
        self.assemble_thermal(t_prev, dt, use_predictor, step_index, picard_k)?;
        let Session {
            compiled,
            therm_stamper,
            therm_stationary_stamper,
            therm_solver,
            therm_stationary_solver,
            scratch,
            counters,
            fault,
            budget_spent,
            budget_override,
            ..
        } = self;
        let (stamper, cache, system) = if dt.is_some() {
            (&*therm_stamper, therm_solver, Subsystem::ThermalTransient)
        } else {
            (
                &*therm_stationary_stamper,
                therm_stationary_solver,
                Subsystem::ThermalStationary,
            )
        };
        let Some((a, b)) = stamper.assembled() else {
            return Err(CoreError::InvalidModel(
                "thermal system not assembled".into(),
            ));
        };
        let iterations = solve_reduced(
            compiled.options(),
            counters,
            cache,
            system,
            a,
            b,
            &mut scratch.x_red,
            fault.as_ref(),
            budget_spent,
            *budget_override,
        )?;
        self.accept_thermal(dt, step_index);
        Ok(iterations)
    }

    /// The assembly-and-guess half of [`Session::solve_thermal`]: stamps the
    /// thermal system for one Picard iterate at the lagged temperature
    /// `scratch.t_star` and leaves the CG initial guess in `scratch.x_red`.
    /// The assembled system is readable afterwards through
    /// [`Session::thermal_assembled`]; the batched ensemble path gathers one
    /// such system per panel column before a single block solve.
    pub(crate) fn assemble_thermal(
        &mut self,
        t_prev: &[f64],
        dt: Option<f64>,
        use_predictor: bool,
        step_index: usize,
        picard_k: usize,
    ) -> Result<(), CoreError> {
        let Session {
            compiled,
            wires,
            mass_diag,
            therm_stamper,
            therm_stationary_stamper,
            scratch,
            warm,
            ..
        } = self;
        let model = compiled.model();
        let layout = compiled.layout();
        let therm_map = compiled.therm_map();
        assembly::fill_lambda(model, &scratch.t_star, &mut scratch.coeff);

        let stamper = if dt.is_some() {
            therm_stamper
        } else {
            therm_stationary_stamper
        };
        assembly::stamp_thermal(
            model,
            layout,
            wires,
            &scratch.t_star,
            t_prev,
            dt,
            mass_diag,
            &scratch.q,
            &scratch.coeff,
            stamper,
        );
        // Compile the pattern on the first round and validate the stamping
        // sequence; the returned borrows are re-read via `assembled()`.
        let _ = stamper.finish();
        // CG initial guess: the lagged temperature, or — for the first
        // Picard iterate of a continuation step — the linear extrapolation
        // from the previous step. Warm mode improves on both with the
        // previous run's increment at the same position. A guess only
        // affects iteration counts, never the converged solution.
        if use_predictor {
            therm_map.restrict_into(&scratch.t_guess, &mut scratch.x_red);
        } else {
            therm_map.restrict_into(&scratch.t_star, &mut scratch.x_red);
        }
        let transient = dt.is_some();
        if transient && warm.enabled && step_index >= 1 {
            let prev_sk = warm
                .traj_prev
                .get(step_index - 1)
                .and_then(|v| v.get(picard_k - 1))
                .filter(|v| v.len() == scratch.x_red.len());
            if let Some(prev_sk) = prev_sk {
                if picard_k == 1 {
                    // x₀ = restrict(t_prev) + (ξ[s][1] − ξ[s−1][last]):
                    // the previous run's change over the same step, applied
                    // to this run's state. For step 1 both runs start from
                    // the identical initial state, so x₀ = ξ[1][1].
                    let prev_base = if step_index >= 2 {
                        warm.traj_prev.get(step_index - 2).and_then(|v| v.last())
                    } else {
                        None
                    };
                    therm_map.restrict_into(t_prev, &mut scratch.x_red);
                    match prev_base {
                        Some(pb) if pb.len() == scratch.x_red.len() => {
                            for i in 0..scratch.x_red.len() {
                                scratch.x_red[i] += prev_sk[i] - pb[i];
                            }
                        }
                        _ => scratch.x_red.copy_from_slice(prev_sk),
                    }
                } else {
                    // x₀ = x[s][k−1] + (ξ[s][k] − ξ[s][k−1]): transplant the
                    // previous run's Picard increment onto this iterate.
                    let prev_base = warm
                        .traj_prev
                        .get(step_index - 1)
                        .and_then(|v| v.get(picard_k - 2))
                        .filter(|v| v.len() == scratch.x_red.len());
                    if let Some(pb) = prev_base {
                        for i in 0..scratch.x_red.len() {
                            scratch.x_red[i] += prev_sk[i] - pb[i];
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The acceptance half of [`Session::solve_thermal`]: records the warm
    /// trajectory entry for the reduced solution in `scratch.x_red` and
    /// expands it to the full-numbering `scratch.t_new`.
    pub(crate) fn accept_thermal(&mut self, dt: Option<f64>, step_index: usize) {
        let Session {
            compiled,
            scratch,
            warm,
            ..
        } = self;
        if dt.is_some() && warm.enabled && step_index >= 1 {
            if warm.traj_cur.len() < step_index {
                warm.traj_cur.resize(step_index, Vec::new());
            }
            warm.traj_cur[step_index - 1].push(scratch.x_red.clone());
        }
        scratch.t_new.resize(compiled.layout().n_total(), 0.0);
        compiled.therm_map().expand_into(&scratch.x_red, &mut scratch.t_new);
    }

    /// Seeds the Picard state for one coupled solve: `t_star ← t_prev` and,
    /// for a continuation step with an unchanged `dt`, the extrapolated
    /// first-iterate thermal guess `t_guess ← 2·t_prev − t_hist`. Returns
    /// whether the predictor is valid.
    pub(crate) fn begin_coupled(&mut self, t_prev: &[f64], dt: Option<f64>) -> bool {
        {
            let s = &mut self.scratch;
            s.t_star.clear();
            s.t_star.extend_from_slice(t_prev);
        }
        let predict = match dt {
            Some(d) => self.scratch.t_hist.len() == t_prev.len() && self.scratch.last_dt == d,
            None => false,
        };
        if predict {
            let s = &mut self.scratch;
            s.t_guess.clear();
            s.t_guess
                .extend(t_prev.iter().zip(&s.t_hist).map(|(&a, &b)| 2.0 * a - b));
        }
        predict
    }

    /// Completes one Picard iterate: the relative update between the new
    /// and lagged temperature, then `t_star ↔ t_new` so `t_star` holds the
    /// accepted iterate.
    pub(crate) fn picard_update_and_swap(&mut self) -> f64 {
        let update = vector::rel_diff2(&self.scratch.t_new, &self.scratch.t_star, 1e-9);
        std::mem::swap(&mut self.scratch.t_star, &mut self.scratch.t_new);
        update
    }

    /// Charges `iterations` outer Picard iterations to the counters.
    pub(crate) fn note_picard(&mut self, iterations: usize) {
        self.counters.picard_iterations += iterations;
    }

    /// Records the step-start state and step size that validate the next
    /// step's extrapolated thermal guess (transient only).
    pub(crate) fn record_step_history(&mut self, t_prev: &[f64], dt: Option<f64>) {
        if let Some(d) = dt {
            let s = &mut self.scratch;
            s.t_hist.clear();
            s.t_hist.extend_from_slice(t_prev);
            s.last_dt = d;
        }
    }

    /// The transient thermal system assembled by the last
    /// [`Session::assemble_thermal`] round (`None` before the first).
    pub(crate) fn thermal_assembled(&self) -> Option<(&Csr, &[f64])> {
        self.therm_stamper.assembled()
    }

    /// The assembly half of [`Session::solve_electrical`]: conductivity
    /// averaging, stamping over the cached template, and the reduced CG
    /// initial guess (the restriction of `phi_warm` into `scratch.x_red`).
    /// Returns `false` when the model is undriven — the potential is then
    /// identically zero, `phi_warm` has been zeroed, and no solve is needed.
    pub(crate) fn assemble_electrical(
        &mut self,
        phi_warm: &mut [f64],
    ) -> Result<bool, CoreError> {
        let Session {
            compiled,
            wires,
            elec_stamper,
            scratch,
            ..
        } = self;
        let model = compiled.model();
        assembly::fill_sigma(model, &scratch.t_star, &mut scratch.coeff);
        if model.electric_dirichlet().is_empty() {
            phi_warm.fill(0.0);
            return Ok(false);
        }
        let Some(stamper) = elec_stamper.as_mut() else {
            return Err(CoreError::InvalidModel(
                "electrical template missing for a driven model".into(),
            ));
        };
        assembly::stamp_electrical(
            model,
            compiled.layout(),
            wires,
            &scratch.t_star,
            &scratch.coeff,
            stamper,
        );
        let _ = stamper.finish();
        compiled.elec_map().restrict_into(phi_warm, &mut scratch.x_red);
        Ok(true)
    }

    /// The electrical system assembled by the last
    /// [`Session::assemble_electrical`] round (`None` before the first, or
    /// for an undriven model).
    pub(crate) fn electrical_assembled(&self) -> Option<(&Csr, &[f64])> {
        self.elec_stamper.as_ref().and_then(|s| s.assembled())
    }

    /// The expansion half of [`Session::solve_electrical`]: scatters the
    /// block-solved reduced potential in `scratch.x_red` back into the full
    /// `phi_warm` (with the scaled Dirichlet drive) and charges the column's
    /// iterations to the counters and the recovery budget, mirroring what
    /// `solve_reduced` records on the scalar path.
    pub(crate) fn finish_electrical(&mut self, phi_warm: &mut [f64], iterations: usize) {
        let Session {
            compiled,
            drive_scale,
            scratch,
            counters,
            budget_spent,
            ..
        } = self;
        if *drive_scale == 1.0 {
            compiled.elec_map().expand_into(&scratch.x_red, phi_warm);
        } else {
            compiled
                .elec_map()
                .expand_scaled_into(&scratch.x_red, phi_warm, *drive_scale);
        }
        counters.electrical_iterations += iterations;
        counters.electrical_solves += 1;
        *budget_spent += iterations;
    }

    /// The reduced unknown vector of the current linear solve (the thermal
    /// CG initial guess after [`Session::assemble_thermal`]).
    pub(crate) fn x_red(&self) -> &[f64] {
        &self.scratch.x_red
    }

    /// Mutable access to the reduced unknowns: the batched path scatters
    /// its panel column back here before [`Session::accept_thermal`].
    pub(crate) fn x_red_mut(&mut self) -> &mut [f64] {
        &mut self.scratch.x_red
    }

    /// The lagged Picard temperature (after the final swap of a step this
    /// is the accepted step temperature).
    pub(crate) fn t_star(&self) -> &[f64] {
        &self.scratch.t_star
    }

    /// Joule power per wire from the last [`Session::heat_sources`] call.
    pub(crate) fn wire_powers_scratch(&self) -> &[f64] {
        &self.scratch.wire_powers
    }

    /// Charges one block-solved thermal column to the counters and the
    /// recovery iteration budget, mirroring what `solve_reduced` records on
    /// the scalar path.
    pub(crate) fn note_block_thermal_solve(&mut self, iterations: usize) {
        self.counters.thermal_iterations += iterations;
        self.counters.thermal_solves += 1;
        self.budget_spent += iterations;
    }

    /// Records one (re)build or reuse of the group-shared batched
    /// preconditioner (charged to the group's first session).
    pub(crate) fn note_shared_precond(&mut self, rebuilt: bool, coarse_dim: Option<usize>) {
        if rebuilt {
            self.counters.precond_rebuilds += 1;
        } else {
            self.counters.precond_reuses += 1;
        }
        if let Some(cd) = coarse_dim {
            self.counters.peak_coarse_dim = self.counters.peak_coarse_dim.max(cd);
        }
    }
}

/// Whether a step-level error may be repaired by redoing the step with a
/// smaller `dt`. Structural errors and the budget backstop are final.
fn step_error_is_retryable(e: &CoreError) -> bool {
    match e {
        CoreError::LinearSolveFailed { .. }
        | CoreError::NonFinite { .. }
        | CoreError::PicardNotConverged { .. } => true,
        CoreError::Numerics(ne) => numerics_error_is_retryable(ne),
        _ => false,
    }
}

/// Whether a solver error is transient enough for the solve-level rungs
/// (retry / refresh / downgrade) to be worth attempting.
fn numerics_error_is_retryable(e: &NumericsError) -> bool {
    matches!(
        e,
        NumericsError::Breakdown { .. }
            | NumericsError::NonFinite { .. }
            | NumericsError::NotConverged { .. }
    )
}

/// Errors [`CoreError::BudgetExhausted`] once the run's spent Krylov
/// iterations reach the policy's budget (`0` = unlimited).
fn check_budget(recovery: &RecoveryPolicy, spent: usize) -> Result<(), CoreError> {
    if recovery.linear_iteration_budget > 0 && spent >= recovery.linear_iteration_budget {
        return Err(CoreError::BudgetExhausted {
            budget: recovery.linear_iteration_budget,
            spent,
        });
    }
    Ok(())
}

/// Refreshes `cache`'s preconditioner in place from `a` — or (re)builds it
/// at the cache's current fallback kind when it is missing, when the
/// in-place refresh fails (pattern change or numeric breakdown with every
/// shift), or when a planned `RefreshFail` fault vetoes the refresh.
fn refresh_or_rebuild(
    options: &SolverOptions,
    counters: &mut SolveCounters,
    cache: &mut SubsystemCache,
    a: &Csr,
    fault: Option<&FaultInjector>,
) -> Result<(), NumericsError> {
    let kind = effective_kind(options, cache.fallback_level);
    match cache.precond.as_mut() {
        Some(p) => {
            let refresh_vetoed = fault.is_some_and(|f| f.refresh_fault());
            if refresh_vetoed || p.refresh(a).is_err() {
                *p = CachedPrecond::build_kind(kind, options, a)?;
            }
        }
        None => cache.precond = Some(CachedPrecond::build_kind(kind, options, a)?),
    }
    let coarse_dim = cache.precond.as_ref().and_then(|p| p.coarse_dim());
    cache.mark_rebuilt();
    counters.precond_rebuilds += 1;
    if let Some(nc) = coarse_dim {
        counters.peak_coarse_dim = counters.peak_coarse_dim.max(nc);
    }
    Ok(())
}

/// One escalation rung of the solve-level recovery ladder.
#[derive(Debug, Clone, Copy)]
enum Rung {
    /// Retry from the saved guess with the same configuration — repairs
    /// one-shot contamination bit-identically (nothing but the transient
    /// corruption differed).
    Retry,
    /// Force an in-place preconditioner refresh (or rebuild) first.
    Refresh,
    /// Downgrade the preconditioner kind one ladder level first.
    Fallback,
}

/// Solves one reduced SPD system with the subsystem's cached preconditioner
/// and workspace.
///
/// Lazy-refresh policy: the factorization is reused until either (a) it has
/// served [`SolverOptions::precond_max_reuses`] solves, or (b) a converged
/// solve needs more than [`SolverOptions::precond_refresh_factor`] times
/// the iterations of the first solve after the last (re)build — then it is
/// refreshed in place over the frozen pattern.
///
/// Failure handling follows [`RecoveryPolicy`]: retryable failures
/// (iteration cap, SPD breakdown, non-finite contamination) walk the
/// escalation ladder — plain retries, a forced refresh (always granted when
/// the factorization was stale, the historical safety net), then sticky
/// preconditioner downgrades — each restarting from the saved initial
/// guess. Every rung is recorded in the counters'
/// [`RecoveryLedger`]; structural errors and the iteration budget abort
/// immediately.
#[allow(clippy::too_many_arguments)]
fn solve_reduced(
    options: &SolverOptions,
    counters: &mut SolveCounters,
    cache: &mut SubsystemCache,
    system: Subsystem,
    a: &Csr,
    b: &[f64],
    x: &mut [f64],
    fault: Option<&FaultInjector>,
    budget_spent: &mut usize,
    budget_override: Option<usize>,
) -> Result<usize, CoreError> {
    let opts: CgOptions = options.linear;
    let mut recovery = options.recovery;
    if let Some(budget) = budget_override {
        recovery.linear_iteration_budget = budget;
    }
    check_budget(&recovery, *budget_spent)?;

    let mut fresh = if cache.precond.is_none() || cache.reuses >= options.precond_max_reuses {
        refresh_or_rebuild(options, counters, cache, a, fault)?;
        true
    } else {
        false
    };
    if !fresh {
        cache.reuses += 1;
        counters.precond_reuses += 1;
    }

    // Failed attempts may leave `x` contaminated (NaN poison); every rung
    // restarts from the guess saved here.
    cache.guess_backup.clear();
    cache.guess_backup.extend_from_slice(x);

    // Zero-cost clean path: the operator is wrapped only when the plan
    // targets this very solve.
    let faulty = fault.filter(|f| f.begin_solve());

    let run = |cache: &mut SubsystemCache, x: &mut [f64]| -> Result<SolveReport, CoreError> {
        let Some(p) = cache.precond.as_ref() else {
            // Unreachable: built or refreshed above and never cleared here.
            return Err(CoreError::InvalidModel(
                "preconditioner missing after build".into(),
            ));
        };
        let report = if let Some(inj) = faulty {
            inj.begin_attempt();
            let fop = FaultyLinOp::new(a, inj);
            pcg_with(&fop, b, x, p, &opts, &mut cache.ws)
        } else {
            pcg_with(a, b, x, p, &opts, &mut cache.ws)
        };
        report.map_err(CoreError::from)
    };

    // Static escalation plan: retries, then a refresh (always granted when
    // the factorization was stale — the historical stale-retry safety net),
    // then one rung per remaining downgrade level.
    let mut rungs: Vec<Rung> = Vec::new();
    for _ in 0..recovery.max_retries {
        rungs.push(Rung::Retry);
    }
    if recovery.forced_refresh || !fresh {
        rungs.push(Rung::Refresh);
    }
    if recovery.precond_fallback {
        let mut kind = effective_kind(options, cache.fallback_level);
        while let Some(next) = next_fallback(kind) {
            rungs.push(Rung::Fallback);
            kind = next;
        }
    }

    let mut rungs = rungs.into_iter();
    let mut escalated = false;
    let mut outcome = run(cache, x);
    let report = loop {
        let failure = match outcome {
            Ok(r) if r.converged => break r,
            Ok(r) => {
                *budget_spent += r.iterations;
                CoreError::LinearSolveFailed {
                    system: system.name(),
                    iterations: r.iterations,
                    residual: r.residual,
                }
            }
            Err(CoreError::Numerics(e)) if numerics_error_is_retryable(&e) => {
                CoreError::Numerics(e)
            }
            Err(e) => return Err(e),
        };
        let Some(rung) = rungs.next() else {
            // Ladder exhausted: enrich the final error with subsystem
            // context.
            return Err(match failure {
                CoreError::Numerics(NumericsError::NonFinite { detail, .. }) => {
                    CoreError::NonFinite {
                        system: system.name(),
                        detail,
                    }
                }
                e => e,
            });
        };
        check_budget(&recovery, *budget_spent)?;
        x.copy_from_slice(&cache.guess_backup);
        escalated = true;
        match rung {
            Rung::Retry => counters.recovery.solve_retries += 1,
            Rung::Refresh => {
                refresh_or_rebuild(options, counters, cache, a, fault)?;
                fresh = true;
                counters.recovery.forced_refreshes += 1;
            }
            Rung::Fallback => {
                cache.fallback_level += 1;
                cache.precond = None;
                refresh_or_rebuild(options, counters, cache, a, fault)?;
                fresh = true;
                counters.recovery.precond_fallbacks += 1;
            }
        }
        outcome = run(cache, x);
    };

    *budget_spent += report.iterations;
    if escalated {
        counters.recovery.recovered_solves += 1;
    }
    if system == Subsystem::Electrical {
        counters.electrical_iterations += report.iterations;
        counters.electrical_solves += 1;
    } else {
        counters.thermal_iterations += report.iterations;
        counters.thermal_solves += 1;
    }

    match cache.baseline_iters {
        None => cache.baseline_iters = Some(report.iterations.max(1)),
        Some(base) => {
            let degraded =
                report.iterations as f64 > options.precond_refresh_factor * base as f64;
            if degraded && !fresh {
                // Refresh eagerly so the *next* solve starts from current
                // values.
                refresh_or_rebuild(options, counters, cache, a, fault)?;
            }
        }
    }
    Ok(report.iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ElectrothermalModel;
    use etherm_fit::boundary::ThermalBoundary;
    use etherm_grid::{Axis, CellPaint, Grid3, MaterialId};
    use etherm_materials::{Material, MaterialTable, TemperatureModel};

    /// A copper bar 1 × 0.1 × 0.1 mm, 4×1×1 cells, driven by ±V on its ends.
    fn bar_model(v: f64) -> ElectrothermalModel {
        let grid = Grid3::new(
            Axis::uniform(0.0, 1e-3, 4).unwrap(),
            Axis::uniform(0.0, 1e-4, 1).unwrap(),
            Axis::uniform(0.0, 1e-4, 1).unwrap(),
        );
        let paint = CellPaint::new(&grid, MaterialId(0));
        let mut materials = MaterialTable::new();
        materials.add(Material::new(
            "linear copper",
            TemperatureModel::Constant(5.8e7),
            TemperatureModel::Constant(398.0),
            3.45e6,
        ));
        let mut model = ElectrothermalModel::new(grid, paint, materials).unwrap();
        let nodes_at = |model: &ElectrothermalModel, x: f64| -> Vec<usize> {
            (0..model.grid().n_nodes())
                .filter(|&n| (model.grid().node_position(n).0 - x).abs() < 1e-12)
                .collect()
        };
        let left = nodes_at(&model, 0.0);
        let right = nodes_at(&model, 1e-3);
        model.set_electric_potential(&left, v);
        model.set_electric_potential(&right, 0.0);
        model.set_thermal_boundary(ThermalBoundary::convective(1000.0, 300.0));
        model
    }

    fn session(v: f64) -> Session {
        let compiled = CompiledModel::compile(bar_model(v), SolverOptions::default()).unwrap();
        Session::new(Arc::new(compiled))
    }

    #[test]
    fn electrical_bar_solution_is_linear() {
        // R = L/(σA) = 1e-3/(5.8e7·1e-8) = 1.724 mΩ; with V = 1 mV the
        // dissipated power is V²/R ≈ 0.58 mW.
        let mut s = session(1e-3);
        let t0 = s.initial_temperature();
        let mut phi = vec![0.0; s.compiled().layout().n_total()];
        s.scratch.t_star.clear();
        s.scratch.t_star.extend_from_slice(&t0);
        s.solve_electrical(&mut phi).unwrap();
        let grid_n = s.compiled().model().grid().n_nodes();
        for n in 0..grid_n {
            let x = s.compiled().model().grid().node_position(n).0;
            let expect = 1e-3 * (1.0 - x / 1e-3);
            assert!((phi[n] - expect).abs() < 1e-9, "node {n}");
        }
        let fp = s.heat_sources(&phi);
        let r = 1e-3 / (5.8e7 * 1e-8);
        let expect_p = 1e-6 / r;
        assert!((fp - expect_p).abs() < 1e-6 * expect_p, "{fp} vs {expect_p}");
    }

    #[test]
    fn drive_scale_scales_linear_electrical_solution() {
        // Constant-σ bar: the electrical system is exactly linear, so a
        // half-scale drive halves the potential everywhere; restoring the
        // scale to 1 reproduces the original solve bit-for-bit.
        let mut s = session(1e-3);
        let t0 = s.initial_temperature();
        s.scratch.t_star.clear();
        s.scratch.t_star.extend_from_slice(&t0);
        let n_total = s.compiled().layout().n_total();
        let solve = |s: &mut Session| {
            let mut phi = vec![0.0; n_total];
            s.solve_electrical(&mut phi).unwrap();
            phi
        };
        let phi_full = solve(&mut s);
        s.set_drive_scale(0.5).unwrap();
        assert_eq!(s.drive_scale(), 0.5);
        let phi_half = solve(&mut s);
        let grid_n = s.compiled().model().grid().n_nodes();
        for n in 0..grid_n {
            assert!(
                (phi_half[n] - 0.5 * phi_full[n]).abs() < 1e-12,
                "node {n}: {} vs {}",
                phi_half[n],
                0.5 * phi_full[n]
            );
        }
        // Quarter power at half drive (P = V²/R).
        let p_full = {
            s.set_drive_scale(1.0).unwrap();
            let phi = solve(&mut s);
            s.heat_sources(&phi)
        };
        s.set_drive_scale(0.5).unwrap();
        let phi = solve(&mut s);
        let p_half = s.heat_sources(&phi);
        assert!((p_half - 0.25 * p_full).abs() < 1e-9 * p_full);
        // Scale 1 restores the nominal solve bit-for-bit.
        s.set_drive_scale(1.0).unwrap();
        assert_eq!(solve(&mut s), phi_full);
    }

    #[test]
    fn invalid_drive_scale_rejected() {
        let mut s = session(1e-3);
        assert!(s.set_drive_scale(f64::NAN).is_err());
        assert!(s.set_drive_scale(-1.0).is_err());
        assert!(s.set_drive_scale(f64::INFINITY).is_err());
        assert_eq!(s.drive_scale(), 1.0);
        assert!(s.set_drive_scale(0.0).is_ok());
    }

    #[test]
    fn drive_scale_survives_reset() {
        // Like wire lengths, the drive scale is a parameter, not solver
        // state: reset() must keep it.
        let mut s = session(1e-3);
        s.set_drive_scale(2.0).unwrap();
        let a = s.run_transient(5.0, 5, &[5.0]).unwrap();
        s.reset();
        assert_eq!(s.drive_scale(), 2.0);
        let b = s.run_transient(5.0, 5, &[5.0]).unwrap();
        assert_eq!(a.snapshots[0].1, b.snapshots[0].1);
        // Double drive heats more than nominal.
        let mut nominal = session(1e-3);
        let c = nominal.run_transient(5.0, 5, &[5.0]).unwrap();
        let hot: f64 = a.snapshots[0].1.iter().sum();
        let cold: f64 = c.snapshots[0].1.iter().sum();
        assert!(hot > cold + 1.0, "scaled {hot} vs nominal {cold}");
    }

    #[test]
    fn session_transient_matches_fresh_session_bitwise() {
        // Two runs on one session (exact mode, reset between) must equal a
        // fresh session's runs bit-for-bit.
        let mut a = session(1e-3);
        let r1 = a.run_transient(10.0, 10, &[10.0]).unwrap();
        a.reset();
        let r2 = a.run_transient(10.0, 10, &[10.0]).unwrap();
        let mut b = session(1e-3);
        let r3 = b.run_transient(10.0, 10, &[10.0]).unwrap();
        assert_eq!(r1.snapshots[0].1, r2.snapshots[0].1);
        assert_eq!(r1.snapshots[0].1, r3.snapshots[0].1);
        assert_eq!(r1.wire_temperatures, r3.wire_temperatures);
    }

    #[test]
    fn warm_start_stays_within_solver_tolerance() {
        let mut s = session(1e-3);
        let exact = s.run_transient(10.0, 10, &[10.0]).unwrap();
        s.reset();
        s.set_warm_start(true);
        let w1 = s.run_transient(10.0, 10, &[10.0]).unwrap();
        // First warm run has no trajectory yet: identical to exact.
        assert_eq!(exact.snapshots[0].1, w1.snapshots[0].1);
        // Second warm run uses the recorded trajectory; within tolerance.
        let w2 = s.run_transient(10.0, 10, &[10.0]).unwrap();
        let diff = vector::max_abs_diff(&exact.snapshots[0].1, &w2.snapshots[0].1);
        assert!(diff < 1e-6, "warm start moved the physics by {diff} K");
    }

    #[test]
    fn fork_reproduces_parent_behavior() {
        let mut s = session(1e-3);
        let _ = s.run_transient(5.0, 5, &[]).unwrap();
        let mut f = s.fork();
        let a = s.run_transient(5.0, 5, &[5.0]).unwrap();
        let b = f.run_transient(5.0, 5, &[5.0]).unwrap();
        assert_eq!(a.snapshots[0].1, b.snapshots[0].1);
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let mut s = session(1e-3);
        let _ = s.run_transient(5.0, 5, &[]).unwrap();
        let c = s.counters();
        assert!(c.thermal_solves > 0 && c.picard_iterations > 0);
        let mut merged = SolveCounters::default();
        merged.merge(&c);
        merged.merge(&c);
        assert_eq!(merged.thermal_solves, 2 * c.thermal_solves);
        assert_eq!(merged.picard_iterations, 2 * c.picard_iterations);
        assert_eq!(merged.peak_coarse_dim, c.peak_coarse_dim);
        s.reset_counters();
        assert_eq!(s.counters(), SolveCounters::default());
    }
}
