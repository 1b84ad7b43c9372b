//! The per-run, mutable half of the solver: value-filled matrices, cached
//! preconditioners, workspaces and the step predictor's history.
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
//! One reuse contract: call [`Session::reset`] between samples. Cached
//! preconditioners and the step predictor's history are dropped, so every
//! run is *bit-identical* to a fresh [`Session`] on the same compiled
//! model — the contract of the Fig. 7 reproduction, whose statistics must
//! not move. Without a reset, a run keeps the cached preconditioners
//! (refreshed in place by the usual lazy policy); they only change
//! iteration counts, so its answers agree with a fresh session's within
//! the inner solver tolerance.
//!
//! One driver serves a single session and a lock-step panel of sessions:
//! the fixed-step run loop (`run_fixed_step`) and the coupled Picard loop
//! (`coupled_solve`) take `k ≥ 1` members. [`Session::run_transient`] is
//! the `k = 1` case, solving through the recovery ladder; the batched
//! ensemble runs `k = batch_width` members, whose linear solves of each
//! Picard iterate are fused into one block solve, and redoes a failing
//! panel step member by member at `k = 1`.
//!
//! Every continuation step of a transient starts its Picard loop from the
//! step predictor `2·Tₙ − Tₙ₋₁`, valid while `dt` is unchanged: the first
//! iterate already evaluates σ(T), λ(T) and the wire Joule heat near the
//! new time level, so the loop needs fewer iterates to contract. The first
//! step of a run, a step after a `dt` change and a stationary solve start
//! from the old temperature.

use crate::assembly::{self, CoeffBufs};
use crate::compiled::CompiledModel;
use crate::error::CoreError;
use crate::observer::{ObservedTransient, ObserverAction, StepObserver, StepRecord};
use crate::options::{JouleScheme, PrecondKind, RecoveryPolicy, SolverOptions};
use crate::solution::TransientSolution;
use etherm_bondwire::stamp::wire_joule_heat;
use etherm_fit::CachedStamper;
use etherm_numerics::solvers::{
    block_pcg_with, pcg_with, AmgOptions, AmgPrecond, BlockKrylovWorkspace, CgOptions,
    FaultInjector, FaultPlan, FaultyLinOp, IncompleteCholesky, JacobiPrecond, KrylovWorkspace,
    Preconditioner, SolveReport,
};
use etherm_numerics::sparse::Csr;
use etherm_numerics::{vector, CsrBatch, MultiVec, NumericsError};
use std::sync::Arc;

/// A cached preconditioner of the kind selected in
/// [`SolverOptions::preconditioner`], refreshable in place over the frozen
/// assembly pattern.
#[derive(Debug, Clone)]
enum CachedPrecond {
    Jacobi(JacobiPrecond),
    Ic(IncompleteCholesky),
    Amg(Box<AmgPrecond>),
}

impl CachedPrecond {
    /// Builds a preconditioner of an explicit kind — the recovery ladder's
    /// downgrade rung builds a *different* kind than the configured one.
    fn build_kind(
        kind: PrecondKind,
        options: &SolverOptions,
        a: &Csr,
    ) -> Result<Self, NumericsError> {
        Ok(match kind {
            PrecondKind::Jacobi => CachedPrecond::Jacobi(JacobiPrecond::new(a)?),
            PrecondKind::Ic(level) => CachedPrecond::Ic(IncompleteCholesky::with_fill_drop(
                a,
                level,
                options.precond_droptol,
            )?),
            PrecondKind::Amg => {
                CachedPrecond::Amg(Box::new(AmgPrecond::new(a, AmgOptions::default())?))
            }
        })
    }

    fn refresh(&mut self, a: &Csr) -> Result<(), NumericsError> {
        match self {
            CachedPrecond::Jacobi(p) => p.refresh(a),
            CachedPrecond::Ic(p) => p.refresh(a),
            CachedPrecond::Amg(p) => p.refresh(a),
        }
    }

    /// Coarsest-level dimension of an AMG hierarchy (`None` otherwise).
    fn coarse_dim(&self) -> Option<usize> {
        match self {
            CachedPrecond::Amg(p) => Some(p.coarse_dim()),
            _ => None,
        }
    }
}

impl Preconditioner for CachedPrecond {
    fn dim(&self) -> usize {
        match self {
            CachedPrecond::Jacobi(p) => p.dim(),
            CachedPrecond::Ic(p) => p.dim(),
            CachedPrecond::Amg(p) => p.dim(),
        }
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            CachedPrecond::Jacobi(p) => p.apply(r, z),
            CachedPrecond::Ic(p) => p.apply(r, z),
            CachedPrecond::Amg(p) => p.apply(r, z),
        }
    }

    // Dispatch to each kind's fused panel kernel — the default would loop
    // the scalar `apply` and lose the one-traversal-per-panel batching.
    fn apply_block(&self, r: &MultiVec, z: &mut MultiVec) {
        match self {
            CachedPrecond::Jacobi(p) => p.apply_block(r, z),
            CachedPrecond::Ic(p) => p.apply_block(r, z),
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
    /// The first solve after the last (re)build — the reference for the
    /// degradation trigger.
    baseline: Option<Effort>,
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
        self.baseline = None;
        self.reuses = 0;
    }

    /// The degradation trigger of the lazy-refresh policy: records the
    /// first converged solve after a (re)build as the baseline and reports
    /// whether a later one cost more than `factor ×` it.
    fn degraded(&mut self, effort: Effort, factor: f64) -> bool {
        match &self.baseline {
            None => {
                self.baseline = Some(effort);
                false
            }
            Some(base) => effort.exceeds(base, factor),
        }
    }

    /// Drops the cached preconditioner (exact-mode reset): the next solve
    /// rebuilds from scratch, exactly like a fresh session. Also forgets
    /// any recovery downgrade of the preconditioner kind.
    fn clear(&mut self) {
        self.precond = None;
        self.fallback_level = 0;
        self.guess_backup.clear();
        self.mark_rebuilt();
    }
}

/// What the lazy-refresh trigger knows of one converged solve.
#[derive(Debug, Clone, Copy)]
struct Effort {
    /// The relative CG tolerance it ran at.
    tol: f64,
    /// CG iterations spent.
    iterations: usize,
    /// Decades of residual reduction they bought ([`SolveReport::decades`]).
    decades: f64,
}

impl Effort {
    fn of(report: &SolveReport, tol: f64) -> Self {
        Effort {
            tol,
            iterations: report.iterations,
            decades: report.decades(),
        }
    }

    /// Whether this solve cost more than `factor ×` the baseline, comparing
    /// like with like: at the baseline's tolerance, iteration counts (the
    /// baseline floored at one); at another tolerance, iterations per decade
    /// of residual reduction, so that neither a loose baseline makes a tight
    /// solve look degraded nor the reverse. A solve without a positive,
    /// finite reduction on either side is no evidence of degradation.
    fn exceeds(&self, base: &Effort, factor: f64) -> bool {
        if self.tol == base.tol {
            return self.iterations as f64 > factor * base.iterations.max(1) as f64;
        }
        let evidence = |d: f64| d.is_finite() && d > 0.0;
        evidence(self.decades)
            && evidence(base.decades)
            && self.iterations as f64 * base.decades
                > factor * base.iterations as f64 * self.decades
    }
}

/// The downgrade ladder of the recovery policy: each kind's next cheaper,
/// more robust fallback (`None` = bottom of the ladder).
fn next_fallback(kind: PrecondKind) -> Option<PrecondKind> {
    match kind {
        PrecondKind::Amg => Some(PrecondKind::Ic(1)),
        PrecondKind::Ic(_) => Some(PrecondKind::Jacobi),
        PrecondKind::Jacobi => None,
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
    /// Lagged Picard temperature (full numbering). A continuation step
    /// starts it at the step predictor `2·t_prev − t_hist`, any other
    /// coupled solve at `t_prev`.
    t_star: Vec<f64>,
    /// Next Picard temperature (full numbering).
    t_new: Vec<f64>,
    /// The step predictor's history: the step size and start state
    /// `t_hist` of the previous step of this run; `None` (predictor off)
    /// until a run's first step is accepted.
    step_hist: Option<(f64, Vec<f64>)>,
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
    /// Relative CG tolerance of the last Picard iterate's electrical and
    /// thermal solves (an electrical solve lagged from an earlier iterate
    /// ran at `linear.tol_rel`): `linear.tol_rel` unless
    /// [`SolverOptions::picard_forcing`] is on. A step redone as sub-steps
    /// reports the looser of its halves.
    pub thermal_tol: f64,
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
/// reuse contract.
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
    ///
    /// Takes a shared `Arc<CompiledModel>` (one compiled model, many
    /// sessions) or an owned [`CompiledModel`] for a one-shot run:
    /// `Session::new(CompiledModel::compile(model, options)?)`.
    pub fn new(compiled: impl Into<Arc<CompiledModel>>) -> Self {
        let compiled = compiled.into();
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
    /// a fresh [`Session`] on the same compiled model: drops the
    /// cached preconditioners (patterns and workspaces are kept — they do
    /// not influence results, only allocations) and clears the step
    /// predictor's history. Cumulative counters and the current wire
    /// lengths are kept.
    pub fn reset(&mut self) {
        self.elec_solver.clear();
        self.therm_solver.clear();
        self.therm_stationary_solver.clear();
        self.scratch.step_hist = None;
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
    /// A Picard loop that reaches [`SolverOptions::picard_max_iter`] before
    /// [`SolverOptions::picard_tol`] is not an error: the step is accepted
    /// with `converged: false`.
    ///
    /// # Errors
    ///
    /// Returns solver failures.
    pub fn step(
        &mut self,
        t_prev: &[f64],
        dt: f64,
        phi_warm: &mut [f64],
    ) -> Result<StepResult, CoreError> {
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(CoreError::InvalidModel(format!("invalid time step {dt}")));
        }
        self.solve_coupled(t_prev, Some(dt), phi_warm)
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
        let r = self.solve_coupled(&t0, None, &mut phi)?;
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
        observer: Option<&mut dyn StepObserver>,
    ) -> Result<ObservedTransient, CoreError> {
        run_fixed_step(
            std::slice::from_mut(self),
            &mut Panel::default(),
            t_end,
            n_steps,
            snapshot_times,
            observer,
        )
        .map(|mut runs| runs.swap_remove(0))
        .map_err(|(_, e)| e)
    }

    /// Invalidates the step predictor's history of any previous transient
    /// (the first step of a run must not extrapolate across runs). Every
    /// transient entry point calls this first.
    pub(crate) fn begin_transient_run(&mut self) {
        self.scratch.step_hist = None;
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
    /// self-disables on the next full step because the recorded step size
    /// no longer matches.
    fn step_recovering(
        &mut self,
        t_prev: &[f64],
        dt: f64,
        phi_warm: &mut [f64],
        halvings_left: usize,
    ) -> Result<StepResult, CoreError> {
        let phi_backup = if halvings_left > 0 {
            Some(phi_warm.to_vec())
        } else {
            None
        };
        match self.step(t_prev, dt, phi_warm) {
            Ok(r) => Ok(r),
            Err(e) if phi_backup.is_some() && step_error_is_retryable(&e) => {
                if let Some(phi0) = &phi_backup {
                    phi_warm.copy_from_slice(phi0);
                }
                self.counters.recovery.dt_halvings += 1;
                let half = 0.5 * dt;
                let first = self.step_recovering(t_prev, half, phi_warm, halvings_left - 1)?;
                let second =
                    self.step_recovering(&first.temperature, half, phi_warm, halvings_left - 1)?;
                self.counters.recovery.recovered_steps += 1;
                Ok(StepResult {
                    temperature: second.temperature,
                    potential: second.potential,
                    picard_iterations: first.picard_iterations + second.picard_iterations,
                    linear_iterations: first.linear_iterations + second.linear_iterations,
                    converged: first.converged && second.converged,
                    thermal_tol: first.thermal_tol.max(second.thermal_tol),
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
    ) -> Result<(f64, usize), CoreError> {
        let mut lo = 0.0f64;
        let mut hi = dt;
        let mut substeps = 0usize;
        for _ in 0..bisections {
            let mid = 0.5 * (lo + hi);
            if !(mid > lo && mid < hi) {
                break; // bracket exhausted floating-point resolution
            }
            let probe = self.step(state_prev, mid, phi)?;
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

    /// [`coupled_solve`] for this session alone (`dt = None`: stationary).
    fn solve_coupled(
        &mut self,
        t_prev: &[f64],
        dt: Option<f64>,
        phi_warm: &mut [f64],
    ) -> Result<StepResult, CoreError> {
        coupled_solve(
            std::slice::from_mut(self),
            &[t_prev],
            &mut [phi_warm],
            dt,
            &mut Panel::default(),
        )
        .map(|mut results| results.swap_remove(0))
        .map_err(StepError::into_error)
    }

    /// Solves the electrical subsystem at the lagged temperature
    /// `scratch.t_star`, warm-starting from and writing to `phi_warm`.
    #[cfg(test)]
    fn solve_electrical(&mut self, phi_warm: &mut [f64]) -> Result<usize, CoreError> {
        self.fill_cell_temperatures();
        if !self.assemble_electrical(phi_warm)? {
            return Ok(0);
        }
        let tol = self.options().linear.tol_rel;
        let iterations = self.solve_alone(Subsystem::Electrical, tol)?;
        self.expand_potential(phi_warm);
        Ok(iterations)
    }

    /// Evaluates the cell temperatures of the lagged temperature
    /// `scratch.t_star`, which the electrical and thermal assemblies of one
    /// Picard iterate both read.
    fn fill_cell_temperatures(&mut self) {
        let s = &mut self.scratch;
        assembly::fill_cell_temperatures(self.compiled.model(), &s.t_star, &mut s.coeff);
    }

    /// The electrical assembly of one Picard iterate: conductivity
    /// averaging at the cell temperatures of `scratch.t_star` (see
    /// [`Session::fill_cell_temperatures`]), stamping over the cached
    /// template, and the reduced CG initial guess (the restriction of
    /// `phi_warm` into `scratch.x_red`). The lagged conductivities stay
    /// behind in the coefficient buffers for the heat-source evaluation.
    /// Returns `false` when the model is undriven — the potential is then
    /// identically zero, `phi_warm` has been zeroed, and no solve is needed.
    fn assemble_electrical(&mut self, phi_warm: &mut [f64]) -> Result<bool, CoreError> {
        let Session {
            compiled,
            wires,
            elec_stamper,
            scratch,
            ..
        } = self;
        let model = compiled.model();
        assembly::fill_sigma(model, &mut scratch.coeff);
        if model.electric_dirichlet().is_empty() {
            phi_warm.fill(0.0);
            return Ok(false);
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
        let _ = stamper.finish();
        compiled.elec_map().restrict_into(phi_warm, &mut scratch.x_red);
        Ok(true)
    }

    /// Expands the solved reduced potential in `scratch.x_red` into the
    /// full `phi_warm`. Expansion must insert the *scaled* Dirichlet
    /// potentials so the heat-source evaluation sees the same drive the
    /// assembly condensed against. `1.0 × v` is bitwise `v`, so the
    /// unscaled path stays bit-identical.
    fn expand_potential(&self, phi_warm: &mut [f64]) {
        let map = self.compiled.elec_map();
        if self.drive_scale == 1.0 {
            map.expand_into(&self.scratch.x_red, phi_warm);
        } else {
            map.expand_scaled_into(&self.scratch.x_red, phi_warm, self.drive_scale);
        }
    }

    /// Heat sources (W per DoF) from field Joule heating and wire
    /// self-heating into `scratch.q` / `scratch.wire_powers`; returns the
    /// total field Joule power. Uses the conductivities left in the
    /// coefficient buffers by the last electrical assembly and the
    /// potential in `phi`.
    fn heat_sources(&mut self, phi: &[f64]) -> f64 {
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

    /// The thermal assembly of one Picard iterate: stamps the thermal
    /// system at the lagged temperature `scratch.t_star`, its conductivities
    /// averaged at the cell temperatures of
    /// [`Session::fill_cell_temperatures`], and leaves the CG initial guess
    /// in `scratch.x_red`.
    ///
    /// `dt = None` means stationary (no mass term); `t_prev` is the
    /// previous time level (ignored when stationary).
    fn assemble_thermal(&mut self, t_prev: &[f64], dt: Option<f64>) {
        let Session {
            compiled,
            wires,
            mass_diag,
            therm_stamper,
            therm_stationary_stamper,
            scratch,
            ..
        } = self;
        let model = compiled.model();
        let layout = compiled.layout();
        assembly::fill_lambda(model, &mut scratch.coeff);

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
        // sequence; the solve re-reads the system via `assembled()`.
        let _ = stamper.finish();
        // CG initial guess: the lagged temperature, which on the first
        // Picard iterate of a continuation step is the step predictor. A
        // guess only affects iteration counts, never the converged
        // solution.
        compiled
            .therm_map()
            .restrict_into(&scratch.t_star, &mut scratch.x_red);
    }

    /// Accepts the thermal solution in `scratch.x_red`: expands it to the
    /// full-numbering `scratch.t_new`.
    fn accept_thermal(&mut self) {
        let Session {
            compiled, scratch, ..
        } = self;
        scratch.t_new.resize(compiled.layout().n_total(), 0.0);
        compiled.therm_map().expand_into(&scratch.x_red, &mut scratch.t_new);
    }

    /// Seeds the Picard state for one coupled solve. A continuation step
    /// with an unchanged `dt` starts from the step predictor,
    /// `t_star ← 2·t_prev − t_hist`: the first iterate then evaluates σ, λ
    /// and the wire heat at the predicted temperature, and its thermal solve
    /// starts there. Every other solve (the first step of a run, a changed
    /// `dt`, a stationary solve) starts from `t_star ← t_prev`.
    fn begin_coupled(&mut self, t_prev: &[f64], dt: Option<f64>) {
        let s = &mut self.scratch;
        s.t_star.clear();
        match (dt, &s.step_hist) {
            (Some(d), Some((last_dt, t_hist))) if *last_dt == d => {
                s.t_star
                    .extend(t_prev.iter().zip(t_hist).map(|(&a, &b)| 2.0 * a - b));
            }
            _ => s.t_star.extend_from_slice(t_prev),
        }
    }

    /// Completes one Picard iterate: the relative update between the new
    /// and lagged temperature, then `t_star ↔ t_new` so `t_star` holds the
    /// accepted iterate.
    fn picard_update_and_swap(&mut self) -> f64 {
        let update = vector::rel_diff2(&self.scratch.t_new, &self.scratch.t_star, 1e-9);
        std::mem::swap(&mut self.scratch.t_star, &mut self.scratch.t_new);
        update
    }

    /// Records the step-start state and step size that validate the next
    /// step's predictor (transient only).
    fn record_step_history(&mut self, t_prev: &[f64], dt: Option<f64>) {
        if let Some(d) = dt {
            let s = &mut self.scratch;
            let mut t_hist = s.step_hist.take().map(|(_, t)| t).unwrap_or_default();
            t_hist.clear();
            t_hist.extend_from_slice(t_prev);
            s.step_hist = Some((d, t_hist));
        }
    }

    /// The recovery policy of this session's runs: the compiled options'
    /// policy under the [`Session::set_iteration_budget`] override.
    fn recovery(&self) -> RecoveryPolicy {
        RecoveryPolicy {
            linear_iteration_budget: self.iteration_budget(),
            ..self.compiled.options().recovery
        }
    }

    /// The system of `system` assembled by the last stamping round (`None`
    /// before the first, or for an undriven model).
    fn assembled(&self, system: Subsystem) -> Option<(&Csr, &[f64])> {
        match system {
            Subsystem::Electrical => self
                .elec_stamper
                .as_ref()
                .and_then(CachedStamper::assembled),
            Subsystem::ThermalTransient => self.therm_stamper.assembled(),
            Subsystem::ThermalStationary => self.therm_stationary_stamper.assembled(),
        }
    }

    /// The cached solver state of `system`.
    fn cache_mut(&mut self, system: Subsystem) -> &mut SubsystemCache {
        match system {
            Subsystem::Electrical => &mut self.elec_solver,
            Subsystem::ThermalTransient => &mut self.therm_solver,
            Subsystem::ThermalStationary => &mut self.therm_stationary_solver,
        }
    }

    /// Solves the assembled `system` to relative tolerance `tol` through
    /// the recovery ladder ([`solve_reduced`]): the guess in
    /// `scratch.x_red` on entry, the solution there on exit. Returns the
    /// iterations spent.
    fn solve_alone(&mut self, system: Subsystem, tol: f64) -> Result<usize, CoreError> {
        let recovery = self.recovery();
        let Session {
            compiled,
            elec_stamper,
            therm_stamper,
            therm_stationary_stamper,
            elec_solver,
            therm_solver,
            therm_stationary_solver,
            scratch,
            counters,
            fault,
            budget_spent,
            ..
        } = self;
        let (assembled, cache) = match system {
            Subsystem::Electrical => (
                elec_stamper.as_ref().and_then(CachedStamper::assembled),
                elec_solver,
            ),
            Subsystem::ThermalTransient => (therm_stamper.assembled(), therm_solver),
            Subsystem::ThermalStationary => (
                therm_stationary_stamper.assembled(),
                therm_stationary_solver,
            ),
        };
        let (a, b) = assembled.ok_or_else(|| not_assembled(system))?;
        solve_reduced(
            compiled.options(),
            &recovery,
            counters,
            cache,
            system,
            a,
            b,
            &mut scratch.x_red,
            fault.as_ref(),
            budget_spent,
            tol,
        )
    }
}

/// A member's failure in a run over a panel: its panel index and error.
pub(crate) type MemberError = (usize, CoreError);

/// How a step over a panel of members failed.
#[derive(Debug)]
enum StepError {
    /// A member's solve has a planned fault. Only the width-1 path injects
    /// faults, so the step is redone there.
    FaultPlanned,
    /// Member `.0` failed with `.1`.
    Failed(usize, CoreError),
}

impl StepError {
    /// The error of a single-session step. A single session solves through
    /// [`solve_reduced`], which injects planned faults itself, so
    /// [`StepError::FaultPlanned`] does not arise there.
    fn into_error(self) -> CoreError {
        match self {
            StepError::Failed(_, e) => e,
            StepError::FaultPlanned => {
                CoreError::InvalidModel("planned fault left to a single-session solve".into())
            }
        }
    }

    /// The failure to report, or `None` when redoing the step member by
    /// member may repair it.
    fn fatal(self) -> Option<MemberError> {
        match self {
            StepError::Failed(j, e) if !step_error_is_retryable(&e) => Some((j, e)),
            _ => None,
        }
    }
}

/// State that only a panel of `k ≥ 2` members needs: the block-Krylov
/// workspace, the right-hand side and solution panels, the interleaved
/// value pack, the step-start potentials and the step-increment
/// transplant's trajectories. A single session runs with an empty one.
#[derive(Debug, Default)]
pub(crate) struct Panel {
    ws: BlockKrylovWorkspace,
    b: MultiVec,
    x: MultiVec,
    /// Interleaved values of the members' matrices (`packed[t·k + c]` =
    /// nonzero `t` of member `c`), re-filled per solve so the borrowing
    /// [`CsrBatch::from_packed`] operator is allocation-free when warm.
    packed: Vec<f64>,
    reports: Vec<SolveReport>,
    /// Every member's potential at the start of the current step, restored
    /// before a width-1 rerun.
    phi_start: Vec<Vec<f64>>,
    /// Per-member reduced thermal solutions of the previous step, one per
    /// Picard iterate (`traj[j][pk − 1]`), and of the current step.
    traj: Vec<Vec<Vec<f64>>>,
    traj_next: Vec<Vec<Vec<f64>>>,
}

impl Panel {
    /// Forgets the trajectories: the first step of a run has no previous
    /// step to transplant from.
    fn reset(&mut self) {
        self.traj.clear();
        self.traj_next.clear();
    }

    /// Step-increment transplant: iterate `pk`'s thermal guess of every
    /// member gains the increment the member's previous step took at the
    /// same position. A guess never changes a converged answer, and the
    /// state never leaves the group, so worker-count bit-identity holds.
    /// [`coupled_solve`] transplants only into iterates solved at
    /// `max(picard_tol, tol_rel)` or tighter: a loose solve under
    /// [`SolverOptions::picard_forcing`] stops near its guess, so the
    /// transplanted increment's error would show up as a Picard update and
    /// cost the step an iterate.
    fn transplant(&self, members: &mut [Session], pk: usize) {
        if pk < 2 {
            return;
        }
        for (m, traj) in members.iter_mut().zip(&self.traj) {
            let x = &mut m.scratch.x_red;
            let (Some(cur), Some(prev)) = (traj.get(pk - 1), traj.get(pk - 2)) else {
                continue;
            };
            if cur.len() == x.len() && prev.len() == x.len() {
                for ((xi, c), p) in x.iter_mut().zip(cur).zip(prev) {
                    *xi += c - p;
                }
            }
        }
    }

    /// Records every member's reduced thermal solution of iterate `pk`.
    fn record_iterate(&mut self, members: &[Session], pk: usize) {
        self.traj_next.resize(members.len(), Vec::new());
        for (m, traj) in members.iter().zip(&mut self.traj_next) {
            if traj.len() < pk {
                traj.resize(pk, Vec::new());
            }
            let buf = &mut traj[pk - 1];
            buf.clear();
            buf.extend_from_slice(&m.scratch.x_red);
        }
    }

    /// Ends a step: its iterates become the next step's transplant source.
    /// A step redone member by member leaves none.
    fn end_step(&mut self, rerun: bool) {
        if rerun {
            self.traj_next.iter_mut().for_each(Vec::clear);
        }
        std::mem::swap(&mut self.traj, &mut self.traj_next);
    }
}

/// The fixed-step implicit-Euler run loop, for one session (`k = 1`, the
/// [`Session::run_transient`] family) or a lock-step panel of `k ≥ 2`
/// members (the batched ensemble): `n_steps` equal steps over
/// `[0, t_end]` through [`step_panel`], recording every member's wire
/// series and the snapshots nearest `snapshot_times`. The observer, which
/// only single-session runs pass, watches member 0. Errors name the
/// failing member.
///
/// # Panics
///
/// Panics if `members` is empty, `n_steps == 0` or `t_end ≤ 0`.
pub(crate) fn run_fixed_step(
    members: &mut [Session],
    panel: &mut Panel,
    t_end: f64,
    n_steps: usize,
    snapshot_times: &[f64],
    mut observer: Option<&mut dyn StepObserver>,
) -> Result<Vec<ObservedTransient>, MemberError> {
    assert!(n_steps > 0, "need at least one step");
    assert!(t_end > 0.0, "end time must be positive");
    let dt = t_end / n_steps as f64;
    let compiled = Arc::clone(&members[0].compiled);
    let layout = compiled.layout();
    let n_wires = members[0].wires.len();

    // Map snapshot times to step indices.
    let snap_indices: Vec<usize> = snapshot_times
        .iter()
        .map(|&t| ((t / dt).round() as usize).min(n_steps))
        .collect();

    panel.reset();
    let mut t_states = Vec::with_capacity(members.len());
    for m in members.iter_mut() {
        m.begin_transient_run();
        t_states.push(m.initial_temperature());
    }
    let mut phis = vec![vec![0.0; layout.n_total()]; members.len()];
    let mut runs: Vec<ObservedTransient> = t_states
        .iter()
        .map(|state| {
            let mut solution = TransientSolution::with_capacity(n_wires, n_steps);
            solution.record(layout, 0.0, state, &[], 0.0);
            if snap_indices.contains(&0) {
                solution.snapshots.push((0.0, state.clone()));
            }
            ObservedTransient {
                solution,
                steps_executed: 0,
                bisection_steps: 0,
                stopped_early: false,
                crossing_time: None,
            }
        })
        .collect();

    let mut wire_buf: Vec<f64> = Vec::new();
    if let Some(obs) = observer.as_deref_mut() {
        let run = &mut runs[0];
        match observe(obs, &mut wire_buf, &run.solution, 0, 0.0, &t_states[0]) {
            ObserverAction::Continue => {}
            ObserverAction::Stop => run.stopped_early = true,
            ObserverAction::StopAndBisect { .. } => {
                // The initial state already violates the limit: the
                // crossing is at t = 0, nothing to bisect.
                run.crossing_time = Some(0.0);
                run.stopped_early = true;
            }
        }
    }

    let max_halvings = compiled.options().recovery.max_dt_halvings;
    for step in 1..=n_steps {
        if runs[0].stopped_early {
            break;
        }
        let results = step_panel(members, panel, &t_states, &mut phis, dt, max_halvings)
            .map_err(|(j, e)| {
                let failed = CoreError::StepFailed {
                    step,
                    time: dt * (step - 1) as f64,
                    source: Box::new(e),
                };
                (j, failed)
            })?;
        let time = dt * step as f64;
        for (run, r) in runs.iter_mut().zip(&results) {
            run.steps_executed = step;
            let sol = &mut run.solution;
            sol.record(layout, time, &r.temperature, &r.wire_powers, r.field_power);
            sol.picard_iterations.push(r.picard_iterations);
            sol.linear_iterations += r.linear_iterations;
            if snap_indices.contains(&step) {
                sol.snapshots.push((time, r.temperature.clone()));
            }
        }
        if let Some(obs) = observer.as_deref_mut() {
            let run = &mut runs[0];
            let state = &results[0].temperature;
            match observe(obs, &mut wire_buf, &run.solution, step, dt, state) {
                ObserverAction::Continue => {}
                ObserverAction::Stop => run.stopped_early = true,
                ObserverAction::StopAndBisect {
                    threshold,
                    bisections,
                } => {
                    run.stopped_early = true;
                    let y_hi = wire_buf.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
                    let y_lo = run
                        .solution
                        .wire_temperatures
                        .iter()
                        .map(|series| series[step - 1])
                        .fold(f64::NEG_INFINITY, f64::max);
                    // `t_states` still holds the step-start state here —
                    // the bracket the bisection re-steps from.
                    let (t_cross, substeps) = members[0]
                        .bisect_crossing(
                            &t_states[0],
                            time - dt,
                            dt,
                            y_lo,
                            y_hi,
                            threshold,
                            bisections,
                            &mut phis[0],
                        )
                        .map_err(|e| (0, e))?;
                    run.crossing_time = Some(t_cross);
                    run.bisection_steps = substeps;
                }
            }
        }
        for (t, r) in t_states.iter_mut().zip(results) {
            *t = r.temperature;
        }
    }
    Ok(runs)
}

/// Shows the observer the time point `step` just recorded in `solution`
/// (`dt = 0` for the initial state), its wire temperatures gathered in
/// `wire_buf`.
fn observe(
    obs: &mut dyn StepObserver,
    wire_buf: &mut Vec<f64>,
    solution: &TransientSolution,
    step: usize,
    dt: f64,
    state: &[f64],
) -> ObserverAction {
    wire_buf.clear();
    wire_buf.extend(solution.wire_temperatures.iter().map(|series| series[step]));
    obs.observe(&StepRecord {
        step,
        time: solution.times[step],
        dt,
        wire_temperatures: wire_buf,
        temperature: state,
    })
}

/// Advances every member one step of size `dt` from `t_states`, updating
/// `phis` in place. A single session steps through
/// [`Session::step_recovering`]. A panel of `k ≥ 2` members steps in lock
/// step through [`coupled_solve`]; when that fails with a retryable error,
/// every member's step-start potential and fault-plan position are
/// restored and the step is redone member by member through
/// [`Session::step_recovering`], with its recovery ladder and
/// `dt`-halving. Lock step resumes at the next step.
fn step_panel(
    members: &mut [Session],
    panel: &mut Panel,
    t_states: &[Vec<f64>],
    phis: &mut [Vec<f64>],
    dt: f64,
    max_halvings: usize,
) -> Result<Vec<StepResult>, MemberError> {
    if let ([member], [t_prev], [phi]) = (&mut *members, t_states, &mut *phis) {
        return member
            .step_recovering(t_prev, dt, phi, max_halvings)
            .map(|r| vec![r])
            .map_err(|e| (0, e));
    }
    panel.phi_start.resize(phis.len(), Vec::new());
    for (start, phi) in panel.phi_start.iter_mut().zip(phis.iter()) {
        start.clone_from(phi);
    }
    let marks: Vec<usize> = members
        .iter()
        .map(|m| m.fault.as_ref().map_or(0, FaultInjector::next_solve))
        .collect();
    let t_prev: Vec<&[f64]> = t_states.iter().map(Vec::as_slice).collect();
    let mut phi_refs: Vec<&mut [f64]> = phis.iter_mut().map(Vec::as_mut_slice).collect();
    let failure = match coupled_solve(members, &t_prev, &mut phi_refs, Some(dt), panel) {
        Ok(results) => {
            panel.end_step(false);
            return Ok(results);
        }
        Err(e) => e,
    };
    if let Some(fatal) = failure.fatal() {
        return Err(fatal);
    }
    panel.end_step(true);
    members
        .iter_mut()
        .zip(phis.iter_mut())
        .zip(&panel.phi_start)
        .zip(t_states)
        .zip(marks)
        .enumerate()
        .map(|(j, ((((m, phi), start), t_prev), mark))| {
            phi.copy_from_slice(start);
            if let Some(f) = &m.fault {
                f.rewind_to(mark);
            }
            m.step_recovering(t_prev, dt, phi, max_halvings)
                .map_err(|e| (j, e))
        })
        .collect()
}

/// The coupled Picard loop over a panel of members in lock step, member `j`
/// stepping from `t_prev[j]` (`dt = None`: stationary) and warm-starting
/// its electrical solve from `phis[j]`. Each iterate runs every member's
/// electrical assembly, one electrical [`solve_panel`], every member's heat
/// sources and thermal assembly, one thermal [`solve_panel`] and every
/// member's Picard update; the loop ends when the largest update in the
/// panel meets the tolerance. Under [`SolverOptions::picard_forcing`] a
/// transient step's thermal solves, and its electrical solves under
/// [`SolverOptions::resolve_electrical_every_picard`], run at the iterate's
/// [`forcing_tolerance`], and only an iterate solved no looser than
/// `max(picard_tol, tol_rel)` may end the loop. Every other solve runs at
/// `tol_rel`.
fn coupled_solve(
    members: &mut [Session],
    t_prev: &[&[f64]],
    phis: &mut [&mut [f64]],
    dt: Option<f64>,
    panel: &mut Panel,
) -> Result<Vec<StepResult>, StepError> {
    let k = members.len();
    let compiled = Arc::clone(&members[0].compiled);
    let options = compiled.options();
    for (m, t) in members.iter_mut().zip(t_prev) {
        assert_eq!(t.len(), compiled.layout().n_total(), "state length");
        m.begin_coupled(t, dt);
    }
    let thermal = if dt.is_some() {
        Subsystem::ThermalTransient
    } else {
        Subsystem::ThermalStationary
    };
    let mut linear = vec![0usize; k];
    let mut field_power = vec![0.0; k];
    let mut converged = false;
    let mut iterations = 0usize;
    let mut update = f64::INFINITY;
    let tol_rel = options.linear.tol_rel;
    let forcing = options.picard_forcing && dt.is_some();
    // The CG tolerance of the current iterate's solves.
    let mut solve_tol = tol_rel;
    // The panel's largest updates of the previous two iterates.
    let (mut u1, mut u2) = (f64::NAN, f64::NAN);

    let mut elec_solved = false;
    for pk in 1..=options.picard_max_iter {
        iterations = pk;
        if forcing {
            solve_tol = forcing_tolerance(options, pk, u1, u2);
        }
        for m in members.iter_mut() {
            m.fill_cell_temperatures();
        }
        if !elec_solved || options.resolve_electrical_every_picard {
            let mut driven = false;
            for (j, (m, phi)) in members.iter_mut().zip(phis.iter_mut()).enumerate() {
                driven = m
                    .assemble_electrical(phi)
                    .map_err(|e| StepError::Failed(j, e))?;
            }
            if driven {
                // A potential solved once per step heats every iterate, so
                // only one re-solved every iterate follows the forcing.
                let tol = if options.resolve_electrical_every_picard {
                    solve_tol
                } else {
                    tol_rel
                };
                solve_panel(members, Subsystem::Electrical, panel, &mut linear, tol)?;
                for (m, phi) in members.iter().zip(phis.iter_mut()) {
                    m.expand_potential(phi);
                }
            }
            elec_solved = true;
        }
        for (j, m) in members.iter_mut().enumerate() {
            field_power[j] = m.heat_sources(phis[j]);
            m.assemble_thermal(t_prev[j], dt);
        }
        let tight = solve_tol <= options.picard_tol.max(tol_rel);
        if k > 1 && tight {
            panel.transplant(members, pk);
        }
        solve_panel(members, thermal, panel, &mut linear, solve_tol)?;
        let mut met = tight;
        for (j, m) in members.iter_mut().enumerate() {
            m.accept_thermal();
            let u = m.picard_update_and_swap();
            met &= u <= options.picard_tol;
            if j == 0 || u > update || u.is_nan() {
                update = u;
            }
        }
        (u1, u2) = (update, u1);
        if k > 1 {
            panel.record_iterate(members, pk);
        }
        if met {
            converged = true;
            break;
        }
    }
    for m in members.iter_mut() {
        m.counters.picard_iterations += iterations;
    }
    let results = members
        .iter_mut()
        .zip(t_prev)
        .zip(phis.iter())
        .zip(field_power.into_iter().zip(linear))
        .map(|(((m, t), phi), (field_power, linear_iterations))| {
            m.record_step_history(t, dt);
            StepResult {
                temperature: m.scratch.t_star.clone(),
                potential: phi.to_vec(),
                picard_iterations: iterations,
                linear_iterations,
                converged,
                thermal_tol: solve_tol,
                wire_powers: m.scratch.wire_powers.clone(),
                field_power,
            }
        })
        .collect();
    Ok(results)
}

/// Eisenstat–Walker forcing term η of inexact Picard
/// ([`SolverOptions::picard_forcing`]).
const FORCING_ETA: f64 = 0.1;
/// The loosest thermal tolerance inexact Picard uses, and the first
/// iterate's.
const FORCING_TAU1: f64 = 1e-4;

/// The CG tolerance of Picard iterate `pk` of a transient step under
/// [`SolverOptions::picard_forcing`], given the panel's largest updates `u1`
/// and `u2` of iterates `pk − 1` and `pk − 2`: [`FORCING_TAU1`] first, then
/// `η · u1 · min(1, u1/u2)`, capped at `τ₁` and floored at `tol_rel`;
/// `tol_rel` on the last iterate a step may take, which no later iterate
/// can correct.
fn forcing_tolerance(options: &SolverOptions, pk: usize, u1: f64, u2: f64) -> f64 {
    let tol_rel = options.linear.tol_rel;
    if pk >= options.picard_max_iter {
        return tol_rel;
    }
    let forcing = match pk {
        1 => FORCING_TAU1,
        2 => FORCING_ETA * u1,
        // `min` takes the 1 when the ratio is NaN (0/0).
        _ => FORCING_ETA * u1 * (u1 / u2).min(1.0),
    };
    forcing.min(FORCING_TAU1).max(tol_rel)
}

/// The one linear-solve entry: solves the assembled `system` of every
/// member to relative tolerance `tol`, the guess in its `scratch.x_red` on
/// entry and the solution there on exit, adding the iterations to
/// `linear[j]`. A single session solves through the recovery ladder
/// ([`Session::solve_alone`]); a panel of `k ≥ 2` through one block PCG
/// ([`block_solve`]) preconditioned from member 0's cache.
fn solve_panel(
    members: &mut [Session],
    system: Subsystem,
    panel: &mut Panel,
    linear: &mut [usize],
    tol: f64,
) -> Result<(), StepError> {
    if let [member] = members {
        linear[0] += member
            .solve_alone(system, tol)
            .map_err(|e| StepError::Failed(0, e))?;
        return Ok(());
    }
    // The group preconditioner lives in member 0's cache, and its builds
    // and reuses are charged to member 0.
    let mut cache = std::mem::take(members[0].cache_mut(system));
    let mut owner = SolveCounters::default();
    let solved = block_solve(members, system, panel, &mut cache, &mut owner, linear, tol);
    *members[0].cache_mut(system) = cache;
    members[0].counters.merge(&owner);
    solved
}

/// One block PCG to relative tolerance `tol` over the members'
/// same-pattern matrices, preconditioned by the group preconditioner in
/// `cache` under the lazy-refresh policy of [`solve_reduced`]: rebuilt after
/// `precond_max_reuses` reuses, and eagerly refreshed when the panel's
/// slowest column costs more than `precond_refresh_factor` times the first
/// solve's slowest column; `owner` counts the builds and reuses. Every
/// member checks its iteration budget and consults its fault plan first,
/// as [`solve_reduced`] does. A planned fault, a breakdown, a non-finite
/// column or an unconverged column fails with a retryable error; there is
/// no ladder here, [`step_panel`] redoes the step member by member.
fn block_solve(
    members: &mut [Session],
    system: Subsystem,
    panel: &mut Panel,
    cache: &mut SubsystemCache,
    owner: &mut SolveCounters,
    linear: &mut [usize],
    tol: f64,
) -> Result<(), StepError> {
    let k = members.len();
    let compiled = Arc::clone(&members[0].compiled);
    let options = compiled.options();
    for (j, m) in members.iter().enumerate() {
        check_budget(&m.recovery(), m.budget_spent).map_err(|e| StepError::Failed(j, e))?;
        if m.fault.as_ref().is_some_and(FaultInjector::begin_solve) {
            return Err(StepError::FaultPlanned);
        }
    }
    let n = members[0].scratch.x_red.len();
    panel.b.ensure(n, k);
    panel.x.ensure(n, k);
    let mut mats = Vec::with_capacity(k);
    for (j, m) in members.iter().enumerate() {
        let (a, b) = m
            .assembled(system)
            .ok_or_else(|| StepError::Failed(j, not_assembled(system)))?;
        panel.b.copy_col_from(j, b);
        panel.x.copy_col_from(j, &m.scratch.x_red);
        mats.push(a);
    }
    let owner_fault = members[0].fault.as_ref();
    let fresh = cache.precond.is_none() || cache.reuses >= options.precond_max_reuses;
    if fresh {
        refresh_or_rebuild(options, owner, cache, mats[0], owner_fault)
            .map_err(|e| StepError::Failed(0, e.into()))?;
    } else {
        cache.reuses += 1;
        owner.precond_reuses += 1;
    }
    let Some(precond) = cache.precond.as_ref() else {
        // Unreachable: built or refreshed above.
        return Err(StepError::Failed(
            0,
            CoreError::InvalidModel("preconditioner missing after build".into()),
        ));
    };
    Csr::pack_batch_values(&mats, &mut panel.packed);
    let nnz = mats[0].values().len();
    let op = CsrBatch::from_packed(mats[0], &panel.packed[..nnz * k]);
    block_pcg_with(
        &op,
        &panel.b,
        &mut panel.x,
        precond,
        &CgOptions {
            tol_rel: tol,
            ..options.linear
        },
        &mut panel.ws,
        &mut panel.reports,
    )
    .map_err(|e| StepError::Failed(0, e.into()))?;
    // Every column's iterations count against its member's budget, as
    // `solve_reduced` charges failed attempts.
    for (m, r) in members.iter_mut().zip(&panel.reports) {
        m.budget_spent += r.iterations;
    }
    if let Some(j) = panel.reports.iter().position(|r| !r.converged) {
        let r = panel.reports[j];
        let failed = CoreError::LinearSolveFailed {
            system: system.name(),
            iterations: r.iterations,
            residual: r.residual,
        };
        return Err(StepError::Failed(j, failed));
    }
    let mut slowest = 0usize;
    for (j, m) in members.iter_mut().enumerate() {
        let iterations = panel.reports[j].iterations;
        panel.x.copy_col_into(j, &mut m.scratch.x_red);
        charge_solve(&mut m.counters, system, iterations);
        linear[j] += iterations;
        if iterations > panel.reports[slowest].iterations {
            slowest = j;
        }
    }
    let effort = Effort::of(&panel.reports[slowest], tol);
    let degraded = cache.degraded(effort, options.precond_refresh_factor);
    if let (true, false, Some((a0, _))) = (degraded, fresh, members[0].assembled(system)) {
        // Refresh eagerly so the next panel solve starts from current
        // values.
        refresh_or_rebuild(options, owner, cache, a0, members[0].fault.as_ref())
            .map_err(|e| StepError::Failed(0, e.into()))?;
    }
    Ok(())
}

/// The error for a solve of `system` before its first assembly.
fn not_assembled(system: Subsystem) -> CoreError {
    CoreError::InvalidModel(format!("{} system not assembled", system.name()))
}

/// Charges one converged solve of `system` to `counters`.
fn charge_solve(counters: &mut SolveCounters, system: Subsystem, iterations: usize) {
    if system == Subsystem::Electrical {
        counters.electrical_iterations += iterations;
        counters.electrical_solves += 1;
    } else {
        counters.thermal_iterations += iterations;
        counters.thermal_solves += 1;
    }
}

/// Whether a step-level error may be repaired by redoing the step with a
/// smaller `dt`. Structural errors and the budget backstop are final.
fn step_error_is_retryable(e: &CoreError) -> bool {
    match e {
        CoreError::LinearSolveFailed { .. }
        | CoreError::NonFinite { .. } => true,
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
/// solve costs more than [`SolverOptions::precond_refresh_factor`] times
/// the first solve after the last (re)build — in iterations at the same
/// relative tolerance `tol`, in iterations per decade of residual reduction
/// at another — then it is refreshed in place over the frozen pattern.
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
    recovery: &RecoveryPolicy,
    counters: &mut SolveCounters,
    cache: &mut SubsystemCache,
    system: Subsystem,
    a: &Csr,
    b: &[f64],
    x: &mut [f64],
    fault: Option<&FaultInjector>,
    budget_spent: &mut usize,
    tol: f64,
) -> Result<usize, CoreError> {
    let opts = CgOptions {
        tol_rel: tol,
        ..options.linear
    };
    check_budget(recovery, *budget_spent)?;

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
        check_budget(recovery, *budget_spent)?;
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
    charge_solve(counters, system, report.iterations);

    let degraded = cache.degraded(Effort::of(&report, tol), options.precond_refresh_factor);
    if degraded && !fresh {
        // Refresh eagerly so the *next* solve starts from current values.
        refresh_or_rebuild(options, counters, cache, a, fault)?;
    }
    Ok(report.iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ElectrothermalModel;
    use etherm_bondwire::BondWire;
    use etherm_fit::boundary::ThermalBoundary;
    use etherm_grid::{Axis, BoxRegion, CellPaint, Grid3, MaterialId};
    use etherm_materials::{library, Material, MaterialTable, TemperatureModel};

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
        Session::new(CompiledModel::compile(bar_model(v), SolverOptions::default()).unwrap())
    }

    /// A driven epoxy block with one copper wire across it: the wire
    /// temperature is sensitive to the Picard start at solver-tolerance
    /// level.
    fn driven_wire_block() -> ElectrothermalModel {
        let grid = Grid3::new(
            Axis::uniform(0.0, 2e-3, 4).unwrap(),
            Axis::uniform(0.0, 1e-3, 2).unwrap(),
            Axis::uniform(0.0, 0.5e-3, 1).unwrap(),
        );
        let paint = CellPaint::new(&grid, MaterialId(0));
        let mut materials = MaterialTable::new();
        materials.add(library::epoxy_resin());
        let mut model = ElectrothermalModel::new(grid, paint, materials).unwrap();
        let wire = BondWire::new("w", 1.5e-3, 25.4e-6, library::copper()).unwrap();
        model
            .add_wire(wire, (0.0, 0.5e-3, 0.5e-3), (2e-3, 0.5e-3, 0.5e-3))
            .unwrap();
        let (a, b) = (model.wires()[0].node_a, model.wires()[0].node_b);
        model.set_electric_potential(&[a], 0.02);
        model.set_electric_potential(&[b], -0.02);
        model.set_thermal_boundary(ThermalBoundary::convective(25.0, 300.0));
        model
    }

    #[test]
    fn stationary_energy_balance() {
        // In steady state, dissipated power equals boundary outflow.
        let mut s = session(1e-3);
        let st = s.solve_stationary().unwrap();
        assert!(st.converged);
        let model = s.compiled().model();
        let out = model
            .thermal_boundary()
            .outgoing_power(model.grid(), &st.temperature[..model.grid().n_nodes()]);
        let total_in = st.field_power + st.wire_powers.iter().sum::<f64>();
        assert!(
            (out - total_in).abs() < 2e-2 * total_in,
            "in {total_in} vs out {out}"
        );
        // The bar is warmer than ambient everywhere.
        assert!(st.temperature.iter().all(|&t| t > 300.0 - 1e-9));
    }

    #[test]
    fn transient_approaches_stationary() {
        let mut s = session(1e-3);
        let st = s.solve_stationary().unwrap();
        let tr = s.run_transient(50.0, 50, &[]).unwrap();
        let last = tr.times.len() - 1;
        assert!(tr.times[last] == 50.0);
        // Use a snapshot to compare fields (bar equilibrates in ≪ 50 s).
        let n = s.compiled().model().grid().n_nodes();
        let tr2 = s.run_transient(50.0, 50, &[50.0]).unwrap();
        let (_, t_final) = &tr2.snapshots[0];
        let diff = vector::max_abs_diff(&t_final[..n], &st.temperature[..n]);
        assert!(diff < 0.5, "transient did not settle: {diff}");
        // Temperatures rise monotonically toward the steady state.
        assert!(tr.field_power[last] > 0.0);
    }

    #[test]
    fn wire_between_blocks_heats_up() {
        // Two copper pads in epoxy connected only by a bond wire; driving a
        // voltage across the pads forces all current through the wire.
        let grid = Grid3::new(
            Axis::from_coords(vec![0.0, 0.5e-3, 1.0e-3, 1.5e-3, 2.0e-3]).unwrap(),
            Axis::uniform(0.0, 0.5e-3, 2).unwrap(),
            Axis::uniform(0.0, 0.25e-3, 1).unwrap(),
        );
        let mut paint = CellPaint::new(&grid, MaterialId(0));
        paint.paint(
            &grid,
            &BoxRegion::new((0.0, 0.0, 0.0), (0.5e-3, 0.5e-3, 0.25e-3)),
            MaterialId(1),
        );
        paint.paint(
            &grid,
            &BoxRegion::new((1.5e-3, 0.0, 0.0), (2.0e-3, 0.5e-3, 0.25e-3)),
            MaterialId(1),
        );
        let mut materials = MaterialTable::new();
        materials.add(library::epoxy_resin());
        materials.add(library::copper());
        let mut model = ElectrothermalModel::new(grid, paint, materials).unwrap();
        let wire = BondWire::new("w1", 1.55e-3, 25.4e-6, library::copper()).unwrap();
        model
            .add_wire(wire, (0.5e-3, 0.25e-3, 0.25e-3), (1.5e-3, 0.25e-3, 0.25e-3))
            .unwrap();
        // PEC at outer pad ends.
        let left: Vec<usize> = (0..model.grid().n_nodes())
            .filter(|&n| model.grid().node_position(n).0 == 0.0)
            .collect();
        let right: Vec<usize> = (0..model.grid().n_nodes())
            .filter(|&n| (model.grid().node_position(n).0 - 2.0e-3).abs() < 1e-12)
            .collect();
        model.set_electric_potential(&left, 0.02);
        model.set_electric_potential(&right, -0.02);

        let mut s = Session::new(CompiledModel::compile(model, SolverOptions::default()).unwrap());
        let sol = s.run_transient(50.0, 25, &[]).unwrap();
        let series = sol.wire_series(0);
        // Wire heats up monotonically (until near equilibrium) and ends warm.
        assert!(series[0] == 300.0);
        assert!(
            series.last().unwrap() > &320.0,
            "wire only reached {} K",
            series.last().unwrap()
        );
        // Wire power is positive and current is substantial.
        let p_wire = sol.wire_powers[0].last().unwrap();
        assert!(*p_wire > 0.0);
        // Energy: wire dominates dissipation (pads are far thicker).
        let fp = sol.field_power.last().unwrap();
        assert!(p_wire > fp, "wire {p_wire} vs field {fp}");
    }

    #[test]
    fn amg_reproduces_ic_physics() {
        // The preconditioner choice may change iteration counts, never the
        // converged temperatures.
        let mut s_ic = session(1e-3);
        let amg_options = SolverOptions {
            preconditioner: PrecondKind::Amg,
            ..SolverOptions::default()
        };
        let mut s_amg = Session::new(CompiledModel::compile(bar_model(1e-3), amg_options).unwrap());
        let sol_ic = s_ic.run_transient(10.0, 10, &[10.0]).unwrap();
        let sol_amg = s_amg.run_transient(10.0, 10, &[10.0]).unwrap();
        let (_, t_ic) = &sol_ic.snapshots[0];
        let (_, t_amg) = &sol_amg.snapshots[0];
        let diff = vector::max_abs_diff(t_ic, t_amg);
        assert!(diff < 1e-6, "AMG changed the physics by {diff} K");
        let c = s_amg.counters();
        assert!(c.peak_coarse_dim > 0, "AMG coarse level not recorded");
        assert_eq!(s_ic.counters().peak_coarse_dim, 0);
    }

    #[test]
    fn no_drive_stays_at_ambient() {
        let grid = Grid3::new(
            Axis::uniform(0.0, 1e-3, 2).unwrap(),
            Axis::uniform(0.0, 1e-3, 2).unwrap(),
            Axis::uniform(0.0, 1e-3, 2).unwrap(),
        );
        let paint = CellPaint::new(&grid, MaterialId(0));
        let mut materials = MaterialTable::new();
        materials.add(library::epoxy_resin());
        let model = ElectrothermalModel::new(grid, paint, materials).unwrap();
        let mut s = Session::new(CompiledModel::compile(model, SolverOptions::default()).unwrap());
        let sol = s.run_transient(10.0, 5, &[]).unwrap();
        // Nothing drives the system: stays at 300 K, one Picard iteration.
        let t_end = s.initial_temperature();
        let mut phi = vec![0.0; s.compiled().layout().n_total()];
        let tr = s.step(&t_end, 1.0, &mut phi).unwrap();
        assert!(tr.converged);
        assert!(tr.temperature.iter().all(|&t| (t - 300.0).abs() < 1e-9));
        assert!(sol.field_power.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn invalid_dirichlet_rejected() {
        let mut model = bar_model(1e-3);
        model.set_electric_potential(&[usize::MAX], 0.0);
        assert!(CompiledModel::compile(model, SolverOptions::default()).is_err());
    }

    #[test]
    fn stationary_without_anchor_is_rejected() {
        let mut model = bar_model(1e-3);
        model.set_thermal_boundary(ThermalBoundary::adiabatic());
        let mut s = Session::new(CompiledModel::compile(model, SolverOptions::default()).unwrap());
        assert!(matches!(
            s.solve_stationary(),
            Err(CoreError::InvalidModel(_))
        ));
    }

    #[test]
    fn invalid_step_size_rejected() {
        let mut s = session(1e-3);
        let t0 = s.initial_temperature();
        let mut phi = vec![0.0; s.compiled().layout().n_total()];
        assert!(s.step(&t0, 0.0, &mut phi).is_err());
        assert!(s.step(&t0, f64::NAN, &mut phi).is_err());
    }

    #[test]
    fn snapshots_are_recorded_at_requested_times() {
        let mut s = session(1e-3);
        let sol = s.run_transient(10.0, 10, &[0.0, 5.0, 10.0]).unwrap();
        assert_eq!(sol.snapshots.len(), 3);
        assert_eq!(sol.snapshots[0].0, 0.0);
        assert_eq!(sol.snapshots[1].0, 5.0);
        assert_eq!(sol.snapshots[2].0, 10.0);
        assert_eq!(sol.times.len(), 11);
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
    fn rerun_without_reset_matches_fresh_session_bitwise() {
        // Every run starts from the old temperature, not from a step
        // predictor extrapolated across runs: a session whose last run
        // ended on steps of the same `dt` equals a fresh session without a
        // `reset()` in between. Rebuilding the preconditioner before every
        // solve leaves the extrapolation history as the only session state
        // that crosses runs.
        let compiled = Arc::new(
            CompiledModel::compile(driven_wire_block(), SolverOptions::rebuild_every_solve())
                .unwrap(),
        );
        let mut reused = Session::new(Arc::clone(&compiled));
        let _ = reused.run_transient(2.0, 4, &[]).unwrap();
        let second = reused.run_transient(2.0, 4, &[]).unwrap();
        let reference = Session::new(compiled).run_transient(2.0, 4, &[]).unwrap();
        assert_eq!(second.wire_temperatures, reference.wire_temperatures);
        assert_eq!(second.picard_iterations, reference.picard_iterations);
        assert_eq!(second.linear_iterations, reference.linear_iterations);
    }

    #[test]
    fn picard_stall_is_an_accepted_step() {
        // A step that reaches `picard_max_iter` before `picard_tol` is not
        // an error: it returns the last iterate, flagged as not converged,
        // and a run carries on without the recovery ladder firing.
        let options = SolverOptions {
            picard_max_iter: 2,
            picard_tol: 1e-14,
            ..SolverOptions::default()
        };
        let mut s = Session::new(CompiledModel::compile(driven_wire_block(), options).unwrap());
        let t0 = s.initial_temperature();
        let mut phi = vec![0.0; s.compiled().layout().n_total()];
        let step = s.step(&t0, 0.5, &mut phi).unwrap();
        assert!(!step.converged);
        assert_eq!(step.picard_iterations, 2);
        let sol = s.run_transient(2.0, 4, &[]).unwrap();
        assert_eq!(sol.picard_iterations, vec![2; 4]);
        assert!(*sol.wire_series(0).last().unwrap() > 300.0);
        assert_eq!(s.counters().recovery, RecoveryLedger::default());
    }

    /// A five-point Laplacian on an `m × m` grid with its rows and columns
    /// scaled by `d`.
    fn scaled_laplacian(m: usize, d: impl Fn(usize) -> f64) -> Csr {
        use etherm_numerics::sparse::Coo;
        let mut coo = Coo::new(m * m, m * m);
        for i in 0..m {
            for j in 0..m {
                let r = i * m + j;
                coo.push(r, r, 4.0 * d(r) * d(r));
                let mut link = |c: usize| coo.push(r, c, -d(r) * d(c));
                if i > 0 {
                    link(r - m);
                }
                if i + 1 < m {
                    link(r + m);
                }
                if j > 0 {
                    link(r - 1);
                }
                if j + 1 < m {
                    link(r + 1);
                }
            }
        }
        Csr::from_coo(&coo)
    }

    /// Solves `a x = 1` from the guess `x` to `tol` through the cached
    /// solve, returning the iterations.
    fn cached_solve(
        options: &SolverOptions,
        cache: &mut SubsystemCache,
        counters: &mut SolveCounters,
        a: &Csr,
        x: &mut [f64],
        tol: f64,
    ) -> usize {
        let b = vec![1.0; a.n_rows()];
        let recovery = RecoveryPolicy::default();
        let (system, mut spent) = (Subsystem::ThermalTransient, 0);
        solve_reduced(
            options, &recovery, counters, cache, system, a, &b, x, None, &mut spent, tol,
        )
        .unwrap()
    }

    #[test]
    fn refresh_trigger_compares_like_with_like() {
        let options = SolverOptions {
            preconditioner: PrecondKind::Jacobi,
            ..SolverOptions::default()
        };
        let a = scaled_laplacian(48, |_| 1.0);
        let n = a.n_rows();
        let mut cache = SubsystemCache::default();
        let mut counters = SolveCounters::default();
        // A loose solve from a good guess, as a Picard iterate's first
        // solve starts from the step predictor, then a tight one from cold.
        let mut guess = vec![0.0; n];
        etherm_numerics::solvers::cg(&a, &vec![1.0; n], &mut guess, &CgOptions::with_tol(1e-2))
            .unwrap();
        let loose = cached_solve(&options, &mut cache, &mut counters, &a, &mut guess, 1e-4);
        let tight = cached_solve(&options, &mut cache, &mut counters, &a, &mut vec![0.0; n], 1e-9);
        // Raw iteration counts would call the tight solve degraded.
        assert!(
            tight as f64 > options.precond_refresh_factor * loose as f64,
            "{loose} then {tight} iterations"
        );
        assert_eq!(counters.precond_rebuilds, 1, "same matrix, refreshed");
        // Rescaled rows and columns: the cached Jacobi diagonal is stale.
        let changed = scaled_laplacian(48, |r| 1.0 + 9.0 * ((r * 7) % 13) as f64 / 12.0);
        cached_solve(&options, &mut cache, &mut counters, &changed, &mut vec![0.0; n], 1e-6);
        assert_eq!(counters.precond_rebuilds, 2, "changed matrix, not refreshed");
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
