//! The serving engine: admission control, per-model session pools, and a
//! work-stealing scheduler over `std::thread` workers.
//!
//! Serving is a protocol over the library: each request class calls the
//! library routine that does its work. `wire_sizing` runs one observed
//! transient and `fusing` runs [`etherm_reliability::find_critical_load`],
//! both on a pooled session; `campaign` and `qoi` run their samples
//! through [`etherm_core::run_ensemble`] (a per-job
//! [`etherm_core::FullSolve`] for `qoi`, or the registered surrogate tier
//! with a `FullSolve` fallback).
//!
//! # Determinism contract
//!
//! Every job's result depends only on `(model spec, class, params, seed)`.
//! The scheduler guarantees this by construction:
//!
//! * a job runs on exactly one worker. `wire_sizing` and `fusing` run on a
//!   pooled session in the fresh-session state (nominal wire lengths, unit
//!   drive, no cached preconditioners): [`etherm_core::Session::reset`] as
//!   it returns to the pool, restored parameters in the job prologue —
//!   nothing solved by previous tenants can leak in; `campaign` and `qoi` run the ensemble
//!   on one thread, so each sample starts from a reset session;
//! * "warm" reuse is *allocation* reuse (stamping templates, Krylov
//!   workspaces, pooled sessions, the shared compiled model), never
//!   numerical state;
//! * all sampling is from the request seed through a splitmix64 stream.
//!
//! Hence responses are bit-identical for any worker count or interleaving
//! — the property `bench_serve` gates on.
//!
//! # Admission control
//!
//! Three gates, all answered with structured frames rather than failure:
//! a bounded queue (overflow → `shed`), a per-request-class Krylov
//! iteration budget (`Session::set_iteration_budget`, on the pooled
//! session or in each ensemble sample's set-up; exhaustion → an `error`
//! frame with kind `budget-exhausted`), and per-model health (a merged
//! [`RecoveryLedger`] past the degradation threshold → `shed`).

use crate::clock::Clock;
use crate::protocol::{
    ErrorKind, JobParams, ModelHealth, RequestClass, Response, PROTOCOL_VERSION,
};
use crate::registry::ModelRegistry;
use crate::spec::ModelSpec;
use etherm_core::{
    run_ensemble, CompiledModel, CoreError, EnsembleOptions, FullSolve, ObserverAction,
    QoiEvaluator, RecoveryLedger, Scenario, Session, SolveCounters, StepObserver, StepRecord,
};
use etherm_reliability::{
    find_critical_load, FusingSearchOptions, ReliabilityError, SurrogateWithFallback,
};
use etherm_uq::{Distribution, Surrogate};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Recovers from mutex poisoning instead of panicking (the engine sits in
/// the `no-panic-unwrap` perimeter; shared state stays usable after a
/// worker panic elsewhere).
fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Per-request-class Krylov iteration budgets (per transient run inside a
/// job; `0` = unlimited). The admission-control knob: one pathological
/// request aborts with `budget-exhausted` instead of starving the pool.
#[derive(Debug, Clone, Copy)]
pub struct ClassBudgets {
    pub wire_sizing: usize,
    pub fusing: usize,
    pub campaign: usize,
    pub qoi: usize,
}

impl Default for ClassBudgets {
    fn default() -> Self {
        // Generous ceilings: far above anything a healthy run needs at
        // paper-mesh sizes, low enough to cut off runaway requests.
        ClassBudgets {
            wire_sizing: 200_000,
            fusing: 500_000,
            campaign: 2_000_000,
            qoi: 200_000,
        }
    }
}

impl ClassBudgets {
    fn for_class(&self, class: RequestClass) -> usize {
        match class {
            RequestClass::WireSizing => self.wire_sizing,
            RequestClass::Fusing => self.fusing,
            RequestClass::Campaign => self.campaign,
            RequestClass::Qoi => self.qoi,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (≥ 1).
    pub workers: usize,
    /// Bound on jobs queued across all workers; overflow is shed.
    pub queue_capacity: usize,
    /// Compiled models kept in the LRU registry.
    pub registry_capacity: usize,
    /// Per-class iteration budgets.
    pub budgets: ClassBudgets,
    /// Recovery-ledger events (sum over all rungs) after which a model is
    /// marked degraded and new work on it is shed.
    pub degrade_after: usize,
    /// Progress frames emitted per single-transient job (campaigns emit
    /// one frame per sample instead).
    pub progress_points: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 256,
            registry_capacity: 4,
            budgets: ClassBudgets::default(),
            degrade_after: 64,
            progress_points: 4,
        }
    }
}

/// One queued unit of work.
struct Job {
    id: u64,
    class: RequestClass,
    spec: ModelSpec,
    hash: u64,
    params: JobParams,
    seed: u64,
    cancel: Arc<AtomicBool>,
    tx: mpsc::Sender<Response>,
}

/// The outcome of executing a job body.
struct JobOutput {
    qoi: Vec<f64>,
    served_by: &'static str,
    full_solves: u64,
    served: u64,
    iterations: u64,
}

#[derive(Debug, Default)]
struct PoolInner {
    idle: Vec<Session>,
    created: u64,
    jobs_done: u64,
    ledger: RecoveryLedger,
}

/// Per-model serving state: the session pool, merged health ledger, and
/// the optionally registered surrogate tier.
struct ModelState {
    compiled: Arc<CompiledModel>,
    pool: Mutex<PoolInner>,
    surrogate: Mutex<Option<SurrogateWithFallback<FullSolve<PeakScenario>>>>,
}

impl ModelState {
    fn new(compiled: Arc<CompiledModel>) -> Self {
        ModelState {
            compiled,
            pool: Mutex::new(PoolInner::default()),
            surrogate: Mutex::new(None),
        }
    }

    /// Checks a session out of the pool (or creates one) and restores the
    /// fresh-simulator state: nominal wire lengths, unit drive, zeroed
    /// counters (solver caches were reset at checkin). This prologue is what
    /// makes pooled sessions indistinguishable from new ones, bit for bit.
    fn checkout(&self) -> Result<Session, CoreError> {
        let mut session = {
            let mut pool = lock_or_recover(&self.pool);
            match pool.idle.pop() {
                Some(s) => s,
                None => {
                    pool.created += 1;
                    Session::new(Arc::clone(&self.compiled))
                }
            }
        };
        session.reset_counters();
        session.set_drive_scale(1.0)?;
        for (j, &length) in nominal_lengths(&self.compiled).iter().enumerate() {
            session.set_wire_length(j, length)?;
        }
        Ok(session)
    }

    /// Returns a session to the pool, folding its recovery ledger into the
    /// model's health. The session is reset here rather than at checkout,
    /// so idle sessions hold no preconditioners while `campaign` and `qoi`
    /// jobs allocate their own ensemble sessions.
    fn checkin(&self, mut session: Session) {
        session.reset();
        self.record(&session.counters().recovery);
        lock_or_recover(&self.pool).idle.push(session);
    }

    /// Folds a finished job's recovery ledger into the model's health.
    fn record(&self, ledger: &RecoveryLedger) {
        let mut pool = lock_or_recover(&self.pool);
        pool.ledger.merge(ledger);
        pool.jobs_done += 1;
    }

    fn degraded(&self, degrade_after: usize) -> bool {
        let pool = lock_or_recover(&self.pool);
        let l = &pool.ledger;
        let events = l.solve_retries
            + l.forced_refreshes
            + l.precond_fallbacks
            + l.dt_halvings;
        events >= degrade_after
    }

    fn health(&self, hash: u64, degrade_after: usize) -> ModelHealth {
        let degraded = self.degraded(degrade_after);
        let pool = lock_or_recover(&self.pool);
        ModelHealth {
            model: format!("{hash:016x}"),
            jobs_done: pool.jobs_done,
            idle_sessions: pool.idle.len() as u64,
            sessions_created: pool.created,
            degraded,
            ledger: pool.ledger,
        }
    }
}

struct Shared {
    config: ServeConfig,
    registry: ModelRegistry,
    clock: Arc<dyn Clock>,
    started_ms: u64,
    models: Mutex<BTreeMap<u64, Arc<ModelState>>>,
    /// One deque per worker; `submit` routes by model-hash affinity, idle
    /// workers steal from the back of their siblings.
    queues: Vec<Mutex<VecDeque<Job>>>,
    queued: AtomicUsize,
    shed_total: AtomicU64,
    /// Active job ids → cancel flags (uniqueness + cancellation).
    active: Mutex<BTreeMap<u64, Arc<AtomicBool>>>,
    shutdown: AtomicBool,
    wake_mx: Mutex<()>,
    wake_cv: Condvar,
}

impl Shared {
    /// Wakes every idle worker. Notifying under `wake_mx` orders the signal
    /// after any worker's check of `queued`/`shutdown`, so no wakeup is
    /// lost; callers update that state before calling.
    fn wake_all(&self) {
        let _guard = lock_or_recover(&self.wake_mx);
        self.wake_cv.notify_all();
    }
}

/// The multi-tenant serving engine. Create once, share via [`Arc`]; the
/// in-process [`crate::ServeHandle`] and the TCP daemon are both thin
/// frame adapters over it.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Engine {
    /// Starts the engine with its worker threads, using the given clock.
    pub fn with_clock(config: ServeConfig, clock: Arc<dyn Clock>) -> Arc<Engine> {
        let workers = config.workers.max(1);
        let registry = ModelRegistry::new(config.registry_capacity);
        let started_ms = clock.now_millis();
        let shared = Arc::new(Shared {
            config: ServeConfig { workers, ..config },
            registry,
            clock,
            started_ms,
            models: Mutex::new(BTreeMap::new()),
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: AtomicUsize::new(0),
            shed_total: AtomicU64::new(0),
            active: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
            wake_mx: Mutex::new(()),
            wake_cv: Condvar::new(),
        });
        let engine = Arc::new(Engine {
            shared: Arc::clone(&shared),
            workers: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(workers);
        for index in 0..workers {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || worker_loop(&shared, index)));
        }
        *lock_or_recover(&engine.workers) = handles;
        engine
    }

    /// Submits a job whose frames go into `tx`, in order: `accepted` (or
    /// `shed` / `error`, sent before this returns), then `progress` frames,
    /// then one terminal frame. Several jobs may share one sender, as a
    /// daemon connection's do; their frames then interleave whole, each
    /// job's in order. The job keeps `tx` until its terminal frame is sent,
    /// so the channel closes only once every job sharing it is done.
    pub fn submit(
        &self,
        id: u64,
        class: RequestClass,
        spec: ModelSpec,
        params: JobParams,
        seed: u64,
        tx: mpsc::Sender<Response>,
    ) {
        let s = &self.shared;
        let refuse = |message: &str| {
            let _ = tx.send(Response::Error {
                id,
                kind: ErrorKind::Invalid,
                message: message.to_string(),
            });
        };
        if id == 0 {
            refuse("job id must be a positive integer");
            return;
        }
        if s.shutdown.load(Ordering::SeqCst) {
            refuse("engine is shutting down");
            return;
        }
        let cancel = Arc::new(AtomicBool::new(false));
        {
            let mut active = lock_or_recover(&s.active);
            if active.contains_key(&id) {
                drop(active);
                refuse("job id already active");
                return;
            }
            active.insert(id, Arc::clone(&cancel));
        }
        let hash = spec.content_hash();
        // Health gate: a degraded model sheds new work.
        let degraded = lock_or_recover(&s.models)
            .get(&hash)
            .is_some_and(|m| m.degraded(s.config.degrade_after));
        if degraded {
            self.shed(id, &tx, "model degraded: recovery ledger above threshold");
            return;
        }
        // Bounded queue: overflow sheds rather than queueing unboundedly.
        if s.queued.load(Ordering::SeqCst) >= s.config.queue_capacity {
            self.shed(id, &tx, "queue full");
            return;
        }
        let _ = tx.send(Response::Accepted { id });
        let job = Job {
            id,
            class,
            spec,
            hash,
            params,
            seed,
            cancel,
            tx,
        };
        // Count before pushing, so a worker's `fetch_sub` never underflows.
        s.queued.fetch_add(1, Ordering::SeqCst);
        let target = (hash % s.config.workers as u64) as usize;
        lock_or_recover(&s.queues[target]).push_back(job);
        s.wake_all();
    }

    fn shed(&self, id: u64, tx: &mpsc::Sender<Response>, reason: &str) {
        let s = &self.shared;
        s.shed_total.fetch_add(1, Ordering::SeqCst);
        lock_or_recover(&s.active).remove(&id);
        let _ = tx.send(Response::Shed {
            id,
            reason: reason.to_string(),
            queue_depth: s.queued.load(Ordering::SeqCst) as u64,
        });
    }

    /// Requests cancellation of an active job (best effort: a job that
    /// already completed keeps its result).
    pub fn cancel(&self, id: u64) -> bool {
        match lock_or_recover(&self.shared.active).get(&id) {
            Some(flag) => {
                flag.store(true, Ordering::SeqCst);
                true
            }
            None => false,
        }
    }

    /// The health frame: uptime, queue depth, shed count, registry stats
    /// and per-model pool/ledger state.
    pub fn health(&self) -> Response {
        let s = &self.shared;
        let models = lock_or_recover(&s.models)
            .iter()
            .map(|(&hash, state)| state.health(hash, s.config.degrade_after))
            .collect();
        Response::Health {
            version: PROTOCOL_VERSION,
            uptime_ms: s.clock.now_millis().saturating_sub(s.started_ms),
            queue_depth: s.queued.load(Ordering::SeqCst) as u64,
            shed_total: s.shed_total.load(Ordering::SeqCst),
            registry_compiles: s.registry.compiles(),
            registry_hits: s.registry.hits(),
            models,
        }
    }

    /// Registers a trained surrogate tier for `spec`'s model: `qoi`-class
    /// requests on it are answered by the surrogate when its error
    /// estimate clears `tolerance`, falling back to full solves otherwise.
    /// The fallback is a [`FullSolve`] of the peak-temperature QoI over
    /// `t_end`/`n_steps`, each sample on a reset session under the `qoi`
    /// class budget; auto-refine stays off so answers are
    /// history-independent.
    ///
    /// # Errors
    ///
    /// Compilation errors for the spec, or
    /// [`ReliabilityError::InvalidOptions`] from dimension/tolerance
    /// validation (mapped to [`CoreError::InvalidModel`]).
    pub fn register_surrogate(
        &self,
        spec: &ModelSpec,
        surrogates: Vec<Surrogate>,
        marginals: Vec<Box<dyn Distribution>>,
        tolerance: f64,
        t_end: f64,
        n_steps: usize,
    ) -> Result<(), CoreError> {
        let s = &self.shared;
        let compiled = s.registry.get_or_compile(spec)?;
        let state = model_state(s, spec.content_hash(), &compiled);
        let scenario = PeakScenario::new(&compiled, t_end, n_steps, s.config.budgets.qoi, None);
        let dim = scenario.nominal.len();
        let fallback = FullSolve::new(&compiled, scenario, dim, EnsembleOptions::default());
        let tier = SurrogateWithFallback::new(fallback, surrogates, marginals, tolerance)
            .map_err(|e: ReliabilityError| CoreError::InvalidModel(e.to_string()))?;
        *lock_or_recover(&state.surrogate) = Some(tier);
        Ok(())
    }

    /// Signals shutdown and joins every worker. Queued jobs receive
    /// `cancelled` frames.
    pub fn shutdown_and_join(&self) {
        let s = &self.shared;
        s.shutdown.store(true, Ordering::SeqCst);
        s.wake_all();
        let handles = std::mem::take(&mut *lock_or_recover(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

fn model_state(shared: &Shared, hash: u64, compiled: &Arc<CompiledModel>) -> Arc<ModelState> {
    let mut models = lock_or_recover(&shared.models);
    match models.get(&hash) {
        Some(state) => Arc::clone(state),
        None => {
            let state = Arc::new(ModelState::new(Arc::clone(compiled)));
            models.insert(hash, Arc::clone(&state));
            state
        }
    }
}

// ---------------------------------------------------------------------------
// Worker loop and job execution
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>, index: usize) {
    loop {
        if let Some(job) = pop_job(shared, index) {
            shared.queued.fetch_sub(1, Ordering::SeqCst);
            run_job(shared, &job);
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Check and wait under `wake_mx`: a notifier must take the same
        // lock (`Shared::wake_all`), so its signal cannot fall between the
        // check and the wait.
        let guard = lock_or_recover(&shared.wake_mx);
        if shared.queued.load(Ordering::SeqCst) > 0 || shared.shutdown.load(Ordering::SeqCst) {
            continue;
        }
        drop(shared.wake_cv.wait(guard));
    }
    // Drain after shutdown: queued jobs are answered, not dropped.
    while let Some(job) = pop_job(shared, index) {
        shared.queued.fetch_sub(1, Ordering::SeqCst);
        lock_or_recover(&shared.active).remove(&job.id);
        let _ = job.tx.send(Response::Cancelled { id: job.id });
    }
}

/// Pops from the worker's own queue front, else steals from a sibling's
/// back (classic work-stealing: owner takes LIFO-adjacent work from the
/// front, thieves take from the far end to minimize contention).
fn pop_job(shared: &Shared, index: usize) -> Option<Job> {
    if let Some(job) = lock_or_recover(&shared.queues[index]).pop_front() {
        return Some(job);
    }
    let n = shared.queues.len();
    for offset in 1..n {
        let victim = (index + offset) % n;
        if let Some(job) = lock_or_recover(&shared.queues[victim]).pop_back() {
            return Some(job);
        }
    }
    None
}

fn run_job(shared: &Shared, job: &Job) {
    let finish = |frame: Response| {
        lock_or_recover(&shared.active).remove(&job.id);
        let _ = job.tx.send(frame);
    };
    if job.cancel.load(Ordering::SeqCst) {
        finish(Response::Cancelled { id: job.id });
        return;
    }
    let compiled = match shared.registry.get_or_compile(&job.spec) {
        Ok(compiled) => compiled,
        Err(e) => {
            finish(Response::Error {
                id: job.id,
                kind: ErrorKind::Invalid,
                message: format!("model compilation failed: {e}"),
            });
            return;
        }
    };
    let state = model_state(shared, job.hash, &compiled);
    let budget = shared.config.budgets.for_class(job.class);
    let outcome = match job.class {
        RequestClass::WireSizing | RequestClass::Fusing => pooled(shared, job, &state, budget),
        RequestClass::Campaign => {
            campaign(job, &state, budget).map_err(|e| error_response(job.id, &e))
        }
        RequestClass::Qoi => qoi(job, &state, budget).map_err(|e| error_response(job.id, &e)),
    };
    if job.cancel.load(Ordering::SeqCst) {
        finish(Response::Cancelled { id: job.id });
        return;
    }
    match outcome {
        Ok(out) => finish(Response::Result {
            id: job.id,
            qoi: out.qoi,
            served_by: out.served_by.to_string(),
            full_solves: out.full_solves,
            served: out.served,
            iterations: out.iterations,
        }),
        Err(frame) => finish(frame),
    }
}

fn error_response(id: u64, e: &CoreError) -> Response {
    // Classify on the root cause: the recovery ladder wraps the tripping
    // error in `StepFailed` (and ensembles in `EnsembleFailed`) context.
    let mut root = e;
    loop {
        match root {
            CoreError::StepFailed { source, .. } => root = source,
            CoreError::EnsembleFailed { source, .. } => {
                // An ensemble abort is quarantine-shaped unless the root
                // trip was the budget.
                if find_budget(source).is_some() {
                    root = source;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    let kind = match root {
        CoreError::BudgetExhausted { .. } => ErrorKind::BudgetExhausted,
        CoreError::EnsembleFailed { .. } => ErrorKind::Quarantined,
        CoreError::InvalidModel(_) => ErrorKind::Invalid,
        _ => ErrorKind::Internal,
    };
    Response::Error {
        id,
        kind,
        message: e.to_string(),
    }
}

/// Finds a `BudgetExhausted` anywhere in the error chain.
fn find_budget(e: &CoreError) -> Option<&CoreError> {
    match e {
        CoreError::BudgetExhausted { .. } => Some(e),
        CoreError::StepFailed { source, .. } | CoreError::EnsembleFailed { source, .. } => {
            find_budget(source)
        }
        _ => None,
    }
}

/// Observer threading cancellation and progress frames through a
/// `wire_sizing` transient.
struct RunObserver<'a> {
    job: &'a Job,
    n_steps: usize,
    every: usize,
}

impl<'a> RunObserver<'a> {
    fn new(job: &'a Job, n_steps: usize, progress_points: usize) -> Self {
        RunObserver {
            job,
            n_steps,
            every: (n_steps / progress_points.max(1)).max(1),
        }
    }
}

impl StepObserver for RunObserver<'_> {
    fn observe(&mut self, record: &StepRecord<'_>) -> ObserverAction {
        if self.job.cancel.load(Ordering::SeqCst) {
            return ObserverAction::Stop;
        }
        if record.step > 0 && record.step < self.n_steps && record.step.is_multiple_of(self.every) {
            let _ = self.job.tx.send(Response::Progress {
                id: self.job.id,
                done: record.step as u64,
                total: self.n_steps as u64,
            });
        }
        ObserverAction::Continue
    }
}

/// The peak representative wire temperature over a run.
fn peak_of(sol: &etherm_core::TransientSolution) -> f64 {
    let mut peak = f64::NEG_INFINITY;
    for i in 0..sol.n_times() {
        let t = sol.max_wire_temperature_at(i);
        if t > peak {
            peak = t;
        }
    }
    peak
}

/// `CoreError` for a cancelled run — never surfaces (the cancel flag is
/// re-checked before the terminal frame), but keeps signatures uniform.
fn interrupted() -> CoreError {
    CoreError::InvalidModel("job interrupted".to_string())
}

fn nominal_lengths(compiled: &CompiledModel) -> Vec<f64> {
    compiled
        .model()
        .wires()
        .iter()
        .map(|w| w.wire.length())
        .collect()
}

/// Sets `L_j = nominal_j · (1 + δ_j)`.
fn set_elongations(
    session: &mut Session,
    nominal: &[f64],
    deltas: &[f64],
) -> Result<(), CoreError> {
    for (j, (&length, &delta)) in nominal.iter().zip(deltas).enumerate() {
        session.set_wire_length(j, length * (1.0 + delta))?;
    }
    Ok(())
}

fn iterations(counters: &SolveCounters) -> u64 {
    (counters.electrical_iterations + counters.thermal_iterations) as u64
}

/// Runs a `wire_sizing` or `fusing` job on a pooled session under the
/// class budget.
fn pooled(
    shared: &Shared,
    job: &Job,
    state: &ModelState,
    budget: usize,
) -> Result<JobOutput, Response> {
    let mut session = state.checkout().map_err(|e| Response::Error {
        id: job.id,
        kind: ErrorKind::Internal,
        message: format!("session prologue failed: {e}"),
    })?;
    session.set_iteration_budget(budget);
    let outcome = if job.class == RequestClass::Fusing {
        fusing(job, &mut session)
    } else {
        wire_sizing(shared, job, &mut session).map_err(|e| error_response(job.id, &e))
    };
    state.checkin(session);
    outcome
}

fn wire_sizing(shared: &Shared, job: &Job, session: &mut Session) -> Result<JobOutput, CoreError> {
    let nominal = nominal_lengths(session.compiled());
    let deltas = seeded_deltas(job.seed, nominal.len(), job.params.spread);
    set_elongations(session, &nominal, &deltas)?;
    let mut observer = RunObserver::new(job, job.params.n_steps, shared.config.progress_points);
    let observed =
        session.run_transient_observed(job.params.t_end, job.params.n_steps, &[], &mut observer)?;
    if job.cancel.load(Ordering::SeqCst) {
        return Err(interrupted());
    }
    let sol = observed.solution;
    // QoI: per-wire peak temperatures, then the global peak.
    let n_wires = sol.n_wires();
    let mut qoi = Vec::with_capacity(n_wires + 1);
    for j in 0..n_wires {
        let peak = sol
            .wire_series(j)
            .iter()
            .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        qoi.push(peak);
    }
    qoi.push(peak_of(&sol));
    Ok(JobOutput {
        qoi,
        served_by: "full",
        full_solves: 1,
        served: 0,
        iterations: iterations(&session.counters()),
    })
}

/// Upper end of the `fusing` drive-scale bracket: eight doublings of the
/// nominal drive. The search resolves the critical scale to `1/256` of it.
const FUSING_SCALE_HI: f64 = 256.0;

/// `fusing`: [`find_critical_load`] on the pooled session. The reply is
/// `[safe_scale, failing_scale]`, the final bracket.
fn fusing(job: &Job, session: &mut Session) -> Result<JobOutput, Response> {
    let options = FusingSearchOptions {
        t_end: job.params.t_end,
        n_steps: job.params.n_steps,
        threshold: job.params.threshold,
        scale_lo: 1.0,
        scale_hi: FUSING_SCALE_HI,
        tol_rel: 1.0 / FUSING_SCALE_HI,
        ..FusingSearchOptions::default()
    };
    let load = find_critical_load(session, &options).map_err(|e| match e {
        ReliabilityError::Core(e) => error_response(job.id, &e),
        other => Response::Error {
            id: job.id,
            kind: ErrorKind::Invalid,
            message: other.to_string(),
        },
    })?;
    Ok(JobOutput {
        qoi: vec![load.scale, load.bracket.1],
        served_by: "full",
        full_solves: load.runs as u64,
        served: 0,
        iterations: iterations(&session.counters()),
    })
}

/// The scenario of the ensemble-backed classes (`campaign`, `qoi` and the
/// surrogate tier's fallback): a sample is the relative wire elongations
/// `δ_j`, applied as `L_j = nominal_j · (1 + δ_j)`, and the QoI is the peak
/// wire temperature over `t_end`/`n_steps`. Each sample's set-up installs
/// the class budget and stops the run once the job is cancelled.
struct PeakScenario {
    nominal: Vec<f64>,
    t_end: f64,
    n_steps: usize,
    budget: usize,
    cancel: Option<Arc<AtomicBool>>,
    /// The solving session's counters after its latest run, failed or not.
    /// A job runs one single-threaded ensemble, so this is the job's
    /// solver work even when the ensemble aborts.
    spent: Mutex<SolveCounters>,
}

impl PeakScenario {
    fn new(
        compiled: &CompiledModel,
        t_end: f64,
        n_steps: usize,
        budget: usize,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Self {
        PeakScenario {
            nominal: nominal_lengths(compiled),
            t_end,
            n_steps,
            budget,
            cancel,
            spent: Mutex::new(SolveCounters::default()),
        }
    }

    /// The scenario of `job`'s own samples, stopped by its cancel flag.
    fn for_job(job: &Job, compiled: &CompiledModel, budget: usize) -> Self {
        let p = &job.params;
        let cancel = Some(Arc::clone(&job.cancel));
        Self::new(compiled, p.t_end, p.n_steps, budget, cancel)
    }

    /// The counters of the job just run, leaving zero for the next one.
    fn take_spent(&self) -> SolveCounters {
        std::mem::take(&mut *lock_or_recover(&self.spent))
    }
}

impl Scenario for PeakScenario {
    fn apply(&self, session: &mut Session, sample: &[f64]) -> Result<(), CoreError> {
        if self
            .cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::SeqCst))
        {
            return Err(interrupted());
        }
        session.set_iteration_budget(self.budget);
        set_elongations(session, &self.nominal, sample)
    }

    fn evaluate(&self, session: &mut Session) -> Result<Vec<f64>, CoreError> {
        let run = session.run_transient(self.t_end, self.n_steps, &[]);
        *lock_or_recover(&self.spent) = session.counters();
        Ok(vec![peak_of(&run?)])
    }
}

/// Ensemble options of a job's own samples: one thread and one `progress`
/// frame per merged sample.
fn ensemble_options(job: &Job) -> EnsembleOptions {
    let (tx, id) = (job.tx.clone(), job.id);
    EnsembleOptions {
        progress: Some(Arc::new(move |done, total| {
            let _ = tx.send(Response::Progress {
                id,
                done: done as u64,
                total: total as u64,
            });
        })),
        ..EnsembleOptions::default()
    }
}

/// `campaign`: `n_samples` seeded elongation rows through [`run_ensemble`],
/// reduced to `[mean, max, min]` of the peaks.
fn campaign(job: &Job, state: &ModelState, budget: usize) -> Result<JobOutput, CoreError> {
    let scenario = PeakScenario::for_job(job, &state.compiled, budget);
    let p = &job.params;
    let rows = campaign_rows(job.seed, p.n_samples, scenario.nominal.len(), p.spread);
    let result = run_ensemble(&state.compiled, &scenario, &rows, &ensemble_options(job));
    let spent = scenario.take_spent();
    state.record(&spent.recovery);
    let (mean, max, min) = reduce_peaks(&result?.outputs);
    Ok(JobOutput {
        qoi: vec![mean, max, min],
        served_by: "full",
        full_solves: rows.len() as u64,
        served: 0,
        iterations: iterations(&spent),
    })
}

/// The seeded δ rows of a campaign: sample `s` draws from `mix(seed, s)`.
fn campaign_rows(seed: u64, n_samples: usize, n_wires: usize, spread: f64) -> Vec<Vec<f64>> {
    (0..n_samples)
        .map(|s| seeded_deltas(mix(seed, s as u64), n_wires, spread))
        .collect()
}

/// `(mean, max, min)` of one-peak outputs, the mean accumulated in sample
/// order.
fn reduce_peaks(outputs: &[Vec<f64>]) -> (f64, f64, f64) {
    let mut mean = 0.0;
    let mut max = f64::NEG_INFINITY;
    let mut min = f64::INFINITY;
    for (s, peak) in outputs.iter().filter_map(|y| y.first()).enumerate() {
        mean += (peak - mean) / (s as f64 + 1.0);
        max = max.max(*peak);
        min = min.min(*peak);
    }
    (mean, max, min)
}

/// `qoi`: the explicit δ rows through the registered surrogate tier, or
/// through a per-job [`FullSolve`].
fn qoi(job: &Job, state: &ModelState, budget: usize) -> Result<JobOutput, CoreError> {
    let samples = &job.params.samples;
    let dim = state.compiled.model().wires().len();
    if samples.is_empty() {
        return Err(CoreError::InvalidModel(
            "qoi requests need explicit params.samples".to_string(),
        ));
    }
    for (i, sample) in samples.iter().enumerate() {
        if sample.len() != dim {
            return Err(CoreError::InvalidModel(format!(
                "qoi sample {i} has dimension {} but the model has {dim} wires",
                sample.len()
            )));
        }
        if let Some((j, delta)) = sample
            .iter()
            .enumerate()
            .find(|(_, d)| !(d.is_finite() && **d > -0.9))
        {
            return Err(CoreError::InvalidModel(format!(
                "qoi sample {i}, wire {j}: relative elongation {delta} out of range"
            )));
        }
    }
    let scenario = PeakScenario::for_job(job, &state.compiled, budget);
    let mut full = FullSolve::new(&state.compiled, &scenario, dim, ensemble_options(job));
    let mut tier = lock_or_recover(&state.surrogate);
    let evaluator: &mut dyn QoiEvaluator = match tier.as_mut() {
        Some(tier) => tier,
        None => &mut full,
    };
    let (full_before, served_before) = (evaluator.full_solves(), evaluator.served());
    let outputs = evaluator.evaluate(samples);
    let full_solves = (evaluator.full_solves() - full_before) as u64;
    let served = (evaluator.served() - served_before) as u64;
    let (served_by, spent) = match tier.as_ref() {
        Some(tier) => ("surrogate", tier.fallback().scenario().take_spent()),
        None => ("full", scenario.take_spent()),
    };
    drop(tier);
    state.record(&spent.recovery);
    Ok(JobOutput {
        qoi: outputs?.concat(),
        served_by,
        full_solves,
        served,
        iterations: iterations(&spent),
    })
}

// ---------------------------------------------------------------------------
// Seeded sampling (no RNG dependency: splitmix64, the canonical 64-bit
// stream mixer)
// ---------------------------------------------------------------------------

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One draw in `[-1, 1)` from the stream.
fn unit_symmetric(state: &mut u64) -> f64 {
    let bits = splitmix64(state) >> 11; // 53 mantissa bits
    let unit = bits as f64 / (1u64 << 53) as f64; // [0, 1)
    2.0 * unit - 1.0
}

/// Derives a per-sample substream seed.
fn mix(seed: u64, index: u64) -> u64 {
    let mut state = seed ^ index.wrapping_mul(0xa076_1d64_78bd_642f);
    splitmix64(&mut state)
}

/// The seeded relative elongations of one sample: `δ_j = spread · u_j`,
/// `u_j ∈ [-1, 1)` drawn from the stream `seed`.
fn seeded_deltas(seed: u64, n_wires: usize, spread: f64) -> Vec<f64> {
    let mut stream = seed;
    (0..n_wires)
        .map(|_| spread * unit_symmetric(&mut stream))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::handle::ServeHandle;
    use crate::protocol::JobParams;
    use std::time::Duration;

    /// A `campaign` reply is mean/max/min over the `run_ensemble` outputs
    /// of the job's seeded δ rows, bit for bit, with one progress frame
    /// per sample. (`fusing_and_qoi_replies_equal_the_library` checks the
    /// scenario itself against an independent one.)
    #[test]
    fn campaign_reply_equals_run_ensemble_over_seeded_rows() {
        let (spec, seed) = (ModelSpec::block_small(), 17);
        let params = JobParams {
            t_end: 0.5,
            n_steps: 4,
            n_samples: 5,
            spread: 0.2,
            ..JobParams::default()
        };
        let engine = Engine::with_clock(ServeConfig::default(), ManualClock::new());
        let ticket = ServeHandle::new(Arc::clone(&engine)).submit(
            RequestClass::Campaign,
            spec,
            params.clone(),
            seed,
        );
        let mut progress = Vec::new();
        let reply = loop {
            match ticket.next_timeout(Duration::from_secs(120)) {
                Some(Response::Accepted { .. }) => {}
                Some(Response::Progress { done, total, .. }) => progress.push((done, total)),
                other => break other,
            }
        };
        engine.shutdown_and_join();

        let compiled = Arc::new(spec.build().unwrap());
        let scenario = PeakScenario::new(&compiled, params.t_end, params.n_steps, 0, None);
        let rows = campaign_rows(seed, 5, scenario.nominal.len(), params.spread);
        let options = EnsembleOptions::default();
        let peaks = run_ensemble(&compiled, &scenario, &rows, &options)
            .unwrap()
            .outputs
            .concat();
        let mut mean = 0.0;
        for (s, peak) in peaks.iter().enumerate() {
            mean += (peak - mean) / (s as f64 + 1.0);
        }
        let max = peaks.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = peaks.iter().copied().fold(f64::INFINITY, f64::min);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match reply {
            Some(Response::Result { qoi, .. }) => assert_eq!(bits(&qoi), bits(&[mean, max, min])),
            other => panic!("expected a campaign result, got {other:?}"),
        }
        assert_eq!(progress, (1..=5).map(|d| (d, 5)).collect::<Vec<_>>());
    }
}
