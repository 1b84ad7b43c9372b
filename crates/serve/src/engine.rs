//! The serving engine: admission control, per-model session pools, and a
//! work-stealing scheduler over `std::thread` workers.
//!
//! # Determinism contract
//!
//! Every job's result depends only on `(model spec, class, params, seed)`.
//! The scheduler guarantees this by construction:
//!
//! * a job runs on exactly one worker, sequentially, on a session that is
//!   [`etherm_core::Session::reset`] to the fresh-simulator state (nominal
//!   wire lengths, unit drive, no cached preconditioners) in the job
//!   prologue — nothing solved by previous tenants can leak in;
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
//! iteration budget (`Session::set_iteration_budget`; exhaustion → an
//! `error` frame with kind `budget-exhausted`), and per-model health (a
//! merged [`RecoveryLedger`] past the degradation threshold → `shed`).

use crate::clock::Clock;
use crate::protocol::{
    ErrorKind, JobParams, ModelHealth, RequestClass, Response, PROTOCOL_VERSION,
};
use crate::registry::ModelRegistry;
use crate::spec::ModelSpec;
use etherm_core::{
    CompiledModel, CoreError, ObserverAction, QoiEvaluator, RecoveryLedger, Session, StepObserver,
    StepRecord,
};
use etherm_reliability::{ReliabilityError, SurrogateWithFallback};
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
    surrogate: Mutex<Option<SurrogateWithFallback<ServeFullSolve>>>,
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
    /// fresh-simulator state: reset solver caches, nominal wire lengths,
    /// unit drive, zeroed counters. This prologue is what makes pooled
    /// sessions indistinguishable from new ones, bit for bit.
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
        session.reset();
        session.reset_counters();
        session.set_drive_scale(1.0)?;
        let nominal: Vec<f64> = self
            .compiled
            .model()
            .wires()
            .iter()
            .map(|w| w.wire.length())
            .collect();
        for (j, &length) in nominal.iter().enumerate() {
            session.set_wire_length(j, length)?;
        }
        Ok(session)
    }

    /// Returns a session to the pool, folding its recovery ledger into the
    /// model's health.
    fn checkin(&self, session: Session) {
        let mut pool = lock_or_recover(&self.pool);
        pool.ledger.merge(&session.recovery_ledger());
        pool.jobs_done += 1;
        pool.idle.push(session);
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
    /// The fallback is a dedicated [`ServeFullSolve`] session evaluating
    /// the peak-temperature QoI over `t_end`/`n_steps`; auto-refine stays
    /// off so answers are history-independent.
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
        let fallback = ServeFullSolve::new(Arc::clone(&compiled), t_end, n_steps);
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
    let mut session = match state.checkout() {
        Ok(session) => session,
        Err(e) => {
            finish(Response::Error {
                id: job.id,
                kind: ErrorKind::Internal,
                message: format!("session prologue failed: {e}"),
            });
            return;
        }
    };
    session.set_iteration_budget(Some(shared.config.budgets.for_class(job.class)));
    let outcome = execute_class(shared, job, &mut session, &state);
    session.set_iteration_budget(None);
    state.checkin(session);
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
        Err(e) => finish(error_response(job.id, &e)),
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

/// Observer threading cancellation, optional threshold early exit and
/// progress frames through a transient run.
struct RunObserver<'a> {
    job: &'a Job,
    n_steps: usize,
    every: usize,
    threshold: Option<f64>,
    crossed: bool,
    emit_progress: bool,
}

impl<'a> RunObserver<'a> {
    fn new(job: &'a Job, n_steps: usize, progress_points: usize) -> Self {
        RunObserver {
            job,
            n_steps,
            every: (n_steps / progress_points.max(1)).max(1),
            threshold: None,
            crossed: false,
            emit_progress: true,
        }
    }

    fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = Some(threshold);
        self
    }

    fn silent(mut self) -> Self {
        self.emit_progress = false;
        self
    }
}

impl StepObserver for RunObserver<'_> {
    fn observe(&mut self, record: &StepRecord<'_>) -> ObserverAction {
        if self.job.cancel.load(Ordering::SeqCst) {
            return ObserverAction::Stop;
        }
        if let Some(threshold) = self.threshold {
            if record
                .wire_temperatures
                .iter()
                .any(|&t| t >= threshold)
            {
                self.crossed = true;
                return ObserverAction::Stop;
            }
        }
        if self.emit_progress
            && record.step > 0
            && record.step < self.n_steps
            && record.step.is_multiple_of(self.every)
        {
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

fn execute_class(
    shared: &Shared,
    job: &Job,
    session: &mut Session,
    state: &ModelState,
) -> Result<JobOutput, CoreError> {
    let out = match job.class {
        RequestClass::WireSizing => run_wire_sizing(shared, job, session)?,
        RequestClass::Fusing => run_fusing(shared, job, session)?,
        RequestClass::Campaign => run_campaign(job, session)?,
        RequestClass::Qoi => run_qoi(job, session, state)?,
    };
    Ok(out)
}

/// Applies the seeded elongation sample `stream(seed)` to the session:
/// `L_j = nominal_j · (1 + spread · u_j)`, `u_j ∈ [-1, 1)`.
fn apply_seeded_lengths(
    session: &mut Session,
    nominal: &[f64],
    seed: u64,
    spread: f64,
) -> Result<(), CoreError> {
    let mut stream = seed;
    for (j, &length) in nominal.iter().enumerate() {
        let u = unit_symmetric(&mut stream);
        session.set_wire_length(j, length * (1.0 + spread * u))?;
    }
    Ok(())
}

fn nominal_lengths(session: &Session) -> Vec<f64> {
    session
        .compiled()
        .model()
        .wires()
        .iter()
        .map(|w| w.wire.length())
        .collect()
}

fn session_iterations(session: &Session) -> u64 {
    let c = session.counters();
    (c.electrical_iterations + c.thermal_iterations) as u64
}

fn run_wire_sizing(
    shared: &Shared,
    job: &Job,
    session: &mut Session,
) -> Result<JobOutput, CoreError> {
    let nominal = nominal_lengths(session);
    apply_seeded_lengths(session, &nominal, job.seed, job.params.spread)?;
    let mut observer = RunObserver::new(job, job.params.n_steps, shared.config.progress_points);
    let observed = session.run_transient_observed(
        job.params.t_end,
        job.params.n_steps,
        &[],
        &mut observer,
    )?;
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
        iterations: session_iterations(session),
    })
}

fn run_fusing(shared: &Shared, job: &Job, session: &mut Session) -> Result<JobOutput, CoreError> {
    let threshold = job.params.threshold;
    let total_evals = 8 + 8; // doubling phase + bisection phase, for progress
    let mut evals: u64 = 0;
    let mut peak_at = |session: &mut Session, scale: f64| -> Result<f64, CoreError> {
        if job.cancel.load(Ordering::SeqCst) {
            return Err(interrupted());
        }
        session.set_drive_scale(scale)?;
        let mut observer = RunObserver::new(job, job.params.n_steps, shared.config.progress_points)
            .with_threshold(threshold)
            .silent();
        let observed = session.run_transient_observed(
            job.params.t_end,
            job.params.n_steps,
            &[],
            &mut observer,
        )?;
        if job.cancel.load(Ordering::SeqCst) {
            return Err(interrupted());
        }
        evals += 1;
        let _ = job.tx.send(Response::Progress {
            id: job.id,
            done: evals.min(total_evals - 1),
            total: total_evals,
        });
        Ok(peak_of(&observed.solution))
    };
    // Exponential bracket: double the drive until the threshold is
    // crossed (or give up at 128×).
    let mut lo = 0.0_f64;
    let mut hi = 1.0_f64;
    let mut peak_hi = peak_at(session, hi)?;
    let mut doublings: u64 = 0;
    while peak_hi < threshold && doublings < 8 {
        lo = hi;
        hi *= 2.0;
        peak_hi = peak_at(session, hi)?;
        doublings += 1;
    }
    if peak_hi < threshold {
        // Not reachable within the bracket: report scale 0 (sentinel) and
        // the strongest peak seen.
        return Ok(JobOutput {
            qoi: vec![0.0, peak_hi],
            served_by: "full",
            full_solves: doublings + 1,
            served: 0,
            iterations: session_iterations(session),
        });
    }
    // Bisection for the critical scale.
    for _ in 0..8 {
        let mid = 0.5 * (lo + hi);
        let peak_mid = peak_at(session, mid)?;
        if peak_mid >= threshold {
            hi = mid;
            peak_hi = peak_mid;
        } else {
            lo = mid;
        }
    }
    Ok(JobOutput {
        qoi: vec![hi, peak_hi],
        served_by: "full",
        full_solves: evals,
        served: 0,
        iterations: session_iterations(session),
    })
}

fn run_campaign(job: &Job, session: &mut Session) -> Result<JobOutput, CoreError> {
    let nominal = nominal_lengths(session);
    let n = job.params.n_samples;
    let mut mean = 0.0;
    let mut max = f64::NEG_INFINITY;
    let mut min = f64::INFINITY;
    for s in 0..n {
        if job.cancel.load(Ordering::SeqCst) {
            return Err(interrupted());
        }
        // Per-sample substream: seed ⊕ sample index through splitmix64,
        // the same derivation for any worker count.
        let sample_seed = mix(job.seed, s as u64);
        apply_seeded_lengths(session, &nominal, sample_seed, job.params.spread)?;
        let mut observer = RunObserver::new(job, job.params.n_steps, 1).silent();
        let observed = session.run_transient_observed(
            job.params.t_end,
            job.params.n_steps,
            &[],
            &mut observer,
        )?;
        if job.cancel.load(Ordering::SeqCst) {
            return Err(interrupted());
        }
        let peak = peak_of(&observed.solution);
        mean += (peak - mean) / (s as f64 + 1.0);
        max = max.max(peak);
        min = min.min(peak);
        // The PR-4 serialized ensemble progress callback, as a frame: one
        // `(done, total)` tick per merged sample.
        let _ = job.tx.send(Response::Progress {
            id: job.id,
            done: (s + 1) as u64,
            total: n as u64,
        });
    }
    Ok(JobOutput {
        qoi: vec![mean, max, min],
        served_by: "full",
        full_solves: n as u64,
        served: 0,
        iterations: session_iterations(session),
    })
}

fn run_qoi(job: &Job, session: &mut Session, state: &ModelState) -> Result<JobOutput, CoreError> {
    let nominal = nominal_lengths(session);
    let dim = nominal.len();
    if job.params.samples.is_empty() {
        return Err(CoreError::InvalidModel(
            "qoi requests need explicit params.samples".to_string(),
        ));
    }
    for (i, sample) in job.params.samples.iter().enumerate() {
        if sample.len() != dim {
            return Err(CoreError::InvalidModel(format!(
                "qoi sample {i} has dimension {} but the model has {dim} wires",
                sample.len()
            )));
        }
    }
    // Surrogate tier first, when registered.
    {
        let mut tier = lock_or_recover(&state.surrogate);
        if let Some(tier) = tier.as_mut() {
            let full_before = tier.full_solves() as u64;
            let served_before = tier.served() as u64;
            let iters_before = {
                let c = tier.counters();
                (c.electrical_iterations + c.thermal_iterations) as u64
            };
            let outputs = tier.evaluate(&job.params.samples)?;
            let mut qoi = Vec::new();
            for (i, out) in outputs.iter().enumerate() {
                if out.is_empty() {
                    return Err(CoreError::EnsembleFailed {
                        sample: i,
                        failures: 1,
                        abandoned: 0,
                        source: Box::new(CoreError::InvalidModel(
                            "sample quarantined by the evaluator".to_string(),
                        )),
                    });
                }
                qoi.extend_from_slice(out);
            }
            let iters_after = {
                let c = tier.counters();
                (c.electrical_iterations + c.thermal_iterations) as u64
            };
            return Ok(JobOutput {
                qoi,
                served_by: "surrogate",
                full_solves: tier.full_solves() as u64 - full_before,
                served: tier.served() as u64 - served_before,
                iterations: iters_after - iters_before,
            });
        }
    }
    // Full-solve path: one reset transient per sample.
    let mut qoi = Vec::with_capacity(job.params.samples.len());
    for (i, sample) in job.params.samples.iter().enumerate() {
        if job.cancel.load(Ordering::SeqCst) {
            return Err(interrupted());
        }
        for (j, &delta) in sample.iter().enumerate() {
            if !(delta.is_finite() && delta > -0.9) {
                return Err(CoreError::InvalidModel(format!(
                    "qoi sample {i}, wire {j}: relative elongation {delta} out of range"
                )));
            }
            session.set_wire_length(j, nominal[j] * (1.0 + delta))?;
        }
        let mut observer = RunObserver::new(job, job.params.n_steps, 1).silent();
        let observed = session.run_transient_observed(
            job.params.t_end,
            job.params.n_steps,
            &[],
            &mut observer,
        )?;
        if job.cancel.load(Ordering::SeqCst) {
            return Err(interrupted());
        }
        qoi.push(peak_of(&observed.solution));
        let _ = job.tx.send(Response::Progress {
            id: job.id,
            done: (i + 1) as u64,
            total: job.params.samples.len() as u64,
        });
    }
    Ok(JobOutput {
        qoi,
        served_by: "full",
        full_solves: job.params.samples.len() as u64,
        served: 0,
        iterations: session_iterations(session),
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

// ---------------------------------------------------------------------------
// The owned full-solve fallback behind the surrogate tier
// ---------------------------------------------------------------------------

/// An owned [`QoiEvaluator`]: peak wire temperature per sample, each
/// evaluated on a dedicated reset session (history-independent, so serve
/// answers are reproducible regardless of request order).
pub struct ServeFullSolve {
    session: Session,
    nominal: Vec<f64>,
    t_end: f64,
    n_steps: usize,
    evaluated: usize,
}

impl ServeFullSolve {
    /// A fallback evaluator over `compiled` running `t_end`/`n_steps`
    /// transients.
    pub fn new(compiled: Arc<CompiledModel>, t_end: f64, n_steps: usize) -> Self {
        let nominal = compiled
            .model()
            .wires()
            .iter()
            .map(|w| w.wire.length())
            .collect();
        ServeFullSolve {
            session: Session::new(compiled),
            nominal,
            t_end,
            n_steps,
            evaluated: 0,
        }
    }
}

impl QoiEvaluator for ServeFullSolve {
    fn dim(&self) -> usize {
        self.nominal.len()
    }

    fn evaluate(&mut self, samples: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, CoreError> {
        let mut outputs = Vec::with_capacity(samples.len());
        for sample in samples {
            self.session.reset();
            for (j, &delta) in sample.iter().enumerate() {
                if !(delta.is_finite() && delta > -0.9) {
                    return Err(CoreError::InvalidModel(format!(
                        "fallback sample entry {delta} out of range"
                    )));
                }
                let length = self
                    .nominal
                    .get(j)
                    .copied()
                    .ok_or_else(|| CoreError::InvalidModel("sample dimension mismatch".into()))?;
                self.session.set_wire_length(j, length * (1.0 + delta))?;
            }
            let sol = self.session.run_transient(self.t_end, self.n_steps, &[])?;
            outputs.push(vec![peak_of(&sol)]);
            self.evaluated += 1;
        }
        Ok(outputs)
    }

    fn full_solves(&self) -> usize {
        self.evaluated
    }

    fn served(&self) -> usize {
        0
    }

    fn counters(&self) -> etherm_core::SolveCounters {
        self.session.counters()
    }
}
