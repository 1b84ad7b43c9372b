//! The ensemble engine: evaluate one compiled model for many parameter
//! samples across worker threads, each with a long-lived [`Session`].
//!
//! This is the execution layer of a UQ campaign (paper §IV): the model is
//! compiled once, every worker thread owns one session, and the samples are
//! split into contiguous index chunks, so outputs are merged in sample order
//! and the result is independent of scheduling. Each sample starts from a
//! [`Session::reset`], making the outputs *bit-identical* to a fresh
//! session per sample (and therefore identical for any `n_threads`). The
//! batched path ([`run_ensemble_batched`]) runs through the same
//! scheduler, with lock-step groups of samples in place of single samples.

use crate::compiled::CompiledModel;
use crate::error::CoreError;
use crate::session::{run_fixed_step, Panel, Session, SolveCounters};
use crate::solution::TransientSolution;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

/// One evaluation recipe of a UQ campaign: how a parameter sample is
/// applied to a session and which quantities of interest come back.
///
/// Implementations must be [`Sync`]: one instance is shared by all worker
/// threads.
pub trait Scenario: Sync {
    /// Applies one parameter sample to the session (e.g. sets the sampled
    /// wire lengths). Called before every [`Scenario::evaluate`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for invalid parameters; the error aborts the
    /// ensemble run (first error by sample index wins).
    fn apply(&self, session: &mut Session, sample: &[f64]) -> Result<(), CoreError>;

    /// Runs the simulation on the prepared session and extracts the QoI
    /// vector. The output length must be identical across samples.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    fn evaluate(&self, session: &mut Session) -> Result<Vec<f64>, CoreError>;

    /// [`Scenario::apply`] with the sample's global index — override to
    /// make per-sample-index decisions (e.g. a fault campaign installing a
    /// different [`etherm_numerics::solvers::FaultPlan`] per sample). The
    /// default forwards to [`Scenario::apply`].
    ///
    /// # Errors
    ///
    /// See [`Scenario::apply`].
    fn apply_indexed(
        &self,
        session: &mut Session,
        sample: &[f64],
        index: usize,
    ) -> Result<(), CoreError> {
        let _ = index;
        self.apply(session, sample)
    }
}

/// A borrowed scenario is a scenario, so owners of a scenario (such as
/// [`crate::FullSolve`]) also accept a reference to one.
impl<S: Scenario + ?Sized> Scenario for &S {
    fn apply(&self, session: &mut Session, sample: &[f64]) -> Result<(), CoreError> {
        (**self).apply(session, sample)
    }

    fn evaluate(&self, session: &mut Session) -> Result<Vec<f64>, CoreError> {
        (**self).evaluate(session)
    }

    fn apply_indexed(
        &self,
        session: &mut Session,
        sample: &[f64],
        index: usize,
    ) -> Result<(), CoreError> {
        (**self).apply_indexed(session, sample, index)
    }
}

/// A [`Scenario`] whose evaluation is the standard transient run — the
/// shape the batched fast path can drive in lock-step across a panel of
/// samples.
///
/// [`run_ensemble_batched`] cannot treat [`Scenario::evaluate`] as a black
/// box (it must own the time loop to fuse the members' linear solves), so
/// batchable scenarios expose the transient parameters and the QoI
/// extraction separately. [`Scenario::apply`] is inherited unchanged.
pub trait BatchScenario: Scenario {
    /// End time of the transient (s).
    fn t_end(&self) -> f64;

    /// Number of implicit-Euler steps.
    fn n_steps(&self) -> usize;

    /// Extracts the QoI vector from one sample's solution. Must match what
    /// [`Scenario::evaluate`] returns for the same run.
    fn qoi(&self, solution: &TransientSolution) -> Vec<f64>;
}

/// What [`run_ensemble`] does when a sample fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Abort the run on the first failure: the lowest-index error is
    /// reported (wrapped in [`CoreError::EnsembleFailed`]) and the other
    /// workers stop at their next sample boundary.
    #[default]
    Abort,
    /// Quarantine failed samples and keep going: their errors are collected
    /// in [`EnsembleResult::failures`], their output slot stays empty, and
    /// the remaining samples are evaluated normally (bit-identical to a run
    /// without the bad samples, for any thread count). More than
    /// `max_failures` failures abort the run like [`FailurePolicy::Abort`]
    /// — the backstop against a systematically broken campaign.
    Quarantine {
        /// Failure tolerance: exceeding it aborts the run.
        max_failures: usize,
    },
}

/// Options of [`run_ensemble`].
#[derive(Clone)]
pub struct EnsembleOptions {
    /// Worker threads (each owns one [`Session`]); samples are split into
    /// contiguous chunks of `ceil(n / n_threads)`.
    pub n_threads: usize,
    /// Serialized progress callback `(samples_done, total)`: called on the
    /// coordinating thread as results are merged in sample order, so
    /// output never interleaves regardless of `n_threads`. A closure, so
    /// it may carry state (a serving front end sends one frame per merged
    /// sample through it).
    pub progress: Option<Arc<dyn Fn(usize, usize) + Send + Sync>>,
    /// What to do when a sample fails (default: abort the run).
    pub failure_policy: FailurePolicy,
}

impl std::fmt::Debug for EnsembleOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnsembleOptions")
            .field("n_threads", &self.n_threads)
            .field("progress", &self.progress.is_some())
            .field("failure_policy", &self.failure_policy)
            .finish()
    }
}

impl Default for EnsembleOptions {
    fn default() -> Self {
        EnsembleOptions {
            n_threads: 1,
            progress: None,
            failure_policy: FailurePolicy::default(),
        }
    }
}

/// One quarantined sample of an ensemble run.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleFailure {
    /// Global sample index.
    pub sample: usize,
    /// The error that quarantined it.
    pub error: CoreError,
}

/// Results of an ensemble run.
#[derive(Debug, Clone)]
pub struct EnsembleResult {
    /// QoI vector per sample, in sample order. Quarantined samples hold an
    /// empty vector (see [`EnsembleResult::failures`]).
    pub outputs: Vec<Vec<f64>>,
    /// Solve counters merged over all worker sessions (sample-order
    /// independent: sums and maxima).
    pub counters: SolveCounters,
    /// Quarantined samples in sample order (empty under
    /// [`FailurePolicy::Abort`], which errors instead).
    pub failures: Vec<SampleFailure>,
}

/// Evaluates `scenario` for every sample in `samples` and returns the QoIs
/// in sample order plus the merged solve counters.
///
/// # Errors
///
/// Under [`FailurePolicy::Abort`] (the default), any sample failure aborts
/// the run with [`CoreError::EnsembleFailed`] wrapping the error of the
/// failing sample with the smallest index; other workers skip every sample
/// after the lowest failing index known so far (earlier samples still run,
/// so the smallest failing index is found whatever the thread timing) and
/// the abandoned count is reported in the error. Under
/// [`FailurePolicy::Quarantine`] failures up to `max_failures` are
/// collected in [`EnsembleResult::failures`] instead — the failing worker
/// resets its session (clearing any NaN contamination) and continues with
/// its next sample, so the surviving outputs are bit-identical to a run
/// without the bad samples, for any thread count.
///
/// # Panics
///
/// Panics if `options.n_threads == 0` or a worker thread panics.
pub fn run_ensemble<S: Scenario>(
    compiled: &Arc<CompiledModel>,
    scenario: &S,
    samples: &[Vec<f64>],
    options: &EnsembleOptions,
) -> Result<EnsembleResult, CoreError> {
    schedule(compiled, samples, 1, options, |worker, first, group| {
        let session = &mut worker.members[0];
        scenario
            .apply_indexed(session, &group[0], first)
            .and_then(|()| scenario.evaluate(session))
            .map(|y| vec![y])
            .map_err(|error| SampleFailure {
                sample: first,
                error,
            })
    })
}

/// [`run_ensemble`] through the batched fast path: samples are grouped
/// into panels of [`crate::SolverOptions::batch_width`] **globally in
/// sample order**, and each worker advances whole groups through the
/// fixed-step transient in lock step. Every Picard iterate of a group step
/// solves each subsystem once for all members: one block-Krylov solve over
/// the members' same-pattern matrices with one group preconditioner, so
/// the group shares every matrix traversal. A group of one sample runs the
/// scalar path.
///
/// Grouping is independent of `options.n_threads` and nothing crosses
/// group boundaries, so the outputs are bit-identical for any worker
/// count. Every group starts from reset sessions (cross-sample reuse inside
/// a group happens through the shared preconditioner instead). A
/// `batch_width` of 0 or 1 falls back to the scalar [`run_ensemble`].
///
/// # Errors
///
/// Like [`run_ensemble`]. A group step that fails with a retryable error
/// (a planned fault, a breakdown, a non-finite or unconverged column) is
/// redone member by member on the scalar path,
/// with the recovery ladder, `dt`-halving and fault plans; lock step
/// resumes at the next step. A member that still fails, or a member error
/// that no rerun can repair (an exhausted iteration budget, an invalid
/// parameter), fails its whole group: under [`FailurePolicy::Quarantine`]
/// every member of the group is quarantined, and
/// [`CoreError::EnsembleFailed`] names the member that failed.
///
/// # Panics
///
/// Panics if `options.n_threads == 0` or a worker thread panics.
pub fn run_ensemble_batched<S: BatchScenario>(
    compiled: &Arc<CompiledModel>,
    scenario: &S,
    samples: &[Vec<f64>],
    options: &EnsembleOptions,
) -> Result<EnsembleResult, CoreError> {
    let width = compiled.options().batch_width;
    if width <= 1 {
        return run_ensemble(compiled, scenario, samples, options);
    }
    let (t_end, n_steps) = (scenario.t_end(), scenario.n_steps());
    let run_group = |worker: &mut Worker, first: usize, group: &[Vec<f64>]| {
        let members = &mut worker.members[..group.len()];
        for (j, (session, sample)) in members.iter_mut().zip(group).enumerate() {
            scenario
                .apply_indexed(session, sample, first + j)
                .map_err(|error| SampleFailure {
                    sample: first + j,
                    error,
                })?;
        }
        let runs = run_fixed_step(members, &mut worker.panel, t_end, n_steps, &[], None)
            .map_err(|(j, error)| SampleFailure {
                sample: first + j,
                error,
            })?;
        Ok(runs.iter().map(|run| scenario.qoi(&run.solution)).collect())
    };
    schedule(compiled, samples, width, options, run_group)
}

/// One worker's sessions: the members of its current group and their
/// shared panel state (a single session on the scalar path).
struct Worker {
    members: Vec<Session>,
    panel: Panel,
}

/// The scheduler behind [`run_ensemble`] and [`run_ensemble_batched`]:
/// samples are cut into groups of `width` in sample order, the groups into
/// contiguous chunks of `ceil(groups / n_threads)`, and every worker thread
/// runs `run_group(worker, first_sample, group)` over its chunk (a single
/// chunk runs on the calling thread). Outputs are merged in sample order
/// while the workers run. A failed group quarantines all its members; the
/// returned [`SampleFailure`] names the member to blame in
/// [`CoreError::EnsembleFailed`].
fn schedule<F>(
    compiled: &Arc<CompiledModel>,
    samples: &[Vec<f64>],
    width: usize,
    options: &EnsembleOptions,
    run_group: F,
) -> Result<EnsembleResult, CoreError>
where
    F: Fn(&mut Worker, usize, &[Vec<f64>]) -> Result<Vec<Vec<f64>>, SampleFailure> + Sync,
{
    assert!(options.n_threads > 0, "run_ensemble: need ≥ 1 thread");
    let n = samples.len();
    if n == 0 {
        return Ok(EnsembleResult {
            outputs: Vec::new(),
            counters: SolveCounters::default(),
            failures: Vec::new(),
        });
    }
    let groups: Vec<&[Vec<f64>]> = samples.chunks(width).collect();
    let chunk = groups.len().div_ceil(options.n_threads).max(1);
    let max_failures = match options.failure_policy {
        FailurePolicy::Abort => 0,
        FailurePolicy::Quarantine { max_failures } => max_failures,
    };
    // Cooperative cancellation: the lowest group index known to abort the
    // run, lowered by a failing worker (abort policy) or by the coordinator
    // (quarantine overflow); workers skip every later group. Groups before
    // it still run, so the lowest-index failure is always found and
    // reported, whatever the thread timing. Never lowered while a
    // quarantine run stays within its failure tolerance, so such runs
    // attempt every group — the property that makes their outcome
    // independent of the thread count.
    let stop_after = AtomicUsize::new(usize::MAX);

    type GroupResult = Result<Vec<Vec<f64>>, SampleFailure>;
    // One worker's pass over chunk `c`: each group's result goes to
    // `emit`, which answers whether anyone still listens.
    let run_chunk = |c: usize,
                     block: &[&[Vec<f64>]],
                     emit: &mut dyn FnMut(usize, GroupResult) -> bool|
     -> SolveCounters {
        let mut worker = Worker {
            members: (0..width)
                .map(|_| Session::new(Arc::clone(compiled)))
                .collect(),
            panel: Panel::default(),
        };
        for (gk, group) in block.iter().enumerate() {
            let g = c * chunk + gk;
            if g > stop_after.load(Ordering::Relaxed) {
                break;
            }
            // Every group starts from reset sessions: it is independent of
            // everything solved before, including a quarantined group's
            // contamination (NaN-poisoned guesses, degraded
            // preconditioners).
            for m in &mut worker.members {
                m.reset();
            }
            let result = run_group(&mut worker, g * width, group);
            let failed = result.is_err();
            if failed && max_failures == 0 {
                stop_after.fetch_min(g, Ordering::Relaxed);
            }
            if !emit(g, result) || (failed && max_failures == 0) {
                break;
            }
        }
        let mut counters = SolveCounters::default();
        for m in &worker.members {
            counters.merge(&m.counters());
        }
        counters
    };

    // Merge in sample order *while the workers run*: results stream in as
    // they complete and the serialized progress callback fires as the
    // ordered frontier advances. Failed samples count as processed (their
    // slot is an empty vector) so the frontier never stalls.
    let mut slots: Vec<Option<Vec<f64>>> = (0..n).map(|_| None).collect();
    let mut failures: Vec<SampleFailure> = Vec::new();
    let mut blamed: Vec<SampleFailure> = Vec::new();
    let mut done = 0usize;
    let mut merge = |g: usize, result: GroupResult| {
        let first = g * width;
        match result {
            Ok(ys) => {
                for (j, y) in ys.into_iter().enumerate() {
                    slots[first + j] = Some(y);
                }
            }
            Err(failure) => {
                for i in first..first + groups[g].len() {
                    failures.push(SampleFailure {
                        sample: i,
                        error: failure.error.clone(),
                    });
                    slots[i] = Some(Vec::new());
                }
                blamed.push(failure);
                if failures.len() > max_failures {
                    stop_after.fetch_min(g, Ordering::Relaxed);
                }
            }
        }
        while done < n && slots[done].is_some() {
            done += 1;
            if let Some(progress) = &options.progress {
                progress(done, n);
            }
        }
    };

    let blocks: Vec<&[&[Vec<f64>]]> = groups.chunks(chunk).collect();
    let counters: Vec<SolveCounters> = if let [block] = blocks[..] {
        // One chunk runs on the calling thread: no thread is spawned, and
        // its sessions allocate in the caller's allocator arena.
        vec![run_chunk(0, block, &mut |g, result| {
            merge(g, result);
            true
        })]
    } else {
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<(usize, GroupResult)>();
            let run_chunk = &run_chunk;
            let handles: Vec<_> = blocks
                .iter()
                .enumerate()
                .map(|(c, block)| {
                    let tx = tx.clone();
                    scope.spawn(move || {
                        run_chunk(c, block, &mut |g, result| tx.send((g, result)).is_ok())
                    })
                })
                .collect();
            drop(tx);
            for (g, result) in rx {
                merge(g, result);
            }
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(c) => c,
                    // Re-raise the worker's own panic payload, not a new one.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    };

    failures.sort_by_key(|f| f.sample);
    if failures.len() > max_failures {
        let abandoned = slots.iter().filter(|s| s.is_none()).count();
        // The member to blame in the lowest-index failed group leads.
        let Some(first) = blamed.into_iter().min_by_key(|f| f.sample) else {
            return Err(CoreError::InvalidModel(
                "ensemble failure accounting out of sync".into(),
            ));
        };
        return Err(CoreError::EnsembleFailed {
            sample: first.sample,
            failures: failures.len(),
            abandoned,
            source: Box::new(first.error),
        });
    }

    let outputs: Vec<Vec<f64>> = slots
        .into_iter()
        .map(Option::unwrap_or_default)
        .collect();
    let mut merged = SolveCounters::default();
    for c in &counters {
        merged.merge(c);
    }
    Ok(EnsembleResult {
        outputs,
        counters: merged,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ElectrothermalModel;
    use crate::options::SolverOptions;
    use etherm_fit::boundary::ThermalBoundary;
    use etherm_grid::{Axis, CellPaint, Grid3, MaterialId};
    use etherm_materials::{library, MaterialTable};

    /// A driven epoxy block with one wire across it.
    fn wire_model() -> ElectrothermalModel {
        let grid = Grid3::new(
            Axis::uniform(0.0, 2e-3, 4).unwrap(),
            Axis::uniform(0.0, 1e-3, 2).unwrap(),
            Axis::uniform(0.0, 0.5e-3, 1).unwrap(),
        );
        let paint = CellPaint::new(&grid, MaterialId(0));
        let mut materials = MaterialTable::new();
        materials.add(library::epoxy_resin());
        let mut model = ElectrothermalModel::new(grid, paint, materials).unwrap();
        let wire =
            etherm_bondwire::BondWire::new("w", 1.5e-3, 25.4e-6, library::copper()).unwrap();
        model
            .add_wire(wire, (0.0, 0.5e-3, 0.5e-3), (2e-3, 0.5e-3, 0.5e-3))
            .unwrap();
        let a = model.wires()[0].node_a;
        let b = model.wires()[0].node_b;
        model.set_electric_potential(&[a], 0.02);
        model.set_electric_potential(&[b], -0.02);
        model.set_thermal_boundary(ThermalBoundary::convective(25.0, 300.0));
        model
    }

    struct LengthScenario;
    impl Scenario for LengthScenario {
        fn apply(&self, session: &mut Session, sample: &[f64]) -> Result<(), CoreError> {
            session.set_wire_length(0, sample[0])
        }
        fn evaluate(&self, session: &mut Session) -> Result<Vec<f64>, CoreError> {
            let sol = session.run_transient(2.0, 4, &[])?;
            Ok(vec![*sol.wire_series(0).last().unwrap()])
        }
    }
    impl BatchScenario for LengthScenario {
        fn t_end(&self) -> f64 {
            2.0
        }
        fn n_steps(&self) -> usize {
            4
        }
        fn qoi(&self, solution: &TransientSolution) -> Vec<f64> {
            vec![*solution.wire_series(0).last().unwrap()]
        }
    }

    fn samples() -> Vec<Vec<f64>> {
        (0..7).map(|i| vec![1.2e-3 + 1e-4 * i as f64]).collect()
    }

    #[test]
    fn deterministic_for_any_thread_count() {
        let compiled = Arc::new(
            CompiledModel::compile(wire_model(), SolverOptions::default()).unwrap(),
        );
        let samples = samples();
        let serial = run_ensemble(
            &compiled,
            &LengthScenario,
            &samples,
            &EnsembleOptions::default(),
        )
        .unwrap();
        for threads in [2, 3, 5] {
            let par = run_ensemble(
                &compiled,
                &LengthScenario,
                &samples,
                &EnsembleOptions {
                    n_threads: threads,
                    ..EnsembleOptions::default()
                },
            )
            .unwrap();
            assert_eq!(par.outputs, serial.outputs, "threads = {threads}");
            // Exact mode: every sample is independent, so the merged
            // counters are identical for any chunking.
            assert_eq!(par.counters, serial.counters, "threads = {threads}");
        }
    }

    #[test]
    fn progress_streams_in_order() {
        use std::sync::Mutex;
        let calls = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&calls);
        let compiled = Arc::new(
            CompiledModel::compile(wire_model(), SolverOptions::default()).unwrap(),
        );
        run_ensemble(
            &compiled,
            &LengthScenario,
            &samples(),
            &EnsembleOptions {
                n_threads: 3,
                progress: Some(Arc::new(move |done, total| {
                    log.lock().unwrap().push((done, total));
                })),
                failure_policy: FailurePolicy::Abort,
            },
        )
        .unwrap();
        let calls = calls.lock().unwrap();
        assert_eq!(calls.len(), 7);
        for (k, &(done, total)) in calls.iter().enumerate() {
            assert_eq!(total, 7);
            assert_eq!(done, k + 1, "progress out of order: {calls:?}");
        }
    }

    #[test]
    fn first_error_by_sample_index_wins() {
        struct Failing;
        impl Scenario for Failing {
            fn apply(&self, _: &mut Session, sample: &[f64]) -> Result<(), CoreError> {
                if sample[0] > 1.45e-3 {
                    return Err(CoreError::InvalidModel(format!("bad {}", sample[0])));
                }
                Ok(())
            }
            fn evaluate(&self, session: &mut Session) -> Result<Vec<f64>, CoreError> {
                let sol = session.run_transient(1.0, 2, &[])?;
                Ok(vec![*sol.wire_series(0).last().unwrap()])
            }
        }
        let compiled = Arc::new(
            CompiledModel::compile(wire_model(), SolverOptions::default()).unwrap(),
        );
        // Samples 3.. all fail; the reported error must be sample 3's.
        let err = run_ensemble(
            &compiled,
            &Failing,
            &samples(),
            &EnsembleOptions {
                n_threads: 3,
                ..EnsembleOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("0.0015"), "{err}");
    }

    /// Fails on a fixed set of sample indices via `apply_indexed`.
    struct FailAt(&'static [usize]);
    impl Scenario for FailAt {
        fn apply(&self, session: &mut Session, sample: &[f64]) -> Result<(), CoreError> {
            session.set_wire_length(0, sample[0])
        }
        fn apply_indexed(
            &self,
            session: &mut Session,
            sample: &[f64],
            index: usize,
        ) -> Result<(), CoreError> {
            if self.0.contains(&index) {
                return Err(CoreError::InvalidModel(format!("planned failure {index}")));
            }
            self.apply(session, sample)
        }
        fn evaluate(&self, session: &mut Session) -> Result<Vec<f64>, CoreError> {
            let sol = session.run_transient(2.0, 4, &[])?;
            Ok(vec![*sol.wire_series(0).last().unwrap()])
        }
    }
    impl BatchScenario for FailAt {
        fn t_end(&self) -> f64 {
            2.0
        }
        fn n_steps(&self) -> usize {
            4
        }
        fn qoi(&self, solution: &TransientSolution) -> Vec<f64> {
            vec![*solution.wire_series(0).last().unwrap()]
        }
    }

    #[test]
    fn quarantine_keeps_surviving_samples_bit_identical() {
        let compiled = Arc::new(
            CompiledModel::compile(wire_model(), SolverOptions::default()).unwrap(),
        );
        let samples = samples();
        let clean = run_ensemble(
            &compiled,
            &LengthScenario,
            &samples,
            &EnsembleOptions::default(),
        )
        .unwrap();
        let failing = FailAt(&[1, 4]);
        let mut reference: Option<EnsembleResult> = None;
        for threads in [1, 2, 4] {
            let r = run_ensemble(
                &compiled,
                &failing,
                &samples,
                &EnsembleOptions {
                    n_threads: threads,
                    failure_policy: FailurePolicy::Quarantine { max_failures: 2 },
                    ..EnsembleOptions::default()
                },
            )
            .unwrap();
            assert_eq!(r.failures.len(), 2);
            assert_eq!(
                r.failures.iter().map(|f| f.sample).collect::<Vec<_>>(),
                vec![1, 4]
            );
            for (i, out) in r.outputs.iter().enumerate() {
                if i == 1 || i == 4 {
                    assert!(out.is_empty(), "quarantined sample {i} has output");
                } else {
                    assert_eq!(out, &clean.outputs[i], "sample {i} moved");
                }
            }
            if let Some(reference) = &reference {
                assert_eq!(r.outputs, reference.outputs, "threads = {threads}");
                assert_eq!(r.counters, reference.counters, "threads = {threads}");
            } else {
                reference = Some(r);
            }
        }
    }

    #[test]
    fn quarantine_overflow_aborts_with_context() {
        let compiled = Arc::new(
            CompiledModel::compile(wire_model(), SolverOptions::default()).unwrap(),
        );
        let err = run_ensemble(
            &compiled,
            &FailAt(&[1, 3, 5]),
            &samples(),
            &EnsembleOptions {
                failure_policy: FailurePolicy::Quarantine { max_failures: 1 },
                ..EnsembleOptions::default()
            },
        )
        .unwrap_err();
        match err {
            CoreError::EnsembleFailed {
                sample, failures, ..
            } => {
                assert_eq!(sample, 1);
                assert!(failures >= 2);
            }
            other => panic!("expected EnsembleFailed, got {other}"),
        }
    }

    #[test]
    fn abort_reports_abandoned_samples() {
        let compiled = Arc::new(
            CompiledModel::compile(wire_model(), SolverOptions::default()).unwrap(),
        );
        // Serial run failing at sample 2: samples 3.. are never attempted.
        let err = run_ensemble(
            &compiled,
            &FailAt(&[2]),
            &samples(),
            &EnsembleOptions::default(),
        )
        .unwrap_err();
        match err {
            CoreError::EnsembleFailed {
                sample,
                failures,
                abandoned,
                ..
            } => {
                assert_eq!(sample, 2);
                assert_eq!(failures, 1);
                assert_eq!(abandoned, 4);
            }
            other => panic!("expected EnsembleFailed, got {other}"),
        }
    }

    /// The campaign-style options used by the batched tests: pinned outer
    /// iteration structure so scalar and lock-step Picard loops do the same
    /// number of iterates per step.
    fn pinned_options(batch_width: usize) -> SolverOptions {
        SolverOptions {
            picard_tol: 0.0,
            picard_max_iter: 4,
            batch_width,
            ..SolverOptions::default()
        }
    }

    #[test]
    fn batched_matches_scalar_exact_within_tolerance() {
        let exact_compiled = Arc::new(
            CompiledModel::compile(wire_model(), pinned_options(0)).unwrap(),
        );
        let samples = samples();
        let exact = run_ensemble(
            &exact_compiled,
            &LengthScenario,
            &samples,
            &EnsembleOptions::default(),
        )
        .unwrap();
        let batched_compiled = Arc::new(
            CompiledModel::compile(wire_model(), pinned_options(3)).unwrap(),
        );
        let batched = run_ensemble_batched(
            &batched_compiled,
            &LengthScenario,
            &samples,
            &EnsembleOptions::default(),
        )
        .unwrap();
        assert_eq!(batched.outputs.len(), exact.outputs.len());
        for (i, (a, b)) in exact.outputs.iter().zip(&batched.outputs).enumerate() {
            assert!(
                (a[0] - b[0]).abs() < 1e-6,
                "sample {i}: scalar {} vs batched {}",
                a[0],
                b[0]
            );
        }
        // The fused path solves all k thermal systems of a group per block
        // solve, so it performs the same number of thermal solves.
        assert_eq!(
            batched.counters.thermal_solves,
            exact.counters.thermal_solves
        );
    }

    #[test]
    fn batched_is_bit_identical_for_any_thread_count() {
        let compiled = Arc::new(
            CompiledModel::compile(wire_model(), pinned_options(2)).unwrap(),
        );
        let samples = samples();
        let serial = run_ensemble_batched(
            &compiled,
            &LengthScenario,
            &samples,
            &EnsembleOptions::default(),
        )
        .unwrap();
        for threads in [2, 3, 4] {
            let par = run_ensemble_batched(
                &compiled,
                &LengthScenario,
                &samples,
                &EnsembleOptions {
                    n_threads: threads,
                    ..EnsembleOptions::default()
                },
            )
            .unwrap();
            assert_eq!(par.outputs, serial.outputs, "threads = {threads}");
            assert_eq!(par.counters, serial.counters, "threads = {threads}");
        }
    }

    #[test]
    fn batched_width_one_falls_back_to_scalar_exact() {
        let scalar = Arc::new(
            CompiledModel::compile(wire_model(), pinned_options(0)).unwrap(),
        );
        let batched = Arc::new(
            CompiledModel::compile(wire_model(), pinned_options(1)).unwrap(),
        );
        let samples = samples();
        let a = run_ensemble(&scalar, &LengthScenario, &samples, &EnsembleOptions::default())
            .unwrap();
        let b = run_ensemble_batched(
            &batched,
            &LengthScenario,
            &samples,
            &EnsembleOptions::default(),
        )
        .unwrap();
        assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn batched_quarantines_whole_groups() {
        let compiled = Arc::new(
            CompiledModel::compile(wire_model(), pinned_options(2)).unwrap(),
        );
        // Sample 2 fails at apply: its group {2, 3} is quarantined.
        let failing = FailAt(&[2]);
        let r = run_ensemble_batched(
            &compiled,
            &failing,
            &samples(),
            &EnsembleOptions {
                failure_policy: FailurePolicy::Quarantine { max_failures: 2 },
                ..EnsembleOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            r.failures.iter().map(|f| f.sample).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert!(r.outputs[2].is_empty() && r.outputs[3].is_empty());
        assert!(!r.outputs[0].is_empty() && !r.outputs[4].is_empty());
    }

    #[test]
    fn batched_failure_names_the_failing_member() {
        let compiled = Arc::new(
            CompiledModel::compile(wire_model(), pinned_options(2)).unwrap(),
        );
        let err = run_ensemble_batched(
            &compiled,
            &FailAt(&[1]),
            &samples(),
            &EnsembleOptions::default(),
        )
        .unwrap_err();
        match err {
            CoreError::EnsembleFailed {
                sample, failures, ..
            } => {
                assert_eq!(sample, 1);
                assert_eq!(failures, 2);
            }
            other => panic!("expected EnsembleFailed, got {other}"),
        }
    }

    /// [`LengthScenario`] with `plan` installed on sample `target` only.
    struct FaultOn {
        target: usize,
        plan: etherm_numerics::solvers::FaultPlan,
    }
    impl Scenario for FaultOn {
        fn apply(&self, session: &mut Session, sample: &[f64]) -> Result<(), CoreError> {
            LengthScenario.apply(session, sample)
        }
        fn apply_indexed(
            &self,
            session: &mut Session,
            sample: &[f64],
            index: usize,
        ) -> Result<(), CoreError> {
            session.set_fault_plan((index == self.target).then(|| self.plan.clone()));
            self.apply(session, sample)
        }
        fn evaluate(&self, session: &mut Session) -> Result<Vec<f64>, CoreError> {
            LengthScenario.evaluate(session)
        }
    }
    impl BatchScenario for FaultOn {
        fn t_end(&self) -> f64 {
            LengthScenario.t_end()
        }
        fn n_steps(&self) -> usize {
            LengthScenario.n_steps()
        }
        fn qoi(&self, solution: &TransientSolution) -> Vec<f64> {
            LengthScenario.qoi(solution)
        }
    }

    /// Four samples at batch width 2 on the pinned campaign options.
    fn batched_pair(options: SolverOptions) -> (Arc<CompiledModel>, Vec<Vec<f64>>) {
        let compiled = Arc::new(CompiledModel::compile(wire_model(), options).unwrap());
        (compiled, samples()[..4].to_vec())
    }

    /// [`LengthScenario`] under a 5-iteration budget, set on every sample's
    /// session as a serving front end sets its class budgets.
    struct Budgeted;
    impl Scenario for Budgeted {
        fn apply(&self, session: &mut Session, sample: &[f64]) -> Result<(), CoreError> {
            session.set_iteration_budget(5);
            LengthScenario.apply(session, sample)
        }
        fn evaluate(&self, session: &mut Session) -> Result<Vec<f64>, CoreError> {
            LengthScenario.evaluate(session)
        }
    }
    impl BatchScenario for Budgeted {
        fn t_end(&self) -> f64 {
            LengthScenario.t_end()
        }
        fn n_steps(&self) -> usize {
            LengthScenario.n_steps()
        }
        fn qoi(&self, solution: &TransientSolution) -> Vec<f64> {
            LengthScenario.qoi(solution)
        }
    }

    #[test]
    fn batched_enforces_the_iteration_budget() {
        // Width 1 runs the scalar path, width 2 the panel path.
        for width in [1, 2] {
            let (compiled, samples) = batched_pair(pinned_options(width));
            let err =
                run_ensemble_batched(&compiled, &Budgeted, &samples, &EnsembleOptions::default())
                    .unwrap_err();
            assert!(
                matches!(err, CoreError::EnsembleFailed { .. }),
                "width {width}: {err}"
            );
            let mut source: Option<&dyn std::error::Error> = Some(&err);
            let mut budget = false;
            while let Some(e) = source {
                if let Some(CoreError::BudgetExhausted { budget: 5, .. }) = e.downcast_ref() {
                    budget = true;
                }
                source = e.source();
            }
            assert!(
                budget,
                "width {width}: no BudgetExhausted in the source chain of {err}"
            );
        }
    }

    #[test]
    fn batched_quarantines_a_saturating_fault() {
        use etherm_numerics::solvers::{FaultKind, FaultPlan};
        let (compiled, samples) = batched_pair(pinned_options(2));
        let clean = run_ensemble_batched(
            &compiled,
            &LengthScenario,
            &samples,
            &EnsembleOptions::default(),
        )
        .unwrap();
        let poisoned = FaultOn {
            target: 1,
            plan: FaultPlan::saturating(FaultKind::Nan),
        };
        let r = run_ensemble_batched(
            &compiled,
            &poisoned,
            &samples,
            &EnsembleOptions {
                failure_policy: FailurePolicy::Quarantine { max_failures: 2 },
                ..EnsembleOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            r.failures.iter().map(|f| f.sample).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(r.outputs[2..], clean.outputs[2..]);
    }

    #[test]
    fn batched_absorbs_a_one_shot_fault() {
        use etherm_numerics::solvers::{Fault, FaultKind, FaultPlan};
        let (compiled, samples) = batched_pair(pinned_options(2));
        let clean = run_ensemble_batched(
            &compiled,
            &LengthScenario,
            &samples,
            &EnsembleOptions::default(),
        )
        .unwrap();
        assert!(!clean.counters.recovery.any());
        let one_shot = FaultOn {
            target: 1,
            plan: FaultPlan::new(vec![Fault {
                solve: 0,
                apply: 0,
                kind: FaultKind::Nan,
            }]),
        };
        let mut reference: Option<EnsembleResult> = None;
        for threads in [1, 2, 4] {
            let r = run_ensemble_batched(
                &compiled,
                &one_shot,
                &samples,
                &EnsembleOptions {
                    n_threads: threads,
                    ..EnsembleOptions::default()
                },
            )
            .unwrap();
            assert!(r.failures.is_empty());
            assert!(r.counters.recovery.any(), "threads = {threads}");
            for (i, (a, b)) in clean.outputs.iter().zip(&r.outputs).enumerate() {
                assert!((a[0] - b[0]).abs() < 1e-6, "sample {i}: {} vs {}", a[0], b[0]);
            }
            if let Some(reference) = &reference {
                assert_eq!(r.outputs, reference.outputs, "threads = {threads}");
                assert_eq!(r.counters, reference.counters, "threads = {threads}");
            } else {
                reference = Some(r);
            }
        }
    }

    /// `options` with inexact Picard on.
    fn forced(options: SolverOptions) -> SolverOptions {
        SolverOptions {
            picard_forcing: true,
            ..options
        }
    }

    /// A fresh session on the one-wire block under `options`.
    fn wire_session(options: SolverOptions) -> Session {
        Session::new(Arc::new(
            CompiledModel::compile(wire_model(), options).unwrap(),
        ))
    }

    #[test]
    fn forcing_saves_thermal_cg_within_the_picard_tolerance() {
        let run = |options: SolverOptions| {
            let mut session = wire_session(options);
            let sol = session.run_transient(2.0, 4, &[2.0]).unwrap();
            (sol, session.counters())
        };
        let options = SolverOptions::default();
        let (tight, tight_counters) = run(options.clone());
        let (loose, loose_counters) = run(forced(options.clone()));
        assert!(
            loose_counters.thermal_iterations < tight_counters.thermal_iterations,
            "forcing spent {} thermal CG iterations, the tight loop {}",
            loose_counters.thermal_iterations,
            tight_counters.thermal_iterations
        );
        let t_max = tight.snapshots[0].1.iter().fold(0.0f64, |a, &b| a.max(b));
        let end = |sol: &TransientSolution| *sol.wire_series(0).last().unwrap();
        let drift = (end(&tight) - end(&loose)).abs();
        assert!(
            drift <= options.picard_tol * t_max,
            "end-time wire temperature moved {drift} K"
        );
    }

    #[test]
    fn forced_steps_converge_only_on_tight_iterates() {
        let options = forced(SolverOptions::default());
        let counted = options.picard_tol.max(options.linear.tol_rel);
        let mut session = wire_session(options);
        let mut t = session.initial_temperature();
        let mut phi = vec![0.0; t.len()];
        for step in 1..=8 {
            // A 0.1 ms step barely moves the temperature: its loose first
            // solve stops at the initial guess, an update of zero that only
            // the guard keeps from counting as converged.
            let dt = if step % 2 == 1 { 1e-4 } else { 0.5 };
            let r = session.step(&t, dt, &mut phi).unwrap();
            assert!(r.converged, "step {step} did not converge");
            assert!(
                r.thermal_tol <= counted,
                "step {step} converged on an iterate solved at {}",
                r.thermal_tol
            );
            t = r.temperature;
        }
    }

    #[test]
    fn forced_batched_is_bit_identical_for_any_thread_count() {
        let compiled = Arc::new(
            CompiledModel::compile(wire_model(), forced(pinned_options(2))).unwrap(),
        );
        let samples = samples();
        let mut reference: Option<EnsembleResult> = None;
        for threads in [1, 2, 4] {
            let r = run_ensemble_batched(
                &compiled,
                &LengthScenario,
                &samples,
                &EnsembleOptions {
                    n_threads: threads,
                    ..EnsembleOptions::default()
                },
            )
            .unwrap();
            if let Some(reference) = &reference {
                assert_eq!(r.outputs, reference.outputs, "threads = {threads}");
                assert_eq!(r.counters, reference.counters, "threads = {threads}");
            } else {
                reference = Some(r);
            }
        }
    }

    #[test]
    fn forced_width_one_and_ladder_off_are_bit_identical() {
        let samples = samples();
        let scalar = Arc::new(
            CompiledModel::compile(wire_model(), forced(SolverOptions::default())).unwrap(),
        );
        let reference = run_ensemble(
            &scalar,
            &LengthScenario,
            &samples,
            &EnsembleOptions::default(),
        )
        .unwrap();
        let width_one = Arc::new(
            CompiledModel::compile(
                wire_model(),
                SolverOptions {
                    batch_width: 1,
                    ..forced(SolverOptions::default())
                },
            )
            .unwrap(),
        );
        let batched = run_ensemble_batched(
            &width_one,
            &LengthScenario,
            &samples,
            &EnsembleOptions::default(),
        )
        .unwrap();
        assert_eq!(batched.outputs, reference.outputs);
        let ladder_off = Arc::new(
            CompiledModel::compile(
                wire_model(),
                SolverOptions {
                    recovery: false,
                    ..forced(SolverOptions::default())
                },
            )
            .unwrap(),
        );
        let bare = run_ensemble(
            &ladder_off,
            &LengthScenario,
            &samples,
            &EnsembleOptions::default(),
        )
        .unwrap();
        assert_eq!(bare.outputs, reference.outputs);
    }

    /// Implicit Euler conserves energy step by step: the heat stored,
    /// `Σᵢ cᵢ (T_{n+1,i} − T_{n,i})`, equals
    /// `Δt · (P_field + ΣP_wire − outflow(T_{n+1}))` up to the residual `r`
    /// of the step's last thermal solve. The wire block's boundary is
    /// convective only, so the outflow is linear in `T` and its lagging
    /// leaves no trace. That solve ran at a relative tolerance of at most
    /// `max(picard_tol, tol_rel)`, and every entry of the right-hand side
    /// `b = c∘T_n/Δt + q + hA·T_amb` is non-negative, so
    /// `Δt·|Σ rᵢ| ≤ Δt·√n·‖r‖₂ ≤ √n · tol · Δt·Σ bᵢ`. The bound holds on
    /// the IC path with and without inexact Picard, and on the AMG path of
    /// `uq()`, however few iterates the step predictor leaves.
    #[test]
    fn transient_steps_balance_energy() {
        let profiles = [
            SolverOptions::default(),
            forced(SolverOptions::default()),
            SolverOptions::uq(),
        ];
        for options in profiles {
            let profile = format!(
                "{:?}, forcing {}",
                options.preconditioner, options.picard_forcing
            );
            let tol = options.picard_tol.max(options.linear.tol_rel);
            let mut session = wire_session(options);
            let compiled = Arc::clone(session.compiled());
            let model = compiled.model();
            let (grid, boundary) = (model.grid(), model.thermal_boundary());
            let n_grid = grid.n_nodes();
            let mass = compiled.mass_diag_for(session.wires());
            // Σ hA·T_amb: minus the outflow of a field at 0 K.
            let ambient_inflow = -boundary.outgoing_power(grid, &vec![0.0; n_grid]);
            let dt = 0.5;
            let mut t = session.initial_temperature();
            let mut phi = vec![0.0; t.len()];
            for step in 1..=8 {
                let r = session.step(&t, dt, &mut phi).unwrap();
                let stored: f64 = mass
                    .iter()
                    .zip(r.temperature.iter().zip(&t))
                    .map(|(c, (t1, t0))| c * (t1 - t0))
                    .sum();
                let power = r.field_power + r.wire_powers.iter().sum::<f64>();
                let outflow = boundary.outgoing_power(grid, &r.temperature[..n_grid]);
                let supplied = dt * (power - outflow);
                let held: f64 = mass.iter().zip(&t).map(|(c, t0)| c * t0).sum();
                let bound =
                    (t.len() as f64).sqrt() * tol * (held + dt * (power + ambient_inflow));
                let residual = stored - supplied;
                assert!(
                    residual.abs() <= bound,
                    "{profile}, step {step}: stored {stored} J, \
                     supplied {supplied} J, bound {bound} J"
                );
                assert!(
                    stored > 1e3 * bound,
                    "{profile}, step {step} stores too little to test"
                );
                t = r.temperature;
            }
        }
    }

    #[test]
    fn empty_sample_set_is_ok() {
        let compiled = Arc::new(
            CompiledModel::compile(wire_model(), SolverOptions::default()).unwrap(),
        );
        let r = run_ensemble(
            &compiled,
            &LengthScenario,
            &[],
            &EnsembleOptions::default(),
        )
        .unwrap();
        assert!(r.outputs.is_empty());
        assert_eq!(r.counters, SolveCounters::default());
    }
}
