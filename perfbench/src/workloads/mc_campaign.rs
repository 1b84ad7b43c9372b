//! `mc_campaign`: a Fig. 7-style Monte Carlo over the 12 iid wire
//! elongations.
//!
//! The paper package on the MC mesh (0.42 / 0.22 mm, 9,044 DoFs) with the
//! AMG campaign profile, run through `run_ensemble_batched` at batch width
//! 8 on 2 worker threads: 32 samples × 10 steps per campaign. The samples
//! are drawn by the seed from a fixed pool of elongation vectors whose
//! reference QoIs are committed, so every sample of every seed is checked.

use super::{
    envelope_and_peaks, max_abs_diff, parse_reference, push_counter_metrics, push_end_to_end,
    recovery_rungs, reference_options, write_reference, RunArgs, QOI_TOL_K, SETUP_REPS,
};
use crate::gen::pool_draw;
use crate::report::Report;
use crate::stats::median;
use crate::trace::{durations_ms, Tracer};
use etherm_core::{
    run_ensemble, run_ensemble_batched, BatchScenario, CompiledModel, CoreError, EnsembleOptions,
    EnsembleResult, FailurePolicy, Scenario, Session, SolveCounters, SolverOptions,
    TransientSolution,
};
use etherm_package::{
    build_model, paper_elongation_distribution, BuildOptions, BuiltPackage, PackageGeometry,
};
use etherm_uq::{draw_samples, Distribution, MonteCarloSampler};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Lateral and vertical mesh spacing of the paper MC mesh (m).
pub const MESH: (f64, f64) = (0.42e-3, 0.22e-3);
/// Implicit-Euler steps per sample.
pub const STEPS: usize = 10;
/// Transient end time (s).
pub const T_END: f64 = 10.0;
/// Samples per campaign.
pub const SAMPLES: usize = 32;
/// Samples per lock-step group.
pub const BATCH_WIDTH: usize = 8;
/// Ensemble worker threads.
pub const THREADS: usize = 2;
/// Size of the committed sample pool the seed draws from.
pub const POOL: usize = 64;
/// Seed of the pool itself (not the workload seed).
const POOL_SEED: u64 = 2016;

const REFERENCE: &str = include_str!("../../reference/mc_campaign.txt");

fn build_options() -> BuildOptions {
    BuildOptions {
        target_spacing_xy: MESH.0,
        target_spacing_z: MESH.1,
        ..BuildOptions::paper_fig7()
    }
}

/// The measured profile: the AMG campaign profile at batch width 8.
pub fn solver_options() -> SolverOptions {
    SolverOptions {
        batch_width: BATCH_WIDTH,
        ..SolverOptions::uq()
    }
}

/// The committed pool of elongation vectors (one `δ` per wire).
pub fn pool() -> Vec<Vec<f64>> {
    let delta = paper_elongation_distribution();
    let dists: Vec<&dyn Distribution> = (0..12).map(|_| &delta as &dyn Distribution).collect();
    draw_samples(&mut MonteCarloSampler::new(POOL_SEED), &dists, POOL)
}

/// Per-worker timestamps of a campaign: the benchmark-side wrapper below
/// notes when each group's first sample is applied and when its last QoI
/// is extracted.
#[derive(Debug, Default)]
struct GroupLog {
    /// group → (worker, first apply start, last qoi end), ns.
    groups: BTreeMap<usize, (ThreadId, u64, u64)>,
    /// The group each worker is currently running.
    current: HashMap<ThreadId, usize>,
}

/// A [`BatchScenario`] that forwards to `inner` and timestamps `apply` and
/// `qoi` per worker: two clock reads and two uncontended locks per sample.
struct TimedScenario<'a, S> {
    inner: &'a S,
    tracer: &'a Tracer,
    log: Mutex<GroupLog>,
}

impl<S: BatchScenario> Scenario for TimedScenario<'_, S> {
    fn apply(&self, session: &mut Session, sample: &[f64]) -> Result<(), CoreError> {
        self.inner.apply(session, sample)
    }

    fn evaluate(&self, session: &mut Session) -> Result<Vec<f64>, CoreError> {
        self.inner.evaluate(session)
    }

    fn apply_indexed(
        &self,
        session: &mut Session,
        sample: &[f64],
        index: usize,
    ) -> Result<(), CoreError> {
        let now = self.tracer.now_ns();
        let group = index / BATCH_WIDTH;
        let worker = std::thread::current().id();
        {
            let mut log = self.log.lock().expect("group log");
            log.current.insert(worker, group);
            log.groups.entry(group).or_insert((worker, now, now));
        }
        self.inner.apply_indexed(session, sample, index)
    }
}

impl<S: BatchScenario> BatchScenario for TimedScenario<'_, S> {
    fn t_end(&self) -> f64 {
        self.inner.t_end()
    }

    fn n_steps(&self) -> usize {
        self.inner.n_steps()
    }

    fn qoi(&self, solution: &TransientSolution) -> Vec<f64> {
        let y = self.inner.qoi(solution);
        let now = self.tracer.now_ns();
        let worker = std::thread::current().id();
        let mut log = self.log.lock().expect("group log");
        if let Some(&group) = log.current.get(&worker) {
            if let Some(entry) = log.groups.get_mut(&group) {
                entry.2 = now;
            }
        }
        y
    }
}

/// Set-up: build and compile the package.
fn set_up(tracer: &Tracer, rep: u64) -> (BuiltPackage, Arc<CompiledModel>) {
    let built = tracer.span("package.build", None, rep, |_| {
        build_model(&PackageGeometry::paper(), &build_options()).expect("package builds")
    });
    let compiled = tracer.span("core.compile", None, rep, |_| {
        Arc::new(built.compile(solver_options()).expect("package compiles"))
    });
    (built, compiled)
}

fn ensemble_options() -> EnsembleOptions {
    EnsembleOptions {
        n_threads: THREADS,
        failure_policy: FailurePolicy::Quarantine {
            max_failures: SAMPLES,
        },
        ..EnsembleOptions::default()
    }
}

/// Checks a campaign against the reference rows of its pool indices;
/// returns the largest |ΔQoI| and counts failures into `report`.
fn check(
    result: &EnsembleResult,
    picks: &[usize],
    reference: &[Vec<f64>],
    report: &mut Report,
) -> f64 {
    let mut worst: f64 = 0.0;
    for (y, &p) in result.outputs.iter().zip(picks) {
        report.attempted += 1;
        match reference.get(p) {
            Some(r) if y.len() == r.len() => {
                let err = max_abs_diff(y, r);
                worst = worst.max(err);
                if err > QOI_TOL_K {
                    report.failed += 1;
                }
            }
            // Quarantined (empty output) or no reference row.
            _ => report.failed += 1,
        }
    }
    worst
}

/// Runs the workload.
pub fn run(args: &RunArgs, tracer: &Tracer) -> Report {
    let reference = parse_reference(REFERENCE);
    let mut report = Report::new();
    report.checks_ok = reference.len() == POOL;

    let mut setup_s = Vec::new();
    let mut model = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        model = Some(set_up(tracer, rep as u64));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (built, compiled) = model.expect("at least one set-up");

    let pool = pool();
    let picks = pool_draw(args.seed, POOL, SAMPLES);
    let samples: Vec<Vec<f64>> = picks.iter().map(|&p| pool[p].clone()).collect();
    let scenario = built.elongation_scenario(T_END, STEPS, envelope_and_peaks);
    let options = ensemble_options();

    // The measured loop: the same campaign, repeated. A traced run
    // alternates untraced and traced campaigns. Every campaign goes through
    // the timestamping wrapper, since a sample's latency is its group's.
    let untraced = Tracer::new(false);
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut group_ms = Vec::new();
    let mut traced_group_ms = Vec::new();
    let mut busy_ns = 0u64;
    let mut tail_idle_ns = 0u64;
    let mut worker_wall_ns = 0u64;
    let mut counters = SolveCounters::default();
    let mut qoi_err: f64 = 0.0;
    let start = Instant::now();
    let min_runs = if args.trace { 2 } else { 1 };
    let mut i = 0usize;
    // Start campaigns until the run's time is up.
    while i < min_runs || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && i % 2 == 1;
        let run_tracer = if traced { tracer } else { &untraced };
        let t = Instant::now();
        let timed = TimedScenario {
            inner: &scenario,
            tracer: run_tracer,
            log: Mutex::new(GroupLog::default()),
        };
        let span = run_tracer.open("core.campaign", None, i as u64);
        let t0 = run_tracer.now_ns();
        let result = run_ensemble_batched(&compiled, &timed, &samples, &options);
        let t1 = run_tracer.now_ns();
        run_tracer.close(span);
        let log = timed.log.into_inner().expect("group log");
        if traced {
            // Group spans, busy time, and each worker's wait for the
            // slowest one after its last group.
            let mut last_end: HashMap<ThreadId, u64> = HashMap::new();
            for (&g, &(worker, a, b)) in &log.groups {
                tracer.record("core.group", span, g as u64, a, b);
                traced_group_ms.push((b - a) as f64 * 1e-6);
                busy_ns += b - a;
                let e = last_end.entry(worker).or_insert(b);
                *e = (*e).max(b);
            }
            tail_idle_ns += last_end.values().map(|&e| t1 - e).sum::<u64>();
            // Workers that ran no group idled through the whole campaign.
            tail_idle_ns += (THREADS - last_end.len()) as u64 * (t1 - t0);
            worker_wall_ns += THREADS as u64 * (t1 - t0);
        } else {
            group_ms.extend(log.groups.values().map(|&(_, a, b)| (b - a) as f64 * 1e-6));
        }
        let result = result.expect("campaign runs");
        let wall = t.elapsed().as_secs_f64();
        if traced {
            traced_walls.push(wall);
        } else {
            walls.push(wall);
        }
        if traced || !args.trace {
            counters.merge(&result.counters);
        }
        qoi_err = qoi_err.max(check(&result, &picks, &reference, &mut report));
        i += 1;
    }
    eprintln!(
        "mc_campaign: untraced walls {walls:.3?} s, traced {traced_walls:.3?} s, \
         max |dQoI| {qoi_err:.3e} K"
    );

    report.notes.push(format!(
        "max |dQoI| {qoi_err:.3e} K against the reference (gate {QOI_TOL_K:e} K)"
    ));

    if !args.trace {
        // Samples completed per second over whole campaigns; a sample's
        // latency is its lock-step group's.
        push_end_to_end(
            &mut report,
            &setup_s,
            SAMPLES * walls.len(),
            walls.iter().sum(),
            "group",
            &group_ms,
        );
        return report;
    }

    let spans = tracer.spans();
    let runs = traced_walls.len() * SAMPLES;
    let group = median(&traced_group_ms);
    report.push(
        "package.build_s",
        median(&durations_ms(&spans, "package.build")) * 1e-3,
        "s",
    );
    report.push(
        "core.compile_s",
        median(&durations_ms(&spans, "core.compile")) * 1e-3,
        "s",
    );
    // A group advances its samples in lock step, so one of its steps is a
    // group step.
    report.push("core.step_ms", group / STEPS as f64, "ms");
    report.push("core.op_ms", group, "ms");
    report.push(
        "core.worker_idle_frac",
        1.0 - busy_ns as f64 / worker_wall_ns as f64,
        "ratio",
    );
    let rungs = recovery_rungs(&counters.recovery);
    push_counter_metrics(&mut report, &counters, runs * STEPS, runs, rungs);
    crate::probes::run(&built.model, T_END / STEPS as f64, &mut report);
    // Layers sum back to the total: workers × wall = group spans + the
    // measured tail wait + what neither covers (worker start-up, group
    // hand-off).
    report.push(
        "trace.uncovered_frac",
        worker_wall_ns.saturating_sub(busy_ns + tail_idle_ns) as f64 / worker_wall_ns as f64,
        "ratio",
    );
    report.push(
        "trace.overhead_frac",
        median(&traced_walls) / median(&walls) - 1.0,
        "ratio",
    );
    report
}

/// Produces the committed reference: every pool sample, one exact scalar
/// session per sample at the tight profile.
pub fn make_reference() {
    let built = build_model(&PackageGeometry::paper(), &build_options()).expect("package builds");
    let options = SolverOptions {
        batch_width: 0,
        ..reference_options(solver_options())
    };
    let compiled = Arc::new(built.compile(options).expect("package compiles"));
    let scenario = built.elongation_scenario(T_END, STEPS, envelope_and_peaks);
    let result = run_ensemble(
        &compiled,
        &scenario,
        &pool(),
        &EnsembleOptions {
            n_threads: THREADS,
            ..EnsembleOptions::default()
        },
    )
    .expect("reference campaign runs");
    let header = format!(
        "mc_campaign reference: paper package, mesh {} / {} m, {STEPS} steps over {T_END} s.\n\
         One row per pool sample ({POOL}, drawn with MonteCarloSampler seed {POOL_SEED} from the\n\
         paper elongation distribution): hottest-wire envelope at {} time points, then the\n\
         12 per-wire peaks (K). Solver: exact scalar sessions, AMG, CG tol_rel 1e-12,\n\
         12 fixed Picard iterates per step.",
        MESH.0,
        MESH.1,
        STEPS + 1
    );
    write_reference("mc_campaign", &header, &result.outputs);
}
