//! `fine_transient`: one paper-package transient on the finest mesh.
//!
//! The 28-pad / 12-wire package on the L4 mesh (0.15 / 0.08 mm, 54,054
//! DoFs) with the AMG campaign profile on one thread, 10 implicit-Euler
//! steps over 10 s. Only the scalar `Session` step loop, the FIT refill and
//! the numerics kernels run; no ensemble or serve code does. The physics
//! does not depend on the seed: the run is the nominal package, compared
//! against its committed reference.

use super::{
    max_abs_diff, parse_reference, push_counter_metrics, push_end_to_end, recovery_rungs,
    reference_options, write_reference, RunArgs, StepSpans, QOI_TOL_K, SETUP_REPS,
};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{durations_ms, self_time_ns, SpanId, Tracer};
use etherm_core::{CompiledModel, CoreError, Session, SolveCounters, SolverOptions};
use etherm_package::{build_model, BuildOptions, BuiltPackage, PackageGeometry};
use std::sync::Arc;
use std::time::Instant;

/// Lateral and vertical mesh spacing of the L4 mesh (m).
pub const MESH: (f64, f64) = (0.15e-3, 0.08e-3);
/// Implicit-Euler steps per transient.
pub const STEPS: usize = 10;
/// Transient end time (s); Δt stays the paper's 1 s.
pub const T_END: f64 = 10.0;

const REFERENCE: &str = include_str!("../../reference/fine_transient.txt");

fn build_options() -> BuildOptions {
    BuildOptions {
        target_spacing_xy: MESH.0,
        target_spacing_z: MESH.1,
        ..BuildOptions::paper_fig7()
    }
}

/// The measured profile: AMG-preconditioned CG at the default tolerances,
/// one thread.
pub fn solver_options() -> SolverOptions {
    SolverOptions::uq()
}

/// The QoI: every wire's temperature series, wire-major (K).
fn qoi(sol: &etherm_core::TransientSolution) -> Vec<f64> {
    (0..sol.n_wires())
        .flat_map(|j| sol.wire_series(j).to_vec())
        .collect()
}

/// Builds and compiles the package, recording `package.build` and
/// `core.compile` spans under `parent`.
fn set_up(tracer: &Tracer, parent: Option<SpanId>, rep: u64) -> (BuiltPackage, Arc<CompiledModel>) {
    let built = tracer.span("package.build", parent, rep, |_| {
        build_model(&PackageGeometry::paper(), &build_options()).expect("package builds")
    });
    let compiled = tracer.span("core.compile", parent, rep, |_| {
        Arc::new(built.compile(solver_options()).expect("package compiles"))
    });
    (built, compiled)
}

/// One transient on a fresh session; returns the QoI and the counters.
fn transient(
    compiled: &Arc<CompiledModel>,
    tracer: &Tracer,
    parent: Option<SpanId>,
    request: u64,
) -> Result<(Vec<f64>, SolveCounters), CoreError> {
    let mut session = tracer.span("core.session_new", parent, request, |_| {
        Session::new(Arc::clone(compiled))
    });
    let solution = if tracer.enabled() {
        let mut spans = StepSpans::new(tracer, parent, request);
        session
            .run_transient_observed(T_END, STEPS, &[], &mut spans)
            .map(|o| o.solution)
    } else {
        session.run_transient(T_END, STEPS, &[])
    }?;
    Ok((qoi(&solution), session.counters()))
}

/// Runs the workload.
pub fn run(args: &RunArgs, tracer: &Tracer) -> Report {
    let reference = parse_reference(REFERENCE);
    let mut report = Report::new();
    // A missing reference fails the run instead of passing it vacuously.
    report.checks_ok = reference.len() == 1;
    let untraced = Tracer::new(false);

    let mut setup_s = Vec::new();
    let mut setup_spans = Vec::new();
    let mut model = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let span = tracer.open("setup", None, rep as u64);
        model = Some(set_up(tracer, span, rep as u64));
        tracer.close(span);
        setup_spans.extend(span);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (built, compiled) = model.expect("at least one set-up");

    // The measured loop. A traced run alternates untraced and traced
    // transients, so the two can be compared for the tracing overhead.
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut transient_spans = Vec::new();
    let mut counters = SolveCounters::default();
    let mut qoi_err: f64 = 0.0;
    let start = Instant::now();
    let min_runs = if args.trace { 2 } else { 1 };
    let mut i = 0u64;
    // Start transients until the run's time is up.
    while (i as usize) < min_runs || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && i % 2 == 1;
        let t = Instant::now();
        let outcome = if traced {
            let span = tracer.open("core.transient", None, i);
            let out = transient(&compiled, tracer, span, i);
            tracer.close(span);
            transient_spans.extend(span);
            out
        } else {
            transient(&compiled, &untraced, None, i)
        };
        let wall = t.elapsed().as_secs_f64();
        if traced {
            traced_walls.push(wall);
        } else {
            walls.push(wall);
        }
        report.attempted += 1;
        i += 1;
        let (y, c) = match outcome {
            Ok(out) => out,
            Err(e) => {
                eprintln!("fine_transient: transient {i} failed: {e}");
                report.failed += 1;
                continue;
            }
        };
        if traced || !args.trace {
            counters.merge(&c);
        }
        if let Some(r) = reference.first() {
            let err = max_abs_diff(&y, r);
            qoi_err = qoi_err.max(err);
            if err > QOI_TOL_K {
                report.failed += 1;
            }
        }
    }
    eprintln!(
        "fine_transient: untraced walls {walls:.3?} s, traced {traced_walls:.3?} s, \
         max |dQoI| {qoi_err:.3e} K"
    );

    report.notes.push(format!(
        "max |dQoI| {qoi_err:.3e} K against the reference (gate {QOI_TOL_K:e} K)"
    ));

    if !args.trace {
        let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        push_end_to_end(
            &mut report,
            &setup_s,
            walls.len(),
            walls.iter().sum(),
            "transient",
            &walls_ms,
        );
        return report;
    }

    let spans = tracer.spans();
    let runs = traced_walls.len();
    // A transient's compute is its run prologue and steps; the rest of its
    // wall (session creation) is the worker not computing.
    let compute_ms: Vec<f64> = transient_spans
        .iter()
        .map(|&id| {
            spans
                .iter()
                .filter(|s| s.parent == Some(id) && s.name != "core.session_new")
                .map(|s| s.duration_ns() as f64 * 1e-6)
                .sum()
        })
        .collect();
    let transient_ms: f64 = transient_spans
        .iter()
        .map(|&id| spans[id].duration_ns() as f64 * 1e-6)
        .sum();
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
    report.push(
        "core.step_ms",
        median(&durations_ms(&spans, "core.step")),
        "ms",
    );
    report.push("core.op_ms", median(&compute_ms), "ms");
    report.push(
        "core.worker_idle_frac",
        1.0 - compute_ms.iter().sum::<f64>() / transient_ms,
        "ratio",
    );
    let rungs = recovery_rungs(&counters.recovery);
    push_counter_metrics(&mut report, &counters, runs * STEPS, runs, rungs);
    crate::probes::run(&built.model, T_END / STEPS as f64, &mut report);
    // Layers sum back to the total: set-up is covered by build + compile,
    // a transient by session creation, the run prologue and its steps.
    let roots: Vec<SpanId> = setup_spans
        .iter()
        .chain(&transient_spans)
        .copied()
        .collect();
    let uncovered: u64 = roots.iter().map(|&id| self_time_ns(&spans, id)).sum();
    let total: u64 = roots.iter().map(|&id| spans[id].duration_ns()).sum();
    report.push(
        "trace.uncovered_frac",
        uncovered as f64 / total as f64,
        "ratio",
    );
    report.push(
        "trace.overhead_frac",
        median(&traced_walls) / median(&walls) - 1.0,
        "ratio",
    );
    report
}

/// Produces the committed reference: the same transient at the tight
/// profile.
pub fn make_reference() {
    let built = build_model(&PackageGeometry::paper(), &build_options()).expect("package builds");
    let compiled = Arc::new(
        built
            .compile(reference_options(solver_options()))
            .expect("package compiles"),
    );
    let (y, _) = transient(&compiled, &Tracer::new(false), None, 0).expect("transient runs");
    let header = format!(
        "fine_transient reference: paper package, mesh {} / {} m, {STEPS} steps over {T_END} s.\n\
         Row: per-wire temperature series (K), wire-major, {} values.\n\
         Solver: AMG, CG tol_rel 1e-12, 12 fixed Picard iterates per step.",
        MESH.0,
        MESH.1,
        y.len()
    );
    write_reference("fine_transient", &header, &[y]);
}
