//! The three workloads and what they share.

pub mod fine_transient;
pub mod mc_campaign;
pub mod serve_mixed;

use crate::report::Report;
use crate::stats::{median, tail};
use crate::trace::{SpanId, Tracer};
use etherm_core::{
    ObserverAction, RecoveryLedger, SolveCounters, SolverOptions, StepObserver, StepRecord,
    TransientSolution,
};

/// Names of the workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["fine_transient", "mc_campaign", "serve_mixed"];

/// The end-to-end metrics every workload reports with `--trace 0`, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "peak_rss_mb",
    "success_ratio",
    "throughput_per_s",
    "latency_p50_ms",
    "latency_tail_ms",
];

/// The per-layer metrics every workload reports with `--trace 1`, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 29] = [
    "package.build_s",
    "core.compile_s",
    "core.step_ms",
    "core.op_ms",
    "core.worker_idle_frac",
    "core.picard_per_step",
    "core.thermal_cg_per_solve",
    "core.elec_cg_per_solve",
    "core.precond_builds",
    "core.precond_reuse_ratio",
    "core.recovery_rungs",
    "fit.assemble_ms",
    "fit.joule_ms",
    "numerics.spmv_us",
    "numerics.spmv_gbs",
    "numerics.spmv_flop_per_byte",
    "numerics.spmm_us",
    "numerics.spmm_gbs",
    "numerics.spmm_flop_per_byte",
    "numerics.amg_build_ms",
    "numerics.amg_refresh_ms",
    "numerics.amg_apply_us",
    "numerics.pcg_iters",
    "numerics.pcg_ms",
    "numerics.copy_gbs",
    "numerics.spmv_of_copy",
    "numerics.spmm_of_copy",
    "trace.uncovered_frac",
    "trace.overhead_frac",
];

/// Set-ups per run; `setup_s` is their median. A set-up takes 0.03–0.2 s,
/// so a single one reads the host's second-to-second noise.
pub const SETUP_REPS: usize = 9;

/// Allowed |ΔQoI| against the committed reference (K). The measured runs'
/// Picard loop stops at a relative update of 1e-7, i.e. ~5e-5 K at 500 K;
/// the gate sits at twice that scale.
pub const QOI_TOL_K: f64 = 1e-4;

/// What the command line asks of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds to spend in the measured loop.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// The tight reference profile: the given options with the inner CG
/// tolerance at 1e-12 and a fixed count of 12 Picard iterates per step
/// (the update contracts ~16× per iterate on the paper package, so 12
/// iterates are converged to round-off). Used once, to produce the
/// committed reference QoIs.
pub fn reference_options(base: SolverOptions) -> SolverOptions {
    let mut o = base;
    o.linear.tol_rel = 1e-12;
    o.picard_tol = 0.0;
    o.picard_max_iter = 12;
    o
}

/// The campaign QoI layout: the hottest-wire envelope `maxⱼ T_bw,j(tᵢ)`
/// at every time point, then each wire's peak over the run (K).
pub fn envelope_and_peaks(sol: &TransientSolution) -> Vec<f64> {
    let mut out = sol.max_wire_series();
    out.extend((0..sol.n_wires()).map(|j| {
        sol.wire_series(j)
            .iter()
            .fold(f64::NEG_INFINITY, |a, &b| a.max(b))
    }));
    out
}

/// Largest absolute difference between two equally long vectors.
///
/// # Panics
///
/// Panics on a length mismatch.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "QoI length differs from the reference");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Parses a reference file: one row of whitespace-separated numbers per
/// line; `#` starts a comment line.
pub fn parse_reference(text: &str) -> Vec<Vec<f64>> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            l.split_whitespace()
                .map(|x| x.parse().expect("reference values are numbers"))
                .collect()
        })
        .collect()
}

/// Writes reference rows under the benchmark's `reference/` directory.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_reference(name: &str, header: &str, rows: &[Vec<f64>]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{name}.txt"));
    let mut text = String::new();
    for line in header.lines() {
        text.push_str(&format!("# {line}\n"));
    }
    for row in rows {
        let cells: Vec<String> = row.iter().map(|x| format!("{x:.17e}")).collect();
        text.push_str(&cells.join(" "));
        text.push('\n');
    }
    std::fs::write(&path, text).expect("write reference file");
    eprintln!("wrote {} rows to {}", rows.len(), path.display());
}

/// The end-to-end metrics a workload measures itself (`success_ratio` is
/// added from the counts): the median set-up, peak RSS, operations
/// completed per second of the measured loop's `wall_s`, and the median
/// and tail of the operations' latencies (ms), with a note giving the
/// sample counts behind them.
pub fn push_end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    ops: usize,
    wall_s: f64,
    op: &str,
    latencies_ms: &[f64],
) {
    let p50 = median(latencies_ms);
    let t = tail(latencies_ms);
    report.notes.push(format!(
        "{op} latency: n={} p50={p50:.3} ms p{}={:.3} ms ({} samples beyond); \
         throughput: {ops} in {wall_s:.3} s",
        t.n, t.p, t.value, t.beyond
    ));
    report.push("setup_s", median(setup_s), "s");
    report.push("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    report.push("throughput_per_s", ops as f64 / wall_s, "1/s");
    report.push("latency_p50_ms", p50, "ms");
    report.push("latency_tail_ms", t.value, "ms");
}

/// Solver-layer metrics from merged counters over `steps` time steps;
/// `rungs` is the recovery ladder's total over the measured operations.
pub fn push_counter_metrics(
    report: &mut Report,
    c: &SolveCounters,
    steps: usize,
    runs: usize,
    rungs: usize,
) {
    let per = |num: usize, den: usize| num as f64 / den.max(1) as f64;
    report.push(
        "core.picard_per_step",
        per(c.picard_iterations, steps),
        "count",
    );
    report.push(
        "core.thermal_cg_per_solve",
        per(c.thermal_iterations, c.thermal_solves),
        "count",
    );
    report.push(
        "core.elec_cg_per_solve",
        per(c.electrical_iterations, c.electrical_solves),
        "count",
    );
    report.push(
        "core.precond_builds",
        per(c.precond_rebuilds, runs),
        "count",
    );
    report.push(
        "core.precond_reuse_ratio",
        per(c.precond_reuses, c.precond_reuses + c.precond_rebuilds),
        "ratio",
    );
    report.push("core.recovery_rungs", rungs as f64, "count");
}

/// Records a session's run prologue and every step as spans, from the
/// observer's timestamps. Observation never changes the solve.
pub struct StepSpans<'a> {
    tracer: &'a Tracer,
    parent: Option<SpanId>,
    request: u64,
    last_ns: u64,
}

impl<'a> StepSpans<'a> {
    /// An observer whose first span starts now.
    pub fn new(tracer: &'a Tracer, parent: Option<SpanId>, request: u64) -> Self {
        StepSpans {
            tracer,
            parent,
            request,
            last_ns: tracer.now_ns(),
        }
    }
}

impl StepObserver for StepSpans<'_> {
    fn observe(&mut self, record: &StepRecord<'_>) -> ObserverAction {
        let now = self.tracer.now_ns();
        let name = if record.step == 0 {
            "core.run_prologue"
        } else {
            "core.step"
        };
        self.tracer
            .record(name, self.parent, self.request, self.last_ns, now);
        self.last_ns = now;
        ObserverAction::Continue
    }
}

/// Sum of every rung the recovery ladder fired.
pub fn recovery_rungs(l: &RecoveryLedger) -> usize {
    l.solve_retries + l.forced_refreshes + l.precond_fallbacks + l.dt_halvings
}
