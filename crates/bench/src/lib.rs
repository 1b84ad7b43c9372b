//! Shared helpers for the experiment regeneration binaries.
//!
//! One binary per table/figure of the paper lives in `src/bin/`, named
//! after it (`fig07`, `table02`, …); README, "Reproduction choices", lists
//! where they depart from the paper. This library provides the tiny
//! argument parser (no CLI dependencies) and the package/Monte Carlo
//! plumbing every experiment shares.

#![forbid(unsafe_code)]

use etherm_core::{Scenario, Session, SolveCounters, SolverOptions, TransientSolution};
use etherm_package::{build_model, BuildOptions, BuiltPackage, PackageGeometry};
use etherm_uq::dist::Distribution;

/// One benchmark run in the record schema shared by `BENCH_transient.json`
/// and `BENCH_scaling.json`: configuration label, preconditioner name, wall
/// time and the session's cumulative solve/preconditioner counters.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Human-readable configuration label.
    pub config: String,
    /// Preconditioner name (`PrecondKind::describe`).
    pub precond: String,
    /// Wall time of the transient (s).
    pub wall_s: f64,
    /// Total Picard iterations.
    pub picard_iterations: usize,
    /// Total CG iterations (electrical + thermal).
    pub cg_iterations: usize,
    /// Number of linear solves.
    pub solves: usize,
    /// Preconditioner (re)builds and refreshes.
    pub precond_rebuilds: usize,
    /// Solves that reused a cached preconditioner unchanged.
    pub precond_reuses: usize,
    /// Largest AMG coarsest-level dimension (0 for single-level
    /// preconditioners).
    pub peak_coarse_dim: usize,
}

impl RunRecord {
    /// Builds a record from a timed transient run.
    pub fn new(
        config: impl Into<String>,
        options: &SolverOptions,
        wall_s: f64,
        solution: &TransientSolution,
        counters: SolveCounters,
    ) -> Self {
        RunRecord {
            config: config.into(),
            precond: options.preconditioner.describe(),
            wall_s,
            picard_iterations: solution.picard_iterations.iter().sum(),
            cg_iterations: counters.electrical_iterations + counters.thermal_iterations,
            solves: counters.electrical_solves + counters.thermal_solves,
            precond_rebuilds: counters.precond_rebuilds,
            precond_reuses: counters.precond_reuses,
            peak_coarse_dim: counters.peak_coarse_dim,
        }
    }

    /// Builds a record from a timed campaign (many runs on one or more
    /// sessions) whose per-run solutions were consumed by the QoI
    /// extraction: all iteration statistics come from the merged
    /// [`SolveCounters`].
    pub fn from_counters(
        config: impl Into<String>,
        options: &SolverOptions,
        wall_s: f64,
        counters: SolveCounters,
    ) -> Self {
        RunRecord {
            config: config.into(),
            precond: options.preconditioner.describe(),
            wall_s,
            picard_iterations: counters.picard_iterations,
            cg_iterations: counters.electrical_iterations + counters.thermal_iterations,
            solves: counters.electrical_solves + counters.thermal_solves,
            precond_rebuilds: counters.precond_rebuilds,
            precond_reuses: counters.precond_reuses,
            peak_coarse_dim: counters.peak_coarse_dim,
        }
    }

    /// Mean CG iterations per solve (the mesh-scaling quality metric).
    pub fn iters_per_solve(&self) -> f64 {
        self.cg_iterations as f64 / self.solves.max(1) as f64
    }

    /// Renders the record as one JSON object, prefixed by `indent`.
    pub fn to_json(&self, indent: &str) -> String {
        format!(
            "{indent}{{\"config\": \"{}\", \"precond\": \"{}\", \"wall_s\": {:.3}, \
             \"picard_iterations\": {}, \"cg_iterations\": {}, \"solves\": {}, \
             \"precond_rebuilds\": {}, \"precond_reuses\": {}, \"peak_coarse_dim\": {}}}",
            escape_json(&self.config),
            escape_json(&self.precond),
            self.wall_s,
            self.picard_iterations,
            self.cg_iterations,
            self.solves,
            self.precond_rebuilds,
            self.precond_reuses,
            self.peak_coarse_dim,
        )
    }
}

/// Escapes backslashes, quotes and control characters for embedding in a
/// JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a number as a JSON value with 7 significant digits. JSON has no
/// NaN or infinity: NaN becomes `null` and ±∞ becomes `±1e308`.
pub fn json_f64(v: f64) -> String {
    if v.is_nan() {
        "null".into()
    } else if v.is_infinite() {
        if v > 0.0 {
            "1e308".into()
        } else {
            "-1e308".into()
        }
    } else {
        format!("{v:.6e}")
    }
}

/// Runs one timed transient (snapshot at `t_end`) and returns the
/// shared-schema [`RunRecord`] plus the solution — the common core of
/// `bench_transient` and `bench_scaling`.
///
/// # Panics
///
/// Panics on solver failure — benchmarks should fail loudly.
pub fn timed_transient_run(
    built: &BuiltPackage,
    solver: SolverOptions,
    config: impl Into<String>,
    t_end: f64,
    steps: usize,
) -> (RunRecord, TransientSolution) {
    let mut session = Session::new(built.compile(solver.clone()).expect("compile"));
    let start = std::time::Instant::now();
    let solution = session
        .run_transient(t_end, steps, &[t_end])
        .expect("transient run");
    let wall_s = start.elapsed().as_secs_f64();
    let record = RunRecord::new(config, &solver, wall_s, &solution, session.counters());
    (record, solution)
}

/// Returns the value following `--name` parsed as `f64`, or `default`.
///
/// # Panics
///
/// Panics with a clear message when the value is present but unparsable.
pub fn arg_f64(name: &str, default: f64) -> f64 {
    arg_value(name)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{name} expects a number, got '{v}'"))
        })
        .unwrap_or(default)
}

/// Returns the value following `--name` parsed as `usize`, or `default`.
///
/// # Panics
///
/// Panics when the value is present but unparsable.
pub fn arg_usize(name: &str, default: usize) -> usize {
    arg_value(name)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{name} expects an integer, got '{v}'"))
        })
        .unwrap_or(default)
}

/// Returns the string following `--name`, if present.
pub fn arg_value(name: &str) -> Option<String> {
    let flag = format!("--{name}");
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == &flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Whether the bare flag `--name` is present.
pub fn arg_flag(name: &str) -> bool {
    let flag = format!("--{name}");
    std::env::args().any(|a| a == flag)
}

/// Standard experiment mesh for Monte Carlo sweeps (validated against the
/// fine mesh in `conv_mesh`; the hottest-wire error is ≲ 0.1 K).
pub fn mc_build_options() -> BuildOptions {
    BuildOptions {
        target_spacing_xy: arg_f64("mesh-xy", 0.42e-3),
        target_spacing_z: arg_f64("mesh-z", 0.22e-3),
        ..BuildOptions::paper_fig7()
    }
}

/// Builds the calibrated paper package on the MC mesh.
///
/// # Panics
///
/// Panics if the model cannot be built (programmer error in the presets).
pub fn build_paper_package() -> BuiltPackage {
    let geometry = PackageGeometry::paper();
    build_model(&geometry, &mc_build_options()).expect("paper package builds")
}

/// Runs one transient of the paper scenario (50 s, 50 steps unless
/// overridden by `--steps`) and returns the solution.
///
/// # Panics
///
/// Panics on solver failure — experiments should fail loudly.
pub fn run_paper_transient(built: &BuiltPackage, snapshots: &[f64]) -> TransientSolution {
    let steps = arg_usize("steps", 50);
    Session::new(built.compile(SolverOptions::fast()).expect("compile"))
        .run_transient(50.0, steps, snapshots)
        .expect("transient solve")
}

/// Evaluates one Monte Carlo sample on a session over a model compiled
/// once: resets the session (exact mode), applies the sample and runs the
/// scenario — bit-identical to recompiling the model for every sample.
///
/// # Panics
///
/// Panics on an invalid sample or a solver failure.
pub fn mc_sample_outputs(
    session: &mut Session,
    scenario: &impl Scenario,
    sample: &[f64],
) -> Vec<f64> {
    session.reset();
    scenario.apply(session, sample).expect("sampled elongations are < 1");
    scenario.evaluate(session).expect("transient solve")
}

/// Flattens a solution into the campaign QoI layout `wire × time` (output
/// index `j·n_times + i`) shared by `fig07`, `bench_uq` and the tests.
pub fn flatten_wire_series(sol: &TransientSolution) -> Vec<f64> {
    let mut out = Vec::with_capacity(sol.n_wires() * sol.n_times());
    for j in 0..sol.n_wires() {
        out.extend_from_slice(sol.wire_series(j));
    }
    out
}

/// Twelve references to the same distribution (the wires' iid elongations).
pub fn iid_inputs<D: Distribution>(dist: &D, n: usize) -> Vec<&dyn Distribution> {
    (0..n).map(|_| dist as &dyn Distribution).collect()
}

/// Formats a Kelvin value with one decimal.
pub fn fmt_k(v: f64) -> String {
    format!("{v:.1} K")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_helpers_fall_back_to_defaults() {
        assert_eq!(arg_f64("definitely-not-passed", 2.5), 2.5);
        assert_eq!(arg_usize("definitely-not-passed", 7), 7);
        assert!(!arg_flag("definitely-not-passed"));
        assert!(arg_value("definitely-not-passed").is_none());
    }

    #[test]
    fn fmt_kelvin() {
        assert_eq!(fmt_k(333.456), "333.5 K");
    }

    #[test]
    fn run_record_serializes_shared_schema() {
        let rec = RunRecord {
            config: "lazy \"cache\"".into(),
            precond: "ic(1)".into(),
            wall_s: 1.25,
            picard_iterations: 10,
            cg_iterations: 100,
            solves: 20,
            precond_rebuilds: 2,
            precond_reuses: 18,
            peak_coarse_dim: 0,
        };
        let json = rec.to_json("  ");
        for key in [
            "\"config\"",
            "\"precond\"",
            "\"wall_s\"",
            "\"picard_iterations\"",
            "\"cg_iterations\"",
            "\"solves\"",
            "\"precond_rebuilds\"",
            "\"precond_reuses\"",
            "\"peak_coarse_dim\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("lazy \\\"cache\\\""), "quote not escaped");
        assert!((rec.iters_per_solve() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn escape_json_handles_control_characters() {
        assert_eq!(escape_json(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(escape_json("line1\nline2\tend\r"), "line1\\nline2\\tend\\r");
        assert_eq!(escape_json("bell\u{7}"), "bell\\u0007");
    }

    #[test]
    fn json_f64_writes_non_finite_values_as_json() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "1e308");
        assert_eq!(json_f64(f64::NEG_INFINITY), "-1e308");
        assert_eq!(json_f64(1.5), "1.500000e0");
    }
}
