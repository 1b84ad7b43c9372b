//! **bench_transient** — wall-time benchmark of the paper package transient.
//!
//! Runs the 28-pad/12-wire package (Fig. 7 configuration) through the full
//! implicit-Euler transient twice — once with the preconditioner cache
//! disabled (rebuild before every solve, the pre-cache behavior) and once
//! with the default lazily-refreshed cache — verifies both produce the same
//! physics within solver tolerance, and writes wall time, step/Picard/CG
//! counts and preconditioner rebuild statistics to `BENCH_transient.json` so
//! every future PR can compare against the committed numbers. Run records
//! use the same schema as `BENCH_scaling.json` (see `bench_scaling`).
//!
//! Flags:
//! - `--steps N` / `--t-end S` / `--mesh-xy M` / `--mesh-z M`: problem size
//!   (defaults: the paper run, 50 steps over 50 s)
//! - `--quick`: small grid + 5 steps for CI smoke runs
//! - `--fill K` / `--reuses N`: solver knobs of the lazy configuration
//! - `--amg`: use the AMG preconditioner in the lazy configuration instead
//!   of IC
//! - `--reference-wall-s W` / `--reference-label L`: embed an externally
//!   measured reference run (e.g. the pre-change seed) in the report
//! - `--out PATH`: output path (default `BENCH_transient.json`)

use etherm_bench::{arg_f64, arg_flag, arg_usize, arg_value, escape_json, timed_transient_run};
use etherm_core::{PrecondKind, SolverOptions};
use etherm_package::{build_model, BuildOptions, PackageGeometry};

fn main() {
    let quick = arg_flag("quick");
    let (default_xy, default_z, default_steps, default_t_end) = if quick {
        (0.9e-3, 0.5e-3, 5, 5.0)
    } else {
        (0.42e-3, 0.22e-3, 50, 50.0)
    };
    let steps = arg_usize("steps", default_steps);
    let t_end = arg_f64("t-end", default_t_end);
    let mesh_xy = arg_f64("mesh-xy", default_xy);
    let mesh_z = arg_f64("mesh-z", default_z);
    let opts = BuildOptions {
        target_spacing_xy: mesh_xy,
        target_spacing_z: mesh_z,
        ..BuildOptions::paper_fig7()
    };
    let geometry = PackageGeometry::paper();
    let built = build_model(&geometry, &opts).expect("package builds");

    let mut lazy = SolverOptions::default();
    lazy.preconditioner = if arg_flag("amg") {
        PrecondKind::Amg
    } else {
        PrecondKind::Ic(arg_usize("fill", 1))
    };
    lazy.precond_max_reuses = arg_usize("reuses", lazy.precond_max_reuses);

    // Reference configuration: cache disabled (rebuild before every solve)
    // with the seed's zero-fill IC(0) factorization.
    let reference = SolverOptions {
        preconditioner: PrecondKind::Ic(0),
        ..SolverOptions::rebuild_every_solve()
    };

    let dofs = built.compile(lazy.clone()).expect("compile").layout().n_total();
    eprintln!("paper package: {dofs} DoFs, {steps} steps over {t_end} s");

    let (rec_ref, sol_ref) = timed_transient_run(
        &built,
        reference,
        "rebuild-every-solve ic0 (pre-cache behavior)",
        t_end,
        steps,
    );
    eprintln!(
        "reference: {:.3} s wall | picard {} | cg {} | rebuilds {}",
        rec_ref.wall_s,
        rec_ref.picard_iterations,
        rec_ref.cg_iterations,
        rec_ref.precond_rebuilds
    );
    let (rec_lazy, sol_lazy) = timed_transient_run(
        &built,
        lazy,
        "lazy cached preconditioner (default options)",
        t_end,
        steps,
    );
    eprintln!(
        "lazy:      {:.3} s wall | picard {} | cg {} | rebuilds {} reuses {}",
        rec_lazy.wall_s,
        rec_lazy.picard_iterations,
        rec_lazy.cg_iterations,
        rec_lazy.precond_rebuilds,
        rec_lazy.precond_reuses
    );

    // Identical physics: the lazily-refreshed preconditioner must reproduce
    // the rebuild-every-solve temperatures within solver tolerance.
    let (_, t_ref) = &sol_ref.snapshots[sol_ref.snapshots.len() - 1];
    let (_, t_lazy) = &sol_lazy.snapshots[sol_lazy.snapshots.len() - 1];
    let max_diff_k = t_ref
        .iter()
        .zip(t_lazy)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    eprintln!("max |ΔT| between configurations: {max_diff_k:.3e} K");
    assert!(
        max_diff_k < 1e-3,
        "physics mismatch between preconditioner configurations: {max_diff_k} K"
    );

    let mut runs = Vec::new();
    let seed_wall = arg_value("reference-wall-s").and_then(|v| v.parse::<f64>().ok());
    if let Some(w) = seed_wall {
        let label = escape_json(
            &arg_value("reference-label").unwrap_or_else(|| "seed (measured before this change)".into()),
        );
        runs.push(format!("    {{\"config\": \"{label}\", \"wall_s\": {w:.3}}}"));
    }
    runs.push(rec_ref.to_json("    "));
    runs.push(rec_lazy.to_json("    "));

    let speedup = rec_ref.wall_s / rec_lazy.wall_s;
    let speedup_vs_seed = seed_wall
        .map(|w| format!("\n  \"speedup_vs_seed\": {:.3},", w / rec_lazy.wall_s))
        .unwrap_or_default();
    let json = format!(
        "{{\n  \"bench\": \"transient\",\n  \"package\": \"paper 28-pad / 12-wire\",\n  \
         \"dofs\": {dofs},\n  \"steps\": {steps},\n  \"t_end_s\": {t_end},\n  \
         \"mesh_xy_m\": {mesh_xy:e},\n  \"mesh_z_m\": {mesh_z:e},\n  \"runs\": [\n{}\n  ],{speedup_vs_seed}\n  \
         \"speedup_lazy_vs_rebuild\": {speedup:.3},\n  \
         \"max_temperature_diff_k\": {max_diff_k:.3e}\n}}\n",
        runs.join(",\n"),
    );
    let out = arg_value("out").unwrap_or_else(|| "BENCH_transient.json".into());
    std::fs::write(&out, &json).expect("write benchmark report");
    println!("{json}");
    eprintln!("speedup (lazy vs rebuild-every-solve): {speedup:.2}x -> {out}");
}
