//! **bench_scaling** — mesh-refinement scaling of IC(1)-PCG vs AMG-PCG.
//!
//! Sweeps the paper 28-pad/12-wire package over a ladder of FIT mesh
//! refinements and runs the implicit-Euler transient once per
//! preconditioner (both under the default lazily-refreshed cache). The
//! point of the sweep: incomplete-Cholesky CG iteration counts grow
//! super-linearly as the mesh is refined, while the smoothed-aggregation
//! AMG V-cycle keeps them near-constant — so AMG takes over past the paper
//! resolution. Per mesh the final temperature fields of the two runs are
//! compared (they must agree within solver tolerance; the preconditioner
//! never changes the physics).
//!
//! Emits `BENCH_scaling.json` with per-mesh run records in the same schema
//! as `BENCH_transient.json` plus the headline scaling metrics
//! (`finest_amg_speedup_vs_ic`, `iteration_growth_ic`,
//! `iteration_growth_amg`).
//!
//! Flags:
//! - `--quick`: two coarse meshes + 3 steps for CI smoke runs
//! - `--steps N`: transient steps per run (default 10; dt stays the paper's
//!   1 s)
//! - `--fill K`: the fill level of the IC reference configuration
//! - `--out PATH`: output path (default `BENCH_scaling.json`)

use etherm_bench::{arg_f64, arg_flag, arg_usize, arg_value, timed_transient_run, RunRecord};
use etherm_core::{PrecondKind, SolverOptions};
use etherm_package::{build_model, BuildOptions, PackageGeometry};

struct MeshResult {
    label: &'static str,
    mesh_xy: f64,
    mesh_z: f64,
    dofs: usize,
    ic: RunRecord,
    amg: RunRecord,
    max_diff_k: f64,
}

fn main() {
    let quick = arg_flag("quick");
    // Refinement ladder: (target xy spacing, target z spacing, label). L2 is
    // the paper/BENCH_transient mesh; L3 roughly doubles the resolution per
    // axis, which is where IC's iteration growth starts to dominate.
    let meshes: &[(f64, f64, &'static str)] = if quick {
        &[(0.9e-3, 0.5e-3, "Q0"), (0.6e-3, 0.3e-3, "Q1")]
    } else {
        &[
            (0.9e-3, 0.5e-3, "L0"),
            (0.6e-3, 0.3e-3, "L1"),
            (0.42e-3, 0.22e-3, "L2 (paper)"),
            (0.21e-3, 0.11e-3, "L3"),
            (0.15e-3, 0.08e-3, "L4 (finest)"),
        ]
    };
    let steps = arg_usize("steps", if quick { 3 } else { 10 });
    // dt stays the paper's 1 s regardless of the step count, so every mesh
    // solves the same physics per step.
    let t_end = arg_f64("t-end", steps as f64);

    let ic_options = SolverOptions {
        preconditioner: PrecondKind::Ic(arg_usize("fill", 1)),
        ..SolverOptions::default()
    };
    let amg_options = SolverOptions {
        preconditioner: PrecondKind::Amg,
        ..SolverOptions::default()
    };

    let geometry = PackageGeometry::paper();
    let mut results: Vec<MeshResult> = Vec::new();
    for &(mesh_xy, mesh_z, label) in meshes {
        let opts = BuildOptions {
            target_spacing_xy: mesh_xy,
            target_spacing_z: mesh_z,
            ..BuildOptions::paper_fig7()
        };
        let built = build_model(&geometry, &opts).expect("package builds");
        let dofs = built.compile(ic_options.clone()).expect("compile").layout().n_total();
        eprintln!("== {label}: {dofs} DoFs ({steps} steps over {t_end} s) ==");

        let (ic, sol_ic) = timed_transient_run(
            &built,
            ic_options.clone(),
            format!("{label} ic"),
            t_end,
            steps,
        );
        eprintln!(
            "  ic:  {:.3} s | cg {} ({:.1}/solve) | rebuilds {}",
            ic.wall_s,
            ic.cg_iterations,
            ic.iters_per_solve(),
            ic.precond_rebuilds
        );
        let (amg, sol_amg) = timed_transient_run(
            &built,
            amg_options.clone(),
            format!("{label} amg"),
            t_end,
            steps,
        );
        eprintln!(
            "  amg: {:.3} s | cg {} ({:.1}/solve) | rebuilds {} | coarse {}",
            amg.wall_s,
            amg.cg_iterations,
            amg.iters_per_solve(),
            amg.precond_rebuilds,
            amg.peak_coarse_dim
        );

        // The preconditioner must not change the physics.
        let (_, t_ic) = &sol_ic.snapshots[sol_ic.snapshots.len() - 1];
        let (_, t_amg) = &sol_amg.snapshots[sol_amg.snapshots.len() - 1];
        let max_diff_k = t_ic
            .iter()
            .zip(t_amg)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_diff_k < 1e-3,
            "{label}: IC and AMG temperatures diverged by {max_diff_k} K"
        );
        eprintln!(
            "  speedup {:.2}x | max |ΔT| {max_diff_k:.2e} K",
            ic.wall_s / amg.wall_s
        );
        results.push(MeshResult {
            label,
            mesh_xy,
            mesh_z,
            dofs,
            ic,
            amg,
            max_diff_k,
        });
    }

    let first = results.first().expect("at least one mesh");
    let last = results.last().expect("at least one mesh");
    let finest_speedup = last.ic.wall_s / last.amg.wall_s;
    let growth_ic = last.ic.iters_per_solve() / first.ic.iters_per_solve().max(1e-30);
    let growth_amg = last.amg.iters_per_solve() / first.amg.iters_per_solve().max(1e-30);

    let mesh_blocks: Vec<String> = results
        .iter()
        .map(|m| {
            format!(
                "    {{\"label\": \"{}\", \"mesh_xy_m\": {:e}, \"mesh_z_m\": {:e}, \
                 \"dofs\": {}, \"max_temperature_diff_k\": {:.3e}, \
                 \"amg_speedup_vs_ic\": {:.3}, \"runs\": [\n{},\n{}\n    ]}}",
                m.label,
                m.mesh_xy,
                m.mesh_z,
                m.dofs,
                m.max_diff_k,
                m.ic.wall_s / m.amg.wall_s,
                m.ic.to_json("      "),
                m.amg.to_json("      "),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"scaling\",\n  \"package\": \"paper 28-pad / 12-wire\",\n  \
         \"steps\": {steps},\n  \"t_end_s\": {t_end},\n  \"meshes\": [\n{}\n  ],\n  \
         \"finest_amg_speedup_vs_ic\": {finest_speedup:.3},\n  \
         \"iteration_growth_ic\": {growth_ic:.3},\n  \
         \"iteration_growth_amg\": {growth_amg:.3}\n}}\n",
        mesh_blocks.join(",\n"),
    );
    let out = arg_value("out").unwrap_or_else(|| "BENCH_scaling.json".into());
    std::fs::write(&out, &json).expect("write benchmark report");
    println!("{json}");
    eprintln!(
        "finest mesh ({} DoFs): AMG {finest_speedup:.2}x vs IC | iters/solve growth \
         ic {growth_ic:.2}x amg {growth_amg:.2}x -> {out}",
        last.dofs
    );
}
