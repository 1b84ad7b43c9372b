//! Lazily-refreshed preconditioners must not change the physics.
//!
//! Runs the paper 28-pad/12-wire package transient (coarse mesh, debug-build
//! friendly) once with the cache disabled (rebuild before every solve) and
//! once with the default lazy refresh, and checks that the temperatures agree
//! within solver tolerance while the lazy run performs strictly fewer
//! preconditioner builds than solves.

use etherm_core::{Session, SolverOptions};
use etherm_package::{build_model, BuildOptions, BuiltPackage, PackageGeometry};

fn coarse_package() -> BuiltPackage {
    let opts = BuildOptions {
        target_spacing_xy: 1.0e-3,
        target_spacing_z: 0.5e-3,
        ..BuildOptions::paper_fig7()
    };
    build_model(&PackageGeometry::paper(), &opts).expect("package builds")
}

#[test]
fn lagged_preconditioner_matches_rebuild_every_solve() {
    let built = coarse_package();
    let t_end = 6.0;
    let steps = 3;

    let mut s_ref = Session::new(built.compile(SolverOptions::rebuild_every_solve()).unwrap());
    let sol_ref = s_ref.run_transient(t_end, steps, &[t_end]).unwrap();
    let c_ref = s_ref.counters();
    let solves_ref = c_ref.electrical_solves + c_ref.thermal_solves;
    // Cache disabled: every solve (re)builds, nothing is reused.
    assert_eq!(c_ref.precond_reuses, 0);
    assert!(c_ref.precond_rebuilds >= solves_ref);

    let mut s_lazy = Session::new(built.compile(SolverOptions::default()).unwrap());
    let sol_lazy = s_lazy.run_transient(t_end, steps, &[t_end]).unwrap();
    let c_lazy = s_lazy.counters();
    let solves_lazy = c_lazy.electrical_solves + c_lazy.thermal_solves;

    // The lazy cache must actually reuse factorizations: strictly fewer
    // (re)builds than solves on the paper package.
    assert!(
        c_lazy.precond_rebuilds < solves_lazy,
        "no reuse: {} rebuilds for {} solves",
        c_lazy.precond_rebuilds,
        solves_lazy
    );
    assert!(c_lazy.precond_reuses > 0);

    // Identical physics within CG/Picard tolerance: temperature fields and
    // wire temperatures agree far below any physically meaningful scale.
    let (_, t_ref) = &sol_ref.snapshots[sol_ref.snapshots.len() - 1];
    let (_, t_lazy) = &sol_lazy.snapshots[sol_lazy.snapshots.len() - 1];
    let max_diff = t_ref
        .iter()
        .zip(t_lazy)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_diff < 1e-4, "temperature fields diverged: {max_diff} K");
    for j in 0..12 {
        let wr = sol_ref.wire_series(j);
        let wl = sol_lazy.wire_series(j);
        for (a, b) in wr.iter().zip(wl) {
            assert!((a - b).abs() < 1e-4, "wire {j}: {a} vs {b}");
        }
    }
}

#[test]
fn stationary_solve_uses_its_own_cache() {
    let built = coarse_package();
    // The stationary Picard loop on the coarse mesh needs more headroom
    // than the transient default.
    let options = SolverOptions {
        picard_max_iter: 80,
        ..SolverOptions::default()
    };
    let mut session = Session::new(built.compile(options).unwrap());
    let st1 = session.solve_stationary().unwrap();
    let st2 = session.solve_stationary().unwrap();
    assert!(st1.converged && st2.converged);
    // Second stationary solve reuses the cached stationary preconditioner.
    let c = session.counters();
    assert!(c.precond_reuses > 0);
    let diff = st1
        .temperature
        .iter()
        .zip(&st2.temperature)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(diff < 1e-6, "stationary solves disagree: {diff} K");
}
