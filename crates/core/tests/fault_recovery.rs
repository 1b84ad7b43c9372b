//! Property tests of the solver-resilience layer: seeded fault plans must
//! either be absorbed by the recovery ladder with bit-identical results or
//! surface as structured errors, and ensemble quarantine must stay
//! deterministic for any thread count.
//!
//! Breakdown (sign-flip) faults are kept off apply index 0 throughout:
//! negating the initial-residual computation `r0 = b − A·x0` perturbs the
//! system CG solves without ever producing a negative `pᵀAp`, so it is the
//! one fault class the non-finite and breakdown guards intentionally
//! cannot see (the same convention `bench_robustness` uses).

use etherm_core::{
    run_ensemble, CompiledModel, CoreError, ElectrothermalModel, EnsembleOptions, FailurePolicy,
    Fault, FaultKind, FaultPlan, PrecondKind, RecoveryLedger, Scenario, Session, SolverOptions,
};
use etherm_fit::boundary::ThermalBoundary;
use etherm_grid::{Axis, CellPaint, Grid3, MaterialId};
use etherm_materials::{library, MaterialTable};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A driven epoxy block with one bond wire across it — the smallest model
/// that exercises both linear systems and the Joule coupling.
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
    let wire = etherm_bondwire::BondWire::new("w", 1.5e-3, 25.4e-6, library::copper()).unwrap();
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

fn compiled() -> Arc<CompiledModel> {
    Arc::new(CompiledModel::compile(wire_model(), SolverOptions::default()).unwrap())
}

fn session() -> Session {
    Session::new(compiled())
}

/// Detectable one-shot kinds: NaN and Inf trip the non-finite guards at
/// any apply index, a sign flip trips the `pᵀAp < 0` breakdown check at
/// any apply index except 0.
const DETECTABLE: [FaultKind; 3] = [FaultKind::Nan, FaultKind::Inf, FaultKind::Breakdown];

/// At most one detectable fault per solve index: a single failure per
/// solve is absorbed by the first ladder rung (a plain retry), which
/// restores the iterate backup and never downgrades the preconditioner —
/// the precondition for exact bit-identity with the fault-free run.
fn recoverable_plan() -> impl Strategy<Value = FaultPlan> {
    proptest::collection::vec((0usize..8, 0usize..3, 0usize..3), 0..5).prop_map(|raw| {
        // Dedupe by solve index (last one wins): at most one fault per
        // solve keeps the ladder on its retry rung.
        let by_solve: std::collections::BTreeMap<usize, (usize, usize)> = raw
            .into_iter()
            .map(|(solve, apply, kind_idx)| (solve, (apply, kind_idx)))
            .collect();
        FaultPlan::new(
            by_solve
                .into_iter()
                .map(|(solve, (apply, kind_idx))| {
                    let kind = DETECTABLE[kind_idx];
                    Fault {
                        solve,
                        apply: if kind == FaultKind::Breakdown {
                            apply.max(1)
                        } else {
                            apply
                        },
                        kind,
                    }
                })
                .collect(),
        )
    })
}

fn saturating_kind() -> impl Strategy<Value = FaultKind> {
    (0usize..DETECTABLE.len()).prop_map(|i| DETECTABLE[i])
}

/// Sets the sampled wire length, and for poisoned sample indices installs
/// an unrecoverable saturating plan (clearing any stale plan otherwise —
/// workers reuse their session across samples).
struct PoisonedCampaign {
    poisoned: BTreeSet<usize>,
}

impl Scenario for PoisonedCampaign {
    fn apply(&self, session: &mut Session, sample: &[f64]) -> Result<(), CoreError> {
        session.set_wire_length(0, sample[0])
    }

    fn apply_indexed(
        &self,
        session: &mut Session,
        sample: &[f64],
        index: usize,
    ) -> Result<(), CoreError> {
        session.set_fault_plan(
            self.poisoned
                .contains(&index)
                .then(|| FaultPlan::saturating(FaultKind::Nan)),
        );
        self.apply(session, sample)
    }

    fn evaluate(&self, session: &mut Session) -> Result<Vec<f64>, CoreError> {
        let sol = session.run_transient(1.0, 2, &[])?;
        Ok(vec![*sol.wire_series(0).last().unwrap()])
    }
}

/// Non-vacuousness guard for the bit-identity property: a fault at the
/// very first operator application of the very first solve always fires.
#[test]
fn a_first_solve_fault_actually_fires_and_recovers() {
    let mut clean = session();
    let reference = clean.run_transient(1.0, 3, &[1.0]).unwrap();

    let mut faulted = session();
    faulted.set_fault_plan(Some(FaultPlan::new(vec![Fault {
        solve: 0,
        apply: 0,
        kind: FaultKind::Nan,
    }])));
    let solution = faulted.run_transient(1.0, 3, &[1.0]).unwrap();
    assert_eq!(faulted.faults_fired(), 1);
    assert_eq!(faulted.counters().recovery.recovered_solves, 1);
    assert_eq!(solution, reference);
}

/// A scalar AMG session on the wire model, with the recovery ladder on or
/// off, running `plan`.
fn amg_session(recovery: bool, plan: FaultPlan) -> Session {
    let options = SolverOptions {
        preconditioner: PrecondKind::Amg,
        recovery,
        ..SolverOptions::default()
    };
    let mut s = Session::new(CompiledModel::compile(wire_model(), options).unwrap());
    s.set_fault_plan(Some(plan));
    s
}

/// Pins the ladder's rung sequence. Every apply is poisoned, so every rung
/// fires and fails. With the ladder on, the first solve takes one retry, a
/// forced refresh and both downgrades, Amg → Ic(1) → Jacobi; the step is
/// then halved twice, and each level's first solve, now on the sticky
/// Jacobi rung, takes one retry and one forced refresh. With it off, the
/// failure on the freshly built preconditioner propagates at once.
#[test]
fn saturating_fault_walks_the_whole_ladder_or_none_of_it() {
    let full = RecoveryLedger {
        solve_retries: 3,
        forced_refreshes: 3,
        precond_fallbacks: 2,
        dt_halvings: 2,
        ..RecoveryLedger::default()
    };
    for (recovery, ledger) in [(true, full), (false, RecoveryLedger::default())] {
        let mut s = amg_session(recovery, FaultPlan::saturating(FaultKind::Nan));
        let err = s.run_transient(1.0, 2, &[]).expect_err("unrecoverable");
        // The very first solve, step 1's electrical one, is unrepairable.
        let first_solve = "StepFailed { step: 1, time: 0.0, source: NonFinite { \
                           system: \"electrical\", detail: \"initial residual\" } }";
        assert_eq!(format!("{err:?}"), first_solve, "recovery {recovery}");
        assert_eq!(s.counters().recovery, ledger, "recovery {recovery}");
    }
}

/// With the ladder off, a failure on a reused preconditioner still gets one
/// refresh-and-retry, the stale-factor safety net. Solve 2 is step 1's
/// second electrical solve, on the preconditioner built for solve 0.
#[test]
fn ladder_off_still_refreshes_a_reused_preconditioner() {
    let fault = Fault {
        solve: 2,
        apply: 0,
        kind: FaultKind::Nan,
    };
    let mut s = amg_session(false, FaultPlan::new(vec![fault]));
    s.run_transient(1.0, 2, &[])
        .expect("recovered by the refresh");
    let ledger = s.counters().recovery;
    assert_eq!((ledger.forced_refreshes, ledger.recovered_solves), (1, 1));
    assert_eq!(
        ledger.solve_retries + ledger.precond_fallbacks + ledger.dt_halvings,
        0
    );
}

proptest! {
    // Every case runs full transients; keep the case count an order of
    // magnitude below the library defaults.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any plan of per-solve-unique detectable faults is absorbed by plain
    /// retries and the recovered run is bitwise equal to the fault-free
    /// one, with the ledger accounting for exactly the faults that fired.
    #[test]
    fn recovered_runs_are_bit_identical_to_fault_free(plan in recoverable_plan()) {
        let mut clean = session();
        let reference = clean.run_transient(1.0, 3, &[1.0]).unwrap();

        let mut faulted = session();
        faulted.set_fault_plan(Some(plan));
        let solution = faulted.run_transient(1.0, 3, &[1.0]).unwrap();
        prop_assert_eq!(&solution, &reference);

        // Faults whose solve/apply coordinates the run never reaches stay
        // dormant; every fault that did fire cost exactly one retry.
        let fired = faulted.faults_fired();
        let ledger = faulted.counters().recovery;
        prop_assert_eq!(ledger.solve_retries, fired);
        prop_assert_eq!(ledger.recovered_solves, fired);
        prop_assert_eq!(ledger.forced_refreshes, 0);
        prop_assert_eq!(ledger.precond_fallbacks, 0);
        prop_assert_eq!(ledger.dt_halvings, 0);
        prop_assert_eq!(ledger.any(), fired > 0);
    }

    /// A saturating fault exhausts the ladder into a structured error —
    /// never a panic, never a silently non-finite result — and the session
    /// stays fully reusable afterwards.
    #[test]
    fn saturating_faults_error_structurally_and_leave_the_session_reusable(
        kind in saturating_kind(),
        steps in 1usize..4,
    ) {
        let mut clean = session();
        let reference = clean.run_transient(1.0, steps, &[]).unwrap();

        let mut s = session();
        s.set_fault_plan(Some(FaultPlan::saturating(kind)));
        let err = s.run_transient(1.0, steps, &[]).expect_err("unrecoverable");
        let message = format!("{err}");
        prop_assert!(!message.is_empty());

        // Clearing the plan and resetting restores bit-identity.
        s.set_fault_plan(None);
        s.reset();
        let rerun = s.run_transient(1.0, steps, &[]).unwrap();
        prop_assert_eq!(&rerun, &reference);
    }
}

proptest! {
    // Three ensemble runs per case — keep the case count minimal.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Quarantine reports exactly the poisoned sample indices and the
    /// whole result (outputs, merged counters, failure list) is identical
    /// for any thread count.
    #[test]
    fn quarantine_is_deterministic_across_thread_counts(
        raw_poisoned in proptest::collection::vec(0usize..6, 0..3),
    ) {
        let poisoned: BTreeSet<usize> = raw_poisoned.into_iter().collect();
        let compiled = compiled();
        let samples: Vec<Vec<f64>> =
            (0..6).map(|i| vec![1.2e-3 + 1e-4 * i as f64]).collect();
        let scenario = PoisonedCampaign { poisoned: poisoned.clone() };
        let policy = FailurePolicy::Quarantine { max_failures: poisoned.len().max(1) };

        let reference = run_ensemble(
            &compiled,
            &scenario,
            &samples,
            &EnsembleOptions { failure_policy: policy, ..EnsembleOptions::default() },
        )
        .unwrap();
        let failed: BTreeSet<usize> =
            reference.failures.iter().map(|f| f.sample).collect();
        prop_assert_eq!(&failed, &poisoned);
        for (i, out) in reference.outputs.iter().enumerate() {
            prop_assert_eq!(out.is_empty(), poisoned.contains(&i), "sample {}", i);
        }

        for threads in [2, 3] {
            let par = run_ensemble(
                &compiled,
                &scenario,
                &samples,
                &EnsembleOptions {
                    n_threads: threads,
                    failure_policy: policy,
                    ..EnsembleOptions::default()
                },
            )
            .unwrap();
            prop_assert_eq!(&par.outputs, &reference.outputs, "threads = {}", threads);
            prop_assert_eq!(&par.counters, &reference.counters, "threads = {}", threads);
            prop_assert_eq!(
                par.failures.len(),
                reference.failures.len(),
                "threads = {}",
                threads
            );
        }
    }
}
