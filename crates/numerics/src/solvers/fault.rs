//! Deterministic fault injection for resilience testing.
//!
//! A [`FaultPlan`] names exact `(solve, apply)` trigger points at which a
//! [`FaultyLinOp`] wrapper corrupts the output of the wrapped operator —
//! NaN/Inf contamination, a sign flip that breaks positive definiteness, or
//! a persistent noise floor that stalls the residual above any reasonable
//! tolerance. The plan is driven by a [`FaultInjector`] holding interior-
//! mutable counters, so injection composes with the `&self` [`LinOp`]
//! contract and is *bit-deterministic*: the same plan on the same solve
//! sequence fires the same faults, regardless of threading above the solver
//! (the injector itself lives on exactly one solver thread).
//!
//! Point faults are **one-shot**: each [`Fault`] fires at most once per run,
//! so a retry of the corrupted solve from a clean state sees the pristine
//! operator — exactly the transient-fault model recovery ladders are built
//! for. [`FaultPlan::saturating`] instead corrupts *every* apply, modelling
//! an unrecoverable sample for quarantine tests. When no plan is installed
//! the wrapper is never constructed, so the clean path pays nothing.

use crate::sparse::LinOp;
use std::cell::Cell;

/// What a triggered fault does to the operator output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Poke a NaN into one output entry (exercises non-finite guards).
    Nan,
    /// Poke an infinity into one output entry.
    Inf,
    /// Negate the output once: `pᵀAp` turns negative, CG reports a
    /// breakdown.
    Breakdown,
    /// From the trigger until the end of the current attempt, add a small
    /// rotating perturbation (`≈1e-7·‖y‖∞`) to the output: the recurrence
    /// residual floors above tight tolerances and the solver runs into its
    /// iteration cap without breaking positive definiteness.
    Stall,
    /// Make the next preconditioner refresh at this solve index report
    /// failure (the apply index is ignored), forcing the rebuild path.
    RefreshFail,
}

/// One deterministic trigger point: the `apply`-th operator application
/// (0-based) of the `solve`-th linear solve (0-based, counted per run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Solve index within the run (each `solve_reduced`-level linear solve
    /// increments it; retries of a failed solve do *not*).
    pub solve: usize,
    /// Operator application index within one solve attempt.
    pub apply: usize,
    /// The corruption applied at the trigger.
    pub kind: FaultKind,
}

/// A deterministic set of injection points, installed per run (or per
/// ensemble sample).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// One-shot point faults.
    pub faults: Vec<Fault>,
    /// When set, *every* operator application is corrupted with this kind
    /// and nothing is ever consumed — an unrecoverable fault.
    pub saturate: Option<FaultKind>,
}

impl FaultPlan {
    /// A plan from explicit one-shot faults.
    pub fn new(faults: Vec<Fault>) -> Self {
        FaultPlan {
            faults,
            saturate: None,
        }
    }

    /// A plan corrupting every apply with `kind` — never recoverable by
    /// retry, the canonical "poisoned sample" of quarantine tests.
    pub fn saturating(kind: FaultKind) -> Self {
        FaultPlan {
            faults: Vec::new(),
            saturate: Some(kind),
        }
    }

    /// A seeded pseudo-random plan: `n_faults` one-shot faults with solve
    /// indices below `max_solve` and apply indices below `max_apply`,
    /// drawn from a SplitMix64 stream. Identical seeds give identical
    /// plans on every platform.
    pub fn seeded(seed: u64, n_faults: usize, max_solve: usize, max_apply: usize) -> Self {
        let mut state = seed;
        let mut next = move || {
            // SplitMix64: the standard 64-bit finalizer-based generator.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let kinds = [
            FaultKind::Nan,
            FaultKind::Inf,
            FaultKind::Breakdown,
            FaultKind::Stall,
            FaultKind::RefreshFail,
        ];
        let faults = (0..n_faults)
            .map(|_| Fault {
                solve: (next() % max_solve.max(1) as u64) as usize,
                apply: (next() % max_apply.max(1) as u64) as usize,
                kind: kinds[(next() % kinds.len() as u64) as usize],
            })
            .collect();
        FaultPlan::new(faults)
    }

    /// Whether the plan can never fire anything.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.saturate.is_none()
    }
}

/// Executes a [`FaultPlan`] over a sequence of solves: tracks the current
/// solve index, the apply index within the current attempt, and which
/// one-shot faults have already fired. All state is interior-mutable so the
/// injector can be shared with a `&self`-based [`LinOp`] wrapper.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    consumed: Vec<Cell<bool>>,
    /// Solve index assigned to the *current* solve by `begin_solve`.
    cur_solve: Cell<usize>,
    /// Solve index the next `begin_solve` will assign.
    next_solve: Cell<usize>,
    /// Applies within the current attempt.
    applies: Cell<usize>,
    /// Stall noise active for the remainder of the current attempt.
    stall: Cell<bool>,
    /// Largest `‖y‖∞` seen in the current attempt: the *absolute* scale of
    /// the stall noise. Krylov directions shrink as the solve converges, so
    /// noise relative to the current vector would shrink with them and let
    /// the solve through; an absolute floor pinned to the attempt's largest
    /// output keeps the residual from ever reaching tight tolerances.
    stall_scale: Cell<f64>,
    /// Total faults fired since the last `begin_run` (diagnostics).
    fired: Cell<usize>,
}

impl FaultInjector {
    /// An injector at the start of a run.
    pub fn new(plan: FaultPlan) -> Self {
        let consumed = plan.faults.iter().map(|_| Cell::new(false)).collect();
        FaultInjector {
            plan,
            consumed,
            cur_solve: Cell::new(0),
            next_solve: Cell::new(0),
            applies: Cell::new(0),
            stall: Cell::new(false),
            stall_scale: Cell::new(0.0),
            fired: Cell::new(0),
        }
    }

    /// The installed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Rewinds to the start of a run: solve counter to zero, all one-shot
    /// faults re-armed. Called by the session at every run entry so fault
    /// positions are counted per run, not per session lifetime.
    pub fn begin_run(&self) {
        self.next_solve.set(0);
        self.cur_solve.set(0);
        self.applies.set(0);
        self.stall.set(false);
        self.fired.set(0);
        for c in &self.consumed {
            c.set(false);
        }
    }

    /// Advances to the next solve and returns whether any fault can still
    /// fire during it (callers skip the wrapper entirely otherwise).
    pub fn begin_solve(&self) -> bool {
        let s = self.next_solve.get();
        self.cur_solve.set(s);
        self.next_solve.set(s + 1);
        self.begin_attempt();
        self.plan.saturate.is_some()
            || self
                .plan
                .faults
                .iter()
                .zip(&self.consumed)
                .any(|(f, c)| f.solve == s && f.kind != FaultKind::RefreshFail && !c.get())
    }

    /// The solve index the next [`FaultInjector::begin_solve`] will assign:
    /// a mark for [`FaultInjector::rewind_to`].
    pub fn next_solve(&self) -> usize {
        self.next_solve.get()
    }

    /// Rewinds the solve counter to a mark from
    /// [`FaultInjector::next_solve`], so the solves begun since are counted
    /// again when they are redone. Consumed faults stay consumed.
    pub fn rewind_to(&self, mark: usize) {
        self.next_solve.set(mark);
    }

    /// Rewinds the within-attempt state for a retry of the current solve
    /// (the solve index is unchanged; consumed faults stay consumed).
    pub fn begin_attempt(&self) {
        self.applies.set(0);
        self.stall.set(false);
        self.stall_scale.set(0.0);
    }

    /// Consumes a pending [`FaultKind::RefreshFail`] for the current solve,
    /// returning whether the refresh should be failed.
    pub fn refresh_fault(&self) -> bool {
        let s = self.cur_solve.get();
        for (f, c) in self.plan.faults.iter().zip(&self.consumed) {
            if f.kind == FaultKind::RefreshFail && f.solve == s && !c.get() {
                c.set(true);
                self.fired.set(self.fired.get() + 1);
                return true;
            }
        }
        false
    }

    /// Total faults fired since the last [`FaultInjector::begin_run`].
    pub fn fired(&self) -> usize {
        self.fired.get()
    }

    /// Corrupts `y` according to the plan; called after every wrapped
    /// operator application.
    fn after_apply(&self, y: &mut [f64]) {
        let k = self.applies.get();
        self.applies.set(k + 1);
        if let Some(kind) = self.plan.saturate {
            corrupt(kind, y, k, &self.stall);
        }
        let s = self.cur_solve.get();
        for (f, c) in self.plan.faults.iter().zip(&self.consumed) {
            if f.kind != FaultKind::RefreshFail && f.solve == s && f.apply == k && !c.get() {
                c.set(true);
                self.fired.set(self.fired.get() + 1);
                corrupt(f.kind, y, k, &self.stall);
                break;
            }
        }
        if self.stall.get() && !y.is_empty() {
            let cur = y.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
            let scale = self.stall_scale.get().max(cur);
            self.stall_scale.set(scale);
            y[k % y.len()] += 1e-7 * scale.max(1e-300);
        }
    }
}

fn corrupt(kind: FaultKind, y: &mut [f64], apply: usize, stall: &Cell<bool>) {
    if y.is_empty() {
        return;
    }
    match kind {
        FaultKind::Nan => y[apply % y.len()] = f64::NAN,
        FaultKind::Inf => y[apply % y.len()] = f64::INFINITY,
        FaultKind::Breakdown => {
            for v in y.iter_mut() {
                *v = -*v;
            }
        }
        FaultKind::Stall => stall.set(true),
        // Refresh faults never corrupt operator output.
        FaultKind::RefreshFail => {}
    }
}

/// A [`LinOp`] that forwards to `inner` and lets `injector` corrupt the
/// output per its plan. Constructed only for solves the plan targets, so
/// fault-free solves never see the wrapper.
#[derive(Debug)]
pub struct FaultyLinOp<'a, A: ?Sized> {
    inner: &'a A,
    injector: &'a FaultInjector,
}

impl<'a, A: LinOp + ?Sized> FaultyLinOp<'a, A> {
    /// Wraps `inner` under `injector`'s plan.
    pub fn new(inner: &'a A, injector: &'a FaultInjector) -> Self {
        FaultyLinOp { inner, injector }
    }
}

impl<A: LinOp + ?Sized> LinOp for FaultyLinOp<'_, A> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.inner.apply(x, y);
        self.injector.after_apply(y);
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.inner.apply_into(x, y);
        self.injector.after_apply(y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NumericsError;
    use crate::solvers::{cg, CgOptions};
    use crate::sparse::{Coo, Csr};

    fn lap1d(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        Csr::from_coo(&coo)
    }

    fn solve_faulty(
        a: &Csr,
        inj: &FaultInjector,
        opts: &CgOptions,
    ) -> Result<crate::solvers::SolveReport, NumericsError> {
        let n = a.n_rows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        if inj.begin_solve() {
            cg(&FaultyLinOp::new(a, inj), &b, &mut x, opts)
        } else {
            cg(a, &b, &mut x, opts)
        }
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let p1 = FaultPlan::seeded(42, 8, 100, 10);
        let p2 = FaultPlan::seeded(42, 8, 100, 10);
        let p3 = FaultPlan::seeded(43, 8, 100, 10);
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        assert_eq!(p1.faults.len(), 8);
        assert!(p1.faults.iter().all(|f| f.solve < 100 && f.apply < 10));
    }

    #[test]
    fn nan_fault_trips_non_finite_guard() {
        let a = lap1d(40);
        let inj = FaultInjector::new(FaultPlan::new(vec![Fault {
            solve: 0,
            apply: 2,
            kind: FaultKind::Nan,
        }]));
        let e = solve_faulty(&a, &inj, &CgOptions::default());
        assert!(
            matches!(e, Err(NumericsError::NonFinite { .. })),
            "{e:?}"
        );
        assert_eq!(inj.fired(), 1);
        // The fault is consumed: a retry of the same solve is clean.
        inj.begin_attempt();
        let n = a.n_rows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let rep = cg(&FaultyLinOp::new(&a, &inj), &b, &mut x, &CgOptions::default()).unwrap();
        assert!(rep.converged);
        assert_eq!(inj.fired(), 1);
    }

    #[test]
    fn breakdown_fault_trips_spd_guard() {
        let a = lap1d(40);
        let inj = FaultInjector::new(FaultPlan::new(vec![Fault {
            solve: 0,
            apply: 1,
            kind: FaultKind::Breakdown,
        }]));
        let e = solve_faulty(&a, &inj, &CgOptions::default());
        assert!(matches!(e, Err(NumericsError::Breakdown { .. })), "{e:?}");
    }

    #[test]
    fn stall_fault_exhausts_iteration_cap() {
        let a = lap1d(60);
        let inj = FaultInjector::new(FaultPlan::new(vec![Fault {
            solve: 0,
            apply: 0,
            kind: FaultKind::Stall,
        }]));
        let opts = CgOptions {
            tol_rel: 1e-12,
            tol_abs: 0.0,
            max_iter: 120,
        };
        let rep = solve_faulty(&a, &inj, &opts).unwrap();
        assert!(!rep.converged, "stall fault must prevent convergence");
        assert_eq!(rep.iterations, 120);
    }

    #[test]
    fn untargeted_solves_skip_the_wrapper() {
        let a = lap1d(20);
        let inj = FaultInjector::new(FaultPlan::new(vec![Fault {
            solve: 3,
            apply: 0,
            kind: FaultKind::Nan,
        }]));
        for s in 0..6 {
            let want_wrapper = s == 3;
            let got = inj.begin_solve();
            assert_eq!(got, want_wrapper, "solve {s}");
            if got {
                let b = vec![1.0; 20];
                let mut x = vec![0.0; 20];
                let _ = cg(&FaultyLinOp::new(&a, &inj), &b, &mut x, &CgOptions::default());
            }
        }
        // Consumed: rerunning the sequence without begin_run stays clean...
        assert_eq!(inj.fired(), 1);
        // ...and begin_run re-arms everything.
        inj.begin_run();
        assert!(!inj.begin_solve());
        let mut armed = false;
        for _ in 0..3 {
            armed = inj.begin_solve();
        }
        assert!(armed, "fault at solve 3 re-armed after begin_run");
    }

    #[test]
    fn refresh_fault_fires_once_per_run() {
        let inj = FaultInjector::new(FaultPlan::new(vec![Fault {
            solve: 0,
            apply: 0,
            kind: FaultKind::RefreshFail,
        }]));
        assert!(!inj.begin_solve(), "refresh faults never need the wrapper");
        assert!(inj.refresh_fault());
        assert!(!inj.refresh_fault(), "one-shot");
        inj.begin_run();
        inj.begin_solve();
        assert!(inj.refresh_fault(), "re-armed");
    }

    #[test]
    fn saturating_plan_is_unrecoverable() {
        let a = lap1d(30);
        let inj = FaultInjector::new(FaultPlan::saturating(FaultKind::Nan));
        for _ in 0..3 {
            let e = solve_faulty(&a, &inj, &CgOptions::default());
            assert!(matches!(e, Err(NumericsError::NonFinite { .. })));
            inj.begin_attempt();
        }
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let a = lap1d(50);
        let plan = FaultPlan::seeded(7, 5, 4, 6);
        let run = || {
            let inj = FaultInjector::new(plan.clone());
            let mut outcomes = Vec::new();
            for _ in 0..4 {
                let n = a.n_rows();
                let b = vec![1.0; n];
                let mut x = vec![0.0; n];
                let r = if inj.begin_solve() {
                    cg(&FaultyLinOp::new(&a, &inj), &b, &mut x, &CgOptions::default())
                } else {
                    cg(&a, &b, &mut x, &CgOptions::default())
                };
                outcomes.push((format!("{r:?}"), x));
            }
            (outcomes, inj.fired())
        };
        assert_eq!(run(), run());
    }
}
