//! Solver configuration.

use etherm_numerics::solvers::{AmgOptions, CgOptions};

/// Which Joule-heat quadrature feeds the thermal right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JouleScheme {
    /// Paper scheme: voltages interpolated to cell midpoints, cell powers
    /// scattered to nodes (§III-A).
    #[default]
    CellBased,
    /// Per-edge dissipation `Mσ,e·u_e²` split onto the edge endpoints —
    /// discretely exact w.r.t. the FIT stiffness (ablation A2).
    EdgeBased,
}

/// Preconditioner selection for the inner CG solves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrecondKind {
    /// Diagonal (Jacobi) scaling — robust for the huge σ contrasts.
    Jacobi,
    /// Incomplete Cholesky with structural fill level `k`: `Ic(0)` is the
    /// classic zero-fill IC(0); higher levels build a denser factor that
    /// cuts CG iterations substantially — worthwhile now that factorizations
    /// are cached and refreshed lazily instead of rebuilt every solve.
    Ic(usize),
    /// Smoothed-aggregation algebraic multigrid V-cycle with
    /// [`AmgOptions::default`] (θ = 0.08, one symmetric Gauss–Seidel sweep):
    /// near-mesh-independent CG iteration counts at a higher per-iteration
    /// cost — the preconditioner of choice once the FIT grid is refined
    /// past the paper resolution. The hierarchy honors the same
    /// frozen-skeleton `refresh` contract as the incomplete factorizations,
    /// so it slots into the lazy per-subsystem cache unchanged.
    Amg,
}

impl PrecondKind {
    /// Short human/machine-readable name for benchmark records
    /// (e.g. `"ic(1)"`; `Amg` prints the θ and ω of
    /// [`AmgOptions::default`], `"amg(theta=0.08,omega=1)"`).
    pub fn describe(&self) -> String {
        match self {
            PrecondKind::Jacobi => "jacobi".into(),
            PrecondKind::Ic(level) => format!("ic({level})"),
            PrecondKind::Amg => {
                let amg = AmgOptions::default();
                format!(
                    "amg(theta={},omega={})",
                    amg.strength_theta, amg.smoother.omega
                )
            }
        }
    }
}

impl Default for PrecondKind {
    fn default() -> Self {
        // IC(1) costs one extra symbolic pass at construction (amortized by
        // the lazy refresh cache) and roughly halves thermal CG iterations
        // on the paper package compared to IC(0).
        PrecondKind::Ic(1)
    }
}

/// Escalation ladder applied when an inner linear solve fails (iteration
/// cap, SPD breakdown, non-finite contamination).
///
/// The rungs fire in order, each bounded, each recorded in the run's
/// [`crate::RecoveryLedger`]:
///
/// 1. plain retry from the saved pre-solve state (`max_retries` times) —
///    catches transient contamination without touching the preconditioner,
///    so a successful retry is bit-identical to an undisturbed solve;
/// 2. forced preconditioner refresh (in place, frozen pattern);
/// 3. preconditioner downgrade (`Amg` → `Ic(1)` → `Jacobi`; every `Ic(k)`
///    falls to `Jacobi`, the bottom rung), sticky for the rest of the
///    session until the cache is cleared;
/// 4. at the step level, halve `dt` and redo the step as two sub-steps
///    (`max_dt_halvings` levels of recursion).
///
/// `RecoveryPolicy::disabled()` reproduces the historical fail-fast
/// behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Plain same-configuration retries per solve before escalating.
    pub max_retries: usize,
    /// Whether a failing solve may force a preconditioner refresh even when
    /// the factorization is fresh.
    pub forced_refresh: bool,
    /// Whether the ladder may downgrade the preconditioner kind.
    pub precond_fallback: bool,
    /// Maximum levels of `dt`-halving recursion per transient step
    /// (`2` means a step may shrink to `dt/4` sub-steps).
    pub max_dt_halvings: usize,
    /// Total Krylov-iteration budget for one run (`run_transient` /
    /// stationary solve), summed over all solves *including* recovery
    /// attempts. `0` disables the budget. Exceeding it aborts the run with
    /// [`crate::CoreError::BudgetExhausted`] — the backstop that keeps a
    /// pathological sample from burning a whole campaign's CPU.
    pub linear_iteration_budget: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 1,
            forced_refresh: true,
            precond_fallback: true,
            max_dt_halvings: 2,
            linear_iteration_budget: 0,
        }
    }
}

impl RecoveryPolicy {
    /// No escalation at all: the first hard failure propagates, reproducing
    /// the historical fail-fast behavior.
    pub fn disabled() -> Self {
        RecoveryPolicy {
            max_retries: 0,
            forced_refresh: false,
            precond_fallback: false,
            max_dt_halvings: 0,
            linear_iteration_budget: 0,
        }
    }

    /// Whether every rung of the ladder is off.
    pub fn is_disabled(&self) -> bool {
        self.max_retries == 0
            && !self.forced_refresh
            && !self.precond_fallback
            && self.max_dt_halvings == 0
    }
}

/// Options of the coupled transient solver.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Inner linear-solver (CG) controls.
    pub linear: CgOptions,
    /// Preconditioner for both subsystems.
    pub preconditioner: PrecondKind,
    /// Relative ℓ₂ tolerance of the per-step Picard iteration.
    pub picard_tol: f64,
    /// Picard iteration cap per time step.
    pub picard_max_iter: usize,
    /// Joule-heat quadrature.
    pub joule: JouleScheme,
    /// Re-solve the electrical subsystem in *every* Picard iteration
    /// (strong coupling). When `false`, the potential is computed once per
    /// time step and lagged through the remaining Picard iterations — the
    /// classic weak-coupling scheme, accurate to `O(Δt)` like the implicit
    /// Euler method itself and ~35 % faster on package-sized models.
    pub resolve_electrical_every_picard: bool,
    /// Lazy-refresh trigger: a cached preconditioner is refreshed (in place,
    /// over the frozen sparsity pattern) when a solve needs more than
    /// `precond_refresh_factor ×` the CG iterations of the first solve after
    /// the last (re)build. `1.0` effectively refreshes every solve;
    /// `f64::INFINITY` disables the degradation trigger.
    pub precond_refresh_factor: f64,
    /// Forced refresh after this many consecutive solves reusing the same
    /// factorization. `0` rebuilds every solve (the pre-cache behavior,
    /// useful as a benchmark baseline); large values leave refreshes to the
    /// degradation trigger alone.
    pub precond_max_reuses: usize,
    /// Drop tolerance for incomplete-Cholesky fill (`PrecondKind::Ic` with
    /// level ≥ 1): fill entries with `|L[i,j]| < τ·√(L[i,i]·L[j,j])` are
    /// pruned from the factor pattern after the first factorization. On the
    /// paper package, `0.01` halves the triangular-sweep cost at unchanged
    /// CG iteration counts. `0.0` keeps the full structural pattern.
    pub precond_droptol: f64,
    /// Escalation ladder applied when an inner solve fails.
    pub recovery: RecoveryPolicy,
    /// Panel width of the batched ensemble fast path
    /// ([`crate::run_ensemble_batched`]): a batched campaign groups this
    /// many same-model samples per worker and advances them in lock step,
    /// with one fused multi-RHS solve per subsystem (electrical and
    /// thermal) per Picard iterate. A group step that fails is redone
    /// sample by sample with the full recovery ladder. `0` or `1` disables
    /// batching — the scalar per-sample path stays the default, and
    /// exact-mode campaigns are unaffected either way. Typical sweet spot:
    /// 8–32.
    pub batch_width: usize,
    /// Inexact Picard: solve each transient step's electrical and thermal
    /// systems only as tightly as the coupling needs, after the forcing
    /// terms of Eisenstat & Walker, "Choosing the forcing terms in an
    /// inexact Newton method", SIAM J. Sci. Comput. 17 (1996). With `u_k`
    /// the (panel's largest) relative Picard update of iterate `k`, the CG
    /// tolerance of iterate `k`'s thermal solve, and of its electrical
    /// solve under [`SolverOptions::resolve_electrical_every_picard`], is
    ///
    /// * `τ₁ = 1e-4` for `k = 1`;
    /// * `η · u_{k−1} · min(1, u_{k−1} / u_{k−2})` for `k ≥ 2`, with
    ///   `η = 0.1`: the last update scaled by the observed contraction, so
    ///   the tolerance tightens as the loop converges;
    ///
    /// capped at `τ₁`, floored at `linear.tol_rel`, and exactly
    /// `linear.tol_rel` on the last iterate a step may take
    /// (`picard_max_iter`), which no later iterate can correct. A
    /// re-solved potential only heats its own iterate, so it needs no
    /// tighter solve than that iterate's temperature; a potential solved
    /// once per step heats every iterate and runs at `linear.tol_rel`. An
    /// iterate counts towards [`SolverOptions::picard_tol`] only when its
    /// solves ran no looser than `max(picard_tol, linear.tol_rel)`: a loose
    /// solve that barely moves the temperature cannot claim convergence.
    /// Stationary solves always run at `linear.tol_rel`.
    ///
    /// Off by default: the answer then moves within the Picard tolerance
    /// (`picard_tol × T`, ≈ 4e-5 K at 360 K) rather than the inner solver
    /// tolerance, and the default profile keeps its 1e-6 K agreement
    /// contracts between solve paths (a session rerun without a reset
    /// against a fresh one, batched vs scalar, a panel step redone member
    /// by member). On in [`SolverOptions::uq`], where it roughly halves
    /// the thermal CG work of a campaign step and cuts its electrical CG
    /// work to about a third. `bench_uq` turns it off in its `uq()`
    /// campaign: that campaign sets `picard_tol = 0`, so a step ends only
    /// on an update of exactly zero or at `picard_max_iter`, and it gates
    /// config-to-config agreement at 1.5e-7 K, which forced iterates miss
    /// (~7e-7 K).
    pub picard_forcing: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            linear: CgOptions {
                tol_rel: 1e-9,
                tol_abs: 1e-30,
                max_iter: 0,
            },
            preconditioner: PrecondKind::default(),
            picard_tol: 1e-7,
            picard_max_iter: 25,
            joule: JouleScheme::CellBased,
            resolve_electrical_every_picard: true,
            precond_refresh_factor: 1.5,
            precond_max_reuses: 64,
            precond_droptol: 0.01,
            recovery: RecoveryPolicy::default(),
            batch_width: 0,
            picard_forcing: false,
        }
    }
}

impl SolverOptions {
    /// Options reproducing the pre-cache behavior: the preconditioner is
    /// rebuilt from scratch before every CG solve. Used as the reference
    /// configuration of `bench_transient` and by the equivalence tests.
    pub fn rebuild_every_solve() -> Self {
        SolverOptions {
            precond_max_reuses: 0,
            ..SolverOptions::default()
        }
    }

    /// The UQ-campaign profile: the default Picard and CG tolerances with
    /// the AMG preconditioner and inexact Picard
    /// ([`SolverOptions::picard_forcing`]) — the configuration of the
    /// session-reuse ensemble in `bench_uq`. AMG costs more per CG
    /// iteration but needs ~8× fewer of them on the paper package, and its
    /// hierarchy honors the frozen-skeleton `refresh` contract, so a
    /// session refreshes it in place across the steps of a run instead of
    /// re-aggregating. The forcing solves early Picard iterates loosely, so
    /// answers agree with the default profile within the Picard tolerance
    /// rather than the CG tolerance.
    pub fn uq() -> Self {
        SolverOptions {
            preconditioner: PrecondKind::Amg,
            picard_forcing: true,
            ..SolverOptions::default()
        }
    }

    /// Fast options for Monte Carlo sweeps: slightly looser tolerances that
    /// keep the sampling error dominant over the solver error.
    pub fn fast() -> Self {
        SolverOptions {
            linear: CgOptions {
                tol_rel: 1e-6,
                tol_abs: 1e-30,
                max_iter: 0,
            },
            picard_tol: 1e-4,
            picard_max_iter: 15,
            resolve_electrical_every_picard: false,
            ..SolverOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = SolverOptions::default();
        assert_eq!(o.joule, JouleScheme::CellBased);
        assert_eq!(o.preconditioner, PrecondKind::Ic(1));
        assert!(o.picard_tol > 0.0 && o.picard_tol < 1e-3);
        assert!(o.picard_max_iter >= 10);
        assert!(o.precond_refresh_factor > 1.0);
        assert!(o.precond_max_reuses > 0);
        assert_eq!(o.batch_width, 0, "batching must be opt-in");
    }

    #[test]
    fn forcing_is_on_only_in_the_campaign_profile() {
        assert!(!SolverOptions::default().picard_forcing);
        assert!(!SolverOptions::fast().picard_forcing);
        assert!(SolverOptions::uq().picard_forcing);
    }

    #[test]
    fn rebuild_every_solve_disables_reuse() {
        let o = SolverOptions::rebuild_every_solve();
        assert_eq!(o.precond_max_reuses, 0);
        assert_eq!(o.preconditioner, SolverOptions::default().preconditioner);
    }

    #[test]
    fn precond_names_are_stable() {
        assert_eq!(PrecondKind::Jacobi.describe(), "jacobi");
        assert_eq!(PrecondKind::Ic(1).describe(), "ic(1)");
        assert_eq!(PrecondKind::Amg.describe(), "amg(theta=0.08,omega=1)");
    }

    #[test]
    fn recovery_defaults_and_disabled() {
        let r = RecoveryPolicy::default();
        assert_eq!(r.max_retries, 1);
        assert!(r.forced_refresh && r.precond_fallback);
        assert_eq!(r.max_dt_halvings, 2);
        assert_eq!(r.linear_iteration_budget, 0);
        assert!(!r.is_disabled());
        assert!(RecoveryPolicy::disabled().is_disabled());
        assert_eq!(SolverOptions::default().recovery, RecoveryPolicy::default());
    }

    #[test]
    fn fast_is_looser() {
        let f = SolverOptions::fast();
        let d = SolverOptions::default();
        assert!(f.linear.tol_rel > d.linear.tol_rel);
        assert!(f.picard_tol > d.picard_tol);
    }
}
