//! The batched multi-sample fast path: one matrix traversal advances a
//! whole panel of ensemble samples.
//!
//! A [`BatchSession`] owns `k` sibling [`Session`]s over one shared
//! [`CompiledModel`] and drives them through the transient **in lock-step**:
//! every time step runs the same Picard iterates for all samples, assemblies
//! stay per-sample, and **both** linear solves of an iterate are fused into
//! block solves — the `k` value-filled matrices over the shared frozen
//! pattern become a [`CsrBatch`], the `k` right-hand sides and guesses a
//! [`MultiVec`] panel, and [`block_pcg_with`] advances all columns per
//! traversal with per-column convergence masks. The thermal and electrical
//! systems each keep their own group-shared preconditioner (built from the
//! first sample's matrix, refreshed by the usual lazy policy):
//! preconditioning only shapes the Krylov trajectory, so each sample still
//! converges to its own solution within the inner tolerance. Across steps,
//! a *step-increment transplant* warms iterate `pk`'s thermal guess with the
//! increment the previous step's Picard took at the same position — state
//! that never leaves the group, so worker-count bit-identity is preserved.
//!
//! Contracts and limitations:
//!
//! * The scalar per-sample path stays the default;
//!   [`crate::SolverOptions::batch_width`] ≥ 2 opts a campaign in
//!   ([`crate::ensemble::run_ensemble_batched`]).
//! * Results are bit-identical for any worker-thread count: groups are
//!   formed globally in sample order and nothing crosses group boundaries.
//! * The recovery ladder and the linear-iteration budget do **not** guard
//!   the block thermal solves (the electrical solves keep them): a failing
//!   thermal solve fails the whole group. Batched campaigns trade the
//!   resilience layer for throughput; quarantine at the group level is
//!   provided by the ensemble driver.

use crate::compiled::CompiledModel;
use crate::error::CoreError;
use crate::session::{CachedPrecond, Session, SolveCounters};
use crate::solution::TransientSolution;
use etherm_numerics::solvers::{block_pcg_with, BlockKrylovWorkspace, SolveReport};
use etherm_numerics::sparse::Csr;
use etherm_numerics::{CsrBatch, MultiVec};
use std::sync::Arc;

use crate::options::SolverOptions;

/// A panel of `k` lock-step sessions sharing one compiled model and one
/// fused thermal block solver. See the module docs for the contract.
#[derive(Debug)]
pub struct BatchSession {
    sessions: Vec<Session>,
    /// Group-shared thermal preconditioner (built from the first member's
    /// matrix) and its lazy-refresh reuse counter.
    precond: Option<CachedPrecond>,
    precond_reuses: usize,
    /// Group-shared electrical preconditioner, same policy.
    precond_elec: Option<CachedPrecond>,
    precond_elec_reuses: usize,
    ws: BlockKrylovWorkspace,
    b_panel: MultiVec,
    x_panel: MultiVec,
    /// Cached interleaved value pack for the group's matrices
    /// (`packed[t·k + c]` = nonzero `t` of member `c`), re-filled per solve
    /// so the borrowing [`CsrBatch::from_packed`] operator is
    /// allocation-free on the warm path.
    packed: Vec<f64>,
    reports: Vec<SolveReport>,
    /// Per-member warm potential (full numbering), carried across the steps
    /// of one run exactly like the scalar driver's `phi`.
    phis: Vec<Vec<f64>>,
    /// Per-member reduced thermal solutions of the previous step, one entry
    /// per Picard iterate: `traj[j][pk-1]`. The step-increment transplant
    /// reads them to warm the next step's iterate guesses; group-local
    /// state, so worker-count bit-identity is preserved.
    traj: Vec<Vec<Vec<f64>>>,
    traj_next: Vec<Vec<Vec<f64>>>,
}

impl BatchSession {
    /// Creates `width` sibling sessions over `compiled`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(compiled: &Arc<CompiledModel>, width: usize) -> Self {
        assert!(width >= 1, "BatchSession: need width >= 1");
        BatchSession {
            sessions: (0..width).map(|_| Session::new(Arc::clone(compiled))).collect(),
            precond: None,
            precond_reuses: 0,
            precond_elec: None,
            precond_elec_reuses: 0,
            ws: BlockKrylovWorkspace::new(),
            b_panel: MultiVec::new(),
            x_panel: MultiVec::new(),
            packed: Vec::new(),
            reports: Vec::new(),
            phis: vec![Vec::new(); width],
            traj: vec![Vec::new(); width],
            traj_next: vec![Vec::new(); width],
        }
    }

    /// The panel width (number of member sessions).
    pub fn width(&self) -> usize {
        self.sessions.len()
    }

    /// The member sessions, for applying per-sample parameters before a run.
    pub fn sessions_mut(&mut self) -> &mut [Session] {
        &mut self.sessions
    }

    /// Resets every member session and drops the shared preconditioner:
    /// the next run is independent of everything solved before — the
    /// property that makes globally-formed groups bit-identical for any
    /// worker count.
    pub fn reset(&mut self) {
        for s in &mut self.sessions {
            s.reset();
        }
        self.precond = None;
        self.precond_reuses = 0;
        self.precond_elec = None;
        self.precond_elec_reuses = 0;
        for t in self.traj.iter_mut().chain(self.traj_next.iter_mut()) {
            t.clear();
        }
    }

    /// Solve counters merged over the member sessions.
    pub fn counters(&self) -> SolveCounters {
        let mut merged = SolveCounters::default();
        for s in &self.sessions {
            let c = s.counters();
            merged.merge(&c);
        }
        merged
    }

    /// The recovery-ladder ledger merged over the member sessions — the
    /// panel-level health signal (equivalent to `counters().recovery`).
    pub fn recovery_ledger(&self) -> crate::session::RecoveryLedger {
        self.counters().recovery
    }

    /// Applies one per-request-class Krylov iteration budget to every
    /// member session (see [`Session::set_iteration_budget`]). The block
    /// thermal solves stay unguarded (module docs); the per-member
    /// electrical solves enforce it.
    pub fn set_iteration_budget(&mut self, budget: Option<usize>) {
        for s in &mut self.sessions {
            s.set_iteration_budget(budget);
        }
    }

    /// Runs the coupled transient for the first `k` members in lock-step
    /// and returns one [`TransientSolution`] per member (no snapshots).
    ///
    /// # Errors
    ///
    /// Propagates per-sample electrical failures and block thermal solve
    /// failures; any error fails the whole group.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k > self.width()`, `n_steps == 0` or
    /// `t_end <= 0`.
    pub fn run_transient(
        &mut self,
        k: usize,
        t_end: f64,
        n_steps: usize,
    ) -> Result<Vec<TransientSolution>, CoreError> {
        assert!(k >= 1 && k <= self.sessions.len(), "BatchSession: panel size");
        assert!(n_steps > 0, "need at least one step");
        assert!(t_end > 0.0, "end time must be positive");
        let dt = t_end / n_steps as f64;
        let compiled = Arc::clone(self.sessions[0].compiled());
        let options = compiled.options().clone();
        let layout = compiled.layout();
        let n_wires = self.sessions[0].wires().len();
        let n_total = layout.n_total();

        for s in &mut self.sessions[..k] {
            s.begin_transient_run();
        }
        let mut t_states: Vec<Vec<f64>> = self.sessions[..k]
            .iter()
            .map(Session::initial_temperature)
            .collect();
        for phi in &mut self.phis[..k] {
            phi.clear();
            phi.resize(n_total, 0.0);
        }

        let mut solutions: Vec<TransientSolution> = (0..k)
            .map(|_| TransientSolution {
                times: Vec::with_capacity(n_steps + 1),
                wire_temperatures: vec![Vec::with_capacity(n_steps + 1); n_wires],
                wire_powers: vec![Vec::with_capacity(n_steps + 1); n_wires],
                field_power: Vec::with_capacity(n_steps + 1),
                picard_iterations: Vec::with_capacity(n_steps),
                linear_iterations: 0,
                snapshots: Vec::new(),
            })
            .collect();
        let record = |sol: &mut TransientSolution,
                      time: f64,
                      state: &[f64],
                      powers: &[f64],
                      fp: f64| {
            sol.times.push(time);
            for w in 0..n_wires {
                sol.wire_temperatures[w]
                    .push(layout.topology(w).average_temperature(state));
                sol.wire_powers[w].push(powers.get(w).copied().unwrap_or(0.0));
            }
            sol.field_power.push(fp);
        };
        let zero_powers = vec![0.0; n_wires];
        for (sol, state) in solutions.iter_mut().zip(&t_states) {
            record(sol, 0.0, state, &zero_powers, 0.0);
        }

        let mut predict = vec![false; k];
        let mut field_powers = vec![0.0; k];
        let mut step_linear = vec![0usize; k];

        for step in 1..=n_steps {
            for j in 0..k {
                predict[j] = self.sessions[j].begin_coupled(&t_states[j], Some(dt));
                step_linear[j] = 0;
            }
            let mut elec_done = false;
            let mut iterations = 0usize;
            let mut converged = false;
            let mut max_update = f64::INFINITY;
            for pk in 1..=options.picard_max_iter {
                iterations = pk;
                // Per-sample electrical assembly, then one fused block solve
                // over the k driven systems (the same multi-RHS machinery as
                // the thermal solve, with its own group-shared
                // preconditioner).
                if !elec_done || options.resolve_electrical_every_picard {
                    let mut driven = false;
                    for j in 0..k {
                        driven = self.sessions[j]
                            .assemble_electrical(&mut self.phis[j])
                            .map_err(|e| step_failed(step, dt, e))?;
                    }
                    elec_done = true;
                    if driven {
                        let n_e = self.sessions[0].x_red().len();
                        self.b_panel.ensure(n_e, k);
                        self.x_panel.ensure(n_e, k);
                        for j in 0..k {
                            let Some((_, b)) = self.sessions[j].electrical_assembled() else {
                                return Err(CoreError::InvalidModel(
                                    "batched electrical system not assembled".into(),
                                ));
                            };
                            self.b_panel.copy_col_from(j, b);
                            self.x_panel.copy_col_from(j, self.sessions[j].x_red());
                        }
                        {
                            let mut mats: Vec<&Csr> = Vec::with_capacity(k);
                            for sess in &self.sessions[..k] {
                                let Some((a, _)) = sess.electrical_assembled() else {
                                    return Err(CoreError::InvalidModel(
                                        "batched electrical system not assembled".into(),
                                    ));
                                };
                                mats.push(a);
                            }
                            let rebuilt = refresh_shared_precond(
                                &mut self.precond_elec,
                                &mut self.precond_elec_reuses,
                                &options,
                                mats[0],
                            )
                            .map_err(|e| step_failed(step, dt, e))?;
                            let Some(precond) = self.precond_elec.as_ref() else {
                                return Err(CoreError::InvalidModel(
                                    "batched electrical preconditioner missing after refresh"
                                        .into(),
                                ));
                            };
                            Csr::pack_batch_values(&mats, &mut self.packed);
                            let nnz = mats[0].values().len();
                            let op = CsrBatch::from_packed(mats[0], &self.packed[..nnz * k]);
                            block_pcg_with(
                                &op,
                                &self.b_panel,
                                &mut self.x_panel,
                                precond,
                                &options.linear,
                                &mut self.ws,
                                &mut self.reports,
                            )
                            .map_err(|e| step_failed(step, dt, CoreError::Numerics(e)))?;
                            let coarse =
                                self.precond_elec.as_ref().and_then(CachedPrecond::coarse_dim);
                            self.sessions[0].note_shared_precond(rebuilt, coarse);
                        }
                        for j in 0..k {
                            let report = self.reports[j];
                            if !report.converged {
                                return Err(step_failed(
                                    step,
                                    dt,
                                    CoreError::LinearSolveFailed {
                                        system: "electrical",
                                        iterations: report.iterations,
                                        residual: report.residual,
                                    },
                                ));
                            }
                            self.x_panel.copy_col_into(j, self.sessions[j].x_red_mut());
                            self.sessions[j].finish_electrical(&mut self.phis[j], report.iterations);
                            step_linear[j] += report.iterations;
                        }
                    }
                }
                // Per-sample scalar phase: heat sources and thermal assembly
                // + CG guess (left in the session's reduced-unknown scratch).
                for j in 0..k {
                    let sess = &mut self.sessions[j];
                    field_powers[j] = sess.heat_sources(&self.phis[j]);
                    sess.assemble_thermal(&t_states[j], Some(dt), predict[j] && pk == 1, step, pk)
                        .map_err(|e| step_failed(step, dt, e))?;
                }
                // Gather the panel: per-member RHS and initial guess.
                let n_red = self.sessions[0].x_red().len();
                self.b_panel.ensure(n_red, k);
                self.x_panel.ensure(n_red, k);
                for j in 0..k {
                    let Some((_, b)) = self.sessions[j].thermal_assembled() else {
                        return Err(CoreError::InvalidModel(
                            "batched thermal system not assembled".into(),
                        ));
                    };
                    self.b_panel.copy_col_from(j, b);
                    self.x_panel.copy_col_from(j, self.sessions[j].x_red());
                }
                // Step-increment transplant: iterate pk's guess gains the
                // increment the previous step's Picard took at the same
                // position. Group-local (worker-count independence holds),
                // and a guess never changes a converged answer.
                if step > 1 && pk > 1 {
                    let xs = self.x_panel.as_mut_slice();
                    for j in 0..k {
                        let (Some(cur), Some(prev)) =
                            (self.traj[j].get(pk - 1), self.traj[j].get(pk - 2))
                        else {
                            continue;
                        };
                        if cur.len() != n_red || prev.len() != n_red {
                            continue;
                        }
                        for i in 0..n_red {
                            xs[i * k + j] += cur[i] - prev[i];
                        }
                    }
                }
                // Fused block solve over the k same-pattern matrices.
                let rebuilt = {
                    let mut mats: Vec<&Csr> = Vec::with_capacity(k);
                    for s in &self.sessions[..k] {
                        let Some((a, _)) = s.thermal_assembled() else {
                            return Err(CoreError::InvalidModel(
                                "batched thermal system not assembled".into(),
                            ));
                        };
                        mats.push(a);
                    }
                    let rebuilt = refresh_shared_precond(
                        &mut self.precond,
                        &mut self.precond_reuses,
                        &options,
                        mats[0],
                    )
                    .map_err(|e| step_failed(step, dt, e))?;
                    let Some(precond) = self.precond.as_ref() else {
                        return Err(CoreError::InvalidModel(
                            "batched preconditioner missing after refresh".into(),
                        ));
                    };
                    Csr::pack_batch_values(&mats, &mut self.packed);
                    let nnz = mats[0].values().len();
                    let op = CsrBatch::from_packed(mats[0], &self.packed[..nnz * k]);
                    block_pcg_with(
                        &op,
                        &self.b_panel,
                        &mut self.x_panel,
                        precond,
                        &options.linear,
                        &mut self.ws,
                        &mut self.reports,
                    )
                    .map_err(|e| step_failed(step, dt, CoreError::Numerics(e)))?;
                    rebuilt
                };
                let coarse = self.precond.as_ref().and_then(CachedPrecond::coarse_dim);
                self.sessions[0].note_shared_precond(rebuilt, coarse);
                // Scatter, accept, and advance the Picard state per member.
                max_update = 0.0;
                for j in 0..k {
                    let report = self.reports[j];
                    if !report.converged {
                        return Err(step_failed(
                            step,
                            dt,
                            CoreError::LinearSolveFailed {
                                system: "thermal",
                                iterations: report.iterations,
                                residual: report.residual,
                            },
                        ));
                    }
                    let sess = &mut self.sessions[j];
                    self.x_panel.copy_col_into(j, sess.x_red_mut());
                    sess.note_block_thermal_solve(report.iterations);
                    step_linear[j] += report.iterations;
                    sess.accept_thermal(Some(dt), step);
                    max_update = max_update.max(sess.picard_update_and_swap());
                    // Record this iterate's reduced solution for the next
                    // step's transplant.
                    let t = &mut self.traj_next[j];
                    if t.len() < pk {
                        t.resize(pk, Vec::new());
                    }
                    let buf = &mut t[pk - 1];
                    buf.clear();
                    buf.resize(n_red, 0.0);
                    self.x_panel.copy_col_into(j, buf);
                }
                if max_update <= options.picard_tol {
                    converged = true;
                    break;
                }
            }
            for s in &mut self.sessions[..k] {
                s.note_picard(iterations);
            }
            if !converged && options.strict_picard {
                return Err(step_failed(
                    step,
                    dt,
                    CoreError::PicardNotConverged {
                        step,
                        update: max_update,
                    },
                ));
            }
            let time = dt * step as f64;
            for j in 0..k {
                self.sessions[j].record_step_history(&t_states[j], Some(dt));
                let state = self.sessions[j].t_star();
                record(
                    &mut solutions[j],
                    time,
                    state,
                    self.sessions[j].wire_powers_scratch(),
                    field_powers[j],
                );
                solutions[j].picard_iterations.push(iterations);
                solutions[j].linear_iterations += step_linear[j];
                t_states[j].clear();
                t_states[j].extend_from_slice(state);
            }
            std::mem::swap(&mut self.traj, &mut self.traj_next);
        }
        Ok(solutions)
    }
}

/// Wraps a solve error with step/time context like the scalar driver.
fn step_failed(step: usize, dt: f64, source: CoreError) -> CoreError {
    CoreError::StepFailed {
        step,
        time: dt * (step - 1) as f64,
        source: Box::new(source),
    }
}

/// The lazy refresh policy of the group-shared preconditioner: build on
/// first use, reuse up to `precond_max_reuses` solves, then refresh in
/// place over the frozen pattern. Returns whether a (re)build happened.
fn refresh_shared_precond(
    precond: &mut Option<CachedPrecond>,
    reuses: &mut usize,
    options: &SolverOptions,
    a0: &Csr,
) -> Result<bool, CoreError> {
    match precond {
        Some(_) if *reuses < options.precond_max_reuses => {
            *reuses += 1;
            Ok(false)
        }
        Some(p) => {
            p.refresh(a0).map_err(CoreError::Numerics)?;
            *reuses = 0;
            Ok(true)
        }
        None => {
            *precond = Some(
                CachedPrecond::build_kind(options.preconditioner, options, a0)
                    .map_err(CoreError::Numerics)?,
            );
            *reuses = 0;
            Ok(true)
        }
    }
}
