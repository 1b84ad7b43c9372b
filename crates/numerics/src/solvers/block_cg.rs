//! Interleaved multi-vector (block multi-RHS) preconditioned conjugate
//! gradients.
//!
//! [`block_pcg_with`] runs `k` *independent* PCG iterations in lock-step over
//! a row-interleaved `n × k` panel: every iteration performs one fused
//! operator application with the `pᵀAp` dot folded into the traversal
//! ([`BlockLinOp::apply_block_dot_into`]), one fused
//! preconditioner application ([`Preconditioner::apply_block`]) and one
//! fused pass per vector recurrence (`α`, `β`, axpys, norms) — each touching
//! every panel row once at unit stride. The recurrences replicate the scalar
//! [`vector`](crate::vector) kernels per column (including the four-lane dot
//! accumulation), and the columns never couple, so column `j` reproduces the
//! scalar [`pcg_with`](super::pcg_with) iteration **bit for bit** — batching
//! is a pure memory-bandwidth optimization, not an algorithmic change.
//!
//! Columns that reach their tolerance are *deflated*: their convergence is
//! recorded, and they stop paying dot products and vector updates while the
//! panel keeps sharing matrix traversals (narrowing the panel would change
//! the memory layout mid-solve for little gain — the traversal is shared
//! anyway).

use super::cg::CgOptions;
use super::precond::Preconditioner;
use super::workspace::BlockKrylovWorkspace;
use super::SolveReport;
use crate::error::NumericsError;
use crate::multivec::{dot_columns, MultiVec};
use crate::sparse::BlockLinOp;

/// Masked per-column axpy over interleaved panels:
/// `y[i,c] += a[c]·x[i,c]` for every column with `active[c]`.
///
/// Each active column runs exactly [`crate::vector::axpy`]'s sequential
/// update order; inactive columns are untouched. The unmasked fast path
/// (all columns active) is branch-free in the inner loop.
fn axpy_columns(a: &[f64], x: &[f64], y: &mut [f64], k: usize, active: &[bool], n_active: usize) {
    if n_active == k {
        for (yrow, xrow) in y.chunks_exact_mut(k).zip(x.chunks_exact(k)) {
            for ((yv, xv), av) in yrow.iter_mut().zip(xrow).zip(a) {
                *yv += av * xv;
            }
        }
    } else {
        for (yrow, xrow) in y.chunks_exact_mut(k).zip(x.chunks_exact(k)) {
            for c in 0..k {
                if active[c] {
                    yrow[c] += a[c] * xrow[c];
                }
            }
        }
    }
}

/// Masked fused per-column `y ← a·x + y` with updated norms, over
/// interleaved panels: for every active column, `y[i,c] += a[c]·x[i,c]` and
/// `res[c] ← ‖y.col(c)‖₂` of the updated column.
///
/// Replicates [`crate::vector::axpy_norm2`] per column exactly (same lane
/// structure as [`dot_columns`], squares of the updated entries). Inactive
/// columns are untouched and their `res` entries are left as-is.
#[allow(clippy::too_many_arguments)]
fn axpy_norm2_columns(
    a: &[f64],
    x: &[f64],
    y: &mut [f64],
    n: usize,
    k: usize,
    active: &[bool],
    n_active: usize,
    lanes: &mut [f64],
    res: &mut [f64],
) {
    let lanes = &mut lanes[..5 * k];
    lanes.fill(0.0);
    let chunks = n / 4;
    let unmasked = n_active == k;
    for t in 0..chunks {
        let base = 4 * t * k;
        for l in 0..4 {
            let xrow = &x[base + l * k..base + (l + 1) * k];
            let yrow = &mut y[base + l * k..base + (l + 1) * k];
            let lane = &mut lanes[l * k..(l + 1) * k];
            if unmasked {
                for c in 0..k {
                    let v = yrow[c] + a[c] * xrow[c];
                    yrow[c] = v;
                    lane[c] += v * v;
                }
            } else {
                for c in 0..k {
                    if active[c] {
                        let v = yrow[c] + a[c] * xrow[c];
                        yrow[c] = v;
                        lane[c] += v * v;
                    }
                }
            }
        }
    }
    for i in 4 * chunks..n {
        let xrow = &x[i * k..(i + 1) * k];
        let yrow = &mut y[i * k..(i + 1) * k];
        let tail = &mut lanes[4 * k..5 * k];
        for c in 0..k {
            if active[c] {
                let v = yrow[c] + a[c] * xrow[c];
                yrow[c] = v;
                tail[c] += v * v;
            }
        }
    }
    for c in 0..k {
        if active[c] {
            res[c] = (lanes[c]
                + lanes[k + c]
                + lanes[2 * k + c]
                + lanes[3 * k + c]
                + lanes[4 * k + c])
                .sqrt();
        }
    }
}

/// Masked per-column `y ← x + b·y` (CG's direction recurrence) over
/// interleaved panels, for every column with `active[c]`; exactly
/// [`crate::vector::xpby`]'s sequential order per active column.
fn xpby_columns(x: &[f64], b: &[f64], y: &mut [f64], k: usize, active: &[bool], n_active: usize) {
    if n_active == k {
        for (yrow, xrow) in y.chunks_exact_mut(k).zip(x.chunks_exact(k)) {
            for ((yv, xv), bv) in yrow.iter_mut().zip(xrow).zip(b) {
                *yv = xv + bv * *yv;
            }
        }
    } else {
        for (yrow, xrow) in y.chunks_exact_mut(k).zip(x.chunks_exact(k)) {
            for c in 0..k {
                if active[c] {
                    yrow[c] = xrow[c] + b[c] * yrow[c];
                }
            }
        }
    }
}

/// Solves `k` SPD systems `A_j x_j = b_j` simultaneously with interleaved
/// preconditioned conjugate gradients.
///
/// `x` holds the initial guesses on entry (warm starting) and the solutions
/// on exit. `reports` is cleared and refilled with one [`SolveReport`] per
/// column; passing the same `Vec` (and workspace) across solves makes the
/// whole call heap-allocation-free after warm-up. Hitting the iteration cap
/// is *not* an error: affected columns report `converged == false`.
///
/// Column `j`'s iteration is bit-identical to the scalar
/// [`pcg_with`](super::pcg_with) on `(A_j, b_j)` — for `k = 1` the two
/// solvers produce the same bits — and results are independent of how the
/// columns are packed into the panel.
///
/// # Errors
///
/// Returns [`NumericsError::DimensionMismatch`] on inconsistent panel
/// shapes, [`NumericsError::Breakdown`] if any column detects a non-SPD
/// operator (`pᵀAp ≤ 0`), and [`NumericsError::NonFinite`] on NaN/Inf
/// contamination. An error aborts the whole panel (matching the scalar
/// solver's contract for each column).
///
/// # Example
///
/// Eight shifted unit loads against one matrix, solved in a single panel:
///
/// ```
/// use etherm_numerics::multivec::MultiVec;
/// use etherm_numerics::solvers::{
///     block_pcg_with, BlockKrylovWorkspace, CgOptions, JacobiPrecond,
/// };
/// use etherm_numerics::sparse::{Coo, Csr};
///
/// let n = 24;
/// let mut coo = Coo::new(n, n);
/// for i in 0..n {
///     coo.push(i, i, 2.0);
///     if i + 1 < n {
///         coo.push(i, i + 1, -1.0);
///         coo.push(i + 1, i, -1.0);
///     }
/// }
/// let a = Csr::from_coo(&coo);
/// let precond = JacobiPrecond::new(&a).unwrap();
///
/// let k = 8;
/// let mut b = MultiVec::zeros(n, k);
/// for j in 0..k {
///     b.set(2 * j, j, 1.0);
/// }
/// let mut x = MultiVec::zeros(n, k);
/// let mut ws = BlockKrylovWorkspace::new();
/// let mut reports = Vec::new();
/// block_pcg_with(&a, &b, &mut x, &precond, &CgOptions::default(), &mut ws, &mut reports)
///     .unwrap();
/// assert_eq!(reports.len(), k);
/// assert!(reports.iter().all(|r| r.converged));
/// ```
pub fn block_pcg_with<A: BlockLinOp + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    b: &MultiVec,
    x: &mut MultiVec,
    precond: &P,
    options: &CgOptions,
    ws: &mut BlockKrylovWorkspace,
    reports: &mut Vec<SolveReport>,
) -> Result<(), NumericsError> {
    let n = a.block_dim();
    let k = b.n_cols();
    if b.n_rows() != n {
        return Err(NumericsError::DimensionMismatch {
            context: "block-pcg rhs",
            expected: n,
            found: b.n_rows(),
        });
    }
    if x.n_rows() != n {
        return Err(NumericsError::DimensionMismatch {
            context: "block-pcg initial guess",
            expected: n,
            found: x.n_rows(),
        });
    }
    if x.n_cols() != k {
        return Err(NumericsError::DimensionMismatch {
            context: "block-pcg panel width",
            expected: k,
            found: x.n_cols(),
        });
    }
    if precond.dim() != n {
        return Err(NumericsError::DimensionMismatch {
            context: "block-pcg preconditioner",
            expected: n,
            found: precond.dim(),
        });
    }
    reports.clear();
    reports.resize(k, SolveReport::trivial());
    if k == 0 || n == 0 {
        return Ok(());
    }
    ws.ensure(n, k);

    // Per-column convergence targets from ‖b.col(j)‖₂ (one fused pass).
    dot_columns(b.as_slice(), b.as_slice(), n, k, &mut ws.lanes, &mut ws.pap);
    for j in 0..k {
        let norm_b = ws.pap[j].sqrt();
        if !norm_b.is_finite() {
            return Err(NumericsError::NonFinite {
                solver: "block-pcg",
                detail: "right-hand side",
            });
        }
        ws.target[j] = (options.tol_rel * norm_b).max(options.tol_abs);
    }

    // Initial residual panel R = B − A X.
    a.apply_block_into(x, &mut ws.r);
    for (ri, bi) in ws.r.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *ri = bi - *ri;
    }
    let rs = ws.r.as_slice();
    dot_columns(rs, rs, n, k, &mut ws.lanes, &mut ws.pap);
    let mut n_active = 0usize;
    for j in 0..k {
        let res = ws.pap[j].sqrt();
        if !res.is_finite() {
            return Err(NumericsError::NonFinite {
                solver: "block-pcg",
                detail: "initial residual",
            });
        }
        ws.res[j] = res;
        reports[j].initial_residual = res;
        if res <= ws.target[j] {
            ws.active[j] = false;
            reports[j].residual = res;
        } else {
            ws.active[j] = true;
            n_active += 1;
        }
    }
    if n_active == 0 {
        return Ok(());
    }

    precond.apply_block(&ws.r, &mut ws.z);
    ws.p.copy_panel_from(&ws.z);
    dot_columns(
        ws.r.as_slice(),
        ws.z.as_slice(),
        n,
        k,
        &mut ws.lanes,
        &mut ws.rz,
    );

    let cap = options.cap(n);
    for iter in 1..=cap {
        // One shared traversal advances the whole panel — deflated columns
        // ride along for free — and emits the per-column pᵀAp dots on the
        // way out (the serial packed kernel folds them into the traversal).
        a.apply_block_dot_into(&ws.p, &mut ws.ap, &mut ws.lanes, &mut ws.pap);
        for j in 0..k {
            if !ws.active[j] {
                continue;
            }
            let pap = ws.pap[j];
            if !pap.is_finite() {
                return Err(NumericsError::NonFinite {
                    solver: "block-pcg",
                    detail: "pᵀAp",
                });
            }
            if pap <= 0.0 {
                return Err(NumericsError::Breakdown {
                    solver: "block-pcg",
                    detail: "pᵀAp not positive: operator is not SPD",
                });
            }
            let alpha = ws.rz[j] / pap;
            ws.alpha[j] = alpha;
            ws.coef[j] = -alpha;
        }
        axpy_columns(
            &ws.alpha,
            ws.p.as_slice(),
            x.as_mut_slice(),
            k,
            &ws.active,
            n_active,
        );
        axpy_norm2_columns(
            &ws.coef,
            ws.ap.as_slice(),
            ws.r.as_mut_slice(),
            n,
            k,
            &ws.active,
            n_active,
            &mut ws.lanes,
            &mut ws.res,
        );
        for j in 0..k {
            if !ws.active[j] {
                continue;
            }
            let res = ws.res[j];
            if !res.is_finite() {
                return Err(NumericsError::NonFinite {
                    solver: "block-pcg",
                    detail: "residual",
                });
            }
            if res <= ws.target[j] {
                ws.active[j] = false;
                n_active -= 1;
                reports[j] = SolveReport {
                    converged: true,
                    iterations: iter,
                    residual: res,
                    ..reports[j]
                };
            }
        }
        if n_active == 0 {
            return Ok(());
        }
        precond.apply_block(&ws.r, &mut ws.z);
        dot_columns(
            ws.r.as_slice(),
            ws.z.as_slice(),
            n,
            k,
            &mut ws.lanes,
            &mut ws.pap,
        );
        for j in 0..k {
            if ws.active[j] {
                let rz_new = ws.pap[j];
                ws.coef[j] = rz_new / ws.rz[j];
                ws.rz[j] = rz_new;
            }
        }
        xpby_columns(
            ws.z.as_slice(),
            &ws.coef,
            ws.p.as_mut_slice(),
            k,
            &ws.active,
            n_active,
        );
    }
    for j in 0..k {
        if ws.active[j] {
            reports[j] = SolveReport {
                converged: false,
                iterations: cap,
                residual: ws.res[j],
                ..reports[j]
            };
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::precond::{IncompleteCholesky, JacobiPrecond};
    use crate::solvers::workspace::KrylovWorkspace;
    use crate::solvers::{pcg_with, AmgOptions, AmgPrecond};
    use crate::sparse::{Coo, Csr, CsrBatch};

    fn lap2d(nx: usize) -> Csr {
        let n = nx * nx;
        let mut coo = Coo::new(n, n);
        for i in 0..nx {
            for j in 0..nx {
                let p = i * nx + j;
                coo.push(p, p, 4.0);
                if i + 1 < nx {
                    coo.push(p, p + nx, -1.0);
                    coo.push(p + nx, p, -1.0);
                }
                if j + 1 < nx {
                    coo.push(p, p + 1, -1.0);
                    coo.push(p + 1, p, -1.0);
                }
            }
        }
        Csr::from_coo(&coo)
    }

    fn rhs_panel(n: usize, k: usize) -> MultiVec {
        let mut b = MultiVec::zeros(n, k);
        for j in 0..k {
            for i in 0..n {
                b.set(i, j, (((i * 17 + j * 31) % 29) as f64).sin() + 0.1);
            }
        }
        b
    }

    #[test]
    fn k1_is_bit_identical_to_scalar_pcg() {
        let a = lap2d(9);
        let n = a.n_rows();
        let b = rhs_panel(n, 1);
        let opts = CgOptions::default();
        // Scalar reference.
        let mut x_ref = vec![0.0; n];
        let mut kw = KrylovWorkspace::new();
        let jacobi = JacobiPrecond::new(&a).unwrap();
        let rep_ref = pcg_with(&a, &b.col_vec(0), &mut x_ref, &jacobi, &opts, &mut kw).unwrap();
        // Block path, k = 1.
        let mut x = MultiVec::zeros(n, 1);
        let mut ws = BlockKrylovWorkspace::new();
        let mut reports = Vec::new();
        block_pcg_with(&a, &b, &mut x, &jacobi, &opts, &mut ws, &mut reports).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].converged, rep_ref.converged);
        assert_eq!(reports[0].iterations, rep_ref.iterations);
        assert_eq!(reports[0].residual.to_bits(), rep_ref.residual.to_bits());
        assert_eq!(x.col_vec(0), x_ref);
    }

    #[test]
    fn reports_carry_the_scalar_initial_residual() {
        let a = lap2d(8);
        let n = a.n_rows();
        let b = rhs_panel(n, 2);
        let opts = CgOptions::default();
        let jacobi = JacobiPrecond::new(&a).unwrap();
        // Column 1 starts at its own solution: no iteration, no reduction.
        let mut x = MultiVec::zeros(n, 2);
        let mut solved = vec![0.0; n];
        pcg_with(&a, &b.col_vec(1), &mut solved, &jacobi, &opts, &mut KrylovWorkspace::new())
            .unwrap();
        x.copy_col_from(1, &solved);
        let mut reports = Vec::new();
        let mut ws = BlockKrylovWorkspace::new();
        block_pcg_with(&a, &b, &mut x, &jacobi, &opts, &mut ws, &mut reports).unwrap();
        for (j, guess) in [vec![0.0; n], solved].into_iter().enumerate() {
            let mut x_ref = guess;
            let mut kw = KrylovWorkspace::new();
            let rep = pcg_with(&a, &b.col_vec(j), &mut x_ref, &jacobi, &opts, &mut kw).unwrap();
            assert_eq!(reports[j].initial_residual.to_bits(), rep.initial_residual.to_bits());
        }
        assert!(reports[0].decades() >= 9.0, "{}", reports[0].decades());
        assert_eq!(reports[1].iterations, 0);
        assert_eq!(reports[1].decades(), 0.0);
    }

    #[test]
    fn every_column_matches_its_scalar_solve_bitwise() {
        // Packing-order independence falls out of this: each column equals
        // the scalar solve of its own (b, precond) pair regardless of where
        // it sits in the panel.
        let a = lap2d(8);
        let n = a.n_rows();
        let opts = CgOptions::default();
        let ic = IncompleteCholesky::with_fill(&a, 1).unwrap();
        let amg = AmgPrecond::new(&a, AmgOptions::default()).unwrap();
        let ps: [&dyn Preconditioner; 2] = [&ic, &amg];
        for (pi, p) in ps.iter().enumerate() {
            for k in [2usize, 5] {
                let b = rhs_panel(n, k);
                let mut x = MultiVec::zeros(n, k);
                let mut ws = BlockKrylovWorkspace::new();
                let mut reports = Vec::new();
                block_pcg_with(&a, &b, &mut x, *p, &opts, &mut ws, &mut reports).unwrap();
                for j in 0..k {
                    let mut x_ref = vec![0.0; n];
                    let mut kw = KrylovWorkspace::new();
                    let rep = pcg_with(&a, &b.col_vec(j), &mut x_ref, *p, &opts, &mut kw).unwrap();
                    assert!(rep.converged);
                    assert_eq!(
                        x.col_vec(j),
                        x_ref,
                        "precond {pi}, k = {k}, column {j} diverged from scalar"
                    );
                    assert_eq!(reports[j].iterations, rep.iterations);
                }
            }
        }
    }

    #[test]
    fn csr_batch_columns_match_per_matrix_scalar_solves() {
        let base = lap2d(7);
        let n = base.n_rows();
        let mats_owned: Vec<Csr> = (0..4)
            .map(|j| {
                let mut m = base.clone();
                m.scale(1.0 + 0.1 * j as f64);
                m
            })
            .collect();
        let mats: Vec<&Csr> = mats_owned.iter().collect();
        let batch = CsrBatch::new(mats.clone());
        // Shared preconditioner built from the first matrix: legitimate for
        // CG (affects iteration counts, not converged answers), and exactly
        // what the ensemble fast path does.
        let jacobi = JacobiPrecond::new(mats[0]).unwrap();
        let opts = CgOptions::default();
        let b = rhs_panel(n, 4);
        let mut x = MultiVec::zeros(n, 4);
        let mut ws = BlockKrylovWorkspace::new();
        let mut reports = Vec::new();
        block_pcg_with(&batch, &b, &mut x, &jacobi, &opts, &mut ws, &mut reports).unwrap();
        for j in 0..4 {
            assert!(reports[j].converged);
            let mut x_ref = vec![0.0; n];
            let mut kw = KrylovWorkspace::new();
            pcg_with(mats[j], &b.col_vec(j), &mut x_ref, &jacobi, &opts, &mut kw).unwrap();
            assert_eq!(x.col_vec(j), x_ref, "column {j}");
        }
    }

    #[test]
    fn deflation_converges_columns_independently() {
        let a = lap2d(6);
        let n = a.n_rows();
        let jacobi = JacobiPrecond::new(&a).unwrap();
        let opts = CgOptions::default();
        // Column 0 starts at the exact solution (0 iterations); column 1
        // needs real work — deflation must keep them independent.
        let mut b = rhs_panel(n, 2);
        b.copy_col_from(0, &vec![0.0; n]);
        let mut x = MultiVec::zeros(n, 2);
        let mut ws = BlockKrylovWorkspace::new();
        let mut reports = Vec::new();
        block_pcg_with(&a, &b, &mut x, &jacobi, &opts, &mut ws, &mut reports).unwrap();
        assert!(reports[0].converged);
        assert_eq!(reports[0].iterations, 0);
        assert!(reports[1].converged);
        assert!(reports[1].iterations > 0);
        assert_eq!(x.col_vec(0), vec![0.0; n]);
    }

    #[test]
    fn iteration_cap_reports_unconverged_columns() {
        let a = lap2d(8);
        let n = a.n_rows();
        let jacobi = JacobiPrecond::new(&a).unwrap();
        let opts = CgOptions {
            max_iter: 2,
            ..CgOptions::default()
        };
        let b = rhs_panel(n, 3);
        let mut x = MultiVec::zeros(n, 3);
        let mut ws = BlockKrylovWorkspace::new();
        let mut reports = Vec::new();
        block_pcg_with(&a, &b, &mut x, &jacobi, &opts, &mut ws, &mut reports).unwrap();
        for r in &reports {
            assert!(!r.converged);
            assert_eq!(r.iterations, 2);
            assert!(r.residual > 0.0);
        }
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let a = lap2d(4);
        let n = a.n_rows();
        let jacobi = JacobiPrecond::new(&a).unwrap();
        let opts = CgOptions::default();
        let mut ws = BlockKrylovWorkspace::new();
        let mut reports = Vec::new();
        // Wrong rhs rows.
        let b_bad = MultiVec::zeros(n + 1, 2);
        let mut x = MultiVec::zeros(n, 2);
        assert!(block_pcg_with(&a, &b_bad, &mut x, &jacobi, &opts, &mut ws, &mut reports).is_err());
        // Wrong panel width.
        let b = MultiVec::zeros(n, 2);
        let mut x_bad = MultiVec::zeros(n, 3);
        assert!(block_pcg_with(&a, &b, &mut x_bad, &jacobi, &opts, &mut ws, &mut reports).is_err());
        // Empty panel is trivially fine.
        let b0 = MultiVec::zeros(n, 0);
        let mut x0 = MultiVec::zeros(n, 0);
        block_pcg_with(&a, &b0, &mut x0, &jacobi, &opts, &mut ws, &mut reports).unwrap();
        assert!(reports.is_empty());
    }
}
