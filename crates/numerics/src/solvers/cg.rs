//! (Preconditioned) conjugate gradient method.

use super::precond::{IdentityPrecond, Preconditioner};
use super::workspace::KrylovWorkspace;
use super::SolveReport;
use crate::error::NumericsError;
use crate::sparse::LinOp;
use crate::vector;

/// Options controlling the conjugate gradient iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgOptions {
    /// Relative tolerance on `‖r‖₂ / ‖b‖₂`.
    pub tol_rel: f64,
    /// Absolute tolerance on `‖r‖₂` (guards the `b = 0` case).
    pub tol_abs: f64,
    /// Iteration cap; `0` means `10·n + 100`.
    pub max_iter: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tol_rel: 1e-10,
            tol_abs: 1e-30,
            max_iter: 0,
        }
    }
}

impl CgOptions {
    /// Options with a custom relative tolerance.
    pub fn with_tol(tol_rel: f64) -> Self {
        CgOptions {
            tol_rel,
            ..CgOptions::default()
        }
    }

    pub(super) fn cap(&self, n: usize) -> usize {
        if self.max_iter == 0 {
            10 * n + 100
        } else {
            self.max_iter
        }
    }
}

/// Solves the SPD system `A x = b` with plain conjugate gradients.
///
/// `x` holds the initial guess on entry (warm starting) and the solution on
/// exit.
///
/// # Errors
///
/// Returns [`NumericsError::Breakdown`] if the operator is detected to be
/// non-SPD (`pᵀAp ≤ 0`) or produces non-finite values, and
/// [`NumericsError::DimensionMismatch`] on inconsistent sizes. Hitting the
/// iteration cap is *not* an error: the report has `converged == false`.
pub fn cg<A: LinOp + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    options: &CgOptions,
) -> Result<SolveReport, NumericsError> {
    let id = IdentityPrecond::new(a.dim());
    pcg(a, b, x, &id, options)
}

/// Solves the SPD system `A x = b` with preconditioned conjugate gradients.
///
/// `x` holds the initial guess on entry (warm starting) and the solution on
/// exit. Convergence is declared when
/// `‖r‖₂ ≤ max(tol_rel · ‖b‖₂, tol_abs)`.
///
/// # Errors
///
/// See [`cg`].
pub fn pcg<A: LinOp + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    precond: &P,
    options: &CgOptions,
) -> Result<SolveReport, NumericsError> {
    pcg_with(a, b, x, precond, options, &mut KrylovWorkspace::new())
}

/// [`pcg`] with caller-owned scratch buffers.
///
/// Reusing the same [`KrylovWorkspace`] across solves makes the iteration
/// heap-allocation-free after the first call — the workhorse mode of the
/// transient simulator, which performs thousands of same-sized solves.
///
/// # Errors
///
/// See [`cg`].
pub fn pcg_with<A: LinOp + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    precond: &P,
    options: &CgOptions,
    ws: &mut KrylovWorkspace,
) -> Result<SolveReport, NumericsError> {
    let n = a.dim();
    if b.len() != n {
        return Err(NumericsError::DimensionMismatch {
            context: "pcg rhs",
            expected: n,
            found: b.len(),
        });
    }
    if x.len() != n {
        return Err(NumericsError::DimensionMismatch {
            context: "pcg initial guess",
            expected: n,
            found: x.len(),
        });
    }
    if precond.dim() != n {
        return Err(NumericsError::DimensionMismatch {
            context: "pcg preconditioner",
            expected: n,
            found: precond.dim(),
        });
    }
    if n == 0 {
        return Ok(SolveReport::trivial());
    }

    let norm_b = vector::norm2(b);
    if !norm_b.is_finite() {
        return Err(NumericsError::NonFinite {
            solver: "pcg",
            detail: "right-hand side",
        });
    }
    let target = (options.tol_rel * norm_b).max(options.tol_abs);

    ws.ensure(n);
    let r = &mut ws.r[..n];
    a.apply_into(x, r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut res_norm = vector::norm2(r);
    if !res_norm.is_finite() {
        return Err(NumericsError::NonFinite {
            solver: "pcg",
            detail: "initial residual",
        });
    }
    let initial_residual = res_norm;
    if res_norm <= target {
        return Ok(SolveReport {
            converged: true,
            iterations: 0,
            residual: res_norm,
            initial_residual,
        });
    }

    let z = &mut ws.z[..n];
    precond.apply(r, z);
    let p = &mut ws.p[..n];
    p.copy_from_slice(z);
    let mut rz = vector::dot(r, z);
    let ap = &mut ws.ap[..n];

    let max_iter = options.cap(n);
    for iter in 1..=max_iter {
        a.apply_into(p, ap);
        let pap = vector::dot(p, ap);
        if !pap.is_finite() {
            return Err(NumericsError::NonFinite {
                solver: "pcg",
                detail: "pᵀAp",
            });
        }
        if pap <= 0.0 {
            return Err(NumericsError::Breakdown {
                solver: "pcg",
                detail: "pᵀAp not positive: operator is not SPD",
            });
        }
        let alpha = rz / pap;
        vector::axpy(alpha, p, x);
        res_norm = vector::axpy_norm2(-alpha, ap, r);
        if !res_norm.is_finite() {
            return Err(NumericsError::NonFinite {
                solver: "pcg",
                detail: "residual",
            });
        }
        if res_norm <= target {
            return Ok(SolveReport {
                converged: true,
                iterations: iter,
                residual: res_norm,
                initial_residual,
            });
        }
        precond.apply(r, z);
        let rz_new = vector::dot(r, z);
        let beta = rz_new / rz;
        rz = rz_new;
        vector::xpby(z, beta, p);
    }

    Ok(SolveReport {
        converged: false,
        iterations: max_iter,
        residual: res_norm,
        initial_residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::{IncompleteCholesky, JacobiPrecond};
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

    fn check_solution(a: &Csr, b: &[f64], x: &[f64], tol: f64) {
        let mut r = vec![0.0; b.len()];
        a.residual(b, x, &mut r);
        assert!(
            vector::norm2(&r) <= tol * vector::norm2(b).max(1.0),
            "residual too large: {}",
            vector::norm2(&r)
        );
    }

    #[test]
    fn cg_solves_laplacian() {
        let n = 50;
        let a = lap1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let rep = cg(&a, &b, &mut x, &CgOptions::default()).unwrap();
        assert!(rep.converged, "{rep}");
        check_solution(&a, &b, &x, 1e-8);
    }

    #[test]
    fn pcg_with_all_preconditioners() {
        let n = 80;
        let a = lap1d(n);
        let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let opts = CgOptions::default();

        let mut x = vec![0.0; n];
        let jac = JacobiPrecond::new(&a).unwrap();
        let r1 = pcg(&a, &b, &mut x, &jac, &opts).unwrap();
        assert!(r1.converged);
        check_solution(&a, &b, &x, 1e-8);

        let mut x = vec![0.0; n];
        let ic = IncompleteCholesky::new(&a).unwrap();
        let r2 = pcg(&a, &b, &mut x, &ic, &opts).unwrap();
        assert!(r2.converged);
        check_solution(&a, &b, &x, 1e-8);
        // IC(0) is exact Cholesky for a tridiagonal matrix: 1-2 iterations.
        assert!(r2.iterations <= 2, "ic0 iterations: {}", r2.iterations);

        // Preconditioning should beat plain CG in iteration count.
        let mut x = vec![0.0; n];
        let r0 = cg(&a, &b, &mut x, &opts).unwrap();
        assert!(r2.iterations < r0.iterations);
    }

    #[test]
    fn exact_initial_guess_converges_immediately() {
        let n = 20;
        let a = lap1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        cg(&a, &b, &mut x, &CgOptions::default()).unwrap();
        let x_exact = x.clone();
        let rep = cg(&a, &b, &mut x, &CgOptions::with_tol(1e-8)).unwrap();
        assert!(rep.converged);
        assert!(rep.iterations <= 1);
        assert!(vector::max_abs_diff(&x, &x_exact) < 1e-8);
    }

    #[test]
    fn zero_rhs_returns_immediately_with_zero_guess() {
        let a = lap1d(5);
        let b = vec![0.0; 5];
        let mut x = vec![0.0; 5];
        let rep = cg(&a, &b, &mut x, &CgOptions::default()).unwrap();
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
    }

    #[test]
    fn non_spd_is_detected() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, -1.0);
        coo.push(1, 1, -1.0);
        let a = Csr::from_coo(&coo);
        let mut x = vec![0.0; 2];
        let e = cg(&a, &[1.0, 1.0], &mut x, &CgOptions::default());
        assert!(matches!(e, Err(NumericsError::Breakdown { .. })));
    }

    #[test]
    fn non_finite_input_is_detected() {
        let a = lap1d(4);
        let mut x = vec![0.0; 4];
        let e = cg(&a, &[1.0, f64::NAN, 1.0, 1.0], &mut x, &CgOptions::default());
        assert!(matches!(e, Err(NumericsError::NonFinite { .. })), "{e:?}");
        let mut x = vec![0.0, f64::INFINITY, 0.0, 0.0];
        let e = cg(&a, &[1.0; 4], &mut x, &CgOptions::default());
        assert!(matches!(e, Err(NumericsError::NonFinite { .. })), "{e:?}");
    }

    #[test]
    fn iteration_cap_reports_not_converged() {
        let n = 200;
        let a = lap1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let opts = CgOptions {
            max_iter: 3,
            ..CgOptions::default()
        };
        let rep = cg(&a, &b, &mut x, &opts).unwrap();
        assert!(!rep.converged);
        assert_eq!(rep.iterations, 3);
    }

    #[test]
    fn dimension_mismatch_errors() {
        let a = lap1d(4);
        let mut x = vec![0.0; 4];
        assert!(cg(&a, &[1.0; 3], &mut x, &CgOptions::default()).is_err());
        let mut x_bad = vec![0.0; 3];
        assert!(cg(&a, &[1.0; 4], &mut x_bad, &CgOptions::default()).is_err());
    }

    #[test]
    fn empty_system_is_trivial() {
        let a = Csr::identity(0);
        let mut x: Vec<f64> = vec![];
        let rep = cg(&a, &[], &mut x, &CgOptions::default()).unwrap();
        assert!(rep.converged);
    }
}
