//! Linear solvers: preconditioned Krylov methods and a tridiagonal direct
//! solver.
//!
//! All discretized FIT systems in this project are symmetric positive
//! definite after Dirichlet elimination (Laplacian + diagonal Robin terms +
//! symmetric two-terminal wire stamps), so preconditioned conjugate gradients
//! is the only Krylov method: [`pcg`] for one right-hand side,
//! [`block_pcg_with`] for a panel of them, preconditioned by Jacobi,
//! incomplete Cholesky or [`AmgPrecond`]. [`solve_tridiagonal`] serves the 1D analytic wire
//! chains.

mod amg;
mod block_cg;
mod cg;
pub mod fault;
mod precond;
mod tridiag;
mod workspace;

pub use amg::{AmgOptions, AmgPrecond, AmgSmoother};
pub use block_cg::block_pcg_with;
pub use cg::{cg, pcg, pcg_with, CgOptions};
pub use fault::{Fault, FaultInjector, FaultKind, FaultPlan, FaultyLinOp};
pub use precond::{IdentityPrecond, IncompleteCholesky, JacobiPrecond, Preconditioner};
pub use tridiag::solve_tridiagonal;
pub use workspace::{BlockKrylovWorkspace, KrylovWorkspace};

/// Outcome of an iterative solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveReport {
    /// Whether the requested tolerance was reached.
    pub converged: bool,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final true residual norm `‖b − A x‖₂`.
    pub residual: f64,
    /// Residual norm `‖b − A x₀‖₂` of the initial guess.
    pub initial_residual: f64,
}

impl SolveReport {
    /// A zero-iteration report for trivially satisfied systems.
    pub fn trivial() -> Self {
        SolveReport {
            converged: true,
            iterations: 0,
            residual: 0.0,
            initial_residual: 0.0,
        }
    }

    /// Decades of residual reduction the solve achieved,
    /// `log₁₀(initial_residual / residual)`: `0` when no iteration ran,
    /// non-finite when either residual is zero.
    pub fn decades(&self) -> f64 {
        (self.initial_residual / self.residual).log10()
    }
}

impl std::fmt::Display for SolveReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} in {} iterations (residual {:.3e})",
            if self.converged {
                "converged"
            } else {
                "NOT converged"
            },
            self.iterations,
            self.residual
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_display() {
        let r = SolveReport {
            converged: true,
            iterations: 7,
            residual: 1e-11,
            initial_residual: 1e-2,
        };
        let s = r.to_string();
        assert!(s.contains("converged") && s.contains('7'));
        assert!(SolveReport::trivial().converged);
    }
}
