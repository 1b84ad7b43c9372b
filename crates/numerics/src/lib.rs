//! Dense and sparse linear algebra plus linear/nonlinear solver kernels for the
//! `etherm` electrothermal simulator.
//!
//! The Rust PDE/FEM ecosystem offers no lightweight, dependency-free sparse
//! solver stack, so everything here is handwritten:
//!
//! * [`vector`] — BLAS-1 style operations on `&[f64]` slices,
//! * [`dense`] — small dense matrices with LU and Cholesky factorizations,
//! * [`sparse`] — COO assembly and CSR storage with matrix-vector kernels,
//! * [`multivec`] — column-major `n × k` panels and fused multi-RHS kernels
//!   for the batched (block) Krylov path,
//! * [`solvers`] — CG/PCG and block CG with Jacobi, incomplete Cholesky
//!   and smoothed-aggregation AMG preconditioners, and a Thomas
//!   tridiagonal solver.
//!
//! # Example
//!
//! Solve a small SPD system with preconditioned CG:
//!
//! ```
//! use etherm_numerics::sparse::{Coo, Csr};
//! use etherm_numerics::solvers::{pcg, IncompleteCholesky, CgOptions};
//!
//! // 1D Laplacian with Dirichlet ends: tridiag(-1, 2, -1).
//! let n = 16;
//! let mut coo = Coo::new(n, n);
//! for i in 0..n {
//!     coo.push(i, i, 2.0);
//!     if i + 1 < n {
//!         coo.push(i, i + 1, -1.0);
//!         coo.push(i + 1, i, -1.0);
//!     }
//! }
//! let a = Csr::from_coo(&coo);
//! let b = vec![1.0; n];
//! let precond = IncompleteCholesky::new(&a).unwrap();
//! let mut x = vec![0.0; n];
//! let report = pcg(&a, &b, &mut x, &precond, &CgOptions::default()).unwrap();
//! assert!(report.converged);
//! ```

#![forbid(unsafe_code)]

pub mod dense;
pub mod error;
pub mod interp;
pub mod multivec;
pub mod quadrature;
pub mod solvers;
pub mod sparse;
pub mod vector;

pub use error::NumericsError;
pub use multivec::MultiVec;
pub use sparse::{BlockLinOp, Coo, Csr, CsrBatch, LinOp};
