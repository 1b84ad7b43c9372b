//! Sparse matrix storage: COO assembly format and CSR compute format.
//!
//! The FIT assembly path is: stamp entries into a [`Coo`] (duplicates allowed,
//! they are summed), compress once into a [`Csr`], then hand the CSR to the
//! Krylov solvers in [`crate::solvers`]. The [`LinOp`] trait abstracts over
//! "things that can be applied to a vector" so solvers also accept composite
//! operators (e.g. matrix plus rank-one wire updates) without materializing
//! them.

mod coo;
mod csr;

pub use coo::Coo;
pub use csr::Csr;

use crate::multivec::{dot_columns, MultiVec};

/// An abstract linear operator `y = A x` on ℝⁿ.
///
/// Implemented by [`Csr`] and by composite operators in higher layers. All
/// Krylov solvers in [`crate::solvers`] are written against this trait.
pub trait LinOp {
    /// Dimension `n` of the (square) operator.
    fn dim(&self) -> usize;

    /// Computes `y ← A x`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len()` or `y.len()` differ from
    /// [`LinOp::dim`].
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// Explicit in-place application `y ← A x` into a caller-owned buffer.
    ///
    /// The default forwards to [`LinOp::apply`]; operators that can exploit
    /// the destination (e.g. fused composite updates) may override it. The
    /// Krylov hot path calls this entry point exclusively, so overriding it
    /// is sufficient to keep a composite operator allocation-free.
    #[inline]
    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.apply(x, y);
    }

    /// Computes `y.col(j) ← A x.col(j)` for every column of the panel.
    ///
    /// The default loops [`LinOp::apply_into`] over the columns, staging
    /// each one through freshly allocated contiguous buffers (the panel is
    /// row-interleaved); operators with a fused multi-RHS kernel override it
    /// ([`Csr`] uses [`Csr::spmm_into`]) so one matrix traversal advances
    /// all `k` right-hand sides — and stays allocation-free. Overrides must
    /// keep each column bit-identical to the scalar [`LinOp::apply_into`].
    ///
    /// # Panics
    ///
    /// Implementations may panic if the panel row counts differ from
    /// [`LinOp::dim`] or the panel widths differ from each other.
    fn apply_block_into(&self, x: &MultiVec, y: &mut MultiVec) {
        assert_eq!(x.n_cols(), y.n_cols(), "apply_block: panel widths");
        let mut xc = vec![0.0; x.n_rows()];
        let mut yc = vec![0.0; y.n_rows()];
        for j in 0..x.n_cols() {
            x.copy_col_into(j, &mut xc);
            self.apply_into(&xc, &mut yc);
            y.copy_col_from(j, &yc);
        }
    }
}

/// An abstract block operator on `n × k` panels: `Y = op(X)` column-wise.
///
/// The block Krylov solvers are written against this trait. Every [`LinOp`]
/// is a `BlockLinOp` through a blanket impl (applying the same operator to
/// each column); operators that apply a *different* matrix per column — the
/// ensemble case, [`CsrBatch`] — implement it directly.
pub trait BlockLinOp {
    /// Dimension `n` of the (square) operator. (Named distinctly from
    /// [`LinOp::dim`] so the blanket impl never makes `dim()` calls
    /// ambiguous when both traits are in scope.)
    fn block_dim(&self) -> usize;

    /// Computes `y.col(j) ← A_j x.col(j)` for every column of the panel.
    ///
    /// # Panics
    ///
    /// Implementations may panic on shape mismatch.
    fn apply_block_into(&self, x: &MultiVec, y: &mut MultiVec);

    /// Computes `y ← op(x)` *and* the per-column dots
    /// `out[c] = Σᵢ x[i,c]·y[i,c]` (the block CG's `pᵀAp`) in one step.
    ///
    /// The default performs the apply followed by a separate fused dot pass.
    /// Operators whose traversal emits output rows in order ([`CsrBatch`])
    /// override it to accumulate the dot inside the traversal — saving one
    /// full read of both panels per Krylov iteration — while keeping the
    /// exact four-lane reduction order, so the result is always
    /// bit-identical to the default. `lanes` is scratch of length
    /// `≥ 5k`.
    ///
    /// # Panics
    ///
    /// Implementations may panic on shape mismatch or undersized scratch.
    fn apply_block_dot_into(
        &self,
        x: &MultiVec,
        y: &mut MultiVec,
        lanes: &mut [f64],
        out: &mut [f64],
    ) {
        self.apply_block_into(x, y);
        dot_columns(
            x.as_slice(),
            y.as_slice(),
            x.n_rows(),
            x.n_cols(),
            lanes,
            out,
        );
    }
}

impl<T: LinOp + ?Sized> BlockLinOp for T {
    fn block_dim(&self) -> usize {
        LinOp::dim(self)
    }

    fn apply_block_into(&self, x: &MultiVec, y: &mut MultiVec) {
        LinOp::apply_block_into(self, x, y);
    }
}

/// A [`BlockLinOp`] over `k` same-pattern CSR matrices: column `j` of the
/// panel is advanced by matrix `j` of the batch.
///
/// This is the ensemble fast path — `k` value-filled matrices over one
/// frozen assembly pattern share every row traversal. The per-matrix values
/// are held *packed*: stored entry `t` of the whole batch is the contiguous
/// row `vals[t·k .. (t+1)·k]` ([`Csr::pack_batch_values`]), so the apply
/// ([`Csr::spmm_packed_into`]) advances at unit stride instead of gathering
/// from `k` separate value arrays. Each column's floating-point operation
/// order is exactly `mats[j].spmv`, so results are bit-identical to `k`
/// independent scalar solves.
///
/// [`CsrBatch::new`] packs into an owned buffer (one allocation);
/// [`CsrBatch::from_packed`] borrows a caller-cached buffer so repeated
/// solves stay heap-allocation-free after warm-up.
#[derive(Debug, Clone)]
pub struct CsrBatch<'a> {
    pattern: &'a Csr,
    vals: std::borrow::Cow<'a, [f64]>,
    k: usize,
}

impl<'a> CsrBatch<'a> {
    /// Packs `mats` (one per panel column) into an owned interleaved value
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `mats` is empty, any matrix is non-square, or the sparsity
    /// patterns differ (validated once here so the per-apply kernels only
    /// need debug assertions).
    pub fn new(mats: Vec<&'a Csr>) -> Self {
        let first = *mats.first().expect("CsrBatch: empty batch");
        assert_eq!(first.n_rows(), first.n_cols(), "CsrBatch: square matrices");
        assert!(
            mats.iter().all(|m| m.same_pattern(first)),
            "CsrBatch: sparsity patterns differ"
        );
        let mut buf = Vec::new();
        Csr::pack_batch_values(&mats, &mut buf);
        buf.truncate(first.nnz() * mats.len());
        CsrBatch {
            pattern: first,
            vals: std::borrow::Cow::Owned(buf),
            k: mats.len(),
        }
    }

    /// Wraps a caller-packed value buffer (layout of
    /// [`Csr::pack_batch_values`]; `pattern`'s own values are ignored). The
    /// panel width is `vals.len() / pattern.nnz()`. This is the
    /// allocation-free constructor for hot loops that cache the packing
    /// buffer across solves.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is non-square or `vals.len()` is zero or not a
    /// multiple of `pattern.nnz()`.
    pub fn from_packed(pattern: &'a Csr, vals: &'a [f64]) -> Self {
        assert_eq!(
            pattern.n_rows(),
            pattern.n_cols(),
            "CsrBatch: square matrices"
        );
        let nnz = pattern.nnz();
        assert!(
            !vals.is_empty() && nnz > 0 && vals.len().is_multiple_of(nnz),
            "CsrBatch: packed length {} is not a positive multiple of nnz {}",
            vals.len(),
            nnz
        );
        CsrBatch {
            pattern,
            vals: std::borrow::Cow::Borrowed(vals),
            k: vals.len() / nnz,
        }
    }

    /// The panel width `k` (number of matrices).
    pub fn width(&self) -> usize {
        self.k
    }
}

impl BlockLinOp for CsrBatch<'_> {
    fn block_dim(&self) -> usize {
        self.pattern.n_rows()
    }

    fn apply_block_into(&self, x: &MultiVec, y: &mut MultiVec) {
        self.pattern.spmm_packed_into(&self.vals, x, y);
    }

    fn apply_block_dot_into(
        &self,
        x: &MultiVec,
        y: &mut MultiVec,
        lanes: &mut [f64],
        out: &mut [f64],
    ) {
        self.pattern
            .spmm_packed_dot_into(&self.vals, x, y, lanes, out);
    }
}

/// A [`LinOp`] that adds a diagonal to a base operator: `(A + diag(d)) x`.
///
/// Used for implicit-Euler systems `(M/Δt + K)` without copying `K`.
#[derive(Debug, Clone)]
pub struct DiagShifted<'a, A: LinOp> {
    base: &'a A,
    diag: &'a [f64],
}

impl<'a, A: LinOp> DiagShifted<'a, A> {
    /// Wraps `base` with an additive diagonal `diag`.
    ///
    /// # Panics
    ///
    /// Panics if `diag.len() != base.dim()`.
    pub fn new(base: &'a A, diag: &'a [f64]) -> Self {
        assert_eq!(diag.len(), base.dim(), "DiagShifted: diagonal length");
        DiagShifted { base, diag }
    }
}

impl<'a, A: LinOp> LinOp for DiagShifted<'a, A> {
    fn dim(&self) -> usize {
        self.base.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.base.apply(x, y);
        for i in 0..x.len() {
            y[i] += self.diag[i] * x[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diag_shifted_applies_shift() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        let a = Csr::from_coo(&coo);
        let d = [10.0, 20.0];
        let op = DiagShifted::new(&a, &d);
        assert_eq!(op.dim(), 2);
        let mut y = [0.0; 2];
        op.apply(&[1.0, 1.0], &mut y);
        assert_eq!(y, [11.0, 21.0]);
    }
}
