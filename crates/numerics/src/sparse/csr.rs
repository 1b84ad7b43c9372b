//! Compressed sparse row storage and kernels.

use super::{Coo, LinOp};
use crate::dense::DenseMatrix;
use crate::multivec::MultiVec;

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// Column indices within each row are sorted and unique. Built from a
/// [`Coo`] with [`Csr::from_coo`] (duplicates summed), this is the compute
/// format for all matrix-vector products and preconditioners.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl Csr {
    /// Compresses a COO matrix, summing duplicate entries.
    ///
    /// Entries whose duplicates sum exactly to zero are kept (with value 0)
    /// so that stamping patterns remain stable across reassembly.
    ///
    /// Duplicates are summed in *insertion order* (the row bucketing and the
    /// per-row column sort are both stable), so the result is bit-identical
    /// to scattering the same triplet sequence into the compressed pattern
    /// with `values[slot] += v` — the contract the pattern-reusing
    /// `CachedStamper` relies on for refill ≡ first-assembly equivalence.
    pub fn from_coo(coo: &Coo) -> Self {
        let (rows, cols, vals) = coo.triplets();
        let n_rows = coo.n_rows();
        let n_cols = coo.n_cols();
        // Counting sort by row.
        let mut counts = vec![0usize; n_rows + 1];
        for &r in rows {
            counts[r + 1] += 1;
        }
        for i in 0..n_rows {
            counts[i + 1] += counts[i];
        }
        let mut sorted: Vec<(usize, f64)> = vec![(0, 0.0); vals.len()];
        {
            let mut next = counts.clone();
            for k in 0..vals.len() {
                let slot = next[rows[k]];
                sorted[slot] = (cols[k], vals[k]);
                next[rows[k]] += 1;
            }
        }
        // Sort each row by column and merge duplicates.
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        let mut col_idx = Vec::with_capacity(vals.len());
        let mut values = Vec::with_capacity(vals.len());
        row_ptr.push(0);
        for r in 0..n_rows {
            let seg = &mut sorted[counts[r]..counts[r + 1]];
            // Stable: equal columns keep insertion order (see doc contract).
            seg.sort_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < seg.len() {
                let c = seg[i].0;
                let mut v = seg[i].1;
                let mut j = i + 1;
                while j < seg.len() && seg[j].0 == c {
                    v += seg[j].1;
                    j += 1;
                }
                col_idx.push(c);
                values.push(v);
                i = j;
            }
            row_ptr.push(col_idx.len());
        }
        Csr {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Csr {
            n_rows: n,
            n_cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds a diagonal matrix from `diag` (zeros kept as explicit entries).
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        Csr {
            n_rows: n,
            n_cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: diag.to_vec(),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column indices and values of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Value at `(i, j)`, zero if not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Mutable reference to a *stored* entry at `(i, j)`.
    ///
    /// Returns `None` if the entry is not part of the sparsity pattern.
    pub fn get_mut(&mut self, i: usize, j: usize) -> Option<&mut f64> {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(k) => Some(&mut self.values[lo + k]),
            Err(_) => None,
        }
    }

    /// Column indices and mutable values of row `i` — the split borrow lets
    /// callers scatter new values into a frozen pattern while iterating its
    /// columns (the AMG Galerkin products refresh whole rows this way).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> (&[usize], &mut [f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &mut self.values[lo..hi])
    }

    /// Sparse matrix-vector product `y ← A x`.
    ///
    /// The slice-based inner loop lets the compiler hoist the bounds checks
    /// on the index/value arrays out of the hot loop.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "spmv: x length");
        assert_eq!(y.len(), self.n_rows, "spmv: y length");
        let mut lo = self.row_ptr[0];
        for (i, yi) in y.iter_mut().enumerate() {
            let hi = self.row_ptr[i + 1];
            let mut s = 0.0;
            for (&c, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                s += v * x[c];
            }
            *yi = s;
            lo = hi;
        }
    }

    /// Fused multi-RHS product `Y ← A X` over row-interleaved panels.
    ///
    /// Each CSR row is read **once** for the whole panel: entry `(i, j)`
    /// loads the contiguous `k`-wide operand row `x.row(j)` and advances all
    /// `k` columns of `y.row(i)` — the memory-bandwidth fusion that makes
    /// batched Krylov pay off. The per-column floating-point operation order
    /// is exactly that of [`Csr::spmv`] (row by row, stored entries in
    /// order, one accumulator), so column `j` of the result is bit-identical
    /// to `spmv(x.col(j))` regardless of the panel width or packing order.
    ///
    /// Allocation-free for any `k`.
    ///
    /// # Panics
    ///
    /// Panics on row/width mismatch between `x`, `y` and the matrix.
    pub fn spmm_into(&self, x: &MultiVec, y: &mut MultiVec) {
        assert_eq!(x.n_rows(), self.n_cols, "spmm: x rows");
        assert_eq!(y.n_rows(), self.n_rows, "spmm: y rows");
        assert_eq!(x.n_cols(), y.n_cols(), "spmm: panel widths");
        let k = x.n_cols();
        if k == 0 {
            return;
        }
        let xs = x.as_slice();
        let mut lo = self.row_ptr[0];
        for (i, yrow) in y.as_mut_slice().chunks_exact_mut(k).enumerate() {
            let hi = self.row_ptr[i + 1];
            yrow.fill(0.0);
            for (&c, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                let xrow = &xs[c * k..c * k + k];
                for (yv, xv) in yrow.iter_mut().zip(xrow) {
                    *yv += v * xv;
                }
            }
            lo = hi;
        }
    }

    /// Packs the values of `k` same-pattern matrices into one interleaved
    /// buffer: `buf[t·k + c] = mats[c].values()[t]`. This is the value
    /// layout of [`Csr::spmm_packed_into`] / [`CsrBatch`](super::CsrBatch):
    /// stored entry `t` of the whole batch is one contiguous `k`-wide row,
    /// so the distinct-matrices product runs at the fused shared-matrix
    /// kernel's stride instead of gathering from `k` separate value arrays.
    ///
    /// `buf` is grown on demand and never shrunk (only the first `nnz·k`
    /// entries are written): a caller-cached buffer makes repacking across
    /// same-shaped solves heap-allocation-free after warm-up.
    ///
    /// # Panics
    ///
    /// Panics if `mats` is empty or (debug only) the patterns differ.
    pub fn pack_batch_values(mats: &[&Csr], buf: &mut Vec<f64>) {
        let first = *mats.first().expect("pack_batch_values: empty batch");
        debug_assert!(
            mats.iter().all(|m| m.same_pattern(first)),
            "pack_batch_values: sparsity patterns differ"
        );
        let k = mats.len();
        let need = first.nnz() * k;
        if buf.len() < need {
            buf.resize(need, 0.0);
        }
        // Entry-outer order: each write row is contiguous and every matrix's
        // value array is read as one sequential stream.
        for (t, row) in buf[..need].chunks_exact_mut(k).enumerate() {
            for (pv, m) in row.iter_mut().zip(mats) {
                *pv = m.values[t];
            }
        }
    }

    /// Batched same-pattern product over pre-packed values:
    /// `y.col(c) ← A_c · x.col(c)` where `A_c` shares this matrix's pattern
    /// and has values `packed[t·k + c]` (see [`Csr::pack_batch_values`]).
    ///
    /// This matrix provides only the pattern; its own values are ignored.
    /// Each stored entry loads one contiguous value row and one contiguous
    /// operand row, so the whole batch advances at unit stride. Column `c`
    /// sees exactly the floating-point operation order of `A_c.spmv`, so the
    /// result is bit-identical per column.
    ///
    /// # Panics
    ///
    /// Panics on dimension/width mismatch or if `packed.len() != nnz·k`.
    pub fn spmm_packed_into(&self, packed: &[f64], x: &MultiVec, y: &mut MultiVec) {
        assert_eq!(x.n_rows(), self.n_cols, "spmm_packed: x rows");
        assert_eq!(y.n_rows(), self.n_rows, "spmm_packed: y rows");
        assert_eq!(x.n_cols(), y.n_cols(), "spmm_packed: panel widths");
        let k = x.n_cols();
        if k == 0 {
            return;
        }
        assert_eq!(packed.len(), self.nnz() * k, "spmm_packed: values length");
        let xs = x.as_slice();
        let mut lo = self.row_ptr[0];
        for (i, yrow) in y.as_mut_slice().chunks_exact_mut(k).enumerate() {
            let hi = self.row_ptr[i + 1];
            yrow.fill(0.0);
            for t in lo..hi {
                let c = self.col_idx[t];
                let vrow = &packed[t * k..t * k + k];
                let xrow = &xs[c * k..c * k + k];
                for ((yv, vv), xv) in yrow.iter_mut().zip(vrow).zip(xrow) {
                    *yv += vv * xv;
                }
            }
            lo = hi;
        }
    }

    /// Fused variant of [`Csr::spmm_packed_into`] that also emits the
    /// per-column dots `out[c] = Σᵢ x[i,c]·y[i,c]` of the operand against
    /// the freshly computed product (the block CG's `pᵀAp`).
    ///
    /// The traversal produces output rows in order `i = 0..n`, so the dot
    /// accumulates with exactly the four-lane order of the standalone
    /// reduction (lane `i mod 4` for the first `4·⌊n/4⌋` rows, then the
    /// tail lane, left-associated lane sum): the fusion saves one full read
    /// of both panels per Krylov iteration without changing a single bit.
    /// `lanes` is scratch of length `≥ 5k`.
    ///
    /// # Panics
    ///
    /// As [`Csr::spmm_packed_into`]; additionally panics if `lanes` or
    /// `out` are undersized.
    pub fn spmm_packed_dot_into(
        &self,
        packed: &[f64],
        x: &MultiVec,
        y: &mut MultiVec,
        lanes: &mut [f64],
        out: &mut [f64],
    ) {
        assert_eq!(x.n_rows(), self.n_cols, "spmm_packed: x rows");
        assert_eq!(y.n_rows(), self.n_rows, "spmm_packed: y rows");
        assert_eq!(x.n_cols(), y.n_cols(), "spmm_packed: panel widths");
        let k = x.n_cols();
        if k == 0 {
            return;
        }
        assert_eq!(packed.len(), self.nnz() * k, "spmm_packed: values length");
        assert!(out.len() >= k, "spmm_packed_dot: out length");
        let lanes = &mut lanes[..5 * k];
        lanes.fill(0.0);
        let n = self.n_rows;
        let full = 4 * (n / 4);
        let xs = x.as_slice();
        let ys = y.as_mut_slice();
        let mut lo = self.row_ptr[0];
        for (i, yrow) in ys.chunks_exact_mut(k).enumerate() {
            let hi = self.row_ptr[i + 1];
            yrow.fill(0.0);
            for t in lo..hi {
                let c = self.col_idx[t];
                let vrow = &packed[t * k..t * k + k];
                let xrow = &xs[c * k..c * k + k];
                for ((yv, vv), xv) in yrow.iter_mut().zip(vrow).zip(xrow) {
                    *yv += vv * xv;
                }
            }
            lo = hi;
            let l = if i < full { i % 4 } else { 4 };
            let lane = &mut lanes[l * k..(l + 1) * k];
            let xrow = &xs[i * k..(i + 1) * k];
            for ((lv, xv), yv) in lane.iter_mut().zip(xrow).zip(yrow.iter()) {
                *lv += xv * yv;
            }
        }
        for (c, o) in out[..k].iter_mut().enumerate() {
            *o = lanes[c] + lanes[k + c] + lanes[2 * k + c] + lanes[3 * k + c] + lanes[4 * k + c];
        }
    }

    /// Batched same-pattern product: `y.col(j) ← mats[j] · x.col(j)`,
    /// reading each matrix's value array in place (no packing step).
    ///
    /// All matrices must share one frozen sparsity pattern (the ensemble
    /// case: one value-filled matrix per sample over the shared assembly
    /// skeleton). The row structure is traversed once for the whole batch;
    /// each column sees exactly the floating-point operation order of
    /// `mats[j].spmv(x.col(j))`, so the result is bit-identical per column.
    /// The repeated-solve hot path packs the values once per solve instead
    /// ([`Csr::pack_batch_values`] + [`Csr::spmm_packed_into`]) and runs
    /// measurably faster; this zero-setup variant serves one-shot products.
    ///
    /// # Panics
    ///
    /// Panics if `mats` is empty, the panel widths differ from `mats.len()`,
    /// dimensions mismatch, or (debug only) the patterns differ.
    pub fn spmm_batch_into(mats: &[&Csr], x: &MultiVec, y: &mut MultiVec) {
        let first = *mats.first().expect("spmm_batch: empty batch");
        assert_eq!(mats.len(), x.n_cols(), "spmm_batch: x width");
        assert_eq!(mats.len(), y.n_cols(), "spmm_batch: y width");
        assert_eq!(x.n_rows(), first.n_cols, "spmm_batch: x rows");
        assert_eq!(y.n_rows(), first.n_rows, "spmm_batch: y rows");
        debug_assert!(
            mats.iter().all(|m| m.same_pattern(first)),
            "spmm_batch: sparsity patterns differ"
        );
        let k = mats.len();
        let xs = x.as_slice();
        let mut lo = first.row_ptr[0];
        for (i, yrow) in y.as_mut_slice().chunks_exact_mut(k).enumerate() {
            let hi = first.row_ptr[i + 1];
            yrow.fill(0.0);
            for t in lo..hi {
                let c = first.col_idx[t];
                let xrow = &xs[c * k..c * k + k];
                for ((yv, m), xv) in yrow.iter_mut().zip(mats).zip(xrow) {
                    *yv += m.values[t] * xv;
                }
            }
            lo = hi;
        }
    }

    /// Allocating variant of [`Csr::spmv`].
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.spmv(x, &mut y);
        y
    }

    /// In-place matrix-vector product `y ← A x` (alias of [`Csr::spmv`],
    /// named to mirror [`Csr::matvec`] at call sites on the hot path).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[inline]
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        self.spmv(x, y);
    }

    /// Computes the residual `r ← b − A x`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn residual(&self, b: &[f64], x: &[f64], r: &mut [f64]) {
        self.spmv(x, r);
        for i in 0..r.len() {
            r[i] = b[i] - r[i];
        }
    }

    /// Extracts the diagonal (missing entries are zero).
    pub fn diag(&self) -> Vec<f64> {
        let n = self.n_rows.min(self.n_cols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Adds `d[i]` to each stored diagonal entry.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != n_rows`, or if a row lacks a stored diagonal
    /// entry while `d[i] != 0` (the FIT assembly always stamps diagonals).
    pub fn add_diag(&mut self, d: &[f64]) {
        assert_eq!(d.len(), self.n_rows, "add_diag: length mismatch");
        for (i, &di) in d.iter().enumerate() {
            if di == 0.0 {
                continue;
            }
            match self.get_mut(i, i) {
                Some(v) => *v += di,
                None => panic!("add_diag: row {i} has no stored diagonal"),
            }
        }
    }

    /// Sets every stored value to zero, keeping the pattern (for cached
    /// reassembly).
    pub fn zero_values(&mut self) {
        for v in &mut self.values {
            *v = 0.0;
        }
    }

    /// View of the stored values (pattern order).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable view of the stored values (pattern order).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Whether `other` has exactly the same sparsity pattern (dimensions,
    /// row pointers and column indices). Values are ignored.
    pub fn same_pattern(&self, other: &Csr) -> bool {
        self.n_rows == other.n_rows
            && self.n_cols == other.n_cols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
    }

    /// Copies the values of `other` into this matrix (pattern frozen).
    ///
    /// # Panics
    ///
    /// Panics if the sparsity patterns differ.
    pub fn copy_values_from(&mut self, other: &Csr) {
        assert!(
            self.same_pattern(other),
            "copy_values_from: sparsity patterns differ"
        );
        self.values.copy_from_slice(&other.values);
    }

    /// Index into the value array of the stored entry `(i, j)`, if present.
    pub fn slot(&self, i: usize, j: usize) -> Option<usize> {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi].binary_search(&j).ok().map(|k| lo + k)
    }

    /// Multiplies all stored values by `s`.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.values {
            *v *= s;
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Csr {
        let mut row_ptr = vec![0usize; self.n_cols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for i in 0..self.n_cols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        // next[c] tracks the insertion slot within transposed row c.
        let mut next = row_ptr.clone();
        for i in 0..self.n_rows {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals) {
                let slot = next[*c];
                col_idx[slot] = i;
                values[slot] = *v;
                next[*c] += 1;
            }
        }
        Csr {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Checks symmetry up to absolute tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.n_rows != self.n_cols {
            return false;
        }
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            // Patterns can differ while values still match symmetric.
            for i in 0..self.n_rows {
                let (cols, vals) = self.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    if (v - self.get(j, i)).abs() > tol {
                        return false;
                    }
                }
            }
            return true;
        }
        self.values
            .iter()
            .zip(&t.values)
            .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Sum of each row (for Laplacian zero-row-sum checks).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.n_rows)
            .map(|i| self.row(i).1.iter().sum())
            .collect()
    }

    /// Converts to a dense matrix (tests and tiny systems only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.n_rows, self.n_cols);
        for i in 0..self.n_rows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Infinity norm (max absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.n_rows)
            .map(|i| self.row(i).1.iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0f64, f64::max)
    }

    /// Iterates over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n_rows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (i, c, v))
                .collect::<Vec<_>>()
        })
    }
}

impl LinOp for Csr {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.n_rows, self.n_cols, "LinOp requires square matrix");
        self.n_rows
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv(x, y);
    }

    fn apply_block_into(&self, x: &MultiVec, y: &mut MultiVec) {
        self.spmm_into(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        let mut coo = Coo::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 2.0);
        }
        coo.push(0, 1, -1.0);
        coo.push(1, 0, -1.0);
        coo.push(1, 2, -1.0);
        coo.push(2, 1, -1.0);
        Csr::from_coo(&coo)
    }

    #[test]
    fn from_coo_sums_duplicates_in_any_order() {
        let mut coo = Coo::new(2, 2);
        coo.push(1, 0, 4.0);
        coo.push(0, 1, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(0, 0, 1.0);
        let a = Csr::from_coo(&coo);
        assert_eq!(a.get(0, 1), 3.0);
        assert_eq!(a.get(1, 0), 4.0);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(1, 1), 0.0);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn cancelling_duplicates_keep_pattern() {
        let mut coo = Coo::new(1, 2);
        coo.push(0, 1, 5.0);
        coo.push(0, 1, -5.0);
        let a = Csr::from_coo(&coo);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let y = a.matvec(&x);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
        let d = a.to_dense();
        let yd = d.matvec(&x);
        assert_eq!(y, yd);
    }

    #[test]
    fn residual_computation() {
        let a = small();
        let x = [1.0, 1.0, 1.0];
        let b = [1.0, 0.0, 1.0];
        let mut r = [0.0; 3];
        a.residual(&b, &x, &mut r);
        assert_eq!(r, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn diag_and_add_diag() {
        let mut a = small();
        assert_eq!(a.diag(), vec![2.0, 2.0, 2.0]);
        a.add_diag(&[1.0, 0.0, -1.0]);
        assert_eq!(a.diag(), vec![3.0, 2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "no stored diagonal")]
    fn add_diag_missing_entry_panics() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let mut a = Csr::from_coo(&coo);
        a.add_diag(&[1.0, 1.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut coo = Coo::new(2, 3);
        coo.push(0, 2, 1.0);
        coo.push(1, 0, -2.0);
        coo.push(1, 1, 7.0);
        let a = Csr::from_coo(&coo);
        let t = a.transpose();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.get(2, 0), 1.0);
        assert_eq!(t.get(0, 1), -2.0);
        let tt = t.transpose();
        assert_eq!(tt, a);
    }

    #[test]
    fn symmetry_check() {
        assert!(small().is_symmetric(0.0));
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 2.0);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.5);
        assert!(!Csr::from_coo(&coo).is_symmetric(1e-12));
        assert!(Csr::from_coo(&coo).is_symmetric(0.6));
    }

    #[test]
    fn identity_and_from_diag() {
        let i3 = Csr::identity(3);
        let x = [1.0, -2.0, 3.0];
        assert_eq!(i3.matvec(&x), x.to_vec());
        let d = Csr::from_diag(&[2.0, 0.0, -1.0]);
        assert_eq!(d.matvec(&x), vec![2.0, 0.0, -3.0]);
    }

    #[test]
    fn row_sums_and_norm() {
        let a = small();
        assert_eq!(a.row_sums(), vec![1.0, 0.0, 1.0]);
        assert_eq!(a.norm_inf(), 4.0);
    }

    #[test]
    fn get_mut_updates_values() {
        let mut a = small();
        *a.get_mut(1, 1).unwrap() = 10.0;
        assert_eq!(a.get(1, 1), 10.0);
        assert!(a.get_mut(0, 2).is_none());
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.matvec_into(&x, &mut y);
        assert_eq!(y.to_vec(), a.matvec(&x));
    }

    /// Irregular asymmetric-pattern matrix shared by the spmm tests.
    fn irregular(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 3.0 + (i as f64).sqrt());
            for d in [1usize, 7, 31] {
                if i + d < n {
                    coo.push(i, i + d, -1.0 / (1.0 + d as f64 + i as f64).sqrt());
                    coo.push(i + d, i, -0.5 / (2.0 + d as f64 * i as f64).sqrt());
                }
            }
        }
        Csr::from_coo(&coo)
    }

    fn panel(n: usize, k: usize, seed: usize) -> MultiVec {
        let mut x = MultiVec::zeros(n, k);
        for j in 0..k {
            for i in 0..n {
                x.set(i, j, (((i * 13 + j * 29 + seed) % 37) as f64).sin());
            }
        }
        x
    }

    #[test]
    fn spmm_into_matches_spmv_per_column_bitwise() {
        let n = 103;
        let a = irregular(n);
        for k in [1usize, 2, 8, 31, 32, 33, 40] {
            let x = panel(n, k, 5);
            let mut y = MultiVec::zeros(n, k);
            a.spmm_into(&x, &mut y);
            for j in 0..k {
                let mut y_ref = vec![0.0; n];
                a.spmv(&x.col_vec(j), &mut y_ref);
                assert_eq!(y.col_vec(j), y_ref, "k = {k}, column {j}");
            }
        }
    }

    #[test]
    fn spmm_batch_matches_per_matrix_spmv_bitwise() {
        let n = 103;
        let base = irregular(n);
        // Same pattern, per-sample values: scaled copies of the base matrix.
        let mats_owned: Vec<Csr> = (0..35)
            .map(|j| {
                let mut m = base.clone();
                m.scale(1.0 + 0.01 * j as f64);
                m
            })
            .collect();
        for k in [1usize, 8, 32, 35] {
            let mats: Vec<&Csr> = mats_owned[..k].iter().collect();
            let x = panel(n, k, 23);
            let mut y = MultiVec::zeros(n, k);
            Csr::spmm_batch_into(&mats, &x, &mut y);
            for j in 0..k {
                let mut y_ref = vec![0.0; n];
                mats[j].spmv(&x.col_vec(j), &mut y_ref);
                assert_eq!(y.col_vec(j), y_ref, "k = {k}, column {j}");
            }
            let mut packed = Vec::new();
            Csr::pack_batch_values(&mats, &mut packed);
            let mut y_p = MultiVec::zeros(n, k);
            y_p.fill(f64::NAN);
            mats[0].spmm_packed_into(&packed, &x, &mut y_p);
            assert_eq!(y_p, y, "packed kernel, k = {k}");
        }
    }

    #[test]
    fn spmm_handles_rectangular_operators() {
        // 3×2 matrix applied to a 2×4 panel: the AMG restriction/prolongation
        // case (rectangular level transfer operators on panels).
        let mut coo = Coo::new(3, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 2.0);
        coo.push(2, 0, 3.0);
        coo.push(2, 1, 4.0);
        let a = Csr::from_coo(&coo);
        let mut x = MultiVec::zeros(2, 4);
        for j in 0..4 {
            x.set(0, j, 1.0 + j as f64);
            x.set(1, j, -1.0);
        }
        let mut y = MultiVec::zeros(3, 4);
        a.spmm_into(&x, &mut y);
        for j in 0..4 {
            let xj = 1.0 + j as f64;
            assert_eq!(y.col_vec(j), &[xj, -2.0, 3.0 * xj - 4.0]);
        }
    }

    #[test]
    fn pattern_comparison_and_value_copy() {
        let a = small();
        let mut b = small();
        b.scale(2.0);
        assert!(a.same_pattern(&b));
        b.copy_values_from(&a);
        assert_eq!(a, b);
        assert!(!a.same_pattern(&Csr::identity(3)));
    }

    #[test]
    #[should_panic(expected = "patterns differ")]
    fn copy_values_rejects_pattern_mismatch() {
        let mut a = small();
        a.copy_values_from(&Csr::identity(3));
    }

    #[test]
    fn iter_yields_all_entries() {
        let a = small();
        let entries: Vec<_> = a.iter().collect();
        assert_eq!(entries.len(), a.nnz());
        assert!(entries.contains(&(1, 0, -1.0)));
    }
}
