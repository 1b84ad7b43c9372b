//! Preconditioners for the Krylov solvers.
//!
//! Both matrix-based preconditioners ([`JacobiPrecond`],
//! [`IncompleteCholesky`]) own their data and expose a
//! `refresh(&Csr)` method that re-factors **in place** over the frozen
//! sparsity pattern: the transient simulator assembles the same pattern every
//! Picard iterate (values-only restamping), so a cached preconditioner can
//! follow the drifting values without a single heap allocation.

use crate::error::NumericsError;
use crate::multivec::MultiVec;
use crate::sparse::Csr;

/// Application of an (approximate) inverse: `z ← M⁻¹ r`.
pub trait Preconditioner {
    /// Dimension of the preconditioner.
    fn dim(&self) -> usize;

    /// Applies the preconditioner: `z ← M⁻¹ r`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if slice lengths differ from [`Preconditioner::dim`].
    fn apply(&self, r: &[f64], z: &mut [f64]);

    /// Applies the preconditioner to every column: `z.col(j) ← M⁻¹ r.col(j)`.
    ///
    /// The default loops [`Preconditioner::apply`] over the columns, staging
    /// each one through freshly allocated contiguous buffers (the panel is
    /// row-interleaved). Preconditioners whose application is a sparse row
    /// traversal ([`IncompleteCholesky`], the AMG V-cycle)
    /// override it with a fused interleaved kernel that reads each row's
    /// indices once for the whole panel — and stays allocation-free.
    /// Overrides must keep each column bit-identical to the scalar
    /// [`Preconditioner::apply`].
    ///
    /// # Panics
    ///
    /// Implementations may panic if the panel shapes differ from each other
    /// or from [`Preconditioner::dim`].
    fn apply_block(&self, r: &MultiVec, z: &mut MultiVec) {
        assert_eq!(r.n_cols(), z.n_cols(), "apply_block: panel widths");
        let mut rc = vec![0.0; r.n_rows()];
        let mut zc = vec![0.0; z.n_rows()];
        for j in 0..r.n_cols() {
            r.copy_col_into(j, &mut rc);
            self.apply(&rc, &mut zc);
            z.copy_col_from(j, &zc);
        }
    }
}

/// The identity preconditioner (plain CG).
#[derive(Debug, Clone, Copy)]
pub struct IdentityPrecond {
    n: usize,
}

impl IdentityPrecond {
    /// Identity preconditioner of dimension `n`.
    pub fn new(n: usize) -> Self {
        IdentityPrecond { n }
    }
}

impl Preconditioner for IdentityPrecond {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }

    fn apply_block(&self, r: &MultiVec, z: &mut MultiVec) {
        assert_eq!(r.n_cols(), z.n_cols(), "apply_block: panel widths");
        z.copy_panel_from(r);
    }
}

/// Jacobi (diagonal) preconditioner `M = diag(A)`.
#[derive(Debug, Clone)]
pub struct JacobiPrecond {
    inv_diag: Vec<f64>,
}

impl JacobiPrecond {
    /// Builds the Jacobi preconditioner from the diagonal of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::FactorizationFailed`] if any diagonal entry
    /// is zero or not finite.
    pub fn new(a: &Csr) -> Result<Self, NumericsError> {
        let mut p = JacobiPrecond {
            inv_diag: vec![0.0; a.n_rows().min(a.n_cols())],
        };
        p.refresh(a)?;
        Ok(p)
    }

    /// Recomputes the inverse diagonal from `a` in place (no allocation).
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `a` has a different
    /// dimension and [`NumericsError::FactorizationFailed`] on a zero or
    /// non-finite diagonal entry.
    pub fn refresh(&mut self, a: &Csr) -> Result<(), NumericsError> {
        let n = self.inv_diag.len();
        if a.n_rows().min(a.n_cols()) != n {
            return Err(NumericsError::DimensionMismatch {
                context: "jacobi refresh",
                expected: n,
                found: a.n_rows().min(a.n_cols()),
            });
        }
        for i in 0..n {
            let d = a.get(i, i);
            if d == 0.0 || !d.is_finite() {
                return Err(NumericsError::FactorizationFailed {
                    kind: "jacobi",
                    index: i,
                });
            }
            self.inv_diag[i] = 1.0 / d;
        }
        Ok(())
    }
}

impl Preconditioner for JacobiPrecond {
    fn dim(&self) -> usize {
        self.inv_diag.len()
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for i in 0..r.len() {
            z[i] = r[i] * self.inv_diag[i];
        }
    }

    fn apply_block(&self, r: &MultiVec, z: &mut MultiVec) {
        assert_eq!(r.n_cols(), z.n_cols(), "apply_block: panel widths");
        // One diagonal load scales a contiguous k-wide row; each column runs
        // the scalar multiply sequence exactly (bit-identical per column).
        let k = r.n_cols();
        if k == 0 {
            return;
        }
        for ((zrow, rrow), &d) in z
            .as_mut_slice()
            .chunks_exact_mut(k)
            .zip(r.as_slice().chunks_exact(k))
            .zip(&self.inv_diag)
        {
            for (zv, rv) in zrow.iter_mut().zip(rrow) {
                *zv = rv * d;
            }
        }
    }
}

/// Incomplete Cholesky factorization with structural fill level `k`.
///
/// Computes a lower-triangular `L` such that `L Lᵀ ≈ A` and applies
/// `M⁻¹ = L⁻ᵀ L⁻¹`. The sparsity pattern of `L` is the lower triangle of the
/// *structural* power `A^{k+1}` — for `k = 0` this is the classic zero-fill
/// IC(0); higher levels trade a denser (but still sparse) factor for
/// substantially fewer CG iterations, which pays off handsomely once the
/// factorization is cached and only lazily refreshed. If the factorization
/// breaks down (matrix only weakly diagonally dominant), it is retried with a
/// diagonal shift `A + α·diag(A)` with geometrically increasing `α` — the
/// standard Manteuffel remedy.
#[derive(Debug, Clone)]
pub struct IncompleteCholesky {
    n: usize,
    /// CSR arrays of L, lower triangle including the diagonal (sorted cols,
    /// diagonal last in every row). Frozen after construction. Column
    /// indices are `u32` — half the index bandwidth of the triangular
    /// sweeps, which dominate every preconditioned CG iteration.
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    /// Position of the diagonal entry of each row in `values`.
    diag_pos: Vec<usize>,
    /// Reciprocal of the diagonal of L, so the two triangular sweeps
    /// multiply instead of divide (an FP division per row per sweep is
    /// 20–40 cycles of latency on the hot path).
    inv_diag: Vec<f64>,
    /// Shift that was actually used (0.0 when none was needed).
    shift: f64,
    /// Structural fill level the pattern was built with.
    fill: usize,
}

impl IncompleteCholesky {
    const SHIFTS: [f64; 6] = [0.0, 1e-3, 1e-2, 1e-1, 0.5, 2.0];

    /// Factorizes the lower triangle of `a` with zero fill (IC(0)).
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::FactorizationFailed`] if the factorization
    /// breaks down even with the largest diagonal shift attempted, or if `a`
    /// is not square / lacks a positive diagonal.
    pub fn new(a: &Csr) -> Result<Self, NumericsError> {
        Self::with_fill(a, 0)
    }

    /// Factorizes `a` over the lower-triangular pattern of the structural
    /// power `A^{level+1}` (IC(`level`)).
    ///
    /// # Errors
    ///
    /// See [`IncompleteCholesky::new`].
    pub fn with_fill(a: &Csr, level: usize) -> Result<Self, NumericsError> {
        let mut f = Self::symbolic(a, level)?;
        f.refresh(a)?;
        Ok(f)
    }

    /// Like [`IncompleteCholesky::with_fill`], but prunes weak fill from the
    /// factor: after a first factorization, every fill entry with
    /// `|L[i,j]| < droptol·√(L[i,i]·L[j,j])` is dropped from the pattern
    /// (entries structurally present in `a` are always kept) and the factor
    /// is recomputed on the pruned pattern. The pruned pattern is the one
    /// that [`IncompleteCholesky::refresh`] keeps frozen afterwards — the
    /// threshold-IC quality at a fraction of the sweep cost.
    ///
    /// # Errors
    ///
    /// See [`IncompleteCholesky::new`].
    pub fn with_fill_drop(a: &Csr, level: usize, droptol: f64) -> Result<Self, NumericsError> {
        let mut f = Self::symbolic(a, level)?;
        f.refresh(a)?;
        if level > 0 && droptol > 0.0 {
            f.prune(a, droptol)?;
        }
        Ok(f)
    }

    /// Drops weak off-diagonal fill entries from the frozen pattern and
    /// re-factors on the pruned pattern.
    fn prune(&mut self, a: &Csr, droptol: f64) -> Result<(), NumericsError> {
        let n = self.n;
        let mut diag = vec![0.0f64; n];
        for i in 0..n {
            diag[i] = self.values[self.diag_pos[i]].abs();
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut diag_pos = vec![usize::MAX; n];
        row_ptr.push(0);
        for i in 0..n {
            for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[p] as usize;
                let keep = j == i
                    || a.slot(i, j).is_some()
                    || self.values[p].abs() >= droptol * (diag[i] * diag[j]).sqrt();
                if keep {
                    if j == i {
                        diag_pos[i] = col_idx.len();
                    }
                    col_idx.push(j as u32);
                }
            }
            row_ptr.push(col_idx.len());
        }
        self.values = vec![0.0; col_idx.len()];
        self.row_ptr = row_ptr;
        self.col_idx = col_idx;
        self.diag_pos = diag_pos;
        self.refresh(a)
    }

    /// Factorizes `A + shift·diag(A)` with the IC(0) pattern and exactly
    /// this shift (no retry ladder).
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::FactorizationFailed`] on a non-positive pivot.
    pub fn with_shift(a: &Csr, shift: f64) -> Result<Self, NumericsError> {
        let mut f = Self::symbolic(a, 0)?;
        f.refill(a, shift)?;
        f.factorize()?;
        f.shift = shift;
        Ok(f)
    }

    /// Re-factors in place from the values of `a` over the frozen sparsity
    /// pattern — no heap allocation. Retries the Manteuffel shift ladder as
    /// the constructor does.
    ///
    /// On a numeric error the stored factor is left invalid; callers should
    /// rebuild from scratch (the simulator's cache does).
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidArgument`] if `a`'s pattern is not
    /// contained in the frozen pattern (the assembly pattern changed) and
    /// [`NumericsError::FactorizationFailed`] if every shift breaks down.
    pub fn refresh(&mut self, a: &Csr) -> Result<(), NumericsError> {
        let mut last = Err(NumericsError::FactorizationFailed {
            kind: "ic",
            index: 0,
        });
        for &s in &Self::SHIFTS {
            self.refill(a, s)?;
            match self.factorize() {
                Ok(()) => {
                    self.shift = s;
                    return Ok(());
                }
                Err(e) => last = Err(e),
            }
        }
        last
    }

    /// Builds the frozen lower-triangular pattern (values zeroed).
    fn symbolic(a: &Csr, level: usize) -> Result<Self, NumericsError> {
        if a.n_rows() != a.n_cols() {
            return Err(NumericsError::InvalidArgument(
                "ic: matrix must be square".into(),
            ));
        }
        if a.n_rows() > u32::MAX as usize {
            return Err(NumericsError::InvalidArgument(
                "ic: dimension exceeds u32 index range".into(),
            ));
        }
        let n = a.n_rows();
        // Structural rows of A^{level+1}: multiply the pattern by A's
        // pattern `level` times (A is symmetric in this project, so the
        // power stays symmetric). For level 0 the CSR rows of `a` are used
        // directly — no pattern copy at all.
        let mut rows: Vec<Vec<usize>> = Vec::new();
        if level > 0 {
            let mut marker = vec![usize::MAX; n];
            rows = (0..n).map(|i| a.row(i).0.to_vec()).collect();
            for _ in 0..level {
                let prev = rows;
                rows = Vec::with_capacity(n);
                for i in 0..n {
                    let mut cols = Vec::with_capacity(4 * prev[i].len());
                    for &m in &prev[i] {
                        for &j in a.row(m).0 {
                            if marker[j] != i {
                                marker[j] = i;
                                cols.push(j);
                            }
                        }
                    }
                    cols.sort_unstable();
                    rows.push(cols);
                }
                marker.fill(usize::MAX);
            }
        }
        // Restrict to the lower triangle (diagonal last per row).
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut diag_pos = vec![usize::MAX; n];
        row_ptr.push(0);
        for i in 0..n {
            let cols: &[usize] = if level > 0 { &rows[i] } else { a.row(i).0 };
            for &j in cols {
                if j > i {
                    break;
                }
                if j == i {
                    diag_pos[i] = col_idx.len();
                }
                col_idx.push(j as u32);
            }
            if diag_pos[i] == usize::MAX {
                return Err(NumericsError::FactorizationFailed {
                    kind: "ic",
                    index: i,
                });
            }
            row_ptr.push(col_idx.len());
        }
        let nnz = col_idx.len();
        Ok(IncompleteCholesky {
            n,
            row_ptr,
            col_idx,
            values: vec![0.0; nnz],
            diag_pos,
            inv_diag: vec![0.0; n],
            shift: 0.0,
            fill: level,
        })
    }

    /// Scatters the lower triangle of `a` (diagonal scaled by `1 + shift`)
    /// into the frozen pattern; fill positions get zero.
    fn refill(&mut self, a: &Csr, shift: f64) -> Result<(), NumericsError> {
        if a.n_rows() != self.n || a.n_cols() != self.n {
            return Err(NumericsError::DimensionMismatch {
                context: "ic refresh",
                expected: self.n,
                found: a.n_rows(),
            });
        }
        for i in 0..self.n {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            self.values[lo..hi].fill(0.0);
            let (acols, avals) = a.row(i);
            let mut p = lo;
            for (&j, &v) in acols.iter().zip(avals) {
                if j > i {
                    break;
                }
                while p < hi && (self.col_idx[p] as usize) < j {
                    p += 1;
                }
                if p >= hi || self.col_idx[p] as usize != j {
                    return Err(NumericsError::InvalidArgument(
                        "ic refresh: sparsity pattern of the matrix changed".into(),
                    ));
                }
                self.values[p] = if j == i { v * (1.0 + shift) } else { v };
                p += 1;
            }
        }
        Ok(())
    }

    /// In-place IK-variant incomplete Cholesky over the frozen pattern:
    /// for each row i, for each k < i in pattern:
    ///   `L[i,k] = (A[i,k] − Σ_{j<k} L[i,j]·L[k,j]) / L[k,k]`
    /// `L[i,i] = sqrt(A[i,i] − Σ_{j<i} L[i,j]²)`
    fn factorize(&mut self) -> Result<(), NumericsError> {
        let n = self.n;
        for i in 0..n {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            for kk in lo..hi {
                let k = self.col_idx[kk] as usize;
                if k == i {
                    // Diagonal entry.
                    let mut s = self.values[kk];
                    for jj in lo..kk {
                        s -= self.values[jj] * self.values[jj];
                    }
                    if s <= 0.0 || !s.is_finite() {
                        return Err(NumericsError::FactorizationFailed {
                            kind: "ic",
                            index: i,
                        });
                    }
                    self.values[kk] = s.sqrt();
                } else {
                    // Off-diagonal: sparse dot of row i and row k (both < k part).
                    let mut s = self.values[kk];
                    let (klo, khi) = (self.row_ptr[k], self.row_ptr[k + 1]);
                    let mut p = lo;
                    let mut q = klo;
                    while p < kk && q < khi {
                        let cp = self.col_idx[p];
                        let cq = self.col_idx[q];
                        if cq as usize >= k {
                            break;
                        }
                        match cp.cmp(&cq) {
                            std::cmp::Ordering::Less => p += 1,
                            std::cmp::Ordering::Greater => q += 1,
                            std::cmp::Ordering::Equal => {
                                s -= self.values[p] * self.values[q];
                                p += 1;
                                q += 1;
                            }
                        }
                    }
                    let dkk = self.values[self.diag_pos[k]];
                    self.values[kk] = s / dkk;
                }
            }
        }
        for i in 0..n {
            self.inv_diag[i] = 1.0 / self.values[self.diag_pos[i]];
        }
        Ok(())
    }

    /// Diagonal shift that was applied (0.0 if the plain factorization
    /// succeeded).
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// Structural fill level of the frozen pattern (0 = IC(0)).
    pub fn fill_level(&self) -> usize {
        self.fill
    }

    /// Stored entries of the triangular factor.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }
}

impl Preconditioner for IncompleteCholesky {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(r.len(), n);
        debug_assert_eq!(z.len(), n);
        // Forward solve L w = r (w stored in z); the diagonal is the last
        // entry of every row, so the strictly-lower part is `lo..hi-1`.
        let mut lo = self.row_ptr[0];
        for i in 0..n {
            let hi = self.row_ptr[i + 1];
            let mut s = r[i];
            for (&c, &v) in self.col_idx[lo..hi - 1]
                .iter()
                .zip(&self.values[lo..hi - 1])
            {
                s -= v * z[c as usize];
            }
            z[i] = s * self.inv_diag[i];
            lo = hi;
        }
        // Backward solve Lᵀ z = w, scattering updates column-wise.
        for i in (0..n).rev() {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let zi = z[i] * self.inv_diag[i];
            z[i] = zi;
            for (&c, &v) in self.col_idx[lo..hi - 1]
                .iter()
                .zip(&self.values[lo..hi - 1])
            {
                z[c as usize] -= v * zi;
            }
        }
    }

    fn apply_block(&self, r: &MultiVec, z: &mut MultiVec) {
        // Fused triangular sweeps over the interleaved panel: the factor's
        // indices are loaded once for the whole panel and every touched row
        // is a contiguous k-slice. Each column runs exactly the scalar
        // operation sequence, so results are bit-identical per column.
        let n = self.n;
        debug_assert_eq!(r.n_rows(), n);
        debug_assert_eq!(z.n_rows(), n);
        assert_eq!(r.n_cols(), z.n_cols(), "apply_block: panel widths");
        let k = r.n_cols();
        if k == 0 {
            return;
        }
        let rs = r.as_slice();
        let zs = z.as_mut_slice();
        // Forward solve L w = r per column (w stored in z); the diagonal is
        // the last entry of every row, so the strictly-lower part is
        // `lo..hi-1`.
        let mut lo = self.row_ptr[0];
        for i in 0..n {
            let hi = self.row_ptr[i + 1];
            let (done, rest) = zs.split_at_mut(i * k);
            let zrow = &mut rest[..k];
            zrow.copy_from_slice(&rs[i * k..(i + 1) * k]);
            for (&c, &v) in self.col_idx[lo..hi - 1]
                .iter()
                .zip(&self.values[lo..hi - 1])
            {
                let c = c as usize;
                let zc = &done[c * k..c * k + k];
                for (zv, pv) in zrow.iter_mut().zip(zc) {
                    *zv -= v * pv;
                }
            }
            let d = self.inv_diag[i];
            for zv in zrow.iter_mut() {
                *zv *= d;
            }
            lo = hi;
        }
        // Backward solve Lᵀ z = w per column, scattering updates row-wise.
        for i in (0..n).rev() {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let d = self.inv_diag[i];
            let (below, rest) = zs.split_at_mut(i * k);
            let zrow = &mut rest[..k];
            for zv in zrow.iter_mut() {
                *zv *= d;
            }
            for (&c, &v) in self.col_idx[lo..hi - 1]
                .iter()
                .zip(&self.values[lo..hi - 1])
            {
                let c = c as usize;
                let zc = &mut below[c * k..c * k + k];
                for (pv, zv) in zc.iter_mut().zip(zrow.iter()) {
                    *pv -= v * zv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Coo;

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

    fn lap2d(nx: usize) -> Csr {
        // 2D 5-point Laplacian on an nx × nx grid: IC(0) is *not* exact
        // here, so fill levels and refreshes are actually exercised.
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

    #[test]
    fn jacobi_inverts_diagonal() {
        let a = lap1d(4);
        let p = JacobiPrecond::new(&a).unwrap();
        let mut z = [0.0; 4];
        p.apply(&[2.0, 4.0, 6.0, 8.0], &mut z);
        assert_eq!(z, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(p.dim(), 4);
    }

    #[test]
    fn jacobi_rejects_zero_diag() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let a = Csr::from_coo(&coo);
        assert!(JacobiPrecond::new(&a).is_err());
    }

    #[test]
    fn jacobi_refresh_tracks_new_values() {
        let a = lap1d(4);
        let mut p = JacobiPrecond::new(&a).unwrap();
        let mut a2 = a.clone();
        a2.scale(2.0);
        p.refresh(&a2).unwrap();
        let fresh = JacobiPrecond::new(&a2).unwrap();
        let r = [1.0, 2.0, 3.0, 4.0];
        let mut z1 = [0.0; 4];
        let mut z2 = [0.0; 4];
        p.apply(&r, &mut z1);
        fresh.apply(&r, &mut z2);
        assert_eq!(z1, z2);
        // Dimension mismatch is rejected.
        assert!(p.refresh(&lap1d(5)).is_err());
    }

    #[test]
    fn ic0_is_exact_for_tridiagonal() {
        // For tridiagonal SPD matrices IC(0) = complete Cholesky, so
        // M⁻¹ r must equal A⁻¹ r exactly.
        let a = lap1d(6);
        let f = IncompleteCholesky::new(&a).unwrap();
        assert_eq!(f.shift(), 0.0);
        assert_eq!(f.fill_level(), 0);
        let b = [1.0, -1.0, 2.0, 0.0, 1.0, 3.0];
        let mut z = [0.0; 6];
        f.apply(&b, &mut z);
        let x = a.to_dense().solve(&b).unwrap();
        for i in 0..6 {
            assert!((z[i] - x[i]).abs() < 1e-12, "{z:?} vs {x:?}");
        }
    }

    #[test]
    fn ic0_requires_diagonal() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let a = Csr::from_coo(&coo);
        assert!(IncompleteCholesky::with_shift(&a, 0.0).is_err());
    }

    #[test]
    fn ic_refresh_equals_fresh_factorization() {
        let a = lap2d(8);
        for level in [0usize, 1, 2] {
            let mut f = IncompleteCholesky::with_fill(&a, level).unwrap();
            // Perturb the values (same pattern), refresh, compare to a
            // from-scratch factorization of the perturbed matrix.
            let mut a2 = a.clone();
            for (k, v) in a2.values_mut().iter_mut().enumerate() {
                *v *= 1.0 + 1e-3 * (k % 7) as f64;
            }
            f.refresh(&a2).unwrap();
            let fresh = IncompleteCholesky::with_fill(&a2, level).unwrap();
            assert_eq!(f.shift(), fresh.shift());
            assert_eq!(f.nnz(), fresh.nnz());
            let r: Vec<f64> = (0..a.n_rows()).map(|i| ((i % 5) as f64) - 2.0).collect();
            let mut z1 = vec![0.0; a.n_rows()];
            let mut z2 = vec![0.0; a.n_rows()];
            f.apply(&r, &mut z1);
            fresh.apply(&r, &mut z2);
            assert_eq!(z1, z2, "level {level}");
        }
    }

    #[test]
    fn ic_fill_grows_pattern_and_improves_quality() {
        let a = lap2d(10);
        let f0 = IncompleteCholesky::with_fill(&a, 0).unwrap();
        let f1 = IncompleteCholesky::with_fill(&a, 1).unwrap();
        let f2 = IncompleteCholesky::with_fill(&a, 2).unwrap();
        assert!(f1.nnz() > f0.nnz());
        assert!(f2.nnz() > f1.nnz());
        assert_eq!(f1.fill_level(), 1);
        // Quality proxy: ‖A·M⁻¹·r − r‖ should shrink with the fill level.
        let n = a.n_rows();
        let r: Vec<f64> = (0..n).map(|i| ((i * 3 % 11) as f64) - 5.0).collect();
        let err = |f: &IncompleteCholesky| {
            let mut z = vec![0.0; n];
            f.apply(&r, &mut z);
            let az = a.matvec(&z);
            az.iter()
                .zip(&r)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        assert!(err(&f1) < err(&f0), "{} vs {}", err(&f1), err(&f0));
    }

    #[test]
    fn ic_refresh_rejects_pattern_change() {
        let a = lap1d(5);
        let mut f = IncompleteCholesky::new(&a).unwrap();
        assert!(f.refresh(&lap1d(6)).is_err());
        // Different pattern, same size: extra off-diagonal entry.
        let mut coo = Coo::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 2.0);
        }
        coo.push(4, 0, -0.5);
        coo.push(0, 4, -0.5);
        let b = Csr::from_coo(&coo);
        assert!(matches!(
            f.refresh(&b),
            Err(NumericsError::InvalidArgument(_))
        ));
    }

    #[test]
    fn identity_copies() {
        let p = IdentityPrecond::new(3);
        let mut z = [0.0; 3];
        p.apply(&[1.0, 2.0, 3.0], &mut z);
        assert_eq!(z, [1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
    }

    #[test]
    fn apply_block_is_bit_identical_to_scalar_apply() {
        let a = lap2d(8);
        let n = a.n_rows();
        let jacobi = JacobiPrecond::new(&a).unwrap();
        let ic = IncompleteCholesky::with_fill(&a, 1).unwrap();
        let ident = IdentityPrecond::new(n);
        let ps: [&dyn Preconditioner; 3] = [&jacobi, &ic, &ident];
        for k in [1usize, 2, 32, 33] {
            let mut r = MultiVec::zeros(n, k);
            for j in 0..k {
                for i in 0..n {
                    r.set(i, j, (((i * 7 + j * 13) % 23) as f64).cos());
                }
            }
            for (pi, p) in ps.iter().enumerate() {
                let mut z = MultiVec::zeros(n, k);
                z.fill(f64::NAN);
                p.apply_block(&r, &mut z);
                for j in 0..k {
                    let mut z_ref = vec![0.0; n];
                    p.apply(&r.col_vec(j), &mut z_ref);
                    assert_eq!(z.col_vec(j), z_ref, "precond {pi}, k = {k}, col {j}");
                }
            }
        }
    }
}
