//! Smoothed-aggregation algebraic multigrid (AMG) preconditioner.
//!
//! Incomplete-factorization preconditioners keep each CG *iteration* cheap,
//! but their iteration counts grow as the FIT mesh is refined. A multigrid
//! V-cycle attacks the smooth error components that CG resolves slowest, so
//! AMG-preconditioned CG converges in a near-mesh-independent number of
//! iterations — the decisive property once package models leave the paper
//! resolution behind.
//!
//! # Algorithm
//!
//! The hierarchy is built purely algebraically from the fine-level CSR:
//!
//! 1. **Strength of connection** — an off-diagonal entry is *strong* when
//!    `|a_ij| ≥ θ·√(a_ii·a_jj)` ([`AmgOptions::strength_theta`]). Weak
//!    entries are lumped onto the diagonal of the *filtered* matrix used for
//!    prolongation smoothing, so huge material contrasts (σ jumps of many
//!    orders between copper and mold compound) do not pollute the coarse
//!    basis functions.
//! 2. **Greedy aggregation** — nodes are grouped by the standard three-pass
//!    scheme: seed an aggregate around every node whose strong neighbours
//!    are all unaggregated, attach leftovers to their most strongly
//!    connected aggregate, and make fresh aggregates of whatever remains.
//!    Each aggregate becomes one coarse DoF (piecewise-constant tentative
//!    prolongation `T`).
//! 3. **Smoothed prolongation** — `P = (I − ω·D⁻¹·A_F)·T` with the damped
//!    Jacobi weight `ω = c/λ̂`, where `λ̂ ≥ λ_max(D⁻¹A_F)` is the cheap
//!    Gershgorin row-sum bound and `c` is
//!    [`AmgOptions::prolongation_damping`] (default `4/3`).
//! 4. **Galerkin coarse operator** — `A_c = Pᵀ·A·P`, computed sparsely into
//!    CSR (first `A·P`, then `Pᵀ·(A·P)` row by row through a dense
//!    accumulator). The Galerkin product of an SPD matrix is SPD again, so
//!    the construction recurses until the dimension drops below
//!    [`AmgOptions::coarse_max`].
//! 5. **Coarsest solve** — exact dense Cholesky. If coarsening *stalls*
//!    (few strong connections — exactly the mass-dominated, strongly
//!    diagonally dominant transient systems that need no hierarchy), the
//!    remaining level is handled by symmetric Gauss–Seidel sweeps instead,
//!    which keeps the preconditioner SPD and effective at any size.
//!
//! One application of the preconditioner `z = M⁻¹·r` is a single **V-cycle**:
//! pre-smoothing, restriction of the residual, recursion, coarse-grid
//! correction, post-smoothing. With a symmetric smoother pairing (forward
//! SOR pre-sweeps mirrored by backward SOR post-sweeps — see
//! [`AmgSmoother`]) and a symmetric coarsest solve, the V-cycle operator is
//! symmetric positive definite, as preconditioned CG requires. Every level
//! starts its pre-smoothing from a zero iterate, so the first forward sweep
//! reads only the strictly lower triangle of each row: the upper part would
//! multiply entries that are still zero.
//!
//! # The frozen-skeleton refresh contract
//!
//! The transient simulator reassembles the same sparsity pattern every
//! Picard iterate with drifting values. [`AmgPrecond::refresh`] therefore
//! re-runs **only the numeric phase** — refilter, re-smooth `P`,
//! re-Galerkin, re-factor the coarse solve — over the aggregation and
//! sparsity skeleton frozen at construction, touching no heap memory at all
//! (proven by the counting-allocator test in `tests/alloc_free.rs`).
//! Construction runs the identical numeric routine after the symbolic
//! setup, so a refreshed hierarchy is bit-identical to a freshly built one
//! whenever the strength classification is unchanged. If the pattern *did*
//! change, `refresh` fails with [`NumericsError::InvalidArgument`] and the
//! caller rebuilds (the simulator's cache does exactly that).

use crate::error::NumericsError;
use crate::multivec::MultiVec;
use crate::solvers::Preconditioner;
use crate::sparse::{Coo, Csr};
use std::cell::RefCell;

/// Successive over-relaxation smoother applied before and after each
/// coarse-grid correction (an SSOR splitting of the V-cycle).
///
/// The forward pre-sweeps are mirrored by backward post-sweeps, so the
/// V-cycle is *symmetric*. The first pre-sweep of each level starts from a
/// zero iterate and reads only the strictly lower triangle; it gives the
/// same bits as a full sweep over that zero iterate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmgSmoother {
    /// Relaxation factor in `(0, 2)`; `1.0` is Gauss–Seidel.
    pub omega: f64,
    /// Sweeps per pre-/post-smoothing phase.
    pub sweeps: usize,
}

impl Default for AmgSmoother {
    fn default() -> Self {
        // A symmetric Gauss–Seidel pair is the classic workhorse.
        AmgSmoother {
            omega: 1.0,
            sweeps: 1,
        }
    }
}

/// Setup and cycling options of [`AmgPrecond`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmgOptions {
    /// Strength-of-connection threshold `θ`: `(i, j)` is strong when
    /// `|a_ij| ≥ θ·√(a_ii·a_jj)`. `0` keeps every connection.
    pub strength_theta: f64,
    /// Numerator `c` of the prolongation-smoothing weight `ω = c/λ̂`
    /// (`4/3` is the standard smoothed-aggregation choice).
    pub prolongation_damping: f64,
    /// Pre-/post-smoother of the V-cycle.
    pub smoother: AmgSmoother,
    /// Coarsening stops once a level has at most this many DoFs; that level
    /// is solved exactly by dense Cholesky.
    pub coarse_max: usize,
    /// Hard cap on the number of levels (safety net for pathological
    /// coarsening).
    pub max_levels: usize,
}

impl Default for AmgOptions {
    fn default() -> Self {
        AmgOptions {
            strength_theta: 0.08,
            prolongation_damping: 4.0 / 3.0,
            smoother: AmgSmoother::default(),
            coarse_max: 64,
            max_levels: 16,
        }
    }
}

/// Row order of one SOR sweep, and which entries of `x` it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sweep {
    /// Ascending rows over an `x` that is zero on entry. Row `i` reads only
    /// its strictly lower part, the entries this sweep has already updated:
    /// the upper part would subtract `v·0`. The `(1−ω)·x` term is kept, so
    /// the result is bit-identical to [`Sweep::Forward`] on a zeroed `x`
    /// whenever `b` holds no `-0.0` (otherwise the two can differ only in
    /// the sign of an exact zero).
    FromZero,
    /// Ascending rows, reading every off-diagonal entry.
    Forward,
    /// Descending rows, reading every off-diagonal entry.
    Backward,
}

impl Sweep {
    /// Sweep `index` of a pre- (`pre = true`, forward from the zero `x` the
    /// V-cycle starts each level with) or post-smoothing (backward) phase.
    fn of_phase(pre: bool, index: usize) -> Self {
        match (pre, index) {
            (true, 0) => Sweep::FromZero,
            (true, _) => Sweep::Forward,
            (false, _) => Sweep::Backward,
        }
    }
}

/// The diagonal of a level's operator as the smoother reads it: each row's
/// diagonal slot, fixed at symbolic setup (the pattern is frozen, so it
/// stays valid across [`AmgPrecond::refresh`]), and the reciprocal values,
/// refreshed with the matrix.
#[derive(Debug, Clone)]
struct Diagonal {
    /// Position of row `i`'s diagonal within the row: `cols[slot[i]] == i`
    /// for `(cols, _) = a.row(i)`.
    slot: Vec<usize>,
    /// Reciprocal diagonal `1/a_ii`.
    inv: Vec<f64>,
}

impl Diagonal {
    /// Symbolic setup: locates every row's diagonal slot of `a`; the
    /// reciprocals are left zeroed for [`Diagonal::refresh`].
    ///
    /// # Errors
    ///
    /// [`NumericsError::FactorizationFailed`] at the first row without a
    /// stored diagonal (a zero pivot).
    fn new(a: &Csr) -> Result<Self, NumericsError> {
        let slot = (0..a.n_rows())
            .map(|i| {
                a.row(i)
                    .0
                    .binary_search(&i)
                    .map_err(|_| NumericsError::FactorizationFailed {
                        kind: "amg",
                        index: i,
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Diagonal {
            inv: vec![0.0; slot.len()],
            slot,
        })
    }

    /// The diagonal value `a_ii` at row `i`'s slot.
    fn value(&self, a: &Csr, i: usize) -> f64 {
        a.row(i).1[self.slot[i]]
    }

    /// Numeric phase: re-reads the reciprocals from the values of `a`, whose
    /// pattern is the one [`Diagonal::new`] saw. Allocation-free.
    ///
    /// # Errors
    ///
    /// [`NumericsError::FactorizationFailed`] at the first non-positive or
    /// non-finite diagonal.
    fn refresh(&mut self, a: &Csr) -> Result<(), NumericsError> {
        for i in 0..self.slot.len() {
            let d = self.value(a, i);
            if d <= 0.0 || !d.is_finite() {
                return Err(NumericsError::FactorizationFailed {
                    kind: "amg",
                    index: i,
                });
            }
            self.inv[i] = 1.0 / d;
        }
        Ok(())
    }
}

/// One SOR sweep `x ← (1−ω)·x + ω·D⁻¹·(b − (L+U)·x)` in the row order of
/// `sweep`, reading already-updated entries (Gauss–Seidel style). Each row
/// is split at its diagonal slot ([`Diagonal::slot`]): the strictly
/// lower part, then (unless [`Sweep::FromZero`]) the strictly upper part.
/// The columns are sorted, so the subtraction order is the row's.
fn sor_sweep(a: &Csr, diag: &Diagonal, b: &[f64], x: &mut [f64], omega: f64, sweep: Sweep) {
    let n = x.len();
    let update = |x: &mut [f64], i: usize, upper: bool| {
        let (cols, vals) = a.row(i);
        let d = diag.slot[i];
        let mut s = b[i];
        for (&j, &v) in cols[..d].iter().zip(&vals[..d]) {
            s -= v * x[j];
        }
        if upper {
            for (&j, &v) in cols[d + 1..].iter().zip(&vals[d + 1..]) {
                s -= v * x[j];
            }
        }
        x[i] = (1.0 - omega) * x[i] + omega * s * diag.inv[i];
    };
    match sweep {
        Sweep::FromZero => (0..n).for_each(|i| update(x, i, false)),
        Sweep::Forward => (0..n).for_each(|i| update(x, i, true)),
        Sweep::Backward => (0..n).rev().for_each(|i| update(x, i, true)),
    }
}

/// `acc ← acc − Σ v·x[j]` over the row entries `(cols, vals)`, where
/// `x[j]` is row `j` (a `k`-slice) of the row-interleaved panel `xs`.
#[inline]
fn sub_rows(acc: &mut [f64], xs: &[f64], cols: &[usize], vals: &[f64]) {
    let k = acc.len();
    for (&j, &v) in cols.iter().zip(vals) {
        let xj = &xs[j * k..j * k + k];
        for (sv, xv) in acc.iter_mut().zip(xj) {
            *sv -= v * xv;
        }
    }
}

/// Fused multi-column variant of [`sor_sweep`] over row-interleaved panels:
/// each row's indices are read once for the whole panel and every operand
/// row is one contiguous `k`-slice. `scratch` provides a `k`-wide
/// accumulator row (any panel of the same shape; its prior contents are
/// irrelevant and it is left dirty). The scalar per-column update
/// expression is preserved exactly — column `j` is bit-identical to
/// `sor_sweep(a, diag, b.col(j), x.col(j), omega, sweep)`.
fn sor_sweep_block(
    a: &Csr,
    diag: &Diagonal,
    b: &MultiVec,
    x: &mut MultiVec,
    scratch: &mut MultiVec,
    omega: f64,
    sweep: Sweep,
) {
    let n = x.n_rows();
    let k = x.n_cols();
    if k == 0 {
        return;
    }
    debug_assert_eq!(b.n_rows(), n);
    debug_assert_eq!(b.n_cols(), k);
    debug_assert!(scratch.n_rows() >= 1 && scratch.n_cols() == k);
    let srow = scratch.row_mut(0);
    let mut update = |x: &mut MultiVec, i: usize, upper: bool| {
        let (cols, vals) = a.row(i);
        let d = diag.slot[i];
        srow.copy_from_slice(b.row(i));
        sub_rows(srow, x.as_slice(), &cols[..d], &vals[..d]);
        if upper {
            sub_rows(srow, x.as_slice(), &cols[d + 1..], &vals[d + 1..]);
        }
        let di = diag.inv[i];
        for (xv, &sv) in x.row_mut(i).iter_mut().zip(srow.iter()) {
            *xv = (1.0 - omega) * *xv + omega * sv * di;
        }
    };
    match sweep {
        Sweep::FromZero => (0..n).for_each(|i| update(x, i, false)),
        Sweep::Forward => (0..n).for_each(|i| update(x, i, true)),
        Sweep::Backward => (0..n).rev().for_each(|i| update(x, i, true)),
    }
}

/// Exact dense Cholesky solve of the coarsest level, re-factorable in place.
#[derive(Debug, Clone)]
struct DenseCholesky {
    n: usize,
    /// Row-major lower-triangular factor (upper triangle unused).
    l: Vec<f64>,
}

impl DenseCholesky {
    fn new(n: usize) -> Self {
        DenseCholesky { n, l: vec![0.0; n * n] }
    }

    /// Re-factors from `a` in place (no allocation).
    fn factor(&mut self, a: &Csr) -> Result<(), NumericsError> {
        let n = self.n;
        debug_assert_eq!(a.n_rows(), n);
        self.l.fill(0.0);
        for i in 0..n {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if j <= i {
                    self.l[i * n + j] = v;
                }
            }
        }
        for j in 0..n {
            let mut d = self.l[j * n + j];
            for k in 0..j {
                d -= self.l[j * n + k] * self.l[j * n + k];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(NumericsError::FactorizationFailed {
                    kind: "amg-coarse-cholesky",
                    index: j,
                });
            }
            let d = d.sqrt();
            self.l[j * n + j] = d;
            for i in (j + 1)..n {
                let mut s = self.l[i * n + j];
                for k in 0..j {
                    s -= self.l[i * n + k] * self.l[j * n + k];
                }
                self.l[i * n + j] = s / d;
            }
        }
        Ok(())
    }

    /// Solves `A x = b` in place (`x` holds `b` on entry).
    fn solve_in_place(&self, x: &mut [f64]) {
        let n = self.n;
        for i in 0..n {
            let mut s = x[i];
            for k in 0..i {
                s -= self.l[i * n + k] * x[k];
            }
            x[i] = s / self.l[i * n + i];
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for k in (i + 1)..n {
                s -= self.l[k * n + i] * x[k];
            }
            x[i] = s / self.l[i * n + i];
        }
    }
}

/// Solver of the last (uncoarsenable) level.
#[derive(Debug, Clone)]
enum Coarsest {
    /// Exact dense Cholesky — the normal case (`n ≤ coarse_max`).
    Direct(DenseCholesky),
    /// Symmetric Gauss–Seidel sweeps — the stalled-coarsening fallback for
    /// strongly diagonally dominant levels that are too big for a dense
    /// factor yet need no hierarchy (SGS from a zero guess is an SPD
    /// operation, so the whole V-cycle stays CG-compatible).
    /// The payload is the coarsest operator's diagonal.
    SymmetricGs(Diagonal),
}

/// One multigrid level: the operator, the frozen transfer skeletons and the
/// dense accumulator of the Galerkin product.
#[derive(Debug, Clone)]
struct Level {
    /// Operator at this level (owned; values refreshed in place).
    a: Csr,
    /// Diagonal slots (frozen) and reciprocals (refreshed) of `a`.
    diag: Diagonal,
    /// Strength-filtered operator: strong entries + diagonal, weak entries
    /// lumped onto the diagonal. Pattern frozen at setup.
    filtered: Csr,
    /// Coarse dimension (number of aggregates).
    n_coarse: usize,
    /// Smoothed prolongation `P` (`n × n_coarse`), pattern frozen.
    p: Csr,
    /// Restriction `R = Pᵀ` (`n_coarse × n`), pattern frozen.
    r: Csr,
    /// Slot map `values(P)[k] → values(R)[p_to_r[k]]` for the
    /// allocation-free numeric transpose.
    p_to_r: Vec<usize>,
    /// Slot map from the `k`-th filtered entry `(i, j)` to the P value slot
    /// of `(i, agg[j])`, making the prolongation smoothing a linear pass.
    f_to_p: Vec<usize>,
    /// Product `A·P` (`n × n_coarse`), pattern frozen (Galerkin scratch).
    ap: Csr,
    /// Dense accumulator (length `n_coarse`) for the sparse RAP products.
    acc: Vec<f64>,
}

/// Per-level V-cycle vectors (interior-mutable: `apply` takes `&self`).
#[derive(Debug, Clone, Default)]
struct LevelScratch {
    /// Iterate at this level.
    x: Vec<f64>,
    /// Right-hand side at this level.
    b: Vec<f64>,
    /// Residual.
    res: Vec<f64>,
    /// Prolongated-correction scratch.
    tmp: Vec<f64>,
}

impl LevelScratch {
    fn with_dim(n: usize) -> Self {
        LevelScratch {
            x: vec![0.0; n],
            b: vec![0.0; n],
            res: vec![0.0; n],
            tmp: vec![0.0; n],
        }
    }
}

/// Per-level V-cycle panels for [`AmgPrecond::apply_block`] (lazily grown to
/// the panel width actually used; allocation-free once warmed up at a fixed
/// `k`).
#[derive(Debug, Clone, Default)]
struct BlockLevelScratch {
    /// Iterate panel at this level.
    x: MultiVec,
    /// Right-hand-side panel at this level.
    b: MultiVec,
    /// Residual panel; its first row doubles as the smoother's
    /// accumulator.
    res: MultiVec,
    /// Prolongated-correction scratch panel.
    tmp: MultiVec,
    /// Contiguous single-column staging buffer (dense coarse solves).
    col: Vec<f64>,
}

impl BlockLevelScratch {
    fn ensure(&mut self, n: usize, k: usize) {
        for panel in [&mut self.x, &mut self.b, &mut self.res, &mut self.tmp] {
            panel.ensure(n, k);
        }
        if self.col.len() < n {
            self.col.resize(n, 0.0);
        }
    }
}

/// Smoothed-aggregation AMG V-cycle preconditioner.
///
/// Build once with [`AmgPrecond::new`], then follow the drifting values of
/// the (pattern-frozen) transient assembly with [`AmgPrecond::refresh`] —
/// the numeric-only re-setup performs zero heap allocations. Apply through
/// the [`Preconditioner`] trait (one V-cycle per application).
///
/// # Example
///
/// ```
/// use etherm_numerics::solvers::{pcg, AmgOptions, AmgPrecond, CgOptions};
/// use etherm_numerics::sparse::{Coo, Csr};
///
/// # fn main() -> Result<(), etherm_numerics::NumericsError> {
/// // 1-D Poisson chain.
/// let n = 200;
/// let mut coo = Coo::new(n, n);
/// for i in 0..n {
///     coo.push(i, i, 2.0);
///     if i + 1 < n {
///         coo.push(i, i + 1, -1.0);
///         coo.push(i + 1, i, -1.0);
///     }
/// }
/// let a = Csr::from_coo(&coo);
/// let m = AmgPrecond::new(&a, AmgOptions::default())?;
/// let b = vec![1.0; n];
/// let mut x = vec![0.0; n];
/// let report = pcg(&a, &b, &mut x, &m, &CgOptions::default())?;
/// assert!(report.converged);
/// # Ok(())
/// # }
/// ```
/// The hierarchy is `Clone`: a worker can fork a fully built (symbolic +
/// numeric) preconditioner from a template and `refresh` it against its own
/// matrix values, sharing the aggregation/sparsity skeleton construction
/// cost across sessions of a parameter campaign.
#[derive(Debug, Clone)]
pub struct AmgPrecond {
    options: AmgOptions,
    levels: Vec<Level>,
    /// Coarsest-level operator (owned; values refreshed in place).
    coarse_a: Csr,
    coarse: Coarsest,
    /// V-cycle vectors, one entry per level plus the coarsest.
    scratch: RefCell<Vec<LevelScratch>>,
    /// V-cycle panels for the batched apply, grown lazily on first
    /// [`AmgPrecond::apply_block`] call.
    block_scratch: RefCell<Vec<BlockLevelScratch>>,
}

impl AmgPrecond {
    /// Builds the full hierarchy (symbolic + numeric phase) from `a`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidArgument`] for a non-square matrix
    /// or invalid smoother parameters (SOR relaxation outside `(0, 2)`,
    /// zero sweeps), and
    /// [`NumericsError::FactorizationFailed`] for a non-positive diagonal
    /// or a coarse factorization breakdown (matrix not SPD).
    pub fn new(a: &Csr, options: AmgOptions) -> Result<Self, NumericsError> {
        if a.n_rows() != a.n_cols() {
            return Err(NumericsError::InvalidArgument(
                "amg: matrix must be square".into(),
            ));
        }
        if a.n_rows() > u32::MAX as usize {
            return Err(NumericsError::InvalidArgument(
                "amg: dimension exceeds u32 aggregate index range".into(),
            ));
        }
        let AmgSmoother { omega, sweeps } = options.smoother;
        if !(0.0..2.0).contains(&omega) || omega == 0.0 || sweeps == 0 {
            return Err(NumericsError::InvalidArgument(format!(
                "amg: sor smoother needs omega in (0, 2) and sweeps > 0, \
                 got omega {omega}, sweeps {sweeps}"
            )));
        }
        let mut levels: Vec<Level> = Vec::new();
        let mut current = a.clone();
        while current.n_rows() > options.coarse_max && levels.len() + 2 <= options.max_levels {
            match Level::symbolic(&current, &options, levels.len())? {
                Some((mut level, mut coarse_a)) => {
                    // Numeric phase right away: the next level's strength
                    // classification needs real coarse values.
                    level.numeric(&options, &mut coarse_a)?;
                    levels.push(level);
                    current = coarse_a;
                }
                None => break, // coarsening stalled
            }
        }
        let mut scratch: Vec<LevelScratch> = levels
            .iter()
            .map(|l| LevelScratch::with_dim(l.a.n_rows()))
            .collect();
        scratch.push(LevelScratch::with_dim(current.n_rows()));
        // A stalled level that is still small enough is factored densely
        // anyway (exact and cheap up to a few hundred DoFs); only genuinely
        // large uncoarsenable levels fall back to SGS sweeps.
        let mut coarse = if current.n_rows() <= options.coarse_max.saturating_mul(8) {
            Coarsest::Direct(DenseCholesky::new(current.n_rows()))
        } else {
            Coarsest::SymmetricGs(Diagonal::new(&current)?)
        };
        Self::refresh_coarsest(&mut coarse, &current)?;
        Ok(AmgPrecond {
            options,
            levels,
            coarse_a: current,
            coarse,
            scratch: RefCell::new(scratch),
            block_scratch: RefCell::new(Vec::new()),
        })
    }

    /// Re-runs the numeric phase over the frozen aggregation/sparsity
    /// skeleton: refilter, re-smooth `P`, re-Galerkin every level and
    /// re-factor the coarsest solve — all in place, no heap allocation.
    ///
    /// On a numeric error the stored hierarchy is left invalid; callers
    /// should rebuild from scratch (the simulator's cache does).
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidArgument`] if `a`'s sparsity pattern
    /// differs from the one the hierarchy was built on, and
    /// [`NumericsError::FactorizationFailed`] on a non-positive diagonal or
    /// coarse pivot.
    pub fn refresh(&mut self, a: &Csr) -> Result<(), NumericsError> {
        let fine = self
            .levels
            .first_mut()
            .map(|l| &mut l.a)
            .unwrap_or(&mut self.coarse_a);
        if !fine.same_pattern(a) {
            return Err(NumericsError::InvalidArgument(
                "amg refresh: sparsity pattern of the matrix changed".into(),
            ));
        }
        fine.copy_values_from(a);
        let options = self.options;
        for l in 0..self.levels.len() {
            let (head, tail) = self.levels.split_at_mut(l + 1);
            let level = &mut head[l];
            let next_a = tail
                .first_mut()
                .map(|nl| &mut nl.a)
                .unwrap_or(&mut self.coarse_a);
            level.numeric(&options, next_a)?;
        }
        Self::refresh_coarsest(&mut self.coarse, &self.coarse_a)
    }

    fn refresh_coarsest(coarse: &mut Coarsest, a: &Csr) -> Result<(), NumericsError> {
        match coarse {
            Coarsest::Direct(f) => f.factor(a),
            Coarsest::SymmetricGs(diag) => diag.refresh(a),
        }
    }

    /// Number of levels including the coarsest (a direct solve alone is one
    /// level).
    pub fn n_levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// Dimension of level `l` (level 0 is the fine grid).
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.n_levels()`.
    pub fn level_dim(&self, l: usize) -> usize {
        self.level_matrix(l).n_rows()
    }

    /// The (Galerkin) operator of level `l` (level 0 is the fine matrix).
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.n_levels()`.
    pub fn level_matrix(&self, l: usize) -> &Csr {
        if l < self.levels.len() {
            &self.levels[l].a
        } else {
            assert_eq!(l, self.levels.len(), "level out of range");
            &self.coarse_a
        }
    }

    /// Dimension of the coarsest (directly solved) level.
    pub fn coarse_dim(&self) -> usize {
        self.coarse_a.n_rows()
    }

    /// Operator complexity `Σ_l nnz(A_l) / nnz(A_0)` — the classic
    /// memory/work overhead measure of an AMG hierarchy (1.0 = no overhead).
    pub fn operator_complexity(&self) -> f64 {
        let fine_nnz = self.level_matrix(0).nnz().max(1);
        let total: usize = (0..self.n_levels())
            .map(|l| self.level_matrix(l).nnz())
            .sum();
        total as f64 / fine_nnz as f64
    }

    /// One V-cycle on level `l`: `s[l].b` is the RHS, result in `s[l].x`.
    fn cycle(&self, l: usize, s: &mut [LevelScratch]) {
        if l == self.levels.len() {
            let sl = &mut s[l];
            match &self.coarse {
                Coarsest::Direct(f) => {
                    sl.x.copy_from_slice(&sl.b);
                    f.solve_in_place(&mut sl.x);
                }
                Coarsest::SymmetricGs(diag) => {
                    sl.x.fill(0.0);
                    let (a, b, x) = (&self.coarse_a, &sl.b, &mut sl.x);
                    sor_sweep(a, diag, b, x, 1.0, Sweep::FromZero);
                    sor_sweep(a, diag, b, x, 1.0, Sweep::Backward);
                }
            }
            return;
        }
        let level = &self.levels[l];
        {
            let sl = &mut s[l];
            sl.x.fill(0.0);
            level.smooth(&self.options, &sl.b, &mut sl.x, true);
            // res ← b − A·x
            level.a.spmv(&sl.x, &mut sl.res);
            for (ri, bi) in sl.res.iter_mut().zip(&sl.b) {
                *ri = bi - *ri;
            }
        }
        {
            // b_{l+1} ← R·res (scratch holds one slot per level plus the
            // coarsest, so the split leaves l+1 on the right).
            let (this, deeper) = s.split_at_mut(l + 1);
            level.r.spmv(&this[l].res, &mut deeper[0].b);
        }
        self.cycle(l + 1, s);
        {
            let (this, deeper) = s.split_at_mut(l + 1);
            let sl = &mut this[l];
            // x ← x + P·x_{l+1}
            level.p.spmv(&deeper[0].x, &mut sl.tmp);
            for (xi, ti) in sl.x.iter_mut().zip(&sl.tmp) {
                *xi += ti;
            }
            level.smooth(&self.options, &sl.b, &mut sl.x, false);
        }
    }

    /// Batched V-cycle on level `l`: the exact mirror of
    /// [`AmgPrecond::cycle`] over `n × k` panels. Every smoother sweep, grid
    /// transfer and residual uses the fused multi-RHS kernels, whose columns
    /// are bit-identical to the scalar ones — so column `j` of the batched
    /// cycle reproduces the scalar cycle on `r.col(j)` bit for bit.
    fn cycle_block(&self, l: usize, s: &mut [BlockLevelScratch]) {
        if l == self.levels.len() {
            let sl = &mut s[l];
            match &self.coarse {
                Coarsest::Direct(f) => {
                    // Stage each interleaved column through the contiguous
                    // buffer: gather, solve in place, scatter back.
                    for j in 0..sl.b.n_cols() {
                        sl.b.copy_col_into(j, &mut sl.col);
                        f.solve_in_place(&mut sl.col);
                        sl.x.copy_col_from(j, &sl.col);
                    }
                }
                Coarsest::SymmetricGs(diag) => {
                    sl.x.fill(0.0);
                    let (a, b, x, sc) = (&self.coarse_a, &sl.b, &mut sl.x, &mut sl.res);
                    sor_sweep_block(a, diag, b, x, sc, 1.0, Sweep::FromZero);
                    sor_sweep_block(a, diag, b, x, sc, 1.0, Sweep::Backward);
                }
            }
            return;
        }
        let level = &self.levels[l];
        {
            let sl = &mut s[l];
            sl.x.fill(0.0);
            level.smooth_block(&self.options, &sl.b, &mut sl.x, &mut sl.res, true);
            // res ← b − A·x
            level.a.spmm_into(&sl.x, &mut sl.res);
            for (ri, bi) in sl.res.as_mut_slice().iter_mut().zip(sl.b.as_slice()) {
                *ri = bi - *ri;
            }
        }
        {
            let (this, deeper) = s.split_at_mut(l + 1);
            level.r.spmm_into(&this[l].res, &mut deeper[0].b);
        }
        self.cycle_block(l + 1, s);
        {
            let (this, deeper) = s.split_at_mut(l + 1);
            let sl = &mut this[l];
            // x ← x + P·x_{l+1}
            level.p.spmm_into(&deeper[0].x, &mut sl.tmp);
            for (xi, ti) in sl.x.as_mut_slice().iter_mut().zip(sl.tmp.as_slice()) {
                *xi += ti;
            }
            level.smooth_block(&self.options, &sl.b, &mut sl.x, &mut sl.res, false);
        }
    }
}

impl Preconditioner for AmgPrecond {
    fn dim(&self) -> usize {
        self.level_matrix(0).n_rows()
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let s = &mut *self.scratch.borrow_mut();
        s[0].b.copy_from_slice(r);
        self.cycle(0, s);
        z.copy_from_slice(&s[0].x);
    }

    fn apply_block(&self, r: &MultiVec, z: &mut MultiVec) {
        assert_eq!(r.n_cols(), z.n_cols(), "apply_block: panel widths");
        let k = r.n_cols();
        let s = &mut *self.block_scratch.borrow_mut();
        if s.len() < self.levels.len() + 1 {
            s.resize_with(self.levels.len() + 1, BlockLevelScratch::default);
        }
        for (l, sl) in s.iter_mut().enumerate() {
            let n_l = if l == self.levels.len() {
                self.coarse_a.n_rows()
            } else {
                self.levels[l].a.n_rows()
            };
            sl.ensure(n_l, k);
        }
        s[0].b.copy_panel_from(r);
        self.cycle_block(0, s);
        z.copy_panel_from(&s[0].x);
    }
}

impl Level {
    /// Symbolic setup: strength graph, aggregation and the frozen patterns
    /// of `P`, `R = Pᵀ`, `A·P` and `A_c`. Returns `None` when coarsening
    /// stalls (the caller then solves this level directly); all values are
    /// left zeroed — the shared numeric phase fills them.
    fn symbolic(
        a: &Csr,
        options: &AmgOptions,
        level_index: usize,
    ) -> Result<Option<(Level, Csr)>, NumericsError> {
        let n = a.n_rows();
        // Galerkin operators have wider stencils with individually weaker
        // entries; halving θ per level (Vaněk's rule) keeps them coarsening.
        let theta = options.strength_theta * 0.5f64.powi(level_index as i32);
        let smoother_diag = Diagonal::new(a)?;
        let diag: Vec<f64> = (0..n).map(|i| smoother_diag.value(a, i)).collect();
        for (i, &d) in diag.iter().enumerate() {
            if d <= 0.0 || !d.is_finite() {
                return Err(NumericsError::FactorizationFailed {
                    kind: "amg",
                    index: i,
                });
            }
        }
        // Strength-filtered pattern: diagonal + strong off-diagonals.
        let mut filtered_coo = Coo::new(n, n);
        let mut strong: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 0..n {
            filtered_coo.push_structural(i, i, 0.0);
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if j != i && v.abs() >= theta * (diag[i] * diag[j]).sqrt() {
                    filtered_coo.push_structural(i, j, 0.0);
                    strong[i].push(j as u32);
                }
            }
        }
        let filtered = Csr::from_coo(&filtered_coo);

        // Greedy aggregation over the strong graph.
        const UNAGGREGATED: u32 = u32::MAX;
        let mut agg = vec![UNAGGREGATED; n];
        let mut n_coarse: u32 = 0;
        // Pass 1: seed aggregates where the whole strong neighbourhood is
        // still free.
        for i in 0..n {
            if agg[i] != UNAGGREGATED || strong[i].is_empty() {
                continue;
            }
            if strong[i].iter().all(|&j| agg[j as usize] == UNAGGREGATED) {
                agg[i] = n_coarse;
                for &j in &strong[i] {
                    agg[j as usize] = n_coarse;
                }
                n_coarse += 1;
            }
        }
        // Pass 2: attach leftovers to their most strongly connected
        // aggregate.
        for i in 0..n {
            if agg[i] != UNAGGREGATED {
                continue;
            }
            let mut best: Option<(u32, f64)> = None;
            for &j in &strong[i] {
                let aj = agg[j as usize];
                if aj == UNAGGREGATED {
                    continue;
                }
                let w = a.get(i, j as usize).abs();
                if best.is_none_or(|(_, bw)| w > bw) {
                    best = Some((aj, w));
                }
            }
            if let Some((aj, _)) = best {
                agg[i] = aj;
            }
        }
        // Pass 3: whatever is left (isolated nodes, leftover strong
        // clusters) seeds new aggregates with its still-free neighbours.
        for i in 0..n {
            if agg[i] != UNAGGREGATED {
                continue;
            }
            agg[i] = n_coarse;
            for &j in &strong[i] {
                if agg[j as usize] == UNAGGREGATED {
                    agg[j as usize] = n_coarse;
                }
            }
            n_coarse += 1;
        }
        let n_coarse = n_coarse as usize;
        if n_coarse == 0 || n_coarse as f64 > 0.8 * n as f64 {
            // Coarsening stalled — no useful hierarchy below this level.
            return Ok(None);
        }

        // P pattern: row i couples to the aggregates of its filtered row.
        let mut p_coo = Coo::new(n, n_coarse);
        for i in 0..n {
            let (cols, _) = filtered.row(i);
            for &j in cols {
                p_coo.push_structural(i, agg[j] as usize, 0.0);
            }
        }
        let p = Csr::from_coo(&p_coo);

        // R = Pᵀ pattern plus the value-slot map for the numeric transpose.
        let r = p.transpose();
        let mut next = vec![0usize; n_coarse];
        let mut off = 0usize;
        for (c, slot) in next.iter_mut().enumerate() {
            *slot = off;
            off += r.row(c).0.len();
        }
        let mut p_to_r = vec![0usize; p.nnz()];
        let mut k = 0usize;
        for i in 0..n {
            let (cols, _) = p.row(i);
            for &c in cols {
                p_to_r[k] = next[c];
                next[c] += 1;
                k += 1;
            }
        }

        // Filtered-entry → P-slot map for the linear-pass smoothing scatter.
        let mut f_to_p = vec![0usize; filtered.nnz()];
        let mut k = 0usize;
        for i in 0..n {
            let (fcols, _) = filtered.row(i);
            for &j in fcols {
                // The frozen P pattern covers every filtered row by
                // construction; a miss means the aggregation above is
                // inconsistent, which the caller degrades on like any
                // other setup failure.
                f_to_p[k] = p.slot(i, agg[j] as usize).ok_or(
                    NumericsError::FactorizationFailed {
                        kind: "amg",
                        index: i,
                    },
                )?;
                k += 1;
            }
        }

        // A·P pattern: union of P rows over each A row.
        let mut ap_coo = Coo::new(n, n_coarse);
        let mut marker = vec![usize::MAX; n_coarse];
        for i in 0..n {
            let (cols, _) = a.row(i);
            for &kk in cols {
                let (pcols, _) = p.row(kk);
                for &c in pcols {
                    if marker[c] != i {
                        marker[c] = i;
                        ap_coo.push_structural(i, c, 0.0);
                    }
                }
            }
        }
        let ap = Csr::from_coo(&ap_coo);

        // A_c pattern: union of A·P rows over each R row.
        let mut ac_coo = Coo::new(n_coarse, n_coarse);
        marker.fill(usize::MAX);
        for bi in 0..n_coarse {
            let (rcols, _) = r.row(bi);
            for &i in rcols {
                let (apcols, _) = ap.row(i);
                for &c in apcols {
                    if marker[c] != bi {
                        marker[c] = bi;
                        ac_coo.push_structural(bi, c, 0.0);
                    }
                }
            }
        }
        let coarse_a = Csr::from_coo(&ac_coo);

        let level = Level {
            a: a.clone(),
            diag: smoother_diag,
            filtered,
            n_coarse,
            p,
            r,
            p_to_r,
            f_to_p,
            ap,
            acc: vec![0.0; n_coarse],
        };
        Ok(Some((level, coarse_a)))
    }

    /// Numeric phase over the frozen skeleton: reciprocal diagonal, filtered
    /// values (weak entries lumped), smoothed `P`, `R = Pᵀ`, `A·P` and the
    /// Galerkin product written into `next_a`. Allocation-free.
    fn numeric(&mut self, options: &AmgOptions, next_a: &mut Csr) -> Result<(), NumericsError> {
        let n = self.a.n_rows();
        self.diag.refresh(&self.a)?;
        // Filtered values: copy entries present in the frozen strong
        // pattern, lump the rest onto the diagonal (preserves row sums, so
        // the smoothed basis still reproduces constants). The filtered
        // pattern is a subset of A's (both column-sorted), so one merge walk
        // per row does it — no per-entry lookups.
        for i in 0..n {
            let (acols, avals) = self.a.row(i);
            let (fcols, fvals) = self.filtered.row_mut(i);
            let mut lumped = 0.0;
            let mut diag_slot = usize::MAX;
            let mut fp = 0usize;
            for (&j, &v) in acols.iter().zip(avals) {
                if fp < fcols.len() && fcols[fp] == j {
                    fvals[fp] = v;
                    if j == i {
                        diag_slot = fp;
                    }
                    fp += 1;
                } else if j != i {
                    lumped += v;
                }
            }
            debug_assert_eq!(fp, fcols.len(), "filtered pattern not a subset of A");
            fvals[diag_slot] += lumped;
        }
        // Prolongation damping ω = c/λ̂ from the Gershgorin bound on D⁻¹A_F.
        let mut lambda_hat = 0.0f64;
        for i in 0..n {
            let (_, fvals) = self.filtered.row(i);
            let row_sum: f64 = fvals.iter().map(|v| v.abs()).sum();
            lambda_hat = lambda_hat.max(self.diag.inv[i] * row_sum);
        }
        let omega = if lambda_hat > 0.0 {
            options.prolongation_damping / lambda_hat
        } else {
            0.0
        };
        // P = (I − ω·D⁻¹·A_F)·T, scattered into the frozen pattern through
        // the precomputed filtered-entry → P-value slot map.
        self.p.zero_values();
        {
            let pvals = self.p.values_mut();
            let mut k = 0usize;
            for i in 0..n {
                let wi = omega * self.diag.inv[i];
                let (fcols, fvals) = self.filtered.row(i);
                for (&j, &fv) in fcols.iter().zip(fvals) {
                    let val = if j == i { 1.0 - wi * fv } else { -wi * fv };
                    pvals[self.f_to_p[k]] += val;
                    k += 1;
                }
            }
        }
        // Numeric transpose R = Pᵀ through the precomputed slot map.
        {
            let rvals = self.r.values_mut();
            let pvals = self.p.values();
            for (k, &slot) in self.p_to_r.iter().enumerate() {
                rvals[slot] = pvals[k];
            }
        }
        // A·P, one fine row at a time through the dense accumulator.
        for i in 0..n {
            let (acols, avals) = self.a.row(i);
            for (&kk, &av) in acols.iter().zip(avals) {
                let (pcols, pvals) = self.p.row(kk);
                for (&c, &pv) in pcols.iter().zip(pvals) {
                    self.acc[c] += av * pv;
                }
            }
            let (apcols, apvals) = self.ap.row_mut(i);
            for (&c, apv) in apcols.iter().zip(apvals.iter_mut()) {
                *apv = self.acc[c];
                self.acc[c] = 0.0;
            }
        }
        // A_c = R·(A·P), one coarse row at a time.
        for bi in 0..self.n_coarse {
            let (rcols, rvals) = self.r.row(bi);
            for (&i, &rv) in rcols.iter().zip(rvals) {
                let (apcols, apvals) = self.ap.row(i);
                for (&c, &apv) in apcols.iter().zip(apvals) {
                    self.acc[c] += rv * apv;
                }
            }
            let (accols, acvals) = next_a.row_mut(bi);
            for (&c, acv) in accols.iter().zip(acvals.iter_mut()) {
                *acv = self.acc[c];
                self.acc[c] = 0.0;
            }
        }
        Ok(())
    }

    /// One pre- (`pre = true`: forward sweeps over the `x` the V-cycle has
    /// just zeroed) or post-smoothing (backward sweeps) phase on this level.
    fn smooth(&self, options: &AmgOptions, b: &[f64], x: &mut [f64], pre: bool) {
        let AmgSmoother { omega, sweeps } = options.smoother;
        for index in 0..sweeps {
            let sweep = Sweep::of_phase(pre, index);
            sor_sweep(&self.a, &self.diag, b, x, omega, sweep);
        }
    }

    /// Batched mirror of [`Level::smooth`] over `n × k` panels; each column
    /// runs the scalar sweep's floating-point sequence exactly. `scratch`
    /// lends the sweep its accumulator row.
    fn smooth_block(
        &self,
        options: &AmgOptions,
        b: &MultiVec,
        x: &mut MultiVec,
        scratch: &mut MultiVec,
        pre: bool,
    ) {
        let AmgSmoother { omega, sweeps } = options.smoother;
        for index in 0..sweeps {
            let sweep = Sweep::of_phase(pre, index);
            sor_sweep_block(&self.a, &self.diag, b, x, scratch, omega, sweep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::{pcg, CgOptions};
    use crate::vector;

    fn lap3d(nx: usize, diag_boost: f64) -> Csr {
        let n = nx * nx * nx;
        let idx = |i: usize, j: usize, k: usize| (i * nx + j) * nx + k;
        let mut coo = Coo::new(n, n);
        for i in 0..nx {
            for j in 0..nx {
                for k in 0..nx {
                    let c = idx(i, j, k);
                    coo.push(c, c, 6.0 + diag_boost);
                    let mut link = |o: usize| {
                        coo.push(c, o, -1.0);
                    };
                    if i > 0 {
                        link(idx(i - 1, j, k));
                    }
                    if i + 1 < nx {
                        link(idx(i + 1, j, k));
                    }
                    if j > 0 {
                        link(idx(i, j - 1, k));
                    }
                    if j + 1 < nx {
                        link(idx(i, j + 1, k));
                    }
                    if k > 0 {
                        link(idx(i, j, k - 1));
                    }
                    if k + 1 < nx {
                        link(idx(i, j, k + 1));
                    }
                }
            }
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn hierarchy_coarsens_and_covers_all_nodes() {
        let a = lap3d(8, 0.5);
        let m = AmgPrecond::new(&a, AmgOptions::default()).unwrap();
        assert!(m.n_levels() >= 2, "expected a real hierarchy");
        assert_eq!(m.level_dim(0), a.n_rows());
        for l in 1..m.n_levels() {
            assert!(
                m.level_dim(l) < m.level_dim(l - 1),
                "level {l} did not coarsen"
            );
        }
        assert!(m.coarse_dim() <= AmgOptions::default().coarse_max);
        assert!(m.operator_complexity() >= 1.0);
        assert!(m.operator_complexity() < 3.0, "{}", m.operator_complexity());
    }

    #[test]
    fn small_matrix_is_solved_exactly() {
        // n <= coarse_max: the preconditioner degenerates to a direct solve.
        let a = lap3d(3, 0.5);
        let m = AmgPrecond::new(&a, AmgOptions::default()).unwrap();
        assert_eq!(m.n_levels(), 1);
        let n = a.n_rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64) - 4.0).collect();
        let mut z = vec![0.0; n];
        m.apply(&b, &mut z);
        let x = a.to_dense().solve(&b).unwrap();
        for i in 0..n {
            assert!((z[i] - x[i]).abs() < 1e-9, "{} vs {}", z[i], x[i]);
        }
    }

    #[test]
    fn galerkin_levels_stay_spd_shaped() {
        let a = lap3d(7, 0.2);
        let m = AmgPrecond::new(&a, AmgOptions::default()).unwrap();
        for l in 1..m.n_levels() {
            let ac = m.level_matrix(l);
            assert!(
                ac.is_symmetric(1e-10 * ac.norm_inf()),
                "level {l} not symmetric"
            );
            for i in 0..ac.n_rows() {
                assert!(ac.get(i, i) > 0.0, "level {l} diagonal {i} not positive");
            }
        }
    }

    #[test]
    fn vcycle_is_symmetric_and_positive() {
        // r1ᵀ·M⁻¹·r2 == r2ᵀ·M⁻¹·r1 and rᵀ·M⁻¹·r > 0 — required for PCG.
        let a = lap3d(6, 0.3);
        let n = a.n_rows();
        for smoother in [
            AmgSmoother {
                omega: 1.0,
                sweeps: 1,
            },
            AmgSmoother {
                omega: 1.3,
                sweeps: 2,
            },
        ] {
            let opts = AmgOptions {
                smoother,
                coarse_max: 16,
                ..AmgOptions::default()
            };
            let m = AmgPrecond::new(&a, opts).unwrap();
            let r1: Vec<f64> = (0..n).map(|i| ((i * 3 % 13) as f64) - 6.0).collect();
            let r2: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
            let mut z1 = vec![0.0; n];
            let mut z2 = vec![0.0; n];
            m.apply(&r1, &mut z1);
            m.apply(&r2, &mut z2);
            let d12 = vector::dot(&r1, &z2);
            let d21 = vector::dot(&r2, &z1);
            let scale = d12.abs().max(d21.abs()).max(1.0);
            assert!(
                (d12 - d21).abs() < 1e-10 * scale,
                "{smoother:?}: {d12} vs {d21}"
            );
            assert!(vector::dot(&r1, &z1) > 0.0, "{smoother:?}: not positive");
        }
    }

    #[test]
    fn pcg_with_amg_beats_plain_cg() {
        let a = lap3d(10, 0.0);
        let n = a.n_rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 29) as f64) - 14.0).collect();
        let opts = CgOptions::with_tol(1e-10);
        let m = AmgPrecond::new(&a, AmgOptions::default()).unwrap();
        let mut x_amg = vec![0.0; n];
        let rep_amg = pcg(&a, &b, &mut x_amg, &m, &opts).unwrap();
        assert!(rep_amg.converged);
        let mut x_cg = vec![0.0; n];
        let rep_cg = crate::solvers::cg(&a, &b, &mut x_cg, &opts).unwrap();
        assert!(rep_cg.converged);
        assert!(
            rep_amg.iterations * 2 < rep_cg.iterations,
            "amg {} vs cg {}",
            rep_amg.iterations,
            rep_cg.iterations
        );
        for i in 0..n {
            assert!((x_amg[i] - x_cg[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn stalled_coarsening_falls_back_to_sgs() {
        // A heavily mass-dominated matrix: every off-diagonal is weak, so
        // aggregation stalls and the preconditioner must degrade to
        // symmetric Gauss–Seidel instead of a huge dense factorization.
        let mut a = lap3d(6, 0.0);
        let n = a.n_rows();
        let boost: Vec<f64> = vec![1000.0; n];
        a.add_diag(&boost);
        let m = AmgPrecond::new(&a, AmgOptions::default()).unwrap();
        assert_eq!(m.n_levels(), 1, "no hierarchy expected");
        assert_eq!(m.coarse_dim(), n);
        let b: Vec<f64> = (0..n).map(|i| ((i * 3 % 7) as f64) - 3.0).collect();
        let mut x = vec![0.0; n];
        let rep = pcg(&a, &b, &mut x, &m, &CgOptions::with_tol(1e-10)).unwrap();
        assert!(rep.converged);
        assert!(rep.iterations <= 10, "sgs fallback too weak: {}", rep.iterations);
    }

    #[test]
    fn apply_block_is_bit_identical_to_scalar_apply() {
        // One sweep per phase, and two over-relaxed ones (a from-zero
        // sweep followed by a full sweep); narrow and wide interleaved
        // panels including an odd width.
        let a = lap3d(11, 0.1);
        let n = a.n_rows();
        for opts in [
            AmgOptions::default(),
            AmgOptions {
                smoother: AmgSmoother {
                    omega: 1.3,
                    sweeps: 2,
                },
                ..AmgOptions::default()
            },
        ] {
            let m = AmgPrecond::new(&a, opts).unwrap();
            for k in [1usize, 3, 33] {
                let mut r = MultiVec::zeros(n, k);
                for j in 0..k {
                    for i in 0..n {
                        r.set(i, j, (((i * 17 + j * 5) % 23) as f64) - 11.0);
                    }
                }
                let mut z = MultiVec::zeros(n, k);
                z.fill(f64::NAN);
                m.apply_block(&r, &mut z);
                for j in 0..k {
                    let mut z_ref = vec![0.0; n];
                    m.apply(&r.col_vec(j), &mut z_ref);
                    assert_eq!(z.col_vec(j), z_ref, "k = {k}, column {j}");
                }
            }
        }
    }

    /// A symmetric matrix whose off-diagonals take both signs (positive
    /// on every third link of the 3-D stencil), diagonally dominant.
    fn mixed_sign(nx: usize) -> Csr {
        let pattern = lap3d(nx, 0.0);
        let n = pattern.n_rows();
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            let (cols, _) = pattern.row(i);
            for &j in cols {
                let v = if j == i {
                    7.5
                } else if (i + j) % 3 == 0 {
                    0.5
                } else {
                    -1.0
                };
                coo.push(i, j, v);
            }
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn from_zero_sweep_equals_full_sweep() {
        // The first pre-smoothing sweep skips the strictly upper part of
        // each row, whose entries of the zeroed x are still 0. It must give
        // the bits of a full forward sweep over that zeroed x, scalar and
        // panel alike. The right-hand side has no exact zeros.
        for a in [lap3d(5, 0.3), mixed_sign(5)] {
            let n = a.n_rows();
            let mut diag = Diagonal::new(&a).unwrap();
            diag.refresh(&a).unwrap();
            let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.5).collect();
            let k = 3;
            let mut bp = MultiVec::zeros(n, k);
            for j in 0..k {
                for i in 0..n {
                    bp.set(i, j, b[i] * (j + 1) as f64);
                }
            }
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for omega in [1.0, 1.3] {
                let scalar = |sweep| {
                    let mut x = vec![0.0; n];
                    sor_sweep(&a, &diag, &b, &mut x, omega, sweep);
                    bits(&x)
                };
                let full = scalar(Sweep::Forward);
                assert_eq!(scalar(Sweep::FromZero), full, "scalar, omega {omega}");

                let mut scratch = MultiVec::zeros(1, k);
                let mut block = |sweep| {
                    let mut x = MultiVec::zeros(n, k);
                    sor_sweep_block(&a, &diag, &bp, &mut x, &mut scratch, omega, sweep);
                    bits(x.as_slice())
                };
                let full = block(Sweep::Forward);
                assert_eq!(block(Sweep::FromZero), full, "block, omega {omega}");
            }
        }
    }

    #[test]
    fn refresh_equals_rebuild_exactly_under_scaling() {
        // A power-of-two scaling leaves every float comparison of the
        // symbolic phase (strength tests, aggregation tie-breaks) exactly
        // invariant, so a fresh build chooses the identical skeleton and
        // refresh must match it bit for bit (shared numeric phase).
        let a = lap3d(7, 0.4);
        let mut m = AmgPrecond::new(&a, AmgOptions::default()).unwrap();
        let mut a2 = a.clone();
        a2.scale(2.0);
        m.refresh(&a2).unwrap();
        let fresh = AmgPrecond::new(&a2, AmgOptions::default()).unwrap();
        let n = a.n_rows();
        let r: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) - 4.0).collect();
        let mut z1 = vec![0.0; n];
        let mut z2 = vec![0.0; n];
        m.apply(&r, &mut z1);
        fresh.apply(&r, &mut z2);
        assert_eq!(z1, z2);
    }

    #[test]
    fn refresh_tracks_general_value_drift() {
        // Non-uniform drift may legitimately flip aggregation tie-breaks in
        // a from-scratch rebuild, so equality is up to the preconditioner
        // quality: the refreshed hierarchy must stay symmetric and agree
        // with the rebuilt one to a few percent, and PCG must converge
        // equally well with either.
        let a = lap3d(7, 0.4);
        let mut m = AmgPrecond::new(&a, AmgOptions::default()).unwrap();
        let mut a2 = a.clone();
        for (k, v) in a2.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + 1e-3 * (k % 7) as f64;
        }
        m.refresh(&a2).unwrap();
        let fresh = AmgPrecond::new(&a2, AmgOptions::default()).unwrap();
        let n = a.n_rows();
        let r: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) - 4.0).collect();
        let mut z1 = vec![0.0; n];
        let mut z2 = vec![0.0; n];
        m.apply(&r, &mut z1);
        fresh.apply(&r, &mut z2);
        let scale = vector::norm_inf(&z2).max(1e-30);
        assert!(
            vector::max_abs_diff(&z1, &z2) < 0.05 * scale,
            "refreshed and rebuilt preconditioners diverged"
        );
        let b: Vec<f64> = (0..n).map(|i| ((i * 11 % 17) as f64) - 8.0).collect();
        let opts = CgOptions::with_tol(1e-10);
        let mut x1 = vec![0.0; n];
        let rep1 = pcg(&a2, &b, &mut x1, &m, &opts).unwrap();
        let mut x2 = vec![0.0; n];
        let rep2 = pcg(&a2, &b, &mut x2, &fresh, &opts).unwrap();
        assert!(rep1.converged && rep2.converged);
        assert!(
            rep1.iterations <= rep2.iterations + 3,
            "refreshed hierarchy lost quality: {} vs {}",
            rep1.iterations,
            rep2.iterations
        );
        assert!(vector::max_abs_diff(&x1, &x2) < 1e-7);
    }

    #[test]
    fn refresh_rejects_pattern_change() {
        let a = lap3d(5, 0.2);
        let mut m = AmgPrecond::new(&a, AmgOptions::default()).unwrap();
        assert!(matches!(
            m.refresh(&lap3d(6, 0.2)),
            Err(NumericsError::InvalidArgument(_))
        ));
    }

    #[test]
    fn rejects_invalid_smoother_parameters() {
        let a = lap3d(4, 0.3);
        for smoother in [
            AmgSmoother { omega: 0.0, sweeps: 1 },
            AmgSmoother { omega: 2.0, sweeps: 1 },
            AmgSmoother { omega: 1.0, sweeps: 0 },
        ] {
            let opts = AmgOptions { smoother, ..AmgOptions::default() };
            assert!(
                matches!(AmgPrecond::new(&a, opts), Err(NumericsError::InvalidArgument(_))),
                "{smoother:?} accepted"
            );
        }
    }

    #[test]
    fn rejects_bad_input() {
        let coo = Coo::new(2, 3);
        assert!(AmgPrecond::new(&Csr::from_coo(&coo), AmgOptions::default()).is_err());
        // Non-positive diagonal.
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, -1.0);
        assert!(AmgPrecond::new(
            &Csr::from_coo(&coo),
            AmgOptions {
                coarse_max: 1,
                ..AmgOptions::default()
            }
        )
        .is_err());
    }
}
