//! Reusable scratch buffers for the Krylov solvers.

use crate::multivec::MultiVec;

/// Scratch vectors for [`pcg_with`](crate::solvers::pcg_with), reusable
/// across solves.
///
/// The Picard/implicit-Euler hot path performs thousands of linear solves on
/// systems of identical size; handing the same workspace to every solve makes
/// the Krylov iterations allocation-free after the first call. Buffers are
/// grown on demand and never shrunk, so alternating between subsystems of
/// different sizes also settles into a steady state without reallocation.
#[derive(Debug, Clone, Default)]
pub struct KrylovWorkspace {
    /// Residual `r`.
    pub(super) r: Vec<f64>,
    /// Preconditioned residual `z`.
    pub(super) z: Vec<f64>,
    /// Search direction `p`.
    pub(super) p: Vec<f64>,
    /// Operator product `A·p`.
    pub(super) ap: Vec<f64>,
}

impl KrylovWorkspace {
    /// An empty workspace; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        KrylovWorkspace::default()
    }

    /// A workspace pre-sized for `n`-dimensional solves (the solver runs
    /// allocation-free from the very first call).
    pub fn with_dim(n: usize) -> Self {
        let mut ws = KrylovWorkspace::default();
        ws.ensure(n);
        ws
    }

    /// Current buffer dimension.
    pub fn dim(&self) -> usize {
        self.r.len()
    }

    /// Grows (never shrinks) every buffer to length `n`.
    pub(super) fn ensure(&mut self, n: usize) {
        for buf in [&mut self.r, &mut self.z, &mut self.p, &mut self.ap] {
            if buf.len() < n {
                buf.resize(n, 0.0);
            }
        }
    }
}

/// Scratch panels for [`block_pcg_with`](crate::solvers::block_pcg_with),
/// reusable across solves.
///
/// The block solver advances an `n × k` panel of right-hand sides per
/// iteration, so its scratch state is four [`MultiVec`] panels plus per-column
/// convergence bookkeeping. Panels grow on demand and never shrink
/// ([`MultiVec::ensure`]): reusing the workspace across same-shaped solves —
/// the batched ensemble hot path — is heap-allocation-free after warm-up,
/// matching the scalar [`KrylovWorkspace`] contract.
#[derive(Debug, Clone, Default)]
pub struct BlockKrylovWorkspace {
    /// Residual panel `R`.
    pub(super) r: MultiVec,
    /// Preconditioned residual panel `Z`.
    pub(super) z: MultiVec,
    /// Search direction panel `P`.
    pub(super) p: MultiVec,
    /// Operator product panel `A·P`.
    pub(super) ap: MultiVec,
    /// Per-column `rᵀz` inner products.
    pub(super) rz: Vec<f64>,
    /// Per-column convergence targets.
    pub(super) target: Vec<f64>,
    /// Per-column residual norms.
    pub(super) res: Vec<f64>,
    /// Per-column active masks (`false` once converged and deflated).
    pub(super) active: Vec<bool>,
    /// Per-column `pᵀAp` inner products (also reused for `bᵀb` / `rᵀz`).
    pub(super) pap: Vec<f64>,
    /// Per-column step lengths `α`.
    pub(super) alpha: Vec<f64>,
    /// Per-column update coefficients (`−α`, then `β`).
    pub(super) coef: Vec<f64>,
    /// Lane accumulators for the fused four-lane dot/norm reductions
    /// (four lanes plus a tail lane, `5·k` entries).
    pub(super) lanes: Vec<f64>,
}

impl BlockKrylovWorkspace {
    /// An empty workspace; panels are allocated lazily on first use.
    pub fn new() -> Self {
        BlockKrylovWorkspace::default()
    }

    /// A workspace pre-sized for `n × k` panel solves (the block solver runs
    /// allocation-free from the very first call).
    pub fn with_shape(n: usize, k: usize) -> Self {
        let mut ws = BlockKrylovWorkspace::default();
        ws.ensure(n, k);
        ws
    }

    /// Grows (never shrinks) every panel to `n × k` and the per-column
    /// bookkeeping to width `k`.
    pub(super) fn ensure(&mut self, n: usize, k: usize) {
        for panel in [&mut self.r, &mut self.z, &mut self.p, &mut self.ap] {
            panel.ensure(n, k);
        }
        for buf in [
            &mut self.rz,
            &mut self.target,
            &mut self.res,
            &mut self.pap,
            &mut self.alpha,
            &mut self.coef,
        ] {
            if buf.len() < k {
                buf.resize(k, 0.0);
            }
        }
        if self.active.len() < k {
            self.active.resize(k, false);
        }
        if self.lanes.len() < 5 * k {
            self.lanes.resize(5 * k, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_workspace_grows_and_never_shrinks() {
        let mut ws = BlockKrylovWorkspace::new();
        ws.ensure(10, 4);
        assert_eq!(ws.r.n_rows(), 10);
        assert_eq!(ws.r.n_cols(), 4);
        assert_eq!(ws.rz.len(), 4);
        assert_eq!(ws.active.len(), 4);
        ws.ensure(3, 2);
        assert_eq!(ws.rz.len(), 4, "bookkeeping never shrinks");
        let ws2 = BlockKrylovWorkspace::with_shape(5, 3);
        assert_eq!(ws2.ap.n_rows(), 5);
        assert_eq!(ws2.target.len(), 3);
    }

    #[test]
    fn ensure_grows_and_never_shrinks() {
        let mut ws = KrylovWorkspace::new();
        assert_eq!(ws.dim(), 0);
        ws.ensure(10);
        assert_eq!(ws.dim(), 10);
        ws.ensure(4);
        assert_eq!(ws.dim(), 10);
        let ws2 = KrylovWorkspace::with_dim(7);
        assert_eq!(ws2.dim(), 7);
    }
}
