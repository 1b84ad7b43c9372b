//! Proves the Krylov hot path is allocation-free after warm-up.
//!
//! A counting global allocator tracks per-thread heap allocations; after a
//! first (warming) solve populated the [`KrylovWorkspace`] and the
//! preconditioner, subsequent `pcg_with` calls on the same workspace must
//! not touch the heap at all.

use etherm_numerics::solvers::{
    pcg_with, AmgOptions, AmgPrecond, CgOptions, IncompleteCholesky, JacobiPrecond,
    KrylovWorkspace, Preconditioner,
};
use etherm_numerics::sparse::{Coo, Csr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: a pure pass-through to `System`, which upholds the `GlobalAlloc`
// contract; the only added behavior is bumping a thread-local counter,
// which neither allocates nor unwinds, so every contract obligation
// (validity of returned pointers, layout handling) is inherited unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System.alloc` with the caller's layout; the
    // caller guarantees `layout` has non-zero size, as required by both.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: delegates to `System.alloc_zeroed` under the same caller
    // obligations as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    // SAFETY: delegates to `System.realloc`; the caller guarantees `ptr`
    // was allocated by this allocator with `layout` (and this allocator is
    // `System` plus counting), and that `new_size` is non-zero.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: delegates to `System.dealloc`; the caller guarantees `ptr`
    // came from this allocator with this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_COUNT.with(|c| c.get())
}

/// 3D 7-point Laplacian plus a mass term — the shape of the transient
/// thermal systems.
fn lap3d(nx: usize) -> Csr {
    let n = nx * nx * nx;
    let idx = |i: usize, j: usize, k: usize| (i * nx + j) * nx + k;
    let mut coo = Coo::new(n, n);
    for i in 0..nx {
        for j in 0..nx {
            for k in 0..nx {
                let p = idx(i, j, k);
                coo.push(p, p, 6.5);
                if i + 1 < nx {
                    coo.push(p, idx(i + 1, j, k), -1.0);
                    coo.push(idx(i + 1, j, k), p, -1.0);
                }
                if j + 1 < nx {
                    coo.push(p, idx(i, j + 1, k), -1.0);
                    coo.push(idx(i, j + 1, k), p, -1.0);
                }
                if k + 1 < nx {
                    coo.push(p, idx(i, j, k + 1), -1.0);
                    coo.push(idx(i, j, k + 1), p, -1.0);
                }
            }
        }
    }
    Csr::from_coo(&coo)
}

#[test]
fn pcg_is_allocation_free_after_warmup() {
    let a = lap3d(8);
    let n = a.n_rows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
    let opts = CgOptions::with_tol(1e-10);
    let mut ws = KrylovWorkspace::new();

    for precond_name in ["ic1", "jacobi"] {
        // Build preconditioners outside the counted region (construction may
        // allocate; refresh and apply must not).
        let ic = IncompleteCholesky::with_fill(&a, 1).unwrap();
        let jac = JacobiPrecond::new(&a).unwrap();

        // Warm-up solve sizes the workspace.
        let mut x = vec![0.0; n];
        pcg_with(&a, &b, &mut x, &ic, &opts, &mut ws).unwrap();

        let before = allocations();
        let mut solved = 0;
        for _ in 0..3 {
            x.fill(0.0);
            let rep = match precond_name {
                "ic1" => pcg_with(&a, &b, &mut x, &ic, &opts, &mut ws).unwrap(),
                _ => pcg_with(&a, &b, &mut x, &jac, &opts, &mut ws).unwrap(),
            };
            assert!(rep.converged);
            solved += rep.iterations;
        }
        assert!(solved > 0);
        assert_eq!(
            allocations() - before,
            0,
            "pcg with {precond_name} allocated on the warm path"
        );
    }
}

#[test]
fn preconditioner_refresh_is_allocation_free() {
    let a = lap3d(6);
    let mut a2 = a.clone();
    a2.scale(1.5);
    let mut ic = IncompleteCholesky::with_fill(&a, 1).unwrap();
    let mut jac = JacobiPrecond::new(&a).unwrap();

    let before = allocations();
    ic.refresh(&a2).unwrap();
    jac.refresh(&a2).unwrap();
    assert_eq!(allocations() - before, 0, "refresh allocated");
}

#[test]
fn amg_apply_and_refresh_are_allocation_free_after_warmup() {
    let a = lap3d(8);
    let n = a.n_rows();
    let mut amg = AmgPrecond::new(&a, AmgOptions::default()).unwrap();
    let mut a2 = a.clone();
    a2.scale(1.25);

    // Warm-up: one V-cycle (the per-level scratch is sized at construction,
    // so even this first apply must not allocate — included in the counted
    // region below together with a numeric-only refresh).
    let r: Vec<f64> = (0..n).map(|i| ((i * 7 % 19) as f64) - 9.0).collect();
    let mut z = vec![0.0; n];

    let before = allocations();
    amg.apply(&r, &mut z);
    amg.refresh(&a2).unwrap();
    amg.apply(&r, &mut z);
    assert_eq!(
        allocations() - before,
        0,
        "amg V-cycle or refresh allocated"
    );

    // And the full PCG hot path with the AMG preconditioner stays clean.
    let opts = CgOptions::with_tol(1e-10);
    let mut ws = KrylovWorkspace::new();
    let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
    let mut x = vec![0.0; n];
    pcg_with(&a2, &b, &mut x, &amg, &opts, &mut ws).unwrap();
    let before = allocations();
    x.fill(0.0);
    let rep = pcg_with(&a2, &b, &mut x, &amg, &opts, &mut ws).unwrap();
    assert!(rep.converged && rep.iterations > 0);
    assert_eq!(allocations() - before, 0, "pcg with amg allocated");
}

#[test]
fn block_path_is_allocation_free_after_warmup() {
    // The PR-8 contract: the whole multi-RHS chain — fused SpMM panels,
    // batched preconditioner application (including the AMG V-cycle), and
    // the interleaved block PCG — never touches the heap once the panel
    // workspace is sized.
    use etherm_numerics::solvers::{block_pcg_with, BlockKrylovWorkspace, SolveReport};
    use etherm_numerics::sparse::CsrBatch;
    use etherm_numerics::MultiVec;

    let a = lap3d(8);
    let n = a.n_rows();
    let k = 8;

    // k same-pattern matrices with distinct values (the ensemble shape).
    let mats_owned: Vec<Csr> = (0..k)
        .map(|j| {
            let mut m = a.clone();
            m.scale(1.0 + 0.05 * j as f64);
            m
        })
        .collect();
    let mats: Vec<&Csr> = mats_owned.iter().collect();

    let mut b = MultiVec::zeros(n, k);
    for j in 0..k {
        for i in 0..n {
            b.set(i, j, ((i * 13 % 17) as f64) - 8.0 + j as f64);
        }
    }
    let mut x = MultiVec::zeros(n, k);
    let mut y = MultiVec::zeros(n, k);

    // Preconditioners and the batched operator are built outside the
    // counted region (construction may allocate; apply must not).
    let jac = JacobiPrecond::new(&mats_owned[0]).unwrap();
    let ic = IncompleteCholesky::with_fill(&mats_owned[0], 1).unwrap();
    let amg = AmgPrecond::new(&mats_owned[0], AmgOptions::default()).unwrap();
    let op = CsrBatch::new(mats.clone());
    // The session hot loop re-packs per solve into a cached buffer and
    // borrows it; warm it once here so the counted re-pack is steady-state.
    let mut packed = Vec::new();
    Csr::pack_batch_values(&mats, &mut packed);

    let opts = CgOptions::with_tol(1e-10);
    let mut ws = BlockKrylovWorkspace::new();
    let mut reports: Vec<SolveReport> = Vec::new();

    // Warm-up sizes the panel workspace (and, for AMG, the per-level
    // block scratch) and the reports vector.
    block_pcg_with(&op, &b, &mut x, &amg, &opts, &mut ws, &mut reports).unwrap();

    // Fused SpMM (shared-matrix and batched), the per-solve value re-pack
    // into the warm cached buffer, and the borrowing operator constructor.
    let before = allocations();
    a.spmm_into(&b, &mut y);
    Csr::spmm_batch_into(&mats, &b, &mut y);
    Csr::pack_batch_values(&mats, &mut packed);
    let op_packed = CsrBatch::from_packed(&mats_owned[0], &packed);
    assert_eq!(op_packed.width(), k);
    assert_eq!(allocations() - before, 0, "fused spmm or value re-pack allocated");

    // Batched preconditioner application, all three kinds.
    let before = allocations();
    jac.apply_block(&b, &mut y);
    ic.apply_block(&b, &mut y);
    amg.apply_block(&b, &mut y);
    assert_eq!(
        allocations() - before,
        0,
        "batched preconditioner apply allocated"
    );

    // The full block PCG hot path on the warmed workspace.
    let before = allocations();
    let mut solved = 0;
    for _ in 0..3 {
        x.fill(0.0);
        block_pcg_with(&op, &b, &mut x, &amg, &opts, &mut ws, &mut reports).unwrap();
        assert!(reports.iter().all(|r| r.converged));
        solved += reports.iter().map(|r| r.iterations).sum::<usize>();
    }
    assert!(solved > 0);
    assert_eq!(allocations() - before, 0, "block pcg allocated on warm path");
}
