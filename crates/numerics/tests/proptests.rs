//! Property-based tests for the numerics crate.

use etherm_numerics::dense::DenseMatrix;
use etherm_numerics::interp::{Extrapolate, LinearInterp, PchipInterp};
use etherm_numerics::quadrature::QuadratureRule;
use etherm_numerics::solvers::{
    block_pcg_with, cg, pcg, pcg_with, solve_tridiagonal, AmgOptions, AmgPrecond,
    BlockKrylovWorkspace, CgOptions, IncompleteCholesky, JacobiPrecond, KrylovWorkspace,
    SolveReport,
};
use etherm_numerics::sparse::{BlockLinOp, Coo, Csr, CsrBatch};
use etherm_numerics::{vector, MultiVec};
use proptest::prelude::*;

/// Strategy: a random SPD matrix built as `B Bᵀ + n·I` from a random square B.
fn spd_matrix(n: usize) -> impl Strategy<Value = DenseMatrix> {
    proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let mut b = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                b[(i, j)] = data[i * n + j];
            }
        }
        let bt = b.transpose();
        let mut a = b.matmul(&bt).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    })
}

fn dense_to_csr(a: &DenseMatrix) -> Csr {
    let mut coo = Coo::new(a.rows(), a.cols());
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            coo.push(i, j, a[(i, j)]);
        }
    }
    Csr::from_coo(&coo)
}

proptest! {
    #[test]
    fn dot_is_commutative(x in proptest::collection::vec(-1e3f64..1e3, 1..64)) {
        let y: Vec<f64> = x.iter().rev().cloned().collect();
        let d1 = vector::dot(&x, &y);
        let d2 = vector::dot(&y, &x);
        prop_assert!((d1 - d2).abs() <= 1e-9 * d1.abs().max(1.0));
    }

    #[test]
    fn norm_triangle_inequality(
        x in proptest::collection::vec(-1e3f64..1e3, 1..64),
    ) {
        let y: Vec<f64> = x.iter().map(|v| v * 0.5 - 1.0).collect();
        let sum: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        prop_assert!(vector::norm2(&sum) <= vector::norm2(&x) + vector::norm2(&y) + 1e-9);
    }

    #[test]
    fn csr_roundtrip_matches_dense(
        entries in proptest::collection::vec((0usize..8, 0usize..8, -10.0f64..10.0), 0..64),
    ) {
        let mut coo = Coo::new(8, 8);
        let mut dense = DenseMatrix::zeros(8, 8);
        for &(i, j, v) in &entries {
            coo.push(i, j, v);
            dense[(i, j)] += if v == 0.0 { 0.0 } else { v };
        }
        let csr = Csr::from_coo(&coo);
        let back = csr.to_dense();
        prop_assert!(dense.max_abs_diff(&back) < 1e-12);
    }

    #[test]
    fn spmv_is_linear(
        entries in proptest::collection::vec((0usize..6, 0usize..6, -10.0f64..10.0), 1..30),
        x in proptest::collection::vec(-5.0f64..5.0, 6),
        y in proptest::collection::vec(-5.0f64..5.0, 6),
        alpha in -3.0f64..3.0,
    ) {
        let mut coo = Coo::new(6, 6);
        for &(i, j, v) in &entries {
            coo.push(i, j, v);
        }
        let a = Csr::from_coo(&coo);
        // A(x + αy) == Ax + αAy
        let mut xy = vec![0.0; 6];
        for i in 0..6 {
            xy[i] = x[i] + alpha * y[i];
        }
        let lhs = a.matvec(&xy);
        let ax = a.matvec(&x);
        let ay = a.matvec(&y);
        for i in 0..6 {
            let rhs = ax[i] + alpha * ay[i];
            prop_assert!((lhs[i] - rhs).abs() < 1e-9 * rhs.abs().max(1.0));
        }
    }

    #[test]
    fn transpose_preserves_entries(
        entries in proptest::collection::vec((0usize..7, 0usize..5, -10.0f64..10.0), 0..40),
    ) {
        let mut coo = Coo::new(7, 5);
        for &(i, j, v) in &entries {
            coo.push(i, j, v);
        }
        let a = Csr::from_coo(&coo);
        let t = a.transpose();
        for i in 0..7 {
            for j in 0..5 {
                prop_assert_eq!(a.get(i, j), t.get(j, i));
            }
        }
    }

    #[test]
    fn cg_solves_random_spd(a in spd_matrix(10), bvec in proptest::collection::vec(-10.0f64..10.0, 10)) {
        let csr = dense_to_csr(&a);
        let mut x = vec![0.0; 10];
        let rep = cg(&csr, &bvec, &mut x, &CgOptions::with_tol(1e-12)).unwrap();
        prop_assert!(rep.converged);
        let mut r = vec![0.0; 10];
        csr.residual(&bvec, &x, &mut r);
        prop_assert!(vector::norm2(&r) <= 1e-8 * vector::norm2(&bvec).max(1.0));
    }

    #[test]
    fn pcg_agrees_with_lu(a in spd_matrix(8), bvec in proptest::collection::vec(-10.0f64..10.0, 8)) {
        let csr = dense_to_csr(&a);
        let mut x = vec![0.0; 8];
        let ic = IncompleteCholesky::new(&csr).unwrap();
        let rep = pcg(&csr, &bvec, &mut x, &ic, &CgOptions::with_tol(1e-13)).unwrap();
        prop_assert!(rep.converged);
        let x_lu = a.solve(&bvec).unwrap();
        prop_assert!(vector::max_abs_diff(&x, &x_lu) < 1e-6);
    }

    #[test]
    fn jacobi_preconditioned_cg_converges(a in spd_matrix(12)) {
        let csr = dense_to_csr(&a);
        let b = vec![1.0; 12];
        let mut x = vec![0.0; 12];
        let j = JacobiPrecond::new(&csr).unwrap();
        let rep = pcg(&csr, &b, &mut x, &j, &CgOptions::default()).unwrap();
        prop_assert!(rep.converged);
    }

    #[test]
    fn lu_solve_then_matvec_roundtrips(a in spd_matrix(9), x_true in proptest::collection::vec(-5.0f64..5.0, 9)) {
        let b = a.matvec(&x_true);
        let x = a.solve(&b).unwrap();
        prop_assert!(vector::max_abs_diff(&x, &x_true) < 1e-6);
    }

    #[test]
    fn cholesky_matches_lu_on_spd(a in spd_matrix(7), bvec in proptest::collection::vec(-5.0f64..5.0, 7)) {
        let x_lu = a.solve(&bvec).unwrap();
        let x_ch = a.cholesky().unwrap().solve(&bvec);
        prop_assert!(vector::max_abs_diff(&x_lu, &x_ch) < 1e-8);
    }

    #[test]
    fn tridiagonal_matches_dense(
        n in 2usize..10,
        seed in proptest::collection::vec(0.1f64..2.0, 30),
    ) {
        let diag: Vec<f64> = (0..n).map(|i| 4.0 + seed[i]).collect();
        let lower: Vec<f64> = (0..n - 1).map(|i| -seed[i + 10]).collect();
        let upper: Vec<f64> = (0..n - 1).map(|i| -seed[i + 20]).collect();
        let rhs: Vec<f64> = (0..n).map(|i| seed[i] * 3.0 - 1.0).collect();
        let x = solve_tridiagonal(&lower, &diag, &upper, &rhs).unwrap();
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = diag[i];
        }
        for i in 0..n - 1 {
            a[(i + 1, i)] = lower[i];
            a[(i, i + 1)] = upper[i];
        }
        let xd = a.solve(&rhs).unwrap();
        prop_assert!(vector::max_abs_diff(&x, &xd) < 1e-9);
    }

    #[test]
    fn row_sums_match_matvec_of_ones(
        entries in proptest::collection::vec((0usize..5, 0usize..5, -10.0f64..10.0), 0..25),
    ) {
        let mut coo = Coo::new(5, 5);
        for &(i, j, v) in &entries {
            coo.push(i, j, v);
        }
        let a = Csr::from_coo(&coo);
        let ones = vec![1.0; 5];
        let av = a.matvec(&ones);
        let rs = a.row_sums();
        for i in 0..5 {
            prop_assert!((av[i] - rs[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn gauss_legendre_is_exact_on_random_cubics(
        n in 2usize..24,
        c in proptest::collection::vec(-5.0f64..5.0, 4),
    ) {
        let rule = QuadratureRule::gauss_legendre(n).unwrap();
        let got = rule.integrate(|x| c[0] + c[1] * x + c[2] * x * x + c[3] * x * x * x);
        // ∫_{-1}^{1}: odd terms vanish, c0·2 + c2·2/3.
        let want = 2.0 * c[0] + 2.0 / 3.0 * c[2];
        prop_assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn gauss_hermite_weights_positive_and_nodes_symmetric(n in 1usize..48) {
        let rule = QuadratureRule::gauss_hermite(n).unwrap();
        prop_assert!(rule.weights().iter().all(|&w| w > 0.0));
        let x = rule.nodes();
        for i in 0..n {
            prop_assert!((x[i] + x[n - 1 - i]).abs() < 1e-10);
        }
        let total: f64 = rule.weights().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn pchip_stays_within_data_hull_on_monotone_tables(
        raw in proptest::collection::vec(0.01f64..5.0, 3..12),
    ) {
        // Build a strictly increasing table by cumulative sums.
        let mut xs = vec![0.0];
        let mut ys = vec![1.0];
        for (k, &dv) in raw.iter().enumerate() {
            xs.push(xs[k] + 0.5 + dv * 0.1);
            ys.push(ys[k] + dv);
        }
        let f = PchipInterp::new(xs.clone(), ys.clone(), Extrapolate::Clamp).unwrap();
        let (lo, hi) = (ys[0], *ys.last().unwrap());
        for i in 0..=100 {
            let t = xs[0] + (xs[xs.len() - 1] - xs[0]) * i as f64 / 100.0;
            let v = f.eval(t);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "t={t}: {v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn linear_interp_is_exact_on_affine_data(
        n in 2usize..10,
        a in -3.0f64..3.0,
        b in -3.0f64..3.0,
    ) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| a * x + b).collect();
        let f = LinearInterp::new(xs, ys, Extrapolate::Linear).unwrap();
        for i in 0..40 {
            let t = -2.0 + i as f64 * 0.3;
            prop_assert!((f.eval(t) - (a * t + b)).abs() < 1e-9);
        }
    }

    #[test]
    fn amg_galerkin_coarse_operator_is_symmetric_spd_shaped(
        a in spd_matrix(9),
        theta in 0.0f64..0.3,
    ) {
        // The Galerkin product Pᵀ·A·P of a random SPD matrix must stay
        // symmetric with a nonnegative diagonal on every coarse level.
        let csr = dense_to_csr(&a);
        let opts = AmgOptions {
            strength_theta: theta,
            coarse_max: 2,
            ..AmgOptions::default()
        };
        let m = AmgPrecond::new(&csr, opts).unwrap();
        for l in 1..m.n_levels() {
            let ac = m.level_matrix(l);
            let scale = ac.norm_inf().max(1e-30);
            prop_assert!(ac.is_symmetric(1e-12 * scale), "level {} not symmetric", l);
            for i in 0..ac.n_rows() {
                let d = ac.get(i, i);
                prop_assert!(d.is_finite() && d >= 0.0, "level {} diag {} = {}", l, i, d);
            }
        }
        // And the V-cycle still solves the system as a preconditioner.
        let n = csr.n_rows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut x = vec![0.0; n];
        let report = pcg(&csr, &b, &mut x, &m, &CgOptions::default()).unwrap();
        prop_assert!(report.converged);
        let mut r = vec![0.0; n];
        csr.residual(&b, &x, &mut r);
        prop_assert!(vector::norm2(&r) <= 1e-7 * vector::norm2(&b));
    }

    #[test]
    fn block_pcg_k1_is_bit_identical_to_scalar_pcg(
        a in spd_matrix(10),
        bvec in proptest::collection::vec(-10.0f64..10.0, 10),
    ) {
        // The k=1 degenerate panel must reproduce the scalar solver bit for
        // bit — same iterates, same residuals, same solution words — for
        // arbitrary SPD systems, not just the hand-picked unit-test one.
        let csr = dense_to_csr(&a);
        let n = csr.n_rows();
        let jac = JacobiPrecond::new(&csr).unwrap();
        let opts = CgOptions::with_tol(1e-12);

        let mut x_scalar = vec![0.0; n];
        let mut ws = KrylovWorkspace::new();
        let rep = pcg_with(&csr, &bvec, &mut x_scalar, &jac, &opts, &mut ws).unwrap();

        let mut b_panel = MultiVec::zeros(n, 1);
        b_panel.copy_col_from(0, &bvec);
        let mut x_panel = MultiVec::zeros(n, 1);
        let mut bws = BlockKrylovWorkspace::new();
        let mut reports: Vec<SolveReport> = Vec::new();
        let op = CsrBatch::new(vec![&csr]);
        block_pcg_with(&op, &b_panel, &mut x_panel, &jac, &opts, &mut bws, &mut reports).unwrap();

        prop_assert_eq!(reports[0].converged, rep.converged);
        prop_assert_eq!(reports[0].iterations, rep.iterations);
        prop_assert_eq!(reports[0].residual.to_bits(), rep.residual.to_bits());
        let x_col = x_panel.col_vec(0);
        for i in 0..n {
            prop_assert_eq!(x_col[i].to_bits(), x_scalar[i].to_bits());
        }
    }

    #[test]
    fn fused_spmm_dot_is_bit_identical_to_separate_passes(
        entries in proptest::collection::vec((0usize..24, 0usize..24, -10.0f64..10.0), 1..200),
        k in 1usize..20,
    ) {
        // The serial packed kernel that folds the per-column pᵀAp dots into
        // the matrix traversal must agree bitwise with apply-then-dot: it
        // claims the identical four-lane reduction order, so any deviation
        // is a bug, not rounding.
        let mut coo = Coo::new(24, 24);
        for &(i, j, v) in &entries {
            coo.push(i, j, v);
        }
        let a = Csr::from_coo(&coo);
        let mats: Vec<&Csr> = vec![&a; k];
        let mut packed = Vec::new();
        Csr::pack_batch_values(&mats, &mut packed);
        let op = CsrBatch::from_packed(&a, &packed[..a.nnz() * k]);
        let mut x = MultiVec::zeros(24, k);
        for c in 0..k {
            for i in 0..24 {
                x.set(i, c, ((i * 11 + c * 5) % 31) as f64 - 15.0);
            }
        }
        let mut y_sep = MultiVec::zeros(24, k);
        let mut y_fused = MultiVec::zeros(24, k);
        let mut lanes = vec![0.0; 5 * k];
        let mut dots_fused = vec![0.0; k];
        op.apply_block_into(&x, &mut y_sep);
        op.apply_block_dot_into(&x, &mut y_fused, &mut lanes, &mut dots_fused);
        for (s, f) in y_sep.as_slice().iter().zip(y_fused.as_slice()) {
            prop_assert_eq!(s.to_bits(), f.to_bits());
        }
        // Reference dots in the documented lane order: the scalar
        // vector::dot of each column pair.
        for c in 0..k {
            let reference = vector::dot(&x.col_vec(c), &y_sep.col_vec(c));
            prop_assert_eq!(dots_fused[c].to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn block_pcg_columns_are_independent_of_panel_packing(
        a in spd_matrix(9),
        rhs in proptest::collection::vec(-10.0f64..10.0, 27),
        perm_seed in 0usize..6,
    ) {
        // Per-column convergence masks mean a column's iterates never read a
        // peer column: permuting the packing order must permute the outputs
        // bitwise, nothing more.
        let csr = dense_to_csr(&a);
        let n = csr.n_rows();
        let k = 3;
        let jac = JacobiPrecond::new(&csr).unwrap();
        let opts = CgOptions::with_tol(1e-12);
        // One of the six permutations of three columns.
        let perms = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let perm = perms[perm_seed];

        let solve = |order: &[usize]| {
            let mut b = MultiVec::zeros(n, k);
            for (slot, &col) in order.iter().enumerate() {
                b.copy_col_from(slot, &rhs[col * n..(col + 1) * n]);
            }
            let mut x = MultiVec::zeros(n, k);
            let mut ws = BlockKrylovWorkspace::new();
            let mut reports: Vec<SolveReport> = Vec::new();
            let op = CsrBatch::new(vec![&csr; k]);
            block_pcg_with(&op, &b, &mut x, &jac, &opts, &mut ws, &mut reports).unwrap();
            (x, reports)
        };

        let (x_id, rep_id) = solve(&[0, 1, 2]);
        let (x_pm, rep_pm) = solve(&perm);
        for (slot, &col) in perm.iter().enumerate() {
            prop_assert_eq!(rep_pm[slot].iterations, rep_id[col].iterations);
            prop_assert_eq!(rep_pm[slot].residual.to_bits(), rep_id[col].residual.to_bits());
            let (xs, xc) = (x_pm.col_vec(slot), x_id.col_vec(col));
            for i in 0..n {
                prop_assert_eq!(xs[i].to_bits(), xc[i].to_bits());
            }
        }
    }
}
