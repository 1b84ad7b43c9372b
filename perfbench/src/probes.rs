//! FIT and numerics probes on a proxy thermal matrix.
//!
//! The proxy is one implicit-Euler thermal step matrix
//! `K = Gᵀ M_λ(T) G + M_ρc / Δt` on the workload's own grid (grid nodes
//! only, no wires), assembled through the public `etherm_grid::operators`
//! and `etherm_fit::matrices` functions. Its size and sparsity are those of
//! the workload's thermal system, so the kernel timings below are the ones
//! the workload's solves pay per call.
//!
//! Bytes moved are computed from array sizes (values and `usize` column
//! indices of the matrix, row pointers, input and output vectors); cache
//! hits are ignored. Reference machine: 2 cores, L2 2 MiB per core, L3
//! 300 MiB shared — every working set here is cache-resident, so the GB/s
//! figures are cache bandwidths, never DRAM bandwidth. A STREAM-style copy
//! is sized to each kernel's working set, so `spmv_of_copy` and
//! `spmm_of_copy` compare like with like.

use crate::report::Report;
use crate::stats::median;
use etherm_core::ElectrothermalModel;
use etherm_fit::joule::joule_heat_cell_based;
use etherm_fit::matrices::{
    cell_property, cell_temperatures, edge_material_diagonal, node_capacitance_diagonal, Property,
};
use etherm_grid::operators::assemble_stiffness;
use etherm_numerics::solvers::{
    pcg_with, AmgOptions, AmgPrecond, CgOptions, KrylovWorkspace, Preconditioner,
};
use etherm_numerics::{Csr, MultiVec};
use std::hint::black_box;
use std::time::Instant;

/// Panel width of the SpMM probe (the campaign's batch width).
pub const SPMM_K: usize = 8;

/// Seconds spent timing each probe.
const PROBE_BUDGET_S: f64 = 0.15;

/// Median seconds per call of `f`, from batches of calls spanning at least
/// 0.5 ms each within [`PROBE_BUDGET_S`].
fn time_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let mut reps = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        if t.elapsed().as_secs_f64() >= 5e-4 || reps >= 1 << 20 {
            break;
        }
        reps *= 2;
    }
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 5 || start.elapsed().as_secs_f64() < PROBE_BUDGET_S {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        per_call.push(t.elapsed().as_secs_f64() / reps as f64);
    }
    median(&per_call)
}

/// Bytes one `y = A·X` traversal moves for an `n`-row panel of width `k`
/// (computed: matrix values + column indices + row pointers + X + Y).
fn spmm_bytes(a: &Csr, k: usize) -> f64 {
    let n = a.n_rows() as f64;
    let nnz = a.nnz() as f64;
    let word = std::mem::size_of::<f64>() as f64;
    let index = std::mem::size_of::<usize>() as f64;
    nnz * (word + index) + (n + 1.0) * index + 2.0 * n * k as f64 * word
}

/// GB/s of a STREAM-style copy moving `bytes` (half read, half written).
fn copy_gbs(bytes: f64) -> f64 {
    let len = (bytes / 16.0).ceil() as usize;
    let src = vec![1.5f64; len];
    let mut dst = vec![0.0f64; len];
    let s = time_per_call(|| {
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
    });
    16.0 * len as f64 / s * 1e-9
}

/// Assembles the proxy matrix and times the FIT assembly and Joule kernels
/// and the numerics kernels on it, pushing `fit.*` and `numerics.*`
/// metrics.
///
/// # Panics
///
/// Panics if the proxy matrix cannot be preconditioned or solved — it is
/// SPD by construction.
pub fn run(model: &ElectrothermalModel, dt: f64, report: &mut Report) {
    let grid = model.grid();
    let paint = model.paint();
    let table = model.materials();
    let n = grid.n_nodes();
    // A smooth temperature field around ambient, so λ(T) is evaluated off
    // its reference point.
    let ambient = model.ambient();
    let t_nodes: Vec<f64> = (0..n)
        .map(|i| {
            let (x, y, z) = grid.node_position(i);
            ambient + 50.0 * (1.0 + (3e3 * x).sin() * (2e3 * y).cos()) + 1e4 * z
        })
        .collect();
    let capacity = node_capacitance_diagonal(grid, paint, table);
    let mass: Vec<f64> = capacity.iter().map(|c| c / dt).collect();
    let assemble = || {
        let cell_t = cell_temperatures(grid, &t_nodes);
        let lambda = cell_property(grid, paint, table, &cell_t, Property::Thermal);
        let m = edge_material_diagonal(grid, &lambda);
        let mut k = assemble_stiffness(grid, &m);
        k.add_diag(&mass);
        k
    };
    let k = assemble();
    report.push(
        "fit.assemble_ms",
        time_per_call(|| drop(black_box(assemble()))) * 1e3,
        "ms",
    );

    let cell_t = cell_temperatures(grid, &t_nodes);
    let sigma = cell_property(grid, paint, table, &cell_t, Property::Electrical);
    let (x0, x1) = (grid.x().coord(0), grid.x().coord(grid.x().n_nodes() - 1));
    let phi: Vec<f64> = (0..n)
        .map(|i| 0.02 * (grid.node_position(i).0 - x0) / (x1 - x0))
        .collect();
    report.push(
        "fit.joule_ms",
        time_per_call(|| drop(black_box(joule_heat_cell_based(grid, &sigma, &phi)))) * 1e3,
        "ms",
    );

    // SpMV and the STREAM-style copy over the same number of bytes.
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    let mut y = vec![0.0; n];
    let spmv_s = time_per_call(|| {
        k.spmv(black_box(&x), &mut y);
        black_box(&y);
    });
    let spmv_bytes = spmm_bytes(&k, 1);
    let spmv_gbs = spmv_bytes / spmv_s * 1e-9;
    let copy_spmv_gbs = copy_gbs(spmv_bytes);
    report.push("numerics.spmv_us", spmv_s * 1e6, "us");
    report.push("numerics.spmv_gbs", spmv_gbs, "GB/s");
    report.push(
        "numerics.spmv_flop_per_byte",
        2.0 * k.nnz() as f64 / spmv_bytes,
        "flop/B",
    );
    report.push("numerics.copy_gbs", copy_spmv_gbs, "GB/s");
    report.push("numerics.spmv_of_copy", spmv_gbs / copy_spmv_gbs, "ratio");

    let mut xs = MultiVec::zeros(n, SPMM_K);
    for (i, v) in xs.as_mut_slice().iter_mut().enumerate() {
        *v = 1.0 + (i % 11) as f64 * 0.05;
    }
    let mut ys = MultiVec::zeros(n, SPMM_K);
    let spmm_s = time_per_call(|| {
        k.spmm_into(black_box(&xs), &mut ys);
        black_box(&ys);
    });
    let spmm_bytes = spmm_bytes(&k, SPMM_K);
    let spmm_gbs = spmm_bytes / spmm_s * 1e-9;
    report.push("numerics.spmm_us", spmm_s * 1e6, "us");
    report.push("numerics.spmm_gbs", spmm_gbs, "GB/s");
    report.push(
        "numerics.spmm_of_copy",
        spmm_gbs / copy_gbs(spmm_bytes),
        "ratio",
    );
    report.push(
        "numerics.spmm_flop_per_byte",
        2.0 * (k.nnz() * SPMM_K) as f64 / spmm_bytes,
        "flop/B",
    );

    let amg_build_s = time_per_call(|| {
        drop(black_box(
            AmgPrecond::new(&k, AmgOptions::default()).expect("amg builds"),
        ));
    });
    let mut amg = AmgPrecond::new(&k, AmgOptions::default()).expect("amg builds");
    let amg_refresh_s = time_per_call(|| amg.refresh(black_box(&k)).expect("amg refreshes"));
    let r = x.clone();
    let mut z = vec![0.0; n];
    let amg_apply_s = time_per_call(|| {
        amg.apply(black_box(&r), &mut z);
        black_box(&z);
    });
    report.push("numerics.amg_build_ms", amg_build_s * 1e3, "ms");
    report.push("numerics.amg_refresh_ms", amg_refresh_s * 1e3, "ms");
    report.push("numerics.amg_apply_us", amg_apply_s * 1e6, "us");

    let b = k.matvec(&x);
    let options = CgOptions::with_tol(1e-9);
    let mut ws = KrylovWorkspace::new();
    let mut iters = 0;
    let pcg_s = time_per_call(|| {
        let mut sol = vec![0.0; n];
        let rep = pcg_with(&k, &b, &mut sol, &amg, &options, &mut ws).expect("pcg converges");
        iters = rep.iterations;
    });
    report.push("numerics.pcg_iters", iters as f64, "count");
    report.push("numerics.pcg_ms", pcg_s * 1e3, "ms");
}
