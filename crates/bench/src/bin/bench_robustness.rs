//! **bench_robustness** — the solver-resilience gate: deterministic fault
//! injection against the recovery ladder and the quarantine policy, plus
//! the clean-path overhead budget of the whole machinery.
//!
//! Three campaigns on the paper package, all at tight tolerances:
//!
//! 1. `clean` — the same elongation campaign with recovery **disabled**
//!    (`SolverOptions::recovery = false`) and with the **default** ladder. No
//!    fault fires, so the ladder must never engage: the outputs are
//!    asserted bit-identical, and the wall-time overhead of carrying the
//!    resilience machinery is gated below 2 % (full profile; reported but
//!    not gated under `--quick`).
//! 2. `recoverable` — every sample carries a one-shot NaN or breakdown
//!    [`FaultPlan`] that corrupts an early linear solve. The retry rung
//!    restarts each poisoned solve from its saved initial guess, so the
//!    campaign must complete with **zero** quarantined samples, a non-zero
//!    recovery ledger, and QoIs bit-identical to the fault-free run.
//! 3. `quarantine` — `k` samples are poisoned with saturating NaN plans
//!    (every operator application corrupted: unrecoverable). Under
//!    `FailurePolicy::Quarantine` the campaign completes, reports exactly
//!    those `k` indices, leaves the surviving `n − k` samples bit-identical
//!    to the fault-free run, and the whole outcome (outputs, counters,
//!    failure list) is bit-identical for 1, 2 and 4 worker threads.
//!
//! Flags: `--samples M` / `--steps N` / `--repeats R` (wall-time best-of) /
//! `--seed S` / `--mesh-xy`, `--mesh-z` / `--quick` (CI smoke: tiny mesh,
//! overhead reported but not gated) / `--out PATH`.

use etherm_bench::{
    arg_f64, arg_flag, arg_usize, arg_value, flatten_wire_series, iid_inputs, RunRecord,
};
use etherm_core::{
    run_ensemble, CompiledModel, CoreError, EnsembleOptions, EnsembleResult, Fault, FailurePolicy,
    FaultKind, FaultPlan, Scenario, Session, SolverOptions,
};
use etherm_package::{
    build_model, paper_elongation_distribution, BuildOptions, PackageGeometry,
};
use etherm_uq::{draw_samples, MonteCarloSampler};
use std::sync::Arc;
use std::time::Instant;

/// Wraps a scenario with a per-sample-index [`FaultPlan`] table: the
/// injection side of the fault campaigns. Clean samples install `None`,
/// clearing whatever the previous sample on that worker left behind.
struct FaultCampaign<'a, S> {
    inner: &'a S,
    plans: Vec<Option<FaultPlan>>,
}

impl<S: Scenario> Scenario for FaultCampaign<'_, S> {
    fn apply(&self, session: &mut Session, sample: &[f64]) -> Result<(), CoreError> {
        self.inner.apply(session, sample)
    }
    fn apply_indexed(
        &self,
        session: &mut Session,
        sample: &[f64],
        index: usize,
    ) -> Result<(), CoreError> {
        session.set_fault_plan(self.plans.get(index).cloned().flatten());
        self.inner.apply(session, sample)
    }
    fn evaluate(&self, session: &mut Session) -> Result<Vec<f64>, CoreError> {
        self.inner.evaluate(session)
    }
}

fn main() {
    let quick = arg_flag("quick");
    let (default_xy, default_z, default_steps, default_samples) = if quick {
        (1.3e-3, 0.7e-3, 4, 8)
    } else {
        (0.9e-3, 0.5e-3, 10, 24)
    };
    let samples = arg_usize("samples", default_samples);
    let steps = arg_usize("steps", default_steps);
    let repeats = arg_usize("repeats", 3).max(1);
    let seed = arg_usize("seed", 2016) as u64;
    let mesh_xy = arg_f64("mesh-xy", default_xy);
    let mesh_z = arg_f64("mesh-z", default_z);
    let t_end = steps as f64;
    assert!(samples >= 6, "--samples must be >= 6 for the quarantine split");

    let build = BuildOptions {
        target_spacing_xy: mesh_xy,
        target_spacing_z: mesh_z,
        ..BuildOptions::paper_fig7()
    };
    let built = build_model(&PackageGeometry::paper(), &build).expect("package builds");
    let delta = paper_elongation_distribution();
    let dists = iid_inputs(&delta, 12);
    let mut gen = MonteCarloSampler::new(seed);
    let inputs = draw_samples(&mut gen, &dists, samples);

    let opts_default = SolverOptions::fast();
    let opts_disabled = SolverOptions {
        recovery: false,
        ..SolverOptions::fast()
    };
    let compiled_default: Arc<CompiledModel> =
        Arc::new(built.compile(opts_default.clone()).expect("compiles"));
    let compiled_disabled: Arc<CompiledModel> =
        Arc::new(built.compile(opts_disabled.clone()).expect("compiles"));
    let scenario = built.elongation_scenario(t_end, steps, flatten_wire_series);
    let dofs = compiled_default.layout().n_total();
    eprintln!(
        "bench_robustness: {samples}-sample campaign, {dofs} DoFs, {steps} steps over {t_end} s, \
         best of {repeats}"
    );

    let campaign = |compiled: &Arc<CompiledModel>, n_threads: usize| -> (EnsembleResult, f64) {
        let start = Instant::now();
        let r = run_ensemble(
            compiled,
            &scenario,
            &inputs,
            &EnsembleOptions {
                n_threads,
                ..EnsembleOptions::default()
            },
        )
        .expect("clean campaign");
        (r, start.elapsed().as_secs_f64())
    };

    // ---- 1. Clean campaign: ladder disabled vs default ------------------
    // Interleaved best-of-R walls so systematic machine drift hits both
    // configurations equally.
    let mut w_disabled = f64::INFINITY;
    let mut w_default = f64::INFINITY;
    let mut clean_disabled = None;
    let mut clean_default = None;
    for _ in 0..repeats {
        let (r, w) = campaign(&compiled_disabled, 1);
        w_disabled = w_disabled.min(w);
        clean_disabled = Some(r);
        let (r, w) = campaign(&compiled_default, 1);
        w_default = w_default.min(w);
        clean_default = Some(r);
    }
    let clean_disabled = clean_disabled.expect("repeats >= 1");
    let clean_default = clean_default.expect("repeats >= 1");
    assert_eq!(
        clean_default.outputs, clean_disabled.outputs,
        "a clean run must be bit-identical with and without the recovery ladder"
    );
    assert!(
        !clean_default.counters.recovery.any(),
        "the ladder engaged on a fault-free campaign: {:?}",
        clean_default.counters.recovery
    );
    let overhead = w_default / w_disabled - 1.0;
    eprintln!(
        "clean:        disabled {w_disabled:.2} s, default {w_default:.2} s \
         (overhead {:+.2} %)",
        overhead * 100.0
    );
    if !quick {
        assert!(
            overhead < 0.02,
            "recovery machinery costs {:.2} % on the clean path (gate: 2 %)",
            overhead * 100.0
        );
    }

    // ---- 2. Recoverable one-shot faults ---------------------------------
    // Every sample gets one early poisoned solve, alternating NaN
    // contamination and a symmetry-breaking sign flip. Both are one-shot:
    // the retry rung re-runs the solve from its saved initial guess against
    // the pristine operator, which must reproduce the fault-free QoIs bit
    // for bit. Sign flips are kept off apply 0: negating the initial
    // residual computation is *undetectable* (CG faithfully solves the
    // perturbed system) — the one fault class the guards intentionally
    // cannot see.
    let recoverable_plans: Vec<Option<FaultPlan>> = (0..samples)
        .map(|i| {
            let (kind, apply) = if i % 2 == 0 {
                (FaultKind::Nan, i % 3)
            } else {
                (FaultKind::Breakdown, 1 + i % 2)
            };
            Some(FaultPlan::new(vec![Fault {
                solve: i % 4,
                apply,
                kind,
            }]))
        })
        .collect();
    let faulty = FaultCampaign {
        inner: &scenario,
        plans: recoverable_plans,
    };
    let start = Instant::now();
    let recovered = run_ensemble(
        &compiled_default,
        &faulty,
        &inputs,
        &EnsembleOptions::default(),
    )
    .expect("recoverable campaign completes");
    let w_recovered = start.elapsed().as_secs_f64();
    assert!(recovered.failures.is_empty(), "one-shot faults must recover");
    assert_eq!(
        recovered.outputs, clean_default.outputs,
        "recovered QoIs must be bit-identical to the fault-free campaign"
    );
    let ledger = recovered.counters.recovery;
    assert!(
        ledger.recovered_solves >= samples,
        "every sample carried a fault; ledger says {ledger:?}"
    );
    eprintln!(
        "recoverable:  {w_recovered:.2} s, {} retries, {} recovered solves, outputs exact",
        ledger.solve_retries, ledger.recovered_solves
    );

    // ---- 3. Quarantine under saturating faults --------------------------
    // k poisoned samples whose every operator application is corrupted: no
    // ladder can save them. The campaign must complete under quarantine,
    // report exactly those indices, keep the survivors bit-identical, and
    // the whole outcome must not depend on the thread count.
    let poisoned: Vec<usize> = vec![1, samples / 2, samples - 2];
    let quarantine_plans: Vec<Option<FaultPlan>> = (0..samples)
        .map(|i| {
            poisoned
                .contains(&i)
                .then(|| FaultPlan::saturating(FaultKind::Nan))
        })
        .collect();
    let poisoned_campaign = FaultCampaign {
        inner: &scenario,
        plans: quarantine_plans,
    };
    let mut quarantine_runs = Vec::new();
    let mut w_quarantine = f64::NAN;
    for threads in [1usize, 2, 4] {
        let start = Instant::now();
        let r = run_ensemble(
            &compiled_default,
            &poisoned_campaign,
            &inputs,
            &EnsembleOptions {
                n_threads: threads,
                failure_policy: FailurePolicy::Quarantine {
                    max_failures: poisoned.len(),
                },
                ..EnsembleOptions::default()
            },
        )
        .expect("quarantine campaign completes");
        if threads == 1 {
            w_quarantine = start.elapsed().as_secs_f64();
        }
        let reported: Vec<usize> = r.failures.iter().map(|f| f.sample).collect();
        assert_eq!(reported, poisoned, "threads = {threads}");
        for (i, out) in r.outputs.iter().enumerate() {
            if poisoned.contains(&i) {
                assert!(out.is_empty(), "poisoned sample {i} produced output");
            } else {
                assert_eq!(
                    out, &clean_default.outputs[i],
                    "surviving sample {i} moved (threads = {threads})"
                );
            }
        }
        quarantine_runs.push((threads, r));
    }
    let (_, reference) = &quarantine_runs[0];
    for (threads, r) in &quarantine_runs[1..] {
        assert_eq!(r.outputs, reference.outputs, "threads = {threads}");
        assert_eq!(r.counters, reference.counters, "threads = {threads}");
        assert_eq!(r.failures, reference.failures, "threads = {threads}");
    }
    eprintln!(
        "quarantine:   {w_quarantine:.2} s, {}/{} samples quarantined at {poisoned:?}, \
         deterministic across 1/2/4 threads",
        poisoned.len(),
        samples
    );

    // ---- report ---------------------------------------------------------
    let runs = [
        RunRecord::from_counters(
            "clean campaign, recovery disabled",
            &opts_disabled,
            w_disabled,
            clean_disabled.counters,
        ),
        RunRecord::from_counters(
            "clean campaign, default recovery ladder",
            &opts_default,
            w_default,
            clean_default.counters,
        ),
        RunRecord::from_counters(
            "one-shot fault campaign, ladder recovers every sample",
            &opts_default,
            w_recovered,
            recovered.counters,
        ),
        RunRecord::from_counters(
            "saturating-fault campaign under quarantine",
            &opts_default,
            w_quarantine,
            reference.counters,
        ),
    ];
    let poisoned_json = poisoned
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"robustness\",\n  \"package\": \"paper 28-pad / 12-wire\",\n  \
         \"dofs\": {dofs},\n  \"samples\": {samples},\n  \"steps\": {steps},\n  \
         \"t_end_s\": {t_end},\n  \"mesh_xy_m\": {mesh_xy:e},\n  \"mesh_z_m\": {mesh_z:e},\n  \
         \"runs\": [\n{}\n  ],\n  \
         \"clean_bit_identical_with_ladder\": true,\n  \
         \"clean_overhead_pct\": {:.3},\n  \
         \"clean_overhead_gated\": {},\n  \
         \"recoverable_solve_retries\": {},\n  \
         \"recoverable_recovered_solves\": {},\n  \
         \"recoverable_outputs_bit_identical\": true,\n  \
         \"quarantined_samples\": [{poisoned_json}],\n  \
         \"quarantine_survivors_bit_identical\": true,\n  \
         \"quarantine_deterministic_across_threads\": [1, 2, 4]\n}}\n",
        runs.iter()
            .map(|r| r.to_json("    "))
            .collect::<Vec<_>>()
            .join(",\n"),
        overhead * 100.0,
        !quick,
        ledger.solve_retries,
        ledger.recovered_solves,
    );
    let out = arg_value("out").unwrap_or_else(|| "BENCH_robustness.json".into());
    std::fs::write(&out, &json).expect("write benchmark report");
    println!("{json}");
    eprintln!(
        "resilience gate passed: clean overhead {:+.2} %, {} recoveries, \
         {} quarantined -> {out}",
        overhead * 100.0,
        ledger.recovered_solves,
        poisoned.len()
    );
}
