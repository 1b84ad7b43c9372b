//! **bench_serve** — serving-layer benchmark: warm multi-tenant pool vs
//! compile-or-reset-per-request, scheduler determinism, and admission
//! control under pressure.
//!
//! The scenario: 8 concurrent clients firing a seeded mixed workload —
//! latency-class `wire_sizing` traffic with `campaign` and `fusing`
//! requests sprinkled in, alternating across two hot models. The warm
//! path answers from the resident compiled models and the per-model
//! session pools; the cold baseline is the pre-serving world — every
//! request a serialized one-shot CLI invocation paying process spawn,
//! model build, compile and a fresh simulator, as the seed's per-figure
//! binary design does (compile-or-reset-per-request, no registry, no
//! pool, no scheduler). Both paths must answer bit-identically.
//!
//! Gates (both profiles):
//! * throughput: the warm pool clears the 8-client workload ≥ 2× faster
//!   than compile-per-request,
//! * determinism: every response is bit-identical across 1-, 4- and
//!   8-worker engines,
//! * admission: an over-budget request is rejected with a structured
//!   `budget-exhausted` error and a queue-overflow burst sheds with
//!   structured `shed` frames, while concurrent well-behaved requests
//!   complete.
//!
//! Flags: `--quick` (CI smoke: smaller model and workload), `--requests N`,
//! `--clients N`, `--workers N`, `--steps S`, `--t-end T`, `--out PATH`.

use etherm_bench::{arg_f64, arg_flag, arg_usize, arg_value};
use etherm_serve::{
    ClassBudgets, Engine, ErrorKind, JobParams, ManualClock, ModelSpec, RequestClass, Response,
    ServeConfig, ServeHandle, SolverProfile, SpecKind,
};
use std::sync::Arc;
use std::time::Instant;

fn terminal_of(ticket: &etherm_serve::JobTicket) -> Response {
    ticket.wait_terminal().expect("job reached a terminal frame")
}

fn qoi_of(frame: Response) -> Vec<f64> {
    match frame {
        Response::Result { qoi, .. } => qoi,
        other => panic!("expected a result frame, got {other:?}"),
    }
}

/// One deterministic mixed-workload request: index `i` maps to
/// `(seed, class, model, params)` — 10/12 wire-sizing, 1/12 fusing,
/// 1/12 campaign, alternating across the two hot models. Shared by the
/// warm clients, the cold one-shot child (`--index`) and the
/// determinism section, so all three replay exactly the same traffic.
fn job_of(
    i: usize,
    hot: &[ModelSpec; 2],
    params: &JobParams,
) -> (u64, RequestClass, ModelSpec, JobParams) {
    let seed = 1000 + i as u64;
    let model = hot[i % 2];
    match i % 12 {
        // Fusing is `find_critical_load` over scales 1–256: up to 17
        // probe transients per request (1 + 8 doublings + 8 bisections),
        // so its latency-class form probes with a single step.
        10 => (
            seed,
            RequestClass::Fusing,
            model,
            JobParams {
                n_steps: 1,
                ..params.clone()
            },
        ),
        11 => (
            seed,
            RequestClass::Campaign,
            model,
            JobParams {
                n_samples: 2,
                ..params.clone()
            },
        ),
        _ => (seed, RequestClass::WireSizing, model, params.clone()),
    }
}

fn workload(
    n: usize,
    hot: &[ModelSpec; 2],
    params: &JobParams,
) -> Vec<(u64, RequestClass, ModelSpec, JobParams)> {
    (0..n).map(|i| job_of(i, hot, params)).collect()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

fn main() {
    let quick = arg_flag("quick");
    let (d_requests, d_steps, d_tend, spec) = if quick {
        // CI smoke: a smaller latency-class block and fewer requests.
        (
            48,
            1,
            0.5,
            ModelSpec {
                kind: SpecKind::Block {
                    nx: 8,
                    ny: 4,
                    nz: 2,
                    wire_um: 1500,
                },
                profile: SolverProfile::Default,
            },
        )
    } else {
        // The latency-class block model: short seeded solves are exactly
        // the traffic a resident pool exists for — per-request process
        // spawn + model build + compile dominates the solve itself.
        (
            96,
            1,
            0.5,
            ModelSpec {
                kind: SpecKind::Block {
                    nx: 8,
                    ny: 4,
                    nz: 2,
                    wire_um: 1500,
                },
                profile: SolverProfile::Default,
            },
        )
    };
    let spec = match arg_value("model").as_deref() {
        Some("paper") => ModelSpec::paper_coarse(),
        Some("paper-fast") => ModelSpec {
            kind: SpecKind::Paper { xy_um: 900, z_um: 500 },
            profile: SolverProfile::Fast,
        },
        Some("block") | None => spec,
        Some(other) => panic!("unknown --model {other} (expected block, paper, paper-fast)"),
    };
    let n_requests = arg_usize("requests", d_requests);
    let clients = arg_usize("clients", 8);
    let workers = arg_usize("workers", 8);
    let steps = arg_usize("steps", d_steps);
    let t_end = arg_f64("t-end", d_tend);
    let params = JobParams {
        t_end,
        n_steps: steps,
        ..JobParams::default()
    };
    // The two hot models the mixed workload alternates across: the
    // primary spec plus a second, larger latency-class block.
    let hot = [
        spec,
        ModelSpec {
            kind: SpecKind::Block {
                nx: 10,
                ny: 5,
                nz: 2,
                wire_um: 1500,
            },
            profile: SolverProfile::Default,
        },
    ];

    // Hidden child mode for the cold baseline: this process IS one
    // pre-serving invocation — pay binary load, model build, compile and
    // a fresh simulator for a single request, print the qoi bits, exit.
    // `--index` picks the same mixed-workload job the warm pool ran.
    if arg_flag("one-shot") {
        let index = arg_usize("index", 0);
        let (seed, class, model, params) = job_of(index, &hot, &params);
        let engine = Engine::with_clock(
            ServeConfig {
                workers: 1,
                registry_capacity: 1,
                ..ServeConfig::default()
            },
            ManualClock::new(),
        );
        let handle = ServeHandle::new(Arc::clone(&engine));
        let ticket = handle.submit(class, model, params, seed);
        let qoi = qoi_of(terminal_of(&ticket));
        let bits: Vec<String> = qoi.iter().map(|x| format!("{:016x}", x.to_bits())).collect();
        println!("QOI {}", bits.join(" "));
        engine.shutdown_and_join();
        return;
    }

    eprintln!(
        "bench_serve: {n_requests} mixed requests, {clients} clients, {workers} workers, \
         {steps} steps over {t_end} s, hot models [{}, {}]",
        hot[0].canonical(),
        hot[1].canonical()
    );

    // ---- 1. Warm pool: resident engine, 8 concurrent clients ------------
    let engine = Engine::with_clock(
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
        ManualClock::new(),
    );
    let handle = ServeHandle::new(Arc::clone(&engine));
    // Pre-warm both hot models with one compile each (the registry would
    // single-flight the burst anyway; this keeps the timed section pure
    // serving).
    for (w, model) in hot.iter().enumerate() {
        let warmup = handle.submit(RequestClass::WireSizing, *model, params.clone(), 1 + w as u64);
        let _ = qoi_of(terminal_of(&warmup));
    }

    let jobs = workload(n_requests, &hot, &params);
    let start = Instant::now();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(n_requests);
    let mut client_threads = Vec::new();
    for c in 0..clients {
        let handle = handle.clone();
        let mine: Vec<(u64, RequestClass, ModelSpec, JobParams)> = jobs
            .iter()
            .skip(c)
            .step_by(clients)
            .cloned()
            .collect();
        client_threads.push(std::thread::spawn(move || {
            let mut out = Vec::new();
            for (seed, class, model, params) in mine {
                let t0 = Instant::now();
                let ticket = handle.submit(class, model, params, seed);
                let qoi = qoi_of(terminal_of(&ticket));
                out.push((seed, qoi, t0.elapsed().as_secs_f64() * 1e3));
            }
            out
        }));
    }
    let mut warm_results: Vec<(u64, Vec<f64>)> = Vec::new();
    for t in client_threads {
        for (seed, qoi, ms) in t.join().expect("client thread") {
            warm_results.push((seed, qoi));
            latencies_ms.push(ms);
        }
    }
    let warm_wall = start.elapsed().as_secs_f64();
    warm_results.sort_by_key(|(seed, _)| *seed);
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let throughput = n_requests as f64 / warm_wall;
    let p50 = percentile(&latencies_ms, 0.50);
    let p99 = percentile(&latencies_ms, 0.99);
    engine.shutdown_and_join();
    eprintln!(
        "warm pool:      {warm_wall:.2} s for {n_requests} requests -> {throughput:.1} req/s \
         (p50 {p50:.1} ms, p99 {p99:.1} ms)"
    );

    // ---- 2. Cold baseline: compile-or-reset per request -----------------
    // The pre-serving world the engine replaces: every request is a
    // one-shot CLI invocation — spawn the binary, build + compile the
    // model, solve on a fresh simulator, tear down — exactly the seed's
    // per-figure binary design. Same workload, same determinism (the
    // child prints its qoi bits and they must match the pool's answers
    // exactly); no resident registry, no pool, no scheduler.
    let exe = std::env::current_exe().expect("own binary path");
    let start = Instant::now();
    for (i, (seed, _class, _model, _params)) in jobs.iter().enumerate() {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("--one-shot")
            .arg("--index")
            .arg(i.to_string())
            .arg("--steps")
            .arg(steps.to_string())
            .arg("--t-end")
            .arg(t_end.to_string());
        if quick {
            cmd.arg("--quick");
        }
        if let Some(model) = arg_value("model") {
            cmd.arg("--model").arg(model);
        }
        let output = cmd.output().expect("spawn one-shot child");
        assert!(output.status.success(), "one-shot child failed for seed {seed}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let bits_line = stdout
            .lines()
            .find_map(|l| l.strip_prefix("QOI "))
            .expect("one-shot child printed its qoi bits");
        let cold_qoi: Vec<f64> = bits_line
            .split_whitespace()
            .map(|hex| f64::from_bits(u64::from_str_radix(hex, 16).expect("hex qoi bits")))
            .collect();
        let warm_qoi = &warm_results
            .iter()
            .find(|(s, _)| s == seed)
            .expect("warm result for every seed")
            .1;
        assert_eq!(
            &cold_qoi, warm_qoi,
            "warm pool must answer bit-identically to a one-shot solve"
        );
    }
    let cold_wall = start.elapsed().as_secs_f64();
    let speedup = cold_wall / warm_wall;
    eprintln!(
        "cold baseline:  {cold_wall:.2} s (one-shot process per request) -> \
         warm pool {speedup:.1}x faster"
    );

    // ---- 3. Determinism across worker counts ----------------------------
    let mut fingerprints: Vec<Vec<(u64, Vec<u64>)>> = Vec::new();
    for &w in &[1usize, 4, 8] {
        let engine = Engine::with_clock(
            ServeConfig {
                workers: w,
                ..ServeConfig::default()
            },
            ManualClock::new(),
        );
        let handle = ServeHandle::new(Arc::clone(&engine));
        let tickets: Vec<_> = jobs
            .iter()
            .take(12.min(n_requests))
            .map(|(seed, class, model, params)| {
                (*seed, handle.submit(*class, *model, params.clone(), *seed))
            })
            .collect();
        let mut results: Vec<(u64, Vec<u64>)> = tickets
            .iter()
            .map(|(seed, t)| {
                (
                    *seed,
                    qoi_of(terminal_of(t)).iter().map(|x| x.to_bits()).collect(),
                )
            })
            .collect();
        results.sort_by_key(|(seed, _)| *seed);
        engine.shutdown_and_join();
        fingerprints.push(results);
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "responses must be bit-identical for 1 vs 4 workers"
    );
    assert_eq!(
        fingerprints[0], fingerprints[2],
        "responses must be bit-identical for 1 vs 8 workers"
    );
    eprintln!("determinism:    1/4/8-worker responses bit-identical");

    // ---- 4. Admission control under pressure ----------------------------
    // A starved class (1-iteration budget) must fail structurally while
    // well-behaved concurrent traffic completes; a burst past the queue
    // bound must shed structurally.
    let engine = Engine::with_clock(
        ServeConfig {
            workers: 1,
            queue_capacity: 2,
            budgets: ClassBudgets {
                fusing: 1,
                ..ClassBudgets::default()
            },
            ..ServeConfig::default()
        },
        ManualClock::new(),
    );
    let handle = ServeHandle::new(Arc::clone(&engine));
    let over_budget = handle.submit(RequestClass::Fusing, spec, params.clone(), 2);
    let burst: Vec<_> = (0..10)
        .map(|i| {
            handle.submit(
                RequestClass::WireSizing,
                spec,
                params.clone(),
                100 + i,
            )
        })
        .collect();
    let mut budget_errors = 0u64;
    let mut shed_count = 0u64;
    let mut completed = 0u64;
    match terminal_of(&over_budget) {
        Response::Error {
            kind: ErrorKind::BudgetExhausted,
            ..
        } => budget_errors += 1,
        other => panic!("over-budget request must fail with budget-exhausted, got {other:?}"),
    }
    for ticket in &burst {
        match terminal_of(ticket) {
            Response::Result { .. } => completed += 1,
            Response::Shed { .. } => shed_count += 1,
            other => panic!("unexpected terminal frame {other:?}"),
        }
    }
    engine.shutdown_and_join();
    assert!(budget_errors == 1, "exactly one budget rejection expected");
    assert!(
        completed >= 1,
        "well-behaved requests must complete alongside the shed burst"
    );
    assert!(shed_count >= 1, "a 10-deep burst past a 2-slot queue must shed");
    eprintln!(
        "admission:      {budget_errors} budget rejection, {shed_count} shed, \
         {completed} completed under pressure"
    );

    // ---- 5. Gates -------------------------------------------------------
    assert!(
        speedup >= 2.0,
        "warm pool must be >= 2x faster than compile-per-request at \
         {clients} concurrent clients, got {speedup:.2}x"
    );

    // ---- 6. Report ------------------------------------------------------
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"model\": \"{}\",\n  \
         \"hot_models\": [\"{}\", \"{}\"],\n  \
         \"class_mix\": \"10 wire_sizing : 1 fusing : 1 campaign\",\n  \"profile\": \"{}\",\n  \
         \"requests\": {n_requests},\n  \"clients\": {clients},\n  \"workers\": {workers},\n  \
         \"steps\": {steps},\n  \"t_end_s\": {t_end},\n  \
         \"warm\": {{\"wall_s\": {warm_wall:.3}, \"throughput_rps\": {throughput:.2}, \
         \"p50_ms\": {p50:.2}, \"p99_ms\": {p99:.2}}},\n  \
         \"cold\": {{\"wall_s\": {cold_wall:.3}, \"mode\": \"one-shot-process-per-request\"}},\n  \
         \"speedup_warm_over_cold\": {speedup:.2},\n  \
         \"admission\": {{\"budget_rejections\": {budget_errors}, \"shed\": {shed_count}, \
         \"completed_under_pressure\": {completed}}},\n  \
         \"deterministic_across_workers\": true,\n  \
         \"gates\": {{\"speedup_min\": 2.0, \"workers_checked\": [1, 4, 8]}}\n}}\n",
        spec.canonical(),
        hot[0].canonical(),
        hot[1].canonical(),
        if quick { "quick" } else { "full" },
    );
    let out = arg_value("out").unwrap_or_else(|| "BENCH_serve.json".into());
    std::fs::write(&out, &json).expect("write benchmark report");
    println!("{json}");
    eprintln!("warm pool {speedup:.1}x over cold baseline -> {out}");
}
