//! Integration tests of the serving engine: scheduler determinism across
//! worker counts, per-class budget admission, queue-overflow shedding,
//! worker wakeups under back-to-back submits, cancellation, surrogate
//! routing for QoI requests, and replies equal to the library routines
//! each class calls.
//!
//! All timeouts are `Duration` bounds on channel receives — no wall-clock
//! reads (the `wall-clock` lint covers test files too).

use etherm_core::{CoreError, EnsembleOptions, FullSolve, QoiEvaluator, Scenario, Session};
use etherm_reliability::{find_critical_load, FusingSearchOptions};
use etherm_serve::{
    ClassBudgets, Engine, ErrorKind, JobParams, ManualClock, ModelSpec, RequestClass, Response,
    ServeConfig, ServeHandle,
};
use etherm_uq::{Surrogate, SurrogateOptions, Uniform};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

fn engine_with(workers: usize, config: ServeConfig) -> (Arc<Engine>, ServeHandle) {
    let engine = Engine::with_clock(ServeConfig { workers, ..config }, ManualClock::new());
    let handle = ServeHandle::new(Arc::clone(&engine));
    (engine, handle)
}

fn small_params() -> JobParams {
    JobParams {
        t_end: 0.5,
        n_steps: 4,
        n_samples: 3,
        ..JobParams::default()
    }
}

fn terminal(ticket: &etherm_serve::JobTicket) -> Response {
    let mut last = None;
    while let Some(frame) = ticket.next_timeout(WAIT) {
        let done = matches!(
            frame,
            Response::Result { .. }
                | Response::Error { .. }
                | Response::Shed { .. }
                | Response::Cancelled { .. }
        );
        last = Some(frame);
        if done {
            break;
        }
    }
    last.expect("job produced a terminal frame within the timeout")
}

/// The same batch of jobs — every request class, varied seeds — must
/// produce bit-identical QoI vectors whether the engine runs 1, 4 or 8
/// workers. This is the core serving contract: scheduling is invisible.
#[test]
fn results_bit_identical_across_worker_counts() {
    let mut per_worker_count: Vec<BTreeMap<u64, Vec<u64>>> = Vec::new();
    for &workers in &[1usize, 4, 8] {
        let (engine, handle) = engine_with(workers, ServeConfig::default());
        let jobs: Vec<(RequestClass, JobParams, u64)> = vec![
            (RequestClass::WireSizing, small_params(), 7),
            (RequestClass::WireSizing, small_params(), 8),
            (RequestClass::Campaign, small_params(), 9),
            (
                RequestClass::Fusing,
                JobParams {
                    threshold: 301.0,
                    ..small_params()
                },
                10,
            ),
            (
                RequestClass::Qoi,
                JobParams {
                    samples: vec![vec![0.02], vec![-0.03], vec![0.0]],
                    ..small_params()
                },
                11,
            ),
            (RequestClass::WireSizing, small_params(), 12),
        ];
        let tickets: Vec<_> = jobs
            .into_iter()
            .map(|(class, params, seed)| handle.submit(class, ModelSpec::block_small(), params, seed))
            .collect();
        let mut results = BTreeMap::new();
        for ticket in &tickets {
            match terminal(ticket) {
                Response::Result { id, qoi, .. } => {
                    results.insert(id, qoi.iter().map(|x| x.to_bits()).collect::<Vec<u64>>());
                }
                other => panic!("expected result frame, got {other:?}"),
            }
        }
        engine.shutdown_and_join();
        per_worker_count.push(results);
    }
    // ServeHandle assigns ids 1..=6 in submit order for every engine, so
    // the maps line up key-for-key.
    assert_eq!(per_worker_count[0], per_worker_count[1], "1 vs 4 workers");
    assert_eq!(per_worker_count[0], per_worker_count[2], "1 vs 8 workers");
}

/// A request class with an exhausted iteration budget fails with a
/// structured `budget-exhausted` error while a concurrently running
/// well-behaved class completes normally. A campaign's budget trips inside
/// its ensemble, so its error is found under `EnsembleFailed`.
#[test]
fn budget_exhaustion_is_structured_and_isolated() {
    for (starved_class, healthy_class) in [
        (RequestClass::WireSizing, RequestClass::Campaign),
        (RequestClass::Campaign, RequestClass::WireSizing),
    ] {
        // One Krylov iteration: guaranteed exhaustion.
        let budgets = match starved_class {
            RequestClass::Campaign => ClassBudgets {
                campaign: 1,
                ..ClassBudgets::default()
            },
            _ => ClassBudgets {
                wire_sizing: 1,
                ..ClassBudgets::default()
            },
        };
        let config = ServeConfig {
            budgets,
            ..ServeConfig::default()
        };
        let (engine, handle) = engine_with(2, config);
        let starved = handle.submit(starved_class, ModelSpec::block_small(), small_params(), 1);
        let healthy = handle.submit(healthy_class, ModelSpec::block_small(), small_params(), 2);
        match terminal(&starved) {
            Response::Error { kind, message, .. } => {
                assert_eq!(kind, ErrorKind::BudgetExhausted, "{starved_class:?}");
                assert!(message.contains("budget"), "message: {message}");
            }
            other => panic!("expected budget error for {starved_class:?}, got {other:?}"),
        }
        match terminal(&healthy) {
            Response::Result { qoi, .. } => {
                if healthy_class == RequestClass::Campaign {
                    assert_eq!(qoi.len(), 3, "campaign returns mean/max/min");
                }
            }
            other => panic!("expected result for {healthy_class:?}, got {other:?}"),
        }
        engine.shutdown_and_join();
    }
}

/// Overflowing the bounded queue sheds jobs with a structured frame; the
/// admitted jobs still complete, and the health frame accounts for the
/// sheds.
#[test]
fn queue_overflow_sheds_structurally() {
    let config = ServeConfig {
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let (engine, handle) = engine_with(1, config);
    let tickets: Vec<_> = (0..8)
        .map(|seed| {
            handle.submit(
                RequestClass::Campaign,
                ModelSpec::block_small(),
                small_params(),
                seed,
            )
        })
        .collect();
    let mut completed = 0u64;
    let mut shed = 0u64;
    for ticket in &tickets {
        match terminal(ticket) {
            Response::Result { .. } => completed += 1,
            Response::Shed { reason, .. } => {
                shed += 1;
                assert!(reason.contains("queue"), "reason: {reason}");
            }
            other => panic!("unexpected terminal frame {other:?}"),
        }
    }
    assert_eq!(completed + shed, 8);
    assert!(completed >= 1, "admitted jobs complete");
    assert!(shed >= 1, "a burst past the queue bound must shed");
    match handle.health() {
        Response::Health { shed_total, .. } => assert_eq!(shed_total, shed),
        other => panic!("expected health frame, got {other:?}"),
    }
    engine.shutdown_and_join();
}

/// A thousand submits in back-to-back waves of 1 to 8 jobs, each wave
/// drained before the next, so the workers go idle and are woken hundreds
/// of times. Workers wait on the condvar without a timeout, so a lost
/// wakeup would leave a job unanswered and fail the receive bound.
#[test]
fn back_to_back_submits_all_complete() {
    const JOBS: u64 = 1000;
    let (engine, handle) = engine_with(2, ServeConfig::default());
    let params = JobParams {
        t_end: 0.25,
        n_steps: 1,
        ..JobParams::default()
    };
    let mut seed = 0u64;
    let mut wave = 0u64;
    while seed < JOBS {
        let size = (wave % 8 + 1).min(JOBS - seed);
        let tickets: Vec<_> = (seed..seed + size)
            .map(|s| {
                handle.submit(
                    RequestClass::WireSizing,
                    ModelSpec::block_small(),
                    params.clone(),
                    s,
                )
            })
            .collect();
        for ticket in &tickets {
            match terminal(ticket) {
                Response::Result { .. } => {}
                other => panic!("expected result frame, got {other:?}"),
            }
        }
        seed += size;
        wave += 1;
    }
    engine.shutdown_and_join();
}

/// Cancellation produces a `cancelled` terminal frame, and duplicate ids
/// are refused with a structured error.
#[test]
fn cancel_and_duplicate_ids() {
    let (engine, handle) = engine_with(1, ServeConfig::default());
    // A long campaign so cancel lands mid-run (or while queued).
    let long = JobParams {
        n_samples: 500,
        ..small_params()
    };
    let victim = handle.submit_with_id(
        42,
        RequestClass::Campaign,
        ModelSpec::block_small(),
        long,
        3,
    );
    // Wait for admission, then for the duplicate check, then cancel.
    match victim.next_timeout(WAIT) {
        Some(Response::Accepted { id }) => assert_eq!(id, 42),
        other => panic!("expected accepted frame, got {other:?}"),
    }
    let dup = handle.submit_with_id(
        42,
        RequestClass::WireSizing,
        ModelSpec::block_small(),
        small_params(),
        4,
    );
    match terminal(&dup) {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Invalid),
        other => panic!("duplicate id must be refused, got {other:?}"),
    }
    assert!(handle.cancel(42));
    match terminal(&victim) {
        Response::Cancelled { id } => assert_eq!(id, 42),
        other => panic!("expected cancelled frame, got {other:?}"),
    }
    engine.shutdown_and_join();
}

/// With a surrogate registered at a generous tolerance, `qoi` requests are
/// answered by the surrogate tier; without one they fall back to full
/// solves. Registration must not disturb other classes.
#[test]
fn qoi_routes_through_registered_surrogate() {
    let (engine, handle) = engine_with(2, ServeConfig::default());
    let spec = ModelSpec::block_small();
    let qoi_params = JobParams {
        samples: vec![vec![0.01], vec![-0.02]],
        ..small_params()
    };
    // Before registration: full solves.
    let full = handle.submit(RequestClass::Qoi, spec, qoi_params.clone(), 5);
    match terminal(&full) {
        Response::Result {
            served_by,
            full_solves,
            ..
        } => {
            assert_eq!(served_by, "full");
            assert_eq!(full_solves, 2);
        }
        other => panic!("expected result, got {other:?}"),
    }
    // Train a 1-D surrogate on synthetic data and register it with a huge
    // tolerance so every sample is served.
    let xi: Vec<Vec<f64>> = (0..12).map(|i| vec![-2.0 + i as f64 / 3.0]).collect();
    let y: Vec<f64> = xi.iter().map(|p| 300.0 + p[0]).collect();
    let surrogate = Surrogate::fit(&xi, &y, 1, SurrogateOptions::default()).expect("fit");
    engine
        .register_surrogate(
            &spec,
            vec![surrogate],
            vec![Box::new(Uniform::new(-0.05, 0.05).expect("marginal"))],
            1.0e9,
            0.5,
            4,
        )
        .expect("register surrogate");
    let served = handle.submit(RequestClass::Qoi, spec, qoi_params, 6);
    match terminal(&served) {
        Response::Result {
            served_by, served, ..
        } => {
            assert_eq!(served_by, "surrogate");
            assert_eq!(served, 2, "both samples screened and served");
        }
        other => panic!("expected surrogate result, got {other:?}"),
    }
    engine.shutdown_and_join();
}

/// With a surrogate tier registered at a tolerance no estimate can clear,
/// every `qoi` sample falls back to full solves, and those solves run
/// under the `qoi` class budget.
#[test]
fn surrogate_fallback_runs_under_the_qoi_budget() {
    let config = ServeConfig {
        budgets: ClassBudgets {
            qoi: 1,
            ..ClassBudgets::default()
        },
        ..ServeConfig::default()
    };
    let (engine, handle) = engine_with(1, config);
    let spec = ModelSpec::block_small();
    let xi: Vec<Vec<f64>> = (0..12).map(|i| vec![-2.0 + i as f64 / 3.0]).collect();
    // Not a polynomial, so held-out residuals (and every error estimate)
    // stay far above the tolerance.
    let y: Vec<f64> = xi.iter().map(|p| 300.0 + (3.0 * p[0]).sin()).collect();
    let surrogate = Surrogate::fit(&xi, &y, 1, SurrogateOptions::default()).expect("fit");
    engine
        .register_surrogate(
            &spec,
            vec![surrogate],
            vec![Box::new(Uniform::new(-0.05, 0.05).expect("marginal"))],
            1e-12,
            0.5,
            4,
        )
        .expect("register surrogate");
    let params = JobParams {
        samples: vec![vec![0.01]],
        ..small_params()
    };
    match terminal(&handle.submit(RequestClass::Qoi, spec, params, 1)) {
        Response::Error { kind, message, .. } => {
            assert_eq!(kind, ErrorKind::BudgetExhausted, "message: {message}");
        }
        other => panic!("expected budget error, got {other:?}"),
    }
    engine.shutdown_and_join();
}

/// The peak wire temperature on relative elongations `δ`, written out
/// here independently of the engine's own scenario.
struct Elongation {
    nominal: Vec<f64>,
    t_end: f64,
    n_steps: usize,
}

impl Scenario for Elongation {
    fn apply(&self, session: &mut Session, sample: &[f64]) -> Result<(), CoreError> {
        for (j, (&length, &delta)) in self.nominal.iter().zip(sample).enumerate() {
            session.set_wire_length(j, length * (1.0 + delta))?;
        }
        Ok(())
    }

    fn evaluate(&self, session: &mut Session) -> Result<Vec<f64>, CoreError> {
        let sol = session.run_transient(self.t_end, self.n_steps, &[])?;
        let peak = (0..sol.n_times())
            .map(|i| sol.max_wire_temperature_at(i))
            .fold(f64::NEG_INFINITY, f64::max);
        Ok(vec![peak])
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// Serve answers `fusing` with `find_critical_load` and full-path `qoi`
/// with `FullSolve`: the replies equal the library's answers on a fresh
/// session, bit for bit.
#[test]
fn fusing_and_qoi_replies_equal_the_library() {
    let spec = ModelSpec::block_small();
    let compiled = Arc::new(spec.build().expect("block model compiles"));
    let (engine, handle) = engine_with(2, ServeConfig::default());
    let fusing_params = JobParams {
        threshold: 400.0,
        ..small_params()
    };
    let fusing = handle.submit(RequestClass::Fusing, spec, fusing_params.clone(), 1);
    let samples = vec![vec![0.02], vec![-0.03], vec![0.0]];
    let qoi_params = JobParams {
        samples: samples.clone(),
        ..small_params()
    };
    let qoi = handle.submit(RequestClass::Qoi, spec, qoi_params.clone(), 2);

    let load = find_critical_load(
        &mut Session::new(Arc::clone(&compiled)),
        &FusingSearchOptions {
            t_end: fusing_params.t_end,
            n_steps: fusing_params.n_steps,
            threshold: fusing_params.threshold,
            scale_lo: 1.0,
            scale_hi: 256.0,
            tol_rel: 1.0 / 256.0,
            ..FusingSearchOptions::default()
        },
    )
    .expect("library search");
    assert!(
        load.scale > 1.0 && load.bracket.1 < 256.0,
        "the search must bisect, not saturate: {load:?}"
    );
    match terminal(&fusing) {
        Response::Result {
            qoi, full_solves, ..
        } => {
            assert_eq!(bits(&qoi), bits(&[load.scale, load.bracket.1]));
            assert_eq!(full_solves, load.runs as u64);
        }
        other => panic!("expected fusing result, got {other:?}"),
    }

    let scenario = Elongation {
        nominal: compiled
            .model()
            .wires()
            .iter()
            .map(|w| w.wire.length())
            .collect(),
        t_end: qoi_params.t_end,
        n_steps: qoi_params.n_steps,
    };
    let mut full = FullSolve::new(&compiled, &scenario, 1, EnsembleOptions::default());
    let expected: Vec<f64> = full
        .evaluate(&samples)
        .expect("library full solve")
        .concat();
    match terminal(&qoi) {
        Response::Result { qoi, served_by, .. } => {
            assert_eq!(served_by, "full");
            assert_eq!(bits(&qoi), bits(&expected));
        }
        other => panic!("expected qoi result, got {other:?}"),
    }
    engine.shutdown_and_join();
}

/// Registry statistics surface in health: one compile, then cache hits
/// for every further job on the same spec.
#[test]
fn health_reports_registry_and_pool() {
    let (engine, handle) = engine_with(2, ServeConfig::default());
    for seed in 0..3 {
        let t = handle.submit(
            RequestClass::WireSizing,
            ModelSpec::block_small(),
            small_params(),
            seed,
        );
        match terminal(&t) {
            Response::Result { .. } => {}
            other => panic!("expected result, got {other:?}"),
        }
    }
    match handle.health() {
        Response::Health {
            registry_compiles,
            registry_hits,
            models,
            queue_depth,
            ..
        } => {
            assert_eq!(registry_compiles, 1, "one spec, one compile");
            assert_eq!(registry_hits, 2, "two warm jobs hit the cache");
            assert_eq!(queue_depth, 0);
            assert_eq!(models.len(), 1);
            assert_eq!(models[0].jobs_done, 3);
            assert!(!models[0].degraded);
            assert!(models[0].idle_sessions >= 1);
        }
        other => panic!("expected health frame, got {other:?}"),
    }
    engine.shutdown_and_join();
}
