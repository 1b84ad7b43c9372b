//! `serve_mixed`: served traffic through the TCP daemon.
//!
//! The `etherm-served` daemon runs inside the benchmark process, bound to
//! `127.0.0.1:0` over a 2-worker engine. Two closed-loop client
//! connections send a seeded 10:1:1 mix of `wire_sizing`, `fusing` and
//! `campaign` requests over two hot block models, each client sending its
//! next request when the previous reply arrives, until the run's time is up
//! and at least [`MIN_REQUESTS`] were sent. Every reply is checked bit for
//! bit against the same job replayed alone on a 1-worker engine.
//!
//! The traced run decomposes the TCP latency by subtraction: the solo
//! replay is the engine's compute, the same traffic through the in-process
//! `ServeHandle` adds queueing and scheduler wakeups, and the TCP path adds
//! the daemon and the protocol.

use super::{
    push_counter_metrics, push_end_to_end, recovery_rungs, RunArgs, StepSpans, SETUP_REPS,
};
use crate::gen::{serve_traffic, Class, Job};
use crate::report::Report;
use crate::stats::{mean, median, percentile, supported_percentile};
use crate::trace::{durations_ms, Tracer};
use etherm_core::{CompiledModel, Session, SolveCounters};
use etherm_serve::{
    Daemon, Engine, JobParams, ModelRegistry, ModelSpec, Request, RequestClass, Response,
    ServeConfig, ServeHandle, SolverProfile, SpecKind, SystemClock, PROTOCOL_VERSION,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The two hot models: latency-class epoxy blocks with one copper wire.
pub const HOT: [ModelSpec; 2] = [
    ModelSpec {
        kind: SpecKind::Block {
            nx: 8,
            ny: 4,
            nz: 2,
            wire_um: 1500,
        },
        profile: SolverProfile::Default,
    },
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
/// Engine worker threads.
pub const WORKERS: usize = 2;
/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Requests per measured phase, at least: enough that p99 has ten samples
/// beyond it.
pub const MIN_REQUESTS: usize = 1000;
/// Upper bound on requests per phase (length of the seeded sequence).
const MAX_REQUESTS: usize = 1_000_000;
/// A reply slower than its solo replay by more than this (ms), beyond the
/// socket's typical cost, waited out the engine's 50 ms condvar safety net.
pub const STALL_MS: f64 = 40.0;
/// Observed transients per hot model for the session-layer metrics.
const SESSION_PROBES: usize = 10;

/// Request parameters per class: one short step for the latency classes,
/// four samples for a campaign.
fn params(class: Class) -> JobParams {
    let base = JobParams {
        t_end: 0.5,
        n_steps: 1,
        ..JobParams::default()
    };
    match class {
        Class::WireSizing | Class::Fusing => base,
        Class::Campaign => JobParams {
            n_samples: 4,
            ..base
        },
    }
}

fn request_class(class: Class) -> RequestClass {
    match class {
        Class::WireSizing => RequestClass::WireSizing,
        Class::Fusing => RequestClass::Fusing,
        Class::Campaign => RequestClass::Campaign,
    }
}

fn submit(id: u64, job: &Job) -> Request {
    Request::Submit {
        id,
        class: request_class(job.class),
        model: HOT[job.model],
        params: params(job.class),
        seed: job.seed,
    }
}

fn is_terminal(frame: &Response) -> bool {
    matches!(
        frame,
        Response::Result { .. }
            | Response::Error { .. }
            | Response::Shed { .. }
            | Response::Cancelled { .. }
    )
}

/// One client connection speaking NDJSON.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect to the daemon");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone the socket"));
        Client { reader, writer }
    }

    fn send(&mut self, request: &Request) {
        let mut line = request.to_line();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .expect("send a frame");
    }

    fn receive(&mut self) -> Response {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read a frame");
        assert!(n > 0, "the daemon closed the connection");
        Response::from_line(line.trim_end()).expect("a well-formed frame")
    }

    /// Sends one request and returns its terminal frame.
    fn call(&mut self, request: &Request) -> Response {
        self.send(request);
        loop {
            let frame = self.receive();
            if is_terminal(&frame) {
                return frame;
            }
        }
    }
}

/// A running daemon with its client connections.
struct Served {
    addr: SocketAddr,
    daemon: JoinHandle<()>,
    clients: Vec<Client>,
}

/// Job ids are unique across everything one process submits.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

fn warm_up(mut call: impl FnMut(&Request) -> Response) {
    for model in 0..HOT.len() {
        let job = Job {
            class: Class::WireSizing,
            model,
            seed: 1,
        };
        let frame = call(&submit(next_id(), &job));
        assert!(
            matches!(frame, Response::Result { .. }),
            "warm-up failed: {frame:?}"
        );
    }
}

/// Set-up: engine, daemon on an ephemeral port, client connections with
/// the protocol handshake, and one request per hot model, which compiles
/// it into the registry.
fn start(tracer: &Tracer, rep: u64) -> Served {
    let span = tracer.open("serve.setup", None, rep);
    let engine = Engine::with_clock(
        ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        },
        Arc::new(SystemClock::new()),
    );
    let daemon = Daemon::bind("127.0.0.1:0", engine).expect("bind the daemon");
    let addr = daemon.local_addr();
    let daemon = std::thread::spawn(move || daemon.run());
    let mut clients: Vec<Client> = (0..CLIENTS).map(|_| Client::connect(addr)).collect();
    for c in &mut clients {
        c.send(&Request::Hello {
            version: PROTOCOL_VERSION,
        });
        let hello = c.receive();
        assert!(
            matches!(hello, Response::Hello { ok: true, .. }),
            "handshake failed: {hello:?}"
        );
    }
    tracer.span("serve.warmup", span, rep, |_| {
        warm_up(|r| clients[0].call(r))
    });
    tracer.close(span);
    Served {
        addr,
        daemon,
        clients,
    }
}

/// Asks for the health frame on a fresh connection.
fn health(addr: SocketAddr) -> Response {
    let mut control = Client::connect(addr);
    control.send(&Request::Health);
    control.receive()
}

/// Closes the clients, shuts the daemon down and waits for it.
fn stop(served: Served) {
    let Served {
        addr,
        daemon,
        clients,
    } = served;
    drop(clients);
    let mut control = Client::connect(addr);
    control.send(&Request::Shutdown);
    drop(control);
    daemon.join().expect("daemon thread");
}

/// One answered request of a measured phase.
struct Outcome {
    /// Index into the job list.
    job: usize,
    latency_ms: f64,
    frame: Response,
}

/// Closed loop: each caller sends the next request of `sequence` when its
/// previous one is answered, until `seconds` have passed and at least
/// `min_requests` were sent.
fn closed_loop<C>(
    callers: Vec<C>,
    jobs: &[Job],
    sequence: &[usize],
    seconds: f64,
    min_requests: usize,
    tracer: &Tracer,
) -> (Vec<Outcome>, f64)
where
    C: FnMut(&Request) -> Response + Send,
{
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for mut call in callers {
            let (next, out) = (&next, &out);
            scope.spawn(move || loop {
                let r = next.fetch_add(1, Ordering::Relaxed);
                if r >= sequence.len()
                    || (r >= min_requests && start.elapsed().as_secs_f64() >= seconds)
                {
                    break;
                }
                let job = sequence[r];
                let request = submit(next_id(), &jobs[job]);
                let t = Instant::now();
                let span = tracer.open("serve.request", None, r as u64);
                let frame = call(&request);
                tracer.close(span);
                let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                out.lock().expect("outcomes").push(Outcome {
                    job,
                    latency_ms,
                    frame,
                });
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    (out.into_inner().expect("outcomes"), wall)
}

/// Submits through the in-process handle and waits for the terminal frame.
fn in_process(handle: &ServeHandle, request: &Request) -> Response {
    let Request::Submit {
        id,
        class,
        model,
        params,
        seed,
    } = request.clone()
    else {
        unreachable!("only submits are sent in process")
    };
    handle
        .submit_with_id(id, class, model, params, seed)
        .wait_terminal()
        .expect("a terminal frame")
}

/// Replays every job alone on a 1-worker in-process engine: per job, its
/// QoI and its median solo latency (ms) over 3 replays.
fn solo_replay(jobs: &[Job]) -> Vec<(Vec<f64>, f64)> {
    let engine = Engine::with_clock(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        Arc::new(SystemClock::new()),
    );
    let handle = ServeHandle::new(Arc::clone(&engine));
    warm_up(|r| in_process(&handle, r));
    let solo = jobs
        .iter()
        .map(|job| {
            let mut times = Vec::new();
            let mut qoi = Vec::new();
            for _ in 0..3 {
                let t = Instant::now();
                let frame = in_process(&handle, &submit(next_id(), job));
                times.push(t.elapsed().as_secs_f64() * 1e3);
                if let Response::Result { qoi: q, .. } = frame {
                    qoi = q;
                }
            }
            (qoi, median(&times))
        })
        .collect();
    engine.shutdown_and_join();
    solo
}

/// Counts failed or mismatched replies: errors, sheds and cancellations
/// fail, and a result must equal its solo replay bit for bit.
fn check(outcomes: &[Outcome], solo: &[(Vec<f64>, f64)], report: &mut Report) {
    for o in outcomes {
        report.attempted += 1;
        let ok = match (&o.frame, &solo[o.job]) {
            (Response::Result { qoi, .. }, (expected, _)) => {
                !expected.is_empty()
                    && qoi.len() == expected.len()
                    && qoi
                        .iter()
                        .zip(expected)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
            _ => false,
        };
        if !ok {
            report.failed += 1;
        }
    }
}

fn latencies(outcomes: &[Outcome]) -> Vec<f64> {
    outcomes.iter().map(|o| o.latency_ms).collect()
}

/// Mean seconds of the protocol work one request's frames cost on both
/// ends: the submit line serialized and parsed, the accepted and terminal
/// frames serialized and parsed.
fn protocol_s(outcomes: &[Outcome], jobs: &[Job]) -> f64 {
    let frames: Vec<(Request, Response)> = outcomes
        .iter()
        .take(2000)
        .enumerate()
        .map(|(i, o)| (submit(i as u64 + 1, &jobs[o.job]), o.frame.clone()))
        .collect();
    let mut per_request = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for (request, terminal) in &frames {
            let line = request.to_line();
            let parsed = Request::from_line(&line).expect("submit parses");
            std::hint::black_box(parsed);
            for frame in [&Response::Accepted { id: 1 }, terminal] {
                let line = frame.to_line();
                std::hint::black_box(Response::from_line(&line).expect("frame parses"));
            }
        }
        per_request.push(t.elapsed().as_secs_f64() / frames.len() as f64);
    }
    median(&per_request)
}

/// A latency summary with the sample counts behind it: the median and
/// the highest percentile with at least ten samples beyond it.
fn describe(label: &str, values: &[f64]) -> String {
    let tail = supported_percentile(values.len()).unwrap_or(50.0);
    let p = percentile(values, tail);
    format!(
        "{label}: n={} p50={:.3} ms p{}={:.3} ms ({} samples beyond)",
        values.len(),
        percentile(values, 50.0).value,
        p.p,
        p.value,
        p.beyond
    )
}

/// Runs the workload.
pub fn run(args: &RunArgs, tracer: &Tracer) -> Report {
    let mut report = Report::new();
    let (jobs, sequence) = serve_traffic(args.seed, MAX_REQUESTS);

    let mut setup_s = Vec::new();
    let mut served = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = served.take() {
            stop(previous);
        }
        let t = Instant::now();
        served = Some(start(tracer, rep as u64));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut served = served.expect("at least one set-up");

    // Measured phase over TCP, untraced. A traced run follows it with the
    // same traffic traced, for the overhead.
    let phase_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = Tracer::new(false);
    let callers: Vec<_> = served
        .clients
        .iter_mut()
        .map(|c| move |r: &Request| c.call(r))
        .collect();
    let (tcp, tcp_wall) = closed_loop(callers, &jobs, &sequence, phase_s, MIN_REQUESTS, &untraced);
    let traced_tcp = if args.trace {
        let callers: Vec<_> = served
            .clients
            .iter_mut()
            .map(|c| move |r: &Request| c.call(r))
            .collect();
        closed_loop(callers, &jobs, &sequence, phase_s, MIN_REQUESTS, tracer).0
    } else {
        Vec::new()
    };
    let health = health(served.addr);
    stop(served);

    let solo = solo_replay(&jobs);
    check(&tcp, &solo, &mut report);
    check(&traced_tcp, &solo, &mut report);
    let (shed_total, sessions_created, rungs) = match &health {
        Response::Health {
            shed_total, models, ..
        } => (
            *shed_total,
            models.iter().map(|m| m.sessions_created).sum::<u64>(),
            models
                .iter()
                .map(|m| recovery_rungs(&m.ledger))
                .sum::<usize>(),
        ),
        other => {
            eprintln!("unexpected health reply: {other:?}");
            report.checks_ok = false;
            (0, 0, 0)
        }
    };
    let tcp_ms = latencies(&tcp);

    if !args.trace {
        push_end_to_end(
            &mut report,
            &setup_s,
            tcp.len(),
            tcp_wall,
            "request",
            &tcp_ms,
        );
        return report;
    }
    report.notes.push(describe("tcp latency", &tcp_ms));

    // In-process: the same traffic through `ServeHandle`, no socket.
    let engine = Engine::with_clock(
        ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        },
        Arc::new(SystemClock::new()),
    );
    let handle = ServeHandle::new(Arc::clone(&engine));
    warm_up(|r| in_process(&handle, r));
    let callers: Vec<_> = (0..CLIENTS)
        .map(|_| |r: &Request| in_process(&handle, r))
        .collect();
    let (inproc, _) = closed_loop(callers, &jobs, &sequence, 0.0, tcp.len(), &untraced);
    engine.shutdown_and_join();
    check(&inproc, &solo, &mut report);
    let inproc_ms = latencies(&inproc);
    report
        .notes
        .push(describe("in-process latency", &inproc_ms));

    // A stall is a reply that waited out the engine's safety net: slower
    // than its solo replay by more than STALL_MS on top of the socket's
    // typical cost (the median excess over solo, which on loopback includes
    // any fixed delayed-ACK wait).
    let solo_ms: Vec<f64> = tcp.iter().map(|o| solo[o.job].1).collect();
    let excess: Vec<f64> = tcp
        .iter()
        .zip(&solo_ms)
        .map(|(o, s)| o.latency_ms - s)
        .collect();
    let floor_ms = median(&excess);
    let stalls = excess.iter().filter(|&&e| e - floor_ms > STALL_MS).count();
    let protocol = protocol_s(&tcp, &jobs);

    // Set-up layers. The spec path (what the registry runs) builds and
    // compiles in one call; compiling its model again times the compile
    // alone.
    let mut registry_ms = Vec::new();
    let mut build_s = Vec::new();
    let mut compile_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let registry = ModelRegistry::new(HOT.len());
        let t = Instant::now();
        for spec in &HOT {
            registry.get_or_compile(spec).expect("hot model compiles");
        }
        registry_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let built: Vec<CompiledModel> = HOT
            .iter()
            .map(|spec| spec.build().expect("hot model builds"))
            .collect();
        build_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for (spec, b) in HOT.iter().zip(&built) {
            let compiled = CompiledModel::compile(b.model().clone(), spec.profile.options());
            drop(compiled.expect("hot model compiles"));
        }
        compile_s.push(t.elapsed().as_secs_f64());
    }

    // The session layer as the engine's workers run it: each hot model's
    // latency-class transient on a fresh session, observed step by step.
    let mut counters = SolveCounters::default();
    let mut session_runs = 0;
    for spec in &HOT {
        let compiled = Arc::new(spec.build().expect("hot model builds"));
        let p = params(Class::WireSizing);
        for _ in 0..SESSION_PROBES {
            let mut session = Session::new(Arc::clone(&compiled));
            let mut spans = StepSpans::new(tracer, None, session_runs as u64);
            session
                .run_transient_observed(p.t_end, p.n_steps, &[], &mut spans)
                .expect("hot model transient runs");
            counters.merge(&session.counters());
            session_runs += 1;
        }
    }
    let spans = tracer.spans();

    // Engine workers' busy time: each reply's solo compute.
    let busy_ms: f64 = solo_ms.iter().sum();
    report.push("package.build_s", median(&build_s), "s");
    report.push("core.compile_s", median(&compile_s), "s");
    report.push(
        "core.step_ms",
        median(&durations_ms(&spans, "core.step")),
        "ms",
    );
    report.push("core.op_ms", median(&solo_ms), "ms");
    report.push(
        "core.worker_idle_frac",
        1.0 - busy_ms / (WORKERS as f64 * tcp_wall * 1e3),
        "ratio",
    );
    let steps = session_runs * params(Class::WireSizing).n_steps;
    push_counter_metrics(&mut report, &counters, steps, session_runs, rungs);
    // The serve layers themselves, decomposed by subtraction.
    let p99 = |v: &[f64]| percentile(v, 99.0).value;
    report.notes.extend([
        format!("serve.solo_ms = {} ms", median(&solo_ms)),
        format!(
            "serve.inproc_p50_ms = {} ms, serve.inproc_p99_ms = {} ms",
            median(&inproc_ms),
            p99(&inproc_ms)
        ),
        format!(
            "serve.tcp_p50_ms = {} ms, serve.tcp_p99_ms = {} ms",
            median(&tcp_ms),
            p99(&tcp_ms)
        ),
        format!("serve.tcp_floor_ms = {floor_ms} ms"),
        format!("serve.protocol_us = {} us", protocol * 1e6),
        format!("serve.registry_compile_ms = {} ms", median(&registry_ms)),
        format!(
            "serve.stall_frac = {} ({stalls} of {} requests)",
            stalls as f64 / tcp.len() as f64,
            tcp.len()
        ),
        format!("serve.sessions_created = {sessions_created}, serve.shed_total = {shed_total}"),
    ]);
    let probe_model = HOT[1].build().expect("hot model builds");
    crate::probes::run(
        probe_model.model(),
        params(Class::WireSizing).t_end,
        &mut report,
    );
    // Layers sum back to the total: mean TCP latency = in-process latency
    // (solo compute + queueing) + protocol + what no layer accounts for
    // (socket and daemon threads).
    let tcp_mean = mean(&tcp_ms);
    let unexplained = (tcp_mean - mean(&inproc_ms) - protocol * 1e3).max(0.0);
    report.push("trace.uncovered_frac", unexplained / tcp_mean, "ratio");
    report.push(
        "trace.overhead_frac",
        mean(&latencies(&traced_tcp)) / tcp_mean - 1.0,
        "ratio",
    );
    report
}
