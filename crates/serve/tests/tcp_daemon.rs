//! End-to-end test of the TCP front end: a real socket on an ephemeral
//! port, NDJSON frames both ways, graceful shutdown. Read deadlines are
//! `Duration`-based socket timeouts — no wall-clock reads in test code.

use etherm_serve::daemon::Daemon;
use etherm_serve::{
    Engine, JobParams, ManualClock, ModelSpec, Request, RequestClass, Response, ServeConfig,
    ServeHandle,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client {
            reader,
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read frame");
        assert!(n > 0, "connection closed while expecting a frame");
        line.trim_end().to_string()
    }

    /// Reads frames until one whose "type" is in `terminals`, returning it.
    fn recv_until(&mut self, terminals: &[&str]) -> String {
        loop {
            let line = self.recv();
            if terminals.iter().any(|t| line.contains(&format!("\"type\":\"{t}\""))) {
                return line;
            }
        }
    }
}

/// An engine with `workers` workers behind a daemon on an ephemeral port,
/// which runs on its own thread.
fn start(workers: usize) -> (Arc<Engine>, SocketAddr, JoinHandle<()>) {
    let engine = Engine::with_clock(
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
        ManualClock::new(),
    );
    let daemon = Daemon::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind");
    let addr = daemon.local_addr();
    (engine, addr, std::thread::spawn(move || daemon.run()))
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

fn submit_line(id: u64, class: RequestClass, params: &JobParams, seed: u64) -> String {
    Request::Submit {
        id,
        class,
        model: ModelSpec::block_small(),
        params: params.clone(),
        seed,
    }
    .to_line()
}

fn bits(qoi: &[f64]) -> Vec<u64> {
    qoi.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn tcp_session_round_trip() {
    let (engine, addr, server) = start(2);

    let mut client = Client::connect(addr);

    // Version handshake.
    client.send("{\"type\":\"hello\", \"version\": 1}");
    let hello = client.recv();
    assert!(hello.contains("\"ok\":true"), "hello: {hello}");

    // Garbage is answered with a structured error, connection stays up.
    client.send("this is not json");
    let err = client.recv();
    assert!(err.contains("\"type\":\"error\""), "garbage: {err}");
    assert!(err.contains("\"kind\":\"invalid\""), "garbage: {err}");

    // Submit a small wire-sizing job and drive it to its result.
    client.send(
        "{\"type\":\"submit\", \"id\": 1, \"class\": \"wire_sizing\", \
         \"model\": {\"kind\": \"block\", \"nx\": 4, \"ny\": 2, \"nz\": 1, \
         \"wire_um\": 1500, \"profile\": \"default\"}, \
         \"params\": {\"t_end\": 0.5, \"n_steps\": 4}, \"seed\": 7}",
    );
    let accepted = client.recv();
    assert!(accepted.contains("\"type\":\"accepted\""), "{accepted}");
    let result = client.recv_until(&["result", "error", "shed", "cancelled"]);
    assert!(result.contains("\"type\":\"result\""), "terminal: {result}");
    assert!(result.contains("\"qoi\":["), "terminal: {result}");

    // Health over the wire.
    client.send("{\"type\":\"health\"}");
    let health = client.recv_until(&["health"]);
    assert!(health.contains("\"registry_compiles\":1"), "{health}");

    // Shutdown ends the server loop.
    client.send("{\"type\":\"shutdown\"}");
    server.join().expect("server thread joins");
    assert!(engine.is_shutting_down());
}

#[test]
fn tcp_version_mismatch_flagged() {
    let (_, addr, server) = start(ServeConfig::default().workers);

    let mut client = Client::connect(addr);
    client.send("{\"type\":\"hello\", \"version\": 999}");
    let hello = client.recv();
    assert!(hello.contains("\"ok\":false"), "hello: {hello}");

    client.send("{\"type\":\"shutdown\"}");
    server.join().expect("server thread joins");
}

/// Two jobs submitted back to back on one connection, before any frame is
/// read: every frame arrives whole, each job's `accepted` precedes its
/// terminal frame, and both answers equal the same jobs run alone.
#[test]
fn tcp_two_jobs_in_flight_on_one_connection() {
    let (_, addr, server) = start(2);

    let params = JobParams {
        t_end: 0.5,
        n_steps: 4,
        n_samples: 3,
        ..JobParams::default()
    };
    let jobs = [
        (1, RequestClass::Campaign, 7),
        (2, RequestClass::WireSizing, 8),
    ];
    let mut client = Client::connect(addr);
    for &(id, class, seed) in &jobs {
        client.send(&submit_line(id, class, &params, seed));
    }
    let mut accepted = BTreeSet::new();
    let mut answers = BTreeMap::new();
    while answers.len() < jobs.len() {
        let line = client.recv();
        let frame = Response::from_line(&line)
            .unwrap_or_else(|e| panic!("frame does not parse ({}): {line}", e.message));
        match frame {
            Response::Accepted { id } => {
                assert!(
                    !answers.contains_key(&id),
                    "job {id} accepted after its result"
                );
                assert!(accepted.insert(id), "job {id} accepted twice");
            }
            Response::Progress { id, .. } => {
                assert!(
                    accepted.contains(&id),
                    "job {id} progressed before accepted"
                );
            }
            Response::Result { id, qoi, .. } => {
                assert!(accepted.contains(&id), "job {id} finished before accepted");
                assert!(
                    answers.insert(id, bits(&qoi)).is_none(),
                    "job {id} answered twice"
                );
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    client.send("{\"type\":\"shutdown\"}");
    server.join().expect("server thread joins");

    let solo = Engine::with_clock(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        ManualClock::new(),
    );
    let handle = ServeHandle::new(Arc::clone(&solo));
    for &(id, class, seed) in &jobs {
        let ticket =
            handle.submit_with_id(id, class, ModelSpec::block_small(), params.clone(), seed);
        match ticket.wait_terminal() {
            Some(Response::Result { qoi, .. }) => {
                assert_eq!(
                    bits(&qoi),
                    answers[&id],
                    "job {id} differs from its solo replay"
                );
            }
            other => panic!("solo replay of job {id}: {other:?}"),
        }
    }
    solo.shutdown_and_join();
}

/// A long-lived connection holds nothing per finished job: 2,000
/// closed-loop one-step jobs leave the process's memory map about as long
/// as they found it. A thread kept per job would add its stack and guard
/// page, two map lines each.
#[cfg(target_os = "linux")]
#[test]
fn tcp_long_connection_keeps_the_memory_map_bounded() {
    fn map_lines() -> usize {
        std::fs::read_to_string("/proc/self/maps")
            .expect("read the memory map")
            .lines()
            .count()
    }
    let (_, addr, server) = start(2);

    let params = JobParams {
        t_end: 0.5,
        n_steps: 1,
        ..JobParams::default()
    };
    let mut client = Client::connect(addr);
    let mut run = |id: u64| {
        client.send(&submit_line(id, RequestClass::WireSizing, &params, id));
        loop {
            let frame = Response::from_line(&client.recv()).expect("frame parses");
            if is_terminal(&frame) {
                assert!(
                    matches!(frame, Response::Result { .. }),
                    "job {id}: {frame:?}"
                );
                break;
            }
        }
    };
    // Warm up: compile the model and fill the session pools first.
    for id in 1..=20 {
        run(id);
    }
    let before = map_lines();
    for id in 21..=2020 {
        run(id);
    }
    let after = map_lines();
    assert!(
        after < before + 400,
        "memory map grew from {before} to {after} lines over 2,000 jobs"
    );
    drop(client);

    let mut control = Client::connect(addr);
    control.send("{\"type\":\"shutdown\"}");
    server.join().expect("server thread joins");
}
