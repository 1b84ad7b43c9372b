//! The TCP front end: newline-delimited JSON frames over a plain socket.
//!
//! Each accepted connection is one reader thread and one writer thread
//! joined by one channel of [`Response`] frames. The reader parses one
//! [`Request`] per line and answers it into the channel: the jobs it
//! submits send their frames there, and so do immediate answers. The
//! writer sends each frame with its newline in one write on a
//! `TCP_NODELAY` socket, so the frames of concurrent jobs on one
//! connection interleave whole and each job's frames stay in order. The
//! writer ends once the reader is done and every job it submitted has
//! sent its terminal frame.
//!
//! Unparseable input never kills the connection: it's answered with a
//! structured `error` frame (id 0, kind `invalid`).

use crate::engine::Engine;
use crate::protocol::{ErrorKind, Request, Response, PROTOCOL_VERSION};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};

/// A running NDJSON-over-TCP server around an [`Engine`].
pub struct Daemon {
    engine: Arc<Engine>,
    listener: TcpListener,
    local_addr: SocketAddr,
}

impl Daemon {
    /// Binds `addr` (use port 0 for an ephemeral port) over `engine`.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] from the bind.
    pub fn bind(addr: &str, engine: Arc<Engine>) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Daemon {
            engine,
            listener,
            local_addr,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Accepts and serves connections until a `shutdown` request arrives,
    /// then returns once every connection has closed. Connections are
    /// served on scoped threads. The connection that handles `shutdown`
    /// joins the engine's workers and then connects to the listener once,
    /// which wakes the blocked `accept`. A `shutdown` frame is the way to
    /// stop a daemon: stopping its engine with
    /// [`Engine::shutdown_and_join`] leaves `accept` waiting until the next
    /// connection arrives.
    pub fn run(self) {
        std::thread::scope(|scope| {
            for stream in self.listener.incoming() {
                let Ok(stream) = stream else { break };
                if self.engine.is_shutting_down() {
                    break;
                }
                scope.spawn(|| serve_connection(stream, &self.engine, self.local_addr));
            }
        });
    }
}

/// Serves one connection until the client closes it or asks for shutdown.
fn serve_connection(stream: TcpStream, engine: &Engine, listener_addr: SocketAddr) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let (frames, outbox) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| write_frames(stream, outbox));
        read_requests(read_half, engine, frames, listener_addr);
    });
}

/// Answers request lines until the client closes the connection or asks
/// for shutdown. Dropping `frames` on return lets the writer finish once
/// the jobs submitted here are done.
fn read_requests(
    stream: TcpStream,
    engine: &Engine,
    frames: mpsc::Sender<Response>,
    listener_addr: SocketAddr,
) {
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { break };
        if !line.trim().is_empty() && answer(engine, &line, &frames) {
            // The engine has stopped: wake the blocked `accept` once.
            let _ = TcpStream::connect(listener_addr);
            break;
        }
    }
}

/// Writes each frame with its newline in one `write_all`, until every
/// sender is gone or the client stops reading.
fn write_frames(mut stream: TcpStream, outbox: mpsc::Receiver<Response>) {
    for frame in outbox {
        let mut line = frame.to_line();
        line.push('\n');
        if stream.write_all(line.as_bytes()).is_err() {
            break;
        }
    }
}

/// Answers one request line into `frames`: a submitted job sends its own
/// frames there, everything else at most one immediate frame. Returns
/// whether the line was `shutdown`, after the engine has stopped.
fn answer(engine: &Engine, line: &str, frames: &mpsc::Sender<Response>) -> bool {
    let reply = match Request::from_line(line) {
        Ok(Request::Hello { version }) => Response::Hello {
            version: PROTOCOL_VERSION,
            ok: version == PROTOCOL_VERSION,
        },
        Ok(Request::Submit {
            id,
            class,
            model,
            params,
            seed,
        }) => {
            engine.submit(id, class, model, params, seed, frames.clone());
            return false;
        }
        Ok(Request::Cancel { id }) => {
            if engine.cancel(id) {
                return false;
            }
            Response::Error {
                id,
                kind: ErrorKind::Invalid,
                message: "no active job with this id".to_string(),
            }
        }
        Ok(Request::Health) => engine.health(),
        Ok(Request::Shutdown) => {
            engine.shutdown_and_join();
            return true;
        }
        Err(e) => Response::Error {
            id: 0,
            kind: ErrorKind::Invalid,
            message: e.message,
        },
    };
    let _ = frames.send(reply);
    false
}

/// Runs a daemon to completion on the current thread, printing
/// `LISTENING <addr>` to stdout first so scripts can scrape the ephemeral
/// port. Used by the `etherm-served` binary and the CI smoke job.
pub fn serve_blocking(addr: &str, engine: Arc<Engine>) -> std::io::Result<()> {
    let daemon = Daemon::bind(addr, engine)?;
    let bound = daemon.local_addr();
    // Stdout, not a log file: the contract with the CI scripted session.
    println!("LISTENING {bound}");
    let _ = std::io::stdout().flush();
    daemon.run();
    Ok(())
}
