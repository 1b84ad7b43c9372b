//! The in-process client: submit jobs to an [`Engine`] without a socket.
//!
//! `ServeHandle` is what library embedders and the bench harness use; the
//! TCP daemon is the same engine behind a line protocol. A submission
//! yields a [`JobTicket`] whose receiver delivers the job's frames in
//! order, ending with exactly one terminal frame (`result`, `error`,
//! `shed` or `cancelled`).

use crate::engine::Engine;
use crate::protocol::{JobParams, RequestClass, Response};
use crate::spec::ModelSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// An in-process client for an [`Engine`].
#[derive(Clone)]
pub struct ServeHandle {
    engine: Arc<Engine>,
    next_id: Arc<AtomicU64>,
}

impl ServeHandle {
    /// A handle over `engine`. Handles may be cloned freely; auto-assigned
    /// job ids stay unique across clones.
    pub fn new(engine: Arc<Engine>) -> Self {
        ServeHandle {
            engine,
            next_id: Arc::new(AtomicU64::new(1)),
        }
    }

    /// The engine behind this handle.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Submits a job with an auto-assigned id.
    pub fn submit(
        &self,
        class: RequestClass,
        spec: ModelSpec,
        params: JobParams,
        seed: u64,
    ) -> JobTicket {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.submit_with_id(id, class, spec, params, seed)
    }

    /// Submits a job under a caller-chosen id (must be unique among active
    /// jobs and positive).
    pub fn submit_with_id(
        &self,
        id: u64,
        class: RequestClass,
        spec: ModelSpec,
        params: JobParams,
        seed: u64,
    ) -> JobTicket {
        let (tx, rx) = mpsc::channel();
        self.engine.submit(id, class, spec, params, seed, tx);
        JobTicket { id, rx }
    }

    /// Requests cancellation of an active job.
    pub fn cancel(&self, id: u64) -> bool {
        self.engine.cancel(id)
    }

    /// The current health frame.
    pub fn health(&self) -> Response {
        self.engine.health()
    }
}

/// The frame stream of one submitted job.
pub struct JobTicket {
    id: u64,
    rx: mpsc::Receiver<Response>,
}

impl JobTicket {
    /// The job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The next frame, blocking until one arrives. `None` once the stream
    /// is exhausted (after the terminal frame).
    pub fn next(&self) -> Option<Response> {
        self.rx.recv().ok()
    }

    /// Like [`next`](Self::next) with an upper bound on the wait.
    pub fn next_timeout(&self, timeout: Duration) -> Option<Response> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Blocks until the terminal frame (`result`, `error`, `shed` or
    /// `cancelled`), discarding progress frames. `None` if the stream
    /// closed without one (engine torn down mid-job).
    pub fn wait_terminal(&self) -> Option<Response> {
        while let Some(frame) = self.next() {
            if is_terminal(&frame) {
                return Some(frame);
            }
        }
        None
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
