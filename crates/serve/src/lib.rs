//! `etherm_serve`: the electrothermal engine as a long-running,
//! multi-tenant service.
//!
//! Everything upstream treats a simulation as a one-shot batch job:
//! build, compile, run, exit. This crate keeps the expensive state —
//! compiled models, warmed [`etherm_core::Session`] pools — resident and
//! serves many small requests against it:
//!
//! * [`ModelRegistry`] — an LRU of `Arc<CompiledModel>` keyed by the
//!   content hash of a [`ModelSpec`], with single-flight compilation;
//! * [`Engine`] — per-model session pools behind a work-stealing
//!   scheduler over `std::thread` workers, with admission control
//!   (bounded queue + load shedding, per-request-class iteration
//!   budgets, per-model health from merged recovery ledgers). Each
//!   request class calls the library routine that does its work:
//!   `fusing` runs `etherm_reliability::find_critical_load`, `campaign`
//!   and `qoi` run `etherm_core::run_ensemble` (through `FullSolve` or a
//!   registered surrogate tier for `qoi`);
//! * [`ServeHandle`] — the in-process client, one channel per job;
//! * [`daemon`] — the TCP front end speaking the versioned NDJSON
//!   protocol of [`protocol`] (see `crates/serve/PROTOCOL.md`), one
//!   reader and one writer thread per connection.
//!
//! # Determinism
//!
//! Every job result is bit-determined by `(model spec, request class,
//! params, seed)` — worker count, queue order and pool reuse are
//! invisible. See the [`engine`] module docs for how the job prologue
//! enforces this.
//!
//! The crate is `std`-only by design: the wire format is a small
//! hand-rolled JSON subset ([`json`]), randomness is a seeded splitmix64
//! stream, and wall-clock access is confined to [`clock::SystemClock`].

#![forbid(unsafe_code)]

pub mod clock;
pub mod daemon;
pub mod engine;
pub mod handle;
pub mod json;
pub mod protocol;
pub mod registry;
pub mod spec;

pub use clock::{Clock, ManualClock, SystemClock};
pub use daemon::Daemon;
pub use engine::{ClassBudgets, Engine, ServeConfig};
pub use handle::{JobTicket, ServeHandle};
pub use protocol::{
    ErrorKind, JobParams, ModelHealth, ProtocolError, Request, RequestClass, Response,
    PROTOCOL_VERSION,
};
pub use registry::ModelRegistry;
pub use spec::{ModelSpec, SolverProfile, SpecKind};
