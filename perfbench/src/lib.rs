//! The etherm engine's benchmark: three workloads, each measured end to
//! end with tracing off and per layer in a separate traced run.
//!
//! See `README.md` next to this crate for the workloads, the metrics and
//! how they are meant to move.

pub mod gen;
pub mod probes;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
