//! Time as a capability: the one place the serve crate may read a clock.
//!
//! The `wall-clock` lint bans `Instant`/`SystemTime` outside the bench
//! harness because elapsed time must never shape physics. A server still
//! needs time for the uptime in its health frame, so this module confines
//! it behind [`Clock`]: production wires in
//! [`SystemClock`] (the crate's only justified wall-clock lint escapes,
//! re-asserted by `crates/lint/tests/self_check.rs`), tests wire
//! in [`ManualClock`] and stay fully deterministic. Nothing downstream of
//! a [`Clock`] may influence numerical results — job outputs depend only
//! on `(model, class, params, seed)`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic milliseconds since an arbitrary origin.
pub trait Clock: Send + Sync {
    fn now_millis(&self) -> u64;
}

/// The production clock: monotonic milliseconds since construction.
#[derive(Debug)]
pub struct SystemClock {
    origin: std::time::Instant, // lint:allow(wall-clock): serve uptime/queue-age only; never feeds physics
}

impl SystemClock {
    pub fn new() -> Self {
        SystemClock {
            origin: std::time::Instant::now(), // lint:allow(wall-clock): monotonic origin for relative millis
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_millis(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// A hand-advanced clock for deterministic tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    millis: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Arc<Self> {
        Arc::new(ManualClock::default())
    }

    /// Advances the clock by `ms`.
    pub fn advance(&self, ms: u64) {
        self.millis.fetch_add(ms, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_millis(&self) -> u64 {
        self.millis.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances() {
        let c = ManualClock::new();
        assert_eq!(c.now_millis(), 0);
        c.advance(250);
        assert_eq!(c.now_millis(), 250);
    }

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock::new();
        let a = c.now_millis();
        let b = c.now_millis();
        assert!(b >= a);
    }
}
