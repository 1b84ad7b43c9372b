//! Error type of the coupled solver.

use etherm_numerics::NumericsError;
use std::fmt;

/// Errors from model construction or the coupled solve.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The underlying linear algebra failed (breakdown, dimension bug).
    Numerics(NumericsError),
    /// A linear solve hit its iteration cap.
    LinearSolveFailed {
        /// Which subsystem failed ("electrical" or "thermal").
        system: &'static str,
        /// Iterations performed.
        iterations: usize,
        /// Final residual.
        residual: f64,
    },
    /// The model is inconsistent (bad wire attachment, missing material...).
    InvalidModel(String),
    /// A subsystem solve produced or received non-finite values (NaN/Inf)
    /// and the recovery ladder could not repair it.
    NonFinite {
        /// Which subsystem was contaminated ("electrical" or "thermal").
        system: &'static str,
        /// What quantity went non-finite (propagated from the solver guard).
        detail: &'static str,
    },
    /// The run exhausted its total linear-iteration budget
    /// ([`crate::Session::set_iteration_budget`]).
    BudgetExhausted {
        /// The configured budget.
        budget: usize,
        /// Iterations spent when the budget tripped.
        spent: usize,
    },
    /// A transient step failed after all recovery escalations; wraps the
    /// final underlying error with step/time context.
    StepFailed {
        /// Time step index (0-based).
        step: usize,
        /// Physical time at the *start* of the failed step, in seconds.
        time: f64,
        /// The error that ended the escalation ladder.
        source: Box<CoreError>,
    },
    /// An ensemble run aborted: one sample failed under
    /// [`crate::FailurePolicy::Abort`], or quarantine overflowed
    /// `max_failures`.
    EnsembleFailed {
        /// The failed sample with the lowest index. On the batched path,
        /// where a sample fails its whole group, the member whose apply or
        /// step failed in the lowest-index failed group.
        sample: usize,
        /// Total failed samples observed before the abort.
        failures: usize,
        /// Samples never attempted because of the abort.
        abandoned: usize,
        /// The error of that sample.
        source: Box<CoreError>,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Numerics(e) => write!(f, "numerics error: {e}"),
            CoreError::LinearSolveFailed {
                system,
                iterations,
                residual,
            } => write!(
                f,
                "{system} solve failed after {iterations} iterations (residual {residual:.3e})"
            ),
            CoreError::InvalidModel(msg) => write!(f, "invalid model: {msg}"),
            CoreError::NonFinite { system, detail } => {
                write!(f, "{system} solve produced a non-finite {detail}")
            }
            CoreError::BudgetExhausted { budget, spent } => write!(
                f,
                "linear iteration budget exhausted ({spent} of {budget} iterations spent)"
            ),
            CoreError::StepFailed { step, time, source } => write!(
                f,
                "step {step} (t = {time:.6e} s) failed after recovery: {source}"
            ),
            CoreError::EnsembleFailed {
                sample,
                failures,
                abandoned,
                source,
            } => write!(
                f,
                "ensemble aborted at sample {sample} ({failures} failed, {abandoned} abandoned): {source}"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Numerics(e) => Some(e),
            CoreError::StepFailed { source, .. } | CoreError::EnsembleFailed { source, .. } => {
                Some(source.as_ref())
            }
            _ => None,
        }
    }
}

impl From<NumericsError> for CoreError {
    fn from(e: NumericsError) -> Self {
        CoreError::Numerics(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::from(NumericsError::InvalidArgument("x".into()));
        assert!(e.to_string().contains("numerics"));
        assert!(std::error::Error::source(&e).is_some());
        let e = CoreError::LinearSolveFailed {
            system: "thermal",
            iterations: 9,
            residual: 1.0,
        };
        assert!(e.to_string().contains("thermal"));
        let e = CoreError::InvalidModel("no wires".into());
        assert!(e.to_string().contains("no wires"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn resilience_variants_display_and_chain() {
        let e = CoreError::NonFinite {
            system: "thermal",
            detail: "residual",
        };
        assert!(e.to_string().contains("non-finite"));
        let e = CoreError::BudgetExhausted {
            budget: 100,
            spent: 120,
        };
        assert!(e.to_string().contains("budget"));
        let inner = CoreError::NonFinite {
            system: "electrical",
            detail: "residual",
        };
        let e = CoreError::StepFailed {
            step: 4,
            time: 2.5e-4,
            source: Box::new(inner.clone()),
        };
        assert!(e.to_string().contains("step 4"));
        assert!(e.to_string().contains("non-finite"));
        assert!(std::error::Error::source(&e).is_some());
        let e = CoreError::EnsembleFailed {
            sample: 7,
            failures: 2,
            abandoned: 3,
            source: Box::new(inner),
        };
        assert!(e.to_string().contains("sample 7"));
        assert!(e.to_string().contains("abandoned"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
