//! Error types for the numerics crate.

use std::fmt;

/// Errors produced by linear-algebra routines and solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericsError {
    /// Two operands have incompatible dimensions.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        context: &'static str,
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually supplied.
        found: usize,
    },
    /// A factorization broke down (zero/negative pivot, loss of positive
    /// definiteness, ...).
    FactorizationFailed {
        /// Which factorization failed.
        kind: &'static str,
        /// Index of the offending pivot/row.
        index: usize,
    },
    /// An iterative solver hit its iteration limit without converging.
    NotConverged {
        /// Solver name.
        solver: &'static str,
        /// Number of iterations performed.
        iterations: usize,
        /// Final residual norm.
        residual: f64,
    },
    /// An iterative solver encountered a numerical breakdown (e.g. division
    /// by a vanishing inner product).
    Breakdown {
        /// Solver name.
        solver: &'static str,
        /// Description of the breakdown.
        detail: &'static str,
    },
    /// A solver detected a non-finite (NaN/Inf) value in its input or
    /// iteration state and stopped instead of iterating on garbage. Unlike
    /// [`NumericsError::Breakdown`] (a structural property of the operator,
    /// e.g. loss of positive definiteness), a non-finite value usually means
    /// contaminated data — the caller may retry from a clean state.
    NonFinite {
        /// Solver name.
        solver: &'static str,
        /// Which quantity became non-finite.
        detail: &'static str,
    },
    /// An argument was invalid (NaN input, empty system, zero step, ...).
    InvalidArgument(String),
}

impl fmt::Display for NumericsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericsError::DimensionMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, found {found}"
            ),
            NumericsError::FactorizationFailed { kind, index } => {
                write!(f, "{kind} factorization failed at pivot {index}")
            }
            NumericsError::NotConverged {
                solver,
                iterations,
                residual,
            } => write!(
                f,
                "{solver} did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            NumericsError::Breakdown { solver, detail } => {
                write!(f, "{solver} breakdown: {detail}")
            }
            NumericsError::NonFinite { solver, detail } => {
                write!(f, "{solver} encountered a non-finite {detail}")
            }
            NumericsError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for NumericsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = NumericsError::DimensionMismatch {
            context: "spmv",
            expected: 4,
            found: 3,
        };
        assert!(e.to_string().contains("spmv"));
        assert!(e.to_string().contains('4'));

        let e = NumericsError::NotConverged {
            solver: "cg",
            iterations: 100,
            residual: 1e-3,
        };
        assert!(e.to_string().contains("cg"));
        assert!(e.to_string().contains("100"));

        let e = NumericsError::Breakdown {
            solver: "pcg",
            detail: "pᵀAp not positive: operator is not SPD",
        };
        assert!(e.to_string().contains("not SPD"));

        let e = NumericsError::FactorizationFailed {
            kind: "cholesky",
            index: 2,
        };
        assert!(e.to_string().contains("cholesky"));

        let e = NumericsError::InvalidArgument("empty".into());
        assert!(e.to_string().contains("empty"));

        let e = NumericsError::NonFinite {
            solver: "pcg",
            detail: "residual",
        };
        assert!(e.to_string().contains("non-finite"));
        assert!(e.to_string().contains("residual"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumericsError>();
    }
}
