//! The one error type every [`Solver`](crate::Solver) returns.

use decss_core::TapError;
use decss_shortcuts::twoecss::NotTwoEdgeConnected;
use std::fmt;

/// Errors from the unified solve entry points.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SolveError {
    /// The requested algorithm name is not in the registry.
    UnknownAlgorithm {
        /// The name that failed to resolve.
        name: String,
        /// The registered names, comma-joined (for the error message).
        known: String,
    },
    /// The input graph is not 2-edge-connected: no 2-ECSS exists.
    NotTwoEdgeConnected,
    /// The request's `epsilon` is not a positive finite number.
    BadEpsilon,
    /// A request knob is out of its domain (message names it).
    BadRequest(String),
    /// The instance exceeds a solver's hard size limit (exact solvers).
    TooLarge {
        /// The solver that refused.
        algorithm: &'static str,
        /// Its limit, in the named unit.
        limit: usize,
        /// What the instance has.
        got: usize,
        /// The unit the limit counts (`"edges"`, `"candidates"`).
        unit: &'static str,
    },
    /// The request's cancellation flag was set.
    Cancelled,
    /// The request's deadline passed before the solve finished.
    DeadlineExceeded,
    /// The request's deadline passed while the job was still waiting in
    /// a service queue: the solve never started. Distinct from
    /// [`DeadlineExceeded`](SolveError::DeadlineExceeded) so batch
    /// consumers can tell "too slow" from "never scheduled in time"
    /// (queue sizing vs. algorithm choice).
    ExpiredInQueue,
    /// The solve aborted on an internal invariant failure (a panic
    /// inside the solver, caught and surfaced by a service worker so
    /// one poisoned job cannot wedge a batch). The message carries the
    /// panic payload when it was a string.
    Internal(String),
    /// A service refused to take the job at all — its intake was
    /// closed (draining for shutdown) or shed under load — so the
    /// solve never entered a queue. Distinct from
    /// [`ExpiredInQueue`](SolveError::ExpiredInQueue): a rejected job
    /// was never accepted, an expired one was accepted and starved.
    Rejected(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::UnknownAlgorithm { name, known } => {
                write!(f, "unknown algorithm {name:?}; registered: {known}")
            }
            SolveError::NotTwoEdgeConnected => {
                write!(f, "input graph is not 2-edge-connected")
            }
            SolveError::BadEpsilon => write!(f, "epsilon must be a positive finite number"),
            SolveError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            SolveError::TooLarge { algorithm, limit, got, unit } => {
                write!(f, "{algorithm} is limited to {limit} {unit}, instance has {got}")
            }
            SolveError::Cancelled => write!(f, "solve cancelled"),
            SolveError::DeadlineExceeded => write!(f, "solve deadline exceeded"),
            SolveError::ExpiredInQueue => {
                write!(f, "solve deadline expired while the job was queued")
            }
            SolveError::Internal(msg) => write!(f, "internal solver failure: {msg}"),
            SolveError::Rejected(reason) => write!(f, "job rejected: {reason}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<TapError> for SolveError {
    fn from(e: TapError) -> Self {
        match e {
            TapError::NotTwoEdgeConnected => SolveError::NotTwoEdgeConnected,
            TapError::BadEpsilon => SolveError::BadEpsilon,
            TapError::InvariantBroken(_) => SolveError::Internal(e.to_string()),
        }
    }
}

impl From<NotTwoEdgeConnected> for SolveError {
    fn from(_: NotTwoEdgeConnected) -> Self {
        SolveError::NotTwoEdgeConnected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_converts() {
        assert_eq!(SolveError::from(TapError::BadEpsilon), SolveError::BadEpsilon);
        assert!(matches!(
            SolveError::from(TapError::InvariantBroken("x")),
            SolveError::Internal(msg) if msg.contains("invariant broken: x")
        ));
        assert_eq!(SolveError::from(NotTwoEdgeConnected), SolveError::NotTwoEdgeConnected);
        for e in [
            SolveError::UnknownAlgorithm { name: "x".into(), known: "a, b".into() },
            SolveError::NotTwoEdgeConnected,
            SolveError::BadEpsilon,
            SolveError::BadRequest("bandwidth must be >= 1".into()),
            SolveError::TooLarge { algorithm: "exact", limit: 22, got: 30, unit: "edges" },
            SolveError::Cancelled,
            SolveError::DeadlineExceeded,
            SolveError::ExpiredInQueue,
            SolveError::Internal("sliced bread panic".into()),
            SolveError::Rejected("service is draining".into()),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
