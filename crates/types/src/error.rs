//! Workspace-wide error type.
//!
//! Hand-rolled rather than derived so the workspace stays within its
//! declared dependency budget. The variants mirror the failure modes of the
//! real stack: MPS admission failures, invalid configuration, and scheduler
//! constraint violations.

use crate::ids::GpuId;
use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Unified error type for the simulator, MPS model, and scheduler.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A run asked for more concurrent MPS clients than the device admits
    /// (the post-Volta 48-client limit).
    ClientLimitExceeded { gpu: GpuId, limit: usize },
    /// A configuration value was outside its legal range.
    InvalidConfig(String),
    /// An operation failed outside the model's own rules (e.g. reading or
    /// writing a persisted profile store).
    InvalidState(String),
    /// The scheduler produced or was asked to execute a plan that violates
    /// a hard constraint (memory capacity, client limit, dependency order).
    PlanViolation(String),
    /// The simulation failed to make progress (all runnable kernels have a
    /// zero rate) — indicates an engine bug or an impossible allocation.
    Stalled { at_seconds: f64, detail: String },
    /// Profile data required by the scheduler is missing for a task kind.
    MissingProfile(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ClientLimitExceeded { gpu, limit } => {
                write!(f, "{gpu}: MPS client limit of {limit} exceeded")
            }
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::InvalidState(msg) => write!(f, "invalid state: {msg}"),
            Error::PlanViolation(msg) => write!(f, "schedule plan violates constraints: {msg}"),
            Error::Stalled { at_seconds, detail } => {
                write!(f, "simulation stalled at t={at_seconds:.6}s: {detail}")
            }
            Error::MissingProfile(kind) => {
                write!(f, "no profile available for workload kind {kind:?}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::ClientLimitExceeded {
            gpu: GpuId::new(1),
            limit: 48,
        };
        let msg = e.to_string();
        assert!(msg.contains("gpu1"));
        assert!(msg.contains("48"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_error<E: std::error::Error>(_e: &E) {}
        assert_error(&Error::InvalidConfig("x".into()));
    }

    #[test]
    fn errors_compare_equal_structurally() {
        let limit = |gpu| Error::ClientLimitExceeded {
            gpu: GpuId::new(gpu),
            limit: 48,
        };
        assert_eq!(limit(2), limit(2));
        assert_ne!(limit(2), limit(3));
    }
}
