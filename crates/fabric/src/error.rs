//! Error types for fabric operations.

use std::fmt;

/// Convenience alias for fabric results.
pub type Result<T> = std::result::Result<T, FabricError>;

/// Errors produced by queue operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// The peer end of a queue has been dropped; no further transfer is
    /// possible.
    Disconnected,
    /// A transfer attempt was consumed by an injected fault or a full
    /// transport while a fault plan is active; retry budget remains.
    Retriable,
    /// The bounded retry budget (or a receive deadline) was exhausted.
    /// The runtime treats this as a fabric fault and enters recovery.
    Timeout,
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Disconnected => write!(f, "peer endpoint disconnected"),
            FabricError::Retriable => write!(f, "transfer attempt faulted; retry"),
            FabricError::Timeout => write!(f, "transfer timed out after retries"),
        }
    }
}

impl std::error::Error for FabricError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        for e in [
            FabricError::Disconnected,
            FabricError::Retriable,
            FabricError::Timeout,
        ] {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FabricError>();
    }
}
