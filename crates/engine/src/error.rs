//! Error type shared by all kernel operators.

use std::fmt;

/// Errors raised by the relational kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// An operator received a column of an unexpected type.
    TypeMismatch {
        /// What the operator expected (human readable).
        expected: String,
        /// What it actually found.
        found: String,
    },
    /// Two columns that must have equal length do not.
    LengthMismatch {
        /// Length of the first operand.
        left: usize,
        /// Length of the second operand.
        right: usize,
    },
    /// A value could not be converted (e.g. a non-numeric string cast to a number).
    Conversion(String),
    /// Generic invariant violation inside an operator.
    Internal(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            EngineError::LengthMismatch { left, right } => {
                write!(f, "column length mismatch: {left} vs {right}")
            }
            EngineError::Conversion(msg) => write!(f, "conversion error: {msg}"),
            EngineError::Internal(msg) => write!(f, "internal engine error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Convenient result alias used throughout the kernel.
pub type Result<T> = std::result::Result<T, EngineError>;
