//! Error types for the ML substrate.

use std::error::Error;
use std::fmt;

/// Errors reported by model fitting and prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MlError {
    /// Training was attempted on an empty dataset.
    EmptyDataset,
    /// A feature vector had the wrong number of columns.
    DimensionMismatch {
        /// Columns the model expects.
        expected: usize,
        /// Columns it received.
        actual: usize,
    },
    /// A matrix decomposition failed (not positive definite).
    NotPositiveDefinite,
    /// An invalid hyperparameter value was supplied.
    InvalidParameter(&'static str),
    /// A candidate matrix column is neither the same in every row nor a
    /// non-decreasing function of one lattice axis (see
    /// [`crate::lattice::Lattice::compile`]).
    NonAxisColumn {
        /// The offending feature column.
        column: usize,
    },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::EmptyDataset => write!(f, "cannot fit a model on an empty dataset"),
            MlError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "feature dimension mismatch: expected {expected}, got {actual}"
                )
            }
            MlError::NotPositiveDefinite => {
                write!(
                    f,
                    "kernel matrix is not positive definite; increase noise variance"
                )
            }
            MlError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            MlError::NonAxisColumn { column } => write!(
                f,
                "feature column {column} is neither uniform across the candidate grid nor \
                 non-decreasing in vm, sl or vm + sl"
            ),
        }
    }
}

impl Error for MlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_dimensions() {
        let e = MlError::DimensionMismatch {
            expected: 9,
            actual: 4,
        };
        let s = e.to_string();
        assert!(s.contains('9') && s.contains('4'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MlError>();
    }
}
