//! Smartpick error types.

use std::error::Error;
use std::fmt;

use smartpick_cloudsim::CloudSimError;
use smartpick_engine::EngineError;
use smartpick_ml::MlError;

use crate::wp::ConstraintMode;

/// Errors reported by the Smartpick system.
#[derive(Debug)]
#[non_exhaustive]
pub enum SmartpickError {
    /// A model-training or prediction failure.
    Ml(MlError),
    /// A simulated-execution failure.
    Engine(EngineError),
    /// A cloud-simulation failure.
    Cloud(CloudSimError),
    /// No training queries / samples were provided.
    NoTrainingData,
    /// The predictor has no known queries and the request had no SQL to
    /// similarity-match.
    UnknownQuery(String),
    /// An invalid property value.
    InvalidProperty {
        /// The `smartpick.*` key.
        key: String,
        /// The offending value.
        value: String,
    },
    /// A persisted driver state failed validation during restore.
    InvalidState(String),
    /// The predictor's search bounds leave the requested constraint mode
    /// no configuration to choose from (say, a VM-only request to a
    /// predictor whose `max_vm` is 0).
    EmptySearchSpace(ConstraintMode),
}

impl fmt::Display for SmartpickError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmartpickError::Ml(e) => write!(f, "prediction model error: {e}"),
            SmartpickError::Engine(e) => write!(f, "execution error: {e}"),
            SmartpickError::Cloud(e) => write!(f, "cloud error: {e}"),
            SmartpickError::NoTrainingData => {
                write!(f, "no training data; run the kick-start training first")
            }
            SmartpickError::UnknownQuery(id) => {
                write!(
                    f,
                    "query `{id}` is unknown and cannot be similarity-matched"
                )
            }
            SmartpickError::InvalidProperty { key, value } => {
                write!(f, "invalid value `{value}` for property `{key}`")
            }
            SmartpickError::InvalidState(what) => {
                write!(f, "invalid persisted state: {what}")
            }
            SmartpickError::EmptySearchSpace(constraint) => write!(
                f,
                "no configuration satisfies `{}` within the predictor's search bounds",
                constraint.name()
            ),
        }
    }
}

impl Error for SmartpickError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SmartpickError::Ml(e) => Some(e),
            SmartpickError::Engine(e) => Some(e),
            SmartpickError::Cloud(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MlError> for SmartpickError {
    fn from(e: MlError) -> Self {
        SmartpickError::Ml(e)
    }
}

impl From<EngineError> for SmartpickError {
    fn from(e: EngineError) -> Self {
        SmartpickError::Engine(e)
    }
}

impl From<CloudSimError> for SmartpickError {
    fn from(e: CloudSimError) -> Self {
        SmartpickError::Cloud(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: SmartpickError = MlError::EmptyDataset.into();
        assert!(e.source().is_some());
        let e: SmartpickError = EngineError::EmptyAllocation.into();
        assert!(e.to_string().contains("execution"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SmartpickError>();
    }
}
