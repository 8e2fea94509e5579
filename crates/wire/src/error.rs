//! Typed failures on both ends of the wire.

use std::error::Error;
use std::fmt;
use std::io;

use smartpick_service::ServiceError;

/// Machine-readable rejection categories a server can put on the wire.
///
/// The set is a superset of [`ServiceError`]'s variants: the extra kinds
/// ([`ErrorKind::BadRequest`], [`ErrorKind::Protocol`],
/// [`ErrorKind::Busy`]) are produced by the wire layer itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// No tenant registered under this id.
    UnknownTenant,
    /// A tenant with this id is already registered.
    TenantExists,
    /// The update-queue shard is at capacity (backpressure; retry later).
    QueueFull,
    /// The tenant is over its pending-report quota (retry later).
    QuotaExceeded,
    /// The service behind the server has been shut down.
    Stopped,
    /// A core prediction / execution / retraining failure.
    Core,
    /// The payload did not decode, or decoded to no known request.
    BadRequest,
    /// The frame itself was unusable (a version byte other than 3, or an
    /// oversized payload).
    Protocol,
    /// The server is at its connection cap; retry later.
    Busy,
}

impl ErrorKind {
    /// The stable wire name (snake_case).
    pub fn name(&self) -> &'static str {
        match self {
            ErrorKind::UnknownTenant => "unknown_tenant",
            ErrorKind::TenantExists => "tenant_exists",
            ErrorKind::QueueFull => "queue_full",
            ErrorKind::QuotaExceeded => "quota_exceeded",
            ErrorKind::Stopped => "stopped",
            ErrorKind::Core => "core",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Protocol => "protocol",
            ErrorKind::Busy => "busy",
        }
    }

    /// Parses a stable wire name back.
    pub fn parse(name: &str) -> Option<ErrorKind> {
        Some(match name {
            "unknown_tenant" => ErrorKind::UnknownTenant,
            "tenant_exists" => ErrorKind::TenantExists,
            "queue_full" => ErrorKind::QueueFull,
            "quota_exceeded" => ErrorKind::QuotaExceeded,
            "stopped" => ErrorKind::Stopped,
            "core" => ErrorKind::Core,
            "bad_request" => ErrorKind::BadRequest,
            "protocol" => ErrorKind::Protocol,
            "busy" => ErrorKind::Busy,
            _ => return None,
        })
    }

    /// The kind a [`ServiceError`] maps to on the wire.
    pub fn of_service_error(e: &ServiceError) -> ErrorKind {
        match e {
            ServiceError::UnknownTenant(_) => ErrorKind::UnknownTenant,
            ServiceError::TenantExists(_) => ErrorKind::TenantExists,
            ServiceError::QueueFull { .. } => ErrorKind::QueueFull,
            ServiceError::QuotaExceeded { .. } => ErrorKind::QuotaExceeded,
            ServiceError::Stopped => ErrorKind::Stopped,
            _ => ErrorKind::Core,
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors a [`crate::WireClient`] call can produce.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// A socket-level failure (connect, read, write, timeout).
    Io(io::Error),
    /// The peer violated the protocol: bad version byte, oversized or
    /// truncated frame, undecodable payload, or a response of the wrong
    /// shape for the request.
    Protocol(String),
    /// The server answered with an error response.
    Rejected {
        /// Machine-readable category.
        kind: ErrorKind,
        /// Human-readable server-side message.
        message: String,
        /// Whether the server marked the rejection transient (back off
        /// and resend the same request).
        retryable: bool,
    },
}

impl WireError {
    /// Whether the failure is worth a client-side retry: transient
    /// server rejections (queue full, quota, busy) — never protocol or
    /// I/O failures.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            WireError::Rejected {
                retryable: true,
                ..
            }
        )
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Protocol(msg) => write!(f, "wire protocol error: {msg}"),
            WireError::Rejected {
                kind,
                message,
                retryable,
            } => write!(
                f,
                "server rejected request ({kind}{}): {message}",
                if *retryable { ", retryable" } else { "" }
            ),
        }
    }
}

impl Error for WireError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            ErrorKind::UnknownTenant,
            ErrorKind::TenantExists,
            ErrorKind::QueueFull,
            ErrorKind::QuotaExceeded,
            ErrorKind::Stopped,
            ErrorKind::Core,
            ErrorKind::BadRequest,
            ErrorKind::Protocol,
            ErrorKind::Busy,
        ] {
            assert_eq!(ErrorKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ErrorKind::parse("nope"), None);
    }

    #[test]
    fn service_error_mapping_and_retryability() {
        let e = ServiceError::QueueFull { capacity: 8 };
        assert_eq!(ErrorKind::of_service_error(&e), ErrorKind::QueueFull);
        let rejected = WireError::Rejected {
            kind: ErrorKind::QueueFull,
            message: e.to_string(),
            retryable: e.is_retryable(),
        };
        assert!(rejected.is_retryable());
        assert!(!WireError::Protocol("x".into()).is_retryable());
    }
}
