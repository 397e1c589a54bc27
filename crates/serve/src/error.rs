//! Error type for the async serving tier.

use std::fmt;

use fairrank::FairRankError;

/// Errors surfaced by [`FairRankService`](crate::FairRankService).
///
/// `#[non_exhaustive]`: new failure modes can be added without a
/// breaking change; downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The bounded submission queue is full — the backpressure signal of
    /// [`try_suggest`](crate::FairRankService::try_suggest) and of an
    /// expired [`submit_timeout`](crate::FairRankService::submit_timeout)
    /// deadline. Callers shed load, retry after a delay proportional to
    /// `depth`, or use the blocking
    /// [`submit`](crate::FairRankService::submit) path instead.
    Overloaded {
        /// The configured queue capacity that was hit.
        capacity: usize,
        /// Requests outstanding at rejection time: everything queued
        /// plus everything already being served. An HTTP front end
        /// divides this by its observed service rate to emit an honest
        /// `Retry-After` instead of a constant.
        depth: usize,
    },
    /// The service has been shut down; no new requests are accepted
    /// (requests already queued at shutdown are still drained and
    /// answered).
    Closed,
    /// The underlying ranker rejected the request or update.
    Rank(FairRankError),
    /// Serving this request's micro-batch panicked (in the oracle, for
    /// instance), with the panic message. Only that batch's callers see
    /// it: the service keeps serving.
    Panicked(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { capacity, depth } => {
                write!(
                    f,
                    "submission queue full (capacity {capacity}, {depth} requests outstanding)"
                )
            }
            ServiceError::Closed => write!(f, "service is shut down"),
            ServiceError::Rank(e) => write!(f, "ranker error: {e}"),
            ServiceError::Panicked(message) => write!(f, "serving panicked: {message}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Rank(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FairRankError> for ServiceError {
    fn from(e: FairRankError) -> Self {
        ServiceError::Rank(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let over = ServiceError::Overloaded {
            capacity: 8,
            depth: 11,
        };
        assert!(over.to_string().contains('8'));
        assert!(over.to_string().contains("11"));
        assert!(std::error::Error::source(&over).is_none());
        assert_eq!(ServiceError::Closed.to_string(), "service is shut down");
        let rank = ServiceError::from(FairRankError::EmptyDataset);
        assert!(rank.to_string().contains("empty"));
        assert!(std::error::Error::source(&rank).is_some());
        let panicked = ServiceError::Panicked("oracle blew up".to_string());
        assert_eq!(panicked.to_string(), "serving panicked: oracle blew up");
        assert!(std::error::Error::source(&panicked).is_none());
    }
}
