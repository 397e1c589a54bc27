//! The unified request/response types of the serving API.
//!
//! Every serving entry point — [`FairRanker::respond`],
//! [`FairRanker::respond_batch`], and the async `FairRankService` in the
//! `fairrank-serve` crate — speaks one pair of
//! types: a [`SuggestRequest`] in, a [`Suggestion`] out. The request
//! carries the query weights plus per-request options (top-k
//! materialization, fast-path control); the response carries the weights
//! to serve with, the fairness verdict ([`KnownFairness`]), the dataset
//! version the answer reflects, and per-answer serving statistics
//! ([`SuggestStats`]).
//!
//! This replaces the bare `&[f64]` slices and enum-only returns of the
//! original `FairRanker::suggest*` methods (removed after their
//! two-PR deprecation window): a structured request is what an async
//! submission queue can own and coalesce, and a structured response is
//! what a caller can route without re-deriving which weights to rank
//! with. The raw index verdict survives as
//! [`Answer`](crate::backend::Answer) — the enum previously named `Suggestion` — which backends
//! still return and [`Suggestion::fairness`] wraps.
//!
//! [`FairRanker::respond`]: crate::FairRanker::respond
//! [`FairRanker::respond_batch`]: crate::FairRanker::respond_batch

/// One closest-satisfactory-function query, as submitted to the serving
/// API: the proposed weight vector plus per-request options.
///
/// Construct with [`SuggestRequest::new`] and refine with the builder
/// methods:
///
/// ```
/// use fairrank::{SuggestOptions, SuggestRequest};
///
/// let req = SuggestRequest::new([1.0, 0.25])
///     .with_top_k(10)
///     .with_options(SuggestOptions::default().index_fastpath(false));
/// assert_eq!(req.query, vec![1.0, 0.25]);
/// assert_eq!(req.k, Some(10));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SuggestRequest {
    /// The proposed weight vector (`len == ds.dim()`, finite,
    /// non-negative, not all zero — validated by the serving layer).
    pub query: Vec<f64>,
    /// When set, the response's [`SuggestStats::top_k`] materializes the
    /// top-`k` item ids ranked under the *answered* weights — the
    /// ranking the caller would actually serve.
    pub k: Option<usize>,
    /// Per-request serving options.
    pub options: SuggestOptions,
}

impl SuggestRequest {
    /// A request for `query` with default options and no top-k
    /// materialization.
    #[must_use]
    pub fn new(query: impl Into<Vec<f64>>) -> Self {
        SuggestRequest {
            query: query.into(),
            k: None,
            options: SuggestOptions::default(),
        }
    }

    /// Materialize the top-`k` ranking under the answered weights into
    /// [`SuggestStats::top_k`].
    #[must_use]
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Replace the per-request options.
    #[must_use]
    pub fn with_options(mut self, options: SuggestOptions) -> Self {
        self.options = options;
        self
    }
}

impl From<Vec<f64>> for SuggestRequest {
    fn from(query: Vec<f64>) -> Self {
        SuggestRequest::new(query)
    }
}

impl From<&[f64]> for SuggestRequest {
    fn from(query: &[f64]) -> Self {
        SuggestRequest::new(query.to_vec())
    }
}

/// Per-request serving options.
///
/// `#[non_exhaustive]`: future knobs (answer validation level, distance
/// budget, …) can be added without breaking constructors — start from
/// `SuggestOptions::default()` and override fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct SuggestOptions {
    /// Allow the serving path to answer the "is it already fair?" check
    /// from the index: from the index alone when the backend
    /// characterizes the satisfactory set exactly
    /// ([`IndexBackend::known_fairness`](crate::backend::IndexBackend::known_fairness)
    /// — `O(log n)` instead of the `O(n log n)` oracle ranking), else by
    /// ranking only the query cell's top-`k` candidates for the oracle
    /// ([`IndexBackend::top_k_partition`](crate::backend::IndexBackend::top_k_partition)).
    /// Default `true`; set `false` for the audit path, which ranks every
    /// item for the oracle on every query (useful when auditing the
    /// index against the oracle).
    pub index_fastpath: bool,
}

impl SuggestOptions {
    /// Set [`SuggestOptions::index_fastpath`] (builder-style — the
    /// struct is `#[non_exhaustive]`, so downstream crates construct it
    /// from `default()`).
    #[must_use]
    pub fn index_fastpath(mut self, on: bool) -> Self {
        self.index_fastpath = on;
        self
    }
}

impl Default for SuggestOptions {
    fn default() -> Self {
        SuggestOptions {
            index_fastpath: true,
        }
    }
}

/// The fairness verdict inside a [`Suggestion`] — the
/// [`Answer`](crate::backend::Answer) shape with the weights hoisted
/// into the response envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum KnownFairness {
    /// The queried weights already produce a fair ranking;
    /// [`Suggestion::weights`] echoes the query.
    AlreadyFair,
    /// The query was unfair; [`Suggestion::weights`] is the closest
    /// satisfactory function the index found.
    Suggested {
        /// Angular distance from the query, in radians (`[0, π/2]`).
        distance: f64,
    },
    /// No linear scoring function satisfies the oracle on this dataset;
    /// [`Suggestion::weights`] echoes the query so the caller still has
    /// a deterministic vector to fall back on.
    Infeasible,
}

/// Per-answer serving statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SuggestStats {
    /// Whether the fairness verdict came from the index alone
    /// ([`IndexBackend::known_fairness`](crate::backend::IndexBackend::known_fairness),
    /// `O(log n)`) rather than an oracle ranking pass. Every default
    /// request on the 2-D intervals is index-decided; audit requests
    /// (`index_fastpath = false`) and the backends that leave
    /// `known_fairness` undecided never are.
    pub index_decided: bool,
    /// The top-k item ids ranked under [`Suggestion::weights`], present
    /// iff the request set [`SuggestRequest::k`].
    pub top_k: Option<Vec<u32>>,
}

/// One answered request — the response half of the unified serving API.
#[derive(Debug, Clone, PartialEq)]
pub struct Suggestion {
    /// The weight vector to serve with: the query itself when it was
    /// already fair (or infeasible), the closest satisfactory function
    /// otherwise. Same Euclidean norm as the query — only the
    /// *direction*, and therefore the ranking, changes.
    pub weights: Vec<f64>,
    /// The dataset epoch ([`FairRanker::version`](crate::FairRanker::version))
    /// this answer reflects — under live updates, the snapshot the
    /// serving layer answered from.
    pub version: u64,
    /// The fairness verdict.
    pub fairness: KnownFairness,
    /// Per-answer serving statistics.
    pub stats: SuggestStats,
}

impl Suggestion {
    /// Whether the verdict was [`KnownFairness::AlreadyFair`].
    #[must_use]
    pub fn is_already_fair(&self) -> bool {
        matches!(self.fairness, KnownFairness::AlreadyFair)
    }

    /// Whether the verdict was [`KnownFairness::Infeasible`].
    #[must_use]
    pub fn is_infeasible(&self) -> bool {
        matches!(self.fairness, KnownFairness::Infeasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builders() {
        let req = SuggestRequest::new(vec![0.5, 0.5]);
        assert_eq!(req.k, None);
        assert!(req.options.index_fastpath);
        let req = req.with_top_k(3).with_options(SuggestOptions {
            index_fastpath: false,
        });
        assert_eq!(req.k, Some(3));
        assert!(!req.options.index_fastpath);
        let from_slice: SuggestRequest = [1.0, 2.0].as_slice().into();
        let from_vec: SuggestRequest = vec![1.0, 2.0].into();
        assert_eq!(from_slice, from_vec);
    }

    #[test]
    fn verdict_predicates() {
        let s = Suggestion {
            weights: vec![1.0],
            version: 0,
            fairness: KnownFairness::AlreadyFair,
            stats: SuggestStats {
                index_decided: true,
                top_k: None,
            },
        };
        assert!(s.is_already_fair());
        assert!(!s.is_infeasible());
    }
}
