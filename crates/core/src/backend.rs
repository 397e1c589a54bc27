//! The pluggable serving backend: one trait, three paper algorithms.
//!
//! The paper's system is an offline/online split — preprocess once, then
//! answer CLOSEST SATISFACTORY FUNCTION queries interactively — and each
//! of its three preprocessing strategies produces a different online
//! artifact: sorted satisfactory intervals (§3), an arrangement of
//! satisfactory regions (§4), or the approximate grid index (§5). This
//! module abstracts over those artifacts with [`IndexBackend`], making
//! the serving side of [`FairRanker`](crate::FairRanker) *open*: the
//! three built-in backends ([`TwoDIntervals`](crate::twod::TwoDIntervals),
//! [`ExactRegions`](crate::md::ExactRegions),
//! [`ApproxGrid`](crate::approximate::ApproxGrid)) are ordinary
//! implementations with no private privileges, and custom index
//! structures (different fairness/index trade-offs, as surveyed by Patro
//! et al. 2022) plug in through
//! [`FairRanker::from_backend`](crate::FairRanker::from_backend).
//!
//! ## Contract
//!
//! A backend answers the *index half* of a query:
//! [`suggest_unfair`](IndexBackend::suggest_unfair) receives weight
//! vectors that are already validated and whose induced ranking the
//! oracle has already rejected, and maps them to the closest
//! satisfactory function (or [`Answer::Infeasible`]). The
//! [`QueryCtx`] hands the backend the dataset and oracle for backends
//! that re-validate their answers (the exact m-D path does).
//!
//! Exact backends can additionally decide a query's fairness from the
//! index alone via [`known_fairness`](IndexBackend::known_fairness) —
//! the 2-D interval index characterizes the satisfactory angles
//! *exactly*, so the serving path
//! ([`FairRanker::respond_batch`](crate::FairRanker::respond_batch))
//! skips the `O(n log n)` rank-and-ask pass entirely for it, answering
//! in `O(log n)` per query.
//!
//! ## Persistence
//!
//! Backends serialize through [`persist_tag`](IndexBackend::persist_tag)
//! / [`encode`](IndexBackend::encode), and
//! [`crate::persist::decode_backend`] dispatches a tag back to the
//! concrete decoder — which is what makes whole-ranker
//! [`save`](crate::FairRanker::save)/[`load`](crate::FairRanker::load)
//! possible without the caller naming the backend type.

use std::any::Any;
use std::sync::{Arc, Mutex};

use fairrank_datasets::Dataset;
use fairrank_fairness::FairnessOracle;

use crate::error::FairRankError;
use crate::probes::TopKPartition;
use crate::update::{DatasetUpdate, UpdateCtx, UpdateOutcome};

/// The index's raw answer to a closest-satisfactory-function query —
/// what [`IndexBackend::suggest_unfair`] returns. The unified
/// request/response API wraps this into a full
/// [`Suggestion`](crate::request::Suggestion) (weights + dataset version
/// + serving stats); see [`crate::request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// The queried weights already produce a fair ranking.
    AlreadyFair,
    /// The closest satisfactory function found by the index.
    Suggested {
        /// Suggested weight vector (same Euclidean norm as the query, so
        /// only the *direction* — the ranking — changes).
        weights: Vec<f64>,
        /// Angular distance from the query, in radians (`[0, π/2]`).
        distance: f64,
    },
    /// No linear scoring function satisfies the oracle on this dataset.
    Infeasible,
}

/// Shared update/rebuild counters behind every backend's
/// [`BackendStats`] — one mutex, one consistent snapshot.
///
/// Two design constraints meet here:
///
/// * **Consistency under concurrent serving.** The counters used to be
///   two plain `u64` fields incremented at different points of an update
///   (`updates` on entry, `rebuilds` only once a reconstruction
///   committed), so a stats reader racing an update could observe an
///   `(updates, rebuilds)` pair no committed state ever had. Both
///   counters now live under a single [`Mutex`] and every transition is
///   recorded in **one** locked pass ([`SharedCounters::record`]), so a
///   [`SharedCounters::snapshot`] is always some prefix of the committed
///   history.
/// * **Aggregation across copy-on-write forks.** A live update on a
///   ranker with outstanding snapshots forks the backend
///   ([`IndexBackend::clone_box`]); the `Arc` inside makes the fork
///   *share* these counters, so operational totals keep accumulating in
///   one place no matter how many snapshot generations serving has gone
///   through.
///
/// Cloning shares the underlying counters; a decoded (persisted) backend
/// starts a fresh pair — the counters are operational, not part of the
/// index artifact, and are excluded from backend structural equality.
#[derive(Debug, Clone, Default)]
pub struct SharedCounters {
    inner: Arc<Mutex<(u64, u64)>>,
}

impl SharedCounters {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        SharedCounters::default()
    }

    /// Record one settled transition: `update` counts a dataset update
    /// applied through [`IndexBackend::apply`], `rebuild` counts a full
    /// index reconstruction. Both increments land in the same locked
    /// pass, so no reader can observe one without the other.
    pub fn record(&self, update: bool, rebuild: bool) {
        let mut inner = self.inner.lock().expect("counter lock poisoned");
        inner.0 += u64::from(update);
        inner.1 += u64::from(rebuild);
    }

    /// One consistent `(updates, rebuilds)` pair.
    #[must_use]
    pub fn snapshot(&self) -> (u64, u64) {
        *self.inner.lock().expect("counter lock poisoned")
    }
}

/// Everything a backend may consult while answering one query: the
/// dataset the index was built over and the fairness oracle.
///
/// Backends that fully pre-compute their answers (the 2-D intervals, the
/// approximate grid) ignore it; the exact m-D backend re-validates cone
/// answers against the real oracle through it.
pub struct QueryCtx<'a> {
    /// The dataset the index was built over.
    pub ds: &'a Dataset,
    /// The fairness oracle the index was built against.
    pub oracle: &'a dyn FairnessOracle,
}

/// A uniform, backend-agnostic summary for reports and ops dashboards.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendStats {
    /// Human-readable backend kind (`"2d-intervals"`, `"exact-regions"`,
    /// `"approx-grid"`).
    pub kind: &'static str,
    /// Number of stored index artifacts: intervals, satisfactory
    /// regions, or grid cells.
    pub artifacts: usize,
    /// Number of distinct satisfactory functions the backend can
    /// suggest (`None` when the backend derives answers analytically,
    /// as the 2-D border search does).
    pub functions: Option<usize>,
    /// The backend's worst-case distance error bound in radians
    /// (`Some(0.0)` for exact backends, the Theorem 6 bound for the
    /// grid).
    pub error_bound: Option<f64>,
    /// Dataset updates applied to this backend instance since it was
    /// built or loaded (operational counter; not persisted).
    pub updates: u64,
    /// How many of those updates triggered a full index reconstruction
    /// instead of in-place maintenance (operational counter; not
    /// persisted).
    pub rebuilds: u64,
}

/// An online index answering closest-satisfactory-function queries —
/// the serving half of the paper's offline/online split.
///
/// Implementations must be cheap to share across serving threads
/// (`Send + Sync`); [`FairRanker`](crate::FairRanker) fans queries out
/// over one shared backend instance.
pub trait IndexBackend: Send + Sync {
    /// Dimensionality of the weight vectors this index answers
    /// (the dataset's scoring-attribute count `d`).
    fn dim(&self) -> usize;

    /// Answer a query whose weights are validated and whose ranking the
    /// oracle has rejected. May still return
    /// [`Answer::AlreadyFair`] when the index disagrees at a region
    /// border (borders are ordering-exchange surfaces where rankings
    /// tie).
    ///
    /// # Errors
    /// Backend-specific failures; the built-in backends only fail on
    /// malformed input, which [`FairRanker`](crate::FairRanker) has
    /// already excluded.
    fn suggest_unfair(&self, weights: &[f64], ctx: &QueryCtx<'_>) -> Result<Answer, FairRankError>;

    /// The query's fairness verdict when the index itself decides it
    /// *exactly* — `None` when only the oracle can tell (the default).
    ///
    /// The 2-D interval index is the exact output of 2DRAYSWEEP, so it
    /// answers in `O(log n)` what the oracle answers in `O(n log n)`;
    /// [`FairRanker::respond_batch`](crate::FairRanker::respond_batch)
    /// asks it before the oracle. Implementations must
    /// return verdicts identical to the oracle's on every query except
    /// exactly on an ordering-exchange angle, where the ranking ties
    /// and the oracle's verdict is itself tie-break-dependent.
    fn known_fairness(&self, weights: &[f64]) -> Option<bool> {
        let _ = weights;
        None
    }

    /// The top-`k` partition of the index cell containing `weights`,
    /// when the backend keeps one — `None` (the default) when it does
    /// not.
    ///
    /// The serving oracle pass (the "already fair?" check of
    /// [`FairRanker::respond_batch`](crate::FairRanker::respond_batch))
    /// ranks a query through the partition when the partition was made
    /// for the serving oracle's top-`k` and
    /// [covers](crate::probes::TopKPartition::covers) the query, and ranks
    /// every item otherwise; the verdict is the same either way. A
    /// partition must describe the dataset and oracle the backend serves
    /// with: the approximate grid computes its partitions in MARKCELL,
    /// in [`attach`](IndexBackend::attach) and after every update.
    fn top_k_partition(&self, weights: &[f64]) -> Option<&TopKPartition> {
        let _ = weights;
        None
    }

    /// Recompute whatever serving state the backend derives from the
    /// dataset and oracle it serves with, such as the approximate grid's
    /// per-cell [`TopKPartition`]s, which are not persisted.
    /// [`FairRanker::from_backend`](crate::FairRanker::from_backend) and
    /// [`FairRanker::from_bytes`](crate::FairRanker::from_bytes) call it
    /// before serving. The default has nothing to recompute.
    fn attach(&mut self, ctx: &QueryCtx<'_>) {
        let _ = ctx;
    }

    /// Maintain the index through one dataset update. `ctx` carries the
    /// pre-update snapshot (for removal deltas), the post-update dataset,
    /// and the re-bound oracle; the update has already been applied to
    /// `ctx.ds` and validated.
    ///
    /// The contract: once the update returns, the backend must answer
    /// [`suggest_unfair`](IndexBackend::suggest_unfair) /
    /// [`known_fairness`](IndexBackend::known_fairness) identically to
    /// the same backend rebuilt from scratch on `ctx.ds` — whether it
    /// maintains in place or rebuilds is its own trade-off, reported
    /// through the outcome.
    ///
    /// The default rejects with [`FairRankError::UpdateUnsupported`]:
    /// third-party backends opt in explicitly.
    ///
    /// # Errors
    /// [`FairRankError::UpdateUnsupported`] (the default), or any
    /// backend-specific rebuild failure. On error the backend must be
    /// left unchanged.
    fn apply(
        &mut self,
        update: &DatasetUpdate,
        ctx: &UpdateCtx<'_>,
    ) -> Result<UpdateOutcome, FairRankError> {
        let _ = (update, ctx);
        Err(FairRankError::UpdateUnsupported(
            self.stats().kind.to_string(),
        ))
    }

    /// A deep copy of this backend as a fresh boxed instance — the hook
    /// behind copy-on-write live updates on *shared* rankers.
    ///
    /// [`FairRanker::snapshot`](crate::FairRanker::snapshot) hands out
    /// cheap `Arc`-shared clones of a ranker (the async serving tier
    /// takes one per micro-batch); when
    /// [`FairRanker::update`](crate::FairRanker::update) finds such
    /// snapshots outstanding it cannot maintain the index in place, so
    /// it forks the backend through this method, maintains the fork, and
    /// swaps it in — in-flight snapshots keep serving the old index
    /// untouched.
    ///
    /// The default returns `None`: third-party backends that don't opt
    /// in simply reject updates while snapshots are outstanding
    /// ([`FairRankError::CloneUnsupported`]); exclusive rankers are
    /// still maintained in place without cloning. Implementations should
    /// share their [`SharedCounters`] with the clone so operational
    /// totals aggregate across forks.
    fn clone_box(&self) -> Option<Box<dyn IndexBackend>> {
        None
    }

    /// One-byte artifact tag identifying this backend kind in the
    /// persistence envelope (see [`crate::persist`]).
    fn persist_tag(&self) -> u8;

    /// Serialize the backend to its self-contained, checksummed artifact
    /// bytes — the inverse of [`crate::persist::decode_backend`] with
    /// [`persist_tag`](IndexBackend::persist_tag).
    fn encode(&self) -> Vec<u8>;

    /// Backend-agnostic statistics.
    fn stats(&self) -> BackendStats;

    /// Downcasting hook so callers can reach the concrete backend
    /// (e.g. [`crate::approximate::ApproxIndex`] build stats).
    fn as_any(&self) -> &dyn Any;
}

/// Convert an angle vector to the weight vector of norm `r` pointing
/// the same way — the shape every backend's suggestion takes (same norm
/// as the query, only the direction changes).
///
/// The unit direction is computed first and scaled afterwards (not
/// `to_cartesian(r, …)`): the float rounding then matches the
/// pre-backend ranker bit for bit, which the equivalence and
/// persistence suites rely on.
pub(crate) fn suggestion_weights(angles: &[f64], r: f64) -> Vec<f64> {
    fairrank_geometry::polar::to_cartesian(1.0, angles)
        .iter()
        .map(|v| v * r)
        .collect()
}

/// Which offline algorithm [`FairRanker::builder`](crate::FairRanker::builder)
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Strategy {
    /// 2DRAYSWEEP → sorted satisfactory intervals (paper §3). Requires
    /// `d == 2`.
    TwoD,
    /// SATREGIONS → exact satisfactory regions, answered by MDBASELINE
    /// (paper §4). Accurate but the region count grows as
    /// `O(h^{d−1})`; not interactive for large inputs.
    MdExact,
    /// The §5 grid pipeline → approximate `O(log N)` lookups with the
    /// Theorem 6 distance guarantee.
    MdApprox,
    /// Pick per the paper's §3-vs-§5 guidance: [`Strategy::TwoD`] for
    /// two attributes, [`Strategy::MdExact`] when the input is small
    /// enough for the exact arrangement to stay interactive, otherwise
    /// [`Strategy::MdApprox`]. See [`Strategy::pick`] for the exact
    /// rule.
    Auto,
}

/// Item-count threshold for [`Strategy::Auto`]: at most this many rows
/// before the exact arrangement (`O(n²)` hyperplanes, `O(h^{d−1})`
/// regions, one cone projection per region per query) stops being interactive and
/// `Auto` switches to the approximate grid.
pub const AUTO_EXACT_MAX_ITEMS: usize = 48;

impl Strategy {
    /// Resolve `Auto` against a dataset: the concrete strategy
    /// [`FairRanker::builder`](crate::FairRanker::builder) will run.
    /// Non-`Auto` strategies return themselves.
    ///
    /// The rule: `d == 2` → [`Strategy::TwoD`] (§3 is exact *and*
    /// `O(log n)` online); otherwise [`Strategy::MdExact`] up to
    /// [`AUTO_EXACT_MAX_ITEMS`] rows and [`Strategy::MdApprox`] beyond
    /// (§5's motivation: MDBASELINE's `O(n^{2(d−1)})` query cost is not
    /// interactive at scale).
    #[must_use]
    pub fn pick(self, ds: &Dataset) -> Strategy {
        match self {
            Strategy::Auto => {
                if ds.dim() == 2 {
                    Strategy::TwoD
                } else if ds.len() <= AUTO_EXACT_MAX_ITEMS {
                    Strategy::MdExact
                } else {
                    Strategy::MdApprox
                }
            }
            concrete => concrete,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrank_datasets::synthetic::generic;

    #[test]
    fn auto_picks_by_dim_and_size() {
        let two_d = generic::uniform(100, 2, 0.5, 1);
        assert_eq!(Strategy::Auto.pick(&two_d), Strategy::TwoD);
        let small_md = generic::uniform(AUTO_EXACT_MAX_ITEMS, 3, 0.5, 2);
        assert_eq!(Strategy::Auto.pick(&small_md), Strategy::MdExact);
        let large_md = generic::uniform(AUTO_EXACT_MAX_ITEMS + 1, 3, 0.5, 3);
        assert_eq!(Strategy::Auto.pick(&large_md), Strategy::MdApprox);
    }

    #[test]
    fn concrete_strategies_resolve_to_themselves() {
        let ds = generic::uniform(10, 4, 0.5, 4);
        for s in [Strategy::TwoD, Strategy::MdExact, Strategy::MdApprox] {
            assert_eq!(s.pick(&ds), s);
        }
    }
}
