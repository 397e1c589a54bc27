//! The grid-based approximate index (paper §5): user-controllable
//! preprocessing that guarantees interactive queries within the Theorem 6
//! angular-distance bound.
//!
//! Pipeline (all offline):
//!
//! 1. ordering-exchange hyperplanes (HYPERPOLAR over all pairs);
//! 2. [`cellplane`] — which hyperplanes pass through which grid cell
//!    (CELLPLANE×, Algorithm 7);
//! 3. [`markcell`] — a satisfactory function for every cell that
//!    intersects a satisfactory region, with early stopping
//!    (MARKCELL + ATC⁺, Algorithms 8–9);
//! 4. [`coloring`] — remaining cells inherit the nearest satisfactory
//!    function (CELLCOLORING, Algorithm 10, Dijkstra).
//!
//! Online, [`ApproxIndex::lookup`] is a pure `O(log N)` grid descent
//! (MDONLINE, Algorithm 11).

pub mod cellplane;
pub mod coloring;
pub mod index;
pub mod markcell;

pub use index::{ApproxIndex, BuildOptions, BuildStats};

use fairrank_geometry::polar::{angular_distance, to_polar};
use fairrank_geometry::vector::norm;

use crate::backend::{Answer, BackendStats, IndexBackend, QueryCtx, SharedCounters};
use crate::error::FairRankError;
use crate::probes::TopKPartition;
use crate::update::{DatasetUpdate, UpdateCtx, UpdateOutcome};

/// The §5 serving backend: [`ApproxIndex`] packaged for
/// [`crate::FairRanker`] — `O(log N)` cell lookups under the Theorem 6
/// distance guarantee.
///
/// Boxed: the grid plus per-cell assignments is far larger than the
/// other backends, and one pointer chase per query is noise next to the
/// grid descent itself.
#[derive(Debug, Clone)]
pub struct ApproxGrid {
    index: Box<ApproxIndex>,
    counters: SharedCounters,
}

impl ApproxGrid {
    /// Wrap a built (or decoded) approximate index.
    #[must_use]
    pub fn new(index: ApproxIndex) -> Self {
        ApproxGrid {
            index: Box::new(index),
            counters: SharedCounters::new(),
        }
    }

    /// The underlying grid index.
    #[must_use]
    pub fn index(&self) -> &ApproxIndex {
        &self.index
    }
}

impl IndexBackend for ApproxGrid {
    fn dim(&self) -> usize {
        self.index.grid().dim() + 1
    }

    fn suggest_unfair(
        &self,
        weights: &[f64],
        _ctx: &QueryCtx<'_>,
    ) -> Result<Answer, FairRankError> {
        let r = norm(weights);
        let (_, query_angles) = to_polar(weights);
        match self.index.lookup(&query_angles) {
            None => Ok(Answer::Infeasible),
            Some(angles) => Ok(Answer::Suggested {
                weights: crate::backend::suggestion_weights(angles, r),
                distance: angular_distance(angles, &query_angles),
            }),
        }
    }

    // The query's cell's top-k partition, which MARKCELL computed (or
    // `attach`, or the last update, recomputed) for this dataset and
    // oracle; the serving oracle pass checks that it covers the query.
    fn top_k_partition(&self, weights: &[f64]) -> Option<&TopKPartition> {
        let (_, query_angles) = to_polar(weights);
        self.index.partition(&query_angles)
    }

    fn attach(&mut self, ctx: &QueryCtx<'_>) {
        self.index.attach(ctx.ds, ctx.oracle);
    }

    // Every update rebuilds the §5 pipeline on the updated dataset with
    // the index's stored options and worker count, so a writer and a
    // replica decoded from its bytes (which persist the options) rebuild
    // alike.
    fn apply(
        &mut self,
        _update: &DatasetUpdate,
        ctx: &UpdateCtx<'_>,
    ) -> Result<UpdateOutcome, FairRankError> {
        let opts = self.index.opts.clone();
        *self.index =
            ApproxIndex::build_with_threads(ctx.ds, ctx.oracle, &opts, self.index.threads)?;
        self.counters.record(true, true);
        Ok(UpdateOutcome::Rebuilt)
    }

    fn clone_box(&self) -> Option<Box<dyn IndexBackend>> {
        Some(Box::new(self.clone()))
    }

    fn persist_tag(&self) -> u8 {
        crate::persist::TAG_APPROX
    }

    fn encode(&self) -> Vec<u8> {
        crate::persist::encode_approx_index(&self.index)
    }

    fn stats(&self) -> BackendStats {
        let (updates, rebuilds) = self.counters.snapshot();
        BackendStats {
            kind: "approx-grid",
            artifacts: self.index.grid().cell_count(),
            functions: Some(self.index.functions().len()),
            error_bound: Some(self.index.error_bound()),
            updates,
            rebuilds,
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}
