//! The multi-dimensional case (paper §4): ordering-exchange hyperplanes in
//! angle coordinates, the arrangement of satisfactory regions, the exact
//! (baseline) online algorithm — and [`ExactRegions`], the §4 artifact
//! packaged as a serving backend.

pub mod baseline;
pub mod hyperpolar;
pub mod satregions;

pub use baseline::{closest_satisfactory, closest_satisfactory_validated, ClosestResult};
pub use hyperpolar::{exchange_hyperplane, exchange_hyperplanes};
pub use satregions::{sat_regions, SatRegion, SatRegions, SatRegionsOptions};

use std::sync::{Arc, OnceLock};

use fairrank_datasets::Dataset;
use fairrank_fairness::FairnessOracle;
use fairrank_geometry::polar::to_polar;
use fairrank_geometry::vector::norm;

use crate::backend::{Answer, BackendStats, IndexBackend, QueryCtx, SharedCounters};
use crate::error::FairRankError;
use crate::update::{DatasetUpdate, UpdateCtx, UpdateOutcome};

/// The §4 serving backend: the satisfactory regions of the exchange
/// arrangement, answered by MDBASELINE (one NLP per region) with oracle
/// re-validation — accurate but not interactive for large inputs; prefer
/// [`crate::approximate::ApproxGrid`] at scale.
///
/// Unlike the 2-D intervals this backend does *not* decide fairness from
/// the index: the linearized exchange hyperplanes only approximate the
/// true curved exchange surfaces (already at `d = 3`), so region membership
/// is not a trustworthy verdict and the oracle stays in the loop (both
/// for the fairness pre-check and for validating suggestions).
#[derive(Debug, Clone)]
pub struct ExactRegions {
    regions: Vec<SatRegion>,
    /// Deferred-materialization cell (`None` = eager). A lazy backend
    /// starts with an empty `regions` list and runs [`sat_regions`] at
    /// most once, on the first query that needs the arrangement; the
    /// memoized result is shared across copy-on-write forks through the
    /// `Arc`, and the backend goes permanently eager on the first
    /// update rebuild.
    lazy: Option<Arc<OnceLock<Vec<SatRegion>>>>,
    /// Number of angle coordinates (`d − 1`).
    dim: usize,
    /// Options used when reconstructing the arrangement on updates.
    opts: SatRegionsOptions,
    /// Rebuild after this many coalesced updates (1 = immediately).
    rebuild_every: usize,
    /// Updates buffered since the last reconstruction.
    pending: usize,
    counters: SharedCounters,
}

impl ExactRegions {
    /// Wrap the satisfactory regions of a [`SatRegions`] result for a
    /// `d`-attribute dataset (`d = angle_dim + 1`). Updates rebuild
    /// immediately with default [`SatRegionsOptions`]; see
    /// [`ExactRegions::with_update_policy`].
    #[must_use]
    pub fn new(regions: Vec<SatRegion>, angle_dim: usize) -> Self {
        ExactRegions {
            regions,
            lazy: None,
            dim: angle_dim,
            opts: SatRegionsOptions::default(),
            rebuild_every: 1,
            pending: 0,
            counters: SharedCounters::new(),
        }
    }

    /// A lazily materialized backend for a `d`-attribute dataset
    /// (`d = angle_dim + 1`): construction is free, and the full
    /// [`sat_regions`] pass runs at most once — on the first query that
    /// needs the arrangement — memoized for every later query and shared
    /// across copy-on-write forks. Answers are bit-identical to the
    /// eagerly built backend with the same options; the only observable
    /// difference is *when* the build cost is paid.
    #[must_use]
    pub fn new_lazy(angle_dim: usize, opts: SatRegionsOptions, rebuild_every: usize) -> Self {
        ExactRegions {
            regions: Vec::new(),
            lazy: Some(Arc::new(OnceLock::new())),
            dim: angle_dim,
            opts,
            rebuild_every: rebuild_every.max(1),
            pending: 0,
            counters: SharedCounters::new(),
        }
    }

    /// The region list if it exists yet: always for an eager backend,
    /// only after the first materializing query for a lazy one.
    #[must_use]
    pub fn materialized(&self) -> Option<&[SatRegion]> {
        match &self.lazy {
            None => Some(&self.regions),
            Some(cell) => cell.get().map(Vec::as_slice),
        }
    }

    /// The region list, materializing it now if this backend is lazy and
    /// has not been queried yet. Idempotent; the memoized list is what
    /// every subsequent query reads.
    pub fn materialize(&self, ds: &Dataset, oracle: &dyn FairnessOracle) -> &[SatRegion] {
        match &self.lazy {
            None => &self.regions,
            Some(cell) => cell.get_or_init(|| {
                sat_regions(ds, oracle, &self.opts)
                    .expect("dimensionality was validated when the lazy backend was built")
                    .satisfactory
            }),
        }
    }

    /// Configure how updates reconstruct the arrangement: the
    /// [`sat_regions`] options to rebuild with, and how many updates to
    /// coalesce before paying one reconstruction (`O(n²)` hyperplanes).
    /// While updates are deferred the region list is stale — answers are
    /// still re-validated against the live oracle (so suggestions remain
    /// *fair*), but may not be closest until the rebuild lands.
    ///
    /// `rebuild_every` is clamped to at least 1.
    #[must_use]
    pub fn with_update_policy(mut self, opts: SatRegionsOptions, rebuild_every: usize) -> Self {
        self.opts = opts;
        self.rebuild_every = rebuild_every.max(1);
        self
    }

    /// Updates buffered behind the coalescing threshold.
    #[must_use]
    pub fn pending_updates(&self) -> usize {
        self.pending
    }

    /// The satisfactory regions (empty for a lazy backend that has not
    /// materialized yet — see [`ExactRegions::materialized`]).
    #[must_use]
    pub fn regions(&self) -> &[SatRegion] {
        self.materialized().unwrap_or(&[])
    }

    fn rebuild(&mut self, ctx: &UpdateCtx<'_>) -> Result<UpdateOutcome, FairRankError> {
        let rebuilt = sat_regions(ctx.ds, ctx.oracle, &self.opts)?;
        self.regions = rebuilt.satisfactory;
        // The dataset changed, so any memoized lazy materialization is for
        // a stale dataset: this backend is eager from here on.
        self.lazy = None;
        self.dim = rebuilt.dim;
        self.pending = 0;
        Ok(UpdateOutcome::Rebuilt)
    }
}

impl IndexBackend for ExactRegions {
    fn dim(&self) -> usize {
        self.dim + 1
    }

    fn suggest_unfair(&self, weights: &[f64], ctx: &QueryCtx<'_>) -> Result<Answer, FairRankError> {
        let regions = self.materialize(ctx.ds, ctx.oracle);
        let r = norm(weights);
        let (_, query_angles) = to_polar(weights);
        match closest_satisfactory_validated(regions, &query_angles, ctx.ds, ctx.oracle) {
            None => Ok(Answer::Infeasible),
            Some(res) => Ok(Answer::Suggested {
                weights: crate::backend::suggestion_weights(&res.angles, r),
                distance: res.distance,
            }),
        }
    }

    // The exact arrangement has no sound in-place maintenance (every
    // region boundary can move), so updates coalesce behind a threshold
    // and pay one deterministic reconstruction — identical to a
    // from-scratch build by [`sat_regions`] determinism.
    fn apply(
        &mut self,
        _update: &DatasetUpdate,
        ctx: &UpdateCtx<'_>,
    ) -> Result<UpdateOutcome, FairRankError> {
        // Counters commit only on success ("on error the backend must be
        // left unchanged"): `rebuild` mutates nothing until
        // `sat_regions` has succeeded, and the update+rebuild pair lands
        // in one locked pass so concurrent stats readers never see one
        // half of the transition.
        let outcome = if self.pending + 1 >= self.rebuild_every {
            self.rebuild(ctx)?
        } else {
            self.pending += 1;
            UpdateOutcome::Deferred {
                pending: self.pending,
            }
        };
        self.counters
            .record(true, outcome == UpdateOutcome::Rebuilt);
        Ok(outcome)
    }

    fn flush(&mut self, ctx: &UpdateCtx<'_>) -> Result<UpdateOutcome, FairRankError> {
        if self.pending == 0 {
            return Ok(UpdateOutcome::Noop);
        }
        let outcome = self.rebuild(ctx)?;
        self.counters.record(false, true);
        Ok(outcome)
    }

    fn clone_box(&self) -> Option<Box<dyn IndexBackend>> {
        Some(Box::new(self.clone()))
    }

    fn has_pending_updates(&self) -> bool {
        self.pending > 0
    }

    fn persist_tag(&self) -> u8 {
        crate::persist::TAG_REGIONS
    }

    // An unmaterialized lazy backend would encode an empty region list,
    // so `FairRanker::to_bytes` materializes before encoding.
    fn encode(&self) -> Vec<u8> {
        crate::persist::encode_regions(self.regions(), self.dim)
    }

    fn stats(&self) -> BackendStats {
        let (updates, rebuilds) = self.counters.snapshot();
        BackendStats {
            kind: "exact-regions",
            artifacts: self.regions().len(),
            functions: Some(self.regions().len()),
            error_bound: Some(0.0),
            updates,
            rebuilds,
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrank_datasets::synthetic::generic;
    use fairrank_fairness::FnOracle;

    #[test]
    fn backend_reports_weight_dimension() {
        let ds = generic::uniform(12, 3, 0.5, 3);
        let o = FnOracle::new("always", |_: &[u32]| true);
        let r = sat_regions(&ds, &o, &SatRegionsOptions::default()).unwrap();
        let backend = ExactRegions::new(r.satisfactory, r.dim);
        assert_eq!(backend.dim(), 3);
        let s = backend.stats();
        assert_eq!(s.kind, "exact-regions");
        assert_eq!(s.artifacts, backend.regions().len());
        assert_eq!(s.error_bound, Some(0.0));
        assert!(backend.known_fairness(&[1.0, 1.0, 1.0]).is_none());
    }
}
