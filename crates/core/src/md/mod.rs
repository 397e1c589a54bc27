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
///
/// Every update rebuilds the arrangement from the updated dataset.
#[derive(Debug, Clone)]
pub struct ExactRegions {
    regions: Vec<SatRegion>,
    /// Number of angle coordinates (`d − 1`).
    dim: usize,
    /// Options used when reconstructing the arrangement on updates.
    opts: SatRegionsOptions,
    /// Worker count for those reconstructions: the build's, or all cores
    /// for a backend wrapped from bare regions.
    threads: usize,
    counters: SharedCounters,
}

impl ExactRegions {
    /// Wrap the satisfactory regions of a [`SatRegions`] result for a
    /// `d`-attribute dataset (`d = angle_dim + 1`). Updates rebuild
    /// with default [`SatRegionsOptions`] on all cores; see
    /// [`ExactRegions::with_update_policy`].
    #[must_use]
    pub fn new(regions: Vec<SatRegion>, angle_dim: usize) -> Self {
        ExactRegions {
            regions,
            dim: angle_dim,
            opts: SatRegionsOptions::default(),
            threads: crate::parallel::all_cores(),
            counters: SharedCounters::new(),
        }
    }

    /// The [`sat_regions`] options every update rebuilds the arrangement
    /// with.
    #[must_use]
    pub fn with_update_policy(mut self, opts: SatRegionsOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Run [`sat_regions`] on `threads` workers and keep `opts` and
    /// `threads` for the rebuilds updates pay — the builder's path.
    pub(crate) fn build(
        ds: &Dataset,
        oracle: &dyn FairnessOracle,
        opts: SatRegionsOptions,
        threads: usize,
    ) -> Result<Self, FairRankError> {
        let built = satregions::sat_regions_with_threads(ds, oracle, &opts, threads)?;
        Ok(ExactRegions {
            threads,
            ..ExactRegions::new(built.satisfactory, built.dim).with_update_policy(opts)
        })
    }

    /// The satisfactory regions.
    #[must_use]
    pub fn regions(&self) -> &[SatRegion] {
        &self.regions
    }
}

impl IndexBackend for ExactRegions {
    fn dim(&self) -> usize {
        self.dim + 1
    }

    fn suggest_unfair(&self, weights: &[f64], ctx: &QueryCtx<'_>) -> Result<Answer, FairRankError> {
        let r = norm(weights);
        let (_, query_angles) = to_polar(weights);
        match closest_satisfactory_validated(&self.regions, &query_angles, ctx.ds, ctx.oracle) {
            None => Ok(Answer::Infeasible),
            Some(res) => Ok(Answer::Suggested {
                weights: crate::backend::suggestion_weights(&res.angles, r),
                distance: res.distance,
            }),
        }
    }

    // The exact arrangement has no sound in-place maintenance (every
    // region boundary can move), so each update pays one deterministic
    // reconstruction — identical to a from-scratch build by
    // [`sat_regions`] determinism.
    fn apply(
        &mut self,
        _update: &DatasetUpdate,
        ctx: &UpdateCtx<'_>,
    ) -> Result<UpdateOutcome, FairRankError> {
        // On error nothing is mutated: the fields change only after
        // `sat_regions` has succeeded.
        let rebuilt =
            satregions::sat_regions_with_threads(ctx.ds, ctx.oracle, &self.opts, self.threads)?;
        self.regions = rebuilt.satisfactory;
        self.dim = rebuilt.dim;
        self.counters.record(true, true);
        Ok(UpdateOutcome::Rebuilt)
    }

    fn clone_box(&self) -> Option<Box<dyn IndexBackend>> {
        Some(Box::new(self.clone()))
    }

    fn persist_tag(&self) -> u8 {
        crate::persist::TAG_REGIONS
    }

    fn encode(&self) -> Vec<u8> {
        crate::persist::encode_regions(&self.regions, self.dim)
    }

    fn stats(&self) -> BackendStats {
        let (updates, rebuilds) = self.counters.snapshot();
        BackendStats {
            kind: "exact-regions",
            artifacts: self.regions.len(),
            functions: Some(self.regions.len()),
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
