//! The multi-dimensional case (paper §4): ordering-exchange hyperplanes
//! in the weight slice `Σw = 1`, the arrangement of satisfactory regions,
//! the exact (baseline) online algorithm — and [`ExactRegions`], the §4
//! artifact packaged as a serving backend. [`hyperpolar`] holds the angle
//! coordinate hyperplanes of the approximate grid.

pub mod baseline;
pub mod hyperpolar;
pub mod satregions;
pub mod slice;

pub use baseline::{closest_satisfactory, closest_satisfactory_validated, ClosestResult, TIE_STEP};
pub use satregions::{sat_regions, SatRegion, SatRegions, SatRegionsOptions};
pub use slice::{exchange_hyperplane, exchange_hyperplanes};

use fairrank_datasets::Dataset;
use fairrank_fairness::FairnessOracle;
use fairrank_geometry::arrangement_tree::SPLIT_MARGIN;
use fairrank_geometry::hyperplane::Hyperplane;
use fairrank_geometry::vector::norm;
use fairrank_lp::{Constraint, Rel};

use crate::backend::{Answer, BackendStats, IndexBackend, QueryCtx, SharedCounters};
use crate::error::FairRankError;
use crate::update::{DatasetUpdate, UpdateCtx, UpdateOutcome};

/// The exchange hyperplanes of the item pairs `(i, j)`, `i < j`, in row
/// major order, under `exchange` (pairs it maps to `None` are skipped).
/// A `cap` keeps the first `cap` and stops the enumeration within a row
/// of them, serially; without one the rows are computed on `threads`
/// workers and stitched back in order, bit-identical for every count.
pub(crate) fn pair_hyperplanes(
    ds: &Dataset,
    cap: Option<usize>,
    threads: usize,
    exchange: fn(&[f64], &[f64]) -> Option<Hyperplane>,
) -> Vec<Hyperplane> {
    // One row-major gather up front: the O(n²) pair loop then reads
    // contiguous row slices instead of gathering across columns per pair.
    let flat = ds.to_row_major();
    let (n, d) = (ds.len(), ds.dim());
    let item = |i: usize| &flat[i * d..(i + 1) * d];
    let row = |i: usize| -> Vec<Hyperplane> {
        (i + 1..n)
            .filter_map(|j| exchange(item(i), item(j)))
            .collect()
    };
    if cap.is_some() || threads <= 1 || n < 2 {
        return (0..n)
            .flat_map(row)
            .take(cap.unwrap_or(usize::MAX))
            .collect();
    }
    // Rows shrink with `i`, so workers claim them one at a time.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let claim = || {
        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        (i < n).then(|| (i, row(i)))
    };
    let mut rows: Vec<(usize, Vec<Hyperplane>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(n))
            .map(|_| scope.spawn(|| std::iter::from_fn(claim).collect::<Vec<_>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("hyperplane worker panicked"))
            .collect()
    });
    rows.sort_unstable_by_key(|&(i, _)| i);
    rows.into_iter().flat_map(|(_, hs)| hs).collect()
}

/// The §4 serving backend: the satisfactory regions of the exchange
/// arrangement in the weight slice, answered by MDBASELINE (one cone
/// projection per region); prefer [`crate::approximate::ApproxGrid`] at
/// scale.
///
/// Every exchange is an exact hyperplane of the slice, so a function
/// strictly inside a stored region ranks the items as its witness does:
/// [`known_fairness`](IndexBackend::known_fairness) answers "fair" for a
/// query whose slice point clears every row of a satisfactory region and
/// every box wall by more than the arrangement's split margin (a
/// hyperplane cutting a region more shallowly is not recorded there).
/// The margin also covers the rounding of the oracle's scores, as long as
/// any two items that exchange differ by more than about `1e-8` of their
/// attribute magnitudes. Elsewhere, and on builds capped by
/// [`SatRegionsOptions::max_hyperplanes`], the oracle decides.
///
/// Every update rebuilds the arrangement with the build's
/// [`SatRegionsOptions`], which the persisted artifact keeps.
#[derive(Debug, Clone)]
pub struct ExactRegions {
    regions: Vec<SatRegion>,
    /// Number of slice coordinates (`d − 1`).
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
    /// `d`-attribute dataset (`d = slice_dim + 1`). Updates rebuild
    /// with default [`SatRegionsOptions`] on all cores; see
    /// [`ExactRegions::with_update_policy`].
    #[must_use]
    pub fn new(regions: Vec<SatRegion>, slice_dim: usize) -> Self {
        ExactRegions {
            regions,
            dim: slice_dim,
            opts: SatRegionsOptions::default(),
            threads: crate::parallel::all_cores(),
            counters: SharedCounters::new(),
        }
    }

    /// The [`sat_regions`] options the regions were built with, which
    /// every update rebuilds the arrangement with.
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

    /// The [`SatRegionsOptions`] of the build, kept for rebuilds.
    #[must_use]
    pub fn options(&self) -> &SatRegionsOptions {
        &self.opts
    }
}

/// Whether `x` satisfies `c` with more than `margin · ‖a‖` to spare.
fn clears(c: &Constraint, x: &[f64], margin: f64) -> bool {
    let slack = match c.rel {
        Rel::Ge => c.lhs(x) - c.b,
        Rel::Le => c.b - c.lhs(x),
        Rel::Eq => return false,
    };
    slack > margin * norm(&c.a)
}

impl IndexBackend for ExactRegions {
    fn dim(&self) -> usize {
        self.dim + 1
    }

    fn suggest_unfair(&self, weights: &[f64], ctx: &QueryCtx<'_>) -> Result<Answer, FairRankError> {
        let r = norm(weights);
        match closest_satisfactory_validated(&self.regions, weights, ctx.ds, ctx.oracle) {
            None => Ok(Answer::Infeasible),
            Some(res) => Ok(Answer::Suggested {
                weights: res.weights.iter().map(|v| v * r).collect(),
                distance: res.distance,
            }),
        }
    }

    fn known_fairness(&self, weights: &[f64]) -> Option<bool> {
        if self.opts.max_hyperplanes.is_some() || weights.len() != self.dim + 1 {
            return None;
        }
        let x = slice::point(weights)?;
        // The box walls x ≥ 0 are implicit in the stored rows; the base
        // row Σx ≤ 1 is one of them.
        if x.iter().any(|&v| v <= SPLIT_MARGIN) {
            return None;
        }
        self.regions
            .iter()
            .any(|region| {
                region
                    .constraints
                    .iter()
                    .all(|c| clears(c, &x, SPLIT_MARGIN))
            })
            .then_some(true)
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
        crate::persist::encode_regions(&self.regions, self.dim, &self.opts)
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
    }

    #[test]
    fn known_fairness_decides_interior_points_only() {
        let ds = generic::uniform(12, 3, 0.5, 3);
        let o = FnOracle::new("always", |_: &[u32]| true);
        let r = sat_regions(&ds, &o, &SatRegionsOptions::default()).unwrap();
        let backend = ExactRegions::new(r.satisfactory, r.dim);
        assert_eq!(backend.known_fairness(&[1.0, 1.0, 1.0]), Some(true));
        // On a box wall (w₃ = 0) items can tie: not decided.
        assert_eq!(backend.known_fairness(&[1.0, 1.0, 0.0]), None);
        let capped = backend.clone().with_update_policy(SatRegionsOptions {
            max_hyperplanes: Some(3),
            ..SatRegionsOptions::default()
        });
        assert_eq!(capped.known_fairness(&[1.0, 1.0, 1.0]), None);
    }
}
