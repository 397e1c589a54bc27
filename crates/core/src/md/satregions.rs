//! SATREGIONS (paper Algorithm 4) with the arrangement tree (Algorithm 5).
//!
//! Constructs the arrangement of ordering-exchange hyperplanes in the
//! weight slice `Σw = 1` ([`crate::md::slice`]), probes one
//! strictly-interior function per region, and keeps the regions whose
//! ranking the fairness oracle accepts. Regions
//! are enumerated by the arrangement tree; the flat incremental
//! arrangement (the paper's baseline, which Figure 18 compares against)
//! stays in `fairrank_geometry::arrangement` as the reference the
//! property suite and the `experiments` bin measure the tree against.

use fairrank_datasets::Dataset;
use fairrank_fairness::FairnessOracle;
use fairrank_lp::Constraint;

use crate::error::FairRankError;
use crate::md::{pair_hyperplanes, slice};
use crate::probes;
use crate::pruning;

/// One satisfactory region of the arrangement, in slice coordinates
/// `x = (w_1 … w_{d−1})` of `Σw = 1`.
#[derive(Debug, Clone)]
pub struct SatRegion {
    /// Half-space constraints describing the region: the exchange
    /// hyperplanes on its side of the arrangement and the slice's base row
    /// `Σx ≤ 1` (the box walls `x ≥ 0` are implicit).
    pub constraints: Vec<Constraint>,
    /// A slice point strictly inside the region whose ranking the oracle
    /// accepted ([`slice::lift`] gives its weights).
    pub witness: Vec<f64>,
}

/// Options for [`sat_regions`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SatRegionsOptions {
    /// Cap on the number of hyperplanes inserted (benchmark sweeps insert
    /// prefixes, as the paper's Figure 18/19 do). `None` = all.
    pub max_hyperplanes: Option<usize>,
    /// When the oracle exposes a top-k bound, drop items outside the first
    /// k dominance layers before computing exchanges (paper §8).
    pub prune_top_k: bool,
}

/// Output of the offline multi-dimensional preprocessing.
#[derive(Debug, Clone)]
pub struct SatRegions {
    /// Number of slice coordinates (`d − 1`).
    pub dim: usize,
    /// Satisfactory regions with their witnesses.
    pub satisfactory: Vec<SatRegion>,
    /// Total number of regions in the arrangement.
    pub region_count: usize,
    /// Number of exchange hyperplanes inserted.
    pub hyperplane_count: usize,
    /// Number of oracle invocations.
    pub oracle_calls: u64,
    /// Number of LPs the arrangement's insertions solved
    /// (`ArrangementTree::lp_calls`).
    pub lp_solves: u64,
    /// Number of items that survived top-k pruning (equals `n` when
    /// pruning is off).
    pub items_used: usize,
}

/// Run the offline phase on all available cores: build the arrangement
/// and identify satisfactory regions.
///
/// # Errors
/// [`FairRankError::TooFewAttributes`] for datasets with fewer than two
/// scoring attributes.
pub fn sat_regions(
    ds: &Dataset,
    oracle: &dyn FairnessOracle,
    opts: &SatRegionsOptions,
) -> Result<SatRegions, FairRankError> {
    sat_regions_with_threads(ds, oracle, opts, crate::parallel::all_cores())
}

/// [`sat_regions`] on `threads` workers (hyperplane enumeration and
/// per-region witness verification); the output is bit-identical for
/// every count.
pub(crate) fn sat_regions_with_threads(
    ds: &Dataset,
    oracle: &dyn FairnessOracle,
    opts: &SatRegionsOptions,
    threads: usize,
) -> Result<SatRegions, FairRankError> {
    if ds.dim() < 2 {
        return Err(FairRankError::TooFewAttributes);
    }
    let dim = ds.dim() - 1;

    // §8 pruning: exchanges among items that can never reach the top-k are
    // irrelevant to a top-k-bounded oracle. A hyperplane cap stops the
    // enumeration early — the capped output is exactly the first `cap`
    // hyperplanes of the canonical order, so it equals the old
    // generate-all-then-truncate behavior without the O(n²) tail.
    let phase = crate::buildtel::PhaseTimer::start("md_exact", "hyperplanes");
    let cap = opts.max_hyperplanes;
    let enumerate = |ds: &Dataset| pair_hyperplanes(ds, cap, threads, slice::exchange_hyperplane);
    let (hyperplanes, items_used) = match (opts.prune_top_k, oracle.top_k_bound()) {
        (true, Some(k)) => {
            let keep = pruning::top_k_candidate_items(ds, k);
            (enumerate(&ds.subset(&keep)), keep.len())
        }
        _ => (enumerate(ds), ds.len()),
    };
    let hyperplane_count = hyperplanes.len();
    phase.finish();

    // Region enumeration: (constraints, witness) pairs.
    let phase = crate::buildtel::PhaseTimer::start("md_exact", "regions");
    let (witnesses, region_count, lp_solves) = {
        let mut tree = slice::arrangement(dim);
        for h in &hyperplanes {
            tree.insert(h);
        }
        (tree.region_witnesses(), tree.region_count(), tree.lp_calls)
    };
    phase.finish();
    crate::buildtel::count_lp_solves("md_exact", lp_solves);

    // Oracle pass: keep satisfactory regions (Algorithm 4 lines 20–26).
    // Witness probes run through the batched pipeline — workspace-backed
    // partial ranking plus is_satisfactory_batch — fanned across the
    // worker pool, with verdicts (and the per-witness call count)
    // identical to serial probing.
    let phase = crate::buildtel::PhaseTimer::start("md_exact", "verify");
    let verdicts =
        probes::batch_verdicts_threaded(ds, oracle, witnesses.len(), threads, |i, out| {
            slice::lift_into(&witnesses[i].1, out);
        });
    phase.finish();
    let oracle_calls = verdicts.len() as u64;
    crate::buildtel::count_oracle_calls("md_exact", oracle_calls);
    let satisfactory = witnesses
        .into_iter()
        .zip(verdicts)
        .filter(|(_, ok)| *ok)
        .map(|((constraints, witness), _)| SatRegion {
            constraints,
            witness,
        })
        .collect();

    Ok(SatRegions {
        dim,
        satisfactory,
        region_count,
        hyperplane_count,
        oracle_calls,
        lp_solves,
        items_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrank_datasets::synthetic::generic;
    use fairrank_fairness::{FnOracle, Proportionality};

    fn small_ds() -> Dataset {
        generic::anticorrelated(12, 3, 0.8, 21)
    }

    #[test]
    fn too_few_attributes_rejected() {
        let ds = Dataset::from_rows(vec!["a".into()], &[vec![1.0]]).unwrap();
        let o = FnOracle::new("always", |_: &[u32]| true);
        assert!(matches!(
            sat_regions(&ds, &o, &SatRegionsOptions::default()),
            Err(FairRankError::TooFewAttributes)
        ));
    }

    #[test]
    fn always_satisfactory_keeps_all_regions() {
        let ds = small_ds();
        let o = FnOracle::new("always", |_: &[u32]| true);
        let r = sat_regions(&ds, &o, &SatRegionsOptions::default()).unwrap();
        assert_eq!(r.satisfactory.len(), r.region_count);
        assert_eq!(r.oracle_calls as usize, r.region_count);
        assert!(r.region_count > 1, "hyperplanes should split the space");
    }

    #[test]
    fn never_satisfactory_keeps_none() {
        let ds = small_ds();
        let o = FnOracle::new("never", |_: &[u32]| false);
        let r = sat_regions(&ds, &o, &SatRegionsOptions::default()).unwrap();
        assert!(r.satisfactory.is_empty());
    }

    /// The tree-built regions match the flat reference arrangement over
    /// the same hyperplanes (the LP-count comparison lives with both
    /// structures in `fairrank_geometry::arrangement_tree`).
    #[test]
    fn tree_and_flat_agree_on_region_count() {
        let ds = small_ds();
        let o = FnOracle::new("always", |_: &[u32]| true);
        let tree = sat_regions(&ds, &o, &SatRegionsOptions::default()).unwrap();
        let hyperplanes = crate::md::exchange_hyperplanes(&ds);
        let simplex = vec![Constraint::le(vec![1.0; 2], 1.0)];
        let mut flat = fairrank_geometry::arrangement::Arrangement::with_base(2, 0.0, 1.0, simplex);
        for h in hyperplanes {
            flat.insert(h);
        }
        assert_eq!(tree.region_count, flat.region_count());
        assert_eq!(tree.hyperplane_count, flat.hyperplanes().len());
        assert!(tree.lp_solves > 0);
    }

    #[test]
    fn witnesses_are_genuinely_satisfactory() {
        let ds = generic::uniform(30, 3, 0.9, 7);
        let attr = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(attr, 6).with_max_count(0, 3);
        let r = sat_regions(&ds, &oracle, &SatRegionsOptions::default()).unwrap();
        use fairrank_fairness::FairnessOracle as _;
        for region in &r.satisfactory {
            let w = slice::lift(&region.witness);
            assert!(
                oracle.is_satisfactory(&ds.rank(&w)),
                "stored witness is not satisfactory"
            );
            for c in &region.constraints {
                assert!(c.satisfied(&region.witness, 1e-9));
            }
        }
    }

    #[test]
    fn hyperplane_cap_respected() {
        let ds = small_ds();
        let o = FnOracle::new("always", |_: &[u32]| true);
        let r = sat_regions(
            &ds,
            &o,
            &SatRegionsOptions {
                max_hyperplanes: Some(5),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.hyperplane_count, 5);
    }

    #[test]
    fn pruning_reduces_items_for_topk_oracle() {
        let ds = generic::uniform(60, 3, 0.5, 13);
        let attr = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(attr, 5).with_max_count(0, 3);
        let pruned = sat_regions(
            &ds,
            &oracle,
            &SatRegionsOptions {
                prune_top_k: true,
                max_hyperplanes: Some(200),
            },
        )
        .unwrap();
        assert!(
            pruned.items_used < 60,
            "pruning kept all {} items",
            pruned.items_used
        );
    }

    #[test]
    fn threaded_sat_regions_bit_identical_to_serial() {
        let ds = generic::uniform(30, 3, 0.9, 7);
        let attr = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(attr, 6).with_max_count(0, 3);
        let opts = SatRegionsOptions::default();
        let serial = sat_regions_with_threads(&ds, &oracle, &opts, 1).unwrap();
        for threads in [2usize, 3, 4] {
            let par = sat_regions_with_threads(&ds, &oracle, &opts, threads).unwrap();
            assert_eq!(par.region_count, serial.region_count);
            assert_eq!(par.hyperplane_count, serial.hyperplane_count);
            assert_eq!(par.oracle_calls, serial.oracle_calls);
            assert_eq!(
                crate::persist::encode_regions(&par.satisfactory, par.dim, &opts),
                crate::persist::encode_regions(&serial.satisfactory, serial.dim, &opts),
                "t = {threads}"
            );
        }
    }

    #[test]
    fn two_attribute_dataset_works_in_1d_angle_space() {
        let ds = generic::uniform(15, 2, 0.9, 17);
        let attr = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(attr, 4).with_max_count(0, 2);
        let r = sat_regions(&ds, &oracle, &SatRegionsOptions::default()).unwrap();
        assert_eq!(r.dim, 1);
        // Regions partition [0, 1]: count = hyperplanes (distinct cutting
        // points) + 1 at most.
        assert!(r.region_count <= r.hyperplane_count + 1);
    }
}
