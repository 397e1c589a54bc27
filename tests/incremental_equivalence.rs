//! Incremental-vs-rebuild equivalence: for random update sequences
//! (insert / remove / rescore) against all three backends, a ranker
//! maintained through [`FairRanker::update`] answers `respond` queries
//! **element-wise identically** to a ranker rebuilt from scratch on the
//! final dataset — bit-identical weights and distances, not just "close".
//!
//! This is the contract that makes live updates trustworthy: incremental
//! maintenance is an optimization, never a semantic.

use proptest::prelude::*;

use fairrank::approximate::BuildOptions;
use fairrank::md::SatRegionsOptions;
use fairrank::{
    DatasetUpdate, FairRanker, KnownFairness, Strategy, SuggestRequest, Suggestion, UpdateOutcome,
};
use fairrank_datasets::synthetic::generic;
use fairrank_datasets::Dataset;
use fairrank_fairness::Proportionality;
use fairrank_geometry::HALF_PI;

/// A fairness model whose `k` never hits the clamp under our update
/// sequences (so progressive oracle re-binding equals one final re-bind).
fn oracle_for(ds: &Dataset, k: usize, cap: usize) -> Proportionality {
    let attr = ds.type_attribute("group").unwrap();
    Proportionality::new(attr, k).with_max_count(0, cap)
}

/// Deterministic query fan across the positive orthant.
fn query_fan(d: usize, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            let t = (i as f64 + 0.5) / count as f64 * HALF_PI;
            let mut q = vec![0.3 + t.sin(); d];
            q[0] = 0.3 + t.cos();
            q[i % d] += 0.9;
            q
        })
        .collect()
}

/// Compressed update description drawn by proptest: (kind, item selector,
/// score seed, group). Materialized against the live dataset so item ids
/// are always in range.
type UpdateSpec = (u8, u32, u32, u32);

fn materialize(spec: &UpdateSpec, ds: &Dataset, d: usize) -> DatasetUpdate {
    let (kind, item_sel, score_seed, group) = *spec;
    let scores: Vec<f64> = (0..d)
        .map(|j| {
            let h = u64::from(score_seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(j as u64 * 0x85EB_CA6B);
            (h % 1000) as f64 / 1000.0 + 0.001
        })
        .collect();
    match kind % 3 {
        0 => DatasetUpdate::Insert {
            scores,
            groups: vec![group % 2],
        },
        1 => DatasetUpdate::Remove {
            item: item_sel % ds.len() as u32,
        },
        _ => DatasetUpdate::Rescore {
            item: item_sel % ds.len() as u32,
            scores,
        },
    }
}

/// Drive `live` through the updates, then compare against a from-scratch
/// ranker on the final dataset built by `rebuild`.
fn assert_equivalent(
    mut live: FairRanker,
    specs: &[UpdateSpec],
    d: usize,
    rebuild: impl Fn(Dataset) -> FairRanker,
) -> Vec<UpdateOutcome> {
    let mut outcomes = Vec::with_capacity(specs.len());
    for spec in specs {
        let update = materialize(spec, live.dataset(), d);
        outcomes.push(live.update(update).expect("update applies"));
    }
    let scratch = rebuild(live.dataset().clone());
    for q in query_fan(d, 40) {
        let req = SuggestRequest::new(q.clone());
        let a = live.respond(&req).unwrap();
        let b = scratch.respond(&req).unwrap();
        // The live ranker's version counts its updates; the scratch build
        // starts at 0 — compare the served answers, not the epoch stamp.
        assert_eq!(a.weights, b.weights, "divergence at {q:?} after {specs:?}");
        assert_eq!(
            a.fairness, b.fairness,
            "divergence at {q:?} after {specs:?}"
        );
    }
    outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 2-D intervals: true in-place maintenance (merged event lists,
    /// verdict-reuse certificates) must match a fresh 2DRAYSWEEP.
    #[test]
    fn twod_incremental_matches_rebuild(
        seed in 0u64..1000,
        specs in prop::collection::vec((0u8..6, 0u32..1_000_000, 0u32..1_000_000, 0u32..1_000_000), 1..6),
    ) {
        let ds = generic::uniform(40, 2, 0.9, seed);
        let k = 8;
        let live = FairRanker::builder(ds.clone(), Box::new(oracle_for(&ds, k, 4)))
            .strategy(Strategy::TwoD)
            .build()
            .unwrap();
        assert_equivalent(live, &specs, 2, |final_ds| {
            let oracle = oracle_for(&final_ds, k, 4);
            FairRanker::builder(final_ds, Box::new(oracle))
                .strategy(Strategy::TwoD)
                .build()
                .unwrap()
        });
    }

    /// Approximate grid: every update reports a rebuild, and the rebuilt
    /// index must match a fresh §5 build, cell for cell.
    #[test]
    fn approx_incremental_matches_rebuild(
        seed in 0u64..1000,
        specs in prop::collection::vec((0u8..6, 0u32..1_000_000, 0u32..1_000_000, 0u32..1_000_000), 1..5),
    ) {
        let ds = generic::uniform(18, 3, 0.85, seed);
        let k = 5;
        let opts = BuildOptions {
            n_cells: 120,
            // Uncapped here; the capped build is covered by
            // `approx_truncated_build_falls_back_to_rebuild` below.
            max_hyperplanes: None,
            ..Default::default()
        };
        let live = FairRanker::builder(ds.clone(), Box::new(oracle_for(&ds, k, 3)))
            .strategy(Strategy::MdApprox)
            .approx_options(opts.clone())
            .build()
            .unwrap();
        let outcomes = assert_equivalent(live, &specs, 3, |final_ds| {
            let oracle = oracle_for(&final_ds, k, 3);
            FairRanker::builder(final_ds, Box::new(oracle))
                .strategy(Strategy::MdApprox)
                .approx_options(opts.clone())
                .build()
                .unwrap()
        });
        prop_assert!(outcomes.iter().all(|o| *o == UpdateOutcome::Rebuilt));
    }

    /// Exact regions: the rebuild every update pays must match a fresh
    /// SATREGIONS arrangement.
    #[test]
    fn md_exact_matches_rebuild(
        seed in 0u64..1000,
        specs in prop::collection::vec((0u8..6, 0u32..1_000_000, 0u32..1_000_000, 0u32..1_000_000), 1..4),
    ) {
        let ds = generic::uniform(12, 3, 0.85, seed);
        let k = 4;
        let opts = SatRegionsOptions {
            max_hyperplanes: Some(40),
            ..Default::default()
        };
        let live = FairRanker::builder(ds.clone(), Box::new(oracle_for(&ds, k, 2)))
            .strategy(Strategy::MdExact)
            .sat_regions_options(opts.clone())
            .build()
            .unwrap();
        assert_equivalent(live, &specs, 3, |final_ds| {
            let oracle = oracle_for(&final_ds, k, 2);
            FairRanker::builder(final_ds, Box::new(oracle))
                .strategy(Strategy::MdExact)
                .sat_regions_options(opts.clone())
                .build()
                .unwrap()
        });
    }
}

#[test]
fn twod_updates_report_incremental() {
    let ds = generic::uniform(30, 2, 0.9, 7);
    let mut ranker = FairRanker::builder(ds.clone(), Box::new(oracle_for(&ds, 6, 3)))
        .strategy(Strategy::TwoD)
        .build()
        .unwrap();
    assert_eq!(ranker.version(), 0);
    let outcome = ranker
        .update(DatasetUpdate::Insert {
            scores: vec![0.4, 0.7],
            groups: vec![1],
        })
        .unwrap();
    assert_eq!(outcome, UpdateOutcome::Incremental);
    assert_eq!(ranker.version(), 1);
    assert_eq!(ranker.dataset().len(), 31);
    let stats = ranker.backend_stats();
    assert_eq!(stats.updates, 1);
    assert_eq!(stats.rebuilds, 0);

    let outcome = ranker.update(DatasetUpdate::Remove { item: 3 }).unwrap();
    assert_eq!(outcome, UpdateOutcome::Incremental);
    let outcome = ranker
        .update(DatasetUpdate::Rescore {
            item: 5,
            scores: vec![0.9, 0.1],
        })
        .unwrap();
    assert_eq!(outcome, UpdateOutcome::Incremental);
    assert_eq!(ranker.version(), 3);
}

#[test]
fn twod_loaded_ranker_heals_on_first_update() {
    // A persisted 2-D index has no sweep state: the first update pays one
    // rebuild, after which maintenance is incremental again.
    let ds = generic::uniform(30, 2, 0.9, 11);
    let ranker = FairRanker::builder(ds.clone(), Box::new(oracle_for(&ds, 6, 3)))
        .strategy(Strategy::TwoD)
        .build()
        .unwrap();
    let bytes = ranker.to_bytes();
    let mut reloaded =
        FairRanker::from_bytes(&bytes, ds.clone(), Box::new(oracle_for(&ds, 6, 3))).unwrap();
    let insert = DatasetUpdate::Insert {
        scores: vec![0.2, 0.9],
        groups: vec![0],
    };
    assert_eq!(
        reloaded.update(insert.clone()).unwrap(),
        UpdateOutcome::Rebuilt
    );
    assert_eq!(
        reloaded
            .update(DatasetUpdate::Rescore {
                item: 2,
                scores: vec![0.6, 0.6]
            })
            .unwrap(),
        UpdateOutcome::Incremental
    );
    // And the healed ranker matches a scratch build.
    let scratch_oracle = oracle_for(reloaded.dataset(), 6, 3);
    let scratch = FairRanker::builder(reloaded.dataset().clone(), Box::new(scratch_oracle))
        .strategy(Strategy::TwoD)
        .build()
        .unwrap();
    for q in query_fan(2, 25) {
        let req = SuggestRequest::new(q);
        let (a, b) = (
            reloaded.respond(&req).unwrap(),
            scratch.respond(&req).unwrap(),
        );
        assert_eq!((a.weights, a.fairness), (b.weights, b.fairness));
    }
}

/// Every exact update rebuilds at once, on an exclusively owned ranker
/// and on one with a snapshot outstanding, and counts one update and one
/// rebuild; afterwards the ranker answers like a from-scratch build.
#[test]
fn md_exact_coalesces_and_flushes() {
    let ds = generic::uniform(12, 3, 0.85, 13);
    let opts = SatRegionsOptions {
        max_hyperplanes: Some(40),
        ..Default::default()
    };
    let mut ranker = FairRanker::builder(ds.clone(), Box::new(oracle_for(&ds, 4, 2)))
        .strategy(Strategy::MdExact)
        .sat_regions_options(opts.clone())
        .build()
        .unwrap();
    let insert = |s: f64| DatasetUpdate::Insert {
        scores: vec![s, 1.0 - s, 0.5],
        groups: vec![1],
    };
    for s in [0.3, 0.6] {
        assert_eq!(ranker.update(insert(s)).unwrap(), UpdateOutcome::Rebuilt);
    }
    let pin = ranker.snapshot();
    assert_eq!(ranker.update(insert(0.8)).unwrap(), UpdateOutcome::Rebuilt);
    drop(pin);
    let stats = ranker.backend_stats();
    assert_eq!((stats.updates, stats.rebuilds), (3, 3));
    let scratch_oracle = oracle_for(ranker.dataset(), 4, 2);
    let scratch = FairRanker::builder(ranker.dataset().clone(), Box::new(scratch_oracle))
        .strategy(Strategy::MdExact)
        .sat_regions_options(opts)
        .build()
        .unwrap();
    for q in query_fan(3, 25) {
        let req = SuggestRequest::new(q);
        let (a, b) = (
            ranker.respond(&req).unwrap(),
            scratch.respond(&req).unwrap(),
        );
        assert_eq!((a.weights, a.fairness), (b.weights, b.fairness));
    }
}

#[test]
fn approx_truncated_build_falls_back_to_rebuild() {
    // A capped grid rebuilds with its cap on every update, like every
    // grid, and answers like a scratch build with the same cap.
    let ds = generic::uniform(20, 3, 0.85, 17);
    let opts = BuildOptions {
        n_cells: 100,
        max_hyperplanes: Some(60),
        ..Default::default()
    };
    let mut ranker = FairRanker::builder(ds.clone(), Box::new(oracle_for(&ds, 5, 3)))
        .strategy(Strategy::MdApprox)
        .approx_options(opts.clone())
        .build()
        .unwrap();
    assert_eq!(
        ranker
            .update(DatasetUpdate::Insert {
                scores: vec![0.5, 0.4, 0.6],
                groups: vec![0],
            })
            .unwrap(),
        UpdateOutcome::Rebuilt
    );
    let scratch_oracle = oracle_for(ranker.dataset(), 5, 3);
    let scratch = FairRanker::builder(ranker.dataset().clone(), Box::new(scratch_oracle))
        .strategy(Strategy::MdApprox)
        .approx_options(opts)
        .build()
        .unwrap();
    for q in query_fan(3, 25) {
        let req = SuggestRequest::new(q);
        let (a, b) = (
            ranker.respond(&req).unwrap(),
            scratch.respond(&req).unwrap(),
        );
        assert_eq!((a.weights, a.fairness), (b.weights, b.fairness));
    }
}

#[test]
fn invalid_updates_leave_ranker_untouched() {
    let ds = generic::uniform(25, 2, 0.9, 19);
    let mut ranker = FairRanker::builder(ds.clone(), Box::new(oracle_for(&ds, 6, 3)))
        .strategy(Strategy::TwoD)
        .build()
        .unwrap();
    let before: Vec<Suggestion> = query_fan(2, 10)
        .into_iter()
        .map(|q| ranker.respond(&SuggestRequest::new(q)).unwrap())
        .collect();
    for bad in [
        DatasetUpdate::Insert {
            scores: vec![0.5],
            groups: vec![0],
        },
        DatasetUpdate::Insert {
            scores: vec![0.5, 0.5],
            groups: vec![9],
        },
        DatasetUpdate::Remove { item: 99 },
        DatasetUpdate::Rescore {
            item: 0,
            scores: vec![f64::NAN, 1.0],
        },
    ] {
        assert!(ranker.update(bad).is_err());
    }
    assert_eq!(ranker.version(), 0);
    assert_eq!(ranker.dataset().len(), 25);
    for (q, want) in query_fan(2, 10).into_iter().zip(before) {
        assert_eq!(ranker.respond(&SuggestRequest::new(q)).unwrap(), want);
    }
}

#[test]
fn oracle_rebinds_to_updated_population() {
    // Inserting many group-1 items must change what "at most 3 of group 0
    // in the top-6" means in practice: the rebound oracle sees the new
    // items. We verify by checking suggestions stay *fair* on the updated
    // dataset per a freshly constructed oracle.
    use fairrank_fairness::FairnessOracle as _;
    let ds = generic::uniform(30, 2, 0.95, 23);
    let mut ranker = FairRanker::builder(ds.clone(), Box::new(oracle_for(&ds, 6, 3)))
        .strategy(Strategy::TwoD)
        .build()
        .unwrap();
    for i in 0..5 {
        ranker
            .update(DatasetUpdate::Insert {
                scores: vec![0.9 - 0.1 * f64::from(i), 0.85],
                groups: vec![1],
            })
            .unwrap();
    }
    let fresh_oracle = oracle_for(ranker.dataset(), 6, 3);
    for q in query_fan(2, 20) {
        let sug = ranker.respond(&SuggestRequest::new(q.clone())).unwrap();
        if let KnownFairness::Suggested { .. } = sug.fairness {
            assert!(
                fresh_oracle.is_satisfactory(&ranker.dataset().rank(&sug.weights)),
                "suggestion unfair on updated dataset at {q:?}"
            );
        }
    }
}
