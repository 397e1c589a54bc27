//! Integration: the exact multi-dimensional pipeline (paper §4) —
//! slice exchange hyperplanes → SATREGIONS (+ arrangement tree) →
//! MDBASELINE.

use fairrank::md::{
    closest_satisfactory_validated, sat_regions, ExactRegions, SatRegionsOptions, TIE_STEP,
};
use fairrank::{FairRanker, IndexBackend, KnownFairness, Strategy, SuggestRequest};
use fairrank_datasets::synthetic::generic;
use fairrank_fairness::{FairnessOracle, Proportionality};
use fairrank_geometry::polar::{angular_distance_cartesian, to_cartesian, to_polar};
use fairrank_geometry::HALF_PI;

/// The unit weight vectors of a `steps × steps` angle grid over the
/// 3-D orthant, cell centres.
fn angle_grid(steps: usize) -> Vec<Vec<f64>> {
    let at = |i: usize| (i as f64 + 0.5) / steps as f64 * HALF_PI;
    (0..steps * steps)
        .map(|c| to_cartesian(1.0, &[at(c / steps), at(c % steps)]))
        .collect()
}

/// MDBASELINE's projection is the exact optimum over the closed
/// satisfactory regions, so the only slack left is the tie walk: a walk
/// that stops at its first step `t = TIE_STEP` moves the answer by at
/// most `t / (1 − t) < 2·TIE_STEP` radians (the witness is at most π/2
/// away). No oracle-fair dense-sample point may beat the answer by more.
#[test]
fn mdbaseline_returns_fair_and_near_optimal_answers() {
    let ds = generic::uniform(24, 3, 0.95, 2024);
    let group = ds.type_attribute("group").unwrap();
    let oracle = Proportionality::new(group, 6).with_max_count(0, 3);

    let regions = sat_regions(&ds, &oracle, &SatRegionsOptions::default())
        .unwrap()
        .satisfactory;
    assert!(!regions.is_empty(), "setup should be satisfiable");

    let fair: Vec<Vec<f64>> = angle_grid(120)
        .into_iter()
        .filter(|w| oracle.is_satisfactory(&ds.rank(w)))
        .collect();
    assert!(!fair.is_empty());

    // Every unfair query of a coarse grid.
    let queries: Vec<Vec<f64>> = angle_grid(12)
        .into_iter()
        .filter(|q| !oracle.is_satisfactory(&ds.rank(q)))
        .collect();
    assert!(queries.len() >= 5, "only {} unfair queries", queries.len());
    for q in queries {
        let res =
            closest_satisfactory_validated(&regions, &q, &ds, &oracle).expect("regions exist");
        assert!(
            oracle.is_satisfactory(&ds.rank(&res.weights)),
            "unfair answer to {q:?}"
        );
        assert!(
            res.tie_excess < 2.0 * TIE_STEP,
            "walk went past its first step"
        );
        let optimal = fair
            .iter()
            .map(|p| angular_distance_cartesian(p, &q))
            .fold(f64::INFINITY, f64::min);
        assert!(
            optimal >= res.distance - 2.0 * TIE_STEP - 1e-12,
            "query {q:?}: a fair sample at {optimal} beats the answer at {}",
            res.distance
        );
    }
}

/// The containment probe: every point of a 60×60 angle grid strictly
/// inside a stored satisfactory region — by the margin `known_fairness`
/// uses — is oracle-fair, over 20 seeds of the serving tests' dense-grid
/// setup.
#[test]
fn satregions_verdicts_match_dense_truth() {
    let probe = angle_grid(60);
    let (mut inside, mut unfair) = (0usize, 0usize);
    for seed in 1000..1020 {
        let ds = generic::uniform(24, 3, 0.95, seed);
        let group = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(group, 6).with_max_count(0, 3);
        let built = sat_regions(&ds, &oracle, &SatRegionsOptions::default()).unwrap();
        let backend = ExactRegions::new(built.satisfactory, built.dim);
        for w in &probe {
            if backend.known_fairness(w) == Some(true) {
                inside += 1;
                unfair += usize::from(!oracle.is_satisfactory(&ds.rank(w)));
            }
        }
    }
    assert_eq!(unfair, 0, "{unfair} of {inside} inside points are unfair");
    assert!(inside > 1000, "the probe found only {inside} inside points");
}

#[test]
fn md_exact_ranker_round_trip() {
    let ds = generic::uniform(20, 4, 0.9, 321);
    let group = ds.type_attribute("group").unwrap();
    let oracle = Proportionality::new(group, 5).with_max_count(0, 2);
    let ranker = FairRanker::builder(ds.clone(), Box::new(oracle.clone()))
        .strategy(Strategy::MdExact)
        .sat_regions_options(SatRegionsOptions {
            max_hyperplanes: Some(40),
            ..Default::default()
        })
        .build()
        .unwrap();

    for q in [
        vec![1.0, 0.1, 0.1, 0.1],
        vec![0.3, 0.9, 0.5, 0.2],
        vec![0.25, 0.25, 0.25, 0.25],
    ] {
        let sug = ranker.respond(&SuggestRequest::new(q.clone())).unwrap();
        match sug.fairness {
            KnownFairness::AlreadyFair => {
                assert!(oracle.is_satisfactory(&ds.rank(&q)));
            }
            KnownFairness::Suggested { .. } => {
                assert!(oracle.is_satisfactory(&ds.rank(&sug.weights)));
            }
            KnownFairness::Infeasible => {
                // Legal only if nothing satisfies — spot-check a fan.
                let mut any = false;
                for i in 0..10 {
                    for j in 0..10 {
                        let a = vec![i as f64 / 9.0 * HALF_PI, j as f64 / 9.0 * HALF_PI, 0.4];
                        if oracle.is_satisfactory(&ds.rank(&to_cartesian(1.0, &a))) {
                            any = true;
                        }
                    }
                }
                assert!(!any, "reported infeasible but satisfactory functions exist");
            }
        }
    }
}

#[test]
fn pruned_and_unpruned_satregions_agree_on_verdicts() {
    // §8 pruning must not change which functions are satisfactory.
    let ds = generic::uniform(40, 3, 0.8, 77);
    let group = ds.type_attribute("group").unwrap();
    let oracle = Proportionality::new(group, 5).with_max_count(0, 2);

    let unpruned = sat_regions(
        &ds,
        &oracle,
        &SatRegionsOptions {
            max_hyperplanes: Some(120),
            prune_top_k: false,
        },
    )
    .unwrap();
    let pruned = sat_regions(
        &ds,
        &oracle,
        &SatRegionsOptions {
            max_hyperplanes: Some(120),
            prune_top_k: true,
        },
    )
    .unwrap();
    assert!(pruned.items_used <= 40);
    assert!(pruned.hyperplane_count <= unpruned.hyperplane_count);

    // Check agreement by querying both region sets.
    for q in [[0.2, 0.2], [1.0, 0.5], [0.5, 1.2]] {
        let q = to_cartesian(1.0, &q);
        let a = closest_satisfactory_validated(&unpruned.satisfactory, &q, &ds, &oracle);
        let b = closest_satisfactory_validated(&pruned.satisfactory, &q, &ds, &oracle);
        match (a, b) {
            (Some(ra), Some(rb)) => {
                // Both must be fair; distances comparable (pruned index has
                // coarser regions, so allow slack).
                assert!(oracle.is_satisfactory(&ds.rank(&ra.weights)));
                assert!(oracle.is_satisfactory(&ds.rank(&rb.weights)));
            }
            (None, None) => {}
            (x, y) => panic!("pruning changed satisfiability: {x:?} vs {y:?}"),
        }
    }
}

#[test]
fn query_angles_round_trip_weights() {
    // to_polar/to_cartesian self-consistency on the ranker query path.
    let w = vec![0.4, 1.2, 0.3, 0.8];
    let (r, angles) = to_polar(&w);
    let back = to_cartesian(r, &angles);
    for (a, b) in w.iter().zip(&back) {
        assert!((a - b).abs() < 1e-9);
    }
}
