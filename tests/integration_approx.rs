//! Integration: the approximate grid index (paper §5) — CELLPLANE× →
//! MARKCELL/ATC⁺ → CELLCOLORING → MDONLINE — against ground truth.

use fairrank::approximate::{ApproxIndex, BuildOptions};
use fairrank::{Answer, FairRanker, KnownFairness, QueryCtx, Strategy, SuggestRequest};
use fairrank_datasets::synthetic::{compas, generic};
use fairrank_fairness::{FairnessOracle, Proportionality};
use fairrank_geometry::grid::PartitionScheme;
use fairrank_geometry::polar::{angular_distance, to_cartesian};
use fairrank_geometry::HALF_PI;

fn compas_d3(n: usize) -> fairrank_datasets::Dataset {
    compas::generate(&compas::CompasConfig {
        n,
        ..Default::default()
    })
    .project(&compas::validation_projection())
    .unwrap()
}

#[test]
fn compas_default_model_full_pipeline() {
    let ds = compas_d3(120);
    let race = ds.type_attribute("race").unwrap();
    let k = (ds.len() as f64 * 0.3).round() as usize;
    let oracle = Proportionality::new(race, k).with_max_share(0, 0.6);

    let index = ApproxIndex::build(
        &ds,
        &oracle,
        &BuildOptions {
            n_cells: 800,
            max_hyperplanes: Some(600),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        index.is_satisfiable(),
        "the default FM1 model is satisfiable"
    );

    // Every assigned function must be genuinely satisfactory (MARKCELL
    // validates against the real oracle).
    for f in index.functions() {
        assert!(oracle.is_satisfactory(&ds.rank(&to_cartesian(1.0, f))));
    }

    // MDONLINE answers across the angle space are fair.
    for i in 0..8 {
        for j in 0..8 {
            let q = vec![
                (i as f64 + 0.5) / 8.0 * HALF_PI,
                (j as f64 + 0.5) / 8.0 * HALF_PI,
            ];
            let f = index.lookup(&q).expect("satisfiable index answers");
            assert!(oracle.is_satisfactory(&ds.rank(&to_cartesian(1.0, f))));
        }
    }
}

#[test]
fn approx_answers_within_theorem6_of_exact() {
    // Compare the approximate index against MDBASELINE on the same data.
    use fairrank::md::{closest_satisfactory, sat_regions, SatRegionsOptions};
    let ds = generic::uniform(22, 3, 0.95, 909);
    let group = ds.type_attribute("group").unwrap();
    let oracle = Proportionality::new(group, 6).with_max_count(0, 3);

    let exact = sat_regions(&ds, &oracle, &SatRegionsOptions::default())
        .unwrap()
        .satisfactory;
    let index = ApproxIndex::build(
        &ds,
        &oracle,
        &BuildOptions {
            n_cells: 900,
            ..Default::default()
        },
    )
    .unwrap();
    if exact.is_empty() {
        assert!(!index.is_satisfiable());
        return;
    }
    let bound = index.error_bound();

    for q in [[0.15, 0.2], [1.2, 0.3], [0.5, 1.3], [0.8, 0.8]] {
        let exact_res = closest_satisfactory(&exact, &to_cartesian(1.0, &q)).unwrap();
        let approx_f = index.lookup(&q).unwrap();
        let approx_d = angular_distance(approx_f, &q);
        // θ_app ≤ θ_opt + bound, plus slack for the linearized exchange
        // surfaces of the grid's MARKCELL arrangements (HYPERPOLAR F2);
        // the exact answer is the optimum over the closed regions.
        assert!(
            approx_d <= exact_res.distance + bound + 0.15,
            "query {q:?}: approx {approx_d} vs exact {} + bound {bound}",
            exact_res.distance
        );
    }
}

#[test]
fn equal_area_and_uniform_schemes_both_sound() {
    let ds = compas_d3(60);
    let race = ds.type_attribute("race").unwrap();
    let k = 18;
    let oracle = Proportionality::new(race, k).with_max_share(0, 0.6);

    for scheme in [PartitionScheme::EqualArea, PartitionScheme::Uniform] {
        let index = ApproxIndex::build(
            &ds,
            &oracle,
            &BuildOptions {
                n_cells: 400,
                scheme,
                max_hyperplanes: Some(300),
                ..Default::default()
            },
        )
        .unwrap();
        if !index.is_satisfiable() {
            continue;
        }
        for f in index.functions() {
            assert!(
                oracle.is_satisfactory(&ds.rank(&to_cartesian(1.0, f))),
                "{scheme:?} produced an unfair function"
            );
        }
    }
}

#[test]
fn ranker_md_approx_face() {
    let ds = compas_d3(80);
    let race = ds.type_attribute("race").unwrap();
    let oracle = Proportionality::new(race, 24).with_max_share(0, 0.6);
    let ranker = FairRanker::builder(ds.clone(), Box::new(oracle.clone()))
        .strategy(Strategy::MdApprox)
        .approx_options(BuildOptions {
            n_cells: 500,
            max_hyperplanes: Some(400),
            ..Default::default()
        })
        .build()
        .unwrap();

    let mut verdicts = (0, 0, 0);
    for step in 0..30 {
        let a = 0.05 + 0.9 * (step as f64 / 29.0);
        let q = vec![a, 1.0 - a, 0.3 + 0.02 * step as f64];
        let sug = ranker.respond(&SuggestRequest::new(q)).unwrap();
        match sug.fairness {
            KnownFairness::AlreadyFair => verdicts.0 += 1,
            KnownFairness::Suggested { .. } => {
                verdicts.1 += 1;
                assert!(oracle.is_satisfactory(&ds.rank(&sug.weights)));
            }
            KnownFairness::Infeasible => verdicts.2 += 1,
        }
    }
    // With a satisfiable index, Infeasible must never be reported.
    assert_eq!(verdicts.2, 0, "verdicts: {verdicts:?}");
}

#[test]
fn four_dimensional_build() {
    // d = 4 → three angle axes; small but complete.
    let ds = generic::uniform(14, 4, 0.8, 404);
    let group = ds.type_attribute("group").unwrap();
    let oracle = Proportionality::new(group, 4).with_max_count(0, 2);
    let index = ApproxIndex::build(
        &ds,
        &oracle,
        &BuildOptions {
            n_cells: 300,
            max_hyperplanes: Some(50),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(index.grid().dim(), 3);
    if index.is_satisfiable() {
        let f = index.lookup(&[0.5, 0.5, 0.5]).unwrap();
        assert!(oracle.is_satisfactory(&ds.rank(&to_cartesian(1.0, f))));
    }
}

/// A query whose components overflow or underflow when squared gets the
/// grid's answer for the same direction at norm 1: the same suggested
/// direction and distance, with finite weights at the query's own norm.
#[test]
fn extreme_query_norms_get_the_unit_norm_suggestion() {
    let ds = generic::uniform(300, 3, 0.8, 5);
    let oracle =
        Proportionality::new(ds.type_attribute("group").unwrap(), 30).with_max_count(0, 18);
    let ranker = FairRanker::builder(ds.clone(), Box::new(oracle.clone()))
        .strategy(Strategy::MdApprox)
        .approx_options(BuildOptions {
            n_cells: 100,
            max_hyperplanes: Some(100),
            ..Default::default()
        })
        .build()
        .unwrap();
    let ctx = QueryCtx {
        ds: &ds,
        oracle: &oracle,
    };
    let suggest = |scale: f64| {
        let q = [1.0, 0.05, 0.05].map(|x| x * scale);
        match ranker.backend().suggest_unfair(&q, &ctx).unwrap() {
            Answer::Suggested { weights, distance } => (weights, distance),
            other => panic!("scale {scale}: expected a suggestion, got {other:?}"),
        }
    };
    let norm = |w: &[f64]| fairrank_geometry::vector::norm(w);
    let (unit_weights, unit_distance) = suggest(1.0);
    let unit_norm = norm(&[1.0, 0.05, 0.05]);
    for scale in [1e200, 1e-310] {
        let (weights, distance) = suggest(scale);
        assert!(
            weights.iter().all(|w| w.is_finite()),
            "{scale}: {weights:?}"
        );
        assert!(
            (distance - unit_distance).abs() < 1e-9,
            "{scale}: {distance}"
        );
        let n = norm(&weights);
        assert!(
            (n / scale / unit_norm - 1.0).abs() < 1e-9,
            "{scale}: norm {n}"
        );
        for (w, u) in weights.iter().zip(&unit_weights) {
            assert!((w / n - u / unit_norm).abs() < 1e-9, "{scale}: {weights:?}");
        }
    }
}
