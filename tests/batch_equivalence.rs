//! Batch/serial equivalence: the batched oracle pipeline and the
//! rank-workspace paths must be *observationally identical* to the
//! per-probe paths they accelerate — same suggestions, same ranking
//! prefixes, same oracle-call counts (even under concurrent MARKCELL).

use proptest::prelude::*;

use fairrank::approximate::BuildOptions;
use fairrank::probes::{batch_verdicts, batch_verdicts_and_thresholds};
use fairrank::{FairRanker, KnownFairness, Strategy, SuggestRequest};
use fairrank_datasets::synthetic::generic;
use fairrank_datasets::{Dataset, RankWorkspace, TypeAttribute};
use fairrank_fairness::{
    Conjunction, CountingOracle, ExposureFairness, FairnessOracle, FnOracle, PrefixFairness,
    Proportionality,
};
use fairrank_geometry::polar::to_cartesian;
use fairrank_geometry::HALF_PI;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `suggest_batch` answers are element-wise identical to per-query
    /// `suggest` on the 2-D index, across random datasets, constraints
    /// and query fans (axis-aligned queries included).
    #[test]
    fn suggest_batch_equals_serial_2d(
        seed in 0u64..500,
        n in 20usize..70,
        kfrac in 0.15f64..0.5,
        cap_frac in 0.3f64..0.9,
    ) {
        let ds = generic::uniform(n, 2, 0.9, seed);
        let attr = ds.type_attribute("group").unwrap().clone();
        let k = ((n as f64) * kfrac).round().max(2.0) as usize;
        let cap = ((k as f64) * cap_frac).round().max(1.0) as usize;
        let oracle = Proportionality::new(&attr, k).with_max_count(0, cap);
        let ranker = FairRanker::builder(ds.clone(), Box::new(oracle))
            .build()
            .unwrap();

        let mut queries: Vec<Vec<f64>> = (0..24)
            .map(|i| {
                let t = (i as f64 + 0.5) / 24.0 * HALF_PI;
                vec![1.7 * t.cos(), 1.7 * t.sin()]
            })
            .collect();
        queries.push(vec![1.0, 0.0]); // axis-aligned boundary queries
        queries.push(vec![0.0, 1.0]);
        let reqs: Vec<SuggestRequest> = queries.into_iter().map(SuggestRequest::new).collect();

        let batch = ranker.respond_batch(&reqs).unwrap();
        prop_assert_eq!(batch.len(), reqs.len());
        for (q, b) in reqs.iter().zip(&batch) {
            let serial = ranker.respond(q).unwrap();
            prop_assert_eq!(b, &serial, "batch/serial diverged at query {:?}", q);
            // Boundary hardening: any suggestion is itself a valid query
            // inside the domain.
            if let KnownFairness::Suggested { distance } = b.fairness {
                prop_assert!(ranker.respond(&SuggestRequest::new(b.weights.clone())).is_ok());
                prop_assert!((0.0..=HALF_PI + 1e-9).contains(&distance));
            }
        }
    }

    /// Workspace partial top-k ranking agrees with the full
    /// `Dataset::rank` prefix for random weights and bounds, and the
    /// tail is still a permutation of the remaining items.
    #[test]
    fn workspace_topk_agrees_with_full_rank(
        seed in 0u64..1000,
        n in 5usize..120,
        k in 1usize..140,
        w in prop::collection::vec(0.01f64..5.0, 3),
    ) {
        let ds = generic::uniform(n, 3, 0.5, seed);
        let full = ds.rank(&w);
        let mut ws = RankWorkspace::new();
        let partial = ws.rank_with_bound(&ds, &w, Some(k)).to_vec();
        let k_eff = k.min(n);
        prop_assert_eq!(&partial[..k_eff], &full[..k_eff]);
        let mut sorted = partial.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n as u32).collect::<Vec<u32>>());
        // Unbounded workspace ranking is bit-identical to Dataset::rank.
        prop_assert_eq!(ws.rank(&ds, &w), full.as_slice());
    }

    /// `batch_verdicts` equals serial oracle probing for random
    /// candidate sets, for every oracle kind: set-based (proportionality,
    /// a conjunction sharing one `k`), rank-aware (a conjunction of mixed
    /// `k`, exposure, FA*IR prefix) and a closure with no bound. The data
    /// ties exactly across the `k`-th position, so the id tie-break
    /// decides which items fill the top-k. The batched thresholds are the
    /// full ranking's `k`-th score.
    #[test]
    fn batched_probe_verdicts_equal_serial(
        seed in 0u64..500,
        n in 10usize..50,
        probes in 1usize..150,
        shape in 0u8..2,
    ) {
        let ds = tie_heavy_grouped(n, seed, shape == 1);
        let attr = ds.type_attribute("group").unwrap().clone();
        let k = (n / 3).max(2);
        let candidates: Vec<Vec<f64>> = (0..probes)
            .map(|i| {
                vec![
                    (i as f64 + 0.5) / probes as f64 * HALF_PI,
                    ((i * 13 + 5) % probes) as f64 / probes as f64 * HALF_PI * 0.98 + 0.01,
                ]
            })
            .collect();
        for (name, oracle) in oracle_kinds(&attr, k) {
            let batched = batch_verdicts(&ds, oracle.as_ref(), &candidates);
            let with_thresholds = batch_verdicts_and_thresholds(&ds, oracle.as_ref(), &candidates);
            prop_assert_eq!(batched.len(), candidates.len());
            prop_assert_eq!(with_thresholds.len(), candidates.len());
            for ((c, v), (tv, t)) in candidates.iter().zip(batched).zip(with_thresholds) {
                let w = to_cartesian(1.0, c);
                let full = ds.rank(&w);
                let serial = oracle.is_satisfactory(&full);
                prop_assert_eq!(v, serial, "{} at {:?}", name, c);
                prop_assert_eq!(tv, serial, "{} (thresholds pass) at {:?}", name, c);
                match oracle.top_k_bound() {
                    Some(kb) if kb <= n => prop_assert_eq!(
                        t.to_bits(),
                        ds.score(&w, full[kb - 1] as usize).to_bits(),
                        "{} threshold at {:?}", name, c
                    ),
                    _ => prop_assert!(t.is_nan(), "{} threshold without a bound", name),
                }
            }
        }
    }
}

/// A tie-heavy dataset (d = 3) with a binary `group` attribute:
/// `repeated` draws each row from a pool of `n / 4 + 1` distinct uniform
/// rows; otherwise every attribute is an integer in `0..=4`. Either way
/// many items tie exactly under every weight vector. Groups lean toward
/// the first attribute but are drawn per item, so tied items often sit
/// in different groups and the id tie-break decides the top-k counts.
fn tie_heavy_grouped(n: usize, seed: u64, repeated: bool) -> Dataset {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state >> 11
    };
    let mut uniform = || next() as f64 / (1u64 << 53) as f64;
    let rows: Vec<Vec<f64>> = if repeated {
        let pool: Vec<Vec<f64>> = (0..n / 4 + 1)
            .map(|_| (0..3).map(|_| uniform()).collect())
            .collect();
        (0..n)
            .map(|_| pool[(uniform() * pool.len() as f64) as usize].clone())
            .collect()
    } else {
        (0..n)
            .map(|_| (0..3).map(|_| (uniform() * 5.0).floor()).collect())
            .collect()
    };
    let top = if repeated { 1.0 } else { 4.0 };
    let groups: Vec<u32> = rows
        .iter()
        .map(|r| u32::from(uniform() < 0.2 + 0.6 * r[0] / top))
        .collect();
    let mut ds = Dataset::from_rows(vec!["a0".into(), "a1".into(), "a2".into()], &rows).unwrap();
    ds.add_type_attribute("group", vec!["g0".into(), "g1".into()], groups)
        .unwrap();
    ds
}

/// One oracle of every kind over `attr` and top-`k`, each named.
fn oracle_kinds(attr: &TypeAttribute, k: usize) -> Vec<(&'static str, Box<dyn FairnessOracle>)> {
    let cap = (k / 2).max(1);
    let prop = Proportionality::new(attr, k).with_max_count(1, cap);
    let half = (k / 2).max(1);
    let closure_inner = prop.clone();
    vec![
        ("proportionality", Box::new(prop.clone())),
        (
            "conjunction, one k",
            Box::new(
                Conjunction::new()
                    .and(prop.clone())
                    .and(Proportionality::new(attr, k).with_min_count(1, (k / 4).max(1))),
            ),
        ),
        (
            "conjunction, mixed k",
            Box::new(
                Conjunction::new()
                    .and(prop.clone())
                    .and(Proportionality::new(attr, half).with_max_count(1, (half / 2).max(1))),
            ),
        ),
        (
            "exposure",
            Box::new(ExposureFairness::new(attr, k).with_share_bounds(1, 0.0, 0.55)),
        ),
        (
            "FA*IR prefix",
            Box::new(PrefixFairness::new(attr, 0, k, 0.4, 0.5)),
        ),
        (
            "closure",
            Box::new(FnOracle::new(
                "closure over proportionality",
                move |r: &[u32]| closure_inner.is_satisfactory(r),
            )),
        ),
    ]
}

/// Under concurrent MARKCELL, a `CountingOracle` shared across workers
/// must see *exactly* the same number of probes the build reports — the
/// workspace/batched plumbing may not lose or double-count invocations.
#[test]
fn concurrent_markcell_probe_counts_are_exact() {
    let ds = generic::uniform(40, 3, 0.85, 7);
    let attr = ds.type_attribute("group").unwrap();
    let inner = Proportionality::new(attr, 8).with_max_count(0, 4);
    // The ranker owns its oracle, so each counter is leaked to outlive
    // it and read afterwards.
    let build = |counter: &'static CountingOracle<Proportionality>, threads| {
        FairRanker::builder(ds.clone(), Box::new(counter))
            .strategy(Strategy::MdApprox)
            .approx_options(BuildOptions {
                n_cells: 150,
                max_hyperplanes: Some(200),
                ..Default::default()
            })
            .build_threads(threads)
            .build()
            .unwrap()
    };

    let counter_seq = Box::leak(Box::new(CountingOracle::new(inner.clone())));
    let seq = build(counter_seq, 1);
    let seq = seq.approx_index().unwrap();
    assert_eq!(
        counter_seq.calls(),
        seq.stats().oracle_calls,
        "sequential build must report exactly the probes it made"
    );

    let counter_par = Box::leak(Box::new(CountingOracle::new(inner.clone())));
    let par = build(counter_par, 4);
    let par = par.approx_index().unwrap();
    assert_eq!(
        counter_par.calls(),
        par.stats().oracle_calls,
        "parallel build must report exactly the probes it made"
    );

    // Parallelism must not change the artifact or the probe count.
    assert_eq!(seq.functions(), par.functions());
    assert_eq!(seq.stats().oracle_calls, par.stats().oracle_calls);
}

/// Deterministic batch/serial agreement on the approximate m-d index,
/// including infeasible and already-fair outcomes.
#[test]
fn suggest_batch_equals_serial_md_approx() {
    let ds = generic::uniform(35, 3, 0.9, 101);
    let attr = ds.type_attribute("group").unwrap();
    let oracle = Proportionality::new(attr, 7).with_max_count(0, 3);
    let ranker = FairRanker::builder(ds.clone(), Box::new(oracle))
        .strategy(Strategy::MdApprox)
        .approx_options(BuildOptions {
            n_cells: 200,
            max_hyperplanes: Some(120),
            ..Default::default()
        })
        .build()
        .unwrap();
    let queries: Vec<Vec<f64>> = (0..50)
        .map(|i| {
            vec![
                1.0,
                0.01 + 0.04 * f64::from(i),
                0.02 + 0.03 * f64::from(49 - i),
            ]
        })
        .collect();
    let reqs: Vec<SuggestRequest> = queries.into_iter().map(SuggestRequest::new).collect();
    let batch = ranker.respond_batch(&reqs).unwrap();
    let mut fair = 0usize;
    for (q, b) in reqs.iter().zip(&batch) {
        assert_eq!(b, &ranker.respond(q).unwrap());
        if b.is_already_fair() {
            fair += 1;
        }
    }
    assert!(fair < reqs.len(), "bias should leave some queries unfair");
}
