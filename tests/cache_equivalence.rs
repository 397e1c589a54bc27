//! The region-identity answer cache must be invisible in the answers: a
//! cache-enabled [`FairRankService`] answers **bit-identically** to a
//! cache-disabled one (and to the direct synchronous
//! [`FairRanker::respond_batch`] path) on every backend — including
//! across interleaved live updates and under concurrent
//! update/submitter races. Also the regression gate for version
//! coherence (a cache hit never answers from a superseded generation)
//! and for the cache's operational counters.

use std::collections::HashMap;
use std::time::Duration;

use fairrank::approximate::BuildOptions;
use fairrank::md::SatRegionsOptions;
use fairrank::{DatasetUpdate, FairRanker, Strategy, SuggestRequest};
use fairrank_datasets::synthetic::generic;
use fairrank_datasets::Dataset;
use fairrank_fairness::Proportionality;
use fairrank_geometry::HALF_PI;
use fairrank_serve::FairRankService;

fn oracle_for(ds: &Dataset, kfrac: f64, cap_frac: f64) -> Proportionality {
    let attr = ds.type_attribute("group").unwrap();
    let k = ((ds.len() as f64) * kfrac).round().max(2.0) as usize;
    let cap = ((k as f64) * cap_frac).round().max(1.0) as usize;
    Proportionality::new(attr, k).with_max_count(0, cap)
}

/// A ranker whose backend can certify regions: exact (untruncated)
/// hyperplane lists for both the arrangement and the grid — the builds
/// `IndexBackend::region_of` demands before handing out keys.
fn build_cacheable(ds: &Dataset, strategy: Strategy) -> FairRanker {
    let oracle = oracle_for(ds, 0.25, 0.6);
    FairRanker::builder(ds.clone(), Box::new(oracle))
        .strategy(strategy)
        .sat_regions_options(SatRegionsOptions::default())
        .approx_options(BuildOptions {
            n_cells: 120,
            ..Default::default()
        })
        .build()
        .unwrap()
}

/// Queries spanning the orthant, including axis-aligned boundaries.
fn fan(d: usize, count: usize) -> Vec<SuggestRequest> {
    let mut queries: Vec<Vec<f64>> = (0..count)
        .map(|i| {
            let t = (i as f64 + 0.5) / count as f64 * HALF_PI;
            let mut q = vec![0.2 + 0.8 * t.sin(); d];
            q[0] = 0.2 + 1.5 * t.cos();
            q[i % d] += 0.9;
            q
        })
        .collect();
    let mut axis0 = vec![0.0; d];
    axis0[0] = 1.0;
    let mut axis1 = vec![0.0; d];
    axis1[d - 1] = 2.0;
    queries.push(axis0);
    queries.push(axis1);
    queries.into_iter().map(SuggestRequest::new).collect()
}

/// The tentpole gate: serve the same request stream (repeated `passes`
/// times, so the cache actually fires) through a cache-enabled and a
/// cache-disabled service, and demand bit-identical answers from both —
/// and from the direct synchronous path.
fn assert_cached_matches_uncached(ranker: FairRanker, reqs: &[SuggestRequest], passes: usize) {
    let direct = ranker.snapshot().respond_batch(reqs).unwrap();
    let cacheable = {
        let reference = ranker.snapshot();
        reqs.iter()
            .filter(|r| reference.region_of(&r.query).is_some())
            .count()
    };
    let cached = FairRankService::builder(ranker.snapshot())
        .workers(1)
        .max_batch(8)
        .build();
    let uncached = FairRankService::builder(ranker)
        .workers(1)
        .max_batch(8)
        .cache(false)
        .build();
    for _ in 0..passes {
        for (req, want) in reqs.iter().zip(&direct) {
            let hot = cached.suggest(req.clone()).unwrap();
            let cold = uncached.suggest(req.clone()).unwrap();
            assert_eq!(&hot, want, "cached service diverged from direct at {req:?}");
            assert_eq!(
                &cold, want,
                "uncached service diverged from direct at {req:?}"
            );
        }
    }
    let stats = cached.stats().cache.expect("cache enabled by default");
    // Single worker: the first pass misses each certified region once,
    // every later pass hits it.
    assert!(
        stats.hits >= (cacheable * (passes - 1)) as u64,
        "expected ≥{} hits over {passes} passes, got {stats:?}",
        cacheable * (passes - 1)
    );
    assert_eq!(
        stats.hits + stats.misses,
        (reqs.len() * passes) as u64,
        "every request must count as a hit or a miss"
    );
    assert!(
        uncached.stats().cache.is_none(),
        "disabled cache must not report stats"
    );
    cached.shutdown();
    uncached.shutdown();
}

#[test]
fn cached_matches_uncached_twod() {
    let ds = generic::uniform(45, 2, 0.9, 171);
    let ranker = build_cacheable(&ds, Strategy::TwoD);
    let reqs = fan(2, 40);
    // The 2-D interval index certifies every query (fair intervals, gap
    // sides, or global infeasibility).
    assert!(reqs.iter().all(|r| ranker.region_of(&r.query).is_some()));
    assert_cached_matches_uncached(ranker, &reqs, 3);
}

#[test]
fn cached_matches_uncached_md_exact() {
    let ds = generic::uniform(16, 3, 0.9, 172);
    let ranker = build_cacheable(&ds, Strategy::MdExact);
    let reqs = fan(3, 18);
    // The arrangement certifies fair-region membership only; make sure
    // the workload exercises at least one certified query.
    assert!(
        reqs.iter().any(|r| ranker.region_of(&r.query).is_some()),
        "fan must land in at least one satisfactory region"
    );
    assert_cached_matches_uncached(ranker, &reqs, 3);
}

#[test]
fn cached_matches_uncached_md_approx() {
    let ds = generic::uniform(30, 3, 0.85, 173);
    let ranker = build_cacheable(&ds, Strategy::MdApprox);
    let reqs = fan(3, 24);
    assert_cached_matches_uncached(ranker, &reqs, 3);
}

/// Truncated builds must refuse to certify regions — the cache then
/// degrades to a 0%-hit pass-through instead of serving unsound keys.
#[test]
fn truncated_builds_fall_back_to_uncached_serving() {
    let ds = generic::uniform(16, 3, 0.9, 174);
    let oracle = oracle_for(&ds, 0.25, 0.6);
    let ranker = FairRanker::builder(ds.clone(), Box::new(oracle))
        .strategy(Strategy::MdExact)
        .sat_regions_options(SatRegionsOptions {
            max_hyperplanes: Some(50),
            ..Default::default()
        })
        .build()
        .unwrap();
    let reqs = fan(3, 12);
    assert!(reqs.iter().all(|r| ranker.region_of(&r.query).is_none()));
    let direct = ranker.snapshot().respond_batch(&reqs).unwrap();
    let service = FairRankService::builder(ranker).workers(1).build();
    for pass in 0..2 {
        for (req, want) in reqs.iter().zip(&direct) {
            assert_eq!(&service.suggest(req.clone()).unwrap(), want, "pass {pass}");
        }
    }
    let stats = service.stats().cache.unwrap();
    assert_eq!(stats.hits, 0, "uncertified queries must never hit");
    assert_eq!(stats.misses, 2 * reqs.len() as u64);
    assert_eq!(stats.entries, 0);
    service.shutdown();
}

/// Interleaved updates: after every generation swap the cached service
/// still answers bit-identically to a direct ranker at the same version,
/// and each swap purges (invalidates) the cache.
#[test]
fn updates_purge_the_cache_and_preserve_equivalence() {
    let ds = generic::uniform(40, 2, 0.9, 181);
    let ranker = build_cacheable(&ds, Strategy::TwoD);
    let service = FairRankService::builder(ranker)
        .workers(2)
        .max_batch(4)
        .build();
    let reqs = fan(2, 16);
    let updates = vec![
        DatasetUpdate::Insert {
            scores: vec![0.55, 0.8],
            groups: vec![0],
        },
        DatasetUpdate::Rescore {
            item: 5,
            scores: vec![0.3, 0.9],
        },
        DatasetUpdate::Remove { item: 17 },
    ];
    let rounds = updates.len() as u64;
    for (round, update) in updates.into_iter().enumerate() {
        let reference = service.snapshot();
        // Two passes per round: the second one hits the cache seeded by
        // the first — both must match the per-version reference exactly.
        for _ in 0..2 {
            for req in &reqs {
                let got = service.suggest(req.clone()).unwrap();
                assert_eq!(got.version, round as u64);
                assert_eq!(got, reference.respond(req).unwrap());
            }
        }
        service.update(update).unwrap();
    }
    let stats = service.stats().cache.unwrap();
    assert_eq!(
        stats.invalidations, rounds,
        "every generation swap must purge the cache"
    );
    assert!(stats.hits > 0, "repeated passes must hit within a version");
    service.shutdown();
}

/// Version-coherence regression (the satellite-3 race): submitters
/// hammer repeated queries — maximizing cache traffic — while an updater
/// swaps generations. A cache hit must never produce a `Suggestion`
/// whose `version` differs from the generation that served it: every
/// answer must be bit-identical to the reference ranker frozen at the
/// answer's own version.
#[test]
fn concurrent_updates_never_serve_stale_cached_verdicts() {
    let ds = generic::uniform(35, 2, 0.9, 183);
    let ranker = build_cacheable(&ds, Strategy::TwoD);
    let service = FairRankService::builder(ranker)
        .workers(2)
        .max_batch(4)
        .build();
    let rounds = 6u64;
    let references = std::sync::Mutex::new(HashMap::from([(0u64, service.snapshot())]));
    let reqs = fan(2, 8);
    std::thread::scope(|scope| {
        let service = &service;
        let references = &references;
        let updater = scope.spawn(move || {
            for i in 0..rounds {
                service
                    .update(DatasetUpdate::Insert {
                        scores: vec![0.3 + 0.05 * i as f64, 0.7],
                        groups: vec![(i % 2) as u32],
                    })
                    .unwrap();
                references
                    .lock()
                    .unwrap()
                    .insert(service.version(), service.snapshot());
                std::thread::sleep(Duration::from_micros(300));
            }
        });
        for _ in 0..3 {
            let reqs = reqs.clone();
            scope.spawn(move || {
                // A short cycle of repeated queries: most lookups are
                // cache hits racing the purge/swap.
                for req in reqs.iter().cycle().take(80) {
                    let got = service.suggest(req.clone()).unwrap();
                    let reference = loop {
                        if let Some(r) = references.lock().unwrap().get(&got.version) {
                            break r.snapshot();
                        }
                        std::thread::yield_now();
                    };
                    assert_eq!(
                        got,
                        reference.respond(req).unwrap(),
                        "answer at version {} diverged from that generation",
                        got.version
                    );
                }
            });
        }
        updater.join().unwrap();
    });
    let stats = service.stats().cache.unwrap();
    assert_eq!(stats.invalidations, rounds);
    service.shutdown();
}

/// A capacity-1 cache thrashes (every distinct region evicts the last)
/// but never compromises correctness.
#[test]
fn tiny_capacity_evicts_without_affecting_answers() {
    let ds = generic::uniform(45, 2, 0.9, 187);
    let ranker = build_cacheable(&ds, Strategy::TwoD);
    let direct = ranker.snapshot();
    let service = FairRankService::builder(ranker)
        .workers(1)
        .cache_capacity(1)
        .build();
    let reqs = fan(2, 30);
    for _ in 0..2 {
        for req in &reqs {
            assert_eq!(
                service.suggest(req.clone()).unwrap(),
                direct.respond(req).unwrap()
            );
        }
    }
    let stats = service.stats().cache.unwrap();
    assert!(stats.entries <= 1, "capacity must bound residency");
    assert!(
        stats.evictions > 0,
        "30 distinct queries through one slot must evict"
    );
    service.shutdown();
}
