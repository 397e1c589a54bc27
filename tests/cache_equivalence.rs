//! Repeated queries through [`FairRankService`] — the traffic a
//! region-keyed answer cache would serve — must be answered
//! **bit-identically** to the direct synchronous
//! [`FairRanker::respond_batch`] path on every pass, within a version and
//! across live updates, also while submitters race an updater. The
//! service keeps no answers between requests: every one is served by the
//! index-first `respond_batch` of the snapshot it ran on, which on the
//! 2-D backend decides every verdict from the interval index.

use std::collections::HashMap;
use std::time::Duration;

use fairrank::approximate::BuildOptions;
use fairrank::md::SatRegionsOptions;
use fairrank::{DatasetUpdate, FairRanker, Strategy, SuggestOptions, SuggestRequest};
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

/// A ranker with untruncated hyperplane lists for both m-D backends.
fn build(ds: &Dataset, strategy: Strategy) -> FairRanker {
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

fn audit(req: &SuggestRequest) -> SuggestRequest {
    req.clone()
        .with_options(SuggestOptions::default().index_fastpath(false))
}

/// The same 2-D request stream, served three times over by one worker,
/// answers bit-identically to the direct path on every pass, every answer
/// is index-decided, and the audit path served through the same service
/// agrees on weights, verdict and version.
#[test]
fn cached_matches_uncached_twod() {
    let ds = generic::uniform(45, 2, 0.9, 171);
    let ranker = build(&ds, Strategy::TwoD);
    let reqs = fan(2, 40);
    let passes = 3;
    let direct = ranker.snapshot().respond_batch(&reqs).unwrap();
    let service = FairRankService::builder(ranker)
        .workers(1)
        .max_batch(8)
        .build();
    for pass in 0..passes {
        for (req, want) in reqs.iter().zip(&direct) {
            let got = service.suggest(req.clone()).unwrap();
            assert_eq!(&got, want, "pass {pass}: service diverged at {req:?}");
            assert!(got.stats.index_decided, "the 2-D index decides {req:?}");
            let audited = service.suggest(audit(req)).unwrap();
            assert!(!audited.stats.index_decided, "audit asks the oracle");
            assert_eq!(
                (&audited.weights, &audited.fairness, audited.version),
                (&want.weights, &want.fairness, want.version),
                "pass {pass}: audit path diverged at {req:?}"
            );
        }
    }
    let stats = service.stats();
    let served = (2 * reqs.len() * passes) as u64;
    assert_eq!(stats.submitted, served);
    assert_eq!(stats.completed, served);
    service.shutdown();
}

/// Interleaved updates: two passes per generation, each answer
/// bit-identical to a reference frozen at that generation; no answer
/// outlives the swap that superseded its generation.
#[test]
fn updates_purge_the_cache_and_preserve_equivalence() {
    let ds = generic::uniform(40, 2, 0.9, 181);
    let ranker = build(&ds, Strategy::TwoD);
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
        for _ in 0..2 {
            for req in &reqs {
                let got = service.suggest(req.clone()).unwrap();
                assert_eq!(got.version, round as u64);
                assert!(got.stats.index_decided, "the 2-D index decides {req:?}");
                assert_eq!(got, reference.respond(req).unwrap());
            }
        }
        service.update(update).unwrap();
    }
    assert_eq!(service.version(), rounds);
    let last = service.snapshot();
    for req in &reqs {
        let got = service.suggest(req.clone()).unwrap();
        assert_eq!(got.version, rounds, "served from a superseded generation");
        assert_eq!(got, last.respond(req).unwrap());
    }
    service.shutdown();
}

/// Submitters hammer a short cycle of repeated queries while an updater
/// swaps generations: every answer is bit-identical to the reference
/// ranker frozen at the answer's own version.
#[test]
fn concurrent_updates_never_serve_stale_cached_verdicts() {
    let ds = generic::uniform(35, 2, 0.9, 183);
    let ranker = build(&ds, Strategy::TwoD);
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
                for req in reqs.iter().cycle().take(80) {
                    let got = service.suggest(req.clone()).unwrap();
                    let reference = loop {
                        if let Some(r) = references.lock().unwrap().get(&got.version) {
                            break r.snapshot();
                        }
                        std::thread::yield_now();
                    };
                    assert!(got.stats.index_decided, "the 2-D index decides {req:?}");
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
    assert_eq!(service.version(), rounds);
    service.shutdown();
}
