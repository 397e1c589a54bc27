//! The async serving tier must be invisible in the answers: a
//! [`FairRankService`] serving concurrently submitted requests answers
//! **bit-identically** to the direct synchronous
//! [`FairRanker::respond_batch`] path on every backend — including while
//! live updates advance the dataset version (snapshot semantics), and
//! through a shutdown that drains pending requests. Also the regression
//! gate for consistent [`BackendStats`](fairrank::BackendStats) counter
//! snapshots under the service's worker pool, for the bound on batches
//! running at once whether pool workers or blocked callers run them, for
//! the ranking scratch those batches use staying with the slots, for
//! shutdown while blocked callers hold every slot, and for a panicking
//! oracle failing only its own batch.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fairrank::approximate::BuildOptions;
use fairrank::md::SatRegionsOptions;
use fairrank::{
    DatasetUpdate, FairRanker, Strategy, SuggestOptions, SuggestRequest, UpdateOutcome,
};
use fairrank_datasets::kernels::RankScratch;
use fairrank_datasets::synthetic::generic;
use fairrank_datasets::Dataset;
use fairrank_fairness::{FairnessOracle, FnOracle, Proportionality};
use fairrank_geometry::polar::to_cartesian;
use fairrank_geometry::HALF_PI;
use fairrank_serve::{runtime, FairRankService, ServiceError};

fn oracle_for(ds: &Dataset, kfrac: f64, cap_frac: f64) -> Proportionality {
    let attr = ds.type_attribute("group").unwrap();
    let k = ((ds.len() as f64) * kfrac).round().max(2.0) as usize;
    let cap = ((k as f64) * cap_frac).round().max(1.0) as usize;
    Proportionality::new(attr, k).with_max_count(0, cap)
}

fn build(ds: &Dataset, strategy: Strategy) -> FairRanker {
    build_with(ds, strategy, Box::new(oracle_for(ds, 0.25, 0.6)))
}

/// A 2-D ranker over `build`'s oracle that sleeps 20 ms per call once the
/// returned switch is set: the index builds at full speed, then a single
/// worker stays busy long enough for submissions to queue behind it.
fn build_slow(ds: &Dataset) -> (FairRanker, Arc<AtomicBool>) {
    let fair = oracle_for(ds, 0.25, 0.6);
    let slow = Arc::new(AtomicBool::new(false));
    let switch = Arc::clone(&slow);
    let oracle = FnOracle::new("slow-proportionality", move |ranking: &[u32]| {
        if switch.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(20));
        }
        fair.is_satisfactory(ranking)
    });
    (build_with(ds, Strategy::TwoD, Box::new(oracle)), slow)
}

fn build_with(ds: &Dataset, strategy: Strategy, oracle: Box<dyn FairnessOracle>) -> FairRanker {
    FairRanker::builder(ds.clone(), oracle)
        .strategy(strategy)
        .sat_regions_options(SatRegionsOptions {
            max_hyperplanes: Some(50),
            ..Default::default()
        })
        .approx_options(BuildOptions {
            n_cells: 120,
            max_hyperplanes: Some(80),
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

/// `req` on the audit path (`index_fastpath = false`), where the oracle
/// decides the verdict. The tests whose oracle sleeps, blocks, counts
/// or panics serve audit requests: the 2-D index decides a default
/// request without asking the oracle.
fn audit(req: SuggestRequest) -> SuggestRequest {
    req.with_options(SuggestOptions::default().index_fastpath(false))
}

/// [`fan`] in 2-D on the audit path.
fn audit_fan(count: usize) -> Vec<SuggestRequest> {
    fan(2, count).into_iter().map(audit).collect()
}

/// Concurrently submitted service answers must equal the direct
/// synchronous batch path, field for field (weights, verdict, version,
/// stats) — on every backend.
fn assert_service_matches_direct(ranker: FairRanker, reqs: &[SuggestRequest]) {
    let direct = ranker.snapshot().respond_batch(reqs).unwrap();
    let service = FairRankService::builder(ranker)
        .workers(3)
        .max_batch(8)
        .build();
    std::thread::scope(|scope| {
        let chunk = reqs.len().div_ceil(4).max(1);
        for (c, expected) in reqs.chunks(chunk).zip(direct.chunks(chunk)) {
            let service = &service;
            scope.spawn(move || {
                // Mix the async future path and the blocking path.
                let futures: Vec<_> = c
                    .iter()
                    .map(|r| service.submit(r.clone()).unwrap())
                    .collect();
                for ((req, fut), want) in c.iter().zip(futures).zip(expected) {
                    let got = runtime::block_on(fut).unwrap();
                    assert_eq!(&got, want, "service diverged from direct at {req:?}");
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.submitted, reqs.len() as u64);
    assert_eq!(stats.completed, reqs.len() as u64);
    service.shutdown();
}

#[test]
fn service_matches_direct_twod() {
    let ds = generic::uniform(45, 2, 0.9, 71);
    assert_service_matches_direct(build(&ds, Strategy::TwoD), &fan(2, 40));
}

#[test]
fn service_matches_direct_md_exact() {
    let ds = generic::uniform(16, 3, 0.9, 72);
    assert_service_matches_direct(build(&ds, Strategy::MdExact), &fan(3, 18));
}

#[test]
fn service_matches_direct_md_approx() {
    let ds = generic::uniform(30, 3, 0.85, 73);
    assert_service_matches_direct(build(&ds, Strategy::MdApprox), &fan(3, 24));
}

/// Every query of a dense 3-D angle grid over the orthant, `side` steps
/// per angle, in row-major order.
fn angle_grid(side: usize) -> Vec<SuggestRequest> {
    let step = |i: usize| (i as f64 + 0.5) / side as f64 * HALF_PI;
    (0..side * side)
        .map(|c| SuggestRequest::new(to_cartesian(1.0, &[step(c / side), step(c % side)])))
        .collect()
}

/// A default-built one-worker service answers every query of a dense
/// angle grid exactly as `respond` does on the same snapshot, served one
/// at a time so each answer could depend on those before it.
fn assert_service_matches_respond_on_grid(strategy: Strategy, seed: u64, side: usize) {
    let ds = generic::uniform(24, 3, 0.95, seed);
    let oracle = Proportionality::new(ds.type_attribute("group").unwrap(), 6).with_max_count(0, 3);
    let ranker = FairRanker::builder(ds, Box::new(oracle))
        .strategy(strategy)
        .approx_options(BuildOptions {
            n_cells: 120,
            ..Default::default()
        })
        .build()
        .unwrap();
    let reference = ranker.snapshot();
    let service = FairRankService::builder(ranker).workers(1).build();
    for req in angle_grid(side) {
        assert_eq!(
            service.suggest(req.clone()).unwrap(),
            reference.respond(&req).unwrap(),
            "{strategy:?} seed {seed}: the service diverged from respond at {req:?}"
        );
    }
    service.shutdown();
}

// A served answer must not depend on the queries served before it. The
// grids and seeds are dense enough that reusing one query's verdict for
// a later query in the same stored arrangement region or grid cell
// (whose linearized borders only approximate the true exchange
// surfaces) changes answers: 4 of the 256 exact-arrangement queries at
// seed 1000, and 6, 1 and 8 of the 3,600 grid queries at seeds 1000,
// 1001 and 1003.

#[test]
fn service_matches_respond_on_dense_grid_md_exact() {
    assert_service_matches_respond_on_grid(Strategy::MdExact, 1000, 16);
}

#[test]
fn service_matches_respond_on_dense_grid_md_approx() {
    for seed in 1000..1006 {
        assert_service_matches_respond_on_grid(Strategy::MdApprox, seed, 60);
    }
}

/// Interleaved updates, deterministic half: after each update the
/// service's answers are bit-identical to a direct ranker at the same
/// version, and pre-update snapshots stay frozen.
#[test]
fn interleaved_updates_match_per_version_references() {
    let ds = generic::uniform(40, 2, 0.9, 81);
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
    let mut references: HashMap<u64, FairRanker> = HashMap::new();
    references.insert(0, service.snapshot());
    for (round, update) in updates.into_iter().enumerate() {
        for req in &reqs {
            let got = service.suggest(req.clone()).unwrap();
            assert_eq!(got.version, round as u64);
            assert!(got.stats.index_decided, "the 2-D index decides {req:?}");
            let want = references[&got.version].respond(req).unwrap();
            assert_eq!(got, want, "diverged at version {} {req:?}", got.version);
        }
        service.update(update).unwrap();
        references.insert(service.version(), service.snapshot());
    }
    // Old references still answer from their frozen generation: the
    // copy-on-write swap never mutated them.
    assert_eq!(references[&0].dataset().len(), 40);
    assert_eq!(references[&0].version(), 0);
    let final_version = service.version();
    for req in &reqs {
        let got = service.suggest(req.clone()).unwrap();
        assert_eq!(got.version, final_version);
        assert_eq!(got, references[&final_version].respond(req).unwrap());
    }
    service.shutdown();
}

/// Interleaved updates, concurrent half: submitters race a live updater;
/// whatever generation served each request, the answer must match the
/// per-version reference exactly — no torn reads, no blocking.
#[test]
fn concurrent_updates_preserve_snapshot_semantics() {
    let ds = generic::uniform(35, 2, 0.9, 83);
    let ranker = build(&ds, Strategy::TwoD);
    let service = FairRankService::builder(ranker)
        .workers(2)
        .max_batch(4)
        .build();
    let rounds = 6u64;
    // Pre-compute nothing: collect per-version references as the updater
    // publishes them (version → frozen snapshot).
    let references = std::sync::Mutex::new(HashMap::from([(0u64, service.snapshot())]));
    let reqs = fan(2, 12);
    std::thread::scope(|scope| {
        let service = &service;
        let references = &references;
        let updater = scope.spawn(move || {
            for i in 0..rounds {
                let outcome = service
                    .update(DatasetUpdate::Insert {
                        scores: vec![0.3 + 0.05 * i as f64, 0.7],
                        groups: vec![(i % 2) as u32],
                    })
                    .unwrap();
                assert_eq!(outcome, UpdateOutcome::Incremental);
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
                for req in reqs.iter().cycle().take(60) {
                    let got = service.suggest(req.clone()).unwrap();
                    // The updater publishes the reference right after the
                    // swap; a request served in that window waits it out.
                    let reference = loop {
                        if let Some(r) = references.lock().unwrap().get(&got.version) {
                            break r.snapshot();
                        }
                        std::thread::yield_now();
                    };
                    assert!(got.stats.index_decided, "the 2-D index decides {req:?}");
                    assert_eq!(got, reference.respond(req).unwrap());
                }
            });
        }
        updater.join().unwrap();
    });
    assert_eq!(service.version(), rounds);
    service.shutdown();
}

/// Shutdown with requests still queued behind a busy worker: every
/// accepted request is answered (correctly) before the pool exits, and
/// promptly.
#[test]
fn shutdown_drains_and_answers_pending_requests() {
    let ds = generic::uniform(30, 2, 0.9, 85);
    let (ranker, slow) = build_slow(&ds);
    let reference = ranker.snapshot();
    let service = FairRankService::builder(ranker)
        .workers(1)
        .max_batch(128)
        .build();
    slow.store(true, Ordering::Relaxed);
    let reqs = audit_fan(20);
    let futures: Vec<_> = reqs
        .iter()
        .map(|r| service.submit(r.clone()).unwrap())
        .collect();
    let start = std::time::Instant::now();
    service.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "drain must answer the queue promptly"
    );
    slow.store(false, Ordering::Relaxed);
    for (req, fut) in reqs.iter().zip(futures) {
        let got = fut.wait().expect("drained request must be answered");
        assert_eq!(got, reference.respond(req).unwrap());
    }
}

/// Overload backpressure is the signal — and accepted requests still
/// answer identically to the direct path.
#[test]
fn overloaded_submissions_shed_accepted_ones_answer() {
    let ds = generic::uniform(30, 2, 0.9, 87);
    let (ranker, slow) = build_slow(&ds);
    let reference = ranker.snapshot();
    let service = FairRankService::builder(ranker)
        .workers(1)
        .max_batch(256)
        .queue_capacity(3)
        .build();
    slow.store(true, Ordering::Relaxed);
    let reqs = audit_fan(40);
    let mut accepted = Vec::new();
    let mut shed = 0usize;
    for req in &reqs {
        match service.try_suggest(req.clone()) {
            Ok(fut) => accepted.push((req.clone(), fut)),
            Err(ServiceError::Overloaded { capacity: 3, .. }) => shed += 1,
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert!(
        shed > 0,
        "capacity-3 queue must shed some of 40 submissions"
    );
    assert_eq!(service.stats().rejected, shed as u64);
    slow.store(false, Ordering::Relaxed);
    for (req, fut) in accepted {
        assert_eq!(fut.wait().unwrap(), reference.respond(&req).unwrap());
    }
    service.shutdown();
}

/// The micro-batcher never waits for company, yet batches still form
/// under backlog: requests submitted while a single worker is busy in a
/// slow oracle are drained together on its next pickup — and answer
/// bit-identically to the direct batch path.
#[test]
fn requests_queued_behind_a_busy_worker_drain_together() {
    let ds = generic::uniform(30, 2, 0.9, 89);
    let (ranker, slow) = build_slow(&ds);
    let reqs = audit_fan(12);
    let direct = ranker.snapshot().respond_batch(&reqs).unwrap();
    let service = FairRankService::builder(ranker).workers(1).build();
    slow.store(true, Ordering::Relaxed);
    let futures: Vec<_> = reqs
        .iter()
        .map(|r| service.submit(r.clone()).unwrap())
        .collect();
    for ((req, fut), want) in reqs.iter().zip(futures).zip(&direct) {
        assert_eq!(&fut.wait().unwrap(), want, "diverged at {req:?}");
    }
    let stats = service.stats();
    assert_eq!(stats.submitted, reqs.len() as u64);
    assert!(
        stats.batches < stats.submitted,
        "{} batches for {} requests: queued requests must share a drain",
        stats.batches,
        stats.submitted
    );
    service.shutdown();
}

/// Regression (PR 5 bugfix): `BackendStats` update/rebuild counters are
/// snapshotted in one consistent pass. With the exact-regions backend
/// every update commits `updates += 1` and `rebuilds += 1` *atomically
/// together*, so a stats reader racing the
/// writer through the service's worker pool must never observe a pair
/// where the two counters disagree — the exact interleaving the old
/// two-plain-fields implementation allowed.
#[test]
fn backend_stats_snapshots_are_consistent_under_concurrent_serving() {
    let ds = generic::uniform(14, 3, 0.9, 91);
    let ranker = build(&ds, Strategy::MdExact);
    let service = FairRankService::builder(ranker)
        .workers(2)
        .max_batch(4)
        .build();
    let reqs = fan(3, 8);
    let rounds = 8u64;
    std::thread::scope(|scope| {
        let service = &service;
        let updater = scope.spawn(move || {
            for i in 0..rounds {
                service
                    .update(DatasetUpdate::Rescore {
                        item: (i % 10) as u32,
                        scores: vec![0.2 + 0.07 * i as f64, 0.6, 0.5],
                    })
                    .unwrap();
            }
        });
        // Stats pollers race the updater; every snapshot must be a
        // committed (updates == rebuilds) pair, monotonically advancing.
        for _ in 0..2 {
            scope.spawn(move || {
                let mut last = (0u64, 0u64);
                while !updater_done(service, rounds) {
                    let stats = service.backend_stats();
                    assert_eq!(
                        stats.updates, stats.rebuilds,
                        "torn counter snapshot: every exact-backend update \
                         rebuilds, so the pair must always agree"
                    );
                    assert!(
                        (stats.updates, stats.rebuilds) >= last,
                        "counters went backwards"
                    );
                    last = (stats.updates, stats.rebuilds);
                }
            });
        }
        // Keep the worker pool busy while the counters churn.
        for req in reqs.iter().cycle().take(40) {
            let _ = service.suggest(req.clone()).unwrap();
        }
        updater.join().unwrap();
    });
    let final_stats = service.backend_stats();
    assert_eq!(final_stats.updates, rounds);
    assert_eq!(final_stats.rebuilds, rounds);
    service.shutdown();
}

fn updater_done(service: &FairRankService, rounds: u64) -> bool {
    service.backend_stats().updates >= rounds
}

thread_local! {
    /// Set on a thread while it applies an update: the writer's index
    /// maintenance may consult the oracle, and that is not serving.
    static WRITER: Cell<bool> = const { Cell::new(false) };
}

/// Counts concurrent oracle calls made while serving, and their peak.
#[derive(Default)]
struct OverlapProbe {
    counting: AtomicBool,
    active: AtomicUsize,
    peak: AtomicUsize,
}

/// A 2-D ranker whose oracle (`build`'s) reports to the returned probe
/// while it is counting, and then holds each call for `hold` so that
/// batches running at once overlap inside the oracle.
fn build_probed(ds: &Dataset, hold: Duration) -> (FairRanker, Arc<OverlapProbe>) {
    let fair = oracle_for(ds, 0.25, 0.6);
    let probe = Arc::new(OverlapProbe::default());
    let seen = Arc::clone(&probe);
    let oracle = FnOracle::new("overlap-probe", move |ranking: &[u32]| {
        let count = seen.counting.load(Ordering::SeqCst) && !WRITER.with(Cell::get);
        if count {
            let now = seen.active.fetch_add(1, Ordering::SeqCst) + 1;
            seen.peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(hold);
        }
        let verdict = fair.is_satisfactory(ranking);
        if count {
            seen.active.fetch_sub(1, Ordering::SeqCst);
        }
        verdict
    });
    (build_with(ds, Strategy::TwoD, Box::new(oracle)), probe)
}

/// Every entry point at once: threads calling `suggest`,
/// `suggest_timeout`, `submit` + `block_on`, `submit` + `wait` and
/// `try_suggest` + `wait`, with live updates in between. Blocked callers
/// serve batches themselves, yet no more than `workers` batches ever run
/// at once; every answer equals `respond` on the snapshot of its version,
/// and the counters balance at the end.
#[test]
fn caller_run_and_pool_run_batches_stay_within_workers() {
    const WORKERS: usize = 2;
    const PER_THREAD: usize = 24;
    let ds = generic::uniform(40, 2, 0.9, 101);
    let (ranker, probe) = build_probed(&ds, Duration::from_micros(300));
    let service = FairRankService::builder(ranker)
        .workers(WORKERS)
        .max_batch(4)
        .build();
    let references = Mutex::new(HashMap::from([(0u64, service.snapshot())]));
    let reqs = audit_fan(18);
    probe.counting.store(true, Ordering::SeqCst);
    let answers: Vec<(SuggestRequest, fairrank::Suggestion)> = std::thread::scope(|scope| {
        let service = &service;
        let references = &references;
        let updater = scope.spawn(move || {
            WRITER.with(|w| w.set(true));
            // Rescores only: the probe's oracle reads the launch dataset's
            // groups, so the item set must not change.
            for i in 0..4u32 {
                std::thread::sleep(Duration::from_millis(3));
                service
                    .update(DatasetUpdate::Rescore {
                        item: 3 * i,
                        scores: vec![0.35 + 0.1 * f64::from(i), 0.65],
                    })
                    .unwrap();
                references
                    .lock()
                    .unwrap()
                    .insert(service.version(), service.snapshot());
            }
        });
        let callers: Vec<_> = (0..10usize)
            .map(|t| {
                let reqs = &reqs;
                scope.spawn(move || {
                    let mut got = Vec::with_capacity(PER_THREAD);
                    for req in reqs.iter().cycle().skip(t).take(PER_THREAD) {
                        let answer = match t % 5 {
                            0 => service.suggest(req.clone()),
                            1 => service.suggest_timeout(req.clone(), Duration::from_secs(5)),
                            2 => runtime::block_on(service.submit(req.clone()).unwrap()),
                            3 => service.submit(req.clone()).unwrap().wait(),
                            _ => loop {
                                match service.try_suggest(req.clone()) {
                                    Ok(fut) => break fut.wait(),
                                    Err(ServiceError::Overloaded { .. }) => {
                                        std::thread::yield_now()
                                    }
                                    Err(other) => panic!("unexpected error {other:?}"),
                                }
                            },
                        };
                        got.push((req.clone(), answer.unwrap()));
                    }
                    got
                })
            })
            .collect();
        updater.join().unwrap();
        callers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });
    probe.counting.store(false, Ordering::SeqCst);
    let peak = probe.peak.load(Ordering::SeqCst);
    assert!(
        (1..=WORKERS).contains(&peak),
        "{peak} oracle calls ran at once on a {WORKERS}-worker service"
    );
    let references = references.into_inner().unwrap();
    for (req, got) in &answers {
        let want = references[&got.version].respond(req).unwrap();
        assert_eq!(got, &want, "diverged at version {} {req:?}", got.version);
    }
    let stats = service.stats();
    assert_eq!(answers.len(), 10 * PER_THREAD);
    assert_eq!(stats.submitted, answers.len() as u64);
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.queued, 0);
    service.shutdown();
}

/// With one worker and its only slot held by a slow `submit` burst, a
/// blocking `suggest` must wait for the slot instead of running a second
/// batch beside it — and still answer bit-identically.
#[test]
fn blocked_caller_waits_for_a_free_slot() {
    let ds = generic::uniform(30, 2, 0.9, 103);
    let (ranker, probe) = build_probed(&ds, Duration::from_millis(100));
    let reference = ranker.snapshot();
    let service = FairRankService::builder(ranker)
        .workers(1)
        .max_batch(1)
        .build();
    probe.counting.store(true, Ordering::SeqCst);
    let burst = [
        audit(SuggestRequest::new(vec![1.0, 0.1])),
        audit(SuggestRequest::new(vec![0.4, 1.0])),
    ];
    let futures: Vec<_> = burst
        .iter()
        .map(|r| service.submit(r.clone()).unwrap())
        .collect();
    // The pool worker is inside the oracle, holding the only slot for
    // the next 100 ms; a second batch would raise the peak to 2.
    let start = Instant::now();
    while probe.active.load(Ordering::SeqCst) == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "burst never started"
        );
        std::thread::yield_now();
    }
    let probe_req = audit(SuggestRequest::new(vec![1.0, 0.35]));
    let got = service.suggest(probe_req.clone()).unwrap();
    let answers: Vec<_> = futures.into_iter().map(|f| f.wait().unwrap()).collect();
    // Stop counting before the reference answers ask the oracle.
    probe.counting.store(false, Ordering::SeqCst);
    for (req, answer) in burst.iter().zip(answers) {
        assert_eq!(answer, reference.respond(req).unwrap());
    }
    assert_eq!(got, reference.respond(&probe_req).unwrap());
    assert_eq!(
        probe.peak.load(Ordering::SeqCst),
        1,
        "a second batch ran beside the one holding the only slot"
    );
    let stats = service.stats();
    let total = burst.len() as u64 + 1;
    assert_eq!(stats.completed, total);
    assert_eq!(stats.batches, total, "max_batch 1: one batch per request");
    service.shutdown();
}

/// A caller that frees its slot while another caller sleeps on a request
/// still queued must wake the pool for it. With one slot, held by a
/// `suggest` serving its own batch, a second `suggest` finds the slot
/// taken and sleeps; its request is answered once the slot frees.
#[test]
fn a_freed_slot_wakes_the_pool_for_queued_requests() {
    let ds = generic::uniform(30, 2, 0.9, 107);
    let (ranker, probe) = build_probed(&ds, Duration::from_millis(100));
    let reference = ranker.snapshot();
    let service = Arc::new(FairRankService::builder(ranker).workers(1).build());
    probe.counting.store(true, Ordering::SeqCst);
    let reqs = [
        audit(SuggestRequest::new(vec![1.0, 0.1])),
        audit(SuggestRequest::new(vec![0.4, 1.0])),
    ];
    let (tx, rx) = mpsc::channel();
    for (i, req) in reqs.iter().enumerate() {
        let (service, req, tx) = (Arc::clone(&service), req.clone(), tx.clone());
        std::thread::spawn(move || {
            let _ = tx.send((i, service.suggest(req)));
        });
        // The first caller is inside the oracle, holding the only slot.
        let start = Instant::now();
        while probe.active.load(Ordering::SeqCst) == 0 {
            assert!(start.elapsed() < Duration::from_secs(10), "never served");
            std::thread::yield_now();
        }
    }
    let answers: Vec<_> = reqs
        .iter()
        .map(|_| {
            rx.recv_timeout(Duration::from_secs(10))
                .expect("a queued request was left unserved")
        })
        .collect();
    // Stop counting before the reference answers ask the oracle.
    probe.counting.store(false, Ordering::SeqCst);
    assert_eq!(probe.peak.load(Ordering::SeqCst), 1);
    for (i, got) in answers {
        assert_eq!(got.unwrap(), reference.respond(&reqs[i]).unwrap());
    }
}

/// Regression: a panicking oracle used to kill the only pool worker; its
/// caller got a misleading `Closed` and every later request hung. Now the
/// panic fails only its own batch, with `Panicked`, whichever executor
/// ran it (a pool worker for `submit`, the blocked caller for
/// `suggest`), and the next request answers bit-identically.
#[test]
fn oracle_panic_fails_its_batch_and_serving_continues() {
    let ds = generic::uniform(30, 2, 0.9, 105);
    let fair = oracle_for(&ds, 0.25, 0.6);
    let armed = Arc::new(AtomicBool::new(false));
    let trigger = Arc::clone(&armed);
    let oracle = FnOracle::new("panicking", move |ranking: &[u32]| {
        assert!(!trigger.load(Ordering::SeqCst), "oracle exploded");
        fair.is_satisfactory(ranking)
    });
    let ranker = build_with(&ds, Strategy::TwoD, Box::new(oracle));
    let reference = ranker.snapshot();
    let service = Arc::new(FairRankService::builder(ranker).workers(1).build());
    let reqs = audit_fan(4);

    // Each step runs on its own thread under a deadline: a wedged
    // service must fail the test, not hang it.
    let within = |f: Box<dyn FnOnce() -> Result<fairrank::Suggestion, ServiceError> + Send>| {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("service stopped answering")
    };
    let pool_run = |req: &SuggestRequest| {
        let (service, req) = (Arc::clone(&service), req.clone());
        within(Box::new(move || {
            runtime::block_on(service.submit(req).unwrap())
        }))
    };
    let caller_run = |req: &SuggestRequest| {
        let (service, req) = (Arc::clone(&service), req.clone());
        within(Box::new(move || service.suggest(req)))
    };

    armed.store(true, Ordering::SeqCst);
    for got in [pool_run(&reqs[0]), caller_run(&reqs[1])] {
        match got {
            Err(ServiceError::Panicked(message)) => {
                assert!(message.contains("oracle exploded"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }
    armed.store(false, Ordering::SeqCst);
    for (req, got) in [
        (&reqs[2], pool_run(&reqs[2])),
        (&reqs[3], caller_run(&reqs[3])),
    ] {
        assert_eq!(got.unwrap(), reference.respond(req).unwrap());
    }
    let stats = service.stats();
    assert_eq!(stats.submitted, 4);
    assert_eq!(
        stats.completed, 2,
        "failed requests do not count as answered"
    );
    assert_eq!(stats.in_flight, 0);
}

/// Caller threads that serve batches keep no ranking scratch afterwards:
/// each slot lends its own scratch to whoever serves its batch, so a
/// service holds at most `workers` score and key buffers however many
/// threads call it.
#[test]
fn serving_callers_keep_no_ranking_scratch() {
    let ds = generic::uniform(400, 2, 0.9, 111);
    let service = FairRankService::builder(build(&ds, Strategy::TwoD))
        .workers(2)
        .build();
    let reqs = audit_fan(8);
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let (service, reqs) = (&service, &reqs);
            scope.spawn(move || {
                for req in reqs {
                    service.suggest(req.clone()).unwrap();
                }
                let mut own = RankScratch::default();
                own.swap_with_thread();
                assert_eq!(own.bytes(), 0, "a serving caller kept ranking scratch");
            });
        }
    });
    assert_eq!(service.stats().completed, 6 * reqs.len() as u64);
    service.shutdown();
}

thread_local! {
    /// Set on a test thread whose caller-run batch must hold its slot in
    /// the oracle until the test lets it go.
    static HOLD_SLOT: Cell<bool> = const { Cell::new(false) };
    /// Set once this thread's held batch has entered the oracle.
    static HELD: Cell<bool> = const { Cell::new(false) };
}

/// Regression: shutdown hung when blocked callers held every slot at
/// close. The pool workers, woken by the close, found no free slot and
/// went back to sleep; the first slot release woke one of them for the
/// last queued request, and later releases, finding the queue empty,
/// woke no one, so the other worker never saw the end and `Drop` waited
/// on it forever. Here two callers in `wait` hold both slots of a
/// `workers(2)` service, one more request is queued, the service is
/// dropped, and the callers are let go one at a time.
#[test]
fn shutdown_completes_while_blocked_callers_hold_every_slot() {
    let ds = generic::uniform(30, 2, 0.9, 109);
    let fair = oracle_for(&ds, 0.25, 0.6);
    let permits = Arc::new((Mutex::new(0usize), Condvar::new()));
    let held = Arc::new(AtomicUsize::new(0));
    let (gate, entered) = (Arc::clone(&permits), Arc::clone(&held));
    let oracle = FnOracle::new("gated", move |ranking: &[u32]| {
        if HOLD_SLOT.with(Cell::get) && !HELD.with(Cell::get) {
            HELD.with(|h| h.set(true));
            entered.fetch_add(1, Ordering::SeqCst);
            let (count, cv) = &*gate;
            let mut count = count.lock().unwrap();
            while *count == 0 {
                count = cv.wait(count).unwrap();
            }
            *count -= 1;
        }
        fair.is_satisfactory(ranking)
    });
    let ranker = build_with(&ds, Strategy::TwoD, Box::new(oracle));
    let reference = ranker.snapshot();
    let service = FairRankService::builder(ranker)
        .workers(2)
        .max_batch(1)
        .build();
    let service = Arc::new(Mutex::new(Some(service)));
    let reqs = audit_fan(3);
    let finished = Arc::new(AtomicUsize::new(0));
    let await_count = |counter: &AtomicUsize, target: usize, what: &str| {
        let start = Instant::now();
        while counter.load(Ordering::SeqCst) < target {
            assert!(start.elapsed() < Duration::from_secs(10), "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    let callers: Vec<_> = reqs[..2]
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let (service, req, finished) =
                (Arc::clone(&service), req.clone(), Arc::clone(&finished));
            let caller = std::thread::spawn(move || {
                HOLD_SLOT.with(|h| h.set(true));
                // `submit` wakes a pool worker, which may answer first;
                // retry until this thread serves its own request.
                let start = Instant::now();
                let got = loop {
                    let fut = service
                        .lock()
                        .unwrap()
                        .as_ref()
                        .unwrap()
                        .submit(req.clone())
                        .unwrap();
                    let got = fut.wait();
                    if HELD.with(Cell::get) {
                        break got;
                    }
                    assert!(start.elapsed() < Duration::from_secs(10), "never served");
                };
                finished.fetch_add(1, Ordering::SeqCst);
                got
            });
            await_count(&held, i + 1, "caller never took a slot");
            caller
        })
        .collect();

    // Both slots are held by callers: this request waits in the queue.
    let last = service
        .lock()
        .unwrap()
        .as_ref()
        .unwrap()
        .submit(reqs[2].clone())
        .unwrap();
    let service = service.lock().unwrap().take().unwrap();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        drop(service);
        let _ = done_tx.send(());
    });
    // Let the drop close the queue while both slots are still held.
    std::thread::sleep(Duration::from_millis(50));
    for released in 1..=2 {
        let (count, cv) = &*permits;
        *count.lock().unwrap() += 1;
        cv.notify_all();
        await_count(&finished, released, "a released caller never finished");
        // Let a pool worker drain the queued request in between.
        std::thread::sleep(Duration::from_millis(50));
    }
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown hung with a pool worker asleep");
    for (req, caller) in reqs.iter().zip(callers) {
        assert_eq!(
            caller.join().unwrap().unwrap(),
            reference.respond(req).unwrap()
        );
    }
    assert_eq!(last.wait().unwrap(), reference.respond(&reqs[2]).unwrap());
}
