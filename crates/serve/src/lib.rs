//! # fairrank-serve
//!
//! The **async-first serving tier** for [`fairrank`]: where the core
//! crate answers pre-assembled batches synchronously, this crate serves
//! the workload shape real two-sided platforms produce — individual
//! queries arriving continuously, concurrently with item updates.
//!
//! ```
//! use fairrank::{FairRanker, SuggestRequest};
//! use fairrank_datasets::synthetic::generic;
//! use fairrank_fairness::Proportionality;
//! use fairrank_serve::{runtime, FairRankService};
//!
//! let ds = generic::uniform(60, 2, 0.9, 42);
//! let oracle = Proportionality::new(ds.type_attribute("group").unwrap(), 10)
//!     .with_max_count(0, 5);
//! let ranker = FairRanker::builder(ds, Box::new(oracle)).build().unwrap();
//!
//! let service = FairRankService::builder(ranker).workers(2).build();
//! // Submit returns a future; await it from any executor (the crate's
//! // hand-rolled `block_on` works, and so does `.wait()`).
//! let future = service.submit(SuggestRequest::new([1.0, 0.1])).unwrap();
//! let answer = runtime::block_on(future).unwrap();
//! assert_eq!(answer.version, 0);
//! service.shutdown();
//! ```
//!
//! Internally requests wait in a bounded FIFO submission queue. A
//! thread that blocks on its own answer ([`SuggestionFuture::wait`],
//! [`FairRankService::suggest`], [`FairRankService::suggest_timeout`])
//! serves the queue itself while one of the `workers` batch slots is
//! free; a worker pool serves the rest. Either way the executor takes
//! what is queued, up to `max_batch`, without waiting for more, runs
//! the micro-batch through [`FairRanker::respond_batch`] on a
//! point-in-time [`FairRanker::snapshot`], and completes per-request
//! one-shot futures. At most `workers` batches run at once, and a panic
//! inside one fails only its callers ([`ServiceError::Panicked`]).
//! The service adds no answer path of its own, so its answers are the
//! direct `respond_batch` answers on the same snapshot.
//! [`FairRankService::try_suggest`] surfaces backpressure as
//! [`ServiceError::Overloaded`]; [`FairRankService::update`] serializes
//! writers and swaps generations copy-on-write so readers never block
//! behind index maintenance. The whole pipeline is dependency-free: the
//! tiny executor machinery lives in [`runtime`].
//!
//! [`FairRanker::respond_batch`]: fairrank::FairRanker::respond_batch
//! [`FairRanker::snapshot`]: fairrank::FairRanker::snapshot

mod error;
pub mod runtime;
mod service;

pub use error::ServiceError;
pub use service::{FairRankService, ServiceBuilder, ServiceStats, SuggestionFuture};

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use fairrank::{
        DatasetUpdate, FairRanker, KnownFairness, Strategy, SuggestOptions, SuggestRequest,
    };
    use fairrank_datasets::synthetic::generic;
    use fairrank_datasets::Dataset;
    use fairrank_fairness::{FairnessOracle, FnOracle, Proportionality};
    use fairrank_geometry::HALF_PI;

    use crate::runtime::block_on;
    use crate::{FairRankService, ServiceError};

    fn ranker_2d(n: usize, seed: u64) -> (FairRanker, Dataset) {
        let ds = generic::uniform(n, 2, 0.9, seed);
        let attr = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(attr, 10).with_max_count(0, 5);
        let ranker = FairRanker::builder(ds.clone(), Box::new(oracle))
            .strategy(Strategy::TwoD)
            .build()
            .unwrap();
        (ranker, ds)
    }

    /// A 2-D ranker whose oracle sleeps 20 ms per call once the returned
    /// switch is set: the index builds at full speed, then a single
    /// worker stays busy long enough for submissions to pile up.
    fn slow_ranker_2d(n: usize, seed: u64) -> (FairRanker, Arc<AtomicBool>) {
        let ds = generic::uniform(n, 2, 0.9, seed);
        let attr = ds.type_attribute("group").unwrap();
        let fair = Proportionality::new(attr, 10).with_max_count(0, 5);
        let slow = Arc::new(AtomicBool::new(false));
        let switch = Arc::clone(&slow);
        let oracle = FnOracle::new("slow-proportionality", move |ranking: &[u32]| {
            if switch.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
            }
            fair.is_satisfactory(ranking)
        });
        let ranker = FairRanker::builder(ds, Box::new(oracle))
            .strategy(Strategy::TwoD)
            .build()
            .unwrap();
        (ranker, slow)
    }

    fn fan(count: usize) -> Vec<SuggestRequest> {
        (0..count)
            .map(|i| {
                let t = (i as f64 + 0.5) / count as f64 * HALF_PI;
                SuggestRequest::new(vec![1.5 * t.cos(), 1.5 * t.sin()])
            })
            .collect()
    }

    /// [`fan`] on the audit path (`index_fastpath = false`), so a slow
    /// oracle is on every request's path: the 2-D index decides default
    /// requests without asking it.
    fn audit_fan(count: usize) -> Vec<SuggestRequest> {
        fan(count)
            .into_iter()
            .map(|r| r.with_options(SuggestOptions::default().index_fastpath(false)))
            .collect()
    }

    #[test]
    fn serves_concurrent_submitters() {
        let (ranker, _) = ranker_2d(40, 7);
        let reference = ranker.snapshot();
        let service = FairRankService::builder(ranker)
            .workers(2)
            .max_batch(8)
            .build();
        let reqs = fan(48);
        std::thread::scope(|scope| {
            for chunk in reqs.chunks(12) {
                let service = &service;
                let reference = &reference;
                scope.spawn(move || {
                    for req in chunk {
                        let got = service.suggest(req.clone()).unwrap();
                        assert_eq!(got, reference.respond(req).unwrap());
                    }
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.submitted, 48);
        assert_eq!(stats.completed, 48);
        assert!(stats.batches >= 1);
        service.shutdown();
    }

    #[test]
    fn futures_are_awaitable() {
        let (ranker, _) = ranker_2d(30, 9);
        let reference = ranker.snapshot();
        let service = FairRankService::builder(ranker).workers(1).build();
        let reqs = fan(10);
        let futures: Vec<_> = reqs
            .iter()
            .map(|r| service.submit(r.clone()).unwrap())
            .collect();
        for (req, fut) in reqs.iter().zip(futures) {
            assert_eq!(block_on(fut).unwrap(), reference.respond(req).unwrap());
        }
        service.shutdown();
    }

    #[test]
    fn try_suggest_overload_backpressure() {
        let (ranker, slow) = slow_ranker_2d(30, 11);
        // One worker, slow oracle, tiny queue: submissions pile up.
        let service = FairRankService::builder(ranker)
            .workers(1)
            .max_batch(64)
            .queue_capacity(4)
            .build();
        slow.store(true, Ordering::Relaxed);
        let reqs = audit_fan(64);
        let mut accepted = Vec::new();
        let mut overloaded = 0usize;
        for req in &reqs {
            match service.try_suggest(req.clone()) {
                Ok(fut) => accepted.push(fut),
                Err(ServiceError::Overloaded { capacity, depth }) => {
                    assert_eq!(capacity, 4);
                    assert!(depth >= capacity, "depth {depth} below capacity {capacity}");
                    overloaded += 1;
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        assert!(overloaded > 0, "tiny queue must shed load");
        assert_eq!(service.stats().rejected, overloaded as u64);
        slow.store(false, Ordering::Relaxed);
        for fut in accepted {
            fut.wait().unwrap();
        }
        service.shutdown();
    }

    #[test]
    fn invalid_requests_fail_their_caller_only() {
        let (ranker, _) = ranker_2d(30, 13);
        let reference = ranker.snapshot();
        let service = FairRankService::builder(ranker).workers(1).build();
        assert!(matches!(
            service.submit(SuggestRequest::new(vec![-1.0, 0.5])),
            Err(ServiceError::Rank(_))
        ));
        assert!(matches!(
            service.submit(SuggestRequest::new(vec![1.0])),
            Err(ServiceError::Rank(_))
        ));
        // A valid request right after still serves normally.
        let req = SuggestRequest::new(vec![1.0, 0.1]);
        assert_eq!(
            service.suggest(req.clone()).unwrap(),
            reference.respond(&req).unwrap()
        );
        service.shutdown();
    }

    #[test]
    fn update_while_serving_advances_version() {
        let (ranker, _) = ranker_2d(40, 17);
        let service = FairRankService::builder(ranker).workers(2).build();
        assert_eq!(service.version(), 0);
        let outcome = service
            .update(DatasetUpdate::Insert {
                scores: vec![0.6, 0.6],
                groups: vec![0],
            })
            .unwrap();
        // The maintained 2-D backend forks and maintains incrementally.
        assert_eq!(outcome, fairrank::UpdateOutcome::Incremental);
        assert_eq!(service.version(), 1);
        let answer = service
            .suggest(SuggestRequest::new(vec![1.0, 0.2]))
            .unwrap();
        assert_eq!(answer.version, 1, "answers reflect the new generation");
        // The post-update service answers like a direct post-update ranker.
        let direct = service.snapshot();
        let req = SuggestRequest::new(vec![1.0, 0.05]);
        assert_eq!(
            service.suggest(req.clone()).unwrap(),
            direct.respond(&req).unwrap()
        );
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_requests() {
        let (ranker, slow) = slow_ranker_2d(30, 19);
        let reference = ranker.snapshot();
        // Slow oracle: the requests queue behind the busy worker, and
        // shutdown must answer every one of them before it returns.
        let service = FairRankService::builder(ranker)
            .workers(1)
            .max_batch(64)
            .build();
        slow.store(true, Ordering::Relaxed);
        let reqs = audit_fan(12);
        let futures: Vec<_> = reqs
            .iter()
            .map(|r| service.submit(r.clone()).unwrap())
            .collect();
        let start = std::time::Instant::now();
        service.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown must drain the queue promptly"
        );
        slow.store(false, Ordering::Relaxed);
        for (req, fut) in reqs.iter().zip(futures) {
            assert_eq!(fut.wait().unwrap(), reference.respond(req).unwrap());
        }
    }

    #[test]
    fn submissions_after_close_are_rejected() {
        let (ranker, _) = ranker_2d(20, 23);
        let reference = ranker.snapshot();
        let service = FairRankService::builder(ranker).workers(1).build();
        let probe = SuggestRequest::new(vec![1.0, 0.3]);
        // Queue one request, then close: the queued answer still
        // arrives, but every later submission path reports Closed.
        let queued = service.submit(probe.clone()).unwrap();
        service.close();
        assert!(matches!(
            service.try_suggest(probe.clone()),
            Err(ServiceError::Closed)
        ));
        assert!(matches!(
            service.submit(probe.clone()),
            Err(ServiceError::Closed)
        ));
        assert!(matches!(
            service.suggest(probe.clone()),
            Err(ServiceError::Closed)
        ));
        assert_eq!(queued.wait().unwrap(), reference.respond(&probe).unwrap());
        service.shutdown();
    }

    #[test]
    fn already_fair_and_infeasible_pass_through() {
        let ds = generic::uniform(25, 2, 0.0, 29);
        let always = fairrank_fairness::FnOracle::new("always", |_: &[u32]| true);
        let ranker = FairRanker::builder(ds.clone(), Box::new(always))
            .strategy(Strategy::TwoD)
            .build()
            .unwrap();
        let service = FairRankService::builder(ranker).workers(1).build();
        let ans = service
            .suggest(SuggestRequest::new(vec![1.0, 1.0]))
            .unwrap();
        assert_eq!(ans.fairness, KnownFairness::AlreadyFair);
        service.shutdown();

        let never = fairrank_fairness::FnOracle::new("never", |_: &[u32]| false);
        let ranker = FairRanker::builder(ds, Box::new(never))
            .strategy(Strategy::TwoD)
            .build()
            .unwrap();
        let service = FairRankService::builder(ranker).workers(1).build();
        let ans = service
            .suggest(SuggestRequest::new(vec![1.0, 1.0]))
            .unwrap();
        assert!(ans.is_infeasible());
        service.shutdown();
    }

    #[test]
    fn top_k_requests_served_through_the_queue() {
        let (ranker, ds) = ranker_2d(35, 31);
        let service = FairRankService::builder(ranker).workers(1).build();
        let ans = service
            .suggest(SuggestRequest::new(vec![1.0, 0.02]).with_top_k(5))
            .unwrap();
        let top = ans.stats.top_k.as_deref().unwrap();
        assert_eq!(top, &ds.rank(&ans.weights)[..5]);
        service.shutdown();
    }
}
