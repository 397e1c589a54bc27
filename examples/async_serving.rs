//! Async serving: the [`FairRankService`] micro-batched request
//! pipeline end to end.
//!
//! The synchronous API wants the caller to pre-assemble query batches;
//! a deployed two-sided platform sees *individual* requests arriving
//! concurrently — and item updates landing while queries are in flight.
//! This walkthrough shows:
//!
//! * building a service over an existing [`FairRanker`] with
//!   [`FairRankService::builder`] (worker count, micro-batch size cap,
//!   queue capacity),
//! * concurrent submitters awaiting [`SuggestionFuture`]s (via the
//!   crate's hand-rolled `block_on` — any executor works),
//! * handling backpressure: `try_suggest` fails fast with
//!   [`ServiceError::Overloaded`] when the bounded queue is full,
//! * updating the dataset *while serving*: in-flight batches keep their
//!   copy-on-write snapshot; every answer carries the dataset version it
//!   was computed from,
//! * graceful shutdown draining queued requests.
//!
//! ```text
//! cargo run --example async_serving
//! ```

use fairrank::{DatasetUpdate, FairRanker, KnownFairness, Strategy, SuggestRequest, Suggestion};
use fairrank_datasets::synthetic::generic;
use fairrank_fairness::Proportionality;
use fairrank_serve::{runtime, FairRankService, ServiceError};

fn describe(sug: &Suggestion) -> String {
    match &sug.fairness {
        KnownFairness::AlreadyFair => format!("v{}: already fair", sug.version),
        KnownFairness::Suggested { distance } => format!(
            "v{}: try w = [{:.3}, {:.3}] ({distance:.4} rad away)",
            sug.version, sug.weights[0], sug.weights[1]
        ),
        KnownFairness::Infeasible => format!("v{}: no fair linear ranking", sug.version),
    }
}

fn main() {
    // A population where group 0 crowds the top of attribute-0 rankings.
    let ds = generic::uniform(120, 2, 0.9, 42);
    let oracle =
        Proportionality::new(ds.type_attribute("group").unwrap(), 24).with_max_count(0, 12);
    let ranker = FairRanker::builder(ds, Box::new(oracle))
        .strategy(Strategy::TwoD)
        .build()
        .expect("2-D build");

    // --- service build ---------------------------------------------------
    // At most 2 batches run at once, on the 2 pool workers or on callers
    // blocked in `suggest`/`wait`; whoever serves takes what is queued,
    // up to 16 requests, without waiting for more. The queue holds at
    // most 256 submissions.
    let service = FairRankService::builder(ranker)
        .workers(2)
        .max_batch(16)
        .queue_capacity(256)
        .build();

    // --- concurrent submitters ------------------------------------------
    // Four "users" submit independently; requests that queue while both
    // batch slots are busy share the next micro-batch.
    std::thread::scope(|scope| {
        for user in 0..4 {
            let service = &service;
            scope.spawn(move || {
                for i in 0..3 {
                    let t = (user as f64 * 3.0 + i as f64 + 0.5) / 12.0;
                    let req = SuggestRequest::new(vec![1.0, 0.05 + 0.4 * t]).with_top_k(3);
                    let future = service.submit(req).expect("accepted");
                    // `SuggestionFuture` is a plain `Future`: await it on
                    // any executor; `runtime::block_on` is the built-in.
                    let answer = runtime::block_on(future).expect("served");
                    println!("user {user} request {i}: {}", describe(&answer));
                }
            });
        }
    });

    // --- backpressure -----------------------------------------------------
    // `try_suggest` never blocks: when the bounded queue is full it
    // returns `Overloaded` and the caller sheds load or retries.
    match service.try_suggest(SuggestRequest::new(vec![1.0, 0.1])) {
        Ok(future) => {
            let answer = future.wait().expect("served");
            println!("fast-path submission: {}", describe(&answer));
        }
        Err(ServiceError::Overloaded { capacity, depth }) => {
            println!("overloaded at capacity {capacity} ({depth} outstanding) — shedding load");
        }
        Err(other) => panic!("unexpected: {other}"),
    }

    // --- update while serving --------------------------------------------
    // The serialized writer path forks the ranker copy-on-write and swaps
    // generations: queries served before the swap carry version 0,
    // queries after it carry version 1 — nobody blocks, nobody tears.
    let probe = SuggestRequest::new(vec![1.0, 0.15]);
    let before = service.suggest(probe.clone()).expect("served");
    let outcome = service
        .update(DatasetUpdate::Insert {
            scores: vec![0.95, 0.25],
            groups: vec![0],
        })
        .expect("valid update");
    let after = service.suggest(probe).expect("served");
    println!("update outcome: {outcome:?}");
    println!("  before: {}", describe(&before));
    println!("  after:  {}", describe(&after));
    assert_eq!(before.version, 0);
    assert_eq!(after.version, 1);

    let stats = service.stats();
    println!(
        "served {} requests in {} micro-batches across {} workers ({} shed)",
        stats.completed, stats.batches, stats.workers, stats.rejected
    );

    // --- graceful shutdown ------------------------------------------------
    // Queue a few more requests, then shut down: the pool drains and
    // answers everything already accepted before exiting.
    let parting: Vec<_> = (0..5)
        .map(|i| {
            let req = SuggestRequest::new(vec![1.0, 0.1 + 0.1 * f64::from(i)]);
            (i, service.submit(req).expect("accepted"))
        })
        .collect();
    service.shutdown();
    for (i, future) in parting {
        let answer = future.wait().expect("drained at shutdown");
        println!("parting request {i}: {}", describe(&answer));
    }
    println!("service shut down cleanly");
}
