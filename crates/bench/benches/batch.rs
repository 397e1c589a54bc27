//! Batched oracle evaluation and rank-workspace reuse: the workspace /
//! batch paths against their per-probe counterparts.
//!
//! Three comparisons, each pairing an amortized path with the serial
//! baseline it must beat:
//!
//! * `rank_alloc` vs `rank_workspace` vs `rank_workspace_topk` — one
//!   oracle probe's ranking cost at COMPAS scale (the MARKCELL inner
//!   loop).
//! * `oracle_serial` vs `oracle_batched` — FM1 verdicts for a batch of
//!   rankings (the SATREGIONS / sampling-validation oracle pass).
//! * `suggest_serial` vs `suggest_batch` — the full online multi-query
//!   path (through the unified `respond*` request/response API).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fairrank::{FairRanker, SuggestRequest};
use fairrank_bench::{compas_2d, default_compas_oracle, query_fan};
use fairrank_datasets::RankWorkspace;
use fairrank_fairness::FairnessOracle;
use fairrank_geometry::polar::to_cartesian;

fn bench_rank_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_rank_paths");
    let ds = compas_2d(6889);
    let oracle = default_compas_oracle(&ds);
    let top_k = oracle.top_k_bound();
    let w = [0.7, 0.3];

    group.bench_function("rank_alloc", |b| {
        b.iter(|| black_box(ds.rank(&w)));
    });
    let mut ws = RankWorkspace::with_capacity(ds.len());
    group.bench_function("rank_workspace", |b| {
        b.iter(|| black_box(ws.rank(&ds, &w).len()));
    });
    let mut ws2 = RankWorkspace::with_capacity(ds.len());
    group.bench_function("rank_workspace_topk", |b| {
        b.iter(|| black_box(ws2.rank_with_bound(&ds, &w, top_k).len()));
    });
    group.finish();
}

fn bench_oracle_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_oracle_verdicts");
    let ds = compas_2d(2000);
    let oracle = default_compas_oracle(&ds);
    let rankings: Vec<Vec<u32>> = query_fan(1, 64)
        .iter()
        .map(|q| ds.rank(&to_cartesian(1.0, q)))
        .collect();
    let refs: Vec<&[u32]> = rankings.iter().map(Vec::as_slice).collect();

    group.bench_function("oracle_serial", |b| {
        b.iter(|| {
            let verdicts: Vec<bool> = refs.iter().map(|r| oracle.is_satisfactory(r)).collect();
            black_box(verdicts)
        });
    });
    group.bench_function("oracle_batched", |b| {
        b.iter(|| black_box(oracle.is_satisfactory_batch(&refs)));
    });
    group.finish();
}

fn bench_suggest_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_suggest");
    let ds = compas_2d(1500);
    let oracle = default_compas_oracle(&ds);
    let ranker = FairRanker::builder(ds.clone(), Box::new(oracle))
        .build()
        .unwrap();
    let reqs: Vec<SuggestRequest> = query_fan(1, 64)
        .iter()
        .map(|q| SuggestRequest::new(to_cartesian(1.0, q)))
        .collect();

    group.bench_function("suggest_serial", |b| {
        b.iter(|| {
            let answers: Vec<_> = reqs.iter().map(|r| ranker.respond(r).unwrap()).collect();
            black_box(answers)
        });
    });
    group.bench_function("suggest_batch", |b| {
        b.iter(|| black_box(ranker.respond_batch(&reqs).unwrap()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rank_paths,
    bench_oracle_batch,
    bench_suggest_batch
);
criterion_main!(benches);
