//! Figure 20 — HYPERPOLAR hyperplane construction: |H| and time vs `n`
//! (d = 3), plus the per-pair kernel cost across dimensions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fairrank::md::hyperpolar::{exchange_hyperplane, exchange_hyperplanes};
use fairrank_bench::{compas_d, compas_d3};

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig20_hyperpolar");
    group.sample_size(10);
    for n in [100usize, 250, 500, 1000] {
        let ds = compas_d3(n);
        group.bench_with_input(BenchmarkId::new("exchange_hyperplanes", n), &n, |b, _| {
            b.iter(|| black_box(exchange_hyperplanes(&ds)));
        });
    }
    group.finish();
}

fn bench_pair_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("hyperpolar_pair_kernel");
    for d in [3usize, 4, 5, 6] {
        let ds = compas_d(64, d);
        // A fixed non-dominating pair per dimension.
        let pair = (0..ds.len())
            .flat_map(|i| (i + 1..ds.len()).map(move |j| (i, j)))
            .find(|&(i, j)| exchange_hyperplane(&ds.row(i), &ds.row(j)).is_some())
            .expect("some non-dominating pair exists");
        group.bench_with_input(BenchmarkId::new("single_pair", d), &d, |b, _| {
            b.iter(|| black_box(exchange_hyperplane(&ds.row(pair.0), &ds.row(pair.1))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_construction, bench_pair_kernel);
criterion_main!(benches);
