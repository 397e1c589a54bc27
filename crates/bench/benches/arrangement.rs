//! Figures 18 & 19 — incremental arrangement construction: the flat
//! baseline region scan vs the arrangement tree (design choice 1 in
//! DESIGN.md §6).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fairrank::md::{exchange_hyperplanes, slice};
use fairrank_bench::compas_d3;
use fairrank_geometry::arrangement::Arrangement;
use fairrank_geometry::Hyperplane;
use fairrank_lp::Constraint;

fn hyperplane_prefix(count: usize) -> Vec<Hyperplane> {
    let ds = compas_d3(60);
    let mut hs = exchange_hyperplanes(&ds);
    assert!(hs.len() >= count, "workload too small: {}", hs.len());
    hs.truncate(count);
    hs
}

fn bench_insertion(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig18_arrangement");
    group.sample_size(10);
    for count in [25usize, 50, 100] {
        let hs = hyperplane_prefix(count);
        group.bench_with_input(BenchmarkId::new("flat_baseline", count), &count, |b, _| {
            b.iter(|| {
                let simplex = vec![Constraint::le(vec![1.0, 1.0], 1.0)];
                let mut arr = Arrangement::with_base(2, 0.0, 1.0, simplex);
                for h in &hs {
                    arr.insert(h.clone());
                }
                black_box(arr.region_count())
            });
        });
        group.bench_with_input(
            BenchmarkId::new("arrangement_tree", count),
            &count,
            |b, _| {
                b.iter(|| {
                    let mut tree = slice::arrangement(2);
                    for h in &hs {
                        tree.insert(h);
                    }
                    black_box(tree.region_count())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_insertion);
criterion_main!(benches);
