//! LP kernels under the region machinery: simplex feasibility, Chebyshev
//! centers and Seidel's randomized LP (design choice 5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fairrank_geometry::HALF_PI;
use fairrank_lp::{chebyshev_center, feasible_point, seidel, simplex, Constraint, LinearProgram};

const SEIDEL_SEED: u64 = 0x5E1DE1;

/// A deterministic stack of half-space constraints shaped like the
/// region constraints the arrangement produces in the angle box.
fn region_constraints(count: usize, vars: usize) -> Vec<Constraint> {
    let mut out = Vec::with_capacity(count);
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for i in 0..count {
        let a: Vec<f64> = (0..vars).map(|_| next() * 2.0 - 1.0).collect();
        let b = 0.3 + next();
        out.push(if i % 2 == 0 {
            Constraint::le(a, b)
        } else {
            Constraint::ge(a, -b)
        });
    }
    out
}

fn bench_feasibility(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_feasibility");
    for m in [8usize, 32, 128] {
        let cs = region_constraints(m, 3);
        group.bench_with_input(BenchmarkId::new("simplex_feasible_point", m), &m, |b, _| {
            b.iter(|| black_box(feasible_point(&cs, 3, 0.0, HALF_PI)));
        });
        group.bench_with_input(BenchmarkId::new("chebyshev_center", m), &m, |b, _| {
            b.iter(|| black_box(chebyshev_center(&cs, 3, 0.0, HALF_PI)));
        });
        let objective = [1.0, -0.5, 0.25];
        let lp = LinearProgram::minimize(objective.to_vec())
            .with_constraints(cs.iter().cloned())
            .with_box(0.0, HALF_PI);
        group.bench_with_input(BenchmarkId::new("simplex_optimize", m), &m, |b, _| {
            b.iter(|| black_box(simplex::solve(&lp)));
        });
        group.bench_with_input(BenchmarkId::new("seidel_optimize", m), &m, |b, _| {
            b.iter(|| {
                black_box(seidel::solve_seidel(
                    &cs,
                    &objective,
                    0.0,
                    HALF_PI,
                    SEIDEL_SEED,
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_feasibility);
criterion_main!(benches);
