//! `buildbench`: the offline index-construction benchmark.
//!
//! Records the build-wall series the parallel builders were written
//! for, at the largest scales that finish in minutes on one box:
//!
//! * `querymd.build_compas_n6889_d3_{serial,par}_ms` — the full-COMPAS
//!   MD grid build (all 6,889 individuals over the paper's §6.2
//!   validation attributes, capped hyperplane budget), serial vs
//!   all-cores. Full scoring width (d = 7) stays out of reach offline:
//!   the per-cell arrangements in the 6-dimensional angle space blow up
//!   combinatorially even under the per-cell cap. The parallel arm is
//!   bit-identical to the serial one (tests/build_equivalence.rs); the
//!   ratio is pure MARKCELL parallelism.
//! * `querymd.build_exact_n70_d3_{serial,par}_ms` — the exact
//!   SATREGIONS arrangement at a scale where `O(h^{d-1})` still fits.
//! * `twod.build_dot2d_n6000_{serial,par}_ms` — the 2-D ray sweep over
//!   DOT-like flights projected to two delay attributes, serial vs
//!   sector-sharded.
//! * `dot.{score_all_us,rank_ms,rank_topk_ms}_n1322024` — query-side
//!   cost at the paper's full DOT scale (1,322,024 flights): one
//!   columnar scoring pass, one full workspace rank, and one
//!   top-k-bounded rank under the §6.4 oracle.
//! * `host.build_cores` — the recording host's core count, so the
//!   speedup series is interpretable (on a single-core host the
//!   parallel arms measure sharding overhead, not speedup).
//!
//! Results merge into `BENCH_baseline.json` (pass a different path as
//! the first argument), preserving every series other benches recorded.

use std::time::Duration;

use fairrank::approximate::BuildOptions;
use fairrank::{FairRanker, Strategy};
use fairrank_bench::{default_compas_oracle, dot_flights, dot_oracle, time, time_avg};
use fairrank_datasets::{kernels, RankWorkspace};
use fairrank_fairness::FairnessOracle;
use fairrank_net::json::merge_into_baseline;

fn ms(d: Duration) -> f64 {
    (d.as_secs_f64() * 1e3 * 1000.0).round() / 1000.0
}

fn us(d: Duration) -> f64 {
    (d.as_secs_f64() * 1e6 * 1000.0).round() / 1000.0
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_baseline.json".to_string());
    let mut series: Vec<(String, f64)> = Vec::new();
    let mut push = |name: &str, v: f64| {
        println!("{name:48} {v:>14.3}");
        series.push((name.to_string(), v));
    };

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    push("host.build_cores", cores as f64);

    // --- full-COMPAS MD grid build: serial vs parallel MARKCELL -----
    // All 6,889 individuals over the §6.2 validation projection. The
    // hyperplane budget caps the `O(n²)` exchange enumeration (the
    // capped build is sound: every probe is validated against the real
    // oracle); the cell count keeps one arm in tens of seconds so both
    // arms fit one run.
    let ds_md = fairrank_bench::compas_d3(6889);
    let oracle_md = default_compas_oracle(&ds_md);
    let build_md = |threads: usize| {
        FairRanker::builder(ds_md.clone(), Box::new(oracle_md.clone()))
            .strategy(Strategy::MdApprox)
            .approx_options(BuildOptions {
                n_cells: 600,
                max_hyperplanes: Some(1200),
                ..Default::default()
            })
            .build_threads(threads)
            .build()
            .unwrap()
    };
    let (_, t_md_serial) = time(|| build_md(1));
    push("querymd.build_compas_n6889_d3_serial_ms", ms(t_md_serial));
    let (_, t_md_par) = time(|| build_md(0));
    push("querymd.build_compas_n6889_d3_par_ms", ms(t_md_par));
    push(
        "querymd.build_compas_n6889_d3_speedup_x",
        ((t_md_serial.as_secs_f64() / t_md_par.as_secs_f64()) * 100.0).round() / 100.0,
    );

    // --- exact SATREGIONS arrangement: serial vs parallel -----------
    // Small n by necessity: the exact region count grows as
    // `O(h^{d-1})` and h as `O(n²)` — the reason the grid exists.
    let ds_ex = fairrank_bench::compas_d(70, 3);
    let oracle_ex = default_compas_oracle(&ds_ex);
    let build_exact = |threads: usize| {
        FairRanker::builder(ds_ex.clone(), Box::new(oracle_ex.clone()))
            .strategy(Strategy::MdExact)
            .build_threads(threads)
            .build()
            .unwrap()
    };
    let (_, t_ex_serial) = time(|| build_exact(1));
    push("querymd.build_exact_n70_d3_serial_ms", ms(t_ex_serial));
    let (_, t_ex_par) = time(|| build_exact(0));
    push("querymd.build_exact_n70_d3_par_ms", ms(t_ex_par));

    // --- 2-D ray sweep over DOT flights: serial vs sector-sharded ---
    // Projected to (departure_delay, arrival_delay); n is bounded by
    // the sweep's O(n²) event list, not by the dataset generator.
    let ds_2d = dot_flights(6000)
        .project(&[0, 1])
        .expect("projection indices valid");
    let oracle_2d = dot_oracle(&ds_2d);
    let build_2d = |threads: usize| {
        FairRanker::builder(ds_2d.clone(), Box::new(oracle_2d.clone()))
            .strategy(Strategy::TwoD)
            .build_threads(threads)
            .build()
            .unwrap()
    };
    let (_, t_2d_serial) = time(|| build_2d(1));
    push("twod.build_dot2d_n6000_serial_ms", ms(t_2d_serial));
    let (_, t_2d_par) = time(|| build_2d(0));
    push("twod.build_dot2d_n6000_par_ms", ms(t_2d_par));
    push(
        "twod.build_dot2d_n6000_speedup_x",
        ((t_2d_serial.as_secs_f64() / t_2d_par.as_secs_f64()) * 100.0).round() / 100.0,
    );

    // --- query-side cost at full DOT scale (1,322,024 flights) ------
    let ds_dot = dot_flights(1_322_024);
    let w = [0.5, 0.3, 0.2];
    let mut scores: Vec<f64> = Vec::new();
    push(
        "dot.score_all_n1322024_us",
        us(time_avg(20, || {
            kernels::score_all_into(&ds_dot, &w, &mut scores);
            scores[ds_dot.len() - 1]
        })),
    );
    let mut ws = RankWorkspace::with_capacity(ds_dot.len());
    push(
        "dot.rank_n1322024_ms",
        ms(time_avg(10, || ws.rank(&ds_dot, &w).len())),
    );
    let top_k = dot_oracle(&ds_dot).top_k_bound().expect("DOT oracle has k");
    let mut ws_topk = RankWorkspace::with_capacity(ds_dot.len());
    push(
        "dot.rank_topk_n1322024_ms",
        ms(time_avg(10, || {
            ws_topk.rank_with_bound(&ds_dot, &w, Some(top_k)).len()
        })),
    );
    drop(ds_dot);

    let named: Vec<(&str, f64)> = series.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    merge_into_baseline(&path, &named);
    println!("recorded {} series into {path}", named.len());
}
