//! Record the perf trajectory: run the `query_md` / `lp_kernels` /
//! `batch` bench workloads and a reduced-scale experiment series with
//! fixed parameters, and write the numbers to `BENCH_baseline.json`.
//!
//! ```text
//! cargo run --release -p fairrank-bench --bin baseline             # writes BENCH_baseline.json
//! cargo run --release -p fairrank-bench --bin baseline -- out.json
//! ```
//!
//! The workloads are deterministic (fixed seeds, fixed scales) so the
//! *relative* series — batched vs per-probe, workspace vs allocating,
//! index lookup vs re-sort — is comparable across commits; absolute
//! numbers shift with the machine, so CI only checks that this binary
//! and the benches still compile and the equivalence tests pass.

use std::fmt::Write as _;
use std::time::Duration;

use fairrank::approximate::{ApproxIndex, BuildOptions};
use fairrank::twod::ray_sweep;
use fairrank::{DatasetUpdate, FairRanker, Strategy, SuggestRequest};
use fairrank_bench::{compas_2d, compas_d, default_compas_oracle, query_fan, time, time_avg};
use fairrank_datasets::kernels;
use fairrank_datasets::RankWorkspace;
use fairrank_fairness::FairnessOracle;
use fairrank_geometry::polar::to_cartesian;
use fairrank_geometry::HALF_PI;
use fairrank_lp::{chebyshev_center, feasible_point, seidel, simplex, Constraint, LinearProgram};
use fairrank_serve::FairRankService;

/// Deterministic half-space stack, mirroring the `lp_kernels` bench.
fn region_constraints(count: usize, vars: usize) -> Vec<Constraint> {
    let mut out = Vec::with_capacity(count);
    let mut state = 0x2545_F491_4F6C_DD1Du64;
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

fn us(d: Duration) -> f64 {
    (d.as_secs_f64() * 1e6 * 1000.0).round() / 1000.0
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_baseline.json".to_string());
    let mut series: Vec<(String, f64)> = Vec::new();
    let mut push = |name: &str, v: f64| {
        println!("{name:56} {v:>12.3}");
        series.push((name.to_string(), v));
    };

    // --- lp_kernels (m = 32 constraints, 3 vars) --------------------
    let cs = region_constraints(32, 3);
    push(
        "lp.feasible_point_m32_us",
        us(time_avg(200, || feasible_point(&cs, 3, 0.0, HALF_PI))),
    );
    push(
        "lp.chebyshev_center_m32_us",
        us(time_avg(200, || chebyshev_center(&cs, 3, 0.0, HALF_PI))),
    );
    let lp = LinearProgram::minimize(vec![1.0, -0.5, 0.25])
        .with_constraints(cs.iter().cloned())
        .with_box(0.0, HALF_PI);
    push(
        "lp.simplex_optimize_m32_us",
        us(time_avg(200, || simplex::solve(&lp))),
    );
    push(
        "lp.seidel_optimize_m32_us",
        us(time_avg(200, || {
            seidel::solve_seidel(&cs, &[1.0, -0.5, 0.25], 0.0, HALF_PI, 0x5E1DE1)
        })),
    );

    // --- query_md (COMPAS n = 500, d = 3, reduced grid) -------------
    let ds3 = compas_d(500, 3);
    let oracle3 = default_compas_oracle(&ds3);
    let opts = BuildOptions {
        n_cells: 2_000,
        max_hyperplanes: Some(3_000),
        ..Default::default()
    };
    let (index, build_t) = time(|| ApproxIndex::build(&ds3, &oracle3, &opts).unwrap());
    push("querymd.build_n500_d3_ms", us(build_t) / 1000.0);
    let queries = query_fan(2, 64);
    let mut qi = 0usize;
    push(
        "querymd.mdonline_lookup_us",
        us(time_avg(20_000, || {
            qi = (qi + 1) % queries.len();
            index.lookup(&queries[qi])
        })),
    );
    let weights3: Vec<Vec<f64>> = queries.iter().map(|q| to_cartesian(1.0, q)).collect();
    let mut qj = 0usize;
    push(
        "querymd.ordering_only_us",
        us(time_avg(2_000, || {
            qj = (qj + 1) % weights3.len();
            ds3.rank(&weights3[qj])
        })),
    );

    // --- batch / workspace paths (COMPAS 2-D) -----------------------
    let ds2 = compas_2d(6889);
    let oracle2 = default_compas_oracle(&ds2);
    let top_k = oracle2.top_k_bound();
    let w = [0.7, 0.3];
    push(
        "batch.rank_alloc_n6889_us",
        us(time_avg(500, || ds2.rank(&w))),
    );
    let mut ws = RankWorkspace::with_capacity(ds2.len());
    push(
        "batch.rank_workspace_n6889_us",
        us(time_avg(500, || ws.rank(&ds2, &w).len())),
    );
    let mut ws_topk = RankWorkspace::with_capacity(ds2.len());
    push(
        "batch.rank_workspace_topk_n6889_us",
        us(time_avg(500, || {
            ws_topk.rank_with_bound(&ds2, &w, top_k).len()
        })),
    );

    // --- columnar scoring kernels vs the row-major reference arm ----
    // `kernel.score_all_rowmajor_*` re-implements the pre-columnar hot
    // loop (one scalar dot product per item over a flat row-major
    // buffer); `kernel.score_all_columnar_*` is `kernels::score_all_into`
    // over the same data — bit-identical output
    // (tests/columnar_equivalence.rs), so the ratio is pure layout +
    // vectorization. d = 7 is COMPAS' full scoring width.
    let ds7 = compas_d(6889, 7);
    let w7: Vec<f64> = (0..7).map(|j| 0.15 + j as f64 * 0.11).collect();
    let flat7 = ds7.to_row_major();
    let mut out_ref = vec![0.0f64; ds7.len()];
    push(
        "kernel.score_all_rowmajor_n6889_d7_us",
        us(time_avg(500, || {
            for (i, o) in out_ref.iter_mut().enumerate() {
                *o = flat7[i * 7..(i + 1) * 7]
                    .iter()
                    .zip(&w7)
                    .map(|(x, b)| x * b)
                    .sum();
            }
            out_ref[6888]
        })),
    );
    let mut out_col: Vec<f64> = Vec::new();
    push(
        "kernel.score_all_columnar_n6889_d7_us",
        us(time_avg(500, || {
            kernels::score_all_into(&ds7, &w7, &mut out_col);
            out_col[6888]
        })),
    );
    // Full rank through the legacy layout (fresh score + order
    // allocations, row-major scalar scores) vs the columnar workspace
    // path — the end-to-end ranking arm of the same comparison. Both
    // sort through the same ranking kernel, so the gap here is the
    // scoring pass plus the allocations.
    let flat2 = ds2.to_row_major();
    push(
        "batch.rank_rowmajor_n6889_us",
        us(time_avg(500, || {
            let scores: Vec<f64> = (0..ds2.len())
                .map(|i| {
                    flat2[i * 2..(i + 1) * 2]
                        .iter()
                        .zip(&w)
                        .map(|(x, b)| x * b)
                        .sum()
                })
                .collect();
            let mut order: Vec<u32> = Vec::new();
            kernels::top_k_select_into(&scores, None, kernels::PrefixOrder::Sorted, &mut order);
            order
        })),
    );
    let mut ws_col = RankWorkspace::with_capacity(ds2.len());
    push(
        "batch.rank_columnar_n6889_us",
        us(time_avg(500, || ws_col.rank(&ds2, &w).len())),
    );
    let mut ws_col_topk = RankWorkspace::with_capacity(ds2.len());
    push(
        "batch.rank_columnar_topk_n6889_us",
        us(time_avg(500, || {
            ws_col_topk.rank_with_bound(&ds2, &w, top_k).len()
        })),
    );

    let ds_serve = compas_2d(1500);
    let oracle_serve = default_compas_oracle(&ds_serve);
    let (ranker, sweep_t) = time(|| {
        FairRanker::builder(ds_serve.clone(), Box::new(oracle_serve))
            .build()
            .unwrap()
    });
    push("experiments.raysweep_build_n1500_ms", us(sweep_t) / 1000.0);
    let serve_reqs: Vec<SuggestRequest> = query_fan(1, 64)
        .iter()
        .map(|q| SuggestRequest::new(to_cartesian(1.0, q)))
        .collect();
    push(
        "batch.suggest_serial_64q_us",
        us(time_avg(30, || {
            serve_reqs
                .iter()
                .map(|r| ranker.respond(r).unwrap())
                .collect::<Vec<_>>()
        })),
    );
    push(
        "batch.suggest_batch_64q_us",
        us(time_avg(30, || ranker.respond_batch(&serve_reqs).unwrap())),
    );

    // --- service_throughput (async micro-batched serving) -----------
    // The FairRankService front door: requests/s sustained end to end —
    // bounded-queue submission, micro-batch coalescing (size-triggered
    // at `max_batch`), snapshot serving, one-shot completion — over the
    // same COMPAS n = 1500 ranker and 64-query fan as the batch series.
    // Answers are bit-identical to `respond_batch`
    // (tests/service_equivalence.rs); this series tracks the pipeline
    // overhead and its scaling across worker counts and batch sizes.
    for workers in [1usize, 2, 4] {
        for max_batch in [1usize, 16, 64] {
            let service = FairRankService::builder(ranker.snapshot())
                .workers(workers)
                .max_batch(max_batch)
                .queue_capacity(4096)
                .build();
            let total = 512usize;
            let (_, elapsed) = time(|| {
                let futures: Vec<_> = serve_reqs
                    .iter()
                    .cycle()
                    .take(total)
                    .map(|r| service.submit(r.clone()).unwrap())
                    .collect();
                for fut in futures {
                    fut.wait().unwrap();
                }
            });
            service.shutdown();
            let rps = (total as f64 / elapsed.as_secs_f64()).round();
            push(
                &format!("service.throughput_{workers}w_{max_batch}b_rps"),
                rps,
            );
        }
    }

    // --- update_throughput (live updates vs full rebuild) -----------
    // The incremental-maintenance headline: one 2-D insert maintains the
    // event list + reuses top-k-certified sector verdicts, against the
    // O(n²) sweep a rebuild pays. Same COMPAS n = 1500 as the serving
    // series; answers are property-tested identical to rebuilds.
    let ds_upd = compas_2d(1500);
    let oracle_upd = default_compas_oracle(&ds_upd);
    let (mut live, rebuild_t) = time(|| {
        FairRanker::builder(ds_upd.clone(), Box::new(oracle_upd))
            .strategy(Strategy::TwoD)
            .build()
            .unwrap()
    });
    let rebuild_us = us(rebuild_t);
    push("update.twod_full_rebuild_ms", rebuild_us / 1000.0);
    // Mid-scoring inserts: the common case for live item churn.
    let mut salt = 0u64;
    let insert_t = us(time_avg(32, || {
        salt += 1;
        let s = (salt % 97) as f64 / 97.0;
        live.update(DatasetUpdate::Insert {
            scores: vec![0.25 + 0.5 * s, 0.75 - 0.5 * s],
            groups: vec![(salt % 2) as u32, (salt % 3) as u32, 0, 1],
        })
        .unwrap()
    }));
    push("update.twod_insert_us", insert_t);
    push(
        "update.twod_insert_speedup_x",
        (rebuild_us / insert_t * 100.0).round() / 100.0,
    );
    let mut item = 100u32;
    push(
        "update.twod_rescore_us",
        us(time_avg(16, || {
            item = (item * 31 + 7) % live.dataset().len() as u32;
            let s = f64::from(item % 89) / 89.0;
            live.update(DatasetUpdate::Rescore {
                item,
                scores: vec![0.2 + 0.6 * s, 0.8 - 0.6 * s],
            })
            .unwrap()
        })),
    );
    push(
        "update.twod_remove_us",
        us(time_avg(16, || {
            item = (item * 17 + 3) % live.dataset().len() as u32;
            live.update(DatasetUpdate::Remove { item }).unwrap()
        })),
    );
    // Approximate grid at reduced scale (no hyperplane cap: the capped
    // config falls back to full rebuilds by design).
    let ds_grid = compas_d(80, 3);
    let oracle_grid = default_compas_oracle(&ds_grid);
    let grid_opts = BuildOptions {
        n_cells: 500,
        max_hyperplanes: None,
        ..Default::default()
    };
    let (mut grid_live, grid_build_t) = time(|| {
        FairRanker::builder(ds_grid.clone(), Box::new(oracle_grid))
            .strategy(Strategy::MdApprox)
            .approx_options(grid_opts)
            .build()
            .unwrap()
    });
    push("update.approx_build_n80_ms", us(grid_build_t) / 1000.0);
    let mut gsalt = 0u64;
    push(
        "update.approx_insert_ms",
        us(time_avg(8, || {
            gsalt += 1;
            let s = (gsalt % 89) as f64 / 89.0;
            grid_live
                .update(DatasetUpdate::Insert {
                    scores: vec![0.3 + 0.4 * s, 0.7 - 0.4 * s, 0.5],
                    groups: vec![(gsalt % 2) as u32, (gsalt % 3) as u32, 0, 1],
                })
                .unwrap()
        })) / 1000.0,
    );

    // --- reduced experiments series (fig16-shaped 2-D pipeline) -----
    let ds_fig = compas_2d(1000);
    let oracle_fig = default_compas_oracle(&ds_fig);
    let (sweep, fig_t) = time(|| ray_sweep(&ds_fig, &oracle_fig).unwrap());
    push("experiments.fig16_raysweep_n1000_ms", us(fig_t) / 1000.0);
    push("experiments.fig16_sectors", sweep.sector_count as f64);
    push("experiments.fig16_oracle_calls", sweep.oracle_calls as f64);

    // --- serialize ---------------------------------------------------
    let mut json = String::from("{\n  \"schema\": 1,\n");
    json.push_str(
        "  \"note\": \"reduced-scale perf baseline; absolute numbers are machine-dependent, compare relative series across commits\",\n",
    );
    json.push_str("  \"generator\": \"cargo run --release -p fairrank-bench --bin baseline\",\n");
    json.push_str("  \"series\": {\n");
    for (i, (name, v)) in series.iter().enumerate() {
        let sep = if i + 1 == series.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{name}\": {v}{sep}");
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, json).expect("write baseline json");
    println!("\nwrote {out_path}");
}
