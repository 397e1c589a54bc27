//! Regenerate every table and figure of the paper's evaluation (§6) as
//! text series.
//!
//! ```text
//! cargo run -p fairrank-bench --release --bin experiments            # all, quick
//! cargo run -p fairrank-bench --release --bin experiments -- --full  # paper scale
//! cargo run -p fairrank-bench --release --bin experiments -- fig17 fig18
//! ```
//!
//! Quick mode shrinks `n`, the hyperplane counts and the grid so the full
//! suite finishes in minutes; `--full` runs the paper-scale parameters
//! (hours, like the original Python experiments). Absolute timings are
//! not comparable to the paper's 2.6 GHz / Python 2.7 testbed — the
//! reproduction targets are the *shapes*: growth exponents, crossovers,
//! and which variant wins (see EXPERIMENTS.md).

use std::collections::BTreeSet;
use std::time::Instant;

use fairrank::approximate::{ApproxIndex, BuildOptions};
use fairrank::md::{hyperpolar, slice};
use fairrank::sampling::{build_on_sample, validate_against};
use fairrank::twod::{online_2d, ray_sweep};
use fairrank::{FairRanker, KnownFairness, Strategy, SuggestRequest};
use fairrank_bench::stats::{cumulative_at, loglog_slope, mean, median};
use fairrank_bench::{
    compas_2d, compas_d, compas_d3, compas_full, default_compas_oracle, dot_flights, dot_oracle,
    fmt_duration, query_fan, time, time_avg,
};
use fairrank_datasets::synthetic::compas;
use fairrank_datasets::Dataset;
use fairrank_fairness::{Conjunction, FairnessOracle, Proportionality};
use fairrank_geometry::arrangement::Arrangement;
use fairrank_geometry::grid::{AngleGrid, PartitionScheme};
use fairrank_geometry::polar::{angular_distance, to_cartesian, to_polar};
use fairrank_geometry::HALF_PI;

struct Ctx {
    full: bool,
}

type Experiment = (&'static str, fn(&Ctx));

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let chosen: BTreeSet<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    let ctx = Ctx { full };

    let experiments: &[Experiment] = &[
        ("fig16", fig16),
        ("validation", validation_regions),
        ("fig17", fig17),
        ("fig18", fig18_fig19),
        ("fig19", fig18_fig19),
        ("fig20", fig20),
        ("fig21", fig21),
        ("fig22", fig22),
        ("fig23", fig23),
        ("query2d", query2d),
        ("querymd", querymd),
        ("sampling", sampling),
        ("ablation-grid", ablation_grid),
        ("ablation-pruning", ablation_pruning),
    ];

    let known: BTreeSet<&str> = experiments.iter().map(|e| e.0).collect();
    for c in &chosen {
        assert!(
            known.contains(c.as_str()),
            "unknown experiment id {c:?}; known: {known:?}"
        );
    }

    println!(
        "# fairrank experiment suite ({} mode)\n",
        if full { "full/paper-scale" } else { "quick" }
    );
    let t0 = Instant::now();
    let mut ran = BTreeSet::new();
    for (id, f) in experiments {
        if !chosen.is_empty() && !chosen.contains(*id) {
            continue;
        }
        if !ran.insert(*f as usize) {
            continue; // fig18/fig19 share one runner
        }
        let t = Instant::now();
        f(&ctx);
        println!("  [{id} done in {}]\n", fmt_duration(t.elapsed()));
    }
    println!("total: {}", fmt_duration(t0.elapsed()));
}

// =====================================================================
// §6.2  Figure 16 — cumulative θ(f, f′) over 100 random queries
// =====================================================================

fn fig16(ctx: &Ctx) {
    let n = if ctx.full { 6889 } else { 500 };
    println!("## fig16 — validation: θ(f, f′) over 100 random queries");
    println!("paper: COMPAS d=3, FM1(race ≤60% of top-30%); 52/100 queries already fair;");
    println!("paper: all 48 repairs at θ<0.6, 38 of 48 at θ<0.4");
    println!("here:  synthetic COMPAS n={n}, same constraint\n");

    let ds = compas_d3(n);
    let oracle = default_compas_oracle(&ds);
    let ranker = FairRanker::builder(ds.clone(), Box::new(oracle))
        .strategy(Strategy::MdApprox)
        .approx_options(BuildOptions {
            n_cells: if ctx.full { 40_000 } else { 2_000 },
            max_hyperplanes: Some(if ctx.full { 60_000 } else { 10_000 }),
            max_hyperplanes_per_cell: Some(if ctx.full { 48 } else { 24 }),
            ..Default::default()
        })
        .build()
        .expect("build");

    let mut fair = 0usize;
    let mut distances = Vec::new();
    for q in query_fan(2, 100) {
        let w = to_cartesian(1.0, &q);
        let sug = ranker
            .respond(&SuggestRequest::new(w))
            .expect("valid query");
        match sug.fairness {
            KnownFairness::AlreadyFair => fair += 1,
            KnownFairness::Suggested { distance } => distances.push(distance),
            KnownFairness::Infeasible => unreachable!("default model is satisfiable"),
        }
    }
    let thresholds = [0.2, 0.4, 0.6, HALF_PI];
    let cum = cumulative_at(&distances, &thresholds);
    println!(
        "already fair: {fair}/100; repaired: {}/100",
        distances.len()
    );
    for (t, c) in thresholds.iter().zip(&cum) {
        println!("  θ(f,f') < {t:.2}: {c} of {} repairs", distances.len());
    }
    println!(
        "  max θ = {:.4}, median θ = {:.4}",
        distances.iter().fold(0.0f64, |a, &b| a.max(b)),
        median(&distances).unwrap_or(0.0)
    );
}

// =====================================================================
// §6.2  narrative validation experiments (region layouts, FM2)
// =====================================================================

fn validation_regions(ctx: &Ctx) {
    let n = if ctx.full { 6889 } else { 1000 };
    println!("## validation — §6.2 region-layout narratives (n={n})");

    // (a) age (inverted; lower is better) + juv_other_count, FM1 on
    // age_binary: at most 70% of the top-100 in the younger group. The
    // paper finds a single satisfactory region hugging the
    // juv_other_count axis (weight on age near 0, boundary angle ≈ 0.31).
    let full_ds = compas_full(n);
    let ds = full_ds
        .project(&[compas::AGE_ATTR, 1])
        .expect("age + juv_other_count");
    // The caps below are recalibrated to the synthetic generator's
    // realized group/score couplings (stronger than the real COMPAS
    // columns'); the paper's caps are quoted next to each. What is
    // reproduced is the *layout*: (a) one wedge hugging the
    // juv_other_count axis, (b) regions covering almost everything,
    // (c) a stricter model with wider gaps but still-moderate worst-case
    // distance.
    let k = 100.min(n);
    let age_attr = ds.type_attribute("age_binary").expect("present");
    // (a) paper cap: ≤70% young. Synthetic juv counts tie heavily and the
    // inverted-age tiebreak fills ties youngest-first, so the share near
    // the juv axis is ≈0.90; the cap reproducing the paper's wedge is 90%.
    let oracle = Proportionality::new(age_attr, k).with_max_count(0, (k * 90) / 100);
    let sweep = ray_sweep(&ds, &oracle).expect("2d sweep");
    println!(
        "(a) FM1 on age_binary (≤90% young in top-{k}; paper: ≤70%): {} satisfactory region(s), measure {:.3} rad",
        sweep.intervals.len(),
        sweep.intervals.measure()
    );
    println!("    paper: exactly one region, hugging the juv axis (age weight ≈ 0, boundary ≤ 0.31 from it)");
    if let Some(&(lo, hi)) = sweep.intervals.as_slice().last() {
        println!(
            "    last region here: [{lo:.3}, {hi:.3}] — within {:.3} rad of the juv axis (θ = π/2)",
            HALF_PI - lo
        );
    }

    // (b) same scoring attributes, FM1 on race: many regions; every query
    // within a small θ of a satisfactory function. Paper cap: ≤60 AA
    // (base ≈51% + 9 pts); recalibrated: ≤62 (base 50% + 12 pts).
    let race = ds.type_attribute("race").expect("present");
    let oracle_b = Proportionality::new(race, k).with_max_count(0, (k * 62) / 100);
    let sweep_b = ray_sweep(&ds, &oracle_b).expect("2d sweep");
    let worst_b = worst_distance_2d(&sweep_b.intervals);
    println!(
        "(b) FM1 on race (≤62 AA in top-{k}; paper: ≤60): {} region(s); worst-case θ to a fair function = {:.4}",
        sweep_b.intervals.len(),
        worst_b
    );
    println!("    paper: several regions, worst-case θ < 0.11");

    // (c) FM2: juv_other_count + c_days_from_compas; caps on sex, race
    // and age bucket simultaneously. Stricter model, wider gaps; the
    // paper still finds θ(f, f′) < 0.28 everywhere. Paper caps:
    // ≤90 male / ≤60 AA / ≤52 aged ≤30; recalibrated: ≤90 / ≤82 / ≤58
    // (both scoring attributes couple AA-positively in the generator).
    let ds_c = full_ds.project(&[1, 0]).expect("juv + c_days");
    let sex = ds_c.type_attribute("sex").expect("present");
    let race_c = ds_c.type_attribute("race").expect("present");
    let age_bucket = ds_c.type_attribute("age_bucketized").expect("present");
    let fm2 = Conjunction::new()
        .and(Proportionality::new(sex, k).with_max_count(0, (k * 90) / 100))
        .and(Proportionality::new(race_c, k).with_max_count(0, (k * 82) / 100))
        .and(Proportionality::new(age_bucket, k).with_max_count(0, (k * 58) / 100));
    let sweep_c = ray_sweep(&ds_c, &fm2).expect("2d sweep");
    let worst_c = worst_distance_2d(&sweep_c.intervals);
    println!(
        "(c) FM2 (≤90 male, ≤82 AA, ≤58 young in top-{k}; paper: 90/60/52): {} region(s); worst-case θ = {:.4}",
        sweep_c.intervals.len(),
        worst_c
    );
    println!("    paper: wider gaps than (b), worst-case θ < 0.28");
}

/// Worst-case angular distance from any function in `[0, π/2]` to the
/// nearest satisfactory interval (∞ if none).
fn worst_distance_2d(intervals: &fairrank_geometry::AngularIntervals) -> f64 {
    if intervals.is_empty() {
        return f64::INFINITY;
    }
    let mut worst = 0.0f64;
    for s in 0..=2000 {
        let theta = s as f64 / 2000.0 * HALF_PI;
        let nearest = intervals.nearest(theta).expect("non-empty");
        worst = worst.max((nearest - theta).abs());
    }
    worst
}

// =====================================================================
// §6.4  Figure 17 — 2-D preprocessing: #exchanges and time vs n
// =====================================================================

fn fig17(ctx: &Ctx) {
    let ns: &[usize] = if ctx.full {
        &[100, 250, 500, 1000, 2000, 4000, 6000]
    } else {
        &[100, 250, 500, 1000, 2000]
    };
    println!("## fig17 — 2DRAYSWEEP: ordering exchanges and time vs n (d=2)");
    println!("paper: exchanges ≪ n² upper bound (450k at n=4000, not 16M); time slope ≈ n³ with O(n) oracle\n");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "n", "exchanges", "n² bound", "time"
    );
    let mut pts_ex = Vec::new();
    let mut pts_t = Vec::new();
    for &n in ns {
        let ds = compas_2d(n);
        let race = ds.type_attribute("race").expect("race");
        let k = ((n as f64) * 0.3).round() as usize;
        let oracle = Proportionality::new(race, k).with_max_share(0, 0.60);
        let (sweep, t) = time(|| ray_sweep(&ds, &oracle).expect("sweep"));
        println!(
            "{n:>6} {:>12} {:>12} {:>12}",
            sweep.exchange_count,
            n * (n - 1) / 2,
            fmt_duration(t)
        );
        pts_ex.push((n as f64, sweep.exchange_count as f64));
        pts_t.push((n as f64, t.as_secs_f64()));
    }
    println!(
        "growth exponents: exchanges ~ n^{:.2} (≤2), time ~ n^{:.2} (paper: steeper than exchanges)",
        loglog_slope(&pts_ex).unwrap_or(f64::NAN),
        loglog_slope(&pts_t).unwrap_or(f64::NAN)
    );
}

// =====================================================================
// §6.4  Figures 18 & 19 — arrangement: baseline vs tree; |R| growth
// =====================================================================

fn fig18_fig19(ctx: &Ctx) {
    let n = if ctx.full { 120 } else { 60 };
    let caps: &[usize] = if ctx.full {
        &[50, 100, 150, 250, 400, 600, 800]
    } else {
        &[25, 50, 100, 150, 250]
    };
    let baseline_limit = if ctx.full { 250 } else { 150 };
    println!("## fig18/fig19 — arrangement construction: flat baseline vs arrangement tree (d=3)");
    println!("paper (fig18): baseline needs ~8000 s for 250 hyperplanes; the tree extends to 1200 in the same budget");
    println!("paper (fig19): |R| reaches >5000 regions by ~250 hyperplanes; later insertions cost more\n");

    // The exact pipeline's arrangement: exchange hyperplanes of the
    // weight slice Σw = 1, over the simplex x ≥ 0, Σx ≤ 1.
    let ds = compas_d3(n);
    let hyperplanes = slice::exchange_hyperplanes(&ds);
    println!(
        "dataset: synthetic COMPAS n={n}, |H| = {} (weight-slice hyperplanes)",
        hyperplanes.len()
    );
    println!(
        "{:>12} {:>14} {:>14} {:>10}",
        "hyperplanes", "baseline time", "tree time", "|R| (tree)"
    );

    let mut pts_regions = Vec::new();
    for &cap in caps {
        let cap = cap.min(hyperplanes.len());
        // Flat incremental arrangement (Algorithm 4's linear region scan).
        let base_t = if cap <= baseline_limit {
            let (_, t) = time(|| {
                let simplex = vec![fairrank_lp::Constraint::le(vec![1.0, 1.0], 1.0)];
                let mut arr = Arrangement::with_base(2, 0.0, 1.0, simplex);
                for h in hyperplanes.iter().take(cap) {
                    arr.insert(h.clone());
                }
                arr.region_count()
            });
            fmt_duration(t)
        } else {
            "(skipped)".to_string()
        };
        // Arrangement tree (Algorithm 5).
        let (regions, tree_t) = time(|| {
            let mut tree = slice::arrangement(2);
            for h in hyperplanes.iter().take(cap) {
                tree.insert(h);
            }
            tree.region_count()
        });
        println!(
            "{cap:>12} {base_t:>14} {:>14} {regions:>10}",
            fmt_duration(tree_t)
        );
        pts_regions.push((cap as f64, regions as f64));
    }
    println!(
        "fig19 shape: |R| ~ h^{:.2} (theory for d=3: up to h²)",
        loglog_slope(&pts_regions).unwrap_or(f64::NAN)
    );
}

// =====================================================================
// §6.4  Figure 20 — |H| and hyperplane-construction time vs n (d=3)
// =====================================================================

fn fig20(ctx: &Ctx) {
    let ns: &[usize] = if ctx.full {
        &[100, 250, 500, 1000, 2000, 4000, 6000]
    } else {
        &[100, 250, 500, 1000, 2000]
    };
    println!("## fig20 — HYPERPOLAR: |H| and construction time vs n (d=3)");
    println!("paper: |H| approaches n²/2 as d grows (fewer dominated pairs than 2-D); time linear in |H|\n");
    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>12}",
        "n", "|H|", "pairs", "|H|/pairs", "time"
    );
    let mut pts = Vec::new();
    for &n in ns {
        let ds = compas_d3(n);
        let (hs, t) = time(|| hyperpolar::exchange_hyperplanes(&ds));
        let pairs = n * (n - 1) / 2;
        println!(
            "{n:>6} {:>12} {pairs:>12} {:>10.3} {:>12}",
            hs.len(),
            hs.len() as f64 / pairs as f64,
            fmt_duration(t)
        );
        pts.push((n as f64, hs.len() as f64));
    }
    println!(
        "growth: |H| ~ n^{:.2} (paper: → 2.0 as d increases)",
        loglog_slope(&pts).unwrap_or(f64::NAN)
    );
}

// =====================================================================
// §6.4  Figure 21 — |HC[c]| distribution (n=100, d=4)
// =====================================================================

fn fig21(ctx: &Ctx) {
    let n_cells = if ctx.full { 6000 } else { 2000 };
    println!("## fig21 — hyperplanes crossing each cell (n=100, d=4, N≈{n_cells})");
    println!("paper: >5000 of 6000 cells crossed by <100 hyperplanes; a small busy tail\n");

    let ds = compas_d(100, 4);
    let hyperplanes = hyperpolar::exchange_hyperplanes(&ds);
    let grid = AngleGrid::equal_area(4, n_cells);
    let mut hc = vec![0usize; grid.cell_count()];
    for h in &hyperplanes {
        for c in grid.cells_crossing(h) {
            hc[c as usize] += 1;
        }
    }
    hc.sort_unstable();
    let quantile = |q: f64| hc[((hc.len() - 1) as f64 * q) as usize];
    println!("|H| = {}, cells = {}", hyperplanes.len(), grid.cell_count());
    println!(
        "|HC[c]| quantiles: p10={} p50={} p90={} p99={} max={}",
        quantile(0.10),
        quantile(0.50),
        quantile(0.90),
        quantile(0.99),
        hc.last().copied().unwrap_or(0)
    );
    let below100 = hc.iter().filter(|&&v| v < 100).count();
    println!(
        "cells with <100 crossing hyperplanes: {below100}/{} ({:.1}%)",
        hc.len(),
        100.0 * below100 as f64 / hc.len() as f64
    );
}

// =====================================================================
// §6.4  Figure 22 — preprocessing phase times vs n (d=3)
// =====================================================================

fn fig22(ctx: &Ctx) {
    let (ns, n_cells): (&[usize], usize) = if ctx.full {
        (&[200, 500, 1000, 2000, 4000, 6000], 40_000)
    } else {
        (&[200, 500, 1000], 1_000)
    };
    println!("## fig22 — approximate preprocessing, phase times vs n (d=3, N={n_cells})");
    println!("paper: cell-plane assignment grows fastest with n (|H| ~ n²); markcell dominates the total\n");
    print_phase_header();
    for &n in ns {
        let ds = compas_d3(n);
        let oracle = default_compas_oracle(&ds);
        let index = ApproxIndex::build(
            &ds,
            &oracle,
            &BuildOptions {
                n_cells,
                max_hyperplanes: Some(if ctx.full { 100_000 } else { 20_000 }),
                max_hyperplanes_per_cell: Some(if ctx.full { 48 } else { 24 }),
                ..Default::default()
            },
        )
        .expect("build");
        print_phase_row(&format!("n={n}"), &index);
    }
}

// =====================================================================
// §6.4  Figure 23 — preprocessing phase times vs d (n=100)
// =====================================================================

fn fig23(ctx: &Ctx) {
    let (ds_list, n_cells): (Vec<usize>, usize) = if ctx.full {
        (vec![3, 4, 5, 6], 40_000)
    } else {
        (vec![3, 4, 5], 1_000)
    };
    println!("## fig23 — approximate preprocessing, phase times vs d (n=100, N={n_cells})");
    println!("paper: all phases grow steeply with d (arrangement complexity ~ |H|^(d−1)); markcell dominates\n");
    print_phase_header();
    for &d in &ds_list {
        let ds = compas_d(100, d);
        let oracle = default_compas_oracle(&ds);
        let index = ApproxIndex::build(
            &ds,
            &oracle,
            &BuildOptions {
                n_cells,
                max_hyperplanes: if ctx.full { None } else { Some(2_000) },
                max_hyperplanes_per_cell: Some(match (ctx.full, d >= 5) {
                    (_, true) => 12,
                    (true, false) => 48,
                    (false, false) => 24,
                }),
                ..Default::default()
            },
        )
        .expect("build");
        print_phase_row(&format!("d={d}"), &index);
    }
}

fn print_phase_header() {
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "", "|H|", "sat cells", "hyperplane", "cellplane", "markcell", "coloring", "total"
    );
}

fn print_phase_row(label: &str, index: &ApproxIndex) {
    let s = index.stats();
    println!(
        "{label:>8} {:>8} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        s.hyperplane_count,
        s.satisfied_cells,
        fmt_duration(s.hyperplane_time),
        fmt_duration(s.cellplane_time),
        fmt_duration(s.markcell_time),
        fmt_duration(s.coloring_time),
        fmt_duration(s.total_time())
    );
}

// =====================================================================
// §6.3  query answering — 2-D
// =====================================================================

fn query2d(ctx: &Ctx) {
    let n = if ctx.full { 6889 } else { 2000 };
    println!("## query2d — 2DONLINE vs ordering the data (n={n})");
    println!("paper: 2DONLINE ≈ 30 µs; merely ordering by f ≈ 25 ms (n=6889)\n");

    let ds = compas_2d(n);
    let race = ds.type_attribute("race").expect("race");
    let k = ((n as f64) * 0.3).round() as usize;
    let oracle = Proportionality::new(race, k).with_max_share(0, 0.60);
    let (sweep, prep) = time(|| ray_sweep(&ds, &oracle).expect("sweep"));
    println!(
        "offline: {} intervals from {} exchanges in {}",
        sweep.intervals.len(),
        sweep.exchange_count,
        fmt_duration(prep)
    );

    let queries: Vec<[f64; 2]> = query_fan(1, 30)
        .into_iter()
        .map(|q| [q[0].cos(), q[0].sin()])
        .collect();
    let mut qi = 0usize;
    let online = time_avg(3000, || {
        qi = (qi + 1) % queries.len();
        online_2d(&sweep.intervals, &queries[qi]).expect("valid")
    });
    let mut qj = 0usize;
    let ordering = time_avg(30, || {
        qj = (qj + 1) % queries.len();
        ds.rank(&queries[qj])
    });
    println!(
        "2DONLINE: {} per query; ordering only: {} per query ({}x)",
        fmt_duration(online),
        fmt_duration(ordering),
        (ordering.as_nanos() as f64 / online.as_nanos().max(1) as f64).round()
    );
}

// =====================================================================
// §6.3  query answering — multi-dimensional
// =====================================================================

fn querymd(ctx: &Ctx) {
    let n = if ctx.full { 6889 } else { 1000 };
    let dims: &[usize] = if ctx.full { &[3, 4, 5, 6] } else { &[3, 4, 5] };
    println!("## querymd — MDONLINE vs ordering the data (n={n})");
    println!("paper: MDONLINE < 200 µs for d=3…6, independent of n; ordering ≈ 25 ms\n");
    println!(
        "{:>4} {:>14} {:>14} {:>10}",
        "d", "MDONLINE", "ordering", "ratio"
    );

    for &d in dims {
        let ds = compas_d(n, d);
        let oracle = default_compas_oracle(&ds);
        // The lookup timing (the claim under test) depends only on the
        // grid, not on how much of H was indexed, so quick mode builds a
        // deliberately small index.
        let index = ApproxIndex::build(
            &ds,
            &oracle,
            &BuildOptions {
                n_cells: if ctx.full { 40_000 } else { 1_000 },
                max_hyperplanes: Some(if ctx.full { 5_000 } else { 2_000 }),
                max_hyperplanes_per_cell: Some(match d {
                    _ if ctx.full => 48,
                    3 => 24,
                    4 => 16,
                    _ => 8,
                }),
                ..Default::default()
            },
        )
        .expect("build");
        let queries = query_fan(d - 1, 50);
        let mut qi = 0usize;
        let lookup = time_avg(3000, || {
            qi = (qi + 1) % queries.len();
            index.lookup(&queries[qi])
        });
        let weights: Vec<Vec<f64>> = queries.iter().map(|q| to_cartesian(1.0, q)).collect();
        let mut qj = 0usize;
        let ordering = time_avg(30, || {
            qj = (qj + 1) % weights.len();
            ds.rank(&weights[qj])
        });
        println!(
            "{d:>4} {:>14} {:>14} {:>10.0}",
            fmt_duration(lookup),
            fmt_duration(ordering),
            ordering.as_nanos() as f64 / lookup.as_nanos().max(1) as f64
        );
    }
}

// =====================================================================
// §6.4  sampling for large-scale settings (DOT)
// =====================================================================

fn sampling(ctx: &Ctx) {
    let n = if ctx.full { 1_322_024 } else { 200_000 };
    println!("## sampling — §5.4/§6.4 on DOT-like flights (n={n})");
    println!("paper: preprocess a 1,000-row sample (N=40,000) in 1,276 s; 100% of assigned functions valid on all 1.32M rows\n");

    let (full, gen_t) = time(|| dot_flights(n));
    println!(
        "generated {} flights in {}",
        full.len(),
        fmt_duration(gen_t)
    );
    let full_oracle = dot_oracle(&full);

    let ((index, sample), prep_t) = time(|| {
        build_on_sample(
            &full,
            1000,
            0xD07,
            |s| Box::new(dot_oracle(s)) as Box<dyn FairnessOracle>,
            &BuildOptions {
                n_cells: if ctx.full { 40_000 } else { 4_000 },
                max_hyperplanes: Some(30_000),
                ..Default::default()
            },
        )
        .expect("build")
    });
    println!(
        "preprocessed {}-row sample in {} ({} cells, {} distinct functions)",
        sample.len(),
        fmt_duration(prep_t),
        index.grid().cell_count(),
        index.functions().len()
    );

    let (report, val_t) = time(|| validate_against(&index, &full, &full_oracle));
    println!(
        "validation on the full data: {}/{} functions satisfactory ({:.1}%) in {}",
        report.satisfactory,
        report.functions_checked,
        100.0 * report.success_rate(),
        fmt_duration(val_t)
    );
}

// =====================================================================
// Ablation — equal-area vs uniform angle grid (Theorem 6 premise)
// =====================================================================

fn ablation_grid(ctx: &Ctx) {
    let n = if ctx.full { 500 } else { 200 };
    println!("## ablation-grid — equal-area vs uniform partitioning (n={n}, d=3)");
    println!("claim: Theorem 6's bound assumes equal-area cells; uniform grids have oversized cells near θ=0\n");

    let ds = compas_d3(n);
    let oracle = default_compas_oracle(&ds);
    println!(
        "{:>12} {:>10} {:>14} {:>14} {:>14}",
        "scheme", "cells", "max diameter", "mean answer θ", "worst answer θ"
    );
    for scheme in [PartitionScheme::EqualArea, PartitionScheme::Uniform] {
        let index = ApproxIndex::build(
            &ds,
            &oracle,
            &BuildOptions {
                n_cells: 1_000,
                scheme,
                max_hyperplanes: Some(10_000),
                ..Default::default()
            },
        )
        .expect("build");
        let grid = index.grid();
        let max_diam = grid.max_cell_diameter();
        let mut dists = Vec::new();
        for q in query_fan(2, 200) {
            if let Some(f) = index.lookup(&q) {
                dists.push(angular_distance(f, &q));
            }
        }
        println!(
            "{:>12} {:>10} {:>14.4} {:>14.4} {:>14.4}",
            format!("{scheme:?}"),
            grid.cell_count(),
            max_diam,
            mean(&dists).unwrap_or(f64::NAN),
            dists.iter().fold(0.0f64, |a, &b| a.max(b))
        );
    }
    println!("note: answer θ includes genuinely-unfair queries, so the mean is not the Theorem 6 error itself;");
    println!("the comparison between schemes at equal N is the ablation");
}

// =====================================================================
// Ablation — §8 dominance/convex-layer pruning
// =====================================================================

fn ablation_pruning(ctx: &Ctx) {
    let n = if ctx.full { 2000 } else { 600 };
    println!("## ablation-pruning — §8 top-k layer pre-filter (n={n})");
    println!("claim: for top-k oracles, exchanges among items outside the first k layers are irrelevant\n");
    println!(
        "{:>22} {:>4} {:>8} {:>10} {:>10} {:>8}",
        "dataset", "k", "kept", "|H| full", "|H| kept", "ratio"
    );
    let cases: Vec<(&str, Dataset)> = vec![
        ("compas d=2", compas_2d(n)),
        ("compas d=3", compas_d3(n)),
        (
            "correlated d=3",
            fairrank_datasets::synthetic::generic::correlated(n, 3, 0.8, 0.0, 11),
        ),
    ];
    for (name, ds) in cases {
        let k = (n / 20).max(5);
        let keep = fairrank::pruning::top_k_candidate_items(&ds, k);
        let sub = ds.subset(&keep);
        let h_full = slice::exchange_hyperplanes(&ds).len();
        let h_kept = slice::exchange_hyperplanes(&sub).len();
        println!(
            "{name:>22} {k:>4} {:>8} {h_full:>10} {h_kept:>10} {:>8.3}",
            keep.len(),
            h_kept as f64 / h_full.max(1) as f64
        );
    }
}

// =====================================================================
// smoke utilities used by several experiments
// =====================================================================

#[allow(dead_code)]
fn assert_fair(ds: &Dataset, oracle: &dyn FairnessOracle, angles: &[f64]) {
    let w = to_cartesian(1.0, angles);
    assert!(oracle.is_satisfactory(&ds.rank(&w)));
    let (_, back) = to_polar(&w);
    debug_assert_eq!(back.len(), angles.len());
}
