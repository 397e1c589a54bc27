//! The index shortcuts of the serving path, batching and strategy
//! selection must be invisible in the answers: `respond_batch` is
//! element-wise identical to serial `respond`, and its index-first
//! answers serve the same weights, verdict, version and top-k as the
//! audit path (`index_fastpath = false`) on every backend;
//! `Strategy::Auto` answers bit-identically to the explicit strategy it
//! resolves to; and the approximate grid's "already fair?" check through
//! a cell's top-k partition answers bit-identically to the full-ranking
//! audit path.

use proptest::prelude::*;

use fairrank::approximate::BuildOptions;
use fairrank::md::SatRegionsOptions;
use fairrank::{
    DatasetUpdate, FairRanker, KnownFairness, Strategy, SuggestOptions, SuggestRequest, Suggestion,
};
use fairrank_datasets::synthetic::generic;
use fairrank_datasets::Dataset;
use fairrank_fairness::{FairnessOracle, PrefixFairness, Proportionality};
use fairrank_geometry::grid::CellId;
use fairrank_geometry::polar::to_cartesian;
use fairrank_geometry::HALF_PI;

fn oracle_for(ds: &Dataset, kfrac: f64, cap_frac: f64) -> Proportionality {
    let attr = ds.type_attribute("group").unwrap();
    let k = ((ds.len() as f64) * kfrac).round().max(2.0) as usize;
    let cap = ((k as f64) * cap_frac).round().max(1.0) as usize;
    Proportionality::new(attr, k).with_max_count(0, cap)
}

fn builder_for(ds: &Dataset, oracle: &Proportionality) -> fairrank::FairRankerBuilder {
    FairRanker::builder(ds.clone(), Box::new(oracle.clone()))
        .sat_regions_options(SatRegionsOptions {
            max_hyperplanes: Some(50),
            ..Default::default()
        })
        .approx_options(BuildOptions {
            n_cells: 120,
            max_hyperplanes: Some(80),
            ..Default::default()
        })
}

/// Queries spanning the orthant, including axis-aligned boundaries.
fn fan(d: usize, count: usize) -> Vec<Vec<f64>> {
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
    queries
}

/// Whether the slice point of `q` clears the slice's walls and every
/// exchange hyperplane of `ds` by more than `margin`.
fn off_every_exchange(ds: &Dataset, q: &[f64], margin: f64) -> bool {
    let x = fairrank::md::slice::point(q).unwrap();
    let walls = x.iter().all(|&v| v > margin) && x.iter().sum::<f64>() < 1.0 - 2.0 * margin;
    let hyperplanes = fairrank::md::exchange_hyperplanes(ds);
    walls && hyperplanes.iter().all(|h| h.eval(&x).abs() > margin)
}

fn audit(req: &SuggestRequest) -> SuggestRequest {
    req.clone()
        .with_options(SuggestOptions::default().index_fastpath(false))
}

/// `respond_batch` equals serial `respond` bit for bit, and serves what
/// the audit path serves. Only `stats.index_decided` may differ: the
/// index decides the verdicts it knows exactly, the audit path asks the
/// oracle for every one. Returns the index-first answers.
fn assert_index_first_matches_audit(ranker: &FairRanker, queries: &[Vec<f64>]) -> Vec<Suggestion> {
    let reqs: Vec<SuggestRequest> = queries
        .iter()
        .cloned()
        .map(|q| SuggestRequest::new(q).with_top_k(5))
        .collect();
    let serial: Vec<Suggestion> = reqs.iter().map(|r| ranker.respond(r).unwrap()).collect();
    let batch = ranker.respond_batch(&reqs).unwrap();
    assert_eq!(batch, serial, "respond_batch diverged from serial");
    let audits: Vec<SuggestRequest> = reqs.iter().map(audit).collect();
    let audited = ranker.respond_batch(&audits).unwrap();
    for ((r, a), s) in reqs.iter().zip(&audited).zip(&serial) {
        assert!(!a.stats.index_decided, "the audit path asked the index");
        assert_eq!(
            (&a.weights, &a.fairness, a.version, &a.stats.top_k),
            (&s.weights, &s.fairness, s.version, &s.stats.top_k),
            "index-first answer diverged from the audit path on {r:?}"
        );
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 2-D backend: the index decides every default request's verdict.
    #[test]
    fn index_first_equals_audit_twod(
        seed in 0u64..400,
        n in 20usize..70,
        kfrac in 0.15f64..0.5,
        cap_frac in 0.3f64..0.9,
    ) {
        let ds = generic::uniform(n, 2, 0.9, seed);
        let oracle = oracle_for(&ds, kfrac, cap_frac);
        let ranker = builder_for(&ds, &oracle)
            .strategy(Strategy::TwoD)
            .build()
            .unwrap();
        let answers = assert_index_first_matches_audit(&ranker, &fan(2, 40));
        prop_assert!(
            answers.iter().all(|a| a.stats.index_decided),
            "a default 2-D request reached the oracle"
        );
    }

    /// Exact m-D backend. On an uncapped build the index decides every
    /// fair query that lies inside the weight slice and off every
    /// exchange hyperplane (by more than the arrangement's split margin);
    /// the oracle decides the rest.
    #[test]
    fn index_first_equals_audit_md_exact(
        seed in 0u64..200,
        n in 12usize..26,
    ) {
        let ds = generic::uniform(n, 3, 0.9, seed);
        let oracle = oracle_for(&ds, 0.3, 0.5);
        let ranker = builder_for(&ds, &oracle)
            .sat_regions_options(SatRegionsOptions::default())
            .strategy(Strategy::MdExact)
            .build()
            .unwrap();
        let mut queries = fan(3, 18);
        queries.extend((0..36).map(|c| {
            let at = |i: usize| (i as f64 + 0.5) / 6.0 * HALF_PI;
            to_cartesian(1.0, &[at(c / 6), at(c % 6)])
        }));
        let answers = assert_index_first_matches_audit(&ranker, &queries);
        for (q, a) in queries.iter().zip(&answers) {
            let fair = matches!(a.fairness, KnownFairness::AlreadyFair);
            prop_assert!(!a.stats.index_decided || fair, "index decided an unfair query");
            if fair && off_every_exchange(&ds, q, 1e-6) {
                prop_assert!(a.stats.index_decided, "interior fair query {:?} reached the oracle", q);
            }
        }
    }

    /// Approximate grid backend (verdicts ranked through the cells'
    /// top-k partitions).
    #[test]
    fn index_first_equals_audit_md_approx(
        seed in 0u64..200,
        n in 20usize..45,
    ) {
        let ds = generic::uniform(n, 3, 0.85, seed);
        let oracle = oracle_for(&ds, 0.25, 0.5);
        let ranker = builder_for(&ds, &oracle)
            .strategy(Strategy::MdApprox)
            .build()
            .unwrap();
        assert_index_first_matches_audit(&ranker, &fan(3, 24));
    }

    /// `Strategy::Auto` builds the same index — and therefore answers
    /// bit-identically — as the explicit strategy it resolves to, on
    /// datasets straddling every branch of the rule (d = 2, small m-D,
    /// large m-D).
    #[test]
    fn auto_matches_explicit_strategy(
        seed in 0u64..300,
        shape in 0usize..3,
    ) {
        let (n, d) = match shape {
            0 => (40, 2),                                        // → TwoD
            1 => (fairrank::backend::AUTO_EXACT_MAX_ITEMS, 3),   // → MdExact
            _ => (fairrank::backend::AUTO_EXACT_MAX_ITEMS + 8, 3), // → MdApprox
        };
        let ds = generic::uniform(n, d, 0.85, seed);
        let oracle = oracle_for(&ds, 0.25, 0.6);
        let picked = Strategy::Auto.pick(&ds);
        let auto = builder_for(&ds, &oracle).build().unwrap();
        let explicit = builder_for(&ds, &oracle).strategy(picked).build().unwrap();
        prop_assert_eq!(auto.backend_stats(), explicit.backend_stats());
        for q in fan(d, 16) {
            let req = SuggestRequest::new(q.clone());
            prop_assert_eq!(
                auto.respond(&req).unwrap(),
                explicit.respond(&req).unwrap(),
                "Auto ({:?}) diverged at {:?}", picked, q
            );
        }
    }
}

/// One invalid query fails the whole batch, whatever the batch size and
/// wherever the query sits, on the index-first and the audit path alike
/// (checked upfront — no partial answers, no panics); the valid rest of
/// the batch still answers as `respond` does.
#[test]
fn degenerate_shard_counts_still_validate() {
    let ds = generic::uniform(20, 2, 0.9, 405);
    let oracle = oracle_for(&ds, 0.25, 0.6);
    let ranker = builder_for(&ds, &oracle)
        .strategy(Strategy::TwoD)
        .build()
        .unwrap();
    let bad = SuggestRequest::new(vec![-1.0, 0.5]);
    for size in [1, 2, 3, 33] {
        let good: Vec<SuggestRequest> = fan(2, size)
            .into_iter()
            .take(size - 1)
            .map(SuggestRequest::new)
            .collect();
        for at in [0, (size - 1) / 2, size - 1] {
            let mut batch = good.clone();
            batch.insert(at, bad.clone());
            assert!(ranker.respond_batch(&batch).is_err(), "size {size} at {at}");
            let audits: Vec<SuggestRequest> = batch.iter().map(audit).collect();
            assert!(
                ranker.respond_batch(&audits).is_err(),
                "audit size {size} at {at}"
            );
        }
        let answers = ranker.respond_batch(&good).unwrap();
        for (r, a) in good.iter().zip(&answers) {
            assert_eq!(*a, ranker.respond(r).unwrap(), "size {size} at {r:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Cell-partitioned oracle pass vs the full-ranking audit path
// ---------------------------------------------------------------------

/// `generic::uniform` rows in 3-D with the second attribute shifted
/// negative and every fourth row a copy of the one before it, so exact
/// score ties can sit at the top-k boundary under every function.
fn signed_with_duplicates(n: usize, seed: u64) -> Dataset {
    let base = generic::uniform(n, 3, 0.8, seed);
    let mut rows: Vec<Vec<f64>> = (0..n).map(|i| base.row(i)).collect();
    for row in &mut rows {
        row[1] -= 0.5;
    }
    for i in (4..n).step_by(4) {
        rows[i] = rows[i - 1].clone();
    }
    let mut ds = Dataset::from_rows(base.attr_names().to_vec(), &rows).unwrap();
    let group = base.type_attribute("group").unwrap();
    ds.add_type_attribute("group", group.labels.clone(), group.values.clone())
        .unwrap();
    ds
}

/// Query directions: the corners, edge midpoints and centre of a spread
/// of grid cells (angles exactly on cell boundaries), plus the random
/// directions of the case, each at norms from 1e-6 to 1e6 and at norms
/// whose scores underflow or overflow (which must rank fully).
fn partition_queries(ranker: &FairRanker, random: &[(f64, f64)], norm_exp: f64) -> Vec<Vec<f64>> {
    let grid = ranker.approx_index().expect("approximate grid").grid();
    let cells = grid.cell_count() as CellId;
    let mut directions: Vec<Vec<f64>> = Vec::new();
    for c in (0..cells).step_by((cells as usize / 9).max(1)) {
        let (bl, tr) = grid.cell_bounds(c);
        let centre = grid.center(c);
        directions.extend([
            bl.to_vec(),
            tr.to_vec(),
            vec![bl[0], tr[1]],
            vec![centre[0], bl[1]],
            vec![tr[0], centre[1]],
            centre,
        ]);
    }
    directions.extend(random.iter().map(|&(a, b)| vec![a, b]));
    let norms = [1e-310, 1e-6, 1e-3, 1.0, 10f64.powf(norm_exp), 1e6, 1e308];
    directions
        .iter()
        .flat_map(|angles| norms.iter().map(move |&r| to_cartesian(r, angles)))
        .collect()
}

/// Every answer of the fast path is bit-identical to the audit path's
/// (compared through `Debug`, which tells `-0.0` from `0.0`). Returns how
/// many of the queries the partition covers.
fn assert_partition_pass_matches_audit(
    ranker: &FairRanker,
    queries: &[Vec<f64>],
    label: &str,
) -> Result<usize, TestCaseError> {
    let fast: Vec<SuggestRequest> = queries.iter().cloned().map(SuggestRequest::new).collect();
    let audit: Vec<SuggestRequest> = fast
        .iter()
        .cloned()
        .map(|r| r.with_options(SuggestOptions::default().index_fastpath(false)))
        .collect();
    let want = format!("{:?}", ranker.respond_batch(&audit).unwrap());
    prop_assert_eq!(
        &format!("{:?}", ranker.respond_batch(&fast).unwrap()),
        &want,
        "{}",
        label
    );
    let backend = ranker.backend();
    Ok(queries
        .iter()
        .filter(|q| backend.top_k_partition(q).is_some_and(|p| p.covers(q)))
        .count())
}

fn check_partitioned_serving(
    ds: &Dataset,
    oracle: &(dyn FairnessOracle + 'static),
    boxed: impl Fn() -> Box<dyn FairnessOracle>,
    threads: usize,
    maintainable: bool,
    random: &[(f64, f64)],
    norm_exp: f64,
) -> Result<(), TestCaseError> {
    let opts = BuildOptions {
        n_cells: 80,
        max_hyperplanes: (!maintainable).then_some(120),
        ..Default::default()
    };
    let mut ranker = FairRanker::builder(ds.clone(), boxed())
        .strategy(Strategy::MdApprox)
        .approx_options(opts)
        .build_threads(threads)
        .build()
        .unwrap();
    let label = format!("{} threads={threads}", oracle.describe());
    let queries = partition_queries(&ranker, random, norm_exp);
    let covered = assert_partition_pass_matches_audit(&ranker, &queries, &label)?;
    prop_assert!(covered > 0, "{}: no query used a partition", label);

    let dup = ds.row(ds.len() - 1);
    let updates = [
        DatasetUpdate::Insert {
            scores: dup.clone(),
            groups: vec![1],
        },
        DatasetUpdate::Rescore {
            item: 2,
            scores: vec![dup[0], -dup[1], dup[2]],
        },
        DatasetUpdate::Remove { item: 0 },
    ];
    for (i, update) in updates.into_iter().enumerate() {
        ranker.update(update).unwrap();
        let queries = partition_queries(&ranker, random, norm_exp);
        assert_partition_pass_matches_audit(&ranker, &queries, &format!("{label} update {i}"))?;
    }

    // A decoded ranker persists no partitions; attaching it recomputes
    // them for the replica's dataset and oracle, by the definition
    // MARKCELL used.
    let bytes = ranker.to_bytes();
    let decoded = FairRanker::from_bytes(&bytes, ranker.dataset().clone(), boxed()).unwrap();
    let (built, attached) = (
        ranker.approx_index().unwrap(),
        decoded.approx_index().unwrap(),
    );
    for c in 0..built.grid().cell_count() as CellId {
        let centre = built.grid().center(c);
        prop_assert_eq!(
            built.partition(&centre),
            attached.partition(&centre),
            "{} cell {}",
            label,
            c
        );
    }
    let covered =
        assert_partition_pass_matches_audit(&decoded, &queries, &format!("{label} decoded"))?;
    prop_assert!(
        covered > 0,
        "{}: the decoded ranker has no partitions",
        label
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The partitioned "already fair?" check, for a set-based oracle
    /// (`Proportionality`) and a rank-aware one (`PrefixFairness`), on
    /// signed data with duplicate rows, at 1 and 4 build threads, on a
    /// rebuilt (capped) and a maintained (uncapped) index, after Insert,
    /// Rescore and Remove updates and after `to_bytes`/`from_bytes`.
    #[test]
    fn partitioned_oracle_pass_matches_full_ranking(
        seed in 0u64..1000,
        n in 16usize..30,
        kfrac in 0.2f64..0.6,
        maintained in 0usize..2,
        random in prop::collection::vec((0.0..HALF_PI, 0.0..HALF_PI), 6),
        norm_exp in -6.0f64..6.0,
    ) {
        let maintainable = maintained == 1;
        let ds = signed_with_duplicates(n, seed);
        let k = ((n as f64 * kfrac).round() as usize).clamp(2, n - 2);
        let group = ds.type_attribute("group").unwrap().clone();
        let set = Proportionality::new(&group, k).with_max_count(0, k / 2);
        let sorted = PrefixFairness::new(&group, 1, k, 0.4, 1.0);
        for threads in [1usize, 4] {
            let o = set.clone();
            check_partitioned_serving(
                &ds, &set, || Box::new(o.clone()), threads, maintainable, &random, norm_exp,
            )?;
            let o = sorted.clone();
            check_partitioned_serving(
                &ds, &sorted, || Box::new(o.clone()), threads, maintainable, &random, norm_exp,
            )?;
        }
    }
}
