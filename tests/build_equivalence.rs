//! Build-path equivalence gate: every fast path introduced for the
//! offline build wall must be *bit-identical* to the slow reference
//! path it replaces.
//!
//! Four families of claims, each property-tested on randomized inputs:
//!
//! * **Parallel builders** — the 2-D ray sweep (sector-sharded), the
//!   exact SATREGIONS arrangement (threaded hyperplane enumeration +
//!   per-region verification), and the approximate grid (parallel
//!   MARKCELL) each produce byte-for-byte the same serialized ranker at
//!   1, 2, and 4 workers.
//! * **MARKCELL probe-log replay** — every probe the grid build recorded
//!   (ranked through its cell's sure-in / undecided restriction) has the
//!   verdict and top-k threshold of a full `Dataset::rank` at the same
//!   angles, on data with negative values and exact score ties, at
//!   `k = 1`, `n − 1` and `n`, for set-based and rank-aware oracles.
//! * **Lazy SATREGIONS** — a ranker built with deferred region
//!   materialization answers every query identically to the eager
//!   build and serializes to the same bytes (serialization forces
//!   materialization).
//! * **Streaming persist** — the chunked v3 codec decodes to the same
//!   value through the whole-buffer and the incremental reader paths
//!   at every chunk granularity, and both paths *reject* every
//!   single-byte mutation and every truncation (per-chunk FNV seals).

use std::io::Cursor;

use proptest::prelude::*;

use fairrank::approximate::{ApproxIndex, BuildOptions};
use fairrank::md::{sat_regions, SatRegionsOptions};
use fairrank::persist::{
    decode_dataset, decode_dataset_from, decode_regions, decode_regions_from, encode_dataset,
    encode_dataset_chunked, encode_regions, encode_regions_chunked, DEFAULT_CHUNK_LEN,
};
use fairrank::{FairRanker, Strategy, SuggestRequest};
use fairrank_datasets::synthetic::generic;
use fairrank_datasets::Dataset;
use fairrank_fairness::{FairnessOracle, PrefixFairness, Proportionality};
use fairrank_geometry::grid::CellId;
use fairrank_geometry::polar::to_cartesian;
use fairrank_geometry::HALF_PI;

fn biased(n: usize, d: usize, seed: u64) -> (Dataset, Proportionality) {
    let ds = generic::uniform(n, d, 0.9, seed);
    let attr = ds.type_attribute("group").unwrap();
    let k = (n / 4).max(4);
    let oracle = Proportionality::new(attr, k).with_max_count(0, k / 2);
    (ds, oracle)
}

/// A fan of valid queries covering the positive orthant.
fn query_fan(d: usize, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            let t = (i as f64 + 0.5) / count as f64 * HALF_PI;
            let mut q = vec![0.4 + t.sin(); d];
            q[0] = 0.4 + t.cos();
            q[i % d] += 0.7;
            q
        })
        .collect()
}

/// `generic::uniform` rows with the second attribute shifted negative
/// and every fifth row a copy of the one before it (exact score ties
/// under every function).
fn signed_with_duplicates(n: usize, seed: u64) -> Dataset {
    let base = generic::uniform(n, 3, 0.8, seed);
    let mut rows: Vec<Vec<f64>> = (0..n).map(|i| base.row(i)).collect();
    for row in &mut rows {
        row[1] -= 0.6;
    }
    for i in (5..n).step_by(5) {
        rows[i] = rows[i - 1].clone();
    }
    let mut ds = Dataset::from_rows(base.attr_names().to_vec(), &rows).unwrap();
    let group = base.type_attribute("group").unwrap();
    ds.add_type_attribute("group", group.labels.clone(), group.values.clone())
        .unwrap();
    ds
}

/// Replay every MARKCELL probe record against a full ranking, and check
/// that 2 and 4 workers build the same index with the same probe logs.
/// The build is maintainable (no hyperplane cap), the only kind that
/// keeps its probe logs.
fn replay_probe_log(ds: &Dataset, oracle: &dyn FairnessOracle) -> Result<(), TestCaseError> {
    let build = |threads: usize| {
        ApproxIndex::build(
            ds,
            oracle,
            &BuildOptions {
                n_cells: 120,
                threads: Some(threads),
                ..Default::default()
            },
        )
        .unwrap()
    };
    let serial = build(1);
    let kth = oracle.top_k_bound().filter(|&k| k > 0 && k <= ds.len());
    let mut probes = 0usize;
    for rec in serial.probe_log().iter().flatten() {
        let w = to_cartesian(1.0, rec.angles());
        let ranking = ds.rank(&w);
        prop_assert_eq!(rec.verdict(), oracle.is_satisfactory(&ranking));
        let threshold = kth.map_or(f64::NAN, |k| ds.score(&w, ranking[k - 1] as usize));
        prop_assert_eq!(rec.threshold().to_bits(), threshold.to_bits());
        probes += 1;
    }
    prop_assert_eq!(probes as u64, serial.stats().oracle_calls);
    prop_assert!(serial.stats().probe_items <= serial.stats().oracle_calls * ds.len() as u64);

    let bits = |idx: &ApproxIndex| -> Vec<(Vec<u64>, bool, u64)> {
        idx.probe_log()
            .iter()
            .flatten()
            .map(|r| {
                let angles = r.angles().iter().map(|a| a.to_bits()).collect();
                (angles, r.verdict(), r.threshold().to_bits())
            })
            .collect()
    };
    let centers: Vec<Vec<f64>> = (0..serial.grid().cell_count() as CellId)
        .map(|c| serial.grid().center(c))
        .collect();
    let lookups = |idx: &ApproxIndex| -> Vec<Option<Vec<f64>>> {
        centers
            .iter()
            .map(|c| idx.lookup(c).map(<[f64]>::to_vec))
            .collect()
    };
    for threads in [2usize, 4] {
        let par = build(threads);
        prop_assert_eq!(par.functions(), serial.functions(), "threads = {}", threads);
        prop_assert_eq!(lookups(&par), lookups(&serial), "threads = {}", threads);
        prop_assert_eq!(bits(&par), bits(&serial), "threads = {}", threads);
        let (a, b) = (par.stats(), serial.stats());
        prop_assert_eq!(
            (
                a.oracle_calls,
                a.lp_solves,
                a.probe_items,
                a.satisfied_cells
            ),
            (
                b.oracle_calls,
                b.lp_solves,
                b.probe_items,
                b.satisfied_cells
            ),
            "threads = {}",
            threads
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------
// MARKCELL probe-log replay
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Set-based (`Proportionality`) and rank-aware (`PrefixFairness`,
    /// sorted top-k) oracles, with `k` at 1, `n − 1`, `n` or in between.
    #[test]
    fn markcell_probe_log_replays_against_full_rankings(
        seed in 0u64..1000,
        n in 20usize..40,
        which_k in 0usize..4,
    ) {
        let ds = signed_with_duplicates(n, seed);
        let k = [1, n - 1, n, n / 3][which_k];
        let group = ds.type_attribute("group").unwrap();
        let set = Proportionality::new(group, k).with_max_count(0, k / 2);
        replay_probe_log(&ds, &set)?;
        let sorted = PrefixFairness::new(group, 1, k, 0.4, 1.0);
        replay_probe_log(&ds, &sorted)?;
    }
}

/// An unmaintainable build (here: a hyperplane cap that keeps every
/// hyperplane) rebuilds on every update, so it keeps no probe log; the
/// search itself is the maintainable build's, probe for probe.
#[test]
fn unmaintainable_build_keeps_no_probe_log() {
    for seed in [3u64, 17, 29] {
        let ds = signed_with_duplicates(30, seed);
        let group = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(group, 10).with_max_count(0, 5);
        let build = |max_hyperplanes: Option<usize>| {
            ApproxIndex::build(
                &ds,
                &oracle,
                &BuildOptions {
                    n_cells: 120,
                    max_hyperplanes,
                    threads: Some(2),
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let logged = build(None);
        let capped = build(Some(ds.len() * ds.len()));
        assert!(logged.is_maintainable() && !capped.is_maintainable());
        assert!(capped.probe_log().is_empty(), "seed {seed}");
        let records = logged.probe_log().iter().flatten().count() as u64;
        assert_eq!(records, logged.stats().oracle_calls, "seed {seed}");
        assert_eq!(capped.functions(), logged.functions(), "seed {seed}");
        let (a, b) = (capped.stats(), logged.stats());
        assert_eq!(
            (
                a.oracle_calls,
                a.lp_solves,
                a.probe_items,
                a.satisfied_cells
            ),
            (
                b.oracle_calls,
                b.lp_solves,
                b.probe_items,
                b.satisfied_cells
            ),
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// Parallel builders: serial vs 2 vs 4 workers, byte-identical rankers
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// 2DRAYSWEEP sharded by angular sector: same interval structure,
    /// same serialized ranker, for every worker count.
    #[test]
    fn twod_parallel_build_bit_identical(seed in 0u64..1000, n in 24usize..64) {
        let (ds, oracle) = biased(n, 2, seed);
        let build = |threads: usize| {
            FairRanker::builder(ds.clone(), Box::new(oracle.clone()))
                .strategy(Strategy::TwoD)
                .build_threads(threads)
                .build()
                .unwrap()
                .to_bytes()
        };
        let serial = build(1);
        for threads in [2usize, 4] {
            prop_assert_eq!(&build(threads), &serial, "threads = {}", threads);
        }
    }

    /// Exact SATREGIONS: threaded hyperplane enumeration and per-region
    /// witness verification reproduce the serial arrangement exactly.
    #[test]
    fn exact_parallel_build_bit_identical(seed in 0u64..1000, n in 12usize..28) {
        let (ds, oracle) = biased(n, 3, seed);
        let build = |threads: usize| {
            FairRanker::builder(ds.clone(), Box::new(oracle.clone()))
                .strategy(Strategy::MdExact)
                .sat_regions_options(SatRegionsOptions {
                    max_hyperplanes: Some(40),
                    threads: Some(threads),
                    ..Default::default()
                })
                .build()
                .unwrap()
                .to_bytes()
        };
        let serial = build(1);
        for threads in [2usize, 4] {
            prop_assert_eq!(&build(threads), &serial, "threads = {}", threads);
        }
    }

    /// Approximate grid: parallel MARKCELL assembles the same index —
    /// same satisfied cells, functions, coloring — as the serial loop.
    #[test]
    fn approx_parallel_build_bit_identical(seed in 0u64..1000, n in 20usize..48) {
        let (ds, oracle) = biased(n, 3, seed);
        let build = |threads: usize| {
            FairRanker::builder(ds.clone(), Box::new(oracle.clone()))
                .strategy(Strategy::MdApprox)
                .approx_options(BuildOptions {
                    n_cells: 120,
                    max_hyperplanes: Some(80),
                    threads: Some(threads),
                    ..Default::default()
                })
                .build()
                .unwrap()
                .to_bytes()
        };
        let serial = build(1);
        for threads in [2usize, 4] {
            prop_assert_eq!(&build(threads), &serial, "threads = {}", threads);
        }
    }

    /// Parallel SATREGIONS at the raw algorithm level, not just through
    /// the ranker: identical witnesses, counts, and region sets.
    #[test]
    fn sat_regions_threaded_matches_serial(seed in 0u64..1000, n in 12usize..24) {
        let (ds, oracle) = biased(n, 3, seed);
        let run = |threads: usize| {
            sat_regions(&ds, &oracle, &SatRegionsOptions {
                max_hyperplanes: Some(30),
                threads: Some(threads),
                ..Default::default()
            })
            .unwrap()
        };
        let serial = run(1);
        for threads in [2usize, 4] {
            let par = run(threads);
            prop_assert_eq!(par.region_count, serial.region_count);
            prop_assert_eq!(par.hyperplane_count, serial.hyperplane_count);
            prop_assert_eq!(
                encode_regions(&par.satisfactory, par.dim),
                encode_regions(&serial.satisfactory, serial.dim)
            );
        }
    }
}

// ---------------------------------------------------------------------
// Lazy SATREGIONS materialization
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Lazy region materialization: every query answered identically to
    /// the eager build, and serialization (which forces materialization)
    /// yields the same bytes.
    #[test]
    fn lazy_regions_match_eager(seed in 0u64..1000, n in 12usize..24) {
        let (ds, oracle) = biased(n, 3, seed);
        let build = |lazy: bool| {
            FairRanker::builder(ds.clone(), Box::new(oracle.clone()))
                .strategy(Strategy::MdExact)
                .sat_regions_options(SatRegionsOptions {
                    max_hyperplanes: Some(40),
                    ..Default::default()
                })
                .lazy_regions(lazy)
                .build()
                .unwrap()
        };
        let eager = build(false);
        let lazy = build(true);
        for q in query_fan(3, 12) {
            let a = eager.respond(&SuggestRequest::new(q.clone())).unwrap();
            let b = lazy.respond(&SuggestRequest::new(q)).unwrap();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(eager.to_bytes(), lazy.to_bytes());
    }
}

// ---------------------------------------------------------------------
// Streaming persist: chunked decode ≡ whole-buffer decode
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chunked dataset artifacts decode identically through the
    /// whole-buffer and streaming paths, at arbitrary chunk sizes.
    #[test]
    fn chunked_dataset_decode_paths_agree(
        seed in 0u64..1000,
        n in 1usize..40,
        d in 2usize..5,
        chunk_len in 1usize..4096,
    ) {
        let ds = generic::uniform(n, d, 0.7, seed);
        let bytes = encode_dataset_chunked(&ds, chunk_len);
        let whole = decode_dataset(&bytes).unwrap();
        let mut cursor = Cursor::new(bytes.as_slice());
        let streamed = decode_dataset_from(&mut cursor).unwrap();
        prop_assert_eq!(cursor.position() as usize, bytes.len());
        prop_assert_eq!(&whole, &ds);
        prop_assert_eq!(&streamed, &ds);
        // And the chunked artifact carries the same value as the plain
        // v2 whole-buffer encoding of the same dataset.
        prop_assert_eq!(decode_dataset(&encode_dataset(&ds)).unwrap(), ds);
    }

    /// Every single-byte mutation of a chunked artifact is rejected by
    /// both decode paths — the per-chunk and outer seals leave no
    /// unprotected byte.
    #[test]
    fn chunked_mutation_rejected(
        seed in 0u64..1000,
        pos in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let ds = generic::uniform(12, 3, 0.7, seed);
        let mut bytes = encode_dataset_chunked(&ds, 64);
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        prop_assert!(decode_dataset(&bytes).is_err(), "whole-buffer accepted flip at {}", pos);
        prop_assert!(
            decode_dataset_from(&mut Cursor::new(bytes.as_slice())).is_err(),
            "streaming accepted flip at {}",
            pos
        );
    }

    /// Every truncation of a chunked artifact is rejected by both
    /// decode paths.
    #[test]
    fn chunked_truncation_rejected(seed in 0u64..1000, cut in 1usize..10_000) {
        let ds = generic::uniform(12, 3, 0.7, seed);
        let bytes = encode_dataset_chunked(&ds, 64);
        let cut = cut % bytes.len();
        let short = &bytes[..cut];
        prop_assert!(decode_dataset(short).is_err(), "whole-buffer accepted cut at {}", cut);
        prop_assert!(
            decode_dataset_from(&mut Cursor::new(short)).is_err(),
            "streaming accepted cut at {}",
            cut
        );
    }
}

/// Chunked region artifacts stream identically to the whole-buffer
/// path, over regions produced by a real SATREGIONS build.
#[test]
fn chunked_regions_decode_paths_agree() {
    let (ds, oracle) = biased(16, 3, 7);
    let built = sat_regions(
        &ds,
        &oracle,
        &SatRegionsOptions {
            max_hyperplanes: Some(40),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        !built.satisfactory.is_empty(),
        "fixture should produce regions"
    );
    let plain = encode_regions(&built.satisfactory, built.dim);
    for chunk_len in [1usize, 33, DEFAULT_CHUNK_LEN] {
        let bytes = encode_regions_chunked(&built.satisfactory, built.dim, chunk_len);
        let (whole, dim_whole) = decode_regions(&bytes).unwrap();
        let mut cursor = Cursor::new(bytes.as_slice());
        let (streamed, dim_streamed) = decode_regions_from(&mut cursor).unwrap();
        assert_eq!(cursor.position() as usize, bytes.len());
        assert_eq!(dim_whole, built.dim);
        assert_eq!(dim_streamed, built.dim);
        assert_eq!(encode_regions(&whole, dim_whole), plain);
        assert_eq!(encode_regions(&streamed, dim_streamed), plain);
    }
}

/// The environment knob resolves like the explicit builder knob: a
/// build under `FAIRRANK_BUILD_THREADS` stays bit-identical to serial.
/// (Env vars are process-global, so this stays a single sequential
/// test; the values are restored before it returns.)
#[test]
fn env_thread_knob_is_bit_identical() {
    let (ds, oracle) = biased(40, 2, 11);
    let build = || {
        FairRanker::builder(ds.clone(), Box::new(oracle.clone()))
            .strategy(Strategy::TwoD)
            .build()
            .unwrap()
            .to_bytes()
    };
    let before = std::env::var("FAIRRANK_BUILD_THREADS").ok();
    std::env::set_var("FAIRRANK_BUILD_THREADS", "1");
    let serial = build();
    std::env::set_var("FAIRRANK_BUILD_THREADS", "4");
    let parallel = build();
    match before {
        Some(v) => std::env::set_var("FAIRRANK_BUILD_THREADS", v),
        None => std::env::remove_var("FAIRRANK_BUILD_THREADS"),
    }
    assert_eq!(parallel, serial);
}
