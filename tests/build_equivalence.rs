//! Build-path equivalence gate: every fast path introduced for the
//! offline build wall must be *bit-identical* to the slow reference
//! path it replaces.
//!
//! Three families of claims, each property-tested on randomized inputs:
//!
//! * **Parallel builders** — the 2-D ray sweep (sector-sharded), the
//!   exact SATREGIONS arrangement (threaded hyperplane enumeration +
//!   per-region verification), and the approximate grid (parallel
//!   MARKCELL) each produce byte-for-byte the same serialized ranker at
//!   1, 2, and 4 workers (`FairRankerBuilder::build_threads`), and a
//!   default build (all cores) equals the serial one.
//! * **MARKCELL probe-log replay** — every probe the grid build recorded
//!   (ranked through its cell's sure-in / undecided restriction) has the
//!   verdict and top-k threshold of a full `Dataset::rank` at the same
//!   angles, on data with negative values and exact score ties, at
//!   `k = 1`, `n − 1` and `n`, for set-based and rank-aware oracles.
//! * **Persist** — the dataset and region artifacts that replication
//!   and the ranker envelope carry decode to the value that was encoded,
//!   the row-major v1 and columnar v2 dataset layouts decode alike, and
//!   the decoders *reject* every single-byte mutation and every
//!   truncation of both artifacts.

use proptest::prelude::*;

use fairrank::approximate::{ApproxIndex, BuildOptions};
use fairrank::md::{sat_regions, ExactRegions, SatRegionsOptions};
use fairrank::persist::{
    decode_dataset, decode_regions, encode_dataset, encode_dataset_row_major, encode_regions,
};
use fairrank::{FairRanker, Strategy};
use fairrank_datasets::synthetic::generic;
use fairrank_datasets::Dataset;
use fairrank_fairness::{FairnessOracle, PrefixFairness, Proportionality};
use fairrank_geometry::grid::CellId;
use fairrank_geometry::polar::to_cartesian;

fn biased(n: usize, d: usize, seed: u64) -> (Dataset, Proportionality) {
    let ds = generic::uniform(n, d, 0.9, seed);
    let attr = ds.type_attribute("group").unwrap();
    let k = (n / 4).max(4);
    let oracle = Proportionality::new(attr, k).with_max_count(0, k / 2);
    (ds, oracle)
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
fn replay_probe_log<O>(ds: &Dataset, oracle: &O) -> Result<(), TestCaseError>
where
    O: FairnessOracle + Clone + 'static,
{
    let build = |threads: usize| {
        FairRanker::builder(ds.clone(), Box::new(oracle.clone()))
            .strategy(Strategy::MdApprox)
            .approx_options(BuildOptions {
                n_cells: 120,
                ..Default::default()
            })
            .build_threads(threads)
            .build()
            .unwrap()
    };
    let serial_ranker = build(1);
    let serial = serial_ranker.approx_index().unwrap();
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
        let par_ranker = build(threads);
        let par = par_ranker.approx_index().unwrap();
        prop_assert_eq!(par.functions(), serial.functions(), "threads = {}", threads);
        prop_assert_eq!(lookups(par), lookups(serial), "threads = {}", threads);
        prop_assert_eq!(bits(par), bits(serial), "threads = {}", threads);
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
                    ..Default::default()
                })
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
                    ..Default::default()
                })
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

    /// The regions a ranker built at 1, 2 and 4 threads holds are the
    /// regions of the free-standing `sat_regions` (all cores), byte for
    /// byte. Counts per thread count are covered by the unit test
    /// `threaded_sat_regions_bit_identical_to_serial`.
    #[test]
    fn sat_regions_threaded_matches_serial(seed in 0u64..1000, n in 12usize..24) {
        let (ds, oracle) = biased(n, 3, seed);
        let opts = SatRegionsOptions {
            max_hyperplanes: Some(30),
            ..Default::default()
        };
        let reference = sat_regions(&ds, &oracle, &opts).unwrap();
        let reference = encode_regions(&reference.satisfactory, reference.dim, &opts);
        for threads in [1usize, 2, 4] {
            let ranker = FairRanker::builder(ds.clone(), Box::new(oracle.clone()))
                .strategy(Strategy::MdExact)
                .sat_regions_options(opts.clone())
                .build_threads(threads)
                .build()
                .unwrap();
            let exact = ranker
                .backend()
                .as_any()
                .downcast_ref::<ExactRegions>()
                .unwrap();
            prop_assert_eq!(
                encode_regions(exact.regions(), ds.dim() - 1, exact.options()),
                reference.clone(),
                "threads = {}",
                threads
            );
        }
    }
}

// ---------------------------------------------------------------------
// Persist: the artifacts replication and the ranker envelope carry
// ---------------------------------------------------------------------

/// The encoded regions of a small capped SATREGIONS build.
fn small_regions(seed: u64) -> Vec<u8> {
    let (ds, oracle) = biased(12, 3, seed);
    let opts = SatRegionsOptions {
        max_hyperplanes: Some(20),
        ..Default::default()
    };
    let built = sat_regions(&ds, &oracle, &opts).unwrap();
    encode_regions(&built.satisfactory, built.dim, &opts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both dataset decode paths, row-major v1 and columnar v2, return
    /// the encoded dataset.
    #[test]
    fn chunked_dataset_decode_paths_agree(
        seed in 0u64..1000,
        n in 1usize..40,
        d in 2usize..5,
    ) {
        let ds = generic::uniform(n, d, 0.7, seed);
        prop_assert_eq!(decode_dataset(&encode_dataset(&ds)).unwrap(), ds.clone());
        prop_assert_eq!(decode_dataset(&encode_dataset_row_major(&ds)).unwrap(), ds);
    }

    /// Every single-byte mutation of the v2 dataset artifact (the
    /// replication bootstrap frame) and of the region artifact is
    /// rejected: the seal leaves no unprotected byte.
    #[test]
    fn chunked_mutation_rejected(
        seed in 0u64..1000,
        pos in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let ds = generic::uniform(12, 3, 0.7, seed);
        let mut bytes = encode_dataset(&ds);
        let at = pos % bytes.len();
        bytes[at] ^= flip;
        prop_assert!(decode_dataset(&bytes).is_err(), "dataset accepted flip at {}", at);
        let mut bytes = small_regions(seed);
        let at = pos % bytes.len();
        bytes[at] ^= flip;
        prop_assert!(decode_regions(&bytes).is_err(), "regions accepted flip at {}", at);
    }

    /// Every truncation of the v2 dataset artifact and of the region
    /// artifact is rejected.
    #[test]
    fn chunked_truncation_rejected(seed in 0u64..1000, cut in 1usize..10_000) {
        let ds = generic::uniform(12, 3, 0.7, seed);
        let bytes = encode_dataset(&ds);
        let at = cut % bytes.len();
        prop_assert!(decode_dataset(&bytes[..at]).is_err(), "dataset accepted cut at {}", at);
        let bytes = small_regions(seed);
        let at = cut % bytes.len();
        prop_assert!(decode_regions(&bytes[..at]).is_err(), "regions accepted cut at {}", at);
    }
}

/// Region artifacts decode identically through the standalone decoder
/// and through a ranker envelope, over regions produced by a real
/// SATREGIONS build.
#[test]
fn chunked_regions_decode_paths_agree() {
    let (ds, oracle) = biased(16, 3, 7);
    let opts = SatRegionsOptions {
        max_hyperplanes: Some(40),
        ..Default::default()
    };
    let built = sat_regions(&ds, &oracle, &opts).unwrap();
    assert!(
        !built.satisfactory.is_empty(),
        "fixture should produce regions"
    );
    let plain = encode_regions(&built.satisfactory, built.dim, &opts);
    let (whole, dim_whole, opts_whole) = decode_regions(&plain).unwrap();
    assert_eq!((dim_whole, &opts_whole), (built.dim, &opts));
    assert_eq!(encode_regions(&whole, dim_whole, &opts_whole), plain);

    let ranker = FairRanker::builder(ds.clone(), Box::new(oracle.clone()))
        .strategy(Strategy::MdExact)
        .sat_regions_options(opts)
        .build()
        .unwrap();
    let loaded = FairRanker::from_bytes(&ranker.to_bytes(), ds, Box::new(oracle)).unwrap();
    let exact = loaded
        .backend()
        .as_any()
        .downcast_ref::<ExactRegions>()
        .unwrap();
    assert_eq!(exact.options(), &opts_whole);
    assert_eq!(
        encode_regions(exact.regions(), dim_whole, &opts_whole),
        plain
    );
}

/// A default build, which uses every core, is bit-identical to a
/// serial one.
#[test]
fn env_thread_knob_is_bit_identical() {
    let (ds, oracle) = biased(40, 2, 11);
    let builder =
        || FairRanker::builder(ds.clone(), Box::new(oracle.clone())).strategy(Strategy::TwoD);
    let default = builder().build().unwrap().to_bytes();
    let serial = builder().build_threads(1).build().unwrap().to_bytes();
    assert_eq!(default, serial);
}
