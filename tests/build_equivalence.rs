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
//! * **Restricted MARKCELL probes** — a grid build whose probes rank
//!   through each cell's sure-in / undecided restriction gives the oracle
//!   the same verdict sequence, and builds the same index, as a build
//!   whose every probe ranks all `n` items, on data with negative values
//!   and exact score ties, at `k = 1`, `n − 1` and `n`, for set-based and
//!   rank-aware oracles.
//! * **Persist** — the dataset and region artifacts that replication
//!   and the ranker envelope carry decode to the value that was encoded,
//!   the row-major v1 and columnar v2 dataset layouts decode alike, and
//!   the decoders *reject* every single-byte mutation and every
//!   truncation of both artifacts.

use std::sync::{Arc, Mutex};

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

/// Records every verdict of the wrapped oracle, in call order. With
/// `full_rank` set it hides the oracle's top-k bound, so every verdict
/// ranking, MARKCELL's probes included, ranks all `n` items.
#[derive(Clone)]
struct Recording<O> {
    inner: O,
    full_rank: bool,
    verdicts: Arc<Mutex<Vec<bool>>>,
}

impl<O: FairnessOracle> FairnessOracle for Recording<O> {
    fn is_satisfactory(&self, ranking: &[u32]) -> bool {
        let verdict = self.inner.is_satisfactory(ranking);
        self.verdicts.lock().unwrap().push(verdict);
        verdict
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn top_k_bound(&self) -> Option<usize> {
        if self.full_rank {
            None
        } else {
            self.inner.top_k_bound()
        }
    }

    fn top_k_is_set(&self) -> bool {
        !self.full_rank && self.inner.top_k_is_set()
    }
}

/// Build the grid serially twice, once probing through each cell's
/// restriction and once ranking every item per probe, and require the
/// same verdicts in the same order, the same index and the same counts;
/// then check that 2 and 4 workers build the restricted index alike.
fn restricted_probes_match_full<O>(ds: &Dataset, oracle: &O) -> Result<(), TestCaseError>
where
    O: FairnessOracle + Clone + 'static,
{
    let build = |threads: usize, full_rank: bool| {
        let recording = Recording {
            inner: oracle.clone(),
            full_rank,
            verdicts: Arc::default(),
        };
        let verdicts = Arc::clone(&recording.verdicts);
        let ranker = FairRanker::builder(ds.clone(), Box::new(recording))
            .strategy(Strategy::MdApprox)
            .approx_options(BuildOptions {
                n_cells: 120,
                ..Default::default()
            })
            .build_threads(threads)
            .build()
            .unwrap();
        let verdicts = std::mem::take(&mut *verdicts.lock().unwrap());
        (ranker, verdicts)
    };
    let (restricted_ranker, restricted_verdicts) = build(1, false);
    let (full_ranker, full_verdicts) = build(1, true);
    let restricted = restricted_ranker.approx_index().unwrap();
    let full = full_ranker.approx_index().unwrap();

    let centers: Vec<Vec<f64>> = (0..restricted.grid().cell_count() as CellId)
        .map(|c| restricted.grid().center(c))
        .collect();
    let lookups = |idx: &ApproxIndex| -> Vec<Option<Vec<f64>>> {
        centers
            .iter()
            .map(|c| idx.lookup(c).map(<[f64]>::to_vec))
            .collect()
    };
    prop_assert_eq!(&restricted_verdicts, &full_verdicts);
    prop_assert_eq!(
        restricted_verdicts.len() as u64,
        restricted.stats().oracle_calls
    );
    prop_assert_eq!(restricted.functions(), full.functions());
    prop_assert_eq!(lookups(restricted), lookups(full));
    let (r, f) = (restricted.stats(), full.stats());
    prop_assert_eq!((r.oracle_calls, r.lp_solves), (f.oracle_calls, f.lp_solves));
    prop_assert_eq!(f.probe_items, f.oracle_calls * ds.len() as u64);
    prop_assert!(r.probe_items <= f.probe_items);

    for threads in [2usize, 4] {
        let (par_ranker, _) = build(threads, false);
        let par = par_ranker.approx_index().unwrap();
        prop_assert_eq!(
            par.functions(),
            restricted.functions(),
            "threads = {}",
            threads
        );
        prop_assert_eq!(lookups(par), lookups(restricted), "threads = {}", threads);
        let (a, b) = (par.stats(), restricted.stats());
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
// Restricted MARKCELL probes vs full rankings
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Set-based (`Proportionality`) and rank-aware (`PrefixFairness`,
    /// sorted top-k) oracles, with `k` at 1, `n − 1`, `n` or in between.
    #[test]
    fn markcell_restricted_probes_match_full_rankings(
        seed in 0u64..1000,
        n in 20usize..40,
        which_k in 0usize..4,
    ) {
        let ds = signed_with_duplicates(n, seed);
        let k = [1, n - 1, n, n / 3][which_k];
        let group = ds.type_attribute("group").unwrap();
        let set = Proportionality::new(group, k).with_max_count(0, k / 2);
        restricted_probes_match_full(&ds, &set)?;
        let sorted = PrefixFairness::new(group, 1, k, 0.4, 1.0);
        restricted_probes_match_full(&ds, &sorted)?;
    }
}

/// A hyperplane cap that keeps every hyperplane builds the uncapped
/// index, probe for probe.
#[test]
fn capped_build_keeping_every_hyperplane_matches_uncapped() {
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
        let uncapped = build(None);
        let capped = build(Some(ds.len() * ds.len()));
        assert_eq!(capped.functions(), uncapped.functions(), "seed {seed}");
        let (a, b) = (capped.stats(), uncapped.stats());
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
