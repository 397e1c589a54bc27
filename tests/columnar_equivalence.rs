//! Columnar-core equivalence gate: the vectorized kernels, the scalar
//! per-item reference, and the **pre-refactor row-major semantics**
//! (re-implemented here as an independent model) must agree
//! bit-identically — on raw scoring, on full and top-k rankings, across
//! all three index backends, after incremental update sequences, and
//! through both persistence layouts (columnar v2 and legacy row-major
//! v1 streams).
//!
//! This is the contract that made the struct-of-arrays refactor safe to
//! land: the columnar layout and its kernels are an optimization, never
//! a semantic. `score_all_into` accumulates column `j` in ascending
//! order starting from 0.0 — the exact operation sequence of the scalar
//! fold `((0 + w₀x₀) + w₁x₁) + …` — so equality below is on f64 *bit
//! patterns*, not within a tolerance.

use proptest::prelude::*;

use fairrank::approximate::BuildOptions;
use fairrank::persist::{decode_dataset, encode_dataset, encode_dataset_row_major};
use fairrank::{FairRanker, Strategy, SuggestRequest};
use fairrank_datasets::kernels;
use fairrank_datasets::synthetic::generic;
use fairrank_datasets::{Dataset, RankWorkspace};
use fairrank_fairness::Proportionality;

// ---------------------------------------------------------------------
// The pre-refactor row-major model
// ---------------------------------------------------------------------

/// The `Dataset` scoring/ranking semantics as they were before the
/// columnar refactor: one flat row-major `Vec<f64>`, one scalar dot
/// product per item, a full `sort_unstable_by` over all indices. Kept
/// deliberately independent of the library's code paths.
struct RowMajorRef {
    flat: Vec<f64>,
    n: usize,
    d: usize,
}

impl RowMajorRef {
    fn of(ds: &Dataset) -> RowMajorRef {
        RowMajorRef {
            flat: ds.to_row_major(),
            n: ds.len(),
            d: ds.dim(),
        }
    }

    fn score(&self, w: &[f64], i: usize) -> f64 {
        self.flat[i * self.d..(i + 1) * self.d]
            .iter()
            .zip(w)
            .map(|(x, b)| x * b)
            .sum()
    }

    fn rank(&self, w: &[f64]) -> Vec<u32> {
        let scores: Vec<f64> = (0..self.n).map(|i| self.score(w, i)).collect();
        let mut order: Vec<u32> = (0..self.n as u32).collect();
        order.sort_unstable_by(|a, b| {
            scores[*b as usize]
                .total_cmp(&scores[*a as usize])
                .then(a.cmp(b))
        });
        order
    }

    fn insert(&mut self, scores: &[f64]) {
        self.flat.extend_from_slice(scores);
        self.n += 1;
    }

    fn remove(&mut self, i: usize) {
        self.flat.drain(i * self.d..(i + 1) * self.d);
        self.n -= 1;
    }

    fn rescore(&mut self, i: usize, scores: &[f64]) {
        self.flat[i * self.d..(i + 1) * self.d].copy_from_slice(scores);
    }
}

fn assert_scores_bit_identical(ds: &Dataset, reference: &RowMajorRef, w: &[f64]) {
    let mut out = Vec::new();
    kernels::score_all_into(ds, w, &mut out);
    assert_eq!(out.len(), ds.len());
    for (i, o) in out.iter().enumerate() {
        let kernel = o.to_bits();
        let scalar = ds.score(w, i).to_bits();
        let legacy = reference.score(w, i).to_bits();
        assert_eq!(kernel, scalar, "kernel vs scalar at item {i}, w={w:?}");
        assert_eq!(kernel, legacy, "kernel vs row-major at item {i}, w={w:?}");
    }
}

/// A dataset in which many items tie exactly under every query:
/// `repeated` draws each row from a pool of `n / 4 + 1` distinct uniform
/// rows (repeated rows); otherwise every attribute is an integer in
/// `0..=4`, as COMPAS' count attributes are.
fn tie_heavy(n: usize, d: usize, seed: u64, repeated: bool) -> Dataset {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state >> 11
    };
    let rows: Vec<Vec<f64>> = if repeated {
        let pool: Vec<Vec<f64>> = (0..n / 4 + 1)
            .map(|_| {
                (0..d)
                    .map(|_| next() as f64 / (1u64 << 53) as f64)
                    .collect()
            })
            .collect();
        (0..n)
            .map(|_| pool[next() as usize % pool.len()].clone())
            .collect()
    } else {
        (0..n)
            .map(|_| (0..d).map(|_| (next() % 5) as f64).collect())
            .collect()
    };
    Dataset::from_rows((0..d).map(|j| format!("a{j}")).collect(), &rows).unwrap()
}

fn query_fan(d: usize, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            (0..d)
                .map(|j| 0.05 + ((i * 31 + j * 17 + 7) % 97) as f64 / 97.0)
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------
// Kernels vs scalar vs row-major, on scoring and ranking
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Raw scoring: all three implementations produce the same bits.
    #[test]
    fn scoring_bit_identical(
        n in 1usize..300,
        d in 1usize..6,
        seed in 0u64..10_000,
        wseed in 0u64..1000,
    ) {
        let ds = generic::uniform(n, d, 0.5, seed);
        let reference = RowMajorRef::of(&ds);
        for s in 0..3u64 {
            let w: Vec<f64> = (0..d)
                .map(|j| 0.01 + ((wseed + s).wrapping_mul(31).wrapping_add(j as u64 * 7) % 89) as f64 / 89.0)
                .collect();
            assert_scores_bit_identical(&ds, &reference, &w);
        }
    }

    /// Full rankings and top-k prefixes match the row-major model, through
    /// both `Dataset::rank`/`top_k` and the workspace path, on uniform
    /// data and on tie-heavy data (repeated rows, integer attributes),
    /// where the id tie-break decides most of the order.
    #[test]
    fn ranking_matches_row_major_model(
        n in 1usize..200,
        d in 1usize..5,
        seed in 0u64..10_000,
        k in 1usize..50,
        shape in 0u8..3,
    ) {
        let ds = match shape {
            0 => generic::uniform(n, d, 0.9, seed),
            s => tie_heavy(n, d, seed, s == 1),
        };
        let reference = RowMajorRef::of(&ds);
        let mut ws = RankWorkspace::new();
        for w in query_fan(d, 5) {
            let legacy = reference.rank(&w);
            prop_assert_eq!(&ds.rank(&w), &legacy);
            prop_assert_eq!(ws.rank(&ds, &w), legacy.as_slice());
            let k_eff = k.min(n);
            prop_assert_eq!(&ds.top_k(&w, k_eff), &legacy[..k_eff]);
            let bounded = ws.rank_with_bound(&ds, &w, Some(k_eff)).to_vec();
            prop_assert_eq!(&bounded[..k_eff], &legacy[..k_eff]);
        }
    }

    /// The batch hyperplane side test agrees with per-item `total_cmp`
    /// against the same threshold.
    #[test]
    fn side_test_matches_total_cmp(
        n in 1usize..300,
        seed in 0u64..10_000,
        pivot in 0usize..300,
    ) {
        let ds = generic::uniform(n, 2, 0.0, seed);
        let w = [0.6, 0.8];
        let mut scores = Vec::new();
        kernels::score_all_into(&ds, &w, &mut scores);
        let threshold = scores[pivot % n];
        let mut sides = Vec::new();
        kernels::side_test_batch(&scores, threshold, &mut sides);
        for (i, &s) in sides.iter().enumerate() {
            let expect = match scores[i].total_cmp(&threshold) {
                std::cmp::Ordering::Greater => 1i8,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Less => -1,
            };
            prop_assert_eq!(s, expect, "item {}", i);
        }
    }

    /// Equivalence holds at every step of an update sequence: the mutable
    /// columnar surface (`insert_row` / `remove_row` / `rescore_row`)
    /// stays bit-identical to the same edits applied to the flat
    /// row-major buffer.
    #[test]
    fn updates_preserve_bit_identity(
        seed in 0u64..10_000,
        ops in prop::collection::vec((0u8..3, 0u32..1_000_000, 0u32..1_000_000), 1..12),
    ) {
        let d = 3;
        let mut ds = generic::uniform(25, d, 0.5, seed);
        let mut reference = RowMajorRef::of(&ds);
        let w = [0.9, 0.4, 0.2];
        for (kind, sel, sseed) in ops {
            let scores: Vec<f64> = (0..d)
                .map(|j| {
                    let h = u64::from(sseed)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(j as u64 * 0x85EB_CA6B);
                    (h % 1000) as f64 / 1000.0 + 0.001
                })
                .collect();
            match kind {
                0 => {
                    ds.insert_row(&scores, &[sel % 2]).unwrap();
                    reference.insert(&scores);
                }
                1 if ds.len() > 1 => {
                    let i = sel as usize % ds.len();
                    ds.remove_row(i).unwrap();
                    reference.remove(i);
                }
                _ => {
                    let i = sel as usize % ds.len();
                    ds.rescore_row(i, &scores).unwrap();
                    reference.rescore(i, &scores);
                }
            }
            assert_scores_bit_identical(&ds, &reference, &w);
            prop_assert_eq!(&ds.rank(&w), &reference.rank(&w));
        }
    }

    /// Both persisted layouts — columnar v2 and the legacy row-major v1
    /// stream — decode to datasets whose kernels score and rank
    /// bit-identically to the original.
    #[test]
    fn persistence_round_trips_preserve_bit_identity(
        n in 1usize..120,
        d in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let ds = generic::uniform(n, d, 0.7, seed);
        let reference = RowMajorRef::of(&ds);
        let from_v2 = decode_dataset(&encode_dataset(&ds)).unwrap();
        let from_v1 = decode_dataset(&encode_dataset_row_major(&ds)).unwrap();
        prop_assert_eq!(&from_v2, &ds);
        prop_assert_eq!(&from_v1, &ds);
        for w in query_fan(d, 3) {
            assert_scores_bit_identical(&from_v2, &reference, &w);
            assert_scores_bit_identical(&from_v1, &reference, &w);
            prop_assert_eq!(&from_v2.rank(&w), &reference.rank(&w));
            prop_assert_eq!(&from_v1.rank(&w), &reference.rank(&w));
        }
    }
}

// ---------------------------------------------------------------------
// All three backends, end-to-end
// ---------------------------------------------------------------------

/// Build a ranker on `ds` with the given strategy and assert that every
/// served top-k (materialized under the *answered* weights, i.e. ranked
/// through the kernelized workspace path inside the serving layer)
/// equals the row-major model's ranking prefix under those weights.
fn assert_backend_serves_row_major_prefixes(ds: &Dataset, strategy: Strategy) {
    let attr = ds.type_attribute("group").unwrap();
    let oracle = Proportionality::new(attr, 6).with_max_count(0, 4);
    let mut builder = FairRanker::builder(ds.clone(), Box::new(oracle)).strategy(strategy);
    if matches!(strategy, Strategy::MdApprox) {
        builder = builder.approx_options(BuildOptions {
            n_cells: 120,
            max_hyperplanes: Some(150),
            ..Default::default()
        });
    }
    let ranker = builder.build().unwrap();
    let reference = RowMajorRef::of(ds);
    let k = 6;
    for q in query_fan(ds.dim(), 10) {
        let sug = ranker
            .respond(&SuggestRequest::new(q.clone()).with_top_k(k))
            .unwrap();
        let top_k = sug.stats.top_k.as_deref().expect("top-k was requested");
        let legacy = reference.rank(&sug.weights);
        assert_eq!(
            top_k,
            &legacy[..k.min(ds.len())],
            "{strategy:?} diverged from the row-major model at {q:?}"
        );
    }
}

#[test]
fn twod_backend_matches_row_major_model() {
    let ds = generic::uniform(40, 2, 0.9, 11);
    assert_backend_serves_row_major_prefixes(&ds, Strategy::TwoD);
}

#[test]
fn md_exact_backend_matches_row_major_model() {
    let ds = generic::uniform(14, 3, 0.85, 13);
    assert_backend_serves_row_major_prefixes(&ds, Strategy::MdExact);
}

#[test]
fn md_approx_backend_matches_row_major_model() {
    let ds = generic::uniform(18, 3, 0.85, 17);
    assert_backend_serves_row_major_prefixes(&ds, Strategy::MdApprox);
}
