//! Reusable ranking workspace: probe-loop ranking without per-call heap
//! allocation, with partial top-k ranking for prefix-bounded oracles.
//!
//! [`Dataset::rank`](crate::Dataset::rank) allocates two fresh vectors
//! (scores + order) per call. The offline phases of the fair-ranking
//! pipeline call it once per oracle probe — at the paper's configuration
//! (N = 40,000 cells over COMPAS' 6,889 items) that is tens of thousands
//! of `O(n log n)` re-sorts with two allocations each, the single hottest
//! loop of the system. [`RankWorkspace`] amortizes both costs:
//!
//! * **Buffer reuse** — scores and order live in the workspace (or in a
//!   caller-owned buffer via [`RankWorkspace::rank_into`]) and are
//!   recycled across probes; the ranking kernel's key buffer is
//!   thread-local and recycled too, so the steady state performs zero
//!   allocations.
//! * **Partial ranking** — when the oracle provably inspects only the
//!   top-`k` prefix ([`top_k_bound`]), the workspace places the exact
//!   top-`k` with `select_nth_unstable` in `O(n)` and sorts only that
//!   prefix (`O(n + k log k)` instead of `O(n log n)`). The remaining
//!   items are present but unordered — still a permutation, and the
//!   verdict of any prefix-bounded oracle is identical by contract.
//!   When the oracle also reads its top-`k` as a set ([`top_k_is_set`]:
//!   group counts, not positions), [`RankWorkspace::rank_with`] under
//!   [`PrefixOrder::Set`] skips the prefix sort too, for `O(n)`; the
//!   `k`-th ranked item still sits at position `k - 1`.
//!
//! Both paths run the one ranking kernel [`Dataset::rank`] uses
//! ([`kernels::top_k_select_into`]): each item becomes a packed `u128`
//! key whose integer order is exactly descending score under
//! `total_cmp`, then ascending item id (the [`kernels`] module docs say
//! why). The keys are distinct, so the order is total and the ranked
//! prefix is bit-identical to the full sort's prefix — verified against
//! an independent comparator-sort model by the property suite.
//!
//! [`top_k_bound`]: https://docs.rs/fairrank-fairness (FairnessOracle::top_k_bound)
//! [`top_k_is_set`]: https://docs.rs/fairrank-fairness (FairnessOracle::top_k_is_set)

use crate::dataset::Dataset;
use crate::kernels::{self, PrefixOrder};

/// Reusable buffers for repeated rankings of one (or more) datasets.
///
/// Create once per worker/thread and feed it to every probe. The
/// workspace adapts to whatever dataset it is handed; reuse across
/// datasets of different sizes is fine (buffers grow, never shrink).
#[derive(Debug, Default, Clone)]
pub struct RankWorkspace {
    scores: Vec<f64>,
    order: Vec<u32>,
}

impl RankWorkspace {
    /// An empty workspace; buffers are sized lazily on first use.
    #[must_use]
    pub fn new() -> RankWorkspace {
        RankWorkspace::default()
    }

    /// A workspace pre-sized for datasets of `n` items.
    #[must_use]
    pub fn with_capacity(n: usize) -> RankWorkspace {
        RankWorkspace {
            scores: Vec::with_capacity(n),
            order: Vec::with_capacity(n),
        }
    }

    /// Rank all items of `ds` by descending score under `w` into the
    /// workspace's own buffer — identical output to [`Dataset::rank`],
    /// but allocation-free after the first call.
    ///
    /// # Panics
    /// If `w.len() != ds.dim()`.
    pub fn rank(&mut self, ds: &Dataset, w: &[f64]) -> &[u32] {
        self.rank_with_bound(ds, w, None)
    }

    /// Like [`RankWorkspace::rank`], but when `bound = Some(k)` with
    /// `0 < k < n` only the first `k` positions of the returned
    /// permutation are guaranteed sorted (and are exactly the first `k`
    /// of the full ranking); the tail holds the remaining item ids in
    /// unspecified order. Pass an oracle's `top_k_bound()` here.
    ///
    /// # Panics
    /// If `w.len() != ds.dim()`.
    pub fn rank_with_bound(&mut self, ds: &Dataset, w: &[f64], bound: Option<usize>) -> &[u32] {
        self.rank_with(ds, w, bound, PrefixOrder::Sorted)
    }

    /// [`RankWorkspace::rank_with_bound`] with the prefix order chosen:
    /// under [`PrefixOrder::Set`] the first `k` positions hold the exact
    /// top-`k` items unsorted, with the `k`-th ranked item at position
    /// `k - 1` (see [`kernels::top_k_select_into`]).
    ///
    /// # Panics
    /// If `w.len() != ds.dim()`.
    pub fn rank_with(
        &mut self,
        ds: &Dataset,
        w: &[f64],
        bound: Option<usize>,
        order: PrefixOrder,
    ) -> &[u32] {
        kernels::score_all_into(ds, w, &mut self.scores);
        kernels::top_k_select_into(&self.scores, bound, order, &mut self.order);
        &self.order
    }

    /// Rank into a caller-owned buffer (cleared and refilled), so callers
    /// that keep rankings alive across probes — batch pipelines, the 2-D
    /// sweep's persistent ranking — reuse their own allocation too.
    ///
    /// # Panics
    /// If `w.len() != ds.dim()`.
    pub fn rank_into(&mut self, ds: &Dataset, w: &[f64], bound: Option<usize>, out: &mut Vec<u32>) {
        // The columnar scoring kernel fills the reused score buffer in
        // one vectorized multiply-accumulate sweep (bit-identical to
        // per-item `Dataset::score` — tests/columnar_equivalence.rs),
        // then the select kernel ranks by it (through its thread-local
        // key buffer). Every buffer is reused; the steady state performs
        // zero allocations.
        kernels::score_all_into(ds, w, &mut self.scores);
        kernels::top_k_select_into(&self.scores, bound, PrefixOrder::Sorted, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(n: usize, d: usize, seed: u64) -> Dataset {
        // Small deterministic LCG-backed dataset; ties included on purpose.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64 * 8.0).round() / 8.0
        };
        let rows: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| next()).collect()).collect();
        Dataset::from_rows((0..d).map(|j| format!("a{j}")).collect(), &rows).unwrap()
    }

    #[test]
    fn full_rank_matches_dataset_rank() {
        let ds = ds(60, 3, 7);
        let mut ws = RankWorkspace::new();
        for w in [[1.0, 0.5, 0.25], [0.0, 1.0, 0.0], [0.3, 0.3, 0.3]] {
            assert_eq!(ws.rank(&ds, &w), ds.rank(&w).as_slice());
        }
    }

    #[test]
    fn partial_rank_prefix_matches_full_sort() {
        let ds = ds(80, 2, 13);
        let mut ws = RankWorkspace::new();
        let w = [0.7, 0.3];
        let full = ds.rank(&w);
        for k in [1usize, 2, 5, 17, 79, 80, 500] {
            let partial = ws.rank_with_bound(&ds, &w, Some(k)).to_vec();
            let k_eff = k.min(80);
            assert_eq!(&partial[..k_eff], &full[..k_eff], "prefix differs at k={k}");
            // Still a permutation.
            let mut sorted = partial.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..80).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn zero_bound_falls_back_to_full() {
        let ds = ds(20, 2, 3);
        let mut ws = RankWorkspace::new();
        assert_eq!(
            ws.rank_with_bound(&ds, &[1.0, 1.0], Some(0)),
            ds.rank(&[1.0, 1.0]).as_slice()
        );
    }

    #[test]
    fn rank_into_reuses_caller_buffer() {
        let ds = ds(30, 2, 5);
        let mut ws = RankWorkspace::new();
        let mut buf: Vec<u32> = Vec::new();
        ws.rank_into(&ds, &[1.0, 0.2], None, &mut buf);
        assert_eq!(buf, ds.rank(&[1.0, 0.2]));
        let cap = buf.capacity();
        ws.rank_into(&ds, &[0.2, 1.0], None, &mut buf);
        assert_eq!(buf, ds.rank(&[0.2, 1.0]));
        assert_eq!(buf.capacity(), cap, "steady-state must not reallocate");
    }

    #[test]
    fn workspace_adapts_across_dataset_sizes() {
        let small = ds(10, 2, 1);
        let large = ds(50, 2, 2);
        let mut ws = RankWorkspace::with_capacity(10);
        assert_eq!(
            ws.rank(&small, &[1.0, 1.0]),
            small.rank(&[1.0, 1.0]).as_slice()
        );
        assert_eq!(
            ws.rank(&large, &[1.0, 1.0]),
            large.rank(&[1.0, 1.0]).as_slice()
        );
        assert_eq!(
            ws.rank(&small, &[0.5, 1.0]),
            small.rank(&[0.5, 1.0]).as_slice()
        );
    }

    #[test]
    #[should_panic(expected = "weight arity mismatch")]
    fn arity_mismatch_panics() {
        let ds = ds(5, 2, 9);
        RankWorkspace::new().rank(&ds, &[1.0, 1.0, 1.0]);
    }
}
