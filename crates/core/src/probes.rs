//! Batched oracle probing: evaluate many candidate functions against the
//! real oracle with amortized ranking cost.
//!
//! Every offline phase ends the same way — a list of candidate functions
//! (angle vectors) whose induced rankings the oracle must accept or
//! reject. Evaluating them one at a time pays a fresh `O(n log n)` sort
//! plus two heap allocations per probe ([`Dataset::rank`]); this module
//! runs the same verdicts through a [`RankWorkspace`] (buffer reuse +
//! top-k partial ranking) and the oracle's batched entry point
//! ([`FairnessOracle::is_satisfactory_batch`]), in bounded-memory chunks.
//!
//! Verdicts are identical to the serial path by the trait contracts; the
//! equivalence is property-tested in `tests/batch_equivalence.rs`.

use fairrank_datasets::kernels::{self, ItemSubset, PrefixOrder};
use fairrank_datasets::{Dataset, RankWorkspace};
use fairrank_fairness::FairnessOracle;
use fairrank_geometry::polar::{to_cartesian_into, weight_bounds_into};

/// How a ranking must be placed for one oracle's verdict: the only place
/// the sorted-vs-set choice is made. Every verdict ranking — batched
/// probes, MARKCELL probes, MDBASELINE validation — goes through it.
///
/// With a [`top_k_bound`](FairnessOracle::top_k_bound) `k`, only the
/// top-`k` is placed; when the oracle also declares
/// [`top_k_is_set`](FairnessOracle::top_k_is_set) that top-`k` is left
/// unsorted ([`PrefixOrder::Set`]), which skips the `O(k log k)` prefix
/// sort. Either way position `k - 1` holds exactly the `k`-th ranked
/// item, so top-`k` threshold scores read off it stay exact.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VerdictRanking {
    bound: Option<usize>,
    order: PrefixOrder,
}

impl VerdictRanking {
    /// The placement `oracle` needs.
    pub(crate) fn of(oracle: &dyn FairnessOracle) -> VerdictRanking {
        let bound = oracle.top_k_bound();
        let order = if bound.is_some() && oracle.top_k_is_set() {
            PrefixOrder::Set
        } else {
            PrefixOrder::Sorted
        };
        VerdictRanking { bound, order }
    }

    /// The oracle's top-`k` bound, as [`FairnessOracle::top_k_bound`].
    pub(crate) fn bound(self) -> Option<usize> {
        self.bound
    }

    /// Rank `ds` under weights `w` through `ws` for the oracle's verdict.
    pub(crate) fn rank<'w>(self, ws: &'w mut RankWorkspace, ds: &Dataset, w: &[f64]) -> &'w [u32] {
        ws.rank_with(ds, w, self.bound, self.order)
    }

    /// Prepare `cell` for probes inside the angle box `[bl, tr]`: split
    /// the items into those in the top-`k` under every function of the
    /// box ("sure-in"), those in it under none, and the rest
    /// ("undecided"), so that [`rank_in_box`](VerdictRanking::rank_in_box)
    /// ranks only what a probe can change.
    ///
    /// With weight bounds `lo ≤ w ≤ hi` over the box
    /// ([`weight_bounds_into`]), every item's computed score lies in
    /// `[smin_i, smax_i]` ([`kernels::score_bounds_into`]). Let `L` and
    /// `U` be the `k`-th largest `smin` and `smax`; the `k`-th score at
    /// any function of the box lies in `[L, U]`. So `smin_i > U` puts item
    /// `i` strictly above the `k`-th item everywhere in the box, and
    /// `smax_i < L` strictly below it; strictness makes score ties and
    /// the id tie-break irrelevant. At most `k − 1` items are sure-in and
    /// at least `k` are not excluded, whatever the bounds' quality.
    ///
    /// The cell stays unrestricted (full ranking) for an oracle without a
    /// bound `0 < k < n`, for a box outside `[0, π/2]`, when a bound is
    /// NaN, and when nothing would be pruned.
    pub(crate) fn restrict_to_box(
        self,
        ds: &Dataset,
        bl: &[f64],
        tr: &[f64],
        cell: &mut CellRestriction,
    ) {
        cell.active = false;
        let n = ds.len();
        let k = match self.bound {
            Some(k) if k > 0 && k < n => k,
            _ => return,
        };
        let CellRestriction {
            bl: box_bl,
            tr: box_tr,
            lo,
            hi,
            smin,
            smax,
            cut,
            ids,
            sure,
            subset,
            ..
        } = cell;
        if !weight_bounds_into(bl, tr, lo, hi) {
            return;
        }
        kernels::score_bounds_into(ds, lo, hi, smin, smax);
        if smin.iter().chain(smax.iter()).any(|s| s.is_nan()) {
            return;
        }
        let kth_largest = |cut: &mut Vec<f64>, values: &[f64]| {
            cut.clear();
            cut.extend_from_slice(values);
            *cut.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a)).1
        };
        let lower = kth_largest(cut, smin);
        let upper = kth_largest(cut, smax);
        // A rank-aware oracle needs the sure-in items' order as well, so
        // it gets them ranked with the undecided ones.
        let set = self.order == PrefixOrder::Set;
        sure.clear();
        ids.clear();
        for (i, (&low, &high)) in smin.iter().zip(smax.iter()).enumerate() {
            if set && low > upper {
                sure.push(i as u32);
            } else if high >= lower {
                ids.push(i as u32);
            }
        }
        debug_assert!(sure.len() < k && sure.len() + ids.len() >= k);
        if ids.len() == n {
            return;
        }
        subset.gather(ds, ids);
        box_bl.clear();
        box_bl.extend_from_slice(bl);
        box_tr.clear();
        box_tr.extend_from_slice(tr);
        cell.k = k;
        cell.active = true;
    }

    /// Rank for the oracle's verdict at the probe point `angles` (weights
    /// `w`), through the cell's restriction when it applies there: the
    /// sure-in items followed by the best undecided ones, `k` items with
    /// the `k`-th ranked at position `k − 1`, exactly the first `k`
    /// positions [`rank`](VerdictRanking::rank) would place. A probe
    /// outside the cell's box, or in an unrestricted cell, gets the full
    /// ranking. Also returns how many items the probe scored.
    pub(crate) fn rank_in_box<'w>(
        self,
        ws: &'w mut RankWorkspace,
        cell: &'w mut CellRestriction,
        ds: &Dataset,
        angles: &[f64],
        w: &[f64],
    ) -> (usize, &'w [u32]) {
        let inside = cell.active
            && angles
                .iter()
                .zip(cell.bl.iter().zip(&cell.tr))
                .all(|(a, (lo, hi))| lo <= a && a <= hi);
        if !inside {
            return (ds.len(), self.rank(ws, ds, w));
        }
        let CellRestriction {
            sure,
            subset,
            out,
            k,
            ..
        } = cell;
        out.clear();
        out.extend_from_slice(sure);
        subset.top_k_append(w, *k - sure.len(), self.order, out);
        (subset.len(), out)
    }
}

/// The per-cell probe sets of [`VerdictRanking::restrict_to_box`] and
/// the buffers behind them, kept by a probing worker and reused from
/// cell to cell.
#[derive(Debug, Default)]
pub(crate) struct CellRestriction {
    /// Whether the sets below apply to the current cell.
    active: bool,
    k: usize,
    /// The cell's angle box.
    bl: Vec<f64>,
    tr: Vec<f64>,
    /// Weight and score bounds over the box, and selection scratch.
    lo: Vec<f64>,
    hi: Vec<f64>,
    smin: Vec<f64>,
    smax: Vec<f64>,
    cut: Vec<f64>,
    ids: Vec<u32>,
    /// Items in the top-`k` everywhere in the box (empty for a
    /// rank-aware oracle, whose sure-in items are ranked in `subset`).
    sure: Vec<u32>,
    /// The items each probe ranks.
    subset: ItemSubset,
    out: Vec<u32>,
}

/// Upper bound on rankings materialized at once: large enough to
/// amortize per-batch oracle setup; the effective chunk size also
/// respects [`PROBE_BUFFER_BYTES`].
pub const PROBE_BATCH: usize = 64;

/// Soft cap on the flat ranking buffer. For a top-k-bounded oracle only
/// the k-prefix of each ranking is stored, so even DOT-scale inputs
/// (1.32M rows, k = n/10) stay within a few MB per chunk instead of
/// materializing `PROBE_BATCH` full permutations (~340 MB).
pub const PROBE_BUFFER_BYTES: usize = 4 << 20;

/// Oracle verdicts for a set of candidate angle vectors, batched.
///
/// Ranks each candidate's induced ordering (only its top-`k`, when the
/// oracle exposes a [`top_k_bound`](FairnessOracle::top_k_bound)) into a reused
/// flat buffer and asks the oracle in memory-capped chunks. Returns one
/// verdict per candidate, in order. Each candidate counts as exactly one
/// oracle invocation, as with the serial path. Candidates are borrowed
/// (`&[f64]`, `Vec<f64>`, …), never copied.
#[must_use]
pub fn batch_verdicts<A: AsRef<[f64]>>(
    ds: &Dataset,
    oracle: &dyn FairnessOracle,
    candidates: &[A],
) -> Vec<bool> {
    batch_verdicts_by(ds, oracle, candidates.len(), |i, out| {
        to_cartesian_into(1.0, candidates[i].as_ref(), out);
    })
}

/// The shared batched-probe pipeline: `weights_of(i, out)` appends the
/// weight vector of candidate `i` to `out`. Used by [`batch_verdicts`]
/// (angle candidates) and `FairRanker::respond_batch` (weight queries)
/// so the chunking/prefix logic exists once.
///
/// A top-k-bounded oracle only inspects the first `k` positions by
/// contract, so for those oracles each stored ranking is the exact
/// top-`k` of the full ranking rather than the whole permutation (in
/// order, or as a set for a set-based oracle — see [`VerdictRanking`]) —
/// verdict-identical, and what keeps the buffer small at scale.
pub(crate) fn batch_verdicts_by<F>(
    ds: &Dataset,
    oracle: &dyn FairnessOracle,
    count: usize,
    weights_of: F,
) -> Vec<bool>
where
    F: FnMut(usize, &mut Vec<f64>),
{
    batch_verdicts_by_with(ds, oracle, count, weights_of, |_, _, _| {})
}

/// The kernel behind [`batch_verdicts_by`] and
/// [`batch_verdicts_and_thresholds`]: `on_ranking(i, ranking, weights)`
/// observes each candidate's (possibly top-k-partial) ranking as it is
/// produced, before the chunk goes to the oracle.
fn batch_verdicts_by_with<F, H>(
    ds: &Dataset,
    oracle: &dyn FairnessOracle,
    count: usize,
    mut weights_of: F,
    mut on_ranking: H,
) -> Vec<bool>
where
    F: FnMut(usize, &mut Vec<f64>),
    H: FnMut(usize, &[u32], &[f64]),
{
    let n = ds.len();
    let placement = VerdictRanking::of(oracle);
    // Entries stored per ranking, and the chunk size the byte cap allows.
    let stride = match placement.bound() {
        Some(k) if k > 0 && k < n => k,
        _ => n,
    };
    let chunk_len =
        (PROBE_BUFFER_BYTES / (stride * std::mem::size_of::<u32>()).max(1)).clamp(1, PROBE_BATCH);
    let mut ws = RankWorkspace::with_capacity(n);
    let mut weights: Vec<f64> = Vec::with_capacity(ds.dim());
    let mut flat: Vec<u32> = Vec::new();
    let mut verdicts = Vec::with_capacity(count);
    let mut start = 0usize;
    while start < count {
        let end = (start + chunk_len).min(count);
        flat.clear();
        for i in start..end {
            weights.clear();
            weights_of(i, &mut weights);
            let ranking = placement.rank(&mut ws, ds, &weights);
            on_ranking(i, ranking, &weights);
            flat.extend_from_slice(&ranking[..stride]);
        }
        // `stride == 0` ⇔ the dataset is empty: every ranking is the
        // empty permutation (`chunks(0)` would panic, and chunking an
        // empty buffer would yield no rankings at all).
        let rankings: Vec<&[u32]> = if stride == 0 {
            vec![&[][..]; end - start]
        } else {
            flat.chunks(stride).collect()
        };
        let chunk_verdicts = oracle.is_satisfactory_batch(&rankings);
        // The length contract is prose-only on a public trait; fail loudly
        // rather than silently misalign verdicts with candidates.
        assert_eq!(
            chunk_verdicts.len(),
            rankings.len(),
            "is_satisfactory_batch must return one verdict per ranking ({})",
            oracle.describe()
        );
        verdicts.extend(chunk_verdicts);
        start = end;
    }
    verdicts
}

/// [`batch_verdicts`] fanned across `threads` workers: the candidate list
/// is split into contiguous chunks, each probed through its own
/// [`RankWorkspace`], and the per-chunk verdict vectors are concatenated
/// in chunk order — bit-identical to the serial pass (each candidate's
/// verdict depends only on that candidate) for every thread count.
#[must_use]
pub fn batch_verdicts_threaded<A: AsRef<[f64]> + Sync>(
    ds: &Dataset,
    oracle: &dyn FairnessOracle,
    candidates: &[A],
    threads: usize,
) -> Vec<bool> {
    let chunks = crate::parallel::contiguous_chunks(candidates.len(), threads);
    if chunks.len() <= 1 {
        return batch_verdicts(ds, oracle, candidates);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|r| scope.spawn(move || batch_verdicts(ds, oracle, &candidates[r])))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("probe worker panicked"))
            .collect()
    })
}

/// Like [`batch_verdicts`], but also reports each candidate's *top-k
/// threshold score* — the score of the ranked `k`-th item under the
/// candidate's weights (`NaN` when the oracle exposes no usable top-k
/// bound). The incremental index-maintenance paths store the threshold
/// next to the verdict: a later insert/remove whose item scores strictly
/// below the threshold provably cannot change the verdict, so the probe
/// is skipped entirely.
#[must_use]
pub fn batch_verdicts_and_thresholds<A: AsRef<[f64]>>(
    ds: &Dataset,
    oracle: &dyn FairnessOracle,
    candidates: &[A],
) -> Vec<(bool, f64)> {
    let kth = match oracle.top_k_bound() {
        Some(k) if k > 0 && k <= ds.len() => k,
        _ => 0, // no usable bound → NaN thresholds
    };
    let mut thresholds = Vec::with_capacity(candidates.len());
    let verdicts = batch_verdicts_by_with(
        ds,
        oracle,
        candidates.len(),
        |i, out| to_cartesian_into(1.0, candidates[i].as_ref(), out),
        |_, ranking, weights| {
            thresholds.push(if kth > 0 {
                ds.score(weights, ranking[kth - 1] as usize)
            } else {
                f64::NAN
            });
        },
    );
    verdicts.into_iter().zip(thresholds).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrank_datasets::synthetic::generic;
    use fairrank_fairness::{CountingOracle, FnOracle, Proportionality};
    use fairrank_geometry::polar::to_cartesian;

    #[test]
    fn batch_verdicts_match_serial_probing() {
        let ds = generic::uniform(40, 3, 0.8, 17);
        let attr = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(attr, 8).with_max_count(0, 4);
        let candidates: Vec<Vec<f64>> = (0..150)
            .map(|i| {
                vec![
                    (i as f64 + 0.5) / 150.0 * fairrank_geometry::HALF_PI,
                    ((i * 7) % 150) as f64 / 150.0 * fairrank_geometry::HALF_PI,
                ]
            })
            .collect();
        let batched = batch_verdicts(&ds, &oracle, &candidates);
        for (c, &v) in candidates.iter().zip(&batched) {
            let serial = oracle.is_satisfactory(&ds.rank(&to_cartesian(1.0, c)));
            assert_eq!(v, serial, "verdict mismatch at {c:?}");
        }
    }

    #[test]
    fn batch_verdicts_count_one_call_per_candidate() {
        let ds = generic::uniform(10, 2, 0.0, 3);
        let oracle = CountingOracle::new(FnOracle::new("always", |_: &[u32]| true));
        let candidates: Vec<Vec<f64>> = (0..PROBE_BATCH + 5).map(|_| vec![0.5]).collect();
        let verdicts = batch_verdicts(&ds, &oracle, &candidates);
        assert_eq!(verdicts.len(), candidates.len());
        assert_eq!(oracle.calls() as usize, candidates.len());
    }

    #[test]
    fn threaded_verdicts_match_serial() {
        let ds = generic::uniform(40, 3, 0.8, 19);
        let attr = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(attr, 8).with_max_count(0, 4);
        let candidates: Vec<Vec<f64>> = (0..90)
            .map(|i| {
                vec![
                    (i as f64 + 0.5) / 90.0 * fairrank_geometry::HALF_PI,
                    ((i * 11) % 90) as f64 / 90.0 * fairrank_geometry::HALF_PI,
                ]
            })
            .collect();
        let serial = batch_verdicts(&ds, &oracle, &candidates);
        for threads in [1usize, 2, 3, 4, 100] {
            assert_eq!(
                serial,
                batch_verdicts_threaded(&ds, &oracle, &candidates, threads),
                "t = {threads}"
            );
        }
    }

    #[test]
    fn empty_candidates_yield_no_verdicts() {
        let ds = generic::uniform(5, 2, 0.0, 1);
        let oracle = FnOracle::new("always", |_: &[u32]| true);
        assert!(batch_verdicts::<Vec<f64>>(&ds, &oracle, &[]).is_empty());
    }

    #[test]
    fn empty_dataset_matches_serial_probing() {
        // An empty dataset is reachable through `subset(&[])`; the
        // batched path must return the oracle's verdict on the empty
        // ranking per candidate, exactly like serial probing.
        let ds = generic::uniform(5, 2, 0.0, 1).subset(&[]);
        assert_eq!(ds.len(), 0);
        let oracle = FnOracle::new("empty is fine", |r: &[u32]| r.is_empty());
        let candidates = [vec![0.3], vec![0.9], vec![1.2]];
        assert_eq!(
            batch_verdicts(&ds, &oracle, &candidates),
            vec![true; candidates.len()]
        );
    }

    #[test]
    fn thresholds_match_direct_ranking() {
        let ds = generic::uniform(30, 3, 0.8, 9);
        let attr = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(attr, 6).with_max_count(0, 3);
        let candidates: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                vec![
                    (i as f64 + 0.5) / 40.0 * fairrank_geometry::HALF_PI,
                    ((i * 3) % 40) as f64 / 40.0 * fairrank_geometry::HALF_PI,
                ]
            })
            .collect();
        let got = batch_verdicts_and_thresholds(&ds, &oracle, &candidates);
        let plain = batch_verdicts(&ds, &oracle, &candidates);
        for ((c, &(v, t)), &pv) in candidates.iter().zip(&got).zip(&plain) {
            assert_eq!(v, pv);
            let w = to_cartesian(1.0, c);
            let ranking = ds.rank(&w);
            let want = ds.score(&w, ranking[oracle.k() - 1] as usize);
            assert_eq!(t, want, "threshold mismatch at {c:?}");
        }
    }

    #[test]
    fn thresholds_nan_without_topk_bound() {
        let ds = generic::uniform(10, 2, 0.0, 3);
        let oracle = FnOracle::new("always", |_: &[u32]| true);
        let got = batch_verdicts_and_thresholds(&ds, &oracle, &[vec![0.5], vec![1.0]]);
        assert!(got.iter().all(|&(v, t)| v && t.is_nan()));
    }

    #[test]
    fn borrowed_candidates_accepted() {
        let ds = generic::uniform(5, 2, 0.0, 1);
        let oracle = FnOracle::new("always", |_: &[u32]| true);
        let owned = [vec![0.3], vec![0.9]];
        let borrowed: Vec<&[f64]> = owned.iter().map(Vec::as_slice).collect();
        assert_eq!(batch_verdicts(&ds, &oracle, &borrowed), vec![true, true]);
    }
}
