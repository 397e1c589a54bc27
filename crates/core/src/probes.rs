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
//!
//! # Top-k partitions of a grid cell
//!
//! For an oracle that reads only the top-`k` (`0 < k < n`),
//! `VerdictRanking::restrict_to_box` splits the items for one grid
//! cell into those in the top-`k` under every weight vector of the cell
//! ("sure-in"), those in it under none, and the rest ("undecided"). A
//! verdict ranking inside the cell then needs only the sure-in items and
//! the best `k − |sure-in|` undecided ones. MARKCELL ranks its probes
//! that way, and the approximate grid keeps each cell's partition
//! ([`TopKPartition`]) so that serving ranks a query of the cell that way
//! too. The argument that this is the full ranking's top-`k`:
//!
//! * **Weight box.** The cell's angle box bounds every weight
//!   coordinate, `lo ≤ v ≤ hi` with `0 ≤ lo`
//!   ([`weight_bounds_into`]), for the unit weights MARKCELL computes and
//!   for the exact unit vectors of the box alike.
//! * **Score bounds, widened for scale and rounding.** From the box,
//!   every item gets `smin_i ≤ smax_i` ([`kernels::score_bounds_into`]):
//!   the computed score of any `w` in the box lies between them.
//!   Serving also scores queries `q = r·v` of any norm `r`, in floating
//!   point, so both bounds are widened by `2γ_d · Σ_j hi_j·|x_ij|`
//!   (`γ_d = d·u/(1 − d·u)`, `u` the unit roundoff), computed with
//!   generous slack and rounded outward, plus a tiny absolute term for
//!   underflowing products. One `γ_d` covers the rounding of the bound
//!   itself against the exact extreme score, the other the rounding of
//!   `fl(q · x_i)` against `r·(v · x_i)`. So `fl(q · x_i) / r` lies in
//!   the widened interval for every `v` in the box and every `r` in the
//!   supported range.
//! * **Strict tests.** With `L` and `U` the `k`-th largest widened lower
//!   and upper bounds, the `k`-th computed score (over `r`) lies in
//!   `[L, U]`. An item with lower bound `> U` is strictly above the
//!   `k`-th item, one with upper bound `< L` strictly below it, so score
//!   ties and the id tie-break never matter. The undecided items are
//!   scored in the kernel's exact operation order and selected by the
//!   same packed keys, so the `k` ranked items are the full ranking's
//!   top-`k` bit for bit: as a set with the `k`-th last for a set-based
//!   oracle, in order for a rank-aware one (whose sure-in items are
//!   ranked with the undecided ones).
//! * **Containment.** A query uses its cell's partition only when
//!   [`TopKPartition::covers`] proves `q/‖q‖` inside `[lo, hi]` with
//!   room for the rounding of `‖q‖` and of the division, and `‖q‖` lies
//!   between `2⁻⁴⁰⁰` and a bound that keeps every partial score sum
//!   finite. Everything else (the box edge, extreme norms, an oracle
//!   without a usable bound, a cell where nothing is pruned) ranks
//!   fully, as does every request with
//!   [`SuggestOptions::index_fastpath`](crate::SuggestOptions::index_fastpath)
//!   `= false`.
//! * **Freshness.** A partition depends on every item, so it is never
//!   persisted: a decoded index computes its partitions when it is
//!   attached to a dataset and oracle
//!   ([`IndexBackend::attach`](crate::IndexBackend::attach)), and every
//!   update, maintained or rebuilt, recomputes them.

use fairrank_datasets::kernels::{self, ItemSubset, PrefixOrder};
use fairrank_datasets::{Dataset, RankWorkspace};
use fairrank_fairness::FairnessOracle;
use fairrank_geometry::polar::{to_cartesian_into, weight_bounds_into};
use fairrank_geometry::vector::norm;

/// How a ranking must be placed for one oracle's verdict: the only place
/// the sorted-vs-set choice is made. Every verdict ranking — batched
/// probes, MARKCELL probes, MDBASELINE validation, the serving oracle
/// pass — goes through it.
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

    /// Compute the top-`k` partition of the weight box of the angle box
    /// `[bl, tr]` into `cell` (the module docs give the argument): the
    /// sure-in items and the undecided ones, so that
    /// [`rank_in_box`](VerdictRanking::rank_in_box) and
    /// [`rank_partition`](VerdictRanking::rank_partition) rank only what
    /// a function of the box can change. At most `k − 1` items are
    /// sure-in and at least `k` are not excluded, whatever the bounds'
    /// quality.
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
            max_norm,
            ..
        } = cell;
        if !weight_bounds_into(bl, tr, lo, hi) {
            return;
        }
        kernels::score_bounds_into(ds, lo, hi, smin, smax);
        // Widen both bounds by 2γ_d · Σ_j hi_j·|x_ij| with slack, plus an
        // absolute term for underflow, rounded outward; `cut` holds the
        // per-item Σ_j hi_j·|x_ij| meanwhile.
        let d = ds.dim();
        cut.clear();
        cut.resize(n, 0.0);
        for (j, &h) in hi.iter().enumerate() {
            for (a, &x) in cut.iter_mut().zip(ds.column(j)) {
                *a += h * x.abs();
            }
        }
        let rel = 4.0 * (d + 1) as f64 * f64::EPSILON;
        let abs = d as f64 * WIDEN_ABS;
        let mut largest = 0.0f64;
        for ((a, b), &sum) in smin.iter_mut().zip(smax.iter_mut()).zip(cut.iter()) {
            let margin = sum * rel + abs;
            *a = (*a - margin).next_down();
            *b = (*b + margin).next_up();
            largest = largest.max(sum);
        }
        if smin.iter().chain(smax.iter()).any(|s| s.is_nan()) {
            return;
        }
        // Every partial sum of a covered query's score stays below
        // ‖q‖ · Σ_j hi_j·|x_ij| ≤ f64::MAX / 4.
        *max_norm = f64::MAX / (4.0 * largest);
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
        box_bl.clear();
        box_bl.extend_from_slice(bl);
        box_tr.clear();
        box_tr.extend_from_slice(tr);
        cell.k = k;
        cell.n = n;
        cell.set = set;
        cell.active = true;
        cell.gathered = false;
    }

    /// Rank for the oracle's verdict at the probe point `angles` (weights
    /// `w`), through the cell's restriction when it applies there: the
    /// sure-in items followed by the best undecided ones, `k` items with
    /// the `k`-th ranked at position `k − 1`, exactly the first `k`
    /// positions [`rank`](VerdictRanking::rank) would place. A probe
    /// outside the cell's box, or in an unrestricted cell, gets the full
    /// ranking. Also returns how many items the probe scored.
    ///
    /// The first probe of a cell gathers the undecided items' columns
    /// ([`ItemSubset`]), so that every later probe streams over them.
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
            ids,
            subset,
            gathered,
            out,
            k,
            ..
        } = cell;
        if !*gathered {
            subset.gather(ds, ids);
            *gathered = true;
        }
        out.clear();
        out.extend_from_slice(sure);
        subset.top_k_append(w, *k - sure.len(), self.order, out);
        (subset.len(), out)
    }

    /// Whether `p` was computed for this placement over `n` items: the
    /// same `k`, the same set-or-sorted split.
    pub(crate) fn admits(self, p: &TopKPartition, n: usize) -> bool {
        self.bound == Some(p.k) && p.n == n && p.set == (self.order == PrefixOrder::Set)
    }

    /// Append the verdict ranking of weights `w` through the partition
    /// `p` to `out`: the sure-in items, then the best undecided ones, `k`
    /// items in all. Exactly the first `k` positions
    /// [`rank`](VerdictRanking::rank) places (as a set with the `k`-th
    /// last, or in order), provided [`admits`](VerdictRanking::admits)
    /// and [`TopKPartition::covers`] hold. Returns how many items it
    /// scored.
    pub(crate) fn rank_partition(
        self,
        p: &TopKPartition,
        ds: &Dataset,
        w: &[f64],
        out: &mut Vec<u32>,
    ) -> usize {
        let (sure, undecided) = (p.sure_in(), p.undecided());
        out.extend_from_slice(sure);
        kernels::top_k_among_append(ds, w, undecided, p.k - sure.len(), self.order, out);
        undecided.len()
    }
}

/// Absolute part of the score-bound widening, per attribute, `2⁻⁶⁰⁰`:
/// covers the products that underflow to subnormals, for queries of norm
/// at least [`MIN_COVERED_NORM`] (each such product is off by at most
/// `2⁻¹⁰⁷⁵`, so by `2⁻⁶⁷⁵` once divided by the norm).
const WIDEN_ABS: f64 = f64::from_bits((1023 - 600) << 52);

/// Smallest query norm a [`TopKPartition`] covers, `2⁻⁴⁰⁰`.
const MIN_COVERED_NORM: f64 = f64::from_bits((1023 - 400) << 52);

/// The per-cell probe sets of [`VerdictRanking::restrict_to_box`] and
/// the buffers behind them, kept by a probing worker and reused from
/// cell to cell.
#[derive(Debug, Default)]
pub(crate) struct CellRestriction {
    /// Whether the sets below apply to the current cell.
    active: bool,
    k: usize,
    n: usize,
    set: bool,
    max_norm: f64,
    /// The cell's angle box.
    bl: Vec<f64>,
    tr: Vec<f64>,
    /// Weight and score bounds over the box, and selection scratch.
    lo: Vec<f64>,
    hi: Vec<f64>,
    smin: Vec<f64>,
    smax: Vec<f64>,
    cut: Vec<f64>,
    /// The undecided items (for a rank-aware oracle, with the sure-in).
    ids: Vec<u32>,
    /// Items in the top-`k` everywhere in the box (empty for a
    /// rank-aware oracle, whose sure-in items are ranked in `ids`).
    sure: Vec<u32>,
    /// The undecided items' columns, gathered by the cell's first probe.
    subset: ItemSubset,
    gathered: bool,
    out: Vec<u32>,
}

impl CellRestriction {
    /// The current cell's partition as a [`TopKPartition`], `None` for
    /// an unrestricted cell.
    pub(crate) fn partition(&self) -> Option<TopKPartition> {
        if !self.active {
            return None;
        }
        let mut ids = Vec::with_capacity(self.sure.len() + self.ids.len());
        ids.extend_from_slice(&self.sure);
        ids.extend_from_slice(&self.ids);
        let mut bounds = Vec::with_capacity(2 * self.lo.len());
        bounds.extend_from_slice(&self.lo);
        bounds.extend_from_slice(&self.hi);
        Some(TopKPartition {
            k: self.k,
            n: self.n,
            set: self.set,
            sure: self.sure.len(),
            max_norm: self.max_norm,
            bounds: bounds.into_boxed_slice(),
            ids: ids.into_boxed_slice(),
        })
    }
}

/// One grid cell's top-`k` partition, as the approximate index keeps it
/// for serving: the items in the top-`k` under every weight vector of
/// the cell's weight box (sure-in), the items whose membership the box
/// leaves open (undecided), and the box. The [module docs](self) give
/// the soundness argument; [`covers`](TopKPartition::covers) is the
/// containment test a query must pass before its ranking may use it.
///
/// For a rank-aware oracle the sure-in list is empty and its items are
/// among the undecided ones, so that they are ranked in order.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKPartition {
    k: usize,
    /// Items of the dataset the partition was computed over.
    n: usize,
    /// Whether the oracle reads its top-`k` as a set.
    set: bool,
    /// How many of `ids` (the first ones) are sure-in.
    sure: usize,
    /// Largest query norm covered: keeps every partial score finite.
    max_norm: f64,
    /// `lo` then `hi`, one entry per attribute each.
    bounds: Box<[f64]>,
    /// Sure-in ids, then undecided ids, each ascending.
    ids: Box<[u32]>,
}

impl TopKPartition {
    /// Items in the top-`k` under every weight vector of the box.
    #[must_use]
    pub fn sure_in(&self) -> &[u32] {
        &self.ids[..self.sure]
    }

    /// Items a weight vector of the box may rank in or out of the
    /// top-`k`; every other item is out of it throughout the box.
    #[must_use]
    pub fn undecided(&self) -> &[u32] {
        &self.ids[self.sure..]
    }

    /// Whether the partition holds for query weights `q`: `q/‖q‖` lies
    /// provably inside the weight box, with room for the rounding of the
    /// norm and of each division, and `‖q‖` is at least `2⁻⁴⁰⁰` and small
    /// enough that no partial score overflows. False for a query of the
    /// wrong arity.
    #[must_use]
    pub fn covers(&self, q: &[f64]) -> bool {
        let (lo, hi) = self.bounds.split_at(self.bounds.len() / 2);
        if q.len() != lo.len() {
            return false;
        }
        let r = norm(q);
        if !(MIN_COVERED_NORM..=self.max_norm).contains(&r) {
            return false;
        }
        q.iter().zip(lo.iter().zip(hi)).all(|(&x, (&l, &h))| {
            let c = x / r;
            let room = c * (4.0 * f64::EPSILON) + f64::MIN_POSITIVE;
            l <= c - room && c + room <= h
        })
    }
}

/// How the verdict rankings of one batch were placed: through a cell's
/// [`TopKPartition`] or by ranking every item, and how many items they
/// scored in all.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RankingTally {
    pub(crate) cell: u64,
    pub(crate) full: u64,
    pub(crate) items: u64,
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
    let (verdicts, _) = batch_verdicts_by(
        ds,
        oracle,
        candidates.len(),
        |i, out| to_cartesian_into(1.0, candidates[i].as_ref(), out),
        |_, _| None,
    );
    verdicts
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
/// verdict-identical, and what keeps the buffer small at scale. When
/// `partition_of(i, weights)` returns a [`TopKPartition`] made for this
/// oracle that [covers](TopKPartition::covers) the weights, that top-`k`
/// is ranked from the partition's sure-in and undecided items alone
/// (the module docs say why it is the same). The tally says which way
/// each ranking went and how many items were scored.
pub(crate) fn batch_verdicts_by<'p, F, P>(
    ds: &Dataset,
    oracle: &dyn FairnessOracle,
    count: usize,
    weights_of: F,
    partition_of: P,
) -> (Vec<bool>, RankingTally)
where
    F: FnMut(usize, &mut Vec<f64>),
    P: FnMut(usize, &[f64]) -> Option<&'p TopKPartition>,
{
    batch_verdicts_by_with(ds, oracle, count, weights_of, partition_of, |_, _, _| {})
}

/// The kernel behind [`batch_verdicts_by`] and
/// [`batch_verdicts_and_thresholds`]: `on_ranking(i, ranking, weights)`
/// observes each candidate's stored (possibly top-k-partial) ranking as
/// it is produced, before the chunk goes to the oracle.
fn batch_verdicts_by_with<'p, F, P, H>(
    ds: &Dataset,
    oracle: &dyn FairnessOracle,
    count: usize,
    mut weights_of: F,
    mut partition_of: P,
    mut on_ranking: H,
) -> (Vec<bool>, RankingTally)
where
    F: FnMut(usize, &mut Vec<f64>),
    P: FnMut(usize, &[f64]) -> Option<&'p TopKPartition>,
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
    // Sized on first use: a batch ranked only through partitions never
    // allocates the workspace's O(n) buffers.
    let mut ws = RankWorkspace::new();
    let mut weights: Vec<f64> = Vec::with_capacity(ds.dim());
    let mut flat: Vec<u32> = Vec::new();
    let mut verdicts = Vec::with_capacity(count);
    let mut tally = RankingTally::default();
    let mut start = 0usize;
    while start < count {
        let end = (start + chunk_len).min(count);
        flat.clear();
        for i in start..end {
            weights.clear();
            weights_of(i, &mut weights);
            let at = flat.len();
            match partition_of(i, &weights).filter(|p| placement.admits(p, n) && p.covers(&weights))
            {
                Some(p) => {
                    tally.cell += 1;
                    tally.items += placement.rank_partition(p, ds, &weights, &mut flat) as u64;
                    debug_assert_eq!(flat.len() - at, stride);
                }
                None => {
                    tally.full += 1;
                    tally.items += n as u64;
                    flat.extend_from_slice(&placement.rank(&mut ws, ds, &weights)[..stride]);
                }
            }
            on_ranking(i, &flat[at..], &weights);
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
    (verdicts, tally)
}

/// Oracle verdicts for `count` candidates, candidate `i` being the weight
/// vector `weights_of(i, out)` writes to the cleared `out`, on `threads`
/// workers: each contiguous chunk of candidates is probed through its own
/// [`RankWorkspace`] and the verdicts are concatenated in order —
/// bit-identical to the serial pass for every thread count.
#[must_use]
pub fn batch_verdicts_threaded<F>(
    ds: &Dataset,
    oracle: &dyn FairnessOracle,
    count: usize,
    threads: usize,
    weights_of: F,
) -> Vec<bool>
where
    F: Fn(usize, &mut Vec<f64>) + Sync,
{
    let chunk = |r: std::ops::Range<usize>| {
        let weights = |i, out: &mut Vec<f64>| {
            out.clear();
            weights_of(r.start + i, out);
        };
        batch_verdicts_by(ds, oracle, r.len(), weights, |_, _| None).0
    };
    let chunks = crate::parallel::contiguous_chunks(count, threads);
    if chunks.len() <= 1 {
        return chunk(0..count);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|r| scope.spawn(|| chunk(r)))
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
    let (verdicts, _) = batch_verdicts_by_with(
        ds,
        oracle,
        candidates.len(),
        |i, out| to_cartesian_into(1.0, candidates[i].as_ref(), out),
        |_, _| None,
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
            let threaded =
                batch_verdicts_threaded(&ds, &oracle, candidates.len(), threads, |i, out| {
                    to_cartesian_into(1.0, &candidates[i], out);
                });
            assert_eq!(serial, threaded, "t = {threads}");
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
