//! Chunked auto-vectorizing kernels over the columnar [`Dataset`].
//!
//! Every hot path of the fair-ranking pipeline — oracle probe ranking,
//! 2-D sweep re-ranks, MARKCELL probes, approx-grid cell searches,
//! batch serving — bottoms out in the same primitive: the dense dot
//! product `f_w(t) = w · t` evaluated for *every* item. The row-major
//! layout scored one item per call (`Dataset::score`), a horizontal
//! reduction the compiler cannot vectorize across items. The columnar
//! layout stores one 64-byte-aligned buffer per attribute
//! ([`AlignedCol`]), so whole-dataset scoring becomes `d` streaming
//! multiply-accumulate passes over contiguous, cache-line-aligned
//! columns — a shape LLVM auto-vectorizes on stable Rust, no `std::simd`
//! required.
//!
//! Three primitives, designed to compose:
//!
//! * [`score_all_into`] — fill a caller buffer with every item's score
//!   under one weight vector (the multiply-accumulate sweep).
//! * [`side_test_batch`] — classify every entry of a scored column
//!   against a threshold: which side of the scoring hyperplane
//!   `w · x = b` each item lies on (`total_cmp` semantics, so signed
//!   zeros and ties are exact).
//! * [`top_k_select_into`] — the ranking selection consuming the scored
//!   column: full sort, or `select_nth_unstable` when the oracle provably
//!   inspects only the top-`k` — followed by a prefix sort, unless the
//!   oracle reads that top-`k` as a set ([`PrefixOrder::Set`]).
//!
//! Three more serve rankings restricted to a candidate set: the
//! per-cell top-`k` partitions of the approximate grid, where only the
//! items whose top-`k` membership can change inside a grid cell are
//! ranked (MARKCELL's probes offline, the "already fair?" check online).
//!
//! * [`score_bounds_into`] — every item's score bounds over a box of
//!   weight vectors, sound for the scores the sweep computes.
//! * [`ItemSubset`] — a gathered column copy of some items, scored in the
//!   sweep's exact operation order and selected by the same packed keys,
//!   so its top-`k` is bit-for-bit the full ranking's whenever it holds
//!   that top-`k`. MARKCELL gathers a cell's items once and probes the
//!   copy many times.
//! * [`top_k_among_append`] — the same for a list of item ids, scored
//!   from the dataset's own columns through the thread-local buffers
//!   [`RankScratch`] lends: no copy and no per-call buffer, for the one
//!   ranking a served query needs.
//!
//! # Packed ranking keys
//!
//! The canonical ranking order is "score descending under
//! `f64::total_cmp`, then item id ascending". [`top_k_select_into`] does
//! not sort ids through a comparator that looks both scores up; it packs
//! each item into one `u128`, `!asc(score.to_bits()) << 32 | id`, and
//! sorts the keys as plain integers. `asc` is `total_cmp`'s own bit
//! transform (flip every bit of a negative pattern, set the sign bit of
//! a positive one), so unsigned order of `asc(bits)` is `total_cmp`
//! order on every bit pattern, `-NaN < -∞ < … < -0.0 < 0.0 < … < ∞ <
//! NaN`, with subnormals in place and bit-distinct NaNs ordered by
//! payload. Complementing it makes the order descending, and the
//! id in the low 32 bits breaks exact ties. Integer order of the keys
//! therefore *equals* the comparator order, ties and all, and the
//! ranking is bit-for-bit the one the comparator would give.
//!
//! Because the keys are distinct, the top-`k` is one exact set of items
//! under any bound. `select_nth_unstable(k - 1)` alone already places
//! that set in the first `k` positions, with the `k`-th item at position
//! `k - 1`; [`PrefixOrder::Set`] stops there, and only
//! [`PrefixOrder::Sorted`] pays the `O(k log k)` prefix sort. Both modes
//! run over the same keys in the same thread-local buffer.
//!
//! # Bit-identity contract
//!
//! [`score_all_into`] accumulates column `j` into every item's partial
//! sum in ascending `j` order, starting from `0.0` — *exactly* the
//! operation sequence of the scalar `Dataset::score` fold
//! (`((0 + w₀t₀) + w₁t₁) + …`). No `mul_add` / FMA contraction is used,
//! so the vectorized result is bit-identical to the scalar reference on
//! every input, not merely close. The `scalar-kernels` cargo feature
//! swaps the blocked sweep for a per-item `Dataset::score` loop (the CI
//! fallback leg); both paths are proven bit-identical in
//! `tests/columnar_equivalence.rs`.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::fmt;

use crate::dataset::Dataset;

/// Values per [`Lane`]: 8 × `f64` = one 64-byte cache line.
const LANE: usize = 8;

/// One cache line of column data. `repr(align(64))` makes every
/// `Vec<Lane>` allocation — and therefore every column — start on a
/// 64-byte boundary, the alignment AVX-512 loads and prefetchers like
/// best (in the spirit of trueno-viz's aligned SIMD framebuffer).
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy, Default)]
struct Lane([f64; LANE]);

/// A growable `f64` buffer whose storage is 64-byte aligned — the
/// per-attribute column of the columnar [`Dataset`].
///
/// Backed by a `Vec<Lane>` of whole cache lines plus a logical length,
/// so the aligned allocation is managed entirely by safe `Vec` growth;
/// the only `unsafe` is the slice view over the contiguous lane array.
#[derive(Clone, Default)]
pub struct AlignedCol {
    lanes: Vec<Lane>,
    len: usize,
}

impl AlignedCol {
    /// An empty column with room for `n` values.
    #[must_use]
    pub fn with_capacity(n: usize) -> AlignedCol {
        AlignedCol {
            lanes: Vec::with_capacity(n.div_ceil(LANE)),
            len: 0,
        }
    }

    /// A column holding a copy of `values`.
    #[must_use]
    pub fn from_slice(values: &[f64]) -> AlignedCol {
        let mut col = AlignedCol::with_capacity(values.len());
        for &v in values {
            col.push(v);
        }
        col
    }

    /// Number of values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column as a contiguous (64-byte-aligned) slice.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        // SAFETY: `Lane` is `repr(C)` over `[f64; LANE]`, so the lane
        // array is a contiguous run of `lanes.len() * LANE` f64s, and
        // `len <= lanes.len() * LANE` is an invariant of every mutator.
        unsafe { std::slice::from_raw_parts(self.lanes.as_ptr().cast::<f64>(), self.len) }
    }

    /// The column as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: as `as_slice`, plus exclusive access through `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.lanes.as_mut_ptr().cast::<f64>(), self.len) }
    }

    /// Append one value.
    pub fn push(&mut self, v: f64) {
        if self.len == self.lanes.len() * LANE {
            self.lanes.push(Lane::default());
        }
        self.lanes[self.len / LANE].0[self.len % LANE] = v;
        self.len += 1;
    }

    /// Remove and return the value at `i`, shifting everything above it
    /// down by one.
    ///
    /// # Panics
    /// If `i >= len()`.
    pub fn remove(&mut self, i: usize) -> f64 {
        let v = self.as_slice()[i];
        self.as_mut_slice().copy_within(i + 1.., i);
        self.len -= 1;
        let needed = self.len.div_ceil(LANE);
        self.lanes.truncate(needed);
        v
    }
}

impl PartialEq for AlignedCol {
    fn eq(&self, other: &AlignedCol) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for AlignedCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl FromIterator<f64> for AlignedCol {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> AlignedCol {
        let mut col = AlignedCol::default();
        for v in iter {
            col.push(v);
        }
        col
    }
}

/// Score every item under `w` into `out` (cleared and refilled to
/// `ds.len()` entries): `out[i] = Σ_j w[j] · column_j[i]`.
///
/// The blocked multiply-accumulate sweep over the aligned columns; the
/// inner loop is a pure element-wise `out += w_j * col` stream the
/// compiler vectorizes. Results are bit-identical to calling
/// [`Dataset::score`] per item (see the module docs for why), which is
/// what lets every ranking path adopt this kernel without perturbing a
/// single verdict, certificate, or persisted artifact.
///
/// # Panics
/// If `w.len() != ds.dim()`.
pub fn score_all_into(ds: &Dataset, w: &[f64], out: &mut Vec<f64>) {
    assert_eq!(w.len(), ds.dim(), "weight arity mismatch");
    out.clear();
    out.resize(ds.len(), 0.0);
    fill_scores(ds, w, out);
}

/// The vectorized columnar sweep (default build).
#[cfg(not(feature = "scalar-kernels"))]
fn fill_scores(ds: &Dataset, w: &[f64], out: &mut [f64]) {
    /// Values per accumulation tile: the output block plus one column
    /// block stay resident in L1/L2 while the `d` column passes stream
    /// over them.
    const BLOCK: usize = 4096;
    let n = out.len();
    let mut start = 0usize;
    while start < n {
        let end = (start + BLOCK).min(n);
        let chunk = &mut out[start..end];
        for (j, &wj) in w.iter().enumerate() {
            let col = &ds.column(j)[start..end];
            for (o, &x) in chunk.iter_mut().zip(col) {
                *o += wj * x;
            }
        }
        start = end;
    }
}

/// The scalar fallback (`--features scalar-kernels`): one
/// [`Dataset::score`] call per item, the pre-refactor shape. Kept as a
/// CI matrix leg so the reference semantics stay compiled and green.
#[cfg(feature = "scalar-kernels")]
fn fill_scores(ds: &Dataset, w: &[f64], out: &mut [f64]) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = ds.score(w, i);
    }
}

/// Bound every item's score over a box of weight vectors
/// `lo ≤ w ≤ hi` (per coordinate, `0 ≤ lo`): `smin[i]` and `smax[i]`
/// (both cleared and refilled to `ds.len()` entries) take, per
/// attribute, the low or the high weight by the attribute's sign.
///
/// The sums run in the order of [`score_all_into`], from `0.0` over
/// ascending attributes. Rounding is monotone, so for every `w` in the
/// box the score that [`score_all_into`] (or [`Dataset::score`])
/// computes lies in `[smin[i], smax[i]]` numerically, not merely the
/// exact score.
///
/// # Panics
/// If `lo` or `hi` does not have `ds.dim()` entries.
pub fn score_bounds_into(
    ds: &Dataset,
    lo: &[f64],
    hi: &[f64],
    smin: &mut Vec<f64>,
    smax: &mut Vec<f64>,
) {
    assert!(
        lo.len() == ds.dim() && hi.len() == ds.dim(),
        "weight arity mismatch"
    );
    smin.clear();
    smin.resize(ds.len(), 0.0);
    smax.clear();
    smax.resize(ds.len(), 0.0);
    for (j, (&l, &h)) in lo.iter().zip(hi).enumerate() {
        for ((a, b), &x) in smin.iter_mut().zip(smax.iter_mut()).zip(ds.column(j)) {
            let (down, up) = if x < 0.0 { (h, l) } else { (l, h) };
            *a += down * x;
            *b += up * x;
        }
    }
}

/// A gathered copy of some items' attribute columns: the candidate set
/// of a restricted ranking, scored and selected without touching the
/// other items. Buffers are reused across [`ItemSubset::gather`] calls,
/// so a caller that keeps one subset allocates nothing once it has held
/// its largest set.
#[derive(Debug, Clone, Default)]
pub struct ItemSubset {
    ids: Vec<u32>,
    /// Column-major: attribute `j` of `ids[t]` is `cols[j * len + t]`.
    cols: Vec<f64>,
    scores: Vec<f64>,
    keys: Vec<u128>,
}

impl ItemSubset {
    /// Refill with the items `ids` of `ds`, in that order.
    ///
    /// # Panics
    /// If an id is out of range.
    pub fn gather(&mut self, ds: &Dataset, ids: &[u32]) {
        self.ids.clear();
        self.ids.extend_from_slice(ids);
        self.cols.clear();
        for j in 0..ds.dim() {
            let col = ds.column(j);
            self.cols.extend(ids.iter().map(|&i| col[i as usize]));
        }
    }

    /// Number of gathered items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no item is gathered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Score the gathered items under `w` and append the best `take` of
    /// them to `out`, by the packed ranking key of [`top_k_select_into`]
    /// (original ids, so ties break exactly as in the full ranking).
    /// Under [`PrefixOrder::Sorted`] the appended ids are in ranking
    /// order; under [`PrefixOrder::Set`] they are unordered except that
    /// the worst of them comes last. `take` is clamped to
    /// [`len`](ItemSubset::len).
    ///
    /// Each score is the multiply-accumulate sequence of
    /// [`score_all_into`], so it is bit-identical to that item's entry
    /// of the full scored column: whenever the gathered set holds the
    /// full ranking's top-`take`, the appended ids are exactly those.
    ///
    /// # Panics
    /// If `w` does not match the gathered arity.
    pub fn top_k_append(&mut self, w: &[f64], take: usize, order: PrefixOrder, out: &mut Vec<u32>) {
        let m = self.ids.len();
        assert_eq!(self.cols.len(), w.len() * m, "weight arity mismatch");
        self.fill_scores(w);
        self.keys.clear();
        self.keys.extend(
            self.scores
                .iter()
                .zip(&self.ids)
                .map(|(&s, &id)| rank_key(s, id)),
        );
        append_best(&mut self.keys, take, order, out);
    }

    /// [`fill_scores`] over the gathered columns.
    #[cfg(not(feature = "scalar-kernels"))]
    fn fill_scores(&mut self, w: &[f64]) {
        let m = self.ids.len();
        self.scores.clear();
        self.scores.resize(m, 0.0);
        for (col, &wj) in self.cols.chunks_exact(m.max(1)).zip(w) {
            for (o, &x) in self.scores.iter_mut().zip(col) {
                *o += wj * x;
            }
        }
    }

    /// The scalar fallback: the [`Dataset::score`] fold per item, from
    /// `0.0`.
    #[cfg(feature = "scalar-kernels")]
    fn fill_scores(&mut self, w: &[f64]) {
        let m = self.ids.len();
        self.scores.clear();
        self.scores.extend((0..m).map(|t| {
            w.iter()
                .enumerate()
                .fold(0.0, |acc, (j, b)| acc + self.cols[j * m + t] * b)
        }));
    }
}

/// Score the items `ids` of `ds` under `w` and append the best `take` of
/// them to `out`, as [`ItemSubset::top_k_append`] does for a gathered
/// set, but reading the dataset's own columns: the form for a single
/// ranking of a candidate set kept as ids. `take` is clamped to
/// `ids.len()`.
///
/// Each score accumulates the attributes in ascending order from `0.0`,
/// the operation sequence of [`score_all_into`] (and of
/// [`Dataset::score`]), so it is bit-identical to that item's entry of
/// the full scored column. Scores and keys go to the thread-local
/// buffers of [`Dataset::rank`] and [`top_k_select_into`], the ones
/// [`RankScratch`] lends, so a warmed thread allocates nothing here
/// beyond the growth of `out`.
///
/// # Panics
/// If `w.len() != ds.dim()` or an id is out of range.
pub fn top_k_among_append(
    ds: &Dataset,
    w: &[f64],
    ids: &[u32],
    take: usize,
    order: PrefixOrder,
    out: &mut Vec<u32>,
) {
    assert_eq!(w.len(), ds.dim(), "weight arity mismatch");
    SCORES.with(|scores| {
        let mut scores = scores.borrow_mut();
        scores.clear();
        scores.resize(ids.len(), 0.0);
        for (j, &wj) in w.iter().enumerate() {
            let col = ds.column(j);
            for (o, &id) in scores.iter_mut().zip(ids) {
                *o += wj * col[id as usize];
            }
        }
        KEYS.with(|keys| {
            let mut keys = keys.borrow_mut();
            keys.clear();
            keys.extend(scores.iter().zip(ids).map(|(&s, &id)| rank_key(s, id)));
            append_best(&mut keys, take, order, out);
        });
    });
}

/// Select the best `take` of `keys` (clamped to `keys.len()`) and append
/// their ids to `out`: in ranking order under [`PrefixOrder::Sorted`],
/// otherwise unordered except that the worst of them comes last.
fn append_best(keys: &mut [u128], take: usize, order: PrefixOrder, out: &mut Vec<u32>) {
    let take = take.min(keys.len());
    if take == 0 {
        return;
    }
    // The same order as `select_nth_unstable`, through a comparator of
    // its own: a second caller of `top_k_select_into`'s selection
    // instance made LLVM outline it from that serving-path kernel.
    keys.select_nth_unstable_by(take - 1, u128::cmp);
    if order == PrefixOrder::Sorted {
        keys[..take].sort_unstable();
    }
    out.extend(keys[..take].iter().map(|&key| key as u32));
}

/// Classify every entry of a scored column against `threshold`:
/// `1` above, `-1` below, `0` exactly equal — `f64::total_cmp`
/// semantics, so the signs agree exactly with the ranking comparator
/// (signed zeros included, and NaN cannot arise from finite data and
/// finite weights).
///
/// This is the hyperplane side test in score space: with
/// `scores = score_all_into(ds, w, …)` and `threshold = b`, entry `i`
/// reports which side of `w · x = b` item `i` lies on. The 2-D sweep's
/// `rank_steps` certificate path consumes it to place one item's rank
/// against the whole scored column.
pub fn side_test_batch(scores: &[f64], threshold: f64, out: &mut Vec<i8>) {
    out.clear();
    out.extend(scores.iter().map(|s| match s.total_cmp(&threshold) {
        Ordering::Greater => 1i8,
        Ordering::Equal => 0,
        Ordering::Less => -1,
    }));
}

/// How [`top_k_select_into`] leaves the first `k` positions of a
/// bounded ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixOrder {
    /// The first `k` positions are exactly the first `k` of the full
    /// ranking, in ranking order.
    Sorted,
    /// The first `k` positions hold the same items as the sorted prefix,
    /// in unspecified order, except that position `k - 1` holds exactly
    /// the `k`-th ranked item. For set-based oracles, whose verdict reads
    /// only *which* items fill the top-`k`.
    Set,
}

/// Rank item ids by a scored column into `out` (cleared and refilled):
/// descending score via `total_cmp`, ties broken by ascending id — the
/// canonical ranking comparator of the whole system.
///
/// Each item is packed into one `u128` key (`rank_key`) whose ascending
/// integer order *is* that comparator, so the selection and sort run
/// over plain integers (one load and one compare per comparison, instead
/// of two indirect score loads plus an id tie-break). The ids come back
/// out as the low 32 bits of the keys.
///
/// With `bound = Some(k)`, `0 < k < n`, `select_nth_unstable` places the
/// top-`k` keys in the first `k` positions in `O(n)`, with the `k`-th
/// key at position `k - 1`; they are exactly the top `k` of the full
/// sort because the keys are distinct. [`PrefixOrder::Sorted`] then
/// sorts that prefix (`O(k log k)`); [`PrefixOrder::Set`] leaves it as
/// selected. The tail holds the remaining ids in unspecified order —
/// still a permutation. Any other bound ranks fully, whatever `order`.
///
/// The key buffer is thread-local and reused across calls (it grows to
/// the largest `n` ranked on the thread and never shrinks), so the
/// steady state allocates nothing beyond what `out` already holds. See
/// [`RankScratch`] for lending a thread a buffer instead.
pub fn top_k_select_into(
    scores: &[f64],
    bound: Option<usize>,
    order: PrefixOrder,
    out: &mut Vec<u32>,
) {
    let n = scores.len();
    KEYS.with(|keys| {
        let mut keys = keys.borrow_mut();
        keys.clear();
        keys.extend(
            scores
                .iter()
                .zip(0..n as u32)
                .map(|(&s, id)| rank_key(s, id)),
        );
        match bound {
            // k = 0 would mean "the oracle inspects nothing"; rank fully
            // so the output stays identical to the full sort.
            Some(k) if k > 0 && k < n => {
                keys.select_nth_unstable(k - 1);
                if order == PrefixOrder::Sorted {
                    keys[..k].sort_unstable();
                }
            }
            _ => keys.sort_unstable(),
        }
        out.clear();
        out.extend(keys.iter().map(|&key| key as u32));
    });
}

thread_local! {
    /// The key buffer of [`top_k_select_into`].
    static KEYS: RefCell<Vec<u128>> = const { RefCell::new(Vec::new()) };
    /// The score buffer of [`Dataset::rank`] and [`Dataset::top_k`].
    pub(crate) static SCORES: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// The ranking scratch that every thread keeps: the key buffer of
/// [`top_k_select_into`] and the score buffer of [`Dataset::rank`] and
/// [`Dataset::top_k`]. Once a thread has ranked `n` items it holds about
/// `24·n` bytes, and the buffers never shrink.
///
/// A server that ranks on many threads, but on only a few at once, can
/// keep one `RankScratch` per concurrent ranking and lend it to whichever
/// thread ranks ([`RankScratch::swap_with_thread`]). Retained memory then
/// follows the number of rankings at once, not the number of threads.
#[derive(Debug, Default)]
pub struct RankScratch {
    keys: Vec<u128>,
    scores: Vec<f64>,
}

impl RankScratch {
    /// Exchange these buffers with the calling thread's. A second call
    /// swaps them back: lend before ranking, take back after. Must not
    /// be called from inside a ranking on the same thread.
    pub fn swap_with_thread(&mut self) {
        KEYS.with(|keys| std::mem::swap(&mut *keys.borrow_mut(), &mut self.keys));
        SCORES.with(|scores| std::mem::swap(&mut *scores.borrow_mut(), &mut self.scores));
    }

    /// Heap bytes these buffers hold (their capacity, not their length).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u128>()
            + self.scores.capacity() * std::mem::size_of::<f64>()
    }
}

/// The packed ranking key of item `id` with score `score`,
/// `!asc(score.to_bits()) << 32 | id` (the module docs say why):
/// ascending key order is score descending under `total_cmp`, then id
/// ascending, and keys of distinct ids never compare equal.
#[inline]
fn rank_key(score: f64, id: u32) -> u128 {
    let b = score.to_bits();
    let asc = if b >> 63 == 1 { !b } else { b | 1 << 63 };
    u128::from(!asc) << 32 | u128::from(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(n: usize, d: usize, seed: u64) -> Dataset {
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
    fn columns_are_64_byte_aligned() {
        let ds = ds(100, 4, 1);
        for j in 0..ds.dim() {
            assert_eq!(ds.column(j).as_ptr() as usize % 64, 0, "column {j}");
        }
        // Alignment survives growth.
        let mut col = AlignedCol::default();
        for i in 0..1000 {
            col.push(i as f64);
        }
        assert_eq!(col.as_slice().as_ptr() as usize % 64, 0);
    }

    #[test]
    fn aligned_col_push_remove() {
        let mut col = AlignedCol::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(col.len(), 4);
        assert_eq!(col.remove(1), 2.0);
        assert_eq!(col.as_slice(), &[1.0, 3.0, 4.0]);
        col.push(9.0);
        assert_eq!(col.as_slice(), &[1.0, 3.0, 4.0, 9.0]);
        // Across lane boundaries.
        let mut long: AlignedCol = (0..20).map(f64::from).collect();
        assert_eq!(long.remove(0), 0.0);
        assert_eq!(long.len(), 19);
        assert_eq!(long.as_slice()[18], 19.0);
        let eq: AlignedCol = (1..20).map(f64::from).collect();
        assert_eq!(long, eq);
    }

    #[test]
    fn score_all_bit_identical_to_scalar() {
        for (n, d, seed) in [(1, 1, 1), (7, 2, 2), (100, 3, 3), (5000, 7, 4)] {
            let ds = ds(n, d, seed);
            let w: Vec<f64> = (0..d).map(|j| 0.1 + j as f64 * 0.37).collect();
            let mut out = Vec::new();
            score_all_into(&ds, &w, &mut out);
            assert_eq!(out.len(), n);
            for (i, o) in out.iter().enumerate() {
                assert_eq!(
                    o.to_bits(),
                    ds.score(&w, i).to_bits(),
                    "item {i} of n={n} d={d}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "weight arity mismatch")]
    fn score_all_arity_mismatch_panics() {
        let ds = ds(4, 2, 9);
        score_all_into(&ds, &[1.0], &mut Vec::new());
    }

    #[test]
    fn side_test_signs() {
        let scores = [1.0, 0.5, 0.5, 0.25, -0.0, 0.0];
        let mut out = Vec::new();
        side_test_batch(&scores, 0.5, &mut out);
        assert_eq!(out, vec![1, 0, 0, -1, -1, -1]);
        // total_cmp distinguishes signed zeros, exactly like the ranking
        // comparator does.
        side_test_batch(&scores, 0.0, &mut out);
        assert_eq!(out, vec![1, 1, 1, 1, -1, 0]);
    }

    /// The packed keys against the comparator they replace, for every
    /// bound, on the bit patterns where a key transform can go wrong:
    /// exact duplicates straddling the cut, signed zeros, negatives,
    /// subnormals, infinities and NaNs of both signs.
    #[test]
    fn packed_keys_match_total_cmp_comparator() {
        let sub = f64::from_bits(1);
        let scores = [
            0.5,
            -0.0,
            f64::NAN,
            0.0,
            -1.5,
            0.5,
            f64::INFINITY,
            sub,
            -sub,
            f64::NEG_INFINITY,
            0.5,
            -f64::NAN,
            f64::MIN_POSITIVE,
            -0.0,
            -1.5,
            f64::MAX,
            0.0,
            0.5,
            f64::MIN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            -f64::MIN_POSITIVE,
            0.25,
            0.5,
        ];
        let n = scores.len();
        let mut expect: Vec<u32> = (0..n as u32).collect();
        expect.sort_unstable_by(|a, b| {
            scores[*b as usize]
                .total_cmp(&scores[*a as usize])
                .then(a.cmp(b))
        });
        let mut full = Vec::new();
        top_k_select_into(&scores, None, PrefixOrder::Sorted, &mut full);
        assert_eq!(full, expect);
        let all: Vec<u32> = (0..n as u32).collect();
        for k in 0..=n + 1 {
            let k_eff = if k == 0 { n } else { k.min(n) };
            let mut part = Vec::new();
            top_k_select_into(&scores, Some(k), PrefixOrder::Sorted, &mut part);
            assert_eq!(&part[..k_eff], &expect[..k_eff], "k={k}");
            let mut sorted = part.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, all, "k={k}");

            // Set mode: the same top-k items, the exact k-th at k - 1,
            // and still a permutation.
            let mut set = Vec::new();
            top_k_select_into(&scores, Some(k), PrefixOrder::Set, &mut set);
            let mut got_head = set[..k_eff].to_vec();
            let mut want_head = expect[..k_eff].to_vec();
            got_head.sort_unstable();
            want_head.sort_unstable();
            assert_eq!(got_head, want_head, "set k={k}");
            assert_eq!(set[k_eff - 1], expect[k_eff - 1], "set k-th, k={k}");
            set.sort_unstable();
            assert_eq!(set, all, "set k={k}");
        }
    }

    #[test]
    fn top_k_select_matches_full_sort_prefix() {
        let ds = ds(60, 2, 5);
        let w = [0.6, 0.4];
        let mut scores = Vec::new();
        score_all_into(&ds, &w, &mut scores);
        let mut full = Vec::new();
        top_k_select_into(&scores, None, PrefixOrder::Sorted, &mut full);
        assert_eq!(full, ds.rank(&w));
        for k in [0usize, 1, 7, 59, 60, 100] {
            let mut part = Vec::new();
            top_k_select_into(&scores, Some(k), PrefixOrder::Sorted, &mut part);
            let k_eff = if k == 0 { 60 } else { k.min(60) };
            assert_eq!(&part[..k_eff], &full[..k_eff], "k={k}");
            let mut sorted = part.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..60).collect::<Vec<u32>>());
        }
    }

    /// Any gathered superset of the top-`k`, and any id list holding it,
    /// yields the full ranking's top-`k`: the same set with the `k`-th
    /// item last under `Set`, the same sequence under `Sorted`, whatever
    /// the order of the ids. The data has exact score ties (the values
    /// sit on a 1/8 lattice) and negative weights' worth of signs via a
    /// shifted column.
    #[test]
    fn subset_top_k_matches_full_select() {
        let base = ds(90, 3, 21);
        let rows: Vec<Vec<f64>> = (0..base.len())
            .map(|i| {
                let mut r = base.row(i);
                r[1] -= 4.0;
                r
            })
            .collect();
        let ds = Dataset::from_rows((0..3).map(|j| format!("a{j}")).collect(), &rows).unwrap();
        let n = ds.len();
        let mut subset = ItemSubset::default();
        // The gathered copy and the id-list kernel, behind one signature.
        let mut append =
            |gathered: bool, ids: &[u32], w: &[f64], take, order, out: &mut Vec<u32>| {
                if gathered {
                    subset.gather(&ds, ids);
                    assert_eq!(subset.len(), ids.len());
                    subset.top_k_append(w, take, order, out);
                } else {
                    top_k_among_append(&ds, w, ids, take, order, out);
                }
            };
        for (wi, w) in [[0.5, 0.3, 0.8], [1.0, 0.0, 0.25], [0.1, 0.9, 0.4]]
            .iter()
            .enumerate()
        {
            let mut scores = Vec::new();
            score_all_into(&ds, w, &mut scores);
            let mut full = Vec::new();
            top_k_select_into(&scores, None, PrefixOrder::Sorted, &mut full);
            for (k, gathered) in [1usize, 2, 17, n - 1, n]
                .into_iter()
                .flat_map(|k| [(k, true), (k, false)])
            {
                // The top-k plus every third other item, best id last.
                let mut ids: Vec<u32> = (0..n as u32)
                    .filter(|&i| full[..k].contains(&i) || (i as usize + wi).is_multiple_of(3))
                    .collect();
                ids.reverse();

                let mut sorted = vec![7u32];
                append(gathered, &ids, w, k, PrefixOrder::Sorted, &mut sorted);
                assert_eq!(&sorted[1..], &full[..k], "sorted k={k}");

                // Set order, after a fixed head of the best two items
                // taken out of the candidates.
                if k > 2 {
                    let head = &full[..2];
                    let rest: Vec<u32> =
                        ids.iter().copied().filter(|i| !head.contains(i)).collect();
                    let mut set = head.to_vec();
                    append(gathered, &rest, w, k - 2, PrefixOrder::Set, &mut set);
                    assert_eq!(set.len(), k);
                    assert_eq!(set[k - 1], full[k - 1], "set k-th, k={k}");
                    let mut got = set.clone();
                    got.sort_unstable();
                    let mut want = full[..k].to_vec();
                    want.sort_unstable();
                    assert_eq!(got, want, "set k={k}");
                }
            }
            let mut none = Vec::new();
            top_k_among_append(&ds, w, &[], 3, PrefixOrder::Sorted, &mut none);
            assert!(none.is_empty());
        }
    }

    /// A row of `-0.0` values scores `0.0` on every scoring path, so both
    /// kernel legs rank it exactly like a row of `0.0` values (by id).
    /// `Iterator::sum` for `f64` starts from `-0.0` and gave `-0.0` here.
    #[test]
    fn negative_zero_rows_score_alike_on_every_path() {
        let rows = vec![
            vec![1.0, 0.0],
            vec![-0.0, -0.0],
            vec![0.0, 0.0],
            vec![-1.0, 0.5],
        ];
        let ds = Dataset::from_rows(vec!["a".into(), "b".into()], &rows).unwrap();
        let mut subset = ItemSubset::default();
        subset.gather(&ds, &[0, 1, 2, 3]);
        for w in [[0.5, 0.5], [0.0, 1.0], [0.0, 0.0]] {
            let mut column = Vec::new();
            score_all_into(&ds, &w, &mut column);
            subset.fill_scores(&w);
            for (i, (c, s)) in column.iter().zip(&subset.scores).enumerate() {
                let bits = ds.score(&w, i).to_bits();
                assert_eq!(c.to_bits(), bits, "score_all_into, item {i}");
                assert_eq!(s.to_bits(), bits, "ItemSubset, item {i}");
            }
            assert_eq!(ds.score(&w, 1).to_bits(), 0.0f64.to_bits(), "w = {w:?}");
        }
        // Rows 1 and 2 tie at 0.0, so they rank by id on every path.
        let w = [0.5, 0.5];
        assert_eq!(ds.rank(&w), vec![0, 1, 2, 3]);
        let mut top = Vec::new();
        top_k_among_append(&ds, &w, &[3, 2, 1, 0], 3, PrefixOrder::Sorted, &mut top);
        assert_eq!(top, vec![0, 1, 2]);
    }

    #[test]
    fn score_bounds_enclose_every_score_in_the_box() {
        let base = ds(60, 3, 8);
        let rows: Vec<Vec<f64>> = (0..base.len())
            .map(|i| {
                let mut r = base.row(i);
                r[0] -= 2.0;
                r
            })
            .collect();
        let ds = Dataset::from_rows((0..3).map(|j| format!("a{j}")).collect(), &rows).unwrap();
        let (lo, hi) = ([0.2, 0.0, 0.5], [0.4, 0.3, 0.5]);
        let (mut smin, mut smax) = (Vec::new(), Vec::new());
        score_bounds_into(&ds, &lo, &hi, &mut smin, &mut smax);
        let mut scores = Vec::new();
        for step in 0..=10 {
            let t = f64::from(step) / 10.0;
            let w = [0.2 + 0.2 * t, 0.3 * (1.0 - t), 0.5];
            score_all_into(&ds, &w, &mut scores);
            for (i, &s) in scores.iter().enumerate() {
                assert!(smin[i] <= s && s <= smax[i], "item {i} at t={t}");
            }
        }
    }

    #[test]
    fn lent_scratch_takes_the_growth_and_swaps_back() {
        let ds = ds(500, 2, 9);
        std::thread::spawn(move || {
            let mut lent = RankScratch::default();
            lent.swap_with_thread();
            let ranked = ds.rank(&[0.3, 0.7]);
            lent.swap_with_thread();
            // 500 keys of 16 bytes and 500 scores of 8 bytes, at least.
            assert!(lent.bytes() >= 24 * 500, "{} bytes", lent.bytes());
            let mut own = RankScratch::default();
            own.swap_with_thread();
            assert_eq!(own.bytes(), 0, "the thread kept buffers of its own");
            own.swap_with_thread();
            lent.swap_with_thread();
            assert_eq!(ds.rank(&[0.3, 0.7]), ranked);
        })
        .join()
        .unwrap();
    }
}
