//! Mergeable log-linear latency histograms.
//!
//! The bucket layout is fixed at compile time and shared by every
//! histogram in the process, which is what makes snapshots *mergeable*:
//! two snapshots combine by element-wise addition of their bucket
//! counts, with no interpolation and no information loss beyond the
//! original bucketing. The layout is log-linear (HdrHistogram-style):
//!
//! * values `0..16` get one bucket each (exact);
//! * every octave above that is split into 16 sub-buckets, so the
//!   bucket width is always at most 1/16 of the value — a recorded
//!   value is reproduced with **≤ 6.25% relative error** across the
//!   full `u64` range.
//!
//! Quantiles use the *nearest-rank (ceiling)* convention: the
//! q-quantile of n samples is the sample at rank `⌈q·n⌉` (1-based,
//! clamped to `[1, n]`), so it never falls below the requested rank and
//! q = 1 is the maximum. It is reported as the inclusive upper bound of
//! the bucket that rank falls in. An empty histogram reports `NaN`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Values below this are bucketed exactly (one bucket per value).
const LINEAR_MAX: u64 = 16;
/// Sub-buckets per octave above the linear range; 16 sub-buckets bound
/// the relative error of any reconstructed value at 1/16 = 6.25%.
const SUBS: usize = 16;
/// Octaves above the linear range needed to cover all of `u64`
/// (values with their most significant bit in positions 4..=63).
const OCTAVES: usize = 60;

/// Total number of buckets in the fixed layout.
pub const N_BUCKETS: usize = LINEAR_MAX as usize + OCTAVES * SUBS; // 976

/// Maps a value to its bucket index. Total over `u64`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        // msb >= 4 because v >= 16; `octave` counts full doublings past
        // the linear range, `sub` picks one of 16 equal slices of it.
        let msb = 63 - v.leading_zeros() as usize;
        let octave = msb - 4;
        let sub = ((v >> octave) - LINEAR_MAX) as usize;
        LINEAR_MAX as usize + octave * SUBS + sub
    }
}

/// Inclusive upper bound of a bucket — the value every sample in the
/// bucket is reported as. The top bucket's bound is `u64::MAX` exactly.
#[inline]
pub fn bucket_bound(idx: usize) -> u64 {
    debug_assert!(idx < N_BUCKETS);
    if idx < LINEAR_MAX as usize {
        idx as u64
    } else {
        let octave = (idx - LINEAR_MAX as usize) / SUBS;
        let sub = ((idx - LINEAR_MAX as usize) % SUBS) as u64;
        let low = (LINEAR_MAX + sub) << octave;
        low + ((1u64 << octave) - 1)
    }
}

struct Inner {
    buckets: Box<[AtomicU64]>,
    /// Saturating sum of recorded values; feeds `_sum` in the
    /// Prometheus exposition and `HistogramSnapshot::mean`.
    sum: AtomicU64,
}

/// A thread-safe histogram handle. Cloning shares the underlying
/// buckets, so a handle can be stashed per call site while the registry
/// keeps another for rendering.
///
/// `record` is two relaxed atomic adds — cheap enough for serving hot
/// paths. The histogram is deliberately functional even under the
/// `telemetry-off` feature: it doubles as a bounded-memory *data
/// structure* (netbench records open-loop latencies into it instead of
/// buffering every sample), and only the [`Stopwatch`](crate::Stopwatch)
/// timing layer compiles out.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<Inner>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        let buckets: Vec<AtomicU64> = (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(Inner {
                buckets: buckets.into_boxed_slice(),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // fetch_update would cost a CAS loop; wrapping is acceptable for
        // a diagnostic sum but saturation keeps `mean` sane for free on
        // realistic (µs-scale) inputs, so just add — overflow would need
        // ~2^64 µs of recorded time.
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// A point-in-time copy of the bucket counts. Snapshots taken while
    /// writers are active are *consistent per bucket* (each count is a
    /// true value at some instant) but not across buckets — the usual
    /// contract for lock-free metrics.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.inner.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a histogram's contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot — the identity element for [`merge`].
    ///
    /// [`merge`]: HistogramSnapshot::merge
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            counts: vec![0; N_BUCKETS],
            sum: 0,
        }
    }

    /// Records into the snapshot directly (single-threaded use, e.g. a
    /// per-thread accumulator that is merged afterwards).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Element-wise addition: after `a.merge(&b)`, every quantile of
    /// `a` is what it would have been had both sample streams been
    /// recorded into one histogram. Associative and commutative (gated
    /// by proptest in `tests/telemetry_equivalence.rs`).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Saturating sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Mean of the recorded values (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return f64::NAN;
        }
        self.sum as f64 / n as f64
    }

    /// Nearest-rank (ceiling) quantile: the sample at rank `⌈q·n⌉`
    /// (1-based, clamped to `[1, n]`), reported as the inclusive upper
    /// bound of the bucket holding it. `q` is clamped to `[0, 1]`, the
    /// empty histogram reports `NaN`, and the result for a given sample
    /// multiset is within one bucket width (≤ 6.25% relative error) of
    /// the exact-sample answer.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_bound(idx) as f64;
            }
        }
        // Unreachable: cum reaches n and rank <= n.
        bucket_bound(N_BUCKETS - 1) as f64
    }

    /// Raw bucket counts (fixed layout; see [`bucket_bound`]).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bound_are_consistent() {
        // Every value lands in a bucket whose bounds contain it, and
        // bucket upper bounds are strictly increasing.
        let probes = [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            65_535,
            65_536,
            1 << 40,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &probes {
            let idx = bucket_index(v);
            assert!(idx < N_BUCKETS, "index {idx} for {v}");
            let high = bucket_bound(idx);
            let low = if idx == 0 {
                0
            } else {
                bucket_bound(idx - 1) + 1
            };
            assert!(low <= v && v <= high, "{v} not in [{low}, {high}]");
        }
        for idx in 1..N_BUCKETS {
            assert!(bucket_bound(idx) > bucket_bound(idx - 1));
        }
        assert_eq!(bucket_bound(N_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn relative_error_is_bounded() {
        // Reconstructed value (bucket upper bound) is within 6.25% of
        // the recorded value for anything past the exact range.
        let mut v = 16u64;
        for _ in 0..10_000 {
            let err = bucket_bound(bucket_index(v)) as f64 / v as f64 - 1.0;
            assert!((0.0..=0.0625 + 1e-12).contains(&err), "v={v} err={err}");
            v = v.wrapping_mul(31).wrapping_add(17) % (1 << 50) + 16;
        }
    }

    #[test]
    fn quantile_matches_exact_percentile_within_one_bucket() {
        // The netbench satellite's contract: nearest-rank quantiles
        // from the histogram land within one bucket width of the
        // exact-sample nearest-rank answer.
        let mut samples: Vec<u64> = Vec::new();
        let mut x = 9_234_891u64;
        for _ in 0..5_000 {
            // xorshift-ish spread over ~5 decades, like µs latencies.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            samples.push(x % 900_000 + 17);
        }
        let hist = Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let snap = hist.snapshot();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for &q in &[0.0, 0.10, 0.50, 0.90, 0.95, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let approx = snap.quantile(q);
            let idx = bucket_index(exact);
            let width = bucket_bound(idx) - if idx == 0 { 0 } else { bucket_bound(idx - 1) };
            assert!(
                (approx - exact as f64).abs() <= width as f64,
                "q={q}: approx {approx} vs exact {exact} (bucket width {width})"
            );
        }
    }

    #[test]
    fn empty_histogram_is_nan_like_percentile() {
        let snap = Histogram::new().snapshot();
        assert!(snap.quantile(0.5).is_nan());
        assert!(snap.mean().is_nan());
        assert!(snap.is_empty());
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut a = HistogramSnapshot::empty();
        let mut b = HistogramSnapshot::empty();
        let mut whole = HistogramSnapshot::empty();
        for i in 0..1_000u64 {
            let v = i * i % 77_777;
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }
}
