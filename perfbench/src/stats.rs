//! Order statistics shared by every phase: nearest-rank medians, the tail
//! rule, and quantiles over the difference of two histogram snapshots.

use fairrank_telemetry::{bucket_bound, HistogramSnapshot};

/// The tail percentile must leave at least this many samples beyond it.
pub const TAIL_BEYOND: usize = 10;

/// 0-based rank of the nearest-rank `q`-quantile among `n` ascending samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// 0-based rank of the tail sample among `n` ascending samples: the highest
/// rank with at least [`TAIL_BEYOND`] samples above it, capped at p99 and
/// never below the median.
pub fn tail_rank(n: usize) -> usize {
    assert!(n > 0, "tail of an empty sample");
    let beyond = n.saturating_sub(TAIL_BEYOND + 1);
    rank(0.99, n).min(beyond).max(rank(0.5, n))
}

/// The percentile [`tail_rank`] picks, in percent.
pub fn tail_pct(n: usize) -> f64 {
    100.0 * (tail_rank(n) + 1) as f64 / n as f64
}

/// Median, tail and count of a sample, or `None` when it is empty.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
    pub n: usize,
}

pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(Summary {
        p50: sorted[rank(0.5, n)],
        tail: sorted[tail_rank(n)],
        tail_pct: tail_pct(n),
        n,
    })
}

/// Nearest-rank median (`NaN` for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(f64::NAN, |s| s.p50)
}

/// Nearest-rank `q`-quantile (`NaN` for an empty sample).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(q, sorted.len())]
}

/// Median and tail of the observations recorded between two snapshots of
/// one histogram, each reported as its bucket's upper bound.
pub fn delta_summary(before: &HistogramSnapshot, after: &HistogramSnapshot) -> Option<Summary> {
    let counts: Vec<u64> = after
        .counts()
        .iter()
        .zip(before.counts())
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let n = usize::try_from(counts.iter().sum::<u64>()).expect("count fits usize");
    if n == 0 {
        return None;
    }
    let at_rank = |r: usize| {
        let mut cum = 0usize;
        for (idx, &c) in counts.iter().enumerate() {
            cum += c as usize;
            if cum > r {
                return bucket_bound(idx) as f64;
            }
        }
        unreachable!("rank below the total count")
    };
    Some(Summary {
        p50: at_rank(rank(0.5, n)),
        tail: at_rank(tail_rank(n)),
        tail_pct: tail_pct(n),
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in 21..5000 {
            let r = tail_rank(n);
            assert!(n - 1 - r >= TAIL_BEYOND, "n={n} rank={r}");
            // No higher rank up to p99 would still leave ten beyond.
            if r < rank(0.99, n) {
                assert!(n - 2 - r < TAIL_BEYOND, "n={n} rank={r} not highest");
            }
        }
    }

    #[test]
    fn tail_is_p99_from_a_thousand_samples() {
        assert_eq!(tail_pct(1000), 99.0);
        assert_eq!(tail_pct(20_000), 99.0);
        assert_eq!(tail_pct(100), 90.0);
        assert_eq!(tail_pct(200), 95.0);
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        for n in 1..=21 {
            assert_eq!(tail_rank(n), rank(0.5, n), "n={n}");
        }
    }

    #[test]
    fn summary_picks_sorted_ranks() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!((s.p50, s.tail, s.n), (50.0, 90.0, 100));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn delta_summary_ignores_earlier_observations() {
        let h = fairrank_telemetry::Histogram::new();
        for _ in 0..50 {
            h.record(1000);
        }
        let before = h.snapshot();
        for v in 1..=15u64 {
            h.record(v);
        }
        let s = delta_summary(&before, &h.snapshot()).unwrap();
        assert_eq!((s.p50, s.tail, s.n), (8.0, 8.0, 15));
        assert!(delta_summary(&before, &before).is_none());
    }
}
