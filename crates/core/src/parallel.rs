//! Worker-count resolution and work partitioning shared by the offline
//! builders.
//!
//! Every parallel build path in this crate is **bit-identical** to its
//! serial reference — shards are merged in a canonical deterministic
//! order — so the worker count is a pure throughput knob, never a
//! semantics knob (gated by `tests/build_equivalence.rs`).
//!
//! The one setting is
//! [`FairRankerBuilder::build_threads`](crate::FairRankerBuilder::build_threads);
//! unset or `0` means all available cores, for every backend. A backend
//! reuses its build's count for the rebuilds its updates pay and for
//! [`IndexBackend::attach`](crate::IndexBackend::attach); a decoded
//! backend, and every free-standing build function
//! ([`crate::twod::ray_sweep`], [`crate::md::sat_regions`],
//! [`crate::approximate::ApproxIndex::build`]), uses all cores. Workers
//! are scoped threads that have exited before a build returns.

/// Resolve a worker-count request: `0` means all available cores.
#[must_use]
pub(crate) fn resolve_build_threads(requested: usize) -> usize {
    if requested == 0 {
        all_cores()
    } else {
        requested
    }
}

/// `std::thread::available_parallelism`, defaulting to 1 when unknown.
#[must_use]
pub fn all_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Split `len` work items into at most `threads` contiguous, in-order
/// chunks of near-equal size. Always returns at least one (possibly
/// empty) chunk, so callers can treat "no work" and "one shard"
/// uniformly.
pub(crate) fn contiguous_chunks(len: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let t = threads.max(1).min(len.max(1));
    let per = len / t;
    let rem = len % t;
    let mut out = Vec::with_capacity(t);
    let mut start = 0;
    for s in 0..t {
        let take = per + usize::from(s < rem);
        out.push(start..start + take);
        start += take;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_range_in_order() {
        for len in [0usize, 1, 2, 5, 16, 97] {
            for threads in [1usize, 2, 3, 4, 7, 100] {
                let chunks = contiguous_chunks(len, threads);
                assert!(!chunks.is_empty());
                assert!(chunks.len() <= threads.max(1));
                let mut expect = 0;
                for c in &chunks {
                    assert_eq!(c.start, expect, "len={len} threads={threads}");
                    assert!(c.end >= c.start);
                    expect = c.end;
                }
                assert_eq!(expect, len);
                // Near-equal: sizes differ by at most one.
                let sizes: Vec<usize> = chunks.iter().map(std::ops::Range::len).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1);
            }
        }
    }

    #[test]
    fn explicit_request_wins() {
        assert_eq!(resolve_build_threads(3), 3);
        assert_eq!(resolve_build_threads(0), all_cores());
    }
}
