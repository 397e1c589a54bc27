//! The black-box oracle trait and generic adapters.

use std::sync::atomic::{AtomicU64, Ordering};

use fairrank_datasets::Dataset;

use crate::incremental::IncrementalOracle;

/// A fairness oracle `O : ordered(D) → {⊤, ⊥}` (paper §2).
///
/// `ranking` is a permutation of item ids, best first. Implementations must
/// be deterministic: the indexing algorithms store verdicts per region.
pub trait FairnessOracle: Send + Sync {
    /// Does this ranking meet the fairness criteria?
    fn is_satisfactory(&self, ranking: &[u32]) -> bool;

    /// Evaluate a batch of rankings at once; `out[i]` is the verdict for
    /// `rankings[i]`.
    ///
    /// The default delegates to [`FairnessOracle::is_satisfactory`] per
    /// ranking, so every oracle is batchable for free. Concrete oracles
    /// override this to amortize per-call setup across the batch —
    /// scratch counters, discount tables — which is what the offline
    /// probe pipelines and [`respond_batch`] feed on. Overrides must
    /// return verdicts identical to the serial path: the indexing
    /// machinery treats batch evaluation as a pure optimization.
    ///
    /// [`respond_batch`]: https://docs.rs/fairrank (FairRanker::respond_batch)
    fn is_satisfactory_batch(&self, rankings: &[&[u32]]) -> Vec<bool> {
        rankings.iter().map(|r| self.is_satisfactory(r)).collect()
    }

    /// Human-readable description for reports.
    fn describe(&self) -> String {
        "fairness oracle".to_string()
    }

    /// An incremental evaluator seeded with `ranking`, when the oracle
    /// supports `O(1)` adjacent-swap updates (the 2DRAYSWEEP fast path).
    /// The default is `None`: fully black-box oracles are re-evaluated per
    /// sector, exactly as the paper's complexity analysis assumes.
    fn incremental<'a>(&'a self, ranking: &[u32]) -> Option<Box<dyn IncrementalOracle + 'a>> {
        let _ = ranking;
        None
    }

    /// If the oracle provably only inspects the top-`k` prefix, the bound
    /// `k` — enabling the §8 convex-layers pruning. Default: unknown.
    fn top_k_bound(&self) -> Option<usize> {
        None
    }

    /// Whether the verdict depends only on *which* items fill the first
    /// [`top_k_bound`](FairnessOracle::top_k_bound) positions, never on
    /// their order — a set-based measure (group counts in the top-`k`),
    /// as opposed to a rank-aware one (exposure, per-prefix minimums).
    ///
    /// When `true`, verdict rankings may hand the oracle its top-`k`
    /// unsorted (the rest of the contract is unchanged: the first `k`
    /// positions hold exactly the top-`k` items of the full ranking),
    /// which saves the `O(k log k)` prefix sort per probe. Meaningless
    /// without a bound. Default: `false`.
    fn top_k_is_set(&self) -> bool {
        false
    }

    /// Re-bind the oracle to an updated dataset (live insert/remove/
    /// rescore), preserving the fairness *policy* while refreshing any
    /// per-item state the oracle captured at construction (group ids,
    /// discount tables sized to `n`, …).
    ///
    /// The contract the update machinery relies on: on a ranking of items
    /// that exist in both the old and the new dataset, the rebound
    /// oracle's verdict must equal the old oracle's verdict modulo the
    /// id renumbering a removal performs (ids above the removed item
    /// shift down by one).
    ///
    /// Default `None`: the oracle holds no per-item state (e.g. a pure
    /// closure over ranking shape) and can keep serving as-is; oracles
    /// that *do* capture per-item state and cannot re-bind make live
    /// updates unsound, which is the caller's responsibility to avoid.
    fn rebind(&self, ds: &Dataset) -> Option<Box<dyn FairnessOracle>> {
        let _ = ds;
        None
    }
}

/// A closure adapter: any `Fn(&[u32]) -> bool` is a fairness oracle.
///
/// This is the paper's generality claim made concrete — diversity
/// constraints, exposure measures, or hand-written predicates drop in
/// without touching the indexing code.
pub struct FnOracle<F: Fn(&[u32]) -> bool + Send + Sync> {
    f: F,
    description: String,
}

impl<F: Fn(&[u32]) -> bool + Send + Sync> FnOracle<F> {
    /// Wrap a closure.
    pub fn new(description: impl Into<String>, f: F) -> Self {
        FnOracle {
            f,
            description: description.into(),
        }
    }
}

impl<F: Fn(&[u32]) -> bool + Send + Sync> FairnessOracle for FnOracle<F> {
    fn is_satisfactory(&self, ranking: &[u32]) -> bool {
        (self.f)(ranking)
    }

    fn describe(&self) -> String {
        self.description.clone()
    }
}

/// Decorator counting oracle invocations — the `O_n` factor in the paper's
/// Theorems 1 and 3, measured rather than assumed.
pub struct CountingOracle<O: FairnessOracle> {
    inner: O,
    calls: AtomicU64,
}

impl<O: FairnessOracle> CountingOracle<O> {
    /// Wrap an oracle.
    pub fn new(inner: O) -> Self {
        CountingOracle {
            inner,
            calls: AtomicU64::new(0),
        }
    }

    /// Number of `is_satisfactory` calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: FairnessOracle> FairnessOracle for CountingOracle<O> {
    fn is_satisfactory(&self, ranking: &[u32]) -> bool {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.is_satisfactory(ranking)
    }

    // Each ranking in a batch counts as one oracle invocation (the
    // batch is an amortization of setup, not of verdicts), and the
    // inner oracle's batched override stays in effect.
    fn is_satisfactory_batch(&self, rankings: &[&[u32]]) -> Vec<bool> {
        self.calls
            .fetch_add(rankings.len() as u64, Ordering::Relaxed);
        self.inner.is_satisfactory_batch(rankings)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    // Note: deliberately does NOT forward `incremental` — the counter exists
    // to measure black-box oracle cost.

    fn top_k_bound(&self) -> Option<usize> {
        self.inner.top_k_bound()
    }

    fn top_k_is_set(&self) -> bool {
        self.inner.top_k_is_set()
    }
}

impl<T: FairnessOracle + ?Sized> FairnessOracle for &T {
    fn is_satisfactory(&self, ranking: &[u32]) -> bool {
        (**self).is_satisfactory(ranking)
    }

    fn is_satisfactory_batch(&self, rankings: &[&[u32]]) -> Vec<bool> {
        (**self).is_satisfactory_batch(rankings)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }

    fn incremental<'a>(&'a self, ranking: &[u32]) -> Option<Box<dyn IncrementalOracle + 'a>> {
        (**self).incremental(ranking)
    }

    fn top_k_bound(&self) -> Option<usize> {
        (**self).top_k_bound()
    }

    fn top_k_is_set(&self) -> bool {
        (**self).top_k_is_set()
    }

    fn rebind(&self, ds: &Dataset) -> Option<Box<dyn FairnessOracle>> {
        (**self).rebind(ds)
    }
}

impl FairnessOracle for Box<dyn FairnessOracle> {
    fn is_satisfactory(&self, ranking: &[u32]) -> bool {
        (**self).is_satisfactory(ranking)
    }

    fn is_satisfactory_batch(&self, rankings: &[&[u32]]) -> Vec<bool> {
        (**self).is_satisfactory_batch(rankings)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }

    fn incremental<'a>(&'a self, ranking: &[u32]) -> Option<Box<dyn IncrementalOracle + 'a>> {
        (**self).incremental(ranking)
    }

    fn top_k_bound(&self) -> Option<usize> {
        (**self).top_k_bound()
    }

    fn top_k_is_set(&self) -> bool {
        (**self).top_k_is_set()
    }

    fn rebind(&self, ds: &Dataset) -> Option<Box<dyn FairnessOracle>> {
        (**self).rebind(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_oracle_delegates() {
        // Satisfactory iff item 0 is ranked first.
        let o = FnOracle::new("item 0 first", |r: &[u32]| r.first() == Some(&0));
        assert!(o.is_satisfactory(&[0, 1, 2]));
        assert!(!o.is_satisfactory(&[1, 0, 2]));
        assert_eq!(o.describe(), "item 0 first");
        assert!(o.incremental(&[0, 1, 2]).is_none());
        assert!(o.top_k_bound().is_none());
        assert!(!o.top_k_is_set());
    }

    #[test]
    fn default_batch_matches_serial() {
        let o = FnOracle::new("item 0 first", |r: &[u32]| r.first() == Some(&0));
        let rankings: [&[u32]; 3] = [&[0, 1], &[1, 0], &[0]];
        assert_eq!(o.is_satisfactory_batch(&rankings), vec![true, false, true]);
    }

    #[test]
    fn counting_oracle_counts_batches_per_ranking() {
        let o = CountingOracle::new(FnOracle::new("always", |_: &[u32]| true));
        let rankings: [&[u32]; 4] = [&[0], &[1], &[2], &[3]];
        assert_eq!(o.is_satisfactory_batch(&rankings), vec![true; 4]);
        assert_eq!(o.calls(), 4, "each batched ranking is one invocation");
    }

    #[test]
    fn counting_oracle_counts() {
        let o = CountingOracle::new(FnOracle::new("always", |_: &[u32]| true));
        assert_eq!(o.calls(), 0);
        for _ in 0..5 {
            assert!(o.is_satisfactory(&[0]));
        }
        assert_eq!(o.calls(), 5);
    }

    #[test]
    fn reference_forwarding() {
        let o = FnOracle::new("always", |_: &[u32]| true);
        let r: &dyn FairnessOracle = &o;
        assert!(r.is_satisfactory(&[1, 2]));
        let boxed: Box<dyn FairnessOracle> = Box::new(FnOracle::new("never", |_: &[u32]| false));
        assert!(!boxed.is_satisfactory(&[]));
        assert_eq!(boxed.describe(), "never");
    }
}
