//! Exposure-based group fairness: position bias weighting.
//!
//! Count-based constraints (FM1/FM2) treat every top-k position equally,
//! but users read rankings top-down — rank 1 receives far more attention
//! than rank 100. Exposure measures weight each position by a
//! logarithmic discount (the DCG discount, `1 / log₂(rank + 1)`), and
//! group fairness bounds each group's *share of total exposure* rather
//! than its share of slots.
//!
//! This oracle exercises the paper's black-box generality from a second
//! angle: its verdict depends on *where* in the top-k group members sit,
//! not just on how many there are — so the satisfactory regions it
//! induces differ from FM1's even at identical bounds.

use fairrank_datasets::TypeAttribute;

use crate::oracle::FairnessOracle;

/// Bounds on one group's share of top-k exposure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExposureBound {
    /// Group id the bound applies to.
    pub group: u32,
    /// Minimum exposure share in `[0, 1]` (`0` = unconstrained).
    pub min_share: f64,
    /// Maximum exposure share in `[0, 1]` (`1` = unconstrained).
    pub max_share: f64,
}

/// Position-discounted exposure fairness over the top-k.
#[derive(Debug, Clone)]
pub struct ExposureFairness {
    group_of: Vec<u32>,
    group_count: usize,
    k: usize,
    bounds: Vec<ExposureBound>,
    /// Discount table `[discount(0), …, discount(k−1)]`, fixed at
    /// construction so neither the serial nor the batched probe path
    /// recomputes `log2` (or allocates) per call.
    discounts: Vec<f64>,
}

impl ExposureFairness {
    /// Build an exposure oracle over the top-`k` of the given attribute.
    ///
    /// # Panics
    /// If `k == 0`.
    #[must_use]
    pub fn new(attr: &TypeAttribute, k: usize) -> Self {
        assert!(k > 0, "top-k must be non-empty");
        // Rankings are permutations of the items, so at most
        // `attr.values.len()` positions can ever receive exposure — cap
        // the table there and an oversized k costs nothing.
        let table_len = k.min(attr.values.len());
        ExposureFairness {
            group_of: attr.values.clone(),
            group_count: attr.group_count(),
            k,
            bounds: Vec::new(),
            discounts: (0..table_len).map(Self::discount).collect(),
        }
    }

    /// Add a share bound for a group (chainable).
    ///
    /// # Panics
    /// If the shares are outside `[0, 1]` or `min > max`.
    #[must_use]
    pub fn with_share_bounds(mut self, group: u32, min_share: f64, max_share: f64) -> Self {
        assert!((0.0..=1.0).contains(&min_share));
        assert!((0.0..=1.0).contains(&max_share));
        assert!(min_share <= max_share);
        self.bounds.push(ExposureBound {
            group,
            min_share,
            max_share,
        });
        self
    }

    /// The DCG position discount for 0-based rank `r`.
    #[must_use]
    pub fn discount(r: usize) -> f64 {
        1.0 / ((r + 2) as f64).log2()
    }

    /// Exposure share of each group over the top-k of `ranking`.
    #[must_use]
    pub fn exposure_shares(&self, ranking: &[u32]) -> Vec<f64> {
        let mut per_group = vec![0.0f64; self.group_count];
        self.shares_into(ranking, &mut per_group);
        per_group
    }

    /// Fill `per_group` (len = group count, overwritten) with exposure
    /// shares using the cached discount table — the allocation-free
    /// kernel behind [`exposure_shares`](ExposureFairness::exposure_shares)
    /// and both oracle paths.
    fn shares_into(&self, ranking: &[u32], per_group: &mut [f64]) {
        per_group.iter_mut().for_each(|g| *g = 0.0);
        let mut total = 0.0f64;
        for (&item, &e) in ranking.iter().zip(&self.discounts) {
            per_group[self.group_of[item as usize] as usize] += e;
            total += e;
        }
        if total > 0.0 {
            for g in per_group {
                *g /= total;
            }
        }
    }

    fn bounds_hold(&self, shares: &[f64]) -> bool {
        self.bounds.iter().all(|b| {
            let s = shares.get(b.group as usize).copied().unwrap_or(0.0);
            s >= b.min_share - 1e-12 && s <= b.max_share + 1e-12
        })
    }
}

impl FairnessOracle for ExposureFairness {
    fn is_satisfactory(&self, ranking: &[u32]) -> bool {
        self.bounds_hold(&self.exposure_shares(ranking))
    }

    // Batched path: one share buffer for the whole batch instead of a
    // fresh Vec per ranking.
    fn is_satisfactory_batch(&self, rankings: &[&[u32]]) -> Vec<bool> {
        let mut per_group = vec![0.0f64; self.group_count];
        rankings
            .iter()
            .map(|ranking| {
                self.shares_into(ranking, &mut per_group);
                self.bounds_hold(&per_group)
            })
            .collect()
    }

    fn describe(&self) -> String {
        format!(
            "exposure fairness over top-{} ({} bound(s), DCG discount)",
            self.k,
            self.bounds.len()
        )
    }

    fn top_k_bound(&self) -> Option<usize> {
        Some(self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(values: Vec<u32>) -> TypeAttribute {
        TypeAttribute {
            name: "g".into(),
            labels: vec!["a".into(), "b".into()],
            values,
        }
    }

    #[test]
    fn discount_is_decreasing() {
        for r in 0..50 {
            assert!(ExposureFairness::discount(r) > ExposureFairness::discount(r + 1));
        }
        assert!((ExposureFairness::discount(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shares_sum_to_one() {
        let a = attr(vec![0, 1, 0, 1, 0, 1]);
        let o = ExposureFairness::new(&a, 6);
        let shares = o.exposure_shares(&[0, 1, 2, 3, 4, 5]);
        let total: f64 = shares.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn position_matters_not_just_count() {
        // Same counts (2 of each group in the top-4), different positions:
        // group 0 on top vs group 0 at the bottom of the prefix.
        let a = attr(vec![0, 0, 1, 1]);
        let o = ExposureFairness::new(&a, 4).with_share_bounds(0, 0.0, 0.55);
        let zero_on_top = [0u32, 1, 2, 3];
        let zero_below = [2u32, 3, 0, 1];
        // FM1 would treat these identically; exposure must not.
        assert!(!o.is_satisfactory(&zero_on_top), "top-heavy exceeds 55%");
        assert!(o.is_satisfactory(&zero_below));
    }

    #[test]
    fn min_share_enforced() {
        let a = attr(vec![0, 1, 1, 1]);
        let o = ExposureFairness::new(&a, 4).with_share_bounds(0, 0.3, 1.0);
        // Group 0's single item at the top: share = 1/(1+...)…
        assert!(o.is_satisfactory(&[0, 1, 2, 3]));
        // …at the bottom of the prefix it drops below 30%.
        assert!(!o.is_satisfactory(&[1, 2, 3, 0]));
    }

    #[test]
    fn unconstrained_oracle_accepts_everything() {
        let a = attr(vec![0, 1, 0, 1]);
        let o = ExposureFairness::new(&a, 4);
        assert!(o.is_satisfactory(&[0, 1, 2, 3]));
        assert!(o.is_satisfactory(&[3, 2, 1, 0]));
    }

    #[test]
    fn exposes_topk_bound() {
        let a = attr(vec![0, 1]);
        let o = ExposureFairness::new(&a, 2);
        assert_eq!(o.top_k_bound(), Some(2));
        // Rank-aware: position within the top-k matters.
        assert!(!o.top_k_is_set());
        assert!(o.describe().contains("exposure"));
    }

    #[test]
    fn batched_verdicts_match_serial() {
        let a = attr(vec![0, 0, 1, 1]);
        let o = ExposureFairness::new(&a, 4).with_share_bounds(0, 0.0, 0.55);
        let rankings: Vec<Vec<u32>> = vec![
            vec![0, 1, 2, 3],
            vec![2, 3, 0, 1],
            vec![0, 2, 1, 3],
            vec![1, 0], // shorter than k
        ];
        let refs: Vec<&[u32]> = rankings.iter().map(Vec::as_slice).collect();
        let serial: Vec<bool> = refs.iter().map(|r| o.is_satisfactory(r)).collect();
        assert_eq!(o.is_satisfactory_batch(&refs), serial);
    }

    #[test]
    fn short_rankings_handled() {
        let a = attr(vec![0, 1]);
        let o = ExposureFairness::new(&a, 10).with_share_bounds(0, 0.0, 0.9);
        // Ranking shorter than k: uses what is there.
        assert!(o.is_satisfactory(&[1, 0]));
        assert!(!o.is_satisfactory(&[0]));
    }
}
