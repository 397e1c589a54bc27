//! Ranked group fairness over *every prefix* of the top-k, in the style
//! of FA*IR (Zehlike et al., CIKM 2017) — cited by the paper as \[32\].
//!
//! FA*IR requires that the proportion of protected-group members "in
//! every prefix of the ranking remains statistically above a given
//! minimum". This module implements that criterion as a
//! [`FairnessOracle`], which makes it directly usable by every indexing
//! algorithm in `fairrank-core` — the paper's black-box claim in action:
//! nothing in 2DRAYSWEEP / SATREGIONS / MARKCELL changes.
//!
//! The statistical test is the same shape FA*IR uses: for each prefix
//! length `i ≤ k`, the number of protected items must be at least
//! `m(i) = ⌈p·i⌉ − slack(i)`, where `slack(i)` widens with `√i` like a
//! normal approximation of the binomial test at significance `α`
//! (FA*IR's exact binomial tables reduce to this shape for the dataset
//! sizes used here).

use fairrank_datasets::{Dataset, TypeAttribute};

use crate::oracle::FairnessOracle;

/// FA*IR-style prefix proportionality: in every prefix of the top-k, the
/// protected group's count stays above a p-proportion lower bound.
#[derive(Debug, Clone)]
pub struct PrefixFairness {
    /// The type attribute's name, for re-binding after a dataset update.
    attr_name: String,
    group_of: Vec<u32>,
    protected: u32,
    k: usize,
    p: f64,
    alpha_z: f64,
}

impl PrefixFairness {
    /// Require the protected group to hold at least proportion `p` of
    /// every prefix of the top-`k`, with a binomial-style tolerance at
    /// z-score `alpha_z` (0 = exact ⌈p·i⌉, 1.64 ≈ α = 0.05 one-sided).
    ///
    /// # Panics
    /// If `k == 0`, `p ∉ [0, 1]` or `alpha_z < 0`.
    #[must_use]
    pub fn new(attr: &TypeAttribute, protected: u32, k: usize, p: f64, alpha_z: f64) -> Self {
        assert!(k > 0, "top-k must be non-empty");
        assert!((0.0..=1.0).contains(&p), "p must be a proportion");
        assert!(alpha_z >= 0.0, "z-score must be non-negative");
        PrefixFairness {
            attr_name: attr.name.clone(),
            group_of: attr.values.clone(),
            protected,
            k,
            p,
            alpha_z,
        }
    }

    /// The minimum protected count required at prefix length `i` (1-based).
    #[must_use]
    pub fn min_protected_at(&self, i: usize) -> usize {
        let i_f = i as f64;
        let slack = self.alpha_z * (i_f * self.p * (1.0 - self.p)).sqrt();
        let need = (self.p * i_f - slack).ceil();
        need.max(0.0) as usize
    }

    /// The prefix-length bound `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }
}

impl FairnessOracle for PrefixFairness {
    fn is_satisfactory(&self, ranking: &[u32]) -> bool {
        let k = self.k.min(ranking.len());
        let mut protected_seen = 0usize;
        for (idx, &item) in ranking.iter().take(k).enumerate() {
            if self.group_of[item as usize] == self.protected {
                protected_seen += 1;
            }
            if protected_seen < self.min_protected_at(idx + 1) {
                return false;
            }
        }
        true
    }

    fn describe(&self) -> String {
        format!(
            "FA*IR prefix fairness: protected group {} at proportion ≥ {:.2} in every prefix of the top-{} (z = {:.2})",
            self.protected, self.p, self.k, self.alpha_z
        )
    }

    fn top_k_bound(&self) -> Option<usize> {
        Some(self.k)
    }

    // Group membership is per item: re-read it from the updated
    // dataset's attribute of the same name (`None` when it is gone).
    fn rebind(&self, ds: &Dataset) -> Option<Box<dyn FairnessOracle>> {
        let attr = ds.type_attribute(&self.attr_name)?;
        Some(Box::new(PrefixFairness {
            group_of: attr.values.clone(),
            ..self.clone()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(values: Vec<u32>) -> TypeAttribute {
        TypeAttribute {
            name: "g".into(),
            labels: vec!["prot".into(), "other".into()],
            values,
        }
    }

    /// Ranking where the protected group (0) occupies the given positions.
    fn ranking_with_protected_at(n: usize, protected_pos: &[usize]) -> (TypeAttribute, Vec<u32>) {
        let mut values = vec![1u32; n];
        for &p in protected_pos {
            values[p] = 0;
        }
        let ranking: Vec<u32> = (0..n as u32).collect();
        (attr(values), ranking)
    }

    #[test]
    fn rebind_reads_the_updated_membership() {
        let mut ds =
            Dataset::from_rows(vec!["a".into()], &[vec![3.0], vec![2.0], vec![1.0]]).unwrap();
        ds.add_type_attribute("g", vec!["prot".into(), "other".into()], vec![1, 0, 1])
            .unwrap();
        let o = PrefixFairness::new(ds.type_attribute("g").unwrap(), 0, 1, 1.0, 0.0);
        assert!(!o.is_satisfactory(&[0, 1, 2]));
        ds.insert_row(&[4.0], &[0]).unwrap();
        let rebound = o.rebind(&ds).expect("attribute still present");
        assert!(rebound.is_satisfactory(&[3, 0, 1, 2]));
    }

    #[test]
    fn perfectly_alternating_passes_half() {
        let n = 20;
        let positions: Vec<usize> = (0..n).step_by(2).collect();
        let (a, ranking) = ranking_with_protected_at(n, &positions);
        let o = PrefixFairness::new(&a, 0, n, 0.5, 0.0);
        assert!(o.is_satisfactory(&ranking));
    }

    #[test]
    fn protected_at_bottom_fails() {
        // All protected items in the bottom half: early prefixes violate.
        let n = 20;
        let positions: Vec<usize> = (10..20).collect();
        let (a, ranking) = ranking_with_protected_at(n, &positions);
        let o = PrefixFairness::new(&a, 0, n, 0.5, 0.0);
        assert!(!o.is_satisfactory(&ranking));
    }

    #[test]
    fn slack_tolerates_small_deficits() {
        // One protected item "late" by a position: strict test fails,
        // α-tolerant test passes.
        let n = 10;
        let positions = [1usize, 2, 5, 7, 8]; // position 0 unprotected
        let (a, ranking) = ranking_with_protected_at(n, &positions);
        let strict = PrefixFairness::new(&a, 0, n, 0.5, 0.0);
        let tolerant = PrefixFairness::new(&a, 0, n, 0.5, 1.64);
        assert!(!strict.is_satisfactory(&ranking));
        assert!(tolerant.is_satisfactory(&ranking));
    }

    #[test]
    fn min_protected_monotone_in_prefix() {
        let (a, _) = ranking_with_protected_at(4, &[0]);
        let o = PrefixFairness::new(&a, 0, 100, 0.4, 0.5);
        let mut prev = 0;
        for i in 1..=100 {
            let m = o.min_protected_at(i);
            assert!(m + 1 >= prev, "requirement dropped too fast at {i}");
            assert!(m <= i, "cannot require more than the prefix length");
            prev = m;
        }
    }

    #[test]
    fn zero_proportion_always_satisfied() {
        let (a, ranking) = ranking_with_protected_at(12, &[]);
        let o = PrefixFairness::new(&a, 0, 12, 0.0, 0.0);
        assert!(o.is_satisfactory(&ranking));
    }

    #[test]
    fn exposes_topk_bound_for_pruning() {
        let (a, _) = ranking_with_protected_at(5, &[0]);
        let o = PrefixFairness::new(&a, 0, 4, 0.5, 0.0);
        assert_eq!(o.top_k_bound(), Some(4));
        // Rank-aware: position within the top-k matters.
        assert!(!o.top_k_is_set());
        assert!(o.describe().contains("FA*IR"));
    }

    #[test]
    fn verdict_ignores_items_below_k() {
        let n = 16;
        let positions: Vec<usize> = (0..8).collect(); // protected on top
        let (a, mut ranking) = ranking_with_protected_at(n, &positions);
        let o = PrefixFairness::new(&a, 0, 8, 0.5, 0.0);
        assert!(o.is_satisfactory(&ranking));
        ranking[8..].reverse();
        assert!(o.is_satisfactory(&ranking));
    }
}
