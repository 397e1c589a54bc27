//! Proportional-representation fairness models FM1 and FM2 (paper §6.1).
//!
//! **FM1** partitions the dataset by one type attribute and bounds each
//! group's head-count among the top-k from below and/or above. The paper's
//! default oracle is an instance: *"a ranking is satisfactory if at most
//! 60% (about 10% more than the base rate) of the top-ranked 30% are
//! African-American."*
//!
//! **FM2** is the conjunction of FM1 constraints over several (possibly
//! overlapping) type attributes — e.g. caps on `sex`, `race` and
//! `age_bucketized` simultaneously.

use std::cell::RefCell;

use fairrank_datasets::{Dataset, TypeAttribute};

use crate::incremental::{IncrementalOracle, ProportionalityState};
use crate::oracle::FairnessOracle;

/// Per-group head-count bounds in the top-k.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupBound {
    /// Minimum number of group members in the top-k (0 = unconstrained).
    pub min: usize,
    /// Maximum number of group members in the top-k
    /// (`usize::MAX` = unconstrained).
    pub max: usize,
}

impl Default for GroupBound {
    fn default() -> Self {
        GroupBound {
            min: 0,
            max: usize::MAX,
        }
    }
}

/// FM1: proportional representation over a single type attribute.
#[derive(Debug, Clone)]
pub struct Proportionality {
    attr_name: String,
    /// Group id per item (indexed by item id).
    groups: Vec<u32>,
    group_count: usize,
    k: usize,
    bounds: Vec<GroupBound>,
}

impl Proportionality {
    /// Unconstrained oracle over `attr` looking at the top `k` items.
    /// Add bounds with the `with_*` builders; with no bounds every ranking
    /// is satisfactory.
    ///
    /// # Panics
    /// If `k == 0`.
    #[must_use]
    pub fn new(attr: &TypeAttribute, k: usize) -> Proportionality {
        assert!(k > 0, "top-k size must be positive");
        Proportionality {
            attr_name: attr.name.clone(),
            groups: attr.values.clone(),
            group_count: attr.group_count(),
            k: k.min(attr.values.len()),
            bounds: vec![GroupBound::default(); attr.group_count()],
        }
    }

    /// Convenience: look up `attr` on a dataset and use the top
    /// `fraction` of items as `k` (the paper's "top-ranked 30%").
    ///
    /// # Panics
    /// If the attribute does not exist or the fraction yields `k == 0`.
    #[must_use]
    pub fn over_fraction(ds: &Dataset, attr: &str, fraction: f64) -> Proportionality {
        let t = ds
            .type_attribute(attr)
            .unwrap_or_else(|| panic!("unknown type attribute {attr:?}"));
        let k = ((ds.len() as f64 * fraction).round() as usize).max(1);
        Proportionality::new(t, k)
    }

    /// Cap group `g` at `max` members of the top-k.
    #[must_use]
    pub fn with_max_count(mut self, g: u32, max: usize) -> Proportionality {
        self.bounds[g as usize].max = max;
        self
    }

    /// Require at least `min` members of group `g` in the top-k.
    #[must_use]
    pub fn with_min_count(mut self, g: u32, min: usize) -> Proportionality {
        self.bounds[g as usize].min = min;
        self
    }

    /// Cap group `g` at `share` of the top-k (paper's "at most 60%").
    #[must_use]
    pub fn with_max_share(self, g: u32, share: f64) -> Proportionality {
        let k = self.k;
        self.with_max_count(g, (share * k as f64).floor() as usize)
    }

    /// Require group `g` to fill at least `share` of the top-k.
    #[must_use]
    pub fn with_min_share(self, g: u32, share: f64) -> Proportionality {
        let k = self.k;
        self.with_min_count(g, (share * k as f64).ceil() as usize)
    }

    /// Cap **every** group at its dataset proportion plus `slack`
    /// (the paper's §6.4 DOT constraint with `slack = 0.05`, restricted to
    /// `groups` when given).
    #[must_use]
    pub fn with_proportional_caps(
        mut self,
        ds_proportions: &[f64],
        slack: f64,
        groups: Option<&[u32]>,
    ) -> Proportionality {
        let k = self.k as f64;
        let all: Vec<u32> = (0..self.group_count as u32).collect();
        for &g in groups.unwrap_or(&all) {
            let cap = ((ds_proportions[g as usize] + slack) * k).floor() as usize;
            self.bounds[g as usize].max = cap;
        }
        self
    }

    /// The top-k size.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The per-group bounds.
    #[must_use]
    pub fn bounds(&self) -> &[GroupBound] {
        &self.bounds
    }

    /// Group id of an item.
    #[inline]
    #[must_use]
    pub fn group_of(&self, item: u32) -> u32 {
        self.groups[item as usize]
    }

    /// Number of groups.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.group_count
    }

    /// Count members per group among the first `k` entries of `ranking`.
    #[must_use]
    pub fn head_counts(&self, ranking: &[u32]) -> Vec<usize> {
        let mut counts = vec![0usize; self.group_count];
        self.head_counts_into(ranking, &mut counts);
        counts
    }

    /// The counting kernel of [`Proportionality::head_counts`] and the
    /// verdict: fill `counts` (len = group count, overwritten) with
    /// per-group head counts over the top-k of `ranking`.
    fn head_counts_into(&self, ranking: &[u32], counts: &mut [usize]) {
        counts.iter_mut().for_each(|c| *c = 0);
        for &item in ranking.iter().take(self.k) {
            counts[self.groups[item as usize] as usize] += 1;
        }
    }

    /// Whether a vector of head counts satisfies all bounds.
    #[must_use]
    pub fn counts_satisfy(&self, counts: &[usize]) -> bool {
        counts
            .iter()
            .zip(&self.bounds)
            .all(|(&c, b)| c >= b.min && c <= b.max)
    }

    /// Is satisfaction even possible? (Sum of minima ≤ k and the caps
    /// leave room for k items.) Used by failure-injection tests.
    #[must_use]
    pub fn is_satisfiable_in_principle(&self) -> bool {
        let group_sizes = {
            let mut sizes = vec![0usize; self.group_count];
            for &g in &self.groups {
                sizes[g as usize] += 1;
            }
            sizes
        };
        let min_total: usize = self.bounds.iter().map(|b| b.min).sum();
        let max_total: usize = self
            .bounds
            .iter()
            .zip(&group_sizes)
            .map(|(b, &s)| b.max.min(s))
            .sum();
        min_total <= self.k && max_total >= self.k
    }
}

thread_local! {
    /// The head-count buffer of [`Proportionality::is_satisfactory`]: it
    /// grows to the largest group count checked on the thread and is
    /// reused, so a verdict allocates nothing after the first.
    static COUNTS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl FairnessOracle for Proportionality {
    fn is_satisfactory(&self, ranking: &[u32]) -> bool {
        COUNTS.with(|counts| {
            let mut counts = counts.borrow_mut();
            counts.resize(self.group_count, 0);
            self.head_counts_into(ranking, &mut counts);
            self.counts_satisfy(&counts)
        })
    }

    fn describe(&self) -> String {
        format!(
            "FM1 proportionality on {:?} over top-{} ({} groups)",
            self.attr_name, self.k, self.group_count
        )
    }

    fn incremental<'a>(&'a self, ranking: &[u32]) -> Option<Box<dyn IncrementalOracle + 'a>> {
        Some(Box::new(ProportionalityState::new(self, ranking)))
    }

    fn top_k_bound(&self) -> Option<usize> {
        Some(self.k)
    }

    // Head counts are per-group tallies of the top-k: order-free.
    fn top_k_is_set(&self) -> bool {
        true
    }

    // Same bounds and (clamped) k, group ids refreshed from the updated
    // dataset's attribute of the same name. Returns `None` when the
    // attribute no longer exists or its group universe shrank below the
    // bound vector — the caller then keeps the old oracle.
    fn rebind(&self, ds: &Dataset) -> Option<Box<dyn FairnessOracle>> {
        self.rebound(ds)
            .map(|p| Box::new(p) as Box<dyn FairnessOracle>)
    }
}

impl Proportionality {
    /// The concrete re-binding behind [`FairnessOracle::rebind`], shared
    /// with [`Conjunction`].
    fn rebound(&self, ds: &Dataset) -> Option<Proportionality> {
        let attr = ds.type_attribute(&self.attr_name)?;
        if attr.group_count() < self.group_count {
            return None;
        }
        let mut bounds = self.bounds.clone();
        bounds.resize(attr.group_count(), GroupBound::default());
        Some(Proportionality {
            attr_name: self.attr_name.clone(),
            groups: attr.values.clone(),
            group_count: attr.group_count(),
            k: self.k.min(attr.values.len()),
            bounds,
        })
    }
}

/// FM2: the conjunction of several proportionality constraints, possibly
/// over different type attributes and different k's.
#[derive(Debug, Clone, Default)]
pub struct Conjunction {
    parts: Vec<Proportionality>,
}

impl Conjunction {
    /// An empty conjunction (always satisfied).
    #[must_use]
    pub fn new() -> Conjunction {
        Conjunction::default()
    }

    /// Add a constraint (builder style).
    #[must_use]
    pub fn and(mut self, p: Proportionality) -> Conjunction {
        self.parts.push(p);
        self
    }

    /// The member constraints.
    #[must_use]
    pub fn parts(&self) -> &[Proportionality] {
        &self.parts
    }
}

impl FairnessOracle for Conjunction {
    fn is_satisfactory(&self, ranking: &[u32]) -> bool {
        self.parts.iter().all(|p| p.is_satisfactory(ranking))
    }

    fn describe(&self) -> String {
        let inner: Vec<String> = self.parts.iter().map(|p| p.describe()).collect();
        format!("FM2 conjunction [{}]", inner.join("; "))
    }

    fn incremental<'a>(&'a self, ranking: &[u32]) -> Option<Box<dyn IncrementalOracle + 'a>> {
        let states: Vec<ProportionalityState<'a>> = self
            .parts
            .iter()
            .map(|p| ProportionalityState::new(p, ranking))
            .collect();
        Some(Box::new(crate::incremental::ConjunctionState::new(states)))
    }

    fn top_k_bound(&self) -> Option<usize> {
        // The conjunction inspects up to the largest prefix of its parts.
        self.parts.iter().map(|p| p.k()).max()
    }

    // Only when every part counts over the same k: a smaller-k part
    // reads a prefix of the top-k, which an unordered top-k scrambles.
    fn top_k_is_set(&self) -> bool {
        self.parts.windows(2).all(|w| w[0].k() == w[1].k())
    }

    // Rebinds part-wise; the whole conjunction rebinds only if every part
    // does (a partially rebound conjunction would mix item-id epochs).
    fn rebind(&self, ds: &Dataset) -> Option<Box<dyn FairnessOracle>> {
        let parts: Option<Vec<Proportionality>> =
            self.parts.iter().map(|p| p.rebound(ds)).collect();
        Some(Box::new(Conjunction { parts: parts? }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(values: Vec<u32>, groups: usize) -> TypeAttribute {
        TypeAttribute {
            name: "g".into(),
            labels: (0..groups).map(|i| format!("g{i}")).collect(),
            values,
        }
    }

    #[test]
    fn paper_figure1_example() {
        // Binary types; fair iff top-4 has exactly 2 of each.
        let t = attr(vec![0, 0, 0, 1, 1, 1, 0, 1], 2);
        let o = Proportionality::new(&t, 4)
            .with_min_count(0, 2)
            .with_max_count(0, 2)
            .with_min_count(1, 2)
            .with_max_count(1, 2);
        // 3 orange (0) + 1 blue (1): unsatisfactory.
        assert!(!o.is_satisfactory(&[0, 1, 2, 3, 4, 5, 6, 7]));
        // 2 + 2: satisfactory.
        assert!(o.is_satisfactory(&[0, 1, 3, 4, 2, 5, 6, 7]));
    }

    #[test]
    fn max_share_floor_semantics() {
        let t = attr(vec![0; 10], 1);
        let o = Proportionality::new(&t, 3).with_max_share(0, 0.5);
        // floor(0.5 × 3) = 1.
        assert_eq!(o.bounds()[0].max, 1);
    }

    #[test]
    fn min_share_ceil_semantics() {
        let t = attr(vec![0; 10], 1);
        let o = Proportionality::new(&t, 3).with_min_share(0, 0.5);
        assert_eq!(o.bounds()[0].min, 2);
    }

    #[test]
    fn k_clamped_to_n() {
        let t = attr(vec![0, 1], 2);
        let o = Proportionality::new(&t, 100);
        assert_eq!(o.k(), 2);
    }

    #[test]
    fn proportional_caps() {
        let t = attr(vec![0, 0, 1, 1, 1, 1, 1, 1, 1, 1], 2);
        let props = vec![0.2, 0.8];
        let o = Proportionality::new(&t, 10).with_proportional_caps(&props, 0.1, None);
        assert_eq!(o.bounds()[0].max, 3); // floor((0.2+0.1)*10)
        assert_eq!(o.bounds()[1].max, 9);
    }

    #[test]
    fn satisfiability_probe() {
        let t = attr(vec![0, 0, 1, 1], 2);
        // k=3 but both groups capped at 1 → impossible.
        let impossible = Proportionality::new(&t, 3)
            .with_max_count(0, 1)
            .with_max_count(1, 1);
        assert!(!impossible.is_satisfiable_in_principle());
        // Require 3 of group 0 but only 2 exist → impossible min side.
        let impossible2 = Proportionality::new(&t, 3).with_min_count(0, 4);
        assert!(!impossible2.is_satisfiable_in_principle());
        let fine = Proportionality::new(&t, 3).with_max_count(0, 2);
        assert!(fine.is_satisfiable_in_principle());
    }

    #[test]
    fn conjunction_all_must_hold() {
        let ta = attr(vec![0, 0, 1, 1], 2);
        let tb = TypeAttribute {
            name: "h".into(),
            labels: vec!["x".into(), "y".into()],
            values: vec![0, 1, 0, 1],
        };
        let c = Conjunction::new()
            .and(Proportionality::new(&ta, 2).with_max_count(0, 1))
            .and(Proportionality::new(&tb, 2).with_max_count(0, 1));
        // Top-2 = {0, 1}: group a counts 2 (violates), group b counts 1+1 ok.
        assert!(!c.is_satisfactory(&[0, 1, 2, 3]));
        // Top-2 = {0, 3}: a counts 1/1 ok; b counts 1/1 ok.
        assert!(c.is_satisfactory(&[0, 3, 1, 2]));
        assert_eq!(c.top_k_bound(), Some(2));
        // One shared k: the top-2 is read as a set. Mixed k: a part reads
        // a prefix of the top-3, so order matters.
        assert!(c.top_k_is_set());
        let mixed = c.and(Proportionality::new(&ta, 3));
        assert_eq!(mixed.top_k_bound(), Some(3));
        assert!(!mixed.top_k_is_set());
    }

    #[test]
    fn batched_verdicts_match_serial() {
        let t = attr(vec![0, 1, 0, 1, 0, 1, 0, 1], 2);
        let o = Proportionality::new(&t, 4).with_max_count(0, 2);
        let rankings: Vec<Vec<u32>> = vec![
            vec![0, 2, 4, 6, 1, 3, 5, 7], // 4 of group 0 in top-4
            vec![0, 1, 2, 3, 4, 5, 6, 7], // 2 of group 0
            vec![1, 3, 5, 7, 0, 2, 4, 6], // 0 of group 0
        ];
        let refs: Vec<&[u32]> = rankings.iter().map(Vec::as_slice).collect();
        let batch = o.is_satisfactory_batch(&refs);
        let serial: Vec<bool> = refs.iter().map(|r| o.is_satisfactory(r)).collect();
        assert_eq!(batch, serial);
        assert_eq!(batch, vec![false, true, true]);
        assert!(o.top_k_is_set());
    }

    #[test]
    fn conjunction_batch_matches_serial() {
        let ta = attr(vec![0, 0, 1, 1], 2);
        let tb = TypeAttribute {
            name: "h".into(),
            labels: vec!["x".into(), "y".into()],
            values: vec![0, 1, 0, 1],
        };
        let c = Conjunction::new()
            .and(Proportionality::new(&ta, 2).with_max_count(0, 1))
            .and(Proportionality::new(&tb, 2).with_max_count(0, 1));
        let rankings: Vec<Vec<u32>> = vec![vec![0, 1, 2, 3], vec![0, 3, 1, 2], vec![2, 3, 0, 1]];
        let refs: Vec<&[u32]> = rankings.iter().map(Vec::as_slice).collect();
        let serial: Vec<bool> = refs.iter().map(|r| c.is_satisfactory(r)).collect();
        assert_eq!(c.is_satisfactory_batch(&refs), serial);
    }

    #[test]
    fn empty_conjunction_trivially_true() {
        let c = Conjunction::new();
        assert!(c.is_satisfactory(&[5, 4, 3]));
        assert_eq!(c.top_k_bound(), None);
    }

    #[test]
    fn rebind_refreshes_groups_and_clamps_k() {
        let mut ds = fairrank_datasets::Dataset::from_rows(
            vec!["x".into()],
            &(0..6).map(|i| vec![f64::from(i)]).collect::<Vec<_>>(),
        )
        .unwrap();
        ds.add_type_attribute("g", vec!["a".into(), "b".into()], vec![0, 1, 0, 1, 0, 1])
            .unwrap();
        let oracle = Proportionality::new(ds.type_attribute("g").unwrap(), 4).with_max_count(0, 2);

        // Grow the population: same k, fresh group vector.
        ds.insert_row(&[9.0], &[1]).unwrap();
        let rebound = oracle.rebind(&ds).expect("attribute still present");
        assert!(rebound.top_k_bound() == Some(4));
        // Verdict over a ranking including the new item id 6 works (the
        // stale oracle would index out of bounds).
        assert!(rebound.is_satisfactory(&[6, 1, 3, 5, 0, 2, 4]));

        // Shrink below k: the bound clamps.
        let mut small = ds.clone();
        for _ in 0..4 {
            let last = small.len() - 1;
            small.remove_row(last).unwrap();
        }
        let clamped = oracle.rebind(&small).unwrap();
        assert_eq!(clamped.top_k_bound(), Some(3));

        // Unknown attribute → no rebinding.
        let bare = fairrank_datasets::Dataset::from_rows(vec!["x".into()], &[vec![1.0]]).unwrap();
        assert!(oracle.rebind(&bare).is_none());

        // Conjunctions rebind part-wise.
        let conj = Conjunction::new().and(oracle.clone());
        assert!(conj.rebind(&ds).is_some());
        assert!(conj.rebind(&bare).is_none());
    }

    #[test]
    fn over_fraction_k() {
        let mut ds = fairrank_datasets::Dataset::from_rows(
            vec!["x".into()],
            &(0..10).map(|i| vec![f64::from(i)]).collect::<Vec<_>>(),
        )
        .unwrap();
        ds.add_type_attribute(
            "g",
            vec!["a".into(), "b".into()],
            vec![0; 10]
                .into_iter()
                .enumerate()
                .map(|(i, _)| (i % 2) as u32)
                .collect(),
        )
        .unwrap();
        let o = Proportionality::over_fraction(&ds, "g", 0.3);
        assert_eq!(o.k(), 3);
    }
}
