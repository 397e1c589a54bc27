//! Top-k candidate pruning (paper §8, future work).
//!
//! When the fairness oracle provably inspects only the top-k prefix of the
//! ranking, items that cannot reach the top-k under *any* non-negative
//! linear function are irrelevant: their ordering exchanges can be dropped
//! before the arrangement is built, shrinking the hyperplane count from
//! `O(n²)` to `O(n_k²)`.
//!
//! The sound candidate set is the first `k` *layers*:
//!
//! * in 2-D, convex (onion) layers — the paper's proposal, exact;
//! * in higher dimensions, dominance (skyline) layers — a superset of the
//!   convex layers (if `t` sits in dominance layer `m`, a chain of `m − 1`
//!   distinct dominators outranks it under every monotone linear function,
//!   so `t` cannot crack the top-k for `m > k`).
//!
//! This global pruning is opt-in (`prune_top_k`) because it changes the
//! hyperplane set, and with it the arrangement. MARKCELL applies the
//! same idea per grid cell without an option, since it changes no probe
//! outcome: bounding every weight over the cell's angle box (corner
//! values of monotone `sin`/`cos` products) bounds every item's score, and
//! with `L`/`U` the `k`-th largest lower/upper bound, items strictly above
//! `U` are in the top-k throughout the cell and items strictly below `L`
//! never are. Only the remaining items are ranked per probe; probes
//! outside the box rank everything (see `approximate::markcell`). The
//! two complement each other: the layers argue over every function at
//! once and can only drop items, while a cell spans a small cone of
//! functions, so its bounds usually settle far more items, in both
//! directions (on the perfbench `mdapprox` build a probe ranks about a
//! fifth of the items).

use fairrank_datasets::Dataset;
use fairrank_geometry::layers::{convex_layers_2d, dominance_layers, top_k_candidates};

/// Indices of the items that can appear in the top-`k` under some
/// non-negative linear scoring function.
#[must_use]
pub fn top_k_candidate_items(ds: &Dataset, k: usize) -> Vec<usize> {
    let items: Vec<Vec<f64>> = (0..ds.len()).map(|i| ds.row(i)).collect();
    let layers = if ds.dim() == 2 {
        convex_layers_2d(&items)
    } else {
        dominance_layers(&items)
    };
    top_k_candidates(&layers, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrank_datasets::synthetic::generic;

    #[test]
    fn candidates_cover_every_topk() {
        // Correlated data has long dominance chains, so the first k layers
        // are thin and pruning bites; uniform/anti-correlated data packs
        // most items into a few wide layers and legitimately keeps nearly
        // everything (those items genuinely can reach the top-k).
        let ds = generic::correlated(120, 3, 0.8, 0.0, 31);
        let k = 6;
        let keep = top_k_candidate_items(&ds, k);
        assert!(keep.len() < ds.len(), "pruning should shrink the set");
        // Probe a fan of weight vectors: the top-k must always be within
        // the candidate set.
        for step in 0..25 {
            let a = 0.05 + 0.9 * (step as f64 / 24.0);
            let w = [a, 1.0 - a, 0.5];
            for item in ds.top_k(&w, k) {
                assert!(
                    keep.contains(&(item as usize)),
                    "top-{k} item {item} escaped the candidate set for {w:?}"
                );
            }
        }
    }

    #[test]
    fn uniform_data_coverage_holds_even_without_shrinkage() {
        // The complementary case: wide layers, little pruning, but the
        // soundness property (top-k ⊆ candidates) must hold regardless.
        let ds = generic::uniform(120, 3, 0.0, 31);
        let k = 6;
        let keep = top_k_candidate_items(&ds, k);
        for step in 0..25 {
            let a = 0.05 + 0.9 * (step as f64 / 24.0);
            let w = [a, 1.0 - a, 0.5];
            for item in ds.top_k(&w, k) {
                assert!(keep.contains(&(item as usize)));
            }
        }
    }

    #[test]
    fn two_d_uses_convex_layers() {
        let ds = generic::uniform(200, 2, 0.0, 33);
        let keep2 = top_k_candidate_items(&ds, 2);
        for step in 0..50 {
            let t = step as f64 / 49.0 * fairrank_geometry::HALF_PI;
            let w = [t.cos(), t.sin()];
            for item in ds.top_k(&w, 2) {
                assert!(keep2.contains(&(item as usize)));
            }
        }
        // Convex-layer pruning in 2-D is aggressive.
        assert!(keep2.len() * 4 < ds.len(), "{} kept", keep2.len());
    }

    #[test]
    fn k_of_n_keeps_everything() {
        let ds = generic::uniform(20, 2, 0.0, 35);
        let keep = top_k_candidate_items(&ds, 20);
        assert_eq!(keep.len(), 20);
    }
}
