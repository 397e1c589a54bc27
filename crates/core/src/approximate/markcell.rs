//! MARKCELL + ATC⁺ (paper Algorithms 8–9): find a satisfactory scoring
//! function inside a grid cell, stopping as early as possible.
//!
//! Per cell `c` with crossing hyperplanes `HC[c]`:
//!
//! * `HC[c]` empty → the ranking is constant throughout the cell; probe
//!   the center once.
//! * otherwise → build the arrangement restricted to the cell
//!   incrementally; every time a region splits, probe a strict interior
//!   witness of each new child region and **stop at the first satisfactory
//!   one** (the early-stopping strategy of §5.1, illustrated by the
//!   paper's Figure 12).
//!
//! Probes call the *real* oracle on the actual induced ranking, so a
//! function assigned to a cell is satisfactory by construction no matter
//! how the grid's linearized angle-space hyperplanes approximate the true
//! exchange surfaces (deviation F2 in [`crate::md::hyperpolar`], which
//! only the grid uses).
//!
//! The induced ranking each probe hands the oracle is exact, but for a
//! top-k-bounded oracle it need not rank every item. The caller
//! ([`ApproxIndex::build`](super::ApproxIndex::build) and its incremental
//! re-search) bounds each item's score over the cell's angle box, from
//! weight bounds at the box corners (every weight coordinate is a product
//! of `sin`/`cos` factors monotone on `[0, π/2]`), widened by
//! `2γ_d · Σ_j hi_j·|x_ij|` so that the bounds also hold for the computed
//! scores of any positive multiple of a weight vector of the box. With
//! `L`/`U` the `k`-th largest lower/upper score bound, items whose lower
//! bound is strictly above `U` are in the top-k for every function of
//! the cell, items whose upper bound is strictly below `L` for none, and
//! only the rest are scored per probe
//! (`probes::VerdictRanking::restrict_to_box`, whose module docs give the
//! full argument). Strict comparisons keep score ties on the undecided
//! side, and a probe outside the box falls back to the full ranking, so
//! every verdict and top-k threshold equals the full ranking's. This is
//! §8's top-k pruning (`crate::pruning`) made per cell: §8 drops items
//! that no function ranks into the top-k, the cell bounds drop items they
//! prove out of the top-k for every function *of this cell*, and also
//! settle the items they prove in.
//!
//! The index keeps each cell's partition
//! ([`TopKPartition`](crate::probes::TopKPartition)) after the search, so
//! that MDONLINE's line 1, "is the query already fair?", ranks a query
//! the same way: a query whose `q/‖q‖` provably lies in the cell's weight
//! box, at a norm far from underflow and overflow, gets the sure-in items
//! plus the best undecided ones; any other query, and every request with
//! `index_fastpath = false`, ranks every item.

use fairrank_geometry::arrangement_tree::ArrangementTree;
use fairrank_geometry::grid::{AngleGrid, CellId};
use fairrank_geometry::hyperplane::Hyperplane;

/// Search one cell for a satisfactory function.
///
/// `probe(angles)` must return `true` iff the ranking induced by the
/// function at `angles` satisfies the oracle. Returns the first accepted
/// function (an angle vector strictly inside the cell), or `None` when
/// every probed region of the cell is unsatisfactory. The LPs the cell's
/// arrangement solved are added to `lp_solves`.
pub fn find_satisfactory<F>(
    grid: &AngleGrid,
    cell: CellId,
    hc: &[u32],
    hyperplanes: &[Hyperplane],
    probe: &mut F,
    lp_solves: &mut u64,
) -> Option<Vec<f64>>
where
    F: FnMut(&[f64]) -> bool,
{
    let (bl, tr) = grid.cell_bounds(cell);

    // Algorithm 8 lines 1–5: uncrossed cell → single ordering.
    if hc.is_empty() {
        let center = grid.center(cell);
        return probe(&center).then_some(center);
    }

    // Per-cell arrangement with early stop (ATC⁺). The first insertion
    // covers Algorithm 8 lines 6–9 (probing h₁⁻ ∩ c and h₁⁺ ∩ c).
    let mut tree = ArrangementTree::for_cell(bl, tr);
    let found = hc
        .iter()
        .find_map(|&hi| tree.insert_with(&hyperplanes[hi as usize], probe));
    *lp_solves += tree.lp_calls;
    if found.is_some() {
        return found;
    }

    // Every listed hyperplane only grazed the cell (the crossing test is
    // conservative): the ordering is constant after all — probe the center.
    if tree.node_count() == 0 {
        let center = grid.center(cell);
        return probe(&center).then_some(center);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approximate::cellplane::hyperplanes_per_cell;
    use fairrank_geometry::HALF_PI;

    #[test]
    fn uncrossed_cell_probes_center_once() {
        let grid = AngleGrid::equal_area(3, 64);
        let mut calls = 0usize;
        let got = find_satisfactory(
            &grid,
            0,
            &[],
            &[],
            &mut |p: &[f64]| {
                calls += 1;
                p.len() == 2
            },
            &mut 0,
        );
        assert_eq!(calls, 1);
        let center = grid.center(0);
        assert_eq!(got.unwrap(), center);
    }

    #[test]
    fn uncrossed_cell_unsatisfactory_none() {
        let grid = AngleGrid::equal_area(3, 64);
        let got = find_satisfactory(&grid, 0, &[], &[], &mut |_: &[f64]| false, &mut 0);
        assert!(got.is_none());
    }

    #[test]
    fn crossed_cell_probes_both_sides() {
        // A single hyperplane through the middle of the angle space; find
        // the cell it crosses and accept only the h⁺ side.
        let grid = AngleGrid::equal_area(3, 64);
        let h = Hyperplane::new(vec![1.0, 1.0], 1.2).unwrap();
        let hc = hyperplanes_per_cell(&grid, std::slice::from_ref(&h));
        let cell = (0..grid.cell_count() as CellId)
            .find(|&c| !hc[c as usize].is_empty())
            .expect("some cell is crossed");
        let mut lp_solves = 0;
        let got = find_satisfactory(
            &grid,
            cell,
            &hc[cell as usize],
            std::slice::from_ref(&h),
            &mut |p: &[f64]| h.eval(p) > 0.0,
            &mut lp_solves,
        );
        assert!(lp_solves > 0, "the split and its witnesses are LPs");
        let p = got.expect("plus side accepted");
        assert!(h.eval(&p) > 0.0);
        // And the accepted point is inside the cell.
        let (bl, tr) = grid.cell_bounds(cell);
        for j in 0..2 {
            assert!(bl[j] - 1e-9 <= p[j] && p[j] <= tr[j] + 1e-9);
        }
    }

    #[test]
    fn early_stop_limits_probe_count() {
        // With an always-true probe, the search must stop at the very
        // first probe regardless of how many hyperplanes cross the cell.
        let grid = AngleGrid::equal_area(3, 16);
        let hs: Vec<Hyperplane> = (1..8)
            .map(|k| Hyperplane::new(vec![1.0, 0.1 * k as f64], 0.2 + 0.1 * k as f64).unwrap())
            .collect();
        let hc = hyperplanes_per_cell(&grid, &hs);
        let cell = (0..grid.cell_count() as CellId)
            .max_by_key(|&c| hc[c as usize].len())
            .unwrap();
        assert!(hc[cell as usize].len() >= 2, "test needs a busy cell");
        let mut calls = 0usize;
        let got = find_satisfactory(
            &grid,
            cell,
            &hc[cell as usize],
            &hs,
            &mut |_: &[f64]| {
                calls += 1;
                true
            },
            &mut 0,
        );
        assert!(got.is_some());
        assert_eq!(calls, 1, "early stop must fire on the first probe");
    }

    #[test]
    fn grazing_hyperplane_falls_back_to_center() {
        // A hyperplane that touches the cell box per the interval test but
        // does not properly cut it: corner-tangent plane.
        let grid = AngleGrid::uniform(3, 16);
        let (bl, _tr) = grid.cell_bounds(5);
        // Plane through the bottom-left corner with outward normal.
        let h = Hyperplane::new(vec![1.0, 1.0], bl[0] + bl[1]).unwrap();
        let mut centers = 0usize;
        let center = grid.center(5);
        let got = find_satisfactory(
            &grid,
            5,
            &[0],
            std::slice::from_ref(&h),
            &mut |p: &[f64]| {
                if p == center.as_slice() {
                    centers += 1;
                }
                true
            },
            &mut 0,
        );
        assert!(got.is_some());
    }

    #[test]
    fn all_regions_rejected_returns_none() {
        let grid = AngleGrid::equal_area(3, 16);
        let h = Hyperplane::new(vec![1.0, 1.0], 1.2).unwrap();
        let hc = hyperplanes_per_cell(&grid, std::slice::from_ref(&h));
        let cell = (0..grid.cell_count() as CellId)
            .find(|&c| !hc[c as usize].is_empty())
            .unwrap();
        let got = find_satisfactory(
            &grid,
            cell,
            &hc[cell as usize],
            std::slice::from_ref(&h),
            &mut |_: &[f64]| false,
            &mut 0,
        );
        assert!(got.is_none());
    }

    #[test]
    fn probe_points_stay_in_quadrant() {
        let grid = AngleGrid::equal_area(3, 32);
        let hs = vec![Hyperplane::new(vec![0.4, 1.0], 0.9).unwrap()];
        let hc = hyperplanes_per_cell(&grid, &hs);
        for cell in 0..grid.cell_count() as CellId {
            find_satisfactory(
                &grid,
                cell,
                &hc[cell as usize],
                &hs,
                &mut |p: &[f64]| {
                    assert!(p.iter().all(|&v| (-1e-9..=HALF_PI + 1e-9).contains(&v)));
                    false
                },
                &mut 0,
            );
        }
    }
}
