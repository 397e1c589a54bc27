//! The arrangement tree (paper §4.2, Algorithms 5 and 9).
//!
//! A binary tree in which every internal node carries a hyperplane; the left
//! edge means `h⁻` and the right edge `h⁺`, so each *null link* is a region
//! of the arrangement described by the constraints along its root path.
//! Inserting a hyperplane only descends into subtrees whose region it
//! touches, pruning the linear region scan of the flat
//! [`crate::arrangement::Arrangement`] — the paper's Figure 18 measures
//! exactly this effect.
//!
//! [`ArrangementTree::insert_with`] is the early-stopping variant used by
//! MARKCELL/ATC⁺ (Algorithm 9): every time a leaf region is split, witness
//! points of the two child regions are offered to a caller-supplied probe;
//! the first accepted witness aborts the remaining construction.
//!
//! A region is kept as its root path — `(node, side)` pairs — and the LP
//! kernel reads the path's hyperplanes in place, so an insertion copies no
//! constraint rows.

use fairrank_lp::feasibility::interior_point_in;
use fairrank_lp::{Constraint, RowSource};

use crate::arrangement::{fast_feasible, proper_cut, touches, RegionRows};
use crate::hyperplane::{Hyperplane, Sign};
use crate::HALF_PI;

type Link = Option<u32>;

/// The depth both sides of a hyperplane must reach inside a region before
/// the hyperplane splits it, in every tree but the per-cell ones of
/// [`ArrangementTree::for_cell`]. A hyperplane that cuts a region more
/// shallowly is not recorded there, so a point of a region whose rows and
/// box walls it clears by more than this margin (each row's margin scaled
/// by its norm) lies on the region's side of every inserted hyperplane.
pub const SPLIT_MARGIN: f64 = 1e-7;

/// A root path: the nodes passed and the side taken at each.
type Path = Vec<(u32, Sign)>;

/// The child slot of a side: `h⁻` left, `h⁺` right.
fn slot(side: Sign) -> usize {
    match side {
        Sign::Minus => 0,
        Sign::Plus => 1,
    }
}

/// A hierarchical index over the arrangement of hyperplanes.
#[derive(Debug, Clone)]
pub struct ArrangementTree {
    dim: usize,
    box_lo: f64,
    box_hi: f64,
    split_margin: f64,
    /// Constraints restricting the whole tree to a sub-region of the box
    /// (MARKCELL restricts the arrangement to one grid cell — paper §5.1).
    base: Vec<Constraint>,
    /// Node `i`'s hyperplane is `planes[i]`, its `h⁻`/`h⁺` children are
    /// `children[i]`.
    planes: Vec<Hyperplane>,
    children: Vec<[Link; 2]>,
    root: Link,
    /// Cumulative number of region-feasibility and witness LPs of
    /// insertions, for the Figure 18 cost comparison and the build's
    /// `lp_solves` counters.
    pub lp_calls: u64,
}

impl ArrangementTree {
    /// Empty tree over the part of the box `[lo, hi]^dim` where every
    /// `base` row holds. The rows are part of every region, so they are
    /// also part of every region's constraints.
    ///
    /// # Panics
    /// If `dim == 0`, the box is empty or a row's arity is not `dim`.
    #[must_use]
    pub fn with_base(dim: usize, lo: f64, hi: f64, base: Vec<Constraint>) -> ArrangementTree {
        assert!(dim > 0, "arrangement tree needs at least one axis");
        assert!(lo < hi, "empty box");
        assert!(base.iter().all(|c| c.a.len() == dim), "base row arity");
        ArrangementTree {
            dim,
            box_lo: lo,
            box_hi: hi,
            split_margin: SPLIT_MARGIN,
            base,
            planes: Vec::new(),
            children: Vec::new(),
            root: None,
            lp_calls: 0,
        }
    }

    /// Empty tree restricted to an axis-aligned sub-box `[bl, tr]` of the
    /// angle space — the per-cell arrangement of MARKCELL (paper §5.1).
    ///
    /// # Panics
    /// If `dim == 0` or the box is empty on some axis.
    #[must_use]
    pub fn for_cell(bl: &[f64], tr: &[f64]) -> ArrangementTree {
        let dim = bl.len();
        assert_eq!(bl.len(), tr.len());
        let mut base = Vec::with_capacity(2 * dim);
        for j in 0..dim {
            assert!(bl[j] < tr[j], "empty cell box on axis {j}");
            let mut lo_row = vec![0.0; dim];
            lo_row[j] = 1.0;
            base.push(Constraint::ge(lo_row.clone(), bl[j]));
            lo_row[j] = 1.0;
            base.push(Constraint::le(lo_row, tr[j]));
        }
        ArrangementTree {
            split_margin: 1e-9,
            ..ArrangementTree::with_base(dim, 0.0, HALF_PI, base)
        }
    }

    /// Ambient dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of regions (null links): `#nodes + 1`.
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.planes.len() + 1
    }

    /// Number of internal nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.planes.len()
    }

    /// The region at the end of `path`.
    fn region<'a>(&'a self, path: &'a [(u32, Sign)]) -> RegionRows<'a> {
        RegionRows {
            base: &self.base,
            planes: &self.planes,
            sides: path,
            extra: None,
        }
    }

    /// Insert a hyperplane (Algorithm 5, AT⁺). Returns the number of
    /// regions split.
    pub fn insert(&mut self, h: &Hyperplane) -> usize {
        assert_eq!(h.dim(), self.dim, "hyperplane dimension mismatch");
        let mut splits = 0usize;
        self.root = self.insert_rec(
            self.root,
            h,
            &mut Path::new(),
            &mut splits,
            &mut |_| false,
            &mut None,
        );
        splits
    }

    /// Insert a hyperplane, offering a strict interior witness point of
    /// every newly created child region to `probe` (Algorithm 9, ATC⁺).
    /// Returns the first witness `probe` accepts, if any; construction of
    /// the remaining subtrees is skipped from that moment on.
    pub fn insert_with<F>(&mut self, h: &Hyperplane, probe: &mut F) -> Option<Vec<f64>>
    where
        F: FnMut(&[f64]) -> bool,
    {
        assert_eq!(h.dim(), self.dim, "hyperplane dimension mismatch");
        let mut splits = 0usize;
        let mut found: Option<Vec<f64>> = None;
        self.root = self.insert_rec(
            self.root,
            h,
            &mut Path::new(),
            &mut splits,
            probe,
            &mut found,
        );
        found
    }

    fn insert_rec<F>(
        &mut self,
        link: Link,
        h: &Hyperplane,
        path: &mut Path,
        splits: &mut usize,
        probe: &mut F,
        found: &mut Option<Vec<f64>>,
    ) -> Link
    where
        F: FnMut(&[f64]) -> bool,
    {
        if found.is_some() {
            return link;
        }
        let (dim, lo, hi) = (self.dim, self.box_lo, self.box_hi);
        match link {
            None => {
                // Leaf region σ: split only on a proper cut.
                self.lp_calls += 2;
                if !proper_cut(self.region(path), h, dim, lo, hi, self.split_margin) {
                    return None;
                }
                *splits += 1;
                let idx = self.planes.len() as u32;
                self.planes.push(h.clone());
                self.children.push([None, None]);
                // Offer witnesses of the two new child regions.
                for side in [Sign::Minus, Sign::Plus] {
                    path.push((idx, side));
                    self.lp_calls += 1;
                    let witness = interior_point_in(&self.region(path), dim, lo, hi);
                    path.pop();
                    if let Some(ip) = witness {
                        if probe(&ip.point) {
                            *found = Some(ip.point);
                            break;
                        }
                    }
                }
                Some(idx)
            }
            Some(i) => {
                for side in [Sign::Minus, Sign::Plus] {
                    if found.is_some() {
                        break;
                    }
                    path.push((i, side));
                    self.lp_calls += 1;
                    if touches(self.region(path), h, dim, lo, hi) {
                        let child = self.children[i as usize][slot(side)];
                        let new_child = self.insert_rec(child, h, path, splits, probe, found);
                        self.children[i as usize][slot(side)] = new_child;
                    }
                    path.pop();
                }
                Some(i)
            }
        }
    }

    /// Call `visit` with every leaf region, left to right.
    fn for_each_leaf(&self, link: Link, path: &mut Path, visit: &mut dyn FnMut(RegionRows<'_>)) {
        match link {
            None => visit(self.region(path)),
            Some(i) => {
                for side in [Sign::Minus, Sign::Plus] {
                    path.push((i, side));
                    self.for_each_leaf(self.children[i as usize][slot(side)], path, visit);
                    path.pop();
                }
            }
        }
    }

    /// Enumerate all regions as constraint sets (root-to-null paths).
    /// Regions that became empty through sibling refinements are filtered
    /// out by a feasibility check.
    #[must_use]
    pub fn regions(&self) -> Vec<Vec<Constraint>> {
        let mut out = Vec::with_capacity(self.region_count());
        self.for_each_leaf(self.root, &mut Path::new(), &mut |region| {
            if fast_feasible(&region, self.dim, self.box_lo, self.box_hi) {
                out.push(region.to_constraints());
            }
        });
        out
    }

    /// A strict interior witness point for each region, paired with the
    /// region's constraints — the probe set SATREGIONS hands to the oracle.
    ///
    /// The witnesses are found in one pass over the leaves and the
    /// constraints materialized in a second, so the witness points are
    /// allocated back to back rather than each between its region's
    /// constraint rows: the oracle pass that reads every witness then
    /// streams through contiguous memory.
    #[must_use]
    pub fn region_witnesses(&self) -> Vec<(Vec<Constraint>, Vec<f64>)> {
        let (dim, lo, hi) = (self.dim, self.box_lo, self.box_hi);
        let mut points: Vec<Option<Vec<f64>>> = Vec::with_capacity(self.region_count());
        self.for_each_leaf(self.root, &mut Path::new(), &mut |region| {
            let point = fast_feasible(&region, dim, lo, hi)
                .then(|| interior_point_in(&region, dim, lo, hi))
                .flatten();
            points.push(point.map(|ip| ip.point));
        });
        let mut points = points.into_iter();
        let mut out = Vec::with_capacity(self.region_count());
        self.for_each_leaf(self.root, &mut Path::new(), &mut |region| {
            if let Some(point) = points.next().flatten() {
                out.push((region.to_constraints(), point));
            }
        });
        out
    }

    /// Locate the region containing `theta` and return its constraints.
    /// Points lying exactly on a node hyperplane are routed to the `h⁻`
    /// side, matching the closed `≤` semantics of region constraints.
    #[must_use]
    pub fn region_of(&self, theta: &[f64]) -> Vec<Constraint> {
        let mut path = Path::new();
        let mut link = self.root;
        while let Some(i) = link {
            let side = if self.planes[i as usize].eval(theta) > 0.0 {
                Sign::Plus
            } else {
                Sign::Minus
            };
            path.push((i, side));
            link = self.children[i as usize][slot(side)];
        }
        self.region(&path).to_constraints()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrangement::Arrangement;

    fn hp(normal: Vec<f64>, offset: f64) -> Hyperplane {
        Hyperplane::new(normal, offset).unwrap()
    }

    fn tree(dim: usize) -> ArrangementTree {
        ArrangementTree::with_base(dim, 0.0, HALF_PI, Vec::new())
    }

    #[test]
    fn empty_tree_one_region() {
        let t = tree(2);
        assert_eq!(t.region_count(), 1);
        assert_eq!(t.regions().len(), 1);
    }

    #[test]
    fn single_insert_two_regions() {
        let mut t = tree(2);
        assert_eq!(t.insert(&hp(vec![1.0, 1.0], 1.0)), 1);
        assert_eq!(t.region_count(), 2);
        assert_eq!(t.regions().len(), 2);
    }

    #[test]
    fn non_crossing_plane_ignored() {
        let mut t = tree(2);
        assert_eq!(t.insert(&hp(vec![1.0, 1.0], 10.0)), 0);
        assert_eq!(t.region_count(), 1);
    }

    #[test]
    fn matches_flat_arrangement_region_count() {
        let planes = [
            hp(vec![1.0, 0.0], 0.5),
            hp(vec![0.0, 1.0], 0.5),
            hp(vec![1.0, 1.0], 1.3),
            hp(vec![1.0, -0.7], 0.2),
            hp(vec![0.4, 1.0], 0.9),
        ];
        let mut flat = Arrangement::with_base(2, 0.0, HALF_PI, Vec::new());
        let mut tree = tree(2);
        for p in &planes {
            flat.insert(p.clone());
            tree.insert(p);
        }
        assert_eq!(flat.region_count(), tree.region_count());
        assert_eq!(tree.regions().len(), tree.region_count());
    }

    /// Both arrangements count their LPs; on a fan of crossing lines the
    /// tree's subtree pruning solves fewer than the flat scan's two per
    /// region and insertion.
    #[test]
    fn tree_solves_fewer_lps_than_flat() {
        let mut flat = Arrangement::with_base(2, 0.0, HALF_PI, Vec::new());
        let mut tree = tree(2);
        for k in 0..40 {
            let ang = 0.37 * f64::from(k);
            let (x, y) = (
                0.2 + 1.1 * (0.618 * f64::from(k)).fract(),
                0.2 + 1.1 * (0.414 * f64::from(k)).fract(),
            );
            let p = hp(vec![ang.cos(), ang.sin()], x * ang.cos() + y * ang.sin());
            flat.insert(p.clone());
            tree.insert(&p);
        }
        assert_eq!(flat.region_count(), tree.region_count());
        assert!(tree.lp_calls > 0 && flat.lp_calls > 0);
        assert!(
            tree.lp_calls < flat.lp_calls,
            "tree {} vs flat {}",
            tree.lp_calls,
            flat.lp_calls
        );
    }

    #[test]
    fn region_witnesses_are_interior() {
        let mut t = tree(3);
        t.insert(&hp(vec![1.0, 0.5, 0.5], 0.9));
        t.insert(&hp(vec![0.2, 1.0, -0.3], 0.4));
        let ws = t.region_witnesses();
        assert_eq!(ws.len(), t.region_count());
        for (cs, p) in ws {
            for c in cs {
                assert!(c.satisfied(&p, 1e-9), "{c} violated at {p:?}");
            }
        }
    }

    #[test]
    fn region_of_descends_correctly() {
        let mut t = tree(2);
        t.insert(&hp(vec![1.0, 0.0], 0.7));
        t.insert(&hp(vec![0.0, 1.0], 0.7));
        let cs = t.region_of(&[0.2, 1.0]);
        // Should pin θ₁ ≤ 0.7 and θ₂ ≥ 0.7.
        assert!(cs.iter().all(|c| c.satisfied(&[0.2, 1.0], 1e-9)));
        assert!(cs.iter().any(|c| !c.satisfied(&[1.0, 1.0], 1e-9)));
    }

    #[test]
    fn early_stop_returns_satisfying_witness() {
        let mut t = tree(2);
        t.insert(&hp(vec![1.0, 0.0], 0.7));
        // Probe accepts only points with θ₂ > 1.0.
        let mut calls = 0usize;
        let found = t.insert_with(&hp(vec![0.0, 1.0], 1.0), &mut |p| {
            calls += 1;
            p[1] > 1.0
        });
        let p = found.expect("the h⁺ side satisfies the probe");
        assert!(p[1] > 1.0);
        assert!(calls >= 1);
    }

    #[test]
    fn early_stop_none_when_probe_rejects() {
        let mut t = tree(2);
        let found = t.insert_with(&hp(vec![1.0, 1.0], 1.0), &mut |_| false);
        assert!(found.is_none());
        assert_eq!(t.region_count(), 2, "tree still grows when probe rejects");
    }

    #[test]
    fn lp_call_accounting_grows() {
        let mut t = tree(2);
        t.insert(&hp(vec![1.0, 0.0], 0.5));
        let after_one = t.lp_calls;
        t.insert(&hp(vec![0.0, 1.0], 0.5));
        assert!(t.lp_calls > after_one);
    }

    #[test]
    fn deep_tree_consistency() {
        // Insert a fan of lines and verify region_count == nodes + 1 and all
        // enumerated regions feasible.
        let mut t = tree(2);
        for k in 1..=8 {
            let ang = 0.15 * k as f64;
            t.insert(&hp(vec![ang.sin(), ang.cos()], 0.8));
        }
        assert_eq!(t.region_count(), t.node_count() + 1);
        let regions = t.regions();
        assert!(!regions.is_empty());
        for cs in &regions {
            assert!(fast_feasible(cs.as_slice(), 2, 0.0, HALF_PI));
        }
    }
}
