//! Incremental construction of the arrangement of hyperplanes (paper
//! Algorithm 4, the flat baseline that Figure 18 compares the arrangement
//! tree against).
//!
//! A *region* is a maximal connected subset of the domain — a box such as
//! the angle box `[0, π/2]^{d−1}`, optionally cut by base rows such as the
//! weight slice's `Σx ≤ 1` — on which no ordering-exchange hyperplane
//! changes sign; inside a region the induced ranking of the items — and
//! therefore the fairness-oracle verdict — is constant. Hyperplanes are
//! inserted one at a time; each insertion splits every region it
//! *properly cuts* (both open sides deeper than a split margin) into its
//! `h⁻` and `h⁺` children.
//!
//! Every LP here runs on the allocation-free Seidel kernel of
//! `fairrank-lp`, which reads a region's rows in place (`RegionRows`):
//! feasibility of candidate regions (with a simplex fallback for input the
//! kernel rejects), and the Chebyshev LP that yields strict interior
//! witness points (needed to probe the fairness oracle with an unambiguous
//! ordering).

use fairrank_lp::feasibility::interior_point_in;
use fairrank_lp::{is_feasible, seidel, Constraint, Rel, RowSource};

use crate::hyperplane::{Hyperplane, Sign};

/// Identifier of a hyperplane within an [`Arrangement`].
pub type HyperplaneId = u32;

/// Identifier of a region within an [`Arrangement`].
pub type RegionId = u32;

/// A convex region: the intersection of half-spaces of previously inserted
/// hyperplanes with the angle box.
#[derive(Debug, Clone, Default)]
pub struct Region {
    /// The half-spaces bounding this region, in insertion order. Only
    /// hyperplanes that properly cut the region appear here.
    pub halfspaces: Vec<(HyperplaneId, Sign)>,
}

/// Statistics of one hyperplane insertion, used by the Figure 18/19
/// experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertStats {
    /// Number of regions examined (all regions present before insertion).
    pub regions_checked: usize,
    /// Number of regions split by the hyperplane.
    pub splits: usize,
}

/// An incrementally built arrangement of hyperplanes over the angle box.
#[derive(Debug, Clone)]
pub struct Arrangement {
    dim: usize,
    box_lo: f64,
    box_hi: f64,
    split_margin: f64,
    /// Rows restricting the whole arrangement to part of the box.
    base: Vec<Constraint>,
    hyperplanes: Vec<Hyperplane>,
    regions: Vec<Region>,
    /// Cumulative number of region-feasibility LPs, counted as in
    /// [`crate::ArrangementTree::lp_calls`].
    pub lp_calls: u64,
}

impl Arrangement {
    /// An empty arrangement — a single region — over the part of
    /// `[lo, hi]^dim` where every `base` row holds, as
    /// [`crate::ArrangementTree::with_base`].
    ///
    /// # Panics
    /// If `dim == 0`, the box is empty or a row's arity is not `dim`.
    #[must_use]
    pub fn with_base(dim: usize, lo: f64, hi: f64, base: Vec<Constraint>) -> Arrangement {
        assert!(dim > 0, "arrangement needs at least one axis");
        assert!(lo < hi, "empty box");
        assert!(base.iter().all(|c| c.a.len() == dim), "base row arity");
        Arrangement {
            dim,
            box_lo: lo,
            box_hi: hi,
            split_margin: crate::arrangement_tree::SPLIT_MARGIN,
            base,
            hyperplanes: Vec::new(),
            regions: vec![Region::default()],
            lp_calls: 0,
        }
    }

    /// Ambient dimension (number of angle coordinates, `d − 1`).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The inserted hyperplanes.
    #[must_use]
    pub fn hyperplanes(&self) -> &[Hyperplane] {
        &self.hyperplanes
    }

    /// Number of regions currently in the arrangement.
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Iterator over region ids.
    pub fn region_ids(&self) -> impl Iterator<Item = RegionId> {
        0..self.regions.len() as RegionId
    }

    /// The half-space description of a region.
    #[must_use]
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id as usize]
    }

    /// The linear constraints of a region: the base rows and its
    /// half-spaces (the box is implicit).
    #[must_use]
    pub fn constraints_of(&self, id: RegionId) -> Vec<Constraint> {
        self.rows_of(id).to_constraints()
    }

    /// A point strictly inside the region (margin > 0 against every
    /// bounding hyperplane and the box), suitable for probing the fairness
    /// oracle with an unambiguous ordering.
    #[must_use]
    pub fn interior_point_of(&self, id: RegionId) -> Option<Vec<f64>> {
        interior_point_in(&self.rows_of(id), self.dim, self.box_lo, self.box_hi).map(|ip| ip.point)
    }

    fn rows_of(&self, id: RegionId) -> RegionRows<'_> {
        RegionRows {
            base: &self.base,
            planes: &self.hyperplanes,
            sides: &self.regions[id as usize].halfspaces,
            extra: None,
        }
    }

    /// Insert a hyperplane, splitting every region it properly cuts
    /// (Algorithm 4, lines 9–18). Returns insertion statistics.
    pub fn insert(&mut self, h: Hyperplane) -> InsertStats {
        assert_eq!(h.dim(), self.dim, "hyperplane dimension mismatch");
        let hid = self.hyperplanes.len() as HyperplaneId;
        self.hyperplanes.push(h);

        let before = self.regions.len();
        let mut splits = 0usize;
        for rid in 0..before {
            self.lp_calls += 2;
            let cut = proper_cut(
                self.rows_of(rid as RegionId),
                &self.hyperplanes[hid as usize],
                self.dim,
                self.box_lo,
                self.box_hi,
                self.split_margin,
            );
            if !cut {
                continue;
            }
            // Split: existing region keeps the Plus side, the new region
            // takes the Minus side (Algorithm 4 appends (h,+) to R and
            // creates R' with (h,−)).
            let mut minus_region = self.regions[rid].clone();
            minus_region.halfspaces.push((hid, Sign::Minus));
            self.regions[rid].halfspaces.push((hid, Sign::Plus));
            self.regions.push(minus_region);
            splits += 1;
        }
        InsertStats {
            regions_checked: before,
            splits,
        }
    }

    /// The box bounds `(lo, hi)`.
    #[must_use]
    pub fn bounds(&self) -> (f64, f64) {
        (self.box_lo, self.box_hi)
    }
}

/// The rows of a region, read in place by the LP kernel: `base`
/// constraints, then the listed sides of `planes` (margin 0), then an
/// optional row for a hyperplane under test. No row is copied.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegionRows<'a> {
    pub(crate) base: &'a [Constraint],
    pub(crate) planes: &'a [Hyperplane],
    pub(crate) sides: &'a [(HyperplaneId, Sign)],
    pub(crate) extra: Option<(&'a Hyperplane, Extra)>,
}

/// The row a hyperplane under test adds to a region.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Extra {
    /// `h.constraint(sign, margin)`.
    Side(Sign, f64),
    /// `h.equality()`.
    Equality,
}

impl RowSource for RegionRows<'_> {
    fn for_each_row(&self, row: &mut dyn FnMut(&[f64], Rel, f64)) {
        self.base.for_each_row(row);
        for &(id, sign) in self.sides {
            let h = &self.planes[id as usize];
            let (rel, b) = h.side_row(sign, 0.0);
            row(&h.normal, rel, b);
        }
        match self.extra {
            Some((h, Extra::Side(sign, margin))) => {
                let (rel, b) = h.side_row(sign, margin);
                row(&h.normal, rel, b);
            }
            Some((h, Extra::Equality)) => row(&h.normal, Rel::Eq, h.offset),
            None => {}
        }
    }
}

/// Does `h` properly cut the region `{θ ∈ box : region}` — are both
/// open sides non-empty?
pub(crate) fn proper_cut(
    region: RegionRows<'_>,
    h: &Hyperplane,
    dim: usize,
    lo: f64,
    hi: f64,
    margin: f64,
) -> bool {
    let side = |sign| RegionRows {
        extra: Some((h, Extra::Side(sign, margin))),
        ..region
    };
    fast_feasible(&side(Sign::Minus), dim, lo, hi) && fast_feasible(&side(Sign::Plus), dim, lo, hi)
}

/// Does `h` touch the region at all (used for subtree pruning in the
/// arrangement tree: feasibility of the region together with `a·θ = b`)?
pub(crate) fn touches(
    region: RegionRows<'_>,
    h: &Hyperplane,
    dim: usize,
    lo: f64,
    hi: f64,
) -> bool {
    let with_h = RegionRows {
        extra: Some((h, Extra::Equality)),
        ..region
    };
    fast_feasible(&with_h, dim, lo, hi)
}

/// Feasibility via Seidel, with the simplex as fallback for input the
/// kernel rejects.
pub(crate) fn fast_feasible<R: RowSource + ?Sized>(rows: &R, dim: usize, lo: f64, hi: f64) -> bool {
    seidel::feasible(rows, dim, lo, hi, 0x5eed_cafe)
        .unwrap_or_else(|| is_feasible(&rows.to_constraints(), dim, lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HALF_PI;

    fn hp(normal: Vec<f64>, offset: f64) -> Hyperplane {
        Hyperplane::new(normal, offset).unwrap()
    }

    fn flat(dim: usize) -> Arrangement {
        Arrangement::with_base(dim, 0.0, HALF_PI, Vec::new())
    }

    #[test]
    fn empty_arrangement_single_region() {
        let a = flat(2);
        assert_eq!(a.region_count(), 1);
        let p = a.interior_point_of(0).unwrap();
        assert!(p.iter().all(|&v| (0.0..=HALF_PI).contains(&v)));
    }

    #[test]
    fn one_cutting_hyperplane_two_regions() {
        let mut a = flat(2);
        let stats = a.insert(hp(vec![1.0, 1.0], 1.0));
        assert_eq!(stats.splits, 1);
        assert_eq!(a.region_count(), 2);
        // The two regions lie on opposite sides.
        let h = &a.hyperplanes()[0];
        let p0 = a.interior_point_of(0).unwrap();
        let p1 = a.interior_point_of(1).unwrap();
        let s0 = h.side(&p0, 1e-12).unwrap();
        let s1 = h.side(&p1, 1e-12).unwrap();
        assert_ne!(s0, s1);
    }

    #[test]
    fn missing_hyperplane_does_not_split() {
        let mut a = flat(2);
        // Plane far outside the box [0, π/2]²: x + y = 10.
        let stats = a.insert(hp(vec![1.0, 1.0], 10.0));
        assert_eq!(stats.splits, 0);
        assert_eq!(a.region_count(), 1);
    }

    #[test]
    fn tangent_hyperplane_does_not_split() {
        // Touches the box only at the corner (0,0): x + y = 0.
        let mut a = flat(2);
        let stats = a.insert(hp(vec![1.0, 1.0], 0.0));
        assert_eq!(stats.splits, 0);
        assert_eq!(a.region_count(), 1);
    }

    #[test]
    fn two_crossing_lines_four_regions() {
        let mut a = flat(2);
        a.insert(hp(vec![1.0, 0.0], 0.7)); // vertical θ₁ = 0.7
        a.insert(hp(vec![0.0, 1.0], 0.7)); // horizontal θ₂ = 0.7
        assert_eq!(a.region_count(), 4);
        // All four quadrant combinations realized.
        let mut seen = std::collections::HashSet::new();
        for rid in a.region_ids() {
            let p = a.interior_point_of(rid).unwrap();
            seen.insert((p[0] > 0.7, p[1] > 0.7));
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn parallel_lines_three_regions() {
        let mut a = flat(2);
        a.insert(hp(vec![1.0, 0.0], 0.4));
        a.insert(hp(vec![1.0, 0.0], 1.0));
        assert_eq!(a.region_count(), 3);
    }

    #[test]
    fn three_general_lines_seven_regions() {
        // Classic: n lines in general position → 1 + n + C(n,2) regions.
        let mut a = flat(2);
        a.insert(hp(vec![1.0, 0.0], 0.5));
        a.insert(hp(vec![0.0, 1.0], 0.5));
        a.insert(hp(vec![1.0, 1.0], 1.3));
        assert_eq!(a.region_count(), 7);
    }

    #[test]
    fn duplicate_hyperplane_no_double_split() {
        let mut a = flat(2);
        a.insert(hp(vec![1.0, 1.0], 1.0));
        let stats = a.insert(hp(vec![1.0, 1.0], 1.0));
        assert_eq!(stats.splits, 0, "re-inserting the same plane is a no-op");
        assert_eq!(a.region_count(), 2);
    }

    #[test]
    fn interior_points_satisfy_region_constraints() {
        let mut a = flat(3);
        a.insert(hp(vec![1.0, 1.0, 0.2], 1.0));
        a.insert(hp(vec![0.3, -1.0, 1.0], 0.2));
        for rid in a.region_ids() {
            let p = a.interior_point_of(rid).unwrap();
            for c in a.constraints_of(rid) {
                assert!(c.satisfied(&p, 1e-9), "{c} violated at {p:?}");
            }
        }
    }

    #[test]
    fn restricted_box_arrangement() {
        let mut a = Arrangement::with_base(2, 0.2, 0.4, Vec::new());
        // Crosses the small box.
        let s1 = a.insert(hp(vec![1.0, 0.0], 0.3));
        assert_eq!(s1.splits, 1);
        // Crosses the full angle box but not this cell.
        let s2 = a.insert(hp(vec![1.0, 0.0], 1.0));
        assert_eq!(s2.splits, 0);
    }

    #[test]
    fn region_count_growth_matches_2d_formula() {
        // k lines in general position inside the box: regions = 1 + Σ (1 + crossings).
        // Here all pairs cross inside the box, so after k inserts:
        // 1 + k + C(k,2).
        let mut a = flat(2);
        let lines = [
            hp(vec![1.0, 0.3], 0.8),
            hp(vec![0.3, 1.0], 0.8),
            hp(vec![1.0, 1.0], 1.4),
            hp(vec![1.0, -0.5], 0.3),
        ];
        for (k, h) in lines.into_iter().enumerate() {
            a.insert(h);
            let k = k + 1;
            assert_eq!(a.region_count(), 1 + k + k * (k - 1) / 2);
        }
    }
}
