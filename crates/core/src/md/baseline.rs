//! MDBASELINE (paper Algorithm 6): the exact online algorithm.
//!
//! For each satisfactory region, find the function of the region closest
//! to the query in angle (Eq. 10) and return the global best. The paper's
//! complexity (Theorem 4) is `O(n^{2(d−1)} · NLp(n²))`; this is the reason
//! §5 builds the approximate grid index — MDBASELINE is the accuracy
//! reference, not the interactive path.
//!
//! A region is a polytope of the weight slice ([`crate::md::slice`]), so
//! its functions form the polyhedral cone `C = {w ≥ 0 : G w ≥ 0}`: a row
//! `a·x ≥ b` lifts to `(a_1 − b, …, a_{d−1} − b, −b)·w ≥ 0`. By Moreau's
//! decomposition the direction of `C` at the smallest angle to the unit
//! query `q` is that of the Euclidean projection of `q` onto `C`, which
//! [`ConeQp`] computes exactly, warm-started at the region's witness. The
//! projection is the exact optimum over the closed region.

use fairrank_geometry::polar::angular_distance_cartesian;
use fairrank_geometry::vector::norm;
use fairrank_lp::{ConeQp, Rel};

use crate::md::satregions::SatRegion;
use crate::md::slice;

/// Result of a closest-satisfactory-function query.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosestResult {
    /// The suggested function, as a unit weight vector.
    pub weights: Vec<f64>,
    /// Angular distance from the query.
    pub distance: f64,
    /// Index of the satisfactory region the answer lies in.
    pub region: usize,
    /// How much farther the answer is than the projection over the
    /// closed regions, which no function of a satisfactory region beats:
    /// 0 unless the oracle rejected the projection on an exchange tie and
    /// the answer was walked off it (see
    /// [`closest_satisfactory_validated`]).
    pub tie_excess: f64,
}

/// The first step of the tie walk of [`closest_satisfactory_validated`],
/// as a fraction of the way from the projection to the region's witness.
pub const TIE_STEP: f64 = 1e-6;

/// Find the closest function across all satisfactory regions to the query
/// weight vector (any positive norm). Returns `None` when there are no
/// satisfactory regions (the constraint is unsatisfiable by any linear
/// function).
#[must_use]
pub fn closest_satisfactory(regions: &[SatRegion], query: &[f64]) -> Option<ClosestResult> {
    let r = norm(query);
    let q: Vec<f64> = query.iter().map(|v| v / r).collect();
    let d = q.len();
    let mut qp = ConeQp::default();
    let mut rows: Vec<f64> = Vec::new();
    let mut w: Vec<f64> = Vec::with_capacity(d);
    let mut best: Option<ClosestResult> = None;
    for (idx, region) in regions.iter().enumerate() {
        lift_rows(region, d, &mut rows);
        slice::lift_into(&region.witness, &mut w);
        qp.project(&rows, &q, &mut w);
        // A query in the polar cone projects to the apex, where every
        // direction of the cone is equally far: keep the witness's.
        if norm(&w) <= 1e-12 {
            slice::lift_into(&region.witness, &mut w);
        }
        let len = norm(&w);
        for v in &mut w {
            *v = (*v / len).max(0.0);
        }
        let distance = angular_distance_cartesian(&w, &q);
        if best.as_ref().is_none_or(|b| distance < b.distance) {
            best = Some(ClosestResult {
                weights: w.clone(),
                distance,
                region: idx,
                tie_excess: 0.0,
            });
            if distance == 0.0 {
                break;
            }
        }
    }
    best
}

/// The rows of `region`'s cone in weight space, each scaled to unit
/// norm: its slice rows lifted to homogeneous rows, then `w ≥ 0`.
fn lift_rows(region: &SatRegion, d: usize, rows: &mut Vec<f64>) {
    rows.clear();
    let mut push = |g: &mut dyn Iterator<Item = f64>| {
        let at = rows.len();
        rows.extend(g);
        let len = norm(&rows[at..]);
        if len > 0.0 {
            rows[at..].iter_mut().for_each(|v| *v /= len);
        } else {
            rows.truncate(at);
        }
    };
    for c in &region.constraints {
        let sign = match c.rel {
            Rel::Ge => 1.0,
            Rel::Le => -1.0,
            Rel::Eq => continue,
        };
        let b = c.b;
        push(&mut c.a.iter().map(|a| sign * (a - b)).chain([-sign * b]));
    }
    for l in 0..d {
        push(&mut (0..d).map(|k| f64::from(u8::from(k == l))));
    }
}

/// [`closest_satisfactory`] followed by oracle re-validation.
///
/// The projection usually lands on the region's boundary, an exchange
/// hyperplane where two items tie and the id tie-break decides their
/// order; the oracle can reject that ranking although the region's
/// interior is fair. This wrapper asks the oracle and, when it rejects,
/// walks the answer toward the region's validated witness (steps of
/// [`TIE_STEP`], growing fourfold) until the oracle accepts;
/// [`ClosestResult::tie_excess`] reports the distance the walk added.
#[must_use]
pub fn closest_satisfactory_validated(
    regions: &[SatRegion],
    query: &[f64],
    ds: &fairrank_datasets::Dataset,
    oracle: &dyn fairrank_fairness::FairnessOracle,
) -> Option<ClosestResult> {
    let raw = closest_satisfactory(regions, query)?;
    // One workspace across the whole walk: each probe is
    // allocation-free, ranking only the top-k when the oracle exposes a
    // bound.
    let mut workspace = fairrank_datasets::RankWorkspace::with_capacity(ds.len());
    let placement = crate::probes::VerdictRanking::of(oracle);
    let mut is_fair = |w: &[f64]| oracle.is_satisfactory(placement.rank(&mut workspace, ds, w));
    if is_fair(&raw.weights) {
        return Some(raw);
    }
    // The segment to the witness stays inside the (convex) region, whose
    // interior ranks the items as the validated witness does, so the walk
    // ends, almost always at its first step.
    let mut witness = slice::lift(&regions[raw.region].witness);
    let len = norm(&witness);
    witness.iter_mut().for_each(|v| *v /= len);
    let mut t = TIE_STEP;
    let weights = loop {
        if t >= 1.0 {
            break witness;
        }
        let mut c: Vec<f64> = raw
            .weights
            .iter()
            .zip(&witness)
            .map(|(a, b)| a + t * (b - a))
            .collect();
        let len = norm(&c);
        c.iter_mut().for_each(|v| *v /= len);
        if is_fair(&c) {
            break c;
        }
        t *= 4.0;
    };
    let distance = angular_distance_cartesian(&weights, query);
    Some(ClosestResult {
        tie_excess: (distance - raw.distance).max(0.0),
        weights,
        distance,
        region: raw.region,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrank_lp::Constraint;

    fn region(constraints: Vec<Constraint>, witness: Vec<f64>) -> SatRegion {
        SatRegion {
            constraints,
            witness,
        }
    }

    #[test]
    fn no_regions_is_none() {
        assert!(closest_satisfactory(&[], &[0.3, 0.4, 0.5]).is_none());
    }

    #[test]
    fn query_inside_region_distance_zero() {
        // x₁ ≤ 0.5 holds at the query's slice point (0.25, 0.25).
        let r = region(vec![Constraint::le(vec![1.0, 0.0], 0.5)], vec![0.2, 0.2]);
        let res = closest_satisfactory(&[r], &[1.0, 1.0, 2.0]).unwrap();
        assert_eq!(res.distance, 0.0);
        let s = 6f64.sqrt();
        for (a, b) in res.weights.iter().zip([1.0 / s, 1.0 / s, 2.0 / s]) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn projects_to_boundary() {
        // Region w₁ ≥ w₂ (x₁ − x₂ ≥ 0); the query (0, 1, 0) is closest
        // to (1, 1, 0)/√2 at 45°.
        let r = region(vec![Constraint::ge(vec![1.0, -1.0], 0.0)], vec![0.5, 0.2]);
        let res = closest_satisfactory(&[r], &[0.0, 1.0, 0.0]).unwrap();
        assert!((res.distance - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
        let h = std::f64::consts::FRAC_1_SQRT_2;
        for (a, b) in res.weights.iter().zip([h, h, 0.0]) {
            assert!((a - b).abs() < 1e-12, "{:?}", res.weights);
        }
    }

    #[test]
    fn picks_best_of_multiple_regions() {
        // Far: x₁ ≥ 0.9. Near: x₁ ≤ 0.4. Query slice point (0.45, 0.3).
        let far = region(vec![Constraint::ge(vec![1.0, 0.0], 0.9)], vec![0.95, 0.02]);
        let near = region(vec![Constraint::le(vec![1.0, 0.0], 0.4)], vec![0.2, 0.5]);
        let res = closest_satisfactory(&[far, near], &[0.45, 0.3, 0.25]).unwrap();
        assert_eq!(res.region, 1);
        let x = slice::point(&res.weights).unwrap();
        assert!((x[0] - 0.4).abs() < 1e-9, "{x:?}");
    }

    #[test]
    fn result_always_satisfies_region_constraints() {
        let cs = vec![
            Constraint::ge(vec![1.0, 0.2], 0.5),
            Constraint::le(vec![1.0, -0.4], 0.6),
            Constraint::le(vec![1.0, 1.0], 1.0),
        ];
        let r = region(cs.clone(), vec![0.55, 0.3]);
        let res = closest_satisfactory(&[r], &[0.1, 0.1, 1.0]).unwrap();
        let x = slice::point(&res.weights).unwrap();
        for c in &cs {
            assert!(c.satisfied(&x, 1e-9), "{c} at {x:?}");
        }
        assert!(res.distance > 0.0);
    }

    #[test]
    fn degenerate_point_region_falls_back_to_witness() {
        // A region pinched to the single point (0.3, 0.3).
        let cs = vec![
            Constraint::ge(vec![1.0, 0.0], 0.3),
            Constraint::le(vec![1.0, 0.0], 0.3),
            Constraint::ge(vec![0.0, 1.0], 0.3),
            Constraint::le(vec![0.0, 1.0], 0.3),
        ];
        let r = region(cs, vec![0.3, 0.3]);
        let res = closest_satisfactory(&[r], &[1.0, 0.05, 0.05]).unwrap();
        let x = slice::point(&res.weights).unwrap();
        assert!(
            (x[0] - 0.3).abs() < 1e-9 && (x[1] - 0.3).abs() < 1e-9,
            "{x:?}"
        );
    }
}
