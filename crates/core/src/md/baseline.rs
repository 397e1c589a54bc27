//! MDBASELINE (paper Algorithm 6): the exact online algorithm.
//!
//! For each satisfactory region, solve the non-linear program "closest
//! point of the region to the query in angular distance" (Eq. 10) and
//! return the global best. The paper's complexity (Theorem 4) is
//! `O(n^{2(d−1)} · NLp(n²))`; this is the reason §5 builds the approximate
//! grid index — MDBASELINE is the accuracy reference, not the interactive
//! path.
//!
//! The per-region NLP is solved with Frank–Wolfe over the region polytope
//! (see `fairrank-lp`); the region witness provides the feasible start.

use fairrank_geometry::polar::angular_distance;
use fairrank_lp::{minimize_over_polytope, FwOptions};

use crate::md::satregions::SatRegion;

/// Result of a closest-satisfactory-function query.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosestResult {
    /// The suggested function, as an angle vector.
    pub angles: Vec<f64>,
    /// Angular distance from the query.
    pub distance: f64,
    /// Index of the satisfactory region the answer lies in.
    pub region: usize,
}

/// Find the closest point across all satisfactory regions to the query
/// angle vector. Returns `None` when there are no satisfactory regions
/// (the constraint is unsatisfiable by any linear function).
#[must_use]
pub fn closest_satisfactory(regions: &[SatRegion], query: &[f64]) -> Option<ClosestResult> {
    let mut best: Option<ClosestResult> = None;
    for (idx, region) in regions.iter().enumerate() {
        // Quick exit: the query itself inside a satisfactory region.
        if region.constraints.iter().all(|c| c.satisfied(query, 1e-9)) {
            return Some(ClosestResult {
                angles: query.to_vec(),
                distance: 0.0,
                region: idx,
            });
        }
        let objective = |theta: &[f64]| angular_distance(theta, query);
        let candidate = minimize_over_polytope(
            objective,
            &region.constraints,
            0.0,
            fairrank_geometry::HALF_PI,
            &region.witness,
            &FwOptions::default(),
        );
        // The witness itself is always a valid (if suboptimal) answer.
        let witness_dist = angular_distance(&region.witness, query);
        let (angles, distance) = match candidate {
            Some(fw) if fw.value <= witness_dist => (fw.x, fw.value),
            _ => (region.witness.clone(), witness_dist),
        };
        if best.as_ref().is_none_or(|b| distance < b.distance) {
            best = Some(ClosestResult {
                angles,
                distance,
                region: idx,
            });
        }
    }
    best
}

/// [`closest_satisfactory`] followed by oracle re-validation.
///
/// Two effects can leave the raw NLP answer *unfair* even though its region
/// is satisfactory: the optimum usually sits exactly on the region boundary
/// (an ordering-exchange surface, where two items tie and the ranking is
/// ambiguous), and for `d > 3` the linearized exchange hyperplanes only
/// approximate the true curved surfaces (DESIGN.md F2). This wrapper checks
/// the suggested function against the real oracle and, when it fails, walks
/// the answer toward the region's validated witness until the oracle
/// accepts — the distance grows by the smallest repair step that restores
/// fairness, and the witness itself bounds the worst case.
#[must_use]
pub fn closest_satisfactory_validated(
    regions: &[SatRegion],
    query: &[f64],
    ds: &fairrank_datasets::Dataset,
    oracle: &dyn fairrank_fairness::FairnessOracle,
) -> Option<ClosestResult> {
    use fairrank_geometry::polar::to_cartesian_into;
    let raw = closest_satisfactory(regions, query)?;
    // One workspace + weight buffer across the whole repair walk: the
    // validation loop can probe the oracle many times on the way to a
    // fair point, and each probe is allocation-free, ranking only the
    // top-k when the oracle exposes a bound.
    let mut workspace = fairrank_datasets::RankWorkspace::with_capacity(ds.len());
    let mut weights: Vec<f64> = Vec::with_capacity(ds.dim());
    let placement = crate::probes::VerdictRanking::of(oracle);
    let mut is_fair = |angles: &[f64]| {
        to_cartesian_into(1.0, angles, &mut weights);
        oracle.is_satisfactory(placement.rank(&mut workspace, ds, &weights))
    };
    if is_fair(&raw.angles) {
        return Some(raw);
    }
    // Repair: geometric walk from the answer toward its region's witness.
    // The segment stays inside the (convex) region, and the witness end is
    // validated, so the walk terminates. The repaired point can end up
    // farther than another region's witness, so the globally closest
    // witness is kept as a competing candidate.
    let witness = &regions[raw.region].witness;
    let mut repaired: Option<ClosestResult> = None;
    let mut t = 1e-6;
    while t < 1.0 {
        let candidate: Vec<f64> = raw
            .angles
            .iter()
            .zip(witness)
            .map(|(a, w)| a + t * (w - a))
            .collect();
        if is_fair(&candidate) {
            repaired = Some(ClosestResult {
                distance: angular_distance(&candidate, query),
                angles: candidate,
                region: raw.region,
            });
            break;
        }
        t *= 4.0;
    }
    let repaired = repaired.unwrap_or_else(|| ClosestResult {
        distance: angular_distance(witness, query),
        angles: witness.clone(),
        region: raw.region,
    });
    let best_witness = regions
        .iter()
        .enumerate()
        .map(|(idx, r)| (idx, angular_distance(&r.witness, query)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("regions nonempty: raw answer exists");
    if best_witness.1 < repaired.distance {
        return Some(ClosestResult {
            angles: regions[best_witness.0].witness.clone(),
            distance: best_witness.1,
            region: best_witness.0,
        });
    }
    Some(repaired)
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
        assert!(closest_satisfactory(&[], &[0.3, 0.4]).is_none());
    }

    #[test]
    fn query_inside_region_distance_zero() {
        let r = region(vec![Constraint::le(vec![1.0, 0.0], 1.0)], vec![0.2, 0.2]);
        let res = closest_satisfactory(&[r], &[0.5, 0.5]).unwrap();
        assert_eq!(res.distance, 0.0);
        assert_eq!(res.angles, vec![0.5, 0.5]);
    }

    #[test]
    fn projects_to_boundary() {
        // Region θ₁ ≥ 1.0; query at θ = (0.2, 0.3): the optimum has
        // θ₁ = 1.0 (boundary) and θ₂ near the query's.
        let r = region(vec![Constraint::ge(vec![1.0, 0.0], 1.0)], vec![1.3, 0.3]);
        let res = closest_satisfactory(&[r], &[0.2, 0.3]).unwrap();
        assert!((res.angles[0] - 1.0).abs() < 1e-3, "{:?}", res.angles);
        assert!(res.distance > 0.0);
        // Distance must beat the witness's.
        assert!(res.distance <= angular_distance(&[1.3, 0.3], &[0.2, 0.3]) + 1e-9);
    }

    #[test]
    fn picks_best_of_multiple_regions() {
        let far = region(vec![Constraint::ge(vec![1.0, 0.0], 1.4)], vec![1.5, 1.5]);
        let near = region(vec![Constraint::le(vec![1.0, 0.0], 0.4)], vec![0.2, 0.5]);
        let res = closest_satisfactory(&[far, near], &[0.45, 0.5]).unwrap();
        assert_eq!(res.region, 1);
        assert!((res.angles[0] - 0.4).abs() < 1e-3, "{:?}", res.angles);
    }

    #[test]
    fn result_always_satisfies_region_constraints() {
        let cs = vec![
            Constraint::ge(vec![1.0, 0.2], 0.9),
            Constraint::le(vec![1.0, -0.4], 1.1),
        ];
        let r = region(cs.clone(), vec![1.2, 0.8]);
        let res = closest_satisfactory(&[r], &[0.1, 0.1]).unwrap();
        for c in &cs {
            assert!(c.satisfied(&res.angles, 1e-6), "{c} at {:?}", res.angles);
        }
    }

    #[test]
    fn degenerate_point_region_falls_back_to_witness() {
        // Equality-pinched region: Frank–Wolfe has nowhere to move; the
        // witness answer must survive.
        let cs = vec![
            Constraint::ge(vec![1.0, 0.0], 0.7),
            Constraint::le(vec![1.0, 0.0], 0.7),
            Constraint::ge(vec![0.0, 1.0], 0.7),
            Constraint::le(vec![0.0, 1.0], 0.7),
        ];
        let r = region(cs, vec![0.7, 0.7]);
        let res = closest_satisfactory(&[r], &[0.1, 0.1]).unwrap();
        assert!((res.angles[0] - 0.7).abs() < 1e-6);
        assert!((res.angles[1] - 0.7).abs() < 1e-6);
    }
}
