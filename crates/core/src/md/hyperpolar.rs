//! HYPERPOLAR (paper Algorithm 3): the ordering-exchange hyperplane of an
//! item pair, expressed in the angle coordinate system of the approximate
//! grid (§5). The exact backend does not use it: it works in the weight
//! slice of [`crate::md::slice`], where every exchange is exact.
//!
//! For items `t_i, t_j`, the scoring functions ranking them equally are the
//! weight vectors on the hyperplane `(t_i − t_j) · w = 0` (Eq. 5). Within
//! the non-negative orthant these form a cone; HYPERPOLAR takes `d − 1`
//! rays of that cone, converts each to its angle vector, and fits the
//! hyperplane `Σ h_k θ_k = 1` through them by solving `Θ h = ι`.
//!
//! Two deviations from the paper's pseudo-code, both of which only the
//! grid's MARKCELL arrangements see:
//!
//! * **F1** — the paper's "scale each dimension independently" recipe for
//!   generating the `d − 1` points is degenerate (scalings of a point lie
//!   on the same ray and map to the *same* angle vector). We use the
//!   extreme rays of the cone `{w ≥ 0 : v·w = 0}` instead, and fit through
//!   *all* of them by least squares when the cone has more than `d − 1`
//!   (spreading the linearization error instead of pinning it to an
//!   arbitrary subset).
//! * **F2** — the exchange locus in angle coordinates is genuinely curved
//!   for `d > 2`; the fitted hyperplane interpolates it only approximately
//!   away from the fitted rays. MARKCELL probes every candidate function
//!   against the true oracle, so the linearization can cost a cell's
//!   search precision but never the fairness of a stored function.

use fairrank_datasets::Dataset;
use fairrank_geometry::dual::exchange_angle_2d;
use fairrank_geometry::hyperplane::Hyperplane;
use fairrank_geometry::matrix::{null_space_vector, solve_least_squares, Matrix};
use fairrank_geometry::polar::to_polar;
use fairrank_geometry::GEOM_EPS;

/// The ordering-exchange hyperplane of a pair of items in angle
/// coordinates, or `None` when the pair has no interior exchange (one item
/// dominates the other, or they are identical).
#[must_use]
pub fn exchange_hyperplane(ti: &[f64], tj: &[f64]) -> Option<Hyperplane> {
    debug_assert_eq!(ti.len(), tj.len());
    let d = ti.len();
    if d == 2 {
        // Exact in 2-D: a single exchange angle θ (Eq. 2) — the hyperplane
        // `1·θ = θ_exchange` in the one-dimensional angle space.
        let theta = exchange_angle_2d(ti, tj)?;
        if theta <= GEOM_EPS || theta >= fairrank_geometry::HALF_PI - GEOM_EPS {
            return None;
        }
        return Hyperplane::new(vec![1.0], theta);
    }

    let v: Vec<f64> = ti.iter().zip(tj).map(|(a, b)| a - b).collect();
    let pos: Vec<usize> = (0..d).filter(|&k| v[k] > GEOM_EPS).collect();
    let neg: Vec<usize> = (0..d).filter(|&k| v[k] < -GEOM_EPS).collect();
    let zero: Vec<usize> = (0..d).filter(|&k| v[k].abs() <= GEOM_EPS).collect();
    if pos.is_empty() || neg.is_empty() {
        return None; // dominance (or identical): no interior exchange
    }

    // Extreme rays of the cone {w ≥ 0 : v·w = 0}:
    //   r_{a,b}: w_a = −v_b, w_b = v_a   for every pair bridging pos/neg,
    //   e_k: unit rays along zero coordinates.
    // There are |pos|·|neg| + |zero| ≥ d − 1 of them; fitting through all
    // of them (least squares) spreads the linearization error of the
    // curved exchange surface evenly over the cone instead of pinning it
    // to an arbitrary d − 1 rays (F2).
    let mut rays: Vec<Vec<f64>> = Vec::with_capacity(pos.len() * neg.len() + zero.len());
    for &a in &pos {
        for &b in &neg {
            let mut r = vec![0.0; d];
            r[a] = -v[b];
            r[b] = v[a];
            rays.push(r);
        }
    }
    for &k in &zero {
        let mut r = vec![0.0; d];
        r[k] = 1.0;
        rays.push(r);
    }
    debug_assert!(rays.len() >= d - 1);

    // Angle vectors of the rays.
    let theta_rows: Vec<Vec<f64>> = rays.iter().map(|r| to_polar(r).1).collect();

    // The paper's solve Θ h = ι, generalized to a least-squares fit when
    // the cone has more than d − 1 extreme rays.
    let theta_mat = Matrix::from_rows(&theta_rows);
    if let Some(h) = solve_least_squares(&theta_mat, &vec![1.0; theta_rows.len()]) {
        if let Some(hp) = Hyperplane::new(h, 1.0) {
            return Some(hp);
        }
    }
    // Fallback: affine fit through d − 1 of the points — null space of
    // [Θ | −1] (handles hyperplanes through the angle-space origin, where
    // the normalized form Σ h θ = 1 does not exist). Only d − 1 rows are
    // used because an exact null space of an overdetermined inconsistent
    // system need not exist.
    let aug_rows: Vec<Vec<f64>> = theta_rows
        .iter()
        .take(d - 1)
        .map(|row| {
            let mut r = row.clone();
            r.push(-1.0);
            r
        })
        .collect();
    let nv = null_space_vector(&Matrix::from_rows(&aug_rows))?;
    let (normal, offset) = nv.split_at(d - 1);
    Hyperplane::new(normal.to_vec(), offset[0])
}

/// All ordering-exchange hyperplanes of a dataset (non-dominating pairs
/// only — Algorithm 4 lines 2–6). Order: pairs `(i, j)`, `i < j`, row
/// major.
#[must_use]
pub fn exchange_hyperplanes(ds: &Dataset) -> Vec<Hyperplane> {
    crate::md::pair_hyperplanes(ds, None, 1, exchange_hyperplane)
}

/// The first `cap` of [`exchange_hyperplanes`] (all without a cap), on
/// `threads` workers when uncapped; bit-identical for every count.
#[must_use]
pub fn exchange_hyperplanes_limited(
    ds: &Dataset,
    cap: Option<usize>,
    threads: usize,
) -> Vec<Hyperplane> {
    crate::md::pair_hyperplanes(ds, cap, threads, exchange_hyperplane)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrank_geometry::polar::to_cartesian;

    /// Score difference of the pair under the ray with the given angles.
    fn score_diff(ti: &[f64], tj: &[f64], angles: &[f64]) -> f64 {
        let w = to_cartesian(1.0, angles);
        ti.iter()
            .zip(tj)
            .zip(&w)
            .map(|((a, b), wk)| (a - b) * wk)
            .sum()
    }

    #[test]
    fn paper_3d_example() {
        // Paper Figure 7/8: t1 = (1,2,3), t2 = (2,4,1) tie on
        // −w1 − 2w2 + 2w3 = 0. The cone has exactly d − 1 = 2 extreme
        // rays, (2, 0, 1) and (0, 2, 2), so the fit passes through both.
        let h = exchange_hyperplane(&[1.0, 2.0, 3.0], &[2.0, 4.0, 1.0]).unwrap();
        assert_eq!(h.dim(), 2);
        for ray in [[2.0, 0.0, 1.0], [0.0, 2.0, 2.0]] {
            let (_, angles) = fairrank_geometry::polar::to_polar(&ray);
            assert!(h.eval(&angles).abs() < 1e-12, "{ray:?}");
        }
    }

    #[test]
    fn construction_rays_tie_scores() {
        // On a grid of angle points, wherever both the fitted plane and the
        // true exchange surface are decisive — far from the plane and with
        // a clearly nonzero score difference, since the linearization is
        // exact only near the fitted rays (F2) — the side of the plane
        // gives the order of the pair, under one orientation of the
        // (canonical, so arbitrary) normal.
        let pairs: [(&[f64], &[f64]); 3] = [
            (&[1.0, 2.0, 3.0], &[2.0, 4.0, 1.0]),
            (&[0.8, 0.1, 0.5], &[0.2, 0.6, 0.4]),
            (&[0.9, 0.5, 0.1, 0.4], &[0.1, 0.6, 0.5, 0.3]),
        ];
        for (ti, tj) in pairs {
            let h = exchange_hyperplane(ti, tj).unwrap();
            let dim = ti.len() - 1;
            let v_norm = ti
                .iter()
                .zip(tj)
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f64>()
                .sqrt();
            let mut agree = [0usize; 2];
            for idx in 0..7usize.pow(dim as u32) {
                let angles: Vec<f64> = (0..dim)
                    .map(|a| {
                        (idx / 7usize.pow(a as u32) % 7) as f64 / 6.0 * fairrank_geometry::HALF_PI
                    })
                    .collect();
                let (side, diff) = (h.eval(&angles), score_diff(ti, tj, &angles));
                if side.abs() > 0.35 && diff.abs() > 0.25 * v_norm {
                    agree[usize::from((side > 0.0) == (diff > 0.0))] += 1;
                }
            }
            assert!(agree[0] + agree[1] > 0, "test probed no decisive points");
            assert!(
                agree[0] == 0 || agree[1] == 0,
                "side/order mismatch for {ti:?}/{tj:?}"
            );
        }
    }

    #[test]
    fn dominated_pairs_none() {
        assert!(exchange_hyperplane(&[2.0, 2.0, 2.0], &[1.0, 1.0, 1.0]).is_none());
        assert!(exchange_hyperplane(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0]).is_none());
        assert!(exchange_hyperplane(&[1.0, 1.0, 2.0], &[1.0, 1.0, 1.0]).is_none());
    }

    #[test]
    fn two_d_reduces_to_exchange_angle() {
        let ti = [1.0, 2.0];
        let tj = [2.0, 1.0];
        let h = exchange_hyperplane(&ti, &tj).unwrap();
        let expected = exchange_angle_2d(&ti, &tj).unwrap();
        // h: normal [1], offset θ.
        assert!((h.offset / h.normal[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn zero_coordinate_pairs() {
        // v has a zero coordinate: the e_k ray participates.
        let ti = [1.0, 2.0, 0.7];
        let tj = [2.0, 1.0, 0.7];
        let h = exchange_hyperplane(&ti, &tj).unwrap();
        assert_eq!(h.dim(), 2);
        // The pure w₃ ray ties the pair (both score 0.7·w₃), so it lies on
        // the plane.
        let (_, angles) = fairrank_geometry::polar::to_polar(&[0.0, 0.0, 1.0]);
        assert!(
            h.eval(&angles).abs() < 1e-6,
            "pure-z ray must lie on the exchange hyperplane: {}",
            h.eval(&angles)
        );
    }

    #[test]
    fn dataset_level_construction() {
        use fairrank_datasets::synthetic::generic;
        let ds = generic::anticorrelated(25, 3, 0.0, 3);
        let hs = exchange_hyperplanes(&ds);
        let pairs = ds.non_dominating_pairs().len();
        assert_eq!(hs.len(), pairs, "one hyperplane per non-dominating pair");
        assert!(hs.iter().all(|h| h.dim() == 2));
    }

    #[test]
    fn threaded_enumeration_matches_serial() {
        use fairrank_datasets::synthetic::generic;
        let ds = generic::anticorrelated(30, 3, 0.0, 7);
        let serial = exchange_hyperplanes(&ds);
        for threads in [2usize, 3, 4, 33] {
            assert_eq!(serial, exchange_hyperplanes_limited(&ds, None, threads));
        }
    }

    #[test]
    fn capped_enumeration_is_a_prefix() {
        use fairrank_datasets::synthetic::generic;
        let ds = generic::anticorrelated(30, 3, 0.0, 9);
        let all = exchange_hyperplanes(&ds);
        for cap in [0usize, 1, 7, all.len(), all.len() + 50] {
            let capped = exchange_hyperplanes_limited(&ds, Some(cap), 1);
            assert_eq!(capped.as_slice(), &all[..cap.min(all.len())]);
        }
        assert_eq!(exchange_hyperplanes_limited(&ds, None, 2), all);
    }

    #[test]
    fn correlated_data_fewer_hyperplanes() {
        use fairrank_datasets::synthetic::generic;
        let corr = generic::correlated(40, 3, 0.9, 0.0, 5);
        let anti = generic::anticorrelated(40, 3, 0.0, 5);
        assert!(exchange_hyperplanes(&corr).len() < exchange_hyperplanes(&anti).len());
    }
}
