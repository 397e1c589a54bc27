//! The angle coordinate system (paper §4.1 and Appendix A.1).
//!
//! A ray from the origin through the positive orthant of `R^d` is identified
//! by `d − 1` angles `Θ = (θ_1, …, θ_{d−1})`, each in `[0, π/2]`. The
//! paper's convention (Eq. 8, with the sentinel `Θ_0 = π/2`):
//!
//! ```text
//!   p_k = sin Θ_k · Π_{l=k+1}^{d−1} cos Θ_l        0 ≤ k < d
//! ```
//!
//! so that `p_0 = Π cos Θ_l` and `p_{d−1} = sin Θ_{d−1}`. The distance
//! between two ranking functions is the angle between their rays
//! (Eq. 9–10); we compute it as `acos` of the dot product of the unit
//! vectors, which is algebraically identical to the paper's expanded product
//! formula and numerically better behaved.

use crate::vector::{dot, norm, square_safe_scale};
use crate::{GEOM_EPS, HALF_PI};

/// Convert a polar representation `(r, Θ)` to Cartesian coordinates.
///
/// `angles.len() + 1` is the Cartesian dimension. All angles are expected in
/// `[0, π/2]` for first-orthant rays, but the formula is total.
#[must_use]
pub fn to_cartesian(r: f64, angles: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(angles.len() + 1);
    to_cartesian_into(r, angles, &mut out);
    out
}

/// [`to_cartesian`] into a caller-owned buffer (cleared and refilled) —
/// the probe loops convert angles to weights once per oracle probe, and
/// reusing the buffer keeps the steady path allocation-free.
pub fn to_cartesian_into(r: f64, angles: &[f64], out: &mut Vec<f64>) {
    let d = angles.len() + 1;
    out.clear();
    out.resize(d, 0.0);
    // Suffix products of cosines: suffix[k] = Π_{l ≥ k} cos θ_l (angle index).
    // Build in reverse while emitting components.
    let mut suffix = 1.0;
    for k in (1..d).rev() {
        let theta = angles[k - 1];
        out[k] = r * theta.sin() * suffix;
        suffix *= theta.cos();
    }
    out[0] = r * suffix;
}

/// Per-coordinate bounds on the unit weights [`to_cartesian_into`] gives
/// anywhere in the angle box `bl ≤ Θ ≤ tr`: `lo` and `hi` are cleared and
/// refilled to `bl.len() + 1` entries with `lo[k] ≤ w_k ≤ hi[k]` for every
/// `Θ` in the box, as computed in floating point.
///
/// Every coordinate is a product of one `sin` and some `cos` factors of
/// distinct angles, all non-negative and monotone on `[0, π/2]` (`sin`
/// rising, `cos` falling), so `w_k` is largest at the corner taking the
/// `sin` angle from `tr` and the `cos` angles from `bl`, and smallest at
/// the opposite one. The corner values are evaluated in
/// [`to_cartesian_into`]'s own operation order. Each computed coordinate
/// is within `2d` rounding units of the exact one (`d − 1` libm factors of
/// at most one ulp each, `d − 1` rounded products), so the corner values
/// are widened by `8d` units: a libm `sin`/`cos` that is only faithfully
/// rounded, not monotone, cannot push a computed weight past its bound.
///
/// Returns `false`, leaving `lo`/`hi` unspecified, when the box leaves
/// `[0, π/2]` (where the factors stop being monotone) or is empty.
pub fn weight_bounds_into(bl: &[f64], tr: &[f64], lo: &mut Vec<f64>, hi: &mut Vec<f64>) -> bool {
    let inside = bl.len() == tr.len()
        && bl
            .iter()
            .zip(tr)
            .all(|(&a, &b)| 0.0 <= a && a <= b && b <= HALF_PI);
    if !inside {
        return false;
    }
    let d = bl.len() + 1;
    lo.clear();
    lo.resize(d, 0.0);
    hi.clear();
    hi.resize(d, 0.0);
    let (mut lo_suffix, mut hi_suffix) = (1.0, 1.0);
    for k in (1..d).rev() {
        lo[k] = bl[k - 1].sin() * lo_suffix;
        hi[k] = tr[k - 1].sin() * hi_suffix;
        lo_suffix *= tr[k - 1].cos();
        hi_suffix *= bl[k - 1].cos();
    }
    lo[0] = lo_suffix;
    hi[0] = hi_suffix;
    let slack = 8.0 * d as f64 * f64::EPSILON;
    for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
        *l *= 1.0 - slack;
        *h *= 1.0 + slack;
    }
    true
}

/// Convert a Cartesian point to its polar representation `(r, Θ)`.
///
/// Inverse of [`to_cartesian`] for non-negative points; zero prefixes map to
/// angle `π/2` when the component is positive and `0` when it is zero, so
/// axis-aligned rays round-trip exactly. A point whose components would
/// overflow or underflow when squared is rescaled by a power of two
/// first, as in [`norm`]: it gets the angles of the rescaled point,
/// which points exactly the same way.
#[must_use]
pub fn to_polar(point: &[f64]) -> (f64, Vec<f64>) {
    if let Some(s) = square_safe_scale(point) {
        let scaled: Vec<f64> = point.iter().map(|x| x * s).collect();
        let (r, angles) = to_polar(&scaled);
        return (r / s, angles);
    }
    let d = point.len();
    let r = norm(point);
    let mut angles = vec![0.0; d.saturating_sub(1)];
    let mut prefix_sq = point[0] * point[0];
    for k in 1..d {
        let p = point[k];
        let prefix = prefix_sq.max(0.0).sqrt();
        // atan2 is exact on both boundaries (atan2(0, x≥0) = 0 for the
        // axis-aligned case, atan2(p>0, 0) = π/2 for a zero prefix, and
        // IEEE atan2(+0, +0) = 0), so no epsilon guard belongs here: an
        // absolute-tolerance collapse to 0 would misdirect rays whose
        // leading components are merely small on the caller's scale.
        angles[k - 1] = p.atan2(prefix);
        prefix_sq += p * p;
    }
    (r, angles)
}

/// Angular distance between two rays given by their angle vectors
/// (paper Eq. 10). Result in `[0, π]`; for first-orthant rays it lies in
/// `[0, π/2]`.
#[must_use]
pub fn angular_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let va = to_cartesian(1.0, a);
    let vb = to_cartesian(1.0, b);
    angular_distance_cartesian(&va, &vb)
}

/// Angular distance between two rays given by (not necessarily unit)
/// direction vectors.
#[must_use]
pub fn angular_distance_cartesian(a: &[f64], b: &[f64]) -> f64 {
    let na = norm(a);
    let nb = norm(b);
    if na <= f64::EPSILON || nb <= f64::EPSILON {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0).acos()
}

/// The paper's expanded cosine formula (Eq. 9), kept verbatim for
/// cross-validation against the dot-product implementation.
///
/// `cos θ_ij = Σ_k sin Θ⁽ⁱ⁾_k sin Θ⁽ʲ⁾_k Π_{l>k} cos Θ⁽ⁱ⁾_l cos Θ⁽ʲ⁾_l`
/// with the `Θ_0 = π/2` sentinel prepended.
#[must_use]
pub fn cos_angle_paper_formula(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let dm1 = a.len();
    // k ranges over 0..=dm1 where index 0 is the sentinel Θ_0 = π/2.
    let angle = |v: &[f64], k: usize| if k == 0 { HALF_PI } else { v[k - 1] };
    let mut total = 0.0;
    for k in 0..=dm1 {
        let mut term = angle(a, k).sin() * angle(b, k).sin();
        for l in k + 1..=dm1 {
            term *= angle(a, l).cos() * angle(b, l).cos();
        }
        total += term;
    }
    total
}

/// Clamp an angle vector into the legal box `[0, π/2]^{d−1}`.
#[must_use]
pub fn clamp_angles(angles: &[f64]) -> Vec<f64> {
    angles.iter().map(|&t| t.clamp(0.0, HALF_PI)).collect()
}

/// Convert a weight vector to its angle representation, normalizing scale.
///
/// Returns `None` for the zero vector or vectors with negative components
/// beyond tolerance (the ranking model requires non-negative weights).
#[must_use]
pub fn weights_to_angles(weights: &[f64]) -> Option<Vec<f64>> {
    if weights.len() < 2 {
        return None;
    }
    if weights.iter().any(|&w| !w.is_finite() || w < -GEOM_EPS) {
        return None;
    }
    let (r, angles) = to_polar(weights);
    if r <= GEOM_EPS {
        return None;
    }
    Some(clamp_angles(&angles))
}

/// Convert an angle vector back to a unit weight vector.
#[must_use]
pub fn angles_to_weights(angles: &[f64]) -> Vec<f64> {
    to_cartesian(1.0, angles)
        .into_iter()
        .map(|w| w.max(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn cartesian_2d_matches_cos_sin() {
        let p = to_cartesian(1.0, &[FRAC_PI_4]);
        assert_close(p[0], FRAC_PI_4.cos());
        assert_close(p[1], FRAC_PI_4.sin());
    }

    #[test]
    fn cartesian_axis_rays() {
        // θ = 0 → x-axis; θ = π/2 → y-axis.
        let x = to_cartesian(1.0, &[0.0]);
        assert_close(x[0], 1.0);
        assert_close(x[1], 0.0);
        let y = to_cartesian(1.0, &[FRAC_PI_2]);
        assert_close(y[0], 0.0);
        assert_close(y[1], 1.0);
    }

    #[test]
    fn cartesian_into_matches_and_reuses_buffer() {
        let mut buf = vec![9.0; 7]; // stale, oversized content must vanish
        to_cartesian_into(2.0, &[0.3, 1.1], &mut buf);
        assert_eq!(buf, to_cartesian(2.0, &[0.3, 1.1]));
        let cap = buf.capacity();
        to_cartesian_into(1.0, &[0.8, 0.2], &mut buf);
        assert_eq!(buf, to_cartesian(1.0, &[0.8, 0.2]));
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn cartesian_3d_unit_norm() {
        let p = to_cartesian(1.0, &[0.3, 1.1]);
        assert_close(norm(&p), 1.0);
        // Last component is sin of the last angle.
        assert_close(p[2], 1.1_f64.sin());
    }

    #[test]
    fn roundtrip_2d() {
        let (r, a) = to_polar(&[3.0, 3.0]);
        assert_close(r, 18.0_f64.sqrt());
        assert_close(a[0], FRAC_PI_4);
        let p = to_cartesian(r, &a);
        assert_close(p[0], 3.0);
        assert_close(p[1], 3.0);
    }

    #[test]
    fn roundtrip_4d() {
        let original = [0.5, 1.5, 2.5, 0.25];
        let (r, a) = to_polar(&original);
        let back = to_cartesian(r, &a);
        for (o, b) in original.iter().zip(&back) {
            assert_close(*o, *b);
        }
    }

    #[test]
    fn extreme_norms_keep_their_direction() {
        // Powers of two scale exactly, so the angles must be bit-identical;
        // decimal scales round each component, so they agree to rounding.
        let q = [1.0, 0.05, 0.05];
        let (r1, a1) = to_polar(&q);
        for exp in [-1000, -900, 700, 1000] {
            let s = 2f64.powi(exp / 2) * 2f64.powi(exp - exp / 2);
            let (r, a) = to_polar(&q.map(|x| x * s));
            assert_eq!(a, a1, "2^{exp}");
            assert!((r / s / r1 - 1.0).abs() < 1e-12, "2^{exp}: r = {r}");
        }
        for s in [1e200, 1e-310] {
            let (r, a) = to_polar(&q.map(|x| x * s));
            for (x, y) in a.iter().zip(&a1) {
                assert!((x - y).abs() < 1e-12, "{s}: {a:?} vs {a1:?}");
            }
            assert!(r.is_finite() && r > 0.0);
            assert!((r / s / r1 - 1.0).abs() < 1e-9, "{s}: r = {r}");
        }
    }

    #[test]
    fn paper_example_distances() {
        // §2: distance between f = x + y and f' = 100x + 100y is 0;
        // between f = x + y and f'' = x it is π/4.
        let (_, f) = to_polar(&[1.0, 1.0]);
        let (_, f1) = to_polar(&[100.0, 100.0]);
        let (_, f2) = to_polar(&[1.0, 0.0]);
        assert_close(angular_distance(&f, &f1), 0.0);
        assert_close(angular_distance(&f, &f2), FRAC_PI_4);
    }

    #[test]
    fn distance_agrees_with_paper_formula() {
        let cases: [(&[f64], &[f64]); 4] = [
            (&[0.2, 0.4], &[1.1, 0.3]),
            (&[0.0, 0.0], &[FRAC_PI_2, FRAC_PI_2]),
            (&[0.7, 0.1, 1.2], &[0.3, 0.9, 0.4]),
            (&[0.5], &[1.0]),
        ];
        for (a, b) in cases {
            let via_dot = angular_distance(a, b).cos();
            let via_paper = cos_angle_paper_formula(a, b);
            assert!(
                (via_dot - via_paper).abs() < 1e-9,
                "{a:?} vs {b:?}: {via_dot} vs {via_paper}"
            );
        }
    }

    #[test]
    fn distance_symmetric_and_identity() {
        let a = [0.3, 0.8, 0.2];
        let b = [1.2, 0.1, 0.9];
        assert_close(angular_distance(&a, &b), angular_distance(&b, &a));
        assert_close(angular_distance(&a, &a), 0.0);
    }

    #[test]
    fn weights_to_angles_validation() {
        assert!(weights_to_angles(&[0.0, 0.0]).is_none());
        assert!(weights_to_angles(&[1.0]).is_none());
        assert!(weights_to_angles(&[-0.5, 1.0]).is_none());
        assert!(weights_to_angles(&[f64::NAN, 1.0]).is_none());
        let a = weights_to_angles(&[1.0, 1.0]).unwrap();
        assert_close(a[0], FRAC_PI_4);
    }

    #[test]
    fn angles_to_weights_non_negative() {
        let w = angles_to_weights(&[0.0, FRAC_PI_2]);
        assert!(w.iter().all(|&x| x >= 0.0));
        assert_close(norm(&w), 1.0);
    }

    #[test]
    fn zero_prefix_angle_convention() {
        // Point on the y-axis in 3D: prefix (x) = 0.
        let (_, a) = to_polar(&[0.0, 1.0, 0.0]);
        assert_close(a[0], FRAC_PI_2);
        assert_close(a[1], 0.0);
        let p = to_cartesian(1.0, &a);
        assert_close(p[0], 0.0);
        assert_close(p[1], 1.0);
        assert_close(p[2], 0.0);
    }

    #[test]
    fn weight_bounds_enclose_the_box() {
        let boxes: [(&[f64], &[f64]); 4] = [
            (&[0.0], &[FRAC_PI_2]),
            (&[0.3, 0.0], &[0.5, 0.2]),
            (&[1.2, 1.5, 0.1], &[1.3, FRAC_PI_2, 0.1]),
            (&[0.0, 0.0, 0.0, 0.0], &[0.05, 0.7, 1.0, FRAC_PI_2]),
        ];
        let (mut lo, mut hi, mut w) = (Vec::new(), Vec::new(), Vec::new());
        for (bl, tr) in boxes {
            assert!(weight_bounds_into(bl, tr, &mut lo, &mut hi));
            assert_eq!(lo.len(), bl.len() + 1);
            // Every corner and a lattice of interior points.
            let steps = 6usize;
            let dims = bl.len();
            for idx in 0..(steps + 1).pow(dims as u32) {
                let theta: Vec<f64> = (0..dims)
                    .map(|a| {
                        let s = (idx / (steps + 1).pow(a as u32)) % (steps + 1);
                        bl[a] + (tr[a] - bl[a]) * s as f64 / steps as f64
                    })
                    .map(|t| t.min(FRAC_PI_2))
                    .collect();
                to_cartesian_into(1.0, &theta, &mut w);
                for k in 0..w.len() {
                    assert!(lo[k] <= w[k] && w[k] <= hi[k], "{theta:?} coord {k}");
                }
            }
        }
        // Boxes leaving the first orthant, or empty, give no bounds.
        assert!(!weight_bounds_into(&[-0.1], &[0.2], &mut lo, &mut hi));
        assert!(!weight_bounds_into(&[0.1], &[1.6], &mut lo, &mut hi));
        assert!(!weight_bounds_into(&[0.3], &[0.2], &mut lo, &mut hi));
    }
}
