//! Small dense vector helpers.
//!
//! Dimensions in this codebase are tiny (`d ≤ 8` scoring attributes,
//! `d − 1 ≤ 7` angles), so plain `&[f64]` slices with free functions beat a
//! custom SIMD type in both clarity and — at these sizes — speed.

/// Dot product. Panics on length mismatch in debug builds.
#[inline]
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm. A vector whose largest magnitude would overflow or
/// underflow when squared (outside `[2^-500, 2^500]`) is first rescaled
/// by a power of two, so its norm neither overflows nor collapses to
/// zero; every other vector takes the plain sum of squares.
#[inline]
#[must_use]
pub fn norm(a: &[f64]) -> f64 {
    match square_safe_scale(a) {
        None => dot(a, a).sqrt(),
        Some(s) => a.iter().map(|x| (x * s) * (x * s)).sum::<f64>().sqrt() / s,
    }
}

/// Magnitudes in `[2^-500, 2^500]` square, and sum a few squares, within
/// the normal `f64` range.
const SQUARE_SAFE_MAX: f64 = f64::from_bits((1023 + 500) << 52);
const SQUARE_SAFE_MIN: f64 = f64::from_bits((1023 - 500) << 52);

/// The power of two (`2^-600` or `2^600`) that brings the largest
/// magnitude of `a` into `[2^-500, 2^500]` when it lies outside, so that
/// its square would overflow or underflow; `None` when it lies inside,
/// and for zero and non-finite vectors. Multiplying by a power of two is
/// exact, so a rescaled vector points exactly the same way.
#[must_use]
pub(crate) fn square_safe_scale(a: &[f64]) -> Option<f64> {
    let m = a.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    if m > SQUARE_SAFE_MAX && m.is_finite() {
        Some(f64::from_bits((1023 - 600) << 52))
    } else if m < SQUARE_SAFE_MIN && m > 0.0 {
        Some(f64::from_bits((1023 + 600) << 52))
    } else {
        None
    }
}

/// `a − b` as a new vector.
#[must_use]
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// `a + b` as a new vector.
#[must_use]
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// `c · a` as a new vector.
#[must_use]
pub fn scale(a: &[f64], c: f64) -> Vec<f64> {
    a.iter().map(|x| c * x).collect()
}

/// `a / ‖a‖`; returns `None` for the zero vector.
#[must_use]
pub fn normalize(a: &[f64]) -> Option<Vec<f64>> {
    let n = norm(a);
    if n <= f64::EPSILON {
        None
    } else {
        Some(scale(a, 1.0 / n))
    }
}

/// Cosine similarity `a·b / (‖a‖‖b‖)`, clamped into `[−1, 1]` to protect
/// `acos` from rounding. Returns `None` if either vector is zero.
#[must_use]
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> Option<f64> {
    let na = norm(a);
    let nb = norm(b);
    if na <= f64::EPSILON || nb <= f64::EPSILON {
        return None;
    }
    Some((dot(a, b) / (na * nb)).clamp(-1.0, 1.0))
}

/// Whether every component is finite.
#[must_use]
pub fn all_finite(a: &[f64]) -> bool {
    a.iter().all(|v| v.is_finite())
}

/// Whether every component is non-negative (within `eps`).
#[must_use]
pub fn all_non_negative(a: &[f64], eps: f64) -> bool {
    a.iter().all(|&v| v >= -eps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_neither_overflows_nor_underflows() {
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        let huge = norm(&[3e200, 4e200]);
        assert!((huge / 5e200 - 1.0).abs() < 1e-15, "{huge}");
        let tiny = norm(&[3e-310, 4e-310]);
        assert!((tiny / 5e-310 - 1.0).abs() < 1e-9, "{tiny}");
        assert_eq!(norm(&[0.0, 0.0]), 0.0);
        assert_eq!(norm(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert!(norm(&[f64::NAN, 1.0]).is_nan());
        assert_eq!(square_safe_scale(&[1e-100, 1e100]), None);
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(sub(&[3.0, 1.0], &[1.0, 2.0]), vec![2.0, -1.0]);
        assert_eq!(add(&[3.0, 1.0], &[1.0, 2.0]), vec![4.0, 3.0]);
        assert_eq!(scale(&[3.0, 1.0], 2.0), vec![6.0, 2.0]);
    }

    #[test]
    fn normalize_unit() {
        let u = normalize(&[3.0, 4.0]).unwrap();
        assert!((norm(&u) - 1.0).abs() < 1e-12);
        assert!(normalize(&[0.0, 0.0]).is_none());
    }

    #[test]
    fn cosine_similarity_basics() {
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).unwrap()).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 1.0], &[2.0, 2.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!(cosine_similarity(&[0.0], &[1.0]).is_none());
    }

    #[test]
    fn finiteness_and_sign_checks() {
        assert!(all_finite(&[1.0, -2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
        assert!(all_non_negative(&[0.0, 1.0], 0.0));
        assert!(all_non_negative(&[-1e-12, 1.0], 1e-9));
        assert!(!all_non_negative(&[-0.1, 1.0], 1e-9));
    }
}
