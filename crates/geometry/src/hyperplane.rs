//! Hyperplanes in the angle coordinate system.
//!
//! An ordering-exchange hyperplane separates the angle space into the two
//! half-spaces on which a pair of items ranks one way or the other
//! (paper §4.1). The paper normalizes hyperplanes to `Σ h_k θ_k = 1`
//! (HYPERPOLAR output); we store the general affine form `a·θ = b`, which
//! additionally represents hyperplanes through the origin of the angle
//! space — a real (if rare) degeneracy the normalized form cannot express.
//! [`Hyperplane::paper_form`] recovers the normalized coefficients whenever
//! they exist.

use fairrank_lp::{Constraint, Rel};

use crate::vector::dot;
use crate::GEOM_EPS;

/// Which side of a hyperplane a region lies on.
///
/// `Plus` is the half-space `a·θ ≥ b` (the paper's `h⁺`), `Minus` is
/// `a·θ ≤ b` (`h⁻`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// `a·θ ≥ b`
    Plus,
    /// `a·θ ≤ b`
    Minus,
}

impl Sign {
    /// The opposite side.
    #[must_use]
    pub fn flipped(self) -> Sign {
        match self {
            Sign::Plus => Sign::Minus,
            Sign::Minus => Sign::Plus,
        }
    }
}

/// An affine hyperplane `a·θ = b` in the `(d−1)`-dimensional angle space.
#[derive(Debug, Clone, PartialEq)]
pub struct Hyperplane {
    /// Normal vector `a` (unit length after [`Hyperplane::new`]).
    pub normal: Vec<f64>,
    /// Offset `b`.
    pub offset: f64,
}

impl Hyperplane {
    /// Construct and normalize (`‖a‖ = 1`, first non-zero component
    /// positive so equal hyperplanes compare equal). Returns `None` for a
    /// zero normal or non-finite input.
    #[must_use]
    pub fn new(normal: Vec<f64>, offset: f64) -> Option<Hyperplane> {
        if !offset.is_finite() || normal.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let n = dot(&normal, &normal).sqrt();
        if n <= GEOM_EPS {
            return None;
        }
        let mut normal: Vec<f64> = normal.iter().map(|v| v / n).collect();
        let mut offset = offset / n;
        // Canonical orientation.
        if let Some(&lead) = normal.iter().find(|v| v.abs() > GEOM_EPS) {
            if lead < 0.0 {
                for v in &mut normal {
                    *v = -*v;
                }
                offset = -offset;
            }
        }
        Some(Hyperplane { normal, offset })
    }

    /// Dimension of the ambient angle space.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.normal.len()
    }

    /// Signed evaluation `a·θ − b`: positive on the [`Sign::Plus`] side.
    #[inline]
    #[must_use]
    pub fn eval(&self, theta: &[f64]) -> f64 {
        dot(&self.normal, theta) - self.offset
    }

    /// Which strict side `theta` lies on, or `None` within tolerance of the
    /// hyperplane itself.
    #[must_use]
    pub fn side(&self, theta: &[f64], eps: f64) -> Option<Sign> {
        let v = self.eval(theta);
        if v > eps {
            Some(Sign::Plus)
        } else if v < -eps {
            Some(Sign::Minus)
        } else {
            None
        }
    }

    /// The paper's normalized coefficients `h` with `Σ h_k θ_k = 1`, when
    /// the hyperplane does not pass through the angle-space origin.
    #[must_use]
    pub fn paper_form(&self) -> Option<Vec<f64>> {
        if self.offset.abs() <= GEOM_EPS {
            return None;
        }
        Some(self.normal.iter().map(|v| v / self.offset).collect())
    }

    /// The half-space constraint for one side, optionally shrunk by
    /// `margin` (used for the proper-cut test of the arrangement: a
    /// hyperplane splits a region only if both *open* sides are non-empty).
    #[must_use]
    pub fn constraint(&self, sign: Sign, margin: f64) -> Constraint {
        let (rel, b) = self.side_row(sign, margin);
        Constraint {
            a: self.normal.clone(),
            rel,
            b,
        }
    }

    /// The relation and right-hand side of [`Hyperplane::constraint`]; its
    /// coefficients are `self.normal`, so an LP can read the row in place.
    #[must_use]
    pub fn side_row(&self, sign: Sign, margin: f64) -> (Rel, f64) {
        match sign {
            Sign::Plus => (Rel::Ge, self.offset + margin),
            Sign::Minus => (Rel::Le, self.offset - margin),
        }
    }

    /// The equality constraint `a·θ = b`.
    #[must_use]
    pub fn equality(&self) -> Constraint {
        Constraint {
            a: self.normal.clone(),
            rel: Rel::Eq,
            b: self.offset,
        }
    }

    /// Exact test of whether the hyperplane intersects the axis-aligned box
    /// `[bl, tr]`, via interval arithmetic on `a·θ`.
    ///
    /// This corrects the paper's corner test (which assumed non-negative
    /// coefficients; see DESIGN.md F3): the range of `a·θ` over the box is
    /// `[Σ min(a_k·bl_k, a_k·tr_k), Σ max(a_k·bl_k, a_k·tr_k)]`, and the
    /// plane crosses the box iff `b` lies in that range.
    #[must_use]
    pub fn crosses_box(&self, bl: &[f64], tr: &[f64]) -> bool {
        debug_assert_eq!(bl.len(), self.normal.len());
        debug_assert_eq!(tr.len(), self.normal.len());
        let mut lo = 0.0;
        let mut hi = 0.0;
        for ((&a, &l), &t) in self.normal.iter().zip(bl).zip(tr) {
            let (x, y) = (a * l, a * t);
            lo += x.min(y);
            hi += x.max(y);
        }
        lo - GEOM_EPS <= self.offset && self.offset <= hi + GEOM_EPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_canonical() {
        let h1 = Hyperplane::new(vec![2.0, 0.0], 1.0).unwrap();
        let h2 = Hyperplane::new(vec![-4.0, 0.0], -2.0).unwrap();
        assert!((h1.normal[0] - h2.normal[0]).abs() < 1e-12);
        assert!((h1.offset - h2.offset).abs() < 1e-12);
        assert!((h1.normal[0] - 1.0).abs() < 1e-12);
        assert!((h1.offset - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_degenerate() {
        assert!(Hyperplane::new(vec![0.0, 0.0], 1.0).is_none());
        assert!(Hyperplane::new(vec![f64::NAN, 1.0], 0.0).is_none());
        assert!(Hyperplane::new(vec![1.0], f64::INFINITY).is_none());
    }

    #[test]
    fn side_classification() {
        let h = Hyperplane::new(vec![1.0, 1.0], 1.0).unwrap();
        assert_eq!(h.side(&[1.0, 1.0], 1e-9), Some(Sign::Plus));
        assert_eq!(h.side(&[0.1, 0.1], 1e-9), Some(Sign::Minus));
        // On the plane: (0.5/√2·√2, ...) — use an exact on-plane point.
        let p = [h.offset / h.normal[0] / 2.0, h.offset / h.normal[1] / 2.0];
        assert_eq!(h.side(&p, 1e-9), None);
    }

    #[test]
    fn paper_form_roundtrip() {
        let h = Hyperplane::new(vec![2.0, 4.0], 2.0).unwrap();
        let pf = h.paper_form().unwrap();
        // Σ pf_k θ_k = 1 on the plane: point (1, 0) satisfies 2·1+4·0 = 2 ✓.
        let on_plane = [1.0, 0.0];
        let s: f64 = pf.iter().zip(&on_plane).map(|(a, b)| a * b).sum();
        assert!((s - 1.0).abs() < 1e-12);
        // Through-origin plane has no paper form.
        let h0 = Hyperplane::new(vec![1.0, -1.0], 0.0).unwrap();
        assert!(h0.paper_form().is_none());
    }

    #[test]
    fn constraints_match_sides() {
        let h = Hyperplane::new(vec![1.0, 2.0], 1.5).unwrap();
        let plus = h.constraint(Sign::Plus, 0.0);
        let minus = h.constraint(Sign::Minus, 0.0);
        let p_plus = [2.0, 2.0];
        let p_minus = [0.0, 0.0];
        assert!(plus.satisfied(&p_plus, 1e-9));
        assert!(!plus.satisfied(&p_minus, 1e-9));
        assert!(minus.satisfied(&p_minus, 1e-9));
        assert!(!minus.satisfied(&p_plus, 1e-9));
    }

    #[test]
    fn margin_shrinks_halfspace() {
        let h = Hyperplane::new(vec![1.0, 0.0], 0.5).unwrap();
        let tight = h.constraint(Sign::Plus, 0.1);
        assert!(!tight.satisfied(&[0.55, 0.0], 1e-9));
        assert!(tight.satisfied(&[0.65, 0.0], 1e-9));
    }

    #[test]
    fn crosses_box_positive_normal() {
        let h = Hyperplane::new(vec![1.0, 1.0], 1.0).unwrap();
        assert!(h.crosses_box(&[0.0, 0.0], &[1.0, 1.0]));
        assert!(!h.crosses_box(&[0.0, 0.0], &[0.2, 0.2]));
        assert!(!h.crosses_box(&[0.9, 0.9], &[1.0, 1.0]));
    }

    #[test]
    fn crosses_box_mixed_sign_normal() {
        // x − y = 0 crosses every box that straddles the diagonal; the
        // paper's bl/tr corner test would mis-classify this plane.
        let h = Hyperplane::new(vec![1.0, -1.0], 0.0).unwrap();
        assert!(h.crosses_box(&[0.0, 0.0], &[1.0, 1.0]));
        assert!(h.crosses_box(&[0.4, 0.4], &[0.6, 0.6]));
        assert!(!h.crosses_box(&[0.8, 0.0], &[1.0, 0.1]));
    }

    #[test]
    fn sign_flip() {
        assert_eq!(Sign::Plus.flipped(), Sign::Minus);
        assert_eq!(Sign::Minus.flipped(), Sign::Plus);
    }

    #[test]
    fn equality_constraint() {
        let h = Hyperplane::new(vec![3.0, 0.0], 1.5).unwrap();
        let eq = h.equality();
        assert!(eq.satisfied(&[0.5, 0.7], 1e-9));
        assert!(!eq.satisfied(&[0.6, 0.7], 1e-9));
    }
}
