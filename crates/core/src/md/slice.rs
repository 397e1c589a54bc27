//! The weight slice `Σw = 1`: the coordinates of the exact backend.
//!
//! A weight vector `w ≥ 0` and every positive multiple of it rank the
//! items alike, so the exact backend names a scoring function by its
//! point on the slice `Σw = 1`, in the coordinates
//! `x = (w_1 … w_{d−1})` (then `w_d = 1 − Σx`). The slice is the simplex
//! `x ∈ [0, 1]^{d−1}`, `Σx ≤ 1`.
//!
//! In these coordinates the functions that tie items `i` and `j` (paper
//! Eq. 5, `(t_i − t_j) · w = 0`) form the exact hyperplane
//! `Σ_l (v_l − v_d) x_l = −v_d` with `v = t_i − t_j`. Every region of the
//! arrangement is therefore a polytope of the slice, and the functions of
//! a region form a polyhedral cone of weight space: a row `a·x ≥ b` of the
//! region is the homogeneous row `(a_1 − b, …, a_{d−1} − b, −b)·w ≥ 0`.
//! The angle coordinates of HYPERPOLAR ([`crate::md::hyperpolar`]) bend
//! these hyperplanes; the grid keeps them, the exact backend does not.

use fairrank_datasets::Dataset;
use fairrank_geometry::arrangement_tree::ArrangementTree;
use fairrank_geometry::hyperplane::Hyperplane;
use fairrank_lp::Constraint;

/// The exchange hyperplane of items `ti`, `tj` in slice coordinates, or
/// `None` when no function with every weight positive ties them (one item
/// dominates the other or they are identical).
#[must_use]
pub fn exchange_hyperplane(ti: &[f64], tj: &[f64]) -> Option<Hyperplane> {
    debug_assert_eq!(ti.len(), tj.len());
    let v: Vec<f64> = ti.iter().zip(tj).map(|(a, b)| a - b).collect();
    if !v.iter().any(|&c| c > 0.0) || !v.iter().any(|&c| c < 0.0) {
        return None;
    }
    // The hyperplane does not change with the scale of `v`; dividing by
    // the largest entry keeps the normal well away from the zero test of
    // `Hyperplane::new` for pairs that differ only slightly.
    let scale = v.iter().fold(0.0f64, |m, c| m.max(c.abs()));
    let last = v[v.len() - 1] / scale;
    let normal = v[..v.len() - 1].iter().map(|c| c / scale - last).collect();
    Hyperplane::new(normal, -last)
}

/// All exchange hyperplanes of a dataset in slice coordinates. Order:
/// pairs `(i, j)`, `i < j`, row major.
#[must_use]
pub fn exchange_hyperplanes(ds: &Dataset) -> Vec<Hyperplane> {
    crate::md::pair_hyperplanes(ds, None, 1, exchange_hyperplane)
}

/// The empty arrangement tree over the slice of a `d`-attribute dataset
/// (`dim = d − 1`): the box `[0, 1]^dim` with the base row `Σx ≤ 1`.
#[must_use]
pub fn arrangement(dim: usize) -> ArrangementTree {
    ArrangementTree::with_base(dim, 0.0, 1.0, vec![Constraint::le(vec![1.0; dim], 1.0)])
}

/// The weight vector `(x, 1 − Σx)` of slice point `x`, appended to `out`
/// after clearing it.
pub fn lift_into(x: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.extend_from_slice(x);
    out.push(1.0 - x.iter().sum::<f64>());
}

/// The weight vector `(x, 1 − Σx)` of slice point `x`.
#[must_use]
pub fn lift(x: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(x.len() + 1);
    lift_into(x, &mut out);
    out
}

/// The slice point of weight vector `w`: `w_{1…d−1} / Σw`. `None` unless
/// `Σw` is positive and finite.
#[must_use]
pub fn point(w: &[f64]) -> Option<Vec<f64>> {
    let sum: f64 = w.iter().sum();
    (sum > 0.0 && sum.is_finite()).then(|| w[..w.len() - 1].iter().map(|v| v / sum).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn score_gap(ti: &[f64], tj: &[f64], w: &[f64]) -> f64 {
        ti.iter()
            .zip(tj)
            .zip(w)
            .map(|((a, b), c)| (a - b) * c)
            .sum()
    }

    #[test]
    fn paper_3d_example_is_exact() {
        // Paper Figure 7/8: t1 = (1,2,3), t2 = (2,4,1) tie on
        // −w1 − 2w2 + 2w3 = 0, e.g. at w = (2, 0, 1) and w = (0, 1, 1).
        let (t1, t2) = ([1.0, 2.0, 3.0], [2.0, 4.0, 1.0]);
        let h = exchange_hyperplane(&t1, &t2).unwrap();
        for w in [[2.0, 0.0, 1.0], [0.0, 1.0, 1.0], [2.0, 1.0, 2.0]] {
            assert!(h.eval(&point(&w).unwrap()).abs() < 1e-15, "{w:?}");
        }
    }

    #[test]
    fn sides_match_the_score_order_everywhere() {
        // On a grid of the slice, every point off the plane has the pair
        // ordered by its side, under one orientation of the normal.
        let pairs: [(&[f64], &[f64]); 3] = [
            (&[1.0, 2.0, 3.0], &[2.0, 4.0, 1.0]),
            (&[0.8, 0.1, 0.5], &[0.2, 0.6, 0.4]),
            (&[0.9, 0.5, 0.1, 0.4], &[0.1, 0.6, 0.5, 0.3]),
        ];
        for (ti, tj) in pairs {
            let h = exchange_hyperplane(ti, tj).unwrap();
            let dim = ti.len() - 1;
            let mut agree = [0usize; 2];
            for idx in 0..9usize.pow(dim as u32) {
                let x: Vec<f64> = (0..dim)
                    .map(|a| (idx / 9usize.pow(a as u32) % 9) as f64 / 8.0)
                    .collect();
                let (side, gap) = (h.eval(&x), score_gap(ti, tj, &lift(&x)));
                if x.iter().sum::<f64>() <= 1.0 && side.abs() > 1e-9 {
                    agree[usize::from((side > 0.0) == (gap > 0.0))] += 1;
                }
            }
            assert!(agree[0] + agree[1] > 0);
            assert!(agree[0] == 0 || agree[1] == 0, "{ti:?}/{tj:?}: {agree:?}");
        }
    }

    #[test]
    fn dominated_and_identical_pairs_have_none() {
        assert!(exchange_hyperplane(&[2.0, 2.0, 2.0], &[1.0, 1.0, 1.0]).is_none());
        assert!(exchange_hyperplane(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0]).is_none());
        assert!(exchange_hyperplane(&[1.0, 1.0, 2.0], &[1.0, 1.0, 1.0]).is_none());
    }

    #[test]
    fn nearly_equal_items_still_exchange() {
        let h = exchange_hyperplane(&[0.5 + 1e-12, 0.5, 0.5], &[0.5, 0.5 + 1e-12, 0.5]).unwrap();
        assert!(h.eval(&[0.4, 0.4]).abs() < 1e-12);
    }

    #[test]
    fn lift_and_point_invert() {
        let w = [0.2, 0.5, 0.3];
        let x = point(&[2.0, 5.0, 3.0]).unwrap();
        assert!(lift(&x).iter().zip(&w).all(|(a, b)| (a - b).abs() < 1e-15));
        assert!(point(&[0.0, 0.0]).is_none());
        assert!(point(&[f64::MAX, f64::MAX]).is_none());
    }
}
