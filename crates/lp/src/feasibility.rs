//! Feasibility queries over constraint sets: witness points and strict
//! interior points.
//!
//! SATREGIONS and the arrangement tree ask two questions per region of the
//! hyperplane arrangement:
//!
//! * *does a hyperplane pass through this region?* — feasibility of the
//!   region's constraints plus one equality row ([`crate::seidel::feasible`]);
//! * *give me a function inside this region to hand to the fairness oracle* —
//!   a point that is strictly inside, so that the induced item ordering is
//!   unambiguous (a point on an ordering-exchange boundary scores two items
//!   equally).
//!
//! The strict-interior query is answered with a Chebyshev LP: maximize the
//! margin `t` such that every inequality row keeps distance `t·‖a‖` from its
//! boundary. It runs on the Seidel kernel in `n + 1` variables, with the box
//! `x ∈ [lo, hi]`, `t ∈ [0, 1]` and objective `min −t`, and so allocates
//! only the point it returns. [`is_feasible`] and [`feasible_point`] run
//! on the dense simplex, which takes any box.

use crate::problem::{dot, Constraint, LinearProgram, LpOutcome, Rel, RowSource};
use crate::seidel::{solve_in_arena, RowWriter};
use crate::simplex::solve;
use crate::EPS;

/// Seed of the Chebyshev solves' row permutation.
const CHEBYSHEV_SEED: u64 = 0xc4eb_5e7e;

/// A strict interior point of a constraint set, with its margin.
#[derive(Debug, Clone, PartialEq)]
pub struct InteriorPoint {
    /// The witness point.
    pub point: Vec<f64>,
    /// The Euclidean margin to the nearest constraint boundary (Chebyshev
    /// radius, capped at 1.0).
    pub margin: f64,
}

/// Whether the set `{x ∈ [lo,hi]^n : constraints}` is non-empty.
#[must_use]
pub fn is_feasible(constraints: &[Constraint], n: usize, lo: f64, hi: f64) -> bool {
    feasible_point(constraints, n, lo, hi).is_some()
}

/// A point of the set `{x ∈ [lo,hi]^n : constraints}`, if one exists.
///
/// The returned point satisfies every constraint within the crate tolerance
/// but may lie on constraint boundaries; use [`interior_point`] when a
/// strictly interior witness is needed.
#[must_use]
pub fn feasible_point(constraints: &[Constraint], n: usize, lo: f64, hi: f64) -> Option<Vec<f64>> {
    let lp = LinearProgram::minimize(vec![0.0; n])
        .with_constraints(constraints.iter().cloned())
        .with_box(lo, hi);
    match solve(&lp) {
        Ok(LpOutcome::Optimal { x, .. }) => Some(x),
        _ => None,
    }
}

/// A point strictly inside `{x ∈ [lo,hi]^n : constraints}` together with its
/// margin, or `None` when the region is empty **or has empty interior**
/// (lower-dimensional slivers are reported as `None` because `margin` would
/// be zero; callers that only need feasibility use [`feasible_point`]).
///
/// Equality constraints are honoured exactly (they carry no margin), so a
/// region constrained to a hyperplane can still produce a witness that is
/// interior *relative to the inequalities*.
#[must_use]
pub fn interior_point(
    constraints: &[Constraint],
    n: usize,
    lo: f64,
    hi: f64,
) -> Option<InteriorPoint> {
    interior_point_in(constraints, n, lo, hi)
}

/// [`interior_point`] over rows read in place.
///
/// The margin is measured directly at the returned point (see
/// [`chebyshev_center_in`]), so a margin above the crate tolerance means
/// every inequality row and every box wall holds strictly there.
#[must_use]
pub fn interior_point_in<R: RowSource + ?Sized>(
    rows: &R,
    n: usize,
    lo: f64,
    hi: f64,
) -> Option<InteriorPoint> {
    chebyshev_center_in(rows, n, lo, hi).filter(|ip| ip.margin > EPS)
}

/// The Chebyshev center of `{x ∈ [lo,hi]^n : constraints}`: the point
/// maximizing the minimum distance to the inequality boundaries (radius
/// capped at 1.0). Returns `None` when the region is empty, and for input
/// the Seidel kernel rejects (a non-finite or empty box, NaN, a row of the
/// wrong arity).
///
/// The box bounds participate as ordinary inequality rows so the center
/// stays away from the box walls too.
#[must_use]
pub fn chebyshev_center(
    constraints: &[Constraint],
    n: usize,
    lo: f64,
    hi: f64,
) -> Option<InteriorPoint> {
    chebyshev_center_in(constraints, n, lo, hi)
}

/// [`chebyshev_center`] over rows read in place.
///
/// The reported margin is not the LP's `t` but the distance actually
/// achieved at the returned point: the smallest of `(b − a·x)/‖a‖` over
/// the inequality rows and of the distances to the box walls, clamped to
/// `[0, 1]`.
#[must_use]
pub fn chebyshev_center_in<R: RowSource + ?Sized>(
    rows: &R,
    n: usize,
    lo: f64,
    hi: f64,
) -> Option<InteriorPoint> {
    // Variables: x_0..x_{n-1}, t (the margin), in the box x ∈ [lo, hi],
    // t ∈ [0, 1] (the cap keeps the radius finite); minimize −t.
    let load = |w: &mut RowWriter<'_>| {
        rows.for_each_row(&mut |a, rel, b| {
            if !w.accepts(a, b, n) {
                return;
            }
            let sign = match rel {
                Rel::Eq => {
                    // Equality rows carry no margin.
                    w.le(|j| if j < n { a[j] } else { 0.0 }, b);
                    w.le(|j| if j < n { -a[j] } else { 0.0 }, -b);
                    return;
                }
                Rel::Le => 1.0,
                Rel::Ge => -1.0,
            };
            let norm = norm(a);
            w.le(|j| if j < n { sign * a[j] } else { norm }, sign * b);
        });
        for j in 0..n {
            // −x_j + t ≤ −lo  ⇔  x_j ≥ lo + t
            w.le(
                |i| {
                    if i == j {
                        -1.0
                    } else if i == n {
                        1.0
                    } else {
                        0.0
                    }
                },
                -lo,
            );
        }
        for j in 0..n {
            // x_j + t ≤ hi
            w.le(|i| if i == j || i == n { 1.0 } else { 0.0 }, hi);
        }
    };
    solve_in_arena(
        n + 1,
        |j| if j == n { -1.0 } else { 0.0 },
        |j| if j == n { (0.0, 1.0) } else { (lo, hi) },
        CHEBYSHEV_SEED,
        load,
        |x| {
            x.map(|x| {
                let point = &x[..n];
                InteriorPoint {
                    point: point.to_vec(),
                    margin: achieved_margin(rows, point, lo, hi),
                }
            })
        },
    )
    .flatten()
}

/// The distance from `x` to the nearest inequality boundary or box wall,
/// clamped to `[0, 1]`. A zero row `0·x ≤ b` counts only when `x` (any
/// point) violates it.
fn achieved_margin<R: RowSource + ?Sized>(rows: &R, x: &[f64], lo: f64, hi: f64) -> f64 {
    let mut margin = x.iter().fold(1.0_f64, |m, &xj| m.min(xj - lo).min(hi - xj));
    rows.for_each_row(&mut |a, rel, b| {
        let slack = match rel {
            Rel::Le => b - dot(a, x),
            Rel::Ge => dot(a, x) - b,
            Rel::Eq => return,
        };
        let norm = norm(a);
        margin = margin.min(if norm > 0.0 {
            slack / norm
        } else {
            slack.min(0.0)
        });
    });
    margin.max(0.0)
}

fn norm(a: &[f64]) -> f64 {
    a.iter().map(|v| v * v).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn feasible_box_only() {
        let p = feasible_point(&[], 3, 0.0, 1.0).unwrap();
        assert!(p.iter().all(|&v| (-1e-9..=1.0 + 1e-9).contains(&v)));
    }

    #[test]
    fn infeasible_contradiction() {
        let cs = vec![
            Constraint::le(vec![1.0, 0.0], 0.2),
            Constraint::ge(vec![1.0, 0.0], 0.8),
        ];
        assert!(!is_feasible(&cs, 2, 0.0, 1.0));
        assert!(interior_point(&cs, 2, 0.0, 1.0).is_none());
    }

    #[test]
    fn chebyshev_center_of_unit_box() {
        let ip = chebyshev_center(&[], 2, 0.0, 1.0).unwrap();
        assert!((ip.margin - 0.5).abs() < 1e-6);
        assert!((ip.point[0] - 0.5).abs() < 1e-6);
        assert!((ip.point[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn interior_point_respects_halfspace() {
        // Triangle: x + y ≤ 1 in the unit box.
        let cs = vec![Constraint::le(vec![1.0, 1.0], 1.0)];
        let ip = interior_point(&cs, 2, 0.0, 1.0).unwrap();
        assert!(ip.margin > 0.1);
        assert!(ip.point[0] + ip.point[1] < 1.0 - ip.margin / 2.0);
    }

    #[test]
    fn sliver_region_has_no_interior() {
        // x ≤ 0.5 and x ≥ 0.5: feasible but zero-width.
        let cs = vec![
            Constraint::le(vec![1.0, 0.0], 0.5),
            Constraint::ge(vec![1.0, 0.0], 0.5),
        ];
        assert!(is_feasible(&cs, 2, 0.0, 1.0));
        assert!(interior_point(&cs, 2, 0.0, 1.0).is_none());
    }

    #[test]
    fn equality_constrained_interior() {
        // On the segment x + y = 1 within the box: Chebyshev center exists
        // with zero margin (equality rows carry no slack), so interior_point
        // filters it out but chebyshev_center still yields a witness.
        let cs = vec![Constraint::eq(vec![1.0, 1.0], 1.0)];
        let ip = chebyshev_center(&cs, 2, 0.0, 1.0).unwrap();
        assert!((ip.point[0] + ip.point[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn angle_box_region() {
        // A typical arrangement-region query in the angle space.
        let cs = vec![
            Constraint::ge(vec![0.9, 0.8], 1.0),
            Constraint::le(vec![2.0, 0.1], 1.0),
        ];
        let ip = interior_point(&cs, 2, 0.0, FRAC_PI_2).unwrap();
        assert!(cs.iter().all(|c| c.satisfied(&ip.point, 1e-9)));
        assert!(ip.margin > 0.0);
    }
}
