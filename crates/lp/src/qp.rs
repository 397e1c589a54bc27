//! Euclidean projection onto a polyhedral cone: the closest-point
//! sub-problem of MDBASELINE, solved exactly.
//!
//! A satisfactory region of the exact arrangement is a polyhedral cone
//! `C = {w : G w ≥ 0}` of weight vectors. The function of `C` at the
//! smallest angle to a query `q` points along the Euclidean projection of
//! `q` onto `C` (Moreau's decomposition), so the closest-point problem is
//! the quadratic program
//!
//! ```text
//!   minimize   ½‖w − q‖²
//!   subject to g_i · w ≥ 0   for every row g_i of G
//! ```
//!
//! [`ConeQp::project`] solves it with a primal active-set method. The
//! iterate stays feasible from a feasible start; each step moves to the
//! minimizer over the working set's null space, or as far toward it as
//! the first blocking row allows and adds that row. When no step is left
//! it reads the working rows' multipliers and drops one with the wrong
//! sign, or stops. The working rows stay linearly independent, so there
//! are at most `d` of them and each solve is a `d × d` system.

/// Reusable buffers of the active-set solver; a warm solve allocates
/// nothing.
#[derive(Debug, Default, Clone)]
pub struct ConeQp {
    working: Vec<usize>,
    gram: Vec<f64>,
    y: Vec<f64>,
    p: Vec<f64>,
    s: Vec<f64>,
}

/// A step or multiplier below this is zero. Rows and the query should be
/// of unit scale, as MDBASELINE passes them.
const TOL: f64 = 1e-12;

impl ConeQp {
    /// Project `q` onto the cone `{w : g · w ≥ 0 for every row g}`.
    ///
    /// `rows` holds the rows back to back, `q.len()` entries each. On
    /// entry `w` is a point of the cone (a witness); on return it is the
    /// projection, which is feasible up to rounding. Returns `false` when
    /// the iteration cap or a numerically singular working set stopped the
    /// solve early; `w` is then the last feasible iterate.
    ///
    /// # Panics
    /// If `w` and `q` differ in length or `rows` is not a whole number of
    /// rows.
    pub fn project(&mut self, rows: &[f64], q: &[f64], w: &mut [f64]) -> bool {
        let d = q.len();
        assert_eq!(w.len(), d, "start arity");
        assert!(d > 0 && rows.len().is_multiple_of(d), "row arity");
        let m = rows.len() / d;
        let row = |i: usize| &rows[i * d..(i + 1) * d];
        self.working.clear();
        self.p.resize(d, 0.0);
        self.s.resize(d, 0.0);
        for _ in 0..4 * (m + d) + 16 {
            if !self.null_space_minimizer(rows, q) {
                return false;
            }
            for ((s, p), x) in self.s.iter_mut().zip(&self.p).zip(w.iter()) {
                *s = p - x;
            }
            if dot(&self.s, &self.s).sqrt() <= TOL {
                // Stationary on the working set: the multipliers of the
                // rows are −y; a row with y > 0 pulls the optimum off it.
                let drop = (0..self.working.len())
                    .filter(|&j| self.y[j] > TOL)
                    .max_by(|&a, &b| self.y[a].total_cmp(&self.y[b]));
                match drop {
                    Some(j) => {
                        self.working.remove(j);
                    }
                    None => return true,
                }
                continue;
            }
            let mut alpha = 1.0;
            let mut block = None;
            for i in (0..m).filter(|i| !self.working.contains(i)) {
                let gs = dot(row(i), &self.s);
                if gs < 0.0 {
                    let t = dot(row(i), w).max(0.0) / -gs;
                    if t < alpha {
                        alpha = t;
                        block = Some(i);
                    }
                }
            }
            for (x, s) in w.iter_mut().zip(&self.s) {
                *x += alpha * s;
            }
            if let Some(i) = block {
                self.working.push(i);
            }
        }
        false
    }

    /// `p = q − Aᵀy` with `(A Aᵀ) y = A q`, `A` the working rows: the
    /// closest point to `q` where every working row holds with equality.
    /// `false` when the Gram matrix is numerically singular.
    fn null_space_minimizer(&mut self, rows: &[f64], q: &[f64]) -> bool {
        let d = q.len();
        let k = self.working.len();
        let row = |i: usize| &rows[i * d..(i + 1) * d];
        self.gram.clear();
        self.y.clear();
        for &ia in &self.working {
            for &ib in &self.working {
                self.gram.push(dot(row(ia), row(ib)));
            }
            self.y.push(dot(row(ia), q));
        }
        if !solve_in_place(&mut self.gram, &mut self.y, k) {
            return false;
        }
        self.p.copy_from_slice(q);
        for (a, &ia) in self.working.iter().enumerate() {
            for (pk, gk) in self.p.iter_mut().zip(row(ia)) {
                *pk -= self.y[a] * gk;
            }
        }
        true
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solve the `k × k` system `M y = b` (row-major `m`) in place by
/// Gaussian elimination with partial pivoting; `b` becomes `y`.
fn solve_in_place(m: &mut [f64], b: &mut [f64], k: usize) -> bool {
    for col in 0..k {
        let pivot = (col..k)
            .max_by(|&a, &c| m[a * k + col].abs().total_cmp(&m[c * k + col].abs()))
            .expect("non-empty column");
        if m[pivot * k + col].abs() <= TOL {
            return false;
        }
        if pivot != col {
            for j in 0..k {
                m.swap(pivot * k + j, col * k + j);
            }
            b.swap(pivot, col);
        }
        for r in col + 1..k {
            let f = m[r * k + col] / m[col * k + col];
            for j in col..k {
                m[r * k + j] -= f * m[col * k + j];
            }
            b[r] -= f * b[col];
        }
    }
    for col in (0..k).rev() {
        let tail: f64 = (col + 1..k).map(|j| m[col * k + j] * b[j]).sum();
        b[col] = (b[col] - tail) / m[col * k + col];
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn project(rows: &[&[f64]], q: &[f64], start: &[f64]) -> Vec<f64> {
        let flat: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        let mut w = start.to_vec();
        assert!(ConeQp::default().project(&flat, q, &mut w));
        w
    }

    fn check(rows: &[&[f64]], q: &[f64], start: &[f64], want: &[f64]) {
        let w = project(rows, q, start);
        let close = w.iter().zip(want).all(|(a, b)| (a - b).abs() < 1e-12);
        assert!(close, "{w:?} for {q:?}, want {want:?}");
    }

    #[test]
    fn projects_onto_faces_and_the_apex() {
        let orthant: [&[f64]; 2] = [&[1.0, 0.0], &[0.0, 1.0]];
        // A query inside is its own projection.
        check(&orthant, &[0.6, 0.8], &[0.5, 0.5], &[0.6, 0.8]);
        // A query in the polar cone projects to the apex.
        check(&orthant, &[-1.0, -1.0], &[0.3, 0.4], &[0.0, 0.0]);
        // Onto the ray w₁ = w₂ of the wedge w₁ ≥ w₂ ≥ 0.
        check(
            &[&[1.0, -1.0], &[0.0, 1.0]],
            &[0.2, 1.0],
            &[1.0, 0.5],
            &[0.6, 0.6],
        );
        // Started on a facet the inside query pulls away from.
        let facet: [&[f64]; 3] = [&[1.0, -1.0], &[1.0, 0.0], &[0.0, 1.0]];
        check(&facet, &[1.0, 0.0], &[0.5, 0.5], &[1.0, 0.0]);
        // Onto an edge of the 3-D orthant.
        let orthant3: [&[f64]; 3] = [&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]];
        check(&orthant3, &[-1.0, -2.0, 3.0], &[1.0; 3], &[0.0, 0.0, 3.0]);
    }

    #[test]
    fn matches_a_dense_scan_on_a_random_cone() {
        // w ≥ 0, w₁ + w₂ ≥ 2w₃, w₃ ≥ 0.5 w₂: no direction of a dense scan
        // of the cone is closer to the query than the projection's.
        let rows: [&[f64]; 5] = [
            &[1.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0],
            &[0.0, 0.0, 1.0],
            &[1.0, 1.0, -2.0],
            &[0.0, -0.5, 1.0],
        ];
        let q = [0.1, 0.9, 0.1];
        let w = project(&rows, &q, &[1.0, 0.2, 0.3]);
        let cos = |v: &[f64]| dot(v, &q) / (dot(v, v) * dot(&q, &q)).sqrt();
        let at = |i: u32| f64::from(i) * std::f64::consts::FRAC_PI_2 / 200.0;
        for (a, b) in (0..=40_400).map(|c| (at(c / 201), at(c % 201))) {
            let v = [a.sin() * b.cos(), a.sin() * b.sin(), a.cos()];
            if rows.iter().all(|r| dot(r, &v) >= 0.0) {
                assert!(cos(&v) <= cos(&w) + 1e-12, "{v:?} beats {w:?}");
            }
        }
    }
}
