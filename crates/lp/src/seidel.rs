//! Seidel's randomized incremental linear programming.
//!
//! The LP instances in this workload have a *fixed, tiny* dimension (the
//! `d − 1 ≤ 5` angle coordinates) and a potentially large constraint count
//! (ordering-exchange hyperplanes). Seidel's algorithm runs in expected
//! `O(m · n!)` time — linear in the number of constraints `m` for fixed
//! dimension `n` — which makes it the kernel of every arrangement LP: the
//! region feasibility tests that dominate SATREGIONS and MARKCELL (the
//! `Lp(n²)` term of the paper's Theorem 3) and, one variable up, the
//! Chebyshev witnesses of [`crate::feasibility`].
//!
//! The implementation requires a finite bounding box per variable, which
//! guarantees bounded subproblems. Equality rows are split into opposing
//! inequalities. Results are cross-checked against the two-phase simplex
//! in the test suite, including randomized property tests.
//!
//! # Memory
//!
//! A solve does not touch the heap once its thread has seen a problem of
//! that size. Every level of the recursion lives in one flat arena per
//! thread: a header (objective, lower bounds, upper bounds, current point;
//! `n` values each) followed by the rows, stride `n + 1` (coefficients,
//! then the right-hand side). A level projects its subproblem into the
//! arena's tail and truncates the tail on return.

use std::cell::RefCell;

use crate::problem::{Constraint, Rel, RowSource};
use crate::EPS;

/// Outcome of a Seidel solve.
#[derive(Debug, Clone, PartialEq)]
pub enum SeidelOutcome {
    /// Optimal point minimizing the objective.
    Optimal(Vec<f64>),
    /// Empty feasible set.
    Infeasible,
}

/// Minimize `objective · x` over `{x ∈ [lo,hi]^n : constraints}` using
/// Seidel's randomized incremental algorithm.
///
/// `lo` and `hi` must be finite with `lo ≤ hi`. The solve is deterministic
/// for a given `seed` (the random permutation drives only performance, not
/// the result). Returns `None` for invalid input (non-finite box, NaN or
/// arity mismatch); callers should then fall back to [`crate::simplex`].
#[must_use]
pub fn solve_seidel(
    constraints: &[Constraint],
    objective: &[f64],
    lo: f64,
    hi: f64,
    seed: u64,
) -> Option<SeidelOutcome> {
    let n = objective.len();
    solve_in_arena(
        n,
        |j| objective[j],
        |_| (lo, hi),
        seed,
        |w| load_rows(w, constraints),
        |x| match x {
            Some(x) => SeidelOutcome::Optimal(x.to_vec()),
            None => SeidelOutcome::Infeasible,
        },
    )
}

/// Whether `{x ∈ [lo,hi]^n : rows}` is non-empty — [`solve_seidel`] with
/// a zero objective, reading the rows in place. Allocation-free once the
/// thread's arena has grown to the problem size. `None` for invalid input,
/// as in [`solve_seidel`].
#[must_use]
pub fn feasible<R: RowSource + ?Sized>(
    rows: &R,
    n: usize,
    lo: f64,
    hi: f64,
    seed: u64,
) -> Option<bool> {
    solve_in_arena(
        n,
        |_| 0.0,
        |_| (lo, hi),
        seed,
        |w| load_rows(w, rows),
        |x| x.is_some(),
    )
}

/// Load `rows` as Seidel stores them: `≥` rows negated, `=` rows split
/// into a `≤` and a `≥` row.
fn load_rows<R: RowSource + ?Sized>(w: &mut RowWriter<'_>, rows: &R) {
    let n = w.n;
    rows.for_each_row(&mut |a, rel, b| {
        if !w.accepts(a, b, n) {
            return;
        }
        match rel {
            Rel::Le => w.le(|j| a[j], b),
            Rel::Ge => w.le(|j| -a[j], -b),
            Rel::Eq => {
                w.le(|j| a[j], b);
                w.le(|j| -a[j], -b);
            }
        }
    });
}

/// Appends `≤` rows to a solve's arena.
pub(crate) struct RowWriter<'a> {
    buf: &'a mut Vec<f64>,
    n: usize,
    rows: usize,
    valid: bool,
}

impl RowWriter<'_> {
    /// Whether a source row `a·x REL b` over `arity` variables is valid
    /// input (right arity, no NaN). An invalid row makes the whole solve
    /// return `None`.
    pub(crate) fn accepts(&mut self, a: &[f64], b: f64, arity: usize) -> bool {
        if a.len() != arity || b.is_nan() || a.iter().any(|v| v.is_nan()) {
            self.valid = false;
        }
        self.valid
    }

    /// Append the row `Σ_j coeff(j)·x_j ≤ b`.
    pub(crate) fn le(&mut self, coeff: impl Fn(usize) -> f64, b: f64) {
        self.buf.extend((0..self.n).map(coeff));
        self.buf.push(b);
        self.rows += 1;
    }
}

thread_local! {
    static ARENA: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Minimize `Σ objective(j)·x_j` over `x_j ∈ bounds(j)` and the rows
/// `load` writes, in this thread's arena. `done` sees the optimum (`None`
/// when the problem is infeasible) before the arena is reused. Returns
/// `None` for invalid input: no variables, a non-finite or empty bound, a
/// non-finite objective or a row [`RowWriter::accepts`] rejected.
pub(crate) fn solve_in_arena<T>(
    n: usize,
    objective: impl Fn(usize) -> f64,
    bounds: impl Fn(usize) -> (f64, f64),
    seed: u64,
    load: impl FnOnce(&mut RowWriter<'_>),
    done: impl FnOnce(Option<&[f64]>) -> T,
) -> Option<T> {
    if n == 0 {
        return None;
    }
    for j in 0..n {
        let (lo, hi) = bounds(j);
        if !lo.is_finite() || !hi.is_finite() || lo > hi || !objective(j).is_finite() {
            return None;
        }
    }
    let run = |buf: &mut Vec<f64>| {
        buf.clear();
        buf.extend((0..n).map(&objective));
        buf.extend((0..n).map(|j| bounds(j).0));
        buf.extend((0..n).map(|j| bounds(j).1));
        buf.resize(4 * n, 0.0);
        let mut w = RowWriter {
            buf,
            n,
            rows: 0,
            valid: true,
        };
        load(&mut w);
        if !w.valid {
            return None;
        }
        let top = Level {
            off: 0,
            n,
            m: w.rows,
        };
        let mut rng = XorShift64::new(seed);
        let x = recurse(buf, top, &mut rng).then(|| &buf[top.x()..top.x() + n]);
        Some(done(x))
    };
    ARENA.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => run(&mut buf),
        // Only reachable when a row source or `done` starts a solve itself.
        Err(_) => run(&mut Vec::new()),
    })
}

/// Where one recursion level's blocks sit in the arena.
#[derive(Debug, Clone, Copy)]
struct Level {
    off: usize,
    n: usize,
    m: usize,
}

impl Level {
    fn c(self) -> usize {
        self.off
    }

    fn lo(self) -> usize {
        self.off + self.n
    }

    fn hi(self) -> usize {
        self.off + 2 * self.n
    }

    fn x(self) -> usize {
        self.off + 3 * self.n
    }

    fn row(self, i: usize) -> usize {
        self.off + 4 * self.n + i * (self.n + 1)
    }

    fn end(self) -> usize {
        self.row(self.m)
    }
}

/// Tiny deterministic RNG — only the permutation quality matters.
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Solve the level `lv` (whose block ends the arena); on success its
/// optimum is in the level's `x` slot.
fn recurse(buf: &mut Vec<f64>, lv: Level, rng: &mut XorShift64) -> bool {
    let n = lv.n;
    if n == 1 {
        return base_1d(buf, lv);
    }

    // Fisher–Yates shuffle for the expected-linear bound.
    for i in (1..lv.m).rev() {
        let j = rng.below(i + 1);
        if i != j {
            for t in 0..=n {
                buf.swap(lv.row(i) + t, lv.row(j) + t);
            }
        }
    }

    // Start from the box optimum.
    for j in 0..n {
        buf[lv.x() + j] = if buf[lv.c() + j] > 0.0 {
            buf[lv.lo() + j]
        } else {
            buf[lv.hi() + j]
        };
    }

    for i in 0..lv.m {
        let r = lv.row(i);
        let viol = dot(&buf[r..r + n], &buf[lv.x()..lv.x() + n]) - buf[r + n];
        if viol <= EPS {
            continue;
        }
        // The optimum of rows[..=i] lies on the boundary of rows[i].
        let Some((k, ak)) = pivot_column(&buf[r..r + n]) else {
            // Degenerate row 0·x ≤ b with b < 0: infeasible.
            return false;
        };
        let sub = project(buf, lv, i, k, ak);
        let feasible = recurse(buf, sub, rng);
        if feasible {
            lift(buf, lv, sub, i, k, ak);
        }
        buf.truncate(sub.off);
        if !feasible {
            return false;
        }
    }
    true
}

/// Largest-magnitude coefficient for numerically stable elimination.
fn pivot_column(a: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (j, &v) in a.iter().enumerate() {
        if v.abs() > EPS && best.is_none_or(|(_, bv): (usize, f64)| v.abs() > bv.abs()) {
            best = Some((j, v));
        }
    }
    best
}

/// Substitute `x_k = (b − Σ_{j≠k} a_j x_j) / a_k` (from the tight row `i`)
/// into the earlier rows, the objective and the box bounds of `x_k`,
/// writing the `n − 1`-variable subproblem after `lv` in the arena.
fn project(buf: &mut Vec<f64>, lv: Level, i: usize, k: usize, ak: f64) -> Level {
    let n = lv.n;
    let sub = Level {
        off: lv.end(),
        n: n - 1,
        m: i + 2,
    };
    buf.resize(sub.end(), 0.0);
    let (head, tail) = buf.split_at_mut(sub.off);
    let tight = &head[lv.row(i)..lv.row(i) + n + 1];
    let at = |p: usize| p - sub.off;

    let scale = head[lv.c() + k] / ak;
    for (jj, j) in (0..n).filter(|&j| j != k).enumerate() {
        tail[at(sub.c()) + jj] = head[lv.c() + j] - scale * tight[j];
        tail[at(sub.lo()) + jj] = head[lv.lo() + j];
        tail[at(sub.hi()) + jj] = head[lv.hi() + j];
    }

    // Row `a·x ≤ b` with `x_k` eliminated.
    let reduce = |out: &mut [f64], a: &dyn Fn(usize) -> f64, b: f64, coeff_k: f64| {
        let scale = coeff_k / ak;
        for (jj, j) in (0..n).filter(|&j| j != k).enumerate() {
            out[jj] = a(j) - scale * tight[j];
        }
        out[n - 1] = b - scale * tight[n];
    };
    for e in 0..i {
        let row = &head[lv.row(e)..lv.row(e) + n + 1];
        let out = &mut tail[at(sub.row(e))..at(sub.row(e + 1))];
        reduce(out, &|j| row[j], row[n], row[k]);
    }
    // Box bounds on x_k become two general constraints in the subspace:
    // the pseudo-rows x_k ≤ hi_k and −x_k ≤ −lo_k, reduced like the rest.
    let (hi_k, lo_k) = (head[lv.hi() + k], head[lv.lo() + k]);
    let unit = |sign: f64| move |j: usize| if j == k { sign } else { 0.0 };
    reduce(
        &mut tail[at(sub.row(i))..at(sub.row(i + 1))],
        &unit(1.0),
        hi_k,
        1.0,
    );
    reduce(
        &mut tail[at(sub.row(i + 1))..at(sub.end())],
        &unit(-1.0),
        -lo_k,
        -1.0,
    );
    sub
}

/// Lift the subproblem's optimum back into `lv`'s point: the free
/// coordinates in order, then `x_k` from the tight row `i`.
fn lift(buf: &mut [f64], lv: Level, sub: Level, i: usize, k: usize, ak: f64) {
    let n = lv.n;
    let (head, tail) = buf.split_at_mut(sub.off);
    let y = &tail[sub.x() - sub.off..sub.x() - sub.off + sub.n];
    let (x, r) = (lv.x(), lv.row(i));
    for (j, &yj) in (0..n).filter(|&j| j != k).zip(y) {
        head[x + j] = yj;
    }
    let mut s = head[r + n];
    for j in (0..n).filter(|&j| j != k) {
        s -= head[r + j] * head[x + j];
    }
    head[x + k] = s / ak;
}

fn base_1d(buf: &mut [f64], lv: Level) -> bool {
    let c = buf[lv.c()];
    let mut lo = buf[lv.lo()];
    let mut hi = buf[lv.hi()];
    for i in 0..lv.m {
        let (a, b) = (buf[lv.row(i)], buf[lv.row(i) + 1]);
        if a > EPS {
            hi = hi.min(b / a);
        } else if a < -EPS {
            lo = lo.max(b / a);
        } else if b < -EPS {
            return false;
        }
    }
    if lo > hi + EPS {
        return false;
    }
    let x = if c > 0.0 { lo } else { hi };
    buf[lv.x()] = x.clamp(lo.min(hi), hi.max(lo));
    true
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinearProgram, LpOutcome};
    use crate::simplex::solve;

    fn optimal(out: SeidelOutcome) -> Vec<f64> {
        match out {
            SeidelOutcome::Optimal(x) => x,
            SeidelOutcome::Infeasible => panic!("unexpected infeasible"),
        }
    }

    #[test]
    fn box_only_minimum() {
        let x = optimal(solve_seidel(&[], &[1.0, -1.0], 0.0, 2.0, 7).unwrap());
        assert!((x[0] - 0.0).abs() < 1e-9);
        assert!((x[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_halfspace_binds() {
        // min −x −y over unit box with x + y ≤ 1 → value −1 on the segment.
        let cs = vec![Constraint::le(vec![1.0, 1.0], 1.0)];
        let x = optimal(solve_seidel(&cs, &[-1.0, -1.0], 0.0, 1.0, 3).unwrap());
        assert!((x[0] + x[1] - 1.0).abs() < 1e-7, "{x:?}");
    }

    #[test]
    fn infeasible_pair() {
        let cs = vec![
            Constraint::le(vec![1.0, 0.0], 0.2),
            Constraint::ge(vec![1.0, 0.0], 0.8),
        ];
        assert_eq!(
            solve_seidel(&cs, &[0.0, 0.0], 0.0, 1.0, 5).unwrap(),
            SeidelOutcome::Infeasible
        );
    }

    #[test]
    fn equality_row_supported() {
        // min x over x + y = 1 in the unit box → x = 0, y = 1.
        let cs = vec![Constraint::eq(vec![1.0, 1.0], 1.0)];
        let x = optimal(solve_seidel(&cs, &[1.0, 0.0], 0.0, 1.0, 11).unwrap());
        assert!(x[0].abs() < 1e-7);
        assert!((x[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn three_dimensional() {
        // min −x−y−z over x+y+z ≤ 1.5 in the unit box.
        let cs = vec![Constraint::le(vec![1.0, 1.0, 1.0], 1.5)];
        let x = optimal(solve_seidel(&cs, &[-1.0, -1.0, -1.0], 0.0, 1.0, 13).unwrap());
        assert!((x.iter().sum::<f64>() - 1.5).abs() < 1e-7, "{x:?}");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(solve_seidel(&[], &[1.0], f64::NEG_INFINITY, 1.0, 1).is_none());
        assert!(solve_seidel(&[], &[f64::NAN], 0.0, 1.0, 1).is_none());
        assert!(solve_seidel(&[], &[], 0.0, 1.0, 1).is_none());
        let bad = vec![Constraint::le(vec![1.0], 0.5)];
        assert!(solve_seidel(&bad, &[1.0, 1.0], 0.0, 1.0, 1).is_none());
    }

    #[test]
    fn agrees_with_simplex_on_random_instances() {
        // Deterministic pseudo-random cross-check against the simplex.
        let mut rng = XorShift64::new(0xfa1c_4a11);
        let mut fr = || (rng.next_u64() % 2000) as f64 / 1000.0 - 1.0;
        for case in 0..60 {
            let n = 2 + (case % 3);
            let m = 1 + (case % 7);
            let mut cs = Vec::new();
            for _ in 0..m {
                let a: Vec<f64> = (0..n).map(|_| fr()).collect();
                let b = fr();
                cs.push(Constraint::le(a, b));
            }
            let obj: Vec<f64> = (0..n).map(|_| fr()).collect();

            let seidel = solve_seidel(&cs, &obj, 0.0, 1.0, 17 + case as u64).unwrap();
            let lp = LinearProgram::minimize(obj.clone())
                .with_constraints(cs.iter().cloned())
                .with_box(0.0, 1.0);
            let simplex = solve(&lp).unwrap();
            match (seidel, simplex) {
                (SeidelOutcome::Infeasible, LpOutcome::Infeasible) => {}
                (SeidelOutcome::Optimal(xs), LpOutcome::Optimal { value, .. }) => {
                    let vs: f64 = xs.iter().zip(&obj).map(|(a, b)| a * b).sum();
                    assert!(
                        (vs - value).abs() < 1e-5,
                        "case {case}: seidel {vs} vs simplex {value}"
                    );
                    for c in &cs {
                        assert!(c.satisfied(&xs, 1e-6), "case {case}: {c} at {xs:?}");
                    }
                }
                (a, b) => panic!("case {case}: seidel {a:?} vs simplex {b:?}"),
            }
        }
    }
}
