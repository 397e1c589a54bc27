//! Property test: the Chebyshev witness solved on the Seidel kernel
//! against a reference Chebyshev LP solved by the dense simplex.
//!
//! Random bounded polytopes in 1–5 variables, with slivers cut by
//! near-parallel rows, equality rows and regions that touch the box. For
//! every instance the two solvers must agree on emptiness and on the
//! margin (within 1e-9), and the returned point must satisfy every row
//! with that margin.

use fairrank_lp::{chebyshev_center, simplex, Constraint, LinearProgram, LpOutcome, Rel};

/// Deterministic xorshift stream for the generator.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.range(-1.0, 1.0)).collect()
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// The Chebyshev LP in `n + 1` variables, solved by the simplex: maximize
/// `t` subject to `a·x + t‖a‖ ≤ b` per inequality row, equality rows
/// unchanged, `lo + t ≤ x_j ≤ hi − t`, `x ∈ [lo, hi]`, `t ∈ [0, 1]`.
/// Returns the margin, or `None` for an empty region.
fn reference_margin(cs: &[Constraint], n: usize, lo: f64, hi: f64) -> Option<f64> {
    let mut rows = Vec::new();
    for c in cs {
        let mut a = c.normalized_le().a;
        let b = c.normalized_le().b;
        match c.rel {
            Rel::Eq => {
                a.push(0.0);
                rows.push(Constraint::eq(a, b));
            }
            Rel::Le | Rel::Ge => {
                a.push(norm(&c.a));
                rows.push(Constraint::le(a, b));
            }
        }
    }
    for j in 0..n {
        let mut a = vec![0.0; n + 1];
        a[j] = -1.0;
        a[n] = 1.0;
        rows.push(Constraint::le(a.clone(), -lo));
        a[j] = 1.0;
        rows.push(Constraint::le(a, hi));
    }
    let mut objective = vec![0.0; n + 1];
    objective[n] = 1.0;
    let lp = LinearProgram::maximize(objective)
        .with_constraints(rows)
        .with_box(lo, hi)
        .with_bound(n, 0.0, 1.0);
    match simplex::solve(&lp).expect("reference LP is well-formed") {
        LpOutcome::Optimal { value, .. } => Some(value),
        LpOutcome::Infeasible => None,
        LpOutcome::Unbounded => panic!("the margin is capped at 1"),
    }
}

/// A random row `a·x REL b` through a slack `s` around the point `p`:
/// positive `s` keeps `p` strictly inside, negative cuts it off.
fn row_around(g: &mut Gen, p: &[f64], s: f64) -> Constraint {
    let a = g.vector(p.len());
    let b = dot(&a, p);
    if g.below(2) == 0 {
        Constraint::le(a, b + s)
    } else {
        Constraint::ge(a, b - s)
    }
}

/// One random instance: `(constraints, n, lo, hi)`.
fn instance(g: &mut Gen, case: usize) -> (Vec<Constraint>, usize, f64, f64) {
    let n = 1 + case % 5;
    let (lo, hi) = if g.below(2) == 0 {
        (0.0, 1.0)
    } else {
        (0.0, std::f64::consts::FRAC_PI_2)
    };
    let p: Vec<f64> = (0..n).map(|_| g.range(lo, hi)).collect();
    let mut cs: Vec<Constraint> = (0..1 + g.below(12))
        .map(|_| {
            let s = g.range(-0.1, 0.5);
            row_around(g, &p, s)
        })
        .collect();
    match case % 4 {
        // A sliver between two near-parallel rows, open or empty.
        0 => {
            let a = g.vector(n);
            let tilt = g.range(1e-7, 1e-3);
            let a2: Vec<f64> = a.iter().map(|v| v + tilt * g.range(-1.0, 1.0)).collect();
            let width = [1e-3, 1e-5, -1e-4][g.below(3)];
            let b = dot(&a, &p);
            cs.push(Constraint::le(a, b + width / 2.0));
            cs.push(Constraint::ge(a2.clone(), dot(&a2, &p) - width / 2.0));
        }
        // An equality row through `p` (no margin of its own).
        1 if n >= 2 => {
            let a = g.vector(n);
            let b = dot(&a, &p);
            cs.push(Constraint::eq(a, b));
        }
        // A region pressed against the box: a unit row at or near a wall.
        2 => {
            let j = g.below(n);
            let mut a = vec![0.0; n];
            a[j] = 1.0;
            let at = [lo, lo + 1e-6, hi - 0.05, lo - 1e-3][g.below(4)];
            cs.push(Constraint::le(a, at));
        }
        _ => {}
    }
    (cs, n, lo, hi)
}

#[test]
fn seidel_witness_matches_the_simplex_reference() {
    let mut g = Gen(0x9e37_79b9_7f4a_7c15);
    let (mut empty, mut interior, mut flat) = (0, 0, 0);
    for case in 0..4000 {
        let (cs, n, lo, hi) = instance(&mut g, case);
        let got = chebyshev_center(&cs, n, lo, hi);
        let want = reference_margin(&cs, n, lo, hi);
        let (ip, want) = match (got, want) {
            (None, None) => {
                empty += 1;
                continue;
            }
            (Some(ip), Some(want)) => (ip, want),
            (got, want) => panic!("case {case}: emptiness differs: {got:?} vs {want:?} for {cs:?}"),
        };
        assert!(
            (ip.margin - want).abs() <= 1e-9,
            "case {case}: margin {} vs reference {want} for {cs:?}",
            ip.margin
        );
        if ip.margin > 1e-9 {
            interior += 1;
        } else {
            flat += 1;
        }
        let x = &ip.point;
        for (j, &xj) in x.iter().enumerate() {
            assert!(
                xj - lo >= ip.margin - 1e-9 && hi - xj >= ip.margin - 1e-9,
                "case {case}: x_{j} = {xj} within {} of the box",
                ip.margin
            );
        }
        for c in &cs {
            let ok = match c.rel {
                Rel::Eq => (dot(&c.a, x) - c.b).abs() <= 1e-9,
                Rel::Le => c.b - dot(&c.a, x) >= ip.margin * norm(&c.a) - 1e-9,
                Rel::Ge => dot(&c.a, x) - c.b >= ip.margin * norm(&c.a) - 1e-9,
            };
            assert!(ok, "case {case}: {c} misses margin {} at {x:?}", ip.margin);
        }
    }
    // The generator must exercise every outcome.
    assert!(empty > 200, "only {empty} empty instances");
    assert!(interior > 1000, "only {interior} instances with interior");
    assert!(flat > 50, "only {flat} flat instances");
}
