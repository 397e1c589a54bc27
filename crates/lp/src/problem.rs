//! Problem types shared by the solvers: linear constraints, linear programs
//! and solver outcomes.

use std::fmt;

/// Relation of a linear constraint row `a·x REL b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

impl Rel {
    /// Flip the direction of an inequality (equality is unchanged).
    #[must_use]
    pub fn flipped(self) -> Rel {
        match self {
            Rel::Le => Rel::Ge,
            Rel::Ge => Rel::Le,
            Rel::Eq => Rel::Eq,
        }
    }
}

/// A single linear constraint `a·x REL b` over `a.len()` variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Coefficient vector `a`.
    pub a: Vec<f64>,
    /// Relation between `a·x` and `b`.
    pub rel: Rel,
    /// Right-hand side `b`.
    pub b: f64,
}

impl Constraint {
    /// `a·x ≤ b`.
    #[must_use]
    pub fn le(a: Vec<f64>, b: f64) -> Self {
        Constraint { a, rel: Rel::Le, b }
    }

    /// `a·x ≥ b`.
    #[must_use]
    pub fn ge(a: Vec<f64>, b: f64) -> Self {
        Constraint { a, rel: Rel::Ge, b }
    }

    /// `a·x = b`.
    #[must_use]
    pub fn eq(a: Vec<f64>, b: f64) -> Self {
        Constraint { a, rel: Rel::Eq, b }
    }

    /// Evaluate the left-hand side `a·x`.
    #[must_use]
    pub fn lhs(&self, x: &[f64]) -> f64 {
        dot(&self.a, x)
    }

    /// Signed violation of the constraint at `x`: positive means violated by
    /// that amount, `0.0` means satisfied (slack is not reported).
    #[must_use]
    pub fn violation(&self, x: &[f64]) -> f64 {
        let v = self.lhs(x);
        match self.rel {
            Rel::Le => (v - self.b).max(0.0),
            Rel::Ge => (self.b - v).max(0.0),
            Rel::Eq => (v - self.b).abs(),
        }
    }

    /// Whether `x` satisfies the constraint within tolerance `eps`.
    #[must_use]
    pub fn satisfied(&self, x: &[f64], eps: f64) -> bool {
        self.violation(x) <= eps
    }

    /// The same constraint expressed with a `≤` relation (equalities are
    /// returned as-is). `≥` rows are negated.
    #[must_use]
    pub fn normalized_le(&self) -> Constraint {
        match self.rel {
            Rel::Le | Rel::Eq => self.clone(),
            Rel::Ge => Constraint {
                a: self.a.iter().map(|v| -v).collect(),
                rel: Rel::Le,
                b: -self.b,
            },
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.a.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c:.4}·x{i}")?;
        }
        let rel = match self.rel {
            Rel::Le => "<=",
            Rel::Ge => ">=",
            Rel::Eq => "=",
        };
        write!(f, " {rel} {:.4}", self.b)
    }
}

/// Constraint rows a solver can read in place, without copying them into
/// [`Constraint`] values — a region described by borrowed hyperplanes,
/// say. The slice `[Constraint]` is the plain implementation.
pub trait RowSource {
    /// Call `row(a, rel, b)` once for every row `a·x REL b`, in order.
    fn for_each_row(&self, row: &mut dyn FnMut(&[f64], Rel, f64));

    /// The same rows as owned constraints.
    fn to_constraints(&self) -> Vec<Constraint> {
        let mut out = Vec::new();
        self.for_each_row(&mut |a, rel, b| {
            out.push(Constraint {
                a: a.to_vec(),
                rel,
                b,
            });
        });
        out
    }
}

impl RowSource for [Constraint] {
    fn for_each_row(&self, row: &mut dyn FnMut(&[f64], Rel, f64)) {
        for c in self {
            row(&c.a, c.rel, c.b);
        }
    }
}

/// A linear program over `n` variables.
///
/// Variables may carry finite or infinite bounds; the solvers convert to
/// standard form internally.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    /// Number of decision variables.
    pub n: usize,
    /// Objective coefficient vector of length `n`.
    pub objective: Vec<f64>,
    /// `true` to maximize the objective, `false` to minimize it.
    pub maximize: bool,
    /// Constraint rows.
    pub constraints: Vec<Constraint>,
    /// Per-variable `(lower, upper)` bounds; use `f64::NEG_INFINITY` /
    /// `f64::INFINITY` for unbounded sides.
    pub bounds: Vec<(f64, f64)>,
}

impl LinearProgram {
    /// A minimization problem with free variables and no constraints.
    #[must_use]
    pub fn minimize(objective: Vec<f64>) -> Self {
        let n = objective.len();
        LinearProgram {
            n,
            objective,
            maximize: false,
            constraints: Vec::new(),
            bounds: vec![(f64::NEG_INFINITY, f64::INFINITY); n],
        }
    }

    /// A maximization problem with free variables and no constraints.
    #[must_use]
    pub fn maximize(objective: Vec<f64>) -> Self {
        let mut lp = Self::minimize(objective);
        lp.maximize = true;
        lp
    }

    /// Add a constraint row (builder style).
    #[must_use]
    pub fn with_constraint(mut self, c: Constraint) -> Self {
        self.constraints.push(c);
        self
    }

    /// Add several constraint rows (builder style).
    #[must_use]
    pub fn with_constraints<I: IntoIterator<Item = Constraint>>(mut self, cs: I) -> Self {
        self.constraints.extend(cs);
        self
    }

    /// Set the bounds for variable `j` (builder style).
    #[must_use]
    pub fn with_bound(mut self, j: usize, lo: f64, hi: f64) -> Self {
        self.bounds[j] = (lo, hi);
        self
    }

    /// Set identical bounds `[lo, hi]` on every variable (builder style).
    #[must_use]
    pub fn with_box(mut self, lo: f64, hi: f64) -> Self {
        for b in &mut self.bounds {
            *b = (lo, hi);
        }
        self
    }

    /// Evaluate the objective at `x` (respecting the max/min sense is the
    /// caller's business — this is always `c·x`).
    #[must_use]
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        dot(&self.objective, x)
    }

    /// Whether `x` satisfies all constraints and bounds within `eps`.
    #[must_use]
    pub fn is_feasible_point(&self, x: &[f64], eps: f64) -> bool {
        if x.len() != self.n {
            return false;
        }
        for (j, &(lo, hi)) in self.bounds.iter().enumerate() {
            if x[j] < lo - eps || x[j] > hi + eps {
                return false;
            }
        }
        self.constraints.iter().all(|c| c.satisfied(x, eps))
    }
}

/// Result of solving a linear program.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal solution was found.
    Optimal {
        /// Optimal point.
        x: Vec<f64>,
        /// Objective value `c·x` at the optimum.
        value: f64,
    },
    /// The constraint set is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

impl LpOutcome {
    /// The optimal point if one exists.
    #[must_use]
    pub fn point(&self) -> Option<&[f64]> {
        match self {
            LpOutcome::Optimal { x, .. } => Some(x),
            _ => None,
        }
    }

    /// `true` when an optimum was found.
    #[must_use]
    pub fn is_optimal(&self) -> bool {
        matches!(self, LpOutcome::Optimal { .. })
    }
}

/// Errors raised by the solvers for malformed inputs or numerical failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// A constraint row has the wrong arity.
    DimensionMismatch {
        /// Expected number of variables.
        expected: usize,
        /// Found number of coefficients.
        found: usize,
    },
    /// A coefficient, bound or right-hand side is NaN.
    NotANumber,
    /// The simplex failed to converge within its iteration budget.
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "constraint arity {found} does not match variable count {expected}"
                )
            }
            LpError::NotANumber => write!(f, "NaN coefficient in linear program"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

/// Dense dot product (panics on length mismatch in debug builds only).
#[inline]
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_violation_le() {
        let c = Constraint::le(vec![1.0, 2.0], 4.0);
        assert_eq!(c.violation(&[1.0, 1.0]), 0.0);
        assert!((c.violation(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(c.satisfied(&[1.0, 1.5], 1e-9));
        assert!(!c.satisfied(&[1.0, 1.6], 1e-9));
    }

    #[test]
    fn constraint_violation_ge() {
        let c = Constraint::ge(vec![1.0, -1.0], 0.5);
        assert_eq!(c.violation(&[2.0, 1.0]), 0.0);
        assert!((c.violation(&[1.0, 1.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constraint_violation_eq() {
        let c = Constraint::eq(vec![1.0, 1.0], 1.0);
        assert_eq!(c.violation(&[0.5, 0.5]), 0.0);
        assert!((c.violation(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_le_flips_ge() {
        let c = Constraint::ge(vec![1.0, -2.0], 3.0).normalized_le();
        assert_eq!(c.rel, Rel::Le);
        assert_eq!(c.a, vec![-1.0, 2.0]);
        assert_eq!(c.b, -3.0);
    }

    #[test]
    fn rel_flip() {
        assert_eq!(Rel::Le.flipped(), Rel::Ge);
        assert_eq!(Rel::Ge.flipped(), Rel::Le);
        assert_eq!(Rel::Eq.flipped(), Rel::Eq);
    }

    #[test]
    fn lp_builder_and_feasibility() {
        let lp = LinearProgram::maximize(vec![1.0, 1.0])
            .with_constraint(Constraint::le(vec![1.0, 0.0], 2.0))
            .with_constraint(Constraint::le(vec![0.0, 1.0], 3.0))
            .with_box(0.0, 10.0);
        assert!(lp.is_feasible_point(&[2.0, 3.0], 1e-9));
        assert!(!lp.is_feasible_point(&[2.1, 0.0], 1e-9));
        assert!(!lp.is_feasible_point(&[-0.1, 0.0], 1e-9));
        assert!((lp.objective_value(&[2.0, 3.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        let c = Constraint::le(vec![1.0, 2.0], 4.0);
        let s = format!("{c}");
        assert!(s.contains("<="));
        assert!(s.contains("x1"));
    }
}
