//! # fairrank-lp
//!
//! Self-contained linear-programming and convex-optimization kernels used by
//! the fair-ranking index construction of Asudeh et al. (SIGMOD 2019).
//!
//! The paper relies on `scipy.optimize` for two sub-problems:
//!
//! 1. **Region feasibility / witness points** — "does a convex region of
//!    an arrangement contain a point?" and "give me a point strictly inside
//!    it" (used by SATREGIONS, AT⁺, MARKCELL, ATC⁺).
//! 2. **Closest point in a region** — per satisfactory region, MDBASELINE
//!    asks for the function at the smallest angle to the query. A region
//!    is a polyhedral cone `{w : G w ≥ 0}` of weight vectors, so that
//!    function points along the Euclidean projection of the query onto
//!    the cone: the quadratic program `minimize ½‖w − q‖²` subject to
//!    `G w ≥ 0`.
//!
//! This crate provides both from scratch:
//!
//! * [`seidel`] — Seidel's randomized incremental LP, expected *O(m)* for the
//!   fixed (small) dimensionalities of the arrangements. It is the kernel of
//!   every arrangement LP — region feasibility and strict interior
//!   witnesses — and a solve never allocates once its thread's arena has
//!   grown; rows are read in place through [`RowSource`].
//! * [`feasibility`] — witness points: the Chebyshev strict interior point
//!   ([`chebyshev_center`], [`interior_point`]) solved on the Seidel kernel
//!   in one more variable, and the simplex-backed [`is_feasible`] /
//!   [`feasible_point`] for arbitrary boxes.
//! * [`simplex::solve`] — a dense two-phase primal simplex with Bland's rule
//!   anti-cycling fallback, supporting `≤` / `≥` / `=` rows and per-variable
//!   bounds. It serves [`is_feasible`] / [`feasible_point`] and the
//!   fallback for input the Seidel kernel rejects, and is the reference
//!   the Seidel results are cross-checked against in tests.
//! * [`qp`] — [`ConeQp`], an active-set solver of that projection QP in
//!   `d` variables, warm-started at the region's witness.
//!
//! The problem sizes here are characteristic of the paper's workload: very
//! few variables (`d ≤ 6`) and up to a few thousand constraints
//! (ordering-exchange hyperplanes cutting a region).

pub mod feasibility;
pub mod problem;
pub mod qp;
pub mod seidel;
pub mod simplex;

pub use feasibility::{
    chebyshev_center, chebyshev_center_in, feasible_point, interior_point, interior_point_in,
    is_feasible, InteriorPoint,
};
pub use problem::{Constraint, LinearProgram, LpError, LpOutcome, Rel, RowSource};
pub use qp::ConeQp;
pub use simplex::solve;

/// Default numeric tolerance used across the crate for pivot selection,
/// feasibility slack and constraint satisfaction checks.
///
/// The arrangements live in the angle box `[0, π/2]^(d−1)` (the grid) or
/// the unit simplex of the weight slice `Σw = 1` (the exact backend), and
/// their hyperplanes have unit normals, so all coefficient magnitudes are
/// O(1); a fixed absolute tolerance is appropriate.
pub const EPS: f64 = 1e-9;
