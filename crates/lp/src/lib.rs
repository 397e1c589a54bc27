//! # fairrank-lp
//!
//! Self-contained linear-programming and convex-optimization kernels used by
//! the fair-ranking index construction of Asudeh et al. (SIGMOD 2019).
//!
//! The paper relies on `scipy.optimize` for two sub-problems:
//!
//! 1. **Region feasibility / witness points** — "does a convex region in the
//!    angle coordinate system contain a point?" and "give me a point strictly
//!    inside it" (used by SATREGIONS, AT⁺, MARKCELL, ATC⁺).
//! 2. **Closest point in a region** — the non-linear program solved per
//!    satisfactory region by MDBASELINE (minimize *angular* distance to the
//!    query subject to the region's linear constraints).
//!
//! This crate provides both from scratch:
//!
//! * [`seidel`] — Seidel's randomized incremental LP, expected *O(m)* for the
//!   fixed (small) dimensionalities of the angle space. It is the kernel of
//!   every arrangement LP — region feasibility and strict interior
//!   witnesses — and a solve never allocates once its thread's arena has
//!   grown; rows are read in place through [`RowSource`].
//! * [`feasibility`] — witness points: the Chebyshev strict interior point
//!   ([`chebyshev_center`], [`interior_point`]) solved on the Seidel kernel
//!   in one more variable, and the simplex-backed [`is_feasible`] /
//!   [`feasible_point`] for arbitrary boxes.
//! * [`simplex::solve`] — a dense two-phase primal simplex with Bland's rule
//!   anti-cycling fallback, supporting `≤` / `≥` / `=` rows and per-variable
//!   bounds. It serves Frank–Wolfe, [`is_feasible`] / [`feasible_point`],
//!   and the fallback for input the Seidel kernel rejects, and is the
//!   reference the Seidel results are cross-checked against in tests.
//! * [`frank_wolfe`] — a Frank–Wolfe (conditional gradient) minimizer for
//!   smooth objectives over polytopes, using the simplex as its linear
//!   oracle; this is the NLP engine behind MDBASELINE.
//!
//! The problem sizes here are characteristic of the paper's workload: very
//! few variables (`d − 1 ≤ 5` angles) and up to a few thousand constraints
//! (ordering-exchange hyperplanes cutting a region).

pub mod feasibility;
pub mod frank_wolfe;
pub mod problem;
pub mod seidel;
pub mod simplex;

pub use feasibility::{
    chebyshev_center, chebyshev_center_in, feasible_point, interior_point, interior_point_in,
    is_feasible, InteriorPoint,
};
pub use frank_wolfe::{minimize_over_polytope, FwOptions, FwResult};
pub use problem::{Constraint, LinearProgram, LpError, LpOutcome, Rel, RowSource};
pub use simplex::solve;

/// Default numeric tolerance used across the crate for pivot selection,
/// feasibility slack and constraint satisfaction checks.
///
/// The angle coordinate system is confined to `[0, π/2]^(d−1)` and item
/// attributes are min–max normalized, so all coefficient magnitudes are
/// O(1); a fixed absolute tolerance is appropriate.
pub const EPS: f64 = 1e-9;
