//! # fairrank-geometry
//!
//! The combinatorial-geometry substrate behind *Designing Fair Ranking
//! Schemes* (Asudeh et al., SIGMOD 2019).
//!
//! A linear scoring function `f_w(t) = Σ w_j t[j]` with non-negative weights
//! is a **ray** from the origin of `R^d`; scaling the weight vector does not
//! change the induced ranking, so the space of ranking functions is the
//! positive orthant of the unit sphere, parametrized by `d − 1` angles in
//! `[0, π/2]` (the paper's *angle coordinate system*). This crate provides:
//!
//! * [`vector`] / [`matrix`] — the small dense linear algebra the paper
//!   leans on (`Θ⁻¹ × ι` in HYPERPOLAR, solving `d × d` systems);
//! * [`polar`] — hyperspherical parametrization (paper Eq. 8) and angular
//!   distance (Eq. 9–10), the metric in which "closest satisfactory
//!   function" is defined;
//! * [`dual`] — the dual transform `d(t): Σ t[k]·x_k = 1` and 2-D ordering
//!   exchanges (Eq. 1–3);
//! * [`hyperplane`] — ordering-exchange hyperplanes in angle coordinates and
//!   exact box-crossing tests;
//! * [`arrangement`] — incremental construction of the arrangement of
//!   hyperplanes (the engine of SATREGIONS, Algorithm 4);
//! * [`arrangement_tree`] — the paper's arrangement-tree index (Algorithms 5
//!   and 9) with subtree pruning and early-stop search;
//! * [`grid`] — the equal-area angle-space partitioning of §5 / Appendix A.2
//!   (ANGLEPARTITIONING, Algorithm 12) with cell lookup, neighbours and the
//!   Theorem 6 approximation bound;
//! * [`interval`] — sorted angular intervals, the 2-D satisfactory-region
//!   index behind 2DONLINE;
//! * [`layers`] — convex/dominance layers for the §8 top-k pruning
//!   extension;
//! * [`sphere`] — `Γ`, first-orthant sphere areas and the Eq. 11–14 cell
//!   geometry.

pub mod arrangement;
pub mod arrangement_tree;
pub mod dual;
pub mod grid;
pub mod hyperplane;
pub mod interval;
pub mod layers;
pub mod matrix;
pub mod polar;
pub mod sphere;
pub mod vector;

pub use arrangement::{Arrangement, RegionId};
pub use arrangement_tree::ArrangementTree;
pub use grid::{AngleGrid, CellId};
pub use hyperplane::{Hyperplane, Sign};
pub use interval::AngularIntervals;
pub use polar::{angular_distance, to_cartesian, to_polar};

/// Upper bound of every angle coordinate: the space of non-negative weight
/// rays is `[0, π/2]^{d−1}`.
pub const HALF_PI: f64 = std::f64::consts::FRAC_PI_2;

/// Shared numeric tolerance for geometric predicates.
pub const GEOM_EPS: f64 = 1e-9;
