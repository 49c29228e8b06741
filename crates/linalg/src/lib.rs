#![warn(missing_docs)]
//! Dense linear-algebra kernel for the ISRL workspace.
//!
//! This crate provides the small set of numerical primitives everything else
//! in the workspace is built on: free functions over `&[f64]` slices for
//! vector arithmetic ([`vector`]), a row-major dense [`matrix::Matrix`],
//! Gaussian-elimination linear solves ([`solve`]), and top-1 utility
//! scans: one exact structure-of-arrays kernel ([`soa`], AVX2 when the CPU
//! has it) and the row-major scalar reference it is tested against
//! ([`scan`]).
//!
//! The geometry kernel (`isrl-geometry`) uses these for hyperplane and
//! polytope computations; the neural-network crate (`isrl-nn`) uses them for
//! forward/backward passes. Everything is `f64`: the polytopes involved in
//! interactive regret queries shrink geometrically with each question, so
//! single precision runs out of head-room after a dozen rounds.

pub mod matrix;
pub mod norms;
pub mod scan;
pub mod soa;
pub mod solve;
pub mod vector;

pub use matrix::Matrix;
pub use scan::{row_dots, top1_batch, top1_scalar, Top1};
pub use soa::{row_dots_soa, top1_soa, SoaBuffer};
pub use solve::{solve_linear_system, SolveError};

/// Absolute tolerance used throughout the workspace for geometric predicates.
///
/// Chosen so that after ~30 half-space intersections on the unit simplex the
/// accumulated rounding error of vertex enumeration stays well below it.
pub const EPS: f64 = 1e-9;
