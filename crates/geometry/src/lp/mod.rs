//! Linear programming.
//!
//! Every state computation in the approximate algorithm AA — the inner
//! sphere, the outer rectangle, the strict-feasibility checks that validate
//! candidate actions (Lemma 8) — and the candidate pruning in the UH
//! baselines reduce to small dense LPs over the utility simplex: at most
//! `d + 1` variables and a few dozen rows. This module provides a two-phase
//! dense primal simplex solver sized exactly for that regime, plus a
//! builder ([`LpBuilder`]) for assembling problems row by row.

mod builder;
mod simplex;
mod warm;

pub use builder::LpBuilder;
pub use simplex::solve;
pub use warm::{solve_family, solve_warm};

/// An opaque simplex basis, returned by [`solve`]/[`solve_warm`] and fed
/// back into [`solve_warm`] to hot-start a related problem.
///
/// The basis stores *logical* column identities — decision variables (in
/// the internal free-split space) and per-row slack columns — rather than
/// raw tableau indices, so it survives the row edits the interactive
/// algorithms actually perform: appending one half-space cut per round,
/// deleting a constraint, or duplicating a redundant one. Feeding a basis
/// from an unrelated problem is *safe* (the warm solver re-factorizes,
/// repairs feasibility, and falls back to the cold two-phase path on any
/// singularity), just not fast.
#[derive(Debug, Clone)]
pub struct Basis {
    /// Variable count of the problem this basis was extracted from.
    pub(crate) n_vars: usize,
    /// Free-variable pattern (the split layout must match to reuse columns).
    pub(crate) free: Vec<bool>,
    /// Preferred basic columns; at most one per constraint row.
    pub(crate) cols: Vec<BasisCol>,
}

impl Basis {
    /// Number of stored basic columns (diagnostic; tests use this).
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// `true` when the basis carries no columns at all.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// A logical basic column: a split-space decision variable or the slack /
/// surplus column of a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BasisCol {
    /// Split-space variable column `j` (original vars first, then the
    /// appended negative parts of free variables).
    Var(usize),
    /// Slack (Le) or surplus (Ge) column of constraint row `i`.
    Slack(usize),
}

/// Relation of a linear constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `coeffs · x ≤ rhs`
    Le,
    /// `coeffs · x ≥ rhs`
    Ge,
    /// `coeffs · x = rhs`
    Eq,
}

/// One constraint row `coeffs · x (≤|≥|=) rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Coefficients, one per decision variable.
    pub coeffs: Vec<f64>,
    /// Row relation.
    pub rel: Rel,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program in natural form. Variables are non-negative unless
/// flagged free; free variables are internally split into differences of
/// two non-negative variables.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Number of decision variables.
    pub n_vars: usize,
    /// `true` to maximize the objective, `false` to minimize.
    pub maximize: bool,
    /// Objective coefficients, one per decision variable.
    pub objective: Vec<f64>,
    /// Constraint rows.
    pub constraints: Vec<Constraint>,
    /// `free[j]` marks variable `j` as unrestricted in sign.
    pub free: Vec<bool>,
}

/// One member of an LP family solved by [`solve_family`]: an objective
/// over the family's shared constraint set.
#[derive(Debug, Clone)]
pub struct Objective {
    /// Objective coefficients, one per decision variable.
    pub coeffs: Vec<f64>,
    /// `true` to maximize, `false` to minimize.
    pub maximize: bool,
}

impl Objective {
    /// `p` with this objective in place of its own.
    pub(crate) fn apply(&self, p: &Problem) -> Problem {
        Problem {
            objective: self.coeffs.clone(),
            maximize: self.maximize,
            ..p.clone()
        }
    }
}

/// An optimal LP solution.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Optimal decision variables in the original (pre-split) space.
    pub x: Vec<f64>,
    /// Optimal objective value in the caller's orientation (max or min).
    pub objective: f64,
}

/// Outcome of solving a [`Problem`].
#[derive(Debug, Clone)]
pub enum LpOutcome {
    /// A finite optimum was found.
    Optimal(LpSolution),
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// Phase 2 hit its iteration cap before proving optimality. The carried
    /// solution is the incumbent basic **feasible** point — a valid member
    /// of the region whose objective bounds the optimum from the wrong
    /// side. Callers must not treat it as the optimum; the solver counts
    /// every such event under the `lp.cap_hits` telemetry counter.
    IterationCapped(LpSolution),
}

impl LpOutcome {
    /// Returns the solution if the outcome is [`LpOutcome::Optimal`].
    pub fn optimal(self) -> Option<LpSolution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }

    /// Returns a feasible solution whether or not it was proven optimal:
    /// `Some` for [`LpOutcome::Optimal`] and [`LpOutcome::IterationCapped`].
    pub fn solution(self) -> Option<LpSolution> {
        match self {
            LpOutcome::Optimal(s) | LpOutcome::IterationCapped(s) => Some(s),
            _ => None,
        }
    }

    /// `true` iff a finite optimum was found.
    pub fn is_optimal(&self) -> bool {
        matches!(self, LpOutcome::Optimal(_))
    }

    /// `true` iff the solver gave up at the iteration cap with a feasible
    /// but unproven incumbent.
    pub fn is_capped(&self) -> bool {
        matches!(self, LpOutcome::IterationCapped(_))
    }
}

/// Error for a malformed problem (shape mismatches) or iteration blow-up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// Objective/constraint widths disagree with `n_vars`.
    ShapeMismatch,
    /// The simplex method exceeded its iteration budget **in phase 1**, so
    /// even feasibility is undetermined (a phase-2 cap instead yields
    /// [`LpOutcome::IterationCapped`] with the feasible incumbent). Counted
    /// under the `lp.phase1_cap_hits` telemetry counter.
    IterationLimit,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::ShapeMismatch => write!(f, "LP shape mismatch"),
            LpError::IterationLimit => write!(f, "LP iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}
