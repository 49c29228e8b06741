//! Two-phase dense primal simplex.
//!
//! The tableau is dense (`Vec<Vec<f64>>`) because the LPs in this workspace
//! have at most a few dozen rows and `d + 2` columns before slack variables;
//! sparse machinery would cost more than it saves. Pivoting uses Dantzig's
//! rule with an automatic switch to Bland's rule after `3 (m + n)` iterations
//! to guarantee termination on degenerate problems (which do occur: the
//! utility simplex makes many constraints tight at its corners).
//!
//! The standard-form translation (free-variable splitting, rhs sign
//! normalization, slack placement) lives in [`Standard`] and is shared with
//! the warm-start path in [`super::warm`], which skips phase 1 entirely by
//! re-factorizing a carried [`Basis`] and repairing primal feasibility with
//! dual-style pivots.

use super::{Basis, BasisCol, LpError, LpOutcome, LpSolution, Problem, Rel};

pub(super) const FEAS_TOL: f64 = 1e-8;
pub(super) const PIVOT_TOL: f64 = 1e-10;

/// A [`Problem`] lowered to standard form: split non-negative variables,
/// normalized rhs signs, and a fixed slack-column layout. Artificial
/// columns are *not* included — the cold path appends them, the warm path
/// never needs them.
pub(super) struct Standard {
    /// Original variable count.
    pub n: usize,
    /// Negative-part column for each free original variable.
    pub neg_col: Vec<Option<usize>>,
    /// Split variable count (originals plus negative parts).
    pub n_split: usize,
    /// Slack/surplus column count (one per non-Eq row).
    pub n_slack: usize,
    /// Constraint rows, width `n_split + n_slack`, slack coefficients set.
    pub rows: Vec<Vec<f64>>,
    /// Right-hand sides after sign normalization (all ≥ 0).
    pub rhs: Vec<f64>,
    /// Row relations after sign normalization.
    pub rels: Vec<Rel>,
    /// Slack column of each row (None for Eq rows).
    pub slack_of_row: Vec<Option<usize>>,
    /// Owning row of each slack column (indexed by `col − n_split`).
    pub row_of_slack: Vec<usize>,
}

impl Standard {
    /// Tableau width without artificials (split vars + slacks).
    pub fn width(&self) -> usize {
        self.n_split + self.n_slack
    }

    /// Number of constraint rows.
    pub fn m(&self) -> usize {
        self.rows.len()
    }

    /// Minimization-oriented phase-2 cost of `objective` over the split
    /// and slack columns (slacks cost nothing).
    pub fn cost(&self, objective: &[f64], maximize: bool) -> Vec<f64> {
        let sign = if maximize { -1.0 } else { 1.0 };
        let mut c = vec![0.0; self.width()];
        for (j, &v) in objective.iter().enumerate() {
            c[j] = sign * v;
            if let Some(neg) = self.neg_col[j] {
                c[neg] = -sign * v;
            }
        }
        c
    }
}

/// Lowers `p` to standard form, validating shapes.
pub(super) fn standardize(p: &Problem) -> Result<Standard, LpError> {
    if p.objective.len() != p.n_vars
        || p.free.len() != p.n_vars
        || p.constraints.iter().any(|c| c.coeffs.len() != p.n_vars)
    {
        return Err(LpError::ShapeMismatch);
    }

    // Split free variables: x_j = x_j⁺ − x_j⁻. Column layout: for each
    // original var j, one column (non-negative part); free vars get an
    // extra negative-part column appended after all originals.
    let n = p.n_vars;
    let neg_col: Vec<Option<usize>> = {
        let mut next = n;
        p.free
            .iter()
            .map(|&f| {
                if f {
                    let c = next;
                    next += 1;
                    Some(c)
                } else {
                    None
                }
            })
            .collect()
    };
    let n_split = n + neg_col.iter().flatten().count();

    let expand = |coeffs: &[f64]| -> Vec<f64> {
        let mut row = vec![0.0; n_split];
        for j in 0..n {
            row[j] = coeffs[j];
            if let Some(c) = neg_col[j] {
                row[c] = -coeffs[j];
            }
        }
        row
    };

    // Standard form: rows `a·x (+ slack) = b`, b ≥ 0.
    let m = p.constraints.len();
    let mut bare: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut rhs: Vec<f64> = Vec::with_capacity(m);
    let mut rels: Vec<Rel> = Vec::with_capacity(m);
    for c in &p.constraints {
        let mut row = expand(&c.coeffs);
        let mut b = c.rhs;
        let mut rel = c.rel;
        if b < 0.0 {
            for v in &mut row {
                *v = -*v;
            }
            b = -b;
            rel = match rel {
                Rel::Le => Rel::Ge,
                Rel::Ge => Rel::Le,
                Rel::Eq => Rel::Eq,
            };
        }
        bare.push(row);
        rhs.push(b);
        rels.push(rel);
    }

    // Slack columns: Le rows get +1 slack, Ge rows get −1 surplus.
    let n_slack = rels.iter().filter(|r| !matches!(r, Rel::Eq)).count();
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut slack_of_row: Vec<Option<usize>> = Vec::with_capacity(m);
    let mut row_of_slack: Vec<usize> = Vec::with_capacity(n_slack);
    let mut slack_at = n_split;
    for i in 0..m {
        let mut row = vec![0.0; n_split + n_slack];
        row[..n_split].copy_from_slice(&bare[i]);
        match rels[i] {
            Rel::Le => {
                row[slack_at] = 1.0;
                slack_of_row.push(Some(slack_at));
                row_of_slack.push(i);
                slack_at += 1;
            }
            Rel::Ge => {
                row[slack_at] = -1.0;
                slack_of_row.push(Some(slack_at));
                row_of_slack.push(i);
                slack_at += 1;
            }
            Rel::Eq => slack_of_row.push(None),
        }
        rows.push(row);
    }

    Ok(Standard {
        n,
        neg_col,
        n_split,
        n_slack,
        rows,
        rhs,
        rels,
        slack_of_row,
        row_of_slack,
    })
}

/// Solves a linear [`Problem`] from scratch (two-phase). Returns the
/// outcome plus, whenever the final tableau represents a feasible basis
/// (optimal or iteration-capped), the [`Basis`] for future warm starts.
pub fn solve(p: &Problem) -> Result<(LpOutcome, Option<Basis>), LpError> {
    let sf = standardize(p)?;
    let m = sf.m();
    let real = sf.width();

    // Artificial columns: Ge and Eq rows need one each.
    let n_art = sf.rels.iter().filter(|r| !matches!(r, Rel::Le)).count();
    let total = real + n_art;

    let mut tab: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut basis: Vec<usize> = Vec::with_capacity(m);
    {
        let mut art_at = real;
        for i in 0..m {
            let mut row = vec![0.0; total + 1];
            row[..real].copy_from_slice(&sf.rows[i]);
            row[total] = sf.rhs[i];
            match sf.rels[i] {
                Rel::Le => basis.push(sf.slack_of_row[i].expect("Le row has a slack")),
                Rel::Ge | Rel::Eq => {
                    row[art_at] = 1.0;
                    basis.push(art_at);
                    art_at += 1;
                }
            }
            tab.push(row);
        }
    }

    // Phase 1: minimize the sum of artificials.
    isrl_obs::add("lp.solves", 1);
    if n_art > 0 {
        let mut phase1_cost = vec![0.0; total];
        for c in &mut phase1_cost[real..] {
            *c = 1.0;
        }
        let (end, iters) = run_simplex(&mut tab, &mut basis, &phase1_cost, total);
        isrl_obs::add("lp.phase1_iters", iters);
        record_pivots(iters);
        match end {
            SimplexEnd::Optimal => {}
            SimplexEnd::Unbounded => {
                // Phase-1 objective is bounded below by 0; unbounded here
                // would indicate a numerical breakdown — treat as infeasible.
                return Ok((LpOutcome::Infeasible, None));
            }
            SimplexEnd::Capped => {
                // Feasibility itself is undetermined — surface the cap as
                // an error the caller must handle, and count it.
                isrl_obs::add("lp.phase1_cap_hits", 1);
                return Err(LpError::IterationLimit);
            }
        }
        let art_sum: f64 = basis
            .iter()
            .enumerate()
            .filter(|(_, &b)| b >= real)
            .map(|(i, _)| tab[i][total])
            .sum();
        if art_sum > FEAS_TOL {
            return Ok((LpOutcome::Infeasible, None));
        }
        // Pivot any residual (degenerate, value-0) artificials out of the basis.
        for i in 0..m {
            if basis[i] >= real {
                if let Some(j) = (0..real).find(|&j| tab[i][j].abs() > PIVOT_TOL) {
                    pivot(&mut tab, &mut basis, i, j);
                } // else: the row is all-zero over real columns — redundant, leave it.
            }
        }
    }

    // Phase 2 on the real columns. Artificials are forbidden from
    // re-entering by a prohibitive cost.
    let mut phase2_cost = sf.cost(&p.objective, p.maximize);
    phase2_cost.resize(total, 1e30);
    let (end, iters) = run_simplex(&mut tab, &mut basis, &phase2_cost, real);
    record_phase2(iters);
    let capped = match end {
        SimplexEnd::Optimal => false,
        SimplexEnd::Unbounded => return Ok((LpOutcome::Unbounded, None)),
        SimplexEnd::Capped => {
            // Phase 2 preserves feasibility, so the incumbent basic point
            // is a genuine member of the region — return it, flagged, so
            // callers stop mistaking a truncated solve for convergence.
            isrl_obs::add("lp.cap_hits", 1);
            true
        }
    };

    let sol = read_solution(&p.objective, &sf, &tab, &basis);
    let warm = extract_basis(p, &sf, &basis);
    Ok(if capped {
        (LpOutcome::IterationCapped(sol), Some(warm))
    } else {
        (LpOutcome::Optimal(sol), Some(warm))
    })
}

/// Counts one simplex run's pivots: the `lp.pivots` total and one
/// `lp.pivots` sketch sample.
fn record_pivots(iters: u64) {
    isrl_obs::add("lp.pivots", iters);
    isrl_obs::sketch_record("lp.pivots", iters as f64);
}

/// Counts one phase-2 run (cold, warm or one family objective).
pub(super) fn record_phase2(iters: u64) {
    isrl_obs::add("lp.phase2_iters", iters);
    record_pivots(iters);
}

/// Reads the original-space solution out of a final tableau, with its
/// value under `objective`.
pub(super) fn read_solution(
    objective: &[f64],
    sf: &Standard,
    tab: &[Vec<f64>],
    basis: &[usize],
) -> LpSolution {
    let total = if tab.is_empty() { 0 } else { tab[0].len() - 1 };
    let mut x_split = vec![0.0; sf.n_split];
    for (i, &b) in basis.iter().enumerate() {
        if b < sf.n_split {
            x_split[b] = tab[i][total];
        }
    }
    let mut x = vec![0.0; sf.n];
    for j in 0..sf.n {
        x[j] = x_split[j] - sf.neg_col[j].map_or(0.0, |c| x_split[c]);
    }
    let objective: f64 = objective.iter().zip(&x).map(|(c, v)| c * v).sum();
    LpSolution { x, objective }
}

/// Converts a final tableau basis into logical [`Basis`] columns. Columns
/// at or past `width()` (artificials in the cold path) are omitted — their
/// rows simply get re-crashed on the next warm start.
pub(super) fn extract_basis(p: &Problem, sf: &Standard, basis: &[usize]) -> Basis {
    let cols = basis
        .iter()
        .filter_map(|&b| {
            if b < sf.n_split {
                Some(BasisCol::Var(b))
            } else if b < sf.width() {
                Some(BasisCol::Slack(sf.row_of_slack[b - sf.n_split]))
            } else {
                None
            }
        })
        .collect();
    Basis {
        n_vars: p.n_vars,
        free: p.free.clone(),
        cols,
    }
}

pub(super) enum SimplexEnd {
    Optimal,
    Unbounded,
    /// The iteration budget ran out; the tableau holds the incumbent basis.
    Capped,
}

/// Runs the simplex method on the tableau, minimizing `cost` over columns
/// `0..enter_limit` (columns at or past the limit never enter the basis —
/// used to keep artificials out in phase 2). Returns the end state plus
/// the number of pivots performed.
///
/// The reduced-cost row is computed once and then updated by each pivot
/// like any other tableau row, so choosing the entering column costs
/// O(width) instead of O(m·width). Before declaring optimality the row is
/// recomputed from scratch, and the run goes on if round-off had hidden
/// an entering column.
pub(super) fn run_simplex(
    tab: &mut [Vec<f64>],
    basis: &mut [usize],
    cost: &[f64],
    enter_limit: usize,
) -> (SimplexEnd, u64) {
    let m = tab.len();
    if m == 0 {
        return (SimplexEnd::Optimal, 0);
    }
    let total = tab[0].len() - 1;
    let max_iters = 200 * (m + total) + 1000;
    let bland_after = 3 * (m + total) + 50;
    let mut in_basis = vec![false; total];
    for &b in basis.iter() {
        in_basis[b] = true;
    }
    let mut red = reduced_costs(tab, basis, cost, enter_limit);

    for iter in 0..max_iters {
        let use_bland = iter > bland_after;
        let mut entering = entering_column(&red, &in_basis, use_bland);
        if entering.is_none() {
            red = reduced_costs(tab, basis, cost, enter_limit);
            entering = entering_column(&red, &in_basis, use_bland);
        }
        let Some(e) = entering else {
            return (SimplexEnd::Optimal, iter as u64);
        };

        // Ratio test (Bland tie-break on basis index for anti-cycling).
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            let a = tab[i][e];
            if a > PIVOT_TOL {
                let ratio = tab[i][total] / a;
                if ratio < best_ratio - 1e-12
                    || (ratio < best_ratio + 1e-12 && leave.is_some_and(|l| basis[i] < basis[l]))
                {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(l) = leave else {
            return (SimplexEnd::Unbounded, iter as u64);
        };
        in_basis[basis[l]] = false;
        pivot(tab, basis, l, e);
        in_basis[e] = true;
        // Eliminate column e from the reduced-cost row with the
        // normalized pivot row.
        let re = red[e];
        for (r, a) in red.iter_mut().zip(&tab[l]) {
            *r -= re * a;
        }
        red[e] = 0.0; // exact
    }
    (SimplexEnd::Capped, max_iters as u64)
}

/// Reduced costs `r_j = c_j − Σ_i c_{basis[i]} tab[i][j]` of the columns
/// `0..limit`, read from the (already reduced) tableau.
fn reduced_costs(tab: &[Vec<f64>], basis: &[usize], cost: &[f64], limit: usize) -> Vec<f64> {
    let mut red = cost[..limit].to_vec();
    for (row, &b) in tab.iter().zip(basis) {
        let cb = cost[b];
        if cb != 0.0 {
            for (r, a) in red.iter_mut().zip(row) {
                *r -= cb * a;
            }
        }
    }
    red
}

/// Entering threshold: a reduced cost must fall below this to enter.
const ENTER_TOL: f64 = -1e-7;

/// The entering column: the most negative reduced cost (Dantzig), or the
/// first one below the threshold (Bland). `None` means optimal.
fn entering_column(red: &[f64], in_basis: &[bool], use_bland: bool) -> Option<usize> {
    let mut entering: Option<usize> = None;
    let mut best_red = ENTER_TOL;
    for (j, &r) in red.iter().enumerate() {
        if !in_basis[j] && r < best_red {
            entering = Some(j);
            if use_bland {
                break; // Bland: first improving index
            }
            best_red = r;
        }
    }
    entering
}

/// Gauss–Jordan pivot on `tab[row][col]`.
pub(super) fn pivot(tab: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize) {
    let piv = tab[row][col];
    let inv = 1.0 / piv;
    for v in &mut tab[row] {
        *v *= inv;
    }
    tab[row][col] = 1.0; // exact
    let pivot_row = tab[row].clone();
    for (i, r) in tab.iter_mut().enumerate() {
        if i == row {
            continue;
        }
        let factor = r[col];
        if factor == 0.0 {
            continue;
        }
        for (v, pv) in r.iter_mut().zip(&pivot_row) {
            *v -= factor * pv;
        }
        r[col] = 0.0; // exact
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::super::{LpBuilder, LpOutcome, Rel};

    /// Brute-force optimum of `max c·x` over `{x ≥ 0, A x ≤ b}`: every
    /// vertex is the solution of `n` tight constraints, so enumerate each
    /// `n`-subset of the rows and the axes, keep the feasible solutions
    /// and take the best objective.
    fn brute_force_max(c: &[f64], rows: &[(Vec<f64>, f64)]) -> Option<f64> {
        let n = c.len();
        let mut all: Vec<(Vec<f64>, f64)> = rows.to_vec();
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = -1.0;
            all.push((e, 0.0));
        }
        let dot = |a: &[f64], x: &[f64]| a.iter().zip(x).map(|(p, q)| p * q).sum::<f64>();
        let mut best: Option<f64> = None;
        let mut pick: Vec<usize> = (0..n).collect();
        loop {
            let a = isrl_linalg::Matrix::from_rows(
                &pick.iter().map(|&i| all[i].0.clone()).collect::<Vec<_>>(),
            );
            let b = pick.iter().map(|&i| all[i].1).collect();
            if let Ok(x) = isrl_linalg::solve_linear_system(a, b) {
                if all.iter().all(|(a, b)| dot(a, &x) <= b + 1e-7) {
                    let v = dot(c, &x);
                    best = Some(best.map_or(v, |b: f64| b.max(v)));
                }
            }
            // Next n-subset in lexicographic order.
            let Some(k) = (0..n).rev().find(|&k| pick[k] < all.len() - n + k) else {
                return best;
            };
            pick[k] += 1;
            for j in k + 1..n {
                pick[j] = pick[j - 1] + 1;
            }
        }
    }

    #[test]
    fn incremental_reduced_costs_reach_the_bruteforce_optimum() {
        use super::{entering_column, reduced_costs, run_simplex, standardize, SimplexEnd};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for case in 0..300 {
            let n = rng.gen_range(2..=3);
            let c: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            // Positive rows with positive rhs: bounded, and the slack
            // basis is feasible, so phase 2 runs straight from it.
            let rows: Vec<(Vec<f64>, f64)> = (0..rng.gen_range(1..=6))
                .map(|_| {
                    let a = (0..n).map(|_| rng.gen_range(0.1..2.0)).collect();
                    (a, rng.gen_range(0.5..4.0))
                })
                .collect();
            let mut b = LpBuilder::maximize(&c);
            for (a, rhs) in &rows {
                b = b.constraint(a, Rel::Le, *rhs);
            }
            let p = b.build();
            let sf = standardize(&p).unwrap();
            let mut tab: Vec<Vec<f64>> = sf
                .rows
                .iter()
                .zip(&sf.rhs)
                .map(|(r, &b)| r.iter().copied().chain([b]).collect())
                .collect();
            let mut basis: Vec<usize> = sf.slack_of_row.iter().map(|s| s.unwrap()).collect();
            let cost = sf.cost(&p.objective, p.maximize);
            let (end, _) = run_simplex(&mut tab, &mut basis, &cost, sf.width());
            assert!(matches!(end, SimplexEnd::Optimal), "case {case}");

            let mut in_basis = vec![false; sf.width()];
            basis.iter().for_each(|&b| in_basis[b] = true);
            let fresh = reduced_costs(&tab, &basis, &cost, sf.width());
            assert_eq!(
                entering_column(&fresh, &in_basis, false),
                None,
                "case {case}: a recomputed reduced cost still enters"
            );
            let got = super::read_solution(&p.objective, &sf, &tab, &basis).objective;
            let want = brute_force_max(&c, &rows).expect("the origin is feasible");
            assert!(
                (got - want).abs() < 1e-7,
                "case {case}: simplex {got} vs brute force {want}"
            );
        }
    }

    #[test]
    fn maximizes_simple_2d() {
        // max x + y s.t. x + 2y ≤ 4, 3x + y ≤ 6 → optimum at (1.6, 1.2), obj 2.8
        let out = LpBuilder::maximize(&[1.0, 1.0])
            .constraint(&[1.0, 2.0], Rel::Le, 4.0)
            .constraint(&[3.0, 1.0], Rel::Le, 6.0)
            .solve()
            .unwrap();
        let s = out.optimal().expect("should be optimal");
        assert!(
            (s.objective - 2.8).abs() < 1e-7,
            "objective {}",
            s.objective
        );
        assert!((s.x[0] - 1.6).abs() < 1e-7);
        assert!((s.x[1] - 1.2).abs() < 1e-7);
    }

    #[test]
    fn handles_ge_and_eq_rows() {
        // min x + y s.t. x + y = 1, x ≥ 0.3 → optimum (0.3, 0.7) isn't unique in x,
        // but the objective must be exactly 1.
        let out = LpBuilder::minimize(&[1.0, 1.0])
            .constraint(&[1.0, 1.0], Rel::Eq, 1.0)
            .constraint(&[1.0, 0.0], Rel::Ge, 0.3)
            .solve()
            .unwrap();
        let s = out.optimal().unwrap();
        assert!((s.objective - 1.0).abs() < 1e-8);
        assert!(s.x[0] >= 0.3 - 1e-8);
    }

    #[test]
    fn detects_infeasible() {
        let out = LpBuilder::maximize(&[1.0])
            .constraint(&[1.0], Rel::Ge, 2.0)
            .constraint(&[1.0], Rel::Le, 1.0)
            .solve()
            .unwrap();
        assert!(matches!(out, LpOutcome::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        let out = LpBuilder::maximize(&[1.0, 0.0])
            .constraint(&[0.0, 1.0], Rel::Le, 1.0)
            .solve()
            .unwrap();
        assert!(matches!(out, LpOutcome::Unbounded));
    }

    #[test]
    fn free_variable_can_go_negative() {
        // min x s.t. x ≥ −5 with x free → optimum −5.
        let out = LpBuilder::minimize(&[1.0])
            .free_var(0)
            .constraint(&[1.0], Rel::Ge, -5.0)
            .solve()
            .unwrap();
        let s = out.optimal().unwrap();
        assert!((s.x[0] + 5.0).abs() < 1e-7);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // max −x s.t. −x ≥ −3 (i.e. x ≤ 3), x ≥ 1 → optimum x = 1.
        let out = LpBuilder::maximize(&[-1.0])
            .constraint(&[-1.0], Rel::Ge, -3.0)
            .constraint(&[1.0], Rel::Ge, 1.0)
            .solve()
            .unwrap();
        let s = out.optimal().unwrap();
        assert!((s.x[0] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn simplex_centroid_problem() {
        // The inner-sphere LP shape used by algorithm AA at round 0 with the
        // simplex facets as the only constraints (d = 3): maximize r s.t.
        // Σu = 1, u_i ≥ r. Optimum r = 1/3 at the barycenter.
        let d = 3;
        let mut b = LpBuilder::maximize(&[0.0, 0.0, 0.0, 1.0]);
        b = b.constraint(&[1.0, 1.0, 1.0, 0.0], Rel::Eq, 1.0);
        for i in 0..d {
            let mut row = vec![0.0; d + 1];
            row[i] = 1.0;
            row[d] = -1.0;
            b = b.constraint(&row, Rel::Ge, 0.0);
        }
        let s = b.solve().unwrap().optimal().unwrap();
        assert!((s.objective - 1.0 / 3.0).abs() < 1e-7);
        for i in 0..d {
            assert!((s.x[i] - 1.0 / 3.0).abs() < 1e-7);
        }
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Heavily degenerate: many redundant constraints through one vertex.
        let mut b = LpBuilder::maximize(&[1.0, 1.0]);
        for k in 1..20 {
            let k = k as f64;
            b = b.constraint(&[1.0, k], Rel::Le, 1.0 + k);
        }
        // The binding constraint is x + y ≤ 2 (k = 1); optimum value 2,
        // attained at (2, 0) where the other 18 rows are slack.
        let s = b.solve().unwrap().optimal().unwrap();
        assert!(
            (s.objective - 2.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
    }

    #[test]
    fn equality_only_system() {
        // min 0 s.t. x + y = 1, x − y = 0 → x = y = 0.5 (pure feasibility).
        let s = LpBuilder::minimize(&[0.0, 0.0])
            .constraint(&[1.0, 1.0], Rel::Eq, 1.0)
            .constraint(&[1.0, -1.0], Rel::Eq, 0.0)
            .solve()
            .unwrap()
            .optimal()
            .unwrap();
        assert!((s.x[0] - 0.5).abs() < 1e-8);
        assert!((s.x[1] - 0.5).abs() < 1e-8);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let r = LpBuilder::maximize(&[1.0, 2.0])
            .constraint(&[1.0], Rel::Le, 1.0)
            .solve();
        assert!(r.is_err());
    }

    #[test]
    fn cold_solve_returns_a_reusable_basis() {
        use super::super::{solve, solve_warm, Problem};
        let p = Problem {
            n_vars: 2,
            maximize: true,
            objective: vec![1.0, 1.0],
            constraints: vec![
                super::super::Constraint {
                    coeffs: vec![1.0, 2.0],
                    rel: Rel::Le,
                    rhs: 4.0,
                },
                super::super::Constraint {
                    coeffs: vec![3.0, 1.0],
                    rel: Rel::Le,
                    rhs: 6.0,
                },
            ],
            free: vec![false, false],
        };
        let (out, basis) = solve(&p).unwrap();
        assert!(out.is_optimal());
        let basis = basis.expect("optimal cold solve must yield a basis");
        assert!(!basis.is_empty());
        // Re-solving the identical problem warm reproduces the optimum.
        let (out2, _) = solve_warm(&p, &basis).unwrap();
        let s = out2.optimal().unwrap();
        assert!((s.objective - 2.8).abs() < 1e-9);
    }
}
