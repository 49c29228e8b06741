//! Warm-started simplex: skip phase 1 by repairing a carried basis.
//!
//! AA re-solves `2d + 1` LPs every round — inner sphere plus per-axis
//! rectangle bounds — and successive rounds differ by exactly one appended
//! half-space, so the previous optimal basis is almost always primal
//! feasible or a handful of dual pivots away. [`solve_warm`] exploits
//! that:
//!
//! 1. **Re-factorize** — map the carried [`Basis`]'s logical columns onto
//!    the new problem's standard form and crash them into a tableau basis
//!    with Gauss–Jordan pivots (largest-|coefficient| row per column).
//!    Rows the carried basis cannot cover fall back to their own slack
//!    column, then to any usable column; an uncoverable row aborts to the
//!    cold path.
//! 2. **Repair** — restore primal feasibility with dual-simplex-style
//!    pivots: pick the most negative rhs row, enter the column minimizing
//!    `reduced_cost / |a|` over negative row entries. A row with negative
//!    rhs and no negative entry proves infeasibility outright, but the
//!    warm path *still* defers to a cold re-solve for that verdict so the
//!    statuses the two paths report can never drift apart on the outcome
//!    that matters most to the region-emptiness checks.
//! 3. **Phase 2** — ordinary primal simplex from the repaired basis. The
//!    warm tableau carries no artificial columns at all, so every pivot
//!    is cheaper than its cold counterpart on top of skipping phase 1.
//!
//! Any singularity, shape mismatch, or repair-iteration cap falls back to
//! the cold two-phase [`super::solve`] — the carried basis is a pure
//! accelerator and never affects correctness. Telemetry: `lp.warm.attempts`,
//! `lp.warm.hits`, `lp.warm.fallbacks`, `lp.warm.refactor_pivots`,
//! `lp.warm.repair_pivots` (see DESIGN.md §10).
//!
//! [`solve_family`] shares steps 1 and 2 among LPs that differ only in
//! the objective — AA's 2d rectangle extents — and runs step 3 once per
//! objective on the one repaired tableau.

use super::simplex::{
    extract_basis, pivot, read_solution, record_phase2, run_simplex, standardize, SimplexEnd,
    Standard, FEAS_TOL, PIVOT_TOL,
};
use super::{Basis, BasisCol, LpError, LpOutcome, Objective, Problem};

/// Coefficients smaller than this are too ill-conditioned to crash on.
const CRASH_TOL: f64 = 1e-9;

/// Solves `p` starting from a basis carried over from a related problem.
///
/// Semantics are identical to [`super::solve`] — same outcomes, objective
/// values within numerical tolerance — the basis only changes *how fast*
/// the answer is found. Returns the outcome plus the final basis for the
/// next solve in the chain.
pub fn solve_warm(p: &Problem, warm: &Basis) -> Result<(LpOutcome, Option<Basis>), LpError> {
    isrl_obs::add("lp.warm.attempts", 1);
    // The split-column layout must match for the stored columns to mean
    // anything; a different free pattern means a structurally different
    // problem, so go cold.
    if warm.n_vars != p.n_vars || warm.free != p.free {
        isrl_obs::add("lp.warm.fallbacks", 1);
        return super::solve(p);
    }
    let sf = standardize(p)?;
    match try_warm(p, &sf, warm) {
        Some(result) => {
            isrl_obs::add("lp.warm.hits", 1);
            Ok(result)
        }
        None => {
            isrl_obs::add("lp.warm.fallbacks", 1);
            super::solve(p)
        }
    }
}

/// The warm pipeline proper; `None` means "fall back to the cold path".
fn try_warm(p: &Problem, sf: &Standard, warm: &Basis) -> Option<(LpOutcome, Option<Basis>)> {
    let cost = sf.cost(&p.objective, p.maximize);
    let (mut tab, mut basis) = crash_and_repair(sf, warm, &cost)?;

    // Phase 2 from the repaired feasible basis. No artificials exist, so
    // every column may enter.
    let (end, iters) = run_simplex(&mut tab, &mut basis, &cost, sf.width());
    record_phase2(iters);
    let capped = match end {
        SimplexEnd::Optimal => false,
        SimplexEnd::Unbounded => return Some((LpOutcome::Unbounded, None)),
        SimplexEnd::Capped => {
            isrl_obs::add("lp.cap_hits", 1);
            true
        }
    };

    let sol = read_solution(&p.objective, sf, &tab, &basis);
    let next = extract_basis(p, sf, &basis);
    Some(if capped {
        (LpOutcome::IterationCapped(sol), Some(next))
    } else {
        (LpOutcome::Optimal(sol), Some(next))
    })
}

/// Steps 1 and 2 of the warm pipeline: crashes `warm`'s columns into a
/// fresh tableau of `sf` and repairs primal feasibility, with `cost`
/// steering the repair's dual ratio test. Returns the feasible tableau and
/// its basis; `None` means "fall back to the cold path". Counts its pivots
/// under `lp.warm.refactor_pivots` and `lp.warm.repair_pivots`.
fn crash_and_repair(
    sf: &Standard,
    warm: &Basis,
    cost: &[f64],
) -> Option<(Vec<Vec<f64>>, Vec<usize>)> {
    let m = sf.m();
    let width = sf.width();
    let n_split = sf.n_split;

    let mut tab: Vec<Vec<f64>> = (0..m)
        .map(|i| {
            let mut row = Vec::with_capacity(width + 1);
            row.extend_from_slice(&sf.rows[i]);
            row.push(sf.rhs[i]);
            row
        })
        .collect();

    // Map the stored logical columns onto this problem's layout, dropping
    // any that no longer exist (deleted rows, Eq rows without slacks).
    let mut preferred: Vec<usize> = Vec::new();
    let mut wanted = vec![false; width];
    for c in &warm.cols {
        let col = match *c {
            BasisCol::Var(j) if j < n_split => j,
            BasisCol::Slack(row) if row < m => match sf.slack_of_row[row] {
                Some(sc) => sc,
                None => continue,
            },
            _ => continue,
        };
        if !wanted[col] {
            wanted[col] = true;
            preferred.push(col);
        }
    }

    // Crash re-factorization: drive each preferred column into the basis
    // on its largest-|coefficient| uncovered row (partial pivoting).
    let mut basis: Vec<usize> = vec![usize::MAX; m];
    let mut covered = vec![false; m];
    let mut in_basis = vec![false; width];
    let mut refactor = 0u64;
    for &c in &preferred {
        let mut best: Option<(usize, f64)> = None;
        for (i, row) in tab.iter().enumerate() {
            if covered[i] {
                continue;
            }
            let a = row[c].abs();
            if a > CRASH_TOL && best.map_or(true, |(_, b)| a > b) {
                best = Some((i, a));
            }
        }
        if let Some((r, _)) = best {
            pivot(&mut tab, &mut basis, r, c);
            covered[r] = true;
            in_basis[c] = true;
            refactor += 1;
        }
    }
    // Complete the basis for rows the carried columns didn't cover: prefer
    // the row's own slack, else any usable non-basic column.
    for i in 0..m {
        if covered[i] {
            continue;
        }
        let own = sf.slack_of_row[i].filter(|&c| !in_basis[c] && tab[i][c].abs() > CRASH_TOL);
        let pick = own.or_else(|| {
            let mut best: Option<(usize, f64)> = None;
            for (c, &used) in in_basis.iter().enumerate() {
                if used {
                    continue;
                }
                let a = tab[i][c].abs();
                if a > CRASH_TOL && best.map_or(true, |(_, b)| a > b) {
                    best = Some((c, a));
                }
            }
            best.map(|(c, _)| c)
        });
        let Some(c) = pick else {
            // Singular / redundant row we cannot cover without artificials.
            isrl_obs::add("lp.warm.refactor_pivots", refactor);
            return None;
        };
        pivot(&mut tab, &mut basis, i, c);
        covered[i] = true;
        in_basis[c] = true;
        refactor += 1;
    }
    isrl_obs::add("lp.warm.refactor_pivots", refactor);

    // Dual-style primal feasibility repair.
    let repair_cap = 10 * (m + width) + 50;
    let mut repair = 0u64;
    loop {
        let mut row_pick: Option<(usize, f64)> = None;
        for (i, row) in tab.iter().enumerate() {
            let b = row[width];
            if b < -FEAS_TOL && row_pick.map_or(true, |(_, bb)| b < bb) {
                row_pick = Some((i, b));
            }
        }
        let Some((r, _)) = row_pick else {
            break; // primal feasible
        };
        if repair as usize >= repair_cap {
            isrl_obs::add("lp.warm.repair_pivots", repair);
            return None;
        }
        // Entering column: minimize reduced_cost / (−a) over a < 0 (the
        // dual ratio test, keeping phase-2 reduced costs as close to
        // optimal as the repair allows). Smaller index breaks ties.
        let mut enter: Option<(usize, f64)> = None;
        for j in 0..width {
            if in_basis[j] {
                continue;
            }
            let a = tab[r][j];
            if a < -PIVOT_TOL {
                let mut red = cost[j];
                for i in 0..m {
                    let cb = cost[basis[i]];
                    if cb != 0.0 {
                        red -= cb * tab[i][j];
                    }
                }
                let ratio = red / (-a);
                if enter.map_or(true, |(_, pr)| ratio < pr - 1e-12) {
                    enter = Some((j, ratio));
                }
            }
        }
        let Some((e, _)) = enter else {
            // Row r reads x_B(r) + Σ_j a_rj x_j = b_r < 0 with every a_rj
            // ≥ 0 — a standalone infeasibility certificate. Defer the
            // verdict to the cold path anyway (see module docs).
            isrl_obs::add("lp.warm.repair_pivots", repair);
            return None;
        };
        in_basis[basis[r]] = false;
        pivot(&mut tab, &mut basis, r, e);
        in_basis[e] = true;
        repair += 1;
    }
    isrl_obs::add("lp.warm.repair_pivots", repair);
    Some((tab, basis))
}

/// Solves a family of LPs that share `p`'s constraint rows and free
/// pattern and differ only in the objective; `p`'s own objective is
/// ignored. Returns one outcome per entry of `objectives`, in order, plus
/// the final basis to carry into the next call.
///
/// One feasible basis serves every member, so the family pays for one
/// crash and repair from `warm` and then runs primal phase 2 for each
/// objective in turn, starting from the previous objective's optimum on
/// the same tableau. Without a usable `warm` basis, one cold solve of the
/// first objective supplies it. Any crash or repair failure, unbounded
/// member or capped phase 2 discards the family's answers and solves
/// every objective cold on its own (`lp.family.fallbacks`), so every
/// non-`Optimal` outcome is the cold path's verdict. The tableau is
/// dropped on return.
///
/// Telemetry: `lp.family.solves` counts objectives answered on a shared
/// tableau, one `lp.pivots` sketch sample each; crash and repair pivots
/// count under `lp.warm.refactor_pivots` / `lp.warm.repair_pivots`, and
/// family calls never touch `lp.warm.attempts`.
pub fn solve_family(
    p: &Problem,
    warm: Option<&Basis>,
    objectives: &[Objective],
) -> Result<(Vec<LpOutcome>, Option<Basis>), LpError> {
    let sf = standardize(p)?;
    if objectives.iter().any(|o| o.coeffs.len() != p.n_vars) {
        return Err(LpError::ShapeMismatch);
    }
    let Some(first) = objectives.first() else {
        return Ok((Vec::new(), warm.cloned()));
    };
    let mut outs = Vec::with_capacity(objectives.len());
    let cold_seed;
    let seed = match warm.filter(|b| b.n_vars == p.n_vars && b.free == p.free) {
        Some(b) => b,
        None => {
            let (out, basis) = super::solve(&first.apply(p))?;
            let (LpOutcome::Optimal(_), Some(basis)) = (&out, basis) else {
                return solve_each_cold(p, objectives, vec![out]);
            };
            outs.push(out);
            cold_seed = basis;
            &cold_seed
        }
    };
    let rest = &objectives[outs.len()..];
    if rest.is_empty() {
        return Ok((outs, Some(seed.clone())));
    }
    match try_family(p, &sf, seed, rest) {
        Some((solved, next)) => {
            isrl_obs::add("lp.family.solves", solved.len() as u64);
            outs.extend(solved);
            Ok((outs, Some(next)))
        }
        None => {
            isrl_obs::add("lp.family.fallbacks", 1);
            solve_each_cold(p, objectives, outs)
        }
    }
}

/// The family proper; `None` means "fall back to the cold path".
fn try_family(
    p: &Problem,
    sf: &Standard,
    seed: &Basis,
    objectives: &[Objective],
) -> Option<(Vec<LpOutcome>, Basis)> {
    let first = &objectives[0];
    let (mut tab, mut basis) = crash_and_repair(sf, seed, &sf.cost(&first.coeffs, first.maximize))?;
    let mut outs = Vec::with_capacity(objectives.len());
    for o in objectives {
        let cost = sf.cost(&o.coeffs, o.maximize);
        let (end, iters) = run_simplex(&mut tab, &mut basis, &cost, sf.width());
        record_phase2(iters);
        if !matches!(end, SimplexEnd::Optimal) {
            return None;
        }
        outs.push(LpOutcome::Optimal(read_solution(
            &o.coeffs, sf, &tab, &basis,
        )));
    }
    Some((outs, extract_basis(p, sf, &basis)))
}

/// The per-objective cold path for the members of a family not yet in
/// `outs`, carrying the last basis any of them yields.
fn solve_each_cold(
    p: &Problem,
    objectives: &[Objective],
    mut outs: Vec<LpOutcome>,
) -> Result<(Vec<LpOutcome>, Option<Basis>), LpError> {
    let mut last = None;
    for o in &objectives[outs.len()..] {
        // Phase 1 never reads the objective, so one infeasible member
        // makes every member infeasible.
        if matches!(outs.last(), Some(LpOutcome::Infeasible)) {
            outs.push(LpOutcome::Infeasible);
            continue;
        }
        let (out, basis) = super::solve(&o.apply(p))?;
        last = basis.or(last);
        outs.push(out);
    }
    Ok((outs, last))
}

#[cfg(test)]
mod tests {
    use super::super::{
        solve, solve_family, solve_warm, Constraint, LpOutcome, Objective, Problem, Rel,
    };

    fn base_problem() -> Problem {
        // max x + y over the unit square.
        Problem {
            n_vars: 2,
            maximize: true,
            objective: vec![1.0, 1.0],
            constraints: vec![
                Constraint {
                    coeffs: vec![1.0, 0.0],
                    rel: Rel::Le,
                    rhs: 1.0,
                },
                Constraint {
                    coeffs: vec![0.0, 1.0],
                    rel: Rel::Le,
                    rhs: 1.0,
                },
            ],
            free: vec![false, false],
        }
    }

    #[test]
    fn warm_resolve_matches_cold_after_a_cut() {
        let mut p = base_problem();
        let (cold0, basis) = solve(&p).unwrap();
        assert!((cold0.optimal().unwrap().objective - 2.0).abs() < 1e-9);
        let basis = basis.unwrap();

        // Append one cut x + y ≤ 1 — the AA round-loop shape.
        p.constraints.push(Constraint {
            coeffs: vec![1.0, 1.0],
            rel: Rel::Le,
            rhs: 1.0,
        });
        let (cold, _) = solve(&p).unwrap();
        let (warm, next) = solve_warm(&p, &basis).unwrap();
        let c = cold.optimal().unwrap();
        let w = warm.optimal().unwrap();
        assert!((c.objective - w.objective).abs() < 1e-9);
        assert!(next.is_some());
    }

    #[test]
    fn warm_from_mismatched_shape_falls_back_cold() {
        let p = base_problem();
        let (_, basis) = solve(&p).unwrap();
        let basis = basis.unwrap();

        // A 3-var problem cannot reuse a 2-var basis — must still solve.
        let q = Problem {
            n_vars: 3,
            maximize: true,
            objective: vec![1.0, 1.0, 1.0],
            constraints: vec![Constraint {
                coeffs: vec![1.0, 1.0, 1.0],
                rel: Rel::Le,
                rhs: 1.0,
            }],
            free: vec![false, false, false],
        };
        let (out, _) = solve_warm(&q, &basis).unwrap();
        assert!((out.optimal().unwrap().objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn warm_detects_infeasible_via_cold_fallback() {
        let mut p = base_problem();
        let (_, basis) = solve(&p).unwrap();
        let basis = basis.unwrap();
        p.constraints.push(Constraint {
            coeffs: vec![1.0, 1.0],
            rel: Rel::Ge,
            rhs: 5.0,
        });
        let (out, _) = solve_warm(&p, &basis).unwrap();
        assert!(matches!(out, LpOutcome::Infeasible));
    }

    #[test]
    fn warm_detects_unbounded() {
        let mut p = base_problem();
        let (_, basis) = solve(&p).unwrap();
        let basis = basis.unwrap();
        // Drop the x ≤ 1 row: max x + y with only y ≤ 1 is unbounded in x.
        p.constraints.remove(0);
        let (out, _) = solve_warm(&p, &basis).unwrap();
        assert!(matches!(out, LpOutcome::Unbounded));
    }

    #[test]
    fn empty_constraint_system_is_handled() {
        // min x with no rows → optimum 0 at the origin; basis is empty.
        let p = Problem {
            n_vars: 1,
            maximize: false,
            objective: vec![1.0],
            constraints: vec![],
            free: vec![false],
        };
        let (out, basis) = solve(&p).unwrap();
        assert!((out.optimal().unwrap().objective).abs() < 1e-12);
        let basis = basis.unwrap();
        assert!(basis.is_empty());
        let (out, _) = solve_warm(&p, &basis).unwrap();
        assert!((out.optimal().unwrap().objective).abs() < 1e-12);
    }

    #[test]
    fn family_outcomes_match_cold_solves() {
        // Random simplex-shaped families, some infeasible: every member's
        // status and value must equal its own cold solve, whether the
        // family starts cold, from its own carried basis or from a
        // foreign one.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut carried = None;
        for case in 0..200 {
            let n = rng.gen_range(2..=5);
            let mut constraints = vec![Constraint {
                coeffs: vec![1.0; n],
                rel: Rel::Eq,
                rhs: 1.0,
            }];
            for _ in 0..rng.gen_range(0..=6) {
                constraints.push(Constraint {
                    coeffs: (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    rel: Rel::Ge,
                    rhs: rng.gen_range(-0.2..0.3),
                });
            }
            let p = Problem {
                n_vars: n,
                maximize: false,
                objective: vec![0.0; n],
                constraints,
                free: vec![false; n],
            };
            let objectives: Vec<Objective> = (0..rng.gen_range(1..=6))
                .map(|_| Objective {
                    coeffs: (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    maximize: rng.gen_bool(0.5),
                })
                .collect();
            let warm = if rng.gen_bool(0.3) {
                None
            } else {
                carried.take()
            };
            let (outs, next) = solve_family(&p, warm.as_ref(), &objectives).unwrap();
            assert_eq!(outs.len(), objectives.len());
            for (k, (o, got)) in objectives.iter().zip(&outs).enumerate() {
                let (want, _) = solve(&o.apply(&p)).unwrap();
                match (got, &want) {
                    (LpOutcome::Optimal(g), LpOutcome::Optimal(w)) => assert!(
                        (g.objective - w.objective).abs() < 1e-9,
                        "case {case} member {k}: family {} vs cold {}",
                        g.objective,
                        w.objective
                    ),
                    (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
                    _ => panic!("case {case} member {k}: family {got:?} vs cold {want:?}"),
                }
            }
            carried = next.or(carried);
        }
    }
}
