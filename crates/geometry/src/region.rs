//! The utility range `R` as a half-space intersection over the simplex.
//!
//! This is the state substrate of algorithm AA (§IV-C of the paper): instead
//! of materializing the polyhedron, we keep the set `H` of learned
//! half-spaces and answer every geometric question about
//! `R = ⋂_{h⁺ ∈ H} h⁺ ∩ U` with a small LP. The exact algorithm EA layers
//! vertex enumeration on top of this representation (see [`crate::polytope`]).

use crate::hyperplane::Halfspace;
use crate::lp::{self, Basis, LpBuilder, LpError, LpOutcome, LpSolution, Objective, Rel};
use crate::rectangle::Rectangle;
use crate::sphere::Sphere;
use isrl_linalg::vector;

/// Margin below which a strict-feasibility LP answer counts as "empty".
const STRICT_TOL: f64 = 1e-9;

/// Least ball-certified margin that answers a cut check without its LPs:
/// far enough above [`STRICT_TOL`] that solver round-off in the ball
/// cannot flip the verdict.
const CUT_CERT_MARGIN: f64 = 1e-6;

/// Carried warm-start state for a region's recurring LPs.
///
/// AA re-solves the same family of LPs round after round — the inner
/// sphere, the 2d rectangle extents, and the strict-feasibility margin —
/// over a region that only ever *gains* one half-space per round. The
/// sphere and the margin LP each keep their own slot here, so a final
/// simplex [`Basis`] seeds the next solve of the *same* LP via
/// [`crate::lp::solve_warm`]. The 2d extents share one constraint set, so
/// they carry one basis between them and are solved together by
/// [`crate::lp::solve_family`]. A stale or mismatched basis is repaired
/// or discarded by the warm solver, never trusted.
///
/// The cache also carries two certificates that answer an LP without
/// solving it (DESIGN.md §10): an extent's last optimizer, reused while
/// every half-space appended since its solve still admits it, and the
/// inscribed ball, which at the half-space count it was solved at proves
/// that a hyperplane through its middle cuts the region. Both are keyed
/// by half-space count, so one cache serves one append-only region.
#[derive(Debug, Clone, Default)]
pub struct RegionLpCache {
    sphere: Option<Basis>,
    /// The inner sphere last solved through this cache, with the
    /// half-space count it was solved at.
    ball: Option<(usize, Sphere)>,
    strict: Option<Basis>,
    /// The extent family's carried basis.
    family: Option<Basis>,
    /// Each extent's last proven optimum; slot `2i` is `min u_i` and slot
    /// `2i + 1` is `max u_i`.
    extents: Vec<Option<RecordedOptimum>>,
    /// Per-axis basis slots of [`Region::axis_extreme_points_with`].
    anchors: Vec<Option<Basis>>,
}

/// An `Optimal` extent solve: the solution and the half-space count it
/// was solved at.
#[derive(Debug, Clone)]
struct RecordedOptimum {
    sol: LpSolution,
    at: usize,
}

impl RegionLpCache {
    /// An empty cache; the first solve of each LP runs cold and primes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every carried basis and certificate (the next solves run
    /// cold again).
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// `true` once at least one LP has deposited a reusable basis.
    pub fn is_primed(&self) -> bool {
        self.sphere.is_some()
            || self.strict.is_some()
            || self.family.is_some()
            || self.anchors.iter().any(Option::is_some)
    }

    /// The optimizer and value last recorded for the `min u_axis`
    /// (`maximize = false`) or `max u_axis` extent, if any.
    pub fn extent_record(&self, axis: usize, maximize: bool) -> Option<(&[f64], f64)> {
        let rec = self
            .extents
            .get(2 * axis + usize::from(maximize))?
            .as_ref()?;
        Some((&rec.sol.x, rec.sol.objective))
    }
}

/// Solves through a warm slot when one is supplied, cold otherwise.
fn solve_slot(b: LpBuilder, slot: Option<&mut Option<Basis>>) -> Result<LpOutcome, LpError> {
    match slot {
        Some(s) => b.solve_with(s),
        None => b.solve(),
    }
}

/// A lower bound on both strict-margin LPs of `h` (the `h⁺` and `h⁻`
/// sides of [`Region::is_cut_by`]) from a ball inscribed in the region.
///
/// The ball lives in the simplex plane `Σu = 1`, so distances are measured
/// in that plane: with `n̂ = n/‖n‖`, the in-plane direction of steepest
/// ascent of `n̂·u` has slope `w = ‖n̂ − mean(n̂)·1‖`. Moving `ρ` from the
/// center `c` along it (or against it) keeps every learned margin and
/// every coordinate at least `r − ρ` and moves `n̂·u` from `s = n̂·c` by
/// `±ρ·w`; balancing the two at `ρ = (r ∓ s)/(1 + w)` gives
/// `(r·w ± s)/(1 + w)` per side, whose minimum is returned.
fn ball_cut_margin(ball: &Sphere, h: &Halfspace) -> f64 {
    let norm = vector::norm(h.normal());
    let mean = vector::sum(h.normal()) / (norm * h.dim() as f64);
    let w = h
        .normal()
        .iter()
        .map(|&x| (x / norm - mean).powi(2))
        .sum::<f64>()
        .sqrt();
    let s = h.eval(ball.center()) / norm;
    (ball.radius() * w - s.abs()) / (1.0 + w)
}

/// The unit objective `u_i` in dimension `d`.
fn axis(d: usize, i: usize) -> Vec<f64> {
    let mut e = vec![0.0; d];
    e[i] = 1.0;
    e
}

/// An extent optimum clamped to the simplex's own bounds `[0, 1]`.
fn clamp_extent(v: f64, maximize: bool) -> f64 {
    if maximize {
        v.min(1.0)
    } else {
        v.max(0.0)
    }
}

/// The rectangle bound an extent LP's outcome proves; `None` when the
/// region is empty. A truncated extent LP (phase-2 or phase-1 cap) falls
/// back to the trivial simplex bound for its coordinate: the rectangle
/// stays a true enclosure of `R`, just looser, and the solver counts the
/// cap. (A capped incumbent bounds the optimum from the wrong side, so it
/// cannot shrink the box.)
fn extent_bound(out: Result<LpOutcome, LpError>, maximize: bool) -> Option<f64> {
    match out {
        Ok(LpOutcome::Optimal(s)) => Some(clamp_extent(s.objective, maximize)),
        Ok(LpOutcome::IterationCapped(_)) | Err(LpError::IterationLimit) => {
            Some(if maximize { 1.0 } else { 0.0 })
        }
        Ok(_) => None,
        Err(LpError::ShapeMismatch) => unreachable!("extent LP is well-formed"),
    }
}

/// The rectangle of interleaved extent bounds `[lo_0, hi_0, lo_1, …]`.
fn rectangle_of(bounds: &[f64]) -> Rectangle {
    let (lo, hi) = bounds.chunks_exact(2).map(|b| (b[0], b[1])).unzip();
    Rectangle::new(lo, hi)
}

/// A utility range: the intersection of the standard simplex
/// `U = { u : u ≥ 0, Σu = 1 }` with a growing set of half-spaces through the
/// origin, one per answered question.
#[derive(Debug, Clone)]
pub struct Region {
    dim: usize,
    halfspaces: Vec<Halfspace>,
}

impl Region {
    /// The whole utility space `U` in dimension `d` (no questions answered yet).
    ///
    /// # Panics
    /// Panics if `d < 2` — with one attribute there is only one utility
    /// vector and no query to run.
    pub fn full(d: usize) -> Self {
        assert!(d >= 2, "utility space needs at least 2 dimensions");
        Self {
            dim: d,
            halfspaces: Vec::new(),
        }
    }

    /// Dimensionality of the ambient space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The learned half-spaces `H`.
    #[inline]
    pub fn halfspaces(&self) -> &[Halfspace] {
        &self.halfspaces
    }

    /// Number of learned half-spaces (= answered questions).
    #[inline]
    pub fn len(&self) -> usize {
        self.halfspaces.len()
    }

    /// `true` before any question has been answered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.halfspaces.is_empty()
    }

    /// Records a new half-space (one user answer).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn add(&mut self, h: Halfspace) {
        assert_eq!(h.dim(), self.dim, "halfspace dimension mismatch");
        self.halfspaces.push(h);
    }

    /// `true` iff `u` lies in the region (closed half-spaces, tolerance `tol`).
    pub fn contains(&self, u: &[f64], tol: f64) -> bool {
        u.len() == self.dim
            && u.iter().all(|&x| x >= -tol)
            && (vector::sum(u) - 1.0).abs() <= self.dim as f64 * tol + tol
            && self.halfspaces.iter().all(|h| h.contains(u, tol))
    }

    /// Builds the common LP stub: variables `u[0..d]` (+ optionally extras),
    /// with `Σu = 1`, `u ≥ 0` implicit, and `normal · u ≥ 0` per half-space.
    fn base_lp(&self, objective: &[f64], maximize: bool) -> LpBuilder {
        let n = objective.len();
        debug_assert!(n >= self.dim);
        let mut b = if maximize {
            LpBuilder::maximize(objective)
        } else {
            LpBuilder::minimize(objective)
        };
        let mut sum_row = vec![0.0; n];
        for v in sum_row.iter_mut().take(self.dim) {
            *v = 1.0;
        }
        b = b.constraint(&sum_row, Rel::Eq, 1.0);
        for h in &self.halfspaces {
            let mut row = vec![0.0; n];
            row[..self.dim].copy_from_slice(h.normal());
            b = b.constraint(&row, Rel::Ge, 0.0);
        }
        b
    }

    /// Maximum strict margin: the largest `x` such that some `u ∈ U`
    /// satisfies `normal · u ≥ x` for every learned half-space **and** every
    /// half-space in `extra`. A positive margin certifies a strictly
    /// feasible interior point (the paper's `maximize x` LP in §IV-C).
    ///
    /// Returns `None` when even the closed region is empty.
    pub fn strict_margin(&self, extra: &[&Halfspace]) -> Option<f64> {
        self.strict_margin_impl(extra, None)
    }

    /// [`Region::strict_margin`] through a warm-start cache: the margin
    /// LP's final basis is carried in `cache` and reused on the next call,
    /// which is typically one appended half-space away.
    pub fn strict_margin_with(
        &self,
        extra: &[&Halfspace],
        cache: &mut RegionLpCache,
    ) -> Option<f64> {
        self.strict_margin_impl(extra, Some(&mut cache.strict))
    }

    fn strict_margin_impl(
        &self,
        extra: &[&Halfspace],
        slot: Option<&mut Option<Basis>>,
    ) -> Option<f64> {
        let _lp = isrl_obs::span("lp");
        let d = self.dim;
        // Variables: u[0..d] ≥ 0, x free (last). Only the margin rows
        // `normal·u − x ≥ 0` are added — with x free they subsume the plain
        // `normal·u ≥ 0` rows (an empty region simply yields a negative
        // optimum), and halving the row count matters: this LP runs once or
        // twice per candidate question.
        //
        // Row order is [sum, cap, learned half-spaces…, extras]: the fixed
        // rows lead and learned half-spaces only ever append, so a carried
        // basis keeps its row identities from one round to the next.
        let mut obj = vec![0.0; d + 1];
        obj[d] = 1.0;
        let mut b = LpBuilder::maximize(&obj).free_var(d);
        let mut sum_row = vec![0.0; d + 1];
        for v in sum_row.iter_mut().take(d) {
            *v = 1.0;
        }
        b = b.constraint(&sum_row, Rel::Eq, 1.0);
        // Cap x so the LP is bounded even with no half-spaces at all.
        let mut cap = vec![0.0; d + 1];
        cap[d] = 1.0;
        b = b.constraint(&cap, Rel::Le, 1.0);
        for h in self.halfspaces.iter().chain(extra.iter().copied()) {
            let mut row = vec![0.0; d + 1];
            // Normalize so the margin is comparable across half-spaces.
            let norm = vector::norm(h.normal());
            for (r, c) in row.iter_mut().zip(h.normal()) {
                *r = c / norm;
            }
            row[d] = -1.0;
            b = b.constraint(&row, Rel::Ge, 0.0);
        }
        match solve_slot(b, slot) {
            // A phase-2 cap still certifies feasibility of the incumbent
            // margin (a lower bound on the optimum) — usable, and counted
            // by the solver under `lp.cap_hits`.
            Ok(LpOutcome::Optimal(s)) | Ok(LpOutcome::IterationCapped(s)) => Some(s.objective),
            Ok(_) => None,
            // Phase-1 cap: feasibility undetermined. Reported as "no
            // certified margin" instead of the panic this used to be;
            // counted under `lp.phase1_cap_hits`.
            Err(LpError::IterationLimit) => None,
            Err(LpError::ShapeMismatch) => unreachable!("strict margin LP is well-formed"),
        }
    }

    /// `true` iff the region has a strictly feasible interior point.
    pub fn has_interior(&self) -> bool {
        self.strict_margin(&[]).is_some_and(|m| m > STRICT_TOL)
    }

    /// [`Region::has_interior`] through a warm-start cache.
    pub fn has_interior_with(&self, cache: &mut RegionLpCache) -> bool {
        self.strict_margin_with(&[], cache)
            .is_some_and(|m| m > STRICT_TOL)
    }

    /// `true` iff the hyperplane bounding `h` genuinely cuts the region:
    /// both `R ∩ h⁺` and `R ∩ h⁻` retain interior points (the first action
    /// condition of algorithm AA, Lemma 8).
    pub fn is_cut_by(&self, h: &Halfspace) -> bool {
        let flipped = h.flipped();
        self.strict_margin(&[h]).is_some_and(|m| m > STRICT_TOL)
            && self
                .strict_margin(&[&flipped])
                .is_some_and(|m| m > STRICT_TOL)
    }

    /// [`Region::is_cut_by`] through a warm-start cache.
    ///
    /// When the cache holds the inner sphere of this region (solved by
    /// [`Region::inner_sphere_with`] at the current half-space count) and
    /// the hyperplane passes far enough inside it, both margins are
    /// certified positive and no LP runs (`lp.cert.cut_hits`). The
    /// certificate only ever answers `true`. Otherwise both orientation
    /// LPs run and share the margin slot — they differ from each other
    /// (and from the previous candidate's LPs) by one flipped tail row,
    /// which is exactly the edit the basis-repair path absorbs in a pivot
    /// or two.
    pub fn is_cut_by_with(&self, h: &Halfspace, cache: &mut RegionLpCache) -> bool {
        if let Some((at, ball)) = &cache.ball {
            if *at == self.len() && ball_cut_margin(ball, h) > CUT_CERT_MARGIN {
                isrl_obs::add("lp.cert.cut_hits", 1);
                return true;
            }
        }
        let flipped = h.flipped();
        self.strict_margin_with(&[h], cache)
            .is_some_and(|m| m > STRICT_TOL)
            && self
                .strict_margin_with(&[&flipped], cache)
                .is_some_and(|m| m > STRICT_TOL)
    }

    /// The inner sphere of the region (§IV-C state, part 1): the ball of
    /// largest radius centered in `R` that stays inside every learned
    /// half-space *and* inside the simplex facets `u_i ≥ 0`.
    ///
    /// The paper's LP constrains only the learned half-spaces; we also add
    /// the simplex facets so the sphere is well-defined before the first
    /// question is answered (documented substitution in DESIGN.md §2).
    ///
    /// Returns `None` when the region is empty.
    pub fn inner_sphere(&self) -> Option<Sphere> {
        self.inner_sphere_impl(None)
    }

    /// [`Region::inner_sphere`] through a warm-start cache: the sphere LP
    /// keeps its own basis slot across rounds, and the ball is recorded as
    /// the cut certificate of [`Region::is_cut_by_with`].
    pub fn inner_sphere_with(&self, cache: &mut RegionLpCache) -> Option<Sphere> {
        let sphere = self.inner_sphere_impl(Some(&mut cache.sphere));
        cache.ball = sphere.clone().map(|s| (self.len(), s));
        sphere
    }

    fn inner_sphere_impl(&self, slot: Option<&mut Option<Basis>>) -> Option<Sphere> {
        let _lp = isrl_obs::span("lp");
        let d = self.dim;
        // Variables: center c[0..d] ≥ 0, radius r (free; optimum is ≥ 0 iff
        // feasible). As in `strict_margin`, the distance rows with a free
        // radius subsume the plain half-space rows, so only the simplex
        // equality plus one row per half-space/facet is needed.
        //
        // Row order is [sum, simplex facets…, learned half-spaces…]: the
        // fixed rows lead so each round's cut is a pure append and a
        // carried basis keeps its row identities.
        let mut obj = vec![0.0; d + 1];
        obj[d] = 1.0;
        let mut b = LpBuilder::maximize(&obj).free_var(d);
        let mut sum_row = vec![0.0; d + 1];
        for v in sum_row.iter_mut().take(d) {
            *v = 1.0;
        }
        b = b.constraint(&sum_row, Rel::Eq, 1.0);
        // Distance to each simplex facet u_i = 0 is simply c_i.
        for i in 0..d {
            let mut row = vec![0.0; d + 1];
            row[i] = 1.0;
            row[d] = -1.0;
            b = b.constraint(&row, Rel::Ge, 0.0);
        }
        // Distance to each learned hyperplane: normal·c / ‖normal‖ ≥ r.
        for h in &self.halfspaces {
            let norm = vector::norm(h.normal());
            let mut row = vec![0.0; d + 1];
            for (r, c) in row.iter_mut().zip(h.normal()) {
                *r = c / norm;
            }
            row[d] = -1.0;
            b = b.constraint(&row, Rel::Ge, 0.0);
        }
        // A capped solve carries a feasible center with an achieved (if
        // possibly sub-optimal) radius — still a valid inner sphere. A
        // phase-1 cap leaves feasibility unknown: report "empty" rather
        // than panic; both cases are counted by the solver.
        let sol = match solve_slot(b, slot) {
            Ok(out) => out.solution()?,
            Err(LpError::IterationLimit) => return None,
            Err(LpError::ShapeMismatch) => unreachable!("inner sphere LP is well-formed"),
        };
        if sol.objective < -STRICT_TOL {
            return None;
        }
        Some(Sphere::new(sol.x[..d].to_vec(), sol.objective.max(0.0)))
    }

    /// The outer rectangle of the region (§IV-C state, part 2): the smallest
    /// axis-aligned box `[e_min, e_max]` containing `R`, found by `2d` LPs
    /// (minimize and maximize `u[i]` over `R` for each `i`), each solved
    /// on its own.
    ///
    /// Returns `None` when the region is empty.
    pub fn outer_rectangle(&self) -> Option<Rectangle> {
        let _lp = isrl_obs::span("lp");
        let bounds = (0..2 * self.dim)
            .map(|k| {
                let maximize = k % 2 == 1;
                extent_bound(
                    self.base_lp(&axis(self.dim, k / 2), maximize).solve(),
                    maximize,
                )
            })
            .collect::<Option<Vec<f64>>>()?;
        Some(rectangle_of(&bounds))
    }

    /// [`Region::outer_rectangle`] through a warm-start cache. An extent
    /// whose last optimizer satisfies every half-space appended since is
    /// reused without an LP (`lp.cert.extent_hits`): that optimizer is
    /// still feasible and the region only shrank, so it is still optimal.
    /// The remaining extents, in `min u_0, max u_0, min u_1, …` order, are
    /// solved as one family on a shared tableau from the cache's carried
    /// family basis, and their optima recorded.
    pub fn outer_rectangle_with(&self, cache: &mut RegionLpCache) -> Option<Rectangle> {
        let _lp = isrl_obs::span("lp");
        let d = self.dim;
        cache.extents.resize_with(2 * d, Option::default);
        let mut bounds = vec![0.0; 2 * d];
        let mut pending = Vec::new();
        for (k, slot) in cache.extents.iter_mut().enumerate() {
            match slot {
                Some(rec) if self.admits_since(&rec.sol.x, rec.at) => {
                    rec.at = self.len();
                    isrl_obs::add("lp.cert.extent_hits", 1);
                    bounds[k] = clamp_extent(rec.sol.objective, k % 2 == 1);
                }
                _ => pending.push(k),
            }
        }
        if pending.is_empty() {
            return Some(rectangle_of(&bounds));
        }
        let objectives: Vec<Objective> = pending
            .iter()
            .map(|&k| Objective {
                coeffs: axis(d, k / 2),
                maximize: k % 2 == 1,
            })
            .collect();
        let p = self.base_lp(&vec![0.0; d], false).build();
        let outs = match lp::solve_family(&p, cache.family.take().as_ref(), &objectives) {
            Ok((outs, next)) => {
                cache.family = next;
                outs.into_iter().map(Ok).collect()
            }
            Err(e) => vec![Err(e); pending.len()],
        };
        for (k, out) in pending.into_iter().zip(outs) {
            if let Ok(LpOutcome::Optimal(sol)) = &out {
                cache.extents[k] = Some(RecordedOptimum {
                    sol: sol.clone(),
                    at: self.len(),
                });
            }
            bounds[k] = extent_bound(out, k % 2 == 1)?;
        }
        Some(rectangle_of(&bounds))
    }

    /// `true` iff every half-space appended after the first `at` admits `x`.
    fn admits_since(&self, x: &[f64], at: usize) -> bool {
        self.halfspaces
            .get(at..)
            .is_some_and(|hs| hs.iter().all(|h| h.eval(x) >= 0.0))
    }

    /// True extreme points of the region, one per coordinate: the argmax
    /// vertex of each `max x_i` extent LP. A linear optimum over a polytope
    /// is attained at a vertex, so these are genuine members of the vertex
    /// set the sampled backend never enumerates — on the full simplex they
    /// are exactly the corners `e_i`. The sample cloud carries them as
    /// anchors so cloud-based terminal checks see the extremes a uniform
    /// interior sample misses. `None` when the region is empty; an
    /// iteration-capped coordinate is skipped (its incumbent is feasible
    /// but not extreme), so the result may have fewer than `d` points.
    pub fn axis_extreme_points(&self) -> Option<Vec<Vec<f64>>> {
        self.axis_extreme_points_impl(None)
    }

    /// [`Region::axis_extreme_points`] through a warm-start cache: each
    /// axis keeps its own basis slot. The extent certificates and the
    /// family basis are neither read nor written: these callers want an
    /// optimizer, optimizers need not be unique, and a shared tableau can
    /// land on a different optimizer of a degenerate LP.
    pub fn axis_extreme_points_with(&self, cache: &mut RegionLpCache) -> Option<Vec<Vec<f64>>> {
        self.axis_extreme_points_impl(Some(cache))
    }

    fn axis_extreme_points_impl(
        &self,
        mut cache: Option<&mut RegionLpCache>,
    ) -> Option<Vec<Vec<f64>>> {
        let _lp = isrl_obs::span("lp");
        let d = self.dim;
        if let Some(c) = cache.as_deref_mut() {
            c.anchors.resize_with(d, Option::default);
        }
        let mut out = Vec::with_capacity(d);
        for i in 0..d {
            let slot = cache.as_deref_mut().map(|c| &mut c.anchors[i]);
            match solve_slot(self.base_lp(&axis(d, i), true), slot) {
                Ok(LpOutcome::Optimal(s)) => out.push(s.x),
                Ok(LpOutcome::IterationCapped(_)) | Err(LpError::IterationLimit) => continue,
                Ok(_) => return None,
                Err(LpError::ShapeMismatch) => unreachable!("extent LP is well-formed"),
            }
        }
        Some(out)
    }

    /// A feasible point of the region (the inner-sphere center), if any.
    pub fn feasible_point(&self) -> Option<Vec<f64>> {
        self.inner_sphere().map(|s| s.center().to_vec())
    }

    /// [`Region::feasible_point`] through a warm-start cache.
    pub fn feasible_point_with(&self, cache: &mut RegionLpCache) -> Option<Vec<f64>> {
        self.inner_sphere_with(cache).map(|s| s.center().to_vec())
    }

    /// Monte-Carlo estimate of the region's volume as a fraction of the
    /// whole utility simplex: the acceptance rate of `n_samples` uniform
    /// simplex samples against the half-space set.
    ///
    /// This is the quantity Lemma 5 reasons about (bigger fraction ⇒ more
    /// sampled utility vectors land inside); it is also a useful progress
    /// diagnostic — each informative answer should roughly halve it. The
    /// estimate degrades for very small regions (the standard error of a
    /// fraction `p` is `√(p(1−p)/n)`), which is exactly when the LP-based
    /// summaries take over.
    pub fn approx_volume_fraction<R: rand::Rng + ?Sized>(
        &self,
        n_samples: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(n_samples > 0, "volume estimate needs at least one sample");
        let mut inside = 0usize;
        for _ in 0..n_samples {
            let u = crate::sampling::sample_simplex(self.dim, rng);
            if self.halfspaces.iter().all(|h| h.contains(&u, 0.0)) {
                inside += 1;
            }
        }
        inside as f64 / n_samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_simplex_inner_sphere_is_barycentric() {
        let r = Region::full(3);
        let s = r.inner_sphere().unwrap();
        for c in s.center() {
            assert!((c - 1.0 / 3.0).abs() < 1e-6, "center {:?}", s.center());
        }
        assert!((s.radius() - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn full_simplex_outer_rectangle_is_unit_box() {
        let r = Region::full(4);
        let rect = r.outer_rectangle().unwrap();
        for i in 0..4 {
            assert!(rect.min()[i].abs() < 1e-7);
            assert!((rect.max()[i] - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn halfspace_narrows_rectangle() {
        let mut r = Region::full(2);
        // u0 ≥ u1 ⇒ u0 ∈ [0.5, 1].
        r.add(Halfspace::new(vec![1.0, -1.0]));
        let rect = r.outer_rectangle().unwrap();
        assert!((rect.min()[0] - 0.5).abs() < 1e-6, "min {:?}", rect.min());
        assert!((rect.max()[0] - 1.0).abs() < 1e-6);
        assert!((rect.max()[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn contains_respects_halfspaces() {
        let mut r = Region::full(3);
        r.add(Halfspace::new(vec![1.0, -1.0, 0.0]));
        assert!(r.contains(&[0.5, 0.3, 0.2], 1e-9));
        assert!(!r.contains(&[0.2, 0.5, 0.3], 1e-9));
        assert!(!r.contains(&[0.5, 0.5, 0.5], 1e-9)); // off the simplex
    }

    #[test]
    fn empty_region_detected() {
        let mut r = Region::full(2);
        r.add(Halfspace::new(vec![0.5, -1.5])); // u0 considerably above u1
        r.add(Halfspace::new(vec![-1.5, 0.5])); // and vice versa — impossible
        assert!(!r.has_interior());
        assert!(r.inner_sphere().is_none() || r.inner_sphere().unwrap().radius() < 1e-6);
    }

    #[test]
    fn cut_detection() {
        let r = Region::full(3);
        // The plane u0 = u1 cuts the full simplex.
        assert!(r.is_cut_by(&Halfspace::new(vec![1.0, -1.0, 0.0])));
        let mut narrowed = Region::full(3);
        narrowed.add(Halfspace::new(vec![1.0, -1.0, 0.0]));
        // The same plane no longer cuts the narrowed region (it bounds it).
        assert!(!narrowed.is_cut_by(&Halfspace::new(vec![1.0, -1.0, 0.0])));
    }

    #[test]
    fn inner_sphere_center_is_feasible_and_shrinks() {
        let mut r = Region::full(3);
        let before = r.inner_sphere().unwrap().radius();
        r.add(Halfspace::new(vec![1.0, -1.0, 0.0]));
        let s = r.inner_sphere().unwrap();
        assert!(r.contains(s.center(), 1e-7));
        assert!(s.radius() <= before + 1e-9, "radius must not grow");
        assert!(s.radius() > 0.0);
    }

    #[test]
    fn strict_margin_positive_for_full_simplex() {
        let r = Region::full(4);
        assert!(r.strict_margin(&[]).unwrap() > 0.0);
        assert!(r.has_interior());
    }

    #[test]
    fn volume_fraction_of_full_simplex_is_one() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(Region::full(3).approx_volume_fraction(500, &mut rng), 1.0);
    }

    #[test]
    fn volume_fraction_halves_under_a_median_cut() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut r = Region::full(2);
        r.add(Halfspace::new(vec![1.0, -1.0])); // u0 ≥ u1: half the segment
        let f = r.approx_volume_fraction(4_000, &mut rng);
        assert!((f - 0.5).abs() < 0.03, "fraction {f}");
    }

    #[test]
    fn volume_fraction_shrinks_with_each_cut() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut r = Region::full(3);
        let mut prev = 1.0;
        for h in [
            Halfspace::new(vec![1.0, -1.0, 0.0]),
            Halfspace::new(vec![0.0, 1.0, -1.0]),
            Halfspace::new(vec![1.0, 0.2, -1.4]),
        ] {
            r.add(h);
            let f = r.approx_volume_fraction(3_000, &mut rng);
            assert!(f <= prev + 0.02, "volume grew: {prev} -> {f}");
            prev = f;
        }
    }

    #[test]
    fn warm_cached_summaries_match_cold_across_cuts() {
        // The AA round-loop shape: summaries recomputed after each appended
        // cut, with the warm cache carrying every LP's basis forward. The
        // objectives (radius, extents, margins) must agree with the cold
        // path to LP tolerance at every step.
        let mut r = Region::full(3);
        let mut cache = RegionLpCache::new();
        let probe = Halfspace::new(vec![0.3, -1.0, 0.7]);
        for h in [
            Halfspace::new(vec![1.0, -1.0, 0.0]),
            Halfspace::new(vec![0.0, 1.0, -1.0]),
            Halfspace::new(vec![1.0, 0.2, -1.4]),
        ] {
            r.add(h);
            let cold_s = r.inner_sphere().unwrap();
            let warm_s = r.inner_sphere_with(&mut cache).unwrap();
            assert!(
                (cold_s.radius() - warm_s.radius()).abs() < 1e-9,
                "radius diverged: {} vs {}",
                cold_s.radius(),
                warm_s.radius()
            );
            assert!(r.contains(warm_s.center(), 1e-7));

            let cold_rect = r.outer_rectangle().unwrap();
            let warm_rect = r.outer_rectangle_with(&mut cache).unwrap();
            for i in 0..3 {
                assert!((cold_rect.min()[i] - warm_rect.min()[i]).abs() < 1e-9);
                assert!((cold_rect.max()[i] - warm_rect.max()[i]).abs() < 1e-9);
            }

            assert_eq!(r.is_cut_by(&probe), r.is_cut_by_with(&probe, &mut cache));
            assert_eq!(r.has_interior(), r.has_interior_with(&mut cache));
        }
        assert!(cache.is_primed());
    }

    #[test]
    fn warm_cache_detects_emptiness_like_cold() {
        let mut r = Region::full(2);
        let mut cache = RegionLpCache::new();
        assert!(r.has_interior_with(&mut cache));
        r.add(Halfspace::new(vec![0.5, -1.5]));
        assert!(r.has_interior_with(&mut cache));
        r.add(Halfspace::new(vec![-1.5, 0.5]));
        assert!(!r.has_interior_with(&mut cache));
        assert!(!r.has_interior());
    }

    #[test]
    fn rectangle_diagonal_shrinks_monotonically() {
        // The AA stopping quantity ‖e_min − e_max‖ never grows as answers arrive.
        let mut r = Region::full(3);
        let mut prev = r.outer_rectangle().unwrap().diagonal();
        for h in [
            Halfspace::new(vec![1.0, -1.0, 0.0]),
            Halfspace::new(vec![0.0, 1.0, -1.0]),
            Halfspace::new(vec![1.0, 0.0, -1.2]),
        ] {
            r.add(h);
            let diag = r.outer_rectangle().unwrap().diagonal();
            assert!(diag <= prev + 1e-9, "diagonal grew: {prev} -> {diag}");
            prev = diag;
        }
    }
}
