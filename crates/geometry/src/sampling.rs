//! Random sampling from the utility simplex and from convex regions.
//!
//! Lemma 5 of the paper grounds EA's action construction in volume-weighted
//! sampling: larger terminal polyhedrons should attract more sampled utility
//! vectors. We provide
//!
//! * [`sample_simplex`] — exact uniform sampling of the standard simplex via
//!   normalized exponentials (the Dirichlet(1,…,1) construction), for
//!   drawing users and anything else that ranges over the whole simplex;
//! * [`hit_and_run`] — the one sampler for a learned region `R`: a chain
//!   started at a strictly interior point the caller already holds (EA's
//!   and the UH baselines' vertex centroid, the inner-sphere center
//!   elsewhere) that mixes toward the uniform distribution on `R` however
//!   small `R` has become. Every "draw k utilities from R" site runs it at
//!   [`REGION_THIN`]; the sampled backend's cloud runs it at its own
//!   configured thinning.

use crate::hyperplane::Halfspace;
use rand::Rng;

/// Draws one utility vector uniformly from the standard `(d−1)`-simplex
/// `{ u : u ≥ 0, Σu = 1 }` using the exponential-spacing construction.
///
/// # Panics
/// Panics if `d == 0`.
pub fn sample_simplex<R: Rng + ?Sized>(d: usize, rng: &mut R) -> Vec<f64> {
    assert!(d > 0, "cannot sample a 0-dimensional simplex");
    loop {
        let mut u: Vec<f64> = (0..d)
            .map(|_| {
                // Exponential(1) via inverse CDF; clamp away from 0 to avoid -ln(0).
                let x: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                -x.ln()
            })
            .collect();
        let s: f64 = u.iter().sum();
        if s > 0.0 && s.is_finite() {
            for v in &mut u {
                *v /= s;
            }
            return u;
        }
    }
}

/// Chain steps between emitted samples (and the burn-in length) for every
/// per-round draw from a learned region: EA's and the UH baselines' extra
/// samples of `V`, AA's pre-filter pool and the max-regret estimate.
pub const REGION_THIN: usize = 2;

/// Chain statistics of one [`hit_and_run_with_stats`] invocation, used by
/// the sampled geometry backend to report acceptance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Total chain steps taken (`count · thin`).
    pub steps: u64,
    /// Steps that failed to move (degenerate direction or a numerically
    /// empty chord). Acceptance is `(steps − stuck) / steps`.
    pub stuck: u64,
}

/// Hit-and-run sampling inside `U ∩ ⋂ h⁺` starting from a strictly interior
/// point (e.g. the region's inner-sphere center).
///
/// Each step draws a random direction in the simplex hyperplane (a Gaussian
/// vector with its mean removed, so `Σ dir = 0` keeps the walk on
/// `Σ u = 1`), computes the feasible chord through the current point, and
/// jumps to a uniform point on it. One sample is emitted every `thin`
/// steps after `thin` burn-in steps. Hit-and-run mixes toward the uniform
/// distribution on the region, and unlike rejection it works in high
/// dimension — this is what the per-round *maximum regret ratio* metric of
/// the paper's Figures 7–8 uses.
///
/// # Panics
/// Panics if `d < 2`, `thin == 0`, or `start` has the wrong length.
pub fn hit_and_run<R: Rng + ?Sized>(
    d: usize,
    halfspaces: &[Halfspace],
    start: &[f64],
    count: usize,
    thin: usize,
    rng: &mut R,
) -> Vec<Vec<f64>> {
    hit_and_run_with_stats(d, halfspaces, start, count, thin, rng).0
}

/// [`hit_and_run`] plus the chain's [`WalkStats`] — same draws, same
/// samples, same counters; the stats are for callers (the sampled
/// [`crate::walk::SampleCloud`]) that aggregate their own acceptance
/// telemetry on top of the `sampling.hitrun_*` counters emitted here.
///
/// # Panics
/// Panics if `d < 2`, `thin == 0`, or `start` has the wrong length.
pub fn hit_and_run_with_stats<R: Rng + ?Sized>(
    d: usize,
    halfspaces: &[Halfspace],
    start: &[f64],
    count: usize,
    thin: usize,
    rng: &mut R,
) -> (Vec<Vec<f64>>, WalkStats) {
    assert!(d >= 2, "hit-and-run needs d >= 2");
    assert!(thin > 0, "thinning interval must be positive");
    assert_eq!(start.len(), d, "start point dimension mismatch");
    let mut x = start.to_vec();
    let mut out = Vec::with_capacity(count);
    let mut steps_until_emit = thin; // burn-in
    let mut stuck = 0u64;
    let mut dir = vec![0.0; d];

    let mut step = |x: &mut Vec<f64>, rng: &mut R| {
        // Random direction in the Σ = 0 hyperplane.
        for v in dir.iter_mut() {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            *v = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
        let mean = dir.iter().sum::<f64>() / d as f64;
        dir.iter_mut().for_each(|v| *v -= mean);
        let norm = dir.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-12 {
            stuck += 1;
            return; // degenerate draw; try again next step
        }
        dir.iter_mut().for_each(|v| *v /= norm);

        // Feasible chord [t_lo, t_hi]: x + t·dir must stay in the region.
        let mut t_lo = f64::NEG_INFINITY;
        let mut t_hi = f64::INFINITY;
        let mut clip = |num: f64, den: f64| {
            // Constraint num + t·den ≥ 0.
            if den.abs() < 1e-15 {
                return; // parallel: either always satisfied or hopeless;
                        // the interior start guarantees "satisfied".
            }
            let bound = -num / den;
            if den > 0.0 {
                t_lo = t_lo.max(bound);
            } else {
                t_hi = t_hi.min(bound);
            }
        };
        for i in 0..d {
            clip(x[i], dir[i]);
        }
        for h in halfspaces {
            clip(
                h.normal().iter().zip(&*x).map(|(n, xi)| n * xi).sum(),
                h.normal().iter().zip(&dir).map(|(n, di)| n * di).sum(),
            );
        }
        if !(t_lo.is_finite() && t_hi.is_finite()) || t_hi <= t_lo {
            stuck += 1;
            return; // numerically stuck on the boundary; keep the point
        }
        let t = rng.gen_range(t_lo..=t_hi);
        for i in 0..d {
            x[i] = (x[i] + t * dir[i]).max(0.0);
        }
        // Renormalize against drift off the simplex.
        let s: f64 = x.iter().sum();
        if s > 0.0 {
            x.iter_mut().for_each(|v| *v /= s);
        }
    };

    let mut steps = 0u64;
    while out.len() < count {
        step(&mut x, rng);
        steps += 1;
        steps_until_emit -= 1;
        if steps_until_emit == 0 {
            out.push(x.clone());
            steps_until_emit = thin;
        }
    }
    isrl_obs::add("sampling.hitrun_samples", out.len() as u64);
    isrl_obs::add("sampling.hitrun_stuck", stuck);
    (out, WalkStats { steps, stuck })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn simplex_samples_lie_on_simplex() {
        let mut rng = StdRng::seed_from_u64(7);
        for d in [1usize, 2, 4, 20] {
            for _ in 0..50 {
                let u = sample_simplex(d, &mut rng);
                assert_eq!(u.len(), d);
                assert!((u.iter().sum::<f64>() - 1.0).abs() < 1e-12);
                assert!(u.iter().all(|&x| x >= 0.0));
            }
        }
    }

    #[test]
    fn simplex_sampling_is_roughly_uniform() {
        // In 2-d the first coordinate of a uniform simplex sample is U(0,1):
        // mean 0.5, and P(u0 < 0.25) = 0.25.
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_simplex(2, &mut rng)[0]).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let frac = samples.iter().filter(|&&x| x < 0.25).count() as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn hit_and_run_stays_in_region() {
        let mut rng = StdRng::seed_from_u64(23);
        let hs = vec![Halfspace::new(vec![1.0, -1.0, 0.0, 0.0])]; // u0 ≥ u1
        let start = vec![0.4, 0.2, 0.2, 0.2];
        let samples = hit_and_run(4, &hs, &start, 300, 3, &mut rng);
        assert_eq!(samples.len(), 300);
        for u in &samples {
            assert!((u.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(u.iter().all(|&x| x >= -1e-12));
            assert!(u[0] >= u[1] - 1e-9, "halfspace violated: {u:?}");
        }

        // A region far below 1% of the simplex (u0 ≥ 0.8·Σu, u1 ≥ 0.1·Σu,
        // u2 ≥ 0.02·Σu: the simplex scaled by 0.08, volume 0.08³ ≈ 0.05%),
        // where a rejection draw from the whole simplex would underfill.
        // Started at its vertex centroid, the chain still returns exactly
        // `count` in-region points and never sticks.
        let hs = vec![
            Halfspace::new(vec![0.2, -0.8, -0.8, -0.8]),
            Halfspace::new(vec![-0.1, 0.9, -0.1, -0.1]),
            Halfspace::new(vec![-0.02, -0.02, 0.98, -0.02]),
        ];
        let vertices = [
            [0.88, 0.1, 0.02, 0.0],
            [0.8, 0.18, 0.02, 0.0],
            [0.8, 0.1, 0.1, 0.0],
            [0.8, 0.1, 0.02, 0.08],
        ];
        let start: Vec<f64> = (0..4)
            .map(|j| vertices.iter().map(|v| v[j]).sum::<f64>() / 4.0)
            .collect();
        let sink = isrl_obs::Sink::new();
        sink.set_enabled(true);
        let samples = isrl_obs::with_sink(&sink, || {
            hit_and_run(4, &hs, &start, 200, REGION_THIN, &mut rng)
        });
        assert_eq!(samples.len(), 200);
        for u in &samples {
            assert!(u.iter().all(|&x| x >= -1e-9), "off the simplex: {u:?}");
            for h in &hs {
                assert!(h.contains(u, 1e-9), "halfspace violated: {u:?}");
            }
        }
        assert_eq!(sink.counter_value("sampling.hitrun_samples"), 200);
        assert_eq!(sink.counter_value("sampling.hitrun_stuck"), 0);
    }

    #[test]
    fn hit_and_run_explores_the_region() {
        // The chain must move away from its start: compare the spread of
        // the first coordinate with zero.
        let mut rng = StdRng::seed_from_u64(29);
        let start = vec![1.0 / 3.0; 3];
        let samples = hit_and_run(3, &[], &start, 500, 2, &mut rng);
        let xs: Vec<f64> = samples.iter().map(|u| u[0]).collect();
        let spread = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.5, "chain barely moved: spread {spread}");
    }

    #[test]
    fn hit_and_run_matches_rejection_distribution_roughly() {
        // Mean of u0 over the half-simplex {u0 ≥ u1} in 2-d is 0.75.
        let mut rng = StdRng::seed_from_u64(31);
        let hs = vec![Halfspace::new(vec![1.0, -1.0])];
        let samples = hit_and_run(2, &hs, &[0.7, 0.3], 4_000, 2, &mut rng);
        let mean: f64 = samples.iter().map(|u| u[0]).sum::<f64>() / samples.len() as f64;
        assert!((mean - 0.75).abs() < 0.03, "mean {mean}");
    }
}
