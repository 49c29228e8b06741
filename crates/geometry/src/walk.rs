//! Sampled utility-region representation: an incrementally-maintained
//! hit-and-run point cloud.
//!
//! Exact vertex enumeration costs `C(d + |H|, d − 1)` linear solves, which
//! is what confines algorithm EA to low dimensionality. A [`SampleCloud`]
//! replaces the vertex set with a fixed-size set of (approximately) uniform
//! samples of the region, produced by the [`crate::sampling::hit_and_run`]
//! chain warm-started from the region's inner-sphere (Chebyshev-style)
//! center. Every region query EA needs — terminal checks, state encoding,
//! centroid, bounding box — is a function of a point set, so the cloud is a
//! drop-in substitute whose per-cut cost is `O(n_points · d · |H|)` instead
//! of exponential in `d`.
//!
//! The cloud is maintained *incrementally* as cuts arrive: points that
//! satisfy a new half-space are kept as-is (a uniform sample of the old
//! region, conditioned on lying in the new sub-region, is a uniform sample
//! of the new region), and only the violated points are resampled by
//! fresh chain segments from the new interior point. The initial fill runs
//! the same chain.

use crate::hyperplane::Halfspace;
use crate::rectangle::Rectangle;
use crate::region::Region;
use crate::sampling;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of the sampled backend's chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkConfig {
    /// Number of points maintained in the cloud (the stand-in for the
    /// extreme-vector set; also the sample pool EA's action construction
    /// consumes directly).
    pub n_points: usize,
    /// Chain steps between emitted points; doubles as the burn-in length
    /// of each fresh chain segment.
    pub thin: usize,
}

impl Default for WalkConfig {
    fn default() -> Self {
        Self {
            n_points: 128,
            thin: 8,
        }
    }
}

/// A fixed-size set of (approximately) uniform samples of the region,
/// kept current across cuts by resampling only the violated points.
#[derive(Debug, Clone)]
pub struct SampleCloud {
    dim: usize,
    cfg: WalkConfig,
    rng: StdRng,
    /// The chain's current warm start: the region's inner-sphere center,
    /// refreshed by the caller on every cut.
    interior: Vec<f64>,
    points: Vec<Vec<f64>>,
    /// Known true vertices of the region (the axis-extent LP optimizers),
    /// refreshed by the caller alongside the interior point. Uniform
    /// interior samples systematically under-reach the region's extreme
    /// points, so consumers that relax a vertex-set check (EA's terminal
    /// certificate, the state encoding) read these through
    /// [`Self::all_points`] to see the extremes the chain misses.
    anchors: Vec<Vec<f64>>,
}

impl SampleCloud {
    /// Builds a cloud for `region` from a strictly interior point (the
    /// warm-LP inner-sphere center). Deterministic given `seed`.
    ///
    /// # Panics
    /// Panics if `region.dim() < 2`, the config is degenerate
    /// (`n_points == 0` or `thin == 0`), or `interior` has the wrong length.
    pub fn new(region: &Region, interior: Vec<f64>, cfg: WalkConfig, seed: u64) -> Self {
        let dim = region.dim();
        assert!(dim >= 2, "sample cloud needs d >= 2");
        assert!(cfg.n_points > 0, "cloud size must be positive");
        assert!(cfg.thin > 0, "thinning interval must be positive");
        assert_eq!(interior.len(), dim, "interior point dimension mismatch");
        let mut cloud = Self {
            dim,
            cfg,
            rng: StdRng::seed_from_u64(seed),
            interior,
            points: Vec::new(),
            anchors: Vec::new(),
        };
        cloud.points = cloud.walk(region.halfspaces(), cfg.n_points);
        cloud
    }

    /// Narrows the cloud by one half-space. `region` must already include
    /// `cut`, and `interior` must be a strictly interior point of it (the
    /// refreshed inner-sphere center). Points satisfying the cut survive
    /// untouched — conditioning a uniform sample on the surviving
    /// sub-region keeps it uniform there — and only the violated ones are
    /// replaced by fresh chain segments. Returns how many were resampled.
    ///
    /// # Panics
    /// Panics if `interior` has the wrong length.
    pub fn apply_cut(&mut self, region: &Region, cut: &Halfspace, interior: Vec<f64>) -> usize {
        assert_eq!(
            interior.len(),
            self.dim,
            "interior point dimension mismatch"
        );
        self.interior = interior;
        self.points.retain(|p| cut.contains(p, 0.0));
        let need = self.cfg.n_points - self.points.len();
        if need > 0 {
            let _span = isrl_obs::span("cloud_resample");
            let started = std::time::Instant::now();
            let fresh = self.walk(region.halfspaces(), need);
            self.points.extend(fresh);
            isrl_obs::add("geom.sampled.resampled", need as u64);
            isrl_obs::sketch_record("geom.resample_ms", started.elapsed().as_secs_f64() * 1e3);
        }
        need
    }

    /// Runs the chain from the current interior point and reports the
    /// sampled-backend telemetry (`geom.sampled.steps` / `.stuck`; their
    /// ratio is the chain's rejection rate).
    fn walk(&mut self, halfspaces: &[Halfspace], count: usize) -> Vec<Vec<f64>> {
        let (samples, stats) = sampling::hit_and_run_with_stats(
            self.dim,
            halfspaces,
            &self.interior,
            count,
            self.cfg.thin,
            &mut self.rng,
        );
        isrl_obs::add("geom.sampled.steps", stats.steps);
        isrl_obs::add("geom.sampled.stuck", stats.stuck);
        samples
    }

    /// The current sample set. Always exactly `n_points` long. Excludes
    /// anchors; see [`Self::all_points`].
    #[inline]
    pub fn points(&self) -> &[Vec<f64>] {
        &self.points
    }

    /// Replaces the anchor vertex set (the caller's axis-extent LP
    /// optimizers for the *current* region). Anchors are true region
    /// vertices, not chain output, and must be refreshed on every cut.
    ///
    /// # Panics
    /// Panics if any anchor has the wrong dimension.
    pub fn set_anchors(&mut self, anchors: Vec<Vec<f64>>) {
        for a in &anchors {
            assert_eq!(a.len(), self.dim, "anchor dimension mismatch");
        }
        self.anchors = anchors;
    }

    /// The current anchor vertices (possibly empty).
    #[inline]
    pub fn anchors(&self) -> &[Vec<f64>] {
        &self.anchors
    }

    /// Anchors followed by the chain samples: the point set vertex-check
    /// consumers should iterate, so the extremes the chain misses are
    /// always represented.
    pub fn all_points(&self) -> Vec<Vec<f64>> {
        let mut out = Vec::with_capacity(self.anchors.len() + self.points.len());
        out.extend(self.anchors.iter().cloned());
        out.extend(self.points.iter().cloned());
        out
    }

    /// The chain's current warm-start (the last interior point supplied).
    #[inline]
    pub fn interior(&self) -> &[f64] {
        &self.interior
    }

    /// Number of maintained points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the cloud holds no points (never, by construction, but
    /// clippy insists `len` comes with `is_empty`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Ambient dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The chain configuration.
    #[inline]
    pub fn config(&self) -> WalkConfig {
        self.cfg
    }

    /// Axis-aligned bounding box of the cloud — the sampled stand-in for
    /// the outer rectangle. The sweep includes the anchor vertices, so
    /// when anchors are the axis-extent LP optimizers the hi side is
    /// *exact* and only the lo side can under-reach the true LP extents.
    pub fn bounding_rectangle(&self) -> Option<Rectangle> {
        let mut sweep = self.anchors.iter().chain(self.points.iter());
        let first = sweep.next()?;
        let mut lo = first.clone();
        let mut hi = first.clone();
        for p in sweep {
            for (i, &x) in p.iter().enumerate() {
                lo[i] = lo[i].min(x);
                hi[i] = hi[i].max(x);
            }
        }
        Some(Rectangle::new(lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interior_of(region: &Region) -> Vec<f64> {
        region
            .inner_sphere()
            .expect("test region has an interior")
            .center()
            .to_vec()
    }

    #[test]
    fn cloud_fills_to_size_and_stays_in_region() {
        for d in [2usize, 4, 12] {
            let region = Region::full(d);
            let cloud = SampleCloud::new(&region, interior_of(&region), WalkConfig::default(), 7);
            assert_eq!(cloud.len(), 128, "d = {d}");
            for p in cloud.points() {
                assert!(region.contains(p, 1e-9), "point {p:?} escaped at d = {d}");
                assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn apply_cut_keeps_satisfying_points_bitwise() {
        let mut region = Region::full(3);
        let cfg = WalkConfig::default();
        let mut cloud = SampleCloud::new(&region, interior_of(&region), cfg, 11);
        let cut = Halfspace::new(vec![1.0, -1.0, 0.0]);
        let survivors: Vec<Vec<f64>> = cloud
            .points()
            .iter()
            .filter(|p| cut.contains(p, 0.0))
            .cloned()
            .collect();
        region.add(cut.clone());
        let resampled = cloud.apply_cut(&region, &cut, interior_of(&region));
        assert_eq!(resampled, cfg.n_points - survivors.len());
        assert_eq!(cloud.len(), cfg.n_points);
        // Survivors are kept verbatim, in order, at the front.
        assert_eq!(&cloud.points()[..survivors.len()], &survivors[..]);
        for p in cloud.points() {
            assert!(region.contains(p, 1e-9));
        }
    }

    #[test]
    fn same_seed_means_identical_clouds() {
        let region = Region::full(5);
        let a = SampleCloud::new(&region, interior_of(&region), WalkConfig::default(), 42);
        let b = SampleCloud::new(&region, interior_of(&region), WalkConfig::default(), 42);
        assert_eq!(a.points(), b.points());
        let c = SampleCloud::new(&region, interior_of(&region), WalkConfig::default(), 43);
        assert_ne!(a.points(), c.points(), "different seeds should diverge");
    }

    #[test]
    fn bounding_rectangle_encloses_cloud() {
        let region = Region::full(6);
        let cloud = SampleCloud::new(&region, interior_of(&region), WalkConfig::default(), 3);
        let rect = cloud.bounding_rectangle().unwrap();
        for p in cloud.points() {
            assert!(rect.contains(p, 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "cloud size must be positive")]
    fn zero_size_rejected() {
        let region = Region::full(3);
        let cfg = WalkConfig {
            n_points: 0,
            ..WalkConfig::default()
        };
        SampleCloud::new(&region, interior_of(&region), cfg, 0);
    }
}
