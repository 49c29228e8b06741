//! Property tests for the hit-and-run sample cloud backing the sampled
//! utility-region geometry: every emitted sample must lie in the region it
//! was drawn from (all half-spaces, on the simplex), the chain's interior
//! start point must stay strictly feasible as cuts arrive, and a fixed seed
//! must reproduce the cloud bit-for-bit. These are the invariants the EA
//! sampled backend leans on — a single out-of-region sample would poison
//! the state encoding and the terminal check alike.

use isrl_geometry::sampling::hit_and_run_with_stats;
use isrl_geometry::{GeometryBackend, Halfspace, Region, RegionGeometry, SampleCloud, WalkConfig};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Half-space tolerance for membership checks: the walk clamps and
/// renormalizes onto the simplex, so allow strict-LP-sized slack.
const TOL: f64 = 1e-9;

/// A seeded cut sequence through random preference pairs, each oriented to
/// keep the barycenter feasible so the region never collapses.
fn feasible_cuts(d: usize, count: usize, seed: u64) -> Vec<Halfspace> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bary = vec![1.0 / d as f64; d];
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let a: Vec<f64> = (0..d).map(|_| rng.gen_range(0.01..1.0)).collect();
        let b: Vec<f64> = (0..d).map(|_| rng.gen_range(0.01..1.0)).collect();
        if let Some(h) = Halfspace::preferring(&a, &b) {
            out.push(if h.contains(&bary, 0.0) {
                h
            } else {
                h.flipped()
            });
        }
    }
    out
}

/// Asserts `p` is a simplex point inside every half-space of `region`.
fn assert_in_region(p: &[f64], region: &Region) -> Result<(), TestCaseError> {
    let sum: f64 = p.iter().sum();
    prop_assert!((sum - 1.0).abs() < 1e-6, "off the simplex: sum {}", sum);
    for x in p {
        prop_assert!(*x >= -TOL, "negative coordinate {}", x);
    }
    for h in region.halfspaces() {
        prop_assert!(h.contains(p, TOL), "sample violates a half-space");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Raw chain: every emitted sample satisfies all half-spaces and stays
    // on the simplex, whatever the cut sequence and chain parameters.
    #[test]
    fn chain_samples_satisfy_every_halfspace(
        seed in 0u64..1 << 20,
        d in 2usize..=10,
        cuts in 0usize..=8,
        count in 1usize..=40,
        thin in 1usize..=6,
    ) {
        let mut region = Region::full(d);
        for h in feasible_cuts(d, cuts, seed) {
            region.add(h);
        }
        let start = vec![1.0 / d as f64; d];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
        let (samples, stats) =
            hit_and_run_with_stats(d, region.halfspaces(), &start, count, thin, &mut rng);
        prop_assert_eq!(samples.len(), count);
        prop_assert!(stats.steps >= (count * thin) as u64, "undercounted steps");
        prop_assert!(stats.stuck <= stats.steps);
        for p in &samples {
            assert_in_region(p, &region)?;
        }
    }

    // Incrementally maintained cloud: after every cut, all surviving and
    // resampled points are inside the *current* region, and the chain's
    // interior start point is strictly feasible.
    #[test]
    fn cloud_stays_in_region_across_random_cut_sequences(
        seed in 0u64..1 << 20,
        d in 2usize..=10,
        cuts in 1usize..=8,
    ) {
        let cfg = WalkConfig { n_points: 32, thin: 4 };
        let mut geom = RegionGeometry::sampled(d, cfg, seed);
        prop_assert!(geom.is_sampled());
        for h in feasible_cuts(d, cuts, seed ^ 0x51ce) {
            geom.add(h);
            let cloud = geom.sample_cloud().expect("barycenter kept feasible");
            prop_assert_eq!(cloud.len(), cfg.n_points, "cloud must stay full-size");
            for p in cloud.points() {
                assert_in_region(p, geom.region())?;
            }
            // The warm-LP interior point the chain restarts from must be
            // strictly inside (positive slack on every half-space).
            for h in geom.region().halfspaces() {
                prop_assert!(
                    h.eval(cloud.interior()) > 0.0,
                    "interior point lost strict feasibility"
                );
            }
        }
    }

    // Determinism: the same seed and cut sequence reproduce the cloud
    // bit-for-bit; a different seed produces a different cloud.
    #[test]
    fn fixed_seed_means_identical_clouds(
        seed in 0u64..1 << 20,
        d in 2usize..=10,
        cuts in 0usize..=6,
    ) {
        let cfg = WalkConfig { n_points: 24, thin: 4 };
        let build = |s: u64| {
            let mut geom = RegionGeometry::sampled(d, cfg, s);
            for h in feasible_cuts(d, cuts, seed ^ 0xf1d0) {
                geom.add(h);
            }
            geom.sample_cloud().expect("barycenter kept feasible").points().to_vec()
        };
        let a = build(seed);
        let b = build(seed);
        prop_assert_eq!(&a, &b, "same seed must replay identically");
        let c = build(seed ^ 1);
        prop_assert!(a != c, "different seeds must decorrelate the chains");
    }
}

#[test]
fn raw_cloud_apply_cut_preserves_membership() {
    // Direct SampleCloud driving (no RegionGeometry): apply_cut must keep
    // every point in the shrunken region and report the resample count.
    let d = 6;
    let mut region = Region::full(d);
    let cfg = WalkConfig::default();
    let bary = vec![1.0 / d as f64; d];
    let mut cloud = SampleCloud::new(&region, bary.clone(), cfg, 99);
    for h in feasible_cuts(d, 5, 4242) {
        region.add(h.clone());
        let resampled = cloud.apply_cut(&region, &h, bary.clone());
        assert!(resampled <= cfg.n_points);
        assert_eq!(cloud.len(), cfg.n_points);
        for p in cloud.points() {
            assert!(region.halfspaces().iter().all(|hs| hs.contains(p, TOL)));
        }
    }
}

#[test]
fn auto_backend_matches_dimension_rule() {
    // The Auto resolution rule the EA config relies on: exact through
    // d = 7, sampled above.
    assert!(!GeometryBackend::Auto.resolves_to_sampled(7));
    assert!(GeometryBackend::Auto.resolves_to_sampled(8));
    assert!(GeometryBackend::Sampled.resolves_to_sampled(2));
    assert!(!GeometryBackend::Exact.resolves_to_sampled(50));
}
