//! Differential harness for the warm cache's LP certificates.
//!
//! `RegionLpCache` answers some LPs without solving them: an outer-rectangle
//! extent whose last optimizer survives every appended cut, and a Lemma-8
//! cut check whose hyperplane passes far enough inside the inscribed ball.
//! The property replays append-only chains of random cuts and pits the
//! cached path against the cold reference at every step: extents agree
//! within `1e-9` and cut verdicts agree exactly. Probe hyperplanes are
//! drawn at random and at set distances from the inscribed ball's center,
//! so certified and LP-decided checks are both exercised, and the run
//! must see both certificates fire.

use isrl_geometry::{Halfspace, Region, RegionLpCache, Sphere};
use isrl_linalg::vector;
use proptest::test_runner::ProptestConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A point strictly inside the simplex, from near the barycenter to near
/// a corner — where hyperplanes tilt most against the simplex plane and
/// in-plane distances differ most from distances in `R^d`.
fn interior_point(rng: &mut StdRng, d: usize) -> Vec<f64> {
    let skew = rng.gen_range(1..=6);
    let mut p: Vec<f64> = (0..d)
        .map(|_| rng.gen_range(0.05f64..1.0).powi(skew))
        .collect();
    let s: f64 = p.iter().sum();
    p.iter_mut().for_each(|x| *x /= s);
    p
}

/// A random cut whose half-space keeps `witness` strictly inside.
fn cut_through(rng: &mut StdRng, d: usize, witness: &[f64]) -> Halfspace {
    loop {
        let h = Halfspace::new((0..d).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let v = h.eval(witness);
        if v.abs() > 1e-6 {
            return if v > 0.0 { h } else { h.flipped() };
        }
    }
}

/// `v` projected onto the simplex plane's directions (zero sum) and
/// scaled to unit length; `None` when the projection vanishes.
fn in_plane_unit(v: &[f64]) -> Option<Vec<f64>> {
    let mean = vector::sum(v) / v.len() as f64;
    let p: Vec<f64> = v.iter().map(|x| x - mean).collect();
    let len = vector::norm(&p);
    (len > 1e-9).then(|| vector::scale(&p, 1.0 / len))
}

/// The hyperplane through the origin whose trace on `Σu = 1` passes
/// through `q` (which must lie on that plane) with in-plane normal `dir`.
fn hyperplane_through(q: &[f64], dir: &[f64]) -> Halfspace {
    let at_q = vector::dot(dir, q);
    Halfspace::new(dir.iter().map(|x| x - at_q).collect())
}

/// Probes for one step: random hyperplanes, plus hyperplanes at up to
/// twice the inscribed ball's radius from its center — deep inside it
/// (certifiable), near its rim, and outside it. Their in-plane
/// normal is either random or aimed at a learned cut or a simplex facet,
/// where a hyperplane just outside the ball can miss the region.
fn probes(rng: &mut StdRng, region: &Region, ball: &Sphere) -> Vec<Halfspace> {
    let d = region.dim();
    let mut out: Vec<Halfspace> = (0..3)
        .map(|_| Halfspace::new((0..d).map(|_| rng.gen_range(-1.0..1.0)).collect()))
        .collect();
    for _ in 0..6 {
        let toward: Vec<f64> = match rng.gen_range(0..3) {
            0 => (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            1 => {
                let hs = region.halfspaces();
                hs[rng.gen_range(0..hs.len())].normal().to_vec()
            }
            _ => {
                let mut e = vec![0.0; d];
                e[rng.gen_range(0..d)] = 1.0;
                e
            }
        };
        let Some(dir) = in_plane_unit(&toward) else {
            continue;
        };
        let t = ball.radius() * rng.gen_range(-2.0f64..2.0);
        let q = vector::add(ball.center(), &vector::scale(&dir, -t));
        // Mostly perpendicular to the offset, sometimes tilted.
        let tilt: Vec<f64> = if rng.gen_bool(0.7) {
            dir
        } else {
            let r: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
            match in_plane_unit(&r) {
                Some(r) => r,
                None => continue,
            }
        };
        out.push(hyperplane_through(&q, &tilt));
    }
    out
}

/// One chain: cuts appended one at a time; after each, the cached
/// rectangle and cut verdicts are compared with the cold ones.
fn check_chain(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = rng.gen_range(2..=8);
    let witness = interior_point(&mut rng, d);
    let mut region = Region::full(d);
    let mut cache = RegionLpCache::new();
    for step in 0..rng.gen_range(4..=18) {
        region.add(cut_through(&mut rng, d, &witness));
        // Now and then skip the sphere so the cached ball is a round
        // stale: the cut certificate must then stay silent.
        let cold_ball = region.inner_sphere().expect("the witness keeps R nonempty");
        if rng.gen_bool(0.85) {
            region.inner_sphere_with(&mut cache);
        }

        let cold = region.outer_rectangle().expect("nonempty region");
        let warm = region
            .outer_rectangle_with(&mut cache)
            .expect("nonempty region");
        for i in 0..d {
            for (c, w) in [
                (cold.min()[i], warm.min()[i]),
                (cold.max()[i], warm.max()[i]),
            ] {
                assert!(
                    (c - w).abs() <= 1e-9,
                    "seed {seed} step {step} d {d}: extent {i} cold {c} vs cached {w}"
                );
            }
        }

        for p in probes(&mut rng, &region, &cold_ball) {
            assert_eq!(
                region.is_cut_by(&p),
                region.is_cut_by_with(&p, &mut cache),
                "seed {seed} step {step} d {d}: cut verdict diverged on {:?}",
                p.normal()
            );
        }
    }
}

#[test]
fn certified_summaries_match_cold_along_cut_chains() {
    let sink = isrl_obs::Sink::new();
    sink.set_enabled(true);
    let cases = ProptestConfig::with_cases(64).from_env().cases;
    isrl_obs::with_sink(&sink, || (0..u64::from(cases)).for_each(check_chain));
    let extent_hits = sink.counter_value("lp.cert.extent_hits");
    let cut_hits = sink.counter_value("lp.cert.cut_hits");
    assert!(
        extent_hits > 0,
        "no extent certificate fired in {cases} chains"
    );
    assert!(cut_hits > 0, "no cut certificate fired in {cases} chains");
}
