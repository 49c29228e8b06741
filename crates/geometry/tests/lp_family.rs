//! Differential harness for the extent family.
//!
//! `Region::outer_rectangle_with` solves the extents its certificates do
//! not answer as one LP family on a shared tableau
//! (`isrl_geometry::lp::solve_family`). The property replays append-only
//! chains of random cuts and, at every step, pits the family against the
//! cold reference, which solves each extent on its own: extents agree
//! within `1e-9`, and every optimizer the cache records for a later
//! certificate is feasible within `1e-9` and attains its slot's value.
//! Across the run the family must answer LPs and fall back to the cold
//! path on fewer than 1% of its calls.

use isrl_geometry::{Halfspace, Region, RegionLpCache};
use proptest::test_runner::ProptestConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOL: f64 = 1e-9;

/// A point strictly inside the simplex, from near the barycenter to near
/// a corner.
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

/// Family calls, LPs solved on a family tableau, and cold fallbacks.
#[derive(Default)]
struct Tally {
    calls: u64,
    solves: u64,
    fallbacks: u64,
}

/// One chain: cuts appended one at a time; after each, the cached
/// rectangle and its recorded optimizers are checked against the cold
/// rectangle. Each step records into its own sink, so its counters are
/// that step's alone.
fn check_chain(seed: u64, tally: &mut Tally) {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = rng.gen_range(2..=8);
    let witness = interior_point(&mut rng, d);
    let mut region = Region::full(d);
    let mut cache = RegionLpCache::new();
    for step in 0..rng.gen_range(4..=18) {
        region.add(cut_through(&mut rng, d, &witness));
        let cold = region.outer_rectangle().expect("nonempty region");
        let sink = isrl_obs::Sink::new();
        sink.set_enabled(true);
        let cached = isrl_obs::with_sink(&sink, || region.outer_rectangle_with(&mut cache))
            .expect("nonempty region");
        if sink.counter_value("lp.cert.extent_hits") < 2 * d as u64 {
            tally.calls += 1;
        }
        tally.solves += sink.counter_value("lp.family.solves");
        tally.fallbacks += sink.counter_value("lp.family.fallbacks");
        for i in 0..d {
            for (maximize, c, w) in [
                (false, cold.min()[i], cached.min()[i]),
                (true, cold.max()[i], cached.max()[i]),
            ] {
                assert!(
                    (c - w).abs() <= TOL,
                    "seed {seed} step {step} d {d}: extent {i} (max {maximize}) cold {c} vs family {w}"
                );
                let (x, value) = cache
                    .extent_record(i, maximize)
                    .expect("every optimal extent is recorded");
                assert!(
                    region.contains(x, TOL),
                    "seed {seed} step {step} d {d}: recorded optimizer {x:?} of extent {i} \
                     (max {maximize}) is infeasible"
                );
                assert!(
                    (x[i] - value).abs() <= TOL && (value - c).abs() <= TOL,
                    "seed {seed} step {step} d {d}: extent {i} (max {maximize}) records value \
                     {value} at u_i = {}, cold {c}",
                    x[i]
                );
            }
        }
    }
}

#[test]
fn family_extents_match_cold_along_cut_chains() {
    let cases = ProptestConfig::with_cases(64).from_env().cases;
    let mut t = Tally::default();
    for seed in 0..u64::from(cases) {
        check_chain(seed, &mut t);
    }
    assert!(
        t.solves > 0,
        "no LP solved on a family tableau in {cases} chains"
    );
    assert!(
        t.fallbacks * 100 < t.calls,
        "{} of {} family calls fell back to the cold path",
        t.fallbacks,
        t.calls
    );
}
