//! Property-based tests on the core invariants, spanning crates.

use isrl_core::aa::{AaAgent, AaConfig};
use isrl_core::interaction::{InteractiveAlgorithm, TraceMode};
use isrl_core::regret::{regret_ratio, regret_ratio_of_index};
use isrl_core::user::SimulatedUser;
use isrl_data::{skyline, Dataset};
use isrl_geometry::hull::dominates;
use isrl_geometry::lp::{LpBuilder, Rel};
use isrl_geometry::{Halfspace, Polytope, Region};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a point in (0, 1]^d.
fn point(d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..=1.0, d)
}

/// Strategy: a utility vector on the simplex.
fn utility(d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..1.0, d).prop_map(|v| {
        let s: f64 = v.iter().sum();
        v.into_iter().map(|x| x / s).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn regret_ratio_is_in_unit_interval(
        pts in prop::collection::vec(point(3), 2..30),
        u in utility(3),
        q_idx in 0usize..30,
    ) {
        let data = Dataset::from_points(pts.clone(), 3);
        let q = q_idx % data.len();
        let r = regret_ratio(&data, data.point(q), &u);
        prop_assert!((0.0..=1.0).contains(&r));
        // The favorite always has regret 0.
        let best = data.argmax_utility(&u);
        prop_assert!(regret_ratio(&data, data.point(best), &u) < 1e-12);
    }

    #[test]
    fn skyline_preserves_every_utility_maximizer(
        pts in prop::collection::vec(point(3), 3..40),
        u in utility(3),
    ) {
        let data = Dataset::from_points(pts, 3);
        let sky = skyline(&data);
        let best_full = data.max_utility(&u);
        let best_sky = sky.max_utility(&u);
        // Linear maximization over the skyline loses nothing.
        prop_assert!((best_full - best_sky).abs() < 1e-12);
    }

    #[test]
    fn skyline_members_are_mutually_non_dominating(
        pts in prop::collection::vec(point(4), 3..30),
    ) {
        let data = Dataset::from_points(pts, 4);
        let sky = skyline(&data);
        for i in 0..sky.len() {
            for j in 0..sky.len() {
                if i != j {
                    prop_assert!(!dominates(sky.point(i), sky.point(j)));
                }
            }
        }
    }

    #[test]
    fn answers_never_evict_the_true_user(
        pts in prop::collection::vec(point(3), 4..20),
        u in utility(3),
    ) {
        // Lemma 1, end to end: after any sequence of truthful answers the
        // region still contains the true utility vector.
        let data = Dataset::from_points(pts, 3);
        let mut region = Region::full(3);
        for i in 0..data.len().min(6) {
            for j in (i + 1)..data.len().min(6) {
                let (w, l) = if data.utility(i, &u) >= data.utility(j, &u) {
                    (i, j)
                } else {
                    (j, i)
                };
                if let Some(h) = Halfspace::preferring(data.point(w), data.point(l)) {
                    region.add(h);
                }
            }
        }
        prop_assert!(region.contains(&u, 1e-9), "true u evicted from region");
        // And vertex enumeration agrees the region is non-empty.
        prop_assert!(Polytope::from_region(&region).is_some());
    }

    #[test]
    fn rectangle_diagonal_never_grows(
        pts in prop::collection::vec(point(3), 4..12),
        u in utility(3),
    ) {
        let data = Dataset::from_points(pts, 3);
        let mut region = Region::full(3);
        let mut prev = region.outer_rectangle().unwrap().diagonal();
        for i in 1..data.len().min(5) {
            let (w, l) = if data.utility(0, &u) >= data.utility(i, &u) {
                (0, i)
            } else {
                (i, 0)
            };
            if let Some(h) = Halfspace::preferring(data.point(w), data.point(l)) {
                region.add(h);
            }
            let diag = region.outer_rectangle().unwrap().diagonal();
            prop_assert!(diag <= prev + 1e-7, "diagonal grew {prev} -> {diag}");
            prev = diag;
        }
    }

    #[test]
    fn lp_optimum_dominates_random_feasible_points(
        c0 in -1.0f64..1.0,
        c1 in -1.0f64..1.0,
        cut in 0.2f64..0.8,
    ) {
        // maximize c·u over the simplex slice u0 ≤ cut: the LP optimum must
        // beat every feasible grid point.
        let out = LpBuilder::maximize(&[c0, c1])
            .constraint(&[1.0, 1.0], Rel::Eq, 1.0)
            .constraint(&[1.0, 0.0], Rel::Le, cut)
            .solve()
            .unwrap();
        let sol = out.optimal().expect("bounded feasible LP");
        for k in 0..=20 {
            let u0 = cut * k as f64 / 20.0;
            let u1 = 1.0 - u0;
            let val = c0 * u0 + c1 * u1;
            prop_assert!(val <= sol.objective + 1e-7, "grid beats LP: {val} > {}", sol.objective);
        }
    }

    #[test]
    fn min_enclosing_sphere_encloses_and_beats_naive(
        pts in prop::collection::vec(point(4), 2..25),
    ) {
        let sphere = isrl_geometry::min_enclosing_sphere(
            &pts,
            isrl_geometry::EnclosingSphereParams::default(),
        );
        for p in &pts {
            prop_assert!(sphere.contains(p, 1e-5), "point escapes sphere");
        }
        // Not worse than the centroid-centered enclosing sphere.
        let centroid = isrl_linalg::vector::mean(&pts);
        let naive = pts
            .iter()
            .map(|p| isrl_linalg::vector::dist(&centroid, p))
            .fold(0.0f64, f64::max);
        prop_assert!(sphere.radius() <= naive + 1e-6);
    }

    #[test]
    fn eps_halfspace_certificate_is_correct(
        pts in prop::collection::vec(point(3), 3..15),
        u in utility(3),
        eps in 0.05f64..0.3,
    ) {
        // Lemma 4 end-to-end: u inside T_i really means regret(p_i, u) < eps.
        let data = Dataset::from_points(pts, 3);
        for i in 0..data.len() {
            if isrl_core::ea::in_terminal_polyhedron(&data, i, &u, eps) {
                let r = regret_ratio(&data, data.point(i), &u);
                prop_assert!(r < eps, "T_{i} membership but regret {r} >= {eps}");
            }
        }
    }
}

/// Lemma 9 as a property over seeds: an untrained AA agent on a random
/// dataset (d in 2..=6, at most 40 points) and a random user either ends
/// untruncated with regret at most d²ε, or is truncated — a dead end or
/// the round cap, which the lemma does not cover. Runs as a plain seed
/// loop (`PROPTEST_CASES` cases) so it can also assert, across all cases,
/// that both LP certificates fired: the property covers certified rounds.
#[test]
fn aa_untruncated_sessions_meet_the_d2_eps_bound() {
    isrl_obs::set_enabled(true);
    let extent_before = isrl_obs::counter_value("lp.cert.extent_hits");
    let cut_before = isrl_obs::counter_value("lp.cert.cut_hits");
    let cases = ProptestConfig::with_cases(64).from_env().cases;
    let mut untruncated = 0usize;
    for seed in 0..u64::from(cases) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = rng.gen_range(2..=6);
        let n = rng.gen_range(2..=40);
        let points: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.01..=1.0)).collect())
            .collect();
        let data = Dataset::from_points(points, d);
        let mut truth: Vec<f64> = (0..d).map(|_| rng.gen_range(0.01..1.0)).collect();
        let total: f64 = truth.iter().sum();
        truth.iter_mut().for_each(|t| *t /= total);
        let eps = rng.gen_range(0.05..0.3);

        let mut agent = AaAgent::new(d, AaConfig::paper_default().with_seed(seed));
        let mut user = SimulatedUser::new(truth.clone());
        let out = agent.run(&data, &mut user, eps, TraceMode::Off);
        if out.truncated {
            continue;
        }
        untruncated += 1;
        let regret = regret_ratio_of_index(&data, out.point_index, &truth);
        let bound = (d * d) as f64 * eps;
        assert!(
            regret <= bound + 1e-9,
            "seed {seed}: d {d}, n {n}, eps {eps}: regret {regret} exceeds d²ε = {bound} \
             after {} rounds",
            out.rounds
        );
    }
    assert!(
        untruncated > 0,
        "every one of {cases} sessions was truncated"
    );
    let extent_hits = isrl_obs::counter_value("lp.cert.extent_hits") - extent_before;
    let cut_hits = isrl_obs::counter_value("lp.cert.cut_hits") - cut_before;
    assert!(
        extent_hits > 0,
        "no extent certificate fired in {cases} sessions"
    );
    assert!(cut_hits > 0, "no cut certificate fired in {cases} sessions");
}
