//! EA's ε guarantee as a property over seeds: on the exact geometry
//! backend, EA stops only when every utility left in the region ranks its
//! recommendation within ε of the best point, so whatever the dataset,
//! the user and the training state, the recommendation has regret ratio
//! at most ε and the session ends untruncated.

use isrl_core::prelude::*;
use isrl_core::regret::regret_ratio_of_index;
use isrl_data::{generate, skyline, Distribution};
use isrl_geometry::GeometryBackend;
use proptest::prelude::*;

const DISTRIBUTIONS: [Distribution; 3] = [
    Distribution::AntiCorrelated,
    Distribution::Independent,
    Distribution::Correlated,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_ea_recommends_within_eps(
        data_seed in 0u64..10_000,
        dist in 0usize..3,
        d in 2usize..=4,
        eps in 0.05f64..=0.2,
        weights in prop::collection::vec(0.01f64..1.0, 4),
        episodes in 0usize..=3,
        agent_seed in 0u64..1_000,
    ) {
        let data = skyline(&generate(1_000, d, DISTRIBUTIONS[dist], data_seed));
        let mut cfg = EaConfig::paper_default().with_seed(agent_seed);
        cfg.geometry = GeometryBackend::Exact;
        let mut ea = EaAgent::new(d, cfg);
        if episodes > 0 {
            ea.train(&data, &sample_users(d, episodes, agent_seed), eps);
        }
        let total: f64 = weights[..d].iter().sum();
        let truth: Vec<f64> = weights[..d].iter().map(|w| w / total).collect();

        let out = ea.run(&data, &mut SimulatedUser::new(truth.clone()), eps, TraceMode::Off);
        prop_assert!(!out.truncated, "truncated after {} rounds", out.rounds);
        let regret = regret_ratio_of_index(&data, out.point_index, &truth);
        prop_assert!(
            regret <= eps + 1e-9,
            "regret {regret} exceeds eps {eps} after {} rounds (n {}, d {d})",
            out.rounds,
            data.len()
        );
    }
}
