//! Shadow-solver property test: a full AA episode with warm-started LPs
//! must be *observationally identical* to the same episode with the cold
//! solver — same question at every round, same round count, same final
//! recommendation, same truncation flag. `AaConfig::warm_lp` is documented
//! as a pure speed knob; this suite is the proof.
//!
//! Episodes are driven step-wise through [`ServeSession`] so the two
//! configurations can be compared round by round (not just on the final
//! output), on seeded synthetic datasets up to `d = 6`.

use std::sync::Arc;

use isrl_core::aa::{AaAgent, AaConfig};
use isrl_core::interaction::{InteractiveAlgorithm, TraceMode};
use isrl_core::serving::{ServePolicy, ServeSession};
use isrl_core::user::SimulatedUser;
use isrl_data::Dataset;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random dataset of `n` points in `[0.05, 1]^d` (AA's normalized domain).
fn synthetic_dataset(rng: &mut StdRng, n: usize, d: usize) -> Dataset {
    let points: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(0.05..1.0)).collect())
        .collect();
    Dataset::from_points(points, d)
}

/// Random utility vector on the simplex interior.
fn synthetic_truth(rng: &mut StdRng, d: usize) -> Vec<f64> {
    let mut truth: Vec<f64> = (0..d).map(|_| rng.gen_range(0.05..1.0)).collect();
    let s: f64 = truth.iter().sum();
    truth.iter_mut().for_each(|t| *t /= s);
    truth
}

fn configs(seed: u64) -> (AaConfig, AaConfig) {
    let warm = AaConfig::paper_default().with_seed(seed);
    let mut cold = warm.clone();
    cold.warm_lp = false;
    assert!(warm.warm_lp, "warm path must be the default");
    (warm, cold)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Step-wise lockstep: the warm and cold agents must ask the exact same
    // question at every round and end in the same state.
    #[test]
    fn warm_and_cold_sessions_ask_identical_questions(
        seed in 0u64..1 << 20,
        d in 2usize..=6,
        n in 4usize..=10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = synthetic_dataset(&mut rng, n, d);
        let truth = synthetic_truth(&mut rng, d);
        let eps = 0.15;
        let (warm_cfg, cold_cfg) = configs(seed);
        let data = Arc::new(data);
        let open = |cfg: AaConfig| {
            let policy = Arc::new(ServePolicy::Aa(AaAgent::new(d, cfg)));
            ServeSession::new(policy, Arc::clone(&data), eps, seed).unwrap()
        };
        let mut warm = open(warm_cfg);
        let mut cold = open(cold_cfg);
        let mut guard = 0usize;
        loop {
            warm.step_blocking();
            cold.step_blocking();
            let wq = warm.current_question();
            let cq = cold.current_question();
            prop_assert_eq!(wq, cq, "question divergence at round {}", warm.rounds());
            let Some(q) = wq else { break };
            let dot = |u: &[f64], p: &[f64]| u.iter().zip(p).map(|(a, b)| a * b).sum::<f64>();
            let answer = dot(&truth, data.point(q.i)) >= dot(&truth, data.point(q.j));
            warm.answer(answer).unwrap();
            cold.answer(answer).unwrap();
            guard += 1;
            prop_assert!(guard < 500, "episode failed to terminate");
        }
        prop_assert!(cold.is_finished());
        prop_assert_eq!(warm.rounds(), cold.rounds());
        prop_assert_eq!(warm.recommendation(), cold.recommendation());
        prop_assert_eq!(warm.truncated(), cold.truncated());
    }

    // Callback-driven episodes (the `run` entry point AA's benchmarks use)
    // must return the same tuple, round count, and truncation flag.
    #[test]
    fn warm_and_cold_runs_return_the_same_tuple(
        seed in 0u64..1 << 20,
        d in 2usize..=6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd_1234);
        let data = synthetic_dataset(&mut rng, 8, d);
        let truth = synthetic_truth(&mut rng, d);
        let (warm_cfg, cold_cfg) = configs(seed);
        let mut warm_agent = AaAgent::new(d, warm_cfg);
        let mut cold_agent = AaAgent::new(d, cold_cfg);
        let mut warm_user = SimulatedUser::new(truth.clone());
        let mut cold_user = SimulatedUser::new(truth);
        let warm_out = warm_agent.run(&data, &mut warm_user, 0.12, TraceMode::Off);
        let cold_out = cold_agent.run(&data, &mut cold_user, 0.12, TraceMode::Off);
        prop_assert_eq!(warm_out.point_index, cold_out.point_index);
        prop_assert_eq!(warm_out.rounds, cold_out.rounds);
        prop_assert_eq!(warm_out.truncated, cold_out.truncated);
    }
}
