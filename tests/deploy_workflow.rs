//! The production deployment journey, end to end: train an agent offline,
//! checkpoint it to disk, reload it in a "server", and serve interactions
//! through the step-wise session API — verifying the served guarantees
//! match what was measured at training time.

use std::sync::Arc;

use isrl_core::checkpoint;
use isrl_core::prelude::*;
use isrl_core::regret::regret_ratio_of_index;
use isrl_data::{generate, skyline, Dataset, Distribution};
use isrl_linalg::vector;

fn training_environment() -> Dataset {
    skyline(&generate(800, 3, Distribution::AntiCorrelated, 31))
}

/// Serves one user to the end of a fresh session on the reloaded policy.
fn serve_user(
    policy: &Arc<ServePolicy>,
    data: &Arc<Dataset>,
    eps: f64,
    seed: u64,
    truth: &[f64],
) -> ServeSession {
    let mut session = ServeSession::new(Arc::clone(policy), Arc::clone(data), eps, seed).unwrap();
    let mut rounds_guard = 0;
    session.step_blocking();
    while let Some((p, q)) = session
        .current_points()
        .map(|(a, b)| (a.to_vec(), b.to_vec()))
    {
        session
            .answer(vector::dot(truth, &p) >= vector::dot(truth, &q))
            .unwrap();
        session.step_blocking();
        rounds_guard += 1;
        assert!(rounds_guard < 200, "session ran away");
    }
    session
}

#[test]
fn train_ship_serve_round_trip_ea() {
    let data = training_environment();
    let eps = 0.1;
    let dir = std::env::temp_dir().join(format!("isrl_deploy_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ea.ckpt");

    // Offline: train and ship.
    {
        let mut agent = EaAgent::new(3, EaConfig::paper_default().with_seed(1));
        agent.train(&data, &sample_users(3, 40, 2), eps);
        std::fs::write(&path, checkpoint::save_ea(&agent)).unwrap();
    }

    // Online: reload and serve three users through sessions.
    let bytes = std::fs::read(&path).unwrap();
    let served = Arc::new(ServePolicy::Ea(checkpoint::load_ea(&bytes).unwrap()));
    let data = Arc::new(data);
    for (seed, truth) in [
        vec![0.5, 0.3, 0.2],
        vec![0.2, 0.2, 0.6],
        vec![0.34, 0.33, 0.33],
    ]
    .into_iter()
    .enumerate()
    {
        let session = serve_user(&served, &data, eps, seed as u64, &truth);
        let regret = regret_ratio_of_index(&data, session.recommendation().unwrap(), &truth);
        assert!(
            regret < eps,
            "served EA must keep its exactness guarantee: regret {regret}"
        );
        assert!(!session.truncated());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_ship_serve_round_trip_aa() {
    let data = training_environment();
    let eps = 0.15;
    let dir = std::env::temp_dir().join(format!("isrl_deploy_aa_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("aa.ckpt");

    {
        let mut agent = AaAgent::new(3, AaConfig::paper_default().with_seed(3));
        agent.train(&data, &sample_users(3, 30, 4), eps);
        std::fs::write(&path, checkpoint::save_aa(&agent)).unwrap();
    }

    let bytes = std::fs::read(&path).unwrap();
    let served = Arc::new(ServePolicy::Aa(checkpoint::load_aa(&bytes).unwrap()));
    let data = Arc::new(data);
    let truth = vec![0.25, 0.45, 0.3];
    let session = serve_user(&served, &data, eps, 0, &truth);
    let regret = regret_ratio_of_index(&data, session.recommendation().unwrap(), &truth);
    assert!(
        regret <= 9.0 * eps + 1e-9,
        "served AA must keep its d²ε bound: {regret}"
    );
    // The session exposes the learned region for downstream explanation UIs.
    assert_eq!(session.region().len(), session.rounds());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diagnostics_integrate_with_served_sessions() {
    // Trace a served interaction via run(), then analyze it — the tuning
    // loop an operator would actually use.
    let data = training_environment();
    let mut agent = AaAgent::new(3, AaConfig::paper_default().with_seed(5));
    let mut user = SimulatedUser::new(vec![0.4, 0.3, 0.3]);
    let out = agent.run(&data, &mut user, 0.1, TraceMode::PerRound);
    // Diagnostics read the traced volume proxies, so the operator loop
    // needs no Monte-Carlo sample budget at all.
    let report = isrl_core::diagnostics::analyze(&out).expect("traced");
    assert_eq!(report.rounds.len(), out.rounds);
    // AA's near-center questions should act like (approximate) bisection.
    assert!(
        report.mean_decay < 0.95,
        "served AA made no progress per round: {}",
        report.mean_decay
    );
}
