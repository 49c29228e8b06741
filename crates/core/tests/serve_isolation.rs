//! Serving-path differential tests (DESIGN.md §14).
//!
//! Two guarantees are pinned here:
//!
//! 1. **Session/agent parity** — a [`ServeSession`] (shared policy,
//!    external scans, the registry's driver) asks byte-identical question
//!    sequences to the agent's own `run` (the inline episode driver) given
//!    the same policy and seed, and returns the same recommendation. Both
//!    step one round state machine; only the drivers differ.
//! 2. **Session isolation** — K sessions interleaved through a
//!    [`SessionRegistry`] with cross-user batching enabled see exactly
//!    what each would see running alone: the batcher may merge scans but
//!    must never let one user's traffic perturb another's questions.

use std::sync::Arc;

use isrl_core::prelude::*;
use isrl_data::synthetic::{generate, Distribution};
use isrl_data::Dataset;
use isrl_linalg::vector;

fn dataset() -> Arc<Dataset> {
    Arc::new(generate(60, 2, Distribution::AntiCorrelated, 11))
}

fn prefers(truth: &[f64], p: &[f64], q: &[f64]) -> bool {
    vector::dot(truth, p) >= vector::dot(truth, q)
}

/// A simulated user that records each question as dataset indices.
struct Recorder<'a> {
    data: &'a Dataset,
    truth: Vec<f64>,
    questions: Vec<(usize, usize)>,
}

impl User for Recorder<'_> {
    fn prefers(&mut self, p_i: &[f64], p_j: &[f64]) -> bool {
        let index_of = |p: &[f64]| self.data.iter().position(|x| x == p).unwrap();
        let q = (index_of(p_i), index_of(p_j));
        self.questions.push(q);
        prefers(&self.truth, p_i, p_j)
    }

    fn questions_asked(&self) -> usize {
        self.questions.len()
    }
}

/// Runs the agent's inline episode driver after reseeding its RNG to the
/// session seed (exactly what `ServeSession::new` seeds) and records the
/// question sequence.
fn run_inline(
    agent: &mut dyn InteractiveAlgorithm,
    data: &Dataset,
    eps: f64,
    seed: u64,
    truth: &[f64],
) -> (Vec<(usize, usize)>, InteractionOutcome) {
    agent.reseed(seed);
    let mut user = Recorder {
        data,
        truth: truth.to_vec(),
        questions: Vec::new(),
    };
    let out = agent.run(data, &mut user, eps, TraceMode::Off);
    (user.questions, out)
}

/// Drives a [`ServeSession`] alone (inline scans) and records its question
/// sequence.
fn run_serve_session(
    policy: &Arc<ServePolicy>,
    data: &Arc<Dataset>,
    eps: f64,
    seed: u64,
    truth: &[f64],
) -> (Vec<(usize, usize)>, usize, usize) {
    let mut session = ServeSession::new(Arc::clone(policy), Arc::clone(data), eps, seed).unwrap();
    let mut questions = Vec::new();
    loop {
        session.step_blocking();
        if session.is_finished() {
            let rec = session.recommendation().unwrap();
            return (questions, session.rounds(), rec);
        }
        let q = session.current_question().unwrap();
        questions.push((q.i, q.j));
        let (p1, p2) = session
            .current_points()
            .map(|(a, b)| (a.to_vec(), b.to_vec()))
            .unwrap();
        session.answer(prefers(truth, &p1, &p2)).unwrap();
    }
}

#[test]
fn serve_session_matches_ea_session() {
    let data = dataset();
    let eps = 0.1;
    for geometry in ["exact", "sampled"] {
        let backend = isrl_geometry::GeometryBackend::parse(geometry).unwrap();
        let mut cfg = EaConfig::paper_default().with_seed(5);
        cfg.geometry = backend;
        for (seed, truth) in [(21u64, vec![0.35, 0.65]), (22, vec![0.7, 0.3])] {
            let mut agent = EaAgent::new(2, cfg.clone());
            let (inline_questions, inline) = run_inline(&mut agent, &data, eps, seed, &truth);

            let policy = Arc::new(ServePolicy::Ea(EaAgent::new(2, cfg.clone())));
            let (questions, rounds, rec) = run_serve_session(&policy, &data, eps, seed, &truth);
            assert_eq!(
                questions, inline_questions,
                "EA/{geometry} seed {seed}: question sequences must match"
            );
            assert_eq!(rounds, inline.rounds);
            assert_eq!(rec, inline.point_index);
            assert!(
                regret_ratio_of_index(&data, rec, &truth) < eps || inline.truncated,
                "EA serving must stay exact"
            );
        }
    }
}

#[test]
fn serve_session_matches_aa_session() {
    let data = dataset();
    let eps = 0.15;
    let cfg = AaConfig::paper_default().with_seed(6);
    for (seed, truth) in [(31u64, vec![0.25, 0.75]), (32, vec![0.6, 0.4])] {
        let mut agent = AaAgent::new(2, cfg.clone());
        let (inline_questions, inline) = run_inline(&mut agent, &data, eps, seed, &truth);

        let policy = Arc::new(ServePolicy::Aa(AaAgent::new(2, cfg.clone())));
        let (questions, rounds, rec) = run_serve_session(&policy, &data, eps, seed, &truth);
        assert_eq!(
            questions, inline_questions,
            "AA seed {seed}: question sequences must match"
        );
        assert_eq!(rounds, inline.rounds);
        assert_eq!(rec, inline.point_index);
    }
}

/// The per-session view of an interleaved run: every question seen, in
/// order, plus the outcome.
#[derive(Debug, PartialEq)]
struct SessionLog {
    questions: Vec<(usize, usize)>,
    rounds: usize,
    recommendation: usize,
    truncated: bool,
}

/// Runs K mixed EA/AA sessions through one registry until all finish.
/// `interleaved` answers sessions round-robin (all make progress together,
/// maximizing batcher coalescing); serial drains one session fully before
/// opening the next.
fn run_registry(
    data: &Arc<Dataset>,
    specs: &[(AlgoKind, u64, Vec<f64>)],
    eps: f64,
    interleaved: bool,
    batching: bool,
) -> (Vec<SessionLog>, isrl_core::serving::BatchStats) {
    let mut registry = SessionRegistry::new(Arc::clone(data));
    registry.set_batching(batching);
    let mut ea_cfg = EaConfig::paper_default().with_seed(5);
    ea_cfg.geometry = isrl_geometry::GeometryBackend::parse("exact").unwrap();
    registry.register(Arc::new(ServePolicy::Ea(EaAgent::new(2, ea_cfg))));
    registry.register(Arc::new(ServePolicy::Aa(AaAgent::new(
        2,
        AaConfig::paper_default().with_seed(6),
    ))));

    let mut logs: Vec<SessionLog> = Vec::new();
    if interleaved {
        let ids: Vec<u64> = specs
            .iter()
            .map(|(algo, seed, _)| registry.open(*algo, eps, *seed).unwrap())
            .collect();
        let mut questions: Vec<Vec<(usize, usize)>> = vec![Vec::new(); specs.len()];
        loop {
            registry.pump_all();
            let mut any_open = false;
            for (k, id) in ids.iter().enumerate() {
                let session = match registry.session(*id) {
                    Some(s) if !s.is_finished() => s,
                    _ => continue,
                };
                any_open = true;
                let q = session.current_question().unwrap();
                questions[k].push((q.i, q.j));
                let (p1, p2) = session
                    .current_points()
                    .map(|(a, b)| (a.to_vec(), b.to_vec()))
                    .unwrap();
                registry
                    .answer(*id, prefers(&specs[k].2, &p1, &p2))
                    .unwrap();
            }
            // After a pump_all, every unfinished session has a question,
            // so a pass with no question means everyone is done.
            if !any_open {
                break;
            }
        }
        for (k, id) in ids.iter().enumerate() {
            let s = registry.close(*id).unwrap();
            logs.push(SessionLog {
                questions: std::mem::take(&mut questions[k]),
                rounds: s.rounds(),
                recommendation: s.recommendation().unwrap(),
                truncated: s.truncated(),
            });
        }
    } else {
        for (algo, seed, truth) in specs {
            let id = registry.open(*algo, eps, *seed).unwrap();
            let mut qs = Vec::new();
            loop {
                registry.pump_all();
                let session = registry.session(id).unwrap();
                if session.is_finished() {
                    break;
                }
                let q = session.current_question().unwrap();
                qs.push((q.i, q.j));
                let (p1, p2) = session
                    .current_points()
                    .map(|(a, b)| (a.to_vec(), b.to_vec()))
                    .unwrap();
                registry.answer(id, prefers(truth, &p1, &p2)).unwrap();
            }
            let s = registry.close(id).unwrap();
            logs.push(SessionLog {
                questions: qs,
                rounds: s.rounds(),
                recommendation: s.recommendation().unwrap(),
                truncated: s.truncated(),
            });
        }
    }
    (logs, registry.stats())
}

#[test]
fn interleaved_sessions_are_isolated() {
    let data = dataset();
    let eps = 0.12;
    // K = 6 sessions, mixed algorithms, distinct seeds and users.
    let specs: Vec<(AlgoKind, u64, Vec<f64>)> = vec![
        (AlgoKind::Ea, 101, vec![0.2, 0.8]),
        (AlgoKind::Aa, 102, vec![0.35, 0.65]),
        (AlgoKind::Ea, 103, vec![0.5, 0.5]),
        (AlgoKind::Aa, 104, vec![0.65, 0.35]),
        (AlgoKind::Ea, 105, vec![0.8, 0.2]),
        (AlgoKind::Aa, 106, vec![0.45, 0.55]),
    ];

    let (interleaved, stats) = run_registry(&data, &specs, eps, true, true);
    let (serial, _) = run_registry(&data, &specs, eps, false, true);
    assert_eq!(
        interleaved, serial,
        "an interleaved session must see exactly its solo question sequence"
    );
    assert!(
        stats.coalesced > 0,
        "six lockstep sessions must coalesce scans: {stats:?}"
    );

    // And batching itself must be invisible.
    let (unbatched, unbatched_stats) = run_registry(&data, &specs, eps, true, false);
    assert_eq!(interleaved, unbatched);
    assert_eq!(unbatched_stats.coalesced, 0);
}
