//! Golden fixture for the EA/AA round loop.
//!
//! Every expected value below was recorded from the implementation that
//! kept a separate round loop per entry point (per-agent `observe` +
//! `episode`, borrowing sessions, `ServeSession`). The single round state
//! machine that replaced them must reproduce these values bit for bit:
//!
//! * a hash of the checkpoint bytes after a short `train` — pins the
//!   replay contents, every gradient step, and the exploration stream;
//! * per user, the question sequence, round count, returned point and
//!   truncation flag of `run` — pins greedy selection and the agent RNG as
//!   it is threaded through consecutive episodes;
//! * `best_index` and `vertex_count` for every round of one
//!   `TraceMode::PerRound` run — pins the per-round recommendation.
//!
//! The three configurations cover EA on the exact backend (d = 3), EA on
//! the sampled backend (d = 8) and AA (d = 4). The two EA fixtures were
//! re-recorded when every in-region sample moved to the hit-and-run chain
//! (EA's extra samples of `V` on the exact backend, the cloud's initial
//! fill on the sampled one); the AA fixture did not move.

use isrl_core::checkpoint::{save_aa, save_ea};
use isrl_core::prelude::*;
use isrl_data::synthetic::{generate, Distribution};
use isrl_data::{skyline, Dataset};
use isrl_geometry::GeometryBackend;

/// FNV-1a, 64-bit: a dependency-free stable hash of checkpoint bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A simulated user that also records each question as dataset indices.
struct Recorder<'a> {
    data: &'a Dataset,
    user: SimulatedUser,
    questions: Vec<(usize, usize)>,
}

impl Recorder<'_> {
    fn index_of(&self, p: &[f64]) -> usize {
        self.data
            .iter()
            .position(|x| x == p)
            .expect("questions show dataset points")
    }
}

impl User for Recorder<'_> {
    fn prefers(&mut self, p_i: &[f64], p_j: &[f64]) -> bool {
        let q = (self.index_of(p_i), self.index_of(p_j));
        self.questions.push(q);
        self.user.prefers(p_i, p_j)
    }

    fn questions_asked(&self) -> usize {
        self.user.questions_asked()
    }
}

/// What one user's `run` is pinned to.
#[derive(Debug, PartialEq)]
struct UserRun {
    questions: Vec<(usize, usize)>,
    rounds: usize,
    point_index: usize,
    truncated: bool,
}

/// The whole fixture for one configuration.
#[derive(Debug, PartialEq)]
struct Golden {
    checkpoint_hash: u64,
    users: Vec<UserRun>,
    /// `(best_index, vertex_count)` per round of the traced run.
    trace: Vec<(usize, Option<usize>)>,
}

/// Runs three test users in order on the trained agent (the last one
/// traced per round); `checkpoint` is the agent's saved bytes.
fn capture(
    agent: &mut dyn InteractiveAlgorithm,
    data: &Dataset,
    eps: f64,
    checkpoint: &[u8],
) -> Golden {
    let checkpoint_hash = fnv1a(checkpoint);
    let mut users = Vec::new();
    let mut trace = Vec::new();
    for (k, truth) in sample_users(data.dim(), 3, 9).into_iter().enumerate() {
        let mode = if k == 2 {
            TraceMode::PerRound
        } else {
            TraceMode::Off
        };
        let mut user = Recorder {
            data,
            user: SimulatedUser::new(truth),
            questions: Vec::new(),
        };
        let out = agent.run(data, &mut user, eps, mode);
        if k == 2 {
            trace = out
                .trace
                .iter()
                .map(|t| (t.best_index, t.vertex_count))
                .collect();
            assert_eq!(trace.len(), out.rounds, "one trace entry per round");
        }
        users.push(UserRun {
            questions: user.questions,
            rounds: out.rounds,
            point_index: out.point_index,
            truncated: out.truncated,
        });
    }
    Golden {
        checkpoint_hash,
        users,
        trace,
    }
}

fn ea_golden(d: usize, n: usize, backend: GeometryBackend, episodes: usize, eps: f64) -> Golden {
    let data = skyline(&generate(n, d, Distribution::AntiCorrelated, d as u64));
    let mut cfg = EaConfig::paper_default().with_seed(11);
    cfg.geometry = backend;
    cfg.n_samples = 40;
    cfg.batch_size = 8;
    let mut agent = EaAgent::new(d, cfg);
    agent.train(&data, &sample_users(d, episodes, 5), eps);
    let blob = save_ea(&agent);
    capture(&mut agent, &data, eps, &blob)
}

/// Shorthand for one expected [`UserRun`] (never truncated here).
fn run(questions: &[(usize, usize)], point_index: usize) -> UserRun {
    UserRun {
        questions: questions.to_vec(),
        rounds: questions.len(),
        point_index,
        truncated: false,
    }
}

#[test]
fn ea_exact_d3_matches_golden() {
    let got = ea_golden(3, 300, GeometryBackend::Exact, 6, 0.1);
    let want = Golden {
        checkpoint_hash: 13091607541454244082,
        users: vec![
            run(
                &[
                    (13, 0),
                    (70, 19),
                    (19, 13),
                    (19, 10),
                    (19, 6),
                    (9, 60),
                    (20, 9),
                    (10, 6),
                    (9, 19),
                ],
                19,
            ),
            run(&[(0, 10), (9, 13), (13, 10)], 17),
            run(&[(60, 70), (70, 30), (0, 17)], 0),
        ],
        trace: vec![(0, Some(4)), (13, Some(4)), (0, Some(4))],
    };
    assert_eq!(got, want);
}

#[test]
fn ea_sampled_d8_matches_golden() {
    let got = ea_golden(8, 150, GeometryBackend::Sampled, 3, 0.2);
    let want = Golden {
        checkpoint_hash: 12675995645603518468,
        users: vec![
            run(
                &[
                    (97, 7),
                    (0, 9),
                    (9, 46),
                    (9, 20),
                    (24, 29),
                    (9, 121),
                    (11, 19),
                    (27, 5),
                    (42, 68),
                ],
                4,
            ),
            run(
                &[
                    (20, 29),
                    (44, 1),
                    (29, 0),
                    (11, 19),
                    (1, 10),
                    (95, 10),
                    (46, 30),
                    (30, 95),
                    (3, 77),
                    (30, 0),
                    (0, 14),
                    (5, 60),
                ],
                30,
            ),
            run(
                &[
                    (45, 11),
                    (29, 4),
                    (95, 0),
                    (29, 21),
                    (121, 10),
                    (122, 46),
                    (8, 26),
                    (28, 60),
                    (7, 84),
                    (26, 29),
                    (122, 28),
                    (28, 0),
                ],
                1,
            ),
        ],
        trace: [0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1]
            .into_iter()
            .map(|best| (best, Some(128)))
            .collect(),
    };
    assert_eq!(got, want);
}

#[test]
fn aa_d4_matches_golden() {
    let d = 4;
    let eps = 0.1;
    let data = skyline(&generate(300, d, Distribution::AntiCorrelated, 4));
    let mut cfg = AaConfig::paper_default().with_seed(12);
    cfg.batch_size = 8;
    let mut agent = AaAgent::new(d, cfg);
    agent.train(&data, &sample_users(d, 6, 6), eps);
    let blob = save_aa(&agent);
    let got = capture(&mut agent, &data, eps, &blob);
    let want = Golden {
        checkpoint_hash: 10101130538810772453,
        users: vec![
            run(
                &[
                    (17, 18),
                    (10, 18),
                    (30, 169),
                    (21, 117),
                    (50, 83),
                    (5, 8),
                    (55, 85),
                    (5, 18),
                    (70, 85),
                    (63, 85),
                    (0, 70),
                    (5, 70),
                    (4, 5),
                    (22, 85),
                ],
                2,
            ),
            run(
                &[
                    (17, 18),
                    (14, 30),
                    (73, 83),
                    (29, 38),
                    (33, 83),
                    (16, 56),
                    (43, 171),
                    (53, 75),
                    (1, 56),
                    (29, 56),
                    (3, 53),
                ],
                11,
            ),
            run(
                &[
                    (17, 18),
                    (10, 18),
                    (0, 42),
                    (13, 51),
                    (0, 181),
                    (39, 92),
                    (39, 45),
                    (36, 57),
                    (19, 45),
                    (19, 38),
                ],
                26,
            ),
        ],
        trace: [0, 9, 9, 9, 26, 26, 26, 9, 9, 26]
            .into_iter()
            .map(|best| (best, None))
            .collect(),
    };
    assert_eq!(got, want);
}
