//! Algorithm EA — the exact RL interactive agent (§IV-B, Algorithms 1–2).
//!
//! EA maintains the utility range `R` exactly (vertex enumeration over the
//! learned half-spaces), encodes it as representative extreme vectors plus
//! the outer sphere, restricts its actions to pairs of terminal-polyhedron
//! anchor points, and trains a DQN to pick the question that minimizes the
//! *total* number of rounds. Its return is exact: the anchor of the single
//! terminal polyhedron covering `R` (Lemma 6), whose regret ratio is below
//! ε for the user's true utility vector wherever it is in `R`.

mod actions;
mod state;
mod terminal;

pub use actions::{build_action_space, encode_question};
pub use state::{EaStateEncoder, StateVariant};
pub use terminal::{check_terminal, in_terminal_polyhedron, terminal_points};
pub(crate) use terminal::{distinct, terminal_anchor};

use crate::interaction::{InteractionOutcome, InteractiveAlgorithm, Question, TraceMode};
use crate::round::{self, Algo, Learner};
use crate::user::User;
use isrl_data::Dataset;
use isrl_geometry::{sampling, GeometryBackend, RegionGeometry, WalkConfig};
use isrl_linalg::vector;
use isrl_rl::{Dqn, DqnConfig, EpsilonSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyper-parameters of [`EaAgent`]. `paper_default` reproduces §V.
#[derive(Debug, Clone)]
pub struct EaConfig {
    /// Representative extreme utility vectors in the state (`m_e`).
    pub m_e: usize,
    /// Neighborhood radius for representative selection (`d_ε`).
    pub d_eps: f64,
    /// Which parts of the two-part state to encode (ablation knob).
    pub state_variant: StateVariant,
    /// Action-space size (`m_h`; the paper: 5).
    pub m_h: usize,
    /// Utility vectors sampled per round for terminal-polyhedron
    /// construction (Lemma 5 sizes this; a few hundred suffice in practice).
    pub n_samples: usize,
    /// Terminal reward constant `c` (the paper: 100).
    pub reward_c: f64,
    /// Safety cap on rounds per interaction (Theorem 1 bounds rounds by
    /// `O(n)`; the cap guards numerical stalls only).
    pub max_rounds: usize,
    /// Discount factor γ (the paper: 0.8).
    pub gamma: f64,
    /// Learning rate (the paper: 0.003).
    pub lr: f64,
    /// Replay capacity (the paper: 5,000).
    pub replay_capacity: usize,
    /// Minibatch size (the paper: 64).
    pub batch_size: usize,
    /// Target-network sync period in updates (the paper: 20).
    pub target_sync_every: u64,
    /// Gradient steps per interactive round during training (1 = the
    /// paper's cadence; more steps squeeze small training budgets harder).
    pub train_steps_per_round: usize,
    /// Use Adam instead of plain gradient descent in the DQN.
    pub use_adam: bool,
    /// Exploration schedule (the paper: constant 0.9).
    pub epsilon: EpsilonSchedule,
    /// RNG seed (weights, sampling, exploration).
    pub seed: u64,
    /// Region representation: exact vertex enumeration, a hit-and-run
    /// sample cloud, or auto-by-dimension (the default — exact at the
    /// paper's low-`d` regime, sampled where enumeration is intractable).
    /// A speed/fidelity knob, not learned state: it is not serialized into
    /// checkpoints, and the differential suite pins the two backends'
    /// question counts against each other at low `d`.
    pub geometry: GeometryBackend,
    /// Chain parameters for the sampled backend (ignored when the resolved
    /// backend is exact).
    pub walk: WalkConfig,
}

impl EaConfig {
    /// The paper's §V hyper-parameters.
    pub fn paper_default() -> Self {
        Self {
            m_e: 5,
            d_eps: 0.15,
            state_variant: StateVariant::default(),
            m_h: 5,
            n_samples: 100,
            reward_c: 100.0,
            max_rounds: 100,
            gamma: 0.8,
            lr: 0.003,
            replay_capacity: 5_000,
            batch_size: 64,
            target_sync_every: 20,
            train_steps_per_round: 1,
            use_adam: false,
            epsilon: EpsilonSchedule::paper_default(),
            seed: 0,
            geometry: GeometryBackend::Auto,
            walk: WalkConfig::default(),
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Summary of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Episodes (training utility vectors) processed.
    pub episodes: usize,
    /// Rounds used by each training episode, in order.
    pub rounds_per_episode: Vec<usize>,
    /// Mean rounds over the final quarter of episodes (convergence proxy).
    pub mean_rounds_final_quarter: f64,
    /// Anomalies the training-health watchdog flagged (empty = healthy).
    pub anomalies: Vec<crate::watchdog::Anomaly>,
}

impl TrainReport {
    /// Builds a report from per-episode round counts.
    pub fn from_rounds(rounds: Vec<usize>) -> Self {
        let n = rounds.len();
        let tail = &rounds[n - (n / 4).max(1).min(n)..];
        let mean = if tail.is_empty() {
            0.0
        } else {
            tail.iter().sum::<usize>() as f64 / tail.len() as f64
        };
        Self {
            episodes: n,
            rounds_per_episode: rounds,
            mean_rounds_final_quarter: mean,
            anomalies: Vec::new(),
        }
    }
}

/// The scan-free opening of an EA round (see `crate::round`): the region's
/// point set, its DQN state encoding, and the utility vectors whose dataset
/// top-1 scans are needed first — laid out `[points.., centroid]`. The
/// point set standing for the region is the vertex set on the exact
/// backend, read straight off the incrementally maintained polytope, and
/// the hit-and-run cloud on the sampled backend (anchors first: the
/// axis-extent LP optimizers are true region vertices, so the terminal
/// check and state encoding see the extremes a uniform interior sample
/// misses). No dataset access and no RNG draw happens here, so a
/// cross-user batcher can coalesce many sessions' scans into one
/// `top1_batch` call. Returns `None` when the region has collapsed.
pub(crate) fn ea_phase1(
    encoder: &EaStateEncoder,
    geom: &RegionGeometry,
) -> Option<(Vec<f64>, Vec<Vec<f64>>)> {
    let points: Vec<Vec<f64>> = if geom.is_sampled() {
        geom.sample_cloud()?.all_points()
    } else {
        geom.polytope()?.vertices().to_vec()
    };
    let state = encoder.encode_points(&points);
    let centroid = vector::mean(&points);
    let mut utilities = points;
    utilities.push(centroid);
    Some((state, utilities))
}

/// The exact backend's extra sample draw for V (Lemma 5/6): a hit-and-run
/// chain started at the vertex centroid phase 1 already computed (the mean
/// of a full-dimensional polytope's vertices is strictly interior). The
/// caller appends the vertices themselves by chaining the phase-1 scan
/// results. The sampled backend skips this: its cloud already is a
/// uniform sample of R.
pub(crate) fn ea_sample_extras(
    cfg: &EaConfig,
    geom: &RegionGeometry,
    centroid: &[f64],
    rng: &mut StdRng,
) -> Vec<Vec<f64>> {
    let _s = isrl_obs::span("sampling");
    sampling::hit_and_run(
        geom.dim(),
        geom.region().halfspaces(),
        centroid,
        cfg.n_samples,
        sampling::REGION_THIN,
        rng,
    )
}

/// Builds the candidate action space from `P_R`. When every unasked pair
/// is exhausted, re-asking is permitted rather than stalling (the DQN picks
/// the most informative repeat).
pub(crate) fn ea_actions(
    cfg: &EaConfig,
    p_r: &[usize],
    asked: &[(usize, usize)],
    rng: &mut StdRng,
) -> Vec<Question> {
    let questions = build_action_space(p_r, cfg.m_h, asked, rng);
    if questions.is_empty() && p_r.len() >= 2 {
        return build_action_space(p_r, cfg.m_h, &[], rng);
    }
    questions
}

/// The exact RL interactive agent.
#[derive(Debug)]
pub struct EaAgent {
    cfg: EaConfig,
    dim: usize,
    encoder: EaStateEncoder,
    learner: Learner,
}

impl EaAgent {
    /// Creates an untrained agent for datasets of dimensionality `dim`.
    pub fn new(dim: usize, cfg: EaConfig) -> Self {
        let encoder = EaStateEncoder::with_variant(dim, cfg.m_e, cfg.d_eps, cfg.state_variant);
        let mut dqn_cfg = DqnConfig::paper_default(encoder.state_dim(), 2 * dim)
            .with_seed(cfg.seed.wrapping_add(1));
        dqn_cfg.lr = cfg.lr;
        dqn_cfg.gamma = cfg.gamma;
        dqn_cfg.replay_capacity = cfg.replay_capacity;
        dqn_cfg.batch_size = cfg.batch_size;
        dqn_cfg.target_sync_every = cfg.target_sync_every;
        dqn_cfg.use_adam = cfg.use_adam;
        let learner = Learner {
            dqn: Dqn::new(dqn_cfg),
            rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(2)),
            episodes_trained: 0,
        };
        Self {
            cfg,
            dim,
            encoder,
            learner,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &EaConfig {
        &self.cfg
    }

    /// Episodes trained so far.
    pub fn episodes_trained(&self) -> u64 {
        self.learner.episodes_trained
    }

    /// Access to the underlying DQN (checkpointing).
    pub fn dqn(&self) -> &Dqn {
        &self.learner.dqn
    }

    /// Dimensionality the agent was built for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The read-only half the round steps consult.
    pub(crate) fn algo(&self) -> Algo<'_> {
        Algo::Ea(&self.cfg, &self.encoder)
    }

    /// Restores trained Q-network parameters and the episode counter
    /// (checkpoint loading; see `crate::checkpoint`).
    pub fn restore(&mut self, params: &[f64], episodes_trained: u64) {
        self.learner.dqn.load_params(params);
        self.learner.episodes_trained = episodes_trained;
    }

    /// Overrides the region-geometry backend (e.g. from the CLI after a
    /// checkpoint load — the backend is a serving-time choice and is not
    /// persisted).
    pub fn set_geometry(&mut self, backend: GeometryBackend) {
        self.cfg.geometry = backend;
    }

    /// Trains the agent on simulated users (Algorithm 1): one episode per
    /// training utility vector, ε-greedy per the configured schedule.
    pub fn train(&mut self, data: &Dataset, utilities: &[Vec<f64>], eps: f64) -> TrainReport {
        let algo = Algo::Ea(&self.cfg, &self.encoder);
        round::train(algo, &mut self.learner, data, utilities, eps)
    }
}

impl InteractiveAlgorithm for EaAgent {
    fn name(&self) -> &'static str {
        "EA"
    }

    fn run(
        &mut self,
        data: &Dataset,
        user: &mut dyn User,
        eps: f64,
        trace: TraceMode,
    ) -> InteractionOutcome {
        let algo = Algo::Ea(&self.cfg, &self.encoder);
        let mut answer = |p_i: &[f64], p_j: &[f64]| user.prefers(p_i, p_j);
        round::episode(algo, &mut self.learner, data, &mut answer, eps, None, trace).0
    }

    fn reseed(&mut self, seed: u64) {
        self.learner.rng = StdRng::seed_from_u64(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regret::regret_ratio_of_index;
    use crate::user::SimulatedUser;

    fn small_data() -> Dataset {
        // A 2-d anti-chain: every point tops some utility vector.
        Dataset::from_points(
            vec![
                vec![1.0, 0.05],
                vec![0.85, 0.4],
                vec![0.6, 0.65],
                vec![0.4, 0.85],
                vec![0.05, 1.0],
            ],
            2,
        )
    }

    #[test]
    fn untrained_agent_still_terminates_with_valid_regret() {
        let data = small_data();
        let mut agent = EaAgent::new(2, EaConfig::paper_default().with_seed(1));
        let mut user = SimulatedUser::new(vec![0.35, 0.65]);
        let eps = 0.1;
        let out = agent.run(&data, &mut user, eps, TraceMode::Off);
        assert!(!out.truncated, "EA must hit its stopping condition");
        assert!(out.rounds <= 20, "rounds {}", out.rounds);
        let regret = regret_ratio_of_index(&data, out.point_index, user.ground_truth());
        assert!(
            regret < eps,
            "EA is exact: regret {regret} must be below {eps}"
        );
    }

    #[test]
    fn exactness_holds_across_users_and_eps() {
        let data = small_data();
        let mut agent = EaAgent::new(2, EaConfig::paper_default().with_seed(2));
        for eps in [0.05, 0.2] {
            for w in [0.1, 0.45, 0.8] {
                let mut user = SimulatedUser::new(vec![w, 1.0 - w]);
                let out = agent.run(&data, &mut user, eps, TraceMode::Off);
                let regret = regret_ratio_of_index(&data, out.point_index, user.ground_truth());
                assert!(
                    regret < eps,
                    "eps {eps}, user {w}: regret {regret} (rounds {})",
                    out.rounds
                );
            }
        }
    }

    #[test]
    fn training_runs_and_reports() {
        let data = small_data();
        let mut cfg = EaConfig::paper_default().with_seed(3);
        cfg.n_samples = 30;
        let mut agent = EaAgent::new(2, cfg);
        let utilities: Vec<Vec<f64>> = (1..=10)
            .map(|i| vec![i as f64 / 11.0, 1.0 - i as f64 / 11.0])
            .collect();
        let report = agent.train(&data, &utilities, 0.1);
        assert_eq!(report.episodes, 10);
        assert_eq!(agent.episodes_trained(), 10);
        assert!(report.rounds_per_episode.iter().all(|&r| r > 0));
    }

    #[test]
    fn larger_eps_needs_no_more_rounds() {
        // The §V trend: easier thresholds can only shorten interactions
        // (up to sampling noise; we compare means over several users).
        let data = small_data();
        let mut agent = EaAgent::new(2, EaConfig::paper_default().with_seed(4));
        let mean_rounds = |agent: &mut EaAgent, eps: f64| {
            let ws = [0.2, 0.35, 0.5, 0.65, 0.8];
            ws.iter()
                .map(|&w| {
                    let mut user = SimulatedUser::new(vec![w, 1.0 - w]);
                    agent.run(&data, &mut user, eps, TraceMode::Off).rounds as f64
                })
                .sum::<f64>()
                / ws.len() as f64
        };
        let tight = mean_rounds(&mut agent, 0.05);
        let loose = mean_rounds(&mut agent, 0.3);
        assert!(
            loose <= tight + 0.5,
            "looser eps should not need more rounds: {tight} vs {loose}"
        );
    }

    #[test]
    fn trace_records_every_round() {
        let data = small_data();
        let mut agent = EaAgent::new(2, EaConfig::paper_default().with_seed(5));
        let mut user = SimulatedUser::new(vec![0.3, 0.7]);
        let out = agent.run(&data, &mut user, 0.1, TraceMode::PerRound);
        assert_eq!(out.trace.len(), out.rounds);
        for (k, t) in out.trace.iter().enumerate() {
            assert_eq!(t.round, k + 1);
            assert_eq!(t.region.len(), k + 1, "one halfspace per round");
        }
    }

    #[test]
    fn sampled_backend_terminates_at_higher_dim() {
        use rand::Rng;
        // d = 8 resolves Auto to the sampled backend; no vertex set may
        // ever be materialized, yet the episode must still terminate with
        // a sane recommendation.
        let d = 8;
        let mut rng = StdRng::seed_from_u64(99);
        let points: Vec<Vec<f64>> = (0..30)
            .map(|_| (0..d).map(|_| rng.gen_range(0.05..1.0)).collect())
            .collect();
        let data = Dataset::from_points(points, d);
        let mut agent = EaAgent::new(d, EaConfig::paper_default().with_seed(5));
        assert!(agent.config().geometry.resolves_to_sampled(d));
        let truth: Vec<f64> = {
            let raw: Vec<f64> = (0..d).map(|_| rng.gen_range(0.05..1.0)).collect();
            let s: f64 = raw.iter().sum();
            raw.into_iter().map(|x| x / s).collect()
        };
        let mut user = SimulatedUser::new(truth.clone());
        let eps = 0.2;
        let out = agent.run(&data, &mut user, eps, TraceMode::Off);
        assert!(out.point_index < data.len());
        assert!(out.rounds <= agent.config().max_rounds);
        assert!(!out.truncated, "sampled EA should certify termination here");
        let regret = regret_ratio_of_index(&data, out.point_index, &truth);
        assert!(regret < eps, "regret {regret} at eps {eps}");
    }

    #[test]
    fn sampled_backend_is_deterministic_under_reseed() {
        use rand::Rng;
        let d = 9;
        let mut rng = StdRng::seed_from_u64(123);
        let points: Vec<Vec<f64>> = (0..25)
            .map(|_| (0..d).map(|_| rng.gen_range(0.05..1.0)).collect())
            .collect();
        let data = Dataset::from_points(points, d);
        let mut cfg = EaConfig::paper_default().with_seed(11);
        cfg.geometry = GeometryBackend::Sampled;
        let mut agent = EaAgent::new(d, cfg);
        let run_once = |agent: &mut EaAgent| {
            agent.reseed(0xfeed);
            let mut user = SimulatedUser::new(vec![1.0 / d as f64; d]);
            let out = agent.run(&data, &mut user, 0.2, TraceMode::Off);
            (out.point_index, out.rounds, out.truncated)
        };
        assert_eq!(run_once(&mut agent), run_once(&mut agent));
    }

    #[test]
    fn user_question_count_matches_rounds() {
        let data = small_data();
        let mut agent = EaAgent::new(2, EaConfig::paper_default().with_seed(6));
        let mut user = SimulatedUser::new(vec![0.6, 0.4]);
        let out = agent.run(&data, &mut user, 0.1, TraceMode::Off);
        assert_eq!(user.questions_asked(), out.rounds);
    }
}
