//! Algorithm AA — the approximate, scalable RL interactive agent
//! (§IV-C, Algorithms 3–4).
//!
//! AA never computes the utility range exactly: it records the half-space
//! set `H`, summarizes the region by its LP-computable inner sphere and
//! outer rectangle, asks questions whose hyperplanes pass near the sphere
//! center, and stops when the rectangle's diagonal certifies a `d²ε` regret
//! bound (Lemma 9) — empirically the returned point stays below ε itself
//! (§V). The avoided polytope maintenance is what lets AA run at `d = 25`
//! where the exact algorithms give out around `d = 5–10`.

mod actions;
mod state;

pub use actions::{candidate_pairs, encode_question, hyperplane_distance, PairGenConfig};
pub use state::AaSummary;

use crate::interaction::{InteractionOutcome, InteractiveAlgorithm, Question, TraceMode};
use crate::round::{self, Algo, Learner};
use crate::user::User;
use isrl_data::Dataset;
use isrl_geometry::RegionGeometry;
use isrl_rl::{Dqn, DqnConfig, EpsilonSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyper-parameters of [`AaAgent`]. `paper_default` reproduces §V.
#[derive(Debug, Clone)]
pub struct AaConfig {
    /// Action-space size (`m_h`; the paper: 5).
    pub m_h: usize,
    /// Candidate-pair generation knobs (DESIGN.md §2 substitution).
    pub pair_gen: PairGenConfig,
    /// Terminal reward constant `c` (the paper: 100).
    pub reward_c: f64,
    /// Safety cap on rounds per interaction (Lemma 10 bounds rounds by
    /// `O(n²)`; the cap guards numerical stalls).
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
    /// RNG seed.
    pub seed: u64,
    /// Warm-start the per-round geometry LPs from the previous round's
    /// simplex bases (on by default). Purely a speed knob: the warm solver
    /// repairs or discards stale bases, so outcomes are identical either
    /// way — the differential shadow tests flip this to prove it.
    pub warm_lp: bool,
}

impl AaConfig {
    /// The paper's §V hyper-parameters.
    pub fn paper_default() -> Self {
        Self {
            m_h: 5,
            pair_gen: PairGenConfig::default(),
            reward_c: 100.0,
            max_rounds: 200,
            gamma: 0.8,
            lr: 0.003,
            replay_capacity: 5_000,
            batch_size: 64,
            target_sync_every: 20,
            train_steps_per_round: 1,
            use_adam: false,
            epsilon: EpsilonSchedule::paper_default(),
            seed: 0,
            warm_lp: true,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Summary of an AA training run (same shape as EA's).
pub type TrainReport = crate::ea::TrainReport;

/// The scan-free opening of an AA round (see `crate::round`): the LP
/// summary's state encoding, stop verdict, and sphere center, plus the
/// single utility vector (the rectangle midpoint) whose dataset top-1 is
/// both the terminal return (Algorithm 4, line 11) and the fallback
/// recommendation. The geometry's summary cache means the sphere/rectangle
/// LPs run at most once per cut even though the state encoding, stop test,
/// and trace events all consume them. No dataset access and no RNG draw
/// happens here, so a cross-user batcher can coalesce many sessions' scans
/// into one `top1_batch` call. Returns `None` when the region has
/// collapsed.
pub(crate) struct AaPhase1 {
    /// Encoded DQN state (sphere + rectangle summary).
    pub(crate) state: Vec<f64>,
    /// Lemma 9 stop verdict — known before any scan runs.
    pub(crate) terminal: bool,
    /// Inner-sphere center (hit-and-run start and question anchor).
    pub(crate) center: Vec<f64>,
}

/// Phase A of an AA round; see [`AaPhase1`].
pub(crate) fn aa_phase1(geom: &mut RegionGeometry, eps: f64) -> Option<(AaPhase1, Vec<Vec<f64>>)> {
    let summary = AaSummary::from_geometry(geom)?;
    let mid = summary.midpoint();
    Some((
        AaPhase1 {
            state: summary.encode(),
            terminal: summary.meets_stop_condition(eps),
            center: summary.sphere.center().to_vec(),
        },
        vec![mid],
    ))
}

/// Phase B of a non-terminal AA round: a cheap pool of region samples (a
/// short hit-and-run walk from the inner-sphere center) for hyperplane
/// pre-filtering — it keeps the per-round LP count near 2·m_h even at
/// d = 25 (DESIGN.md §2) — then the candidate question pairs.
pub(crate) fn aa_actions(
    cfg: &AaConfig,
    dim: usize,
    data: &Dataset,
    geom: &mut RegionGeometry,
    center: &[f64],
    asked: &[(usize, usize)],
    rng: &mut StdRng,
) -> Vec<Question> {
    let pool = {
        let _s = isrl_obs::span("sampling");
        isrl_geometry::sampling::hit_and_run(dim, geom.region().halfspaces(), center, 48, 2, rng)
    };
    let (region, lp_cache) = geom.region_and_lp_cache();
    candidate_pairs(
        data,
        region,
        center,
        cfg.m_h,
        asked,
        &pool,
        cfg.pair_gen,
        rng,
        lp_cache,
    )
}

/// The approximate RL interactive agent.
#[derive(Debug)]
pub struct AaAgent {
    cfg: AaConfig,
    dim: usize,
    learner: Learner,
}

impl AaAgent {
    /// Creates an untrained agent for datasets of dimensionality `dim`.
    pub fn new(dim: usize, cfg: AaConfig) -> Self {
        let mut dqn_cfg = DqnConfig::paper_default(AaSummary::state_dim(dim), 2 * dim)
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
        Self { cfg, dim, learner }
    }

    /// The configuration.
    pub fn config(&self) -> &AaConfig {
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
        Algo::Aa(&self.cfg, self.dim)
    }

    /// Restores trained Q-network parameters and the episode counter
    /// (checkpoint loading; see `crate::checkpoint`).
    pub fn restore(&mut self, params: &[f64], episodes_trained: u64) {
        self.learner.dqn.load_params(params);
        self.learner.episodes_trained = episodes_trained;
    }

    /// Trains the agent on simulated users (Algorithm 3).
    pub fn train(&mut self, data: &Dataset, utilities: &[Vec<f64>], eps: f64) -> TrainReport {
        let algo = Algo::Aa(&self.cfg, self.dim);
        round::train(algo, &mut self.learner, data, utilities, eps)
    }
}

impl InteractiveAlgorithm for AaAgent {
    fn name(&self) -> &'static str {
        "AA"
    }

    fn run(
        &mut self,
        data: &Dataset,
        user: &mut dyn User,
        eps: f64,
        trace: TraceMode,
    ) -> InteractionOutcome {
        let algo = Algo::Aa(&self.cfg, self.dim);
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
    fn untrained_agent_terminates_and_meets_the_empirical_bound() {
        let data = small_data();
        let mut agent = AaAgent::new(2, AaConfig::paper_default().with_seed(1));
        let eps = 0.1;
        let mut user = SimulatedUser::new(vec![0.35, 0.65]);
        let out = agent.run(&data, &mut user, eps, TraceMode::Off);
        assert!(out.rounds <= agent.config().max_rounds);
        let regret = regret_ratio_of_index(&data, out.point_index, user.ground_truth());
        // Lemma 9's hard guarantee is d²ε; §V observes ≤ ε in practice —
        // check the hard bound strictly and the empirical one loosely.
        assert!(regret <= 4.0 * eps + 1e-9, "hard bound violated: {regret}");
        assert!(
            regret <= eps + 0.05,
            "empirically regret stays near ε: {regret}"
        );
    }

    #[test]
    fn regret_bound_holds_across_users() {
        let data = small_data();
        let mut agent = AaAgent::new(2, AaConfig::paper_default().with_seed(2));
        let eps = 0.1;
        for w in [0.15, 0.4, 0.6, 0.85] {
            let mut user = SimulatedUser::new(vec![w, 1.0 - w]);
            let out = agent.run(&data, &mut user, eps, TraceMode::Off);
            let regret = regret_ratio_of_index(&data, out.point_index, user.ground_truth());
            assert!(
                regret <= (2.0f64).powi(2) * eps + 1e-9,
                "user {w}: regret {regret} exceeds d²ε"
            );
        }
    }

    #[test]
    fn works_in_higher_dimensions() {
        // AA's selling point: d where EA's vertex enumeration gets pricey.
        let d = 6;
        let data = isrl_data::generate(200, d, isrl_data::Distribution::AntiCorrelated, 3);
        let data = isrl_data::skyline(&data);
        let mut agent = AaAgent::new(d, AaConfig::paper_default().with_seed(3));
        let mut u = vec![1.0 / d as f64; d];
        u[0] += 0.1;
        u[1] -= 0.1;
        let mut user = SimulatedUser::new(u);
        let out = agent.run(&data, &mut user, 0.2, TraceMode::Off);
        let regret = regret_ratio_of_index(&data, out.point_index, user.ground_truth());
        assert!(regret < 0.2 * (d * d) as f64, "regret {regret}");
        assert!(out.rounds > 0);
    }

    #[test]
    fn training_runs_and_reports() {
        let data = small_data();
        let mut agent = AaAgent::new(2, AaConfig::paper_default().with_seed(4));
        let utilities: Vec<Vec<f64>> = (1..=8)
            .map(|i| vec![i as f64 / 9.0, 1.0 - i as f64 / 9.0])
            .collect();
        let report = agent.train(&data, &utilities, 0.1);
        assert_eq!(report.episodes, 8);
        assert!(
            agent.dqn().replay_len() > 0,
            "training must fill the replay"
        );
    }

    #[test]
    fn trace_rounds_are_sequential() {
        let data = small_data();
        let mut agent = AaAgent::new(2, AaConfig::paper_default().with_seed(5));
        let mut user = SimulatedUser::new(vec![0.55, 0.45]);
        let out = agent.run(&data, &mut user, 0.05, TraceMode::PerRound);
        assert_eq!(out.trace.len(), out.rounds);
        for (k, t) in out.trace.iter().enumerate() {
            assert_eq!(t.round, k + 1);
        }
    }
}
