//! Deep Q-learning over per-state candidate action sets.
//!
//! The interaction MDP of the paper has a *state-dependent* discrete action
//! set: at each round the agent chooses among `m_h` candidate questions
//! constructed for the current utility range (§IV-B/§IV-C). The Q-function
//! is therefore modeled as a scorer `Q(s, a; Θ)` over the concatenation of
//! state and action features, evaluated once per candidate, rather than as
//! a fixed-width output head.
//!
//! Training follows Algorithms 1/3: ε-greedy rollouts fill an experience
//! replay, minibatches minimize the MSE toward bootstrapped targets
//! `r + γ max_{a'} Q̂(s', a'; Θ')`, and the target network Θ' is re-synced
//! from the main network every `target_sync_every` updates.

use crate::replay::{ReplayMemory, Transition};
use isrl_nn::{loss, Activation, Adam, Gradients, Init, Mlp, Optimizer, Sgd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters of a [`Dqn`]. `paper_default` matches §V of the paper.
#[derive(Debug, Clone)]
pub struct DqnConfig {
    /// Width of the state feature vector.
    pub state_dim: usize,
    /// Width of an action feature vector.
    pub action_dim: usize,
    /// Hidden-layer widths (the paper: one layer of 64).
    pub hidden: Vec<usize>,
    /// Learning rate for plain gradient descent (the paper: 0.003).
    pub lr: f64,
    /// Discount factor γ (the paper: 0.8).
    pub gamma: f64,
    /// Replay memory capacity (the paper: 5,000).
    pub replay_capacity: usize,
    /// Minibatch size (the paper: 64).
    pub batch_size: usize,
    /// Sync the target network every this many gradient updates (the paper: 20).
    pub target_sync_every: u64,
    /// Optional global-norm gradient clip (stabilizer; `None` = off).
    pub grad_clip: Option<f64>,
    /// Use Adam instead of the paper's plain gradient descent (an
    /// optimization-quality knob for low-budget training runs).
    pub use_adam: bool,
    /// RNG seed for weight init, exploration, and replay sampling.
    pub seed: u64,
}

impl DqnConfig {
    /// The paper's §V hyper-parameters for the given feature widths.
    pub fn paper_default(state_dim: usize, action_dim: usize) -> Self {
        Self {
            state_dim,
            action_dim,
            hidden: vec![64],
            lr: 0.003,
            gamma: 0.8,
            replay_capacity: 5_000,
            batch_size: 64,
            target_sync_every: 20,
            grad_clip: Some(10.0),
            use_adam: false,
            seed: 0,
        }
    }

    /// Parameter count of the Q-network [`Dqn::new`] builds from this
    /// config (dense layers `[state_dim + action_dim, hidden.., 1]` with
    /// biases), computed without building it; `None` if it overflows.
    pub fn n_params(&self) -> Option<usize> {
        let mut fan_in = self.state_dim.checked_add(self.action_dim)?;
        let mut total = 0usize;
        for &fan_out in self.hidden.iter().chain(&[1]) {
            total = total.checked_add(fan_out.checked_mul(fan_in.checked_add(1)?)?)?;
            fan_in = fan_out;
        }
        Some(total)
    }

    /// Returns the config with a different seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A Deep-Q-Network agent with target network and experience replay.
#[derive(Debug, Clone)]
pub struct Dqn {
    cfg: DqnConfig,
    q: Mlp,
    target: Mlp,
    replay: ReplayMemory,
    sgd: Sgd,
    adam: Adam,
    updates: u64,
    rng: StdRng,
    scratch: Vec<f64>,
}

impl Dqn {
    /// Builds the main and target networks per the config.
    ///
    /// # Panics
    /// Panics on zero feature widths or an empty hidden spec.
    pub fn new(cfg: DqnConfig) -> Self {
        assert!(
            cfg.state_dim > 0 && cfg.action_dim > 0,
            "feature widths must be positive"
        );
        assert!(
            !cfg.hidden.is_empty(),
            "at least one hidden layer is required"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut sizes = Vec::with_capacity(cfg.hidden.len() + 2);
        sizes.push(cfg.state_dim + cfg.action_dim);
        sizes.extend_from_slice(&cfg.hidden);
        sizes.push(1);
        let q = Mlp::new(&sizes, Activation::Selu, Init::LecunNormal, &mut rng);
        let target = q.clone();
        let replay = ReplayMemory::new(cfg.replay_capacity);
        let sgd = Sgd { lr: cfg.lr };
        let adam = Adam::new(cfg.lr);
        let scratch = vec![0.0; cfg.state_dim + cfg.action_dim];
        Self {
            cfg,
            q,
            target,
            replay,
            sgd,
            adam,
            updates: 0,
            rng,
            scratch,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DqnConfig {
        &self.cfg
    }

    /// Gradient updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Transitions currently in replay.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    fn encode_into(scratch: &mut [f64], state: &[f64], action: &[f64]) {
        scratch[..state.len()].copy_from_slice(state);
        scratch[state.len()..].copy_from_slice(action);
    }

    /// `Q(s, a; Θ)` from the main network.
    ///
    /// # Panics
    /// Panics on feature-width mismatch.
    pub fn q_value(&mut self, state: &[f64], action: &[f64]) -> f64 {
        assert_eq!(state.len(), self.cfg.state_dim, "state width mismatch");
        assert_eq!(action.len(), self.cfg.action_dim, "action width mismatch");
        Self::encode_into(&mut self.scratch, state, action);
        self.q.forward(&self.scratch)[0]
    }

    /// Index and value of the greedy (highest-Q) action among `actions`.
    ///
    /// # Panics
    /// Panics on an empty action set.
    pub fn best_action(&mut self, state: &[f64], actions: &[Vec<f64>]) -> (usize, f64) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let best = self.best_action_ref(&mut scratch, state, actions);
        self.scratch = scratch;
        best
    }

    /// [`Dqn::best_action`] without mutable access to the network: the
    /// caller supplies the encoding scratch buffer (resized as needed).
    /// This is what lets many concurrent serving sessions evaluate one
    /// shared checkpoint — each session owns a scratch buffer while the
    /// `Dqn` itself stays behind an immutable reference.
    ///
    /// # Panics
    /// Panics on an empty action set or feature-width mismatch.
    pub fn best_action_ref(
        &self,
        scratch: &mut Vec<f64>,
        state: &[f64],
        actions: &[Vec<f64>],
    ) -> (usize, f64) {
        assert!(!actions.is_empty(), "cannot pick from an empty action set");
        assert_eq!(state.len(), self.cfg.state_dim, "state width mismatch");
        scratch.resize(self.cfg.state_dim + self.cfg.action_dim, 0.0);
        let mut best = (0usize, f64::NEG_INFINITY);
        for (i, a) in actions.iter().enumerate() {
            assert_eq!(a.len(), self.cfg.action_dim, "action width mismatch");
            Self::encode_into(scratch, state, a);
            let v = self.q.forward(scratch)[0];
            if v > best.1 {
                best = (i, v);
            }
        }
        best
    }

    /// ε-greedy selection: with probability `epsilon` pick a uniform random
    /// candidate, otherwise the greedy one.
    pub fn select_action(&mut self, state: &[f64], actions: &[Vec<f64>], epsilon: f64) -> usize {
        assert!(!actions.is_empty(), "cannot pick from an empty action set");
        if self.rng.gen_range(0.0..1.0) < epsilon {
            self.rng.gen_range(0..actions.len())
        } else {
            self.best_action(state, actions).0
        }
    }

    /// Stores a transition in the replay memory.
    pub fn push_transition(&mut self, t: Transition) {
        self.replay.push(t);
    }

    /// One minibatch gradient step (Algorithm 1, line 19). Returns the batch
    /// MSE loss, or `None` when fewer than `batch_size` transitions are
    /// stored yet. The target network is synced automatically every
    /// `target_sync_every` updates (line 20).
    pub fn train_step(&mut self) -> Option<f64> {
        if self.replay.len() < self.cfg.batch_size {
            return None;
        }
        let _span = isrl_obs::span("dqn_train");
        isrl_obs::add("dqn.train_steps", 1);
        // Sample indices first so the borrow of replay ends before training.
        let batch: Vec<Transition> = self
            .replay
            .sample(self.cfg.batch_size, &mut self.rng)
            .into_iter()
            .cloned()
            .collect();

        let gamma = self.cfg.gamma;
        let mut total = Gradients::zeros_like(&self.q);
        let mut loss_acc = 0.0;
        for t in &batch {
            // Bootstrapped target from the frozen network.
            let y = match &t.next {
                None => t.reward,
                Some(n) => {
                    debug_assert!(!n.actions.is_empty(), "successor had no actions");
                    // Plain max(): a NaN-poisoned network leaves `best` at
                    // -inf, the loss goes non-finite, and the training
                    // watchdog — not an assert — reports the blow-up.
                    let mut best = f64::NEG_INFINITY;
                    for a in &n.actions {
                        Self::encode_into(&mut self.scratch, &n.state, a);
                        best = best.max(self.target.forward(&self.scratch)[0]);
                    }
                    t.reward + gamma * best
                }
            };
            Self::encode_into(&mut self.scratch, &t.state, &t.action);
            let (pred, cache) = self.q.forward_cached(&self.scratch);
            let dloss = loss::mse_grad(&pred, &[y]);
            loss_acc += loss::mse(&pred, &[y]);
            total.accumulate(&self.q.backward(&cache, &dloss));
        }
        total.scale(1.0 / batch.len() as f64);
        if let Some(clip) = self.cfg.grad_clip {
            total.clip_norm(clip);
        }
        if self.cfg.use_adam {
            self.adam.step(&mut self.q, &total);
        } else {
            self.sgd.step(&mut self.q, &total);
        }
        self.updates += 1;
        if self.updates % self.cfg.target_sync_every == 0 {
            self.target.copy_params_from(&self.q);
            isrl_obs::add("dqn.target_syncs", 1);
        }
        let loss = loss_acc / batch.len() as f64;
        if !loss.is_finite() {
            isrl_obs::add("dqn.nonfinite_loss", 1);
        }
        isrl_obs::sketch_record("dqn.loss", loss);
        Some(loss)
    }

    /// Forces a target-network sync (used at the end of training).
    pub fn sync_target(&mut self) {
        self.target.copy_params_from(&self.q);
    }

    /// Read-only access to the main network (serialization, inspection).
    pub fn network(&self) -> &Mlp {
        &self.q
    }

    /// Replaces the main network's parameters (checkpoint restore) and syncs
    /// the target network to match.
    pub fn load_params(&mut self, flat: &[f64]) {
        self.q.from_flat(flat);
        self.sync_target();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::NextState;

    /// A 1-step bandit: two candidate actions, action [1,0] pays 1, [0,1]
    /// pays 0. The DQN should learn to rank them within a few hundred steps.
    #[test]
    fn n_params_matches_the_built_network() {
        let mut cfg = DqnConfig::paper_default(7, 4);
        assert_eq!(
            cfg.n_params(),
            Some(Dqn::new(cfg.clone()).network().n_params())
        );
        cfg.hidden = vec![5, 3];
        assert_eq!(
            cfg.n_params(),
            Some(Dqn::new(cfg.clone()).network().n_params())
        );
        assert_eq!(DqnConfig::paper_default(usize::MAX, 1).n_params(), None);
    }

    #[test]
    fn dqn_learns_a_trivial_bandit() {
        let mut cfg = DqnConfig::paper_default(1, 2).with_seed(3);
        cfg.batch_size = 16;
        cfg.lr = 0.01;
        let mut dqn = Dqn::new(cfg);
        let state = vec![0.5];
        let good = vec![1.0, 0.0];
        let bad = vec![0.0, 1.0];
        for _ in 0..200 {
            dqn.push_transition(Transition {
                state: state.clone(),
                action: good.clone(),
                reward: 1.0,
                next: None,
            });
            dqn.push_transition(Transition {
                state: state.clone(),
                action: bad.clone(),
                reward: 0.0,
                next: None,
            });
            dqn.train_step();
        }
        let (idx, _) = dqn.best_action(&state, &[bad.clone(), good.clone()]);
        assert_eq!(idx, 1, "agent should prefer the rewarded action");
        assert!(dqn.q_value(&state, &good) > dqn.q_value(&state, &bad));
    }

    /// A 2-step chain: s0 --a--> s1 --a--> terminal(+10). Q(s0) should
    /// approach γ·10 and Q(s1) → 10, verifying the bootstrapped target.
    #[test]
    fn dqn_propagates_value_through_bootstrap() {
        let mut cfg = DqnConfig::paper_default(2, 1).with_seed(5);
        cfg.batch_size = 8;
        cfg.lr = 0.02;
        cfg.gamma = 0.8;
        cfg.target_sync_every = 5;
        let mut dqn = Dqn::new(cfg);
        let s0 = vec![1.0, 0.0];
        let s1 = vec![0.0, 1.0];
        let a = vec![1.0];
        for _ in 0..400 {
            dqn.push_transition(Transition {
                state: s0.clone(),
                action: a.clone(),
                reward: 0.0,
                next: Some(NextState {
                    state: s1.clone(),
                    actions: vec![a.clone()],
                }),
            });
            dqn.push_transition(Transition {
                state: s1.clone(),
                action: a.clone(),
                reward: 10.0,
                next: None,
            });
            dqn.train_step();
        }
        dqn.sync_target();
        let q1 = dqn.q_value(&s1, &a);
        let q0 = dqn.q_value(&s0, &a);
        assert!(
            (q1 - 10.0).abs() < 1.5,
            "Q(s1) should approach 10, got {q1}"
        );
        assert!(
            (q0 - 8.0).abs() < 1.5,
            "Q(s0) should approach γ·10 = 8, got {q0}"
        );
    }

    #[test]
    fn train_step_waits_for_enough_data() {
        let mut dqn = Dqn::new(DqnConfig::paper_default(1, 1));
        assert!(dqn.train_step().is_none());
        assert_eq!(dqn.updates(), 0);
    }

    #[test]
    fn epsilon_one_explores_uniformly() {
        let mut dqn = Dqn::new(DqnConfig::paper_default(1, 1).with_seed(7));
        let actions = vec![vec![0.0], vec![1.0], vec![2.0]];
        let mut seen = [0usize; 3];
        for _ in 0..300 {
            seen[dqn.select_action(&[0.5], &actions, 1.0)] += 1;
        }
        assert!(
            seen.iter().all(|&c| c > 50),
            "all actions explored: {seen:?}"
        );
    }

    #[test]
    fn epsilon_zero_is_greedy() {
        let mut dqn = Dqn::new(DqnConfig::paper_default(1, 1).with_seed(8));
        let actions = vec![vec![0.1], vec![0.9]];
        let greedy = dqn.best_action(&[0.5], &actions).0;
        for _ in 0..20 {
            assert_eq!(dqn.select_action(&[0.5], &actions, 0.0), greedy);
        }
    }

    #[test]
    fn checkpoint_round_trip_preserves_q_values() {
        let mut a = Dqn::new(DqnConfig::paper_default(2, 2).with_seed(9));
        let flat = a.network().to_flat();
        let mut b = Dqn::new(DqnConfig::paper_default(2, 2).with_seed(10));
        b.load_params(&flat);
        let s = [0.3, 0.7];
        let act = [0.5, 0.5];
        assert_eq!(a.q_value(&s, &act), b.q_value(&s, &act));
    }

    #[test]
    #[should_panic(expected = "empty action set")]
    fn best_action_rejects_empty_set() {
        let mut dqn = Dqn::new(DqnConfig::paper_default(1, 1));
        dqn.best_action(&[0.0], &[]);
    }
}
