//! The one EA/AA round loop (§III's select → maintain → stop round,
//! Algorithms 1–4).
//!
//! [`Round`] is an owned per-user round state machine. Each round splits at
//! its dataset scans: the state hands out the utility vectors whose top-1
//! points it needs ([`Round::take_scan_utilities`]) and resumes once the
//! caller delivers the results ([`Round::provide_scan`]). The steps borrow
//! the agent's read-only half ([`Algo`]) and the dataset per call, so
//!
//! * [`ServeSession`](crate::serving::ServeSession) owns a `Round` next to
//!   its shared policy and dataset, and the
//!   [`SessionRegistry`](crate::serving::SessionRegistry) batches many
//!   sessions' scans into one `top1_batch` call;
//! * [`episode`] drives a `Round` to the end with inline scans, picking
//!   questions ε-greedily while learning (and running DQN updates between
//!   rounds) or greedily otherwise. Both agents' `train` and `run` go
//!   through it.

use crate::aa::{aa_actions, aa_phase1, AaConfig, AaPhase1};
use crate::ea::{
    distinct, ea_actions, ea_phase1, ea_sample_extras, encode_question, terminal_anchor, EaConfig,
    EaStateEncoder, TrainReport,
};
use crate::interaction::{InteractionOutcome, Question, RoundTrace, Stopwatch, TraceMode};
use crate::serving::ServeError;
use crate::telemetry::{emit_episode_event, emit_round_event, EpisodeProfile};
use crate::watchdog::TrainingWatchdog;
use isrl_data::Dataset;
use isrl_geometry::{Halfspace, RegionGeometry};
use isrl_linalg::{vector, Top1};
use isrl_rl::{Dqn, EpsilonSchedule, NextState, Transition};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The read-only half of an agent that a round step consults.
#[derive(Clone, Copy)]
pub(crate) enum Algo<'a> {
    /// EA: its configuration and state encoder.
    Ea(&'a EaConfig, &'a EaStateEncoder),
    /// AA: its configuration and dimensionality.
    Aa(&'a AaConfig, usize),
}

impl Algo<'_> {
    /// The telemetry label of the `round`/`episode` event streams.
    fn label(self) -> &'static str {
        match self {
            Algo::Ea(..) => "EA",
            Algo::Aa(..) => "AA",
        }
    }

    fn dim(self) -> usize {
        match self {
            Algo::Ea(_, enc) => enc.dim,
            Algo::Aa(_, dim) => dim,
        }
    }

    fn knobs(self) -> Knobs {
        match self {
            Algo::Ea(c, _) => Knobs {
                max_rounds: c.max_rounds,
                reward_c: c.reward_c,
                train_steps_per_round: c.train_steps_per_round,
                epsilon: c.epsilon,
                batch_size: c.batch_size,
            },
            Algo::Aa(c, _) => Knobs {
                max_rounds: c.max_rounds,
                reward_c: c.reward_c,
                train_steps_per_round: c.train_steps_per_round,
                epsilon: c.epsilon,
                batch_size: c.batch_size,
            },
        }
    }
}

/// The configuration fields EA and AA share under the same names.
struct Knobs {
    max_rounds: usize,
    reward_c: f64,
    train_steps_per_round: usize,
    epsilon: EpsilonSchedule,
    batch_size: usize,
}

/// The mutable half of an agent: the Q-network, the RNG that persists
/// across episodes (and is threaded through each one), and the episode
/// counter.
#[derive(Debug)]
pub(crate) struct Learner {
    pub(crate) dqn: Dqn,
    pub(crate) rng: StdRng,
    pub(crate) episodes_trained: u64,
}

/// Pre-scan context carried across a pending scan.
enum Phase1 {
    /// EA: the encoded state (utilities are `[region points.., centroid]`).
    Ea { state: Vec<f64> },
    /// AA: the LP summary (the single utility is the rectangle midpoint).
    Aa(AaPhase1),
}

/// Where a round stands.
enum Stage {
    /// Waiting for the round-opening scan. `utilities` is `Some` until the
    /// caller takes them.
    Scan1 {
        utilities: Option<Vec<Vec<f64>>>,
        pre: Phase1,
    },
    /// EA on the exact backend only: the terminal check said non-terminal,
    /// extra region samples were drawn, and their scans are pending.
    /// `points_top1` keeps the phase-1 per-point argmaxes so `P_R` is
    /// assembled as `[extra samples.., region points..]`.
    Scan2 {
        utilities: Option<Vec<Vec<f64>>>,
        state: Vec<f64>,
        points_top1: Vec<usize>,
    },
    /// Candidate questions are ready for the policy to choose from.
    Choose {
        state: Vec<f64>,
        questions: Vec<Question>,
        feats: Vec<Vec<f64>>,
    },
    /// A question is pending with the user.
    Ask { question: Question },
    /// Finished — a recommendation is available (unless the region
    /// collapsed before the first scan).
    Done,
}

/// One user's interaction state: region geometry, RNG, asked pairs, round
/// count, and where the current round stands.
///
/// Lifecycle per round: while a scan is pending, take its utilities, scan
/// them, and provide the top-1s (EA on the exact backend needs two such
/// exchanges); then [`choose`](Self::choose) a question, and
/// [`answer`](Self::answer) opens the next round. Terminal rounds consume
/// no RNG, so the draw order is the same however the scans are batched.
pub(crate) struct Round {
    eps: f64,
    rng: StdRng,
    geom: RegionGeometry,
    asked: Vec<(usize, usize)>,
    rounds: usize,
    truncated: bool,
    stage: Stage,
    recommendation: Option<usize>,
}

impl Round {
    /// Opens an interaction at threshold `eps`. EA's sampled backend draws
    /// its cloud seed from `rng` first. The round starts scan-pending.
    pub(crate) fn new(algo: Algo<'_>, eps: f64, mut rng: StdRng) -> Self {
        let geom = match algo {
            Algo::Ea(cfg, enc) => {
                if cfg.geometry.resolves_to_sampled(enc.dim) {
                    RegionGeometry::sampled(enc.dim, cfg.walk, rng.next_u64())
                } else {
                    RegionGeometry::exact(enc.dim)
                }
            }
            Algo::Aa(cfg, dim) => {
                let mut g = RegionGeometry::summary_only(dim);
                g.set_warm_lp(cfg.warm_lp);
                g
            }
        };
        let mut round = Self {
            eps,
            rng,
            geom,
            asked: Vec::new(),
            rounds: 0,
            truncated: false,
            stage: Stage::Done,
            recommendation: None,
        };
        round.plan(algo);
        round
    }

    /// `true` while a scan is pending and its utilities not yet taken.
    pub(crate) fn needs_scan(&self) -> bool {
        matches!(
            &self.stage,
            Stage::Scan1 {
                utilities: Some(_),
                ..
            } | Stage::Scan2 {
                utilities: Some(_),
                ..
            }
        )
    }

    /// Takes the pending scan's utility vectors, or `None` when no scan is
    /// pending.
    pub(crate) fn take_scan_utilities(&mut self) -> Option<Vec<Vec<f64>>> {
        match &mut self.stage {
            Stage::Scan1 { utilities, .. } | Stage::Scan2 { utilities, .. } => utilities.take(),
            _ => None,
        }
    }

    /// Delivers the top-1 results for the taken utility vectors (`top1[k]`
    /// answers `utilities[k]`) and advances the round.
    ///
    /// # Panics
    /// Panics if no scan was taken or the lengths disagree — driver bugs,
    /// not user input.
    pub(crate) fn provide_scan(
        &mut self,
        algo: Algo<'_>,
        data: &Dataset,
        utilities: &[Vec<f64>],
        top1: &[Top1],
    ) {
        assert_eq!(utilities.len(), top1.len(), "scan result length mismatch");
        let stage = std::mem::replace(&mut self.stage, Stage::Done);
        match (stage, algo) {
            (
                Stage::Scan1 {
                    utilities: None,
                    pre: Phase1::Ea { state },
                },
                Algo::Ea(cfg, _),
            ) => self.finish_ea_scan1(cfg, data, utilities, top1, state),
            (
                Stage::Scan1 {
                    utilities: None,
                    pre: Phase1::Aa(pre),
                },
                Algo::Aa(cfg, dim),
            ) => {
                // The midpoint's top-1 is both the terminal return and the
                // fallback recommendation (Algorithm 4, line 11).
                self.recommendation = Some(top1[0].index);
                if !pre.terminal {
                    let questions = aa_actions(
                        cfg,
                        dim,
                        data,
                        &mut self.geom,
                        &pre.center,
                        &self.asked,
                        &mut self.rng,
                    );
                    self.offer(data, pre.state, questions);
                }
            }
            (
                Stage::Scan2 {
                    utilities: None,
                    state,
                    points_top1,
                },
                Algo::Ea(cfg, _),
            ) => {
                // `P_R`: the distinct argmaxes over `[extra samples..,
                // region points..]`.
                let p_r = distinct(top1.iter().map(|t| t.index).chain(points_top1));
                let questions = ea_actions(cfg, &p_r, &self.asked, &mut self.rng);
                self.offer(data, state, questions);
            }
            _ => panic!("no taken scan is pending for this algorithm"),
        }
    }

    /// Runs every pending scan inline against `data`.
    pub(crate) fn scan_inline(&mut self, algo: Algo<'_>, data: &Dataset) {
        while let Some(utilities) = self.take_scan_utilities() {
            let top1 = {
                let _t = isrl_obs::span("top1");
                data.top1_batch(&utilities)
            };
            self.provide_scan(algo, data, &utilities, &top1);
        }
    }

    /// EA phase 1 done (`utilities` are `[region points.., centroid]`):
    /// run the Lemma 6 terminal check over the points' argmaxes. Terminal →
    /// finished; sampled backend → the cloud already is `V`, so `P_R` is
    /// the anchor set; exact backend → draw the extra samples of `V` (only
    /// now, so terminal rounds consume no RNG) and queue their scans.
    fn finish_ea_scan1(
        &mut self,
        cfg: &EaConfig,
        data: &Dataset,
        utilities: &[Vec<f64>],
        top1: &[Top1],
        state: Vec<f64>,
    ) {
        let (points, points_top1) = (&utilities[..top1.len() - 1], &top1[..top1.len() - 1]);
        let anchors = distinct(points_top1.iter().map(|t| t.index));
        let terminal = {
            let _t = isrl_obs::span("terminal_check");
            terminal_anchor(data, &anchors, points, self.eps)
        };
        self.recommendation = Some(terminal.unwrap_or(top1[points.len()].index));
        if terminal.is_some() {
            return;
        }
        if self.geom.is_sampled() {
            let questions = ea_actions(cfg, &anchors, &self.asked, &mut self.rng);
            self.offer(data, state, questions);
        } else {
            let extras = ea_sample_extras(cfg, &self.geom, points, &mut self.rng);
            self.stage = Stage::Scan2 {
                utilities: Some(extras),
                state,
                points_top1: points_top1.iter().map(|t| t.index).collect(),
            };
        }
    }

    /// Moves to the choice stage over `questions`, encoding each one's
    /// features for the Q-network.
    fn offer(&mut self, data: &Dataset, state: Vec<f64>, questions: Vec<Question>) {
        let feats = questions
            .iter()
            .map(|&q| encode_question(data, q))
            .collect();
        self.stage = Stage::Choose {
            state,
            questions,
            feats,
        };
    }

    /// The candidate questions' state and features, while a choice is
    /// pending (possibly an empty set — a dead end).
    fn options(&self) -> Option<(&[f64], &[Vec<f64>])> {
        match &self.stage {
            Stage::Choose { state, feats, .. } => Some((state, feats)),
            _ => None,
        }
    }

    /// Asks the question `pick(state, features)` selects, and hands back
    /// the state and the chosen question's features (a learner's
    /// transition). Finishes truncated instead — returning `None` — when
    /// no candidate is left or the round cap is reached, and returns
    /// `None` when no choice is pending.
    pub(crate) fn choose(
        &mut self,
        algo: Algo<'_>,
        pick: impl FnOnce(&[f64], &[Vec<f64>]) -> usize,
    ) -> Option<(Vec<f64>, Vec<f64>)> {
        let (state, questions, mut feats) = match std::mem::replace(&mut self.stage, Stage::Done) {
            Stage::Choose {
                state,
                questions,
                feats,
            } => (state, questions, feats),
            other => {
                self.stage = other;
                return None;
            }
        };
        if questions.is_empty() || self.rounds >= algo.knobs().max_rounds {
            self.truncated = true;
            return None;
        }
        let idx = pick(&state, &feats);
        self.stage = Stage::Ask {
            question: questions[idx],
        };
        Some((state, feats.swap_remove(idx)))
    }

    /// Opens the next round: derive the scan-free phase-1 context from the
    /// current region, or finish truncated when the region has collapsed.
    fn plan(&mut self, algo: Algo<'_>) {
        let planned = match algo {
            Algo::Ea(_, enc) => ea_phase1(enc, &self.geom)
                .map(|(state, utilities)| (Phase1::Ea { state }, utilities)),
            Algo::Aa(..) => aa_phase1(&mut self.geom, self.eps)
                .map(|(pre, utilities)| (Phase1::Aa(pre), utilities)),
        };
        self.stage = match planned {
            None => {
                self.truncated = true;
                Stage::Done
            }
            Some((pre, utilities)) => Stage::Scan1 {
                utilities: Some(utilities),
                pre,
            },
        };
    }

    /// Delivers the user's choice (`true` = first point preferred): cuts
    /// the region and opens the next round.
    pub(crate) fn answer(
        &mut self,
        algo: Algo<'_>,
        data: &Dataset,
        prefers_first: bool,
    ) -> Result<(), ServeError> {
        let Stage::Ask { question: q } = self.stage else {
            return Err(ServeError::NoPendingQuestion);
        };
        let (win, lose) = if prefers_first {
            (q.i, q.j)
        } else {
            (q.j, q.i)
        };
        self.asked.push((q.i.min(q.j), q.i.max(q.j)));
        self.rounds += 1;
        if let Some(h) = Halfspace::preferring(data.point(win), data.point(lose)) {
            self.geom.add(h);
        }
        self.plan(algo);
        Ok(())
    }

    /// The pending question, or `None` while scanning, choosing or
    /// finished.
    pub(crate) fn current_question(&self) -> Option<Question> {
        match self.stage {
            Stage::Ask { question } => Some(question),
            _ => None,
        }
    }

    /// `true` once no further question will be asked.
    pub(crate) fn is_finished(&self) -> bool {
        matches!(self.stage, Stage::Done)
    }

    /// Questions answered so far.
    pub(crate) fn rounds(&self) -> usize {
        self.rounds
    }

    /// `true` when the interaction ended without certifying termination.
    pub(crate) fn truncated(&self) -> bool {
        self.truncated
    }

    /// The current (or final) recommendation. `None` only before the very
    /// first scan completes.
    pub(crate) fn recommendation(&self) -> Option<usize> {
        self.recommendation
    }

    /// The region geometry learned so far.
    pub(crate) fn geom(&self) -> &RegionGeometry {
        &self.geom
    }

    /// The region's volume proxy (cached per cut; see `RegionGeometry`).
    fn volume_proxy(&mut self) -> Option<f64> {
        self.geom.volume_proxy()
    }
}

/// Runs one interaction to the end with inline scans. `explore` is
/// `Some(ε)` while learning — ε-greedy choices, one replay transition and
/// `train_steps_per_round` DQN updates per round — and `None` for greedy
/// inference. The agent's persistent RNG is moved into the round and back.
/// Returns the outcome and the episode's mean TD loss (`None` when no
/// update ran).
pub(crate) fn episode(
    algo: Algo<'_>,
    learner: &mut Learner,
    data: &Dataset,
    answer: &mut dyn FnMut(&[f64], &[f64]) -> bool,
    eps: f64,
    explore: Option<f64>,
    trace_mode: TraceMode,
) -> (InteractionOutcome, Option<f64>) {
    assert_eq!(data.dim(), algo.dim(), "dataset dimension mismatch");
    assert!(!data.is_empty(), "cannot interact over an empty dataset");
    let label = algo.label();
    let knobs = algo.knobs();
    let sw = Stopwatch::start();
    let mut profile = EpisodeProfile::begin(label);
    let rng = std::mem::replace(&mut learner.rng, StdRng::seed_from_u64(0));
    let mut round = Round::new(algo, eps, rng);
    round.scan_inline(algo, data);
    let mut trace: Vec<RoundTrace> = Vec::new();
    let (mut loss_sum, mut loss_n) = (0.0, 0u64);

    loop {
        // Per-round snapshots go into the trace and the `round` event
        // stream whenever either consumer is active; per-phase time is the
        // episode profile's.
        let record = trace_mode.should_trace(round.rounds() + 1) || isrl_obs::enabled();
        let round_started = sw.elapsed();
        let chosen = round.choose(algo, |state, feats| {
            let _nn = isrl_obs::span("nn");
            match explore {
                Some(e) => learner.dqn.select_action(state, feats, e),
                None => learner.dqn.best_action(state, feats).0,
            }
        });
        let Some((state, action)) = chosen else {
            // Terminal, a dead end, or the round cap.
            break;
        };
        let q = round
            .current_question()
            .expect("a question was just chosen");
        let prefers_first = answer(data.point(q.i), data.point(q.j));
        let support_before = round.geom().support_size();
        round
            .answer(algo, data, prefers_first)
            .expect("a question is pending");
        round.scan_inline(algo, data);
        profile.set_rounds(round.rounds());
        if round.is_finished() && round.truncated() {
            // The region numerically collapsed: finish on the last known
            // recommendation, without a transition.
            break;
        }

        if explore.is_some() {
            let (reward, next) = match round.options() {
                None => (knobs.reward_c, None),
                Some((_, [])) => (0.0, None),
                Some((state, feats)) => (
                    0.0,
                    Some(NextState {
                        state: state.to_vec(),
                        actions: feats.to_vec(),
                    }),
                ),
            };
            learner.dqn.push_transition(Transition {
                state,
                action,
                reward,
                next,
            });
            for _ in 0..knobs.train_steps_per_round.max(1) {
                if let Some(loss) = learner.dqn.train_step() {
                    loss_sum += loss;
                    loss_n += 1;
                }
            }
        }

        if record {
            let rounds = round.rounds();
            let support_after = round.geom().support_size();
            let volume = round.volume_proxy();
            if isrl_obs::enabled() {
                emit_round_event(
                    label,
                    rounds,
                    Some(q),
                    sw.elapsed(),
                    (sw.elapsed() - round_started).as_secs_f64() * 1e3,
                    support_before,
                    support_after,
                    volume,
                );
            }
            if trace_mode.should_trace(rounds) {
                let best = round.recommendation().expect("scanned rounds recommend");
                let mut t =
                    RoundTrace::new(rounds, sw.elapsed(), best, round.geom().region().clone());
                t.vertex_count = support_after;
                t.volume_proxy = volume;
                trace.push(t);
            }
        }
    }

    let outcome = InteractionOutcome {
        point_index: round
            .recommendation()
            .expect("the full utility simplex is never empty"),
        rounds: round.rounds(),
        elapsed: sw.elapsed(),
        trace,
        truncated: round.truncated(),
    };
    learner.rng = round.rng;
    let loss = (loss_n > 0).then(|| loss_sum / loss_n as f64);
    (outcome, loss)
}

/// Trains an agent on simulated users (Algorithms 1 and 3): one learning
/// episode per training utility vector, ε-greedy per the configured
/// schedule, then a final target-network sync.
pub(crate) fn train(
    algo: Algo<'_>,
    learner: &mut Learner,
    data: &Dataset,
    utilities: &[Vec<f64>],
    eps: f64,
) -> TrainReport {
    let label = algo.label();
    let knobs = algo.knobs();
    let mut rounds = Vec::with_capacity(utilities.len());
    let mut watchdog = TrainingWatchdog::new(label, knobs.batch_size);
    for u in utilities {
        let explore = knobs.epsilon.value(learner.episodes_trained);
        let mut answer = |p_i: &[f64], p_j: &[f64]| vector::dot(u, p_i) >= vector::dot(u, p_j);
        let (outcome, loss) = episode(
            algo,
            learner,
            data,
            &mut answer,
            eps,
            Some(explore),
            TraceMode::Off,
        );
        let reward = if outcome.truncated {
            0.0
        } else {
            knobs.reward_c
        };
        let replay_len = learner.dqn.replay_len();
        emit_episode_event(
            label,
            learner.episodes_trained,
            outcome.rounds,
            explore,
            reward,
            replay_len,
            outcome.truncated,
            loss,
        );
        watchdog.observe(learner.episodes_trained, explore, replay_len, loss);
        rounds.push(outcome.rounds);
        learner.episodes_trained += 1;
    }
    learner.dqn.sync_target();
    let mut report = TrainReport::from_rounds(rounds);
    report.anomalies = watchdog.anomalies().to_vec();
    report
}
