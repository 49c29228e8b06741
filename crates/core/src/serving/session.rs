//! An owned per-user interaction with externally supplied dataset scans.
//!
//! A [`ServeSession`] is the one EA/AA round state machine
//! (`crate::round`) plus the two `Arc`s it steps against: the shared,
//! never-mutated policy and dataset. Every round's dataset scan is
//! surfaced as a take/provide pair so the
//! [`SessionRegistry`](super::SessionRegistry) can batch scans across
//! users; questions are chosen greedily against the shared Q-network with
//! a session-owned scratch buffer. Given the same seed, a session asks
//! byte-identical question sequences to the agent's own `run` after
//! `reseed(seed)` (pinned by `tests/serve_isolation.rs`).

use std::sync::Arc;

use crate::interaction::{Question, Stopwatch};
use crate::round::Round;
use crate::serving::ServePolicy;
use isrl_data::Dataset;
use isrl_geometry::Region;
use isrl_linalg::Top1;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::AlgoKind;

/// Errors from the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The dataset has no points to recommend.
    EmptyDataset,
    /// The policy was trained for a different dimensionality.
    DimensionMismatch {
        /// The policy's dimensionality.
        policy: usize,
        /// The dataset's dimensionality.
        data: usize,
    },
    /// `eps` must be a finite positive number.
    BadEpsilon(f64),
    /// `answer` arrived while no question was pending.
    NoPendingQuestion,
    /// No policy of the requested algorithm is registered.
    UnsupportedAlgorithm(AlgoKind),
    /// The session id is not (or no longer) live.
    UnknownSession(u64),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::EmptyDataset => write!(f, "cannot serve an empty dataset"),
            ServeError::DimensionMismatch { policy, data } => {
                write!(f, "policy is {policy}-d but the dataset is {data}-d")
            }
            ServeError::BadEpsilon(e) => write!(f, "eps must be finite and positive, got {e}"),
            ServeError::NoPendingQuestion => write!(f, "no question is pending"),
            ServeError::UnsupportedAlgorithm(kind) => {
                write!(f, "no {} policy is registered", kind.as_str())
            }
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One live user interaction, decoupled from the dataset scan.
///
/// Lifecycle per round: when [`needs_scan`](Self::needs_scan), the driver
/// takes the pending utility vectors ([`take_scan_utilities`]
/// (Self::take_scan_utilities)), computes their dataset top-1s (typically
/// batched with other sessions' scans), and hands the results back
/// ([`provide_scan`](Self::provide_scan)); EA on the exact backend needs
/// two such exchanges per round. The session then either finishes or
/// exposes [`current_question`](Self::current_question), and
/// [`answer`](Self::answer) starts the next round. [`step_blocking`]
/// (Self::step_blocking) runs the exchanges inline for unbatched callers.
pub struct ServeSession {
    policy: Arc<ServePolicy>,
    data: Arc<Dataset>,
    round: Round,
    scratch: Vec<f64>,
    sw: Stopwatch,
}

impl ServeSession {
    /// Opens a session. `seed` drives all per-session randomness (region
    /// sampling, action-space subsampling); the policy itself is never
    /// mutated. The session starts in the scan-pending state.
    pub fn new(
        policy: Arc<ServePolicy>,
        data: Arc<Dataset>,
        eps: f64,
        seed: u64,
    ) -> Result<Self, ServeError> {
        if data.is_empty() {
            return Err(ServeError::EmptyDataset);
        }
        if policy.dim() != data.dim() {
            return Err(ServeError::DimensionMismatch {
                policy: policy.dim(),
                data: data.dim(),
            });
        }
        if !(eps.is_finite() && eps > 0.0) {
            return Err(ServeError::BadEpsilon(eps));
        }
        let round = Round::new(policy.algo_view(), eps, StdRng::seed_from_u64(seed));
        Ok(Self {
            policy,
            data,
            round,
            scratch: Vec::new(),
            sw: Stopwatch::start(),
        })
    }

    /// The algorithm this session runs.
    pub fn algo(&self) -> AlgoKind {
        self.policy.algo()
    }

    /// `true` while a scan is pending and its utilities not yet taken.
    pub fn needs_scan(&self) -> bool {
        self.round.needs_scan()
    }

    /// Takes the pending scan's utility vectors (to be answered with
    /// [`provide_scan`](Self::provide_scan)), or `None` when no scan is
    /// pending.
    pub fn take_scan_utilities(&mut self) -> Option<Vec<Vec<f64>>> {
        self.round.take_scan_utilities()
    }

    /// Delivers the top-1 results for the taken utility vectors (`top1[k]`
    /// answers `utilities[k]`) and advances the round; once its candidate
    /// questions are ready, the greedy one is asked.
    ///
    /// # Panics
    /// Panics if no scan was taken or the lengths disagree — driver bugs,
    /// not user input.
    pub fn provide_scan(&mut self, utilities: &[Vec<f64>], top1: &[Top1]) {
        self.round
            .provide_scan(self.policy.algo_view(), &self.data, utilities, top1);
        self.ask_greedy();
    }

    /// Asks the greedy question once the round's candidates are ready.
    fn ask_greedy(&mut self) {
        let dqn = self.policy.dqn();
        let scratch = &mut self.scratch;
        self.round.choose(self.policy.algo_view(), |state, feats| {
            dqn.best_action_ref(scratch, state, feats).0
        });
    }

    /// Delivers the user's choice (`true` = first point preferred) and
    /// starts the next round. A double answer is user input in a server,
    /// so it is an error rather than a panic.
    pub fn answer(&mut self, prefers_first: bool) -> Result<(), ServeError> {
        self.round
            .answer(self.policy.algo_view(), &self.data, prefers_first)
    }

    /// Runs any pending scans inline against the shared dataset — the
    /// unbatched path for single-session callers.
    pub fn step_blocking(&mut self) {
        self.round.scan_inline(self.policy.algo_view(), &self.data);
        self.ask_greedy();
    }

    /// The pending question, or `None` while scanning or finished.
    pub fn current_question(&self) -> Option<Question> {
        self.round.current_question()
    }

    /// The two points of the pending question, for display.
    pub fn current_points(&self) -> Option<(&[f64], &[f64])> {
        self.current_question()
            .map(|q| (self.data.point(q.i), self.data.point(q.j)))
    }

    /// `true` once no further question will be asked.
    pub fn is_finished(&self) -> bool {
        self.round.is_finished()
    }

    /// Questions answered so far.
    pub fn rounds(&self) -> usize {
        self.round.rounds()
    }

    /// `true` when the session ended without certifying termination.
    pub fn truncated(&self) -> bool {
        self.round.truncated()
    }

    /// The current (or final) recommendation. `None` only before the very
    /// first scan completes.
    pub fn recommendation(&self) -> Option<usize> {
        self.round.recommendation()
    }

    /// The learned utility range so far (half-space view).
    pub fn region(&self) -> &Region {
        self.round.geom().region()
    }

    /// Elapsed wall-clock time since the session opened.
    pub fn elapsed(&self) -> std::time::Duration {
        self.sw.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aa::{AaAgent, AaConfig};
    use crate::ea::{EaAgent, EaConfig};
    use crate::interaction::{InteractiveAlgorithm, TraceMode};
    use crate::regret::regret_ratio_of_index;
    use crate::user::{SimulatedUser, User};

    fn data() -> Arc<Dataset> {
        Arc::new(Dataset::from_points(
            vec![
                vec![1.0, 0.05],
                vec![0.85, 0.4],
                vec![0.6, 0.65],
                vec![0.4, 0.85],
                vec![0.05, 1.0],
            ],
            2,
        ))
    }

    /// Serves `user` to the end of a fresh session.
    fn serve(
        policy: ServePolicy,
        data: &Arc<Dataset>,
        eps: f64,
        seed: u64,
        user: &mut dyn User,
    ) -> ServeSession {
        let mut session = ServeSession::new(Arc::new(policy), Arc::clone(data), eps, seed).unwrap();
        session.step_blocking();
        let mut guard = 0;
        while let Some((p, q)) = session
            .current_points()
            .map(|(a, b)| (a.to_vec(), b.to_vec()))
        {
            session.answer(user.prefers(&p, &q)).unwrap();
            session.step_blocking();
            guard += 1;
            assert!(guard < 500, "session failed to finish");
        }
        session
    }

    #[test]
    fn ea_session_matches_run_and_is_exact() {
        let d = data();
        let truth = vec![0.45, 0.55];
        let eps = 0.1;
        let mut agent = EaAgent::new(2, EaConfig::paper_default().with_seed(7));
        agent.reseed(3);
        let run_out = agent.run(
            &d,
            &mut SimulatedUser::new(truth.clone()),
            eps,
            TraceMode::Off,
        );

        let policy = ServePolicy::Ea(EaAgent::new(2, EaConfig::paper_default().with_seed(7)));
        let session = serve(policy, &d, eps, 3, &mut SimulatedUser::new(truth.clone()));
        assert_eq!(session.rounds(), run_out.rounds);
        assert_eq!(session.recommendation(), Some(run_out.point_index));
        let regret = regret_ratio_of_index(&d, run_out.point_index, &truth);
        assert!(regret < eps, "EA session must stay exact: {regret}");
        assert!(!session.truncated());
    }

    #[test]
    fn ea_recommendation_is_available_after_the_first_scan() {
        let d = data();
        let policy = ServePolicy::Ea(EaAgent::new(2, EaConfig::paper_default().with_seed(8)));
        let mut session = ServeSession::new(Arc::new(policy), Arc::clone(&d), 0.05, 8).unwrap();
        assert_eq!(session.recommendation(), None, "nothing is scanned yet");
        session.step_blocking();
        // Before any answer the recommendation is merely the centroid's
        // favorite — but it must be a valid index.
        assert!(session.recommendation().unwrap() < d.len());
        assert_eq!(session.rounds(), 0);
        assert!(
            !session.is_finished(),
            "eps=0.05 needs at least one question here"
        );
    }

    #[test]
    fn aa_session_reaches_the_same_outcome_as_run() {
        let d = data();
        let truth = vec![0.35, 0.65];
        let mut agent = AaAgent::new(2, AaConfig::paper_default().with_seed(4));
        agent.reseed(4);
        let run_out = agent.run(
            &d,
            &mut SimulatedUser::new(truth.clone()),
            0.1,
            TraceMode::Off,
        );

        let policy = ServePolicy::Aa(AaAgent::new(2, AaConfig::paper_default().with_seed(4)));
        let session = serve(policy, &d, 0.1, 4, &mut SimulatedUser::new(truth));
        assert!(session.is_finished());
        assert_eq!(session.rounds(), run_out.rounds);
        assert_eq!(session.recommendation(), Some(run_out.point_index));
        assert_eq!(session.truncated(), run_out.truncated);
    }

    #[test]
    fn aa_session_produces_a_valid_recommendation() {
        let d = data();
        let truth = vec![0.7, 0.3];
        let policy = ServePolicy::Aa(AaAgent::new(2, AaConfig::paper_default().with_seed(5)));
        let session = serve(policy, &d, 0.1, 5, &mut SimulatedUser::new(truth.clone()));
        let regret = regret_ratio_of_index(&d, session.recommendation().unwrap(), &truth);
        assert!(regret <= 4.0 * 0.1 + 1e-9, "d²ε bound violated: {regret}");
        assert_eq!(session.region().len(), session.rounds());
    }

    #[test]
    fn answering_a_finished_session_is_an_error() {
        let d = Arc::new(Dataset::from_points(vec![vec![0.5, 0.5]], 2));
        let policy = ServePolicy::Aa(AaAgent::new(2, AaConfig::paper_default().with_seed(6)));
        let mut session = ServeSession::new(Arc::new(policy), d, 0.5, 6).unwrap();
        session.step_blocking();
        assert!(session.is_finished(), "single point needs no questions");
        assert_eq!(session.answer(true), Err(ServeError::NoPendingQuestion));
    }
}
