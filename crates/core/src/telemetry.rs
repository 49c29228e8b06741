//! Event-emission helpers shared by the interactive algorithms.
//!
//! All algorithms speak the same trace schema (see `isrl_obs::schema` and
//! DESIGN.md §9): one `round` event per question asked, one `episode` event
//! per training episode. The helpers here own the field layout so EA, AA
//! and the baselines cannot drift apart.

use crate::interaction::Question;
use isrl_obs::Event;
use std::time::Duration;

/// Emits one `round` event. `q` is `None` for algorithms whose questions
/// are synthetic comparisons rather than dataset pairs (UtilityApprox);
/// `round_ms` is this round's own wall time (elapsed is cumulative) and
/// also feeds the `round.latency_ms` quantile sketch so traces carry
/// p50/p90/p99 round latency; `vertices_before`/`after` and `volume_proxy`
/// are omitted from the event when the algorithm does not track them.
/// No-op when the sink is disabled.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_round_event(
    algo: &'static str,
    round: usize,
    q: Option<Question>,
    elapsed: Duration,
    round_ms: f64,
    vertices_before: Option<usize>,
    vertices_after: Option<usize>,
    volume_proxy: Option<f64>,
) {
    if !isrl_obs::enabled() {
        return;
    }
    isrl_obs::add("rounds.total", 1);
    isrl_obs::sketch_record("round.latency_ms", round_ms);
    let mut ev = Event::new("round")
        .field("algo", algo)
        .field("round", round)
        .field("elapsed_ms", elapsed.as_secs_f64() * 1e3)
        .field("round_ms", round_ms);
    if let Some(q) = q {
        ev = ev.field("i", q.i).field("j", q.j);
    }
    if let Some(v) = vertices_before {
        ev = ev.field("vertices_before", v);
    }
    if let Some(v) = vertices_after {
        ev = ev.field("vertices_after", v);
    }
    if let Some(v) = volume_proxy {
        ev = ev.field("volume_proxy", v);
    }
    isrl_obs::emit(ev);
}

/// Emits one `episode` event after a learning episode. No-op when the sink
/// is disabled.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_episode_event(
    algo: &'static str,
    episode: u64,
    rounds: usize,
    epsilon: f64,
    reward: f64,
    replay_len: usize,
    truncated: bool,
    loss_mean: Option<f64>,
) {
    if !isrl_obs::enabled() {
        return;
    }
    // The snapshotter rates episodes/sec off this counter and reports the
    // replay level as a last-value gauge (levels don't delta-subtract).
    isrl_obs::add("train.episodes", 1);
    isrl_obs::gauge_set("dqn.replay_occupancy", replay_len as u64);
    let mut ev = Event::new("episode")
        .field("algo", algo)
        .field("episode", episode)
        .field("rounds", rounds)
        .field("epsilon", epsilon)
        .field("reward", reward)
        .field("replay_len", replay_len)
        .field("truncated", truncated);
    if let Some(l) = loss_mean {
        ev = ev.field("loss_mean", l);
    }
    isrl_obs::emit(ev);
}

/// RAII scope emitting one `profile` event per episode: while alive (and
/// the sink was enabled at entry) every finishing span accumulates into a
/// per-path call tree, and drop freezes it with self-vs-child accounting
/// (see `isrl_obs::profile`). Covering every exit of an episode by
/// construction is the point of doing this in a guard.
pub(crate) struct EpisodeProfile {
    algo: &'static str,
    rounds: usize,
    active: bool,
}

impl EpisodeProfile {
    /// Opens the scope (no-op when the sink is disabled).
    pub(crate) fn begin(algo: &'static str) -> Self {
        let active = isrl_obs::enabled();
        if active {
            isrl_obs::profile_begin();
        }
        Self {
            algo,
            rounds: 0,
            active,
        }
    }

    /// Updates the round count stamped on the event at drop.
    pub(crate) fn set_rounds(&mut self, rounds: usize) {
        self.rounds = rounds;
    }
}

impl Drop for EpisodeProfile {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let pairs = isrl_obs::profile_end();
        if pairs.is_empty() {
            return;
        }
        isrl_obs::emit(isrl_obs::profile::profile_event(
            self.algo,
            self.rounds as u64,
            &pairs,
        ));
    }
}
