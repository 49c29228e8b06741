//! The interaction framework shared by every algorithm.
//!
//! §III of the paper structures the interactive regret query into rounds of
//! *question selection* → *information maintenance* → *stopping condition*.
//! This module fixes the common vocabulary: questions are index pairs into
//! the dataset, every algorithm implements [`InteractiveAlgorithm`], and a
//! run produces an [`InteractionOutcome`] optionally carrying a per-round
//! trace (the utility-range snapshot Figures 7–8 are computed from).

use isrl_data::Dataset;
use isrl_geometry::Region;
use std::time::{Duration, Instant};

use crate::user::User;

/// A question: "do you prefer `data[i]` or `data[j]`?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Question {
    /// Index of the first point.
    pub i: usize,
    /// Index of the second point.
    pub j: usize,
}

/// Whether to collect per-round snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No per-round data (fast path for sweeps).
    Off,
    /// Record round, elapsed time, current recommendation, and the region.
    PerRound,
    /// Like [`TraceMode::PerRound`] but only for the first `n` rounds —
    /// snapshots clone the region (O(rounds) half-spaces each), so tracing
    /// a multi-thousand-round SinglePass run would cost O(rounds²) memory.
    FirstRounds(usize),
}

impl TraceMode {
    /// `true` iff a snapshot should be recorded for 1-based `round`.
    pub fn should_trace(&self, round: usize) -> bool {
        match *self {
            TraceMode::Off => false,
            TraceMode::PerRound => true,
            TraceMode::FirstRounds(n) => round <= n,
        }
    }
}

/// One per-round snapshot.
#[derive(Debug, Clone)]
pub struct RoundTrace {
    /// 1-based round number.
    pub round: usize,
    /// Wall-clock time from the start of the interaction to the end of
    /// this round.
    pub elapsed: Duration,
    /// The point the algorithm would currently return.
    pub best_index: usize,
    /// The utility range learned so far (half-space view).
    pub region: Region,
    /// Vertex count of the incrementally-maintained polytope after this
    /// round's cut (algorithms that track vertices only).
    pub vertex_count: Option<usize>,
    /// Outer-rectangle volume proxy of the region after this round's cut
    /// (see `RegionGeometry::volume_proxy`), when cheaply available.
    pub volume_proxy: Option<f64>,
}

impl RoundTrace {
    /// A snapshot with the mandatory fields; geometry summaries start empty
    /// and are filled in by callers that track them.
    pub fn new(round: usize, elapsed: Duration, best_index: usize, region: Region) -> Self {
        Self {
            round,
            elapsed,
            best_index,
            region,
            vertex_count: None,
            volume_proxy: None,
        }
    }
}

/// The result of a full interaction.
#[derive(Debug, Clone)]
pub struct InteractionOutcome {
    /// Index of the returned point.
    pub point_index: usize,
    /// Number of questions asked (= interactive rounds).
    pub rounds: usize,
    /// Total wall-clock time of the interaction.
    pub elapsed: Duration,
    /// Per-round snapshots when requested, else empty.
    pub trace: Vec<RoundTrace>,
    /// `true` when the algorithm hit its safety round cap instead of its
    /// stopping condition (reported, never silently dropped).
    pub truncated: bool,
}

/// An interactive regret-query algorithm.
pub trait InteractiveAlgorithm {
    /// Short display name ("EA", "UH-Random", …).
    fn name(&self) -> &'static str;

    /// Runs a full interaction with `user` on `data`, targeting regret
    /// threshold `eps`.
    fn run(
        &mut self,
        data: &Dataset,
        user: &mut dyn User,
        eps: f64,
        trace: TraceMode,
    ) -> InteractionOutcome;

    /// Reseeds the algorithm's internal randomness. Parallel sweeps call
    /// this before every interaction with a seed derived from the work
    /// item's coordinates, making each outcome independent of thread
    /// scheduling. Deterministic algorithms keep the default no-op.
    fn reseed(&mut self, _seed: u64) {}
}

/// A tiny stopwatch wrapper so algorithms report consistent timings.
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn question_is_plain_data() {
        let q = Question { i: 3, j: 7 };
        assert_eq!(q, Question { i: 3, j: 7 });
    }

    #[test]
    fn stopwatch_reports_monotonically() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
    }
}
