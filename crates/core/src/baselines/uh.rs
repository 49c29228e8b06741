//! Shared machinery of the UH-family baselines (Xie et al., SIGMOD 2019).
//!
//! UH-Random and UH-Simplex maintain the utility range as an explicit
//! polyhedron — the same geometry EA uses — and differ only in *question
//! selection*: UH-Random picks a uniformly random pair of still-viable
//! candidates, UH-Simplex greedily picks the two candidates most likely to
//! be the user's favorite (highest utility w.r.t. the region's centroid;
//! see DESIGN.md §2 on this published-description-level reconstruction).
//! Both are *short-term* strategies: no learning, no look-ahead — exactly
//! the behaviour the paper's Figure 1 argument criticizes.

use crate::ea::{check_terminal, terminal_points};
use crate::interaction::{
    InteractionOutcome, InteractiveAlgorithm, Question, RoundTrace, Stopwatch, TraceMode,
};
use crate::telemetry::{emit_round_event, EpisodeProfile};
use crate::user::User;
use isrl_data::Dataset;
use isrl_geometry::{sampling, Halfspace, Polytope, Region, RegionLpCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Question-selection policy of a UH baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UhStrategy {
    /// Uniform random pair of candidates (UH-Random).
    Random,
    /// The two candidates with the highest centroid utility (UH-Simplex).
    Simplex,
}

/// Configuration shared by the UH baselines.
#[derive(Debug, Clone)]
pub struct UhConfig {
    /// Utility vectors sampled per round to identify candidate points.
    pub n_samples: usize,
    /// Safety cap on rounds.
    pub max_rounds: usize,
    /// RNG seed.
    pub seed: u64,
    /// Per-round budget of warm-started cut-test LPs spent screening
    /// candidate questions for ones whose hyperplane still cuts the
    /// region (0 disables the screen). A pair that fails the screen can
    /// still be asked — the original selection is the fallback — so this
    /// only steers the baselines away from wasted questions.
    pub cut_lp_checks: usize,
}

impl Default for UhConfig {
    fn default() -> Self {
        Self {
            n_samples: 100,
            max_rounds: 150,
            seed: 0,
            cut_lp_checks: 8,
        }
    }
}

/// A UH-family baseline.
#[derive(Debug)]
pub struct UhBaseline {
    strategy: UhStrategy,
    cfg: UhConfig,
    rng: StdRng,
}

impl UhBaseline {
    /// Creates a baseline with the given strategy.
    pub fn new(strategy: UhStrategy, cfg: UhConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(17));
        Self { strategy, cfg, rng }
    }

    /// UH-Random with default configuration.
    pub fn random(seed: u64) -> Self {
        Self::new(
            UhStrategy::Random,
            UhConfig {
                seed,
                ..UhConfig::default()
            },
        )
    }

    /// UH-Simplex with default configuration.
    pub fn simplex(seed: u64) -> Self {
        Self::new(
            UhStrategy::Simplex,
            UhConfig {
                seed,
                ..UhConfig::default()
            },
        )
    }

    /// Candidate points still able to be the user's favorite, found the
    /// same way EA builds `P_R` (sampled + extreme utility vectors).
    fn candidates(&mut self, data: &Dataset, region: &Region, vertices: &[Vec<f64>]) -> Vec<usize> {
        let mut samples = {
            let _s = isrl_obs::span("sampling");
            sampling::sample_region_rejection(
                region.dim(),
                region.halfspaces(),
                self.cfg.n_samples,
                self.cfg.n_samples * 10,
                &mut self.rng,
            )
        };
        if samples.len() < self.cfg.n_samples {
            let _s = isrl_obs::span("sampling");
            let need = self.cfg.n_samples - samples.len();
            samples.extend(sampling::sample_vertex_mixture(
                vertices,
                need,
                &mut self.rng,
            ));
        }
        samples.extend(vertices.iter().cloned());
        let _t = isrl_obs::span("top1");
        terminal_points(data, samples.iter())
    }

    /// `true` when the pair's hyperplane provably cuts the region, `None`
    /// when the screen is disabled / budget exhausted / pair degenerate.
    fn screen_cut(
        data: &Dataset,
        region: &Region,
        lp: &mut RegionLpCache,
        budget: &mut usize,
        a: usize,
        b: usize,
    ) -> Option<bool> {
        if *budget == 0 {
            return None;
        }
        let h = Halfspace::preferring(data.point(a), data.point(b))?;
        *budget -= 1;
        Some(region.is_cut_by_with(&h, lp))
    }

    fn select_question(
        &mut self,
        data: &Dataset,
        region: &Region,
        lp: &mut RegionLpCache,
        candidates: &[usize],
        centroid: &[f64],
        asked: &[(usize, usize)],
    ) -> Option<Question> {
        if candidates.len() < 2 {
            return None;
        }
        // Both strategies first look for a pair whose hyperplane still
        // cuts the region (a warm-started LP pair per check, bounded by
        // `cut_lp_checks`); an unscreened or screen-failing pair is kept
        // as the fallback so selection never comes back empty where the
        // unscreened policy would have picked something.
        let mut budget = self.cfg.cut_lp_checks;
        let mut fallback: Option<Question> = None;
        match self.strategy {
            UhStrategy::Random => {
                // Uniform random unasked pair; falls back to any pair when
                // every pair has been asked.
                for _ in 0..50 {
                    let a = candidates[self.rng.gen_range(0..candidates.len())];
                    let b = candidates[self.rng.gen_range(0..candidates.len())];
                    if a != b && !asked.contains(&(a.min(b), a.max(b))) {
                        let q = Question { i: a, j: b };
                        match Self::screen_cut(data, region, lp, &mut budget, a, b) {
                            Some(true) => return Some(q),
                            Some(false) => fallback.get_or_insert(q),
                            None => return Some(fallback.unwrap_or(q)),
                        };
                    }
                }
                Some(fallback.unwrap_or(Question {
                    i: candidates[0],
                    j: candidates[1],
                }))
            }
            UhStrategy::Simplex => {
                // Rank candidates by centroid utility; question the best
                // unasked pair among the leaders.
                let mut ranked: Vec<usize> = candidates.to_vec();
                ranked.sort_by(|&a, &b| {
                    data.utility(b, centroid)
                        .partial_cmp(&data.utility(a, centroid))
                        .expect("NaN utility")
                });
                for (ai, &a) in ranked.iter().enumerate() {
                    for &b in &ranked[ai + 1..] {
                        if !asked.contains(&(a.min(b), a.max(b))) {
                            let q = Question { i: a, j: b };
                            match Self::screen_cut(data, region, lp, &mut budget, a, b) {
                                Some(true) => return Some(q),
                                Some(false) => fallback.get_or_insert(q),
                                None => return Some(fallback.unwrap_or(q)),
                            };
                        }
                    }
                }
                Some(fallback.unwrap_or(Question {
                    i: ranked[0],
                    j: ranked[1],
                }))
            }
        }
    }
}

impl InteractiveAlgorithm for UhBaseline {
    fn name(&self) -> &'static str {
        match self.strategy {
            UhStrategy::Random => "UH-Random",
            UhStrategy::Simplex => "UH-Simplex",
        }
    }

    fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    fn run(
        &mut self,
        data: &Dataset,
        user: &mut dyn User,
        eps: f64,
        trace_mode: TraceMode,
    ) -> InteractionOutcome {
        assert!(!data.is_empty(), "cannot interact over an empty dataset");
        let sw = Stopwatch::start();
        let mut profile = EpisodeProfile::begin(self.name());
        let mut region = Region::full(data.dim());
        // Warm-start bases for the per-round cut screens; carried across
        // rounds because the region only gains half-spaces within a run.
        let mut lp = RegionLpCache::new();
        let mut asked: Vec<(usize, usize)> = Vec::new();
        let mut trace: Vec<RoundTrace> = Vec::new();
        let mut rounds = 0usize;
        let mut last_best = 0usize;

        loop {
            let Some(polytope) = Polytope::from_region(&region) else {
                return InteractionOutcome {
                    point_index: last_best,
                    rounds,
                    elapsed: sw.elapsed(),
                    trace,
                    truncated: true,
                };
            };
            let vertices = polytope.vertices().to_vec();
            if let Some(p) = check_terminal(data, &vertices, eps) {
                return InteractionOutcome {
                    point_index: p,
                    rounds,
                    elapsed: sw.elapsed(),
                    trace,
                    truncated: false,
                };
            }
            let centroid = polytope.centroid();
            last_best = data.argmax_utility(&centroid);
            if rounds >= self.cfg.max_rounds {
                return InteractionOutcome {
                    point_index: last_best,
                    rounds,
                    elapsed: sw.elapsed(),
                    trace,
                    truncated: true,
                };
            }

            // Per-round snapshots whenever the trace or the event stream
            // consumes them; per-phase time is the episode profile's.
            let record = trace_mode.should_trace(rounds + 1) || isrl_obs::enabled();
            let round_started = sw.elapsed();

            let candidates = self.candidates(data, &region, &vertices);
            let Some(q) =
                self.select_question(data, &region, &mut lp, &candidates, &centroid, &asked)
            else {
                return InteractionOutcome {
                    point_index: last_best,
                    rounds,
                    elapsed: sw.elapsed(),
                    trace,
                    truncated: true,
                };
            };

            let prefers_i = user.prefers(data.point(q.i), data.point(q.j));
            let (win, lose) = if prefers_i { (q.i, q.j) } else { (q.j, q.i) };
            asked.push((q.i.min(q.j), q.i.max(q.j)));
            rounds += 1;
            profile.set_rounds(rounds);
            if let Some(h) = Halfspace::preferring(data.point(win), data.point(lose)) {
                region.add(h);
            }
            if record {
                emit_round_event(
                    self.name(),
                    rounds,
                    Some(q),
                    sw.elapsed(),
                    (sw.elapsed() - round_started).as_secs_f64() * 1e3,
                    Some(vertices.len()),
                    None,
                    None,
                );
                if trace_mode.should_trace(rounds) {
                    let mut t = RoundTrace::new(rounds, sw.elapsed(), last_best, region.clone());
                    t.vertex_count = Some(vertices.len());
                    trace.push(t);
                }
            }
        }
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
    fn uh_random_is_exact() {
        let data = small_data();
        let mut algo = UhBaseline::random(1);
        let eps = 0.1;
        for w in [0.2, 0.5, 0.75] {
            let mut user = SimulatedUser::new(vec![w, 1.0 - w]);
            let out = algo.run(&data, &mut user, eps, TraceMode::Off);
            assert!(!out.truncated);
            let regret = regret_ratio_of_index(&data, out.point_index, user.ground_truth());
            assert!(regret < eps, "regret {regret} at w {w}");
        }
    }

    #[test]
    fn uh_simplex_is_exact() {
        let data = small_data();
        let mut algo = UhBaseline::simplex(2);
        let eps = 0.1;
        let mut user = SimulatedUser::new(vec![0.4, 0.6]);
        let out = algo.run(&data, &mut user, eps, TraceMode::Off);
        assert!(!out.truncated);
        let regret = regret_ratio_of_index(&data, out.point_index, user.ground_truth());
        assert!(regret < eps);
    }

    #[test]
    fn names_distinguish_strategies() {
        assert_eq!(UhBaseline::random(0).name(), "UH-Random");
        assert_eq!(UhBaseline::simplex(0).name(), "UH-Simplex");
    }

    #[test]
    fn trace_is_collected_per_round() {
        let data = small_data();
        let mut algo = UhBaseline::random(3);
        let mut user = SimulatedUser::new(vec![0.3, 0.7]);
        let out = algo.run(&data, &mut user, 0.1, TraceMode::PerRound);
        assert_eq!(out.trace.len(), out.rounds);
    }

    #[test]
    fn round_cap_truncates() {
        let data = small_data();
        let mut algo = UhBaseline::new(
            UhStrategy::Random,
            UhConfig {
                n_samples: 20,
                max_rounds: 1,
                seed: 4,
                ..UhConfig::default()
            },
        );
        let mut user = SimulatedUser::new(vec![0.5, 0.5]);
        let out = algo.run(&data, &mut user, 0.001, TraceMode::Off);
        assert!(out.truncated, "eps this tight cannot finish in one round");
        assert_eq!(out.rounds, 1);
    }
}
