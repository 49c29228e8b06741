//! SinglePass (Zhang, Tatti & Gionis, KDD 2023) — the streaming baseline.
//!
//! SinglePass trades information for speed: it keeps a single *champion*
//! tuple, streams the dataset in a predefined random order, and asks the
//! user to compare the champion against each challenger whose outcome is
//! not already implied by earlier answers. Crucially, "implied" is decided
//! by cheap **rule-based filters**, not by exact geometry (that is the
//! published algorithm's design point, and what the ISRL paper means by
//! "collecting less information"): we keep per-coordinate intervals
//! `[lo_i, hi_i]` bracketing the user's weights and use interval arithmetic
//! to test whether `u · (champion − challenger)` has a provable sign.
//! Interval bounds are far weaker than the true utility range, so most
//! comparisons on skyline data remain ambiguous — reproducing the paper's
//! signature observation: cheap rounds, but *hundreds* of them at d = 20.

use crate::interaction::{
    InteractionOutcome, InteractiveAlgorithm, Question, RoundTrace, Stopwatch, TraceMode,
};
use crate::telemetry::emit_round_event;
use crate::user::User;
use isrl_data::Dataset;
use isrl_geometry::{Halfspace, Region};
use isrl_linalg::vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-coordinate interval bounds on the user's utility vector, refined by
/// interval-arithmetic propagation of the answered half-spaces plus the
/// simplex constraint `Σu = 1`.
#[derive(Debug, Clone)]
struct IntervalBox {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl IntervalBox {
    fn full(d: usize) -> Self {
        Self {
            lo: vec![0.0; d],
            hi: vec![1.0; d],
        }
    }

    /// Interval evaluation of `v · u`: the (min, max) over the box.
    fn eval(&self, v: &[f64]) -> (f64, f64) {
        let mut min = 0.0;
        let mut max = 0.0;
        for ((&vi, &lo), &hi) in v.iter().zip(&self.lo).zip(&self.hi) {
            if vi >= 0.0 {
                min += vi * lo;
                max += vi * hi;
            } else {
                min += vi * hi;
                max += vi * lo;
            }
        }
        (min, max)
    }

    /// One propagation sweep of the constraint `v · u ≥ 0` plus the simplex
    /// equality. Returns `true` if any bound moved.
    fn propagate(&mut self, constraints: &[Vec<f64>]) -> bool {
        let d = self.lo.len();
        let mut changed = false;
        for v in constraints {
            // For each coordinate, isolate: v_i · u_i ≥ −Σ_{j≠i} v_j u_j.
            let (min_all, max_all) = self.eval(v);
            for (i, &vi) in v.iter().enumerate().take(d) {
                let (term_min, term_max) = if vi >= 0.0 {
                    (vi * self.lo[i], vi * self.hi[i])
                } else {
                    (vi * self.hi[i], vi * self.lo[i])
                };
                let rest_min = min_all - term_min;
                let rest_max = max_all - term_max;
                // u_i ≥ (−rest_max) / v_i when v_i > 0;
                // u_i ≤ (−rest_min) / v_i when v_i < 0 (after flipping).
                let _ = rest_min;
                if vi > 1e-12 {
                    let bound = -rest_max / vi;
                    if bound > self.lo[i] + 1e-12 {
                        self.lo[i] = bound.min(self.hi[i]);
                        changed = true;
                    }
                } else if vi < -1e-12 {
                    let bound = -rest_max / vi;
                    if bound < self.hi[i] - 1e-12 {
                        self.hi[i] = bound.max(self.lo[i]);
                        changed = true;
                    }
                }
            }
        }
        // Simplex constraint: u_i = 1 − Σ_{j≠i} u_j.
        let lo_sum: f64 = self.lo.iter().sum();
        let hi_sum: f64 = self.hi.iter().sum();
        for i in 0..d {
            let lo_bound = 1.0 - (hi_sum - self.hi[i]);
            let hi_bound = 1.0 - (lo_sum - self.lo[i]);
            if lo_bound > self.lo[i] + 1e-12 {
                self.lo[i] = lo_bound.min(self.hi[i]);
                changed = true;
            }
            if hi_bound < self.hi[i] - 1e-12 {
                self.hi[i] = hi_bound.max(self.lo[i]);
                changed = true;
            }
        }
        changed
    }

    fn diag(&self) -> f64 {
        vector::dist(&self.lo, &self.hi)
    }

    fn midpoint(&self) -> Vec<f64> {
        let mid = vector::midpoint(&self.lo, &self.hi);
        vector::normalize_sum(&mid).unwrap_or_else(|| vec![1.0 / mid.len() as f64; mid.len()])
    }
}

/// Configuration of [`SinglePass`].
#[derive(Debug, Clone)]
pub struct SinglePassConfig {
    /// Propagation sweeps over the stored constraints after each answer.
    pub propagation_sweeps: usize,
    /// Stop once the interval box diagonal is ≤ `2√d·ε` (the same
    /// geometric criterion AA uses, on the weaker interval representation).
    pub use_diag_stop: bool,
    /// Safety cap on questions.
    pub max_rounds: usize,
    /// RNG seed (stream order).
    pub seed: u64,
}

impl Default for SinglePassConfig {
    fn default() -> Self {
        Self {
            propagation_sweeps: 3,
            use_diag_stop: true,
            max_rounds: 5_000,
            seed: 0,
        }
    }
}

/// The streaming champion–challenger baseline.
#[derive(Debug)]
pub struct SinglePass {
    cfg: SinglePassConfig,
}

impl SinglePass {
    /// Creates the baseline.
    pub fn new(cfg: SinglePassConfig) -> Self {
        Self { cfg }
    }

    /// Default configuration with the given seed.
    pub fn seeded(seed: u64) -> Self {
        Self::new(SinglePassConfig {
            seed,
            ..SinglePassConfig::default()
        })
    }
}

impl InteractiveAlgorithm for SinglePass {
    fn name(&self) -> &'static str {
        "SinglePass"
    }

    fn reseed(&mut self, seed: u64) {
        self.cfg.seed = seed; // the stream order is re-derived per run
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
        let d = data.dim();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed.wrapping_add(41));

        // Predefined random stream order.
        let mut order: Vec<usize> = (0..data.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }

        let mut boxx = IntervalBox::full(d);
        let mut constraints: Vec<Vec<f64>> = Vec::new(); // normals with v·u ≥ 0
        let mut region = Region::full(d); // trace/compatibility only
        let mut trace: Vec<RoundTrace> = Vec::new();
        let mut rounds = 0usize;
        let mut champion = order[0];
        let diag_threshold = 2.0 * (d as f64).sqrt() * eps;
        let mut truncated = false;

        let mut stopped_by_diag = false;
        'stream: for &challenger in &order[1..] {
            let round_started = sw.elapsed();
            if challenger == champion {
                continue;
            }
            let diff = vector::sub(data.point(champion), data.point(challenger));
            if vector::norm(&diff) <= 1e-12 {
                continue; // identical points, nothing to learn
            }
            // Rule-based filter: does interval arithmetic already decide it?
            let (min, max) = boxx.eval(&diff);
            if min >= 0.0 {
                continue; // champion provably wins
            }
            if max <= 0.0 {
                champion = challenger; // challenger provably wins
                continue;
            }

            // Ambiguous under the (weak) interval knowledge: ask.
            if rounds >= self.cfg.max_rounds {
                truncated = true;
                break 'stream;
            }
            let q = Question {
                i: champion,
                j: challenger,
            };
            let prefers_champ = user.prefers(data.point(champion), data.point(challenger));
            rounds += 1;
            let normal = if prefers_champ {
                diff
            } else {
                vector::scale(&diff, -1.0)
            };
            constraints.push(normal.clone());
            region.add(Halfspace::new(normal));
            if !prefers_champ {
                champion = challenger;
            }
            for _ in 0..self.cfg.propagation_sweeps {
                if !boxx.propagate(&constraints) {
                    break;
                }
            }
            emit_round_event(
                self.name(),
                rounds,
                Some(q),
                sw.elapsed(),
                (sw.elapsed() - round_started).as_secs_f64() * 1e3,
                None,
                None,
                None,
            );
            if trace_mode.should_trace(rounds) {
                trace.push(RoundTrace::new(
                    rounds,
                    sw.elapsed(),
                    champion,
                    region.clone(),
                ));
            }
            if self.cfg.use_diag_stop && boxx.diag() <= diag_threshold {
                stopped_by_diag = true;
                break 'stream;
            }
        }

        // A completed pass makes the champion the exact stream favorite
        // (every skip was implied by sound interval bounds), so return it.
        // Only an early diagonal stop falls back to the interval midpoint's
        // favorite, mirroring AA's terminal rule on the weaker geometry.
        let point_index = if stopped_by_diag {
            let mid = boxx.midpoint();
            let mid_best = data.argmax_utility(&mid);
            if data.utility(mid_best, &mid) > data.utility(champion, &mid) {
                mid_best
            } else {
                champion
            }
        } else {
            champion
        };

        InteractionOutcome {
            point_index,
            rounds,
            elapsed: sw.elapsed(),
            trace,
            truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regret::regret_ratio_of_index;
    use crate::user::SimulatedUser;
    use isrl_data::{generate, skyline, Distribution};

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
    fn champion_has_low_regret() {
        let data = small_data();
        let mut algo = SinglePass::seeded(1);
        for w in [0.2, 0.5, 0.8] {
            let mut user = SimulatedUser::new(vec![w, 1.0 - w]);
            let out = algo.run(&data, &mut user, 0.1, TraceMode::Off);
            let regret = regret_ratio_of_index(&data, out.point_index, user.ground_truth());
            assert!(regret < 0.15, "regret {regret} at w {w}");
        }
    }

    #[test]
    fn asks_many_more_questions_than_the_rl_agents_would() {
        // The motivating observation of the paper: SinglePass's weak filters
        // leave most skyline comparisons ambiguous, so it asks a lot.
        let data = skyline(&generate(400, 4, Distribution::AntiCorrelated, 7));
        let mut algo = SinglePass::seeded(2);
        let mut user = SimulatedUser::new(vec![0.4, 0.3, 0.2, 0.1]);
        let out = algo.run(&data, &mut user, 0.05, TraceMode::Off);
        assert!(out.rounds >= 30, "expected many rounds, got {}", out.rounds);
    }

    #[test]
    fn interval_filter_is_sound() {
        // Every implied skip must agree with the ground truth: the final
        // champion of a full no-stop pass equals the true favorite.
        let data = skyline(&generate(120, 3, Distribution::AntiCorrelated, 9));
        let mut algo = SinglePass::new(SinglePassConfig {
            use_diag_stop: false,
            ..SinglePassConfig::default()
        });
        let truth = vec![0.5, 0.3, 0.2];
        let mut user = SimulatedUser::new(truth.clone());
        let out = algo.run(&data, &mut user, 0.05, TraceMode::Off);
        let regret = regret_ratio_of_index(&data, out.point_index, &truth);
        assert!(
            regret < 1e-9,
            "full pass must find the exact favorite, regret {regret}"
        );
    }

    #[test]
    fn questions_asked_equals_rounds() {
        let data = small_data();
        let mut algo = SinglePass::seeded(3);
        let mut user = SimulatedUser::new(vec![0.55, 0.45]);
        let out = algo.run(&data, &mut user, 0.1, TraceMode::Off);
        assert_eq!(user.questions_asked(), out.rounds);
    }

    #[test]
    fn round_cap_truncates() {
        let data = skyline(&generate(300, 3, Distribution::AntiCorrelated, 5));
        let mut algo = SinglePass::new(SinglePassConfig {
            max_rounds: 2,
            seed: 4,
            ..SinglePassConfig::default()
        });
        let mut user = SimulatedUser::new(vec![0.3, 0.4, 0.3]);
        let out = algo.run(&data, &mut user, 0.01, TraceMode::Off);
        assert!(out.rounds <= 2);
    }

    #[test]
    fn trace_mode_collects_entries() {
        let data = small_data();
        let mut algo = SinglePass::seeded(5);
        let mut user = SimulatedUser::new(vec![0.5, 0.5]);
        let out = algo.run(&data, &mut user, 0.05, TraceMode::PerRound);
        assert_eq!(out.trace.len(), out.rounds);
    }

    #[test]
    fn interval_box_eval_brackets_truth() {
        let mut b = IntervalBox::full(2);
        b.lo = vec![0.3, 0.5];
        b.hi = vec![0.5, 0.7];
        let v = [1.0, -2.0];
        let (min, max) = b.eval(&v);
        for u in [[0.3, 0.5], [0.5, 0.7], [0.4, 0.6]] {
            let val = u[0] * v[0] + u[1] * v[1];
            assert!(val >= min - 1e-12 && val <= max + 1e-12);
        }
    }

    #[test]
    fn propagation_tightens_with_simplex_constraint() {
        let mut b = IntervalBox::full(3);
        // u0 − u1 ≥ 0.2·(u0+u1+u2) approximated as plain halfspace
        // u0 ≥ u1 + 0.2 is not expressible homogeneously; use u0 − 3u1 ≥ 0,
        // which forces u1 ≤ 1/4 via u0 ≤ 1.
        let c = vec![vec![1.0, -3.0, 0.0]];
        for _ in 0..5 {
            if !b.propagate(&c) {
                break;
            }
        }
        assert!(
            b.hi[1] <= 1.0 / 3.0 + 1e-9,
            "u1 bounded by u0/3 ≤ 1/3: {}",
            b.hi[1]
        );
    }
}
