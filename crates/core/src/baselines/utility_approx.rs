//! UtilityApprox (Nanongkai et al., SIGMOD 2012) — the fake-point baseline.
//!
//! UtilityApprox designs *artificial* tuples tailored to bisect the user's
//! utility weights: comparing the axis tuple `e_i` against the constant
//! tuple `(c, …, c)` asks exactly "is `u_i ≥ c`?" (since `Σu = 1`), so each
//! answer halves one coordinate's interval. It converges in
//! `O(d · log(d/ε))` rounds but shows users tuples that do not exist in the
//! database — the drawback that motivated the UH family [5]. Included both
//! as a related-work baseline and as the clearest illustration of why
//! real-tuple interaction is the harder problem.

use crate::interaction::{
    InteractionOutcome, InteractiveAlgorithm, RoundTrace, Stopwatch, TraceMode,
};
use crate::telemetry::emit_round_event;
use crate::user::User;
use isrl_data::Dataset;
use isrl_geometry::{Halfspace, Region};
use isrl_linalg::vector;

/// Configuration of [`UtilityApprox`].
#[derive(Debug, Clone)]
pub struct UtilityApproxConfig {
    /// Stop when every coordinate interval is narrower than
    /// `width_factor · ε / d` (the bisection resolution target).
    pub width_factor: f64,
    /// Safety cap on rounds.
    pub max_rounds: usize,
}

impl Default for UtilityApproxConfig {
    fn default() -> Self {
        Self {
            width_factor: 2.0,
            max_rounds: 500,
        }
    }
}

/// The artificial-tuple bisection baseline.
#[derive(Debug, Default)]
pub struct UtilityApprox {
    cfg: UtilityApproxConfig,
}

impl UtilityApprox {
    /// Creates the baseline.
    pub fn new(cfg: UtilityApproxConfig) -> Self {
        Self { cfg }
    }
}

impl InteractiveAlgorithm for UtilityApprox {
    fn name(&self) -> &'static str {
        "UtilityApprox"
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
        let mut lo = vec![0.0f64; d];
        let mut hi = vec![1.0f64; d];
        let mut region = Region::full(d);
        let mut trace: Vec<RoundTrace> = Vec::new();
        let mut rounds = 0usize;
        let target_width = self.cfg.width_factor * eps / d as f64;
        let mut truncated = false;

        loop {
            let round_started = sw.elapsed();
            // Bisect the widest coordinate interval.
            let widths: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| h - l).collect();
            let axis = vector::argmax(&widths);
            if widths[axis] <= target_width {
                break;
            }
            if rounds >= self.cfg.max_rounds {
                truncated = true;
                break;
            }
            let c = 0.5 * (lo[axis] + hi[axis]);
            // Fake tuples: p = e_axis, q = (c, …, c). Preferring p means
            // u·e_axis ≥ c·Σu, i.e. u_axis ≥ c.
            let mut p = vec![0.0; d];
            p[axis] = 1.0;
            let q = vec![c; d];
            let prefers_p = user.prefers(&p, &q);
            rounds += 1;
            if prefers_p {
                lo[axis] = c;
            } else {
                hi[axis] = c;
            }
            if let Some(h) = if prefers_p {
                Halfspace::preferring(&p, &q)
            } else {
                Halfspace::preferring(&q, &p)
            } {
                region.add(h);
            }
            emit_round_event(
                self.name(),
                rounds,
                None,
                sw.elapsed(),
                (sw.elapsed() - round_started).as_secs_f64() * 1e3,
                None,
                None,
                None,
            );
            if trace_mode.should_trace(rounds) {
                let mid = middle_utility(&lo, &hi);
                trace.push(RoundTrace::new(
                    rounds,
                    sw.elapsed(),
                    data.argmax_utility(&mid),
                    region.clone(),
                ));
            }
        }

        let mid = middle_utility(&lo, &hi);
        InteractionOutcome {
            point_index: data.argmax_utility(&mid),
            rounds,
            elapsed: sw.elapsed(),
            trace,
            truncated,
        }
    }
}

/// Midpoint of the interval box, renormalized onto the simplex.
fn middle_utility(lo: &[f64], hi: &[f64]) -> Vec<f64> {
    let mid = vector::midpoint(lo, hi);
    vector::normalize_sum(&mid).unwrap_or_else(|| vec![1.0 / lo.len() as f64; lo.len()])
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
    fn bisection_recovers_the_utility_vector() {
        let data = small_data();
        let mut algo = UtilityApprox::default();
        for w in [0.25, 0.5, 0.7] {
            let mut user = SimulatedUser::new(vec![w, 1.0 - w]);
            let out = algo.run(&data, &mut user, 0.1, TraceMode::Off);
            assert!(!out.truncated);
            let regret = regret_ratio_of_index(&data, out.point_index, user.ground_truth());
            assert!(regret < 0.1, "regret {regret} at w {w}");
        }
    }

    #[test]
    fn rounds_scale_logarithmically() {
        // d·log₂(d/(2ε/d))-ish: with d = 2 and ε = 0.1, roughly 2·log₂(10) ≈ 7.
        let data = small_data();
        let mut algo = UtilityApprox::default();
        let mut user = SimulatedUser::new(vec![0.37, 0.63]);
        let out = algo.run(&data, &mut user, 0.1, TraceMode::Off);
        assert!(out.rounds >= 4 && out.rounds <= 12, "rounds {}", out.rounds);
    }

    #[test]
    fn questions_use_fake_points() {
        // The distinguishing (and criticized) property: the tuples shown are
        // not from the dataset. We verify via a spying user.
        struct Spy {
            inner: SimulatedUser,
            saw_axis_tuple: bool,
        }
        impl User for Spy {
            fn prefers(&mut self, a: &[f64], b: &[f64]) -> bool {
                if a.iter().filter(|&&x| x == 0.0).count() == a.len() - 1 {
                    self.saw_axis_tuple = true;
                }
                self.inner.prefers(a, b)
            }
            fn questions_asked(&self) -> usize {
                self.inner.questions_asked()
            }
        }
        let data = small_data();
        let mut algo = UtilityApprox::default();
        let mut spy = Spy {
            inner: SimulatedUser::new(vec![0.5, 0.5]),
            saw_axis_tuple: false,
        };
        algo.run(&data, &mut spy, 0.1, TraceMode::Off);
        assert!(
            spy.saw_axis_tuple,
            "UtilityApprox must present artificial axis tuples"
        );
    }

    #[test]
    fn round_cap_truncates() {
        let data = small_data();
        let mut algo = UtilityApprox::new(UtilityApproxConfig {
            width_factor: 2.0,
            max_rounds: 1,
        });
        let mut user = SimulatedUser::new(vec![0.5, 0.5]);
        let out = algo.run(&data, &mut user, 0.001, TraceMode::Off);
        assert!(out.truncated);
    }
}
