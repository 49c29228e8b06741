//! Evaluation metrics.
//!
//! Implements the paper's three measurements (§V): execution time and round
//! counts come straight from [`crate::interaction::InteractionOutcome`];
//! this module adds the *regret* side — the final regret ratio and the
//! per-round **maximum regret ratio** of Figures 7–8, estimated exactly the
//! way the paper describes: sample utility vectors from the learned region,
//! take the recommendation's worst regret over the samples.

use isrl_data::Dataset;
use isrl_geometry::{sampling, Region};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default number of utility-vector samples for [`max_regret_estimate`]
/// (the paper uses 10,000; sweeps lower it for speed).
pub const DEFAULT_MAX_REGRET_SAMPLES: usize = 10_000;

/// Estimates the maximum regret ratio of `point_index` over every utility
/// vector still consistent with the interaction (`region`), following the
/// paper's procedure for Figures 7–8: draw `n_samples` vectors from the
/// region and report the worst observed regret.
///
/// Sampling strategy: hit-and-run seeded at the region's inner-sphere
/// center (`Region::feasible_point`), which mixes toward the uniform
/// distribution on the region however small it is. Returns `None` when the
/// region has no interior at all (empty or degenerate) or `n_samples` is 0.
pub fn max_regret_estimate(
    data: &Dataset,
    region: &Region,
    point_index: usize,
    n_samples: usize,
    seed: u64,
) -> Option<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let center = region.feasible_point()?;
    let samples = sampling::hit_and_run(
        region.dim(),
        region.halfspaces(),
        &center,
        n_samples,
        sampling::REGION_THIN,
        &mut rng,
    );
    if samples.is_empty() {
        return None;
    }
    // One batched scan for every sample's best utility value (the
    // numerator's `max_p f_u(p)`), instead of a full dataset scan per
    // sample. Same dot products and tie-breaking as `regret_ratio_of_index`.
    let q = data.point(point_index);
    let tops = data.top1_batch(&samples);
    let worst = samples
        .iter()
        .zip(&tops)
        .map(|(u, t)| {
            let best = t.value;
            assert!(
                best > 0.0,
                "maximum utility must be positive on normalized data"
            );
            ((best - isrl_linalg::vector::dot(q, u)) / best).max(0.0)
        })
        .fold(0.0, f64::max);
    Some(worst)
}

/// Aggregate over repeated runs: mean rounds, mean time (seconds), mean and
/// max final regret.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Mean number of interactive rounds.
    pub mean_rounds: f64,
    /// Mean wall-clock seconds per interaction.
    pub mean_seconds: f64,
    /// Mean final regret ratio.
    pub mean_regret: f64,
    /// Worst final regret ratio.
    pub max_regret: f64,
    /// Number of runs aggregated.
    pub runs: usize,
    /// How many runs hit their safety round cap.
    pub truncated_runs: usize,
}

impl RunStats {
    /// Aggregates `(rounds, seconds, regret, truncated)` observations.
    pub fn from_observations(obs: &[(usize, f64, f64, bool)]) -> Self {
        if obs.is_empty() {
            return Self::default();
        }
        let n = obs.len() as f64;
        Self {
            mean_rounds: obs.iter().map(|o| o.0 as f64).sum::<f64>() / n,
            mean_seconds: obs.iter().map(|o| o.1).sum::<f64>() / n,
            mean_regret: obs.iter().map(|o| o.2).sum::<f64>() / n,
            max_regret: obs.iter().map(|o| o.2).fold(0.0, f64::max),
            runs: obs.len(),
            truncated_runs: obs.iter().filter(|o| o.3).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrl_geometry::Halfspace;

    fn diagonal_data() -> Dataset {
        Dataset::from_points(vec![vec![0.9, 0.1], vec![0.6, 0.6], vec![0.1, 0.9]], 2)
    }

    #[test]
    fn full_region_max_regret_is_large_for_a_corner_point() {
        // Recommending the extreme point (0.9, 0.1) must show high regret
        // for utility vectors favoring attribute 2.
        let data = diagonal_data();
        let r = max_regret_estimate(&data, &Region::full(2), 0, 2_000, 1).unwrap();
        assert!(
            r > 0.3,
            "corner recommendation should look bad somewhere: {r}"
        );
    }

    #[test]
    fn narrowed_region_reduces_max_regret() {
        let data = diagonal_data();
        let mut region = Region::full(2);
        let wide = max_regret_estimate(&data, &region, 1, 2_000, 2).unwrap();
        // Learn that the user is nearly balanced: u0 ≥ u1 and u1 ≥ 0.8·u0.
        region.add(Halfspace::new(vec![1.0, -1.0]));
        region.add(Halfspace::new(vec![-0.8, 1.0]));
        let narrow = max_regret_estimate(&data, &region, 1, 2_000, 2).unwrap();
        assert!(
            narrow < wide,
            "narrowing must not increase max regret: {wide} -> {narrow}"
        );
        // The balanced point is in fact optimal on this narrowed region.
        assert!(
            narrow < 0.05,
            "balanced point should be near-optimal: {narrow}"
        );
    }

    #[test]
    fn empty_region_yields_none() {
        let data = diagonal_data();
        let mut region = Region::full(2);
        region.add(Halfspace::new(vec![0.5, -1.5]));
        region.add(Halfspace::new(vec![-1.5, 0.5]));
        assert!(max_regret_estimate(&data, &region, 0, 100, 3).is_none());
    }

    #[test]
    fn run_stats_aggregate() {
        let stats = RunStats::from_observations(&[(10, 1.0, 0.05, false), (20, 3.0, 0.15, true)]);
        assert_eq!(stats.mean_rounds, 15.0);
        assert_eq!(stats.mean_seconds, 2.0);
        assert!((stats.mean_regret - 0.10).abs() < 1e-12);
        assert_eq!(stats.max_regret, 0.15);
        assert_eq!(stats.truncated_runs, 1);
        assert_eq!(RunStats::from_observations(&[]), RunStats::default());
    }
}
