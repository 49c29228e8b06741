//! Interaction diagnostics: quantities that explain *why* a run took the
//! rounds it took. Computed from a per-round trace
//! ([`crate::interaction::TraceMode::PerRound`]), these are the tuning
//! instruments behind DESIGN.md §5's ablations:
//!
//! * **shrinkage** — per-round multiplicative decay of the region's volume
//!   measure (an ideal binary-search question scores 0.5);
//! * **cut balance** — how much of the pre-answer region each asked
//!   hyperplane kept (0.5 = perfect halving, near 1 = wasted question);
//! * **recommendation churn** — how often the interim recommendation
//!   changed (late churn means the stopping condition, not the questioning,
//!   is the bottleneck).
//!
//! Volumes are the outer-rectangle volume proxy the session's
//! incrementally-maintained [`isrl_geometry::RegionGeometry`] already
//! computed (recorded in
//! [`crate::interaction::RoundTrace::volume_proxy`]): deterministic, free
//! beyond the interaction itself, and resolving volume fractions far below
//! what sampling can see. Under this box measure a round's cut balance is
//! its proxy decay — the fraction of the previous round's box volume the
//! answer kept.

use crate::interaction::InteractionOutcome;
use isrl_geometry::RegionGeometry;

/// Per-round diagnostic row.
#[derive(Debug, Clone)]
pub struct RoundDiagnostic {
    /// 1-based round.
    pub round: usize,
    /// Volume measure of the region *after* this round: its rectangle
    /// proxy.
    pub volume_fraction: f64,
    /// Fraction of the pre-answer region kept by this round's answer
    /// (0.5 = the question halved the region).
    pub cut_balance: f64,
    /// Whether the interim recommendation changed at this round.
    pub recommendation_changed: bool,
}

/// Full diagnostic report for one interaction.
#[derive(Debug, Clone)]
pub struct DiagnosticReport {
    /// Per-round rows, in order.
    pub rounds: Vec<RoundDiagnostic>,
    /// Geometric-mean per-round volume decay (lower = faster learning;
    /// 0.5 is the binary-search ideal).
    pub mean_decay: f64,
    /// Number of recommendation changes across the interaction.
    pub churn: usize,
}

/// Analyzes a traced interaction. Returns `None` when the outcome carries
/// no trace.
pub fn analyze(outcome: &InteractionOutcome) -> Option<DiagnosticReport> {
    if outcome.trace.is_empty() {
        return None;
    }
    // Volume measure before any answer is 1 by definition: the unit box
    // proxy of the full simplex.
    let mut prev_fraction = 1.0f64;
    let mut prev_best: Option<usize> = None;
    let mut rounds = Vec::with_capacity(outcome.trace.len());
    let mut decay_log_sum = 0.0;
    let mut churn = 0usize;

    for t in &outcome.trace {
        let fraction = geometric_volume(t);
        // Proxy decay *is* the kept fraction under the box measure.
        let decay = if prev_fraction > 0.0 {
            (fraction / prev_fraction).min(1.0)
        } else {
            1.0
        };
        let changed = prev_best.is_some_and(|b| b != t.best_index);
        if changed {
            churn += 1;
        }
        prev_best = Some(t.best_index);
        decay_log_sum += decay.max(1e-12).ln();
        prev_fraction = fraction;
        rounds.push(RoundDiagnostic {
            round: t.round,
            volume_fraction: fraction,
            cut_balance: decay,
            recommendation_changed: changed,
        });
    }
    let mean_decay = (decay_log_sum / rounds.len() as f64).exp();
    Some(DiagnosticReport {
        rounds,
        mean_decay,
        churn,
    })
}

/// The round's volume proxy: recorded by the session when tracing was on,
/// else recomputed once through the geometry's summary cache (2d extent
/// LPs). A collapsed (empty) region measures 0.
///
/// On a sampled-backend trace ([`isrl_geometry::GeometryBackend::Sampled`])
/// the recorded proxy is the bounding rectangle of the *sample cloud*, not
/// of the true region, so consecutive rounds can wobble by sampling noise;
/// `analyze` already clamps each per-round decay to `<= 1`, which absorbs
/// the wobble without letting it inflate `mean_decay`.
fn geometric_volume(t: &crate::interaction::RoundTrace) -> f64 {
    if let Some(v) = t.volume_proxy {
        return v;
    }
    RegionGeometry::from_region(t.region.clone(), false)
        .volume_proxy()
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::{InteractiveAlgorithm, RoundTrace, TraceMode};
    use crate::prelude::*;
    use isrl_data::Dataset;
    use isrl_geometry::{Halfspace, Region};
    use std::time::Duration;

    fn traced_outcome() -> (Dataset, InteractionOutcome) {
        let data = Dataset::from_points(
            vec![
                vec![1.0, 0.05],
                vec![0.85, 0.4],
                vec![0.6, 0.65],
                vec![0.4, 0.85],
                vec![0.05, 1.0],
            ],
            2,
        );
        let mut agent = AaAgent::new(2, AaConfig::paper_default().with_seed(3));
        let mut user = SimulatedUser::new(vec![0.45, 0.55]);
        let out = agent.run(&data, &mut user, 0.05, TraceMode::PerRound);
        (data, out)
    }

    #[test]
    fn report_shapes_match_the_trace() {
        let (_, out) = traced_outcome();
        let report = analyze(&out).expect("trace present");
        assert_eq!(report.rounds.len(), out.trace.len());
        assert!(report.mean_decay > 0.0 && report.mean_decay <= 1.0 + 1e-9);
        assert!(report.churn <= out.rounds);
    }

    #[test]
    fn geometric_mode_reads_the_traced_proxies() {
        let (_, out) = traced_outcome();
        assert!(
            out.trace.iter().all(|t| t.volume_proxy.is_some()),
            "AA records the proxy every traced round"
        );
        let report = analyze(&out).unwrap();
        for (r, t) in report.rounds.iter().zip(&out.trace) {
            assert_eq!(r.volume_fraction, t.volume_proxy.unwrap());
        }
    }

    #[test]
    fn volume_fractions_are_monotone_non_increasing() {
        let (_, out) = traced_outcome();
        // Exactly monotone: boxes nest under cuts.
        let report = analyze(&out).unwrap();
        for w in report.rounds.windows(2) {
            assert!(
                w[1].volume_fraction <= w[0].volume_fraction + 1e-12,
                "proxy grew: {} -> {}",
                w[0].volume_fraction,
                w[1].volume_fraction
            );
        }
    }

    #[test]
    fn cut_balances_are_probabilities() {
        let (_, out) = traced_outcome();
        let report = analyze(&out).unwrap();
        for r in &report.rounds {
            assert!(
                (0.0..=1.0).contains(&r.cut_balance),
                "balance {}",
                r.cut_balance
            );
        }
    }

    #[test]
    fn untraced_outcome_yields_none() {
        let (data, _) = traced_outcome();
        let mut agent = AaAgent::new(2, AaConfig::paper_default().with_seed(4));
        let mut user = SimulatedUser::new(vec![0.5, 0.5]);
        let out = agent.run(&data, &mut user, 0.1, TraceMode::Off);
        assert!(analyze(&out).is_none());
    }

    #[test]
    fn empty_trace_on_a_nonempty_outcome_yields_none() {
        // An outcome can report rounds > 0 with an empty trace (TraceMode::
        // FirstRounds(0)); analyze must refuse rather than divide by zero.
        let out = InteractionOutcome {
            point_index: 0,
            rounds: 3,
            elapsed: Duration::from_millis(1),
            trace: Vec::new(),
            truncated: false,
        };
        assert!(analyze(&out).is_none());
    }

    #[test]
    fn degenerate_region_trace_stays_finite() {
        // A trace whose region collapses to empty mid-interaction: the
        // geometric volume hits 0 and every later decay must stay finite.
        let mut region = Region::full(2);
        region.add(Halfspace::new(vec![1.0, -3.0]));
        let t1 = RoundTrace::new(1, Duration::from_millis(1), 0, region.clone());
        region.add(Halfspace::new(vec![-3.0, 1.0])); // contradicts the first
        let t2 = RoundTrace::new(2, Duration::from_millis(2), 1, region.clone());
        region.add(Halfspace::new(vec![0.0, 1.0]));
        let t3 = RoundTrace::new(3, Duration::from_millis(3), 1, region);
        let out = InteractionOutcome {
            point_index: 1,
            rounds: 3,
            elapsed: Duration::from_millis(3),
            trace: vec![t1, t2, t3],
            truncated: true,
        };
        let report = analyze(&out).expect("trace present");
        assert_eq!(report.rounds.len(), 3);
        for r in &report.rounds {
            assert!(r.volume_fraction.is_finite());
            assert!(r.cut_balance.is_finite());
            assert!((0.0..=1.0).contains(&r.cut_balance), "{}", r.cut_balance);
        }
        assert!(report.mean_decay.is_finite() && report.mean_decay >= 0.0);
        assert_eq!(report.rounds[1].volume_fraction, 0.0, "collapsed region");
        assert_eq!(report.churn, 1);
    }

    #[test]
    fn sampled_backend_traces_analyze_cleanly() {
        // An EA run on the sampled geometry backend records cloud-bbox
        // volume proxies; the report must stay finite with every decay
        // clamped despite sampling-noise wobble in the raw proxies.
        use isrl_geometry::GeometryBackend;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let d = 8;
        let mut rng = StdRng::seed_from_u64(17);
        let points: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..d).map(|_| rng.gen_range(0.05..1.0)).collect())
            .collect();
        let data = Dataset::from_points(points, d);
        let mut cfg = EaConfig::paper_default().with_seed(11);
        cfg.geometry = GeometryBackend::Sampled;
        let mut agent = EaAgent::new(d, cfg);
        let truth: Vec<f64> = vec![1.0 / d as f64; d];
        let mut user = SimulatedUser::new(truth);
        let out = agent.run(&data, &mut user, 0.25, TraceMode::PerRound);
        assert!(
            out.trace.iter().all(|t| t.volume_proxy.is_some()),
            "sampled sessions record the cloud-bbox proxy every round"
        );
        let report = analyze(&out).expect("trace present");
        assert_eq!(report.rounds.len(), out.trace.len());
        for r in &report.rounds {
            assert!(r.volume_fraction.is_finite() && r.volume_fraction >= 0.0);
            assert!(
                (0.0..=1.0).contains(&r.cut_balance),
                "decay must be clamped on noisy proxies: {}",
                r.cut_balance
            );
        }
        assert!(report.mean_decay > 0.0 && report.mean_decay <= 1.0 + 1e-9);
    }

    #[test]
    fn good_questioners_decay_fast() {
        // AA's near-center cuts should average well below "no progress".
        let (_, out) = traced_outcome();
        let report = analyze(&out).unwrap();
        assert!(
            report.mean_decay < 0.9,
            "AA's questions should shrink the region: decay {}",
            report.mean_decay
        );
    }
}
