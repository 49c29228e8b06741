//! NaN-sentinel warning-counter parity: the scalar reference, the batched
//! reference and the SoA kernel must each bump
//! `scan.top1_nan` exactly once per degenerate utility (all scores NaN or
//! `-inf`, at least one NaN) and never otherwise.
//!
//! Each backend runs under its own private obs sink, so the count read
//! back is that backend's alone whatever else runs in parallel.

use isrl_linalg::{scan::TOP1_NAN_COUNTER, top1_batch, top1_scalar, top1_soa, SoaBuffer, Top1};

const BACKEND_NAMES: [&str; 3] = ["scalar", "batched", "soa"];

/// Runs exactly one backend under a fresh enabled sink; returns its
/// results and how often it bumped [`TOP1_NAN_COUNTER`].
fn run_backend(name: &str, utilities: &[Vec<f64>], points: &[f64], dim: usize) -> (Vec<Top1>, u64) {
    let sink = isrl_obs::Sink::new();
    sink.set_enabled(true);
    let out = isrl_obs::with_sink(&sink, || match name {
        "scalar" => utilities
            .iter()
            .map(|u| top1_scalar(u, points, dim))
            .collect(),
        "batched" => top1_batch(utilities, points, dim),
        "soa" => top1_soa(utilities, &SoaBuffer::from_flat(points, dim)),
        _ => unreachable!(),
    });
    (out, sink.counter_value(TOP1_NAN_COUNTER))
}

#[test]
fn every_backend_bumps_the_warning_counter_once_per_degenerate_utility() {
    let dim = 2;
    // Under u0 = [2, 2] every score is NaN: row 0 directly, row 1 via
    // 2·1e308 + 2·(-1e308) = inf + (-inf) — degenerate, counts once.
    // Under u1 = [0, 1] row 0 is NaN (0·NaN = NaN) but row 1 scores a
    // finite -1e308, so u1 has a winner and must not count.
    let points = vec![f64::NAN, f64::NAN, 1e308, -1e308];
    let u_degenerate = vec![2.0, 2.0];
    let u_fine = vec![0.0, 1.0];
    let utilities = vec![u_degenerate, u_fine];

    for name in BACKEND_NAMES {
        let (out, nan_count) = run_backend(name, &utilities, &points, dim);
        assert_eq!(
            nan_count, 1,
            "{name}: exactly one degenerate utility must bump {TOP1_NAN_COUNTER}"
        );
        assert_eq!(out[0].index, 0, "{name}: sentinel index");
        assert_eq!(out[0].value, f64::NEG_INFINITY, "{name}: sentinel value");
        assert_eq!(out[1].index, 1, "{name}: finite row must win for u1");
        assert_eq!(out[1].value, -1e308, "{name}: winning value for u1");
    }
}

#[test]
fn all_minus_inf_without_nan_returns_sentinel_without_warning() {
    let dim = 2;
    // Scores are all exactly -inf (finite utility, -inf coordinates) but
    // contain no NaN: sentinel result, no warning.
    let points = vec![f64::NEG_INFINITY, 0.0, f64::NEG_INFINITY, 0.0];
    let utilities = vec![vec![1.0, 1.0]];
    for name in BACKEND_NAMES {
        let (out, nan_count) = run_backend(name, &utilities, &points, dim);
        assert_eq!(nan_count, 0, "{name}: no NaN, no warning");
        assert_eq!(
            out[0],
            Top1 {
                index: 0,
                value: f64::NEG_INFINITY
            },
            "{name}: sentinel expected"
        );
    }
}
