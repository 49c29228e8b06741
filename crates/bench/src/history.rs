//! Bench-history records and the noise-aware perf-regression gate.
//!
//! The `perf-check` binary appends one [`HistoryRecord`] per run to
//! `BENCH_history.jsonl` — commit, timestamp, and a flat metric map of
//! kernel and per-round timings (milliseconds; lower is better) — and then
//! compares the new run against the history with [`baseline_of`] +
//! [`check`]. The comparison is noise-aware in two ways:
//!
//! * the **baseline** for each metric is the *median* of its last `k`
//!   recorded values, so one anomalously fast (or slow) historical run
//!   cannot move the bar;
//! * each metric carries a **relative tolerance** (see [`TOLERANCES`]):
//!   a regression is flagged only when `current > median * (1 + tol)`.
//!   Sub-millisecond kernels jitter more than end-to-end replays, so
//!   their tolerance is wider.
//!
//! The format and threshold rationale are documented in DESIGN.md §11.

use std::collections::BTreeMap;

use isrl_obs::json::{parse, Json};

/// Default history file name, expected at the repository root.
pub const HISTORY_FILE: &str = "BENCH_history.jsonl";

/// How many trailing history records the per-metric median is taken over.
pub const BASELINE_WINDOW: usize = 5;

/// Relative tolerance per metric-name prefix, first match wins; metrics
/// with no matching prefix use [`DEFAULT_TOLERANCE`]. Rationale: the
/// sub-millisecond geometry kernels (`kernel.*`) run hundreds of reps but
/// still see allocator/cache jitter in shared CI runners; the LP replays
/// and agent rounds (`lp.*`, `round.*`) integrate more work per sample and
/// sit closer to their medians.
pub const TOLERANCES: &[(&str, f64)] = &[
    ("kernel.", 0.50),
    ("lp.", 0.35),
    ("geom.", 0.40),
    ("round.", 0.35),
    // Tail quantiles are inherently noisier than means/minima: one
    // scheduler hiccup lands straight in the p99, so the band is the
    // widest of the table.
    ("p99.", 0.60),
    // Serving metrics drive whole multi-session registries (pump loops,
    // coalesced scans) and include a p99 pump tail, so they get the same
    // wide band as the other tail quantiles. The wire-round quantiles
    // (`serve.wire_round_p50`/`_p99`) add loopback TCP and thread
    // wake-ups on top and share the band.
    ("serve.", 0.60),
    // Single-digit-millisecond SoA scan kernel: same jitter class
    // as `kernel.*`.
    ("scan.", 0.50),
];

/// Fallback relative tolerance for unprefixed metrics.
pub const DEFAULT_TOLERANCE: f64 = 0.40;

/// Absolute per-metric ceilings in milliseconds, checked regardless of
/// history (a drifting baseline can never re-legitimize breaking these).
/// `round.ea_sampled_d20` pins the sampled-geometry acceptance criterion:
/// one tenth of the 1427.9 ms/round the exact backend measured at
/// d = 20, n = 2000 before the sampled backend existed.
pub const CEILINGS: &[(&str, f64)] = &[("round.ea_sampled_d20", 142.79)];

/// One breached absolute ceiling from [`check_ceilings`].
#[derive(Debug, Clone, PartialEq)]
pub struct CeilingViolation {
    /// Metric name.
    pub metric: String,
    /// The absolute ceiling in milliseconds.
    pub ceiling_ms: f64,
    /// Current milliseconds.
    pub current_ms: f64,
}

impl std::fmt::Display for CeilingViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.4} ms exceeds the absolute ceiling of {:.4} ms",
            self.metric, self.current_ms, self.ceiling_ms
        )
    }
}

/// Flags every metric in `current` above its [`CEILINGS`] entry. Unlike
/// [`check`], this needs no baseline: it also guards the very first run.
pub fn check_ceilings(current: &BTreeMap<String, f64>) -> Vec<CeilingViolation> {
    CEILINGS
        .iter()
        .filter_map(|&(metric, ceiling_ms)| {
            current.get(metric).and_then(|&current_ms| {
                (current_ms > ceiling_ms).then(|| CeilingViolation {
                    metric: metric.to_string(),
                    ceiling_ms,
                    current_ms,
                })
            })
        })
        .collect()
}

/// The tolerance applied to `metric`.
pub fn tolerance_of(metric: &str) -> f64 {
    TOLERANCES
        .iter()
        .find(|(prefix, _)| metric.starts_with(prefix))
        .map_or(DEFAULT_TOLERANCE, |&(_, tol)| tol)
}

/// One perf-check run: commit, unix timestamp, and metric → milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRecord {
    /// Commit hash (or `"unknown"` outside a git checkout).
    pub commit: String,
    /// Seconds since the unix epoch at record time.
    pub unix_secs: u64,
    /// Metric name → measured milliseconds (lower is better).
    pub metrics: BTreeMap<String, f64>,
}

impl HistoryRecord {
    /// The single-line JSON form appended to `BENCH_history.jsonl`.
    pub fn to_jsonl(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(*v)))
                .collect(),
        );
        Json::Obj(vec![
            ("commit".into(), Json::from(self.commit.as_str())),
            ("unix_secs".into(), Json::from(self.unix_secs)),
            ("metrics".into(), metrics),
        ])
        .to_string()
    }
}

/// Parses a `BENCH_history.jsonl` file (empty lines skipped). Errors carry
/// the offending line number.
pub fn parse_history(text: &str) -> Result<Vec<HistoryRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let commit = doc
            .get("commit")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing 'commit'", lineno + 1))?
            .to_string();
        let unix_secs = doc
            .get("unix_secs")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("line {}: missing 'unix_secs'", lineno + 1))?
            as u64;
        let metrics = doc
            .get("metrics")
            .ok_or_else(|| format!("line {}: missing 'metrics'", lineno + 1))?
            .to_num_map();
        out.push(HistoryRecord {
            commit,
            unix_secs,
            metrics,
        });
    }
    Ok(out)
}

/// Median of `values` (mean of the two middle elements for even counts) —
/// `norms::percentile` at p = 50, which computes exactly that.
///
/// # Panics
/// Panics on an empty slice or a NaN timing: a NaN in the bench history
/// means a measurement bug, and silently tolerating it (the old
/// `partial_cmp ... unwrap_or(Equal)` sort) could corrupt the baseline a
/// regression is judged against.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty slice");
    isrl_linalg::norms::percentile(values, 50.0).expect("NaN timing in bench history")
}

/// Per-metric baseline: the median over each metric's last `window`
/// appearances in `history`. Metrics absent from the entire history get no
/// baseline (first run records, later runs compare).
pub fn baseline_of(history: &[HistoryRecord], window: usize) -> BTreeMap<String, f64> {
    let mut series: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for rec in history {
        for (name, &v) in &rec.metrics {
            series.entry(name).or_default().push(v);
        }
    }
    series
        .into_iter()
        .map(|(name, values)| {
            let tail = &values[values.len().saturating_sub(window)..];
            (name.to_string(), median(tail))
        })
        .collect()
}

/// One flagged regression from [`check`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Metric name.
    pub metric: String,
    /// Baseline (median-of-window) milliseconds.
    pub baseline_ms: f64,
    /// Current milliseconds.
    pub current_ms: f64,
    /// `current / baseline`.
    pub ratio: f64,
    /// The relative tolerance that was exceeded.
    pub tolerance: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.4} ms vs baseline {:.4} ms ({:.2}x > allowed {:.2}x)",
            self.metric,
            self.current_ms,
            self.baseline_ms,
            self.ratio,
            1.0 + self.tolerance
        )
    }
}

/// Compares `current` against `baseline`, flagging every metric whose
/// timing exceeds its baseline by more than its relative tolerance.
/// Metrics without a baseline (first appearance) and baseline metrics
/// missing from `current` (a bench was removed) are not regressions.
pub fn check(baseline: &BTreeMap<String, f64>, current: &BTreeMap<String, f64>) -> Vec<Regression> {
    let mut out = Vec::new();
    for (metric, &current_ms) in current {
        let Some(&baseline_ms) = baseline.get(metric) else {
            continue;
        };
        if baseline_ms <= 0.0 {
            continue;
        }
        let tolerance = tolerance_of(metric);
        let ratio = current_ms / baseline_ms;
        if ratio > 1.0 + tolerance {
            out.push(Regression {
                metric: metric.clone(),
                baseline_ms,
                current_ms,
                ratio,
                tolerance,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(commit: &str, metrics: &[(&str, f64)]) -> HistoryRecord {
        HistoryRecord {
            commit: commit.into(),
            unix_secs: 1_700_000_000,
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    #[test]
    fn records_roundtrip_through_jsonl() {
        let r = rec(
            "abc123",
            &[("kernel.top1_batch", 1.25), ("lp.warm_replay", 40.0)],
        );
        let text = format!("{}\n\n{}\n", r.to_jsonl(), r.to_jsonl());
        let parsed = parse_history(&text).unwrap();
        assert_eq!(parsed, vec![r.clone(), r]);
        assert!(parse_history("{\"commit\":\"x\"}").is_err());
        assert!(parse_history("garbage").unwrap_err().starts_with("line 1"));
    }

    #[test]
    fn baseline_is_median_of_trailing_window() {
        // Six records; window 5 → the first (outlier 100.0) falls out, and
        // the one remaining fast outlier (0.1) cannot move the median.
        let vals = [100.0, 1.0, 1.1, 0.1, 1.2, 1.0];
        let history: Vec<_> = vals
            .iter()
            .map(|&v| rec("c", &[("kernel.vertex_update", v)]))
            .collect();
        let base = baseline_of(&history, 5);
        assert_eq!(base["kernel.vertex_update"], 1.0);

        // Odd/even medians.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn synthetic_top1_slowdown_fails_and_steady_state_passes() {
        let history = vec![
            rec("a", &[("kernel.top1_batch", 1.0), ("lp.warm_replay", 40.0)]),
            rec("b", &[("kernel.top1_batch", 1.1), ("lp.warm_replay", 41.0)]),
            rec("c", &[("kernel.top1_batch", 0.9), ("lp.warm_replay", 39.0)]),
        ];
        let base = baseline_of(&history, BASELINE_WINDOW);

        // Same-speed run (within tolerance): no regression.
        let steady = rec("d", &[("kernel.top1_batch", 1.2), ("lp.warm_replay", 44.0)]);
        assert!(check(&base, &steady.metrics).is_empty());

        // Synthetic 2x slowdown of the top1_batch kernel: flagged, with
        // the untouched metric left alone.
        let slow = rec("e", &[("kernel.top1_batch", 2.0), ("lp.warm_replay", 40.0)]);
        let regs = check(&base, &slow.metrics);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "kernel.top1_batch");
        assert!((regs[0].ratio - 2.0).abs() < 1e-9);
        assert!(regs[0].to_string().contains("kernel.top1_batch"));
    }

    #[test]
    fn new_and_removed_metrics_are_not_regressions() {
        let base = baseline_of(&[rec("a", &[("kernel.old", 1.0)])], BASELINE_WINDOW);
        let current = rec("b", &[("kernel.new", 50.0)]);
        assert!(check(&base, &current.metrics).is_empty());
    }

    #[test]
    fn tolerances_are_prefix_matched() {
        assert_eq!(tolerance_of("kernel.top1_batch"), 0.50);
        assert_eq!(tolerance_of("lp.warm_replay"), 0.35);
        assert_eq!(tolerance_of("geom.cloud_cut"), 0.40);
        assert_eq!(tolerance_of("round.ea_untrained"), 0.35);
        assert_eq!(tolerance_of("p99.round_ea_untrained"), 0.60);
        assert_eq!(tolerance_of("scan.top1_soa"), 0.50);
        assert_eq!(tolerance_of("serve.round_p99"), 0.60);
        assert_eq!(tolerance_of("serve.wire_round_p50"), 0.60);
        assert_eq!(tolerance_of("serve.wire_round_p99"), 0.60);
        assert_eq!(tolerance_of("something.else"), DEFAULT_TOLERANCE);
    }

    #[test]
    #[should_panic(expected = "NaN timing")]
    fn median_rejects_nan_timings_loudly() {
        median(&[1.0, f64::NAN, 2.0]);
    }

    #[test]
    fn ceilings_flag_without_any_history() {
        // Under the ceiling (and metrics with no ceiling): clean.
        let ok = rec("a", &[("round.ea_sampled_d20", 90.0), ("kernel.dot", 1e6)]);
        assert!(check_ceilings(&ok.metrics).is_empty());

        // Over the ceiling: flagged even though there is no baseline.
        let bad = rec("b", &[("round.ea_sampled_d20", 150.0)]);
        let v = check_ceilings(&bad.metrics);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].metric, "round.ea_sampled_d20");
        assert_eq!(v[0].ceiling_ms, 142.79);
        assert!(v[0].to_string().contains("absolute ceiling"));

        // A missing metric is not a violation (the bench may be filtered).
        assert!(check_ceilings(&rec("c", &[("kernel.dot", 1.0)]).metrics).is_empty());
    }
}
