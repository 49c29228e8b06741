//! Trace-driven aggregate reports.
//!
//! [`report`] ingests any JSONL trace produced by `--trace-out` (round,
//! episode, sweep_item, and timeseries events, with or without the trailing
//! summary) and reduces it to the paper-style aggregate tables the
//! `trace-report` CLI subcommand renders: question-count distributions per
//! algorithm and sweep cell, the per-phase self-time breakdown of the
//! episode profiles, the warm-vs-cold LP counters, and the live-progress
//! series sampled by the periodic snapshotter.
//!
//! Everything here is deterministic: events are reduced in file order into
//! `BTreeMap`s and every number is formatted with fixed precision, so two
//! reports over the same trace are byte-identical (an acceptance gate of
//! the observability layer — reports feed EXPERIMENTS.md and CI artifacts,
//! where spurious diffs would drown real changes).

use std::collections::BTreeMap;

use crate::json::{parse, Json};

/// A rendered-but-unstyled aggregate table: the CLI maps these 1:1 onto
/// `bench::report::Table` for terminal/JSON/CSV output without this crate
/// needing a dependency on the bench harness.
#[derive(Debug, Clone)]
pub struct ReportTable {
    /// Stable identifier (`questions`, `phases`, `lp`, `timeseries`, …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Pre-formatted rows.
    pub rows: Vec<Vec<String>>,
}

impl ReportTable {
    fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }
}

/// Distribution accumulator over a list of observations.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    values: Vec<f64>,
}

impl Dist {
    /// Records one observation.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }
    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }
    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }
    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
    /// Lower median.
    pub fn p50(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut v = self.values.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        v[(v.len() - 1) / 2]
    }
}

/// Everything [`report`] extracted from a trace, reduced and ready for
/// table assembly. Exposed so programmatic consumers (tests, future
/// dashboards) can skip the string formatting.
#[derive(Debug, Default)]
pub struct TraceAggregates {
    /// Per (cell, algo): question counts of every `sweep_item`.
    pub sweep_questions: BTreeMap<(String, String), Dist>,
    /// Per algo: question counts of interactive sessions reconstructed
    /// from `round` events (each maximal `1..n` run is one session).
    pub session_questions: BTreeMap<String, Dist>,
    /// Per algo: rounds per training episode from `episode` events.
    pub episode_rounds: BTreeMap<String, Dist>,
    /// Per algo: truncated-episode count.
    pub episode_truncated: BTreeMap<String, u64>,
    /// Per algo: (round events, events carrying `round_ms`, sum of their
    /// `round_ms`). Older traces without `round_ms` count as rounds but
    /// stay out of the latency mean.
    pub round_time: BTreeMap<String, (u64, u64, f64)>,
    /// Per algo: span path → self milliseconds summed over `profile` events.
    pub profile_self_ms: BTreeMap<String, BTreeMap<String, f64>>,
    /// Per algo: rounds summed over `profile` events.
    pub profile_rounds: BTreeMap<String, u64>,
    /// `timeseries` samples in file order:
    /// (seq, t_ms, counter deltas, gauges).
    #[allow(clippy::type_complexity)]
    pub series: Vec<(u64, f64, BTreeMap<String, f64>, BTreeMap<String, f64>)>,
    /// Per connection: server-side request latencies (ms) in file order,
    /// from wire-tagged `serve_round` events.
    pub serve_rounds: BTreeMap<u64, Vec<f64>>,
    /// Per connection: answered-round count (`serve_round` with
    /// `round >= 1`; the session-opening hello is a request but not a
    /// round).
    pub serve_answered: BTreeMap<u64, u64>,
    /// Per (connection, error kind): `serve_error` counts.
    pub serve_errors: BTreeMap<(u64, String), u64>,
    /// Flight-recorder dumps, in file order.
    pub slow_rounds: Vec<SlowRoundRow>,
    /// Counters from the trailing summary (empty when absent).
    pub summary_counters: BTreeMap<String, f64>,
    /// Quantile-sketch summaries from the trailing summary:
    /// name → (count, p50, p90, p99, max).
    pub summary_sketches: BTreeMap<String, (f64, f64, f64, f64, f64)>,
    /// Events per kind.
    pub census: BTreeMap<String, usize>,
}

/// One `slow_round` event reduced to its report row: wire identity,
/// latency vs threshold, and the span the tree blames (largest self time).
#[derive(Debug, Clone, PartialEq)]
pub struct SlowRoundRow {
    /// Connection id.
    pub conn: u64,
    /// Request id.
    pub req: u64,
    /// Session id.
    pub session: u64,
    /// Round number.
    pub round: u64,
    /// Observed latency, ms.
    pub ms: f64,
    /// Trigger threshold (factor × rolling p99), ms.
    pub threshold_ms: f64,
    /// Span path with the largest self time in the dump.
    pub top_span: String,
    /// That span's self time, ms.
    pub top_self_ms: f64,
}

fn num(doc: &Json, field: &str) -> Option<f64> {
    doc.get(field).and_then(Json::as_f64)
}

fn text(doc: &Json, field: &str) -> Option<String> {
    doc.get(field).and_then(Json::as_str).map(String::from)
}

/// Reduces a JSONL trace into [`TraceAggregates`]. Unknown event kinds are
/// skipped (forward compatibility); malformed JSON is an error with the
/// offending line number. Session reconstruction mirrors the validator's
/// interleaving rule: a `round == 1` opens a session, `round == r` advances
/// one open session sitting at `r - 1`; the multiset of final positions is
/// the question-count distribution regardless of which session advances.
pub fn ingest(trace: &str) -> Result<TraceAggregates, String> {
    let mut agg = TraceAggregates::default();
    // Per algo: open-session count by current round (see the doc comment).
    let mut open: BTreeMap<String, BTreeMap<u64, usize>> = BTreeMap::new();
    for (lineno, line) in trace.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = match doc.get("ev").and_then(Json::as_str) {
            Some(k) => k.to_string(),
            None => return Err(format!("line {}: missing 'ev' field", lineno + 1)),
        };
        *agg.census.entry(kind.clone()).or_insert(0) += 1;
        match kind.as_str() {
            "round" => {
                let algo = text(&doc, "algo").unwrap_or_default();
                let round = num(&doc, "round").unwrap_or(0.0);
                if round >= 1.0 && round.fract() == 0.0 {
                    let r = round as u64;
                    let sessions = open.entry(algo.clone()).or_default();
                    if r > 1 {
                        if let Some(n) = sessions.get_mut(&(r - 1)) {
                            *n -= 1;
                            if *n == 0 {
                                sessions.remove(&(r - 1));
                            }
                        }
                    }
                    *sessions.entry(r).or_insert(0) += 1;
                }
                let (n, timed, total) = agg.round_time.entry(algo).or_insert((0, 0, 0.0));
                *n += 1;
                if let Some(ms) = num(&doc, "round_ms") {
                    *timed += 1;
                    *total += ms;
                }
            }
            "profile" => {
                let algo = text(&doc, "algo").unwrap_or_default();
                *agg.profile_rounds.entry(algo.clone()).or_insert(0) +=
                    num(&doc, "rounds").unwrap_or(0.0) as u64;
                let phases = agg.profile_self_ms.entry(algo).or_default();
                for (path, stat) in doc.get("spans").and_then(Json::as_obj).unwrap_or(&[]) {
                    *phases.entry(path.clone()).or_insert(0.0) +=
                        num(stat, "self_ms").unwrap_or(0.0);
                }
            }
            "episode" => {
                let algo = text(&doc, "algo").unwrap_or_default();
                if let Some(r) = num(&doc, "rounds") {
                    agg.episode_rounds.entry(algo.clone()).or_default().push(r);
                }
                if doc.get("truncated").and_then(Json::as_bool) == Some(true) {
                    *agg.episode_truncated.entry(algo).or_insert(0) += 1;
                }
            }
            "sweep_item" => {
                let cell = text(&doc, "cell").unwrap_or_default();
                let algo = text(&doc, "algo").unwrap_or_default();
                if let Some(r) = num(&doc, "rounds") {
                    agg.sweep_questions.entry((cell, algo)).or_default().push(r);
                }
            }
            "timeseries" => {
                let seq = num(&doc, "seq").unwrap_or(0.0) as u64;
                let t_ms = num(&doc, "t_ms").unwrap_or(0.0);
                let counters = doc
                    .get("counters")
                    .map(Json::to_num_map)
                    .unwrap_or_default();
                let gauges = doc.get("gauges").map(Json::to_num_map).unwrap_or_default();
                agg.series.push((seq, t_ms, counters, gauges));
            }
            "serve_round" => {
                let conn = num(&doc, "conn").unwrap_or(0.0) as u64;
                agg.serve_rounds
                    .entry(conn)
                    .or_default()
                    .push(num(&doc, "ms").unwrap_or(0.0));
                if num(&doc, "round").unwrap_or(0.0) >= 1.0 {
                    *agg.serve_answered.entry(conn).or_insert(0) += 1;
                }
            }
            "serve_error" => {
                let conn = num(&doc, "conn").unwrap_or(0.0) as u64;
                let kind = text(&doc, "kind").unwrap_or_default();
                *agg.serve_errors.entry((conn, kind)).or_insert(0) += 1;
            }
            "slow_round" => {
                let (top_span, top_self_ms) = doc
                    .get("spans")
                    .and_then(crate::flight::top_self_span)
                    .unwrap_or_default();
                agg.slow_rounds.push(SlowRoundRow {
                    conn: num(&doc, "conn").unwrap_or(0.0) as u64,
                    req: num(&doc, "req").unwrap_or(0.0) as u64,
                    session: num(&doc, "session").unwrap_or(0.0) as u64,
                    round: num(&doc, "round").unwrap_or(0.0) as u64,
                    ms: num(&doc, "ms").unwrap_or(0.0),
                    threshold_ms: num(&doc, "threshold_ms").unwrap_or(0.0),
                    top_span,
                    top_self_ms,
                });
            }
            "summary" => {
                if let Some(c) = doc.get("counters") {
                    agg.summary_counters = c.to_num_map();
                }
                if let Some(Json::Obj(sketches)) = doc.get("sketches") {
                    for (name, s) in sketches {
                        let g = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                        agg.summary_sketches.insert(
                            name.clone(),
                            (g("count"), g("p50"), g("p90"), g("p99"), g("max")),
                        );
                    }
                }
            }
            _ => {}
        }
    }
    // Finished sessions are the final cursor positions.
    for (algo, sessions) in open {
        let dist = agg.session_questions.entry(algo).or_default();
        for (round, count) in sessions {
            for _ in 0..count {
                dist.push(round as f64);
            }
        }
    }
    Ok(agg)
}

fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Nearest-rank percentile over a sorted slice (same convention as the
/// loadgen's client-side percentiles, so server and client tables agree on
/// small samples). 0 when empty.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn u(x: f64) -> String {
    format!("{}", x as u64)
}

/// Assembles the aggregate tables. Tables with no underlying events are
/// omitted, so a pure-training trace reports episodes and phases while an
/// evaluation trace reports sessions and sweep cells.
pub fn tables(agg: &TraceAggregates) -> Vec<ReportTable> {
    let mut out = Vec::new();

    // Question-count distributions: the paper's headline metric.
    if !agg.session_questions.is_empty() || !agg.sweep_questions.is_empty() {
        let mut t = ReportTable::new(
            "questions",
            "Question-count distribution per algorithm (and sweep cell)",
            &["cell", "algo", "sessions", "mean", "min", "p50", "max"],
        );
        for (algo, d) in &agg.session_questions {
            t.rows.push(vec![
                "-".into(),
                algo.clone(),
                d.count().to_string(),
                f2(d.mean()),
                u(d.min()),
                u(d.p50()),
                u(d.max()),
            ]);
        }
        for ((cell, algo), d) in &agg.sweep_questions {
            t.rows.push(vec![
                cell.clone(),
                algo.clone(),
                d.count().to_string(),
                f2(d.mean()),
                u(d.min()),
                u(d.p50()),
                u(d.max()),
            ]);
        }
        out.push(t);
    }

    if !agg.episode_rounds.is_empty() {
        let mut t = ReportTable::new(
            "episodes",
            "Training-episode round counts per algorithm",
            &["algo", "episodes", "mean_rounds", "min", "max", "truncated"],
        );
        for (algo, d) in &agg.episode_rounds {
            t.rows.push(vec![
                algo.clone(),
                d.count().to_string(),
                f2(d.mean()),
                u(d.min()),
                u(d.max()),
                agg.episode_truncated
                    .get(algo)
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
            ]);
        }
        out.push(t);
    }

    // Per-phase breakdown: every span path's self time, so the rows of one
    // algorithm partition its profiled wall time.
    if !agg.profile_self_ms.is_empty() {
        let mut t = ReportTable::new(
            "phases",
            "Per-phase self time across profile events",
            &["algo", "phase", "self_ms", "share_pct", "ms_per_round"],
        );
        for (algo, phases) in &agg.profile_self_ms {
            let algo_total: f64 = phases.values().sum();
            let rounds = agg.profile_rounds.get(algo).copied().unwrap_or(0).max(1);
            for (phase, &ms) in phases {
                t.rows.push(vec![
                    algo.clone(),
                    phase.clone(),
                    f2(ms),
                    f2(if algo_total > 0.0 {
                        100.0 * ms / algo_total
                    } else {
                        0.0
                    }),
                    format!("{:.4}", ms / rounds as f64),
                ]);
            }
        }
        out.push(t);
    }

    if !agg.round_time.is_empty() {
        let mut t = ReportTable::new(
            "rounds",
            "Round events and mean round latency per algorithm",
            &["algo", "rounds", "total_ms", "mean_ms"],
        );
        for (algo, &(n, timed, total)) in &agg.round_time {
            t.rows.push(vec![
                algo.clone(),
                n.to_string(),
                f2(total),
                format!("{:.4}", total / timed.max(1) as f64),
            ]);
        }
        out.push(t);
    }

    // Warm-vs-cold LP counters from the summary.
    let lp: Vec<(&String, &f64)> = agg
        .summary_counters
        .iter()
        .filter(|(k, _)| k.starts_with("lp."))
        .collect();
    if !lp.is_empty() {
        let mut t = ReportTable::new(
            "lp",
            "LP solver counters (warm vs cold)",
            &["counter", "value"],
        );
        for (k, v) in lp {
            t.rows.push(vec![k.clone(), u(*v)]);
        }
        let attempts = agg.summary_counters.get("lp.warm.attempts").copied();
        let hits = agg.summary_counters.get("lp.warm.hits").copied();
        if let (Some(a), Some(h)) = (attempts, hits) {
            if a > 0.0 {
                t.rows
                    .push(vec!["warm_hit_rate_pct".into(), f2(100.0 * h / a)]);
            }
        }
        out.push(t);
    }

    // Tail-latency percentiles from the summary's quantile sketches.
    if !agg.summary_sketches.is_empty() {
        let mut t = ReportTable::new(
            "latency",
            "Quantile sketches (p50/p90/p99 with bounded relative error)",
            &["sketch", "count", "p50", "p90", "p99", "max"],
        );
        for (name, &(count, p50, p90, p99, max)) in &agg.summary_sketches {
            t.rows.push(vec![
                name.clone(),
                u(count),
                format!("{p50:.4}"),
                format!("{p90:.4}"),
                format!("{p99:.4}"),
                format!("{max:.4}"),
            ]);
        }
        out.push(t);
    }

    // Per-connection serve-path attribution from wire-tagged events.
    if !agg.serve_rounds.is_empty() || !agg.serve_errors.is_empty() {
        let mut t = ReportTable::new(
            "serve",
            "Per-connection serve rounds and latency (from serve_round/serve_error events)",
            &[
                "conn", "requests", "rounds", "errors", "p50_ms", "p99_ms", "max_ms",
            ],
        );
        let mut conns: Vec<u64> = agg.serve_rounds.keys().copied().collect();
        conns.extend(agg.serve_errors.keys().map(|(c, _)| *c));
        conns.sort_unstable();
        conns.dedup();
        for conn in conns {
            let ms = agg.serve_rounds.get(&conn).cloned().unwrap_or_default();
            let mut sorted = ms.clone();
            sorted.sort_by(f64::total_cmp);
            let errors: u64 = agg
                .serve_errors
                .iter()
                .filter(|((c, _), _)| *c == conn)
                .map(|(_, n)| n)
                .sum();
            t.rows.push(vec![
                conn.to_string(),
                ms.len().to_string(),
                agg.serve_answered
                    .get(&conn)
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
                errors.to_string(),
                format!("{:.4}", nearest_rank(&sorted, 0.50)),
                format!("{:.4}", nearest_rank(&sorted, 0.99)),
                format!("{:.4}", sorted.last().copied().unwrap_or(0.0)),
            ]);
        }
        out.push(t);
    }

    // Error-kind histogram per connection.
    if !agg.serve_errors.is_empty() {
        let mut t = ReportTable::new(
            "serve_errors",
            "Serve error-kind histogram per connection",
            &["conn", "kind", "count"],
        );
        for ((conn, kind), n) in &agg.serve_errors {
            t.rows
                .push(vec![conn.to_string(), kind.clone(), n.to_string()]);
        }
        out.push(t);
    }

    // Flight-recorder dumps: which span owned each tail-latency outlier.
    if !agg.slow_rounds.is_empty() {
        let mut t = ReportTable::new(
            "slow",
            "Flight-recorder slow_round dumps (top span by self time)",
            &[
                "conn",
                "req",
                "session",
                "round",
                "ms",
                "threshold_ms",
                "top_span",
                "top_self_ms",
            ],
        );
        for s in &agg.slow_rounds {
            t.rows.push(vec![
                s.conn.to_string(),
                s.req.to_string(),
                s.session.to_string(),
                s.round.to_string(),
                f2(s.ms),
                f2(s.threshold_ms),
                s.top_span.clone(),
                f2(s.top_self_ms),
            ]);
        }
        out.push(t);
    }

    // Snapshotter samples: live-progress rates per interval.
    if !agg.series.is_empty() {
        let mut t = ReportTable::new(
            "timeseries",
            "Periodic snapshotter samples (deltas per interval)",
            &[
                "seq",
                "t_s",
                "episodes",
                "episodes_per_s",
                "rounds",
                "lp_solves",
                "warm_hit_pct",
                "replay_occupancy",
            ],
        );
        let mut last_t = 0.0f64;
        for (seq, t_ms, counters, gauges) in &agg.series {
            let dt = ((t_ms - last_t) / 1e3).max(1e-9);
            last_t = *t_ms;
            let c = |k: &str| counters.get(k).copied().unwrap_or(0.0);
            let episodes = c("train.episodes");
            let warm_attempts = c("lp.warm.attempts");
            let warm_pct = if warm_attempts > 0.0 {
                f2(100.0 * c("lp.warm.hits") / warm_attempts)
            } else {
                "-".into()
            };
            t.rows.push(vec![
                seq.to_string(),
                f2(t_ms / 1e3),
                u(episodes),
                f2(episodes / dt),
                u(c("rounds.total")),
                u(c("lp.solves")),
                warm_pct,
                u(gauges.get("dqn.replay_occupancy").copied().unwrap_or(0.0)),
            ]);
        }
        out.push(t);
    }

    if !agg.census.is_empty() {
        let mut t = ReportTable::new("census", "Events per kind", &["kind", "events"]);
        for (kind, n) in &agg.census {
            t.rows.push(vec![kind.clone(), n.to_string()]);
        }
        out.push(t);
    }

    out
}

/// One-call convenience: ingest a trace and assemble its tables.
pub fn report(trace: &str) -> Result<Vec<ReportTable>, String> {
    Ok(tables(&ingest(trace)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The first round line is a legacy one: its `phase_ms` object is
    // ignored, not rejected. The last EA round predates `round_ms` and
    // stays out of the latency mean.
    const TRACE: &str = concat!(
        r#"{"ev":"round","t_ms":1,"algo":"EA","round":1,"elapsed_ms":2.0,"round_ms":2.0,"phase_ms":{"lp":1.0,"top1":0.5}}"#,
        "\n",
        r#"{"ev":"round","t_ms":2,"algo":"EA","round":2,"elapsed_ms":3.0,"round_ms":1.0}"#,
        "\n",
        r#"{"ev":"round","t_ms":3,"algo":"AA","round":1,"elapsed_ms":1.0,"round_ms":0.5}"#,
        "\n",
        r#"{"ev":"round","t_ms":4,"algo":"EA","round":1,"elapsed_ms":1.0}"#,
        "\n",
        r#"{"ev":"profile","t_ms":4,"algo":"EA","rounds":2,"spans":{"lp":{"count":3,"total_ms":3.0,"self_ms":3.0},"top1":{"count":2,"total_ms":0.5,"self_ms":0.5}}}"#,
        "\n",
        r#"{"ev":"episode","t_ms":5,"algo":"EA","episode":0,"rounds":2,"epsilon":0.9,"replay_len":4,"truncated":true}"#,
        "\n",
        r#"{"ev":"sweep_item","t_ms":6,"cell":"c0_d4","algo":"EA","user":0,"rounds":5,"secs":0.01}"#,
        "\n",
        r#"{"ev":"timeseries","t_ms":1000,"seq":1,"interval_ms":1000,"counters":{"train.episodes":4,"lp.warm.attempts":10,"lp.warm.hits":9},"gauges":{"dqn.replay_occupancy":64}}"#,
        "\n",
        r#"{"ev":"summary","t_ms":7,"counters":{"lp.solves":12,"lp.warm.attempts":10,"lp.warm.hits":9},"spans":{},"hists":{}}"#,
        "\n",
    );

    #[test]
    fn sessions_reconstruct_from_interleaved_rounds() {
        let agg = ingest(TRACE).unwrap();
        // EA: one 2-round session plus one 1-round session; AA: one 1-round.
        let ea = &agg.session_questions["EA"];
        assert_eq!(ea.count(), 2);
        assert_eq!(ea.max(), 2.0);
        assert_eq!(ea.min(), 1.0);
        assert_eq!(agg.session_questions["AA"].count(), 1);
        assert_eq!(
            agg.sweep_questions[&("c0_d4".into(), "EA".into())].count(),
            1
        );
        assert_eq!(agg.profile_self_ms["EA"]["lp"], 3.0);
        assert!(!agg.profile_self_ms.contains_key("AA"));
        assert_eq!(agg.episode_truncated["EA"], 1);
        assert_eq!(agg.series.len(), 1);
    }

    #[test]
    fn phases_rows_are_profile_self_times() {
        let trace = concat!(
            r#"{"ev":"profile","t_ms":1,"algo":"EA","rounds":3,"spans":{"geom_update":{"count":3,"total_ms":10.0,"self_ms":1.0},"geom_update/lp":{"count":6,"total_ms":6.0,"self_ms":6.0},"geom_update/cloud_resample":{"count":3,"total_ms":3.0,"self_ms":3.0},"nn":{"count":3,"total_ms":2.0,"self_ms":2.0}}}"#,
            "\n",
            r#"{"ev":"profile","t_ms":2,"algo":"EA","rounds":1,"spans":{"geom_update":{"count":1,"total_ms":4.0,"self_ms":1.0},"geom_update/lp":{"count":2,"total_ms":3.0,"self_ms":3.0},"nn":{"count":1,"total_ms":1.0,"self_ms":1.0}}}"#,
            "\n",
        );
        let ts = report(trace).unwrap();
        let phases = ts.iter().find(|t| t.id == "phases").unwrap();
        let row = |path: &str| phases.rows.iter().find(|r| r[1] == path).unwrap();
        // Self time only: the lp and cloud_resample children are not
        // charged to geom_update a second time.
        assert_eq!(row("geom_update")[2], "2.00");
        assert_eq!(row("geom_update/lp")[2], "9.00");
        // 17 ms profiled over 4 rounds.
        assert_eq!(row("geom_update")[4], "0.5000");
        let shares: f64 = phases
            .rows
            .iter()
            .map(|r| r[3].parse::<f64>().unwrap())
            .sum();
        assert!((shares - 100.0).abs() < 0.05, "shares sum to {shares}");
    }

    #[test]
    fn tables_are_deterministic() {
        let a = report(TRACE).unwrap();
        let b = report(TRACE).unwrap();
        let render = |ts: &[ReportTable]| {
            ts.iter()
                .map(|t| format!("{}|{:?}|{:?}", t.id, t.headers, t.rows))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&a), render(&b));
        let ids: Vec<&str> = a.iter().map(|t| t.id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "questions",
                "episodes",
                "phases",
                "rounds",
                "lp",
                "timeseries",
                "census"
            ]
        );
        let lp = a.iter().find(|t| t.id == "lp").unwrap();
        assert!(lp
            .rows
            .iter()
            .any(|r| r[0] == "warm_hit_rate_pct" && r[1] == "90.00"));
        // The mean is over `round_ms`: EA has three round events, two of
        // them timed (2.0 and 1.0 ms).
        let rounds = a.iter().find(|t| t.id == "rounds").unwrap();
        assert_eq!(rounds.rows[0], vec!["AA", "1", "0.50", "0.5000"]);
        assert_eq!(rounds.rows[1], vec!["EA", "3", "3.00", "1.5000"]);
    }

    #[test]
    fn ingest_rejects_malformed_json_with_line_number() {
        let err = ingest("{\"ev\":\"round\"}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    const SERVE_TRACE: &str = concat!(
        r#"{"ev":"serve_round","t_ms":1,"conn":1,"req":1,"session":10,"round":0,"ms":2.0}"#,
        "\n",
        r#"{"ev":"serve_round","t_ms":2,"conn":1,"req":2,"session":10,"round":1,"ms":4.0}"#,
        "\n",
        r#"{"ev":"serve_round","t_ms":3,"conn":1,"req":3,"session":10,"round":2,"ms":6.0}"#,
        "\n",
        r#"{"ev":"serve_round","t_ms":4,"conn":2,"req":4,"session":11,"round":0,"ms":1.0}"#,
        "\n",
        r#"{"ev":"serve_error","t_ms":5,"conn":2,"kind":"stale_round"}"#,
        "\n",
        r#"{"ev":"serve_error","t_ms":6,"conn":2,"kind":"stale_round"}"#,
        "\n",
        r#"{"ev":"serve_error","t_ms":7,"conn":3,"kind":"parse"}"#,
        "\n",
        r#"{"ev":"slow_round","t_ms":8,"conn":1,"req":3,"session":10,"round":2,"ms":6.0,"threshold_ms":5.0,"p99_ms":1.2,"spans":{"serve_batch":{"count":1,"total_ms":6.0,"self_ms":0.5},"serve_batch/top1":{"count":2,"total_ms":5.5,"self_ms":5.5}},"recent":[{"conn":1,"req":3,"session":10,"round":2,"ms":6.0}]}"#,
        "\n",
    );

    #[test]
    fn serve_tables_attribute_per_connection() {
        let agg = ingest(SERVE_TRACE).unwrap();
        assert_eq!(agg.serve_rounds[&1].len(), 3);
        assert_eq!(agg.serve_answered[&1], 2); // hello row is not a round
        assert_eq!(agg.serve_errors[&(2, "stale_round".into())], 2);

        let ts = tables(&agg);
        let ids: Vec<&str> = ts.iter().map(|t| t.id.as_str()).collect();
        assert_eq!(ids, vec!["serve", "serve_errors", "slow", "census"]);

        let serve = ts.iter().find(|t| t.id == "serve").unwrap();
        // conn 1: 3 requests, 2 rounds, p50 = 4.0, p99 = max = 6.0.
        assert_eq!(
            serve.rows[0],
            vec!["1", "3", "2", "0", "4.0000", "6.0000", "6.0000"]
        );
        // conn 3 appears even though it only produced errors.
        assert_eq!(serve.rows[2][0], "3");
        assert_eq!(serve.rows[2][3], "1");

        let slow = ts.iter().find(|t| t.id == "slow").unwrap();
        assert_eq!(slow.rows.len(), 1);
        assert_eq!(slow.rows[0][6], "serve_batch/top1");

        // Deterministic across runs.
        let again = report(SERVE_TRACE).unwrap();
        let find = |ts: &[ReportTable]| ts.iter().find(|t| t.id == "serve").unwrap().rows.clone();
        assert_eq!(find(&ts), find(&again));
    }
}
