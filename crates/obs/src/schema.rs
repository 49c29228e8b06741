//! The documented trace schema (DESIGN.md §9) and its validator.
//!
//! A trace file is JSONL: one event object per line, ending with exactly
//! one `summary` event. The validator is what `isrl trace-validate` and
//! the CI smoke job run; it checks structural requirements per event kind
//! and extracts the warning counters a healthy run must keep at zero.

use std::collections::BTreeMap;

use crate::json::{parse, Json};

/// Counters that indicate silent degradation when nonzero: LP iteration
/// caps (phase 1 or 2), training anomalies flagged by the watchdog
/// (NaN/exploding loss, epsilon stall, replay starvation), scans whose
/// scores were all NaN, events lost to the bounded buffer (an incomplete
/// trace must not pass quietly), and span paths truncated by the
/// depth/length bounds.
pub const WARNING_COUNTERS: &[&str] = &[
    "lp.cap_hits",
    "lp.phase1_cap_hits",
    "train.anomalies",
    "scan.top1_nan",
    crate::event::DROPPED_COUNTER,
    crate::span::TRUNCATED_COUNTER,
];

/// Field requirement: name plus expected shape.
enum Shape {
    Num,
    Str,
    Obj,
    Arr,
}

fn check(obj: &Json, field: &str, shape: Shape) -> Result<(), String> {
    let v = obj
        .get(field)
        .ok_or_else(|| format!("missing required field '{field}'"))?;
    let ok = match shape {
        Shape::Num => v.as_f64().is_some(),
        Shape::Str => v.as_str().is_some(),
        Shape::Obj => v.as_obj().is_some(),
        Shape::Arr => v.as_arr().is_some(),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("field '{field}' has the wrong type"))
    }
}

/// Validates one JSONL line; returns the event kind on success.
pub fn validate_line(line: &str) -> Result<String, String> {
    let doc = parse(line)?;
    if doc.as_obj().is_none() {
        return Err("event line is not a JSON object".into());
    }
    let kind = doc
        .get("ev")
        .and_then(Json::as_str)
        .ok_or("missing string field 'ev'")?
        .to_string();
    check(&doc, "t_ms", Shape::Num)?;
    match kind.as_str() {
        "round" => {
            check(&doc, "algo", Shape::Str)?;
            check(&doc, "round", Shape::Num)?;
            check(&doc, "elapsed_ms", Shape::Num)?;
        }
        "episode" => {
            check(&doc, "algo", Shape::Str)?;
            check(&doc, "episode", Shape::Num)?;
            check(&doc, "rounds", Shape::Num)?;
            check(&doc, "epsilon", Shape::Num)?;
            check(&doc, "replay_len", Shape::Num)?;
        }
        "sweep_item" => {
            check(&doc, "cell", Shape::Str)?;
            check(&doc, "algo", Shape::Str)?;
            check(&doc, "user", Shape::Num)?;
            check(&doc, "rounds", Shape::Num)?;
            check(&doc, "secs", Shape::Num)?;
        }
        "serve_session" => {
            check(&doc, "algo", Shape::Str)?;
            check(&doc, "user", Shape::Num)?;
            check(&doc, "rounds", Shape::Num)?;
            check(&doc, "ms", Shape::Num)?;
        }
        "serve_round" => {
            check(&doc, "conn", Shape::Num)?;
            check(&doc, "req", Shape::Num)?;
            check(&doc, "session", Shape::Num)?;
            check(&doc, "round", Shape::Num)?;
            check(&doc, "ms", Shape::Num)?;
        }
        "serve_error" => {
            check(&doc, "conn", Shape::Num)?;
            check(&doc, "kind", Shape::Str)?;
        }
        "slow_round" => {
            check(&doc, "conn", Shape::Num)?;
            check(&doc, "req", Shape::Num)?;
            check(&doc, "session", Shape::Num)?;
            check(&doc, "round", Shape::Num)?;
            check(&doc, "ms", Shape::Num)?;
            check(&doc, "threshold_ms", Shape::Num)?;
            check(&doc, "spans", Shape::Obj)?;
            check(&doc, "recent", Shape::Arr)?;
        }
        "timeseries" => {
            check(&doc, "seq", Shape::Num)?;
            check(&doc, "counters", Shape::Obj)?;
        }
        "profile" => {
            check(&doc, "algo", Shape::Str)?;
            check(&doc, "rounds", Shape::Num)?;
            check(&doc, "spans", Shape::Obj)?;
        }
        "anomaly" => {
            check(&doc, "algo", Shape::Str)?;
            check(&doc, "kind", Shape::Str)?;
            check(&doc, "episode", Shape::Num)?;
            check(&doc, "detail", Shape::Str)?;
        }
        "summary" => {
            check(&doc, "counters", Shape::Obj)?;
            check(&doc, "spans", Shape::Obj)?;
        }
        other => return Err(format!("unknown event kind '{other}'")),
    }
    Ok(kind)
}

/// What [`validate_trace`] learned about a whole trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Events per kind.
    pub events: BTreeMap<String, usize>,
    /// Warning counters present in the summary with nonzero values.
    pub warnings: Vec<(String, u64)>,
}

/// Tracks round-index order across interleaved interactions. A trace may
/// mix sessions freely (the parallel sweep emits `round` events from many
/// workers), so strict per-algorithm monotonicity would false-positive;
/// instead we require that each algorithm's round stream *decomposes into
/// interleaved `1..n` prefixes*: a round `r` is in order iff `r == 1`
/// (a session opens) or some open session for that algorithm is currently
/// at `r - 1` (it advances). Streams like `1, 3` or `2` have no such
/// decomposition and are rejected.
#[derive(Default)]
struct RoundOrder {
    /// Per algorithm: open-session count by current round index.
    cursors: BTreeMap<String, BTreeMap<u64, usize>>,
}

impl RoundOrder {
    fn observe(&mut self, algo: &str, round: f64) -> Result<(), String> {
        if round < 1.0 || round.fract() != 0.0 {
            return Err(format!("round index {round} is not a positive integer"));
        }
        let round = round as u64;
        let sessions = self.cursors.entry(algo.to_string()).or_default();
        if round > 1 {
            match sessions.get_mut(&(round - 1)) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    if *n == 0 {
                        sessions.remove(&(round - 1));
                    }
                }
                _ => {
                    return Err(format!(
                        "out-of-order round {round} for algo '{algo}' \
                         (no open session at round {})",
                        round - 1
                    ))
                }
            }
        }
        *sessions.entry(round).or_insert(0) += 1;
        Ok(())
    }
}

/// Validates a whole JSONL trace: every line must pass [`validate_line`],
/// exactly one `summary` line must be present, round indices must be in
/// order (see [`RoundOrder`]), and `timeseries` sequence numbers must be
/// strictly increasing. Returns the per-kind event census and any nonzero
/// warning counters from the summary.
pub fn validate_trace(text: &str) -> Result<TraceReport, String> {
    let mut report = TraceReport::default();
    let mut summaries = 0usize;
    let mut order = RoundOrder::default();
    let mut last_seq = 0.0f64;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fail = |e: String| format!("line {}: {e}", lineno + 1);
        let kind = validate_line(line).map_err(&fail)?;
        match kind.as_str() {
            "round" => {
                let doc = parse(line).expect("validated above");
                let algo = doc.get("algo").and_then(Json::as_str).expect("validated");
                let round = doc.get("round").and_then(Json::as_f64).expect("validated");
                order.observe(algo, round).map_err(&fail)?;
            }
            "timeseries" => {
                let doc = parse(line).expect("validated above");
                let seq = doc.get("seq").and_then(Json::as_f64).expect("validated");
                if seq <= last_seq {
                    return Err(fail(format!(
                        "timeseries seq {seq} out of order (previous was {last_seq})"
                    )));
                }
                last_seq = seq;
            }
            "summary" => {
                summaries += 1;
                let doc = parse(line).expect("validated above");
                let counters = doc.get("counters").expect("validated above").to_num_map();
                for &w in WARNING_COUNTERS {
                    if let Some(&v) = counters.get(w) {
                        if v > 0.0 {
                            report.warnings.push((w.to_string(), v as u64));
                        }
                    }
                }
            }
            _ => {}
        }
        *report.events.entry(kind).or_insert(0) += 1;
    }
    if summaries != 1 {
        return Err(format!(
            "expected exactly one summary event, found {summaries}"
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_documented_events() {
        assert_eq!(
            validate_line(
                r#"{"ev":"round","t_ms":1.5,"algo":"EA","round":1,"elapsed_ms":0.3,"i":2,"j":7}"#
            )
            .unwrap(),
            "round"
        );
        assert_eq!(
            validate_line(
                r#"{"ev":"episode","t_ms":9,"algo":"AA","episode":0,"rounds":4,"epsilon":0.9,"replay_len":12}"#
            )
            .unwrap(),
            "episode"
        );
        assert_eq!(
            validate_line(
                r#"{"ev":"sweep_item","t_ms":1,"cell":"d4","algo":"EA","user":3,"rounds":5,"secs":0.01}"#
            )
            .unwrap(),
            "sweep_item"
        );
        assert_eq!(
            validate_line(
                r#"{"ev":"profile","t_ms":3,"algo":"EA","rounds":5,"spans":{"lp":{"count":2,"total_ms":1.5,"self_ms":1.5}}}"#
            )
            .unwrap(),
            "profile"
        );
        assert_eq!(
            validate_line(
                r#"{"ev":"anomaly","t_ms":4,"algo":"EA","kind":"nonfinite_loss","episode":12,"value":null,"detail":"loss is NaN"}"#
            )
            .unwrap(),
            "anomaly"
        );
        assert_eq!(
            validate_line(
                r#"{"ev":"serve_session","t_ms":7,"algo":"EA","user":12,"rounds":5,"ms":43.1}"#
            )
            .unwrap(),
            "serve_session"
        );
        assert!(
            validate_line(r#"{"ev":"serve_session","t_ms":7,"algo":"EA","user":12}"#).is_err(),
            "serve_session requires rounds and ms"
        );
        assert_eq!(
            validate_line(
                r#"{"ev":"serve_round","t_ms":1,"conn":2,"req":17,"session":5,"round":3,"ms":4.2}"#
            )
            .unwrap(),
            "serve_round"
        );
        assert_eq!(
            validate_line(r#"{"ev":"serve_error","t_ms":1,"conn":2,"kind":"stale_round"}"#)
                .unwrap(),
            "serve_error"
        );
        assert_eq!(
            validate_line(
                r#"{"ev":"slow_round","t_ms":1,"conn":2,"req":17,"session":5,"round":3,"ms":80.0,"threshold_ms":12.0,"p99_ms":3.0,"spans":{"top1":{"count":1,"total_ms":79.0,"self_ms":79.0}},"recent":[{"conn":2,"req":17,"session":5,"round":3,"ms":80.0}]}"#
            )
            .unwrap(),
            "slow_round"
        );
        assert!(
            validate_line(
                r#"{"ev":"slow_round","t_ms":1,"conn":2,"req":17,"session":5,"round":3,"ms":80.0,"threshold_ms":12.0,"spans":{},"recent":{}}"#
            )
            .is_err(),
            "slow_round requires recent to be an array"
        );
        assert!(
            validate_line(r#"{"ev":"serve_round","t_ms":1,"conn":2,"req":17}"#).is_err(),
            "serve_round requires session, round, ms"
        );
    }

    #[test]
    fn rejects_unknown_or_malformed_events() {
        assert!(validate_line(r#"{"ev":"mystery","t_ms":0}"#).is_err());
        assert!(validate_line(r#"{"t_ms":0}"#).is_err());
        assert!(validate_line(r#"{"ev":"round","t_ms":0,"algo":"EA"}"#).is_err());
        assert!(validate_line("not json").is_err());
    }

    #[test]
    fn whole_trace_needs_one_summary_and_flags_warnings() {
        let good = concat!(
            r#"{"ev":"round","t_ms":0,"algo":"EA","round":1,"elapsed_ms":1}"#,
            "\n",
            r#"{"ev":"summary","t_ms":2,"counters":{"lp.pivots":9},"spans":{},"hists":{}}"#,
            "\n"
        );
        let r = validate_trace(good).unwrap();
        assert_eq!(r.events["round"], 1);
        assert!(r.warnings.is_empty());

        let warn =
            r#"{"ev":"summary","t_ms":2,"counters":{"lp.cap_hits":3},"spans":{},"hists":{}}"#;
        let r = validate_trace(warn).unwrap();
        assert_eq!(r.warnings, vec![("lp.cap_hits".to_string(), 3)]);

        let anomalous =
            r#"{"ev":"summary","t_ms":2,"counters":{"train.anomalies":2},"spans":{},"hists":{}}"#;
        let r = validate_trace(anomalous).unwrap();
        assert_eq!(r.warnings, vec![("train.anomalies".to_string(), 2)]);

        assert!(validate_trace("").is_err(), "no summary event");
    }
}
