//! Telemetry plumbing (`--trace-out`, `--metrics`, `--metrics-interval`)
//! and the `trace-validate` / `trace-report` commands.
//!
//! Telemetry is opt-in: the sink stays disabled (every instrumentation
//! site is one relaxed atomic load) unless one of the flags is given.
//! `--metrics-interval <secs>` additionally starts the background
//! snapshotter, which emits one `timeseries` event per interval (aggregate
//! deltas: episodes/sec, LP warm-hit rate, replay occupancy, per-phase
//! latency) and echoes a progress line to stderr. At the end of the
//! command the snapshotter is stopped (one final sample) and the sink is
//! drained exactly once — the JSONL file gets every buffered event plus
//! the trailing `summary` line, and `--metrics` prints the aggregate table
//! to stderr so it never mixes with a command's stdout output.

use std::time::Duration;

use crate::args::Args;
use crate::commands::CmdResult;

/// What the user asked for; returned by [`begin`], consumed by [`finish`].
pub struct TraceOpts {
    out: Option<String>,
    metrics: bool,
    snapshotter: Option<isrl_obs::Snapshotter>,
}

/// Reads `--trace-out` / `--metrics` / `--metrics-interval` and, if any is
/// present, enables the default telemetry sink. A positive
/// `--metrics-interval` starts the periodic snapshotter (echoing one
/// progress line per sample).
pub fn begin(args: &Args) -> Result<TraceOpts, Box<dyn std::error::Error>> {
    let out = args
        .get("trace-out")
        .filter(|p| !p.is_empty())
        .map(String::from);
    let metrics = args.has("metrics");
    let interval = args.get_or("metrics-interval", 0.0f64, "number of seconds")?;
    if interval < 0.0 || interval.is_nan() {
        return Err(format!("--metrics-interval {interval} must be >= 0").into());
    }
    let snapshotter = if out.is_some() || metrics || interval > 0.0 {
        isrl_obs::current_sink().set_enabled(true);
        (interval > 0.0)
            .then(|| isrl_obs::Snapshotter::start(Duration::from_secs_f64(interval), true))
    } else {
        None
    };
    Ok(TraceOpts {
        out,
        metrics,
        snapshotter,
    })
}

/// Stops the snapshotter (final sample) and drains the sink: writes the
/// JSONL trace (events + one `summary` line) when `--trace-out` was given,
/// prints the aggregate table to stderr when `--metrics` was given, and
/// warns loudly when the bounded event buffer overflowed (the trace is
/// incomplete and `trace-validate` would reject it). No-op when no
/// telemetry flag was present.
pub fn finish(opts: TraceOpts) -> CmdResult {
    if let Some(s) = opts.snapshotter {
        s.stop();
    } else if opts.out.is_none() && !opts.metrics {
        return Ok(());
    }
    let sink = isrl_obs::current_sink();
    sink.set_enabled(false);
    let snap = sink.snapshot();
    let dropped = sink.counter_value(isrl_obs::DROPPED_COUNTER);
    if let Some(path) = &opts.out {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        snap.write_jsonl(&mut file)?;
        use std::io::Write as _;
        file.flush()?;
        eprintln!(
            "trace: {} events written to {path}{}",
            snap.n_events(),
            if dropped > 0 {
                format!(" ({dropped} DROPPED — raise the interval or split the run)")
            } else {
                String::new()
            }
        );
    }
    if dropped > 0 {
        eprintln!(
            "warning: {dropped} event(s) dropped at the {} buffer cap; the trace is incomplete",
            isrl_obs::EVENT_CAP
        );
    }
    if opts.metrics {
        eprint!("{}", snap.render());
    }
    Ok(())
}

/// `isrl trace-validate <file>` — checks a `--trace-out` file against the
/// documented schema (DESIGN.md §9). Exits with an error when any line is
/// malformed, when the summary line is missing or duplicated, when round
/// or timeseries ordering is violated, or when a warning counter (LP
/// iteration caps, EA sampling fallbacks, dropped events) is nonzero.
pub fn validate(args: &Args) -> CmdResult {
    args.ensure_known(&[])?;
    let [path] = args.positional() else {
        return Err("usage: isrl trace-validate <trace.jsonl>".into());
    };
    let text = std::fs::read_to_string(path)?;
    let report = isrl_obs::schema::validate_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    for (kind, n) in &report.events {
        println!("{kind:<12} {n}");
    }
    if !report.warnings.is_empty() {
        for (name, v) in &report.warnings {
            eprintln!("warning counter {name} = {v} (expected 0)");
        }
        return Err(format!(
            "{path}: {} warning counter(s) nonzero",
            report.warnings.len()
        )
        .into());
    }
    println!("{path}: valid trace");
    Ok(())
}

/// `isrl trace-report <file>` — aggregates any JSONL trace into the
/// paper-style tables (question-count distributions, per-phase time
/// breakdown, warm-vs-cold LP counters, quantile-sketch latencies,
/// snapshotter timeseries) and prints them. `--json <dir>` additionally
/// saves every table as `<dir>/trace_<id>.json` in the
/// `bench::report::Table` format, and `--only <id>[,<id>…]` restricts
/// output to the named tables — an unknown id fails upfront, listing the
/// ids this trace actually produced. Output is deterministic: the same
/// trace always renders byte-identically.
pub fn report(args: &Args) -> CmdResult {
    args.ensure_known(&["json", "only"])?;
    let [path] = args.positional() else {
        return Err(
            "usage: isrl trace-report <trace.jsonl> [--json <dir>] [--only <id>[,<id>…]]".into(),
        );
    };
    let text = std::fs::read_to_string(path)?;
    let tables = isrl_obs::report::report(&text).map_err(|e| format!("{path}: {e}"))?;
    if tables.is_empty() {
        return Err(format!("{path}: no reportable events in trace").into());
    }
    let only: Vec<&str> = args
        .get("only")
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.split(',')
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .collect()
        })
        .unwrap_or_default();
    for id in &only {
        if !tables.iter().any(|t| t.id == *id) {
            return Err(format!(
                "no table with id {id:?}; available: {}",
                tables
                    .iter()
                    .map(|t| t.id.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
            .into());
        }
    }
    let json_dir = args.get("json").filter(|s| !s.is_empty());
    let mut printed = 0usize;
    for rt in &tables {
        if !only.is_empty() && !only.contains(&rt.id.as_str()) {
            continue;
        }
        let headers: Vec<&str> = rt.headers.iter().map(String::as_str).collect();
        let mut t = isrl_bench::report::Table::new(rt.id.clone(), rt.title.clone(), &headers);
        for row in &rt.rows {
            t.push_row(row.clone());
        }
        print!("{}", t.render());
        println!();
        if let Some(dir) = json_dir {
            let dir = std::path::Path::new(dir);
            std::fs::create_dir_all(dir)?;
            t.save_json(&dir.join(format!("trace_{}.json", t.id)))?;
        }
        printed += 1;
    }
    if let Some(dir) = json_dir {
        eprintln!("wrote {printed} table(s) as JSON under {dir}");
    }
    Ok(())
}

/// `isrl trace-diff <a> <b>` — aligns the span-tree profiles of two traces
/// and attributes the total latency delta (B − A) to per-subtree self-time
/// deltas (see `isrl_obs::profile`). Rows are ranked by absolute delta;
/// because self times partition each trace's attributed wall time, the
/// `share %` column says exactly which subtree owns the regression.
/// `--top <k>` bounds the table (default 10); `--json <dir>` also saves it
/// as `<dir>/trace_diff.json`.
pub fn diff(args: &Args) -> CmdResult {
    args.ensure_known(&["top", "json"])?;
    let [path_a, path_b] = args.positional() else {
        return Err("usage: isrl trace-diff <a.jsonl> <b.jsonl> [--top <k>] [--json <dir>]".into());
    };
    let top = args.get_or("top", 10usize, "integer")?;
    let load = |path: &str| -> Result<isrl_obs::profile::ProfileAccum, Box<dyn std::error::Error>> {
        let text = std::fs::read_to_string(path)?;
        let acc = isrl_obs::profile::ProfileAccum::from_trace(&text)
            .map_err(|e| format!("{path}: {e}"))?;
        if acc.events == 0 {
            return Err(format!(
                "{path}: no profile events — record the trace with --trace-out on a \
                 telemetry-enabled run"
            )
            .into());
        }
        Ok(acc)
    };
    let a = load(path_a)?;
    let b = load(path_b)?;
    let d = isrl_obs::profile::diff(&a, &b, top);
    println!(
        "trace A ({path_a}): {} profile event(s), {:.3} ms attributed",
        a.events, d.total_a_ms
    );
    println!(
        "trace B ({path_b}): {} profile event(s), {:.3} ms attributed",
        b.events, d.total_b_ms
    );
    println!("delta (B − A): {:+.3} ms\n", d.delta_ms);
    let mut t = isrl_bench::report::Table::new(
        "trace_diff",
        "Latency delta attribution by span subtree (self time, B − A)",
        &[
            "span",
            "count A",
            "count B",
            "total A (ms)",
            "total B (ms)",
            "Δself (ms)",
            "share %",
        ],
    );
    for r in &d.rows {
        t.push_row(vec![
            r.path.clone(),
            r.count_a.to_string(),
            r.count_b.to_string(),
            format!("{:.3}", r.total_a_ms),
            format!("{:.3}", r.total_b_ms),
            format!("{:+.3}", r.delta_self_ms),
            format!("{:+.1}", r.share_pct),
        ]);
    }
    print!("{}", t.render());
    if let Some(dir) = args.get("json").filter(|s| !s.is_empty()) {
        std::fs::create_dir_all(dir)?;
        t.save_json(&std::path::Path::new(dir).join("trace_diff.json"))?;
        eprintln!("wrote diff table as JSON under {dir}");
    }
    Ok(())
}
