//! Integration tests for the telemetry primitives.
//!
//! Every case records into its own private [`Sink`], so the cases run under
//! the default parallel test harness without observing each other's data
//! and assert absolute values.

use std::time::Duration;

use isrl_obs::{with_sink, Sink};

/// A private, enabled sink.
fn live_sink() -> Sink {
    let sink = Sink::new();
    sink.set_enabled(true);
    sink
}

#[test]
fn spans_nest_into_slash_paths_across_threads() {
    let sink = live_sink();
    let worker = || {
        let _outer = isrl_obs::span("episode");
        for _ in 0..3 {
            let _inner = isrl_obs::span("round");
            std::hint::black_box(());
        }
    };
    with_sink(&sink, || {
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(isrl_obs::in_current_sink(worker)))
            .collect();
        worker();
        for h in handles {
            h.join().unwrap();
        }
    });

    let snap = sink.snapshot();
    let stat = |path: &str| {
        snap.spans
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, s)| *s)
            .unwrap_or_else(|| panic!("span path '{path}' missing from {:?}", snap.spans))
    };
    // 5 workers (4 threads + the main thread), each: 1 episode, 3 rounds.
    assert_eq!(stat("episode").count, 5);
    assert_eq!(stat("episode/round").count, 15);
    // The nested path exists instead of a flat "round" path.
    assert!(!snap.spans.iter().any(|(p, _)| p == "round"));
    // Parent spans cover their children.
    assert!(stat("episode").total >= stat("episode/round").total);
}

#[test]
fn profile_scope_collects_path_durations_even_when_sink_disabled() {
    let sink = Sink::new();
    with_sink(&sink, profile_scope_case);
    // With the sink disabled nothing reached its span stats.
    assert!(sink.snapshot().spans.is_empty());
}

fn profile_scope_case() {
    assert!(!isrl_obs::enabled());
    isrl_obs::profile_begin();
    {
        let _outer = isrl_obs::span("geom_update");
        {
            let _a = isrl_obs::span("lp");
            std::thread::sleep(Duration::from_millis(1));
        }
        let _b = isrl_obs::span("lp");
    }
    {
        let _c = isrl_obs::span("top1");
    }
    let pairs = isrl_obs::profile_end();
    let paths: Vec<(&str, u64)> = pairs.iter().map(|(p, c, _)| (p.as_str(), *c)).collect();
    assert_eq!(
        paths,
        vec![("geom_update", 1), ("geom_update/lp", 2), ("top1", 1)],
        "full paths, sorted"
    );
    assert!(pairs[1].2 >= Duration::from_millis(1));
    assert!(pairs[0].2 >= pairs[1].2, "parents cover their children");
    // A second profile_end without a begin is empty, not stale.
    assert!(isrl_obs::profile_end().is_empty());
}

#[test]
fn sketch_record_resolves_quantiles_within_relative_error() {
    let sink = live_sink();
    // Values one power-of-two bucket would have merged into one midpoint.
    with_sink(&sink, || {
        for v in 1..=100 {
            isrl_obs::sketch_record("t.sketch", 1024.0 + 8.0 * v as f64);
        }
    });
    let snap = sink.snapshot();
    let (_, s) = snap.sketches.iter().find(|(k, _)| k == "t.sketch").unwrap();
    assert_eq!(s.count, 100);
    assert_eq!(s.max, 1824.0);
    let within = |est: f64, exact: f64| (est - exact).abs() <= 0.01 * exact;
    assert!(within(s.p50, 1424.0), "p50 {}", s.p50);
    assert!(within(s.p90, 1744.0), "p90 {}", s.p90);
    assert!(s.p90 > s.p50);
    // The summary line carries it under `sketches`.
    let summary = snap.summary_json().to_string();
    assert!(summary.contains(r#""t.sketch":{"#), "{summary}");
}

#[test]
fn disabled_sink_records_nothing_and_stays_cheap() {
    let sink = Sink::new();
    with_sink(&sink, || {
        assert!(!isrl_obs::enabled());
        isrl_obs::add("t.disabled", 3);
        isrl_obs::sketch_record("t.disabled_sketch", 1.0);
        isrl_obs::gauge_set("t.disabled_gauge", 42);
        isrl_obs::emit(isrl_obs::Event::new("round").field("round", 1usize));
        {
            let _s = isrl_obs::span("t.disabled_span");
        }
    });
    let snap = sink.snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.gauges.is_empty());
    assert!(snap.sketches.is_empty());
    assert!(snap.spans.is_empty());
    assert!(snap.events.is_empty());

    // Fast-path sanity: a disabled counter bump, span, and gauge set must
    // be orders of magnitude below a syscall — bound it loosely so the
    // test never flakes, while still catching an accidental clock read or
    // lock on the disabled path. A snapshotter is *running* during the
    // loop: with the sink disabled its wakes must not add overhead either
    // (the disabled-sink guarantee extends to the sampler).
    let per_op = with_sink(&sink, || {
        let sampler = isrl_obs::Snapshotter::start(Duration::from_millis(2), false);
        let iters = 100_000u32;
        let t = std::time::Instant::now();
        for _ in 0..iters {
            isrl_obs::add("t.fast", 1);
            let _s = isrl_obs::span("t.fast");
            isrl_obs::gauge_set("t.fast_gauge", 1);
        }
        let per_op = t.elapsed().as_nanos() as f64 / iters as f64;
        sampler.stop();
        per_op
    });
    assert!(per_op < 1_000.0, "disabled-path op took {per_op} ns");
    // The disabled-sink snapshotter emitted nothing.
    assert!(sink.snapshot().events.is_empty());
}

#[test]
fn snapshotter_emits_increasing_timeseries_samples() {
    let sink = live_sink();
    with_sink(&sink, || {
        let sampler = isrl_obs::Snapshotter::start(Duration::from_millis(5), false);
        for i in 0..4 {
            isrl_obs::add("t.snap.work", 10);
            isrl_obs::gauge_set("t.snap.level", 100 + i);
            std::thread::sleep(Duration::from_millis(8));
        }
        sampler.stop();
    });

    let snap = sink.snapshot();
    let series: Vec<&isrl_obs::Event> = snap
        .events
        .iter()
        .filter(|e| e.name == "timeseries")
        .collect();
    assert!(!series.is_empty(), "no timeseries events sampled");

    // Sequence numbers start at 1 and strictly increase.
    let seqs: Vec<u64> = series
        .iter()
        .map(|e| {
            e.fields
                .iter()
                .find(|(k, _)| *k == "seq")
                .and_then(|(_, v)| v.as_f64())
                .unwrap() as u64
        })
        .collect();
    assert_eq!(seqs[0], 1);
    assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "{seqs:?}");

    // Counter deltas across all samples sum to the cumulative total.
    let delta_total: f64 = series
        .iter()
        .filter_map(|e| {
            e.fields
                .iter()
                .find(|(k, _)| *k == "counters")
                .and_then(|(_, v)| v.get("t.snap.work"))
                .and_then(|v| v.as_f64())
        })
        .sum();
    assert_eq!(delta_total, 40.0);

    // The serialized trace (events + summary) passes schema validation,
    // timeseries ordering rule included.
    let mut buf = Vec::new();
    snap.write_jsonl(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let report = isrl_obs::schema::validate_trace(&text).expect("schema-valid trace");
    assert_eq!(report.events.get("timeseries"), Some(&series.len()));
    assert!(report.warnings.is_empty());
}

#[test]
fn gauges_keep_last_value_and_start_at_zero() {
    let sink = live_sink();
    assert!(
        sink.snapshot().gauges.is_empty(),
        "a new sink has no gauges"
    );
    with_sink(&sink, || {
        isrl_obs::gauge_set("t.gauge", 7);
        isrl_obs::gauge_set("t.gauge", 3);
    });
    let snap = sink.snapshot();
    assert_eq!(
        snap.gauges,
        vec![("t.gauge".to_string(), 3)],
        "last set wins"
    );
    // The summary JSON carries a gauges object.
    let summary = snap.summary_json().to_string();
    assert!(summary.contains(r#""gauges":{"#), "{summary}");
}

#[test]
fn event_overflow_is_counted_not_silent() {
    // EVENT_CAP is 1<<20 — filling it for real is too slow for a unit
    // test, so this exercises the accounting contract indirectly: the
    // dropped-events counter is registered as a warning counter and the
    // buffered-events level is what the snapshotter reports.
    assert!(isrl_obs::schema::WARNING_COUNTERS.contains(&isrl_obs::DROPPED_COUNTER));
    assert_eq!(isrl_obs::DROPPED_COUNTER, "obs.events.dropped");
}

#[test]
fn events_serialize_as_schema_valid_jsonl() {
    let sink = live_sink();
    with_sink(&sink, || {
        isrl_obs::add("lp.pivots", 12);
        isrl_obs::emit(
            isrl_obs::Event::new("round")
                .field("algo", "EA")
                .field("round", 1usize)
                .field("elapsed_ms", 0.25)
                .field("cut", &[0.5, -0.5][..]),
        );
        isrl_obs::emit(
            isrl_obs::Event::new("episode")
                .field("algo", "EA")
                .field("episode", 0usize)
                .field("rounds", 4usize)
                .field("epsilon", 0.9)
                .field("replay_len", 16usize),
        );
    });

    let snap = sink.snapshot();
    let mut buf = Vec::new();
    snap.write_jsonl(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let report = isrl_obs::schema::validate_trace(&text).expect("schema-valid JSONL");
    assert_eq!(report.events.get("round"), Some(&1));
    assert_eq!(report.events.get("episode"), Some(&1));
    assert_eq!(report.events.get("summary"), Some(&1));
    assert!(report.warnings.is_empty());

    // A second snapshot has no events left (drained) but keeps aggregates.
    let again = sink.snapshot();
    assert!(again.events.is_empty());
    assert!(again
        .counters
        .iter()
        .any(|(k, v)| k == "lp.pivots" && *v == 12));
}

#[test]
fn span_paths_are_depth_and_length_bounded() {
    let sink = live_sink();
    // Recurse far past MAX_DEPTH with fat segment names so both the depth
    // and the byte-length bound trip; guards drop innermost-first.
    fn deep(n: usize) {
        if n == 0 {
            std::hint::black_box(());
            return;
        }
        let _g = isrl_obs::span("a_rather_long_span_segment_name");
        deep(n - 1);
    }
    with_sink(&sink, || deep(isrl_obs::MAX_DEPTH + 4));

    let snap = sink.snapshot();
    assert!(!snap.spans.is_empty());
    for (path, _) in &snap.spans {
        assert!(
            path.len() <= isrl_obs::MAX_PATH_LEN + '…'.len_utf8(),
            "unbounded span path ({} bytes): {path}",
            path.len()
        );
    }
    assert!(
        snap.spans.iter().any(|(p, _)| p.ends_with('…')),
        "no truncation marker in {:?}",
        snap.spans
    );
    assert!(
        sink.counter_value(isrl_obs::TRUNCATED_COUNTER) > 0,
        "truncations must be counted"
    );
    // The truncation counter is a warning counter: a trace written from
    // this state must fail validation loudly instead of silently losing
    // attribution fidelity.
    let mut buf = Vec::new();
    snap.write_jsonl(&mut buf).unwrap();
    let report = isrl_obs::schema::validate_trace(&String::from_utf8(buf).unwrap()).unwrap();
    assert!(report
        .warnings
        .iter()
        .any(|(name, _)| name == isrl_obs::TRUNCATED_COUNTER));
}

#[test]
fn threads_under_two_sinks_each_see_only_their_own_counts() {
    let sinks = [live_sink(), live_sink()];
    std::thread::scope(|scope| {
        for (i, sink) in sinks.iter().enumerate() {
            scope.spawn(move || {
                with_sink(sink, || {
                    for _ in 0..=i * 1000 {
                        isrl_obs::add("t.shared_name", 1);
                        isrl_obs::emit(isrl_obs::Event::new("tick"));
                    }
                })
            });
        }
    });
    for (i, sink) in sinks.iter().enumerate() {
        let snap = sink.snapshot();
        assert_eq!(sink.counter_value("t.shared_name"), 1 + i as u64 * 1000);
        assert_eq!(snap.events.len(), 1 + i * 1000);
    }
}

#[test]
fn with_sink_nests_and_restores_the_previous_sink() {
    let (outer, inner) = (live_sink(), live_sink());
    with_sink(&outer, || {
        isrl_obs::add("t.nest", 1);
        with_sink(&inner, || isrl_obs::add("t.nest", 10));
        // A panic inside a nested scope still restores the outer sink.
        let _ = std::panic::catch_unwind(|| with_sink(&inner, || panic!("drill")));
        isrl_obs::add("t.nest", 100);
    });
    assert_eq!(outer.counter_value("t.nest"), 101);
    assert_eq!(inner.counter_value("t.nest"), 10);
}

#[test]
fn snapshotter_thread_records_into_its_spawners_sink() {
    let sink = live_sink();
    with_sink(&sink, || {
        let sampler = isrl_obs::Snapshotter::start(Duration::from_secs(60), false);
        isrl_obs::add("t.spawner_work", 5);
        sampler.stop();
    });
    // The final sample on stop reads and emits into the spawner's sink.
    let events = sink.snapshot().events;
    assert!(!events.is_empty() && events.iter().all(|e| e.name == "timeseries"));
    let work: f64 = events
        .iter()
        .flat_map(|e| e.fields.iter().filter(|(k, _)| *k == "counters"))
        .filter_map(|(_, v)| v.get("t.spawner_work")?.as_f64())
        .sum();
    assert_eq!(work, 5.0);
}

#[test]
fn slow_span_drill_is_a_setting_of_its_sink() {
    let sink = live_sink();
    assert!(sink.set_slow_span("t.slow:nope").is_err());
    sink.set_slow_span("t.slow:30:@2").unwrap();
    let lasted: Vec<Duration> = with_sink(&sink, || {
        (0..3)
            .map(|_| {
                let t = std::time::Instant::now();
                drop(isrl_obs::span("t.slow"));
                t.elapsed()
            })
            .collect()
    });
    assert!(lasted[1] >= Duration::from_millis(30), "{lasted:?}");
}
