//! The periodic snapshotter: a background sampler turning the cumulative
//! aggregates into `timeseries` events.
//!
//! [`Snapshotter::start`] spawns one thread that wakes every `interval`,
//! computes the *delta* of every counter and span against the
//! previous wake, and emits one `timeseries` event into the normal event
//! stream (plus the current level of every gauge). Long training runs and
//! sweeps thereby expose live progress — episodes per second, LP warm-hit
//! rate, replay occupancy, per-phase latency — instead of only end-of-run
//! aggregates; `obs::report` and the `trace-report` subcommand consume the
//! samples afterwards.
//!
//! The sampler is strictly opt-in and touches none of the instrumentation
//! fast paths: when no snapshotter is started (the default everywhere) the
//! cost is zero, and a started snapshotter whose sink is disabled skips the
//! wake without reading any registry. Stopping (or dropping) the handle
//! emits one final sample so short runs still produce at least one point.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::event::Event;
use crate::json::Json;

/// Cumulative values at the previous sample, for delta computation.
#[derive(Default)]
struct Baseline {
    counters: BTreeMap<String, u64>,
    /// Span path → (count, total seconds).
    spans: BTreeMap<String, (u64, f64)>,
    /// Sketch name → count (quantiles report cumulative levels; the count
    /// baseline only decides whether a sketch moved since the last wake).
    sketches: BTreeMap<String, u64>,
}

/// One delta sample, ready to serialize as a `timeseries` event.
struct Sample {
    counters: Vec<(String, u64)>,
    /// Span path → (count delta, total-ms delta).
    spans: Vec<(String, u64, f64)>,
    /// Sketch name → cumulative summary, for sketches that moved since the
    /// previous wake. Quantiles do not delta; these are current levels.
    sketches: Vec<(String, crate::SketchSummary)>,
    gauges: Vec<(String, u64)>,
    buffered_events: usize,
}

/// Computes the delta of the live aggregates against `base` and advances
/// `base` to the current cumulative values. Zero-delta entries are elided
/// so idle phases serialize compactly.
fn take_sample(base: &mut Baseline) -> Sample {
    let mut counters = Vec::new();
    for (name, cur) in crate::counter::snapshot_counters() {
        let prev = base.counters.get(&name).copied().unwrap_or(0);
        if cur > prev {
            counters.push((name.clone(), cur - prev));
        }
        base.counters.insert(name, cur);
    }
    let mut spans = Vec::new();
    for (path, stat) in crate::span::snapshot_spans() {
        let cur = (stat.count, stat.total.as_secs_f64());
        let prev = base.spans.get(&path).copied().unwrap_or((0, 0.0));
        if cur.0 > prev.0 {
            spans.push((path.clone(), cur.0 - prev.0, (cur.1 - prev.1) * 1e3));
        }
        base.spans.insert(path, cur);
    }
    let mut sketches = Vec::new();
    for (name, s) in crate::quantile::snapshot_sketches() {
        let prev = base.sketches.get(&name).copied().unwrap_or(0);
        if s.count > prev {
            sketches.push((name.clone(), s));
        }
        base.sketches.insert(name, s.count);
    }
    Sample {
        counters,
        spans,
        sketches,
        gauges: crate::gauge::snapshot_gauges()
            .into_iter()
            .filter(|&(_, v)| v > 0)
            .collect(),
        buffered_events: crate::event::buffered_len(),
    }
}

fn sample_event(seq: u64, interval: Duration, s: &Sample) -> Event {
    let counters = Json::Obj(
        s.counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(*v)))
            .collect(),
    );
    let spans = Json::Obj(
        s.spans
            .iter()
            .map(|(k, count, total_ms)| {
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("count".into(), Json::from(*count)),
                        ("total_ms".into(), Json::from(*total_ms)),
                    ]),
                )
            })
            .collect(),
    );
    let gauges = Json::Obj(
        s.gauges
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(*v)))
            .collect(),
    );
    let sketches = Json::Obj(
        s.sketches
            .iter()
            .map(|(k, summary)| (k.clone(), summary.to_json()))
            .collect(),
    );
    Event::new("timeseries")
        .field("seq", seq)
        .field("interval_ms", interval.as_secs_f64() * 1e3)
        .field("counters", counters)
        .field("spans", spans)
        .field("sketches", sketches)
        .field("gauges", gauges)
        .field("buffered_events", s.buffered_events)
}

/// One compact stderr line per sample (the `--metrics-interval` live view):
/// the sample number plus the largest counter deltas and every gauge.
fn echo_line(seq: u64, interval: Duration, s: &Sample) -> String {
    use std::fmt::Write as _;
    let mut out = format!("[obs] sample #{seq} (+{:.1}s):", interval.as_secs_f64());
    let mut top: Vec<&(String, u64)> = s.counters.iter().collect();
    top.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    for (k, v) in top.into_iter().take(6) {
        let _ = write!(out, " {k}+{v}");
    }
    for (k, v) in &s.gauges {
        let _ = write!(out, " {k}={v}");
    }
    if s.counters.is_empty() && s.gauges.is_empty() {
        out.push_str(" (idle)");
    }
    out
}

/// Handle to the background sampler thread; stops (after one final sample)
/// when [`Snapshotter::stop`] is called or the handle is dropped.
pub struct Snapshotter {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Snapshotter {
    /// Spawns the sampler. Every `interval` (and once more on stop) it
    /// emits a `timeseries` event with the aggregate deltas since the
    /// previous sample; with `echo` set it also prints one compact progress
    /// line per sample to stderr. Wakes while the sink is disabled sample
    /// nothing (and advance no baselines).
    pub fn start(interval: Duration, echo: bool) -> Self {
        let interval = interval.max(Duration::from_millis(1));
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let signal = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("obs-snapshotter".into())
            .spawn(move || {
                let mut base = Baseline::default();
                let mut seq = 0u64;
                let (lock, cvar) = &*signal;
                let mut stopped = lock.lock().unwrap();
                loop {
                    let (guard, _) = cvar.wait_timeout(stopped, interval).unwrap();
                    stopped = guard;
                    let finishing = *stopped;
                    if crate::enabled() {
                        seq += 1;
                        let sample = take_sample(&mut base);
                        if echo {
                            eprintln!("{}", echo_line(seq, interval, &sample));
                        }
                        crate::emit(sample_event(seq, interval, &sample));
                    }
                    if finishing {
                        return;
                    }
                }
            })
            .expect("spawning the snapshotter thread");
        Snapshotter {
            stop,
            thread: Some(thread),
        }
    }

    /// Signals the thread, waits for its final sample, and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(thread) = self.thread.take() {
            let (lock, cvar) = &*self.stop;
            *lock.lock().unwrap() = true;
            cvar.notify_all();
            let _ = thread.join();
        }
    }
}

impl Drop for Snapshotter {
    fn drop(&mut self) {
        self.shutdown();
    }
}
