//! The telemetry sink: one `enabled` flag and one lock over the counters,
//! gauges, span stats, quantile sketches, the event buffer and the
//! slow-span drill (with its own `:@n` count). Its epoch, the zero of every
//! event's `t_ms`, is the instant it was created.
//!
//! Instrumentation writes to the calling thread's **current sink**: the one
//! a caller installed with [`with_sink`], or else the process default sink.
//! Binaries keep the default sink; tests give each case a private one.
//! Library code runs every thread it spawns under the spawner's current
//! sink ([`in_current_sink`]). Disabled fast path: one thread-local read
//! plus one relaxed load — no lock, no allocation, no refcount change.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use crate::event::{Event, DROPPED_COUNTER, EVENT_CAP};
use crate::quantile::QuantileSketch;
use crate::span::{parse_slow_spec, SlowSpan, SpanStat, TRUNCATED_COUNTER};
use crate::Snapshot;

/// A handle to one telemetry sink; clones share the same data. Starts
/// disabled.
#[derive(Clone)]
pub struct Sink(Arc<Inner>);

struct Inner {
    enabled: AtomicBool,
    /// Set once a slow-span spec is installed, so spans skip the lock
    /// while no drill is configured.
    slow_armed: AtomicBool,
    epoch: Instant,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    spans: BTreeMap<String, SpanStat>,
    sketches: BTreeMap<&'static str, QuantileSketch>,
    events: Vec<Event>,
    slow: Option<SlowSpan>,
}

impl Default for Sink {
    fn default() -> Self {
        Self::new()
    }
}

impl Sink {
    /// A new, empty, disabled sink whose epoch is now.
    pub fn new() -> Self {
        Sink(Arc::new(Inner {
            enabled: AtomicBool::new(false),
            slow_armed: AtomicBool::new(false),
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }))
    }

    /// Turns the sink on or off. Instrumentation under it becomes live
    /// immediately; nothing recorded earlier is lost.
    pub fn set_enabled(&self, on: bool) {
        self.0.enabled.store(on, Ordering::Relaxed);
    }

    /// `true` while the sink accepts data.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.enabled.load(Ordering::Relaxed)
    }

    /// Installs a slow-span regression drill, `<leaf>:<ms>[:@<n>]`: every
    /// span with that leaf name (or only the *n*-th, 1-based, that this
    /// sink sees) busy-waits until it has lasted `ms` milliseconds. The
    /// injection fires whenever the span is timed, i.e. while the sink is
    /// enabled or a profile scope is open. Rejects a malformed spec.
    pub fn set_slow_span(&self, spec: &str) -> Result<(), String> {
        let slow = parse_slow_spec(spec)
            .ok_or_else(|| format!("bad slow-span spec {spec:?} (want <leaf>:<ms>[:@<n>])"))?;
        self.lock().slow = Some(slow);
        self.0.slow_armed.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Current value of the counter named `name` (0 if never bumped).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Drains the event buffer and copies the aggregates.
    pub fn snapshot(&self) -> Snapshot {
        let mut state = self.lock();
        let events = std::mem::take(&mut state.events);
        state.freeze(events)
    }

    /// The aggregates (no events) and the number of buffered events,
    /// without draining anything: what the periodic snapshotter samples.
    pub(crate) fn sample(&self) -> (Snapshot, usize) {
        let state = self.lock();
        (state.freeze(Vec::new()), state.events.len())
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.0.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub(crate) fn since_epoch_ms(&self) -> f64 {
        self.0.epoch.elapsed().as_secs_f64() * 1e3
    }

    fn add(&self, name: &'static str, n: u64) {
        if self.is_enabled() {
            *self.lock().counters.entry(name).or_default() += n;
        }
    }

    fn gauge_set(&self, name: &'static str, v: u64) {
        if self.is_enabled() {
            self.lock().gauges.insert(name, v);
        }
    }

    fn sketch_record(&self, name: &'static str, v: f64) {
        if self.is_enabled() {
            self.lock()
                .sketches
                .entry(name)
                .or_insert_with(QuantileSketch::default_config)
                .record(v);
        }
    }

    fn emit(&self, e: Event) {
        if !self.is_enabled() {
            return;
        }
        let mut state = self.lock();
        if state.events.len() >= EVENT_CAP {
            *state.counters.entry(DROPPED_COUNTER).or_default() += 1;
        } else {
            state.events.push(e);
        }
    }

    /// The busy-wait a finishing span named `leaf` owes this sink's
    /// slow-span drill, if any.
    pub(crate) fn slow_extra(&self, leaf: &str) -> Option<Duration> {
        if !self.0.slow_armed.load(Ordering::Relaxed) {
            return None;
        }
        self.lock().slow.as_mut()?.owed(leaf)
    }

    /// Aggregates one finished span (and its truncation, if any).
    pub(crate) fn record_span(&self, path: String, dur: Duration, truncated: bool) {
        if !self.is_enabled() {
            return;
        }
        let mut state = self.lock();
        if truncated {
            *state.counters.entry(TRUNCATED_COUNTER).or_default() += 1;
        }
        state.spans.entry(path).or_default().add(dur);
    }
}

impl State {
    fn freeze(&self, events: Vec<Event>) -> Snapshot {
        let named = |m: &BTreeMap<&'static str, u64>| -> Vec<(String, u64)> {
            m.iter().map(|(k, v)| (k.to_string(), *v)).collect()
        };
        Snapshot {
            counters: named(&self.counters),
            spans: self.spans.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: named(&self.gauges),
            sketches: self
                .sketches
                .iter()
                .filter(|(_, s)| s.count() > 0)
                .map(|(k, s)| (k.to_string(), s.summary()))
                .collect(),
            events,
        }
    }
}

thread_local! {
    /// The thread's current sink; null until first use, then the default
    /// sink or whatever [`with_sink`] installed.
    static CURRENT: Cell<*const Sink> = const { Cell::new(std::ptr::null()) };
}

fn default_sink() -> &'static Sink {
    static DEFAULT: OnceLock<Sink> = OnceLock::new();
    DEFAULT.get_or_init(Sink::new)
}

/// Runs `f` with the calling thread's current sink.
#[inline]
pub(crate) fn with_current<R>(f: impl FnOnce(&Sink) -> R) -> R {
    let ptr = CURRENT.with(|c| {
        if c.get().is_null() {
            c.set(default_sink());
        }
        c.get()
    });
    // SAFETY: `ptr` is either the `'static` default sink or the sink that
    // an enclosing `with_sink` call borrows for as long as its pointer is
    // installed; `with_sink` restores the previous pointer before that
    // borrow ends, even on unwind.
    f(unsafe { &*ptr })
}

/// Runs `f` with `sink` as the calling thread's current sink, then
/// restores the previous one (also when `f` panics). Nests.
pub fn with_sink<R>(sink: &Sink, f: impl FnOnce() -> R) -> R {
    struct Restore(*const Sink);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(sink)));
    f()
}

/// A handle to the calling thread's current sink.
pub fn current_sink() -> Sink {
    with_current(Sink::clone)
}

/// Wraps `f` so that it runs under the caller's current sink wherever it
/// is called — the handoff every thread spawned by library code uses:
/// `std::thread::spawn(isrl_obs::in_current_sink(move || …))`.
pub fn in_current_sink<R>(f: impl FnOnce() -> R) -> impl FnOnce() -> R {
    let sink = current_sink();
    move || with_sink(&sink, f)
}

/// `true` while the current sink accepts data.
#[inline]
pub fn enabled() -> bool {
    with_current(Sink::is_enabled)
}

/// Adds `n` to the counter named `name` in the current sink. Instrumented
/// code keeps this off inner loops by accumulating locally and adding once
/// per solve/scan/round.
#[inline]
pub fn add(name: &'static str, n: u64) {
    with_current(|s| s.add(name, n));
}

/// Sets the gauge named `name` to `v`: a level that overwrites instead of
/// accumulating (replay occupancy, live sessions).
#[inline]
pub fn gauge_set(name: &'static str, v: u64) {
    with_current(|s| s.gauge_set(name, v));
}

/// Records `v` into the current sink's quantile sketch named `name`, once
/// per round/solve/resample like [`add`].
#[inline]
pub fn sketch_record(name: &'static str, v: f64) {
    with_current(|s| s.sketch_record(name, v));
}

/// Appends `e` to the current sink's event buffer. Dropped (and counted in
/// [`DROPPED_COUNTER`]) past [`EVENT_CAP`].
#[inline]
pub fn emit(e: Event) {
    with_current(|s| s.emit(e));
}

/// Drains the current sink's event buffer and copies its aggregates.
pub fn snapshot() -> Snapshot {
    with_current(Sink::snapshot)
}
