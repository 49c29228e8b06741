//! Telemetry substrate for the interactive-search workspace.
//!
//! Three primitives, all recorded into one [`Sink`]:
//!
//! * **[`span`]** — hierarchical RAII wall-clock timers aggregated per
//!   `/`-joined path, plus per-thread profile scopes that turn one episode
//!   into a span tree (the per-round phase breakdown is its self times);
//! * **[`add`]** — named monotonic counters (LP pivots, cap hits, sampler
//!   acceptance, scan blocks, …), and [`gauge_set`] for last-value levels;
//! * **[`sketch_record`]** — mergeable quantile sketches with bounded
//!   relative error (round latency, DQN loss, LP pivots per solve).
//!
//! Structured [`Event`]s stream into the sink's bounded buffer;
//! [`snapshot`] drains it and freezes the aggregates, and the result
//! serializes as JSONL (one event per line, one trailing `summary` line) or
//! renders as a text table for `--metrics`. The schema is documented in
//! DESIGN.md §9 and enforced by [`schema::validate_trace`].
//!
//! Instrumentation writes to the calling thread's current sink: the one
//! installed by [`with_sink`], or else the process default sink. Every sink
//! starts **disabled**; in that state every instrumentation call is one
//! thread-local read plus one relaxed atomic load (no clock reads, no
//! locks, no allocation), which is what keeps the hot-path bench honest.
//! Nothing in here depends on crates outside `std` — the workspace builds
//! offline.

pub mod flight;
pub mod json;
pub mod profile;
pub mod quantile;
pub mod report;
pub mod schema;

mod event;
mod sink;
mod snapshotter;
mod span;

pub use event::{Event, DROPPED_COUNTER, EVENT_CAP};
pub use flight::{FlightRecord, FlightRecorder};
pub use json::Json;
pub use quantile::{QuantileSketch, RollingSketch, SketchSummary};
pub use sink::{
    add, current_sink, emit, enabled, gauge_set, in_current_sink, sketch_record, snapshot,
    with_sink, Sink,
};
pub use snapshotter::Snapshotter;
pub use span::{
    profile_begin, profile_end, span, SpanGuard, SpanStat, MAX_DEPTH, MAX_PATH_LEN,
    TRUNCATED_COUNTER,
};

/// A frozen view of the sink: aggregates copied, events drained.
#[derive(Debug)]
pub struct Snapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Span stats, sorted by path.
    pub spans: Vec<(String, SpanStat)>,
    /// Gauge last-set values, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Quantile-sketch summaries (only those with data), sorted by name.
    pub sketches: Vec<(String, SketchSummary)>,
    /// Buffered events in emission order (removed from the sink).
    pub events: Vec<Event>,
}

impl Snapshot {
    /// The aggregate `summary` event object (counters, span stats in
    /// milliseconds, gauges, sketch summaries).
    pub fn summary_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(*v)))
                .collect(),
        );
        let spans = Json::Obj(
            self.spans
                .iter()
                .map(|(k, s)| {
                    (
                        k.clone(),
                        Json::Obj(vec![
                            ("count".into(), Json::from(s.count)),
                            ("total_ms".into(), Json::from(s.total.as_secs_f64() * 1e3)),
                            ("max_ms".into(), Json::from(s.max.as_secs_f64() * 1e3)),
                        ]),
                    )
                })
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(*v)))
                .collect(),
        );
        let sketches = Json::Obj(
            self.sketches
                .iter()
                .map(|(k, s)| (k.clone(), s.to_json()))
                .collect(),
        );
        Json::Obj(vec![
            ("ev".into(), Json::from("summary")),
            ("t_ms".into(), Json::from(0.0)),
            ("counters".into(), counters),
            ("spans".into(), spans),
            ("gauges".into(), gauges),
            ("sketches".into(), sketches),
        ])
    }

    /// Serializes the snapshot as JSONL: every event on its own line, then
    /// the `summary` line. This is the `--trace-out` file format.
    pub fn write_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        for e in &self.events {
            writeln!(w, "{}", e.to_json())?;
        }
        writeln!(w, "{}", self.summary_json())
    }

    /// Human-readable aggregate table for `--metrics`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<40} {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:<40} {v}");
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans:                                     count   total_ms    mean_ms     max_ms\n");
            for (k, s) in &self.spans {
                let total = s.total.as_secs_f64() * 1e3;
                let mean = if s.count == 0 {
                    0.0
                } else {
                    total / s.count as f64
                };
                let _ = writeln!(
                    out,
                    "  {k:<40} {:>6} {:>10.3} {:>10.4} {:>10.3}",
                    s.count,
                    total,
                    mean,
                    s.max.as_secs_f64() * 1e3
                );
            }
        }
        if !self.sketches.is_empty() {
            out.push_str("sketches:                                   count        p50        p90        p99        max\n");
            for (k, s) in &self.sketches {
                let _ = writeln!(
                    out,
                    "  {k:<40} {:>6} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
                    s.count, s.p50, s.p90, s.p99, s.max
                );
            }
        }
        if out.is_empty() {
            out.push_str("(telemetry sink is empty)\n");
        }
        out
    }

    /// Number of drained events.
    pub fn n_events(&self) -> usize {
        self.events.len()
    }
}
