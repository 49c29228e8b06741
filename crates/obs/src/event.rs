//! Structured events and the JSONL buffer.
//!
//! An [`Event`] is a named bag of JSON fields stamped with milliseconds
//! since the current sink's epoch. [`crate::emit`] appends it to the sink's
//! buffer (bounded: past [`EVENT_CAP`] events are counted in
//! `obs.events.dropped` instead of stored — a warning counter, so
//! `trace-validate` surfaces the loss); [`crate::snapshot`] drains the
//! buffer for serialization.

use crate::json::Json;

/// Hard cap on buffered events; a week-long sweep cannot OOM the sink.
pub const EVENT_CAP: usize = 1 << 20;

/// One structured telemetry event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Event kind (`"round"`, `"episode"`, `"sweep_item"`, …).
    pub name: &'static str,
    /// Milliseconds since the epoch (creation) of the sink current when the
    /// event was built.
    pub t_ms: f64,
    /// Ordered fields.
    pub fields: Vec<(&'static str, Json)>,
}

impl Event {
    /// Starts an event stamped now. Build fields with [`Event::field`],
    /// then [`emit`] it.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            t_ms: crate::sink::with_current(crate::Sink::since_epoch_ms),
            fields: Vec::new(),
        }
    }

    /// Attaches one field (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<Json>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// The JSONL object form: `{"ev": name, "t_ms": …, fields…}`.
    pub fn to_json(&self) -> Json {
        let mut fields = Vec::with_capacity(self.fields.len() + 2);
        fields.push(("ev".to_string(), Json::from(self.name)));
        fields.push(("t_ms".to_string(), Json::from(self.t_ms)));
        for (k, v) in &self.fields {
            fields.push((k.to_string(), v.clone()));
        }
        Json::Obj(fields)
    }
}

/// Name of the counter tracking events lost to the bounded buffer. Listed
/// in [`crate::schema::WARNING_COUNTERS`]: a nonzero value means the trace
/// is incomplete and `trace-validate` must say so.
pub const DROPPED_COUNTER: &str = "obs.events.dropped";
