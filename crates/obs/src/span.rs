//! Hierarchical span timers.
//!
//! [`span`] returns an RAII guard; while any guard is live on a thread, its
//! name sits on a thread-local stack, and the guard's drop attributes the
//! elapsed time to the `/`-joined path of the stack at entry (so `"round"`
//! inside `"episode"` aggregates as `"episode/round"`). Aggregation is
//! per-path into the thread's current [`crate::Sink`].
//!
//! Path joining is bounded: nesting past [`MAX_DEPTH`] levels and paths
//! past [`MAX_PATH_LEN`] bytes truncate (with a `…` marker) and count in
//! [`TRUNCATED_COUNTER`], so pathological recursion cannot bloat the JSONL
//! buffer or the sink.
//!
//! Cost model: when the current sink is disabled *and* no profile scope is
//! active on the thread, [`span`] is one relaxed load plus two thread-local
//! reads — no clock call, no lock, no allocation. That is the fast path the
//! `hotpath` bench guards.
//!
//! **Profile scopes** ([`profile_begin`]/[`profile_end`]) are the one
//! per-thread accumulator: while one is open, every finishing span adds
//! its duration to a per-*path* `(count, total)` table, even when the sink
//! is disabled. `obs::profile` turns the result into a span tree with
//! self-vs-child wall-time accounting; a round's phases are the tree's
//! nodes, each charged only its self time.
//!
//! For regression drills, a sink's slow-span setting
//! ([`crate::Sink::set_slow_span`], `<leaf>:<ms>[:@<n>]`) injects a
//! busy-wait into every span with that leaf name (or only the *n*-th) —
//! the artificial slowdown the `trace-diff` golden test and CI smoke job
//! attribute back to the span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Deepest span nesting that still joins into a full path; deeper frames
/// collapse into a trailing `…` segment.
pub const MAX_DEPTH: usize = 12;

/// Longest joined path kept verbatim; longer paths truncate with a `…`.
pub const MAX_PATH_LEN: usize = 160;

/// Counter incremented whenever a span path is truncated by either bound.
pub const TRUNCATED_COUNTER: &str = "obs.span.truncated";

/// Per-thread scope state: the live span stack plus the optional profile
/// accumulator. One `RefCell` so the [`span`] fast path checks the scope
/// with a single thread-local access.
#[derive(Default)]
struct Scopes {
    stack: Vec<&'static str>,
    /// Path → (count, total) while a profile scope is open.
    profile: Option<BTreeMap<String, (u64, Duration)>>,
}

thread_local! {
    static SCOPES: RefCell<Scopes> = RefCell::new(Scopes::default());
}

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans on this path.
    pub count: u64,
    /// Total time across all of them.
    pub total: Duration,
    /// Longest single span.
    pub max: Duration,
}

impl SpanStat {
    pub(crate) fn add(&mut self, d: Duration) {
        self.count += 1;
        self.total += d;
        self.max = self.max.max(d);
    }
}

/// A parsed `<leaf>:<ms>[:@<n>]` slow-span spec (a [`crate::Sink`]
/// setting) and how many spans with that leaf name it has seen.
pub(crate) struct SlowSpan {
    leaf: String,
    extra: Duration,
    nth: Option<u64>,
    seen: u64,
}

impl SlowSpan {
    /// The busy-wait a finishing span named `leaf` owes the drill, if any;
    /// counts the span toward the `:@n` form.
    pub(crate) fn owed(&mut self, leaf: &str) -> Option<Duration> {
        if self.leaf != leaf {
            return None;
        }
        self.seen += 1;
        self.nth
            .map_or(true, |n| self.seen == n)
            .then_some(self.extra)
    }
}

pub(crate) fn parse_slow_spec(spec: &str) -> Option<SlowSpan> {
    let (name, rest) = spec.split_once(':')?;
    let (ms_str, nth) = match rest.split_once(':') {
        Some((ms, at)) => {
            let n: u64 = at.strip_prefix('@')?.parse().ok()?;
            if n == 0 {
                return None;
            }
            (ms, Some(n))
        }
        None => (rest, None),
    };
    let ms: f64 = ms_str.parse().ok()?;
    (!name.is_empty() && ms.is_finite() && ms > 0.0).then(|| SlowSpan {
        leaf: name.to_string(),
        extra: Duration::from_secs_f64(ms / 1e3),
        nth,
        seen: 0,
    })
}

/// Joins the current stack into a span path, applying the depth and
/// length bounds. Returns the path and whether truncation happened.
fn join_path(stack: &[&'static str]) -> (String, bool) {
    let mut truncated = false;
    let mut path = if stack.len() > MAX_DEPTH {
        truncated = true;
        let mut p = stack[..MAX_DEPTH].join("/");
        p.push_str("/…");
        p
    } else {
        stack.join("/")
    };
    if path.len() > MAX_PATH_LEN {
        truncated = true;
        let mut cut = MAX_PATH_LEN;
        while !path.is_char_boundary(cut) {
            cut -= 1;
        }
        path.truncate(cut);
        path.push('…');
    }
    (path, truncated)
}

/// RAII guard created by [`span`]; records on drop.
#[must_use = "a span guard times the scope it lives in"]
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a span named `name`. Inert (no clock read) when the current sink
/// is disabled and no profile scope is active on this thread.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() && SCOPES.with(|s| s.borrow().profile.is_none()) {
        return SpanGuard { name, start: None };
    }
    SCOPES.with(|s| s.borrow_mut().stack.push(name));
    SpanGuard {
        name,
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        crate::sink::with_current(|sink| {
            if let Some(extra) = sink.slow_extra(self.name) {
                // Busy-wait so the injected latency is real wall time —
                // enclosing spans must see it too, or parents' self time
                // would go negative in the profile tree.
                while start.elapsed() < extra {
                    std::hint::spin_loop();
                }
            }
            let dur = start.elapsed();
            let (path, truncated) = SCOPES.with(|s| {
                let mut scopes = s.borrow_mut();
                let joined = join_path(&scopes.stack);
                scopes.stack.pop();
                if let Some(prof) = scopes.profile.as_mut() {
                    let slot = prof.entry(joined.0.clone()).or_insert((0, Duration::ZERO));
                    slot.0 += 1;
                    slot.1 += dur;
                }
                joined
            });
            sink.record_span(path, dur, truncated);
        });
    }
}

/// Opens a profile scope on this thread: until [`profile_end`], finishing
/// spans accumulate `(count, total)` per full `/`-joined path. Nested
/// profile scopes are not supported; a second `profile_begin` restarts the
/// accumulator.
pub fn profile_begin() {
    SCOPES.with(|s| s.borrow_mut().profile = Some(BTreeMap::new()));
}

/// Closes the thread's profile scope and returns `(path, count, total)`
/// triples sorted by path. Empty if no scope was open.
pub fn profile_end() -> Vec<(String, u64, Duration)> {
    SCOPES
        .with(|s| s.borrow_mut().profile.take())
        .map(|m| m.into_iter().map(|(p, (c, d))| (p, c, d)).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::parse_slow_spec;
    use std::time::Duration;

    #[test]
    fn slow_spec_parses_plain_and_nth_forms() {
        let parsed = |spec| parse_slow_spec(spec).map(|s| (s.leaf, s.extra, s.nth));
        assert_eq!(
            parsed("top1:5"),
            Some(("top1".into(), Duration::from_millis(5), None))
        );
        assert_eq!(
            parsed("top1:2.5:@7"),
            Some(("top1".into(), Duration::from_micros(2500), Some(7)))
        );
        for bad in [
            "",
            "top1",
            ":5",
            "top1:nope",
            "top1:0",
            "top1:5:@0",
            "top1:5:7",
        ] {
            assert_eq!(parsed(bad), None, "spec {bad:?} should be rejected");
        }
    }
}
