//! Hierarchical span timers.
//!
//! [`span`] returns an RAII guard; while any guard is live on a thread, its
//! name sits on a thread-local stack, and the guard's drop attributes the
//! elapsed time to the `/`-joined path of the stack at entry (so `"round"`
//! inside `"episode"` aggregates as `"episode/round"`). Aggregation is
//! per-path into a global registry.
//!
//! Path joining is bounded: nesting past [`MAX_DEPTH`] levels and paths
//! past [`MAX_PATH_LEN`] bytes truncate (with a `…` marker) and count in
//! [`TRUNCATED_COUNTER`], so pathological recursion cannot bloat the JSONL
//! buffer or the registry.
//!
//! Cost model: when the global sink is disabled *and* no profile scope is
//! active on the thread, [`span`] is one atomic load plus one thread-local
//! flag read — no clock call, no allocation. That is the fast path the
//! `hotpath` bench guards.
//!
//! **Profile scopes** ([`profile_begin`]/[`profile_end`]) are the one
//! per-thread accumulator: while one is open, every finishing span adds
//! its duration to a per-*path* `(count, total)` table, even when the sink
//! is disabled. `obs::profile` turns the result into a span tree with
//! self-vs-child wall-time accounting; a round's phases are the tree's
//! nodes, each charged only its self time.
//!
//! For regression drills, `ISRL_SLOW_SPAN=<leaf>:<ms>` injects a busy-wait
//! into every span with that leaf name — the artificial slowdown the
//! `trace-diff` golden test and CI smoke job attribute back to the span.
//! The extended form `<leaf>:<ms>:@<n>` injects only into the *n*-th
//! (1-based, process-wide) span with that leaf name, which is how the
//! serve-path flight-recorder drill makes exactly one round slow.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
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
    fn add(&mut self, d: Duration) {
        self.count += 1;
        self.total += d;
        self.max = self.max.max(d);
    }
}

fn registry() -> &'static Mutex<BTreeMap<String, SpanStat>> {
    static REG: OnceLock<Mutex<BTreeMap<String, SpanStat>>> = OnceLock::new();
    REG.get_or_init(Default::default)
}

/// The `ISRL_SLOW_SPAN=<leaf>:<ms>[:@<n>]` injection target, parsed once.
/// `n`, when present, restricts the busy-wait to the n-th matching span
/// process-wide (1-based).
fn slow_span() -> Option<&'static (String, Duration, Option<u64>)> {
    static SLOW: OnceLock<Option<(String, Duration, Option<u64>)>> = OnceLock::new();
    SLOW.get_or_init(|| {
        let spec = std::env::var("ISRL_SLOW_SPAN").ok()?;
        parse_slow_spec(&spec)
    })
    .as_ref()
}

fn parse_slow_spec(spec: &str) -> Option<(String, Duration, Option<u64>)> {
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
    (!name.is_empty() && ms.is_finite() && ms > 0.0)
        .then(|| (name.to_string(), Duration::from_secs_f64(ms / 1e3), nth))
}

/// Process-wide count of spans matching the `ISRL_SLOW_SPAN` leaf name,
/// used to resolve the `:@<n>` form.
static SLOW_SEEN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Joins the current stack into a registry path, applying the depth and
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

fn scope_active() -> bool {
    SCOPES.with(|s| s.borrow().profile.is_some())
}

/// Opens a span named `name`. Inert (no clock read) when the sink is
/// disabled and no profile scope is active on this thread.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() && !scope_active() {
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
        if let Some((slow_name, extra, nth)) = slow_span() {
            if self.name == slow_name {
                let seen = SLOW_SEEN.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                if nth.map_or(true, |n| seen == n) {
                    // Busy-wait so the injected latency is real wall time —
                    // enclosing spans must see it too, or parents' self time
                    // would go negative in the profile tree.
                    while start.elapsed() < *extra {
                        std::hint::spin_loop();
                    }
                }
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
        if truncated {
            crate::add(TRUNCATED_COUNTER, 1);
        }
        if crate::enabled() {
            registry().lock().unwrap().entry(path).or_default().add(dur);
        }
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

/// All span paths and their aggregated stats, sorted by path.
pub(crate) fn snapshot_spans() -> Vec<(String, SpanStat)> {
    registry()
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Clears the global span registry (thread-local scopes are unaffected).
pub(crate) fn reset_spans() {
    registry().lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::parse_slow_spec;
    use std::time::Duration;

    #[test]
    fn slow_spec_parses_plain_and_nth_forms() {
        assert_eq!(
            parse_slow_spec("top1:5"),
            Some(("top1".into(), Duration::from_millis(5), None))
        );
        assert_eq!(
            parse_slow_spec("top1:2.5:@7"),
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
            assert_eq!(
                parse_slow_spec(bad),
                None,
                "spec {bad:?} should be rejected"
            );
        }
    }
}
