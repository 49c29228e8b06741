//! Mergeable streaming quantile sketches (DDSketch-style).
//!
//! A [`QuantileSketch`] summarizes a stream of non-negative values into
//! log-spaced buckets so that any quantile estimate carries a bounded
//! *relative* error: with accuracy parameter `alpha`, the bucket for value
//! `v` is `ceil(ln v / ln gamma)` with `gamma = (1 + alpha) / (1 - alpha)`,
//! and the bucket midpoint `2·gamma^k / (gamma + 1)` is within a factor
//! `1 ± alpha` of every value mapped to bucket `k`. Two sketches over
//! disjoint streams merge exactly by adding bucket counts, so per-worker
//! sketches compose into a run-level one without losing the guarantee.
//!
//! The bucket table is bounded: past [`QuantileSketch::max_buckets`] the
//! *lowest* buckets collapse pairwise (tail accuracy — the p99 this module
//! exists for — is preserved; the far low end degrades first). With the
//! default `alpha = 0.01` and 2048 buckets the sketch spans more than 17
//! orders of magnitude before any collapse happens, so in practice the
//! strict bound holds for every latency/pivot stream in this workspace.
//!
//! A [`crate::Sink`] keeps one sketch per name ([`crate::sketch_record`]).

use std::collections::BTreeMap;

use crate::json::Json;

/// Default relative-error bound for registry sketches.
pub const DEFAULT_ALPHA: f64 = 0.01;

/// Default bucket-count bound for registry sketches.
pub const DEFAULT_MAX_BUCKETS: usize = 2048;

/// Values at or below this map to the zero bucket (reported as 0.0).
const MIN_TRACKABLE: f64 = 1e-9;

/// A mergeable quantile sketch over non-negative values with bounded
/// relative error `alpha` (see the module docs for the guarantee).
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    alpha: f64,
    /// `ln(gamma)`, precomputed; `gamma = (1 + alpha) / (1 - alpha)`.
    ln_gamma: f64,
    /// Bucket key → count. Key `k` covers `(gamma^(k-1), gamma^k]`.
    buckets: BTreeMap<i32, u64>,
    /// Values in `[0, MIN_TRACKABLE]` (and any negatives, clamped).
    zero: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    max_buckets: usize,
    /// Number of low-bucket collapses forced by the bucket bound.
    collapsed: u64,
}

impl QuantileSketch {
    /// A sketch with relative-error bound `alpha` and the default bucket
    /// bound.
    ///
    /// # Panics
    /// Panics unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must be in (0, 1), got {alpha}"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        Self {
            alpha,
            ln_gamma: gamma.ln(),
            buckets: BTreeMap::new(),
            zero: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            max_buckets: DEFAULT_MAX_BUCKETS,
            collapsed: 0,
        }
    }

    /// The registry configuration (`alpha = 0.01`, 2048 buckets).
    pub fn default_config() -> Self {
        Self::new(DEFAULT_ALPHA)
    }

    /// Caps the bucket table at `n` (≥ 2); lowest buckets collapse past it.
    pub fn with_max_buckets(mut self, n: usize) -> Self {
        self.max_buckets = n.max(2);
        self
    }

    /// The configured relative-error bound.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded value (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Number of forced low-bucket collapses (0 means the strict error
    /// bound held for every record).
    pub fn collapses(&self) -> u64 {
        self.collapsed
    }

    fn key_of(&self, v: f64) -> i32 {
        // ceil(ln v / ln gamma); clamp the exponent so absurd inputs cannot
        // overflow the i32 key space.
        (v.ln() / self.ln_gamma).ceil().clamp(-1e6, 1e6) as i32
    }

    fn value_of(&self, key: i32) -> f64 {
        // Midpoint (harmonic) estimate of bucket k: 2·gamma^k / (gamma + 1).
        let gamma = (1.0 + self.alpha) / (1.0 - self.alpha);
        2.0 * (key as f64 * self.ln_gamma).exp() / (gamma + 1.0)
    }

    /// Records one value. Negative or sub-[`MIN_TRACKABLE`] inputs land in
    /// the zero bucket; NaN is ignored.
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        let v = v.max(0.0);
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v <= MIN_TRACKABLE {
            self.zero += 1;
        } else {
            *self.buckets.entry(self.key_of(v)).or_insert(0) += 1;
            self.enforce_bound();
        }
    }

    /// Merges `other` into `self` by bucket-count addition. Both sketches
    /// must share the same `alpha`.
    ///
    /// # Panics
    /// Panics on mismatched `alpha`.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            (self.alpha - other.alpha).abs() < 1e-12,
            "cannot merge sketches with different alpha ({} vs {})",
            self.alpha,
            other.alpha
        );
        for (&k, &c) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += c;
        }
        self.zero += other.zero;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.collapsed += other.collapsed;
        self.enforce_bound();
    }

    fn enforce_bound(&mut self) {
        while self.buckets.len() > self.max_buckets {
            let (&lo, &lo_count) = self.buckets.iter().next().expect("len > max >= 2");
            self.buckets.remove(&lo);
            let (_, next) = self.buckets.iter_mut().next().expect("len >= 2");
            *next += lo_count;
            self.collapsed += 1;
        }
    }

    /// The estimated `q`-quantile (`q ∈ [0, 1]`), clamped to the recorded
    /// `[min, max]`: the estimate of the order statistic at 0-based rank
    /// `floor(q·(n−1))` of the `n` recorded values (so with few samples
    /// the p99 can sit below the nearest-rank `ceil(q·n)` value). Returns
    /// 0.0 for an empty sketch.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count - 1) as f64).floor() as u64;
        if rank < self.zero {
            return if self.min <= MIN_TRACKABLE {
                self.min
            } else {
                0.0
            };
        }
        let mut cum = self.zero;
        for (&k, &c) in &self.buckets {
            cum += c;
            if cum > rank {
                return self.value_of(k).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The frozen five-number summary exposed in traces.
    pub fn summary(&self) -> SketchSummary {
        SketchSummary {
            count: self.count,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

/// Frozen summary of one sketch: count, mean, p50/p90/p99, max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Mean of recorded values.
    pub mean: f64,
    /// Median estimate.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// Exact maximum.
    pub max: f64,
}

impl SketchSummary {
    /// JSON object form used in `summary` and `timeseries` events.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::from(self.count)),
            ("mean".into(), Json::from(self.mean)),
            ("p50".into(), Json::from(self.p50)),
            ("p90".into(), Json::from(self.p90)),
            ("p99".into(), Json::from(self.p99)),
            ("max".into(), Json::from(self.max)),
        ])
    }
}

/// A time-windowed quantile sketch: the last `window` of a stream,
/// summarized with the same bounded relative error as [`QuantileSketch`].
///
/// The window is a ring of `n_buckets` sub-sketches, each covering
/// `window / n_buckets` of wall time. Recording rotates the ring (expired
/// buckets are cleared), so a quantile query merges only the live buckets
/// — values older than the window have aged out entirely. This is what
/// the serve-path `stats` endpoint answers "what is p99 *right now*"
/// from: a cumulative sketch would dilute a fresh regression with hours
/// of healthy history.
///
/// Granularity note: expiry happens a bucket at a time, so the effective
/// window wobbles between `window - window/n_buckets` and `window`.
#[derive(Debug)]
pub struct RollingSketch {
    alpha: f64,
    bucket_window: std::time::Duration,
    buckets: Vec<QuantileSketch>,
    /// Ring index of the bucket currently recording.
    current: usize,
    /// Start of the current bucket's time slice.
    bucket_start: std::time::Instant,
    started: std::time::Instant,
}

impl RollingSketch {
    /// A rolling sketch covering `window`, split into `n_buckets` slices
    /// (clamped to at least 2), with relative-error bound `alpha`.
    pub fn new(alpha: f64, window: std::time::Duration, n_buckets: usize) -> Self {
        let n = n_buckets.max(2);
        let now = std::time::Instant::now();
        Self {
            alpha,
            bucket_window: window.max(std::time::Duration::from_millis(2)) / n as u32,
            buckets: (0..n).map(|_| QuantileSketch::new(alpha)).collect(),
            current: 0,
            bucket_start: now,
            started: now,
        }
    }

    /// Total window covered (bucket slice × ring length).
    pub fn window(&self) -> std::time::Duration {
        self.bucket_window * self.buckets.len() as u32
    }

    /// Advances the ring so `now` falls inside the current bucket,
    /// clearing every slice that expired on the way.
    fn rotate_to(&mut self, now: std::time::Instant) {
        let n = self.buckets.len();
        let mut steps = 0usize;
        while now.duration_since(self.bucket_start) >= self.bucket_window {
            self.bucket_start += self.bucket_window;
            self.current = (self.current + 1) % n;
            self.buckets[self.current] = QuantileSketch::new(self.alpha);
            steps += 1;
            if steps >= n {
                // Idle longer than the whole window: everything expired;
                // jump the clock instead of spinning per slice.
                for b in &mut self.buckets {
                    *b = QuantileSketch::new(self.alpha);
                }
                self.bucket_start = now;
                break;
            }
        }
    }

    fn record_at(&mut self, v: f64, now: std::time::Instant) {
        self.rotate_to(now);
        self.buckets[self.current].record(v);
    }

    fn merged_at(&mut self, now: std::time::Instant) -> QuantileSketch {
        self.rotate_to(now);
        let mut out = QuantileSketch::new(self.alpha);
        for b in &self.buckets {
            out.merge(b);
        }
        out
    }

    /// Records one value into the current time slice.
    pub fn record(&mut self, v: f64) {
        self.record_at(v, std::time::Instant::now());
    }

    /// Number of values still inside the window.
    pub fn count(&mut self) -> u64 {
        self.merged_at(std::time::Instant::now()).count()
    }

    /// The five-number summary of the values still inside the window.
    pub fn summary(&mut self) -> SketchSummary {
        self.merged_at(std::time::Instant::now()).summary()
    }

    /// Records per second over the window (or over the sketch's lifetime,
    /// when it is younger than the window).
    pub fn rate_per_sec(&mut self) -> f64 {
        let now = std::time::Instant::now();
        let horizon = self
            .window()
            .min(now.duration_since(self.started))
            .as_secs_f64()
            .max(1e-3);
        self.merged_at(now).count() as f64 / horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * (sorted.len() - 1) as f64).floor() as usize;
        sorted[rank]
    }

    #[test]
    fn bounded_relative_error_on_a_uniform_stream() {
        let mut s = QuantileSketch::new(0.01);
        let mut vals: Vec<f64> = (1..=10_000).map(|i| i as f64 * 0.123).collect();
        for &v in &vals {
            s.record(v);
        }
        vals.sort_by(f64::total_cmp);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(&vals, q);
            let est = s.quantile(q);
            assert!(
                (est - exact).abs() <= 0.011 * exact.abs() + 1e-12,
                "q={q}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(s.collapses(), 0);
    }

    #[test]
    fn merge_equals_recording_the_concatenation() {
        let mut a = QuantileSketch::new(0.02);
        let mut b = QuantileSketch::new(0.02);
        let mut all = QuantileSketch::new(0.02);
        for i in 0..500 {
            let v = (i as f64).exp2().min(1e12) * 0.001;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q), "q={q}");
        }
    }

    #[test]
    fn zero_and_negative_values_land_in_the_zero_bucket() {
        let mut s = QuantileSketch::new(0.01);
        for _ in 0..90 {
            s.record(0.0);
        }
        s.record(-3.0); // clamped
        for _ in 0..9 {
            s.record(100.0);
        }
        assert_eq!(s.count(), 100);
        assert_eq!(s.quantile(0.5), 0.0);
        assert!((s.quantile(0.99) - 100.0).abs() <= 1.1);
    }

    #[test]
    fn bucket_bound_collapses_low_end_only() {
        let mut s = QuantileSketch::new(0.05).with_max_buckets(8);
        for i in 0..1000 {
            s.record(1.001f64.powi(i));
        }
        assert!(s.collapses() > 0);
        // The top of the range stays accurate.
        let top = 1.001f64.powi(999);
        assert!((s.quantile(1.0) - top).abs() <= 0.06 * top);
        assert_eq!(s.count(), 1000);
    }

    #[test]
    fn empty_sketch_is_all_zeros() {
        let s = QuantileSketch::default_config();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    #[should_panic(expected = "different alpha")]
    fn merge_rejects_mismatched_alpha() {
        let mut a = QuantileSketch::new(0.01);
        a.merge(&QuantileSketch::new(0.02));
    }

    #[test]
    fn rolling_sketch_ages_out_old_values_bucket_by_bucket() {
        use std::time::{Duration, Instant};
        let mut r = RollingSketch::new(0.01, Duration::from_secs(8), 4);
        let t0 = Instant::now();
        // 100 slow samples in the first slice, then fast ones later.
        for _ in 0..100 {
            r.record_at(100.0, t0);
        }
        for _ in 0..100 {
            r.record_at(1.0, t0 + Duration::from_secs(5));
        }
        // Both slices still live: p99 sees the slow cohort.
        let now = t0 + Duration::from_secs(5);
        assert_eq!(r.merged_at(now).count(), 200);
        assert!(r.merged_at(now).quantile(0.99) > 90.0);
        // Past the window, the slow slice has expired.
        let later = t0 + Duration::from_secs(9);
        assert_eq!(r.merged_at(later).count(), 100);
        assert!(r.merged_at(later).quantile(0.99) < 2.0);
    }

    #[test]
    fn rolling_sketch_clears_everything_after_a_long_idle_gap() {
        use std::time::{Duration, Instant};
        let mut r = RollingSketch::new(0.01, Duration::from_secs(4), 4);
        let t0 = Instant::now();
        r.record_at(50.0, t0);
        assert_eq!(r.merged_at(t0).count(), 1);
        // An hour idle: the whole ring expired; rotation must not spin
        // per-slice for 3600 s worth of buckets.
        let later = t0 + Duration::from_secs(3600);
        assert_eq!(r.merged_at(later).count(), 0);
        r.record_at(2.0, later);
        assert_eq!(r.merged_at(later).count(), 1);
    }

    #[test]
    fn rolling_sketch_window_and_clamps() {
        use std::time::Duration;
        let r = RollingSketch::new(0.01, Duration::from_secs(30), 6);
        assert_eq!(r.window(), Duration::from_secs(30));
        // n_buckets clamps to >= 2.
        let r = RollingSketch::new(0.01, Duration::from_secs(10), 0);
        assert_eq!(r.window(), Duration::from_secs(10));
    }
}
