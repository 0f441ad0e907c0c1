//! Metrics registry: named log2-bucketed histograms and gauges, plus the
//! always-on [`StatCounter`].
//!
//! The profiler's timeline (see [`crate::profiler`]) answers *when* work
//! happened; the metrics registry answers *how it was distributed*: probe
//! depths per lookup, chain lengths at insert, batch retry sizes, allocator
//! occupancy. Instrumentation sites reach the registry through
//! [`crate::Device::profiler`], so when no profiler is attached a site costs
//! one `Option` check and records nothing — counters are byte-identical
//! either way.
//!
//! Histograms bucket values by `⌊log2⌋` (65 buckets cover the full `u64`
//! range; bucket 0 holds the value 0) and additionally track exact count,
//! sum, and max, so summaries report exact means/maxima alongside bucketed
//! p50/p95/p99. Gauges track a current value, its high-water mark, and an
//! update count. Summaries ([`MetricSummary`]) are all-`u64` and round-trip
//! exactly through [`crate::trace::TraceReport`] JSON. A layer above the
//! device (the sharded router's per-op latency components) keeps its own
//! registry and merges its summaries into a report's metric rows.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Histogram bucket count: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`.
pub const HIST_BUCKETS: usize = 65;

/// The bucket index for `v` (see [`HIST_BUCKETS`]).
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive lower bound of bucket `i` — the value percentiles report.
fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A thread-safe log2-bucketed histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Capture the current totals.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Bucket-wise merge of another snapshot into this one (cross-device
    /// aggregation: the same metric observed on several backends).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The bucketed `q`-quantile (`0.0 ..= 1.0`): the lower bound of the
    /// first bucket at which the cumulative count reaches `⌈q·count⌉`.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return bucket_floor(i).min(self.max);
            }
        }
        self.max
    }

    /// Render this snapshot as a [`MetricSummary`].
    pub fn summary(&self, name: impl Into<String>) -> MetricSummary {
        MetricSummary {
            name: name.into(),
            kind: MetricKind::Histogram,
            count: self.count,
            sum: self.sum,
            max: self.max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// A thread-safe gauge: current value, high-water mark, update count.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    high: AtomicU64,
    updates: AtomicU64,
}

impl Gauge {
    /// Set the gauge to an absolute value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.high.fetch_max(v, Ordering::Relaxed);
        self.updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment the gauge by `n`.
    pub fn add(&self, n: u64) {
        let now = self.value.fetch_add(n, Ordering::Relaxed) + n;
        self.high.fetch_max(now, Ordering::Relaxed);
        self.updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement the gauge by `n` (saturating at zero).
    pub fn sub(&self, n: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
        self.updates.fetch_add(1, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The high-water mark.
    pub fn high_water(&self) -> u64 {
        self.high.load(Ordering::Relaxed)
    }

    /// Render this gauge as a [`MetricSummary`]: `count` is the update
    /// count, `sum` and the percentiles carry the current value, `max` the
    /// high-water mark.
    pub fn summary(&self, name: impl Into<String>) -> MetricSummary {
        let v = self.value();
        MetricSummary {
            name: name.into(),
            kind: MetricKind::Gauge,
            count: self.updates.load(Ordering::Relaxed),
            sum: v,
            max: self.high_water(),
            p50: v,
            p95: v,
            p99: v,
        }
    }
}

/// A monotonic statistics counter that is always on (no profiler needed).
///
/// Its value is only ever a count or a unique ticket: no reader infers
/// from it that some other memory is visible, so `Relaxed` ordering is
/// correct here, and this type keeps that ordering inside gpu-sim.
#[derive(Debug, Default)]
pub struct StatCounter(AtomicU64);

impl StatCounter {
    /// A counter starting at `v` (usable in a `static`).
    pub const fn new(v: u64) -> Self {
        StatCounter(AtomicU64::new(v))
    }

    /// Add `n`; returns the value before the add (a unique ticket when
    /// `n` is 1).
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// What a [`MetricSummary`] summarizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Histogram,
    Gauge,
}

impl MetricKind {
    /// Stable identifier used in JSON payloads and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Histogram => "histogram",
            MetricKind::Gauge => "gauge",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Option<MetricKind> {
        match s {
            "histogram" => Some(MetricKind::Histogram),
            "gauge" => Some(MetricKind::Gauge),
            _ => None,
        }
    }
}

/// An all-`u64` rendering of one metric, suitable for exact JSON
/// round-tripping in [`crate::trace::TraceReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSummary {
    pub name: String,
    pub kind: MetricKind,
    /// Observations (histogram) or updates (gauge).
    pub count: u64,
    /// Sum of observations (histogram) or current value (gauge).
    pub sum: u64,
    /// Largest observation (histogram) or high-water mark (gauge).
    pub max: u64,
    /// Bucketed median (histogram) or current value (gauge).
    pub p50: u64,
    /// Bucketed 95th percentile (histogram) or current value (gauge).
    pub p95: u64,
    /// Bucketed 99th percentile (histogram) or current value (gauge).
    pub p99: u64,
}

impl MetricSummary {
    /// Exact mean of a histogram's observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Registry of named histograms and gauges, in first-use order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    hists: Mutex<Vec<(String, Arc<Histogram>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Find or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut hists = self.hists.lock();
        if let Some((_, h)) = hists.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Arc::new(Histogram::default());
        hists.push((name.to_string(), h.clone()));
        h
    }

    /// Find or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut gauges = self.gauges.lock();
        if let Some((_, g)) = gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Arc::new(Gauge::default());
        gauges.push((name.to_string(), g.clone()));
        g
    }

    /// Record one observation into the histogram named `name`.
    pub fn record(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
    }

    /// Every histogram's snapshot, in first-use order.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        self.hists
            .lock()
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect()
    }

    /// Summaries of every metric, sorted by name (histograms and gauges
    /// interleaved) so reports are deterministic across runs.
    pub fn summaries(&self) -> Vec<MetricSummary> {
        let mut out: Vec<MetricSummary> = self
            .hists
            .lock()
            .iter()
            .map(|(n, h)| h.snapshot().summary(n.clone()))
            .chain(self.gauges.lock().iter().map(|(n, g)| g.summary(n.clone())))
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(5), 16);
    }

    #[test]
    fn histogram_counts_sums_and_quantiles() {
        let h = Histogram::default();
        for v in [1u64, 1, 2, 3, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 107);
        assert_eq!(s.max, 100);
        // Buckets: v=1 ×2 → b1; v=2,3 → b2; v=100 → b7.
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[7], 1);
        assert_eq!(s.quantile(0.5), 2, "3rd of 5 lands in bucket [2,4)");
        assert_eq!(s.quantile(0.95), 64, "bucket floor of [64,128)");
        assert_eq!(s.quantile(1.0), 64);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.summary("x").mean(), 0.0);
    }

    #[test]
    fn quantile_clamps_to_observed_max() {
        let h = Histogram::default();
        h.record(5); // bucket [4,8), floor 4
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 4);
        h.record(1u64 << 40);
        let s = h.snapshot();
        assert_eq!(s.quantile(1.0), 1u64 << 40);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = Histogram::default();
        let b = Histogram::default();
        a.record(1);
        a.record(8);
        b.record(8);
        b.record(1000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 4);
        assert_eq!(m.sum, 1017);
        assert_eq!(m.max, 1000);
        assert_eq!(m.buckets[4], 2, "both 8s in [8,16)");
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = Gauge::default();
        g.add(10);
        g.add(5);
        g.sub(12);
        assert_eq!(g.value(), 3);
        assert_eq!(g.high_water(), 15);
        g.set(4);
        assert_eq!(g.high_water(), 15);
        let s = g.summary("pool");
        assert_eq!(s.kind, MetricKind::Gauge);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 4);
        assert_eq!(s.max, 15);
    }

    #[test]
    fn gauge_sub_saturates() {
        let g = Gauge::default();
        g.sub(7);
        assert_eq!(g.value(), 0);
    }

    #[test]
    fn stat_counter_hands_out_unique_tickets() {
        static TICKETS: StatCounter = StatCounter::new(1);
        let seen: Vec<u64> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..100).map(|_| TICKETS.add(1)).collect::<Vec<_>>()))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        let unique: std::collections::HashSet<u64> = seen.iter().copied().collect();
        assert_eq!(unique.len(), 400);
        assert_eq!(TICKETS.get(), 401);
    }

    #[test]
    fn registry_interns_by_name_and_sorts_summaries() {
        let r = MetricsRegistry::new();
        r.record("z.depth", 3);
        r.record("z.depth", 5);
        r.gauge("a.pool").set(9);
        let s = r.summaries();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].name, "a.pool");
        assert_eq!(s[1].name, "z.depth");
        assert_eq!(s[1].count, 2);
        assert_eq!(s[1].sum, 8);
    }

    #[test]
    fn metric_kind_roundtrips() {
        for k in [MetricKind::Histogram, MetricKind::Gauge] {
            assert_eq!(MetricKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(MetricKind::parse("nope"), None);
    }
}
