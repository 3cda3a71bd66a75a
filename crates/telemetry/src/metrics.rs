//! The metrics registry: typed counters, gauges, and log₂-bucketed
//! histograms behind cheap cloneable handles.
//!
//! A [`MetricsRegistry`] maps stable dotted names (`"plan.memo.hit"`,
//! `"cluster.latency_ns"`) to metrics. Instrumented code calls
//! [`counter`](MetricsRegistry::counter) / [`gauge`](MetricsRegistry::gauge)
//! / [`histogram`](MetricsRegistry::histogram) **once** to obtain a handle
//! (an `Arc`-shared atomic), then updates through the handle on the hot path
//! — no name lookup, no lock, just a relaxed atomic op.
//! [`snapshot`](MetricsRegistry::snapshot) freezes everything into a sorted
//! [`MetricsSnapshot`] whose [`json`](MetricsSnapshot::json) is the
//! stable schema the bench harness embeds into `BENCH_*.json`.
//!
//! Histograms bucket by log₂: bucket 0 counts zero values, bucket *i* ≥ 1
//! covers `[2^(i-1), 2^i)`. 65 buckets span the full `u64` range, so
//! nanosecond latencies and byte sizes both fit without configuration.
//!
//! No registry is process-wide: a registry belongs to whatever it counts —
//! a `sn_runtime::Compiler` registers its `plan.memo.*` and `tune.*` on one
//! of its own, executor and cluster instrumentation take one explicitly — so
//! concurrent tests never observe each other's counts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::{lock, Json};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed value (resident bytes, queue depth).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one for zero plus one per possible
/// `u64` bit length.
pub const HIST_BUCKETS: usize = 65;

#[derive(Debug)]
struct HistInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for HistInner {
    fn default() -> HistInner {
        HistInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A log₂-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistInner>);

/// Bucket index of a value: 0 for 0, else `1 + floor(log2 v)` so bucket
/// `i ≥ 1` covers `[2^(i-1), 2^i)`.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    pub fn record(&self, v: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// A frozen histogram: total count/sum plus per-bucket counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// The inclusive lower bound of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        if i <= 1 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// The mean sample, or 0.0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The named-metric registry. Cloning shares the underlying map.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The metric under `name`, `fresh()` if there was none. The type check
    /// runs on the clone, after the lock is released: nothing panics under it.
    fn get_or_insert(&self, name: &str, fresh: fn() -> Metric) -> Metric {
        let name = name.to_string();
        lock(&self.inner).entry(name).or_insert_with(fresh).clone()
    }

    /// Get-or-create the counter named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is not a counter: {other:?}"),
        }
    }

    /// Get-or-create the gauge named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is not a gauge: {other:?}"),
        }
    }

    /// Get-or-create the histogram named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::default())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is not a histogram: {other:?}"),
        }
    }

    /// Freeze every registered metric into a sorted snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = lock(&self.inner);
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snap
    }
}

/// A frozen registry: every metric by (sorted) name. `json` is the
/// stable snapshot schema embedded in bench artifacts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The stable JSON schema:
    ///
    /// ```json
    /// {"counters":{"name":n,...},
    ///  "gauges":{"name":n,...},
    ///  "histograms":{"name":{"count":n,"sum":n,"buckets":[{"lo":n,"n":n},...]},...}}
    /// ```
    ///
    /// Names are sorted; empty histogram buckets are omitted from the
    /// bucket list (their `lo` bounds make the encoding self-describing).
    pub fn json(&self) -> Json {
        let mut counters = Json::object();
        for (n, v) in &self.counters {
            counters = counters.with(n, *v);
        }
        let mut gauges = Json::object();
        for (n, v) in &self.gauges {
            gauges = gauges.with(n, *v);
        }
        let mut hists = Json::object();
        for (n, h) in &self.histograms {
            let buckets = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(i, c)| {
                    Json::object()
                        .with("lo", HistogramSnapshot::bucket_lo(i))
                        .with("n", *c)
                });
            hists = hists.with(
                n,
                Json::object()
                    .with("count", h.count)
                    .with("sum", h.sum)
                    .with("buckets", Json::array(buckets)),
            );
        }
        Json::object()
            .with("counters", counters)
            .with("gauges", gauges)
            .with("histograms", hists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.snapshot().counter("x"), Some(5));
    }

    /// A gauge's value in a snapshot, by name.
    fn gauge(snap: &MetricsSnapshot, name: &str) -> Option<i64> {
        snap.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    #[test]
    fn gauge_set_and_get() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.set(7);
        g.set(5);
        assert_eq!(g.get(), 5);
        assert_eq!(gauge(&reg.snapshot(), "depth"), Some(5));
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);

        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for v in [0u64, 1, 2, 3, 1024] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1030);
        assert_eq!(snap.buckets[0], 1); // the zero
        assert_eq!(snap.buckets[1], 1); // 1
        assert_eq!(snap.buckets[2], 2); // 2, 3
        assert_eq!(snap.buckets[11], 1); // 1024 in [1024, 2048)
                                         // Bucket totals always equal the count.
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
    }

    #[test]
    fn bucket_bounds_are_self_describing() {
        assert_eq!(HistogramSnapshot::bucket_lo(0), 0);
        assert_eq!(HistogramSnapshot::bucket_lo(1), 0);
        assert_eq!(HistogramSnapshot::bucket_lo(2), 2);
        assert_eq!(HistogramSnapshot::bucket_lo(11), 1024);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn type_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.gauge("x");
        reg.counter("x");
    }

    #[test]
    fn snapshot_json_is_sorted_and_stable() {
        let reg = MetricsRegistry::new();
        reg.counter("b.second").add(2);
        reg.counter("a.first").inc();
        reg.gauge("depth").set(-3);
        reg.histogram("lat").record(5);
        let json = reg.snapshot().json().to_string();
        assert_eq!(
            json,
            "{\"counters\":{\"a.first\":1,\"b.second\":2},\
             \"gauges\":{\"depth\":-3},\
             \"histograms\":{\"lat\":{\"count\":1,\"sum\":5,\"buckets\":[{\"lo\":4,\"n\":1}]}}}"
        );
    }

    #[test]
    fn a_panic_under_the_registry_lock_does_not_fail_later_callers() {
        let reg = MetricsRegistry::new();
        reg.counter("x").add(3);
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = reg.inner.lock();
                panic!("poisoning a registry lock on purpose");
            })
            .join()
        });
        assert!(died.is_err() && reg.inner.is_poisoned());
        reg.counter("x").inc();
        reg.gauge("depth").set(2);
        let snap = reg.snapshot();
        assert_eq!(
            (snap.counter("x"), gauge(&snap, "depth")),
            (Some(4), Some(2))
        );
    }

    #[test]
    fn mean_of_empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().mean(), 0.0);
        h.record(4);
        h.record(6);
        assert_eq!(h.snapshot().mean(), 5.0);
    }
}
