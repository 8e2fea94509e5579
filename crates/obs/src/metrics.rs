//! The lock-light metrics registry: named counters, gauges, and
//! fixed-bucket latency histograms behind one [`Metric`] trait.
//!
//! The registry's lock is touched only at registration and scrape time —
//! hot paths hold `Arc`s to the individual metrics and update them with
//! relaxed atomics, so instrumentation never serialises the operations it
//! measures. Names are dot-separated paths. A registered metric stays
//! for the life of the process — there is no removal — so the registry
//! holds process-scoped series only. Numbers whose owner comes and goes
//! (a tenant's counters) stay with that owner, which renders them into
//! the scrape as [`MetricSample`] rows while it is around.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use serde::{DeError, Value};

/// Power-of-two microsecond buckets: bucket *i* counts samples in
/// `[2^i, 2^(i+1))` µs. 40 buckets cover ~13 days; plenty for a request.
const BUCKETS: usize = 40;

/// What a metric counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing count.
    Counter,
    /// A level that can move both ways (depth, in-flight, high-water).
    Gauge,
    /// A latency distribution digest.
    Histogram,
}

impl MetricKind {
    /// The wire name of this kind.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn parse(s: &str) -> Option<MetricKind> {
        match s {
            "counter" => Some(MetricKind::Counter),
            "gauge" => Some(MetricKind::Gauge),
            "histogram" => Some(MetricKind::Histogram),
            _ => None,
        }
    }
}

/// A metric's point-in-time value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's running total.
    Counter(u64),
    /// A gauge's current level.
    Gauge(i64),
    /// A histogram's digest.
    Histogram(LatencySummary),
}

impl MetricValue {
    /// The kind of metric this value was sampled from.
    pub fn kind(&self) -> MetricKind {
        match self {
            MetricValue::Counter(_) => MetricKind::Counter,
            MetricValue::Gauge(_) => MetricKind::Gauge,
            MetricValue::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// The common face of every registered metric.
pub trait Metric: std::fmt::Debug + Send + Sync {
    /// A point-in-time sample of its value.
    fn value(&self) -> MetricValue;
}

/// A monotonically increasing counter (relaxed atomics).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The running total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Metric for Counter {
    fn value(&self) -> MetricValue {
        MetricValue::Counter(self.get())
    }
}

/// A signed level (relaxed atomics): queue depth, in-flight requests,
/// high-water marks (via [`Gauge::set_max`]).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Moves the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Raises the level to `v` if `v` is higher (high-water tracking).
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Metric for Gauge {
    fn value(&self) -> MetricValue {
        MetricValue::Gauge(self.get())
    }
}

/// A fixed-bucket log₂ latency histogram (microsecond resolution).
///
/// Quantiles are read as the *upper bound* of the bucket containing the
/// requested rank, i.e. estimates are conservative and never more than 2×
/// the true value.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record(&self, latency: Duration) {
        let us = (latency.as_micros() as u64).max(1);
        let idx = (us.ilog2() as usize).min(BUCKETS - 1);
        // lint:allow(panic-free-server-paths, reason = "idx is clamped to BUCKETS - 1 on the previous line")
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0..=1.0`) in microseconds — the upper bound
    /// of the bucket holding that rank. Zero when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << BUCKETS
    }

    /// Mean latency in microseconds. Zero when empty.
    pub fn mean_us(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / count as f64
        }
    }

    /// A point-in-time summary (count, p50, p99, mean).
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count(),
            p50_us: self.quantile_us(0.50),
            p99_us: self.quantile_us(0.99),
            mean_us: self.mean_us(),
        }
    }
}

impl Metric for LatencyHistogram {
    fn value(&self) -> MetricValue {
        MetricValue::Histogram(self.summary())
    }
}

/// A point-in-time latency digest.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median, microseconds (bucket upper bound).
    pub p50_us: u64,
    /// 99th percentile, microseconds (bucket upper bound).
    pub p99_us: u64,
    /// Mean, microseconds.
    pub mean_us: f64,
}

/// One scraped metric: name, kind, and value.
///
/// Serialises as `{"name":"...","kind":"counter","value":123}` with the
/// value shape keyed by the kind (histograms carry a summary object).
/// Counter/gauge values ride the shim's f64 number model, so totals above
/// 2⁵³ lose precision on the wire (the same caveat the rest of the
/// protocol carries).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// The dot-separated metric name.
    pub name: String,
    /// What the metric counts.
    pub kind: MetricKind,
    /// Its value at scrape time.
    pub value: MetricValue,
}

impl MetricSample {
    /// A sample of `value` under `name`; the kind is the value's.
    pub fn new(name: String, value: MetricValue) -> MetricSample {
        MetricSample {
            name,
            kind: value.kind(),
            value,
        }
    }
}

impl serde::Serialize for MetricSample {
    fn to_value(&self) -> Value {
        let value = match &self.value {
            MetricValue::Counter(v) => Value::Num(*v as f64),
            MetricValue::Gauge(v) => Value::Num(*v as f64),
            MetricValue::Histogram(s) => s.to_value(),
        };
        Value::Obj(vec![
            ("name".to_owned(), Value::Str(self.name.clone())),
            ("kind".to_owned(), Value::Str(self.kind.name().to_owned())),
            ("value".to_owned(), value),
        ])
    }
}

impl serde::Deserialize for MetricSample {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs = match v {
            Value::Obj(pairs) => pairs.as_slice(),
            other => return Err(DeError(format!("expected metric object, got {other:?}"))),
        };
        let name = match serde::obj_get(pairs, "name")? {
            Value::Str(s) => s.clone(),
            other => return Err(DeError(format!("expected string `name`, got {other:?}"))),
        };
        let kind = match serde::obj_get(pairs, "kind")? {
            Value::Str(s) => {
                MetricKind::parse(s).ok_or_else(|| DeError(format!("unknown metric kind `{s}`")))?
            }
            other => return Err(DeError(format!("expected string `kind`, got {other:?}"))),
        };
        let raw = serde::obj_get(pairs, "value")?;
        let value = match (kind, raw) {
            (MetricKind::Counter, Value::Num(n)) => MetricValue::Counter(*n as u64),
            (MetricKind::Gauge, Value::Num(n)) => MetricValue::Gauge(*n as i64),
            (MetricKind::Histogram, obj) => {
                MetricValue::Histogram(LatencySummary::from_value(obj)?)
            }
            (_, other) => {
                return Err(DeError(format!(
                    "metric value {other:?} does not match kind `{}`",
                    kind.name()
                )))
            }
        };
        Ok(MetricSample { name, kind, value })
    }
}

/// A typed handle to one registered metric.
#[derive(Debug, Clone)]
enum MetricHandle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<LatencyHistogram>),
}

impl MetricHandle {
    fn as_metric(&self) -> &dyn Metric {
        match self {
            MetricHandle::Counter(c) => c.as_ref(),
            MetricHandle::Gauge(g) => g.as_ref(),
            MetricHandle::Histogram(h) => h.as_ref(),
        }
    }
}

/// The process-wide name → metric map.
///
/// Get-or-register calls take the write lock only on first registration;
/// repeat lookups take a read lock for a clone. Scrapes ([`snapshot`])
/// walk the map under the read lock but sample each metric with relaxed
/// atomic loads, so they never block a writer for long and never block
/// hot-path increments at all. Registering a name that already exists
/// with a *different* kind returns a fresh detached instance (updated but
/// never scraped) rather than panicking a server thread — a misnamed
/// metric is a bug worth noticing, not worth an outage.
///
/// [`snapshot`]: MetricsRegistry::snapshot
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: RwLock<BTreeMap<String, MetricHandle>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Gets or registers the counter called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(MetricHandle::Counter(c)) = self.inner.read().get(name) {
            return Arc::clone(c);
        }
        match self.inner.write().entry(name.to_owned()) {
            Entry::Occupied(slot) => match slot.get() {
                MetricHandle::Counter(c) => Arc::clone(c),
                _ => Arc::new(Counter::new()),
            },
            Entry::Vacant(slot) => {
                let c = Arc::new(Counter::new());
                slot.insert(MetricHandle::Counter(Arc::clone(&c)));
                c
            }
        }
    }

    /// Gets or registers the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(MetricHandle::Gauge(g)) = self.inner.read().get(name) {
            return Arc::clone(g);
        }
        match self.inner.write().entry(name.to_owned()) {
            Entry::Occupied(slot) => match slot.get() {
                MetricHandle::Gauge(g) => Arc::clone(g),
                _ => Arc::new(Gauge::new()),
            },
            Entry::Vacant(slot) => {
                let g = Arc::new(Gauge::new());
                slot.insert(MetricHandle::Gauge(Arc::clone(&g)));
                g
            }
        }
    }

    /// Gets or registers the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        if let Some(MetricHandle::Histogram(h)) = self.inner.read().get(name) {
            return Arc::clone(h);
        }
        match self.inner.write().entry(name.to_owned()) {
            Entry::Occupied(slot) => match slot.get() {
                MetricHandle::Histogram(h) => Arc::clone(h),
                _ => Arc::new(LatencyHistogram::new()),
            },
            Entry::Vacant(slot) => {
                let h = Arc::new(LatencyHistogram::new());
                slot.insert(MetricHandle::Histogram(Arc::clone(&h)));
                h
            }
        }
    }

    /// Registered metric count.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Samples every registered metric, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        self.inner
            .read()
            .iter()
            .map(|(name, handle)| MetricSample::new(name.clone(), handle.as_metric().value()))
            .collect()
    }

    /// Samples one metric by exact name.
    pub fn sample(&self, name: &str) -> Option<MetricSample> {
        self.inner
            .read()
            .get(name)
            .map(|handle| MetricSample::new(name.to_owned(), handle.as_metric().value()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once_and_share_state() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("service.predictions");
        let b = reg.counter("service.predictions");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.len(), 1);

        let g = reg.gauge("wire.in_flight");
        g.add(5);
        g.dec();
        g.set_max(3); // below current level: no-op
        assert_eq!(g.get(), 4);
        g.set_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn kind_clash_returns_detached_instance() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x");
        c.inc();
        let g = reg.gauge("x"); // same name, wrong kind
        g.set(42);
        // The registry still scrapes the original counter.
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].value, MetricValue::Counter(1));
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let reg = MetricsRegistry::new();
        reg.histogram("z.latency")
            .record(Duration::from_micros(100));
        reg.counter("a.count").add(7);
        reg.gauge("m.depth").set(-2);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a.count", "m.depth", "z.latency"]);
        assert_eq!(snap[0].value, MetricValue::Counter(7));
        assert_eq!(snap[1].value, MetricValue::Gauge(-2));
        match &snap[2].value {
            MetricValue::Histogram(s) => assert_eq!(s.count, 1),
            other => panic!("wrong value: {other:?}"),
        }
    }

    #[test]
    fn metric_sample_serde_round_trips() {
        let samples = vec![
            MetricSample {
                name: "a".into(),
                kind: MetricKind::Counter,
                value: MetricValue::Counter(9),
            },
            MetricSample {
                name: "b".into(),
                kind: MetricKind::Gauge,
                value: MetricValue::Gauge(-3),
            },
            MetricSample {
                name: "c".into(),
                kind: MetricKind::Histogram,
                value: MetricValue::Histogram(LatencySummary {
                    count: 2,
                    p50_us: 128,
                    p99_us: 256,
                    mean_us: 150.0,
                }),
            },
        ];
        let json = serde_json::to_string(&samples).unwrap();
        let back: Vec<MetricSample> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, samples);
        // A sample whose value shape contradicts its kind is rejected.
        assert!(serde_json::from_str::<MetricSample>(
            "{\"name\":\"x\",\"kind\":\"counter\",\"value\":{}}"
        )
        .is_err());
    }

    #[test]
    fn histogram_quantiles_track_recorded_spread() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_micros(100)); // bucket [64, 128)
        }
        h.record(Duration::from_millis(10)); // bucket [8192, 16384)
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.5), 128);
        assert_eq!(h.quantile_us(0.99), 128);
        assert_eq!(h.quantile_us(1.0), 16384);
        assert!(h.mean_us() > 100.0 && h.mean_us() < 300.0);
        assert_eq!(h.summary().p50_us, 128);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.summary(), LatencySummary::default());
    }
}
