//! # smartpick-obs
//!
//! The observability layer for **smartpickd**: the paper's §4.2 monitor
//! thread and §5 serving boundary assume an operator can *see*
//! prediction staleness, retrain pressure, and shed decisions while the
//! system runs. This crate is that seeing apparatus, kept deliberately
//! free of service/wire knowledge so both layers can feed it:
//!
//! * [`metrics`] — a lock-light [`MetricsRegistry`] of named
//!   [`Counter`]s, [`Gauge`]s, and [`LatencyHistogram`]s behind one
//!   [`Metric`] trait. Hot paths hold `Arc`s and update with relaxed
//!   atomics; the registry lock is touched only at registration and
//!   scrape time. Nothing is ever unregistered: it holds process-wide
//!   series, and a layer whose numbers come and go with some owner (the
//!   service's tenants) renders those as extra [`MetricSample`] rows
//!   into the envelope instead.
//! * [`events`] — a bounded ring of typed, timestamped [`Event`]s
//!   ([`EventLog`]) with severities and subscriber hooks for tests.
//! * [`ScrapeEnvelope`] / [`HealthReport`] — the versioned wire shapes
//!   `Request::Scrape` and `Request::Health` answer with: together the
//!   one way to read a running service, in process or over the wire.
//!
//! Everything is built on the vendored shims only (`parking_lot`,
//! `serde`); counter values ride the shim's f64 JSON
//! number model, so totals above 2⁵³ lose precision on the wire — the
//! same caveat the rest of the protocol carries.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
// Clippy agrees with smartpick-lint's panic-free-server-paths rule:
// non-test code must not panic; exceptions carry an explicit
// `#[allow]` next to their `lint:allow` so both tools share one list.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod events;
pub mod metrics;

pub use events::{event, Event, EventDraft, EventKind, EventLog, Severity};
pub use metrics::{
    Counter, Gauge, LatencyHistogram, LatencySummary, Metric, MetricKind, MetricSample,
    MetricValue, MetricsRegistry,
};

use std::sync::Arc;

/// The scrape envelope's schema version; bump on breaking shape changes.
pub const SCRAPE_VERSION: u64 = 1;

/// One metrics registry + one event log, bundled so every layer of a
/// process (service, wire server, retrain workers) feeds the same scrape.
#[derive(Debug)]
pub struct Observability {
    metrics: MetricsRegistry,
    events: EventLog,
}

impl Observability {
    /// Creates a bundle whose event ring retains `event_capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `event_capacity` is zero.
    pub fn new(event_capacity: usize) -> Self {
        Observability {
            metrics: MetricsRegistry::new(),
            events: EventLog::new(event_capacity),
        }
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The shared event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// One versioned envelope of every metric plus the last `max_events`
    /// events — what `Request::Scrape` answers with.
    pub fn scrape(&self, max_events: usize) -> ScrapeEnvelope {
        let events = self.events().recent(max_events);
        ScrapeEnvelope {
            version: SCRAPE_VERSION,
            at_us: self.events().now_us(),
            metrics: self.metrics.snapshot(),
            events,
        }
    }

    /// A convenience `Arc`d bundle with the given event capacity.
    pub fn shared(event_capacity: usize) -> Arc<Observability> {
        Arc::new(Observability::new(event_capacity))
    }
}

/// The versioned scrape payload: every metric (sorted by name, each name
/// once) plus the most recent events, stamped with the log's clock.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScrapeEnvelope {
    /// Schema version ([`SCRAPE_VERSION`]).
    pub version: u64,
    /// Scrape time, µs since the event log's creation.
    pub at_us: u64,
    /// Every registered metric plus whatever rows the scraped layer
    /// renders itself (the service's `tenant.<id>.*` rows for resident
    /// tenants), sorted by name.
    pub metrics: Vec<MetricSample>,
    /// The most recent events, oldest first.
    pub events: Vec<Event>,
}

impl ScrapeEnvelope {
    /// The sample named `name`, if scraped (a binary search: `metrics`
    /// is sorted by name).
    pub fn metric(&self, name: &str) -> Option<&MetricSample> {
        let at = self
            .metrics
            .binary_search_by(|m| m.name.as_str().cmp(name))
            .ok()?;
        self.metrics.get(at)
    }

    /// The counter named `name`, or zero if absent/mistyped — the
    /// ergonomic accessor for dashboards and tests.
    pub fn counter(&self, name: &str) -> u64 {
        match self.metric(name).map(|m| &m.value) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The gauge named `name`, or zero if absent/mistyped.
    pub fn gauge(&self, name: &str) -> i64 {
        match self.metric(name).map(|m| &m.value) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// The histogram named `name`, if scraped as one.
    pub fn histogram(&self, name: &str) -> Option<&LatencySummary> {
        match self.metric(name).map(|m| &m.value) {
            Some(MetricValue::Histogram(s)) => Some(s),
            _ => None,
        }
    }
}

/// A point-in-time view of one supervised worker shard, as health
/// reports it.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WorkerHealth {
    /// The worker/queue shard index.
    pub shard: usize,
    /// `"alive"` (running, or backing off before a restart), `"done"`
    /// (exited at shutdown) or `"failed"` (down for good).
    pub state: String,
    /// Restarts applied to this shard.
    pub restarts: u64,
    /// Whether the shard has queued work but has made no progress within
    /// the configured stall deadline.
    pub stalled: bool,
    /// Reports waiting in this shard's queue right now.
    pub queue_depth: usize,
    /// The last panic message seen on this shard, if any.
    pub last_panic: Option<String>,
}

/// What `Request::Health` answers with: liveness (the process is
/// serving), readiness (every retrain worker is alive and no shard is
/// stalled past its deadline), and the per-shard detail behind the
/// verdict.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HealthReport {
    /// The process answered at all (always true in-band; meaningful to
    /// an external prober that also handles connection failure).
    pub live: bool,
    /// All workers alive, no shard stalled.
    pub ready: bool,
    /// Why `ready` is false, one human-readable line each (empty when
    /// ready).
    pub reasons: Vec<String>,
    /// Per-shard detail.
    pub workers: Vec<WorkerHealth>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_envelope_bundles_metrics_and_events() {
        let obs = Observability::new(4);
        obs.metrics().counter("service.predictions").add(7);
        obs.metrics().gauge("wire.in_flight").set(2);
        obs.events()
            .publish(event(EventKind::TenantRegistered).tenant("acme"));
        let scrape = obs.scrape(8);
        assert_eq!(scrape.version, SCRAPE_VERSION);
        assert_eq!(scrape.counter("service.predictions"), 7);
        assert_eq!(scrape.gauge("wire.in_flight"), 2);
        assert_eq!(scrape.counter("no.such.metric"), 0);
        assert_eq!(scrape.events.len(), 1);
        assert_eq!(scrape.events[0].tenant.as_deref(), Some("acme"));

        let back: ScrapeEnvelope =
            serde_json::from_str(&serde_json::to_string(&scrape).unwrap()).unwrap();
        assert_eq!(back, scrape);
    }

    #[test]
    fn health_report_serde_round_trips() {
        let report = HealthReport {
            live: true,
            ready: false,
            reasons: vec!["worker shard 1 failed".to_owned()],
            workers: vec![
                WorkerHealth {
                    shard: 0,
                    state: "alive".to_owned(),
                    restarts: 0,
                    stalled: false,
                    queue_depth: 0,
                    last_panic: None,
                },
                WorkerHealth {
                    shard: 1,
                    state: "failed".to_owned(),
                    restarts: 3,
                    stalled: false,
                    queue_depth: 5,
                    last_panic: Some("boom".to_owned()),
                },
            ],
        };
        let back: HealthReport =
            serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
        assert_eq!(back, report);
    }
}
