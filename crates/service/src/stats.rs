//! Service observability: who owns each number, plus [`TenantStats`],
//! the one tenant view (also what the wire's `tenant_stats` carries).
//!
//! Everything here is updated with relaxed atomics on the hot path —
//! stats must never serialise the readers they are measuring. Each
//! number has one owner. Process-scoped series live in the shared
//! [`MetricsRegistry`] under dot-separated names (`service.*` totals,
//! `service.worker.<shard>.*` per retrain shard). A tenant's counters
//! are plain atomics in its registry slot, never registered by name:
//! [`crate::SmartpickService::scrape`] renders them as `tenant.<id>.*`
//! rows (one [`TenantStats`] each) for the tenants resident at that
//! moment, so the registry's size does not depend on how many tenants
//! exist. The hot path increments *both* its tenant counter and the
//! service total, so the `service.*` totals stay monotonic across
//! tenant churn without the scrape walking the registry for them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use smartpick_obs::{
    event, Counter, EventKind, MetricSample, MetricValue, MetricsRegistry, Observability,
};

use crate::worker::WorkerState;

/// One scope's worth of hot-path counters (relaxed atomics). `C` is
/// where a counter lives: a plain [`Counter`] inside a tenant's slot
/// ([`TenantCounters`]), or an `Arc<Counter>` the metrics registry
/// scrapes by name ([`ServiceTotals`]).
#[derive(Debug, Default)]
pub(crate) struct Counters<C> {
    pub(crate) predictions: C,
    pub(crate) reports_enqueued: C,
    pub(crate) reports_applied: C,
    pub(crate) retrains: C,
    pub(crate) rejections: C,
    pub(crate) apply_failures: C,
    /// Predictions served from a snapshot past the staleness bound.
    pub(crate) stale_predictions: C,
}

/// A tenant's counters: owned by its registry slot, shared with its hot
/// state, and reused across evict/rehydrate cycles so they never run
/// backwards. They go away with the slot; no name is bound to them.
pub(crate) type TenantCounters = Counters<Counter>;

/// The service-wide totals, registered as `service.<field>`.
pub(crate) type ServiceTotals = Counters<Arc<Counter>>;

impl ServiceTotals {
    /// Gets or registers the totals in `metrics`.
    pub(crate) fn register(metrics: &MetricsRegistry) -> ServiceTotals {
        let c = |field: &str| metrics.counter(&format!("service.{field}"));
        Counters {
            predictions: c("predictions"),
            reports_enqueued: c("reports_enqueued"),
            reports_applied: c("reports_applied"),
            retrains: c("retrains"),
            rejections: c("rejections"),
            apply_failures: c("apply_failures"),
            stale_predictions: c("stale_predictions"),
        }
    }
}

/// Per-worker-shard counters: how much retrain work each worker has
/// applied (registry-backed, written by exactly one worker thread each),
/// plus the progress stamp the health check's stall detector reads and
/// the worker's own account of its state.
#[derive(Debug)]
pub(crate) struct ShardCounters {
    pub(crate) reports_applied: Arc<Counter>,
    pub(crate) retrains: Arc<Counter>,
    pub(crate) batches: Arc<Counter>,
    /// When this shard last finished a batch, µs since the service
    /// epoch. A shard with queued work and no progress past the
    /// configured stall deadline is reported stalled by
    /// [`crate::SmartpickService::health`].
    pub(crate) last_progress_us: AtomicU64,
    /// Written by the shard's worker as it panics, restarts or exits;
    /// read by health.
    pub(crate) status: Mutex<ShardStatus>,
}

/// How one retrain worker's shard is doing.
#[derive(Debug)]
pub(crate) struct ShardStatus {
    pub(crate) state: WorkerState,
    /// Restarts applied to this shard so far.
    pub(crate) restarts: u64,
    /// The last panic message seen on this shard, if any.
    pub(crate) last_panic: Option<String>,
}

impl ShardCounters {
    /// Registers shard `shard`'s counters under
    /// `service.worker.<shard>.<field>`.
    pub(crate) fn register(metrics: &MetricsRegistry, shard: usize) -> ShardCounters {
        let c = |field: &str| metrics.counter(&format!("service.worker.{shard}.{field}"));
        ShardCounters {
            reports_applied: c("reports_applied"),
            retrains: c("retrains"),
            batches: c("batches"),
            last_progress_us: AtomicU64::new(0),
            status: Mutex::new(ShardStatus {
                state: WorkerState::Alive,
                restarts: 0,
                last_panic: None,
            }),
        }
    }

    pub(crate) fn mark_progress(&self, now_us: u64) {
        self.last_progress_us.store(now_us, Ordering::Relaxed);
    }

    /// Marks `shard` down for good and puts `why` on the event record.
    pub(crate) fn mark_failed(&self, shard: usize, obs: &Observability, why: impl Into<String>) {
        self.status.lock().state = WorkerState::Failed;
        obs.events()
            .publish(event(EventKind::WorkerFailed).shard(shard).detail(why));
    }
}

/// A point-in-time view of one tenant's counters and snapshot state.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantStats {
    /// The tenant id.
    pub tenant: String,
    /// The retrain-worker shard this tenant's reports route to.
    pub worker_shard: usize,
    /// Predictions served from snapshots.
    pub predictions: u64,
    /// Run reports accepted into the update queue.
    pub reports_enqueued: u64,
    /// Run reports the worker has applied to the driver.
    pub reports_applied: u64,
    /// Retraining tasks the worker's applies fired.
    pub retrains: u64,
    /// Admission-control rejections (quota or queue-full).
    pub rejections: u64,
    /// Reports whose apply failed in the worker.
    pub apply_failures: u64,
    /// Predictions served from a snapshot older than the configured
    /// `max_snapshot_age` (never shed, only counted).
    pub stale_predictions: u64,
    /// Reports accepted but not yet applied.
    pub pending_reports: usize,
    /// How many snapshots have been published (0 = still the registration
    /// snapshot).
    pub snapshot_generation: u64,
    /// Time since the tenant's snapshot was last (re)published.
    pub snapshot_age: Duration,
    /// Whether `snapshot_age` currently exceeds the configured
    /// `max_snapshot_age` bound (always `false` when the bound is unset).
    pub snapshot_stale: bool,
}

impl TenantStats {
    /// Rows one resident tenant adds to a scrape: the seven counters
    /// plus three gauges.
    pub const SCRAPE_ROWS: usize = 10;

    /// Appends this view as `tenant.<id>.<field>` scrape rows, so the
    /// scrape and `tenant_stats` are one reading of the same fields. In
    /// name order: the scrape's final sort then finds tenants it took in
    /// id order already sorted.
    pub(crate) fn push_rows(&self, out: &mut Vec<MetricSample>) {
        use MetricValue::{Counter, Gauge};
        let age_us = self.snapshot_age.as_micros() as i64;
        let rows: [_; Self::SCRAPE_ROWS] = [
            ("apply_failures", Counter(self.apply_failures)),
            ("pending_reports", Gauge(self.pending_reports as i64)),
            ("predictions", Counter(self.predictions)),
            ("rejections", Counter(self.rejections)),
            ("reports_applied", Counter(self.reports_applied)),
            ("reports_enqueued", Counter(self.reports_enqueued)),
            ("retrains", Counter(self.retrains)),
            ("snapshot_age_us", Gauge(age_us)),
            (
                "snapshot_generation",
                Gauge(self.snapshot_generation as i64),
            ),
            ("stale_predictions", Counter(self.stale_predictions)),
        ];
        let prefix = format!("tenant.{}.", self.tenant);
        out.extend(
            rows.map(|(field, value)| MetricSample::new([prefix.as_str(), field].concat(), value)),
        );
    }
}
