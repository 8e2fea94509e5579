//! # smartpick-service
//!
//! **smartpickd**: a concurrent, multi-tenant, in-process prediction
//! service over [`smartpick_core`].
//!
//! The paper ships Workload Prediction as a standalone server other
//! serverless data-analytics systems call over RPC (§5), with an
//! independent monitor thread retraining the model in the background
//! (§4.2). `smartpick_core::Smartpick` reproduces the single-tenant
//! logic but its `submit` takes `&mut self` — one caller owns the whole
//! driver. This crate adds the service layer that many threads can
//! hammer concurrently:
//!
//! * [`service`] — the [`SmartpickService`] façade and its
//!   [`ServiceConfig`]; [`CompletedRun`] is the unit of feedback a
//!   caller hands it.
//! * `registry` *(private)* — the sharded tenant registry: N shards of
//!   `parking_lot::RwLock<HashMap<TenantId, slot>>`, hash-routed, so
//!   tenant lookup scales without a global lock.
//! * [`worker`] — the batched update queues and background retrain
//!   workers (the §4.2 monitor thread, made real and sharded by tenant
//!   hash), which carry each run as the `RunSample` admission projected
//!   it onto, and the [`RestartPolicy`] each applies to itself.
//! * `queue` *(private)* — the bounded MPMC [`BoundedQueue`]: one shard
//!   per retrain worker provides service-wide backpressure, and
//!   `smartpick_wire`'s executor pool runs on one too.
//! * `residency` *(private)* — tiered tenant residency: with
//!   [`ServiceConfig::max_resident_tenants`] set, a sweep thread evicts
//!   the least-recently-touched excess to their durable snapshots and the first
//!   subsequent touch rehydrates them transparently (single-flight per
//!   tenant), so total registered tenants can far exceed resident ones.
//! * [`stats`] — who owns each number, and [`TenantStats`]: service
//!   totals live under `service.*` in the shared metrics registry, a
//!   tenant's counters in its registry slot, rendered as `tenant.<id>.*`
//!   scrape rows while the tenant is resident.
//! * [`error`] — typed [`ServiceError`] rejections (admission control
//!   rejections are marked retryable).
//! * [`persist`] — the durability wiring over `smartpick_store`:
//!   [`PersistenceConfig`], per-shard WAL appends on the worker path,
//!   periodic snapshot persistence, and the crash-recovery pass behind
//!   [`SmartpickService::open`]. The read path never touches it.
//!
//! Observability is built in: process-wide counters live in a shared
//! [`smartpick_obs::Observability`] bundle, structured events go to its
//! bounded ring, [`SmartpickService::scrape`] returns the lot (plus the
//! resident tenants' rows) as one versioned envelope, and
//! [`SmartpickService::health`] answers liveness/readiness with each
//! worker shard's state, restarts and last panic. Those two are the only
//! way to read a running service, in process as over the wire. A retrain
//! worker restarts itself under a configurable [`RestartPolicy`] — its
//! in-flight batch is re-queued before the restart, so accepted feedback
//! survives worker crashes.
//!
//! Reads are **snapshot-based**: each tenant publishes an immutable
//! `Arc<WorkloadPredictor>`; `predict`/`determine` clone the `Arc` and
//! run the whole RF+BO search with no lock held, so predictions never
//! block behind a retrain. Writes are **batched and sharded**:
//! completed-run reports flow through bounded tenant-hash-sharded queues
//! to N worker threads that apply them per tenant copy-on-write and
//! republish the snapshot — a tenant's reports stay FIFO on its shard
//! while distinct tenants retrain in parallel.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
// Clippy agrees with smartpick-lint's panic-free-server-paths rule:
// non-test code must not panic; exceptions carry an explicit
// `#[allow]` next to their `lint:allow` so both tools share one list.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod error;
pub mod persist;
mod queue;
mod registry;
mod residency;
pub mod service;
pub mod stats;
pub mod worker;

pub use error::ServiceError;
pub use persist::PersistenceConfig;
pub use queue::{BoundedQueue, PushRejected};
pub use service::{CompletedRun, FlushOutcome, ServiceConfig, SmartpickService};
// The store's fsync knob is part of `PersistenceConfig`'s surface.
pub use smartpick_store::FsyncPolicy;
pub use stats::TenantStats;
#[doc(hidden)]
pub use worker::CrashPoint;
pub use worker::RestartPolicy;
