//! The `SmartpickService` façade: many threads, many tenants, one
//! Smartpick per tenant.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smartpick_core::driver::{QueryOutcome, Smartpick};
use smartpick_core::wp::{ConstraintMode, Determination, PredictionRequest, WorkloadPredictor};
use smartpick_core::RunSample;
use smartpick_engine::{simulate_query, QueryProfile, RunReport};
use smartpick_obs::{
    event, EventKind, Gauge, HealthReport, LatencyHistogram, Observability, ScrapeEnvelope,
    WorkerHealth,
};
use smartpick_store::Store;

use crate::error::ServiceError;
use crate::persist::{self, Cause, Cut, PersistenceConfig, ServicePersist};
use crate::queue::{PushRejected, ShardedQueue};
use crate::registry::{tenant_hash, ColdMeta, ShardedRegistry, TenantState};
use crate::residency::ResidencyCtl;
use crate::stats::{ServiceTotals, ShardCounters, TenantStats};
use crate::worker::{
    CrashPoint, ReportStages, RestartPolicy, Worker, WorkerCtx, WorkerMsg, WorkerState,
};

/// One completed run a client (or the service's own `submit`) feeds back
/// into the training loop.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CompletedRun {
    /// The query that ran.
    pub query: QueryProfile,
    /// The determination it ran under.
    pub determination: Determination,
    /// What actually happened.
    pub report: RunReport,
}

impl CompletedRun {
    /// The run projected onto what the driver will read of it. Admission
    /// does this once; the queue, the log and replay carry the sample,
    /// and the rest of the run — `ET_l`, the itemised bill, the stage
    /// DAG of a known query — stops at the door.
    fn sample(&self) -> Box<RunSample> {
        Box::new(RunSample::project(
            &self.query,
            &self.determination,
            &self.report,
        ))
    }
}

/// Tunables for a [`SmartpickService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Registry shards (tenants are hash-routed across them).
    pub shards: usize,
    /// Total capacity of the update queues (service-wide backpressure),
    /// divided evenly across the worker shards.
    pub queue_capacity: usize,
    /// Max unapplied reports one tenant may have in flight.
    pub tenant_pending_cap: usize,
    /// Max reports a worker applies per batch before republishing
    /// snapshots.
    pub retrain_batch_max: usize,
    /// Background retrain workers. Each owns one tenant-hash-sharded
    /// slice of the update queue, so retrains for distinct tenants
    /// proceed in parallel while each tenant's reports stay ordered.
    pub retrain_workers: usize,
    /// Snapshot-staleness SLO: a prediction served from a snapshot older
    /// than this is *flagged* (never shed) — it counts into
    /// [`TenantStats::stale_predictions`] and trips
    /// [`TenantStats::snapshot_stale`]. `None` disables the check.
    pub max_snapshot_age: Option<Duration>,
    /// What a retrain worker does when it panics.
    pub restart_policy: RestartPolicy,
    /// The residency sweep's tick: with
    /// [`ServiceConfig::max_resident_tenants`] set, a sweep thread evicts
    /// the excess once per `supervisor_poll`, and never more often than
    /// every 100 ms.
    pub supervisor_poll: Duration,
    /// A worker shard with queued reports and no batch completed within
    /// this deadline is reported *stalled* by
    /// [`SmartpickService::health`] (and makes the service unready).
    pub stall_deadline: Duration,
    /// How many events the in-memory event ring retains.
    pub event_capacity: usize,
    /// Durable tenant state, when set: snapshots + per-shard WALs under
    /// the configured directory, with crash recovery at startup. `None`
    /// (the default) runs fully in-memory. Usually set through
    /// [`SmartpickService::open`].
    pub persistence: Option<PersistenceConfig>,
    /// Cap on tenants kept *resident* (hot) at once. When registered
    /// tenants exceed it, a background sweep evicts the least-recently
    /// touched excess: each evicted tenant's state is persisted as a
    /// final snapshot, its forest + driver are dropped, and the first
    /// subsequent touch rehydrates it transparently from the store
    /// (single-flight per tenant). Requires [`ServiceConfig::persistence`].
    /// `None` (the default) keeps every tenant hot.
    pub max_resident_tenants: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 16,
            queue_capacity: 1024,
            tenant_pending_cap: 64,
            retrain_batch_max: 32,
            retrain_workers: 2,
            max_snapshot_age: None,
            restart_policy: RestartPolicy::Restart {
                max_retries: 3,
                backoff: Duration::from_millis(50),
            },
            supervisor_poll: Duration::from_millis(20),
            stall_deadline: Duration::from_secs(5),
            event_capacity: 256,
            persistence: None,
            max_resident_tenants: None,
        }
    }
}

/// What [`SmartpickService::try_flush`] observed — the typed answer to
/// "did my reports land, and if not, why not".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushOutcome {
    /// Every report enqueued before the call was applied and its
    /// tenant's snapshot republished, on every shard.
    Flushed,
    /// A worker shard failed permanently (restart policy exhausted); its
    /// queue will never drain. Retrying cannot help.
    ShardFailed {
        /// The failed shard.
        shard: usize,
    },
    /// The timeout elapsed while a live shard was still draining.
    /// Retrying with a longer timeout may succeed.
    TimedOut {
        /// The shard still draining when time ran out.
        shard: usize,
    },
    /// The service was shut down before the flush could be enqueued.
    Stopped,
}

impl FlushOutcome {
    /// `true` only for [`FlushOutcome::Flushed`].
    pub fn is_flushed(self) -> bool {
        matches!(self, FlushOutcome::Flushed)
    }
}

/// A thread-safe, multi-tenant prediction service over
/// [`smartpick_core::Smartpick`] — "smartpickd".
///
/// Concurrency model, in one paragraph: tenants live in a **sharded
/// registry** (hash-routed `RwLock<HashMap>` shards, held only for an
/// `Arc` clone); `predict`/`determine` run against each tenant's
/// **immutable model snapshot** (`Arc<WorkloadPredictor>`), so reads
/// never block behind a writer; completed runs are fed through **bounded,
/// tenant-hash-sharded update queues** to N background **retrain
/// workers** (one per shard) that batch them per tenant, apply them to
/// the owning driver under its per-tenant mutex, and republish the
/// snapshot — the paper's §4.2 monitor thread, sharded the same way as
/// the registry so distinct tenants retrain in parallel while each
/// tenant's reports stay FIFO. **Admission control** (queue capacity +
/// per-tenant pending quotas) sheds training feedback under overload
/// instead of ever failing or delaying the read path.
///
/// Observability: process-wide counters live in a shared
/// [`Observability`] bundle (metrics registry + event log) under
/// `service.*` names, each tenant's counters in its registry slot;
/// [`SmartpickService::scrape`] returns the registry plus
/// `tenant.<id>.*` rows for the resident tenants as one envelope and
/// [`SmartpickService::health`] answers liveness/readiness. A retrain
/// worker that panics applies the configured [`RestartPolicy`] to itself
/// — with its unapplied batch re-queued first, so no accepted report is
/// lost.
///
/// # Example
///
/// ```no_run
/// use smartpick_cloudsim::{CloudEnv, Provider};
/// use smartpick_core::driver::Smartpick;
/// use smartpick_core::properties::SmartpickProperties;
/// use smartpick_service::SmartpickService;
/// use smartpick_workloads::tpcds;
///
/// let training: Vec<_> = tpcds::TRAINING_QUERIES
///     .iter()
///     .map(|&q| tpcds::query(q, 100.0).expect("catalog query"))
///     .collect();
/// let driver = Smartpick::train(
///     CloudEnv::new(Provider::Aws),
///     SmartpickProperties::default(),
///     &training,
///     42,
/// )?;
/// let service = SmartpickService::with_defaults();
/// service.register_tenant("acme", driver)?;
/// let outcome = service.submit("acme", &tpcds::query(11, 100.0).expect("q"), 7)?;
/// println!("{} in {:.1}s", outcome.determination.allocation, outcome.report.seconds());
/// # Ok::<(), smartpick_service::ServiceError>(())
/// ```
#[derive(Debug)]
pub struct SmartpickService {
    registry: Arc<ShardedRegistry>,
    /// Residency policy + rehydration path; shared with the sweep thread.
    residency: Arc<ResidencyCtl>,
    queues: ShardedQueue<WorkerMsg>,
    /// One retrain worker thread per queue shard, joined at shutdown.
    workers: Vec<JoinHandle<()>>,
    /// The residency sweep thread (only with a residency cap) and the
    /// sender whose drop stops it.
    sweeper: Option<(SyncSender<()>, JoinHandle<()>)>,
    shard_counters: Box<[Arc<ShardCounters>]>,
    config: ServiceConfig,
    epoch: Instant,
    obs: Arc<Observability>,
    /// Service-wide totals, incremented on the hot path alongside the
    /// per-tenant counters so the scrape never walks the registry for
    /// them.
    totals: Arc<ServiceTotals>,
    predict_latency: Arc<LatencyHistogram>,
    tenants_gauge: Arc<Gauge>,
    queue_depth_gauge: Arc<Gauge>,
    resident_gauge: Arc<Gauge>,
    shard_depth_gauges: Box<[Arc<Gauge>]>,
    /// The durable store, when configured: registration/deregistration
    /// snapshots and the `persist_*` admin API. The worker-side WAL
    /// handles live in each worker's context, not here.
    persist: Option<Arc<ServicePersist>>,
}

impl SmartpickService {
    /// Starts a service (and its retrain worker threads) with `config`.
    ///
    /// # Panics
    ///
    /// Panics if any `config` count/capacity field is zero.
    pub fn new(config: ServiceConfig) -> Self {
        assert!(config.shards > 0, "shards must be positive");
        assert!(config.queue_capacity > 0, "queue_capacity must be positive");
        assert!(
            config.tenant_pending_cap > 0,
            "tenant_pending_cap must be positive"
        );
        assert!(
            config.retrain_batch_max > 0,
            "retrain_batch_max must be positive"
        );
        assert!(
            config.retrain_workers > 0,
            "retrain_workers must be positive"
        );
        assert!(
            config.max_resident_tenants != Some(0),
            "max_resident_tenants must be positive when set"
        );
        assert!(
            config.max_resident_tenants.is_none() || config.persistence.is_some(),
            "residency limits require persistence (evicted tenants rehydrate from the store)"
        );
        let obs = Arc::new(Observability::new(config.event_capacity));
        let queues = ShardedQueue::new(config.retrain_workers, config.queue_capacity);
        let metrics = obs.metrics();
        let shard_counters: Box<[Arc<ShardCounters>]> = (0..config.retrain_workers)
            .map(|i| Arc::new(ShardCounters::register(metrics, i)))
            .collect();
        let shard_depth_gauges: Box<[Arc<Gauge>]> = (0..config.retrain_workers)
            .map(|i| metrics.gauge(&format!("service.worker.{i}.queue_depth")))
            .collect();
        let totals = Arc::new(ServiceTotals::register(metrics));
        let predict_latency = metrics.histogram("service.predict_latency");
        let tenants_gauge = metrics.gauge("service.tenants");
        let queue_depth_gauge = metrics.gauge("service.queue_depth");
        let resident_gauge = metrics.gauge("service.residency.resident_tenants");
        let epoch = Instant::now();
        let registry = Arc::new(ShardedRegistry::new(config.shards));

        // Durable store + crash recovery, strictly before any worker
        // spawns: recovery scans the WAL files the workers are about to
        // hold append handles on, and says where each one's valid prefix
        // ends. A store that cannot open degrades (event + in-memory
        // operation) — startup never fails for the disk.
        let mut recovered = persist::RecoveryOutcome::default();
        let persist: Option<Arc<ServicePersist>> =
            config
                .persistence
                .as_ref()
                .and_then(|cfg| match Store::open(&cfg.dir) {
                    Ok(store) => {
                        let sp = ServicePersist::new(store, cfg.clone(), Arc::clone(&obs));
                        recovered = persist::recover(
                            &sp,
                            &registry,
                            epoch.elapsed().as_micros() as u64,
                            config.retrain_workers,
                        );
                        tenants_gauge.add(recovered.tenants as i64);
                        Some(Arc::new(sp))
                    }
                    Err(e) => {
                        obs.events().publish(
                            event(EventKind::StoreDegraded)
                                .detail(format!("store open failed, running in-memory only: {e}")),
                        );
                        None
                    }
                });

        let residency = Arc::new(ResidencyCtl::new(
            Arc::clone(&registry),
            persist.clone(),
            Arc::clone(&obs),
            config.max_resident_tenants,
            epoch,
        ));
        // The sweep ticks on its own thread; dropping the sender ends it.
        let sweeper = residency
            .sweeps_enabled()
            .then(|| {
                let (stop, stopped) = sync_channel::<()>(0);
                let ctl = Arc::clone(&residency);
                let tick = config.supervisor_poll.max(MIN_SWEEP_TICK);
                std::thread::Builder::new()
                    .name("smartpickd-residency".to_owned())
                    .spawn(move || {
                        while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(tick) {
                            ctl.sweep();
                        }
                    })
                    .ok()
                    .map(|handle| (stop, handle))
            })
            .flatten();

        // One thread per shard, each its own restarter; a spawn failure
        // marks its shard failed — visible in health() — instead of
        // panicking the caller.
        let stages = Arc::new(ReportStages::register(metrics));
        let restarts = metrics.counter("service.worker.restarts");
        let panics = metrics.counter("service.worker.panics");
        let mut workers = Vec::with_capacity(config.retrain_workers);
        for (shard, (queue, counters)) in queues
            .shards()
            .iter()
            .zip(shard_counters.iter())
            .enumerate()
        {
            let worker = Worker {
                queue: Arc::clone(queue),
                batch_max: config.retrain_batch_max,
                ctx: WorkerCtx {
                    shard,
                    counters: Arc::clone(counters),
                    totals: Arc::clone(&totals),
                    obs: Arc::clone(&obs),
                    epoch,
                    stages: Arc::clone(&stages),
                },
                persist: persist.clone(),
                wal_valid_len: recovered.wal_valid_len.get(&shard).copied(),
                policy: config.restart_policy,
                restarts: Arc::clone(&restarts),
                panics: Arc::clone(&panics),
            };
            match std::thread::Builder::new()
                .name(format!("smartpickd-retrain-{shard}"))
                .spawn(move || worker.run())
            {
                Ok(handle) => workers.push(handle),
                Err(_) => counters.mark_failed(
                    shard,
                    &obs,
                    "initial spawn failed; shard has no worker and the service is unready",
                ),
            }
        }

        SmartpickService {
            registry,
            residency,
            queues,
            workers,
            sweeper,
            shard_counters,
            config,
            epoch,
            obs,
            totals,
            predict_latency,
            tenants_gauge,
            queue_depth_gauge,
            resident_gauge,
            shard_depth_gauges,
            persist,
        }
    }

    /// Starts a service with [`ServiceConfig::default`].
    pub fn with_defaults() -> Self {
        SmartpickService::new(ServiceConfig::default())
    }

    /// Opens a **durable** service rooted at `dir`: recovers every tenant
    /// persisted there — newest valid snapshot + WAL replay (tolerating
    /// torn tails and quarantining corrupt files) for a tenant the log
    /// holds something for, a cold slot for every other, loaded at its
    /// first touch — then starts the workers with per-shard WALs and
    /// periodic snapshot persistence. Recovery reads; it leaves the log
    /// and the snapshots as it found them.
    ///
    /// `config.persistence` supplies the durability knobs if set (its
    /// `dir` is overridden by `dir`); otherwise the defaults of
    /// [`PersistenceConfig::at`] apply.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Store`] if the store directory cannot be created
    /// or opened. Per-tenant recovery problems never fail startup; they
    /// surface as `snapshot_quarantined` / `tenant_unrecoverable` /
    /// `store_degraded` events and `store.*` metrics.
    ///
    /// # Panics
    ///
    /// Panics if any `config` count/capacity field is zero (as
    /// [`SmartpickService::new`]).
    pub fn open(
        dir: impl Into<PathBuf>,
        mut config: ServiceConfig,
    ) -> Result<SmartpickService, ServiceError> {
        let dir = dir.into();
        // Validate the root up front so a bad path is a hard error here,
        // not a degraded-mode surprise later.
        Store::open(&dir).map_err(|e| ServiceError::Store(e.to_string()))?;
        match &mut config.persistence {
            Some(cfg) => cfg.dir = dir,
            None => config.persistence = Some(PersistenceConfig::at(dir)),
        }
        Ok(SmartpickService::new(config))
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The shared observability bundle (metrics registry + event log)
    /// this service reports into.
    pub fn observability(&self) -> &Arc<Observability> {
        &self.obs
    }

    // ---------------------------------------------------------------
    // Tenant management
    // ---------------------------------------------------------------

    /// Registers a tenant owning a trained `driver`. Its first snapshot
    /// is published immediately.
    ///
    /// # Errors
    ///
    /// [`ServiceError::TenantExists`] on a duplicate id,
    /// [`ServiceError::Stopped`] after shutdown.
    pub fn register_tenant(
        &self,
        id: impl Into<String>,
        driver: Smartpick,
    ) -> Result<(), ServiceError> {
        if self.queues.is_closed() {
            return Err(ServiceError::Stopped);
        }
        let id = id.into();
        let epoch = persist::tenant_epoch();
        // The cut is taken before the driver moves into the registry and
        // written only after the insert succeeds, so a duplicate-id
        // rejection cannot touch the existing tenant's files.
        let cut = self.persist.as_ref().map(|_| Cut {
            state: driver.export_state(),
            generation: 0,
            watermark: 0,
            covered: 1,
        });
        let fresh = TenantState::new(
            id.clone(),
            driver,
            self.now_us(),
            Arc::default(),
            ColdMeta::fresh(epoch),
        );
        // The insert below makes the tenant evictable before its
        // generation-0 snapshot is written: start it marked ahead of the
        // disk by the one mark the cut covers, so an eviction deciding in
        // between persists the state (its write waits for the file lock
        // held here) instead of going cold over files that do not exist
        // yet — and a write that fails leaves it marked.
        fresh
            .applied_since_persist
            .store(u64::from(cut.is_some()), Ordering::Relaxed);
        let register = || -> Result<(), ServiceError> {
            let state = self.registry.insert(fresh)?;
            self.tenants_gauge.inc();
            self.obs
                .events()
                .publish(event(EventKind::TenantRegistered).tenant(&id));
            if let (Some(sp), Some(cut)) = (&self.persist, cut) {
                // Clears whatever files an earlier registration of this
                // id left (they must never shadow the new epoch); a
                // deregistration that got in first owns the files.
                let _ = sp.checkpoint(&state, cut, Cause::Registration);
            }
            Ok(())
        };
        // The file lock is held from before the insert through the clear
        // and the write, so no eviction or admin checkpoint lands in
        // between to be wiped. Lock order: file lock, then registry shard
        // (docs/ARCHITECTURE.md's lock table).
        match &self.persist {
            Some(sp) => sp.files.locked(&id, register),
            None => register(),
        }
    }

    /// Registers a tenant forked from `template` (shares the trained
    /// model copy-on-write; owns fresh history/billing/monitor state).
    /// The cheap way to stamp out many tenants from one kick-start
    /// training run.
    ///
    /// # Errors
    ///
    /// See [`SmartpickService::register_tenant`].
    pub fn register_fork(
        &self,
        id: impl Into<String>,
        template: &Smartpick,
        seed: u64,
    ) -> Result<(), ServiceError> {
        self.register_tenant(id, template.fork(seed))
    }

    /// Removes a tenant. In-flight reports already accepted for it are
    /// still applied (the worker holds its own handle) and still count
    /// into the service-wide totals — those are incremented live on the
    /// hot path, so aggregates never run backwards across tenant churn.
    /// The tenant's `tenant.<id>.*` rows leave the scrape with its
    /// registry entry.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTenant`] if not registered.
    pub fn deregister_tenant(&self, id: &str) -> Result<(), ServiceError> {
        let slot = self.registry.slot(id)?;
        // Claim the teardown: exactly one deregistration wins; a
        // concurrent second call reads the id as already unknown. The
        // claim stamps the tenant defunct *before* the store directory
        // goes — a retrain worker still holding this state mid-batch (or
        // an evict-time persist) checks the stamp inside the tenant's
        // file lock, so nothing can recreate `tenants/<id>/` after the
        // removal below. That is the ghost-tenant resurrection race this
        // ordering exists to close.
        if !slot.claim_defunct() {
            return Err(ServiceError::UnknownTenant(id.to_owned()));
        }
        self.tenants_gauge.dec();
        if let Some(sp) = &self.persist {
            // Best-effort: leftover WAL records for the removed tenant
            // are dropped at the next compaction/recovery (no tenant
            // directory to replay into).
            if let Err(e) = sp.files.remove(&sp.store, id) {
                self.obs.events().publish(
                    event(EventKind::StoreDegraded)
                        .tenant(id)
                        .detail(format!("tenant removal from store failed: {e}")),
                );
            }
        }
        // The registry entry goes last: the id only becomes
        // re-registrable once its files are gone, so a racing
        // re-registration's fresh snapshot can never be deleted by this
        // teardown — it sees `TenantExists` until the teardown is done.
        let _ = self.registry.remove(id);
        self.obs
            .events()
            .publish(event(EventKind::TenantDeregistered).tenant(id));
        Ok(())
    }

    /// Registered tenant ids, sorted.
    pub fn tenants(&self) -> Vec<String> {
        self.registry.ids()
    }

    // ---------------------------------------------------------------
    // Read path (snapshot predictions)
    // ---------------------------------------------------------------

    /// Resolves a tenant to a servable state, transparently rehydrating
    /// it from its newest snapshot if it was evicted (single-flight;
    /// concurrent callers block on the one in-flight load). This is the
    /// only residency cost the read path ever pays — a hot tenant
    /// resolves exactly as the registry lookup always did.
    fn resolve(&self, tenant: &str) -> Result<Arc<TenantState>, ServiceError> {
        self.residency.resolve(tenant)
    }

    /// Runs a full resource determination for `tenant` against its
    /// current model snapshot. Never blocks behind retraining: the
    /// snapshot is an immutable `Arc`d model, and the only locks touched
    /// (shard + snapshot cell) are held for the duration of an `Arc`
    /// clone.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTenant`], or a core prediction failure.
    pub fn predict(
        &self,
        tenant: &str,
        request: &PredictionRequest,
    ) -> Result<Determination, ServiceError> {
        let state = self.resolve(tenant)?;
        self.predict_on(
            &state,
            &state.read_snapshot(),
            &request.query,
            request.knob,
            request.constraint,
            request.seed,
        )
    }

    /// The snapshot read against an already-resolved tenant: the one
    /// body behind `predict`, `determine`, `submit` and their hot-only
    /// twins, so counters, the staleness flag and the latency record
    /// cannot differ by entry point.
    fn predict_on(
        &self,
        state: &TenantState,
        snapshot: &WorkloadPredictor,
        query: &QueryProfile,
        knob: f64,
        constraint: ConstraintMode,
        seed: u64,
    ) -> Result<Determination, ServiceError> {
        let start = Instant::now();
        let stale = self.snapshot_is_stale(state);
        let determination = snapshot.determine_query(query, knob, constraint, seed)?;
        // Staleness SLO: flag (never delay or shed) predictions served
        // from a snapshot past the configured age bound. Counted only
        // for predictions actually served, so the counter can never
        // exceed `predictions`.
        if stale {
            self.note_stale_serve(state);
        }
        state.counters.predictions.inc();
        self.totals.predictions.inc();
        self.predict_latency.record(start.elapsed());
        Ok(determination)
    }

    /// [`SmartpickService::predict_on`] for the convenience determine:
    /// hybrid search with the tenant's configured knob.
    fn determine_on(
        &self,
        state: &TenantState,
        snapshot: &WorkloadPredictor,
        query: &QueryProfile,
        seed: u64,
    ) -> Result<Determination, ServiceError> {
        self.predict_on(
            state,
            snapshot,
            query,
            state.knob,
            ConstraintMode::Hybrid,
            seed,
        )
    }

    /// The non-blocking resolve behind the `*_if_hot` read entry points:
    /// `tenant`'s state and current snapshot if it is hot right now and
    /// one determine on that snapshot sweeps at most `max_sweep_cost`
    /// ([`WorkloadPredictor::sweep_cost`]); `None` otherwise — nothing is
    /// claimed, waited for or loaded.
    fn resolve_hot_under(
        &self,
        tenant: &str,
        max_sweep_cost: usize,
    ) -> Option<(Arc<TenantState>, Arc<WorkloadPredictor>)> {
        let state = self.residency.resolve_hot(tenant)?;
        let snapshot = state.read_snapshot();
        (snapshot.sweep_cost() <= max_sweep_cost).then_some((state, snapshot))
    }

    /// [`SmartpickService::predict`] for a caller that must not block and
    /// has somewhere cheaper to send expensive work (the wire layer's
    /// event loop): answers only if `tenant` is hot right now and the
    /// sweep costs at most `max_sweep_cost`. `None` means "not from here"
    /// — cold, rehydrating or unknown tenant, or over the cost bound —
    /// and the caller falls back to [`SmartpickService::predict`]. An
    /// answer is the one `predict` would have given, counted the same.
    pub fn predict_if_hot(
        &self,
        tenant: &str,
        request: &PredictionRequest,
        max_sweep_cost: usize,
    ) -> Option<Result<Determination, ServiceError>> {
        let (state, snapshot) = self.resolve_hot_under(tenant, max_sweep_cost)?;
        Some(self.predict_on(
            &state,
            &snapshot,
            &request.query,
            request.knob,
            request.constraint,
            request.seed,
        ))
    }

    /// [`SmartpickService::determine`] on the terms of
    /// [`SmartpickService::predict_if_hot`].
    pub fn determine_if_hot(
        &self,
        tenant: &str,
        query: &QueryProfile,
        seed: u64,
        max_sweep_cost: usize,
    ) -> Option<Result<Determination, ServiceError>> {
        let (state, snapshot) = self.resolve_hot_under(tenant, max_sweep_cost)?;
        Some(self.determine_on(&state, &snapshot, query, seed))
    }

    /// Counts one stale serve and emits one `StalenessFlagged` event per
    /// stale episode (not per prediction — the ring is for incidents, not
    /// samples).
    fn note_stale_serve(&self, state: &TenantState) {
        state.counters.stale_predictions.inc();
        self.totals.stale_predictions.inc();
        if !state.stale_flagged.swap(true, Ordering::Relaxed) {
            self.obs.events().publish(
                event(EventKind::StalenessFlagged)
                    .tenant(&state.id)
                    .detail("snapshot older than max_snapshot_age; serving continues"),
            );
        }
    }

    /// Whether `state`'s current snapshot is older than the configured
    /// [`ServiceConfig::max_snapshot_age`] (always `false` when unset).
    fn snapshot_is_stale(&self, state: &TenantState) -> bool {
        let Some(max_age) = self.config.max_snapshot_age else {
            return false;
        };
        let published = state.published_at_us.load(Ordering::Relaxed);
        let age_us = self.now_us().saturating_sub(published);
        age_us > max_age.as_micros() as u64
    }

    /// Convenience [`SmartpickService::predict`]: hybrid search with the
    /// tenant's configured knob.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use std::sync::Arc;
    /// use smartpick_cloudsim::{CloudEnv, Provider};
    /// use smartpick_core::driver::Smartpick;
    /// use smartpick_core::properties::SmartpickProperties;
    /// use smartpick_service::SmartpickService;
    /// use smartpick_workloads::tpcds;
    ///
    /// let training: Vec<_> = tpcds::TRAINING_QUERIES
    ///     .iter()
    ///     .map(|&q| tpcds::query(q, 100.0).expect("catalog query"))
    ///     .collect();
    /// let template = Smartpick::train(
    ///     CloudEnv::new(Provider::Aws),
    ///     SmartpickProperties::default(),
    ///     &training,
    ///     42,
    /// )?;
    /// let service = Arc::new(SmartpickService::with_defaults());
    /// service.register_fork("acme", &template, 7)?;
    /// let det = service.determine("acme", &training[0], 99)?;
    /// println!("{} in {:.1}s", det.allocation, det.predicted_seconds);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// See [`SmartpickService::predict`].
    pub fn determine(
        &self,
        tenant: &str,
        query: &QueryProfile,
        seed: u64,
    ) -> Result<Determination, ServiceError> {
        let state = self.resolve(tenant)?;
        self.determine_on(&state, &state.read_snapshot(), query, seed)
    }

    /// The full online path: determine against the tenant's snapshot,
    /// run the query on the simulator in that snapshot's environment, and
    /// feed the completed run back through the update queue.
    ///
    /// Retraining is asynchronous here, so the returned outcome always
    /// has `retrain: None`; retrains show up in
    /// [`SmartpickService::tenant_stats`] once the worker applies the
    /// report. Under backpressure the *feedback* is shed (visible as a
    /// rejection in the stats) — the query result itself is never
    /// delayed or dropped.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTenant`], or a core prediction/execution
    /// failure.
    pub fn submit(
        &self,
        tenant: &str,
        query: &QueryProfile,
        seed: u64,
    ) -> Result<QueryOutcome, ServiceError> {
        // Resolve once and thread the state through: re-resolving per step
        // would let a concurrent deregister/re-register swap the tenant
        // out from under us mid-submission (feedback applied to the wrong
        // tenant instance) and would cost extra shard hops on the hot
        // path.
        let state = self.resolve(tenant)?;
        let snapshot = state.read_snapshot();
        let determination = self.determine_on(&state, &snapshot, query, seed)?;
        let report = simulate_query(
            query,
            &determination.allocation,
            snapshot.env(),
            seed ^ EXEC_SEED_MIX,
        )
        .map_err(smartpick_core::SmartpickError::from)?;
        // Feedback is best-effort under load: a shed report costs model
        // freshness, not correctness. (The retry only covers the
        // eviction race; admission-control rejections still shed.)
        let _ = self.enqueue_with_retry(
            Arc::clone(&state),
            Box::new(RunSample::project(query, &determination, &report)),
        );
        Ok(QueryOutcome {
            determination,
            report,
            retrain: None,
        })
    }

    // ---------------------------------------------------------------
    // Write path (update queue → retrain worker)
    // ---------------------------------------------------------------

    /// Feeds one completed run into the batched update queue for the
    /// retrain worker to apply.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTenant`]; [`ServiceError::QuotaExceeded`]
    /// when the tenant is over its pending cap;
    /// [`ServiceError::QueueFull`] under service-wide backpressure;
    /// [`ServiceError::Stopped`] after shutdown.
    pub fn report_run(&self, tenant: &str, run: CompletedRun) -> Result<(), ServiceError> {
        let state = self.resolve(tenant)?;
        self.enqueue_with_retry(state, run.sample())
    }

    /// [`SmartpickService::report_run`] for a caller that must not block
    /// (the wire layer's event loop): admits the report only if `tenant`
    /// is hot right now — the quota check and a `try_push`, no I/O. The
    /// run comes back as `Err` when it was not admitted *and not
    /// refused*: the tenant is cold, rehydrating or unknown, or the
    /// report lost the race against its eviction; the caller hands it to
    /// [`SmartpickService::report_run`], which rehydrates. `Ok` carries
    /// the answer `report_run` would have given, counted the same.
    ///
    /// # Errors
    ///
    /// The inner result's are [`SmartpickService::report_run`]'s.
    pub fn report_run_if_hot(
        &self,
        tenant: &str,
        run: Box<CompletedRun>,
    ) -> Result<Result<(), ServiceError>, Box<CompletedRun>> {
        let Some(state) = self.residency.resolve_hot(tenant) else {
            return Err(run);
        };
        match self.enqueue_report(&state, run.sample()) {
            Enqueue::Done(result) => Ok(result),
            Enqueue::Retired(_) => Err(run),
        }
    }

    /// [`SmartpickService::enqueue_report`] with the residency retry: a
    /// report that lost the race against the eviction sweep backs out
    /// and re-resolves (rehydrating the tenant), so accepted feedback is
    /// never dropped on the floor by capacity management. The loop is
    /// bounded in practice — a fresh resolve stamps the touch clock, so
    /// the sweep will not immediately re-evict the tenant it just lost
    /// a report race on.
    fn enqueue_with_retry(
        &self,
        mut state: Arc<TenantState>,
        mut sample: Box<RunSample>,
    ) -> Result<(), ServiceError> {
        loop {
            match self.enqueue_report(&state, sample) {
                Enqueue::Done(result) => return result,
                Enqueue::Retired(returned) => {
                    sample = returned;
                    std::thread::yield_now();
                    let id = state.id.clone();
                    state = self.resolve(&id)?;
                }
            }
        }
    }

    /// Quota check + enqueue against an already-resolved tenant.
    fn enqueue_report(&self, state: &Arc<TenantState>, sample: Box<RunSample>) -> Enqueue {
        // Reserve quota (compensating add so concurrent reservations
        // cannot sneak past the cap). `SeqCst` pairs with the eviction
        // sweep's Dekker handshake: we bump `pending` *then* read
        // `retired`; the evictor stores `retired` *then* reads `pending`
        // — one side always observes the other, so a report can never
        // land on a state that silently went cold.
        let cap = self.config.tenant_pending_cap;
        let prior = state.pending.fetch_add(1, Ordering::SeqCst);
        if state.retired.load(Ordering::SeqCst) {
            state.pending.fetch_sub(1, Ordering::SeqCst);
            return Enqueue::Retired(sample);
        }
        if prior >= cap {
            state.pending.fetch_sub(1, Ordering::Relaxed);
            self.note_shed(state, "tenant pending quota exceeded");
            return Enqueue::Done(Err(ServiceError::QuotaExceeded {
                tenant: state.id.clone(),
                pending: prior,
                cap,
            }));
        }

        // Run ids are assigned at admission (ids start at 1), so a report
        // keeps its id across a worker-panic re-queue and its WAL records
        // deduplicate at replay.
        let run_id = state.next_run_id.fetch_add(1, Ordering::Relaxed) + 1;
        let msg = WorkerMsg::Job {
            tenant: Arc::clone(state),
            run_id,
            sample,
        };
        let shard = self.worker_shard_of(&state.id);
        match self.queues.try_push(shard, msg) {
            Ok(()) => {
                state.counters.reports_enqueued.inc();
                self.totals.reports_enqueued.inc();
                Enqueue::Done(Ok(()))
            }
            Err(rejected) => {
                state.pending.fetch_sub(1, Ordering::Relaxed);
                Enqueue::Done(Err(match rejected {
                    PushRejected::Full => {
                        self.note_shed(state, "update queue full");
                        ServiceError::QueueFull {
                            capacity: self.queues.shard_capacity(),
                        }
                    }
                    PushRejected::Closed => {
                        self.note_shed(state, "service stopped");
                        ServiceError::Stopped
                    }
                }))
            }
        }
    }

    /// Counts one shed report and puts it on the event record.
    fn note_shed(&self, state: &TenantState, why: &str) {
        state.counters.rejections.inc();
        self.totals.rejections.inc();
        self.obs
            .events()
            .publish(event(EventKind::FeedbackShed).tenant(&state.id).detail(why));
    }

    /// The retrain-worker shard `tenant` routes to (same hash as the
    /// registry's shard routing).
    fn worker_shard_of(&self, tenant: &str) -> usize {
        self.queues.shard_of(tenant_hash(tenant))
    }

    /// Blocks until every report enqueued before this call has been
    /// applied and its tenant's snapshot republished — on every worker
    /// shard. Returns `false` if the service is already shut down or a
    /// worker shard has failed permanently (its queue would never drain).
    /// [`SmartpickService::try_flush`] reports *which* of those happened.
    pub fn flush(&self) -> bool {
        self.flush_inner(None).is_flushed()
    }

    /// [`SmartpickService::flush`] with a deadline and a typed outcome:
    /// callers can tell a shard that failed permanently (retrying is
    /// pointless) from one that was merely still draining when `timeout`
    /// ran out (retrying with a longer timeout may succeed).
    pub fn try_flush(&self, timeout: Duration) -> FlushOutcome {
        self.flush_inner(Some(Instant::now() + timeout))
    }

    fn flush_inner(&self, deadline: Option<Instant>) -> FlushOutcome {
        let shards = self.queues.shard_count();
        if let Some(shard) = (0..shards).find(|&shard| self.shard_has_failed(shard)) {
            return FlushOutcome::ShardFailed { shard };
        }
        // One flush token per shard; the blocking pushes park on each
        // queue's not-full condvar, so a flush against a saturated queue
        // sleeps instead of spinning against the very workers it is
        // waiting on.
        let mut pending = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (ack, done) = sync_channel(1);
            if self
                .queues
                .push_blocking(shard, WorkerMsg::Flush(ack))
                .is_err()
            {
                return FlushOutcome::Stopped;
            }
            pending.push(done);
        }
        // A worker can die *while* we wait (its restart re-queues and
        // eventually acks our token), or die for good (policy gives up) —
        // poll with a timeout so a permanently failed shard turns into a
        // typed outcome instead of a hang.
        for (shard, done) in pending.into_iter().enumerate() {
            loop {
                match done.recv_timeout(Duration::from_millis(50)) {
                    Ok(()) => break,
                    Err(RecvTimeoutError::Timeout) => {
                        if self.shard_has_failed(shard) {
                            return FlushOutcome::ShardFailed { shard };
                        }
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            return FlushOutcome::TimedOut { shard };
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        // The ack sender died without sending; the rescue
                        // guard re-queues flush tokens on panic, so this
                        // means the shard is gone for good.
                        return FlushOutcome::ShardFailed { shard };
                    }
                }
            }
        }
        FlushOutcome::Flushed
    }

    // ---------------------------------------------------------------
    // Durability (admin API)
    // ---------------------------------------------------------------

    /// Persists `tenant`'s full driver state to the store right now, off
    /// the worker cadence — the admin "checkpoint this tenant" hook.
    /// Returns the snapshot's encoded size in bytes. An **evicted** (or
    /// currently rehydrating) tenant returns `Ok(0)` without touching
    /// the disk: its newest persisted snapshot *is* its state of record,
    /// so there is nothing in memory to checkpoint — and rehydrating a
    /// cold tenant just to re-persist it would defeat the eviction.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Store`] if persistence is not configured or the
    /// write fails; [`ServiceError::UnknownTenant`] if not registered.
    pub fn persist_tenant(&self, tenant: &str) -> Result<u64, ServiceError> {
        let Some(sp) = &self.persist else {
            return Err(ServiceError::Store("persistence not configured".into()));
        };
        let Some(state) = self.registry.slot(tenant)?.peek_hot() else {
            return Ok(0);
        };
        // The cut is one consistent state under the driver lock; the
        // lock is released before the write, so applies that land
        // meanwhile stay counted as ahead of the disk.
        let cut = Cut::locked(&state, &state.driver.lock());
        // A deregistration landing after the lookup above wins: nothing
        // is written and the tenant reads as unknown.
        match sp.checkpoint(&state, cut, Cause::Admin) {
            Ok(Some(bytes)) => Ok(bytes),
            Ok(None) => Err(ServiceError::UnknownTenant(tenant.to_owned())),
            Err(e) => Err(ServiceError::Store(e.to_string())),
        }
    }

    /// [`SmartpickService::persist_tenant`] for every registered tenant.
    /// Returns how many were persisted; the first store failure aborts.
    ///
    /// # Errors
    ///
    /// See [`SmartpickService::persist_tenant`] ([`ServiceError::UnknownTenant`]
    /// from a concurrent deregistration is skipped, not an error).
    pub fn persist_all(&self) -> Result<usize, ServiceError> {
        let mut persisted = 0;
        for id in self.registry.ids() {
            match self.persist_tenant(&id) {
                Ok(_) => persisted += 1,
                Err(ServiceError::UnknownTenant(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(persisted)
    }

    // ---------------------------------------------------------------
    // Residency (admin API)
    // ---------------------------------------------------------------

    /// Evicts one tenant to its durable snapshot right now, regardless
    /// of the configured policy — the operator "take this tenant cold"
    /// hook. `Ok(false)` means the tenant stayed hot: pinned by pending
    /// retrain reports, mid-apply, already cold, or being deregistered.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Store`] if persistence is not configured;
    /// [`ServiceError::UnknownTenant`] if not registered.
    pub fn evict_tenant(&self, tenant: &str) -> Result<bool, ServiceError> {
        self.residency.evict(tenant)
    }

    /// How many tenants are resident (hot) right now. With
    /// [`ServiceConfig::max_resident_tenants`] set this converges to at
    /// most the cap (pinned tenants can exceed it transiently).
    pub fn resident_tenants(&self) -> usize {
        self.registry.resident().len()
    }

    /// Runs one residency sweep on the caller's thread — deterministic
    /// scheduling for tests and benches; production sweeps run on the
    /// sweep thread. Not part of the public API contract.
    #[doc(hidden)]
    pub fn residency_sweep(&self) {
        self.residency.sweep();
    }

    fn shard_has_failed(&self, shard: usize) -> bool {
        self.shard_counters
            .get(shard)
            .is_some_and(|c| c.status.lock().state == WorkerState::Failed)
    }

    // ---------------------------------------------------------------
    // Observability
    // ---------------------------------------------------------------

    /// Runs `f` against a tenant's driver under its per-tenant lock — an
    /// admin/debug window into training-side state (history, billing,
    /// retrain counts) the snapshot read path never exposes. Blocks any
    /// retrain-worker apply for that tenant while `f` runs, so keep `f`
    /// short.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTenant`] if not registered.
    pub fn inspect_tenant<R>(
        &self,
        tenant: &str,
        f: impl FnOnce(&Smartpick) -> R,
    ) -> Result<R, ServiceError> {
        let state = self.resolve(tenant)?;
        let driver = state.driver.lock();
        Ok(f(&driver))
    }

    /// A point-in-time view of one tenant.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTenant`] if not registered.
    pub fn tenant_stats(&self, tenant: &str) -> Result<TenantStats, ServiceError> {
        let state = self.resolve(tenant)?;
        Ok(self.stats_of(&state))
    }

    /// The one reading of a hot tenant: `tenant_stats` returns it and
    /// `scrape` renders its rows from it.
    fn stats_of(&self, state: &TenantState) -> TenantStats {
        let published = state.published_at_us.load(Ordering::Relaxed);
        let snapshot_age = Duration::from_micros(self.now_us().saturating_sub(published));
        TenantStats {
            tenant: state.id.clone(),
            worker_shard: self.worker_shard_of(&state.id),
            // Derived from the same age sample reported below, so the
            // flag and the age can never disagree within one view.
            snapshot_stale: self
                .config
                .max_snapshot_age
                .is_some_and(|max| snapshot_age > max),
            stale_predictions: state.counters.stale_predictions.get(),
            predictions: state.counters.predictions.get(),
            reports_enqueued: state.counters.reports_enqueued.get(),
            reports_applied: state.counters.reports_applied.get(),
            retrains: state.counters.retrains.get(),
            rejections: state.counters.rejections.get(),
            apply_failures: state.counters.apply_failures.get(),
            pending_reports: state.pending.load(Ordering::Relaxed),
            snapshot_generation: state.generation.load(Ordering::Relaxed),
            snapshot_age,
        }
    }

    /// One versioned envelope — what `Request::Scrape` answers with:
    /// every registered (process-wide) metric, [`TenantStats::SCRAPE_ROWS`]
    /// `tenant.<id>.*` rows for each tenant **resident** right now, and
    /// the last `max_events` events. Metrics are sorted by name, each
    /// name once. A cold tenant has no rows (so the envelope's size
    /// follows the resident set, not the registered one); ask
    /// [`SmartpickService::tenant_stats`] for it, which rehydrates.
    ///
    /// Point-in-time gauges (queue depths, resident tenants) are
    /// refreshed first; values are sampled with relaxed atomic loads.
    /// The resident set comes from one walk over the registry shards,
    /// each read-locked only long enough to clone its slot `Arc`s out:
    /// no shard lock is held while rows are rendered, and `predict` is
    /// never waited on.
    pub fn scrape(&self, max_events: usize) -> ScrapeEnvelope {
        let depths = self.queues.depths();
        for (gauge, &depth) in self.shard_depth_gauges.iter().zip(&depths) {
            gauge.set(depth as i64);
        }
        self.queue_depth_gauge
            .set(depths.iter().sum::<usize>() as i64);
        let mut resident = self.registry.resident();
        self.resident_gauge.set(resident.len() as i64);
        resident.sort_unstable_by(|(a, _), (b, _)| a.id.cmp(&b.id));
        let mut envelope = self.obs.scrape(max_events);
        envelope
            .metrics
            .reserve(resident.len() * TenantStats::SCRAPE_ROWS);
        for (_, state) in &resident {
            self.stats_of(state).push_rows(&mut envelope.metrics);
        }
        // Two runs already in order — the registry's, and the tenants'
        // unless one id extends another (`a`, `a.b`) — which the sort
        // merges: the tenant rows land between `store.*` and `wire.*`.
        envelope.metrics.sort_by(|a, b| a.name.cmp(&b.name));
        envelope
    }

    /// Liveness/readiness: ready iff every retrain worker is alive (or
    /// cleanly done), no shard has queued work without progress past the
    /// configured [`ServiceConfig::stall_deadline`], and the service has
    /// not been shut down. The report carries per-shard detail (state,
    /// restarts, last panic, stall flag, depth) and one human-readable
    /// reason per failure.
    pub fn health(&self) -> HealthReport {
        let depths = self.queues.depths();
        let now = self.now_us();
        let deadline_us = self.config.stall_deadline.as_micros() as u64;
        let closed = self.queues.is_closed();
        let mut reasons = Vec::new();
        if closed {
            reasons.push("service is shut down".to_owned());
        }
        if self.residency.paused() {
            reasons.push(
                "residency limits configured but store unavailable; eviction paused".to_owned(),
            );
        }
        let workers: Vec<WorkerHealth> = self
            .shard_counters
            .iter()
            .zip(&depths)
            .enumerate()
            .map(|(shard, (c, &depth))| {
                let status = c.status.lock();
                let last = c.last_progress_us.load(Ordering::Relaxed);
                let stalled = status.state == WorkerState::Alive
                    && depth > 0
                    && now.saturating_sub(last) > deadline_us;
                match status.state {
                    WorkerState::Failed => reasons.push(format!(
                        "worker shard {shard} failed permanently ({})",
                        status.last_panic.as_deref().unwrap_or("spawn failure")
                    )),
                    WorkerState::Alive if stalled => reasons.push(format!(
                        "worker shard {shard} stalled: {depth} queued, no progress in {:?}",
                        self.config.stall_deadline
                    )),
                    _ => {}
                }
                WorkerHealth {
                    shard,
                    state: status.state.name().to_owned(),
                    restarts: status.restarts,
                    stalled,
                    queue_depth: depth,
                    last_panic: status.last_panic.clone(),
                }
            })
            .collect();
        HealthReport {
            live: true,
            ready: reasons.is_empty(),
            reasons,
            workers,
        }
    }

    /// Fault injection for supervision tests: panics the retrain worker
    /// owning `shard` by feeding it a poison message through its own
    /// queue (so the panic happens mid-stream, exactly where a real bug
    /// would). The worker then applies the configured restart policy;
    /// any batch it had in flight is re-queued first, so no accepted
    /// report is lost. Not part of the public API contract.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Stopped`] after shutdown.
    ///
    /// # Panics
    ///
    /// Panics (in the *calling* thread) if `shard` is out of range.
    #[doc(hidden)]
    pub fn poison_worker(&self, shard: usize) -> Result<(), ServiceError> {
        self.poison_worker_at(shard, CrashPoint::BatchStart)
    }

    /// [`SmartpickService::poison_worker`] with the panic placed at `at`
    /// inside the batch the poison arrives in, for tests of what a crash
    /// at each durability boundary leaves behind.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Stopped`] after shutdown.
    ///
    /// # Panics
    ///
    /// Panics (in the *calling* thread) if `shard` is out of range.
    #[doc(hidden)]
    pub fn poison_worker_at(&self, shard: usize, at: CrashPoint) -> Result<(), ServiceError> {
        assert!(
            shard < self.queues.shard_count(),
            "shard {shard} out of range"
        );
        self.queues
            .push_blocking(shard, WorkerMsg::Poison(at))
            .map_err(|_| ServiceError::Stopped)
    }

    // ---------------------------------------------------------------
    // Lifecycle
    // ---------------------------------------------------------------

    /// Shuts the service down: stops admitting work, stops the sweep
    /// thread, lets every worker drain its queue shard, and joins them
    /// all. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.queues.close();
        if let Some((stop, sweeper)) = self.sweeper.take() {
            drop(stop);
            let _ = sweeper.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

impl Drop for SmartpickService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Mixed into the caller's seed so the execution RNG stream differs from
/// the search's.
const EXEC_SEED_MIX: u64 = 0x5EED_EC5E;

/// The sweep thread's shortest tick, whatever `supervisor_poll` says:
/// residency decisions are capacity management, not a hot path.
const MIN_SWEEP_TICK: Duration = Duration::from_millis(100);

/// What one enqueue attempt did: a final answer, or "the state went cold
/// under you — re-resolve and try again" (the sample rides back out, in
/// the box it came in, so the retry does not clone it).
enum Enqueue {
    Done(Result<(), ServiceError>),
    Retired(Box<RunSample>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Acquired;
    use smartpick_cloudsim::{CloudEnv, Provider};
    use smartpick_core::properties::SmartpickProperties;
    use smartpick_core::training::TrainOptions;
    use smartpick_ml::forest::ForestParams;
    use smartpick_workloads::tpcds;

    /// A small trained driver over TPC-DS q82.
    fn template() -> Smartpick {
        let opts = TrainOptions {
            configs_per_query: 5,
            burst_factor: 3,
            forest: ForestParams {
                n_trees: 10,
                ..ForestParams::default()
            },
            max_vm: 3,
            max_sl: 3,
            ..TrainOptions::default()
        };
        Smartpick::train_with_options(
            CloudEnv::new(Provider::Aws),
            SmartpickProperties::default(),
            &[tpcds::query(82, 100.0).unwrap()],
            &opts,
            11,
        )
        .unwrap()
        .0
    }

    /// A fresh store root inside the repo's `target/`.
    fn store_root(tag: &str) -> PathBuf {
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"))
            .join(format!("service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// An admin persist takes its cut under the driver lock and writes
    /// after releasing it. Reports a worker applies in between are not
    /// in the file, so they must stay counted as ahead of the disk: the
    /// next eviction has to persist them, or the rehydrated tenant comes
    /// back without them.
    #[test]
    fn an_admin_persist_keeps_reports_applied_after_its_cut_for_the_eviction() {
        let dir = store_root("admin-race");
        let query = tpcds::query(82, 100.0).unwrap();
        let service = SmartpickService::open(&dir, ServiceConfig::default()).unwrap();
        service.register_fork("acme", &template(), 7).unwrap();

        // Park the admin persist at the door: its cut taken, the tenant's
        // file lock held here (map + ours + its = 3 handles).
        let handle = service.persist.as_ref().unwrap().files.handle("acme");
        let held = handle.lock();
        std::thread::scope(|s| {
            let admin = s.spawn(|| service.persist_tenant("acme"));
            while Arc::strong_count(&handle) < 3 {
                std::thread::yield_now();
            }
            for seed in 1..=3 {
                service.submit("acme", &query, seed).unwrap();
            }
            assert!(service.flush());
            drop(held);
            admin.join().unwrap().unwrap();
        });

        let history = || service.inspect_tenant("acme", |d| d.history().len());
        let applied = history().unwrap();
        assert!(service.evict_tenant("acme").unwrap());
        assert_eq!(history().unwrap(), applied, "lost on rehydration");
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A registration holds the tenant's file lock from its registry
    /// insert until generation 0 has landed: were the tenant visible
    /// sooner, the registration's clear could wipe a write made between.
    #[test]
    fn a_registration_is_invisible_until_its_first_snapshot_lands() {
        let dir = store_root("register-race");
        let service = SmartpickService::open(&dir, ServiceConfig::default()).unwrap();
        let driver = template();
        let sp = service.persist.as_ref().unwrap();
        let handle = sp.files.handle("t");
        std::thread::scope(|s| {
            // Inside the scope: a failed assertion releases it first.
            let held = handle.lock();
            let register = s.spawn(|| service.register_tenant("t", driver));
            std::thread::sleep(Duration::from_millis(200));
            assert!(
                !service.tenants().contains(&"t".to_owned()),
                "registered before its files"
            );
            drop(held);
            register.join().unwrap().unwrap();
        });
        assert_eq!(service.tenants(), ["t"]);
        let (meta, _) = sp.load("t").unwrap();
        assert_eq!(meta.generation, 0);
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// While another caller owns a tenant's single-flight rehydration the
    /// blocking resolve parks on the slot's condvar; the hot-only entry
    /// points must decline instead — they run on a thread that may not
    /// wait — and leave the claim to its owner.
    #[test]
    fn hot_only_entry_points_decline_a_rehydrating_tenant_without_waiting() {
        let dir = store_root("rehydrating");
        let query = tpcds::query(82, 100.0).unwrap();
        let service = SmartpickService::open(&dir, ServiceConfig::default()).unwrap();
        service.register_fork("acme", &template(), 7).unwrap();
        let outcome = service.submit("acme", &query, 3).unwrap();
        assert!(service.flush());
        assert!(service.evict_tenant("acme").unwrap());

        // Claim the rehydration, as a resolve on another thread would,
        // and hold it.
        let slot = service.registry.slot("acme").unwrap();
        let Acquired::MustRehydrate(meta) = slot.acquire() else {
            panic!("an evicted tenant must be cold");
        };
        assert!(service
            .determine_if_hot("acme", &query, 1, usize::MAX)
            .is_none());
        let run = Box::new(CompletedRun {
            query: query.clone(),
            determination: outcome.determination,
            report: outcome.report,
        });
        let run = service
            .report_run_if_hot("acme", run)
            .expect_err("nothing is admitted against a state still loading");

        // The owner gives up; the next blocking touch loads and serves.
        slot.abort_rehydrate(meta);
        service.determine("acme", &query, 1).unwrap();
        service
            .report_run_if_hot("acme", run)
            .expect("hot again")
            .unwrap();
        assert!(service.flush());
        assert_eq!(service.tenant_stats("acme").unwrap().reports_applied, 2);
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
