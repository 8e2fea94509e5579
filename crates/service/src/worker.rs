//! The background retrain workers — the paper's §4.2 "independent monitor
//! thread", made real, sharded, and self-restarting.
//!
//! The service runs N worker threads ([`crate::ServiceConfig`]'s
//! `retrain_workers`); each owns one tenant-hash-sharded slice of the
//! update queue and drains it in batches, groups completed-run reports by
//! owning tenant, applies each batch to that tenant's driver under its
//! (per-tenant) mutex, and republishes the tenant's prediction snapshot
//! once per batch. A tenant's reports always land on the same shard (same
//! hash routing as the registry), so per-tenant ordering is preserved
//! while distinct tenants retrain in parallel. Readers never wait on any
//! of this: they predict against the snapshot published by the previous
//! batch.
//!
//! ## Crash safety
//!
//! A worker restarts itself: its thread body (`Worker::run`, private)
//! catches a panic out of the batch loop, records it, and applies the
//! configured [`RestartPolicy`] — back off and re-enter the loop, or mark
//! the shard failed. Nothing has to poll for dead threads. The loop's
//! side of that contract is *zero lost reports*: every drained message
//! sits in a `BatchRescue` guard (private) and is only marked consumed after its
//! apply (or ack) completes, so a panic mid-batch re-queues the unapplied
//! tail at the *front* of the shard queue, in order — the restarted
//! loop resumes exactly where the panicked one died. Semantics are
//! at-least-once: a report whose apply had already mutated the driver
//! when the panic hit may be applied again after restart.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smartpick_core::RunSample;
use smartpick_obs::{event, Counter, EventKind, LatencyHistogram, MetricsRegistry, Observability};
use smartpick_store::wal::WalPayload;
use smartpick_store::{WalRecord, WalWriter};

use crate::persist::{Cause, Cut, ServicePersist, StoreMetrics, WorkerPersist};
use crate::queue::BoundedQueue;
use crate::registry::TenantState;
use crate::stats::{ServiceTotals, ShardCounters};

/// What a retrain worker does when it panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Restart the worker, waiting `backoff × attempt` between tries, up
    /// to `max_retries` restarts per shard over the worker's lifetime;
    /// after that the shard is marked failed.
    Restart {
        /// Restarts allowed per shard before giving up.
        max_retries: u32,
        /// Base delay before a restart (scaled linearly by attempt).
        backoff: Duration,
    },
    /// Never restart: the first panic marks the shard failed (and the
    /// service unready) — fail-fast for deployments that prefer a crisp
    /// outage over a limping one.
    Strict,
}

/// How a retrain worker's shard is doing; health renders it by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkerState {
    /// Running (or backing off before a restart).
    Alive,
    /// Exited normally (queue closed — shutdown).
    Done,
    /// Dead and not coming back: `Strict` panic, retries exhausted, or a
    /// spawn failure.
    Failed,
}

impl WorkerState {
    /// The name health reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            WorkerState::Alive => "alive",
            WorkerState::Done => "done",
            WorkerState::Failed => "failed",
        }
    }
}

/// A queued unit of worker work.
#[derive(Debug)]
pub(crate) enum WorkerMsg {
    /// Apply one completed run to its tenant.
    Job {
        /// The owning tenant (resolved at enqueue time, so the worker
        /// never touches the registry and deregistered tenants still get
        /// their in-flight reports applied).
        tenant: Arc<TenantState>,
        /// The tenant-scoped run id assigned at enqueue time. Stable
        /// across a `BatchRescue` re-queue, so a report that is WAL-
        /// appended twice around a worker panic deduplicates at replay.
        run_id: u64,
        /// What the run teaches the driver, projected at admission: the
        /// queue, the rescue guard and the log carry this, not the run.
        sample: Box<RunSample>,
    },
    /// Ack once every message enqueued before this one has been applied.
    Flush(SyncSender<()>),
    /// Panic the worker that dequeues this, at the named point of the
    /// batch it arrived in — the fault-injection message behind
    /// [`crate::SmartpickService::poison_worker`]. Marked consumed
    /// *before* the panic so a restarted worker does not die again on the
    /// same message.
    Poison(CrashPoint),
}

/// Where in a drained batch a poisoned worker panics (see
/// `process_batch` for the phases). Fault injection only; not part of
/// the public API contract.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Before any of the batch is touched.
    BatchStart,
    /// Every report of the batch is appended and synced; no driver has
    /// been mutated yet.
    AfterReportSync,
    /// Every group is applied and published and its commit appended; the
    /// commit sync has not run.
    BeforeCommitSync,
}

/// A rewrite of the shard log waits until the log is this many times
/// what the last rewrite kept.
const COMPACT_GROWTH_FACTOR: u64 = 2;

/// The feedback path's stage budget, `service.report.*`: one histogram
/// per stage for the whole service (none per tenant or shard).
#[derive(Debug)]
pub(crate) struct ReportStages {
    /// Encoding and appending a batch's reports (one sample per batch).
    wal_append: Arc<LatencyHistogram>,
    /// One WAL sync (two samples per batch: reports, commits).
    wal_sync: Arc<LatencyHistogram>,
    /// Applying one tenant's group and republishing its snapshot.
    apply: Arc<LatencyHistogram>,
    /// One `apply_report` that fired a retrain (inside `apply`): what
    /// tells a slow apply from a retrain without the event log.
    retrain: Arc<LatencyHistogram>,
    /// Encoding and persisting one due snapshot.
    snapshot_persist: Arc<LatencyHistogram>,
    /// One shard-log rewrite.
    compact: Arc<LatencyHistogram>,
}

impl ReportStages {
    pub(crate) fn register(metrics: &MetricsRegistry) -> Self {
        let stage = |name: &str| metrics.histogram(&format!("service.report.{name}"));
        ReportStages {
            wal_append: stage("wal_append"),
            wal_sync: stage("wal_sync"),
            apply: stage("apply"),
            retrain: stage("retrain"),
            snapshot_persist: stage("snapshot_persist"),
            compact: stage("compact"),
        }
    }
}

/// Everything one worker thread needs besides its queue shard and its
/// store handle.
#[derive(Debug, Clone)]
pub(crate) struct WorkerCtx {
    /// This worker's shard index (for events).
    pub(crate) shard: usize,
    /// This shard's registry-backed counters.
    pub(crate) counters: Arc<ShardCounters>,
    /// The service-wide totals, incremented alongside tenant counters.
    pub(crate) totals: Arc<ServiceTotals>,
    /// The shared observability bundle (events).
    pub(crate) obs: Arc<Observability>,
    /// The service epoch `published_at_us`/progress stamps are relative
    /// to.
    pub(crate) epoch: Instant,
    /// The stage histograms every worker records into.
    pub(crate) stages: Arc<ReportStages>,
}

/// One retrain worker thread: its queue shard, its context, and what it
/// needs to restart itself.
#[derive(Debug)]
pub(crate) struct Worker {
    pub(crate) queue: Arc<BoundedQueue<WorkerMsg>>,
    pub(crate) batch_max: usize,
    pub(crate) ctx: WorkerCtx,
    /// The store, when durable: every attempt opens its own WAL append
    /// handle on it.
    pub(crate) persist: Option<Arc<ServicePersist>>,
    /// Where recovery's scan of this shard's log ended, if it vouched for
    /// the shard.
    pub(crate) wal_valid_len: Option<u64>,
    pub(crate) policy: RestartPolicy,
    /// `service.worker.restarts` and `service.worker.panics`, shared by
    /// every shard.
    pub(crate) restarts: Arc<Counter>,
    pub(crate) panics: Arc<Counter>,
}

impl Worker {
    /// The thread body: the batch loop until the queue shard is closed
    /// and drained. A panic out of the loop — whose rescue guard has
    /// already re-queued the batch's unapplied tail — lands in the
    /// `worker_panic` event, `service.worker.panics` and the shard's
    /// status; then the policy either backs off `backoff × attempt` and
    /// re-enters the loop with a freshly opened WAL handle, or marks the
    /// shard failed and ends the thread.
    pub(crate) fn run(self) {
        let shard = self.ctx.shard;
        let mut attempt = 0u64;
        loop {
            let persist = self.open_persist(attempt);
            let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| self.drain(persist))) else {
                self.ctx.counters.status.lock().state = WorkerState::Done;
                return;
            };
            let msg = panic_message(payload.as_ref());
            self.panics.inc();
            self.ctx
                .obs
                .events()
                .publish(event(EventKind::WorkerPanic).shard(shard).detail(&msg));
            self.ctx.counters.status.lock().last_panic = Some(msg);
            let (max_retries, backoff) = match self.policy {
                RestartPolicy::Restart {
                    max_retries,
                    backoff,
                } if attempt < u64::from(max_retries) => (max_retries, backoff),
                RestartPolicy::Restart { max_retries, .. } => {
                    let why = format!("restart budget exhausted ({max_retries} retries)");
                    self.ctx.counters.mark_failed(shard, &self.ctx.obs, why);
                    return;
                }
                RestartPolicy::Strict => {
                    let why = "restart policy is strict; shard stays down";
                    self.ctx.counters.mark_failed(shard, &self.ctx.obs, why);
                    return;
                }
            };
            attempt += 1;
            std::thread::sleep(backoff.saturating_mul(attempt.min(64) as u32));
            self.ctx.counters.status.lock().restarts = attempt;
            self.restarts.inc();
            self.ctx.obs.events().publish(
                event(EventKind::WorkerRestarted)
                    .shard(shard)
                    .detail(format!("restart {attempt} of {max_retries}")),
            );
        }
    }

    /// This attempt's store handle, with a WAL append handle of its own
    /// (the last attempt's was dropped by the unwind). The first attempt
    /// opens where recovery's scan of the shard ended; a restart, or a
    /// shard that scan did not vouch for, scans the file itself. An open
    /// that fails degrades the attempt to non-durable applies.
    fn open_persist(&self, attempt: u64) -> Option<WorkerPersist> {
        let sp = self.persist.as_ref()?;
        let shard = self.ctx.shard;
        let opened = match self.wal_valid_len.filter(|_| attempt == 0) {
            Some(valid_len) => sp.store.open_wal_at(shard, valid_len, sp.cfg.fsync),
            None => {
                sp.metrics.wal_shard_scans.inc();
                sp.store.open_wal(shard, sp.cfg.fsync)
            }
        };
        let wal = opened
            .map_err(|e| {
                let detail = format!("WAL open failed, applying non-durably: {e}");
                degraded(&self.ctx, None, detail);
            })
            .ok();
        Some(WorkerPersist {
            sp: Arc::clone(sp),
            wal,
            compacted_len: 0,
        })
    }

    /// The batch loop. `persist` is this attempt's own store handle
    /// (`None` runs the in-memory-only worker); nothing else touches it,
    /// so the WAL append handle needs no lock.
    fn drain(&self, mut persist: Option<WorkerPersist>) {
        let ctx = &self.ctx;
        while let Some(first) = self.queue.pop() {
            let mut rescue = BatchRescue::new(&self.queue);
            rescue.admit(first);
            for msg in self.queue.drain_up_to(self.batch_max.saturating_sub(1)) {
                rescue.admit(msg);
            }
            ctx.counters.batches.inc();
            process_batch(&mut rescue, ctx, persist.as_mut());
            ctx.counters
                .mark_progress(ctx.epoch.elapsed().as_micros() as u64);
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Holds a drained batch so a worker panic loses nothing: slots are
/// marked consumed one by one as they are applied/acked, and the `Drop`
/// impl re-queues whatever is left — in order, at the front of the shard
/// queue — if (and only if) the thread is unwinding.
#[derive(Debug)]
struct BatchRescue<'q> {
    queue: &'q BoundedQueue<WorkerMsg>,
    slots: Vec<Option<WorkerMsg>>,
}

impl<'q> BatchRescue<'q> {
    fn new(queue: &'q BoundedQueue<WorkerMsg>) -> Self {
        BatchRescue {
            queue,
            slots: Vec::new(),
        }
    }

    fn admit(&mut self, msg: WorkerMsg) {
        self.slots.push(Some(msg));
    }

    /// Marks slot `i` handled and takes its message.
    fn consume(&mut self, i: usize) -> Option<WorkerMsg> {
        self.slots.get_mut(i)?.take()
    }

    /// The job in slot `i`, if it still holds one.
    fn job(&self, i: usize) -> Option<(u64, &RunSample)> {
        match self.slots.get(i) {
            Some(Some(WorkerMsg::Job { run_id, sample, .. })) => Some((*run_id, sample)),
            _ => None,
        }
    }
}

impl Drop for BatchRescue<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let unhandled: Vec<WorkerMsg> = self.slots.iter_mut().filter_map(|s| s.take()).collect();
        self.queue.requeue_front(unhandled);
    }
}

/// One tenant's job slots in a drained batch, in queue order.
type Group = (Arc<TenantState>, Vec<usize>);

/// What applying one [`Group`] left for the durability tail.
struct Published {
    tenant: Arc<TenantState>,
    /// The generation the group's publish produced.
    generation: u64,
    /// The tenant's consumption watermark at that publish.
    watermark: u64,
    /// The cut to persist, when the group crossed the `snapshot_every`
    /// cadence — taken under the driver lock right after the publish, so
    /// it is the published model at its generation.
    due: Option<Cut>,
}

/// Panics the worker if the batch carries a poison aimed at `here`.
fn crash_if(armed: Option<CrashPoint>, here: CrashPoint) {
    if armed == Some(here) {
        #[allow(clippy::panic)] // mirrored by the lint:allow below
        {
            // lint:allow(panic-free-server-paths, reason = "deliberate fault injection: WorkerMsg::Poison exists only for the crash-point tests in tests/supervisor.rs, tests/supervision.rs and tests/durability.rs, and Worker::run catches exactly this panic")
            panic!("retrain worker poisoned via poison_worker() at {here:?}");
        }
    }
}

/// Applies one drained batch as a group commit. With persistence
/// configured the phases are:
///
/// 1. append every group's `Sample` records, then one sync — every
///    accepted report of the batch is durable before any driver in it is
///    mutated, so a crash from here on replays them;
/// 2. apply each group under its driver lock and republish its snapshot
///    (readers see the new model here; nothing above waits on the disk
///    again until phase 3);
/// 3. append every group's `Commit` record, then one sync;
/// 4. persist the snapshots that came due;
/// 5. ack the batch's flushes — an ack therefore still means applied,
///    published, commit synced, due snapshots on disk;
/// 6. only then compact the shard log, if a snapshot moved a floor and
///    the log has doubled since its last rewrite.
///
/// A worker panic between 1 and 2 replays the records at recovery; a
/// panic after an apply re-appends that report via the rescue re-queue —
/// both collapse to exactly-once because replay deduplicates by run id.
/// A publish whose `Commit` never reached the disk is counted by
/// recovery as the one trailing publish it was.
fn process_batch(
    rescue: &mut BatchRescue<'_>,
    ctx: &WorkerCtx,
    persist: Option<&mut WorkerPersist>,
) {
    // Poison first: the panic must not take any of the batch's real work
    // with it — everything still unconsumed is requeued by the rescue
    // guard, and the poison slot itself is consumed up front so the
    // restarted worker does not re-panic on it.
    let poison = rescue
        .slots
        .iter()
        .position(|s| matches!(s, Some(WorkerMsg::Poison(_))));
    let armed = match poison.and_then(|p| rescue.consume(p)) {
        Some(WorkerMsg::Poison(at)) => Some(at),
        _ => None,
    };
    crash_if(armed, CrashPoint::BatchStart);

    // Group job slots by tenant, preserving per-tenant FIFO order.
    let mut groups: Vec<Group> = Vec::new();
    let mut flushes: Vec<usize> = Vec::new();
    for (i, slot) in rescue.slots.iter().enumerate() {
        match slot {
            Some(WorkerMsg::Job { tenant, .. }) => {
                match groups.iter_mut().find(|(t, _)| Arc::ptr_eq(t, tenant)) {
                    Some((_, idxs)) => idxs.push(i),
                    None => groups.push((Arc::clone(tenant), vec![i])),
                }
            }
            Some(WorkerMsg::Flush(_)) => flushes.push(i),
            Some(WorkerMsg::Poison(_)) | None => {}
        }
    }

    // A batch of flushes alone has nothing to make durable.
    let mut persist = persist.filter(|_| !groups.is_empty());
    if let Some(persist) = persist.as_deref_mut() {
        persist.append_reports(&groups, rescue, ctx);
        persist.sync(ctx);
    }
    crash_if(armed, CrashPoint::AfterReportSync);

    let snapshot_every = persist.as_deref().map(|p| p.sp.cfg.snapshot_every);
    let published: Vec<Published> = groups
        .iter()
        .map(|(tenant, idxs)| apply_group(tenant, idxs, rescue, ctx, snapshot_every))
        .collect();

    let mut floors_moved = false;
    if let Some(persist) = persist.as_deref_mut() {
        persist.append_commits(&published, ctx);
        crash_if(armed, CrashPoint::BeforeCommitSync);
        persist.sync(ctx);
        for group in published {
            floors_moved |= persist.persist_due_snapshot(group, ctx);
        }
    }

    // Jobs enqueued before each flush are now applied (FIFO queue, whole
    // batch processed above), so the acks are safe. Consume before
    // sending: an ack is a promise already kept, not work to redo after
    // a panic.
    for i in flushes {
        if let Some(WorkerMsg::Flush(ack)) = rescue.consume(i) {
            let _ = ack.send(());
        }
    }

    // Nobody waits on a rewrite of the log: it runs after the acks.
    if let Some(persist) = persist.filter(|_| floors_moved) {
        persist.compact_if_due(ctx);
    }
}

/// Applies one tenant's slots under its driver lock, then republishes the
/// snapshot exactly once and emits the retrain events. `snapshot_every`
/// is the persistence cadence, when there is a store to persist to.
fn apply_group(
    tenant: &Arc<TenantState>,
    idxs: &[usize],
    rescue: &mut BatchRescue<'_>,
    ctx: &WorkerCtx,
    snapshot_every: Option<u64>,
) -> Published {
    let started = Instant::now();
    ctx.obs.events().publish(
        event(EventKind::RetrainStarted)
            .tenant(&tenant.id)
            .shard(ctx.shard),
    );
    let mut applied = 0u64;
    let mut retrains = 0u64;
    let mut consumed = 0u64;
    let mut driver = tenant.driver.lock();
    for &i in idxs {
        let Some((run_id, sample)) = rescue.job(i) else {
            continue;
        };
        let report_started = Instant::now();
        match driver.apply_sample(sample) {
            Ok(retrain) => {
                applied += 1;
                tenant.counters.reports_applied.inc();
                ctx.totals.reports_applied.inc();
                ctx.counters.reports_applied.inc();
                if retrain.is_some() {
                    ctx.stages.retrain.record(report_started.elapsed());
                    retrains += 1;
                    tenant.counters.retrains.inc();
                    ctx.totals.retrains.inc();
                    ctx.counters.retrains.inc();
                }
            }
            Err(_) => {
                // A failed apply (e.g. a retrain hiccup) must not take
                // the worker down; it is surfaced through the stats
                // instead.
                tenant.counters.apply_failures.inc();
                ctx.totals.apply_failures.inc();
            }
        }
        // The watermark tracks consumption (the record will never be
        // offered again), not apply success — replay treats a
        // deterministic apply failure the same way.
        tenant
            .applied_watermark
            .fetch_max(run_id, Ordering::Relaxed);
        consumed += 1;
        tenant.pending.fetch_sub(1, Ordering::Relaxed);
        rescue.consume(i);
    }
    let mut due = false;
    if let Some(every) = snapshot_every {
        let since = tenant
            .applied_since_persist
            .fetch_add(consumed, Ordering::Relaxed);
        due = since + consumed >= every;
    }
    // Published before the lock goes: pending already reads 0, so an
    // eviction could otherwise take the lock in between, go cold at the
    // old generation and leave this publish to a retired state.
    let now_us = ctx.epoch.elapsed().as_micros() as u64;
    tenant.publish_snapshot(driver.snapshot(), now_us);
    // The count stays up until the file lands: an eviction in between
    // must see a tenant that is ahead of its disk.
    let due = due.then(|| Cut::locked(tenant, &driver));
    drop(driver);
    let generation = tenant.generation.load(Ordering::Relaxed);
    let watermark = tenant.applied_watermark.load(Ordering::Relaxed);
    // An actively-reporting tenant counts as touched: the residency
    // sweep's LRU clock should not evict a tenant whose model is
    // still absorbing feedback. (While the batch was pending, the
    // pending counter pinned it hot outright.)
    tenant.last_touch_us.store(now_us, Ordering::Relaxed);
    ctx.obs.events().publish(
        event(EventKind::SnapshotPublished)
            .tenant(&tenant.id)
            .shard(ctx.shard),
    );
    let took = started.elapsed();
    ctx.stages.apply.record(took);
    ctx.obs.events().publish(
        event(EventKind::RetrainFinished)
            .tenant(&tenant.id)
            .shard(ctx.shard)
            .duration(took)
            .detail(format!(
                "{applied} reports applied, {retrains} retrains fired"
            )),
    );
    Published {
        tenant: Arc::clone(tenant),
        generation,
        watermark,
        due,
    }
}

/// The durability phases of [`process_batch`]. Every failure degrades:
/// one `StoreDegraded` event, and the batch proceeds non-durable
/// (availability over durability — the query results behind these
/// reports were already returned).
impl WorkerPersist {
    /// Phase 1: appends every group's reports to the shard WAL.
    fn append_reports(&mut self, groups: &[Group], rescue: &BatchRescue<'_>, ctx: &WorkerCtx) {
        let started = Instant::now();
        let metrics = &self.sp.metrics;
        with_wal(&mut self.wal, metrics, |writer| {
            for (tenant, idxs) in groups {
                // A deregistered tenant's records would be dead on arrival
                // (replay only visits tenants with a store directory);
                // skip the writes.
                if tenant.defunct.load(Ordering::SeqCst) {
                    continue;
                }
                for &i in idxs {
                    let Some((run_id, sample)) = rescue.job(i) else {
                        continue;
                    };
                    let payload =
                        WalRecord::sample_payload(&tenant.id, tenant.epoch, run_id, sample);
                    match writer.append(&payload) {
                        Ok(()) => metrics.wal_records_appended.inc(),
                        Err(e) => {
                            degraded(ctx, Some(tenant), format!("WAL append failed: {e}"));
                            return;
                        }
                    }
                }
            }
        });
        ctx.stages.wal_append.record(started.elapsed());
    }

    /// Phase 3: appends one commit per published group, recording which
    /// generation its publish produced.
    ///
    /// The ghost-tenant guard starts here: a worker holds its own
    /// `Arc<TenantState>`, so it can reach this point for a tenant
    /// `deregister_tenant` has *already* removed; its records would be
    /// dead on arrival.
    fn append_commits(&mut self, published: &[Published], ctx: &WorkerCtx) {
        let metrics = &self.sp.metrics;
        with_wal(&mut self.wal, metrics, |writer| {
            for group in published {
                if group.tenant.defunct.load(Ordering::SeqCst) {
                    continue;
                }
                let record = WalRecord {
                    tenant: group.tenant.id.clone(),
                    epoch: group.tenant.epoch,
                    payload: WalPayload::Commit {
                        generation: group.generation,
                        watermark: group.watermark,
                    },
                };
                match writer.append(&record.encode_payload()) {
                    Ok(()) => metrics.wal_records_appended.inc(),
                    Err(e) => {
                        degraded(ctx, Some(&group.tenant), format!("WAL commit failed: {e}"));
                        return;
                    }
                }
            }
        });
    }

    /// The one sync that closes phase 1 and phase 3 (under
    /// `FsyncPolicy::PerRecord` the appends already synced themselves and
    /// this finds nothing left to do).
    fn sync(&mut self, ctx: &WorkerCtx) {
        let started = Instant::now();
        if let Some(Err(e)) = with_wal(&mut self.wal, &self.sp.metrics, WalWriter::sync) {
            degraded(ctx, None, format!("WAL sync failed: {e}"));
        }
        ctx.stages.wal_sync.record(started.elapsed());
    }

    /// Phase 4: persists `group`'s snapshot if it came due, through
    /// [`ServicePersist::checkpoint`] — which skips a tenant deregistered
    /// since the apply, so the write cannot resurrect its directory.
    /// Persisting for a merely *evicted* (retired, non-defunct) tenant
    /// stays allowed: generation is monotone and the bytes equal what
    /// eviction wrote. Returns whether a file landed — which is when
    /// this tenant's compaction floor moved.
    ///
    /// [`ServicePersist::checkpoint`]: crate::persist::ServicePersist::checkpoint
    fn persist_due_snapshot(&mut self, group: Published, ctx: &WorkerCtx) -> bool {
        let Some(cut) = group.due else {
            return false;
        };
        let started = Instant::now();
        let persisted = self
            .sp
            .checkpoint(&group.tenant, cut, Cause::Cadence(ctx.shard));
        ctx.stages.snapshot_persist.record(started.elapsed());
        matches!(persisted, Ok(Some(_)))
    }

    /// Phase 6: rewrites the shard log once it is past the configured
    /// threshold **and** has doubled since its last rewrite, so a byte is
    /// rewritten a bounded number of times however often snapshots land,
    /// and the log stays within twice what the last rewrite kept. The
    /// append handle is closed across the rewrite (the file is replaced)
    /// and reopened on the renamed path.
    fn compact_if_due(&mut self, ctx: &WorkerCtx) {
        let sp = &self.sp;
        let len = self.wal.as_ref().map_or(0, WalWriter::file_len);
        if len <= sp.cfg.compact_threshold_bytes
            || len < COMPACT_GROWTH_FACTOR.saturating_mul(self.compacted_len)
        {
            return;
        }
        let started = Instant::now();
        self.wal = None;
        match sp.store.compact_wal(ctx.shard) {
            Ok(stats) => {
                self.compacted_len = stats.bytes_after;
                sp.metrics.compactions.inc();
                sp.metrics.compaction_bytes_written.add(stats.bytes_after);
                let took = started.elapsed();
                ctx.stages.compact.record(took);
                ctx.obs.events().publish(
                    event(EventKind::WalCompacted)
                        .shard(ctx.shard)
                        .duration(took)
                        .detail(format!(
                            "{} records kept, {} dropped; {} -> {} bytes",
                            stats.kept, stats.dropped, stats.bytes_before, stats.bytes_after
                        )),
                );
            }
            Err(e) => degraded(ctx, None, format!("WAL compaction failed: {e}")),
        }
        match WalWriter::open(&sp.store.wal_path(ctx.shard), sp.cfg.fsync) {
            Ok(writer) => self.wal = Some(writer),
            Err(e) => degraded(
                ctx,
                None,
                format!("WAL reopen after compaction failed: {e}"),
            ),
        }
    }
}

/// Runs `f` on the append handle, if one is open, and books what it wrote
/// and synced.
fn with_wal<T>(
    wal: &mut Option<WalWriter>,
    metrics: &StoreMetrics,
    f: impl FnOnce(&mut WalWriter) -> T,
) -> Option<T> {
    let writer = wal.as_mut()?;
    let (bytes, syncs) = (writer.bytes_written(), writer.syncs());
    let out = f(writer);
    metrics
        .wal_bytes_written
        .add(writer.bytes_written() - bytes);
    metrics.wal_syncs.add(writer.syncs() - syncs);
    Some(out)
}

/// Publishes one `StoreDegraded` event for this shard.
fn degraded(ctx: &WorkerCtx, tenant: Option<&Arc<TenantState>>, detail: String) {
    let mut draft = event(EventKind::StoreDegraded).shard(ctx.shard);
    if let Some(tenant) = tenant {
        draft = draft.tenant(&tenant.id);
    }
    ctx.obs.events().publish(draft.detail(detail));
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::mpsc::{sync_channel, Receiver};
    use std::sync::Mutex;

    use smartpick_cloudsim::{CloudEnv, Provider};
    use smartpick_core::driver::Smartpick;
    use smartpick_core::properties::SmartpickProperties;
    use smartpick_core::training::TrainOptions;
    use smartpick_ml::forest::ForestParams;
    use smartpick_store::wal::scan_wal;
    use smartpick_store::{FsyncPolicy, Store};
    use smartpick_workloads::tpcds;

    use super::*;
    use crate::persist::{PersistenceConfig, ServicePersist};
    use crate::registry::ColdMeta;
    use crate::{ServiceConfig, SmartpickService};

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

    /// One worker's world without the thread: a queue shard, a context,
    /// a store handle and a registered-on-disk tenant, so a test can run
    /// `process_batch` on its own thread and watch it from the inside.
    struct Rig {
        queue: BoundedQueue<WorkerMsg>,
        ctx: WorkerCtx,
        persist: WorkerPersist,
        tenant: Arc<TenantState>,
        sample: RunSample,
        dir: PathBuf,
    }

    fn rig(tag: &str, snapshot_every: u64, compact_threshold_bytes: u64) -> Rig {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"))
            .join(format!("worker-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let obs = Arc::new(Observability::new(256));
        let driver = template();
        let sample = {
            let minter = SmartpickService::new(ServiceConfig::default());
            minter.register_tenant("mint", driver.fork(1)).unwrap();
            let query = tpcds::query(82, 100.0).unwrap();
            let outcome = minter.submit("mint", &query, 7).unwrap();
            RunSample::project(&query, &outcome.determination, &outcome.report)
        };
        let tenant = Arc::new(TenantState::new(
            "acme".into(),
            driver,
            0,
            Arc::default(),
            ColdMeta::fresh(3),
        ));
        let wal = Some(store.open_wal(0, FsyncPolicy::PerBatch).unwrap());
        let cfg = PersistenceConfig {
            snapshot_every,
            compact_threshold_bytes,
            ..PersistenceConfig::at(&dir)
        };
        let sp = Arc::new(ServicePersist::new(store, cfg, Arc::clone(&obs)));
        let cut = Cut::locked(&tenant, &tenant.driver.lock());
        sp.checkpoint(&tenant, cut, Cause::Registration).unwrap();
        let metrics = obs.metrics();
        Rig {
            queue: BoundedQueue::new(64),
            ctx: WorkerCtx {
                shard: 0,
                counters: Arc::new(ShardCounters::register(metrics, 0)),
                totals: Arc::new(ServiceTotals::register(metrics)),
                stages: Arc::new(ReportStages::register(metrics)),
                obs: Arc::clone(&obs),
                epoch: Instant::now(),
            },
            persist: WorkerPersist {
                sp,
                wal,
                compacted_len: 0,
            },
            tenant,
            sample,
            dir,
        }
    }

    impl Rig {
        /// Runs one batch of `reports` jobs for the tenant (run ids
        /// from `first_id`) followed by a flush, whose ack it returns.
        fn batch(&mut self, first_id: u64, reports: u64) -> Receiver<()> {
            let (ack, done) = sync_channel(1);
            self.batch_acking(first_id, reports, ack);
            done
        }

        /// [`Rig::batch`] with the flush's ack channel made by the caller.
        fn batch_acking(&mut self, first_id: u64, reports: u64, ack: SyncSender<()>) {
            let mut rescue = BatchRescue::new(&self.queue);
            for run_id in first_id..first_id + reports {
                self.tenant.pending.fetch_add(1, Ordering::Relaxed);
                rescue.admit(WorkerMsg::Job {
                    tenant: Arc::clone(&self.tenant),
                    run_id,
                    sample: Box::new(self.sample.clone()),
                });
            }
            rescue.admit(WorkerMsg::Flush(ack));
            process_batch(&mut rescue, &self.ctx, Some(&mut self.persist));
        }

        fn logged_run_ids(&self) -> Vec<u64> {
            let bytes = std::fs::read(self.persist.sp.store.wal_path(0)).unwrap();
            scan_wal(&bytes)
                .unwrap()
                .records
                .iter()
                .filter_map(|r| match r.payload {
                    WalPayload::Sample { run_id, .. } => Some(run_id),
                    _ => None,
                })
                .collect()
        }
    }

    /// The batch that triggers a rewrite of the log has its flush acked
    /// first: at the moment `WalCompacted` is published — on the worker's
    /// own thread, the rewrite just finished — the ack is already in the
    /// flusher's channel, and the snapshot that moved the floor is on
    /// disk before both.
    #[test]
    fn a_flush_is_acked_before_the_batch_compacts() {
        let mut rig = rig("ack-first", 2, 1);
        let done: Arc<Mutex<Option<Receiver<()>>>> = Arc::default();
        let seen: Arc<Mutex<Vec<(EventKind, bool)>>> = Arc::default();
        {
            let (done, seen) = (Arc::clone(&done), Arc::clone(&seen));
            rig.ctx.obs.events().subscribe(move |e| {
                if matches!(
                    e.kind,
                    EventKind::SnapshotPersisted | EventKind::WalCompacted
                ) {
                    let acked = done
                        .lock()
                        .unwrap()
                        .as_ref()
                        .is_some_and(|rx| rx.try_recv().is_ok());
                    seen.lock().unwrap().push((e.kind, acked));
                }
            });
        }
        let (ack, rx) = sync_channel(1);
        *done.lock().unwrap() = Some(rx);
        rig.batch_acking(1, 2, ack);
        assert_eq!(
            *seen.lock().unwrap(),
            vec![
                (EventKind::SnapshotPersisted, false),
                (EventKind::WalCompacted, true)
            ]
        );
        // The rewrite closed and reopened the append handle on the
        // renamed file: the next batch lands in it.
        assert!(rig.batch(3, 1).try_recv().is_ok());
        assert_eq!(rig.logged_run_ids(), vec![1, 2, 3]);
        let _ = std::fs::remove_dir_all(&rig.dir);
    }
}
