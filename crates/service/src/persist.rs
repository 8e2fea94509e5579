//! Durability wiring: how the service layers over `smartpick_store`.
//!
//! Four pieces live here. [`PersistenceConfig`] is the public knob
//! surface (directory, fsync policy, snapshot cadence, compaction
//! threshold). `ServicePersist` (crate-private) is the service's one
//! store handle, and its `checkpoint` is the one door every snapshot
//! write goes through — registration, the admin `persist_tenant`, the
//! worker cadence, eviction and recovery's fold each take a `Cut` and
//! name their `Cause`; the door checks the defunct stamp under the
//! tenant's file lock, writes, takes what the cut covered off the
//! tenant's unpersisted count and publishes one event. `WorkerPersist`
//! is a retrain worker's view of it plus the shard's WAL append handle.
//! And `recover` is the crash-recovery pass `SmartpickService::open`
//! runs **before any worker spawns**: one scan of the logs, a cold slot
//! for every tenant nothing in them is past, newest valid snapshot + WAL
//! replay for the rest — and, on a healthy store, no write.
//!
//! The one rule every piece obeys: the read path
//! (`predict`/`determine`) never touches any of this. Durability costs
//! land on the retrain workers and on startup, never on a prediction.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Instant, SystemTime};

use parking_lot::Mutex;
use smartpick_core::driver::Smartpick;
use smartpick_core::persist::DriverState;
use smartpick_core::RunSample;
use smartpick_obs::{event, Counter, EventKind, Gauge, MetricsRegistry, Observability};
use smartpick_store::snapshot::SnapshotMeta;
use smartpick_store::wal::{WalPayload, MAGIC as WAL_MAGIC};
use smartpick_store::{FsyncPolicy, Snapshot, Store, StoreError, WalRecord, WalWriter};

use crate::registry::{ColdMeta, ShardedRegistry, TenantState};

/// Durability tunables for a [`crate::SmartpickService`] opened over a
/// store directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistenceConfig {
    /// The store root. Snapshots land under `tenants/`, WALs under
    /// `wal/`.
    pub dir: PathBuf,
    /// When WAL appends reach the disk (see
    /// [`smartpick_store::FsyncPolicy`]). Default: one fsync per applied
    /// batch.
    pub fsync: FsyncPolicy,
    /// Persist a tenant's snapshot after this many applied reports. The
    /// WAL covers everything since the last snapshot, so larger values
    /// trade longer replay for fewer snapshot writes.
    pub snapshot_every: u64,
    /// Compact a shard WAL once it grows past this many bytes (checked
    /// after each snapshot persist, when the floors have just moved).
    pub compact_threshold_bytes: u64,
}

impl PersistenceConfig {
    /// A config rooted at `dir` with the default knobs.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        PersistenceConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::PerBatch,
            snapshot_every: 256,
            compact_threshold_bytes: 1 << 20,
        }
    }
}

/// The `store.*` metrics the durability layer reports.
#[derive(Debug)]
pub(crate) struct StoreMetrics {
    pub(crate) wal_bytes_written: Arc<Counter>,
    pub(crate) wal_records_appended: Arc<Counter>,
    pub(crate) wal_records_replayed: Arc<Counter>,
    pub(crate) snapshot_bytes_written: Arc<Counter>,
    pub(crate) snapshots_persisted: Arc<Counter>,
    pub(crate) snapshots_quarantined: Arc<Counter>,
    pub(crate) torn_tails_dropped: Arc<Counter>,
    pub(crate) compactions: Arc<Counter>,
    pub(crate) recovery_duration_us: Arc<Gauge>,
    /// Tenants the last open loaded and replayed log records into.
    pub(crate) recovery_tenants_replayed: Arc<Counter>,
    /// Tenants the last open left on disk behind a cold slot.
    pub(crate) recovery_tenants_cold: Arc<Counter>,
    /// Scans of a shard log: one per file in recovery's pass, and one per
    /// worker that opened its append handle with no scanned length to go
    /// by (`Store::open_wal`, which scans whatever file is there).
    pub(crate) wal_shard_scans: Arc<Counter>,
    /// `fdatasync` calls on shard WALs.
    pub(crate) wal_syncs: Arc<Counter>,
    /// Bytes WAL rewrites wrote — kept out of `wal_bytes_written`, which
    /// counts appended records only.
    pub(crate) compaction_bytes_written: Arc<Counter>,
}

impl StoreMetrics {
    pub(crate) fn register(metrics: &MetricsRegistry) -> Self {
        StoreMetrics {
            wal_bytes_written: metrics.counter("store.wal_bytes_written"),
            wal_records_appended: metrics.counter("store.wal_records_appended"),
            wal_records_replayed: metrics.counter("store.wal_records_replayed"),
            snapshot_bytes_written: metrics.counter("store.snapshot_bytes_written"),
            snapshots_persisted: metrics.counter("store.snapshots_persisted"),
            snapshots_quarantined: metrics.counter("store.snapshots_quarantined"),
            torn_tails_dropped: metrics.counter("store.torn_tails_dropped"),
            compactions: metrics.counter("store.compactions"),
            recovery_duration_us: metrics.gauge("store.recovery_duration_us"),
            recovery_tenants_replayed: metrics.counter("store.recovery_tenants_replayed"),
            recovery_tenants_cold: metrics.counter("store.recovery_tenants_cold"),
            wal_shard_scans: metrics.counter("store.wal_shard_scans"),
            wal_syncs: metrics.counter("store.wal_syncs"),
            compaction_bytes_written: metrics.counter("store.compaction_bytes_written"),
        }
    }
}

/// Per-tenant serialization of snapshot writes against directory
/// removal (the [`Store`] itself is only paths; this is the one place
/// file operations for the same id meet).
///
/// The protocol that makes tenant teardown race-free: deregistration
/// stamps the tenant `defunct` *before* calling [`TenantFiles::remove`],
/// and [`ServicePersist::checkpoint`] checks that stamp **inside** the
/// tenant's file lock. So any write is either ordered before the removal
/// (and its output is deleted with the directory) or observes the stamp
/// and skips — a write can never land *after* the removal and resurrect
/// a deregistered tenant, and a removal can never land after a
/// re-registration's fresh write and delete a live tenant's files.
#[derive(Debug, Default)]
pub(crate) struct TenantFiles {
    locks: Mutex<HashMap<String, Arc<Mutex<()>>>>,
}

impl TenantFiles {
    /// Runs `f` under `id`'s file lock, then drops the lock's entry if no
    /// other thread holds a handle on it — safe because handles are only
    /// cloned under the map lock, so `strong_count == 2` (map + ours)
    /// proves exclusivity.
    pub(crate) fn locked<T>(&self, id: &str, f: impl FnOnce() -> T) -> T {
        let lock = Arc::clone(self.locks.lock().entry(id.to_owned()).or_default());
        let out = {
            let _guard = lock.lock();
            f()
        };
        let mut map = self.locks.lock();
        if map
            .get(id)
            .is_some_and(|l| Arc::strong_count(l) == 2 && Arc::ptr_eq(l, &lock))
        {
            map.remove(id);
        }
        out
    }

    /// Removes `id`'s store directory under its file lock. The caller
    /// must have stamped the tenant defunct *before* calling, so every
    /// concurrent write either already lost the lock race (its file is
    /// deleted here) or will observe the stamp and skip.
    pub(crate) fn remove(&self, store: &Store, id: &str) -> Result<(), StoreError> {
        self.locked(id, || store.remove_tenant(id))
    }

    /// A handle on `id`'s file lock, so a test can hold it and park a
    /// writer at the door.
    #[cfg(test)]
    pub(crate) fn handle(&self, id: &str) -> Arc<Mutex<()>> {
        Arc::clone(self.locks.lock().entry(id.to_owned()).or_default())
    }
}

/// Why a snapshot is written; named in the event the write publishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cause {
    /// Generation 0, over whatever files an earlier registration left.
    Registration,
    /// `SmartpickService::persist_tenant`.
    Admin,
    /// The worker of this shard crossed `snapshot_every`.
    Cadence(usize),
    /// A final snapshot before the tenant goes cold.
    Eviction,
    /// Recovery's fold of what the log alone could not carry.
    Recovery,
}

impl Cause {
    fn name(self) -> &'static str {
        match self {
            Cause::Registration => "registration",
            Cause::Admin => "admin",
            Cause::Cadence(_) => "cadence",
            Cause::Eviction => "eviction",
            Cause::Recovery => "recovery",
        }
    }
}

/// One consistent cut of a tenant: taken under its driver lock, or
/// before the driver is shared.
#[derive(Debug)]
pub(crate) struct Cut {
    pub(crate) state: DriverState,
    pub(crate) generation: u64,
    pub(crate) watermark: u64,
    /// The applied reports the cut holds that the disk does not: what a
    /// landed write takes off `applied_since_persist`.
    pub(crate) covered: u64,
}

impl Cut {
    /// The cut of a hot tenant whose driver lock the caller holds (the
    /// worker moves generation, watermark and unpersisted count under it).
    pub(crate) fn locked(tenant: &TenantState, driver: &Smartpick) -> Cut {
        Cut {
            state: driver.export_state(),
            generation: tenant.generation.load(Ordering::Relaxed),
            watermark: tenant.applied_watermark.load(Ordering::Relaxed),
            covered: tenant.applied_since_persist.load(Ordering::Relaxed),
        }
    }
}

/// The service's store handle, shared by the façade, the evictor and
/// every retrain worker.
#[derive(Debug)]
pub(crate) struct ServicePersist {
    pub(crate) store: Store,
    pub(crate) cfg: PersistenceConfig,
    pub(crate) metrics: StoreMetrics,
    pub(crate) files: TenantFiles,
    obs: Arc<Observability>,
}

impl ServicePersist {
    pub(crate) fn new(store: Store, cfg: PersistenceConfig, obs: Arc<Observability>) -> Self {
        ServicePersist {
            store,
            cfg,
            metrics: StoreMetrics::register(obs.metrics()),
            files: TenantFiles::default(),
            obs,
        }
    }

    /// Writes `cut` as `tenant`'s newest snapshot — the one door every
    /// snapshot write goes through. Under the tenant's file lock (a
    /// registration's caller holds it already) it checks the defunct
    /// stamp (`Ok(None)`: deregistered, nothing written) and, for a
    /// registration, clears the id's directory first. After a write it
    /// takes `cut.covered` off the tenant's `applied_since_persist` —
    /// reports applied since the cut stay counted, so the next eviction
    /// still persists them — books the bytes and publishes one
    /// `snapshot_persisted` event; a failure publishes one
    /// `store_degraded`. Both name `cause`.
    pub(crate) fn checkpoint(
        &self,
        tenant: &TenantState,
        cut: Cut,
        cause: Cause,
    ) -> Result<Option<u64>, StoreError> {
        let (generation, covered) = (cut.generation, cut.covered);
        let snap = Snapshot {
            tenant: tenant.id.clone(),
            epoch: tenant.epoch,
            generation,
            watermark: cut.watermark,
            state: cut.state,
        };
        let write = || {
            if tenant.defunct.load(Ordering::SeqCst) {
                return Ok(None);
            }
            if cause == Cause::Registration {
                self.store.remove_tenant(&tenant.id)?;
            }
            self.store.persist_snapshot(&snap).map(Some)
        };
        // A registration's caller holds the lock across its insert.
        let written = match cause {
            Cause::Registration => write(),
            _ => self.files.locked(&tenant.id, write),
        };
        let draft = match &written {
            Ok(None) => return written,
            Ok(Some(bytes)) => {
                let _ = tenant.applied_since_persist.fetch_update(
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                    |since| Some(since.saturating_sub(covered)),
                );
                self.metrics.snapshots_persisted.inc();
                self.metrics.snapshot_bytes_written.add(*bytes);
                event(EventKind::SnapshotPersisted).detail(format!(
                    "generation {generation}, {bytes} bytes ({})",
                    cause.name()
                ))
            }
            Err(e) => event(EventKind::StoreDegraded)
                .detail(format!("{} snapshot persist failed: {e}", cause.name())),
        };
        let draft = draft.tenant(&tenant.id);
        self.obs.events().publish(match cause {
            Cause::Cadence(shard) => draft.shard(shard),
            _ => draft,
        });
        written
    }

    /// Loads `id`'s newest snapshot that validates — model included — and
    /// rebuilds its driver bit-exactly: the front half of both crash
    /// recovery and rehydration. Files the store quarantined on the way
    /// are counted and reported; `Err(reason)` means nothing on disk
    /// yields a driver.
    pub(crate) fn load(&self, id: &str) -> Result<(SnapshotMeta, Smartpick), String> {
        let loaded = self
            .store
            .load_snapshot(id)
            .map_err(|e| format!("snapshot load failed: {e}"))?;
        for name in &loaded.quarantined {
            self.metrics.snapshots_quarantined.inc();
            self.obs.events().publish(
                event(EventKind::SnapshotQuarantined)
                    .tenant(id)
                    .detail(format!("{name} failed validation; moved to quarantine/")),
            );
        }
        let snap = loaded
            .snapshot
            .ok_or_else(|| "no snapshot validated at any generation".to_owned())?;
        Ok((snap.meta(), Smartpick::from_state(snap.state)))
    }
}

/// One retrain worker's store handle: the shared one plus the shard's
/// WAL. Rebuilt per spawn attempt (a restarted worker opens a fresh
/// append handle) and owned by that worker's thread alone.
#[derive(Debug)]
pub(crate) struct WorkerPersist {
    pub(crate) sp: Arc<ServicePersist>,
    /// `None` when the WAL could not be opened — the worker then runs
    /// non-durable (a `StoreDegraded` event was emitted at spawn).
    pub(crate) wal: Option<WalWriter>,
    /// Bytes the last rewrite of the shard log kept; 0 until this worker
    /// has made one, so a restarted worker — which cannot know how much
    /// of the log it inherited is live — rewrites at the first chance.
    pub(crate) compacted_len: u64,
}

/// A fresh durability epoch for a registration: wall-clock nanoseconds,
/// so re-registering an id always gets a larger epoch than any record the
/// old registration wrote.
pub(crate) fn tenant_epoch() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// What [`recover`] hands the service it ran for.
#[derive(Debug, Default)]
pub(crate) struct RecoveryOutcome {
    /// Tenants registered, hot or cold.
    pub(crate) tenants: usize,
    /// The valid length of every shard log the scan read, by shard: the
    /// shard's first worker opens its append handle there instead of
    /// reading the file a second time.
    pub(crate) wal_valid_len: HashMap<usize, u64>,
}

/// One tenant's records across every shard log, in shard then file order.
#[derive(Debug, Default)]
struct TenantLog<'a> {
    records: Vec<&'a WalRecord>,
    /// Some of them sit in a log no worker of this service will own.
    orphaned: bool,
}

/// Crash recovery: rebuild every on-disk tenant into `registry`, reading
/// the store and — on a healthy one — writing nothing.
///
/// Runs strictly before the retrain workers spawn. Every shard log is
/// scanned once (torn tails tolerated) and its records grouped by tenant.
/// A tenant no record is past (see [`WalRecord::is_past`]) is idle: it
/// gets a cold slot from its newest snapshot's identity and is not
/// loaded. Any other is loaded from its newest snapshot that validates
/// (corrupt ones are quarantined by the store), restored bit-exactly, and
/// has its records from *every* shard replayed — sorted by run id,
/// deduplicated (at-least-once appends can duplicate) — through the same
/// `apply_sample` the live worker calls, on the same value it logged.
/// Commits past the snapshot's generation reconstruct the published
/// generation count; trailing applied-but-uncommitted reports count as
/// one more publish.
///
/// The log stays as it is: a replayed tenant is registered ahead of its
/// disk, so the snapshot cadence, an eviction or a compaction folds its
/// records later, and a second crash before that replays the same
/// records to the same state. Two cases fold here, by persisting the
/// replayed tenant: a publish reconstructed without its commit (the log
/// alone could not tell it from the next one), and records in a log of
/// shard index >= `workers`, which no worker would ever compact — that
/// file is then removed.
pub(crate) fn recover(
    sp: &ServicePersist,
    registry: &ShardedRegistry,
    now_us: u64,
    workers: usize,
) -> RecoveryOutcome {
    let (store, metrics, obs) = (&sp.store, &sp.metrics, &sp.obs);
    let started = Instant::now();
    let mut outcome = RecoveryOutcome::default();

    // Gather every WAL record, tolerating torn tails per shard.
    let scans = store.scan_wals().unwrap_or_else(|e| {
        obs.events()
            .publish(event(EventKind::StoreDegraded).detail(format!("WAL scan failed: {e}")));
        Vec::new()
    });
    metrics.wal_shard_scans.add(scans.len() as u64);
    // One pass groups them by tenant (shard order, then file order), so
    // each tenant's recovery walks its own records, not the whole log.
    let mut by_tenant: HashMap<&str, TenantLog<'_>> = HashMap::new();
    let mut orphans = Vec::new();
    let mut legacy_reports = 0u64;
    for shard in &scans {
        if let Some(reason) = &shard.scan.torn {
            metrics.torn_tails_dropped.inc();
            obs.events()
                .publish(
                    event(EventKind::TornTailDropped)
                        .shard(shard.shard)
                        .detail(format!(
                            "kept {} bytes, {} records; dropped tail: {reason}",
                            shard.scan.valid_len,
                            shard.scan.records.len()
                        )),
                );
        }
        let orphan = shard.shard >= workers;
        if orphan {
            orphans.push(shard.shard);
        } else if shard.scan.valid_len >= WAL_MAGIC.len() as u64 {
            // The magic checked out, so the length is that of a real
            // prefix; anything less is left to `Store::open_wal`.
            outcome
                .wal_valid_len
                .insert(shard.shard, shard.scan.valid_len);
        }
        for record in &shard.scan.records {
            if matches!(record.payload, WalPayload::Report { .. }) {
                legacy_reports += 1;
            } else {
                let log = by_tenant.entry(&record.tenant).or_default();
                log.records.push(record);
                log.orphaned |= orphan;
            }
        }
    }
    if legacy_reports > 0 {
        obs.events()
            .publish(event(EventKind::StoreDegraded).detail(format!(
                "{legacy_reports} legacy JSON report records (WAL kind 0x01) not replayed: \
                 this build replays kind 0x03 only"
            )));
    }

    let tenant_ids = match store.tenant_ids() {
        Ok(ids) => ids,
        Err(e) => {
            obs.events().publish(
                event(EventKind::StoreDegraded).detail(format!("tenant listing failed: {e}")),
            );
            Vec::new()
        }
    };

    let empty = TenantLog::default();
    let mut all_folded = true;
    for id in tenant_ids {
        let log = by_tenant.get(id.as_str()).unwrap_or(&empty);
        match recover_tenant(sp, registry, now_us, &id, log) {
            Ok(folded) => {
                outcome.tenants += 1;
                all_folded &= folded;
            }
            Err(why) => {
                obs.events().publish(
                    event(EventKind::TenantUnrecoverable)
                        .tenant(&id)
                        .detail(why),
                );
            }
        }
    }

    // Every live record of the orphaned logs is in a snapshot now; left
    // in place they would be scanned at every open and compacted at none.
    if all_folded {
        for shard in orphans {
            if let Err(e) = store.remove_wal(shard) {
                obs.events().publish(
                    event(EventKind::StoreDegraded)
                        .shard(shard)
                        .detail(format!("orphaned WAL removal failed: {e}")),
                );
            }
        }
    }
    metrics
        .recovery_duration_us
        .set(started.elapsed().as_micros() as i64);
    outcome
}

/// One tenant's recovery: a cold slot if `log` holds nothing past its
/// newest snapshot, else load + replay into a hot one. `Ok(false)` means a
/// fold that was due did not land (the tenant serves, ahead of its disk);
/// `Err(reason)` means unrecoverable (the caller emits the event); the
/// service still starts.
fn recover_tenant(
    sp: &ServicePersist,
    registry: &ShardedRegistry,
    now_us: u64,
    id: &str,
    log: &TenantLog<'_>,
) -> Result<bool, String> {
    let (metrics, obs) = (&sp.metrics, &sp.obs);
    // A meta that cannot be read leaves the verdict — and the quarantine
    // — to the load below.
    if let Ok(Some(meta)) = sp.store.snapshot_meta(id) {
        if !log.records.iter().any(|r| r.is_past(&meta)) {
            let floors = ColdMeta {
                generation: meta.generation,
                epoch: meta.epoch,
                watermark: meta.watermark,
                next_run_id: meta.watermark,
            };
            registry
                .insert_cold(id.to_owned(), floors)
                .map_err(|e| format!("registry insert failed: {e}"))?;
            metrics.recovery_tenants_cold.inc();
            return Ok(true);
        }
    }

    let (loaded, mut driver) = sp.load(id)?;
    obs.events()
        .publish(event(EventKind::SnapshotLoaded).tenant(id).detail(format!(
            "generation {}, watermark {}",
            loaded.generation, loaded.watermark
        )));

    // This tenant's records (`log` holds no one else's) past the snapshot
    // that loaded, in canonical replay order: samples sorted by run id
    // and deduplicated (a worker that panicked mid-batch appends its
    // rescued batch again on restart — at-least-once on disk,
    // exactly-once through the model).
    let replay_start = Instant::now();
    let mut samples: Vec<(u64, &RunSample)> = Vec::new();
    let mut commits: Vec<(u64, u64)> = Vec::new();
    for record in log.records.iter().filter(|r| r.is_past(&loaded)) {
        match &record.payload {
            WalPayload::Sample { run_id, sample } => samples.push((*run_id, sample)),
            WalPayload::Commit {
                generation,
                watermark,
            } => commits.push((*generation, *watermark)),
            // Counted and reported by `recover`, which hands none on.
            WalPayload::Report { .. } => {}
        }
    }
    samples.sort_by_key(|(run_id, _)| *run_id);
    samples.dedup_by_key(|(run_id, _)| *run_id);

    let mut watermark = loaded.watermark;
    let replayed = samples.len() as u64;
    let mut failed = 0u64;
    for (run_id, sample) in samples {
        if driver.apply_sample(sample).is_err() {
            failed += 1;
        }
        // The record was consumed either way; the watermark tracks
        // consumption, exactly as the live path's does.
        watermark = watermark.max(run_id);
    }
    metrics.wal_records_replayed.add(replayed);
    metrics.recovery_tenants_replayed.inc();

    // Reconstruct the published generation: commits the replayed
    // watermark actually covers, plus one publish for any trailing
    // applied-but-uncommitted reports.
    let mut generation = loaded.generation;
    let mut committed_wm = loaded.watermark;
    for (commit_gen, commit_wm) in commits {
        if commit_wm <= watermark && commit_gen > generation {
            generation = commit_gen;
            committed_wm = committed_wm.max(commit_wm);
        }
    }
    let uncommitted = watermark > committed_wm;
    if uncommitted {
        generation += 1;
    }
    obs.events().publish(
        event(EventKind::WalReplayed)
            .tenant(id)
            .duration(replay_start.elapsed())
            .detail(format!(
                "{replayed} reports replayed ({failed} failed), watermark {watermark}, generation {generation}"
            )),
    );

    // Exported before the driver moves into the registry, and only for a
    // fold (see `recover`).
    let fold = (uncommitted || log.orphaned).then(|| driver.export_state());
    let floors = ColdMeta {
        generation,
        epoch: loaded.epoch,
        watermark,
        next_run_id: watermark,
    };
    let state = registry
        .insert(TenantState::new(
            id.to_owned(),
            driver,
            now_us,
            Arc::default(),
            floors,
        ))
        .map_err(|e| format!("registry insert failed: {e}"))?;
    // Ahead of its disk by what was replayed: the cadence counts it, and
    // an eviction persists before it lets the state go.
    let ahead = replayed.max(1);
    state.applied_since_persist.store(ahead, Ordering::Relaxed);

    let Some(fresh) = fold else { return Ok(true) };
    let cut = Cut {
        state: fresh,
        generation,
        watermark,
        covered: ahead,
    };
    Ok(matches!(
        sp.checkpoint(&state, cut, Cause::Recovery),
        Ok(Some(_))
    ))
}
