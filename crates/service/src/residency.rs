//! Tiered tenant residency: the eviction sweep and the rehydration path.
//!
//! With [`crate::ServiceConfig::max_resident_tenants`] set (it requires
//! persistence), the service's sweep thread runs [`ResidencyCtl::sweep`]
//! once per tick: it orders resident tenants by last touch (LRU) and
//! evicts the least-recently-used excess over the cap. Eviction persists
//! a final snapshot and drops the tenant's forest + driver, leaving only
//! [`ColdMeta`] in the registry slot; the first subsequent touch
//! rehydrates from the newest snapshot through `crates/store`,
//! single-flight per tenant.
//!
//! ## Why eviction cannot lose a report
//!
//! The evictor and the enqueuer run a Dekker-style handshake over two
//! `SeqCst` flags: the enqueuer bumps `pending` *then* reads `retired`;
//! the evictor stores `retired = true` *then* reads `pending`. One side
//! always observes the other — either the enqueuer backs out (and retries
//! against the rehydrated state), or the evictor sees pending work and
//! aborts. A tenant with `pending > 0` is **pinned hot**: its retrain
//! worker holds queued reports that must commit against this driver
//! instance. The evictor additionally takes the driver via `try_lock`, so
//! a worker mid-apply is simply skipped this sweep, never blocked.
//!
//! ## Why eviction cannot resurrect a deregistered tenant
//!
//! The evict-time snapshot goes through `ServicePersist::checkpoint`,
//! which checks the `defunct` stamp once, inside the tenant's file lock
//! that deregistration's directory removal also takes: the write either
//! lands before the removal (and is deleted with the directory) or is
//! skipped. See `docs/PERSISTENCE.md` ("Residency").

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use smartpick_obs::{event, Counter, EventKind, LatencyHistogram, Observability};

use crate::error::ServiceError;
use crate::persist::{Cause, Cut, ServicePersist};
use crate::registry::{Acquired, ColdMeta, ShardedRegistry, TenantSlot, TenantState};

/// The residency controller: owns the eviction cap, the
/// `service.residency.*` metrics, and the rehydration path. One per
/// service, shared with its sweep thread.
#[derive(Debug)]
pub(crate) struct ResidencyCtl {
    registry: Arc<ShardedRegistry>,
    persist: Option<Arc<ServicePersist>>,
    obs: Arc<Observability>,
    max_resident: Option<usize>,
    /// The service epoch `last_touch_us` stamps are measured against.
    epoch: Instant,
    evictions: Arc<Counter>,
    rehydrations: Arc<Counter>,
    rehydrate_failures: Arc<Counter>,
    rehydrate_latency: Arc<LatencyHistogram>,
}

impl ResidencyCtl {
    /// Builds the controller (always — metrics are registered even when
    /// no limits are configured, so dashboards see zeros instead of
    /// holes).
    pub(crate) fn new(
        registry: Arc<ShardedRegistry>,
        persist: Option<Arc<ServicePersist>>,
        obs: Arc<Observability>,
        max_resident: Option<usize>,
        epoch: Instant,
    ) -> Self {
        let metrics = obs.metrics();
        ResidencyCtl {
            evictions: metrics.counter("service.residency.evictions"),
            rehydrations: metrics.counter("service.residency.rehydrations"),
            rehydrate_failures: metrics.counter("service.residency.rehydrate_failures"),
            rehydrate_latency: metrics.histogram("service.residency.rehydrate_latency"),
            registry,
            persist,
            obs,
            max_resident,
            epoch,
        }
    }

    /// Whether a residency cap is configured (the service runs a sweep
    /// thread only then).
    pub(crate) fn sweeps_enabled(&self) -> bool {
        self.max_resident.is_some()
    }

    /// Limits configured but no working store: eviction cannot run
    /// (nothing durable to rehydrate from), so residency is paused —
    /// surfaced as a health reason.
    pub(crate) fn paused(&self) -> bool {
        self.sweeps_enabled() && self.persist.is_none()
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    // ---------------------------------------------------------------
    // Resolution (the read side)
    // ---------------------------------------------------------------

    /// Resolves `tenant` to a servable state, transparently rehydrating
    /// a cold tenant from its newest snapshot (single-flight: concurrent
    /// callers block on the one in-flight load). Stamps the LRU touch
    /// clock.
    pub(crate) fn resolve(&self, tenant: &str) -> Result<Arc<TenantState>, ServiceError> {
        let slot = self.registry.slot(tenant)?;
        let state = match slot.acquire() {
            Acquired::Hot(state) => state,
            Acquired::MustRehydrate(meta) => self.rehydrate(&slot, meta)?,
        };
        state.last_touch_us.store(self.now_us(), Ordering::Relaxed);
        Ok(state)
    }

    /// [`ResidencyCtl::resolve`] for a caller that must not block: the hot
    /// state (touch clock stamped, as any read does), or `None` for
    /// anything the blocking resolve would have to claim, wait for or load
    /// — a cold or rehydrating tenant — and for an unknown one, whose
    /// typed error is the blocking path's to give.
    pub(crate) fn resolve_hot(&self, tenant: &str) -> Option<Arc<TenantState>> {
        let state = self.registry.slot(tenant).ok()?.peek_hot()?;
        state.last_touch_us.store(self.now_us(), Ordering::Relaxed);
        Some(state)
    }

    /// Loads the newest snapshot back into a hot state. The caller owns
    /// the slot's `Rehydrating` claim; any early return (or panic) must
    /// restore `Cold` so waiters are never stranded — the `AbortOnDrop`
    /// guard does that until the load succeeds.
    fn rehydrate(
        &self,
        slot: &Arc<TenantSlot>,
        meta: ColdMeta,
    ) -> Result<Arc<TenantState>, ServiceError> {
        let mut guard = AbortOnDrop {
            slot,
            meta,
            armed: true,
        };
        // A deregistered slot has no files to load (the store directory
        // is removed); fail as the lookup would have.
        if slot.defunct.load(Ordering::SeqCst) {
            return Err(ServiceError::UnknownTenant(slot.id.clone()));
        }
        let Some(sp) = &self.persist else {
            // Unreachable by construction (Cold requires a persist to
            // have happened), kept as a typed failure instead of a panic.
            return Err(ServiceError::Store("persistence not configured".into()));
        };
        let started = Instant::now();
        let (snap, driver) = sp
            .load(&slot.id)
            .map_err(|why| self.note_rehydrate_failure(slot, why))?;
        // The floors: generation stays monotone across the
        // evict/rehydrate cycle (a worker may have persisted past the
        // evict-time generation; take the max of both records), and run
        // ids issued before eviction — including ids *burned* by queue
        // rejections, which never reach the WAL — are never reissued
        // within the epoch.
        let floors = ColdMeta {
            generation: snap.generation.max(meta.generation),
            epoch: snap.epoch,
            watermark: snap.watermark,
            next_run_id: snap.watermark.max(meta.next_run_id),
        };
        let state = Arc::new(TenantState::new(
            slot.id.clone(),
            driver,
            self.now_us(),
            Arc::clone(&slot.counters),
            floors,
        ));

        guard.armed = false;
        slot.finish_rehydrate(Arc::clone(&state));
        self.rehydrations.inc();
        self.rehydrate_latency.record(started.elapsed());
        self.obs.events().publish(
            event(EventKind::TenantRehydrated)
                .tenant(&slot.id)
                .duration(started.elapsed())
                .detail(format!(
                    "generation {}, watermark {}",
                    floors.generation, floors.watermark
                )),
        );
        Ok(state)
    }

    /// Counts + reports one failed rehydration and returns the typed
    /// error (the slot goes back to `Cold` via the caller's drop guard,
    /// so the next touch retries the load).
    ///
    /// A load that failed because a concurrent deregistration removed
    /// the files is not a failure at all: deregistration stamps the slot
    /// defunct *before* the removal, so re-checking the stamp here
    /// deterministically separates "tenant torn down under us" (report
    /// it as unknown, like the lookup would have) from genuine store
    /// corruption.
    fn note_rehydrate_failure(&self, slot: &TenantSlot, why: String) -> ServiceError {
        if slot.defunct.load(Ordering::SeqCst) {
            return ServiceError::UnknownTenant(slot.id.clone());
        }
        self.rehydrate_failures.inc();
        self.obs.events().publish(
            event(EventKind::StoreDegraded)
                .tenant(&slot.id)
                .detail(why.clone()),
        );
        ServiceError::Store(why)
    }

    // ---------------------------------------------------------------
    // Eviction (the sweep side)
    // ---------------------------------------------------------------

    /// One residency sweep: evicts the least-recently-touched excess over
    /// the cap. Run by the sweep thread once per tick, and by
    /// `residency_sweep` on the caller's thread. Never blocks on a driver
    /// lock and never panics.
    pub(crate) fn sweep(&self) {
        let (Some(sp), Some(max)) = (&self.persist, self.max_resident) else {
            return;
        };
        let mut resident = self.registry.resident();
        if resident.len() <= max {
            return;
        }
        // LRU: oldest touch first; evict only the excess. Each stamp is
        // read once — concurrent touches move them, and a key that
        // changes between comparisons is not a total order (the sort may
        // panic on one).
        resident.sort_by_cached_key(|(_, state)| state.last_touch_us.load(Ordering::Relaxed));
        let excess = resident.len() - max;
        let mut evicted = 0usize;
        for (slot, state) in resident {
            if evicted >= excess {
                break;
            }
            if self.try_evict(sp, &slot, &state, "capacity") {
                evicted += 1;
            }
        }
    }

    /// Operator hook: evict one tenant now, regardless of policy.
    /// `Ok(false)` means the tenant stayed hot (pinned by pending
    /// reports, mid-apply, already cold, or being deregistered).
    pub(crate) fn evict(&self, tenant: &str) -> Result<bool, ServiceError> {
        let Some(sp) = &self.persist else {
            return Err(ServiceError::Store("persistence not configured".into()));
        };
        let slot = self.registry.slot(tenant)?;
        let Some(state) = slot.peek_hot() else {
            return Ok(false);
        };
        Ok(self.try_evict(sp, &slot, &state, "operator"))
    }

    /// Attempts to take one hot tenant cold. Non-blocking and strictly
    /// best-effort: any contention (pending reports, driver mid-apply,
    /// concurrent deregistration, persist failure, slot swapped by a
    /// re-registration) leaves the tenant hot and returns `false`.
    fn try_evict(
        &self,
        sp: &ServicePersist,
        slot: &Arc<TenantSlot>,
        state: &Arc<TenantState>,
        why: &str,
    ) -> bool {
        // Deregistration owns this tenant's teardown.
        if slot.defunct.load(Ordering::SeqCst) || state.defunct.load(Ordering::SeqCst) {
            return false;
        }
        // Pinned: a retrain worker holds queued reports for this state.
        if state.pending.load(Ordering::SeqCst) > 0 {
            return false;
        }
        // The Dekker handshake: publish retirement, then re-check pending.
        // An enqueuer that slipped in between bumped pending first and
        // will now observe `retired` (or we observe its bump here).
        state.retired.store(true, Ordering::SeqCst);
        if state.pending.load(Ordering::SeqCst) > 0 {
            state.retired.store(false, Ordering::SeqCst);
            return false;
        }
        // A worker mid-apply holds the driver; skip, don't wait.
        let Some(driver) = state.driver.try_lock() else {
            state.retired.store(false, Ordering::SeqCst);
            return false;
        };
        let generation = state.generation.load(Ordering::Relaxed);
        let watermark = state.applied_watermark.load(Ordering::Relaxed);
        let next_run_id = state.next_run_id.load(Ordering::Relaxed);
        // A final snapshot is only due if something was applied since
        // the last persist; otherwise the disk already holds exactly
        // this state and eviction is free (the common case for the idle
        // long tail a residency cap exists for). The write finishes under
        // the driver lock, so no apply can slip past it. A deregistration
        // that got in first (`Ok(None)`) owns the teardown, and what
        // cannot be written cannot be rehydrated (`Err`): either way the
        // tenant stays hot.
        let stays_hot = if state.applied_since_persist.load(Ordering::Relaxed) > 0 {
            let cut = Cut::locked(state, &driver);
            !matches!(sp.checkpoint(state, cut, Cause::Eviction), Ok(Some(_)))
        } else {
            // Deregistration may have landed since the first check.
            state.defunct.load(Ordering::SeqCst)
        };
        drop(driver);
        if stays_hot {
            state.retired.store(false, Ordering::SeqCst);
            return false;
        }
        let meta = ColdMeta {
            generation,
            epoch: state.epoch,
            watermark,
            next_run_id,
        };
        if !slot.make_cold(state, meta) {
            // The slot no longer holds this state (deregister +
            // re-register); the orphaned state just dies with our Arc.
            state.retired.store(false, Ordering::SeqCst);
            return false;
        }
        self.evictions.inc();
        self.obs
            .events()
            .publish(
                event(EventKind::TenantEvicted)
                    .tenant(&state.id)
                    .detail(format!(
                        "{why}; generation {generation}, watermark {watermark}"
                    )),
            );
        true
    }
}

/// Restores `Cold` if a claimed rehydration unwinds before publishing —
/// waiters blocked in `acquire` must never be stranded on a claim whose
/// owner is gone.
struct AbortOnDrop<'a> {
    slot: &'a TenantSlot,
    meta: ColdMeta,
    armed: bool,
}

impl Drop for AbortOnDrop<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.slot.abort_rehydrate(self.meta);
        }
    }
}
