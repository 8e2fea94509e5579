//! The sharded tenant registry and its tiered-residency slots.
//!
//! Tenants are hash-routed across N independent shards, each a
//! `parking_lot::RwLock<HashMap<...>>`, so registry traffic scales with
//! tenants instead of funnelling through one global lock. Lookups take a
//! shard read lock only long enough to clone the tenant's slot `Arc` out
//! — no caller ever holds a shard lock across a prediction or a
//! retrain.
//!
//! ## Residency
//!
//! Each registered tenant occupies a [`TenantSlot`] carrying a
//! [`Residency`] state machine:
//!
//! * **Hot** — the full [`TenantState`] (forest snapshot + driver) is
//!   resident; the read path clones the `Arc` out.
//! * **Cold** — the heavy state has been dropped after a final snapshot
//!   persist; only [`ColdMeta`] (generation/epoch/watermark/run-id
//!   floors) remains in memory. ~2.7 KiB on disk, ~nothing in RAM.
//! * **Rehydrating** — one caller is loading the newest snapshot back
//!   through `crates/store`; the transition is **single-flight**:
//!   concurrent callers block on the slot's condvar until the one
//!   rehydration completes (or fails back to Cold).
//!
//! The slot keeps the tenant's identity — its id, its counters, and a
//! defunct flag — across residency transitions, so a cold tenant is
//! indistinguishable from a hot one at every public API except latency
//! and the scrape, which lists resident tenants only (ARCHITECTURE.md
//! invariant #9).

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, RwLock};
use smartpick_core::driver::Smartpick;
use smartpick_core::wp::WorkloadPredictor;

use crate::error::ServiceError;
use crate::stats::TenantCounters;

/// One tenant's live (hot) state.
///
/// The read path touches only `snapshot` (an `RwLock` held for the
/// nanoseconds an `Arc` clone takes) and the atomic counters; the
/// `driver` mutex is taken exclusively by the retrain worker (and by
/// admin operations like eviction and deregistration).
#[derive(Debug)]
pub(crate) struct TenantState {
    /// The tenant id.
    pub(crate) id: String,
    /// The published immutable prediction snapshot readers run against.
    pub(crate) snapshot: RwLock<Arc<WorkloadPredictor>>,
    /// The training-side driver, owned by the retrain worker.
    pub(crate) driver: Mutex<Smartpick>,
    /// The tenant's configured cost–performance knob ε.
    pub(crate) knob: f64,
    /// Hot-path counters, the slot's own: they outlive this state across
    /// evict/rehydrate cycles and are scraped as `tenant.<id>.*` rows
    /// while it is resident.
    pub(crate) counters: Arc<TenantCounters>,
    /// Reports accepted but not yet applied: the quota level and the
    /// eviction pin (only a state with none is evicted).
    pub(crate) pending: AtomicUsize,
    /// Snapshots published so far (0 = registration snapshot).
    pub(crate) generation: AtomicU64,
    /// Publication instant, µs since the service epoch.
    pub(crate) published_at_us: AtomicU64,
    /// Whether a `StalenessFlagged` event has been emitted for the
    /// current stale episode (reset on every snapshot republish, so each
    /// episode yields one event, not one per prediction).
    pub(crate) stale_flagged: AtomicBool,
    /// This registration's durability epoch (nanoseconds at registration,
    /// or the recovered snapshot's). Stamped into every snapshot and WAL
    /// record so replay can discard records from an earlier registration
    /// of the same id.
    pub(crate) epoch: u64,
    /// The last run id handed out by `enqueue_report` (ids start at 1;
    /// 0 means "none yet").
    pub(crate) next_run_id: AtomicU64,
    /// The highest run id a retrain worker has consumed for this tenant —
    /// the watermark stamped into WAL commits and persisted snapshots.
    pub(crate) applied_watermark: AtomicU64,
    /// Reports applied since the last persisted snapshot; drives the
    /// `snapshot_every` persistence cadence, and an eviction persists
    /// first while it is above 0. A snapshot write takes off only what
    /// its cut covered.
    pub(crate) applied_since_persist: AtomicU64,
    /// Set by `deregister_tenant` **before** the store directory is
    /// removed. The worker's WAL appends skip a defunct tenant, and every
    /// snapshot write (`ServicePersist::checkpoint`) checks the stamp
    /// once, inside the tenant's file lock that the removal also takes —
    /// so a worker mid-batch can never resurrect `tenants/<id>/` for a
    /// tenant the operator deleted.
    pub(crate) defunct: AtomicBool,
    /// Set while the eviction sweep is draining this state. Enqueuers
    /// bump `pending` *then* check this flag; the evictor sets it *then*
    /// checks `pending` (both `SeqCst`), so one side always sees the other
    /// — a report can never be queued against a state whose slot just went
    /// cold without the enqueuer retrying against the rehydrated state.
    pub(crate) retired: AtomicBool,
    /// Last read-path touch, µs since the service epoch — the LRU clock
    /// hand the eviction sweep orders candidates by.
    pub(crate) last_touch_us: AtomicU64,
}

impl TenantState {
    /// A hot state around `driver`, starting from `floors`: a
    /// registration's are [`ColdMeta::fresh`]; a state rebuilt from a
    /// persisted snapshot carries that snapshot's (and, on rehydration,
    /// the cold slot's), so generation stays monotone and no run id is
    /// reissued within the epoch.
    pub(crate) fn new(
        id: String,
        driver: Smartpick,
        now_us: u64,
        counters: Arc<TenantCounters>,
        floors: ColdMeta,
    ) -> Self {
        TenantState {
            snapshot: RwLock::new(driver.snapshot()),
            knob: driver.properties().knob,
            driver: Mutex::new(driver),
            id,
            counters,
            pending: AtomicUsize::new(0),
            generation: AtomicU64::new(floors.generation),
            published_at_us: AtomicU64::new(now_us),
            stale_flagged: AtomicBool::new(false),
            epoch: floors.epoch,
            next_run_id: AtomicU64::new(floors.next_run_id),
            applied_watermark: AtomicU64::new(floors.watermark),
            applied_since_persist: AtomicU64::new(0),
            defunct: AtomicBool::new(false),
            retired: AtomicBool::new(false),
            last_touch_us: AtomicU64::new(now_us),
        }
    }

    /// Clones the current snapshot out (the lock is held only for the
    /// `Arc` bump).
    pub(crate) fn read_snapshot(&self) -> Arc<WorkloadPredictor> {
        Arc::clone(&self.snapshot.read())
    }

    /// Publishes a fresh snapshot from the driver's current model.
    pub(crate) fn publish_snapshot(&self, snapshot: Arc<WorkloadPredictor>, now_us: u64) {
        *self.snapshot.write() = snapshot;
        self.generation.fetch_add(1, Ordering::Relaxed);
        self.published_at_us.store(now_us, Ordering::Relaxed);
        // A fresh snapshot ends any stale episode; the next one gets its
        // own event.
        self.stale_flagged.store(false, Ordering::Relaxed);
    }
}

/// What a cold slot remembers about its tenant: the floors a rehydration
/// restores so generation stays monotone and run ids are never reissued
/// within an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ColdMeta {
    /// Published generation at eviction time.
    pub(crate) generation: u64,
    /// The registration's durability epoch.
    pub(crate) epoch: u64,
    /// Highest consumed run id at eviction time.
    pub(crate) watermark: u64,
    /// Highest *issued* run id at eviction time (≥ watermark; quota
    /// rejections burn ids without consuming them).
    pub(crate) next_run_id: u64,
}

impl ColdMeta {
    /// The floors of a brand-new registration.
    pub(crate) fn fresh(epoch: u64) -> ColdMeta {
        ColdMeta {
            generation: 0,
            epoch,
            watermark: 0,
            next_run_id: 0,
        }
    }
}

/// Where a tenant's heavy state currently lives. See the module docs.
#[derive(Debug)]
pub(crate) enum Residency {
    /// Resident: full state in memory.
    Hot(Arc<TenantState>),
    /// Evicted: only the floors remain; the newest persisted snapshot is
    /// the state of record.
    Cold(ColdMeta),
    /// One caller is loading the snapshot back; everyone else waits.
    Rehydrating,
}

/// What [`TenantSlot::acquire`] resolved to.
pub(crate) enum Acquired {
    /// The tenant is hot; here is its state.
    Hot(Arc<TenantState>),
    /// The tenant was cold and *this caller* now owns the single-flight
    /// rehydration: it must call [`TenantSlot::finish_rehydrate`] or
    /// [`TenantSlot::abort_rehydrate`] (the service wraps this in a
    /// drop guard so a failed load can never strand waiters).
    MustRehydrate(ColdMeta),
}

/// One registered tenant's registry slot: the [`Residency`] state
/// machine plus the identity that survives residency transitions.
///
/// The single-flight protocol parks late arrivals on a [`Condvar`]; the
/// residency mutex is held only for state inspection/transition — never
/// across the snapshot load I/O. Every transition writes a whole
/// `Residency` value, so the cell stays valid when the shim hands a
/// panicking holder's lock to the next caller.
#[derive(Debug)]
pub(crate) struct TenantSlot {
    /// The tenant id.
    pub(crate) id: String,
    /// The tenant's counters, owned here: shared with the hot state and
    /// reused across rehydrations, so stats never run backwards over an
    /// evict/rehydrate cycle. Nothing else names them — they are scraped
    /// through whichever slot the registry holds and die with it.
    pub(crate) counters: Arc<TenantCounters>,
    /// Set when the slot is deregistered; a rehydration completing
    /// against a defunct slot stamps its state defunct too, so late
    /// persistence is suppressed.
    pub(crate) defunct: AtomicBool,
    residency: Mutex<Residency>,
    rehydrated: Condvar,
}

impl TenantSlot {
    fn new(id: String, counters: Arc<TenantCounters>, residency: Residency) -> Self {
        TenantSlot {
            id,
            counters,
            defunct: AtomicBool::new(false),
            residency: Mutex::new(residency),
            rehydrated: Condvar::new(),
        }
    }

    /// Resolves the slot: returns the hot state, or claims the
    /// single-flight rehydration for this caller, blocking while another
    /// caller's rehydration is in flight.
    pub(crate) fn acquire(&self) -> Acquired {
        let mut cell = self.residency.lock();
        loop {
            match &*cell {
                Residency::Hot(state) => return Acquired::Hot(Arc::clone(state)),
                Residency::Cold(meta) => {
                    let meta = *meta;
                    *cell = Residency::Rehydrating;
                    return Acquired::MustRehydrate(meta);
                }
                Residency::Rehydrating => self.rehydrated.wait(&mut cell),
            }
        }
    }

    /// Completes a claimed rehydration: publishes `state` as hot and
    /// wakes every waiter. Returns whether the slot had been
    /// deregistered meanwhile (in which case `state` is stamped defunct
    /// — waiters still get a servable state, but nothing will persist
    /// for it).
    pub(crate) fn finish_rehydrate(&self, state: Arc<TenantState>) -> bool {
        let defunct = self.defunct.load(Ordering::SeqCst);
        if defunct {
            state.defunct.store(true, Ordering::SeqCst);
        }
        *self.residency.lock() = Residency::Hot(state);
        self.rehydrated.notify_all();
        defunct
    }

    /// Aborts a claimed rehydration (load failure): restores `Cold` so
    /// the next caller gets its own attempt, and wakes waiters.
    pub(crate) fn abort_rehydrate(&self, meta: ColdMeta) {
        *self.residency.lock() = Residency::Cold(meta);
        self.rehydrated.notify_all();
    }

    /// Transitions Hot → Cold, but only if the slot still holds exactly
    /// `expect` (a concurrent deregister + re-register swaps the state
    /// out; going cold then would throw away the *new* tenant).
    pub(crate) fn make_cold(&self, expect: &Arc<TenantState>, meta: ColdMeta) -> bool {
        let mut cell = self.residency.lock();
        match &*cell {
            Residency::Hot(state) if Arc::ptr_eq(state, expect) => {
                *cell = Residency::Cold(meta);
                true
            }
            _ => false,
        }
    }

    /// The hot state, if resident right now (no waiting, no claiming).
    pub(crate) fn peek_hot(&self) -> Option<Arc<TenantState>> {
        match &*self.residency.lock() {
            Residency::Hot(state) => Some(Arc::clone(state)),
            _ => None,
        }
    }

    /// Claims this slot's teardown: the first caller wins (`true`; the
    /// hot state, if any, gets its own defunct stamp); every later
    /// caller gets `false` — the id reads as unknown while the winner
    /// completes the teardown. The stamp precedes the store-directory
    /// removal, which precedes the registry entry removal: persists are
    /// fenced by the stamp, and the id only becomes re-registrable once
    /// its files are gone.
    pub(crate) fn claim_defunct(&self) -> bool {
        if self.defunct.swap(true, Ordering::SeqCst) {
            return false;
        }
        if let Some(state) = self.peek_hot() {
            state.defunct.store(true, Ordering::SeqCst);
        }
        true
    }
}

/// The tenant hash every sharded structure routes by — the registry's
/// shards and the retrain workers' queue shards use this same function,
/// so "which worker retrains tenant X" is as stable and uniform as
/// "which registry shard holds tenant X".
pub(crate) fn tenant_hash(id: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    id.hash(&mut hasher);
    hasher.finish()
}

/// One registry shard: an independently locked slice of the tenant map.
type Shard = RwLock<HashMap<String, Arc<TenantSlot>>>;

/// Hash-routed shards of tenant slots.
#[derive(Debug)]
pub(crate) struct ShardedRegistry {
    shards: Box<[Shard]>,
}

impl ShardedRegistry {
    pub(crate) fn new(shards: usize) -> Self {
        assert!(shards > 0, "at least one shard required");
        ShardedRegistry {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, id: &str) -> &Shard {
        // lint:allow(panic-free-server-paths, reason = "index is modulo shards.len() on the same line")
        &self.shards[(tenant_hash(id) as usize) % self.shards.len()]
    }

    /// Inserts a new tenant as a hot slot; rejects duplicates. Returns
    /// the inserted state so callers can run post-insert steps (the
    /// registration snapshot) against exactly it.
    pub(crate) fn insert(&self, state: TenantState) -> Result<Arc<TenantState>, ServiceError> {
        let state = Arc::new(state);
        self.insert_slot(TenantSlot::new(
            state.id.clone(),
            Arc::clone(&state.counters),
            Residency::Hot(Arc::clone(&state)),
        ))?;
        Ok(state)
    }

    /// Inserts a tenant whose state stays on disk — recovery's slot for a
    /// tenant no log record is past: `meta` is its newest snapshot's
    /// identity, and its first touch rehydrates as after an eviction.
    pub(crate) fn insert_cold(&self, id: String, meta: ColdMeta) -> Result<(), ServiceError> {
        self.insert_slot(TenantSlot::new(id, Arc::default(), Residency::Cold(meta)))
    }

    fn insert_slot(&self, slot: TenantSlot) -> Result<(), ServiceError> {
        match self.shard(&slot.id).write().entry(slot.id.clone()) {
            Entry::Occupied(_) => Err(ServiceError::TenantExists(slot.id)),
            Entry::Vacant(entry) => {
                entry.insert(Arc::new(slot));
                Ok(())
            }
        }
    }

    /// Looks a tenant's slot up, cloning its `Arc` out of the shard.
    pub(crate) fn slot(&self, id: &str) -> Result<Arc<TenantSlot>, ServiceError> {
        self.shard(id)
            .read()
            .get(id)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownTenant(id.to_owned()))
    }

    /// Removes a tenant, returning its slot (whatever its residency).
    pub(crate) fn remove(&self, id: &str) -> Result<Arc<TenantSlot>, ServiceError> {
        self.shard(id)
            .write()
            .remove(id)
            .ok_or_else(|| ServiceError::UnknownTenant(id.to_owned()))
    }

    /// All tenant ids (sorted, for stable output).
    pub(crate) fn ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.read().keys().cloned().collect::<Vec<_>>())
            .collect();
        ids.sort();
        ids
    }

    /// Every currently-hot tenant, with its slot (the eviction sweep's
    /// candidate list and the scrape's tenant rows). Shard locks are
    /// held only to clone slot `Arc`s out; each slot is then peeked
    /// under its own mutex.
    pub(crate) fn resident(&self) -> Vec<(Arc<TenantSlot>, Arc<TenantState>)> {
        let slots: Vec<Arc<TenantSlot>> = self
            .shards
            .iter()
            .flat_map(|s| s.read().values().cloned().collect::<Vec<_>>())
            .collect();
        slots
            .into_iter()
            .filter_map(|slot| slot.peek_hot().map(|state| (slot, state)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registry mechanics are exercised with a `None`-driver stand-in;
    /// full-driver behaviour is covered by the crate's integration tests.
    fn registry() -> ShardedRegistry {
        ShardedRegistry::new(8)
    }

    #[test]
    fn shard_routing_is_stable_and_total() {
        let r = registry();
        // The same id must land on the same shard every time.
        for id in ["a", "tenant-42", "z"] {
            assert!(std::ptr::eq(r.shard(id), r.shard(id)));
        }
        assert!(r.ids().is_empty());
        assert!(matches!(
            r.slot("missing"),
            Err(ServiceError::UnknownTenant(_))
        ));
        assert!(matches!(
            r.remove("missing"),
            Err(ServiceError::UnknownTenant(_))
        ));
        assert!(r.resident().is_empty());
    }
}
