//! Fixture for the residency module's concurrency idioms. Never
//! compiled — lexed by `rules_fixtures.rs` as if it were
//! `crates/service/src/residency.rs`, proving the crate-scoped rules
//! cover the eviction/rehydration patterns: the Dekker pending/retired
//! handshake must not hold a driver guard across blocking work, the
//! rehydration condvar wait is exempt by design, and a slot lock is
//! never a `std::sync` one. Markers are `POSITIVE(rule-name)` because
//! this fixture exercises more than one rule.

fn positive_evict_persists_under_driver_guard(
    slot: &std::sync::Mutex<Residency>, // POSITIVE(one-lock-type)
    tx: &Sender<Snapshot>,
) {
    // An evictor must export the snapshot and *drop* the driver guard
    // before handing it to persistence.
    let g = slot.lock().unwrap_or_else(|e| e.into_inner());
    tx.send(g.export()).ok(); // POSITIVE(guard-across-blocking): guard live across send
}

fn negative_evict_exports_then_drops(slot: &std::sync::Mutex<Residency>, tx: &Sender<Snapshot>) { // POSITIVE(one-lock-type)
    let snap = {
        let g = slot.lock().unwrap_or_else(|e| e.into_inner());
        g.export()
    };
    tx.send(snap).ok(); // negative: guard scope closed before the send
}

fn negative_rehydrate_waits_on_condvar(slot: &RehydrateSlot) {
    // Single-flight rehydration: late arrivals park on the slot's
    // condvar until the loader publishes Hot. Condvar::wait releases
    // the guard while parked, so this is not a lock-across-blocking.
    let mut state = slot.mutex.lock();
    while state.is_rehydrating() {
        slot.cv.wait(&mut state);
    }
}

fn positive_slot_lock_without_poison_recovery(slot: &std::sync::Mutex<Residency>) -> u64 { // POSITIVE(one-lock-type)
    let g = slot.lock().unwrap(); // POSITIVE(panic-free-server-paths): a poisoned lock panics here
    g.generation()
}

fn negative_slot_lock_is_the_shim(slot: &parking_lot::Mutex<Residency>) -> u64 {
    let g = slot.lock();
    g.generation()
}

fn positive_cold_meta_indexing(floors: &[u64], shard: usize) -> u64 {
    floors[shard] // POSITIVE(panic-free-server-paths): runtime indexing on the evict path
}

fn negative_cold_meta_get(floors: &[u64], shard: usize) -> u64 {
    floors.get(shard).copied().unwrap_or(0)
}

fn allowlisted_sweep_drain(rx: &parking_lot::Mutex<Receiver<Evicted>>) -> Result<Evicted, RecvError> {
    // lint:allow(guard-across-blocking, reason = "fixture: single sweeper drains its own queue")
    rx.lock().recv()
}
