//! Fixture for the `one-lock-type` rule. Never compiled — lexed by
//! `rules_fixtures.rs` as if it were `crates/service/src/...`.

use std::sync::{Arc, Mutex}; // POSITIVE: grouped import of a std lock
use std::{fmt, sync::{Condvar, Once}}; // POSITIVE: nested group
use std::sync::{atomic::AtomicBool, RwLock}; // POSITIVE: after a nested path
use std::sync::{Arc as Shared, OnceLock}; // negative: std::sync, but no lock
use parking_lot::{Condvar, RwLock}; // negative: the shim

fn positive_bare_unwrap(m: &std::sync::Mutex<u32>) -> u32 { // POSITIVE
    *m.lock().unwrap()
}

fn positive_bare_expect(m: &std::sync::Mutex<u32>) -> u32 { // POSITIVE
    *m.lock().expect("poisoned")
}

fn positive_std_recovery_idiom(m: &std::sync::Mutex<u32>) -> u32 { // POSITIVE
    *m.lock().unwrap_or_else(|e| e.into_inner())
}

struct PositiveInlineCondvar {
    ready: std::sync::Condvar, // POSITIVE
}

fn negative_parking_lot(m: &parking_lot::Mutex<u32>) -> u32 {
    *m.lock() // negative: the shim's guards are not Results
}

// negative: atomics and barriers are not locks
fn negative_other_sync_paths(n: &std::sync::atomic::AtomicU64, b: &std::sync::Barrier) {}

// lint:allow(one-lock-type, reason = "fixture: demonstrates suppression")
fn allowlisted(m: &std::sync::RwLock<u32>) -> u32 {
    *m.read().unwrap()
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex; // negative: test region

    #[test]
    fn test_code_is_exempt(m: &std::sync::Mutex<u32>) {
        let _ = m.lock().unwrap(); // negative: test region
    }
}
