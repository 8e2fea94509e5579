//! The structured event log: a bounded ring of typed, timestamped
//! events, with subscriber hooks.
//!
//! Events are the "what happened" channel metrics cannot carry: a
//! counter says *how many* workers panicked, the event says *which shard,
//! when, and why*. The ring is bounded ([`EventLog::new`]'s capacity) so
//! a chatty service can never grow memory without bound — old events are
//! evicted oldest-first and counted in [`EventLog::evicted`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use serde::{DeError, Value};

/// How loud an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Routine lifecycle chatter (snapshots, connections).
    Debug,
    /// Notable but healthy (tenant churn, retrains).
    Info,
    /// Degradation a human should eventually look at (sheds, staleness,
    /// restarts).
    Warn,
    /// Something broke (worker panic, shard failed).
    Error,
}

impl Severity {
    /// The wire name of this severity.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parses a wire name back into a severity.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "debug" => Some(Severity::Debug),
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A tenant was registered.
    TenantRegistered,
    /// A tenant was deregistered.
    TenantDeregistered,
    /// A tenant's prediction snapshot was republished.
    SnapshotPublished,
    /// A retrain worker started applying a tenant's batch.
    RetrainStarted,
    /// A retrain worker finished applying a tenant's batch (carries the
    /// apply duration).
    RetrainFinished,
    /// Training feedback was shed by admission control.
    FeedbackShed,
    /// A prediction was served from a snapshot past the staleness bound
    /// (emitted once per stale episode, not per prediction).
    StalenessFlagged,
    /// A wire connection was accepted.
    ConnectionOpened,
    /// A wire connection ended (carries its lifetime).
    ConnectionClosed,
    /// A wire request was rejected with a retryable `busy`.
    BusyRejection,
    /// A retrain worker thread panicked.
    WorkerPanic,
    /// A panicked worker restarted itself after its backoff.
    WorkerRestarted,
    /// A worker shard is down for good (policy `Strict`, retries
    /// exhausted, or spawn failure).
    WorkerFailed,
    /// A tenant snapshot was persisted to the store.
    SnapshotPersisted,
    /// Recovery loaded a tenant's snapshot from the store.
    SnapshotLoaded,
    /// Recovery replayed a tenant's WAL records past its snapshot.
    WalReplayed,
    /// A torn (truncated/corrupt) WAL tail was dropped during recovery.
    TornTailDropped,
    /// A corrupt snapshot file was moved aside; recovery fell back to an
    /// older snapshot plus WAL replay.
    SnapshotQuarantined,
    /// A shard WAL was compacted after snapshots made its prefix
    /// redundant.
    WalCompacted,
    /// A tenant could not be recovered (no valid snapshot at any
    /// generation); startup continued without it.
    TenantUnrecoverable,
    /// A store operation failed at runtime (WAL open/append, snapshot
    /// write); the service continues serving without durability for the
    /// affected work.
    StoreDegraded,
    /// A resident tenant was evicted to cold (final snapshot persisted,
    /// forest/driver dropped). Routine capacity management — chatty at
    /// scale, so it defaults to `Debug`.
    TenantEvicted,
    /// A cold tenant was rehydrated from its newest snapshot on first
    /// touch (carries the load duration).
    TenantRehydrated,
}

impl EventKind {
    /// The wire name of this kind.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TenantRegistered => "tenant_registered",
            EventKind::TenantDeregistered => "tenant_deregistered",
            EventKind::SnapshotPublished => "snapshot_published",
            EventKind::RetrainStarted => "retrain_started",
            EventKind::RetrainFinished => "retrain_finished",
            EventKind::FeedbackShed => "feedback_shed",
            EventKind::StalenessFlagged => "staleness_flagged",
            EventKind::ConnectionOpened => "connection_opened",
            EventKind::ConnectionClosed => "connection_closed",
            EventKind::BusyRejection => "busy_rejection",
            EventKind::WorkerPanic => "worker_panic",
            EventKind::WorkerRestarted => "worker_restarted",
            EventKind::WorkerFailed => "worker_failed",
            EventKind::SnapshotPersisted => "snapshot_persisted",
            EventKind::SnapshotLoaded => "snapshot_loaded",
            EventKind::WalReplayed => "wal_replayed",
            EventKind::TornTailDropped => "torn_tail_dropped",
            EventKind::SnapshotQuarantined => "snapshot_quarantined",
            EventKind::WalCompacted => "wal_compacted",
            EventKind::TenantUnrecoverable => "tenant_unrecoverable",
            EventKind::StoreDegraded => "store_degraded",
            EventKind::TenantEvicted => "tenant_evicted",
            EventKind::TenantRehydrated => "tenant_rehydrated",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn parse(s: &str) -> Option<EventKind> {
        match s {
            "tenant_registered" => Some(EventKind::TenantRegistered),
            "tenant_deregistered" => Some(EventKind::TenantDeregistered),
            "snapshot_published" => Some(EventKind::SnapshotPublished),
            "retrain_started" => Some(EventKind::RetrainStarted),
            "retrain_finished" => Some(EventKind::RetrainFinished),
            "feedback_shed" => Some(EventKind::FeedbackShed),
            "staleness_flagged" => Some(EventKind::StalenessFlagged),
            "connection_opened" => Some(EventKind::ConnectionOpened),
            "connection_closed" => Some(EventKind::ConnectionClosed),
            "busy_rejection" => Some(EventKind::BusyRejection),
            "worker_panic" => Some(EventKind::WorkerPanic),
            "worker_restarted" => Some(EventKind::WorkerRestarted),
            "worker_failed" => Some(EventKind::WorkerFailed),
            "snapshot_persisted" => Some(EventKind::SnapshotPersisted),
            "snapshot_loaded" => Some(EventKind::SnapshotLoaded),
            "wal_replayed" => Some(EventKind::WalReplayed),
            "torn_tail_dropped" => Some(EventKind::TornTailDropped),
            "snapshot_quarantined" => Some(EventKind::SnapshotQuarantined),
            "wal_compacted" => Some(EventKind::WalCompacted),
            "tenant_unrecoverable" => Some(EventKind::TenantUnrecoverable),
            "store_degraded" => Some(EventKind::StoreDegraded),
            "tenant_evicted" => Some(EventKind::TenantEvicted),
            "tenant_rehydrated" => Some(EventKind::TenantRehydrated),
            _ => None,
        }
    }

    /// The severity this kind is published at unless overridden.
    pub fn default_severity(self) -> Severity {
        match self {
            EventKind::SnapshotPublished
            | EventKind::RetrainStarted
            | EventKind::ConnectionOpened
            | EventKind::ConnectionClosed => Severity::Debug,
            EventKind::TenantRegistered
            | EventKind::TenantDeregistered
            | EventKind::RetrainFinished => Severity::Info,
            EventKind::FeedbackShed
            | EventKind::StalenessFlagged
            | EventKind::BusyRejection
            | EventKind::WorkerRestarted
            | EventKind::TornTailDropped
            | EventKind::SnapshotQuarantined => Severity::Warn,
            EventKind::WorkerPanic
            | EventKind::WorkerFailed
            | EventKind::TenantUnrecoverable
            | EventKind::StoreDegraded => Severity::Error,
            EventKind::SnapshotPersisted
            | EventKind::WalCompacted
            | EventKind::TenantEvicted
            | EventKind::TenantRehydrated => Severity::Debug,
            EventKind::SnapshotLoaded | EventKind::WalReplayed => Severity::Info,
        }
    }
}

/// One published event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic sequence number (1-based, gap-free per log).
    pub seq: u64,
    /// Microseconds since the log's creation.
    pub at_us: u64,
    /// How loud.
    pub severity: Severity,
    /// What happened.
    pub kind: EventKind,
    /// The tenant involved, if any.
    pub tenant: Option<String>,
    /// The worker/queue shard involved, if any.
    pub shard: Option<u64>,
    /// How long it took, if the kind carries a duration.
    pub duration_us: Option<u64>,
    /// Free-form context (panic message, shed reason, peer address).
    pub detail: Option<String>,
}

impl serde::Serialize for Event {
    fn to_value(&self) -> Value {
        let mut m = vec![
            ("seq".to_owned(), Value::Num(self.seq as f64)),
            ("at_us".to_owned(), Value::Num(self.at_us as f64)),
            (
                "severity".to_owned(),
                Value::Str(self.severity.name().to_owned()),
            ),
            ("kind".to_owned(), Value::Str(self.kind.name().to_owned())),
        ];
        if let Some(t) = &self.tenant {
            m.push(("tenant".to_owned(), Value::Str(t.clone())));
        }
        if let Some(s) = self.shard {
            m.push(("shard".to_owned(), Value::Num(s as f64)));
        }
        if let Some(d) = self.duration_us {
            m.push(("duration_us".to_owned(), Value::Num(d as f64)));
        }
        if let Some(d) = &self.detail {
            m.push(("detail".to_owned(), Value::Str(d.clone())));
        }
        Value::Obj(m)
    }
}

/// Looks an optional field up without treating absence as an error.
fn opt<'a>(pairs: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn req_num(pairs: &[(String, Value)], key: &str) -> Result<u64, DeError> {
    match serde::obj_get(pairs, key)? {
        Value::Num(n) => Ok(*n as u64),
        other => Err(DeError(format!("expected number `{key}`, got {other:?}"))),
    }
}

fn req_str<'a>(pairs: &'a [(String, Value)], key: &str) -> Result<&'a str, DeError> {
    match serde::obj_get(pairs, key)? {
        Value::Str(s) => Ok(s),
        other => Err(DeError(format!("expected string `{key}`, got {other:?}"))),
    }
}

impl serde::Deserialize for Event {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs = match v {
            Value::Obj(pairs) => pairs.as_slice(),
            other => return Err(DeError(format!("expected event object, got {other:?}"))),
        };
        let severity = req_str(pairs, "severity")?;
        let kind = req_str(pairs, "kind")?;
        Ok(Event {
            seq: req_num(pairs, "seq")?,
            at_us: req_num(pairs, "at_us")?,
            severity: Severity::parse(severity)
                .ok_or_else(|| DeError(format!("unknown severity `{severity}`")))?,
            kind: EventKind::parse(kind)
                .ok_or_else(|| DeError(format!("unknown event kind `{kind}`")))?,
            tenant: match opt(pairs, "tenant") {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            },
            shard: match opt(pairs, "shard") {
                Some(Value::Num(n)) => Some(*n as u64),
                _ => None,
            },
            duration_us: match opt(pairs, "duration_us") {
                Some(Value::Num(n)) => Some(*n as u64),
                _ => None,
            },
            detail: match opt(pairs, "detail") {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            },
        })
    }
}

/// A not-yet-published event: what the emitter knows, minus the sequence
/// number and timestamp the log stamps on.
#[derive(Debug, Clone)]
pub struct EventDraft {
    kind: EventKind,
    severity: Severity,
    tenant: Option<String>,
    shard: Option<u64>,
    duration_us: Option<u64>,
    detail: Option<String>,
}

/// Starts an [`EventDraft`] for `kind` at its default severity.
pub fn event(kind: EventKind) -> EventDraft {
    EventDraft {
        kind,
        severity: kind.default_severity(),
        tenant: None,
        shard: None,
        duration_us: None,
        detail: None,
    }
}

impl EventDraft {
    /// Overrides the default severity.
    pub fn severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Names the tenant involved.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Names the shard involved.
    pub fn shard(mut self, shard: usize) -> Self {
        self.shard = Some(shard as u64);
        self
    }

    /// Attaches a duration.
    pub fn duration(mut self, d: Duration) -> Self {
        self.duration_us = Some(d.as_micros() as u64);
        self
    }

    /// Attaches free-form context.
    pub fn detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = Some(detail.into());
        self
    }
}

type SubscriberFn = Box<dyn Fn(&Event) + Send + Sync>;

/// The bounded, subscribable event ring.
pub struct EventLog {
    ring: Mutex<VecDeque<Event>>,
    capacity: usize,
    seq: AtomicU64,
    evicted: AtomicU64,
    epoch: Instant,
    subscribers: RwLock<Vec<SubscriberFn>>,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("capacity", &self.capacity)
            .field("published", &self.seq.load(Ordering::Relaxed))
            .field("evicted", &self.evicted.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl EventLog {
    /// Creates a log retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a ring that retains nothing is a
    /// config error, caught at startup).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event log capacity must be positive");
        EventLog {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
            seq: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            epoch: Instant::now(),
            subscribers: RwLock::new(Vec::new()),
        }
    }

    /// Stamps and publishes `draft`: into the ring and to every subscriber
    /// (synchronously — keep callbacks cheap). Returns the event's
    /// sequence number.
    pub fn publish(&self, draft: EventDraft) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let e = Event {
            seq,
            at_us: self.epoch.elapsed().as_micros() as u64,
            severity: draft.severity,
            kind: draft.kind,
            tenant: draft.tenant,
            shard: draft.shard,
            duration_us: draft.duration_us,
            detail: draft.detail,
        };
        {
            let mut ring = self.ring.lock();
            if ring.len() >= self.capacity {
                ring.pop_front();
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back(e.clone());
        }
        for f in self.subscribers.read().iter() {
            f(&e);
        }
        seq
    }

    /// The last `max` events, oldest first.
    pub fn recent(&self, max: usize) -> Vec<Event> {
        let ring = self.ring.lock();
        let skip = ring.len().saturating_sub(max);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Microseconds since the log's creation — the clock every event's
    /// `at_us` is stamped with.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Events evicted from the ring to stay within capacity.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Attaches `f`, called synchronously on every subsequent publish
    /// for the rest of the log's life. Tests hang assertions here;
    /// production subscribers must be cheap and must not publish events
    /// themselves (the ring lock is not held during callbacks, but the
    /// subscriber list's read lock is).
    pub fn subscribe(&self, f: impl Fn(&Event) + Send + Sync + 'static) {
        self.subscribers.write().push(Box::new(f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn ring_is_bounded_and_seq_is_gap_free() {
        let log = EventLog::new(3);
        for _ in 0..5 {
            log.publish(event(EventKind::SnapshotPublished).tenant("t"));
        }
        assert_eq!(log.seq.load(Ordering::Relaxed), 5);
        assert_eq!(log.evicted(), 2);
        let recent = log.recent(10);
        assert_eq!(
            recent.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(log.recent(2).len(), 2);
    }

    #[test]
    fn subscribers_see_every_publish() {
        let log = EventLog::new(8);
        let seen = Arc::new(AtomicUsize::new(0));
        {
            let seen = Arc::clone(&seen);
            log.subscribe(move |e| {
                assert_eq!(e.kind, EventKind::FeedbackShed);
                seen.fetch_add(1, Ordering::Relaxed);
            });
        }
        log.publish(event(EventKind::FeedbackShed));
        log.publish(event(EventKind::FeedbackShed));
        assert_eq!(seen.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn event_serde_round_trips_with_and_without_options() {
        let log = EventLog::new(4);
        log.publish(
            event(EventKind::RetrainFinished)
                .tenant("acme")
                .shard(2)
                .duration(Duration::from_micros(450))
                .detail("3 reports"),
        );
        log.publish(event(EventKind::TenantRegistered).severity(Severity::Debug));
        for e in log.recent(4) {
            let back: Event = serde_json::from_str(&serde_json::to_string(&e).unwrap()).unwrap();
            assert_eq!(back, e);
        }
    }

    #[test]
    fn every_kind_name_round_trips() {
        for kind in [
            EventKind::TenantRegistered,
            EventKind::TenantDeregistered,
            EventKind::SnapshotPublished,
            EventKind::RetrainStarted,
            EventKind::RetrainFinished,
            EventKind::FeedbackShed,
            EventKind::StalenessFlagged,
            EventKind::ConnectionOpened,
            EventKind::ConnectionClosed,
            EventKind::BusyRejection,
            EventKind::WorkerPanic,
            EventKind::WorkerRestarted,
            EventKind::WorkerFailed,
            EventKind::SnapshotPersisted,
            EventKind::SnapshotLoaded,
            EventKind::WalReplayed,
            EventKind::TornTailDropped,
            EventKind::SnapshotQuarantined,
            EventKind::WalCompacted,
            EventKind::TenantUnrecoverable,
            EventKind::StoreDegraded,
            EventKind::TenantEvicted,
            EventKind::TenantRehydrated,
        ] {
            assert_eq!(EventKind::parse(kind.name()), Some(kind));
            let _ = kind.default_severity();
        }
        for sev in [
            Severity::Debug,
            Severity::Info,
            Severity::Warn,
            Severity::Error,
        ] {
            assert_eq!(Severity::parse(sev.name()), Some(sev));
        }
        assert!(Severity::Warn > Severity::Info);
    }
}
