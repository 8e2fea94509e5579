//! The restart policy as a retrain worker applies it to itself, one
//! incident at a time on a service with no tenants: restart-with-backoff,
//! strict fail-fast, retry-budget exhaustion, and clean exits. Nothing
//! else runs on the shards, so every panic, restart and failure is
//! counted exactly. `supervision.rs` covers the same policy end to end,
//! with reports in flight across the panic.

use std::time::{Duration, Instant};

use smartpick_obs::{Event, EventKind};
use smartpick_service::{FlushOutcome, RestartPolicy, ServiceConfig, SmartpickService};

fn service(workers: usize, policy: RestartPolicy) -> SmartpickService {
    SmartpickService::new(ServiceConfig {
        retrain_workers: workers,
        restart_policy: policy,
        ..ServiceConfig::default()
    })
}

fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn events_of(service: &SmartpickService, kind: EventKind) -> Vec<Event> {
    service
        .observability()
        .events()
        .recent(256)
        .into_iter()
        .filter(|e| e.kind == kind)
        .collect()
}

/// How many panics the worker has finished handling: each one ends in
/// exactly one restart or one failure, published last.
fn incidents(service: &SmartpickService) -> usize {
    events_of(service, EventKind::WorkerRestarted).len()
        + events_of(service, EventKind::WorkerFailed).len()
}

const POISONED: &str = "retrain worker poisoned via poison_worker() at BatchStart";

#[test]
fn panicked_worker_is_restarted_and_recorded() {
    let mut service = service(
        1,
        RestartPolicy::Restart {
            max_retries: 3,
            backoff: Duration::from_millis(1),
        },
    );
    assert!(service.health().ready);
    service.poison_worker(0).unwrap();
    wait_until(|| incidents(&service) == 1, "the restart");

    let health = service.health();
    let status = &health.workers[0];
    assert_eq!(status.state, "alive");
    assert_eq!(status.restarts, 1);
    assert_eq!(status.last_panic.as_deref(), Some(POISONED));
    assert!(health.ready);

    // The incident is on the record: one panic event naming the panic,
    // one restart event, and both counters.
    let panics = events_of(&service, EventKind::WorkerPanic);
    assert_eq!(panics.len(), 1);
    assert_eq!(panics[0].shard, Some(0));
    assert_eq!(panics[0].detail.as_deref(), Some(POISONED));
    let restarts = events_of(&service, EventKind::WorkerRestarted);
    assert_eq!(restarts[0].detail.as_deref(), Some("restart 1 of 3"));
    assert!(events_of(&service, EventKind::WorkerFailed).is_empty());
    let scrape = service.scrape(0);
    assert_eq!(scrape.counter("service.worker.panics"), 1);
    assert_eq!(scrape.counter("service.worker.restarts"), 1);

    // The restarted worker still serves: it acks a flush, and a clean
    // exit marks it Done.
    assert_eq!(
        service.try_flush(Duration::from_secs(5)),
        FlushOutcome::Flushed
    );
    service.shutdown();
    let status = &service.health().workers[0];
    assert_eq!(status.state, "done");
    assert_eq!(status.restarts, 1);
}

#[test]
fn strict_policy_fails_the_shard_on_first_panic() {
    let service = service(1, RestartPolicy::Strict);
    service.poison_worker(0).unwrap();
    wait_until(|| incidents(&service) == 1, "the strict failure");

    let health = service.health();
    let status = &health.workers[0];
    assert_eq!(status.state, "failed");
    assert_eq!(status.restarts, 0);
    assert_eq!(status.last_panic.as_deref(), Some(POISONED));
    assert!(!health.ready);
    assert_eq!(events_of(&service, EventKind::WorkerPanic).len(), 1);
    assert!(events_of(&service, EventKind::WorkerRestarted).is_empty());
    let failed = events_of(&service, EventKind::WorkerFailed);
    assert_eq!(
        failed[0].detail.as_deref(),
        Some("restart policy is strict; shard stays down")
    );
    let scrape = service.scrape(0);
    assert_eq!(scrape.counter("service.worker.panics"), 1);
    assert_eq!(scrape.counter("service.worker.restarts"), 0);

    // No respawn: nothing will ever drain the shard again.
    assert_eq!(
        service.try_flush(Duration::from_secs(5)),
        FlushOutcome::ShardFailed { shard: 0 }
    );
}

#[test]
fn retry_budget_exhaustion_fails_the_shard() {
    let service = service(
        1,
        RestartPolicy::Restart {
            max_retries: 2,
            backoff: Duration::from_millis(1),
        },
    );
    for n in 1..=3 {
        service.poison_worker(0).unwrap();
        // Each panic must be handled before the next poison is sent, so
        // every incident is one panic of its own.
        wait_until(|| incidents(&service) == n, "the panic to be handled");
    }

    let health = service.health();
    let status = &health.workers[0];
    assert_eq!(status.state, "failed");
    assert_eq!(status.restarts, 2);
    assert_eq!(status.last_panic.as_deref(), Some(POISONED));
    assert!(!health.ready);
    let restarts: Vec<_> = events_of(&service, EventKind::WorkerRestarted)
        .into_iter()
        .filter_map(|e| e.detail)
        .collect();
    assert_eq!(restarts, ["restart 1 of 2", "restart 2 of 2"]);
    let failed = events_of(&service, EventKind::WorkerFailed);
    assert_eq!(
        failed[0].detail.as_deref(),
        Some("restart budget exhausted (2 retries)")
    );
    let scrape = service.scrape(0);
    assert_eq!(scrape.counter("service.worker.panics"), 3);
    assert_eq!(scrape.counter("service.worker.restarts"), 2);
}

/// A worker whose queue closes exits cleanly, on every shard: done, not
/// failed, and no restart spent on it.
#[test]
fn clean_exits_are_done_not_failed_across_many_shards() {
    let mut service = service(
        3,
        RestartPolicy::Restart {
            max_retries: 1,
            backoff: Duration::from_millis(1),
        },
    );
    service.shutdown();
    let health = service.health();
    assert_eq!(health.workers.len(), 3);
    assert!(
        health
            .workers
            .iter()
            .all(|s| s.state == "done" && s.restarts == 0),
        "{:?}",
        health.workers
    );
    assert_eq!(health.reasons, vec!["service is shut down"]);
    assert_eq!(service.scrape(0).counter("service.worker.restarts"), 0);
    assert!(events_of(&service, EventKind::WorkerFailed).is_empty());
}
