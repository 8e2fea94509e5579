//! Retrain-worker supervision, end to end through the service: a worker
//! killed mid-stream is restarted per the configured policy, the batch it
//! was holding is re-queued (zero lost reports), and the whole incident
//! is visible through events, metrics, health, and the restart counter.

use std::time::{Duration, Instant};

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::driver::Smartpick;
use smartpick_core::properties::SmartpickProperties;
use smartpick_core::training::TrainOptions;
use smartpick_ml::forest::ForestParams;
use smartpick_obs::{EventKind, WorkerHealth};
use smartpick_service::{
    CompletedRun, FlushOutcome, RestartPolicy, ServiceConfig, SmartpickService,
};
use smartpick_workloads::tpcds;

fn template() -> Smartpick {
    let queries = vec![tpcds::query(82, 100.0).unwrap()];
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
        &queries,
        &opts,
        11,
    )
    .unwrap()
    .0
}

fn service(policy: RestartPolicy) -> SmartpickService {
    SmartpickService::new(ServiceConfig {
        retrain_workers: 1,
        restart_policy: policy,
        supervisor_poll: Duration::from_millis(5),
        ..ServiceConfig::default()
    })
}

/// Shard 0 as health reports it.
fn shard0(service: &SmartpickService) -> WorkerHealth {
    service.health().workers.swap_remove(0)
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One applied run the tests can re-report as feedback at will.
fn completed_run(service: &SmartpickService, tenant: &str) -> CompletedRun {
    let query = tpcds::query(82, 100.0).unwrap();
    let outcome = service.submit(tenant, &query, 7).unwrap();
    CompletedRun {
        query,
        determination: outcome.determination,
        report: outcome.report,
    }
}

#[test]
fn poisoned_worker_restarts_and_loses_no_reports() {
    let service = service(RestartPolicy::Restart {
        max_retries: 3,
        backoff: Duration::from_millis(10),
    });
    service.register_tenant("acme", template()).unwrap();
    let run = completed_run(&service, "acme");

    // Kill the worker mid-stream: reports before the poison, the poison,
    // reports after. The rescue guard must carry everything unapplied
    // across the restart.
    for _ in 0..4 {
        service.report_run("acme", run.clone()).unwrap();
    }
    service.poison_worker(0).unwrap();
    for _ in 0..4 {
        service.report_run("acme", run.clone()).unwrap();
    }

    assert!(service.flush(), "flush must drain through the restart");
    wait_until("the restart to be recorded", || {
        shard0(&service).restarts >= 1
    });

    // Zero lost reports: everything accepted was applied (at-least-once,
    // so applied may exceed enqueued, never trail it).
    let stats = service.tenant_stats("acme").unwrap();
    assert!(
        stats.reports_applied >= stats.reports_enqueued,
        "applied {} of {} accepted reports",
        stats.reports_applied,
        stats.reports_enqueued
    );
    assert_eq!(stats.pending_reports, 0);

    // The incident is visible everywhere it must be: the shard's health
    // entry…
    let status = shard0(&service);
    assert_eq!(status.state, "alive");
    assert!(status.restarts >= 1);
    assert!(status
        .last_panic
        .as_deref()
        .unwrap_or_default()
        .contains("poisoned"));
    // …the event log…
    let kinds: Vec<EventKind> = service
        .observability()
        .events()
        .recent(256)
        .iter()
        .map(|e| e.kind)
        .collect();
    assert!(kinds.contains(&EventKind::WorkerPanic));
    assert!(kinds.contains(&EventKind::WorkerRestarted));
    // …the scrape's restart counter…
    let envelope = service.scrape(0);
    assert!(envelope.counter("service.worker.restarts") >= 1);
    assert!(envelope.counter("service.worker.panics") >= 1);
    // …and health, which reports the restart yet stays ready.
    let health = service.health();
    assert!(health.live && health.ready, "reasons: {:?}", health.reasons);
    assert!(health.workers[0].restarts >= 1);

    // The restarted worker is a real worker: feedback still applies.
    service.report_run("acme", run).unwrap();
    assert!(service.flush());
}

#[test]
fn strict_policy_fails_the_shard_and_goes_unready() {
    let service = service(RestartPolicy::Strict);
    service.register_tenant("acme", template()).unwrap();
    // A report in flight when the worker dies: with `Strict` it stays
    // queued forever, which is exactly what unready + failed flush mean.
    let run = completed_run(&service, "acme");
    service.report_run("acme", run).unwrap();

    service.poison_worker(0).unwrap();
    wait_until("the shard to be marked failed", || {
        shard0(&service).state == "failed"
    });

    let health = service.health();
    assert!(health.live, "a failed worker degrades, never kills");
    assert!(!health.ready);
    assert!(health.reasons.iter().any(|r| r.contains("failed")));
    assert_eq!(health.workers[0].state, "failed");

    let kinds: Vec<EventKind> = service
        .observability()
        .events()
        .recent(256)
        .iter()
        .map(|e| e.kind)
        .collect();
    assert!(kinds.contains(&EventKind::WorkerPanic));
    assert!(kinds.contains(&EventKind::WorkerFailed));
    assert!(!kinds.contains(&EventKind::WorkerRestarted));
    assert_eq!(service.scrape(0).counter("service.worker.restarts"), 0);

    // A flush against a permanently dead shard reports failure instead
    // of hanging; the read path is untouched.
    assert!(!service.flush());
    let query = tpcds::query(82, 100.0).unwrap();
    service.determine("acme", &query, 5).unwrap();
}

#[test]
fn retry_budget_exhaustion_fails_the_shard() {
    let service = service(RestartPolicy::Restart {
        max_retries: 2,
        backoff: Duration::from_millis(5),
    });
    service.register_tenant("acme", template()).unwrap();

    // Three poisons against a budget of two restarts: the third panic
    // exhausts the policy.
    for _ in 0..3 {
        service.poison_worker(0).unwrap();
        let target = shard0(&service).restarts + 1;
        wait_until("the panic to be handled", || {
            let s = shard0(&service);
            s.state == "failed" || s.restarts >= target
        });
        if shard0(&service).state == "failed" {
            break;
        }
    }
    wait_until("the budget to run out", || {
        shard0(&service).state == "failed"
    });
    assert_eq!(shard0(&service).restarts, 2);
    let envelope = service.scrape(0);
    assert_eq!(envelope.counter("service.worker.restarts"), 2);
    assert_eq!(envelope.counter("service.worker.panics"), 3);
    assert!(!service.health().ready);
}

/// A restart is the panicked worker's own business: an hour-long
/// residency tick — what a bench sets to keep background sweeps out of
/// its numbers — must not keep the shard down.
#[test]
fn a_restart_does_not_wait_for_the_residency_tick() {
    let service = SmartpickService::new(ServiceConfig {
        retrain_workers: 1,
        restart_policy: RestartPolicy::Restart {
            max_retries: 3,
            backoff: Duration::from_millis(10),
        },
        supervisor_poll: Duration::from_secs(3600),
        ..ServiceConfig::default()
    });
    service.register_tenant("acme", template()).unwrap();
    let run = completed_run(&service, "acme");

    service.poison_worker(0).unwrap();
    service.report_run("acme", run).unwrap();
    assert_eq!(
        service.try_flush(Duration::from_secs(5)),
        FlushOutcome::Flushed
    );
    assert_eq!(shard0(&service).restarts, 1);
}
