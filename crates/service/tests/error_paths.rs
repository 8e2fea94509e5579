//! Error-path coverage for smartpickd: every documented rejection comes
//! back as the documented error, is visible in the shed counters, and
//! never corrupts the books.

use std::time::Duration;

use smartpick_cloudsim::{CloudEnv, Provider, SimDuration};
use smartpick_core::driver::Smartpick;
use smartpick_core::properties::SmartpickProperties;
use smartpick_core::training::TrainOptions;
use smartpick_core::wp::{PredictionRequest, WorkloadPredictionService};
use smartpick_engine::simulate_query;
use smartpick_ml::forest::ForestParams;
use smartpick_service::{CompletedRun, ServiceConfig, ServiceError, SmartpickService};
use smartpick_workloads::tpcds;

fn template(trigger_secs: f64) -> Smartpick {
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
        SmartpickProperties {
            error_difference_trigger_secs: trigger_secs,
            ..SmartpickProperties::default()
        },
        &queries,
        &opts,
        11,
    )
    .unwrap()
    .0
}

/// A completed run whose report mispredicts by `error_secs` (0.0 = no
/// retrain under the default 50 s trigger: cheap, fast applies).
fn run_with_error(tpl: &Smartpick, error_secs: f64) -> CompletedRun {
    let query = tpcds::query(82, 100.0).unwrap();
    let determination = tpl
        .snapshot()
        .determine(&PredictionRequest::new(query.clone(), 17))
        .unwrap();
    let mut report =
        simulate_query(&query, &determination.allocation, tpl.predictor().env(), 23).unwrap();
    report.completion = SimDuration::from_secs_f64(determination.predicted_seconds + error_secs);
    CompletedRun {
        query,
        determination,
        report,
    }
}

#[test]
fn queue_full_sheds_with_documented_error_and_counter() {
    // One worker, a 2-slot queue, and a huge pending cap so the *queue*
    // is the binding constraint; every applied report costs a retrain
    // (500 s misprediction), so the worker cannot keep up with a tight
    // enqueue loop.
    let service = SmartpickService::new(ServiceConfig {
        shards: 2,
        queue_capacity: 2,
        tenant_pending_cap: 10_000,
        retrain_batch_max: 1,
        retrain_workers: 1,
        ..ServiceConfig::default()
    });
    let tpl = template(50.0);
    let slow = run_with_error(&tpl, 500.0);
    service.register_tenant("hog", tpl).unwrap();

    let mut accepted = 0u64;
    let mut queue_full = 0u64;
    for _ in 0..200 {
        match service.report_run("hog", slow.clone()) {
            Ok(()) => accepted += 1,
            Err(e @ ServiceError::QueueFull { capacity }) => {
                assert_eq!(capacity, 2, "reports the per-shard capacity");
                assert!(e.is_retryable());
                queue_full += 1;
            }
            Err(other) => panic!("expected QueueFull, got {other}"),
        }
    }
    assert!(
        queue_full > 0,
        "a 2-slot queue must shed a 200-report burst"
    );
    assert!(accepted > 0, "some reports must get through");

    service.flush();
    let ts = service.tenant_stats("hog").unwrap();
    assert_eq!(
        ts.rejections, queue_full,
        "every shed increments the counter"
    );
    assert_eq!(ts.reports_enqueued, accepted);
    assert_eq!(ts.reports_applied, accepted);
    assert_eq!(ts.pending_reports, 0);
}

#[test]
fn unknown_tenant_and_double_register_are_typed() {
    let service = SmartpickService::with_defaults();
    let tpl = template(50.0);
    let query = tpcds::query(82, 100.0).unwrap();

    // Unknown tenant: predict, determine, report, stats all reject.
    assert!(matches!(
        service.predict("ghost", &PredictionRequest::new(query.clone(), 1)),
        Err(ServiceError::UnknownTenant(_))
    ));
    assert!(matches!(
        service.determine("ghost", &query, 1),
        Err(ServiceError::UnknownTenant(_))
    ));
    assert!(matches!(
        service.report_run("ghost", run_with_error(&tpl, 0.0)),
        Err(ServiceError::UnknownTenant(_))
    ));
    assert!(matches!(
        service.tenant_stats("ghost"),
        Err(ServiceError::UnknownTenant(_))
    ));

    // Double registration is rejected and is not retryable.
    service.register_fork("acme", &tpl, 1).unwrap();
    match service.register_fork("acme", &tpl, 2) {
        Err(e @ ServiceError::TenantExists(_)) => assert!(!e.is_retryable()),
        other => panic!("expected TenantExists, got {other:?}"),
    }
    // The rejected registration must not have clobbered the original.
    assert_eq!(service.tenants(), vec!["acme".to_owned()]);
    assert!(service
        .predict("acme", &PredictionRequest::new(query, 3))
        .is_ok());
}

#[test]
fn shutdown_with_pending_reports_drains_deterministically() {
    let mut service = SmartpickService::new(ServiceConfig {
        shards: 2,
        queue_capacity: 256,
        tenant_pending_cap: 128,
        retrain_batch_max: 4,
        retrain_workers: 2,
        ..ServiceConfig::default()
    });
    let tpl = template(50.0);
    let fast = run_with_error(&tpl, 0.0);
    service.register_tenant("t", tpl).unwrap();

    const REPORTS: u64 = 32;
    for _ in 0..REPORTS {
        service.report_run("t", fast.clone()).unwrap();
    }
    // Shutdown must drain: everything accepted before the close is
    // applied, nothing is silently dropped.
    service.shutdown();
    let ts = service.tenant_stats("t").unwrap();
    assert_eq!(ts.reports_enqueued, REPORTS);
    assert_eq!(ts.reports_applied, REPORTS, "accepted reports are drained");
    assert_eq!(ts.pending_reports, 0);
    assert_eq!(service.scrape(0).gauge("service.queue_depth"), 0);

    // After shutdown every write path reports Stopped...
    assert!(matches!(
        service.report_run("t", fast.clone()),
        Err(ServiceError::Stopped)
    ));
    assert!(!service.flush());
    // ...and reads still serve from the last published snapshot.
    let query = tpcds::query(82, 100.0).unwrap();
    assert!(service
        .predict("t", &PredictionRequest::new(query, 9))
        .is_ok());
    // Idempotent.
    service.shutdown();
}

#[test]
fn per_shard_stats_expose_parallel_workers() {
    let service = SmartpickService::new(ServiceConfig {
        shards: 4,
        queue_capacity: 256,
        tenant_pending_cap: 64,
        retrain_batch_max: 8,
        retrain_workers: 4,
        ..ServiceConfig::default()
    });
    let tpl = template(50.0);
    let fast = run_with_error(&tpl, 0.0);
    // Register enough tenants that at least two of the four shards get
    // one (16 over 4 shards; all on one shard would need a 4^-15 fluke
    // of the fixed hash, i.e. deterministically impossible here).
    let tenants: Vec<String> = (0..16).map(|i| format!("tenant-{i}")).collect();
    for (i, t) in tenants.iter().enumerate() {
        service.register_fork(t, &tpl, i as u64).unwrap();
    }

    let mut expected_per_shard = vec![0u64; 4];
    for (i, t) in tenants.iter().enumerate() {
        let shard = service.tenant_stats(t).unwrap().worker_shard;
        assert!(shard < 4, "worker_shard must index a configured worker");
        for _ in 0..=(i % 3) {
            service.report_run(t, fast.clone()).unwrap();
            expected_per_shard[shard] += 1;
        }
    }
    assert!(service.flush());

    let scrape = service.scrape(0);
    let applied: Vec<u64> = (0..)
        .map(|shard| format!("service.worker.{shard}.reports_applied"))
        .take_while(|name| scrape.metric(name).is_some())
        .map(|name| scrape.counter(&name))
        .collect();
    assert_eq!(applied.len(), 4);
    assert_eq!(
        applied, expected_per_shard,
        "each report is applied by exactly the worker its tenant hashes to"
    );
    assert!(
        applied.iter().filter(|&&a| a > 0).count() >= 2,
        "distinct tenants' reports must be applied by distinct workers: {applied:?}"
    );
    assert_eq!(
        applied.iter().sum::<u64>(),
        scrape.counter("service.reports_applied"),
        "per-shard applies sum to the service total"
    );
    for shard in 0..applied.len() {
        let depth = scrape.gauge(&format!("service.worker.{shard}.queue_depth"));
        assert_eq!(depth, 0, "flushed: shard {shard}");
    }
    assert_eq!(scrape.gauge("service.queue_depth"), 0);

    // Snapshot age is a live gauge; sanity-check it ticks.
    let ts = service.tenant_stats(&tenants[0]).unwrap();
    assert!(ts.snapshot_age < Duration::from_secs(3600));
}
