//! The acceptance test for smartpickd: ≥4 concurrent client threads
//! drive one `SmartpickService` with mixed tenants, predictions
//! interleaved with run reports, while the background worker retrains —
//! and every prediction must still succeed.

use std::sync::Arc;

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::driver::Smartpick;
use smartpick_core::properties::SmartpickProperties;
use smartpick_core::training::TrainOptions;
use smartpick_core::wp::{ConstraintMode, PredictionRequest, WorkloadPredictionService};
use smartpick_ml::forest::ForestParams;
use smartpick_service::{CompletedRun, ServiceConfig, ServiceError, SmartpickService};
use smartpick_workloads::tpcds;

fn quick_opts() -> TrainOptions {
    TrainOptions {
        configs_per_query: 6,
        burst_factor: 3,
        forest: ForestParams {
            n_trees: 15,
            ..ForestParams::default()
        },
        max_vm: 4,
        max_sl: 4,
        ..TrainOptions::default()
    }
}

/// A trained template driver every tenant forks from. The tiny error
/// trigger makes practically every applied report fire a retrain, so the
/// test exercises reads racing live retrains.
fn template(trigger_secs: f64) -> Smartpick {
    let queries: Vec<_> = [82u32, 68]
        .iter()
        .map(|&q| tpcds::query(q, 100.0).unwrap())
        .collect();
    Smartpick::train_with_options(
        CloudEnv::new(Provider::Aws),
        SmartpickProperties {
            error_difference_trigger_secs: trigger_secs,
            ..SmartpickProperties::default()
        },
        &queries,
        &quick_opts(),
        5,
    )
    .unwrap()
    .0
}

#[test]
fn concurrent_mixed_tenants_with_live_retrains() {
    const THREADS: u64 = 6;
    const TENANTS: u64 = 3;
    const OPS_PER_THREAD: u64 = 12;

    let service = Arc::new(SmartpickService::new(ServiceConfig {
        shards: 4,
        queue_capacity: 256,
        tenant_pending_cap: 64,
        retrain_batch_max: 8,
        retrain_workers: 2,
        ..ServiceConfig::default()
    }));
    let tpl = template(1e-6);
    for t in 0..TENANTS {
        service
            .register_fork(format!("tenant-{t}"), &tpl, 100 + t)
            .unwrap();
    }

    let handles: Vec<_> = (0..THREADS)
        .map(|thread| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let mut predictions = 0u64;
                let mut submissions = 0u64;
                for op in 0..OPS_PER_THREAD {
                    let tenant = format!("tenant-{}", (thread + op) % TENANTS);
                    let query = tpcds::query(if op % 2 == 0 { 82 } else { 68 }, 100.0).unwrap();
                    let seed = thread * 1000 + op;
                    if op % 3 == 0 {
                        // Pure snapshot read: must never fail, even while
                        // the worker is mid-retrain on this tenant.
                        let det = service
                            .predict(
                                &tenant,
                                &PredictionRequest {
                                    query,
                                    knob: 0.0,
                                    constraint: ConstraintMode::Hybrid,
                                    seed,
                                },
                            )
                            .expect("prediction must succeed during retrains");
                        assert!(det.predicted_seconds.is_finite());
                        assert!(det.allocation.total_instances() > 0);
                        predictions += 1;
                    } else {
                        // Full path: predict, execute, feed the report back.
                        let outcome = service
                            .submit(&tenant, &query, seed)
                            .expect("submit must succeed");
                        assert!(outcome.report.seconds() > 0.0);
                        assert!(outcome.relative_prediction_error().is_finite());
                        submissions += 1;
                    }
                }
                (predictions, submissions)
            })
        })
        .collect();

    let mut predictions = 0u64;
    let mut submissions = 0u64;
    for handle in handles {
        let (p, s) = handle.join().expect("no client thread may panic");
        predictions += p;
        submissions += s;
    }

    assert!(service.flush(), "flush completes");
    let scrape = service.scrape(0);
    assert_eq!(scrape.gauge("service.tenants"), TENANTS as i64);
    // submit() also runs a determination, so both paths count predictions.
    assert_eq!(
        scrape.counter("service.predictions"),
        predictions + submissions
    );
    // No feedback was shed at this load, and after the flush everything
    // accepted has been applied.
    assert_eq!(scrape.counter("service.rejections"), 0);
    assert_eq!(scrape.counter("service.reports_enqueued"), submissions);
    assert_eq!(scrape.counter("service.reports_applied"), submissions);
    assert_eq!(scrape.counter("service.apply_failures"), 0);
    assert_eq!(scrape.gauge("service.queue_depth"), 0);
    // The tiny trigger means the worker really was retraining under the
    // readers the whole time.
    assert!(
        scrape.counter("service.retrains") > 0,
        "retrains must have fired"
    );
    let latency = scrape.histogram("service.predict_latency").unwrap();
    assert_eq!(latency.count, predictions + submissions);
    assert!(latency.p99_us >= latency.p50_us);

    // Per-tenant accounting adds up and snapshots were republished.
    for t in 0..TENANTS {
        let ts = service.tenant_stats(&format!("tenant-{t}")).unwrap();
        assert_eq!(ts.pending_reports, 0);
        assert!(ts.snapshot_generation > 0, "snapshot republished: {ts:?}");
    }
}

#[test]
fn quota_backpressure_sheds_feedback_not_queries() {
    let service = SmartpickService::new(ServiceConfig {
        shards: 2,
        queue_capacity: 512,
        tenant_pending_cap: 2,
        retrain_batch_max: 4,
        retrain_workers: 1,
        ..ServiceConfig::default()
    });
    // Default 50 s trigger, but the run below is forced to mispredict by
    // 500 s, so every *applied* report costs the worker a full retrain —
    // slow enough that a tight enqueue loop overruns the pending cap.
    let tpl = template(50.0);
    service.register_tenant("hog", tpl).unwrap();

    let q = tpcds::query(82, 100.0).unwrap();
    let outcome = service.submit("hog", &q, 7).unwrap();
    let mut slow = outcome.report.clone();
    slow.completion = smartpick_cloudsim::SimDuration::from_secs_f64(
        outcome.determination.predicted_seconds + 500.0,
    );

    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for _ in 0..200 {
        match service.report_run(
            "hog",
            CompletedRun {
                query: q.clone(),
                determination: outcome.determination.clone(),
                report: slow.clone(),
            },
        ) {
            Ok(()) => accepted += 1,
            Err(e @ (ServiceError::QuotaExceeded { .. } | ServiceError::QueueFull { .. })) => {
                assert!(e.is_retryable());
                rejected += 1;
            }
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    assert!(rejected > 0, "cap 2 must shed a 200-report burst");
    assert!(accepted > 0, "some reports must get through");

    // Shedding never breaks the read path.
    service
        .predict("hog", &PredictionRequest::new(q, 3))
        .unwrap();

    service.flush();
    let ts = service.tenant_stats("hog").unwrap();
    assert_eq!(ts.reports_enqueued, accepted + 1); // +1 from submit()'s feedback
    assert_eq!(ts.reports_applied, accepted + 1);
    assert_eq!(ts.rejections, rejected);
    assert_eq!(ts.pending_reports, 0);
    assert!(ts.retrains > 0);
}

#[test]
fn lifecycle_register_deregister_shutdown() {
    let mut service = SmartpickService::with_defaults();
    let tpl = template(50.0);
    service.register_fork("a", &tpl, 1).unwrap();
    service.register_fork("b", &tpl, 2).unwrap();
    assert!(matches!(
        service.register_fork("a", &tpl, 3),
        Err(ServiceError::TenantExists(_))
    ));
    assert_eq!(service.tenants(), vec!["a".to_owned(), "b".to_owned()]);

    let q = tpcds::query(82, 100.0).unwrap();
    assert!(matches!(
        service.predict("nope", &PredictionRequest::new(q.clone(), 1)),
        Err(ServiceError::UnknownTenant(_))
    ));

    // Deregistration folds the tenant's history into the service totals,
    // so aggregates never run backwards.
    service.submit("b", &q, 5).unwrap();
    service.flush();
    let before = service.scrape(0);
    assert!(before.counter("service.predictions") > 0);
    assert!(before.counter("service.reports_applied") > 0);
    service.deregister_tenant("b").unwrap();
    assert_eq!(service.tenants(), vec!["a".to_owned()]);
    let after = service.scrape(0);
    assert_eq!(
        after.counter("service.predictions"),
        before.counter("service.predictions")
    );
    assert_eq!(
        after.counter("service.reports_applied"),
        before.counter("service.reports_applied")
    );
    assert_eq!(after.gauge("service.tenants"), 1);

    service.shutdown();
    assert!(matches!(
        service.report_run(
            "a",
            CompletedRun {
                query: q.clone(),
                determination: tpl
                    .snapshot()
                    .determine(&PredictionRequest::new(q, 2))
                    .unwrap(),
                report: smartpick_engine::simulate_query(
                    &tpcds::query(82, 100.0).unwrap(),
                    &smartpick_engine::Allocation::new(2, 2),
                    &CloudEnv::new(Provider::Aws),
                    9
                )
                .unwrap(),
            }
        ),
        Err(ServiceError::Stopped)
    ));
    assert!(!service.flush(), "flush after shutdown reports stopped");
    // Registration after shutdown is refused too.
    assert!(matches!(
        service.register_fork("c", &tpl, 4),
        Err(ServiceError::Stopped)
    ));
}
