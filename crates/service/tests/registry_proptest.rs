//! Property tests for the sharded tenant registry and the sharded
//! retrain workers.
//!
//! `concurrent_registry_ops_lose_nothing`: concurrent
//! register/predict/report from 8 threads across 64 tenants never loses
//! an update and never panics. Each case draws one RNG seed per thread;
//! threads derive their own op streams from it. After joining and
//! flushing, the service's counters must exactly equal the per-thread
//! success tallies — an accepted report that never gets applied, a
//! double-registered tenant, or a dropped prediction count all falsify
//! the property.
//!
//! `sharded_workers_preserve_per_tenant_report_order`: with 4 retrain
//! workers, reports for distinct tenants are applied by distinct
//! workers (visible in the per-shard stats) while each tenant's reports
//! are applied in exactly the order its producer enqueued them (visible
//! in the tenant driver's history).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::driver::Smartpick;
use smartpick_core::properties::SmartpickProperties;
use smartpick_core::training::TrainOptions;
use smartpick_core::wp::PredictionRequest;
use smartpick_engine::simulate_query;
use smartpick_ml::forest::ForestParams;
use smartpick_service::{CompletedRun, ServiceConfig, ServiceError, SmartpickService};
use smartpick_workloads::tpcds;

const THREADS: usize = 8;
const TENANTS: u64 = 64;
const OPS_PER_THREAD: usize = 24;

/// One trained template shared by every case (tenants are cheap forks).
fn template() -> &'static Smartpick {
    static TEMPLATE: OnceLock<Smartpick> = OnceLock::new();
    TEMPLATE.get_or_init(|| {
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
    })
}

/// A canned (query, determination, report) triple for report ops.
fn canned_run() -> &'static CompletedRun {
    static RUN: OnceLock<CompletedRun> = OnceLock::new();
    RUN.get_or_init(|| {
        let tpl = template();
        let query = tpcds::query(82, 100.0).unwrap();
        use smartpick_core::wp::WorkloadPredictionService;
        let determination = tpl
            .snapshot()
            .determine(&PredictionRequest::new(query.clone(), 17))
            .unwrap();
        let report =
            simulate_query(&query, &determination.allocation, tpl.predictor().env(), 23).unwrap();
        CompletedRun {
            query,
            determination,
            report,
        }
    })
}

#[derive(Default)]
struct Tally {
    registers: AtomicU64,
    predicts: AtomicU64,
    reports: AtomicU64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn concurrent_registry_ops_lose_nothing(seeds in prop::collection::vec(0u64..u64::MAX, THREADS)) {
        let service = Arc::new(SmartpickService::new(ServiceConfig {
            shards: 8,
            queue_capacity: 4096,
            tenant_pending_cap: 4096,
            retrain_batch_max: 16,
            retrain_workers: 4,
        ..ServiceConfig::default()
    }));
        let tally = Arc::new(Tally::default());

        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let service = Arc::clone(&service);
                let tally = Arc::clone(&tally);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    for _ in 0..OPS_PER_THREAD {
                        let tenant = format!("tenant-{}", rng.gen_range(0..TENANTS));
                        match rng.gen_range(0u8..3) {
                            0 => match service.register_fork(&tenant, template(), rng.gen()) {
                                Ok(()) => {
                                    tally.registers.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(ServiceError::TenantExists(_)) => {}
                                Err(other) => panic!("register: {other}"),
                            },
                            1 => {
                                let query = tpcds::query(82, 100.0).unwrap();
                                match service
                                    .predict(&tenant, &PredictionRequest::new(query, rng.gen()))
                                {
                                    Ok(det) => {
                                        assert!(det.predicted_seconds.is_finite());
                                        tally.predicts.fetch_add(1, Ordering::Relaxed);
                                    }
                                    Err(ServiceError::UnknownTenant(_)) => {}
                                    Err(other) => panic!("predict: {other}"),
                                }
                            }
                            _ => match service.report_run(&tenant, canned_run().clone()) {
                                Ok(()) => {
                                    tally.reports.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(ServiceError::UnknownTenant(_)) => {}
                                Err(other) => panic!("report: {other}"),
                            },
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("no thread may panic");
        }

        prop_assert!(service.flush());
        let scrape = service.scrape(0);
        // Never loses an update: every success tallied by a client is
        // visible in the service's books, exactly once.
        prop_assert_eq!(
            scrape.gauge("service.tenants") as u64,
            tally.registers.load(Ordering::Relaxed)
        );
        prop_assert_eq!(
            scrape.counter("service.predictions"),
            tally.predicts.load(Ordering::Relaxed)
        );
        prop_assert_eq!(
            scrape.counter("service.reports_enqueued"),
            tally.reports.load(Ordering::Relaxed)
        );
        prop_assert_eq!(
            scrape.counter("service.reports_applied"),
            tally.reports.load(Ordering::Relaxed)
        );
        prop_assert_eq!(scrape.counter("service.apply_failures"), 0);
        prop_assert_eq!(scrape.counter("service.rejections"), 0);
        prop_assert_eq!(scrape.gauge("service.queue_depth"), 0);
        // And every registered tenant is still resolvable.
        for id in service.tenants() {
            let ts = service.tenant_stats(&id).map_err(|e| {
                proptest::TestCaseError::fail(format!("lost tenant {id}: {e}"))
            })?;
            prop_assert_eq!(ts.pending_reports, 0);
        }
    }

    #[test]
    fn sharded_workers_preserve_per_tenant_report_order(
        offsets in prop::collection::vec(0u64..1000, THREADS),
    ) {
        const WORKERS: usize = 4;
        const TENANTS_PER_THREAD: usize = 2;
        const REPORTS_PER_TENANT: usize = 12;

        let service = Arc::new(SmartpickService::new(ServiceConfig {
            shards: 8,
            queue_capacity: 4096,
            tenant_pending_cap: 4096,
            retrain_batch_max: 4,
            retrain_workers: WORKERS,
        ..ServiceConfig::default()
    }));
        // Each thread owns disjoint tenants, so per-tenant enqueue order
        // is well defined; the worker must never reorder it.
        for t in 0..THREADS {
            for k in 0..TENANTS_PER_THREAD {
                let tenant = format!("tenant-{t}-{k}");
                service.register_fork(&tenant, template(), (t * 31 + k) as u64).unwrap();
            }
        }
        let base = canned_run();
        let predicted = base.determination.predicted_seconds;

        let handles: Vec<_> = offsets
            .iter()
            .enumerate()
            .map(|(t, &offset)| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    // Interleave the thread's tenants so their sequences
                    // are in flight concurrently, not back to back.
                    for seq in 0..REPORTS_PER_TENANT {
                        for k in 0..TENANTS_PER_THREAD {
                            let tenant = format!("tenant-{t}-{k}");
                            let mut run = canned_run().clone();
                            // Stamp the sequence number into the runtime
                            // (millisecond steps: far below the 50 s
                            // retrain trigger, so applies stay cheap, but
                            // exactly recoverable from the history).
                            run.report.completion =
                                smartpick_cloudsim::SimDuration::from_secs_f64(
                                    predicted + (offset as f64) * 1e-6 + (seq as f64) * 1e-3,
                                );
                            service.report_run(&tenant, run).unwrap();
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("no producer thread may panic");
        }
        prop_assert!(service.flush());

        // Per-tenant ordering: the history must hold every report, in
        // exactly the enqueued sequence.
        for t in 0..THREADS {
            for k in 0..TENANTS_PER_THREAD {
                let tenant = format!("tenant-{t}-{k}");
                let seconds: Vec<f64> = service
                    .inspect_tenant(&tenant, |driver| {
                        driver
                            .history()
                            .snapshot()
                            .iter()
                            .map(|r| r.actual_seconds)
                            .collect()
                    })
                    .unwrap();
                prop_assert_eq!(seconds.len(), REPORTS_PER_TENANT);
                for (seq, window) in seconds.windows(2).enumerate() {
                    prop_assert!(
                        window[0] < window[1],
                        "tenant {} applied out of order at seq {}: {:?}",
                        tenant, seq, seconds
                    );
                }
            }
        }

        // Distinct tenants really were applied by distinct workers, and
        // the per-shard books add up.
        let scrape = service.scrape(0);
        let applied: Vec<u64> = (0..)
            .map(|shard| format!("service.worker.{shard}.reports_applied"))
            .take_while(|name| scrape.metric(name).is_some())
            .map(|name| scrape.counter(&name))
            .collect();
        prop_assert_eq!(applied.len(), WORKERS);
        prop_assert_eq!(
            applied.iter().sum::<u64>(),
            (THREADS * TENANTS_PER_THREAD * REPORTS_PER_TENANT) as u64
        );
        prop_assert!(
            applied.iter().filter(|&&a| a > 0).count() >= 2,
            "16 tenants over 4 worker shards must exercise at least two: {:?}",
            applied
        );
        // Every tenant's advertised shard matches a worker that did work.
        for id in service.tenants() {
            let ts = service.tenant_stats(&id).unwrap();
            prop_assert!(ts.worker_shard < WORKERS);
            prop_assert!(applied[ts.worker_shard] > 0);
            prop_assert_eq!(ts.reports_applied, REPORTS_PER_TENANT as u64);
        }
    }
}
