//! Multi-threaded service throughput: do snapshot reads scale?
//!
//! Two designs race at 1/2/4/8 client threads, each thread running a
//! fixed batch of resource determinations against the same trained
//! model:
//!
//! * `global_lock` — the pre-service design: one `Mutex<Smartpick>`
//!   every caller must take exclusively (the `&mut self` submit path,
//!   shrunk to its prediction core). Threads serialise; adding more
//!   cannot help.
//! * `snapshot_service` — smartpickd's read path: each determination
//!   runs against an immutable `Arc`'d model snapshot with no lock held,
//!   so per-iteration wall time should stay roughly flat as threads
//!   (and with them total work) grow.
//!
//! Run with `just service-bench` and compare the per-iteration means:
//! each iteration does `threads × OPS_PER_THREAD` determinations, so
//! flat time across the thread counts = linear read scaling. On a
//! single-core box the two designs tie on raw throughput (nothing can
//! actually run in parallel) — there the second group,
//! `reads_under_retrain`, is the discriminating one: it measures read
//! latency while retrains run continuously, where the global lock makes
//! every reader wait out whole retrains and the snapshot path does not.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::driver::Smartpick;
use smartpick_core::properties::SmartpickProperties;
use smartpick_core::training::TrainOptions;
use smartpick_core::wp::{PredictionRequest, WorkloadPredictionService};
use smartpick_engine::simulate_query;
use smartpick_ml::forest::ForestParams;
use smartpick_service::{ServiceConfig, SmartpickService};
use smartpick_workloads::tpcds;

const OPS_PER_THREAD: u64 = 4;
const THREAD_COUNTS: [u64; 4] = [1, 2, 4, 8];

fn trained_driver() -> Smartpick {
    let queries: Vec<_> = [82u32, 68]
        .iter()
        .map(|&q| tpcds::query(q, 100.0).expect("catalog query"))
        .collect();
    let opts = TrainOptions {
        configs_per_query: 6,
        burst_factor: 3,
        forest: ForestParams {
            n_trees: 20,
            ..ForestParams::default()
        },
        max_vm: 5,
        max_sl: 5,
        ..TrainOptions::default()
    };
    Smartpick::train_with_options(
        CloudEnv::new(Provider::Aws),
        SmartpickProperties::default(),
        &queries,
        &opts,
        42,
    )
    .expect("training succeeds")
    .0
}

fn bench_read_scaling(c: &mut Criterion) {
    let query = tpcds::query(82, 100.0).expect("catalog query");

    // Baseline: every reader funnels through one exclusive lock.
    let locked = Mutex::new(trained_driver());

    // Service: one tenant per (thread % 4), reads from snapshots.
    let service = SmartpickService::new(ServiceConfig::default());
    let template = trained_driver();
    for t in 0..4u64 {
        service
            .register_fork(format!("tenant-{t}"), &template, 100 + t)
            .expect("register tenant");
    }

    let mut group = c.benchmark_group("service_throughput");
    for threads in THREAD_COUNTS {
        group.bench_function(BenchmarkId::new("global_lock", threads), |b| {
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                std::thread::scope(|scope| {
                    for t in 0..threads {
                        let locked = &locked;
                        let query = &query;
                        scope.spawn(move || {
                            for i in 0..OPS_PER_THREAD {
                                let guard = locked.lock().expect("driver lock");
                                let det = guard
                                    .predictor()
                                    .determine(&PredictionRequest::new(
                                        query.clone(),
                                        round ^ (t << 32) ^ i,
                                    ))
                                    .expect("determination succeeds");
                                black_box(det.allocation);
                            }
                        });
                    }
                });
            })
        });

        group.bench_function(BenchmarkId::new("snapshot_service", threads), |b| {
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                std::thread::scope(|scope| {
                    for t in 0..threads {
                        let service = &service;
                        let query = &query;
                        scope.spawn(move || {
                            let tenant = format!("tenant-{}", t % 4);
                            for i in 0..OPS_PER_THREAD {
                                let det = service
                                    .predict(
                                        &tenant,
                                        &PredictionRequest::new(
                                            query.clone(),
                                            round ^ (t << 32) ^ i,
                                        ),
                                    )
                                    .expect("prediction succeeds");
                                black_box(det.allocation);
                            }
                        });
                    }
                });
            })
        });
    }
    group.finish();
}

/// Read latency with a continuous stream of model updates applied — the
/// "predictions never block behind a writer" claim, measured.
fn bench_reads_under_retrain(c: &mut Criterion) {
    let query = tpcds::query(82, 100.0).expect("catalog query");
    let mut group = c.benchmark_group("reads_under_retrain");

    // Shared mispredicted run: every apply fires a full retrain.
    let seed_driver = trained_driver();
    let determination = seed_driver
        .predictor()
        .determine(&PredictionRequest::new(query.clone(), 7))
        .expect("determination succeeds");
    let mut slow_report = simulate_query(
        &query,
        &determination.allocation,
        seed_driver.predictor().env(),
        9,
    )
    .expect("execution succeeds");
    slow_report.completion =
        smartpick_cloudsim::SimDuration::from_secs_f64(determination.predicted_seconds + 500.0);

    // Baseline: readers share one exclusive lock with the retrainer.
    {
        let locked = Mutex::new(trained_driver());
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let mut driver = locked.lock().expect("driver lock");
                    driver
                        .apply_report(&query, &determination, &slow_report)
                        .expect("apply succeeds");
                    drop(driver);
                    std::thread::yield_now();
                }
            });
            group.bench_function("global_lock", |b| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let guard = locked.lock().expect("driver lock");
                    let det = guard
                        .predictor()
                        .determine(&PredictionRequest::new(query.clone(), seed))
                        .expect("determination succeeds");
                    black_box(det.allocation)
                })
            });
            stop.store(true, Ordering::Relaxed);
        });
    }

    // Service: the worker retrains in the background; readers hit
    // snapshots.
    {
        let service = SmartpickService::new(ServiceConfig::default());
        service
            .register_tenant("tenant", trained_driver())
            .expect("register tenant");
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    // Quota rejections just mean the worker is saturated
                    // with retrains — exactly the pressure we want.
                    let _ = service.report_run(
                        "tenant",
                        smartpick_service::CompletedRun {
                            query: query.clone(),
                            determination: determination.clone(),
                            report: slow_report.clone(),
                        },
                    );
                    std::thread::yield_now();
                }
            });
            group.bench_function("snapshot_service", |b| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let det = service
                        .predict("tenant", &PredictionRequest::new(query.clone(), seed))
                        .expect("prediction succeeds");
                    black_box(det.allocation)
                })
            });
            stop.store(true, Ordering::Relaxed);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_read_scaling, bench_reads_under_retrain);
criterion_main!(benches);
