//! Scraping must never serialise the readers it measures: this drives
//! four predict threads flat out while the main thread scrapes and
//! checks health the whole time, then proves the counters add up.

use std::sync::Arc;

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::driver::Smartpick;
use smartpick_core::properties::SmartpickProperties;
use smartpick_core::training::TrainOptions;
use smartpick_ml::forest::ForestParams;
use smartpick_obs::SCRAPE_VERSION;
use smartpick_service::SmartpickService;
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

#[test]
fn scraping_concurrently_with_predict_threads_is_safe_and_consistent() {
    const THREADS: usize = 4;
    const PREDICTIONS_PER_THREAD: u64 = 50;

    let service = Arc::new(SmartpickService::with_defaults());
    let tpl = template();
    for t in 0..THREADS {
        service
            .register_fork(format!("tenant-{t}"), &tpl, t as u64)
            .unwrap();
    }
    let query = tpcds::query(82, 100.0).unwrap();

    let predictors: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let query = query.clone();
            std::thread::spawn(move || {
                for seed in 0..PREDICTIONS_PER_THREAD {
                    service
                        .determine(&format!("tenant-{t}"), &query, seed)
                        .unwrap();
                }
            })
        })
        .collect();

    // Scrape continuously while the predictors hammer the hot path; every
    // envelope must be internally sane (monotonic reads aside).
    let mut last_predictions = 0;
    while predictors.iter().any(|p| !p.is_finished()) {
        let envelope = service.scrape(32);
        assert_eq!(envelope.version, SCRAPE_VERSION);
        let seen = envelope.counter("service.predictions");
        assert!(
            seen >= last_predictions,
            "counter ran backwards: {seen} < {last_predictions}"
        );
        last_predictions = seen;
        assert_eq!(envelope.gauge("service.tenants"), THREADS as i64);
        assert!(service.health().live);
    }
    for p in predictors {
        p.join().unwrap();
    }

    // Quiesced: the totals, the per-tenant counters, and the latency
    // histogram must all agree on exactly how much work happened.
    let total = THREADS as u64 * PREDICTIONS_PER_THREAD;
    let envelope = service.scrape(0);
    assert_eq!(envelope.counter("service.predictions"), total);
    for t in 0..THREADS {
        assert_eq!(
            envelope.counter(&format!("tenant.tenant-{t}.predictions")),
            PREDICTIONS_PER_THREAD
        );
    }
    let latency = envelope.histogram("service.predict_latency").unwrap();
    assert_eq!(latency.count, total);
    assert!(service.health().ready);

    // Deregistering a tenant prunes its metrics from the scrape but the
    // totals keep the full history — aggregates never run backwards.
    service.deregister_tenant("tenant-0").unwrap();
    let envelope = service.scrape(0);
    assert!(envelope.metric("tenant.tenant-0.predictions").is_none());
    assert_eq!(envelope.counter("service.predictions"), total);
    assert_eq!(envelope.gauge("service.tenants"), THREADS as i64 - 1);
}
