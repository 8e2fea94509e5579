//! Property tests for tiered residency: random interleavings of
//! {predict, report, evict, rehydrate, deregister, re-register} on one
//! tenant id, from several threads at once.
//!
//! `evict_rehydrate_interleavings_keep_generation_monotone`: with the
//! tenant permanently registered, threads race predicts, reports,
//! flushes, admin persists and evictions (every resolve of a cold tenant
//! is an implicit rehydration). No accepted report may be lost to an
//! eviction (accept-then-retire is backed out and retried), the snapshot
//! generation a thread observes never decreases — rehydration restores
//! the floor, it never rolls back — and a final evict → rehydrate cycle
//! brings back the history, retrain count and answers it took away. Half
//! the reports and predicts go the way the wire's event loop sends them:
//! the hot-only entry point first, the blocking one only for what it
//! declines — so the books also balance over a report admitted without a
//! resolve, and over one that lost the eviction race there and was
//! handed back.
//!
//! `full_lifecycle_interleavings_leave_no_ghosts`: deregister and
//! re-register join the mix. Whatever the interleaving, the books
//! balance (every accepted report is applied, even those in flight when
//! their tenant was deregistered), the store directory exists exactly
//! when the tenant is registered, and a reopen agrees with the final
//! in-memory registry — no ghost directories, no resurrections.
//!
//! `scrape_lists_exactly_the_hot_tenants_and_agrees_with_tenant_stats`:
//! one thread, three tenant ids, the same op mix against a model. After
//! every op the scrape is sorted with unique names, lists a tenant's
//! rows iff the tenant is hot, agrees field for field with
//! `tenant_stats`, never shows a counter lower than before an evict →
//! rehydrate cycle, and the per-tenant `predictions` (live tenants plus
//! deregistered ones) add up to `service.predictions` — while the
//! metrics registry keeps the size it had before any tenant existed.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

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
use smartpick_obs::{MetricKind, MetricValue};
use smartpick_service::{
    CompletedRun, PersistenceConfig, ServiceConfig, ServiceError, SmartpickService, TenantStats,
};
use smartpick_workloads::tpcds;

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 16;
const TENANT: &str = "solo";

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

/// A report the way the wire's event loop feeds it: admitted on the spot
/// if the tenant is hot, handed to the blocking path (which rehydrates)
/// if it is not or the report lost the race against its eviction.
fn report_as_the_wire_does(service: &SmartpickService) -> Result<(), ServiceError> {
    match service.report_run_if_hot(TENANT, Box::new(canned_run().clone())) {
        Ok(answer) => answer,
        Err(run) => service.report_run(TENANT, *run),
    }
}

/// A predict the way the wire's event loop runs it.
fn predict_as_the_wire_does(
    service: &SmartpickService,
    request: &PredictionRequest,
) -> Result<smartpick_core::wp::Determination, ServiceError> {
    service
        .predict_if_hot(TENANT, request, usize::MAX)
        .unwrap_or_else(|| service.predict(TENANT, request))
}

/// A fresh store root per proptest case, inside the repo's `target/`.
fn case_root(tag: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"))
        .join(format!("residency-prop-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        shards: 4,
        queue_capacity: 4096,
        tenant_pending_cap: 4096,
        retrain_batch_max: 8,
        retrain_workers: 2,
        supervisor_poll: Duration::from_millis(5),
        persistence: Some(PersistenceConfig {
            snapshot_every: u64::MAX,
            ..PersistenceConfig::at(dir)
        }),
        ..ServiceConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn evict_rehydrate_interleavings_keep_generation_monotone(
        seeds in prop::collection::vec(0u64..u64::MAX, THREADS),
    ) {
        let dir = case_root("monotone");
        let service = Arc::new(SmartpickService::open(&dir, durable_config(&dir)).unwrap());
        service.register_fork(TENANT, template(), 7).unwrap();
        let accepted = Arc::new(AtomicU64::new(0));

        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let service = Arc::clone(&service);
                let accepted = Arc::clone(&accepted);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut last_generation = 0u64;
                    for _ in 0..OPS_PER_THREAD {
                        match rng.gen_range(0u8..7) {
                            op @ (0 | 1) => {
                                let query = tpcds::query(82, 100.0).unwrap();
                                let request = PredictionRequest::new(query, rng.gen());
                                let det = if op == 0 {
                                    service.predict(TENANT, &request)
                                } else {
                                    predict_as_the_wire_does(&service, &request)
                                }
                                .expect("tenant is never deregistered");
                                assert!(det.predicted_seconds.is_finite());
                            }
                            op @ (2 | 3) => {
                                if op == 2 {
                                    service.report_run(TENANT, canned_run().clone())
                                } else {
                                    report_as_the_wire_does(&service)
                                }
                                .expect("report on a live tenant");
                                accepted.fetch_add(1, Ordering::Relaxed);
                            }
                            4 => {
                                // May refuse (pending reports pin it hot)
                                // or miss (already cold): both are fine.
                                let _ = service.evict_tenant(TENANT).unwrap();
                            }
                            5 => {
                                // Writes without holding the driver while
                                // reports keep applying (0 if cold).
                                service.persist_tenant(TENANT).unwrap();
                            }
                            _ => {
                                assert!(service.flush());
                            }
                        }
                        // The stats resolve rehydrates a cold tenant; the
                        // generation this thread observes must never go
                        // backwards — an eviction/rehydration cycle that
                        // lost a publish would show here.
                        let generation =
                            service.tenant_stats(TENANT).unwrap().snapshot_generation;
                        assert!(
                            generation >= last_generation,
                            "generation rolled back: {generation} < {last_generation}"
                        );
                        last_generation = generation;
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("no thread may panic");
        }

        prop_assert!(service.flush());
        let scrape = service.scrape(0);
        let accepted = accepted.load(Ordering::Relaxed);
        prop_assert_eq!(scrape.counter("service.reports_enqueued"), accepted);
        prop_assert_eq!(scrape.counter("service.reports_applied"), accepted);
        prop_assert_eq!(scrape.counter("service.apply_failures"), 0);
        prop_assert_eq!(scrape.counter("service.rejections"), 0);
        prop_assert_eq!(scrape.gauge("service.queue_depth"), 0);
        prop_assert_eq!(service.tenant_stats(TENANT).unwrap().pending_reports, 0);

        // Whatever the interleaving left on disk, one more eviction must
        // bring back exactly the model in memory: an admin persist that
        // raced a report must not have let it skip its write.
        let state_of = |service: &SmartpickService| {
            let (runs, retrains) = service
                .inspect_tenant(TENANT, |d| (d.history().len(), d.retrain_count()))
                .unwrap();
            let query = tpcds::query(82, 100.0).unwrap();
            let det = service.determine(TENANT, &query, 99).unwrap();
            (runs, retrains, det.predicted_seconds.to_bits())
        };
        let before = state_of(&service);
        prop_assert!(service.evict_tenant(TENANT).unwrap());
        prop_assert_eq!(state_of(&service), before);
    }

    #[test]
    fn full_lifecycle_interleavings_leave_no_ghosts(
        seeds in prop::collection::vec(0u64..u64::MAX, THREADS),
    ) {
        let dir = case_root("lifecycle");
        let service = Arc::new(SmartpickService::open(&dir, durable_config(&dir)).unwrap());
        service.register_fork(TENANT, template(), 7).unwrap();
        let accepted = Arc::new(AtomicU64::new(0));

        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let service = Arc::clone(&service);
                let accepted = Arc::clone(&accepted);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    for _ in 0..OPS_PER_THREAD {
                        match rng.gen_range(0u8..8) {
                            0 => match service.register_fork(TENANT, template(), rng.gen()) {
                                Ok(()) | Err(ServiceError::TenantExists(_)) => {}
                                Err(other) => panic!("register: {other}"),
                            },
                            op @ (1 | 2) => {
                                let query = tpcds::query(82, 100.0).unwrap();
                                let request = PredictionRequest::new(query, rng.gen());
                                match if op == 1 {
                                    service.predict(TENANT, &request)
                                } else {
                                    predict_as_the_wire_does(&service, &request)
                                } {
                                    Ok(det) => assert!(det.predicted_seconds.is_finite()),
                                    Err(ServiceError::UnknownTenant(_)) => {}
                                    Err(other) => panic!("predict: {other}"),
                                }
                            }
                            op @ 3..=5 => match if op == 3 {
                                service.report_run(TENANT, canned_run().clone())
                            } else {
                                report_as_the_wire_does(&service)
                            } {
                                Ok(()) => {
                                    accepted.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(ServiceError::UnknownTenant(_)) => {}
                                Err(other) => panic!("report: {other}"),
                            },
                            6 => match service.evict_tenant(TENANT) {
                                Ok(_) | Err(ServiceError::UnknownTenant(_)) => {}
                                Err(other) => panic!("evict: {other}"),
                            },
                            _ => match service.deregister_tenant(TENANT) {
                                Ok(()) | Err(ServiceError::UnknownTenant(_)) => {}
                                Err(other) => panic!("deregister: {other}"),
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
        // Every accepted report was applied — including those in flight
        // when their registration was torn down or its tenant evicted.
        let scrape = service.scrape(0);
        let accepted = accepted.load(Ordering::Relaxed);
        prop_assert_eq!(scrape.counter("service.reports_enqueued"), accepted);
        prop_assert_eq!(scrape.counter("service.reports_applied"), accepted);
        prop_assert_eq!(scrape.counter("service.apply_failures"), 0);
        prop_assert_eq!(scrape.gauge("service.queue_depth"), 0);

        // The store directory exists exactly when the tenant is
        // registered: no ghost directories after a deregistration, no
        // missing state for a survivor.
        let registered = service.tenants();
        let tenant_dir = dir.join("tenants").join(TENANT);
        if registered.is_empty() {
            prop_assert!(
                !tenant_dir.exists(),
                "ghost directory survived deregistration"
            );
        } else {
            prop_assert_eq!(&registered, &vec![TENANT.to_string()]);
            prop_assert!(tenant_dir.exists(), "registered tenant lost its directory");
        }

        // A reopen agrees with the final registry — nothing resurrects,
        // nothing vanishes, and a surviving tenant still serves.
        drop(service);
        let reopened = SmartpickService::open(&dir, durable_config(&dir)).unwrap();
        prop_assert_eq!(reopened.tenants(), registered.clone());
        if !registered.is_empty() {
            let query = tpcds::query(82, 100.0).unwrap();
            let det = reopened
                .predict(TENANT, &PredictionRequest::new(query, 5))
                .unwrap();
            prop_assert!(det.predicted_seconds.is_finite());
        }
    }

    #[test]
    fn scrape_lists_exactly_the_hot_tenants_and_agrees_with_tenant_stats(
        seed in 0u64..u64::MAX,
    ) {
        const IDS: [&str; 3] = ["a", "a-b", "a.b"]; // sort differently as ids and as row names
        const OPS: usize = 48;
        /// What the model knows of one registered tenant.
        #[derive(Default)]
        struct Model {
            hot: bool,
            predictions: u64,
            reports: u64,
        }

        let dir = case_root("scrape");
        let service = SmartpickService::open(&dir, durable_config(&dir)).unwrap();
        let series = service.observability().metrics().len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live: BTreeMap<&str, Model> = BTreeMap::new();
        let mut retired_predictions = 0u64;

        for step in 0..OPS {
            let id = IDS[rng.gen_range(0..IDS.len())];
            let known = live.contains_key(id);
            match rng.gen_range(0u8..8) {
                0 | 1 => match service.register_fork(id, template(), rng.gen()) {
                    Ok(()) => {
                        prop_assert!(!known);
                        live.insert(id, Model { hot: true, ..Model::default() });
                    }
                    Err(ServiceError::TenantExists(_)) => prop_assert!(known),
                    Err(other) => panic!("register: {other}"),
                },
                2 | 3 => {
                    let query = tpcds::query(82, 100.0).unwrap();
                    match service.predict(id, &PredictionRequest::new(query, rng.gen())) {
                        Ok(_) => {
                            let m = live.get_mut(id).expect("served an unknown tenant");
                            m.hot = true;
                            m.predictions += 1;
                        }
                        Err(ServiceError::UnknownTenant(_)) => prop_assert!(!known),
                        Err(other) => panic!("predict: {other}"),
                    }
                }
                4 => match service.report_run(id, canned_run().clone()) {
                    Ok(()) => {
                        let m = live.get_mut(id).expect("accepted for an unknown tenant");
                        m.hot = true;
                        m.reports += 1;
                    }
                    Err(ServiceError::UnknownTenant(_)) => prop_assert!(!known),
                    Err(other) => panic!("report: {other}"),
                },
                5 | 6 => match service.evict_tenant(id) {
                    // Flushed below after every op, so nothing pins it.
                    Ok(evicted) => {
                        let m = live.get_mut(id).expect("evicted an unknown tenant");
                        prop_assert_eq!(evicted, m.hot);
                        m.hot = false;
                    }
                    Err(ServiceError::UnknownTenant(_)) => prop_assert!(!known),
                    Err(other) => panic!("evict: {other}"),
                },
                _ => match service.deregister_tenant(id) {
                    Ok(()) => {
                        retired_predictions +=
                            live.remove(id).expect("deregistered an unknown tenant").predictions;
                    }
                    Err(ServiceError::UnknownTenant(_)) => prop_assert!(!known),
                    Err(other) => panic!("deregister: {other}"),
                },
            }
            prop_assert!(service.flush());

            let scrape = service.scrape(0);
            prop_assert!(
                scrape.metrics.windows(2).all(|w| w[0].name < w[1].name),
                "step {step}: scrape not sorted or a name repeats"
            );
            prop_assert_eq!(service.observability().metrics().len(), series);
            let tenant_rows = scrape.metrics.iter().filter(|m| m.name.starts_with("tenant.")).count();
            let hot = live.values().filter(|m| m.hot).count();
            prop_assert_eq!(tenant_rows, hot * TenantStats::SCRAPE_ROWS, "step {step}");
            prop_assert_eq!(scrape.gauge("service.residency.resident_tenants"), hot as i64);
            for id in IDS {
                let row = |field: &str| scrape.metric(&format!("tenant.{id}.{field}"));
                let Some(model) = live.get(id).filter(|m| m.hot) else {
                    prop_assert!(row("predictions").is_none(), "step {step}: {id} is not hot");
                    continue;
                };
                // Hot already, so this reading moves nothing.
                let stats = service.tenant_stats(id).unwrap();
                // The model's tallies span evict → rehydrate cycles: a
                // counter that restarted with its state would fall short.
                prop_assert_eq!(stats.predictions, model.predictions);
                prop_assert_eq!(stats.reports_applied, model.reports);
                for (field, want) in [
                    ("predictions", stats.predictions),
                    ("reports_enqueued", stats.reports_enqueued),
                    ("reports_applied", stats.reports_applied),
                    ("retrains", stats.retrains),
                    ("rejections", stats.rejections),
                    ("apply_failures", stats.apply_failures),
                    ("stale_predictions", stats.stale_predictions),
                ] {
                    let row = row(field).expect("a hot tenant lists every row");
                    prop_assert_eq!(row.kind, MetricKind::Counter);
                    prop_assert_eq!(&row.value, &MetricValue::Counter(want), "{}", field);
                }
                prop_assert_eq!(
                    scrape.gauge(&format!("tenant.{id}.pending_reports")),
                    stats.pending_reports as i64
                );
                prop_assert_eq!(
                    scrape.gauge(&format!("tenant.{id}.snapshot_generation")),
                    stats.snapshot_generation as i64
                );
                let age_at_scrape = scrape.gauge(&format!("tenant.{id}.snapshot_age_us"));
                prop_assert!(age_at_scrape <= stats.snapshot_age.as_micros() as i64);
            }
            let live_predictions: u64 = live.values().map(|m| m.predictions).sum();
            prop_assert_eq!(
                scrape.counter("service.predictions"),
                live_predictions + retired_predictions
            );
        }
    }
}
