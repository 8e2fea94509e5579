//! Tiered residency, end to end through the service: eviction bounds the
//! resident set, a cold hit rehydrates transparently and predicts
//! **bitwise-identically** to a never-evicted twin, pending reports pin a
//! tenant hot, rehydration is single-flight, and — the headline
//! regression — a tenant deregistered mid-retrain-batch stays gone across
//! a reopen (no ghost resurrection by the worker's snapshot persist).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::driver::Smartpick;
use smartpick_core::properties::SmartpickProperties;
use smartpick_core::training::TrainOptions;
use smartpick_core::{ConstraintMode, PredictionRequest};
use smartpick_ml::forest::ForestParams;
use smartpick_obs::EventKind;
use smartpick_service::{
    CompletedRun, PersistenceConfig, ServiceConfig, ServiceError, SmartpickService,
};
use smartpick_workloads::tpcds;

/// A store root inside the repo's own `target/` (tests must not touch
/// paths outside the repository).
fn test_root(tag: &str) -> PathBuf {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"))
        .join(format!("residency-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic small trained driver — same recipe, same seed, so two
/// calls yield bit-identical drivers.
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

fn durable_config(dir: &Path, snapshot_every: u64) -> ServiceConfig {
    ServiceConfig {
        retrain_workers: 1,
        supervisor_poll: Duration::from_millis(5),
        persistence: Some(PersistenceConfig {
            snapshot_every,
            ..PersistenceConfig::at(dir)
        }),
        ..ServiceConfig::default()
    }
}

fn probe(seed: u64) -> PredictionRequest {
    PredictionRequest {
        query: tpcds::query(82, 100.0).unwrap(),
        knob: 0.0,
        constraint: ConstraintMode::Hybrid,
        seed,
    }
}

/// The newest snapshot file in a tenant's store directory (generations
/// are zero-padded, so the greatest name is the newest).
fn newest_snapshot(tenant_dir: &Path) -> PathBuf {
    fs::read_dir(tenant_dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .max()
        .expect("a snapshot on disk")
}

/// Bit-faithful comparison via `Debug`: f64s render as their shortest
/// round-trip form, so any bit of drift in the rehydrated model shows.
fn assert_same_prediction(a: &SmartpickService, b: &SmartpickService, tenant: &str, seed: u64) {
    let da = a.predict(tenant, &probe(seed)).unwrap();
    let db = b.predict(tenant, &probe(seed)).unwrap();
    assert_eq!(
        format!("{da:?}"),
        format!("{db:?}"),
        "predictions diverged for {tenant} at seed {seed}"
    );
}

/// The acceptance-criterion test: with `max_resident_tenants = 2` and 5
/// registered tenants, the sweep bounds the resident set; every tenant —
/// evicted or not — predicts bitwise-identically to an in-memory twin
/// that never evicts, and the per-tenant counters survive the
/// evict/rehydrate cycle (a cold tenant is indistinguishable from a hot
/// one at every public API, except latency).
#[test]
fn eviction_bounds_residency_and_cold_hits_match_never_evicted_twin() {
    let dir = test_root("twin");
    const TENANTS: usize = 5;
    const MAX_RESIDENT: usize = 2;

    let durable = SmartpickService::open(
        &dir,
        ServiceConfig {
            max_resident_tenants: Some(MAX_RESIDENT),
            ..durable_config(&dir, u64::MAX)
        },
    )
    .unwrap();
    let twin = SmartpickService::new(ServiceConfig {
        retrain_workers: 1,
        supervisor_poll: Duration::from_millis(5),
        ..ServiceConfig::default()
    });
    let tpl = template();
    for i in 0..TENANTS {
        let id = format!("t-{i}");
        durable.register_fork(&id, &tpl, 100 + i as u64).unwrap();
        twin.register_fork(&id, &tpl, 100 + i as u64).unwrap();
    }

    // Give every tenant one applied report, mirrored to the twin, so the
    // evicted state is past its registration snapshot.
    for i in 0..TENANTS {
        let id = format!("t-{i}");
        let query = tpcds::query(82, 100.0).unwrap();
        let outcome = durable.submit(&id, &query, 500 + i as u64).unwrap();
        twin.report_run(
            &id,
            CompletedRun {
                query,
                determination: outcome.determination.clone(),
                report: outcome.report.clone(),
            },
        )
        .unwrap();
    }
    assert!(durable.flush());
    assert!(twin.flush());

    // One sweep takes the resident set down to the cap.
    assert_eq!(durable.resident_tenants(), TENANTS);
    durable.residency_sweep();
    assert!(
        durable.resident_tenants() <= MAX_RESIDENT,
        "sweep left {} tenants resident (cap {MAX_RESIDENT})",
        durable.resident_tenants()
    );
    let metrics = durable.observability().metrics();
    assert_eq!(
        metrics.counter("service.residency.evictions").get(),
        (TENANTS - MAX_RESIDENT) as u64
    );

    // Track one tenant's counter continuity across the cycle: the submit
    // above already counted one prediction.
    let watched = "t-0";
    let before = durable.tenant_stats(watched).unwrap().predictions;

    // Every tenant — whichever ones went cold — serves the exact same
    // bits as the twin. Cold hits rehydrate transparently.
    for i in 0..TENANTS {
        let id = format!("t-{i}");
        for seed in [1u64, 9, 42] {
            assert_same_prediction(&durable, &twin, &id, seed);
        }
    }
    assert_eq!(
        metrics.counter("service.residency.rehydrations").get(),
        (TENANTS - MAX_RESIDENT) as u64
    );

    // Counters survived: tenant_stats and the scrape agree, and the
    // pre-eviction history was not reset by the rehydration.
    let after = durable.tenant_stats(watched).unwrap().predictions;
    assert_eq!(after, before + 3);
    let scrape = durable.scrape(64);
    assert_eq!(
        scrape.counter(&format!("tenant.{watched}.predictions")),
        after
    );
    assert_eq!(
        scrape.gauge("service.residency.resident_tenants") as usize,
        durable.resident_tenants()
    );

    // The story is on the event record.
    let events = durable.observability().events().recent(256);
    assert!(events.iter().any(|e| e.kind == EventKind::TenantEvicted));
    assert!(events.iter().any(|e| e.kind == EventKind::TenantRehydrated));

    // And a rehydrated tenant is fully live: it keeps absorbing feedback.
    let query = tpcds::query(82, 100.0).unwrap();
    durable.submit(watched, &query, 777).unwrap();
    assert!(durable.flush());
}

/// The headline regression: deregistering a tenant while a retrain
/// worker is mid-batch (blocked on the driver lock, snapshot persist
/// still ahead of it) must not let the worker's persistence path
/// recreate the tenant's store directory — reopening the service must
/// not resurrect the tenant.
#[test]
fn deregister_mid_retrain_batch_cannot_resurrect_tenant() {
    let dir = test_root("ghost");
    // snapshot_every = 1: every applied report persists a snapshot — the
    // exact write that used to resurrect the directory.
    let svc = Arc::new(SmartpickService::open(&dir, durable_config(&dir, 1)).unwrap());
    svc.register_tenant("ghost", template()).unwrap();

    // Seed one applied report so the worker path is warm.
    let query = tpcds::query(82, 100.0).unwrap();
    let outcome = svc.submit("ghost", &query, 7).unwrap();
    assert!(svc.flush());
    assert!(dir.join("tenants").join("ghost").exists());

    // Hold the driver lock from another thread, enqueue a report (the
    // worker WAL-appends it, then blocks on the lock), deregister while
    // the worker is wedged mid-batch, then release.
    let holder = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            svc.inspect_tenant("ghost", |_| {
                std::thread::sleep(Duration::from_millis(300));
            })
            .unwrap();
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    svc.report_run(
        "ghost",
        CompletedRun {
            query: query.clone(),
            determination: outcome.determination.clone(),
            report: outcome.report.clone(),
        },
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    svc.deregister_tenant("ghost").unwrap();
    holder.join().unwrap();

    // Let the worker finish the wedged batch (its persist must now be
    // suppressed by the defunct stamp), then "crash" and reopen.
    assert!(svc.flush());
    assert!(
        !dir.join("tenants").join("ghost").exists(),
        "worker persistence resurrected a deregistered tenant's directory"
    );
    drop(svc);
    let reopened = SmartpickService::open(&dir, durable_config(&dir, 1)).unwrap();
    assert!(
        reopened.tenants().is_empty(),
        "deregistered tenant came back from the dead: {:?}",
        reopened.tenants()
    );
}

/// The deregister/re-register metrics race: the old teardown pruned
/// `tenant.<id>.*` by name prefix, so a concurrent re-registration's
/// fresh counters could be wiped by the previous registration's
/// deregistration. Teardown is now identity-keyed; the survivor's
/// metrics must always be live in the scrape.
#[test]
fn concurrent_deregister_reregister_never_prunes_fresh_metrics() {
    const ITERS: usize = 40;
    let svc = Arc::new(SmartpickService::new(ServiceConfig {
        retrain_workers: 1,
        ..ServiceConfig::default()
    }));
    let tpl = Arc::new(template());
    svc.register_fork("flip", &tpl, 0).unwrap();

    for round in 0..ITERS {
        let dereg = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.deregister_tenant("flip").unwrap())
        };
        let rereg = {
            let svc = Arc::clone(&svc);
            let tpl = Arc::clone(&tpl);
            std::thread::spawn(move || loop {
                match svc.register_fork("flip", &tpl, round as u64 + 1) {
                    Ok(()) => break,
                    Err(ServiceError::TenantExists(_)) => std::thread::yield_now(),
                    Err(other) => panic!("re-register: {other}"),
                }
            })
        };
        dereg.join().unwrap();
        rereg.join().unwrap();

        // The surviving registration's counters must be the ones in the
        // scrape: one prediction on the fresh tenant reads back as
        // exactly one, through both the stats and the metrics registry.
        svc.predict("flip", &probe(round as u64)).unwrap();
        let stats = svc.tenant_stats("flip").unwrap();
        assert_eq!(
            stats.predictions, 1,
            "round {round}: stale counter instance"
        );
        let scrape = svc.scrape(0);
        assert_eq!(
            scrape.counter("tenant.flip.predictions"),
            1,
            "round {round}: fresh tenant's metrics were pruned by the old deregistration"
        );
    }
}

/// Rehydration is single-flight: N concurrent cold hits produce exactly
/// one snapshot load; the other callers block on it and then serve.
#[test]
fn concurrent_cold_hits_rehydrate_once() {
    let dir = test_root("singleflight");
    let svc = Arc::new(SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap());
    svc.register_tenant("solo", template()).unwrap();
    let want = format!("{:?}", svc.predict("solo", &probe(3)).unwrap());

    assert!(svc.evict_tenant("solo").unwrap());
    assert_eq!(svc.resident_tenants(), 0);

    let hits = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let hits = Arc::clone(&hits);
            let want = want.clone();
            std::thread::spawn(move || {
                let got = format!("{:?}", svc.predict("solo", &probe(3)).unwrap());
                assert_eq!(got, want, "cold hit diverged from pre-eviction bits");
                hits.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(hits.load(Ordering::Relaxed), 8);
    assert_eq!(
        svc.observability()
            .metrics()
            .counter("service.residency.rehydrations")
            .get(),
        1,
        "rehydration must be single-flight"
    );
    assert_eq!(svc.resident_tenants(), 1);
}

/// A tenant with pending (accepted, unapplied) reports is pinned hot:
/// eviction refuses until the batch commits, and the report is applied
/// against the same driver instance it was accepted for.
#[test]
fn pending_reports_pin_tenant_hot() {
    let dir = test_root("pin");
    let svc = Arc::new(SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap());
    svc.register_tenant("busy", template()).unwrap();
    let query = tpcds::query(82, 100.0).unwrap();
    let outcome = svc.submit("busy", &query, 1).unwrap();
    assert!(svc.flush());

    // Wedge the worker on the driver lock, then accept a report: pending
    // stays > 0 until the apply lands, and eviction must refuse.
    let holder = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            svc.inspect_tenant("busy", |_| {
                std::thread::sleep(Duration::from_millis(200));
            })
            .unwrap();
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    svc.report_run(
        "busy",
        CompletedRun {
            query,
            determination: outcome.determination.clone(),
            report: outcome.report.clone(),
        },
    )
    .unwrap();
    assert!(
        !svc.evict_tenant("busy").unwrap(),
        "eviction must refuse a tenant with pending reports"
    );
    holder.join().unwrap();
    assert!(svc.flush());
    assert_eq!(svc.tenant_stats("busy").unwrap().reports_applied, 2);

    // Batch committed: now the tenant is evictable, and the cold state
    // includes the report that pinned it. The final snapshot that
    // eviction writes is on the event record once, under its cause.
    let events = svc.observability().events();
    let mark = events.recent(1).last().map_or(0, |e| e.seq);
    assert!(svc.evict_tenant("busy").unwrap());
    let persisted: Vec<_> = events
        .recent(64)
        .into_iter()
        .filter(|e| e.seq > mark && e.kind == EventKind::SnapshotPersisted)
        .collect();
    assert_eq!(persisted.len(), 1, "{persisted:?}");
    assert!(persisted[0]
        .detail
        .as_deref()
        .is_some_and(|d| d.contains("eviction")));
    assert_eq!(svc.tenant_stats("busy").unwrap().reports_applied, 2);
}

/// Kill-during-evict-snapshot crash test (the `wal_truncation` harness
/// idea, applied to the evict path): evict persists a final snapshot;
/// the "kill" tears that file at an arbitrary byte offset. Recovery must
/// quarantine the torn snapshot and rebuild the tenant from the previous
/// snapshot plus WAL replay — bitwise-identical to the pre-kill state.
#[test]
fn torn_evict_snapshot_recovers_from_previous_generation_plus_wal() {
    for (tag, cut) in [("cut25", 0.25f64), ("cut80", 0.80f64)] {
        let dir = test_root(&format!("torn-{tag}"));
        const REPORTS: u64 = 2;
        let want = {
            let svc = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
            svc.register_tenant("t", template()).unwrap();
            for i in 0..REPORTS {
                let query = tpcds::query(82, 100.0).unwrap();
                svc.submit("t", &query, 20 + i).unwrap();
                assert!(svc.flush());
            }
            let want = format!("{:?}", svc.predict("t", &probe(5)).unwrap());
            assert!(svc.evict_tenant("t").unwrap());
            want
            // Killed here: drop without any further checkpoint.
        };

        // Tear the evict-time snapshot (the newest on disk) at `cut`.
        let newest = newest_snapshot(&dir.join("tenants").join("t"));
        let bytes = fs::read(&newest).unwrap();
        let keep = ((bytes.len() as f64) * cut) as usize;
        fs::write(&newest, &bytes[..keep]).unwrap();

        let recovered = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
        assert_eq!(recovered.tenants(), vec!["t".to_string()]);
        assert_eq!(
            recovered.tenant_stats("t").unwrap().snapshot_generation,
            REPORTS,
            "{tag}: recovery must land at the pre-kill generation"
        );
        assert_eq!(
            format!("{:?}", recovered.predict("t", &probe(5)).unwrap()),
            want,
            "{tag}: recovered prediction diverged from pre-kill bits"
        );
        assert!(
            recovered
                .observability()
                .metrics()
                .counter("store.snapshots_quarantined")
                .get()
                >= 1,
            "{tag}: the torn evict snapshot must be quarantined"
        );
    }
}

/// The capacity sweep orders tenants by a last-touch stamp that readers
/// keep moving while it sorts. Sweeping in a loop while 4 threads touch
/// 64 tenants under a cap of 8 must never panic (a sort key that
/// changes between comparisons is not a total order), and once the
/// touching stops the cap holds.
#[test]
fn sweep_under_concurrent_touches_never_panics_and_holds_the_cap() {
    const TENANTS: usize = 64;
    const CAP: usize = 8;
    let dir = test_root("sweep-under-touch");
    let svc = Arc::new(
        SmartpickService::open(
            &dir,
            ServiceConfig {
                max_resident_tenants: Some(CAP),
                ..durable_config(&dir, u64::MAX)
            },
        )
        .unwrap(),
    );
    let tpl = template();
    for i in 0..TENANTS {
        svc.register_tenant(format!("t{i}"), tpl.fork(i as u64))
            .unwrap();
    }

    let stop = Arc::new(AtomicUsize::new(0));
    let touchers: Vec<_> = (0..4)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = t;
                while stop.load(Ordering::Relaxed) == 0 {
                    svc.predict(&format!("t{}", i % TENANTS), &probe(i as u64))
                        .unwrap();
                    i += 4;
                }
            })
        })
        .collect();

    // Each sweep waits for the touchers to re-heat well past the cap, so
    // every sort covers dozens of tenants whose stamps are in motion.
    for _ in 0..200 {
        let reheat = std::time::Instant::now();
        while svc.resident_tenants() < TENANTS / 2 && reheat.elapsed() < Duration::from_secs(5) {
            std::thread::yield_now();
        }
        svc.residency_sweep();
    }
    stop.store(1, Ordering::Relaxed);
    for toucher in touchers {
        toucher.join().unwrap();
    }
    svc.residency_sweep();
    assert!(
        svc.resident_tenants() <= CAP,
        "{} tenants resident under a cap of {CAP}",
        svc.resident_tenants()
    );
}

/// The hot-only entry points (what the wire's event loop calls) are the
/// blocking ones minus everything that can block: on a hot tenant under
/// the cost bound they give the same bits and move the same counters,
/// the latency record and the staleness flag; over the bound, and on a
/// cold or unknown tenant, they decline without moving anything — the
/// tenant stays cold, the report comes back — and the blocking path then
/// answers as it always did.
#[test]
fn hot_only_entry_points_match_the_blocking_ones_and_decline_what_could_block() {
    let dir = test_root("hot-only");
    let stale_at_once = |base: ServiceConfig| ServiceConfig {
        max_snapshot_age: Some(Duration::from_micros(1)),
        ..base
    };
    let hot_only =
        SmartpickService::open(&dir, stale_at_once(durable_config(&dir, u64::MAX))).unwrap();
    let blocking = SmartpickService::new(stale_at_once(ServiceConfig {
        retrain_workers: 1,
        ..ServiceConfig::default()
    }));
    let tpl = template();
    hot_only.register_fork("acme", &tpl, 7).unwrap();
    blocking.register_fork("acme", &tpl, 7).unwrap();
    let query = tpcds::query(82, 100.0).unwrap();
    // Every snapshot is read over-age: 2 ms after it was published.
    let age = || std::thread::sleep(Duration::from_millis(2));
    age();
    let run = {
        let outcome = blocking.submit("acme", &query, 3).unwrap();
        hot_only.submit("acme", &query, 3).unwrap();
        CompletedRun {
            query: query.clone(),
            determination: outcome.determination,
            report: outcome.report,
        }
    };
    assert!(blocking.flush() && hot_only.flush());
    age();

    // Same answers, hot and under the bound.
    for seed in 0..4u64 {
        let want = blocking.determine("acme", &query, seed).unwrap();
        let got = hot_only
            .determine_if_hot("acme", &query, seed, usize::MAX)
            .expect("hot and under the bound")
            .unwrap();
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "determine {seed}");
        let want = blocking.predict("acme", &probe(seed)).unwrap();
        let got = hot_only
            .predict_if_hot("acme", &probe(seed), usize::MAX)
            .expect("hot and under the bound")
            .unwrap();
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "predict {seed}");
    }
    blocking.report_run("acme", run.clone()).unwrap();
    hot_only
        .report_run_if_hot("acme", Box::new(run.clone()))
        .expect("hot: admitted on the spot")
        .unwrap();
    assert!(blocking.flush() && hot_only.flush());

    // Same books: (tenant counters, service totals and the latency
    // record's sample count; the staleness counters and the one
    // `StalenessFlagged` event per stale episode).
    let books = |svc: &SmartpickService| {
        let t = svc.tenant_stats("acme").unwrap();
        let s = svc.scrape(0);
        let flagged = svc
            .observability()
            .events()
            .recent(256)
            .iter()
            .filter(|e| e.kind == EventKind::StalenessFlagged)
            .count();
        (
            [
                t.predictions,
                t.reports_enqueued,
                t.reports_applied,
                t.rejections,
                t.snapshot_generation,
                s.counter("service.predictions"),
                s.counter("service.reports_enqueued"),
                s.histogram("service.predict_latency").unwrap().count,
            ],
            [
                t.stale_predictions,
                s.counter("service.stale_predictions"),
                flagged as u64,
            ],
        )
    };
    assert_eq!(books(&hot_only), books(&blocking));
    assert_eq!(
        books(&hot_only),
        ([9, 2, 2, 0, 2, 9, 2, 9], [9, 9, 2]),
        "submit + 4 determines + 4 predicts, all stale, over two episodes"
    );

    // Over the bound: declined, nothing counted.
    let before = books(&hot_only);
    assert!(hot_only.determine_if_hot("acme", &query, 1, 0).is_none());
    assert!(hot_only.predict_if_hot("acme", &probe(1), 0).is_none());
    assert_eq!(books(&hot_only), before);

    // Unknown: declined (the typed error is the blocking path's to give).
    assert!(hot_only
        .determine_if_hot("nobody", &query, 1, usize::MAX)
        .is_none());
    assert!(hot_only
        .report_run_if_hot("nobody", Box::new(run.clone()))
        .is_err());
    assert!(matches!(
        hot_only.determine("nobody", &query, 1),
        Err(ServiceError::UnknownTenant(_))
    ));

    // Cold: declined without rehydrating, the report handed back intact.
    assert!(hot_only.evict_tenant("acme").unwrap());
    assert!(hot_only
        .determine_if_hot("acme", &query, 1, usize::MAX)
        .is_none());
    assert!(hot_only
        .predict_if_hot("acme", &probe(1), usize::MAX)
        .is_none());
    let returned = hot_only
        .report_run_if_hot("acme", Box::new(run.clone()))
        .expect_err("a cold tenant admits nothing from here");
    assert_eq!(format!("{returned:?}"), format!("{run:?}"));
    assert_eq!(hot_only.resident_tenants(), 0, "declining must not load");
    let metrics = hot_only.observability().metrics();
    assert_eq!(metrics.counter("service.residency.rehydrations").get(), 0);

    // The blocking path takes it from there, bit for bit.
    assert_same_prediction(&hot_only, &blocking, "acme", 11);
    assert_eq!(metrics.counter("service.residency.rehydrations").get(), 1);
    hot_only.report_run("acme", *returned).unwrap();
    blocking.report_run("acme", run).unwrap();
    assert!(blocking.flush() && hot_only.flush());
    // (Staleness aside: a rehydrated snapshot's age restarts.)
    assert_eq!(books(&hot_only).0, books(&blocking).0);
}

/// A restart honours the resident cap: `open` loads the tenants the log
/// holds something for and leaves every idle one on disk behind a cold
/// slot — listed, counted, and answering at first touch exactly as before
/// the crash — without persisting a snapshot. An idle tenant's snapshot
/// is therefore not read at startup: one that rots on disk is found,
/// quarantined and fallen back from by its first touch.
#[test]
fn a_reopen_loads_only_tenants_with_live_records_and_leaves_the_idle_ones_cold() {
    const TENANTS: usize = 64;
    const CAP: usize = 8;
    const BUSY: usize = 4;
    let dir = test_root("cold-open");
    let id = |i: usize| format!("t-{i:02}");
    let answers = |svc: &SmartpickService, i: usize| -> Vec<String> {
        [1u64, 9, 42]
            .iter()
            .map(|&seed| format!("{:?}", svc.predict(&id(i), &probe(seed)).unwrap()))
            .collect()
    };
    // Rots once the reopened service is up: two generations on disk, the
    // newer one covering its only report.
    let rotting = TENANTS - 1;

    // No cap while the store is filled, so no sweep persists anything:
    // the four busy tenants' reports are in the log alone.
    let (want, older, generation) = {
        let svc = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
        let tpl = template();
        for i in 0..TENANTS {
            svc.register_fork(id(i), &tpl, 100 + i as u64).unwrap();
        }
        let older = answers(&svc, rotting);
        let query = tpcds::query(82, 100.0).unwrap();
        for i in (0..BUSY).chain([rotting]) {
            let outcome = svc.submit(&id(i), &query, 500).unwrap();
            // And a run the model got badly wrong, so applying it retrains.
            let mut surprise = CompletedRun {
                query: query.clone(),
                determination: outcome.determination,
                report: outcome.report,
            };
            surprise.determination.predicted_seconds += 1e4;
            svc.report_run(&id(i), surprise).unwrap();
        }
        assert!(svc.flush());
        svc.persist_tenant(&id(rotting)).unwrap();
        let want: Vec<Vec<String>> = (0..TENANTS).map(|i| answers(&svc, i)).collect();
        assert!(want[rotting] != older, "the reports moved the model");
        let generation = svc.tenant_stats(&id(rotting)).unwrap().snapshot_generation;
        (want, older, generation)
        // Killed here: drop without any further checkpoint.
    };

    // An hour between polls: no sweep runs unless this thread runs it.
    let svc = SmartpickService::open(
        &dir,
        ServiceConfig {
            max_resident_tenants: Some(CAP),
            supervisor_poll: Duration::from_secs(3600),
            ..durable_config(&dir, u64::MAX)
        },
    )
    .unwrap();
    assert_eq!(svc.resident_tenants(), BUSY, "idle tenants stay on disk");
    assert_eq!(svc.tenants().len(), TENANTS);
    let scrape = svc.scrape(0);
    assert_eq!(scrape.gauge("service.tenants"), TENANTS as i64);
    assert_eq!(
        scrape.counter("store.recovery_tenants_replayed"),
        BUSY as u64
    );
    assert_eq!(
        scrape.counter("store.recovery_tenants_cold"),
        (TENANTS - BUSY) as u64
    );
    assert_eq!(
        scrape.counter("store.wal_records_replayed"),
        2 * BUSY as u64
    );
    assert_eq!(scrape.counter("store.snapshots_persisted"), 0);
    assert_eq!(scrape.counter("store.snapshots_quarantined"), 0);

    // The newest snapshot of a tenant nobody has touched yet goes bad.
    let tenant_dir = dir.join("tenants").join(id(rotting));
    let newest = newest_snapshot(&tenant_dir);
    let mut bytes = fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&newest, &bytes).unwrap();

    // Hot or cold, every other tenant answers as it did before the crash.
    for (i, want) in want.iter().enumerate().filter(|(i, _)| *i != rotting) {
        assert_eq!(&answers(&svc, i), want, "{}", id(i));
    }
    let metrics = svc.observability().metrics();
    assert_eq!(
        metrics.counter("service.residency.rehydrations").get(),
        (TENANTS - BUSY - 1) as u64
    );
    svc.residency_sweep();
    assert!(svc.resident_tenants() <= CAP);

    // First touch of the rotten one: quarantined there, and served from
    // the generation before, under the generation number it had reached.
    assert_eq!(answers(&svc, rotting), older);
    assert_eq!(metrics.counter("store.snapshots_quarantined").get(), 1);
    assert!(tenant_dir.join("quarantine").is_dir());
    assert!(svc
        .observability()
        .events()
        .recent(256)
        .iter()
        .any(|e| e.kind == EventKind::SnapshotQuarantined
            && e.tenant.as_deref() == Some(id(rotting).as_str())));
    assert_eq!(
        svc.tenant_stats(&id(rotting)).unwrap().snapshot_generation,
        generation
    );
}

/// Nobody calls `residency_sweep` here: the sweep thread alone brings the
/// resident set down to the cap. With an hour-long tick the thread spends
/// its life in one wait, and shutdown still ends it at once — dropping
/// the stop sender wakes the wait.
#[test]
fn the_sweep_thread_holds_the_cap_and_stops_at_shutdown() {
    let dir = test_root("sweep-thread");
    let svc = SmartpickService::open(
        &dir,
        ServiceConfig {
            max_resident_tenants: Some(2),
            ..durable_config(&dir, u64::MAX)
        },
    )
    .unwrap();
    let tpl = template();
    for i in 0..5 {
        svc.register_fork(format!("t-{i}"), &tpl, 100 + i).unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while svc.resident_tenants() > 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "the sweep thread left {} tenants resident",
            svc.resident_tenants()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(svc);

    let svc = SmartpickService::open(
        &dir,
        ServiceConfig {
            max_resident_tenants: Some(2),
            supervisor_poll: Duration::from_secs(3600),
            ..durable_config(&dir, u64::MAX)
        },
    )
    .unwrap();
    let started = std::time::Instant::now();
    drop(svc);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shutdown took {:?}",
        started.elapsed()
    );
    let _ = fs::remove_dir_all(&dir);
}
