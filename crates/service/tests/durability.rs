//! Durability, end to end through the service: a service killed
//! mid-stream (worker poisoned, process "dies" by drop without a final
//! checkpoint) reopens from disk and serves the **same predictions at
//! the same snapshot generation** as a twin that never crashed — zero
//! accepted reports lost. Plus the degraded paths: a corrupted newest
//! snapshot is quarantined and rebuilt from the WAL, and
//! [`FlushOutcome`] tells a timed-out flush from a dead shard.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::driver::Smartpick;
use smartpick_core::history::HISTORY_CAPACITY;
use smartpick_core::properties::SmartpickProperties;
use smartpick_core::training::TrainOptions;
use smartpick_core::{ConstraintMode, PredictionRequest};
use smartpick_ml::forest::ForestParams;
use smartpick_obs::{EventKind, MetricSample, MetricValue};
use smartpick_service::{
    CompletedRun, CrashPoint, FlushOutcome, FsyncPolicy, PersistenceConfig, RestartPolicy,
    ServiceConfig, SmartpickService,
};
use smartpick_store::snapshot::SnapshotMeta;
use smartpick_store::wal::{scan_wal, MAGIC};
use smartpick_store::{Snapshot, WalPayload, WalRecord};
use smartpick_workloads::tpcds;

/// A store root inside the repo's own `target/` (tests must not touch
/// paths outside the repository).
fn test_root(tag: &str) -> PathBuf {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"))
        .join(format!("durability-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic small trained driver — same recipe, same seed, so two
/// calls yield bit-identical drivers (the twin test's starting line).
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

/// Single-worker config so report order (and thus generation count) is
/// deterministic; `snapshot_every` picks how much recovery leans on the
/// WAL versus snapshots.
fn durable_config(dir: &Path, snapshot_every: u64) -> ServiceConfig {
    ServiceConfig {
        retrain_workers: 1,
        restart_policy: RestartPolicy::Restart {
            max_retries: 3,
            backoff: Duration::from_millis(10),
        },
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

/// Bit-faithful comparison via `Debug`: f64s render as their shortest
/// round-trip form, so any bit of drift in the recovered model shows.
fn assert_same_prediction(a: &SmartpickService, b: &SmartpickService, tenant: &str, seed: u64) {
    let da = a.predict(tenant, &probe(seed)).unwrap();
    let db = b.predict(tenant, &probe(seed)).unwrap();
    assert_eq!(
        format!("{da:?}"),
        format!("{db:?}"),
        "predictions diverged at seed {seed}"
    );
}

/// The acceptance-criterion test: run a durable service and an
/// in-memory twin on identical feedback, kill the durable one's worker
/// mid-stream, drop it without a final checkpoint, reopen from disk,
/// and require the recovered service to match the twin exactly —
/// same snapshot generation, bitwise-same predictions.
#[test]
fn crash_and_reopen_matches_a_never_crashed_twin() {
    let dir = test_root("twin");
    const REPORTS: u64 = 6;

    // snapshot_every is huge: only the registration-time generation-0
    // snapshot exists on disk, so recovery must earn everything back by
    // WAL replay.
    let durable = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
    let twin = SmartpickService::new(ServiceConfig {
        retrain_workers: 1,
        supervisor_poll: Duration::from_millis(5),
        ..ServiceConfig::default()
    });
    durable.register_tenant("acme", template()).unwrap();
    twin.register_tenant("acme", template()).unwrap();
    // Guard: the two independently trained drivers really are twins.
    assert_same_prediction(&durable, &twin, "acme", 999);

    for i in 0..REPORTS {
        if i == REPORTS / 2 {
            // Kill the worker mid-stream. The rescue guard re-queues the
            // in-flight batch; replay dedup (by run id) keeps the WAL's
            // at-least-once appends from double-applying.
            durable.poison_worker(0).unwrap();
        }
        let query = tpcds::query(82, 100.0).unwrap();
        let outcome = durable.submit("acme", &query, 100 + i).unwrap();
        // The twin receives the *same* accepted report.
        twin.report_run(
            "acme",
            CompletedRun {
                query,
                determination: outcome.determination.clone(),
                report: outcome.report.clone(),
            },
        )
        .unwrap();
        // One publish per report on both sides, so the generation
        // counters advance in lockstep.
        assert!(durable.flush(), "durable flush {i}");
        assert!(twin.flush(), "twin flush {i}");
    }
    assert_eq!(
        durable.tenant_stats("acme").unwrap().snapshot_generation,
        twin.tenant_stats("acme").unwrap().snapshot_generation,
        "pre-crash generations must already agree"
    );

    // "Crash": drop without persist_all — the only durable state is the
    // generation-0 snapshot plus the WAL.
    drop(durable);

    let recovered = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
    assert_eq!(recovered.tenants(), vec!["acme".to_string()]);

    // Same snapshot generation as the twin — zero accepted reports lost,
    // none double-applied.
    let got = recovered.tenant_stats("acme").unwrap().snapshot_generation;
    let want = twin.tenant_stats("acme").unwrap().snapshot_generation;
    assert_eq!(got, want, "recovered generation != twin generation");
    assert_eq!(want, REPORTS, "one publish per report");

    // Bitwise-identical predictions across a spread of probes.
    for seed in [1, 9, 42, 7777] {
        assert_same_prediction(&recovered, &twin, "acme", seed);
    }

    // The recovery is visible: replayed-record counter covers every
    // report, and the structured events tell the story.
    let metrics = recovered.observability().metrics();
    assert!(
        metrics.counter("store.wal_records_replayed").get() >= REPORTS,
        "replay counter must cover all {REPORTS} reports"
    );
    let events = recovered.observability().events().recent(256);
    assert!(events.iter().any(|e| e.kind == EventKind::SnapshotLoaded));
    assert!(events.iter().any(|e| e.kind == EventKind::WalReplayed));

    // And the recovered service is live, not a museum piece: it keeps
    // accepting feedback and advancing.
    let query = tpcds::query(82, 100.0).unwrap();
    recovered.submit("acme", &query, 4242).unwrap();
    assert!(recovered.flush());
    assert_eq!(
        recovered.tenant_stats("acme").unwrap().snapshot_generation,
        REPORTS + 1
    );
}

/// A corrupted newest snapshot must not fail startup: it is quarantined
/// and the tenant rebuilt from the previous snapshot plus WAL replay, at
/// the exact generation it crashed at.
#[test]
fn corrupt_newest_snapshot_quarantines_and_rebuilds_from_wal() {
    let dir = test_root("quarantine");
    const REPORTS: u64 = 3;

    // snapshot_every = 1: a snapshot persists after every applied
    // report, so the disk holds the two newest generations plus a WAL.
    {
        let svc = SmartpickService::open(&dir, durable_config(&dir, 1)).unwrap();
        svc.register_tenant("t-1", template()).unwrap();
        for i in 0..REPORTS {
            let query = tpcds::query(82, 100.0).unwrap();
            svc.submit("t-1", &query, 10 + i).unwrap();
            assert!(svc.flush());
        }
    }

    // Flip one payload byte in the newest snapshot file.
    let tenant_dir = dir.join("tenants").join("t-1");
    let newest = fs::read_dir(&tenant_dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .max()
        .expect("at least one snapshot on disk");
    let mut bytes = fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&newest, &bytes).unwrap();

    let svc = SmartpickService::open(&dir, durable_config(&dir, 1)).unwrap();
    // Startup succeeded and the tenant is back at the crash generation:
    // older snapshot + WAL suffix == everything the corrupt file held.
    assert_eq!(svc.tenants(), vec!["t-1".to_string()]);
    assert_eq!(
        svc.tenant_stats("t-1").unwrap().snapshot_generation,
        REPORTS
    );
    // The bad file is visible: quarantined on disk, counted, evented,
    // and in the scrape.
    assert!(tenant_dir.join("quarantine").exists());
    let scrape = svc.scrape(64);
    assert!(
        scrape.metric("store.snapshots_quarantined").is_some(),
        "scrape must expose the quarantine counter"
    );
    assert!(
        svc.observability()
            .metrics()
            .counter("store.snapshots_quarantined")
            .get()
            >= 1
    );
    assert!(svc
        .observability()
        .events()
        .recent(256)
        .iter()
        .any(|e| e.kind == EventKind::SnapshotQuarantined));
    // Still serving.
    svc.predict("t-1", &probe(5)).unwrap();
}

/// [`FlushOutcome`] separates the three non-success shapes: a deadline
/// that fired while a (restarting) shard was still draining, a shard
/// whose worker is down for good, and a service already shut down.
#[test]
fn flush_outcomes_distinguish_timeout_failure_and_stop() {
    // Timed out: a poisoned worker under a long restart backoff leaves
    // the shard draining-but-dead for longer than the flush deadline.
    let svc = SmartpickService::new(ServiceConfig {
        retrain_workers: 1,
        restart_policy: RestartPolicy::Restart {
            max_retries: 5,
            backoff: Duration::from_millis(500),
        },
        supervisor_poll: Duration::from_millis(5),
        ..ServiceConfig::default()
    });
    svc.register_tenant("acme", template()).unwrap();
    assert_eq!(
        svc.try_flush(Duration::from_secs(10)),
        FlushOutcome::Flushed
    );
    svc.poison_worker(0).unwrap();
    assert_eq!(
        svc.try_flush(Duration::from_millis(100)),
        FlushOutcome::TimedOut { shard: 0 },
        "mid-backoff flush must time out, not report failure"
    );
    // After the restart the same shard drains fine — timeout really did
    // mean "try again later".
    assert!(svc.flush());

    // Shard failed: under Strict the first panic is terminal.
    let strict = SmartpickService::new(ServiceConfig {
        retrain_workers: 1,
        restart_policy: RestartPolicy::Strict,
        supervisor_poll: Duration::from_millis(5),
        ..ServiceConfig::default()
    });
    strict.register_tenant("acme", template()).unwrap();
    strict.poison_worker(0).unwrap();
    assert_eq!(
        strict.try_flush(Duration::from_secs(10)),
        FlushOutcome::ShardFailed { shard: 0 }
    );

    // Stopped: after shutdown there is no queue to flush.
    let mut stopped = SmartpickService::new(ServiceConfig {
        retrain_workers: 1,
        ..ServiceConfig::default()
    });
    stopped.shutdown();
    assert_eq!(
        stopped.try_flush(Duration::from_millis(10)),
        FlushOutcome::Stopped
    );
}

/// Registration persists a generation-0 snapshot immediately (a tenant
/// is durable from the moment `register_tenant` returns), deregistration
/// removes the tenant's files, and `persist_tenant` checkpoints on
/// demand.
#[test]
fn registration_and_admin_checkpoints_are_durable() {
    let dir = test_root("admin");

    // Durable at birth: a tenant is recoverable the moment
    // `register_tenant` returns, before any reports flow.
    let want = {
        let svc = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
        svc.register_tenant("t-a", template()).unwrap();
        format!("{:?}", svc.predict("t-a", &probe(31)).unwrap())
    };

    let svc = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
    assert_eq!(svc.tenants(), vec!["t-a".to_string()]);
    assert_eq!(svc.tenant_stats("t-a").unwrap().snapshot_generation, 0);
    assert_eq!(
        format!("{:?}", svc.predict("t-a", &probe(31)).unwrap()),
        want
    );

    // An admin checkpoint reports the snapshot's at-rest size.
    let query = tpcds::query(82, 100.0).unwrap();
    svc.submit("t-a", &query, 55).unwrap();
    assert!(svc.flush());
    let bytes = svc.persist_tenant("t-a").unwrap();
    assert!(bytes > 0);
    assert_eq!(svc.persist_all().unwrap(), 1);

    // Deregistration takes the files with it.
    svc.deregister_tenant("t-a").unwrap();
    assert!(!dir.join("tenants").join("t-a").exists());
    drop(svc);
    let empty = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
    assert!(empty.tenants().is_empty());
}

// -------------------------------------------------------------------
// Group commit: one drained batch, two syncs; crashes at its boundaries
// -------------------------------------------------------------------

/// `n` distinct accepted runs, minted by a throwaway in-memory service.
fn mint_runs(n: u64) -> Vec<CompletedRun> {
    let minter = SmartpickService::new(ServiceConfig {
        retrain_workers: 1,
        ..ServiceConfig::default()
    });
    minter.register_tenant("mint", template()).unwrap();
    let query = tpcds::query(82, 100.0).unwrap();
    (0..n)
        .map(|seed| {
            let outcome = minter.submit("mint", &query, 500 + seed).unwrap();
            CompletedRun {
                query: query.clone(),
                determination: outcome.determination,
                report: outcome.report,
            }
        })
        .collect()
}

fn counter(svc: &SmartpickService, name: &str) -> u64 {
    svc.observability().metrics().counter(name).get()
}

/// Parks shard 0's worker inside a batch of its own — one report for
/// tenant `gate`, whose driver lock this holds — runs `enqueue`, then
/// lets the worker go: everything `enqueue` queued is drained as **one**
/// batch, the next one.
fn as_one_batch(svc: &Arc<SmartpickService>, run: &CompletedRun, enqueue: impl FnOnce()) {
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = {
        let svc = Arc::clone(svc);
        std::thread::spawn(move || {
            svc.inspect_tenant("gate", |_| {
                entered_tx.send(()).unwrap();
                let _ = release_rx.recv();
            })
            .unwrap();
        })
    };
    entered_rx.recv().unwrap();
    let batches = counter(svc, "service.worker.0.batches");
    svc.report_run("gate", run.clone()).unwrap();
    while counter(svc, "service.worker.0.batches") == batches {
        std::thread::yield_now();
    }
    enqueue();
    release_tx.send(()).unwrap();
    holder.join().unwrap();
}

/// A drained batch is one group commit: whatever number of tenants and
/// reports it spans, it syncs the WAL twice (reports, commits) under
/// `PerBatch`; under `PerRecord` every record syncs itself and the batch
/// adds none.
#[test]
fn a_batch_spanning_n_tenants_syncs_twice_per_batch_or_once_per_record() {
    const TENANTS: u64 = 3;
    const REPORTS_EACH: u64 = 4;
    let runs = mint_runs(REPORTS_EACH);
    let base = template();
    for (policy, tag) in [
        (FsyncPolicy::PerBatch, "syncs-batch"),
        (FsyncPolicy::PerRecord, "syncs-record"),
    ] {
        let dir = test_root(tag);
        let mut config = durable_config(&dir, u64::MAX);
        config.persistence.as_mut().unwrap().fsync = policy;
        let svc = Arc::new(SmartpickService::open(&dir, config).unwrap());
        svc.register_fork("gate", &base, 0).unwrap();
        for t in 0..TENANTS {
            svc.register_fork(format!("t{t}"), &base, t).unwrap();
        }
        let syncs = counter(&svc, "store.wal_syncs");
        let batches = counter(&svc, "service.worker.0.batches");
        // What the log held each time the worker turned to a tenant's
        // driver: WAL-first, for the whole batch.
        let at_apply: Arc<Mutex<Vec<(u64, u64)>>> = Arc::default();
        {
            let metrics = svc.observability().metrics();
            let appended = metrics.counter("store.wal_records_appended");
            let synced = metrics.counter("store.wal_syncs");
            let at_apply = Arc::clone(&at_apply);
            svc.observability().events().subscribe(move |e| {
                if e.kind == EventKind::RetrainStarted && e.tenant.as_deref() != Some("gate") {
                    at_apply
                        .lock()
                        .unwrap()
                        .push((appended.get(), synced.get() - syncs));
                }
            });
        }
        as_one_batch(&svc, &runs[0], || {
            for run in &runs {
                for t in 0..TENANTS {
                    svc.report_run(&format!("t{t}"), run.clone()).unwrap();
                }
            }
        });
        assert!(svc.flush());
        // Before the first of the batch's drivers was touched, the gate's
        // two records and every report of the batch were in the log, and
        // (under `PerBatch`) the batch's one report sync had run.
        let logged = 2 + TENANTS * REPORTS_EACH;
        let synced = match policy {
            FsyncPolicy::PerBatch => 2 + 1,
            _ => logged,
        };
        assert_eq!(
            *at_apply.lock().unwrap(),
            vec![(logged, synced); TENANTS as usize],
            "{policy:?}"
        );
        // The gate's batch, the spanning batch, and perhaps the flush's
        // own (which holds no job and so syncs nothing).
        let batches = counter(&svc, "service.worker.0.batches") - batches;
        assert!((2..=3).contains(&batches), "{batches} batches");
        let records = (1 + 1) + TENANTS * (REPORTS_EACH + 1);
        assert_eq!(counter(&svc, "store.wal_records_appended"), records);
        let want = match policy {
            // Two for the gate's one-report batch, two for the batch of
            // TENANTS x REPORTS_EACH reports.
            FsyncPolicy::PerBatch => 2 + 2,
            // REPORTS_EACH reports and one commit per tenant, each synced
            // by its own append (and the same for the gate).
            _ => records,
        };
        assert_eq!(counter(&svc, "store.wal_syncs") - syncs, want, "{policy:?}");
        for t in 0..TENANTS {
            let stats = svc.tenant_stats(&format!("t{t}")).unwrap();
            assert_eq!(stats.reports_applied, REPORTS_EACH);
            assert_eq!(stats.snapshot_generation, 1, "one publish per group");
        }
    }
}

/// Every frame of a shard log: the decoded record and the offset its
/// frame ends at. The service writes two kinds, `Sample` and `Commit`;
/// the legacy JSON `Report` is never one of them.
fn wal_frames(dir: &Path) -> Vec<(WalRecord, usize)> {
    let bytes = fs::read(dir.join("wal").join("shard-0.wal")).unwrap();
    let scan = scan_wal(&bytes).unwrap();
    assert!(scan.torn.is_none());
    let mut end = MAGIC.len();
    scan.records
        .into_iter()
        .map(|record| {
            assert!(
                !matches!(record.payload, WalPayload::Report { .. }),
                "the service logged a legacy JSON record: {record:?}"
            );
            end += 8 + record.encode_payload().len();
            (record, end)
        })
        .collect()
}

/// A worker killed at either durability boundary inside a batch — after
/// the batch's reports are synced but before any is applied, or after
/// every commit is appended but before their sync — restarts, finishes
/// the batch, and the store it leaves reopens bitwise-equal to a twin
/// that never crashed: every report applied exactly once, the same
/// generation. The second boundary is also reopened with the unsynced
/// commits cut off the log, which is what losing power there leaves.
#[test]
fn a_crash_at_either_commit_boundary_reopens_equal_to_the_twin() {
    const TENANTS: u64 = 3;
    const REPORTS_EACH: u64 = 3;
    let runs = mint_runs(1 + REPORTS_EACH);
    let base = template();
    for (at, cut_commits, tag) in [
        (CrashPoint::AfterReportSync, false, "crash-reports"),
        (CrashPoint::BeforeCommitSync, false, "crash-commits"),
        (CrashPoint::BeforeCommitSync, true, "crash-commits-cut"),
    ] {
        let dir = test_root(tag);
        let durable =
            Arc::new(SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap());
        let twin = SmartpickService::new(ServiceConfig {
            retrain_workers: 1,
            ..ServiceConfig::default()
        });
        durable.register_fork("gate", &base, 0).unwrap();
        let tenants: Vec<String> = (0..TENANTS).map(|t| format!("t{t}")).collect();
        for (t, id) in tenants.iter().enumerate() {
            durable.register_fork(id.clone(), &base, t as u64).unwrap();
            twin.register_fork(id.clone(), &base, t as u64).unwrap();
        }
        // An uneventful first batch, so the crashed one is not the
        // tenants' first generation.
        for id in &tenants {
            durable.report_run(id, runs[0].clone()).unwrap();
            twin.report_run(id, runs[0].clone()).unwrap();
        }
        assert!(durable.flush() && twin.flush());

        let applied = counter(&durable, "service.reports_applied");
        as_one_batch(&durable, &runs[0], || {
            durable.poison_worker_at(0, at).unwrap();
            for run in &runs[1..] {
                for id in &tenants {
                    durable.report_run(id, run.clone()).unwrap();
                }
            }
        });
        for run in &runs[1..] {
            for id in &tenants {
                twin.report_run(id, run.clone()).unwrap();
            }
        }
        // The restarted worker finishes the batch and acks.
        assert!(durable.flush() && twin.flush());
        assert!(durable
            .observability()
            .events()
            .recent(256)
            .iter()
            .any(|e| e.kind == EventKind::WorkerPanic
                && e.detail
                    .as_deref()
                    .is_some_and(|d| d.contains(&format!("{at:?}")))));
        assert_eq!(
            counter(&durable, "service.reports_applied") - applied,
            1 + TENANTS * REPORTS_EACH,
            "the live service applied the gate's report and each of the batch's once"
        );
        let generations: Vec<u64> = tenants
            .iter()
            .map(|id| durable.tenant_stats(id).unwrap().snapshot_generation)
            .collect();
        assert_eq!(generations, vec![2; TENANTS as usize]);
        drop(durable);

        // What the crash left in the log.
        let frames = wal_frames(&dir);
        let copies = |id: &str, want: u64| {
            frames
                .iter()
                .filter(|(r, _)| {
                    r.tenant == id
                        && matches!(r.payload, WalPayload::Sample { run_id, .. } if run_id == want)
                })
                .count()
        };
        for id in &tenants {
            for run_id in 2..=1 + REPORTS_EACH {
                match at {
                    // Logged by the worker that died and again by the one
                    // that applied it: replay must deduplicate.
                    CrashPoint::AfterReportSync => assert_eq!(copies(id, run_id), 2),
                    // Applied before the crash: never offered again.
                    _ => assert_eq!(copies(id, run_id), 1),
                }
            }
        }
        if cut_commits {
            cut_the_trailing_commits(&dir);
        }

        let recovered = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
        assert_eq!(
            counter(&recovered, "store.wal_records_replayed"),
            1 + TENANTS * (1 + REPORTS_EACH),
            "{tag}: every logged report replayed once, duplicates dropped"
        );
        for (id, generation) in tenants.iter().zip(&generations) {
            assert_eq!(
                recovered.tenant_stats(id).unwrap().snapshot_generation,
                *generation,
                "{tag}: {id}"
            );
            for seed in [1, 9, 42, 7777] {
                assert_same_prediction(&recovered, &twin, id, seed);
            }
        }
    }
}

/// An *unknown* query in the feed: its reports carry the query's profile
/// in the log, and the one that surprises the model registers the query
/// — mutating the predictor's known set, not just its forest. Fed
/// between known-query reports and crashed at every `CrashPoint`, the
/// store still reopens bitwise-equal to the twin, the new query's code
/// included.
#[test]
fn an_unknown_query_that_trips_the_trigger_survives_a_crash_at_every_point() {
    let base = template();
    let known = mint_runs(3);
    // Minted as an alien (q62 is not in the template), twice: one run the
    // model predicted well enough, one it did not.
    let alien = tpcds::query(62, 100.0).unwrap();
    let (calm, mut surprise) = {
        let minter = SmartpickService::new(ServiceConfig {
            retrain_workers: 1,
            ..ServiceConfig::default()
        });
        minter.register_fork("mint", &base, 0).unwrap();
        let mint = |seed| {
            let outcome = minter.submit("mint", &alien, seed).unwrap();
            assert!(!outcome.determination.known_query);
            CompletedRun {
                query: alien.clone(),
                determination: outcome.determination,
                report: outcome.report,
            }
        };
        (mint(600), mint(601))
    };
    let trigger = base.properties().error_difference_trigger_secs;
    surprise.determination.predicted_seconds += 10.0 * trigger;
    // Known, calm alien, known, the surprise, then the same alien again —
    // its determination still says "unknown", the driver by then knows
    // better — and a known one to finish.
    let feed = [&known[1], &calm, &known[2], &surprise, &calm, &known[1]];

    for (at, tag) in [
        (CrashPoint::BatchStart, "alien-start"),
        (CrashPoint::AfterReportSync, "alien-reports"),
        (CrashPoint::BeforeCommitSync, "alien-commits"),
    ] {
        let dir = test_root(tag);
        let durable =
            Arc::new(SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap());
        let twin = SmartpickService::new(ServiceConfig {
            retrain_workers: 1,
            ..ServiceConfig::default()
        });
        durable.register_fork("gate", &base, 0).unwrap();
        durable.register_fork("acme", &base, 5).unwrap();
        twin.register_fork("acme", &base, 5).unwrap();
        durable.report_run("acme", known[0].clone()).unwrap();
        twin.report_run("acme", known[0].clone()).unwrap();
        assert!(durable.flush() && twin.flush());

        as_one_batch(&durable, &known[0], || {
            durable.poison_worker_at(0, at).unwrap();
            for run in feed {
                durable.report_run("acme", run.clone()).unwrap();
            }
        });
        for run in feed {
            twin.report_run("acme", run.clone()).unwrap();
        }
        assert!(durable.flush() && twin.flush());
        let code_of = |svc: &SmartpickService| {
            svc.inspect_tenant("acme", |driver| driver.predictor().code_of(&alien.id))
                .unwrap()
        };
        assert!(
            code_of(&twin).is_some(),
            "{tag}: the surprise registered the query"
        );
        assert_eq!(code_of(&durable), code_of(&twin), "{tag}");
        let generation = durable.tenant_stats("acme").unwrap().snapshot_generation;
        drop(durable);

        // The log holds the alien's profile exactly where the
        // determination said "unknown", and nowhere else.
        let profiles: Vec<bool> = wal_frames(&dir)
            .into_iter()
            .filter(|(r, _)| r.tenant == "acme")
            .filter_map(|(r, _)| match r.payload {
                WalPayload::Sample { run_id, sample } => Some((run_id, sample.profile.is_some())),
                _ => None,
            })
            .filter(|&(run_id, _)| run_id > 1)
            .map(|(_, carried)| carried)
            .take(feed.len())
            .collect();
        assert_eq!(profiles, [false, true, false, true, true, false], "{tag}");

        let recovered = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
        assert_eq!(
            recovered.tenant_stats("acme").unwrap().snapshot_generation,
            generation,
            "{tag}"
        );
        assert_eq!(
            code_of(&recovered),
            code_of(&twin),
            "{tag}: the new query's code"
        );
        let history = |svc: &SmartpickService| {
            svc.inspect_tenant("acme", |driver| driver.history().snapshot())
                .unwrap()
        };
        assert_eq!(history(&recovered), history(&twin), "{tag}");
        for seed in [1, 9, 42, 7777] {
            assert_same_prediction(&recovered, &twin, "acme", seed);
            // The once-alien query is answered as a known one, alike.
            let ask = |svc: &SmartpickService| svc.determine("acme", &alien, seed).unwrap();
            let (got, want) = (ask(&recovered), ask(&twin));
            assert!(want.known_query, "{tag}");
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{tag}: seed {seed}"
            );
        }
    }
}

/// The migration story: a version-1 snapshot — the format whose
/// properties and history sections were JSON, here a file the last such
/// build wrote — is not read. It is quarantined with its event, the
/// tenant is reported unrecoverable, and the service opens and takes the
/// tenant's re-registration.
#[test]
fn a_version_1_snapshot_is_quarantined_and_the_service_still_opens() {
    let dir = test_root("v1-snapshot");
    // A tenant of this build, which its neighbour must not disturb.
    {
        let svc = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
        svc.register_tenant("current", template()).unwrap();
    }
    let tenant_dir = dir.join("tenants").join("legacy");
    fs::create_dir_all(&tenant_dir).unwrap();
    let v1 = include_bytes!("../../store/tests/fixtures/snap-v1-legacy.snap");
    fs::write(tenant_dir.join("snap-00000000000000000002.snap"), v1).unwrap();

    let svc = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
    assert_eq!(svc.tenants(), vec!["current".to_string()]);
    assert!(tenant_dir
        .join("quarantine")
        .join("snap-00000000000000000002.snap")
        .is_file());
    assert!(counter(&svc, "store.snapshots_quarantined") >= 1);
    let events = svc.observability().events().recent(256);
    let about_legacy = |kind: EventKind| {
        events
            .iter()
            .any(|e| e.kind == kind && e.tenant.as_deref() == Some("legacy"))
    };
    assert!(about_legacy(EventKind::SnapshotQuarantined));
    assert!(about_legacy(EventKind::TenantUnrecoverable));
    svc.predict("current", &probe(5)).unwrap();
    // Rebuilt: the id registers afresh and serves.
    svc.register_tenant("legacy", template()).unwrap();
    svc.predict("legacy", &probe(5)).unwrap();
    drop(svc);
    let again = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
    assert_eq!(
        again.tenants(),
        vec!["current".to_string(), "legacy".to_string()]
    );
}

/// A legacy JSON `Report` record in a shard log — nothing this build
/// writes, but a kind the store still frames and scans — is not replayed
/// and not passed over in silence: recovery says how many it met.
#[test]
fn a_legacy_json_record_in_the_log_is_reported_not_replayed() {
    let dir = test_root("legacy-record");
    {
        let svc = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
        svc.register_tenant("acme", template()).unwrap();
        svc.report_run("acme", mint_runs(1).remove(0)).unwrap();
        assert!(svc.flush());
    }
    let epoch = wal_frames(&dir)[0].0.epoch;
    {
        let store = smartpick_store::Store::open(&dir).unwrap();
        let mut wal = store.open_wal(0, FsyncPolicy::PerBatch).unwrap();
        for run_id in [2, 3] {
            let legacy = WalRecord {
                tenant: "acme".into(),
                epoch,
                payload: WalPayload::Report {
                    run_id,
                    run_json: "{}".into(),
                },
            };
            wal.append(&legacy.encode_payload()).unwrap();
        }
        wal.sync().unwrap();
    }
    let svc = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
    assert_eq!(counter(&svc, "store.wal_records_replayed"), 1);
    assert_eq!(svc.tenant_stats("acme").unwrap().snapshot_generation, 1);
    let degraded: Vec<String> = svc
        .observability()
        .events()
        .recent(256)
        .into_iter()
        .filter(|e| e.kind == EventKind::StoreDegraded)
        .filter_map(|e| e.detail)
        .collect();
    assert_eq!(degraded.len(), 1, "{degraded:?}");
    assert!(degraded[0].starts_with("2 legacy JSON report records"));
}

/// The newest two retained snapshot metas of `tenant`, newest first.
fn retained_metas(dir: &Path, tenant: &str) -> Vec<SnapshotMeta> {
    let mut metas: Vec<SnapshotMeta> = fs::read_dir(dir.join("tenants").join(tenant))
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .map(|p| Snapshot::decode_meta(&fs::read(p).unwrap()).unwrap())
        .collect();
    metas.sort_by_key(|m| std::cmp::Reverse(m.generation));
    metas
}

/// However many snapshots land, the shard log stays bounded by its live
/// records — at most twice what recovery could need, plus the configured
/// threshold — rewrites stay rarer than snapshots, and all of them
/// together write at most twice what was appended: each byte is rewritten
/// O(1) times. "Could need" is the top of the live set's swing: with two
/// generations retained a tenant's live records go from one snapshot
/// interval (its snapshot just landed) to two (the next is due), a
/// rewrite keeps whatever is live when it runs, and the log then grows
/// to twice that before the next one.
#[test]
fn the_shard_log_stays_within_twice_its_live_records() {
    const TENANTS: u64 = 3;
    // A few records' worth (a report record is ~120 bytes), so rewrites
    // come due within the test's 40 rounds.
    const THRESHOLD: u64 = 512;
    let dir = test_root("log-bound");
    let mut config = durable_config(&dir, 4);
    config.persistence.as_mut().unwrap().compact_threshold_bytes = THRESHOLD;
    let svc = SmartpickService::open(&dir, config).unwrap();
    let base = template();
    let tenants: Vec<String> = (0..TENANTS).map(|t| format!("t{t}")).collect();
    for (t, id) in tenants.iter().enumerate() {
        svc.register_fork(id.clone(), &base, t as u64).unwrap();
    }
    let runs = mint_runs(3);
    let mut widest = 0.0f64;
    let mut peak_live = 0;
    for round in 0..40 {
        // Uneven feeds, so the tenants' snapshots drift apart; a flush
        // after each report, so every batch is that one report whatever
        // the scheduler does and the log's history is the same every run.
        for (t, id) in tenants.iter().enumerate() {
            for run in &runs[..1 + (round + t) % 3] {
                svc.report_run(id, run.clone()).unwrap();
                assert!(svc.flush());
            }
        }
        // This flush is behind the last batch's compaction.
        assert!(svc.flush());
        let frames = wal_frames(&dir);
        let mut live = MAGIC.len();
        let mut start = MAGIC.len();
        for (record, end) in &frames {
            let metas = retained_metas(&dir, &record.tenant);
            let watermark = metas.iter().map(|m| m.watermark).min().unwrap();
            let generation = metas.iter().map(|m| m.generation).min().unwrap();
            let kept = match record.payload {
                WalPayload::Sample { run_id, .. } => run_id > watermark,
                WalPayload::Commit { generation: g, .. } => g > generation,
                WalPayload::Report { .. } => unreachable!("wal_frames refuses them"),
            };
            if kept {
                live += end - start;
            }
            start = *end;
        }
        let len = frames.last().map_or(MAGIC.len(), |f| f.1);
        peak_live = peak_live.max(live);
        assert!(
            len as u64 <= 2 * peak_live as u64 + THRESHOLD,
            "round {round}: a {len}-byte log, {live} bytes live now and {peak_live} at most"
        );
        widest = widest.max(len as f64 / live as f64);
    }
    let compactions = counter(&svc, "store.compactions");
    let snapshots = counter(&svc, "store.snapshots_persisted");
    assert!(
        compactions >= 3,
        "{compactions} rewrites: the bound was never tested"
    );
    assert!(
        compactions * 2 <= snapshots,
        "{compactions} rewrites for {snapshots} snapshots"
    );
    assert!(
        counter(&svc, "store.compaction_bytes_written")
            <= 2 * counter(&svc, "store.wal_bytes_written"),
        "rewrites wrote more than twice what was appended"
    );
    println!("widest log / live ratio seen: {widest:.2}");
}

/// Tenant state is bounded: the history a snapshot carries is a ring of
/// the last `HISTORY_CAPACITY` runs, the pending batch empties at every
/// retrain and the ensemble is capped — so what a tenant costs at rest
/// stops growing with the reports it has been sent. And the ring costs no
/// fidelity: a reopen (snapshot + a WAL tail replayed onto the restored
/// ring) still equals the twin that never crashed.
#[test]
fn ten_thousand_reports_leave_a_snapshot_no_larger_than_three_hundred() {
    let dir = test_root("bounded");
    let runs = mint_runs(4);
    let mut config = durable_config(&dir, 500);
    config.persistence.as_mut().unwrap().fsync = FsyncPolicy::Never;
    let durable = SmartpickService::open(&dir, config.clone()).unwrap();
    let twin = SmartpickService::new(ServiceConfig {
        retrain_workers: 1,
        supervisor_poll: Duration::from_millis(5),
        ..ServiceConfig::default()
    });
    durable.register_tenant("acme", template()).unwrap();
    twin.register_tenant("acme", template()).unwrap();

    // Sizes are read where the pending batch is empty (`max.batch` 100)
    // and the ensemble is at its cap, so only the history could differ.
    let mut sizes = Vec::new();
    for fed in 1..=10_050usize {
        let run = &runs[fed % runs.len()];
        durable.report_run("acme", run.clone()).unwrap();
        twin.report_run("acme", run.clone()).unwrap();
        if fed % 50 == 0 {
            assert!(durable.flush() && twin.flush(), "flush at {fed}");
        }
        if [300, 1_000, 10_000].contains(&fed) {
            sizes.push(durable.persist_tenant("acme").unwrap());
        }
    }
    let history_len = |svc: &SmartpickService| {
        svc.inspect_tenant("acme", |driver| driver.history().len())
            .unwrap()
    };
    assert_eq!(history_len(&durable), HISTORY_CAPACITY);
    assert!(
        sizes[1] <= sizes[0] * 11 / 10 && sizes[2] <= sizes[0] * 11 / 10,
        "snapshot bytes after 300 / 1000 / 10000 reports: {sizes:?}"
    );

    // Crash with 50 reports past the last checkpoint, and come back.
    drop(durable);
    let recovered = SmartpickService::open(&dir, config).unwrap();
    assert!(counter(&recovered, "store.wal_records_replayed") >= 50);
    assert_eq!(history_len(&recovered), HISTORY_CAPACITY);
    let history = |svc: &SmartpickService| {
        svc.inspect_tenant("acme", |driver| driver.history().snapshot())
            .unwrap()
    };
    assert_eq!(history(&recovered), history(&twin));
    for seed in [1, 9, 42, 7777] {
        assert_same_prediction(&recovered, &twin, "acme", seed);
    }
}

/// One durable flush moves every stage histogram and store counter of
/// the feedback path, all through the scrape envelope; rewrites are
/// counted apart from appends, whose counter keeps its meaning.
#[test]
fn a_durable_flush_moves_every_report_stage_metric() {
    let mut runs = mint_runs(2);
    // The second run surprises the model, so applying it retrains.
    runs[1].determination.predicted_seconds += 1e4;
    let base = template();
    let mut appended = Vec::new();
    for (threshold, tag) in [(1, "stages-compacting"), (u64::MAX, "stages-appending")] {
        let dir = test_root(tag);
        let mut config = durable_config(&dir, 1);
        config.persistence.as_mut().unwrap().compact_threshold_bytes = threshold;
        let svc = SmartpickService::open(&dir, config).unwrap();
        svc.register_fork("acme", &base, 7).unwrap();
        for run in &runs {
            svc.report_run("acme", run.clone()).unwrap();
            // The second flush is behind the batch's compaction.
            assert!(svc.flush() && svc.flush());
        }
        let scrape = svc.scrape(0);
        let samples = |name: &str| match scrape.metric(name).map(|m| &m.value) {
            Some(MetricValue::Histogram(summary)) => summary.count,
            other => panic!("{name} is not a scraped histogram: {other:?}"),
        };
        assert_eq!(samples("service.report.wal_append"), 2);
        assert_eq!(samples("service.report.wal_sync"), 4);
        assert_eq!(samples("service.report.apply"), 2);
        assert_eq!(samples("service.report.retrain"), 1);
        assert_eq!(scrape.counter("service.retrains"), 1);
        assert_eq!(samples("service.report.snapshot_persist"), 2);
        assert_eq!(scrape.counter("store.wal_syncs"), 4);
        // The first snapshot triggers a rewrite; the second finds a log
        // that has not doubled since.
        let compacting = threshold == 1;
        assert_eq!(samples("service.report.compact"), u64::from(compacting));
        assert_eq!(scrape.counter("store.compactions"), u64::from(compacting));
        assert_eq!(
            scrape.counter("store.compaction_bytes_written") > 0,
            compacting
        );
        let stages = |m: &&MetricSample| matches!(m.value, MetricValue::Histogram(_));
        assert_eq!(
            scrape.metrics.iter().filter(stages).count(),
            6 + 2,
            "six stage histograms beside the two the service had: none per tenant or shard"
        );
        appended.push(scrape.counter("store.wal_bytes_written"));
    }
    assert_eq!(
        appended[0], appended[1],
        "wal_bytes_written counts appended records, with or without rewrites"
    );
}

// -------------------------------------------------------------------
// Crash loops: recovery leaves the log in place, so the next crash finds
// it again
// -------------------------------------------------------------------

/// Every file under the store root with its length, sorted.
fn files_on_disk(root: &Path) -> Vec<(PathBuf, u64)> {
    fn walk(dir: &Path, out: &mut Vec<(PathBuf, u64)>) {
        for entry in fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            if entry.file_type().unwrap().is_dir() {
                walk(&entry.path(), out);
            } else {
                out.push((entry.path(), entry.metadata().unwrap().len()));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, &mut out);
    out.sort();
    out
}

/// The acceptance check of a read-only recovery: an open of a healthy
/// store whose shard count did not change persisted no snapshot, read
/// each shard log once — recovery's scan, which the workers' append
/// handles then went by — and left every file as the crash left it.
fn assert_the_open_only_read(svc: &SmartpickService, dir: &Path, crashed: &[(PathBuf, u64)]) {
    // An acked flush: every worker is up and holds its append handle.
    assert!(svc.flush());
    assert_eq!(counter(svc, "store.snapshots_persisted"), 0);
    let logs = crashed
        .iter()
        .filter(|(p, _)| p.extension().is_some_and(|x| x == "wal"))
        .count();
    assert_eq!(counter(svc, "store.wal_shard_scans"), logs as u64);
    assert_eq!(files_on_disk(dir), crashed);
}

/// Serves as the twin does: the same generation, bitwise the same answers.
fn assert_serves_as_the_twin(svc: &SmartpickService, twin: &SmartpickService, id: &str) {
    assert_eq!(
        svc.tenant_stats(id).unwrap().snapshot_generation,
        twin.tenant_stats(id).unwrap().snapshot_generation,
        "{id}"
    );
    for seed in [1, 9, 42, 7777] {
        assert_same_prediction(svc, twin, id, seed);
    }
}

/// Bitwise-equal to the twin: generation, answers, and — through a
/// checkpoint, which is how a watermark shows — the watermark, which on
/// the twin's side is the number of reports it applied (run ids count up
/// from 1 and nothing was rejected).
fn assert_equals_the_twin(svc: &SmartpickService, twin: &SmartpickService, dir: &Path, id: &str) {
    assert_serves_as_the_twin(svc, twin, id);
    let want = twin.tenant_stats(id).unwrap();
    svc.persist_tenant(id).unwrap();
    let newest = &retained_metas(dir, id)[0];
    assert_eq!(
        (newest.generation, newest.watermark),
        (want.snapshot_generation, want.reports_applied),
        "{id}"
    );
}

/// Crash, open, crash, open — with nothing in between, and with reports
/// and a flush in between: the first open replays the log and leaves it
/// where it is, so the second finds the same records (and whatever was
/// appended after them) and lands where a twin that never crashed is.
/// Neither open writes a snapshot.
#[test]
fn a_crash_loop_replays_the_same_log_to_the_same_state_and_writes_nothing() {
    let runs = mint_runs(4);
    let base = template();
    let tenants = ["t0", "t1", "t2"];
    for (traffic_between, tag) in [(false, "loop-quiet"), (true, "loop-traffic")] {
        let dir = test_root(tag);
        let twin = SmartpickService::new(ServiceConfig {
            retrain_workers: 1,
            ..ServiceConfig::default()
        });
        let feed = |svc: &SmartpickService, run: &CompletedRun| {
            for id in tenants {
                svc.report_run(id, run.clone()).unwrap();
            }
            assert!(svc.flush());
        };
        {
            let durable = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
            // One tenant the log never hears of.
            durable.register_fork("idle", &base, 9).unwrap();
            for (t, id) in tenants.iter().enumerate() {
                durable.register_fork(*id, &base, t as u64).unwrap();
                twin.register_fork(*id, &base, t as u64).unwrap();
            }
            for run in &runs[..2] {
                feed(&durable, run);
                feed(&twin, run);
            }
        }

        let crashed = files_on_disk(&dir);
        let mut logged = 2 * tenants.len() as u64;
        {
            let first = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
            assert_the_open_only_read(&first, &dir, &crashed);
            assert_eq!(counter(&first, "store.wal_records_replayed"), logged);
            assert_eq!(counter(&first, "store.recovery_tenants_replayed"), 3);
            assert_eq!(counter(&first, "store.recovery_tenants_cold"), 1);
            if traffic_between {
                feed(&first, &runs[2]);
                feed(&twin, &runs[2]);
                logged += tenants.len() as u64;
            }
        }

        let crashed = files_on_disk(&dir);
        let second = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
        assert_the_open_only_read(&second, &dir, &crashed);
        assert_eq!(counter(&second, "store.wal_records_replayed"), logged);
        // Still live: both take one more report, then compare.
        feed(&second, &runs[3]);
        feed(&twin, &runs[3]);
        for id in tenants {
            assert_equals_the_twin(&second, &twin, &dir, id);
        }
        assert_eq!(second.tenant_stats("idle").unwrap().snapshot_generation, 0);
    }
}

/// Cuts shard 0's log after its last report record: what losing power
/// between a batch's report sync and its commit sync leaves.
fn cut_the_trailing_commits(dir: &Path) {
    let frames = wal_frames(dir);
    let last_report = frames
        .iter()
        .filter(|(r, _)| matches!(r.payload, WalPayload::Sample { .. }))
        .map(|&(_, end)| end)
        .max()
        .unwrap();
    assert!(last_report < frames.last().unwrap().1, "commits follow");
    let log = fs::OpenOptions::new()
        .write(true)
        .open(dir.join("wal").join("shard-0.wal"))
        .unwrap();
    log.set_len(last_report as u64).unwrap();
}

/// The crash loop at every `CrashPoint`, twice over: a worker killed
/// inside a batch, the process killed after it, two opens with nothing
/// between them — then the same again on the store that came back, and a
/// third open. With the batch's commits cut off the log both times, each
/// recovery reconstructs a publish no commit names; it has to fold that
/// one into a snapshot, or the second loss would be counted as the first.
/// Nothing else makes an open write.
#[test]
fn a_crash_loop_at_every_crash_point_reopens_equal_to_the_twin() {
    const TENANTS: u64 = 3;
    let runs = mint_runs(3);
    let base = template();
    for (at, cut, tag) in [
        (CrashPoint::BatchStart, false, "loop-start"),
        (CrashPoint::AfterReportSync, false, "loop-reports"),
        (CrashPoint::BeforeCommitSync, false, "loop-commits"),
        (CrashPoint::BeforeCommitSync, true, "loop-commits-cut"),
    ] {
        let dir = test_root(tag);
        let twin = SmartpickService::new(ServiceConfig {
            retrain_workers: 1,
            ..ServiceConfig::default()
        });
        let tenants: Vec<String> = (0..TENANTS).map(|t| format!("t{t}")).collect();
        let mut durable =
            Arc::new(SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap());
        durable.register_fork("gate", &base, 0).unwrap();
        for (t, id) in tenants.iter().enumerate() {
            durable.register_fork(id.clone(), &base, t as u64).unwrap();
            twin.register_fork(id.clone(), &base, t as u64).unwrap();
        }
        for id in &tenants {
            durable.report_run(id, runs[0].clone()).unwrap();
            twin.report_run(id, runs[0].clone()).unwrap();
        }
        assert!(durable.flush() && twin.flush());

        for run in &runs[1..] {
            // One batch for every tenant, its worker killed at `at`.
            as_one_batch(&durable, &runs[0], || {
                durable.poison_worker_at(0, at).unwrap();
                for id in &tenants {
                    durable.report_run(id, run.clone()).unwrap();
                }
            });
            for id in &tenants {
                twin.report_run(id, run.clone()).unwrap();
            }
            assert!(durable.flush() && twin.flush());
            drop(durable);
            if cut {
                cut_the_trailing_commits(&dir);
            }

            let crashed = files_on_disk(&dir);
            let first = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
            if cut {
                assert_eq!(counter(&first, "store.snapshots_persisted"), TENANTS);
            } else {
                assert_the_open_only_read(&first, &dir, &crashed);
            }
            drop(first);

            let crashed = files_on_disk(&dir);
            let second = SmartpickService::open(&dir, durable_config(&dir, u64::MAX)).unwrap();
            assert_the_open_only_read(&second, &dir, &crashed);
            for id in &tenants {
                assert_serves_as_the_twin(&second, &twin, id);
            }
            durable = Arc::new(second);
        }
        for id in &tenants {
            assert_equals_the_twin(&durable, &twin, &dir, id);
        }
    }
}

/// A store written by four workers, reopened by two: the logs of shards 2
/// and 3 have no worker to append to or compact them, so the open folds
/// the tenants with records there into snapshots and removes the files;
/// shards 0 and 1 stay as they are. From then on the store is a healthy
/// two-shard one — and growing back to four leaves a tenant's older
/// records in the log of the shard it used to route to, which replay does
/// not mind.
#[test]
fn a_store_reopened_with_fewer_workers_folds_the_orphaned_logs_and_removes_them() {
    const TENANTS: usize = 12;
    let dir = test_root("fewer-workers");
    let runs = mint_runs(5);
    let base = template();
    let config = |workers: usize| ServiceConfig {
        retrain_workers: workers,
        ..durable_config(&dir, u64::MAX)
    };
    let twin = SmartpickService::new(ServiceConfig {
        retrain_workers: 1,
        ..ServiceConfig::default()
    });
    let tenants: Vec<String> = (0..TENANTS).map(|t| format!("t{t:02}")).collect();
    let feed = |svc: &SmartpickService, run: &CompletedRun| {
        for id in &tenants {
            svc.report_run(id, run.clone()).unwrap();
            twin.report_run(id, run.clone()).unwrap();
        }
        assert!(svc.flush() && twin.flush());
    };
    let wal_names = || -> Vec<String> {
        files_on_disk(&dir.join("wal"))
            .iter()
            .map(|(p, _)| p.file_name().unwrap().to_str().unwrap().to_owned())
            .collect()
    };

    let orphaned = {
        let four = SmartpickService::open(&dir, config(4)).unwrap();
        for (t, id) in tenants.iter().enumerate() {
            four.register_fork(id.clone(), &base, t as u64).unwrap();
            twin.register_fork(id.clone(), &base, t as u64).unwrap();
        }
        feed(&four, &runs[0]);
        feed(&four, &runs[1]);
        tenants
            .iter()
            .filter(|id| four.tenant_stats(id).unwrap().worker_shard >= 2)
            .count()
    };
    assert!(
        orphaned > 0 && orphaned < TENANTS,
        "{orphaned} of {TENANTS}"
    );
    assert_eq!(
        wal_names(),
        ["shard-0.wal", "shard-1.wal", "shard-2.wal", "shard-3.wal"]
    );

    {
        let two = SmartpickService::open(&dir, config(2)).unwrap();
        assert_eq!(
            counter(&two, "store.snapshots_persisted"),
            orphaned as u64,
            "one fold per tenant with records in an orphaned log"
        );
        assert_eq!(wal_names(), ["shard-0.wal", "shard-1.wal"]);
        assert_eq!(
            counter(&two, "store.wal_records_replayed"),
            2 * TENANTS as u64
        );
        feed(&two, &runs[2]);
    }
    {
        // A healthy two-shard store now.
        let crashed = files_on_disk(&dir);
        let two = SmartpickService::open(&dir, config(2)).unwrap();
        assert_the_open_only_read(&two, &dir, &crashed);
        feed(&two, &runs[3]);
    }
    {
        // Growing back orphans nothing.
        let four = SmartpickService::open(&dir, config(4)).unwrap();
        assert_eq!(counter(&four, "store.snapshots_persisted"), 0);
        feed(&four, &runs[4]);
    }
    let crashed = files_on_disk(&dir);
    let four = SmartpickService::open(&dir, config(4)).unwrap();
    assert_the_open_only_read(&four, &dir, &crashed);
    for id in &tenants {
        assert_equals_the_twin(&four, &twin, &dir, id);
    }
}
