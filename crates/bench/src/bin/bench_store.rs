//! Records the durability numbers into `BENCH_store.json` — what a
//! tenant costs at rest and what a crash costs at startup, guarded by
//! `tests/bench_store_json.rs`.
//!
//! Five matrices:
//!
//! * **snapshot at rest** — the encoded size of one tenant's full
//!   driver state (predictor + history + monitor + RNG) as persisted by
//!   `persist_tenant`, for models trained on 1 and 2 catalog queries,
//!   and for the 2-query model after 256 reports (history ring full, two
//!   batch retrains in). This is the per-tenant disk bill for the keep-2
//!   retention policy.
//! * **recovery** — wall time for `SmartpickService::open` to come back
//!   from a generation-0 snapshot plus a WAL of N accepted reports:
//!   scan, load, replay through `apply_sample`, republish. The row
//!   family shows how replay cost scales with WAL length — the knob
//!   `snapshot_every` trades against — and one row spreads 2 048 records
//!   over 512 tenants, where anything recovery does per tenant (a
//!   snapshot persist with its fsync, before recovery stopped writing)
//!   would show. Each row carries the same measurement at the commit
//!   before the read-only recovery ([`RECOVERY_BEFORE`]) and, for the
//!   log's size, at the commit before the binary report record
//!   ([`JSON_RECORD`]).
//! * **idle fleet** — the open that restarts a large, mostly idle
//!   service: [`IDLE_FLEET`] tenants of which one in a hundred has
//!   records in the log, under a resident cap of that same hundredth. A
//!   child process opens the store, so the resident-set size is the
//!   open's alone: milliseconds, tenants resident when `open` returns,
//!   MiB ([`IDLE_FLEET_BEFORE`] beside it).
//! * **feedback** — the write path under sustained load: a durable
//!   service at its default knobs fed 32-report bursts with a flush
//!   after each (the end-to-end benchmark's write window, without the
//!   wire), for 1 and 8 tenants under `PerBatch` and `Never`: reports
//!   applied per second, WAL fsyncs per report, WAL rewrites and the
//!   bytes they wrote per report. Each row carries the same measurement
//!   taken at the commit before the presorted tree builder
//!   ([`FEEDBACK_BEFORE`]), and — from the server's own books — what the
//!   log cost a report, in bytes and in microseconds of the
//!   `service.report.wal_append` stage, beside the JSON record's
//!   ([`WAL_APPEND_BEFORE`]).
//! * **retrain** — what that feed spends most of its time in: one
//!   `apply_report` that fires a batch retrain (100 pending samples,
//!   burst ×10, one configured-size batch of trees grown on the 1 000
//!   rows), in process, for the 10-tree and the 100-tree template, each
//!   beside the same measurement at the commit before the presorted
//!   builder ([`RETRAIN_BEFORE`]).
//!
//! Usage: `cargo run --release -p smartpick_bench --bin bench_store
//! [output-path] [--idle-fleet N]` (default `BENCH_store.json` in the
//! working directory, and the recorded fleet of [`IDLE_FLEET`]; CI's
//! scratch run passes a smaller one). Store roots live under the repo's
//! own `target/tmp`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::driver::Smartpick;
use smartpick_core::properties::SmartpickProperties;
use smartpick_core::training::TrainOptions;
use smartpick_ml::forest::ForestParams;
use smartpick_service::{
    CompletedRun, FsyncPolicy, PersistenceConfig, ServiceConfig, SmartpickService,
};
use smartpick_store::wal::scan_wal;
use smartpick_store::WalPayload;
use smartpick_workloads::tpcds;

fn trained_driver(query_ids: &[u32], trees: usize) -> Smartpick {
    let queries: Vec<_> = query_ids
        .iter()
        .map(|&q| tpcds::query(q, 100.0).expect("catalog query"))
        .collect();
    let opts = TrainOptions {
        configs_per_query: 6,
        burst_factor: 3,
        forest: ForestParams {
            n_trees: trees,
            ..ForestParams::default()
        },
        max_vm: 4,
        max_sl: 4,
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

fn bench_root(tag: &str) -> PathBuf {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"))
        .join(format!("bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench store root");
    dir
}

fn durable_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        retrain_workers: 1,
        supervisor_poll: Duration::from_millis(5),
        // Snapshots only on demand: the WAL carries everything, so the
        // recovery rows measure pure replay scaling.
        persistence: Some(PersistenceConfig {
            snapshot_every: u64::MAX,
            ..PersistenceConfig::at(dir)
        }),
        ..ServiceConfig::default()
    }
}

/// Times each recovery row is built, crashed and reopened; the row
/// records the median open.
const RECOVERY_REPS: usize = 5;

/// The many-tenants recovery row: this many tenants, this many reports
/// each.
const MANY_TENANTS: usize = 512;
const MANY_TENANTS_REPORTS_EACH: usize = 4;

/// One recovery row's measurement.
#[derive(Clone, Copy)]
struct Recovery {
    wal_bytes: u64,
    recover_ms: f64,
}

impl Recovery {
    const fn at(wal_bytes: u64, recover_ms: f64) -> Self {
        Recovery {
            wal_bytes,
            recover_ms,
        }
    }
}

/// The recovery rows — (WAL records, measurement) — at the parent of the
/// binary report record (PR 20, commit a343d3a: a `Report` was the run as
/// JSON), kept for the size of its log.
const JSON_RECORD: [(usize, Recovery); 4] = [
    (0, Recovery::at(8, 2.4)),
    (32, Recovery::at(132_492, 4.4)),
    (128, Recovery::at(529_900, 17.9)),
    (512, Recovery::at(2_119_576, 53.8)),
];
const MANY_TENANTS_JSON_RECORD: Recovery = Recovery::at(8_567_960, 871.7);

/// The recovery rows at the parent of the read-only recovery (PR 21,
/// commit 03d79af: every recovered tenant got a fresh snapshot, fsynced,
/// and the logs were deleted), by this same loop built against that
/// commit, same box, same hour, pinned to one CPU: the median of five
/// runs alternated with this commit's (whose five read 0.1 / 0.2 / 6.9 /
/// 32.3 ms and, for the many-tenants row, 33.8 ms, ahead in every pair
/// but one of the 512-record row's, a tie at 38.8).
const RECOVERY_BEFORE: [(usize, Recovery); 4] = [
    (0, Recovery::at(8, 2.6)),
    (32, Recovery::at(3_480, 2.2)),
    (128, Recovery::at(13_808, 13.3)),
    (512, Recovery::at(55_208, 37.3)),
];

/// The many-tenants row at that commit (its opens read 622–884 ms over
/// the five runs): 512 snapshot persists, each with its fsync, are most
/// of it.
const MANY_TENANTS_BEFORE: Recovery = Recovery::at(308_376, 814.2);

/// Snapshot bytes at rest at PR 20 — (trained queries, bytes) — and after
/// 256 reports.
const SNAPSHOT_BEFORE: [(usize, u64); 2] = [(1, 2769), (2, 4511)];
const SNAPSHOT_AFTER_256_BEFORE: u64 = 275_473;

fn recovery_json(row: &Recovery) -> String {
    format!(
        "{{\"wal_bytes\": {}, \"recover_ms\": {:.1}}}",
        row.wal_bytes, row.recover_ms
    )
}

fn snapshot_json(bytes: u64) -> String {
    format!(
        "{{\"bytes\": {bytes}, \"kilobytes\": {:.1}}}",
        bytes as f64 / 1024.0
    )
}

/// Every byte under the store's `wal/`.
fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir.join("wal"))
        .expect("wal dir")
        .filter_map(|e| e.ok())
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// The largest report record in the store's shard-0 log, frame included.
fn report_record_bytes(dir: &Path) -> usize {
    let log = std::fs::read(dir.join("wal").join("shard-0.wal")).expect("shard log");
    scan_wal(&log)
        .expect("a WAL")
        .records
        .iter()
        .filter(|r| matches!(r.payload, WalPayload::Sample { .. }))
        .map(|r| 8 + r.encode_payload().len())
        .max()
        .unwrap_or(0)
}

/// Builds a store of `tenants` forks of `template` with `reports_each`
/// accepted reports apiece in the log and nothing but their generation-0
/// snapshots beside it, crashes it, and times the reopen —
/// [`RECOVERY_REPS`] times over; returns the median open, the log's
/// bytes and its largest report record.
fn recovery_row(
    tag: &str,
    tenants: usize,
    reports_each: usize,
    template: &Smartpick,
    run: &CompletedRun,
) -> (Recovery, usize) {
    let ids: Vec<String> = (0..tenants).map(|t| format!("bench-{t}")).collect();
    let mut opens_ms = Vec::with_capacity(RECOVERY_REPS);
    let mut bytes = 0;
    let mut record_bytes = 0;
    for _ in 0..RECOVERY_REPS {
        let dir = bench_root(tag);
        {
            let service = SmartpickService::open(&dir, durable_config(&dir)).expect("open store");
            for (t, id) in ids.iter().enumerate() {
                service
                    .register_fork(id.clone(), template, t as u64)
                    .expect("register");
            }
            // One report per tenant per round, a flush every 16 reports,
            // so neither the tenant quota nor the queue ever trips.
            let mut fed = 0usize;
            for _ in 0..reports_each {
                for id in &ids {
                    service.report_run(id, run.clone()).expect("report");
                    fed += 1;
                    if fed.is_multiple_of(16) {
                        assert!(service.flush(), "drain between bursts");
                    }
                }
            }
            assert!(service.flush(), "drain the tail");
        }
        bytes = wal_bytes(&dir);
        if reports_each > 0 {
            record_bytes = report_record_bytes(&dir);
        }
        let started = Instant::now();
        let recovered = SmartpickService::open(&dir, durable_config(&dir)).expect("reopen store");
        opens_ms.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(recovered.tenants().len(), tenants, "every tenant back");
        let replayed = recovered
            .observability()
            .metrics()
            .counter("store.wal_records_replayed")
            .get();
        assert_eq!(
            replayed as usize,
            tenants * reports_each,
            "every report replayed"
        );
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
    opens_ms.sort_by(f64::total_cmp);
    let row = Recovery {
        wal_bytes: bytes,
        recover_ms: opens_ms[RECOVERY_REPS / 2],
    };
    (row, record_bytes)
}

/// The idle-fleet row's recorded size: this many tenants, one in
/// [`IDLE_FLEET_PER_BUSY`] of them with records in the log, and a
/// resident cap of as many.
const IDLE_FLEET: usize = 10_000;
const IDLE_FLEET_PER_BUSY: usize = 100;
const IDLE_FLEET_REPS: usize = 3;

/// What one open of the idle fleet cost.
#[derive(Clone, Copy)]
struct FleetOpen {
    open_ms: f64,
    resident_after_open: usize,
    rss_mb: f64,
}

impl FleetOpen {
    fn json(&self) -> String {
        format!(
            "{{\"open_ms\": {:.1}, \"resident_after_open\": {}, \"rss_mb\": {:.1}}}",
            self.open_ms, self.resident_after_open, self.rss_mb
        )
    }
}

/// The [`IDLE_FLEET`] row at the parent of the read-only recovery (PR 21,
/// commit 03d79af), by this same loop built against that commit, same
/// box, same hour: every tenant loaded, persisted and inserted hot, cap or
/// no cap. The median of five runs alternated with this commit's (12.2–
/// 17.9 s against 180–215 ms; the resident count and the RSS repeat to
/// the tenant and the tenth of a MiB).
const IDLE_FLEET_BEFORE: FleetOpen = FleetOpen {
    open_ms: 13_542.2,
    resident_after_open: 10_000,
    rss_mb: 106.8,
};

/// The child half of [`idle_fleet_row`]: opens the store at `dir` under a
/// resident cap and prints what that cost this process. An hour-long
/// sweep tick, so no sweep runs before the count is read.
fn open_fleet(dir: &Path, max_resident: usize) {
    let config = ServiceConfig {
        max_resident_tenants: Some(max_resident),
        supervisor_poll: Duration::from_secs(3600),
        ..durable_config(dir)
    };
    let started = Instant::now();
    let service = SmartpickService::open(dir, config).expect("reopen the fleet");
    let open_ms = started.elapsed().as_secs_f64() * 1e3;
    println!(
        "{open_ms} {} {} {}",
        service.resident_tenants(),
        smartpick_bench::rss_mb(),
        service.tenants().len()
    );
}

/// Builds a store of `tenants` forks of `template`, two reports in the
/// log for each of the first `tenants / IDLE_FLEET_PER_BUSY` and nothing
/// but a generation-0 snapshot for the rest, crashes it, and has a child
/// process reopen it under a cap of that many — [`IDLE_FLEET_REPS`] times
/// over; returns the open of median duration.
fn idle_fleet_row(tenants: usize, template: &Smartpick, run: &CompletedRun) -> FleetOpen {
    let busy = tenants / IDLE_FLEET_PER_BUSY;
    let mut opens = Vec::with_capacity(IDLE_FLEET_REPS);
    for _ in 0..IDLE_FLEET_REPS {
        let dir = bench_root("fleet");
        {
            let service = SmartpickService::open(&dir, durable_config(&dir)).expect("open store");
            for t in 0..tenants {
                service
                    .register_fork(format!("bench-{t}"), template, t as u64)
                    .expect("register");
            }
            for round in 0..2 {
                for t in 0..busy {
                    service
                        .report_run(&format!("bench-{t}"), run.clone())
                        .expect("report");
                    if t % 16 == 15 {
                        assert!(service.flush(), "drain between bursts");
                    }
                }
                assert!(service.flush(), "drain round {round}");
            }
        }
        let child = std::process::Command::new(std::env::current_exe().expect("own path"))
            .arg("--open-fleet")
            .arg(&dir)
            .arg(busy.to_string())
            .output()
            .expect("run the opening child");
        assert!(child.status.success(), "the opening child failed");
        let out = String::from_utf8_lossy(&child.stdout);
        let fields: Vec<f64> = out
            .split_whitespace()
            .map(|f| f.parse().expect("a number from the child"))
            .collect();
        let [open_ms, resident, rss_mb, listed] = fields[..] else {
            panic!("the opening child printed {out:?}");
        };
        assert_eq!(listed as usize, tenants, "every tenant back");
        opens.push(FleetOpen {
            open_ms,
            resident_after_open: resident as usize,
            rss_mb,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    opens.sort_by(|a, b| a.open_ms.total_cmp(&b.open_ms));
    opens[IDLE_FLEET_REPS / 2]
}

/// Reports fed per feedback row, in bursts of [`FEEDBACK_BURST`].
const FEEDBACK_REPORTS: u64 = 4096;
const FEEDBACK_BURST: u64 = 32;

/// One feedback row's measurement.
struct Feedback {
    reports_per_s: f64,
    fsyncs_per_report: f64,
    compactions: u64,
    rewritten_bytes_per_report: f64,
}

impl Feedback {
    const fn at(
        reports_per_s: f64,
        fsyncs_per_report: f64,
        compactions: u64,
        rewritten_bytes_per_report: f64,
    ) -> Self {
        Feedback {
            reports_per_s,
            fsyncs_per_report,
            compactions,
            rewritten_bytes_per_report,
        }
    }
}

/// The feedback rows as measured at the parent of the presorted-builder
/// change (PR 15, commit 9f883b2) by this same loop, same box, same day,
/// pinned to one CPU as the recorded run was. Keyed by (tenants, fsync
/// policy).
const FEEDBACK_BEFORE: [(u64, &str, Feedback); 4] = [
    (1, "per_batch", Feedback::at(2991.0, 0.0630, 8, 2069.0)),
    (1, "never", Feedback::at(3183.0, 0.0, 8, 2069.0)),
    (8, "per_batch", Feedback::at(3591.0, 0.1841, 2, 2074.0)),
    (8, "never", Feedback::at(3757.0, 0.0, 4, 4148.0)),
];

/// What the log costs a report in a feedback row, read off the server's
/// own books: `store.wal_bytes_written` and the
/// `service.report.wal_append` stage (encode + append, one sample per
/// batch; samples × mean), each over the reports applied.
#[derive(Clone, Copy)]
struct WalAppend {
    bytes_per_report: f64,
    us_per_report: f64,
}

/// [`WalAppend`] per feedback row at the parent of the binary report
/// record (PR 20, commit a343d3a), by this same loop, same box, pinned:
/// the median of five runs alternated with this commit's (whose five
/// read 105–127 bytes and 0.98–2.91 µs). In [`FEEDBACK_BEFORE`]'s
/// order.
const WAL_APPEND_BEFORE: [WalAppend; 4] = [
    WalAppend::at(4137.0, 54.99),
    WalAppend::at(4137.0, 54.43),
    WalAppend::at(4149.0, 65.44),
    WalAppend::at(4147.0, 53.49),
];

impl WalAppend {
    const fn at(bytes_per_report: f64, us_per_report: f64) -> Self {
        WalAppend {
            bytes_per_report,
            us_per_report,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"wal_bytes_per_report\": {:.0}, \"wal_append_us_per_report\": {:.2}}}",
            self.bytes_per_report, self.us_per_report
        )
    }
}

/// Feeds [`FEEDBACK_REPORTS`] reports round-robin over `tenants` forks
/// of `template` into a durable service at its default knobs, a flush
/// after every burst, and reads the write path's own counters.
fn feedback_row(
    tenants: u64,
    fsync: FsyncPolicy,
    template: &Smartpick,
    run: &CompletedRun,
) -> (Feedback, WalAppend) {
    let dir = bench_root(&format!("feedback{tenants}"));
    let service = SmartpickService::open(
        &dir,
        ServiceConfig {
            persistence: Some(PersistenceConfig {
                fsync,
                ..PersistenceConfig::at(&dir)
            }),
            ..ServiceConfig::default()
        },
    )
    .expect("open store");
    let ids: Vec<String> = (0..tenants).map(|t| format!("bench-{t}")).collect();
    for (t, id) in ids.iter().enumerate() {
        service
            .register_fork(id.clone(), template, t as u64)
            .expect("register");
    }
    let started = Instant::now();
    for burst in 0..FEEDBACK_REPORTS / FEEDBACK_BURST {
        for i in 0..FEEDBACK_BURST {
            let id = &ids[((burst * FEEDBACK_BURST + i) % tenants) as usize];
            service.report_run(id, run.clone()).expect("report");
        }
        assert!(service.flush(), "flush after the burst");
    }
    // A rewrite the last burst triggered runs after its ack: wait it out,
    // it is work the feed caused.
    assert!(service.flush(), "trailing flush");
    let elapsed = started.elapsed().as_secs_f64();
    let counter = |name: &str| service.observability().metrics().counter(name).get();
    assert_eq!(counter("service.reports_applied"), FEEDBACK_REPORTS);
    let row = Feedback {
        reports_per_s: FEEDBACK_REPORTS as f64 / elapsed,
        fsyncs_per_report: counter("store.wal_syncs") as f64 / FEEDBACK_REPORTS as f64,
        compactions: counter("store.compactions"),
        rewritten_bytes_per_report: counter("store.compaction_bytes_written") as f64
            / FEEDBACK_REPORTS as f64,
    };
    let stage = service
        .observability()
        .metrics()
        .histogram("service.report.wal_append")
        .summary();
    let wal = WalAppend {
        bytes_per_report: counter("store.wal_bytes_written") as f64 / FEEDBACK_REPORTS as f64,
        us_per_report: stage.count as f64 * stage.mean_us / FEEDBACK_REPORTS as f64,
    };
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
    (row, wal)
}

/// Batch retrains timed per retrain row.
const RETRAIN_REPS: usize = 25;

/// The retrain rows — (template trees, median milliseconds per retrain) —
/// as measured at the parent of the presorted-builder change (PR 15,
/// commit 9f883b2) by this same loop, same box, same day, pinned to one
/// CPU as the recorded run was.
const RETRAIN_BEFORE: [(usize, f64); 2] = [(10, 17.61), (100, 182.40)];

/// Feeds `run` to a fork of `template` at the default properties
/// (`max.batch` 100) and times each `apply_report` that returned a batch
/// retrain — 100 pending rows burst ×10, `trees` trees grown. Returns the
/// median, in milliseconds.
fn retrain_ms(template: &Smartpick, trees: usize, run: &CompletedRun) -> f64 {
    let mut driver = template.fork(3);
    let mut took_ms = Vec::with_capacity(RETRAIN_REPS);
    while took_ms.len() < RETRAIN_REPS {
        let started = Instant::now();
        let retrain = driver
            .apply_report(&run.query, &run.determination, &run.report)
            .expect("apply");
        let took = started.elapsed();
        if let Some(report) = retrain {
            assert_eq!(
                (report.samples_used, report.trees_added),
                (1000, trees),
                "a full batch burst x10, one configured batch of trees"
            );
            took_ms.push(took.as_secs_f64() * 1e3);
        }
    }
    took_ms.sort_by(f64::total_cmp);
    took_ms[RETRAIN_REPS / 2]
}

fn retrain_json(ms_per_retrain: f64, trees: usize) -> String {
    format!(
        "{{\"ms_per_retrain\": {ms_per_retrain:.2}, \"ms_per_tree\": {:.3}}}",
        ms_per_retrain / trees as f64
    )
}

fn feedback_json(row: &Feedback) -> String {
    format!(
        "{{\"reports_per_s\": {:.0}, \"fsyncs_per_report\": {:.4}, \"compactions\": {}, \
         \"rewritten_bytes_per_report\": {:.0}}}",
        row.reports_per_s, row.fsyncs_per_report, row.compactions, row.rewritten_bytes_per_report
    )
}

fn main() {
    let mut out_path = "BENCH_store.json".to_owned();
    let mut idle_fleet = IDLE_FLEET;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--idle-fleet" => {
                idle_fleet = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--idle-fleet takes a tenant count");
            }
            // What `idle_fleet_row` runs this binary as.
            "--open-fleet" => {
                let dir = PathBuf::from(args.next().expect("--open-fleet takes a store root"));
                let cap = args.next().and_then(|v| v.parse().ok());
                return open_fleet(&dir, cap.expect("and a resident cap"));
            }
            other => out_path = other.to_owned(),
        }
    }
    assert!(
        idle_fleet >= IDLE_FLEET_PER_BUSY,
        "a fleet with a busy tenant"
    );

    // One accepted report, minted by a throwaway in-memory service, is
    // the template every row re-feeds with fresh run ids.
    let run = {
        let minter = SmartpickService::new(ServiceConfig {
            retrain_workers: 1,
            ..ServiceConfig::default()
        });
        minter
            .register_tenant("bench", trained_driver(&[82], 10))
            .expect("register");
        let query = tpcds::query(82, 100.0).expect("catalog query");
        let outcome = minter.submit("bench", &query, 7).expect("submit");
        CompletedRun {
            query,
            determination: outcome.determination,
            report: outcome.report,
        }
    };

    // --- snapshot size at rest, by model scale -----------------------
    println!("snapshot at rest (persist_tenant, full driver state)");
    smartpick_bench::rule(64);
    println!(
        "{:<20} {:>14} {:>14}",
        "trained queries", "before bytes", "after bytes"
    );
    smartpick_bench::rule(64);
    let mut snap_rows = String::new();
    let mut snap_256 = 0;
    for (i, &(queries, before)) in SNAPSHOT_BEFORE.iter().enumerate() {
        let dir = bench_root(&format!("snap{queries}"));
        let service = SmartpickService::open(&dir, durable_config(&dir)).expect("open store");
        service
            .register_tenant("bench", trained_driver(&[82, 68][..queries], 10))
            .expect("register");
        let bytes = service.persist_tenant("bench").expect("persist");
        println!("{queries:<20} {before:>14} {bytes:>14}");
        if i > 0 {
            snap_rows.push_str(",\n");
        }
        let _ = write!(
            snap_rows,
            "    {{\"trained_queries\": {queries},\n     \"before\": {},\n     \"after\": {}}}",
            snapshot_json(before),
            snapshot_json(bytes)
        );
        if queries == 2 {
            // The same tenant 256 reports later: the history ring is
            // full and `max.batch` has fired twice.
            for fed in 1..=256u32 {
                service.report_run("bench", run.clone()).expect("report");
                if fed.is_multiple_of(16) {
                    assert!(service.flush(), "drain between bursts");
                }
            }
            snap_256 = service.persist_tenant("bench").expect("persist");
            println!(
                "{:<20} {SNAPSHOT_AFTER_256_BEFORE:>14} {snap_256:>14}",
                "2, +256 reports"
            );
        }
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }
    smartpick_bench::rule(64);

    // --- recovery time vs WAL length ---------------------------------
    // One report template re-fed N times (fresh run ids each time), so
    // the WAL length is the only variable across rows.
    println!("crash recovery (SmartpickService::open) vs WAL length, median of {RECOVERY_REPS}");
    smartpick_bench::rule(64);
    println!(
        "{:<12} {:>12} {:>10} {:>12} {:>10}",
        "wal records", "before B", "ms", "after B", "ms"
    );
    smartpick_bench::rule(64);
    let template = trained_driver(&[82], 10);
    let mut rec_rows = String::new();
    let mut record_bytes = 0;
    for (i, ((n, before), (_, json_record))) in RECOVERY_BEFORE.iter().zip(&JSON_RECORD).enumerate()
    {
        let (after, largest) = recovery_row(&format!("rec{n}"), 1, *n, &template, &run);
        record_bytes = record_bytes.max(largest);
        println!(
            "{n:<12} {:>12} {:>10.1} {:>12} {:>10.1}",
            before.wal_bytes, before.recover_ms, after.wal_bytes, after.recover_ms
        );
        if i > 0 {
            rec_rows.push_str(",\n");
        }
        let _ = write!(
            rec_rows,
            "    {{\"wal_records\": {n},\n     \"json_record\": {},\n     \"before\": {},\n     \
             \"after\": {}}}",
            recovery_json(json_record),
            recovery_json(before),
            recovery_json(&after)
        );
    }
    let (many, _) = recovery_row(
        "recmany",
        MANY_TENANTS,
        MANY_TENANTS_REPORTS_EACH,
        &template,
        &run,
    );
    println!(
        "{:<12} {:>12} {:>10.1} {:>12} {:>10.1}",
        format!("{MANY_TENANTS} x {MANY_TENANTS_REPORTS_EACH}"),
        MANY_TENANTS_BEFORE.wal_bytes,
        MANY_TENANTS_BEFORE.recover_ms,
        many.wal_bytes,
        many.recover_ms
    );
    smartpick_bench::rule(64);
    println!("largest known-query report record: {record_bytes} bytes");

    // --- the open that restarts a large, mostly idle fleet -------------
    let busy = idle_fleet / IDLE_FLEET_PER_BUSY;
    println!("idle fleet: {idle_fleet} tenants, {busy} with records, cap {busy}");
    smartpick_bench::rule(64);
    let fleet = idle_fleet_row(idle_fleet, &template, &run);
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "", "open ms", "resident", "rss MiB"
    );
    // The recorded `before` is the full-size fleet's.
    let fleet_before = (idle_fleet == IDLE_FLEET).then_some(&IDLE_FLEET_BEFORE);
    let sides = fleet_before.map(|row| ("before", row));
    for (side, row) in sides.into_iter().chain([("after", &fleet)]) {
        println!(
            "{side:<10} {:>12.1} {:>12} {:>12.1}",
            row.open_ms, row.resident_after_open, row.rss_mb
        );
    }
    smartpick_bench::rule(64);

    // --- sustained feedback: the write path's own throughput ----------
    println!("sustained feedback ({FEEDBACK_REPORTS} reports, bursts of {FEEDBACK_BURST} + flush)");
    smartpick_bench::rule(64);
    println!(
        "{:<8} {:<10} {:>10} {:>11} {:>9} {:>11} {:>9} {:>10}",
        "tenants",
        "fsync",
        "reports/s",
        "fsyncs/rep",
        "rewrites",
        "rewr B/rep",
        "WAL B/rep",
        "append us"
    );
    smartpick_bench::rule(64);
    let mut feedback_rows = String::new();
    let mut wal_rows = String::new();
    for (i, (tenants, policy, before)) in FEEDBACK_BEFORE.iter().enumerate() {
        let fsync = match *policy {
            "never" => FsyncPolicy::Never,
            _ => FsyncPolicy::PerBatch,
        };
        let (after, wal) = feedback_row(*tenants, fsync, &template, &run);
        println!(
            "{tenants:<8} {policy:<10} {:>10.0} {:>11.4} {:>9} {:>11.0} {:>9.0} {:>10.2}",
            after.reports_per_s,
            after.fsyncs_per_report,
            after.compactions,
            after.rewritten_bytes_per_report,
            wal.bytes_per_report,
            wal.us_per_report
        );
        if i > 0 {
            feedback_rows.push_str(",\n");
            wal_rows.push_str(",\n");
        }
        let _ = write!(
            wal_rows,
            "    {{\"tenants\": {tenants}, \"fsync\": \"{policy}\",\n     \"before\": {},\n     \
             \"after\": {}}}",
            WAL_APPEND_BEFORE[i].json(),
            wal.json()
        );
        let _ = write!(
            feedback_rows,
            "    {{\"tenants\": {tenants}, \"fsync\": \"{policy}\",\n     \"before\": {},\n     \
             \"after\": {}}}",
            feedback_json(before),
            feedback_json(&after)
        );
    }
    smartpick_bench::rule(64);

    // --- one batch retrain, in process -------------------------------
    println!("batch retrain (100 pending x burst 10, median of {RETRAIN_REPS})");
    smartpick_bench::rule(64);
    println!(
        "{:<8} {:>14} {:>12} {:>14} {:>12}",
        "trees", "before ms", "ms/tree", "after ms", "ms/tree"
    );
    smartpick_bench::rule(64);
    let mut retrain_rows = String::new();
    for (i, &(trees, before)) in RETRAIN_BEFORE.iter().enumerate() {
        let after = retrain_ms(&trained_driver(&[82, 68], trees), trees, &run);
        println!(
            "{trees:<8} {before:>14.2} {:>12.3} {after:>14.2} {:>12.3}",
            before / trees as f64,
            after / trees as f64
        );
        if i > 0 {
            retrain_rows.push_str(",\n");
        }
        let _ = write!(
            retrain_rows,
            "    {{\"trees\": {trees}, \"pending\": 100, \"burst\": 10,\n     \"before\": {},\n     \
             \"after\": {}}}",
            retrain_json(before, trees),
            retrain_json(after, trees)
        );
    }
    smartpick_bench::rule(64);

    let fleet_before = fleet_before
        .map(|row| format!("\n     \"before\": {},", row.json()))
        .unwrap_or_default();
    let json = format!(
        "{{\n  \"bench\": \"store_durability\",\n  \"snapshot_unit\": \"bytes at rest for one \
         tenant's full driver snapshot (persist_tenant), fresh and after 256 reports; before = \
         PR 20 (properties and history as JSON inside the envelope), after = this commit\",\n  \
         \"recovery_unit\": \"bytes of WAL, and milliseconds (median of {RECOVERY_REPS}) for \
         SmartpickService::open to recover from generation-0 snapshots plus that WAL: one tenant \
         and N reports, then {MANY_TENANTS} tenants with {MANY_TENANTS_REPORTS_EACH} each; \
         json_record = PR 20 (a report record is the run as JSON), before = PR 21 (recovery \
         persists a fresh snapshot per tenant and deletes the logs; median of five runs \
         alternated with this commit's), after = this commit\",\n  \
         \"idle_fleet_unit\": \"SmartpickService::open, in a process of its own, on a crashed \
         store of N tenants of which N/{IDLE_FLEET_PER_BUSY} have two reports each in the log, \
         under max_resident_tenants = N/{IDLE_FLEET_PER_BUSY} and no sweep: milliseconds \
         (median of {IDLE_FLEET_REPS} stores), tenants resident when open returns, process RSS \
         in MiB then; before = PR 21 (recorded at N = {IDLE_FLEET} only; median of five \
         runs alternated with this commit's), after = this commit\",\n  \"feedback_unit\": \"{FEEDBACK_REPORTS} reports fed round-robin \
         to N tenants of a durable service at its default knobs, in bursts of {FEEDBACK_BURST} \
         with a flush after each: reports applied per second, WAL fsyncs per report, WAL rewrites \
         and the bytes they wrote per report; before = PR 15 (per-node sorting tree builder), \
         after = this commit\",\n  \"wal_append_unit\": \"the same feed, read off the server's \
         own books: store.wal_bytes_written per applied report, and the service.report.wal_append \
         stage (encode + append; samples x mean) in microseconds per applied report; before = \
         PR 20 (JSON report record), after = this commit\",\n  \"retrain_unit\": \"milliseconds, in process, for one \
         apply_report that fires a batch retrain (100 pending samples burst x10, one configured \
         batch of trees grown on the 1000 rows), median of {RETRAIN_REPS}, and that over the \
         trees grown; before = PR 15, after = this commit\",\n  \
         \"snapshot_at_rest\": [\n{snap_rows}\n  ],\n  \
         \"snapshot_after_256_reports\": {{\"trained_queries\": 2,\n     \"before\": {},\n     \
         \"after\": {}}},\n  \
         \"report_record_bytes\": {record_bytes},\n  \"recovery\": [\n{rec_rows}\n  ],\n  \
         \"recovery_many_tenants\": {{\"tenants\": {MANY_TENANTS}, \"reports_each\": \
         {MANY_TENANTS_REPORTS_EACH},\n     \"json_record\": {},\n     \"before\": {},\n     \
         \"after\": {}}},\n  \
         \"idle_fleet\": {{\"tenants\": {idle_fleet}, \"with_records\": {busy}, \
         \"max_resident\": {busy},{fleet_before}\n     \"after\": {}}},\n  \
         \"feedback\": [\n{feedback_rows}\n  ],\n  \"wal_append\": [\n{wal_rows}\n  ],\n  \
         \"retrain\": [\n{retrain_rows}\n  ]\n}}\n",
        snapshot_json(SNAPSHOT_AFTER_256_BEFORE),
        snapshot_json(snap_256),
        recovery_json(&MANY_TENANTS_JSON_RECORD),
        recovery_json(&MANY_TENANTS_BEFORE),
        recovery_json(&many),
        fleet.json(),
    );
    std::fs::write(&out_path, json).expect("write BENCH_store.json");
    println!("wrote {out_path}");
}
