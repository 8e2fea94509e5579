//! The `recover` post-phase: fill a fresh durable store with an exact
//! number of reports, crash it, and time `SmartpickService::open` on what
//! the crash left. Count-driven and independent of `--seed`.

use std::path::Path;
use std::time::Instant;

use smartpick_service::{ServiceConfig, SmartpickService};
use smartpick_wire::{codec, Response};

use crate::load::Counters;
use crate::speed::Speed;
use crate::world::{durable_config, fingerprint, World};

/// Reports written, and so replayed by each recovery.
pub const REPORTS: usize = 512;
const TENANTS: usize = 8;
/// Single opens differ by ±20 % within a run and their median by ±12 %
/// between runs; the fastest of this many moves about half as much.
const RECOVERIES: usize = 15;
/// Seeds sampled per (tenant, query) for the before/after comparison.
const SAMPLED_SEEDS: u64 = 4;

#[derive(Debug, Default)]
pub struct Recover {
    /// `SmartpickService::open` on the crashed store at the nominal speed,
    /// one per recovery.
    pub open_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

fn tenant(i: usize) -> String {
    format!("r{}", i % TENANTS)
}

/// Every tenant's answer to every sampled (query, seed), fingerprinted.
fn sample_predictions(service: &SmartpickService, world: &World, failed: &mut u64) -> Vec<u32> {
    let mut out = Vec::new();
    let mut bytes = Vec::new();
    for t in 0..TENANTS {
        for query in &world.queries {
            for seed in 0..SAMPLED_SEEDS {
                out.push(match service.determine(&tenant(t), query, seed) {
                    Ok(det) => {
                        codec::encode_response_into(&Response::Determination(det), &mut bytes);
                        fingerprint(&bytes)
                    }
                    Err(_) => {
                        *failed += 1;
                        0
                    }
                });
            }
        }
    }
    out
}

/// Copies a store and makes the copy durable, so that the timed `open`
/// does not pay — through its first fsync — for writing the copy out.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy target");
    for entry in std::fs::read_dir(from).expect("read store dir") {
        let entry = entry.expect("dir entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("copy store file");
            let copied = std::fs::File::open(&target).expect("open the copy");
            copied.sync_all().expect("sync the copy");
        }
    }
    let dir = std::fs::File::open(to).expect("open the copied directory");
    dir.sync_all().expect("sync the copied directory");
}

/// Runs the phase with `world`'s template model and minted runs.
pub fn run(world: &World, speed: &mut Speed) -> Recover {
    let mut out = Recover::default();
    let dir = world.root.path().join("recover");
    // Snapshots only at registration: the WAL carries every report, so
    // recovery replays all of them.
    let config = |dir: &Path| durable_config(dir, ServiceConfig::default(), Some(u64::MAX));

    let service = SmartpickService::open(&dir, config(&dir)).expect("open recover store");
    for t in 0..TENANTS {
        service
            .register_fork(tenant(t), &world.oracle.twin, t as u64)
            .expect("register recover tenant");
    }
    // One report per tenant between flushes: the queue never fills, and no
    // burst holds two reports of one tenant, so how the worker splits it
    // into batches cannot change what is written.
    for burst in 0..REPORTS / TENANTS {
        for i in burst * TENANTS..(burst + 1) * TENANTS {
            let run = world.runs[i % world.runs.len()].clone();
            out.attempted += 1;
            out.failed += u64::from(service.report_run(&tenant(i), run).is_err());
        }
        out.failed += u64::from(!service.flush());
    }
    let books = Counters::read(&service.scrape(0));
    out.failed += u64::from(books.reports_applied != REPORTS as u64 || books.rejections != 0);
    let expected = sample_predictions(&service, world, &mut out.failed);
    // Dropping the service takes no final snapshot: what is on disk now is
    // what a crash would leave.
    drop(service);

    // Recovery folds the WAL into fresh snapshots and resets it, so each
    // timed open gets its own copy of the crashed store.
    speed.sample();
    for _ in 0..RECOVERIES {
        let copy = world.root.path().join("recover-copy");
        copy_tree(&dir, &copy);
        let started = Instant::now();
        let recovered = SmartpickService::open(&copy, config(&copy)).expect("reopen crashed store");
        let opened = Instant::now();
        speed.sample();
        let ms = (opened - started).as_secs_f64() * 1e3;
        out.open_ms.push(ms * speed.factor(started, opened));
        let replayed = Counters::read(&recovered.scrape(0)).wal_records_replayed;
        out.failed += u64::from(replayed != REPORTS as u64);
        // Byte-identical predictions before the crash and after recovery.
        out.attempted += expected.len() as u64;
        let got = sample_predictions(&recovered, world, &mut out.failed);
        out.failed += got.iter().zip(&expected).filter(|(g, e)| g != e).count() as u64;
        drop(recovered);
        let _ = std::fs::remove_dir_all(&copy);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}
