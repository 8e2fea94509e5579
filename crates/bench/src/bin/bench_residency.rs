//! Records the tiered-residency numbers into `BENCH_residency.json` —
//! what capping the resident set costs and what it buys, guarded by
//! `tests/bench_residency_json.rs`.
//!
//! The scenario is the paper's multi-tenant long tail: far more
//! registered tenants than the box should keep hot. With
//! `max_resident_tenants` set, the residency sweep takes idle
//! tenants cold (their snapshot is the state of record; eviction is
//! free when nothing was applied since the last persist) and the first
//! touch of a cold tenant transparently rehydrates it.
//!
//! Four families:
//!
//! * **registration** — RSS and resident-count checkpoints while
//!   registering N tenants under a cap of M: the resident set (and the
//!   memory bill) stays bounded while the registry grows unbounded.
//! * **resident set** — the post-sweep resident count against the cap.
//! * **scrape** — at that point, the metrics registry's series count,
//!   the scrape's sample count and its size as a binary-codec response:
//!   the scrape follows the resident set, not the registered one.
//! * **latency** — median `predict` on a hot tenant under the cap,
//!   the same on an uncapped in-memory twin (the "hot path unchanged"
//!   bar), and the median first-touch (rehydrate + determine) on a cold
//!   tenant — the latency price of the long tail, paid once per
//!   rewarming.
//!
//! Usage: `cargo run --release -p smartpick_bench --bin bench_residency
//! [output-path] [--tenants N] [--max-resident M]` (defaults:
//! `BENCH_residency.json`, 100000 tenants, cap 1000). Store roots live
//! under the repo's own `target/tmp`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::driver::Smartpick;
use smartpick_core::properties::SmartpickProperties;
use smartpick_core::training::TrainOptions;
use smartpick_core::{ConstraintMode, PredictionRequest};
use smartpick_ml::forest::ForestParams;
use smartpick_service::{PersistenceConfig, ServiceConfig, SmartpickService};
use smartpick_wire::{codec, Response};
use smartpick_workloads::tpcds;

fn template() -> Smartpick {
    let queries = vec![tpcds::query(82, 100.0).expect("catalog query")];
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
        42,
    )
    .expect("training succeeds")
    .0
}

fn bench_root(tag: &str) -> PathBuf {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"))
        .join(format!("bench-residency-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench store root");
    dir
}

fn probe(seed: u64) -> PredictionRequest {
    PredictionRequest {
        query: tpcds::query(82, 100.0).expect("catalog query"),
        knob: 0.0,
        constraint: ConstraintMode::Hybrid,
        seed,
    }
}

fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    let mut out_path = "BENCH_residency.json".to_owned();
    let mut tenants: usize = 100_000;
    let mut max_resident: usize = 1_000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tenants" => {
                tenants = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--tenants takes a count");
            }
            "--max-resident" => {
                max_resident = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-resident takes a count");
            }
            other => out_path = other.to_owned(),
        }
    }
    assert!(max_resident > 0 && tenants >= max_resident);

    let dir = bench_root("main");
    let service = SmartpickService::open(
        &dir,
        ServiceConfig {
            retrain_workers: 1,
            supervisor_poll: Duration::from_millis(5),
            max_resident_tenants: Some(max_resident),
            persistence: Some(PersistenceConfig {
                snapshot_every: u64::MAX,
                ..PersistenceConfig::at(&dir)
            }),
            ..ServiceConfig::default()
        },
    )
    .expect("open store");
    let tpl = template();

    // --- registration under the cap ----------------------------------
    println!("registering {tenants} tenants, cap {max_resident} resident");
    smartpick_bench::rule(64);
    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "registered", "resident", "rss MiB", "elapsed s"
    );
    smartpick_bench::rule(64);
    let checkpoint_every = (tenants / 4).max(1);
    let sweep_every = max_resident.clamp(64, 1024);
    let started = Instant::now();
    let mut reg_rows = String::new();
    let mut checkpoints = 0usize;
    for i in 0..tenants {
        service
            .register_fork(format!("tenant-{i:06}"), &tpl, i as u64)
            .expect("register");
        if (i + 1) % sweep_every == 0 {
            service.residency_sweep();
        }
        if (i + 1) % checkpoint_every == 0 || i + 1 == tenants {
            service.residency_sweep();
            let registered = i + 1;
            let resident = service.resident_tenants();
            let rss = smartpick_bench::rss_mb();
            let elapsed = started.elapsed().as_secs_f64();
            println!("{registered:<12} {resident:>10} {rss:>10.0} {elapsed:>10.1}");
            if checkpoints > 0 {
                reg_rows.push_str(",\n");
            }
            checkpoints += 1;
            let _ = write!(
                reg_rows,
                "    {{\"registered\": {registered}, \"resident\": {resident}, \"rss_mb\": \
                 {rss:.0}, \"elapsed_s\": {elapsed:.1}}}"
            );
        }
    }
    smartpick_bench::rule(64);
    let resident_after_sweep = service.resident_tenants();
    assert!(
        resident_after_sweep <= max_resident,
        "sweep must bound the resident set: {resident_after_sweep} > {max_resident}"
    );

    // --- what an operator's scrape weighs at this point ---------------
    let registry_metrics = service.observability().metrics().len();
    let scrape = service.scrape(0);
    let scrape_metrics = scrape.metrics.len();
    let mut frame = Vec::new();
    codec::encode_response_into(&Response::Scrape(Box::new(scrape)), &mut frame);
    let scrape_binary_bytes = frame.len();
    println!(
        "scrape: {registry_metrics} registry series, {scrape_metrics} samples, \
         {scrape_binary_bytes} B binary"
    );
    smartpick_bench::rule(64);

    // --- latency: hot under the cap, hot uncapped, cold hit ----------
    const HOT_SAMPLES: usize = 200;
    let cold_samples = 100.min(tenants / 2);

    // Hot under the cap: the touch makes (and keeps) the tenant hot.
    let hot_id = format!("tenant-{:06}", tenants - 1);
    service.predict(&hot_id, &probe(0)).expect("warm");
    let hot_capped_us = median_us(
        (0..HOT_SAMPLES)
            .map(|s| {
                let req = probe(s as u64);
                let t = Instant::now();
                service.predict(&hot_id, &req).expect("hot predict");
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect(),
    );

    // The uncapped twin: same model, in-memory service, no residency
    // machinery configured — the baseline the capped hot path must not
    // regress against.
    let twin = SmartpickService::new(ServiceConfig {
        retrain_workers: 1,
        ..ServiceConfig::default()
    });
    twin.register_fork(&hot_id, &tpl, (tenants - 1) as u64)
        .expect("twin register");
    twin.predict(&hot_id, &probe(0)).expect("twin warm");
    let hot_uncapped_us = median_us(
        (0..HOT_SAMPLES)
            .map(|s| {
                let req = probe(s as u64);
                let t = Instant::now();
                twin.predict(&hot_id, &req).expect("twin predict");
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect(),
    );

    // Cold hits: force a tenant cold, then time its first touch
    // (single-flight rehydration + determine).
    let cold_hit_us = median_us(
        (0..cold_samples)
            .map(|s| {
                let id = format!("tenant-{s:06}");
                let req = probe(s as u64);
                service.predict(&id, &req).expect("make hot");
                assert!(service.evict_tenant(&id).expect("evict"), "evictable");
                let t = Instant::now();
                service.predict(&id, &req).expect("cold predict");
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect(),
    );

    println!("latency (median)");
    smartpick_bench::rule(64);
    println!("hot, capped      {hot_capped_us:>10.1} us");
    println!("hot, uncapped    {hot_uncapped_us:>10.1} us");
    println!("cold first touch {cold_hit_us:>10.1} us");
    smartpick_bench::rule(64);

    let json = format!(
        "{{\n  \"bench\": \"residency\",\n  \"tenants\": {tenants},\n  \"max_resident\": \
         {max_resident},\n  \"registration_unit\": \"resident count and process RSS (MiB) while \
         registering under the cap; sweeps ride registration\",\n  \"latency_unit\": \"median \
         microseconds per predict: hot under the cap, hot on an uncapped in-memory twin, and the \
         first touch of an evicted tenant (rehydrate + determine)\",\n  \"registration\": \
         [\n{reg_rows}\n  ],\n  \"resident_after_sweep\": {resident_after_sweep},\n  \
         \"registry_metrics\": {registry_metrics},\n  \"scrape_metrics\": {scrape_metrics},\n  \
         \"scrape_binary_bytes\": {scrape_binary_bytes},\n  \"latency\": {{\"hot_capped_us\": \
         {hot_capped_us:.1}, \"hot_uncapped_us\": {hot_uncapped_us:.1}, \"cold_hit_us\": \
         {cold_hit_us:.1}, \"hot_samples\": {HOT_SAMPLES}, \"cold_samples\": {cold_samples}}}\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write BENCH_residency.json");
    println!("wrote {out_path}");
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
