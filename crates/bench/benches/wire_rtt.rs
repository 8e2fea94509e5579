//! Wire round-trip time: what does the TCP serving boundary cost?
//!
//! Three rungs, same machine, loopback socket:
//!
//! * `ping` — pure protocol overhead: frame encode + syscalls + frame
//!   decode, no service work. The floor every remote caller pays.
//! * `determine_in_process` — the RF+BO determination called directly on
//!   the embedded service (no socket): the compute being served.
//! * `determine_over_wire` — the same determination through
//!   `WireClient`/`WireServer`: compute + serialisation of the full
//!   `Determination` (including `ET_l`) + framing + loopback TCP.
//!
//! `determine_over_wire − determine_in_process` is the serving-boundary
//! tax the Cloudflow-style prediction-serving argument is about; `ping`
//! shows how much of it is protocol rather than payload.
//!
//! `wire_pipelined` times the *same* logical work — N determines of one
//! query with advancing seeds — two ways: N strictly blocking round trips
//! (`determine_xN_sequential`) vs N requests submitted before the first
//! response is read (`determine_xN_pipelined`): what request-id
//! multiplexing buys by overlapping client framing, server compute, and
//! socket latency.
//!
//! `scrape_under_load` guards the observability tax: `scrape_idle` and
//! `health` price the telemetry surface itself, and
//! `determine_while_scraping` re-times the over-wire determine with a
//! background thread scraping continuously — compare it against
//! `wire_rtt/determine_over_wire` to read off the instrumentation cost
//! (the PR's budget: under 5%). `wire_rtt/determine_over_wire` is also
//! the criterion twin of the blocking `determine` row of the recorded
//! `BENCH_wire.json` written by `src/bin/bench_wire.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::driver::Smartpick;
use smartpick_core::properties::SmartpickProperties;
use smartpick_core::training::TrainOptions;
use smartpick_ml::forest::ForestParams;
use smartpick_service::{ServiceConfig, SmartpickService};
use smartpick_wire::{Response, WireClient, WireServer, WireServerConfig};
use smartpick_workloads::tpcds;

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

fn bench_wire_rtt(c: &mut Criterion) {
    let service = Arc::new(SmartpickService::new(ServiceConfig {
        retrain_workers: 2,
        ..ServiceConfig::default()
    }));
    let template = trained_driver();
    service
        .register_fork("bench", &template, 7)
        .expect("register tenant");
    let server = WireServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        template,
        WireServerConfig::default(),
    )
    .expect("bind loopback server");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let query = tpcds::query(82, 100.0).expect("catalog query");

    let mut group = c.benchmark_group("wire_rtt");
    group.bench_function("ping", |b| {
        b.iter(|| client.ping().expect("ping"));
    });
    let mut seed = 0u64;
    group.bench_function("determine_in_process", |b| {
        b.iter(|| {
            seed += 1;
            black_box(
                service
                    .determine("bench", &query, seed)
                    .expect("in-process determine"),
            )
        });
    });
    group.bench_function("determine_over_wire", |b| {
        b.iter(|| {
            seed += 1;
            black_box(
                client
                    .determine("bench", &query, seed)
                    .expect("wire determine"),
            )
        });
    });
    group.finish();
}

fn bench_wire_pipelined(c: &mut Criterion) {
    let service = Arc::new(SmartpickService::new(ServiceConfig {
        retrain_workers: 2,
        ..ServiceConfig::default()
    }));
    let template = trained_driver();
    service
        .register_fork("bench", &template, 7)
        .expect("register tenant");
    let server = WireServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        template,
        WireServerConfig::default(),
    )
    .expect("bind loopback server");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let query = tpcds::query(82, 100.0).expect("catalog query");
    let mut seed = 0u64;

    let mut group = c.benchmark_group("wire_pipelined");
    for n in [8u64, 32] {
        group.bench_function(format!("determine_x{n}_sequential"), |b| {
            b.iter(|| {
                for _ in 0..n {
                    seed += 1;
                    black_box(
                        client
                            .determine("bench", &query, seed)
                            .expect("sequential determine"),
                    );
                }
            });
        });
        group.bench_function(format!("determine_x{n}_pipelined"), |b| {
            b.iter(|| {
                for _ in 0..n {
                    seed += 1;
                    client
                        .submit_determine("bench", &query, seed)
                        .expect("submit");
                }
                for _ in 0..n {
                    let (_, response) = client.recv().expect("recv");
                    match response {
                        Response::Determination(d) => {
                            black_box(d);
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
            });
        });
    }
    group.finish();
}

fn bench_scrape_under_load(c: &mut Criterion) {
    let service = Arc::new(SmartpickService::new(ServiceConfig {
        retrain_workers: 2,
        ..ServiceConfig::default()
    }));
    let template = trained_driver();
    service
        .register_fork("bench", &template, 7)
        .expect("register tenant");
    let server = WireServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        template,
        WireServerConfig::default(),
    )
    .expect("bind loopback server");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let query = tpcds::query(82, 100.0).expect("catalog query");
    let mut seed = 0u64;

    let mut group = c.benchmark_group("scrape_under_load");
    // The telemetry surface itself, over the wire.
    group.bench_function("scrape_idle", |b| {
        b.iter(|| black_box(client.scrape(32).expect("scrape")));
    });
    group.bench_function("health", |b| {
        b.iter(|| black_box(client.health().expect("health")));
    });
    // The hot path while a scraper hammers the registry from another
    // connection: compare against wire_rtt/determine_over_wire for the
    // instrumentation + contention cost.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        let addr = server.local_addr();
        std::thread::spawn(move || {
            let mut scraper = WireClient::connect(addr).expect("connect scraper");
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                black_box(scraper.scrape(32).expect("background scrape"));
            }
        })
    };
    group.bench_function("determine_while_scraping", |b| {
        b.iter(|| {
            seed += 1;
            black_box(
                client
                    .determine("bench", &query, seed)
                    .expect("determine under scrape load"),
            )
        });
    });
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    scraper.join().expect("scraper thread");
    group.finish();
}

criterion_group!(
    benches,
    bench_wire_rtt,
    bench_wire_pipelined,
    bench_scrape_under_load
);
criterion_main!(benches);
