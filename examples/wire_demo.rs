//! smartpickd over the wire: an in-process `WireServer` on an ephemeral
//! loopback port, a `WireClient` registering a tenant, predicting,
//! feeding a completed run back, and watching the snapshot generation
//! advance.
//!
//! ```sh
//! cargo run --release --example wire_demo
//! ```

use std::sync::Arc;

use smartpick::cloudsim::{CloudEnv, Provider};
use smartpick::core::driver::Smartpick;
use smartpick::core::properties::SmartpickProperties;
use smartpick::engine::simulate_query;
use smartpick::service::{CompletedRun, ServiceConfig, SmartpickService};
use smartpick::wire::{Response, WireClient, WireServer, WireServerConfig};
use smartpick::workloads::tpcds;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Kick-start training happens server-side, once; wire tenants fork it.
    let training: Vec<_> = tpcds::TRAINING_QUERIES
        .iter()
        .take(4)
        .map(|&q| tpcds::query(q, 100.0).expect("catalog query"))
        .collect();
    let template = Smartpick::train(
        CloudEnv::new(Provider::Aws),
        SmartpickProperties {
            // Aggressive trigger so the report below visibly retrains.
            error_difference_trigger_secs: 5.0,
            ..SmartpickProperties::default()
        },
        &training,
        42,
    )?;

    let service = Arc::new(SmartpickService::new(ServiceConfig {
        retrain_workers: 4,
        ..ServiceConfig::default()
    }));
    let server = WireServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        template,
        WireServerConfig::default(),
    )?;
    println!("smartpickd listening on {}", server.local_addr());

    let mut client = WireClient::connect(server.local_addr())?;
    client.ping()?;
    println!("client connected, ping ok");

    client.register_tenant("acme", 7)?;
    println!("registered tenant `acme` (forked server-side, seed 7)");

    let query = tpcds::query(tpcds::TRAINING_QUERIES[0], 100.0).expect("catalog query");
    let det = client.determine("acme", &query, 99)?;
    println!(
        "determine {} -> {} predicted {:.1}s at {}",
        query.id, det.allocation, det.predicted_seconds, det.predicted_cost,
    );

    // Pipelining: four determinations in flight on this one connection;
    // responses come back tagged with their request id.
    let ids: Vec<u64> = (0..4)
        .map(|i| client.submit_determine("acme", &query, 100 + i))
        .collect::<Result<_, _>>()?;
    for _ in &ids {
        let (id, response) = client.recv()?;
        if let Response::Determination(d) = response {
            println!(
                "pipelined #{id} -> {} in {:.1}s",
                d.allocation, d.predicted_seconds
            );
        }
    }

    // The demo stands in for the data-analytics engine: execute locally,
    // then feed the completed run back over the wire.
    let report = simulate_query(&query, &det.allocation, &CloudEnv::new(Provider::Aws), 23)?;
    println!(
        "executed: actual {:.1}s, cost {}",
        report.seconds(),
        report.total_cost()
    );
    client.report_run(
        "acme",
        CompletedRun {
            query,
            determination: det,
            report,
        },
    )?;
    client.flush()?;

    let stats = client.tenant_stats("acme")?;
    println!(
        "tenant `acme`: {} predictions, {} reports applied, {} retrains, \
         snapshot generation {} (worker shard {})",
        stats.predictions,
        stats.reports_applied,
        stats.retrains,
        stats.snapshot_generation,
        stats.worker_shard,
    );

    // Service-wide totals ride the same scrape an operator reads.
    let scrape = client.scrape(0)?;
    println!(
        "service: {} tenants, queue depth {}, per-shard applied {:?}",
        scrape.gauge("service.tenants"),
        scrape.gauge("service.queue_depth"),
        (0..4)
            .map(|shard| scrape.counter(&format!("service.worker.{shard}.reports_applied")))
            .collect::<Vec<_>>(),
    );
    Ok(())
}
