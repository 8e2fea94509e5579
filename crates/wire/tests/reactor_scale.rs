//! Connection-scaling acceptance: a single event loop sustains over a
//! thousand concurrent connections — all held open at once, all proven
//! live with real pings — at a few kilobytes of buffers each. The
//! scrape confirms the server's own accounting agrees.

use std::sync::Arc;
use std::time::Duration;

use smartpick_obs::MetricValue;
use smartpick_service::{ServiceConfig, SmartpickService};
use smartpick_wire::{WireClient, WireServer, WireServerConfig};

mod common;
use common::template;

const CONNECTIONS: usize = 1024;

/// One event loop holds 1024 concurrent connections open and answers
/// a live ping on every single one — twice, to prove the connections
/// stay usable while parked, not merely accepted.
#[test]
fn one_core_sustains_a_thousand_live_connections() {
    let service = Arc::new(SmartpickService::new(ServiceConfig {
        retrain_workers: 2,
        ..ServiceConfig::default()
    }));
    let server = WireServer::bind(
        "127.0.0.1:0",
        service,
        template(),
        WireServerConfig {
            max_connections: CONNECTIONS + 8,
            // Idle sweeps must not reap parked connections mid-test.
            idle_timeout: Some(Duration::from_secs(600)),
            ..WireServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    // Open every connection and keep all of them alive at once.
    let mut clients: Vec<WireClient> = Vec::with_capacity(CONNECTIONS);
    for i in 0..CONNECTIONS {
        let mut client =
            WireClient::connect(addr).unwrap_or_else(|e| panic!("connection {i} failed: {e}"));
        client
            .set_io_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        clients.push(client);
    }

    // Every connection is live: a real request/response on each while
    // all 1024 stay open.
    for (i, client) in clients.iter_mut().enumerate() {
        client
            .ping()
            .unwrap_or_else(|e| panic!("ping {i} failed: {e}"));
    }

    // The server's own accounting agrees that all of them are held
    // concurrently by one loop thread.
    let scrape = clients[0].scrape(0).unwrap();
    let connections = scrape
        .metric("wire.connections")
        .expect("wire.connections is scraped");
    match &connections.value {
        MetricValue::Gauge(v) => assert!(
            *v >= CONNECTIONS as i64,
            "wire.connections gauge reads {v}, wanted >= {CONNECTIONS}"
        ),
        other => panic!("wire.connections is {other:?}"),
    }
    assert!(
        scrape.metric("wire.reactor.run_queue_depth").is_some(),
        "the reactor's run-queue depth gauge must be scraped"
    );

    // Parked connections stay usable: second ping over every one.
    for (i, client) in clients.iter_mut().enumerate() {
        client
            .ping()
            .unwrap_or_else(|e| panic!("second ping {i} failed: {e}"));
    }

    // Teardown: closing every client drains the server back toward
    // zero without wedging the loop.
    drop(clients);
}
