//! The PR's acceptance scenario, over real sockets: a retrain worker is
//! killed mid-stream, the service recovers per its restart policy with
//! zero lost tenant reports, and the whole incident is visible to a wire
//! client through `Scrape` (events + restart counter) and `Health`.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smartpick_service::{CompletedRun, RestartPolicy, ServiceConfig, SmartpickService};
use smartpick_wire::codec::encode_envelope_into;
use smartpick_wire::frame::{read_frame_any_into, write_frame_v3_buffered};
use smartpick_wire::{Request, WireClient, WireServer, WireServerConfig, DEFAULT_MAX_FRAME_LEN};
use smartpick_workloads::tpcds;

mod common;
use common::template;

#[test]
fn worker_crash_recovery_is_visible_over_the_wire() {
    // One worker shard so the poison is guaranteed to hit the tenant's
    // worker; a real restart policy so the service recovers.
    let service = Arc::new(SmartpickService::new(ServiceConfig {
        retrain_workers: 1,
        restart_policy: RestartPolicy::Restart {
            max_retries: 3,
            backoff: Duration::from_millis(10),
        },
        supervisor_poll: Duration::from_millis(5),
        ..ServiceConfig::default()
    }));
    let server = WireServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        template(),
        WireServerConfig::default(),
    )
    .unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client
        .set_io_timeout(Some(Duration::from_secs(60)))
        .unwrap();

    client.register_tenant("acme", 7).unwrap();
    let query = tpcds::query(82, 100.0).unwrap();
    // One real execution provides a report the test can re-feed at will.
    let outcome = service.submit("acme", &query, 3).unwrap();
    let run = CompletedRun {
        query: query.clone(),
        determination: outcome.determination,
        report: outcome.report,
    };

    // Feedback streams in over the wire; the worker is killed in the
    // middle of it.
    for _ in 0..4 {
        client.report_run("acme", run.clone()).unwrap();
    }
    service.poison_worker(0).unwrap();
    for _ in 0..4 {
        client.report_run("acme", run.clone()).unwrap();
    }

    // The service recovers: flush drains through the restart.
    client.flush().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.health().unwrap().workers[0].restarts < 1 {
        assert!(Instant::now() < deadline, "restart never recorded");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Zero lost reports, observed through the wire stats surface.
    let stats = client.tenant_stats("acme").unwrap();
    assert!(
        stats.reports_applied >= stats.reports_enqueued,
        "applied {} of {} accepted reports",
        stats.reports_applied,
        stats.reports_enqueued
    );
    assert_eq!(stats.pending_reports, 0);

    // The incident is visible in one scrape: the restart counter, the
    // panic counter, and the typed events.
    let envelope = client.scrape(256).unwrap();
    assert!(envelope.counter("service.worker.restarts") >= 1);
    assert!(envelope.counter("service.worker.panics") >= 1);
    let kinds: Vec<&str> = envelope.events.iter().map(|e| e.kind.name()).collect();
    assert!(kinds.contains(&"worker_panic"), "events: {kinds:?}");
    assert!(kinds.contains(&"worker_restarted"), "events: {kinds:?}");

    // The wire layer's own telemetry rides in the same envelope: this
    // client has been speaking v3 frames the whole time.
    assert!(envelope.counter("wire.frames_read.v3") >= 10);
    assert!(envelope.counter("wire.frames_written.v3") >= 10);
    assert_eq!(envelope.gauge("wire.connections"), 1);

    // Health over the wire: recovered and ready, restart on the record.
    let health = client.health().unwrap();
    assert!(health.live && health.ready, "reasons: {:?}", health.reasons);
    assert_eq!(health.workers.len(), 1);
    assert!(health.workers[0].restarts >= 1);
    assert_eq!(health.workers[0].state, "alive");
    let last_panic = health.workers[0].last_panic.as_deref();
    assert!(
        last_panic.is_some_and(|p| p.contains("poisoned")),
        "{last_panic:?}"
    );

    // And the restarted worker still applies feedback end to end.
    client.report_run("acme", run).unwrap();
    client.flush().unwrap();
}

/// `wire.in_flight_hwm` records the deepest pipeline of *queued* requests
/// any connection has driven (a ping would run on the loop and never be
/// in flight). Sixteen `scrape`s land in ONE socket write, so the event
/// loop admits all of them before it applies a single completion.
#[test]
fn in_flight_high_water_mark_tracks_pipeline_depth() {
    const DEPTH: u64 = 16;
    let service = Arc::new(SmartpickService::with_defaults());
    let server = WireServer::bind(
        "127.0.0.1:0",
        service,
        template(),
        WireServerConfig::default(),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let (mut burst, mut scratch, mut scrape) = (Vec::new(), Vec::new(), Vec::new());
    encode_envelope_into(&Request::Scrape { events: 0 }, &mut scrape);
    for id in 0..DEPTH {
        write_frame_v3_buffered(&mut burst, id, &scrape, &mut scratch).unwrap();
    }
    stream.write_all(&burst).unwrap();
    let mut payload = Vec::new();
    for _ in 0..DEPTH {
        read_frame_any_into(&mut stream, DEFAULT_MAX_FRAME_LEN, &mut payload).unwrap();
    }

    let scrape = WireClient::connect(server.local_addr())
        .unwrap()
        .scrape(0)
        .unwrap();
    let hwm = scrape.gauge("wire.in_flight_hwm");
    let cap = WireServerConfig::default().max_in_flight as i64;
    assert!(
        (DEPTH as i64..=cap).contains(&hwm),
        "hwm {hwm} after a {DEPTH}-deep burst under a {cap}-request cap"
    );
}
