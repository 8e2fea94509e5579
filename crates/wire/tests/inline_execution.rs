//! What the event loop runs itself, and what it must not.
//!
//! A request that cannot block and costs less than a hand-off — `ping`,
//! `health`, `determine` / `predict` on a hot tenant under the sweep-cost
//! gate, `report_run` admission on a hot tenant — is answered on the loop
//! thread; everything else takes the executor pool as before. These tests
//! hold the two halves of that promise over real sockets: the loop's
//! requests keep answering when every executor is stuck (so nothing the
//! loop runs can have waited on one), and whatever is not hot-and-cheap
//! right now takes the queue — told apart by `wire.requests_inline` /
//! `wire.requests_queued` — with the very answers and typed errors the
//! loop's path and an in-process call give.

use std::fs;
use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use smartpick_service::{
    CompletedRun, PersistenceConfig, ServiceConfig, ServiceError, SmartpickService,
};
use smartpick_wire::codec::{decode_response, encode_envelope_into};
use smartpick_wire::frame::{read_frame_any_into, write_frame_v3_buffered};
use smartpick_wire::{
    ErrorKind, Request, Response, WireClient, WireServer, WireServerConfig, DEFAULT_MAX_FRAME_LEN,
};
use smartpick_workloads::tpcds;

mod common;
use common::{det_json, template, template_with};

/// `(wire.requests_inline, wire.requests_queued)` as the server has them
/// now. Read in process: a scrape over the wire would itself be queued.
fn split(service: &SmartpickService) -> (u64, u64) {
    let metrics = service.observability().metrics();
    (
        metrics.counter("wire.requests_inline").get(),
        metrics.counter("wire.requests_queued").get(),
    )
}

/// Sends `request` and returns its one response, whatever it is.
fn ask(client: &mut WireClient, request: &Request) -> Response {
    let id = client.submit(request).unwrap();
    let (got, response) = client.recv().unwrap();
    assert_eq!(got, id);
    response
}

fn determine(tenant: &str, seed: u64) -> Request {
    Request::Determine {
        tenant: tenant.to_owned(),
        query: tpcds::query(82, 100.0).unwrap(),
        seed,
    }
}

/// The loop never blocks, so what it runs cannot wait for an executor:
/// with ONE executor, parked in a `flush` behind a stalled retrain
/// worker, `ping`, `health`, hot determines and report admission still
/// answer — pipelined behind the flush on its own connection and on
/// another one — and none of them is counted as queued.
#[test]
fn cheap_requests_answer_while_the_only_executor_is_parked_in_a_flush() {
    let service = Arc::new(SmartpickService::new(ServiceConfig {
        retrain_workers: 1,
        tenant_pending_cap: 1,
        ..ServiceConfig::default()
    }));
    let server = WireServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        template(),
        WireServerConfig {
            pipeline_workers: 1,
            ..WireServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut client = WireClient::connect(addr).unwrap();
    client
        .set_io_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client.register_tenant("acme", 7).unwrap();
    let query = tpcds::query(82, 100.0).unwrap();
    let outcome = service.submit("acme", &query, 3).unwrap();
    client.flush().unwrap();
    let run = CompletedRun {
        query: query.clone(),
        determination: outcome.determination,
        report: outcome.report,
    };
    // What the stalled tenant must keep answering: its snapshot cannot
    // move while the worker is held below.
    let expected: Vec<String> = (5..7)
        .map(|seed| det_json(&service.determine("acme", &query, seed).unwrap()))
        .collect();

    // Hold the tenant's driver lock: the retrain worker parks on it when
    // it applies the report below, so no flush completes until `release`.
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            service
                .inspect_tenant("acme", |_| {
                    entered_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                })
                .unwrap();
        })
    };
    entered_rx.recv().unwrap();
    client.report_run("acme", run.clone()).unwrap();
    let (_, queued_before) = split(&service);
    let flush_id = client.submit(&Request::Flush).unwrap();
    // The flush has left the run queue: the one executor is inside it.
    let parked = Instant::now();
    let gauge = service
        .observability()
        .metrics()
        .gauge("wire.reactor.run_queue_depth");
    while split(&service).1 == queued_before || gauge.get() != 0 {
        assert!(
            parked.elapsed() < Duration::from_secs(10),
            "the flush never reached the executor"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Same connection, pipelined behind the parked flush. The second
    // report is refused by admission control — on the loop, with the
    // typed error the blocking path gives.
    let quota = service.report_run("acme", run.clone()).unwrap_err();
    assert!(matches!(quota, ServiceError::QuotaExceeded { .. }));
    let behind = [
        Request::Ping,
        Request::Health,
        determine("acme", 5),
        Request::ReportRun {
            tenant: "acme".to_owned(),
            run: Box::new(run),
        },
    ];
    let ids: Vec<u64> = behind.iter().map(|r| client.submit(r).unwrap()).collect();
    for id in ids {
        let (got, response) = client
            .recv()
            .expect("a request the loop should run waited for the parked executor");
        assert_eq!(got, id, "the loop answers in arrival order");
        match response {
            Response::Pong => {}
            Response::Health(report) => assert!(report.live),
            Response::Determination(det) => assert_eq!(det_json(&det), expected[0]),
            Response::Error(refused) => {
                assert_eq!(refused.kind, ErrorKind::of_service_error(&quota));
                assert_eq!(refused.message, quota.to_string());
                assert_eq!(refused.retryable, quota.is_retryable());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    // Another connection.
    let mut other = WireClient::connect(addr).unwrap();
    other.set_io_timeout(Some(Duration::from_secs(30))).unwrap();
    other.ping().unwrap();
    assert!(other.health().unwrap().live);
    let det = other.determine("acme", &query, 6).unwrap();
    assert_eq!(det_json(&det), expected[1]);
    assert_eq!(
        split(&service).1,
        queued_before + 1,
        "only the flush was queued"
    );

    release_tx.send(()).unwrap();
    holder.join().unwrap();
    let (got, response) = client.recv().unwrap();
    assert_eq!(got, flush_id);
    assert!(matches!(response, Response::Flushed), "{response:?}");
}

/// Cold and unknown tenants, and a hot tenant whose sweep is over the
/// gate, take the queue — by the two counters — and what comes back is
/// bit-identical to the loop's answer for the same request and to an
/// in-process twin's; a report sent to a tenant that went cold
/// mid-stream is applied like the ones before it.
#[test]
fn what_the_loop_cannot_run_takes_the_queue_with_the_same_answers() {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"))
        .join(format!("wire-inline-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let service = Arc::new(
        SmartpickService::open(
            &dir,
            ServiceConfig {
                retrain_workers: 1,
                persistence: Some(PersistenceConfig {
                    snapshot_every: u64::MAX,
                    ..PersistenceConfig::at(&dir)
                }),
                ..ServiceConfig::default()
            },
        )
        .unwrap(),
    );
    let twin = SmartpickService::with_defaults();
    // Same recipe, same seed: every `template()` is the same driver.
    let light = template();
    let heavy = template_with(1000);
    assert!(light.predictor().sweep_cost() < 1000 && heavy.predictor().sweep_cost() > 1000);
    let server = WireServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        template(),
        WireServerConfig::default(),
    )
    .unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client
        .set_io_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client.register_tenant("acme", 7).unwrap();
    twin.register_fork("acme", &light, 7).unwrap();
    // The wire registers forks of its one template; the heavy tenant
    // comes in through the service the server fronts.
    service.register_fork("heavy", &heavy, 9).unwrap();
    twin.register_fork("heavy", &heavy, 9).unwrap();
    let query = tpcds::query(82, 100.0).unwrap();
    let want = |tenant: &str, seed| det_json(&twin.determine(tenant, &query, seed).unwrap());
    let answer =
        |client: &mut WireClient, tenant: &str, seed| match ask(client, &determine(tenant, seed)) {
            Response::Determination(det) => det_json(&det),
            other => panic!("{tenant}/{seed}: {other:?}"),
        };

    // Hot and under the gate: the loop's own answer.
    let (inline, queued) = split(&service);
    let on_the_loop = answer(&mut client, "acme", 21);
    assert_eq!(split(&service), (inline + 1, queued));
    assert_eq!(on_the_loop, want("acme", 21));

    // Cold: queued, rehydrated there, same bits; hot again afterwards.
    assert!(service.evict_tenant("acme").unwrap());
    let (inline, queued) = split(&service);
    assert_eq!(answer(&mut client, "acme", 21), on_the_loop);
    assert_eq!(split(&service), (inline, queued + 1));
    assert_eq!(answer(&mut client, "acme", 22), want("acme", 22));
    assert_eq!(split(&service), (inline + 1, queued + 1));

    // Hot but over the gate: queued, same bits as in process.
    let (inline, queued) = split(&service);
    assert_eq!(answer(&mut client, "heavy", 23), want("heavy", 23));
    assert_eq!(split(&service), (inline, queued + 1));

    // Unknown: queued, and the typed error is the blocking path's.
    let unknown = service.determine("nobody", &query, 1).unwrap_err();
    let (inline, queued) = split(&service);
    match ask(&mut client, &determine("nobody", 1)) {
        Response::Error(refused) => {
            assert_eq!(refused.kind, ErrorKind::UnknownTenant);
            assert_eq!(refused.message, unknown.to_string());
            assert!(!refused.retryable);
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(split(&service), (inline, queued + 1));

    // A stream of reports with an eviction in the middle: the one that
    // finds the tenant cold is queued, none is lost.
    let outcome = twin.submit("acme", &query, 3).unwrap();
    let run = CompletedRun {
        query,
        determination: outcome.determination,
        report: outcome.report,
    };
    let (inline, queued) = split(&service);
    client.report_run("acme", run.clone()).unwrap();
    client.flush().unwrap(); // nothing pending, so the eviction goes through
    assert!(service.evict_tenant("acme").unwrap());
    client.report_run("acme", run.clone()).unwrap();
    client.report_run("acme", run).unwrap();
    client.flush().unwrap();
    assert_eq!(
        split(&service),
        (inline + 2, queued + 3),
        "two flushes and the cold report"
    );
    let stats = client.tenant_stats("acme").unwrap();
    assert_eq!((stats.reports_enqueued, stats.reports_applied), (3, 3));
    assert_eq!(stats.pending_reports, 0);

    drop(client);
    drop(server);
    drop(service);
    let _ = fs::remove_dir_all(&dir);
}

/// Responses go out in completion order, and the loop completes a cheap
/// request where it stands: pipelined behind a heavy determine on one
/// connection — both in ONE socket write, one executor in the pool — the
/// cheap one is answered first instead of waiting its turn in the queue.
#[test]
fn a_cheap_determine_pipelined_behind_a_heavy_one_is_answered_first() {
    let service = Arc::new(SmartpickService::with_defaults());
    let server = WireServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        template(),
        WireServerConfig {
            pipeline_workers: 1,
            ..WireServerConfig::default()
        },
    )
    .unwrap();
    service.register_fork("cheap", &template(), 1).unwrap();
    service
        .register_fork("heavy", &template_with(1000), 2)
        .unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let (mut burst, mut scratch, mut payload) = (Vec::new(), Vec::new(), Vec::new());
    for (id, tenant) in [(1, "heavy"), (2, "cheap")] {
        encode_envelope_into(&determine(tenant, 5), &mut payload);
        write_frame_v3_buffered(&mut burst, id, &payload, &mut scratch).unwrap();
    }
    stream.write_all(&burst).unwrap();

    let mut order = Vec::new();
    for _ in 0..2 {
        let header = read_frame_any_into(&mut stream, DEFAULT_MAX_FRAME_LEN, &mut payload).unwrap();
        let response = decode_response(&payload).unwrap();
        assert!(
            matches!(response, Response::Determination(_)),
            "{response:?}"
        );
        order.push(header.id.unwrap());
    }
    assert_eq!(
        order,
        [2, 1],
        "the cheap request waited behind the heavy one"
    );
    assert_eq!(split(&service), (1, 1));
}
