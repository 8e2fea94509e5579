//! End-to-end wire tests: a real `WireServer` on an ephemeral loopback
//! port, real `TcpStream`s, and adversarial raw-socket clients.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::wp::PredictionRequest;
use smartpick_engine::simulate_query;
use smartpick_service::{CompletedRun, ServiceConfig, SmartpickService};
use smartpick_wire::codec::{
    decode_response, encode_envelope_into, encode_response_into, encode_value_into,
};
use smartpick_wire::frame::{read_frame_any_into, write_frame_v3_buffered};
use smartpick_wire::{
    ErrorKind, Request, Response, WireClient, WireError, WireServer, WireServerConfig, PROTOCOL_V3,
    PROTOCOL_VERSION,
};
use smartpick_workloads::tpcds;

mod common;
use common::template;

fn server() -> WireServer {
    let service = Arc::new(SmartpickService::new(ServiceConfig {
        retrain_workers: 4,
        ..ServiceConfig::default()
    }));
    WireServer::bind(
        "127.0.0.1:0",
        service,
        template(),
        WireServerConfig::default(),
    )
    .expect("bind ephemeral port")
}

/// Every byte a client connected to `listener` writes before it hangs
/// up: `send` connects, submits and drops its client.
fn bytes_sent(listener: &TcpListener, send: impl FnOnce(SocketAddr)) -> Vec<u8> {
    send(listener.local_addr().unwrap());
    let (mut peer, _) = listener.accept().unwrap();
    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut bytes = Vec::new();
    peer.read_to_end(&mut bytes).unwrap();
    bytes
}

#[test]
fn submit_determine_writes_the_frames_submit_writes() {
    let query = tpcds::query(82, 100.0).unwrap();
    let seed = (1 << 53) + 1;
    let request = Request::Determine {
        tenant: "acme".to_owned(),
        query: query.clone(),
        seed,
    };
    // Two frames, ids 0 and 1, around the generic encoder's payload.
    let mut payload = Vec::new();
    encode_envelope_into(&request, &mut payload);
    let (mut expected, mut frame) = (Vec::new(), Vec::new());
    for id in 0..2 {
        write_frame_v3_buffered(&mut expected, id, &payload, &mut frame).unwrap();
    }

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let submitted = bytes_sent(&listener, |addr| {
        let mut client = WireClient::connect(addr).unwrap();
        client.submit(&request).unwrap();
        client.submit(&request).unwrap();
    });
    let borrowed = bytes_sent(&listener, |addr| {
        let mut client = WireClient::connect(addr).unwrap();
        client.submit_determine("acme", &query, seed).unwrap();
        client.submit_determine("acme", &query, seed).unwrap();
    });
    let split = bytes_sent(&listener, |addr| {
        let (mut sender, _receiver) = WireClient::connect(addr).unwrap().split().unwrap();
        sender.submit_determine("acme", &query, seed).unwrap();
        sender.submit_determine("acme", &query, seed).unwrap();
    });
    // The blocking call writes its frame, then waits for an answer the
    // listener never sends: a short read deadline ends each wait.
    let blocking = bytes_sent(&listener, |addr| {
        let mut client = WireClient::connect(addr).unwrap();
        client
            .set_io_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        for _ in 0..2 {
            let waited = client.determine("acme", &query, seed);
            assert!(matches!(waited, Err(WireError::Io(_))), "{waited:?}");
        }
    });
    assert_eq!(submitted, expected, "submit(&Request::Determine)");
    assert_eq!(borrowed, expected, "WireClient::submit_determine");
    assert_eq!(split, expected, "WireSender::submit_determine");
    assert_eq!(blocking, expected, "WireClient::determine");
}

#[test]
fn a_client_frame_cap_below_a_scrape_refuses_it_and_the_default_cap_reads_it() {
    // WIRE.md: deployments with many resident tenants raise the cap on
    // both ends with `set_max_frame_len`. The client's cap is checked on
    // the response header, before the payload is read.
    const CAP: usize = 1024;
    let server = server();
    server
        .service()
        .register_fork("acme", &template(), 7)
        .unwrap();

    let mut capped = WireClient::connect(server.local_addr()).unwrap();
    capped
        .set_io_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    capped.set_max_frame_len(CAP);
    capped.ping().unwrap();
    match capped.scrape(0) {
        Err(WireError::Protocol(msg)) => assert!(msg.contains("frame"), "{msg}"),
        other => panic!("a scrape over the cap must be a protocol error, got {other:?}"),
    }

    let mut fresh = WireClient::connect(server.local_addr()).unwrap();
    fresh.set_io_timeout(Some(Duration::from_secs(60))).unwrap();
    let scrape = fresh.scrape(0).unwrap();
    assert!(scrape.metric("tenant.acme.predictions").is_some());
    let mut bytes = Vec::new();
    encode_response_into(&Response::Scrape(Box::new(scrape)), &mut bytes);
    assert!(bytes.len() > CAP, "the scrape is {} bytes", bytes.len());
}

#[test]
fn full_round_trip_advances_snapshot_generation() {
    let server = server();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client
        .set_io_timeout(Some(Duration::from_secs(60)))
        .unwrap();

    client.ping().unwrap();
    client.register_tenant("acme", 7).unwrap();

    // Predict over the wire against the registration snapshot.
    let query = tpcds::query(82, 100.0).unwrap();
    let det = client
        .predict("acme", PredictionRequest::new(query.clone(), 99))
        .unwrap();
    assert!(det.predicted_seconds.is_finite() && det.predicted_seconds > 0.0);
    assert!(det.known_query);
    let convenience = client.determine("acme", &query, 99).unwrap();
    assert!(convenience.predicted_seconds.is_finite());

    let before = client.tenant_stats("acme").unwrap();
    assert_eq!(before.tenant, "acme");
    assert_eq!(before.snapshot_generation, 0);
    assert_eq!(before.predictions, 2);

    // Execute locally (the test stands in for the data-analytics engine)
    // and feed the completed run back over the wire.
    let env = CloudEnv::new(Provider::Aws);
    let report = simulate_query(&query, &det.allocation, &env, 23).unwrap();
    client
        .report_run(
            "acme",
            CompletedRun {
                query,
                determination: det,
                report,
            },
        )
        .unwrap();
    client.flush().unwrap();

    let after = client.tenant_stats("acme").unwrap();
    assert_eq!(after.reports_applied, 1);
    assert!(
        after.snapshot_generation > before.snapshot_generation,
        "worker must republish the snapshot: {after:?}"
    );

    // The service-wide totals ride the scrape.
    let scrape = client.scrape(0).unwrap();
    assert_eq!(scrape.gauge("service.tenants"), 1);
    assert_eq!(scrape.counter("service.reports_applied"), 1);
    assert_eq!(scrape.gauge("service.queue_depth"), 0);
    let per_shard: Vec<u64> = scrape
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("service.worker.") && m.name.ends_with(".reports_applied"))
        .map(|m| scrape.counter(&m.name))
        .collect();
    assert_eq!(per_shard.len(), 4, "one row per retrain worker");
    assert_eq!(per_shard.iter().sum::<u64>(), 1);
}

#[test]
fn rejections_come_back_typed_and_connection_survives() {
    let server = server();
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    match client.determine("ghost", &tpcds::query(82, 100.0).unwrap(), 1) {
        Err(WireError::Rejected {
            kind, retryable, ..
        }) => {
            assert_eq!(kind, ErrorKind::UnknownTenant);
            assert!(!retryable);
        }
        other => panic!("expected unknown-tenant rejection, got {other:?}"),
    }

    client.register_tenant("acme", 1).unwrap();
    match client.register_tenant("acme", 2) {
        Err(WireError::Rejected { kind, .. }) => assert_eq!(kind, ErrorKind::TenantExists),
        other => panic!("expected tenant-exists rejection, got {other:?}"),
    }

    // The same connection keeps working after rejections.
    client.ping().unwrap();
}

/// Reads one raw un-numbered frame (version, BE length, payload) — the
/// connection-level error frame — off a test socket.
fn read_raw_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut header = [0u8; 5];
    stream.read_exact(&mut header).unwrap();
    assert_eq!(header[0], PROTOCOL_VERSION);
    let len = u32::from_be_bytes(header[1..5].try_into().unwrap()) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
    payload
}

/// Writes one raw id-tagged frame header under `version`, then `payload`.
fn write_raw_frame(stream: &mut TcpStream, version: u8, id: u64, len: u32, payload: &[u8]) {
    stream.write_all(&[version]).unwrap();
    stream.write_all(&id.to_be_bytes()).unwrap();
    stream.write_all(&len.to_be_bytes()).unwrap();
    stream.write_all(payload).unwrap();
}

/// The binary encoding of `{"op": op}`.
fn op_only(op: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_value_into(
        &serde::Value::Obj(vec![("op".to_owned(), serde::Value::Str(op.to_owned()))]),
        &mut bytes,
    );
    bytes
}

#[test]
fn malformed_and_oversized_frames_do_not_kill_the_server() {
    let server = server();
    let addr = server.local_addr();
    let ping = op_only("ping");

    // 1. A frame that decodes as a value but not as a request: error
    //    response under its own id, connection stays usable.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let bogus = op_only("self_destruct");
    write_raw_frame(&mut raw, PROTOCOL_V3, 1, bogus.len() as u32, &bogus);
    write_raw_frame(&mut raw, PROTOCOL_V3, 2, ping.len() as u32, &ping);
    let mut replies = [None, None];
    let mut payload = Vec::new();
    for _ in 0..2 {
        let header = read_frame_any_into(&mut raw, 1 << 20, &mut payload).unwrap();
        assert_eq!(header.version, PROTOCOL_V3);
        replies[header.id.unwrap() as usize - 1] = Some(decode_response(&payload).unwrap());
    }
    assert!(
        matches!(&replies[0], Some(Response::Error(r)) if r.kind == ErrorKind::BadRequest),
        "reply: {:?}",
        replies[0]
    );
    assert!(
        matches!(replies[1], Some(Response::Pong)),
        "reply: {:?}",
        replies[1]
    );

    // 2. Wrong version byte: protocol error response, then close.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write_raw_frame(&mut raw, 0x7f, 1, ping.len() as u32, &ping);
    let reply = String::from_utf8(read_raw_frame(&mut raw)).unwrap();
    assert!(
        reply.contains("protocol") && reply.contains("v3"),
        "reply: {reply}"
    );
    assert_eq!(raw.read(&mut [0u8; 1]).unwrap(), 0, "server closes conn");

    // 3. Oversized length prefix: rejected before any payload is read.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write_raw_frame(&mut raw, PROTOCOL_V3, 1, u32::MAX, b"");
    let reply = String::from_utf8(read_raw_frame(&mut raw)).unwrap();
    assert!(reply.contains("exceeds"), "reply: {reply}");
    assert_eq!(raw.read(&mut [0u8; 1]).unwrap(), 0, "server closes conn");

    // After all that abuse, a well-behaved client still gets served.
    let mut client = WireClient::connect(addr).unwrap();
    client.ping().unwrap();
    client.register_tenant("survivor", 3).unwrap();
    assert!(client
        .determine("survivor", &tpcds::query(82, 100.0).unwrap(), 5)
        .is_ok());
}

#[test]
fn connection_cap_turns_away_with_busy() {
    let service = Arc::new(SmartpickService::with_defaults());
    let server = WireServer::bind(
        "127.0.0.1:0",
        service,
        template(),
        WireServerConfig {
            max_connections: 1,
            ..WireServerConfig::default()
        },
    )
    .unwrap();

    let mut first = WireClient::connect(server.local_addr()).unwrap();
    first.ping().unwrap(); // the connection is registered → cap reached

    // The second connection must be turned away with an unsolicited
    // un-numbered retryable busy frame, readable without writing first —
    // the only JSON left on the wire, pinned here byte for byte — and
    // then a close.
    let mut second = TcpStream::connect(server.local_addr()).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let payload: &[u8] = b"{\"kind\":\"error\",\"error_kind\":\"busy\",\
        \"message\":\"server at its 1-connection cap; retry later\",\"retryable\":true}";
    let expected = [
        &[PROTOCOL_VERSION][..],
        &(payload.len() as u32).to_be_bytes(),
        payload,
    ]
    .concat();
    let mut frame = vec![0u8; expected.len()];
    second.read_exact(&mut frame).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&frame),
        String::from_utf8_lossy(&expected)
    );
    assert_eq!(second.read(&mut [0u8; 1]).unwrap(), 0, "then a close");

    // The admitted connection is unaffected, and capacity frees on drop.
    first.ping().unwrap();
    drop(first);
    // The slot frees asynchronously (the loop notices EOF); retry briefly.
    let mut served = false;
    for _ in 0..100 {
        let mut retry = WireClient::connect(server.local_addr()).unwrap();
        if retry.ping().is_ok() {
            served = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(served, "slot must free after the first client disconnects");
}

/// Typed clients over the cap surface the `busy` frame as the retryable
/// rejection it carries: a blocking call (the no-I/O negotiation shim
/// before it must not hide the frame), and a pipelined `recv` that has
/// submitted nothing.
#[test]
fn reactor_rejects_over_cap_connections_with_busy() {
    let service = Arc::new(SmartpickService::with_defaults());
    let server = WireServer::bind(
        "127.0.0.1:0",
        service,
        template(),
        WireServerConfig {
            max_connections: 1,
            ..WireServerConfig::default()
        },
    )
    .unwrap();
    let mut first = WireClient::connect(server.local_addr()).unwrap();
    first.set_io_timeout(Some(Duration::from_secs(30))).unwrap();
    first.ping().unwrap(); // the slot-holder is fully established

    let assert_busy = |what: &str, outcome: Result<(), WireError>| match outcome {
        Err(WireError::Rejected {
            kind, retryable, ..
        }) => {
            assert_eq!(kind, ErrorKind::Busy, "{what}");
            assert!(retryable, "{what}");
        }
        other => panic!("{what}: expected busy rejection, got {other:?}"),
    };
    let mut second = WireClient::connect(server.local_addr()).unwrap();
    second
        .set_io_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    assert!(second.negotiate_binary().unwrap());
    assert_busy("ping over the cap", second.ping());
    let mut third = WireClient::connect(server.local_addr()).unwrap();
    third.set_io_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_busy("recv over the cap", third.recv().map(|_| ()));

    first.ping().unwrap(); // the admitted connection is unaffected
}

#[test]
fn idle_connections_are_cut_and_free_their_slot() {
    let service = Arc::new(SmartpickService::with_defaults());
    let server = WireServer::bind(
        "127.0.0.1:0",
        service,
        template(),
        WireServerConfig {
            max_connections: 1,
            idle_timeout: Some(Duration::from_millis(200)),
            ..WireServerConfig::default()
        },
    )
    .unwrap();

    // A silent peer takes the only slot...
    let mut silent = TcpStream::connect(server.local_addr()).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // ...and gets cut after the idle deadline (EOF on our side).
    assert_eq!(
        silent.read(&mut [0u8; 1]).unwrap(),
        0,
        "server must close the idle connection"
    );

    // The freed slot serves a real client again.
    let mut served = false;
    for _ in 0..100 {
        let mut client = WireClient::connect(server.local_addr()).unwrap();
        if client.ping().is_ok() {
            served = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(served, "slot must free after the idle cut");
}

#[test]
fn concurrent_wire_clients_share_one_server() {
    const CLIENTS: u64 = 4;
    const OPS: u64 = 6;

    let server = Arc::new(server());
    for t in 0..CLIENTS {
        WireClient::connect(server.local_addr())
            .unwrap()
            .register_tenant(format!("tenant-{t}"), t)
            .unwrap();
    }

    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let addr = server.local_addr();
            std::thread::spawn(move || {
                let mut client = WireClient::connect(addr).unwrap();
                let query = tpcds::query(82, 100.0).unwrap();
                for op in 0..OPS {
                    // Interleave tenants: every client hits every tenant.
                    let tenant = format!("tenant-{}", (t + op) % CLIENTS);
                    let det = client.determine(&tenant, &query, t * 100 + op).unwrap();
                    assert!(det.predicted_seconds.is_finite());
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("no client thread may panic");
    }

    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let scrape = client.scrape(0).unwrap();
    assert_eq!(scrape.gauge("service.tenants"), CLIENTS as i64);
    assert_eq!(scrape.counter("service.predictions"), CLIENTS * OPS);
}
