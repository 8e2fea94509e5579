//! Multiplexing correctness for the pipelined protocol: many
//! interleaved in-flight requests on one connection, every response
//! matched to its request id; fault injection (a malformed mid-stream
//! frame errors only its own id); the in-flight cap's flow control; the
//! blocking-operation cap that keeps `flush` from starving reads; and
//! the retirement of un-numbered (v1) request frames.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use smartpick_service::{CompletedRun, ServiceConfig, SmartpickService};
use smartpick_wire::frame::read_frame_any_into;
use smartpick_wire::{
    ErrorKind, Request, Response, WireClient, WireServer, WireServerConfig, PROTOCOL_V2,
    PROTOCOL_VERSION,
};
use smartpick_workloads::tpcds;

mod common;
use common::{det_json, server_with, template};

/// 64 interleaved in-flight determines from 4 threads on ONE connection:
/// every response must match its request id and be identical to the same
/// query issued sequentially.
#[test]
fn sixty_four_interleaved_in_flight_determines_match_sequential() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 16;
    let server = server_with(WireServerConfig::default());
    let query = tpcds::query(82, 100.0).unwrap();

    // Sequential oracle on its own (blocking) connection, against the
    // same frozen registration snapshot.
    let mut oracle = WireClient::connect(server.local_addr()).unwrap();
    oracle.register_tenant("acme", 7).unwrap();
    let expected: HashMap<u64, String> = (0..THREADS * PER_THREAD)
        .map(|seed| {
            (
                seed,
                det_json(&oracle.determine("acme", &query, seed).unwrap()),
            )
        })
        .collect();

    // One pipelined connection, split: 4 submitter threads share the
    // send half behind a lock; the main thread drains the receive half.
    let client = WireClient::connect(server.local_addr()).unwrap();
    let (sender, mut receiver) = client.split().unwrap();
    let sender = Arc::new(Mutex::new(sender));
    let submitted = Arc::new(Mutex::new(HashMap::<u64, u64>::new())); // id -> seed
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let sender = Arc::clone(&sender);
            let submitted = Arc::clone(&submitted);
            let query = query.clone();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let seed = t * PER_THREAD + i;
                    let id = sender
                        .lock()
                        .unwrap()
                        .submit_determine("acme", &query, seed)
                        .unwrap();
                    submitted.lock().unwrap().insert(id, seed);
                }
            })
        })
        .collect();

    let mut answered = HashMap::new();
    for _ in 0..THREADS * PER_THREAD {
        let (id, response) = receiver.recv().unwrap();
        match response {
            Response::Determination(d) => {
                assert!(
                    answered.insert(id, det_json(&d)).is_none(),
                    "duplicate response for id {id}"
                );
            }
            other => panic!("id {id}: unexpected response {other:?}"),
        }
    }
    for handle in handles {
        handle.join().unwrap();
    }

    let submitted = submitted.lock().unwrap();
    assert_eq!(submitted.len(), (THREADS * PER_THREAD) as usize);
    for (id, seed) in submitted.iter() {
        assert_eq!(
            answered.get(id).expect("every id answered"),
            expected.get(seed).expect("oracle has every seed"),
            "id {id} (seed {seed}) must equal its sequential determine"
        );
    }
}

/// Writes one raw v2 frame.
fn write_v2_frame(stream: &mut TcpStream, id: u64, payload: &[u8]) {
    stream.write_all(&[PROTOCOL_V2]).unwrap();
    stream.write_all(&id.to_be_bytes()).unwrap();
    stream
        .write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(payload).unwrap();
}

/// Reads one raw v2 frame, returning (id, payload-as-text).
fn read_v2_frame(stream: &mut TcpStream) -> (u64, String) {
    let mut header = [0u8; 13];
    stream.read_exact(&mut header).unwrap();
    assert_eq!(header[0], PROTOCOL_V2, "response must be a v2 frame");
    let id = u64::from_be_bytes(header[1..9].try_into().unwrap());
    let len = u32::from_be_bytes(header[9..13].try_into().unwrap()) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
    (id, String::from_utf8(payload).unwrap())
}

/// Fault injection: a malformed v2 frame mid-stream (unknown op, and
/// even non-JSON bytes) errors only its own id — the requests around it
/// answer normally and the connection stays usable.
#[test]
fn malformed_mid_stream_frame_errors_only_its_own_id() {
    let server = server_with(WireServerConfig::default());
    WireClient::connect(server.local_addr())
        .unwrap()
        .register_tenant("acme", 7)
        .unwrap();

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let determine = serde_json::to_string(&Request::Determine {
        tenant: "acme".into(),
        query: tpcds::query(82, 100.0).unwrap(),
        seed: 5,
    })
    .unwrap();

    write_v2_frame(&mut raw, 1, determine.as_bytes());
    write_v2_frame(&mut raw, 2, b"{\"op\":\"self_destruct\"}");
    write_v2_frame(&mut raw, 3, b"\x01\x02 not json at all");
    write_v2_frame(&mut raw, 4, determine.as_bytes());

    let mut replies = HashMap::new();
    for _ in 0..4 {
        let (id, text) = read_v2_frame(&mut raw);
        assert!(replies.insert(id, text).is_none(), "duplicate id {id}");
    }
    assert!(
        replies[&1].contains("\"kind\":\"determination\""),
        "id 1: {}",
        replies[&1]
    );
    assert!(
        replies[&2].contains("bad_request"),
        "id 2 must fail alone: {}",
        replies[&2]
    );
    assert!(
        replies[&3].contains("bad_request"),
        "id 3 must fail alone: {}",
        replies[&3]
    );
    assert_eq!(
        replies[&1], replies[&4],
        "same determine around the fault must answer identically"
    );

    // The connection survived all of it.
    write_v2_frame(&mut raw, 9, b"{\"op\":\"ping\"}");
    let (id, text) = read_v2_frame(&mut raw);
    assert_eq!(id, 9);
    assert!(text.contains("pong"), "reply: {text}");
}

/// The in-flight cap is flow control, not rejection: a client that
/// submits four times the cap without reading a single response gets
/// every answer and never a `busy` — the server just stops reading its
/// socket until completions free slots.
#[test]
fn unread_submissions_past_the_cap_are_flow_controlled_not_refused() {
    const CAP: usize = 8;
    const SUBMITS: usize = 4 * CAP;
    let server = server_with(WireServerConfig {
        max_in_flight: CAP,
        pipeline_workers: 2,
        ..WireServerConfig::default()
    });
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client
        .set_io_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    client.register_tenant("acme", 7).unwrap();
    let query = tpcds::query(82, 100.0).unwrap();

    let mut unanswered: HashMap<u64, ()> = (0..SUBMITS as u64)
        .map(|seed| (client.submit_determine("acme", &query, seed).unwrap(), ()))
        .collect();
    for _ in 0..SUBMITS {
        let (id, response) = client.recv().unwrap();
        assert!(
            unanswered.remove(&id).is_some(),
            "unknown or duplicate id {id}"
        );
        assert!(
            matches!(response, Response::Determination(_)),
            "id {id}: flow control must never refuse, got {response:?}"
        );
    }
    let scrape = client.scrape(0).unwrap();
    assert_eq!(scrape.counter("wire.busy_rejections"), 0);
    let hwm = scrape.gauge("wire.in_flight_hwm");
    assert!(
        (1..=CAP as i64).contains(&hwm),
        "in-flight high-water mark {hwm} must stay within the {CAP}-request cap"
    );
}

/// `flush` blocks its executor until the retrain workers drain, and the
/// executor pool is server-wide — so flushes are capped one below the
/// pool size and the excess is told `busy`. With a retrain worker held
/// mid-apply, four flushing connections must leave a fifth connection's
/// ping answered promptly.
#[test]
fn blocked_flushes_leave_an_executor_for_reads() {
    let service = Arc::new(SmartpickService::new(ServiceConfig {
        retrain_workers: 1,
        ..ServiceConfig::default()
    }));
    let server = WireServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        template(),
        WireServerConfig::default(), // 4 executors: 3 flushes admitted
    )
    .unwrap();
    let addr = server.local_addr();
    let mut client = WireClient::connect(addr).unwrap();
    client.register_tenant("acme", 7).unwrap();
    let query = tpcds::query(82, 100.0).unwrap();
    let outcome = service.submit("acme", &query, 3).unwrap();
    client.flush().unwrap();

    // Hold the tenant's driver lock: the retrain worker parks on it when
    // it applies the report below, so no flush can complete until
    // `release` fires.
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
    client
        .report_run(
            "acme",
            CompletedRun {
                query,
                determination: outcome.determination,
                report: outcome.report,
            },
        )
        .unwrap();

    let mut flushers: Vec<(WireClient, u64)> = (0..4)
        .map(|_| {
            let mut flusher = WireClient::connect(addr).unwrap();
            flusher
                .set_io_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            let id = flusher.submit(&Request::Flush).unwrap();
            (flusher, id)
        })
        .collect();
    // The fourth flush being refused proves the other three were
    // admitted first — every flush frame has reached the server.
    let deadline = Instant::now() + Duration::from_secs(10);
    while service
        .observability()
        .scrape(0)
        .counter("wire.busy_rejections")
        < 1
    {
        assert!(
            Instant::now() < deadline,
            "four concurrent flushes were all admitted to a four-executor pool"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut reader = WireClient::connect(addr).unwrap();
    reader
        .set_io_timeout(Some(Duration::from_millis(250)))
        .unwrap();
    reader
        .ping()
        .expect("blocked flushes starved a read on another connection");

    release_tx.send(()).unwrap();
    holder.join().unwrap();
    let mut flushed = 0;
    for (flusher, id) in flushers.iter_mut() {
        let (got, response) = flusher.recv().unwrap();
        assert_eq!(got, *id, "the refusal must carry the flush's own id");
        match response {
            Response::Flushed => flushed += 1,
            Response::Error(r) => {
                assert_eq!(r.kind, ErrorKind::Busy);
                assert!(r.retryable);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(
        flushed, 3,
        "exactly pipeline_workers - 1 flushes run at once"
    );
}

/// Generation v1 is retired: an un-numbered *request* frame is a
/// framing violation — exactly one un-numbered `protocol` error naming
/// the retirement, then EOF — and the listener keeps serving.
#[test]
fn v1_request_frame_gets_one_retirement_error_then_eof() {
    let server = server_with(WireServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let ping = b"{\"op\":\"ping\"}";
    raw.write_all(&[PROTOCOL_VERSION]).unwrap();
    raw.write_all(&(ping.len() as u32).to_be_bytes()).unwrap();
    raw.write_all(ping).unwrap();

    let mut payload = Vec::new();
    let header = read_frame_any_into(&mut raw, 1 << 20, &mut payload).unwrap();
    assert_eq!(header.id, None, "the error frame is un-numbered");
    let response: Response = serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    match response {
        Response::Error(r) => {
            assert_eq!(r.kind, ErrorKind::Protocol);
            assert!(!r.retryable);
            assert!(r.message.contains("retired"), "message: {}", r.message);
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert_eq!(
        raw.read(&mut [0u8; 1]).unwrap(),
        0,
        "then the server closes"
    );

    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
}
