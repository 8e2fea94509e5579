//! Multiplexing correctness for the pipelined protocol: many
//! interleaved in-flight requests on one connection, every response
//! matched to its request id — the oracle one determine per frame is
//! held to; fault injection (an unknown op or garbage bytes mid-stream
//! error only their own id); the in-flight cap's flow control; the
//! blocking-operation cap
//! that keeps `flush` from starving reads; and the retirement of the v1
//! and v2 request generations.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use smartpick_service::{CompletedRun, ServiceConfig, SmartpickService};
use smartpick_wire::codec::{decode_response, encode_envelope_into, encode_value_into};
use smartpick_wire::frame::{read_frame_any_into, write_frame_v3_buffered};
use smartpick_wire::{
    ErrorKind, Request, Response, WireClient, WireServer, WireServerConfig, DEFAULT_MAX_FRAME_LEN,
    PROTOCOL_V3, PROTOCOL_VERSION,
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

/// Fault injection: sends a determine, then `fault` as the payload of a
/// well-framed v3 frame, then the same determine, all on one raw
/// connection. The fault must error only its own id — a non-retryable
/// `bad_request` — while both determines answer in v3 frames exactly as
/// a blocking client is answered, and the connection stays usable.
fn assert_fault_errors_only_its_own_id(fault: &[u8]) {
    let server = server_with(WireServerConfig::default());
    let query = tpcds::query(82, 100.0).unwrap();
    let mut setup = WireClient::connect(server.local_addr()).unwrap();
    setup.register_tenant("acme", 7).unwrap();
    let expected = det_json(&setup.determine("acme", &query, 5).unwrap());

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut determine = Vec::new();
    encode_envelope_into(
        &Request::Determine {
            tenant: "acme".into(),
            query,
            seed: 5,
        },
        &mut determine,
    );
    let mut scratch = Vec::new();
    for (id, payload) in [(1, &determine[..]), (2, fault), (3, &determine[..])] {
        write_frame_v3_buffered(&mut raw, id, payload, &mut scratch).unwrap();
    }

    let mut replies = HashMap::new();
    let mut payload = Vec::new();
    for _ in 0..3 {
        let header = read_frame_any_into(&mut raw, DEFAULT_MAX_FRAME_LEN, &mut payload).unwrap();
        assert_eq!(header.version, PROTOCOL_V3, "answers are v3 frames");
        let id = header.id.expect("answers are id-tagged");
        let response = decode_response(&payload).unwrap();
        assert!(replies.insert(id, response).is_none(), "duplicate id {id}");
    }
    for id in [1, 3] {
        match &replies[&id] {
            Response::Determination(d) => assert_eq!(det_json(d), expected, "id {id}"),
            other => panic!("id {id} got {other:?}"),
        }
    }
    match &replies[&2] {
        Response::Error(r) => {
            assert_eq!(r.kind, ErrorKind::BadRequest, "the fault must fail alone");
            assert!(!r.retryable);
        }
        other => panic!("id 2 got {other:?}"),
    }

    // The connection survived it.
    let mut ping = Vec::new();
    encode_envelope_into(&Request::Ping, &mut ping);
    write_frame_v3_buffered(&mut raw, 9, &ping, &mut scratch).unwrap();
    let header = read_frame_any_into(&mut raw, DEFAULT_MAX_FRAME_LEN, &mut payload).unwrap();
    assert_eq!(header.id, Some(9));
    assert!(matches!(decode_response(&payload), Ok(Response::Pong)));
}

/// A mid-stream frame that decodes as a binary value but names an
/// unknown op errors only its own id.
#[test]
fn malformed_mid_stream_frame_errors_only_its_own_id() {
    let mut unknown_op = Vec::new();
    encode_value_into(
        &serde::Value::Obj(vec![(
            "op".to_owned(),
            serde::Value::Str("self_destruct".to_owned()),
        )]),
        &mut unknown_op,
    );
    assert_fault_errors_only_its_own_id(&unknown_op);
}

/// A mid-stream frame with valid v3 framing but payload bytes that are
/// no binary value at all errors only its own id.
#[test]
fn garbage_binary_frame_errors_only_its_own_id() {
    assert_fault_errors_only_its_own_id(&[0x07, 0xff, 0x13, 0x37]);
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

/// Generations v1 and v2 are retired: an un-numbered (v1) or id-tagged
/// JSON (v2) *request* frame is a framing violation — exactly one
/// un-numbered `protocol` error naming the retirement and v3, then EOF —
/// and the listener keeps serving v3.
#[test]
fn v1_request_frame_gets_one_retirement_error_then_eof() {
    let server = server_with(WireServerConfig::default());
    let ping = b"{\"op\":\"ping\"}";
    let len = (ping.len() as u32).to_be_bytes();
    let v1 = [&[PROTOCOL_VERSION][..], &len, ping].concat();
    let v2 = [&[2u8][..], &7u64.to_be_bytes(), &len, ping].concat();
    for (generation, frame) in [("v1", v1), ("v2", v2)] {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        raw.write_all(&frame).unwrap();

        let mut payload = Vec::new();
        let header = read_frame_any_into(&mut raw, 1 << 20, &mut payload).unwrap();
        assert_eq!(
            header.id, None,
            "{generation}: the error frame is un-numbered"
        );
        let response: Response =
            serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
        match response {
            Response::Error(r) => {
                assert_eq!(r.kind, ErrorKind::Protocol, "{generation}");
                assert!(!r.retryable, "{generation}");
                assert!(
                    r.message.contains("retired") && r.message.contains("v3"),
                    "{generation}: {}",
                    r.message
                );
            }
            other => panic!("{generation}: expected a protocol error, got {other:?}"),
        }
        assert_eq!(
            raw.read(&mut [0u8; 1]).unwrap(),
            0,
            "{generation}: then the server closes"
        );
    }

    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
}
