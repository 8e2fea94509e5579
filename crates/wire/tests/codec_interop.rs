//! Cross-codec interop: both live client generations (v2 JSON, v3
//! binary), blocking and pipelined, mixed concurrently on one server;
//! codec negotiation; per-frame codec mirroring; the connection cap's
//! `busy`; and fault injection — a mid-stream garbage binary frame
//! errors only its own request id on a still-usable connection.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use smartpick_wire::codec::encode_envelope_into;
use smartpick_wire::frame::{read_frame_any_into, write_frame_v3_buffered};
use smartpick_wire::{
    Codec, ErrorKind, Request, Response, WireClient, WireError, WireServerConfig,
    DEFAULT_MAX_FRAME_LEN,
};
use smartpick_workloads::tpcds;

mod common;
use common::{det_json, server_with};

/// A binary-negotiated client gets the *same* answers as a JSON client
/// on the same server — the codec changes bytes, never results —
/// through the single, batched and streamed paths alike.
#[test]
fn every_client_generation_gets_identical_answers_on_both_cores() {
    let query = tpcds::query(82, 100.0).unwrap();
    let server = server_with(WireServerConfig::default());

    // Blocking JSON (v2 frames).
    let mut v2 = WireClient::connect(server.local_addr()).unwrap();
    v2.set_io_timeout(Some(Duration::from_secs(30))).unwrap();
    v2.ping().unwrap();
    v2.register_tenant("acme", 7).unwrap();
    assert_eq!(v2.codec(), Codec::Json);
    let from_v2 = det_json(&v2.determine("acme", &query, 5).unwrap());

    // Negotiated binary (v3).
    let mut v3 = WireClient::connect(server.local_addr()).unwrap();
    v3.set_io_timeout(Some(Duration::from_secs(30))).unwrap();
    assert!(
        v3.negotiate_binary().unwrap(),
        "a v3-speaking server must accept the binary upgrade"
    );
    assert_eq!(v3.codec(), Codec::Binary);
    let from_v3 = det_json(&v3.determine("acme", &query, 5).unwrap());
    assert_eq!(from_v2, from_v3, "codec must not change the answer");

    // Batched and streamed paths agree too (both codecs).
    let requests: Vec<_> = (0..4)
        .map(|seed| smartpick_core::wp::PredictionRequest {
            query: query.clone(),
            knob: 0.5,
            constraint: smartpick_core::wp::ConstraintMode::Hybrid,
            seed,
        })
        .collect();
    let batched = v2.determine_many("acme", requests.clone()).unwrap();
    let streamed_v3 = v3.determine_streamed("acme", requests.clone()).unwrap();
    assert_eq!(batched.len(), streamed_v3.len());
    for (b, s) in batched.iter().zip(streamed_v3.iter()) {
        assert_eq!(det_json(b), det_json(s));
    }
}

/// Mixed codecs on concurrent connections to ONE server: a blocking
/// JSON client, a pipelined JSON client, and a pipelined binary client
/// all run at once; every response matches the sequential oracle.
#[test]
fn mixed_codec_connections_coexist_on_one_server() {
    let query = tpcds::query(68, 100.0).unwrap();
    let server = server_with(WireServerConfig::default());
    let mut oracle = WireClient::connect(server.local_addr()).unwrap();
    oracle.register_tenant("acme", 7).unwrap();
    let expected: HashMap<u64, String> = (0..24)
        .map(|seed| {
            (
                seed,
                det_json(&oracle.determine("acme", &query, seed).unwrap()),
            )
        })
        .collect();
    let addr = server.local_addr();
    let expected = Arc::new(expected);

    let mut handles = Vec::new();
    for lane in 0..3u64 {
        let expected = Arc::clone(&expected);
        let query = query.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = WireClient::connect(addr).unwrap();
            client
                .set_io_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            // Lane 0: blocking JSON calls.
            if lane == 0 {
                for seed in 0..8 {
                    let d = client.determine("acme", &query, seed).unwrap();
                    assert_eq!(det_json(&d), expected[&seed], "lane 0 seed {seed}");
                }
                return;
            }
            // Lane 1: pipelined JSON; lane 2: pipelined negotiated binary.
            if lane == 2 {
                assert!(client.negotiate_binary().unwrap());
            }
            let by_id: HashMap<u64, u64> = (lane * 8..lane * 8 + 8)
                .map(|seed| (client.submit_determine("acme", &query, seed).unwrap(), seed))
                .collect();
            for _ in 0..8 {
                let (id, response) = client.recv().unwrap();
                let seed = by_id[&id];
                match response {
                    Response::Determination(d) => {
                        assert_eq!(det_json(&d), expected[&seed], "lane {lane} seed {seed}")
                    }
                    other => panic!("lane {lane} got {other:?}"),
                }
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
}

/// Fault injection: a mid-stream garbage **binary** frame (valid v3
/// framing, garbage payload) must error only its own request id — the
/// requests submitted before and after it on the same connection still
/// answer correctly.
#[test]
fn garbage_binary_frame_errors_only_its_own_id() {
    let query = tpcds::query(82, 100.0).unwrap();
    let server = server_with(WireServerConfig::default());
    let mut setup = WireClient::connect(server.local_addr()).unwrap();
    setup.register_tenant("acme", 7).unwrap();
    let expected = det_json(&setup.determine("acme", &query, 1).unwrap());

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut scratch = Vec::new();
    let mut payload = Vec::new();

    // id 10: valid binary determine.
    encode_envelope_into(
        &Request::Determine {
            tenant: "acme".to_owned(),
            query: query.clone(),
            seed: 1,
        },
        &mut payload,
    );
    write_frame_v3_buffered(&mut stream, 10, &payload, &mut scratch).unwrap();
    // id 11: valid v3 *framing*, garbage payload bytes.
    write_frame_v3_buffered(&mut stream, 11, &[0x07, 0xff, 0x13, 0x37], &mut scratch).unwrap();
    // id 12: another valid binary determine.
    write_frame_v3_buffered(&mut stream, 12, &payload, &mut scratch).unwrap();

    let mut read_buf = Vec::new();
    let mut seen = HashMap::new();
    for _ in 0..3 {
        let header =
            read_frame_any_into(&mut stream, DEFAULT_MAX_FRAME_LEN, &mut read_buf).unwrap();
        let id = header.id.expect("pipelined response");
        assert_eq!(
            header.codec(),
            Codec::Binary,
            "responses must mirror the request codec"
        );
        let response: Response = smartpick_wire::codec::decode_envelope(&read_buf).unwrap();
        seen.insert(id, response);
    }
    match &seen[&10] {
        Response::Determination(d) => assert_eq!(det_json(d), expected),
        other => panic!("id 10 got {other:?}"),
    }
    match &seen[&11] {
        Response::Error(r) => {
            assert_eq!(
                r.kind,
                ErrorKind::BadRequest,
                "garbage payload is per-request"
            );
            assert!(!r.retryable);
        }
        other => panic!("id 11 got {other:?}"),
    }
    match &seen[&12] {
        Response::Determination(d) => assert_eq!(det_json(d), expected),
        other => panic!("id 12 got {other:?}"),
    }

    // The connection survived: one more round trip works.
    encode_envelope_into(&Request::Ping, &mut payload);
    write_frame_v3_buffered(&mut stream, 13, &payload, &mut scratch).unwrap();
    let header = read_frame_any_into(&mut stream, DEFAULT_MAX_FRAME_LEN, &mut read_buf).unwrap();
    assert_eq!(header.id, Some(13));
    let response: Response = smartpick_wire::codec::decode_envelope(&read_buf).unwrap();
    assert!(matches!(response, Response::Pong), "got {response:?}");
}

/// One connection over the cap gets an un-numbered retryable `busy`
/// frame, which the client surfaces as the typed rejection it carries —
/// from a blocking call and from the binary-negotiation probe alike
/// (the probe must not mistake a full server for a pre-v3 one and
/// silently downgrade).
#[test]
fn reactor_rejects_over_cap_connections_with_busy() {
    let server = server_with(WireServerConfig {
        max_connections: 1,
        ..WireServerConfig::default()
    });
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
    assert_busy("ping over the cap", second.ping());
    let mut third = WireClient::connect(server.local_addr()).unwrap();
    third.set_io_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_busy(
        "negotiate_binary over the cap",
        third.negotiate_binary().map(|_| ()),
    );
    assert_eq!(third.codec(), Codec::Json);

    first.ping().unwrap(); // the admitted connection is unaffected
}

/// A binary client streaming a batch sees `batch_item` frames in index
/// order followed by `batch_end`, and the result equals the one-frame
/// batch.
#[test]
fn streamed_batches_arrive_in_order_on_both_cores() {
    let query = tpcds::query(68, 100.0).unwrap();
    let server = server_with(WireServerConfig::default());
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client
        .set_io_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client.register_tenant("acme", 7).unwrap();
    assert!(client.negotiate_binary().unwrap());
    let requests: Vec<_> = (0..6)
        .map(|seed| smartpick_core::wp::PredictionRequest {
            query: query.clone(),
            knob: 0.4,
            constraint: smartpick_core::wp::ConstraintMode::Hybrid,
            seed,
        })
        .collect();
    let batched = client.determine_many("acme", requests.clone()).unwrap();
    let streamed = client.determine_streamed("acme", requests).unwrap();
    assert_eq!(batched.len(), streamed.len());
    for (b, s) in batched.iter().zip(streamed.iter()) {
        assert_eq!(det_json(b), det_json(s), "streamed must equal batched");
    }
}
