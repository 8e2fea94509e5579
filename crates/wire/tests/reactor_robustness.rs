//! Lifecycle robustness for the event loop, where the failure mode is
//! a hang or a wrongly-dropped connection rather than a wrong answer:
//! shutdown must terminate even with the run queue saturated, the idle
//! sweep must not reap a connection that is quiet only because the
//! server is still working on its requests, and a framing violator that
//! neither reads nor closes must not pin a connection slot forever.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smartpick_core::wp::{ConstraintMode, PredictionRequest};
use smartpick_wire::{Request, Response, WireClient, WireServerConfig, PROTOCOL_V2, PROTOCOL_V3};
use smartpick_workloads::tpcds;

mod common;
use common::{server_on, server_with, template_with};

fn batch(query: &smartpick_engine::QueryProfile, n: u64) -> Vec<PredictionRequest> {
    (0..n)
        .map(|seed| PredictionRequest {
            query: query.clone(),
            knob: 0.5,
            constraint: ConstraintMode::Hybrid,
            seed,
        })
        .collect()
}

/// Shutdown must terminate while the run queue is saturated. At
/// shutdown the executors can produce more completions than the loop
/// will ever drain; if the completion channel fills with no receiver
/// draining it, workers wedge in `send` and the executor join — and so
/// `WireServer::shutdown`/`Drop` — hangs forever.
#[test]
fn shutdown_terminates_with_a_saturated_run_queue() {
    // max_in_flight 16 → run queue (and completion channel) capacity 64.
    // The template's 1000-tree forest makes a 400-determine batch take
    // ~10× longer to *execute* (one forest pass per job on a worker)
    // than to *decode* (on the loop thread) — in release and debug
    // builds alike — so the single loop thread admits jobs several
    // times faster than two workers can drain them and the queue fills
    // structurally, not by a timing accident.
    let mut server = server_on(
        WireServerConfig {
            max_in_flight: 16,
            pipeline_workers: 2,
            max_frame_len: 8 << 20,
            ..WireServerConfig::default()
        },
        template_with(1000),
    );
    let addr = server.local_addr();
    let query = tpcds::query(82, 100.0).unwrap();

    let mut registrar = WireClient::connect(addr).unwrap();
    registrar.register_tenant("acme", 7).unwrap();

    // Five connections pumping batch jobs and never reading responses.
    // The per-connection cap of 16 makes up to 80 jobs admissible
    // against the 64-slot queue, and each job is slow enough that the
    // executors cannot meaningfully drain the queue between the
    // shutdown flag being raised and the loop breaking — so at break
    // the queued + executing jobs yield more completions than the
    // completion channel holds. The payload is encoded ONCE and
    // replayed as raw v3 frames, so the producers are bounded by
    // socket writes, not by re-serialization.
    let payload = {
        let mut buf = Vec::new();
        smartpick_wire::codec::encode_envelope_into(
            &Request::DetermineBatch {
                tenant: "acme".to_owned(),
                requests: batch(&query, 400),
            },
            &mut buf,
        );
        Arc::new(buf)
    };
    let submitters: Vec<_> = (0..5)
        .map(|_| {
            let payload = Arc::clone(&payload);
            std::thread::spawn(move || {
                let Ok(mut stream) = TcpStream::connect(addr) else {
                    return;
                };
                for id in 0..40u64 {
                    // Errors mean the server tore the socket down
                    // (shutdown landed) — exactly when to stop.
                    let frame = stream
                        .write_all(&[PROTOCOL_V3])
                        .and_then(|()| stream.write_all(&id.to_be_bytes()))
                        .and_then(|()| stream.write_all(&(payload.len() as u32).to_be_bytes()))
                        .and_then(|()| stream.write_all(&payload));
                    if frame.is_err() {
                        return;
                    }
                }
            })
        })
        .collect();

    // Wait until the server's own gauge proves the queue is full.
    let obs = Arc::clone(server.service().observability());
    let saturated = Instant::now();
    while obs.scrape(0).gauge("wire.reactor.run_queue_depth") < 64 {
        assert!(
            saturated.elapsed() < Duration::from_secs(30),
            "run queue never saturated; the test premise is broken"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // Shut down on a watchdog: the regression mode is a deadlocked
    // join, which would otherwise hang the whole test run.
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        drop(server);
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("shutdown deadlocked: executors wedged on the completion channel");

    for submitter in submitters {
        submitter.join().unwrap();
    }
}

/// A connection that is quiet because the *server* is still executing
/// its request must survive the idle sweep: reaping it would discard a
/// response the client is legitimately blocked on.
#[test]
fn in_flight_request_outlasting_idle_timeout_is_still_answered() {
    let server = server_with(WireServerConfig {
        // Far shorter than the batch below takes to execute.
        idle_timeout: Some(Duration::from_millis(100)),
        poll_interval: Duration::from_millis(20),
        max_frame_len: 32 << 20,
        ..WireServerConfig::default()
    });
    let addr = server.local_addr();
    let mut registrar = WireClient::connect(addr).unwrap();
    registrar.register_tenant("acme", 7).unwrap();

    // Pre-encode a 10k-determine batch (so client-side serialization
    // adds no quiet time on the wire), send it as one raw v2 frame, and
    // wait: execution takes hundreds of milliseconds of server-side
    // work during which this connection is byte-quiet and many idle
    // sweeps fire.
    let query = tpcds::query(82, 100.0).unwrap();
    let payload = serde_json::to_string(&Request::DetermineBatch {
        tenant: "acme".to_owned(),
        requests: batch(&query, 10_000),
    })
    .unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream.write_all(&[PROTOCOL_V2]).unwrap();
    stream.write_all(&7u64.to_be_bytes()).unwrap();
    stream
        .write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(payload.as_bytes()).unwrap();

    let mut header = [0u8; 13];
    stream
        .read_exact(&mut header)
        .expect("the idle sweep reaped a connection with work in flight");
    assert_eq!(
        header[0], PROTOCOL_V2,
        "response must mirror the request's generation"
    );
    assert_eq!(
        header[1..9],
        7u64.to_be_bytes(),
        "response must carry the request's id"
    );
    let len = u32::from_be_bytes(header[9..13].try_into().unwrap()) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).unwrap();
    let response: Response = serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
    match response {
        Response::Determinations(ds) => assert_eq!(ds.len(), 10_000),
        other => panic!("expected determinations, got {other:?}"),
    }
}

/// A peer that commits a framing violation and then neither reads its
/// error frame nor closes must be force-closed at the drain deadline —
/// undrained writes must not pin a `max_connections` slot forever.
#[test]
fn framing_violator_that_never_reads_is_reaped_at_the_drain_deadline() {
    let server = server_with(WireServerConfig {
        poll_interval: Duration::from_millis(20),
        // Also the bound on unread responses past which the server stops
        // reading: kept above everything queued below, so the violation
        // is always read.
        max_frame_len: 64 << 20,
        ..WireServerConfig::default()
    });
    let addr = server.local_addr();
    let query = tpcds::query(82, 100.0).unwrap();

    let mut registrar = WireClient::connect(addr).unwrap();
    registrar.register_tenant("acme", 7).unwrap();

    // Raw v2 frames: queue enough batch work that the responses (four
    // times ~7 MB of JSON) overrun the socket buffers of a peer that
    // never reads, leaving the connection's write buffer pending.
    let mut stream = TcpStream::connect(addr).unwrap();
    for id in 0..4u64 {
        let request = Request::DetermineBatch {
            tenant: "acme".to_owned(),
            requests: batch(&query, 3000),
        };
        let payload = serde_json::to_string(&request).unwrap();
        stream.write_all(&[PROTOCOL_V2]).unwrap();
        stream.write_all(&id.to_be_bytes()).unwrap();
        stream
            .write_all(&(payload.len() as u32).to_be_bytes())
            .unwrap();
        stream.write_all(payload.as_bytes()).unwrap();
    }
    // The violation: an unknown version byte. The server starts its
    // drain-then-close; this client reads nothing and stays connected.
    stream.write_all(&[0x7F]).unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        // Only the violator and the registrar are connected; the slot is
        // free once the count falls to the registrar alone.
        if server.active_connections() <= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "framing violator still holds its connection slot: {} active",
            server.active_connections()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(stream);
}

/// The largest value in a `/proc/sys/net/ipv4/tcp_{w,r}mem` triple: how
/// many bytes the kernel will buffer on one side of a connection.
fn kernel_buffer_max(name: &str) -> usize {
    std::fs::read_to_string(format!("/proc/sys/net/ipv4/{name}"))
        .ok()
        .and_then(|triple| triple.split_whitespace().last()?.parse().ok())
        .unwrap_or(16 << 20)
}

/// Outbound back-pressure: a peer that pipelines requests and never reads
/// is pushed back — the server stops reading it once more than one
/// `max_frame_len` of its answers is waiting, TCP does the rest — instead
/// of being buffered for without bound; and when it does read, every
/// answer is there in full. (Without the bound a completion frees its
/// slot whether or not its bytes left: all 100 000 frames below are
/// accepted and ~260 MB of answers pile up in the connection's buffer.)
#[test]
fn a_peer_that_writes_and_never_reads_is_pushed_back_then_answered_in_full() {
    const OFFERED: u64 = 100_000;
    const MAX_FRAME_LEN: usize = 256 * 1024;
    let server = server_with(WireServerConfig {
        max_frame_len: MAX_FRAME_LEN,
        ..WireServerConfig::default()
    });
    let addr = server.local_addr();
    let mut registrar = WireClient::connect(addr).unwrap();
    registrar.register_tenant("acme", 7).unwrap();
    let query = tpcds::query(82, 100.0).unwrap();

    // One binary determine, replayed under a fresh id each time; every
    // answer is therefore the same bytes, known in advance.
    let mut request = Vec::new();
    smartpick_wire::codec::encode_envelope_into(
        &Request::Determine {
            tenant: "acme".to_owned(),
            query: query.clone(),
            seed: 5,
        },
        &mut request,
    );
    let mut answer = Vec::new();
    smartpick_wire::codec::encode_response_into(
        &Response::Determination(server.service().determine("acme", &query, 5).unwrap()),
        &mut answer,
    );

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer
        .set_write_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    // The writer offers frames until one write makes no progress for 2 s
    // — pushed back — says which frame that was, and finishes that frame
    // (it can only once the reader below starts draining).
    let (stalled_tx, stalled_rx) = mpsc::channel();
    let writing = std::thread::spawn(move || {
        let mut frame = Vec::new();
        for id in 0..OFFERED {
            frame.clear();
            frame.push(PROTOCOL_V3);
            frame.extend_from_slice(&id.to_be_bytes());
            frame.extend_from_slice(&(request.len() as u32).to_be_bytes());
            frame.extend_from_slice(&request);
            let mut sent = 0;
            let mut stalled = false;
            while sent < frame.len() {
                match writer.write(&frame[sent..]) {
                    Ok(n) => sent += n,
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        stalled = true;
                        stalled_tx.send(id).unwrap();
                        writer.set_write_timeout(None).unwrap();
                    }
                    Err(e) => panic!("frame {id}: {e}"),
                }
            }
            if stalled {
                return;
            }
        }
    });
    let last = stalled_rx
        .recv_timeout(Duration::from_secs(300))
        .expect("never pushed back: the server took every frame of a peer that reads nothing");

    // Pushed back, with nothing read yet: every answer produced so far is
    // in the connection's write buffer or in the kernel's socket buffers,
    // and the first holds at most the bound plus one answer.
    let produced = server
        .service()
        .observability()
        .metrics()
        .counter("wire.frames_written.v3")
        .get() as usize;
    let kernel = kernel_buffer_max("tcp_wmem") + kernel_buffer_max("tcp_rmem");
    let answer_frame = 13 + answer.len();
    assert!(
        produced * answer_frame <= MAX_FRAME_LEN + answer_frame + kernel,
        "{produced} answers of {answer_frame} B produced for a peer that read none \
         (bound {MAX_FRAME_LEN} B + what the kernel holds, at most {kernel} B)"
    );

    // Now read: frames 0..=last were sent in full, and each is answered.
    let mut answered = vec![false; last as usize + 1];
    let mut payload = Vec::new();
    for _ in 0..=last {
        let header = smartpick_wire::frame::read_frame_any_into(
            &mut stream,
            smartpick_wire::DEFAULT_MAX_FRAME_LEN,
            &mut payload,
        )
        .expect("an answer was lost");
        let id = header.id.expect("answers are id-tagged") as usize;
        assert!(!std::mem::replace(&mut answered[id], true), "id {id} twice");
        assert!(
            payload == answer,
            "id {id}: not the determination asked for"
        );
    }
    writing.join().unwrap();

    // And the connection is as usable as ever.
    let ping = b"{\"op\":\"ping\"}";
    stream.write_all(&[PROTOCOL_V2]).unwrap();
    stream.write_all(&u64::MAX.to_be_bytes()).unwrap();
    stream
        .write_all(&(ping.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(ping).unwrap();
    let header = smartpick_wire::frame::read_frame_any_into(
        &mut stream,
        smartpick_wire::DEFAULT_MAX_FRAME_LEN,
        &mut payload,
    )
    .unwrap();
    assert_eq!(header.id, Some(u64::MAX));
}
