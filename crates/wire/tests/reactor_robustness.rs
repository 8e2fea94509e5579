//! Lifecycle robustness for the event loop, where the failure mode is
//! a hang or a wrongly-dropped connection rather than a wrong answer:
//! shutdown must terminate even with the run queue saturated, the idle
//! sweep must not reap a connection that is quiet only because the
//! server is still working on its requests, and a framing violator that
//! neither reads nor closes must not pin a connection slot forever.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smartpick_service::CompletedRun;
use smartpick_wire::codec::{encode_envelope_into, encode_response_into};
use smartpick_wire::frame::{read_frame_any_into, write_frame_v3_buffered};
use smartpick_wire::{
    Request, Response, WireClient, WireServerConfig, DEFAULT_MAX_FRAME_LEN, PROTOCOL_V3,
};
use smartpick_workloads::tpcds;

mod common;
use common::{server_on, server_with, template_with};

/// The binary encoding of a determine of TPC-DS q82 for `acme`.
fn determine_payload() -> Vec<u8> {
    let mut payload = Vec::new();
    encode_envelope_into(
        &Request::Determine {
            tenant: "acme".to_owned(),
            query: tpcds::query(82, 100.0).unwrap(),
            seed: 5,
        },
        &mut payload,
    );
    payload
}

/// Shutdown must terminate while the run queue is saturated. At
/// shutdown the executors can produce more completions than the loop
/// will ever drain; if the completion channel fills with no receiver
/// draining it, workers wedge in `send` and the executor join — and so
/// `WireServer::shutdown`/`Drop` — hangs forever.
#[test]
fn shutdown_terminates_with_a_saturated_run_queue() {
    // max_in_flight 16 → run queue (and completion channel) capacity 64.
    // The template's 1000-tree forest puts one determine far over the
    // loop's sweep-cost gate, so every one is queued, and makes it take
    // tens of times longer to *execute* (on a worker) than to *decode*
    // (on the loop thread) — in release and debug builds alike — so the
    // single loop thread admits jobs far faster than two workers can
    // drain them and the queue fills structurally, not by a timing
    // accident.
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

    let mut registrar = WireClient::connect(addr).unwrap();
    registrar.register_tenant("acme", 7).unwrap();

    // Five connections pumping heavy determines and never reading
    // responses. The per-connection cap of 16 makes up to 80 jobs
    // admissible against the 64-slot queue; past it the loop answers
    // `busy` and the producers keep the queue topped up as jobs finish,
    // so it stays full until shutdown — when the queued + executing jobs
    // yield more completions than the completion channel holds. The
    // payload is encoded ONCE and replayed as raw v3 frames, so the
    // producers are bounded by socket writes, not by re-serialization.
    // They never stop on their own: loopback buffers can swallow
    // thousands of frames at once, and a producer that finished early
    // would close a socket holding unread responses — a reset that makes
    // the server drop that connection's jobs before the queue is seen
    // full.
    let payload = Arc::new(determine_payload());
    let submitters: Vec<_> = (0..5)
        .map(|_| {
            let payload = Arc::clone(&payload);
            std::thread::spawn(move || {
                let Ok(mut stream) = TcpStream::connect(addr) else {
                    return;
                };
                for id in 0u64.. {
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
/// response the client is legitimately blocked on. The request is a
/// `flush` held for far longer than the idle deadline by a retrain
/// worker parked on the tenant's driver lock.
#[test]
fn in_flight_request_outlasting_idle_timeout_is_still_answered() {
    let server = server_with(WireServerConfig {
        // Far shorter than the flush below is held for.
        idle_timeout: Some(Duration::from_millis(100)),
        poll_interval: Duration::from_millis(20),
        ..WireServerConfig::default()
    });
    let service = Arc::clone(server.service());
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client
        .set_io_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    client.register_tenant("acme", 7).unwrap();
    let query = tpcds::query(82, 100.0).unwrap();
    let outcome = service.submit("acme", &query, 3).unwrap();

    // Hold the tenant's driver lock, so the worker parks on the report
    // below and the flush cannot finish until `release` fires.
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

    // The flush is in flight and the connection byte-quiet through many
    // idle sweeps; then the worker is let go.
    let id = client.submit(&Request::Flush).unwrap();
    std::thread::sleep(Duration::from_millis(500));
    release_tx.send(()).unwrap();
    holder.join().unwrap();

    let (got, response) = client
        .recv()
        .expect("the idle sweep reaped a connection with work in flight");
    assert_eq!(got, id, "response must carry the request's id");
    assert!(matches!(response, Response::Flushed), "{response:?}");
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
    let mut registrar = WireClient::connect(addr).unwrap();
    registrar.register_tenant("acme", 7).unwrap();

    // Raw v3 determines: enough that their answers (more than the kernel
    // buffers on both sides of a connection) overrun the socket buffers
    // of a peer that never reads, leaving the connection's write buffer
    // pending.
    let request = determine_payload();
    let mut answer = Vec::new();
    encode_response_into(
        &Response::Determination(
            server
                .service()
                .determine("acme", &tpcds::query(82, 100.0).unwrap(), 5)
                .unwrap(),
        ),
        &mut answer,
    );
    let kernel = kernel_buffer_max("tcp_wmem") + kernel_buffer_max("tcp_rmem");
    // Clamped well under the 64 MiB bound, past which the server would
    // stop reading before the violation arrives.
    let frames = (kernel + kernel / 4).min(40 << 20) / (13 + answer.len()) + 1;
    let mut stream = TcpStream::connect(addr).unwrap();
    let (mut burst, mut scratch) = (Vec::new(), Vec::new());
    for id in 0..frames as u64 {
        write_frame_v3_buffered(&mut burst, id, &request, &mut scratch).unwrap();
        if burst.len() >= 1 << 20 {
            stream.write_all(&burst).unwrap();
            burst.clear();
        }
    }
    // The violation: an unknown version byte. The server starts its
    // drain-then-close; this client reads nothing and stays connected.
    burst.push(0x7F);
    stream.write_all(&burst).unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        // Only the violator and the registrar are connected; the slot is
        // free once the count falls to the registrar alone.
        let active = server.service().scrape(0).gauge("wire.connections");
        if active <= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "framing violator still holds its connection slot: {active} active"
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
    let request = determine_payload();
    let mut answer = Vec::new();
    encode_response_into(
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
        let header = read_frame_any_into(&mut stream, DEFAULT_MAX_FRAME_LEN, &mut payload)
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
    let mut ping = Vec::new();
    encode_envelope_into(&Request::Ping, &mut ping);
    write_frame_v3_buffered(&mut stream, u64::MAX, &ping, &mut Vec::new()).unwrap();
    let header = read_frame_any_into(&mut stream, DEFAULT_MAX_FRAME_LEN, &mut payload).unwrap();
    assert_eq!(header.id, Some(u64::MAX));
}
