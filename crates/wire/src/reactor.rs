//! The connection-handling core: one event-loop thread multiplexing
//! every connection over nonblocking sockets.
//!
//! An epoll-style event loop (via the vendored `polling` shim) owns
//! *all* sockets in nonblocking mode, so a mostly-idle connection costs
//! a few kilobytes of buffers instead of a thread — thousands of
//! concurrent connections on one core.
//!
//! ## Structure
//!
//! ```text
//!            readiness events                jobs (bounded)
//!  sockets ────────▶ event loop ─────────────▶ executor pool
//!     ▲               │  ▲  ▲                      │
//!     │ framed writes │  │  │ waker (socketpair)   │
//!     └───────────────┘  │  └──────────────────────┘
//!        cheap requests ─┘     completions (bounded)
//!        run right here
//! ```
//!
//! - The **event loop** accepts, reads, parses frames out of
//!   per-connection accumulation buffers, and writes framed responses —
//!   all nonblocking.
//! - A request that cannot block and costs less than a hand-off is **run
//!   to completion on the loop** (`run_inline`): `ping`, `health`,
//!   `determine` / `predict` on a tenant that is hot right now and whose
//!   sweep is under `INLINE_SWEEP_COST_MAX`, and `report_run`
//!   admission on a hot tenant. Its response joins the connection's
//!   write buffer, flushed once per parse pass: no run queue, no executor
//!   wake-up, no completion queue, no wake-pipe byte.
//! - Every other decoded request — a cold, rehydrating or unknown
//!   tenant, a sweep over the gate, a report that lost the eviction
//!   race, `flush`, `scrape`, `tenant_stats`, registration —
//!   goes to a server-wide **executor pool** over one bounded run queue
//!   (a `smartpick_service::BoundedQueue` every executor pops from; its
//!   depth is the `wire.reactor.run_queue_depth` gauge); a full queue
//!   answers `busy` rather than blocking the loop.
//! - Executors hand completed responses back over a bounded completion
//!   queue and nudge the loop awake through one half of a
//!   `UnixStream::pair` registered with the poller, so a completion
//!   arriving while every socket is quiet still gets written promptly.
//!
//! The loop never blocks: it calls only the service's non-blocking entry
//! points (`*_if_hot`, `health`), which claim nothing, wait for nothing
//! and load nothing — the `loop-thread-nonblocking` lint rule holds this
//! file to that list.
//!
//! ## Semantics
//!
//! Only v3 frames execute, each answered by exactly one v3 frame under
//! its id; responses are written in completion order, so a cheap request
//! pipelined behind an expensive one is answered first. Payload garbage
//! fails only its own request id. A framing violation — any version
//! byte but 3 (the retired v1 and v2 bytes included), an oversized
//! length prefix — gets one best-effort un-numbered `protocol` error
//! frame and a close after a short drain. Connections over
//! [`crate::WireServerConfig::max_connections`] get an un-numbered
//! retryable `busy` frame and a close; connections idle past the
//! deadline are dropped.
//!
//! Back-pressure is **flow control**, not rejection, in both
//! directions: with [`crate::WireServerConfig::max_in_flight`] requests
//! in the executor pool, or more than one
//! [`crate::WireServerConfig::max_frame_len`] of responses the peer has
//! not read, the loop stops *parsing* the connection (and deregisters
//! read interest) until a completion frees a slot or a writable event
//! drains the buffer, so a well-behaved client never sees a cap-induced
//! busy, it just observes TCP push-back — and one that writes without
//! reading is stopped instead of buffered for. `busy` (retryable,
//! carrying the request's id) is reserved for a full run queue and for
//! blocking operations over the server-wide blocking-op cap.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use polling::{Event, Events, Interest, Poller};
use smartpick_obs::{event, EventKind};
use smartpick_service::BoundedQueue;

use crate::error::ErrorKind;
use crate::frame::{self, FrameHeader, PROTOCOL_V3};
use crate::proto::{Rejection, Request, Response};
use crate::server::{
    decode_request, execute, send_response, send_response_v3, service_error, EncodeScratch, Shared,
};

/// Token of the listener socket in the poller.
const TOKEN_LISTENER: usize = 0;
/// Token of the executor-completion waker.
const TOKEN_WAKER: usize = 1;
/// First token handed to an accepted connection; tokens are a monotonic
/// counter and never reused, so a stale completion can never be
/// delivered to the wrong connection.
const TOKEN_FIRST_CONN: usize = 2;

/// One decoded request on its way to the executor pool.
struct Job {
    token: usize,
    id: u64,
    request: Request,
}

/// One executed request on its way back to the event loop.
struct Completion {
    token: usize,
    id: u64,
    response: Response,
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    opened: Instant,
    /// Last time a byte moved in *either* direction. Outbound progress
    /// counts: a slow reader that is still consuming a large response
    /// is alive, not idle.
    last_byte_at: Instant,
    /// Unparsed inbound bytes (a frame can arrive in many readable
    /// events); `parse_pos` tracks how far frame parsing has consumed.
    read_buf: Vec<u8>,
    parse_pos: usize,
    /// Outbound framed bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Response-encode scratch reused across this connection's frames,
    /// so steady-state writes allocate nothing.
    scratch: EncodeScratch,
    /// Jobs admitted to the executor pool and not yet completed.
    in_flight: usize,
    /// Read interest withdrawn: `in_flight` hit the cap, or the peer has
    /// more than a frame's worth of responses left to read.
    paused: bool,
    /// Fatal framing violation seen: flush, drain briefly, close.
    closing: Option<Instant>,
    /// Peer sent EOF; no more reads, but pending work still answers.
    peer_eof: bool,
    /// The interest currently registered with the poller.
    registered: Interest,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            opened: now,
            last_byte_at: now,
            read_buf: Vec::new(),
            parse_pos: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            scratch: EncodeScratch::default(),
            in_flight: 0,
            paused: false,
            closing: None,
            peer_eof: false,
            registered: Interest::READABLE,
        }
    }

    /// Outbound bytes the socket has not accepted yet.
    fn pending_write(&self) -> usize {
        self.write_buf.len().saturating_sub(self.write_pos)
    }

    fn has_pending_write(&self) -> bool {
        self.pending_write() > 0
    }

    /// The interest this connection's state wants right now. A closing
    /// connection keeps reading (and discarding): bytes left unread at
    /// the close would turn the peer's EOF into a reset.
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: (self.closing.is_some() || !self.paused) && !self.peer_eof,
            writable: self.has_pending_write(),
        }
    }
}

/// What parsing one frame decided, computed from an immutable view of
/// the buffer so the borrow ends before connection state changes.
enum Parsed {
    /// Not enough bytes for the next frame yet.
    Incomplete,
    /// A decoded request to run, plus the bytes it consumed.
    Job {
        consumed: usize,
        id: u64,
        request: Request,
    },
    /// The payload did not decode: a `bad_request` for this id only.
    BadRequest {
        consumed: usize,
        id: u64,
        message: String,
    },
    /// Framing itself is untrustworthy: un-numbered `protocol` error
    /// carrying `message`, then close.
    Fatal { message: String },
}

/// Parses the next frame out of `buf`, if complete. Pure: no state
/// mutation, so the caller can act on the outcome after the borrow
/// ends.
fn parse_one(buf: &[u8], max_frame_len: usize) -> Parsed {
    // Only v3 executes: any other byte is condemned on its own, before
    // the rest of its header is waited for.
    if let Some(&got) = buf.first().filter(|&&version| version != PROTOCOL_V3) {
        return Parsed::Fatal {
            message: format!(
                "protocol version {got} does not execute: send id-tagged v{PROTOCOL_V3} (binary) \
                 frames; v1 and v2 are retired"
            ),
        };
    }
    let (id, body) = match frame::parse_header(buf, max_frame_len) {
        Ok(Some((FrameHeader { id: Some(id), .. }, body))) => (id, body),
        Ok(_) => return Parsed::Incomplete,
        Err(e) => {
            return Parsed::Fatal {
                message: e.to_string(),
            }
        }
    };
    let consumed = body.end;
    let Some(payload) = buf.get(body) else {
        return Parsed::Incomplete;
    };
    match decode_request(payload) {
        Ok(request) => Parsed::Job {
            consumed,
            id,
            request,
        },
        Err(message) => Parsed::BadRequest {
            consumed,
            id,
            message,
        },
    }
}

/// A wire-layer error response; of the kinds the loop itself produces
/// only `busy` is worth a retry.
fn error_response(kind: ErrorKind, message: String) -> Response {
    Response::Error(Rejection {
        kind,
        message,
        retryable: kind == ErrorKind::Busy,
    })
}

/// `flush` parks its executor until the retrain workers drain, with no
/// deadline — the one request that can hold a pool thread indefinitely.
fn is_blocking(request: &Request) -> bool {
    matches!(request, Request::Flush)
}

/// The one gate on running a `determine` / `predict` on the loop thread:
/// the most a snapshot may sweep
/// ([`smartpick_core::wp::WorkloadPredictor::sweep_cost`]: flat-tree nodes
/// + grid cells) for its requests to skip the executor hand-off.
///
/// Set where the walk costs about what the hand-off does. In process a
/// determine is linear in its sweep — `BENCH_determine.json`: 285
/// (8×8 grid, 10 trees) 5.7 µs, 1 141 (8×8/50) 15.5 µs, 2 211 (8×8/100)
/// 28.7 µs, so about 2 µs + 12 µs per 1 000 — and the two wake-ups a
/// queued request pays (run queue → executor, completion → loop) read
/// 7 µs at depth 1 with every thread on one core (`wire.transport_us`
/// 16.1 → 9.3 µs when the hop was removed) and several times that when a
/// wake-up crosses cores. Under the gate a request holds the loop for at
/// most ~14 µs, the order of the hop it saves; over it the walk dwarfs
/// the hop, queueing costs it nothing, and a heavy request can neither
/// head-of-line-block its connection's cheap ones nor stall other
/// connections' I/O.
///
/// A constant, not a knob: the benchmark has a workload on each side
/// (`determine_hot` sweeps 285 and runs here; `determine_heavy` sweeps
/// 2 397 and `feedback_mixed`'s retrained tenants 7 500–22 000, and both
/// keep the executor path — when the change was sized without a gate,
/// those retrained determines ran here at a p50 of 64 µs and cost
/// `feedback_mixed` 3–11 % of its `report_applied_per_s`), and nothing
/// between 300 and 2 000 changes which side any of them falls on.
const INLINE_SWEEP_COST_MAX: usize = 1000;

/// What [`run_inline`] did with a request.
enum Inline {
    /// Ran it; here is its response.
    Answered(Response),
    /// Not from here: the request, untouched, for [`admit`].
    Declined(Request),
}

/// Runs `request` to completion on the loop thread if it cannot block
/// and costs less than the hand-off it would otherwise pay; otherwise
/// hands it back for the executors. Only the service's non-blocking
/// entry points may be named here: a hot-only call answers `None` (or
/// returns the report) rather than rehydrate, wait or load.
fn run_inline(request: Request, shared: &Shared) -> Inline {
    let determined = |result: Result<_, _>| {
        Inline::Answered(
            result
                .map(Response::Determination)
                .unwrap_or_else(|e| service_error(&e)),
        )
    };
    match request {
        Request::Ping => Inline::Answered(Response::Pong),
        Request::Health => Inline::Answered(Response::Health(shared.service.health())),
        Request::Determine {
            tenant,
            query,
            seed,
        } => match shared
            .service
            .determine_if_hot(&tenant, &query, seed, INLINE_SWEEP_COST_MAX)
        {
            Some(result) => determined(result),
            None => Inline::Declined(Request::Determine {
                tenant,
                query,
                seed,
            }),
        },
        Request::Predict { tenant, request } => {
            match shared
                .service
                .predict_if_hot(&tenant, &request, INLINE_SWEEP_COST_MAX)
            {
                Some(result) => determined(result),
                None => Inline::Declined(Request::Predict { tenant, request }),
            }
        }
        Request::ReportRun { tenant, run } => {
            match shared.service.report_run_if_hot(&tenant, run) {
                Ok(result) => Inline::Answered(
                    result
                        .map(|()| Response::ReportAccepted)
                        .unwrap_or_else(|e| service_error(&e)),
                ),
                Err(run) => Inline::Declined(Request::ReportRun { tenant, run }),
            }
        }
        other => Inline::Declined(other),
    }
}

/// The server-wide executor pool: workers pull jobs off one bounded
/// queue and push completions plus a waker nudge back to the loop.
struct Executors {
    jobs: Arc<BoundedQueue<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl Executors {
    fn start(
        shared: &Arc<Shared>,
        comp_tx: &SyncSender<Completion>,
        waker_tx: &UnixStream,
        queue_cap: usize,
    ) -> Executors {
        let jobs = Arc::new(BoundedQueue::<Job>::new(queue_cap));
        let mut workers = Vec::with_capacity(shared.config.pipeline_workers);
        for i in 0..shared.config.pipeline_workers {
            let shared = Arc::clone(shared);
            let comp_tx = comp_tx.clone();
            let jobs = Arc::clone(&jobs);
            let Ok(waker) = waker_tx.try_clone() else {
                continue;
            };
            let worker = std::thread::Builder::new()
                .name(format!("smartpick-wire-rexec-{i}"))
                .spawn(move || {
                    while let Some(job) = jobs.pop() {
                        shared.wm.reactor_run_queue.dec();
                        let blocking = is_blocking(&job.request);
                        let response = execute(job.request, &shared);
                        if blocking {
                            shared.blocking_ops.fetch_sub(1, Ordering::SeqCst);
                        }
                        let done = Completion {
                            token: job.token,
                            id: job.id,
                            response,
                        };
                        if comp_tx.send(done).is_err() {
                            return;
                        }
                        // Nudge the event loop; a full waker pipe means a
                        // wakeup is already pending, which is just as good.
                        let _ = (&waker).write(&[1]);
                    }
                });
            if let Ok(worker) = worker {
                workers.push(worker);
            }
        }
        Executors { jobs, workers }
    }

    /// Closes the run queue, so each executor drains what is queued and
    /// exits, then joins them.
    fn join(self) {
        self.jobs.close();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// The event loop itself. Runs on the thread [`crate::WireServer::bind`]
/// spawns; exits when the shutdown flag is raised (shutdown nudges
/// `waker_tx`'s pipe, so the loop notices without waiting out a poll
/// interval). Executors write a byte to `waker_tx`, the loop reads it
/// off `waker_rx`.
pub(crate) fn reactor_loop(
    listener: TcpListener,
    waker_rx: UnixStream,
    waker_tx: UnixStream,
    shared: Arc<Shared>,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let Ok(poller) = Poller::new() else { return };
    if poller
        .add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)
        .is_err()
    {
        return;
    }
    if waker_rx.set_nonblocking(true).is_err() || waker_tx.set_nonblocking(true).is_err() {
        return;
    }
    if poller
        .add(waker_rx.as_raw_fd(), TOKEN_WAKER, Interest::READABLE)
        .is_err()
    {
        return;
    }

    // The run queue bounds decoded-but-unexecuted requests globally; a
    // full queue answers `busy` (retryable), never blocks the loop.
    let queue_cap = (shared.config.max_in_flight * 4).max(64);
    let (comp_tx, comp_rx) = sync_channel::<Completion>(queue_cap);
    let executors = Executors::start(&shared, &comp_tx, &waker_tx, queue_cap);
    drop(comp_tx); // the loop only receives; executors hold the senders

    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    let mut events = Events::with_capacity(1024);
    let mut closed: Vec<usize> = Vec::new();

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let _ = poller.wait(&mut events, Some(shared.config.poll_interval));
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }

        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => {
                    accept_ready(&listener, &poller, &shared, &mut conns, &mut next_token)
                }
                TOKEN_WAKER => drain_waker(&waker_rx),
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    if !service_conn(conn, ev, &poller, &shared, &executors.jobs, token) {
                        closed.push(token);
                    }
                }
            }
        }

        // Route completions regardless of which event woke us.
        while let Ok(done) = comp_rx.try_recv() {
            let token = done.token;
            let Some(conn) = conns.get_mut(&token) else {
                continue; // connection closed while executing
            };
            if !apply_completion(conn, done, &poller, &shared, &executors.jobs, token) {
                closed.push(token);
            }
        }

        // Sweep: idle deadlines and drained fatal closes.
        let now = Instant::now();
        for (token, conn) in conns.iter_mut() {
            if closed.contains(token) {
                continue;
            }
            match conn.closing {
                Some(deadline) => {
                    // Past the drain deadline the close is unconditional:
                    // a peer that neither reads its error frame nor
                    // closes must not pin a connection slot behind its
                    // own undrained writes.
                    if now >= deadline || conn.peer_eof {
                        closed.push(*token);
                    }
                }
                None => {
                    // Idle means *client* idle. A connection quiet
                    // because the server is still executing its requests
                    // (which covers every pause at the in-flight cap) is
                    // being serviced, not abandoned — reaping it would
                    // discard responses the client is legitimately
                    // waiting for. One paused only because its peer has
                    // stopped reading is the client's doing: no byte has
                    // moved either way, and it goes like any idle one.
                    if let Some(idle) = shared.config.idle_timeout {
                        if conn.in_flight == 0 && conn.last_byte_at.elapsed() >= idle {
                            closed.push(*token);
                        }
                    }
                    // Half-closed peer with nothing left to answer.
                    if conn.peer_eof && conn.in_flight == 0 && !conn.has_pending_write() {
                        closed.push(*token);
                    }
                }
            }
        }

        for token in closed.drain(..) {
            if let Some(conn) = conns.remove(&token) {
                teardown_conn(conn, &poller, &shared);
            }
        }
    }

    // Teardown: drop the completion receiver *before* joining so a
    // worker blocked on a full completion channel errors out of `send`
    // and exits instead of deadlocking the join (at shutdown a saturated
    // run queue can produce more completions than the loop will ever
    // drain). In-flight results are discarded with the receiver.
    drop(comp_rx);
    executors.join();
    for (_, conn) in conns.drain() {
        teardown_conn(conn, &poller, &shared);
    }
}

fn teardown_conn(conn: Conn, poller: &Poller, shared: &Shared) {
    let _ = poller.delete(conn.stream.as_raw_fd());
    shared.wm.connections.dec();
    shared.wm.connection_lifetime.record(conn.opened.elapsed());
    shared
        .obs
        .events()
        .publish(event(EventKind::ConnectionClosed).duration(conn.opened.elapsed()));
}

/// Accepts until the listener would block — draining the whole accept
/// queue per readiness event is what keeps a connect storm from
/// overflowing it — enforcing the connection cap with a best-effort
/// un-numbered busy frame (the socket buffer of a fresh connection
/// always has room for one small frame).
fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    shared: &Arc<Shared>,
    conns: &mut HashMap<usize, Conn>,
    next_token: &mut usize,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(_) => continue,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if conns.len() >= shared.config.max_connections {
            shared.wm.busy_rejections.inc();
            shared.obs.events().publish(
                event(EventKind::BusyRejection)
                    .detail("over the server connection cap; told to retry"),
            );
            let mut rejection = Vec::new();
            let _ = send_response(
                &mut rejection,
                &error_response(
                    ErrorKind::Busy,
                    format!(
                        "server at its {}-connection cap; retry later",
                        shared.config.max_connections
                    ),
                ),
                &mut EncodeScratch::default(),
            );
            let mut stream = stream;
            if stream.write_all(&rejection).is_ok() {
                shared.wm.frames_written_v1.inc();
            }
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let token = *next_token;
        *next_token += 1;
        if poller
            .add(stream.as_raw_fd(), token, Interest::READABLE)
            .is_err()
        {
            continue;
        }
        shared.wm.connections.inc();
        shared
            .obs
            .events()
            .publish(event(EventKind::ConnectionOpened));
        conns.insert(token, Conn::new(stream, Instant::now()));
    }
}

/// Empties the waker pipe so level-triggered polling goes quiet until
/// the next executor nudge.
fn drain_waker(waker_rx: &UnixStream) {
    let mut sink = [0u8; 256];
    let mut stream = waker_rx;
    loop {
        match stream.read(&mut sink) {
            Ok(n) if n > 0 => continue,
            _ => return,
        }
    }
}

/// Handles one readiness event on a connection: read + parse + admit on
/// readable, flush on writable. Returns `false` when the connection
/// must be closed now.
fn service_conn(
    conn: &mut Conn,
    ev: &Event,
    poller: &Poller,
    shared: &Arc<Shared>,
    jobs: &BoundedQueue<Job>,
    token: usize,
) -> bool {
    if (ev.readable || ev.closed) && !read_ready(conn, shared, jobs, token) {
        return false;
    }
    if ev.writable {
        if !flush_writes(conn) {
            return false;
        }
        // The peer read: if its unread responses had stopped the
        // parsing, resume on what is already buffered (no readable event
        // will re-announce it).
        if conn.paused {
            parse_and_admit(conn, shared, jobs, token);
        }
    }
    update_interest(conn, poller, token);
    true
}

/// Per-`read_ready` call cap on ingested bytes. The poller is
/// level-triggered, so a connection with more buffered input is simply
/// re-announced on the next wait — the cap bounds how long one fast
/// producer can monopolise the loop (and the shutdown check) before
/// other connections get their turn. It is also what bounds the work run
/// on the loop per turn: a `determine` frame is ~1.6 KB, so a quantum is
/// about 160 requests under [`INLINE_SWEEP_COST_MAX`] — about 1 ms.
const READ_QUANTUM: usize = 256 * 1024;

/// Reads and parses until the socket would block, the fairness quantum
/// is spent, or flow control pauses the connection — flow control stops
/// *reading*, not just parsing, so a producer that outruns the
/// executors cannot grow `read_buf` without bound. Returns `false` to
/// close immediately (reset-style errors).
fn read_ready(
    conn: &mut Conn,
    shared: &Arc<Shared>,
    jobs: &BoundedQueue<Job>,
    token: usize,
) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    let mut taken = 0usize;
    loop {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                conn.peer_eof = true;
                break;
            }
            Ok(n) => {
                conn.last_byte_at = Instant::now();
                taken += n;
                // While draining toward a fatal close, inbound bytes are
                // discarded (the nonblocking `drain_briefly`): reading
                // them keeps the peer's error frame deliverable.
                if conn.closing.is_none() {
                    // lint:allow(panic-free-server-paths, reason = "n is the byte count read() just returned for this very buffer, so n <= chunk.len() by the io contract")
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    parse_and_admit(conn, shared, jobs, token);
                    if conn.paused || conn.closing.is_some() {
                        break;
                    }
                }
                if taken >= READ_QUANTUM {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    parse_and_admit(conn, shared, jobs, token);
    true
}

/// Parses every complete frame buffered on `conn` — running what is
/// cheap, queueing the rest — and flushes the responses once. Stops for
/// flow control (in-flight cap, unread responses) or a fatal framing
/// violation.
fn parse_and_admit(conn: &mut Conn, shared: &Arc<Shared>, jobs: &BoundedQueue<Job>, token: usize) {
    while conn.closing.is_none() {
        // Flow control: at the in-flight cap, or with more than a frame's
        // worth of responses the peer has not taken, leave further frames
        // unparsed and withdraw read interest; a completion or a
        // writable event resumes parsing.
        if conn.in_flight >= shared.config.max_in_flight
            || outbound_full(conn, shared.config.max_frame_len)
        {
            conn.paused = true;
            break;
        }
        conn.paused = false;
        // lint:allow(panic-free-server-paths, reason = "parse_pos only ever advances by the `consumed` length of a frame parse_one found inside read_buf, so it stays <= read_buf.len()")
        let unparsed = &conn.read_buf[conn.parse_pos..];
        match parse_one(unparsed, shared.config.max_frame_len) {
            Parsed::Incomplete => break,
            Parsed::Fatal { message } => {
                let error = error_response(ErrorKind::Protocol, message);
                // Encoding into a Vec cannot fail on I/O; a
                // serialization failure is unrepresentable for our own
                // response types.
                if send_response(&mut conn.write_buf, &error, &mut conn.scratch).is_ok() {
                    shared.wm.frames_written_v1.inc();
                }
                begin_close(conn, shared);
                break;
            }
            Parsed::BadRequest {
                consumed,
                id,
                message,
            } => {
                conn.parse_pos += consumed;
                shared.wm.frames_read_v3.inc();
                let error = error_response(ErrorKind::BadRequest, message);
                append_tagged(conn, shared, id, &error);
            }
            Parsed::Job {
                consumed,
                id,
                request,
            } => {
                conn.parse_pos += consumed;
                shared.wm.frames_read_v3.inc();
                let request = match run_inline(request, shared) {
                    Inline::Answered(response) => {
                        shared.wm.requests_inline.inc();
                        append_tagged(conn, shared, id, &response);
                        continue;
                    }
                    Inline::Declined(request) => request,
                };
                if let Err(reason) = admit(conn, shared, jobs, token, id, request) {
                    shared.wm.busy_rejections.inc();
                    shared
                        .obs
                        .events()
                        .publish(event(EventKind::BusyRejection).detail(reason));
                    let busy = error_response(ErrorKind::Busy, format!("{reason}; retry later"));
                    append_tagged(conn, shared, id, &busy);
                }
            }
        }
    }
    if conn.parse_pos > 0 {
        conn.read_buf.drain(..conn.parse_pos);
        conn.parse_pos = 0;
    }
    let _ = flush_writes(conn);
}

/// Whether `conn` holds more than `bound` bytes of responses its socket
/// will not take — asked before each frame is parsed, so what a peer that
/// never reads can make the server buffer is `bound` plus the responses
/// of the requests already admitted (one, for a request run here).
/// Responses accumulate unflushed within a parse pass, so the socket is
/// offered them once more before the answer is yes.
fn outbound_full(conn: &mut Conn, bound: usize) -> bool {
    conn.pending_write() > bound && {
        let _ = flush_writes(conn);
        conn.pending_write() > bound
    }
}

/// Hands one decoded request to the executor pool, or says why it must
/// be told `busy`: the server-wide run queue is full, or it is a
/// blocking operation and `max(1, pipeline_workers - 1)` of those are
/// already running — one executor always stays free for reads, so
/// overload sheds feedback-side work, never query results.
fn admit(
    conn: &mut Conn,
    shared: &Shared,
    jobs: &BoundedQueue<Job>,
    token: usize,
    id: u64,
    request: Request,
) -> Result<(), &'static str> {
    let blocking = is_blocking(&request);
    if blocking {
        let cap = shared.config.pipeline_workers.saturating_sub(1).max(1);
        // Only the loop thread increments, so check-then-add cannot
        // overshoot; executors only ever decrement.
        if shared.blocking_ops.load(Ordering::SeqCst) >= cap {
            return Err("server at its blocking-operation cap");
        }
        shared.blocking_ops.fetch_add(1, Ordering::SeqCst);
    }
    let job = Job { token, id, request };
    if jobs.try_push(job).is_err() {
        if blocking {
            shared.blocking_ops.fetch_sub(1, Ordering::SeqCst);
        }
        return Err("server run queue full");
    }
    conn.in_flight += 1;
    shared.wm.requests_queued.inc();
    shared.wm.in_flight_hwm.set_max(conn.in_flight as i64);
    shared.wm.reactor_run_queue.inc();
    Ok(())
}

/// Routes one executed request's response back onto its connection,
/// then resumes parsing if the connection was flow-controlled. Returns
/// `false` when the connection must close.
fn apply_completion(
    conn: &mut Conn,
    done: Completion,
    poller: &Poller,
    shared: &Arc<Shared>,
    jobs: &BoundedQueue<Job>,
    token: usize,
) -> bool {
    conn.in_flight = conn.in_flight.saturating_sub(1);
    append_tagged(conn, shared, done.id, &done.response);
    if !flush_writes(conn) {
        return false;
    }
    // A slot is free again: resume parsing bytes that were already
    // buffered (no readable event will re-announce them) and restore
    // read interest — unless the pause still holds, which the parse
    // pass re-checks first.
    if conn.paused {
        parse_and_admit(conn, shared, jobs, token);
    }
    update_interest(conn, poller, token);
    true
}

/// Appends a v3 response under `id` to the outbound buffer.
fn append_tagged(conn: &mut Conn, shared: &Arc<Shared>, id: u64, response: &Response) {
    if send_response_v3(&mut conn.write_buf, id, response, &mut conn.scratch).is_ok() {
        shared.wm.frames_written_v3.inc();
    }
}

/// Starts the fatal-close sequence: flush what is queued, discard
/// inbound bytes, close after a short drain window. Closing a socket
/// with unread received bytes sends a reset that can discard the
/// just-written error frame before the peer reads it; the drain makes
/// "error response, then close" reliable even when the peer was
/// mid-write.
fn begin_close(conn: &mut Conn, shared: &Arc<Shared>) {
    if conn.closing.is_none() {
        conn.closing = Some(Instant::now() + 4 * shared.config.poll_interval);
        conn.read_buf.clear();
        conn.parse_pos = 0;
    }
}

/// Pushes buffered outbound bytes until done or the socket would block.
/// Returns `false` on a dead socket.
fn flush_writes(conn: &mut Conn) -> bool {
    while conn.write_pos < conn.write_buf.len() {
        // lint:allow(panic-free-server-paths, reason = "the loop condition on the previous line bounds write_pos below write_buf.len()")
        match (&conn.stream).write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return false,
            Ok(n) => {
                conn.write_pos += n;
                conn.last_byte_at = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.write_pos >= conn.write_buf.len() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    } else if conn.write_pos >= conn.write_buf.len() / 2 {
        // A peer that reads slower than it is answered never empties the
        // buffer: drop the written half so the buffer holds at most
        // twice what is pending (moves fewer bytes than were written).
        conn.write_buf.drain(..conn.write_pos);
        conn.write_pos = 0;
    }
    true
}

/// Syncs the poller's interest with what the connection now needs.
fn update_interest(conn: &mut Conn, poller: &Poller, token: usize) {
    let desired = conn.desired_interest();
    if (desired.readable != conn.registered.readable
        || desired.writable != conn.registered.writable)
        && poller
            .modify(conn.stream.as_raw_fd(), token, desired)
            .is_ok()
    {
        conn.registered = desired;
    }
}
