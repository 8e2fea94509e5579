//! The TCP front-end: a listener embedding a [`SmartpickService`].
//!
//! This module owns what is independent of how sockets are driven: the
//! tunables ([`WireServerConfig`]), the `wire.*` telemetry, bind and
//! shutdown, and the request path every frame ends up on — decode the
//! binary envelope, execute it against the service, encode the one
//! response. Connection handling itself (accept, nonblocking reads, frame
//! parsing, flow control, the executor pool, writes) is the event loop in
//! [`crate::reactor`], which
//! also answers the requests that are cheaper than a hand-off itself;
//! `execute` is what an executor runs for all the others.
//!
//! Error containment: one connection's bad frame can never take another
//! connection (or the listener) down. An id-tagged frame's
//! length-delimited framing stays trustworthy even when its payload is
//! garbage, and its id lets the error name exactly the request it
//! answers — so any payload problem (undecodable bytes, unknown op) is
//! a per-request `bad_request` on a still-usable connection. Only a
//! frame whose *framing* is untrustworthy (unknown or retired version
//! byte, oversized length prefix) gets one un-numbered `protocol` error
//! frame and a close, because resynchronising a byte stream after a
//! framing violation is guesswork.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use smartpick_core::driver::Smartpick;
use smartpick_obs::{Counter, Gauge, LatencyHistogram, Observability};
use smartpick_service::{ServiceError, SmartpickService};

use crate::codec;
use crate::error::ErrorKind;
use crate::frame::{write_frame_buffered, write_frame_v3_buffered, DEFAULT_MAX_FRAME_LEN};
use crate::proto::{Rejection, Request, Response};

/// Accept-queue depth requested from the kernel (clamped to
/// `net.core.somaxconn`): std binds with 128, which a connect storm of
/// a thousand clients overflows into SYN retransmits.
const LISTEN_BACKLOG: i32 = 4096;

/// Tunables for a [`WireServer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireServerConfig {
    /// Concurrent connections served; the next one is told `busy`.
    pub max_connections: usize,
    /// Per-frame payload cap enforced before the payload is read. Also
    /// the bound on a connection's unflushed responses: past it the
    /// server stops reading the connection until the peer reads.
    pub max_frame_len: usize,
    /// Longest the event loop parks before re-checking idle deadlines
    /// and drain windows; a fatal close drains for four of these.
    pub poll_interval: Duration,
    /// Close a connection that has sent no bytes for this long (`None`
    /// = never). Idle connections hold slots against
    /// `max_connections`, so without a deadline a peer that connects
    /// and goes silent pins a slot forever — the cheapest way to
    /// exhaust the serving boundary.
    pub idle_timeout: Option<Duration>,
    /// Per-connection cap on requests in flight in the executor pool —
    /// queued or executing; a request the event loop runs itself is
    /// finished before the next is parsed and never counts. At the cap
    /// the server stops reading the connection (TCP pushes back on the
    /// client) until a completion frees a slot; admitted work is never
    /// affected.
    pub max_in_flight: usize,
    /// Executor threads running the requests the event loop does not run
    /// itself. The pool is **server-wide**: every connection's requests
    /// share these threads, so at most `max(1, pipeline_workers - 1)`
    /// blocking operations (`flush`) are admitted at once and the rest
    /// are told `busy` — queued reads always keep an executor.
    pub pipeline_workers: usize,
}

impl Default for WireServerConfig {
    fn default() -> Self {
        WireServerConfig {
            max_connections: 64,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            poll_interval: Duration::from_millis(50),
            idle_timeout: Some(Duration::from_secs(300)),
            max_in_flight: 64,
            pipeline_workers: 4,
        }
    }
}

/// The wire layer's own telemetry, registered under `wire.*` in the
/// service's shared metrics registry — so one `Scrape` answers for both
/// layers.
#[derive(Debug)]
pub(crate) struct WireMetrics {
    /// Request frames decoded off sockets (v3, the one generation that
    /// executes).
    pub(crate) frames_read_v3: Arc<Counter>,
    /// Frames put on sockets, by layout; `v1` counts the un-numbered
    /// connection-level error frames (cap `busy`, framing violations).
    pub(crate) frames_written_v1: Arc<Counter>,
    pub(crate) frames_written_v3: Arc<Counter>,
    /// Busy rejections issued: over the connection cap, run queue full,
    /// or over the blocking-operation cap.
    pub(crate) busy_rejections: Arc<Counter>,
    /// Requests the event loop ran to completion itself, and requests it
    /// handed to the executor pool — every decoded request is one or the
    /// other (or was told `busy`), so the pair is the split an operator
    /// reads to see how much traffic still pays the hand-off.
    pub(crate) requests_inline: Arc<Counter>,
    pub(crate) requests_queued: Arc<Counter>,
    /// Connections currently being served.
    pub(crate) connections: Arc<Gauge>,
    /// High-water mark of *queued* requests in flight (admitted to the
    /// executor pool, not yet completed) on any single connection since
    /// the server started. Requests run on the loop never count.
    pub(crate) in_flight_hwm: Arc<Gauge>,
    /// Queued requests not yet picked up by an executor.
    pub(crate) reactor_run_queue: Arc<Gauge>,
    /// Connection lifetimes, accept to teardown.
    pub(crate) connection_lifetime: Arc<LatencyHistogram>,
}

impl WireMetrics {
    fn register(obs: &Observability) -> WireMetrics {
        let m = obs.metrics();
        WireMetrics {
            frames_read_v3: m.counter("wire.frames_read.v3"),
            frames_written_v1: m.counter("wire.frames_written.v1"),
            frames_written_v3: m.counter("wire.frames_written.v3"),
            busy_rejections: m.counter("wire.busy_rejections"),
            requests_inline: m.counter("wire.requests_inline"),
            requests_queued: m.counter("wire.requests_queued"),
            connections: m.gauge("wire.connections"),
            in_flight_hwm: m.gauge("wire.in_flight_hwm"),
            reactor_run_queue: m.gauge("wire.reactor.run_queue_depth"),
            connection_lifetime: m.histogram("wire.connection_lifetime"),
        }
    }
}

/// State shared by the event loop and its executor pool.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) service: Arc<SmartpickService>,
    /// The trained driver `register_tenant` requests fork from: the wire
    /// cannot carry a model, so kick-start training happens server-side
    /// once and tenants are stamped out as cheap copy-on-write forks.
    pub(crate) template: Smartpick,
    pub(crate) config: WireServerConfig,
    pub(crate) shutdown: AtomicBool,
    /// Blocking operations admitted and not yet finished (see
    /// [`WireServerConfig::pipeline_workers`]).
    pub(crate) blocking_ops: AtomicUsize,
    /// The service's observability bundle (the wire layer reports into
    /// the same scrape).
    pub(crate) obs: Arc<Observability>,
    pub(crate) wm: WireMetrics,
}

/// A running TCP front-end over a [`SmartpickService`].
///
/// Binds, serves until [`WireServer::shutdown`] (also run on drop), and
/// exposes the bound address — bind to port 0 to let the OS pick an
/// ephemeral one (how the integration tests run real sockets in
/// parallel).
#[derive(Debug)]
pub struct WireServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    /// Write half of the event loop's wake pipe: shutdown nudges the
    /// loop instead of waiting out a poll interval.
    waker: UnixStream,
    reactor: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Binds `addr` and starts serving `service`, registering wire
    /// tenants as forks of `template`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and event-loop thread spawn failures.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<SmartpickService>,
        template: Smartpick,
        config: WireServerConfig,
    ) -> io::Result<WireServer> {
        assert!(
            config.max_connections > 0,
            "max_connections must be positive"
        );
        assert!(config.max_frame_len > 0, "max_frame_len must be positive");
        assert!(config.max_in_flight > 0, "max_in_flight must be positive");
        assert!(
            config.pipeline_workers > 0,
            "pipeline_workers must be positive"
        );
        let listener = TcpListener::bind(addr)?;
        polling::set_listen_backlog(listener.as_raw_fd(), LISTEN_BACKLOG)?;
        let local_addr = listener.local_addr()?;
        let (waker_rx, waker) = UnixStream::pair()?;
        let obs = Arc::clone(service.observability());
        let wm = WireMetrics::register(&obs);
        let shared = Arc::new(Shared {
            service,
            template,
            config,
            shutdown: AtomicBool::new(false),
            blocking_ops: AtomicUsize::new(0),
            obs,
            wm,
        });
        let loop_waker = waker.try_clone()?;
        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("smartpick-wire-reactor".to_owned())
                .spawn(move || {
                    crate::reactor::reactor_loop(listener, waker_rx, loop_waker, shared)
                })?
        };
        Ok(WireServer {
            local_addr,
            shared,
            waker,
            reactor: Some(reactor),
        })
    }

    /// The bound listen address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<SmartpickService> {
        &self.shared.service
    }

    /// Stops accepting, closes every connection, and joins all server
    /// threads. Idempotent; also runs on drop. The embedded
    /// [`SmartpickService`] is *not* shut down — it may be shared.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(reactor) = self.reactor.take() {
            // A full wake pipe means a wakeup is already pending.
            let _ = (&self.waker).write(&[1]);
            let _ = reactor.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Decodes one v3 payload (a determine straight from the bytes, any
/// other request through the `Value` tree); the error string becomes the
/// `bad_request` message for that request id.
pub(crate) fn decode_request(payload: &[u8]) -> Result<Request, String> {
    codec::decode_request(payload).map_err(|e| format!("binary payload rejected: {e}"))
}

pub(crate) fn execute(request: Request, shared: &Shared) -> Response {
    let service = &shared.service;
    let result = match request {
        Request::Ping => return Response::Pong,
        Request::Flush => {
            return if service.flush() {
                Response::Flushed
            } else {
                service_error(&ServiceError::Stopped)
            }
        }
        Request::RegisterTenant { tenant, seed } => service
            .register_fork(tenant, &shared.template, seed)
            .map(|()| Response::Registered),
        Request::Predict { tenant, request } => service
            .predict(&tenant, &request)
            .map(Response::Determination),
        Request::Determine {
            tenant,
            query,
            seed,
        } => service
            .determine(&tenant, &query, seed)
            .map(Response::Determination),
        Request::ReportRun { tenant, run } => service
            .report_run(&tenant, *run)
            .map(|()| Response::ReportAccepted),
        Request::TenantStats { tenant } => service.tenant_stats(&tenant).map(Response::TenantStats),
        Request::Scrape { events } => Ok(Response::Scrape(Box::new(service.scrape(events)))),
        Request::Health => Ok(Response::Health(service.health())),
    };
    result.unwrap_or_else(|e| service_error(&e))
}

pub(crate) fn service_error(e: &ServiceError) -> Response {
    Response::Error(Rejection {
        kind: ErrorKind::of_service_error(e),
        message: e.to_string(),
        retryable: e.is_retryable(),
    })
}

/// Reusable response-encode state: the rendered payload and the
/// assembled frame each live in a buffer that survives across frames.
#[derive(Debug, Default)]
pub(crate) struct EncodeScratch {
    json: String,
    bin: Vec<u8>,
    frame: Vec<u8>,
}

/// Frames `response` un-numbered, as JSON: the connection-level error
/// frame, which answers no particular request.
pub(crate) fn send_response(
    w: &mut impl Write,
    response: &Response,
    scratch: &mut EncodeScratch,
) -> io::Result<()> {
    serde_json::to_string_into(response, &mut scratch.json)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_frame_buffered(w, scratch.json.as_bytes(), &mut scratch.frame)
}

/// Frames `response` as v3 under the request id it answers, its payload
/// encoded with [`crate::codec`].
pub(crate) fn send_response_v3(
    w: &mut impl Write,
    id: u64,
    response: &Response,
    scratch: &mut EncodeScratch,
) -> io::Result<()> {
    codec::encode_response_into(response, &mut scratch.bin);
    write_frame_v3_buffered(w, id, &scratch.bin, &mut scratch.frame)
}
