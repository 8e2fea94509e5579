//! The typed client: blocking one-method-per-request calls plus the
//! pipelined surface they ride on — a non-blocking
//! [`WireClient::submit`]/[`WireClient::recv`] pair and
//! [`WireClient::split`] into independently-owned send/receive halves
//! for cross-thread pipelining. Every request travels in an id-tagged
//! v3 frame, from the first one a connection sends.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use smartpick_core::wp::{Determination, PredictionRequest};
use smartpick_engine::QueryProfile;
use smartpick_obs::{HealthReport, ScrapeEnvelope};
use smartpick_service::{CompletedRun, TenantStats};

use crate::codec;
use crate::error::WireError;
use crate::frame::{
    read_frame_any_into, write_frame_v3_buffered, FrameError, DEFAULT_MAX_FRAME_LEN,
};
use crate::proto::{Rejection, Request, Response};

/// A connection to a [`crate::WireServer`].
///
/// The typed convenience methods ([`WireClient::ping`],
/// [`WireClient::determine`], …) are strictly blocking request/response:
/// one [`WireClient::submit`] followed by one [`WireClient::recv`]. On
/// the pipelined surface every submitted request gets a `u64` id, many
/// can be in flight at once, and responses arrive tagged with the id
/// they answer (possibly out of order). Don't interleave a blocking
/// call while pipelined requests are outstanding: the blocking call
/// would read some other request's response and fail; drain with `recv`
/// first.
///
/// The client keeps reusable encode/decode scratch buffers, so a
/// steady-state call allocates nothing for framing: the request payload
/// is encoded into a held `Vec<u8>`, framed through a second, and the
/// response payload lands in a third.
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    max_frame_len: usize,
    encoder: Encoder,
    /// Inbound payload scratch, reused across calls.
    read_buf: Vec<u8>,
}

impl WireClient {
    /// Connects, blocking until accepted or refused.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<WireClient, WireError> {
        let stream = TcpStream::connect(addr)?;
        Ok(WireClient::over(stream))
    }

    /// Connects with a connect deadline (read/write stay unbounded until
    /// [`WireClient::set_io_timeout`]).
    ///
    /// # Errors
    ///
    /// Propagates connect failures, including the elapsed deadline.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> Result<WireClient, WireError> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        Ok(WireClient::over(stream))
    }

    fn over(stream: TcpStream) -> WireClient {
        // Request/response ping-pong is Nagle's worst case: without
        // nodelay, the 5-byte header waits out delayed ACKs and a
        // loopback RTT balloons from microseconds to ~100 ms.
        let _ = stream.set_nodelay(true);
        WireClient {
            stream,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            encoder: Encoder::default(),
            read_buf: Vec::new(),
        }
    }

    /// Always `Ok(true)`, and touches no socket: every connection speaks
    /// the binary codec (v3 frames) from its first frame, so there is
    /// nothing left to negotiate. Kept for callers written against the
    /// probe it used to be.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use smartpick_wire::WireClient;
    ///
    /// let mut client = WireClient::connect("127.0.0.1:7171")?;
    /// assert!(client.negotiate_binary()?);
    /// client.ping()?;
    /// # Ok::<(), smartpick_wire::WireError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// None; the `Result` is the shape callers already handle.
    pub fn negotiate_binary(&mut self) -> Result<bool, WireError> {
        Ok(true)
    }

    /// Bounds every subsequent read and write (`None` = block forever).
    /// An expired deadline surfaces as [`WireError::Io`]; the connection
    /// should be considered dead afterwards (a late response would
    /// desynchronise the stream).
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<(), WireError> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        Ok(())
    }

    /// Caps how large a response frame this client will accept.
    pub fn set_max_frame_len(&mut self, max: usize) {
        assert!(max > 0, "max_frame_len must be positive");
        self.max_frame_len = max;
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// See [`WireError`].
    pub fn ping(&mut self) -> Result<(), WireError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Registers `tenant` as a fork (seeded with `seed`) of the server's
    /// template driver.
    ///
    /// # Errors
    ///
    /// See [`WireError`]; duplicate ids are a `tenant_exists` rejection.
    pub fn register_tenant(
        &mut self,
        tenant: impl Into<String>,
        seed: u64,
    ) -> Result<(), WireError> {
        let request = Request::RegisterTenant {
            tenant: tenant.into(),
            seed,
        };
        match self.call(&request)? {
            Response::Registered => Ok(()),
            other => Err(unexpected("registered", &other)),
        }
    }

    /// Runs a full [`PredictionRequest`] against `tenant`'s snapshot.
    ///
    /// # Errors
    ///
    /// See [`WireError`].
    pub fn predict(
        &mut self,
        tenant: impl Into<String>,
        request: PredictionRequest,
    ) -> Result<Determination, WireError> {
        let request = Request::Predict {
            tenant: tenant.into(),
            request,
        };
        match self.call(&request)? {
            Response::Determination(d) => Ok(d),
            other => Err(unexpected("determination", &other)),
        }
    }

    /// Convenience prediction: hybrid search with the tenant's knob.
    /// Writes the frame [`WireClient::submit_determine`] writes, straight
    /// from the borrowed tenant and query, then waits for its answer.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use smartpick_wire::WireClient;
    /// use smartpick_workloads::tpcds;
    ///
    /// let mut client = WireClient::connect("127.0.0.1:7171")?;
    /// client.register_tenant("acme", 7)?;
    /// let query = tpcds::query(11, 100.0).expect("catalog query");
    /// let det = client.determine("acme", &query, 99)?;
    /// println!("{} in {:.1}s", det.allocation, det.predicted_seconds);
    /// # Ok::<(), smartpick_wire::WireError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// See [`WireError`].
    pub fn determine(
        &mut self,
        tenant: &str,
        query: &QueryProfile,
        seed: u64,
    ) -> Result<Determination, WireError> {
        let id = self.submit_determine(tenant, query, seed)?;
        match self.answer(id)? {
            Response::Determination(d) => Ok(d),
            other => Err(unexpected("determination", &other)),
        }
    }

    /// Feeds one completed run back into `tenant`'s training loop.
    ///
    /// # Errors
    ///
    /// See [`WireError`]; backpressure sheds are retryable rejections.
    pub fn report_run(
        &mut self,
        tenant: impl Into<String>,
        run: CompletedRun,
    ) -> Result<(), WireError> {
        let request = Request::ReportRun {
            tenant: tenant.into(),
            run: Box::new(run),
        };
        match self.call(&request)? {
            Response::ReportAccepted => Ok(()),
            other => Err(unexpected("report_accepted", &other)),
        }
    }

    /// Blocks until every report accepted so far is applied and the
    /// snapshots republished.
    ///
    /// # Errors
    ///
    /// See [`WireError`].
    pub fn flush(&mut self) -> Result<(), WireError> {
        match self.call(&Request::Flush)? {
            Response::Flushed => Ok(()),
            other => Err(unexpected("flushed", &other)),
        }
    }

    /// A point-in-time view of one tenant.
    ///
    /// # Errors
    ///
    /// See [`WireError`].
    pub fn tenant_stats(&mut self, tenant: impl Into<String>) -> Result<TenantStats, WireError> {
        let request = Request::TenantStats {
            tenant: tenant.into(),
        };
        match self.call(&request)? {
            Response::TenantStats(s) => Ok(s),
            other => Err(unexpected("tenant_stats", &other)),
        }
    }

    /// One versioned telemetry envelope: every metric the server process
    /// registered (service and wire layers), `tenant.<id>.*` rows for the
    /// tenants *resident* right now (a cold tenant is answered by
    /// [`WireClient::tenant_stats`]), plus its last `events` structured
    /// events. Its size follows the resident set, not the registered one
    /// (`docs/WIRE.md`, "`scrape`").
    ///
    /// # Errors
    ///
    /// See [`WireError`].
    pub fn scrape(&mut self, events: usize) -> Result<ScrapeEnvelope, WireError> {
        match self.call(&Request::Scrape { events })? {
            Response::Scrape(envelope) => Ok(*envelope),
            other => Err(unexpected("scrape", &other)),
        }
    }

    /// Liveness/readiness of the server's service: ready iff every
    /// retrain worker is alive and no shard is stalled past the server's
    /// configured deadline.
    ///
    /// # Errors
    ///
    /// See [`WireError`].
    pub fn health(&mut self) -> Result<HealthReport, WireError> {
        match self.call(&Request::Health)? {
            Response::Health(report) => Ok(report),
            other => Err(unexpected("health", &other)),
        }
    }

    // ---------------------------------------------------------------
    // Pipelining
    // ---------------------------------------------------------------

    /// Submits `request` without waiting for its response: the request
    /// is framed with a fresh id (returned) and the call comes back as
    /// soon as the bytes are written. Pair with [`WireClient::recv`];
    /// any number of submissions may be in flight — past the server's
    /// per-connection cap it stops reading this connection until
    /// responses drain, so a client that only submits and never
    /// receives eventually blocks in the socket write.
    ///
    /// # Errors
    ///
    /// Propagates encode and socket write failures.
    pub fn submit(&mut self, request: &Request) -> Result<u64, WireError> {
        self.encoder.submit(&mut self.stream, request)
    }

    /// [`WireClient::submit`] for the common determine: hybrid search
    /// with the tenant's knob. The frame is the one
    /// `submit(&Request::Determine { .. })` sends, encoded straight from
    /// the borrowed parts — neither the query nor the tenant id is
    /// copied.
    ///
    /// # Errors
    ///
    /// See [`WireClient::submit`].
    pub fn submit_determine(
        &mut self,
        tenant: &str,
        query: &QueryProfile,
        seed: u64,
    ) -> Result<u64, WireError> {
        self.encoder.send(&mut self.stream, |payload| {
            codec::encode_determine_into(tenant, query, seed, payload)
        })
    }

    /// Receives the next pipelined response: blocks for one frame and
    /// returns `(id, response)`. Responses may arrive in any order;
    /// match them to submissions by id. Per-request rejections are
    /// returned as [`Response::Error`] *values* (not `Err`) so the
    /// caller still learns which request they answer.
    ///
    /// # Errors
    ///
    /// Socket/framing failures. An un-numbered frame is a
    /// connection-level error (connection cap `busy`, framing
    /// violation) that answers no particular request: it surfaces as
    /// the [`WireError::Rejected`] it carries, and the server closes
    /// the connection after it.
    pub fn recv(&mut self) -> Result<(u64, Response), WireError> {
        recv_on(&mut self.stream, self.max_frame_len, &mut self.read_buf)
    }

    /// Splits the connection into independently-owned send and receive
    /// halves, so one thread (or several, behind a lock) can keep
    /// submitting while another drains responses. Ids keep counting from
    /// this client's sequence.
    ///
    /// # Errors
    ///
    /// Propagates the socket duplication failure.
    pub fn split(self) -> Result<(WireSender, WireReceiver), WireError> {
        let read_stream = self.stream.try_clone()?;
        Ok((
            WireSender {
                stream: self.stream,
                encoder: self.encoder,
            },
            WireReceiver {
                stream: read_stream,
                max_frame_len: self.max_frame_len,
                read_buf: self.read_buf,
            },
        ))
    }

    /// One request/response exchange; server-side rejections become
    /// [`WireError::Rejected`].
    fn call(&mut self, request: &Request) -> Result<Response, WireError> {
        let id = self.submit(request)?;
        self.answer(id)
    }

    /// Receives the answer to request `id`, the only one in flight.
    fn answer(&mut self, id: u64) -> Result<Response, WireError> {
        let (got, response) = self.recv()?;
        if got != id {
            return Err(WireError::Protocol(format!(
                "blocking call {id} answered with response for {got}"
            )));
        }
        if let Response::Error(r) = response {
            return Err(rejected(r));
        }
        Ok(response)
    }
}

/// The send half of a [`WireClient::split`] connection: owns the write
/// side and the id sequence.
#[derive(Debug)]
pub struct WireSender {
    stream: TcpStream,
    encoder: Encoder,
}

impl WireSender {
    /// See [`WireClient::submit`].
    ///
    /// # Errors
    ///
    /// Propagates encode and socket write failures.
    pub fn submit(&mut self, request: &Request) -> Result<u64, WireError> {
        self.encoder.submit(&mut self.stream, request)
    }

    /// See [`WireClient::submit_determine`].
    ///
    /// # Errors
    ///
    /// See [`WireSender::submit`].
    pub fn submit_determine(
        &mut self,
        tenant: &str,
        query: &QueryProfile,
        seed: u64,
    ) -> Result<u64, WireError> {
        self.encoder.send(&mut self.stream, |payload| {
            codec::encode_determine_into(tenant, query, seed, payload)
        })
    }
}

/// The receive half of a [`WireClient::split`] connection.
#[derive(Debug)]
pub struct WireReceiver {
    stream: TcpStream,
    max_frame_len: usize,
    read_buf: Vec<u8>,
}

impl WireReceiver {
    /// See [`WireClient::recv`].
    ///
    /// # Errors
    ///
    /// See [`WireClient::recv`].
    pub fn recv(&mut self) -> Result<(u64, Response), WireError> {
        recv_on(&mut self.stream, self.max_frame_len, &mut self.read_buf)
    }
}

/// The write side's state, shared by [`WireClient`] and [`WireSender`]:
/// the id sequence and the payload and frame scratch buffers, so
/// steady-state submission allocates nothing.
#[derive(Debug, Default)]
struct Encoder {
    payload: Vec<u8>,
    frame: Vec<u8>,
    next_id: u64,
}

impl Encoder {
    /// Encodes and writes one v3 request frame under the next id.
    fn submit(&mut self, stream: &mut TcpStream, request: &Request) -> Result<u64, WireError> {
        self.send(stream, |payload| {
            codec::encode_request_into(request, payload)
        })
    }

    /// Writes the payload `encode` renders as one v3 frame under the
    /// next id.
    fn send(
        &mut self,
        stream: &mut TcpStream,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u64, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        encode(&mut self.payload);
        write_frame_v3_buffered(stream, id, &self.payload, &mut self.frame)?;
        Ok(id)
    }
}

/// Reads one response frame (shared by [`WireClient::recv`] and
/// [`WireReceiver::recv`]): a v3 answer in the binary codec, or an
/// un-numbered connection-level error frame in JSON.
fn recv_on(
    stream: &mut TcpStream,
    max_frame_len: usize,
    read_buf: &mut Vec<u8>,
) -> Result<(u64, Response), WireError> {
    let header = read_frame_any_into(stream, max_frame_len, read_buf).map_err(|e| match e {
        FrameError::Eof => WireError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        )),
        FrameError::Io(e) => WireError::Io(e),
        other => WireError::Protocol(other.to_string()),
    })?;
    if let Some(id) = header.id {
        let response = codec::decode_response(read_buf)
            .map_err(|e| WireError::Protocol(format!("decoding binary response: {e}")))?;
        return Ok((id, response));
    }
    let text = std::str::from_utf8(read_buf)
        .map_err(|e| WireError::Protocol(format!("error frame is not UTF-8: {e}")))?;
    match serde_json::from_str(text) {
        Ok(Response::Error(r)) => Err(rejected(r)),
        Ok(other) => Err(unexpected("un-numbered error frame", &other)),
        Err(e) => Err(WireError::Protocol(format!("decoding error frame: {e}"))),
    }
}

/// The typed error a server-side rejection surfaces as.
fn rejected(r: Rejection) -> WireError {
    WireError::Rejected {
        kind: r.kind,
        message: r.message,
        retryable: r.retryable,
    }
}

fn unexpected(wanted: &str, got: &Response) -> WireError {
    WireError::Protocol(format!("expected `{wanted}` response, got {got:?}"))
}
