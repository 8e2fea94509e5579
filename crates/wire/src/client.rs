//! The typed client: blocking one-method-per-request calls plus the
//! pipelined surface they ride on — a non-blocking
//! [`WireClient::submit`]/[`WireClient::recv`] pair, the batched
//! [`WireClient::determine_many`], and [`WireClient::split`] into
//! independently-owned send/receive halves for cross-thread pipelining.
//! Every request travels in an id-tagged frame: v2 (JSON) until
//! [`WireClient::negotiate_binary`] upgrades the connection to v3.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use smartpick_core::wp::{Determination, PredictionRequest};
use smartpick_engine::QueryProfile;
use smartpick_obs::{HealthReport, ScrapeEnvelope};
use smartpick_service::{CompletedRun, ServiceStats, TenantStats};

use crate::codec::{self, Codec};
use crate::error::{ErrorKind, WireError};
use crate::frame::{
    read_frame_any_into, write_frame_v2_buffered, write_frame_v3_buffered, FrameError,
    DEFAULT_MAX_FRAME_LEN,
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
/// steady-state call allocates nothing for framing: the request JSON is
/// rendered into a held `String`, framed through a held `Vec<u8>`, and
/// the response payload lands in a third held buffer.
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    max_frame_len: usize,
    /// The codec this client frames requests in. Starts as JSON (every
    /// server generation understands it); [`WireClient::negotiate_binary`]
    /// upgrades it when the server echoes binary back.
    codec: Codec,
    /// Request-JSON scratch, reused across calls.
    encode_buf: String,
    /// Request binary-payload scratch, reused across calls.
    bin_buf: Vec<u8>,
    /// Outbound frame assembly scratch, reused across calls.
    frame_buf: Vec<u8>,
    /// Inbound payload scratch, reused across calls.
    read_buf: Vec<u8>,
    /// The next pipelined request id.
    next_id: u64,
    /// The deadline configured via [`WireClient::set_io_timeout`],
    /// remembered so the fallback reconnect after a failed binary probe
    /// keeps the same read/write bounds.
    io_timeout: Option<Duration>,
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
            codec: Codec::Json,
            encode_buf: String::new(),
            bin_buf: Vec::new(),
            frame_buf: Vec::new(),
            read_buf: Vec::new(),
            next_id: 0,
            io_timeout: None,
        }
    }

    /// The codec this client currently frames requests in.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Tries to upgrade this connection to the binary codec (v3
    /// frames), returning whether the upgrade took.
    ///
    /// The negotiation is one probe: a binary `ping`. A server that
    /// speaks v3 answers it in kind (the version byte of each frame *is*
    /// the negotiation — there is no separate handshake message), and
    /// every later request from this client is framed as binary. A
    /// pre-v3 server treats the unknown version byte as a framing
    /// violation: it answers with an un-numbered `protocol` error and
    /// closes the connection — in that case this client reconnects to
    /// the same address and stays on JSON, so the call is safe against
    /// servers of any generation. Don't call it while pipelined requests
    /// are outstanding.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use smartpick_wire::{Codec, WireClient};
    ///
    /// let mut client = WireClient::connect("127.0.0.1:7171")?;
    /// if client.negotiate_binary()? {
    ///     assert_eq!(client.codec(), Codec::Binary);
    /// }
    /// // Either way every call keeps working; only the codec differs.
    /// client.ping()?;
    /// # Ok::<(), smartpick_wire::WireError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// A server at its connection cap answers the probe with a
    /// retryable `busy` rejection, returned as such (the connection is
    /// gone; reconnect later). Otherwise socket failures during the
    /// fallback reconnect.
    pub fn negotiate_binary(&mut self) -> Result<bool, WireError> {
        let peer = self.stream.peer_addr().map_err(WireError::Io)?;
        let sent = submit_on(
            &mut self.stream,
            Codec::Binary,
            &mut self.encode_buf,
            &mut self.bin_buf,
            &mut self.frame_buf,
            &mut self.next_id,
            &Request::Ping,
        );
        match sent.and_then(|id| Ok((id, self.recv()?))) {
            Ok((id, (got, Response::Pong))) if got == id => {
                self.codec = Codec::Binary;
                Ok(true)
            }
            Err(
                busy @ WireError::Rejected {
                    kind: ErrorKind::Busy,
                    ..
                },
            ) => Err(busy),
            // Old server: an un-numbered `protocol` error frame (then
            // close), or the close alone surfacing as an I/O error.
            // Either way the stream is gone — reconnect and stay on JSON.
            Ok(_) | Err(_) => self.reconnect_json(&peer),
        }
    }

    /// Falls back to a fresh JSON connection after a failed binary
    /// probe (the old server closed our stream).
    fn reconnect_json(&mut self, peer: &SocketAddr) -> Result<bool, WireError> {
        let stream = TcpStream::connect(peer)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(self.io_timeout)?;
        stream.set_write_timeout(self.io_timeout)?;
        self.stream = stream;
        self.codec = Codec::Json;
        Ok(false)
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
        self.io_timeout = timeout;
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
        tenant: impl Into<String>,
        query: &QueryProfile,
        seed: u64,
    ) -> Result<Determination, WireError> {
        let request = Request::Determine {
            tenant: tenant.into(),
            query: query.clone(),
            seed,
        };
        match self.call(&request)? {
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

    /// A point-in-time view of the whole service.
    ///
    /// # Errors
    ///
    /// See [`WireError`].
    pub fn service_stats(&mut self) -> Result<ServiceStats, WireError> {
        match self.call(&Request::ServiceStats)? {
            Response::ServiceStats(s) => Ok(s),
            other => Err(unexpected("service_stats", &other)),
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

    /// Runs N full [`PredictionRequest`]s against `tenant` in **one**
    /// wire round trip, answered from one server-side snapshot read —
    /// results are identical to issuing each request through
    /// [`WireClient::predict`] individually (each keeps its own
    /// knob/constraint/seed), but framing, payload encoding, and
    /// snapshot acquisition are paid once for the whole batch.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use smartpick_core::wp::{ConstraintMode, PredictionRequest};
    /// use smartpick_wire::WireClient;
    /// use smartpick_workloads::tpcds;
    ///
    /// let mut client = WireClient::connect("127.0.0.1:7171")?;
    /// let query = tpcds::query(11, 100.0).expect("catalog query");
    /// let requests: Vec<_> = (0..8)
    ///     .map(|seed| PredictionRequest {
    ///         query: query.clone(),
    ///         knob: 0.5,
    ///         constraint: ConstraintMode::Hybrid,
    ///         seed,
    ///     })
    ///     .collect();
    /// let determinations = client.determine_many("acme", requests)?;
    /// assert_eq!(determinations.len(), 8);
    /// # Ok::<(), smartpick_wire::WireError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// See [`WireError`]; the batch fails whole (no partial results).
    pub fn determine_many(
        &mut self,
        tenant: impl Into<String>,
        requests: Vec<PredictionRequest>,
    ) -> Result<Vec<Determination>, WireError> {
        let request = Request::DetermineBatch {
            tenant: tenant.into(),
            requests,
        };
        match self.call(&request)? {
            Response::Determinations(ds) => Ok(ds),
            other => Err(unexpected("determinations", &other)),
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
        submit_on(
            &mut self.stream,
            self.codec,
            &mut self.encode_buf,
            &mut self.bin_buf,
            &mut self.frame_buf,
            &mut self.next_id,
            request,
        )
    }

    /// [`WireClient::submit`] for the common determine: hybrid search
    /// with the tenant's knob.
    ///
    /// # Errors
    ///
    /// See [`WireClient::submit`].
    pub fn submit_determine(
        &mut self,
        tenant: impl Into<String>,
        query: &QueryProfile,
        seed: u64,
    ) -> Result<u64, WireError> {
        self.submit(&Request::Determine {
            tenant: tenant.into(),
            query: query.clone(),
            seed,
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
                codec: self.codec,
                encode_buf: self.encode_buf,
                bin_buf: self.bin_buf,
                frame_buf: self.frame_buf,
                next_id: self.next_id,
            },
            WireReceiver {
                stream: read_stream,
                max_frame_len: self.max_frame_len,
                read_buf: self.read_buf,
            },
        ))
    }

    /// Runs N full [`PredictionRequest`]s against `tenant` with the
    /// results **streamed** back one frame per determination
    /// (`batch_item`, then a closing `batch_end`), instead of one giant
    /// response frame like [`WireClient::determine_many`]. Same answers,
    /// same single server-side snapshot read — but the first result is
    /// decodable before the last is computed, and no frame has to hold
    /// the whole batch. Don't interleave with outstanding pipelined
    /// submissions: this call drains responses until its own
    /// `batch_end`.
    ///
    /// # Errors
    ///
    /// See [`WireError`]; the batch fails whole (no partial results).
    pub fn determine_streamed(
        &mut self,
        tenant: impl Into<String>,
        requests: Vec<PredictionRequest>,
    ) -> Result<Vec<Determination>, WireError> {
        let expected = requests.len();
        let id = self.submit(&Request::DetermineStream {
            tenant: tenant.into(),
            requests,
        })?;
        let mut out: Vec<Option<Determination>> = Vec::new();
        out.resize_with(expected, || None);
        loop {
            let (got, response) = self.recv()?;
            if got != id {
                return Err(WireError::Protocol(format!(
                    "streamed batch {id} interleaved with response for {got}"
                )));
            }
            match response {
                Response::BatchItem {
                    index,
                    determination,
                } => {
                    let slot = out.get_mut(index as usize).ok_or_else(|| {
                        WireError::Protocol(format!(
                            "batch_item index {index} out of range for a {expected}-request batch"
                        ))
                    })?;
                    *slot = Some(*determination);
                }
                Response::BatchEnd { count } => {
                    if count as usize != expected {
                        return Err(WireError::Protocol(format!(
                            "batch_end reported {count} items, expected {expected}"
                        )));
                    }
                    let mut result = Vec::with_capacity(expected);
                    for (i, slot) in out.into_iter().enumerate() {
                        match slot {
                            Some(d) => result.push(d),
                            None => {
                                return Err(WireError::Protocol(format!(
                                    "batch_end arrived before item {i}"
                                )))
                            }
                        }
                    }
                    return Ok(result);
                }
                Response::Error(r) => return Err(rejected(r)),
                other => return Err(unexpected("batch_item or batch_end", &other)),
            }
        }
    }

    /// One request/response exchange; server-side rejections become
    /// [`WireError::Rejected`].
    fn call(&mut self, request: &Request) -> Result<Response, WireError> {
        let id = self.submit(request)?;
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
/// side, the codec, and the id sequence.
#[derive(Debug)]
pub struct WireSender {
    stream: TcpStream,
    codec: Codec,
    encode_buf: String,
    bin_buf: Vec<u8>,
    frame_buf: Vec<u8>,
    next_id: u64,
}

impl WireSender {
    /// See [`WireClient::submit`].
    ///
    /// # Errors
    ///
    /// Propagates encode and socket write failures.
    pub fn submit(&mut self, request: &Request) -> Result<u64, WireError> {
        submit_on(
            &mut self.stream,
            self.codec,
            &mut self.encode_buf,
            &mut self.bin_buf,
            &mut self.frame_buf,
            &mut self.next_id,
            request,
        )
    }

    /// See [`WireClient::submit_determine`].
    ///
    /// # Errors
    ///
    /// See [`WireSender::submit`].
    pub fn submit_determine(
        &mut self,
        tenant: impl Into<String>,
        query: &QueryProfile,
        seed: u64,
    ) -> Result<u64, WireError> {
        self.submit(&Request::Determine {
            tenant: tenant.into(),
            query: query.clone(),
            seed,
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

/// Encodes and writes one pipelined request frame — v2 (JSON) or v3
/// (binary) as `codec` dictates — assigning the next id (shared by
/// [`WireClient::submit`] and [`WireSender::submit`]). Both payload
/// encodings land in a caller-held scratch buffer, so steady-state
/// submission allocates nothing.
fn submit_on(
    stream: &mut TcpStream,
    codec: Codec,
    encode_buf: &mut String,
    bin_buf: &mut Vec<u8>,
    frame_buf: &mut Vec<u8>,
    next_id: &mut u64,
    request: &Request,
) -> Result<u64, WireError> {
    let id = *next_id;
    *next_id += 1;
    match codec {
        Codec::Json => {
            serde_json::to_string_into(request, encode_buf)
                .map_err(|e| WireError::Protocol(format!("encoding request: {e}")))?;
            write_frame_v2_buffered(stream, id, encode_buf.as_bytes(), frame_buf)?;
        }
        Codec::Binary => {
            codec::encode_envelope_into(request, bin_buf);
            write_frame_v3_buffered(stream, id, bin_buf, frame_buf)?;
        }
    }
    Ok(id)
}

/// Reads one response frame and decodes its envelope in whatever codec
/// the frame's version byte names (shared by [`WireClient::recv`] and
/// [`WireReceiver::recv`]) — so one receiver handles a server mixing v2
/// and v3 answers, and un-numbered connection-level error frames.
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
    let response = match header.codec() {
        Codec::Json => {
            let text = std::str::from_utf8(read_buf)
                .map_err(|e| WireError::Protocol(format!("response is not UTF-8: {e}")))?;
            serde_json::from_str(text)
                .map_err(|e| WireError::Protocol(format!("decoding response: {e}")))?
        }
        Codec::Binary => codec::decode_response(read_buf)
            .map_err(|e| WireError::Protocol(format!("decoding binary response: {e}")))?,
    };
    match (header.id, response) {
        (Some(id), response) => Ok((id, response)),
        (None, Response::Error(r)) => Err(rejected(r)),
        (None, other) => Err(unexpected("un-numbered error frame", &other)),
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
