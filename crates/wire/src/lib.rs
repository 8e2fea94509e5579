//! # smartpick-wire
//!
//! The network front-end for **smartpickd**: the paper ships Workload
//! Prediction as a standalone server other serverless data-analytics
//! systems call over Thrift RPC (§5); this crate is that serving
//! boundary for [`smartpick_service::SmartpickService`] — a framed
//! TCP protocol (id-tagged v3 frames carrying the binary codec of
//! [`codec`]), one server core (the readiness-driven [`reactor`] event
//! loop multiplexing thousands of nonblocking connections), and a typed
//! [`WireClient`] with blocking calls and a non-blocking
//! `submit`/`recv` pipelining surface.
//!
//! The normative protocol specification — framing, back-pressure, error
//! taxonomy, versioning policy — is `docs/WIRE.md` at the repo root.
//!
//! ## Frame format
//!
//! ```text
//! v3:  +---------+---------------------+-------------------------+----------------+
//!      | u8 = 3  | u64 request id (BE) | u32 payload length (BE) | binary payload |
//!      +---------+---------------------+-------------------------+----------------+
//!
//! un-numbered (connection-level errors only, server to client):
//!      +---------+-------------------------+------------------------+
//!      | u8 = 1  | u32 payload length (BE) | payload (JSON, UTF-8)  |
//!      +---------+-------------------------+------------------------+
//! ```
//!
//! One connection keeps many requests in flight: responses come back in
//! completion order, each naming the request id it answers, and at the
//! per-connection in-flight cap the server stops reading the socket
//! until responses drain (flow control, not rejection). Every request
//! gets exactly one response; a determination is asked for one query
//! at a time (`determine` or `predict`), and pipelining is how a caller
//! keeps many of them in flight. Generations v1 (un-numbered request
//! frames) and v2 (id-tagged JSON) are retired: their version bytes get
//! a `protocol` error and a close, and v1's layout survives only as the
//! error frame for conditions that answer no particular request
//! (connection cap, framing violations).
//!
//! See [`frame`] for the version byte and the max-frame-size guard,
//! [`proto`] for the request/response envelopes, and [`error`] for the
//! typed failures. One bad frame never kills the listener: a frame with
//! a garbage *payload* only fails its own request id — length framing
//! keeps the stream in sync; framing-level garbage (bad version,
//! oversized length) gets an error frame and a close of that one
//! connection.
//!
//! One number-model caveat: the codec carries every number as an `f64`
//! (the vendored serde shim's number model), so integers above 2⁵³
//! (seeds, very large counters) lose precision on the wire. Keep wire
//! seeds below 2⁵³ when exact wire/in-process reproducibility matters.
//!
//! ## Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use smartpick_cloudsim::{CloudEnv, Provider};
//! use smartpick_core::driver::Smartpick;
//! use smartpick_core::properties::SmartpickProperties;
//! use smartpick_service::SmartpickService;
//! use smartpick_wire::{WireClient, WireServer, WireServerConfig};
//! use smartpick_workloads::tpcds;
//!
//! let training: Vec<_> = tpcds::TRAINING_QUERIES
//!     .iter()
//!     .map(|&q| tpcds::query(q, 100.0).expect("catalog query"))
//!     .collect();
//! let template = Smartpick::train(
//!     CloudEnv::new(Provider::Aws),
//!     SmartpickProperties::default(),
//!     &training,
//!     42,
//! )?;
//! let service = Arc::new(SmartpickService::with_defaults());
//! let server = WireServer::bind(
//!     "127.0.0.1:0",
//!     Arc::clone(&service),
//!     template,
//!     WireServerConfig::default(),
//! )?;
//!
//! let mut client = WireClient::connect(server.local_addr())?;
//! client.register_tenant("acme", 7)?;
//! let query = tpcds::query(11, 100.0).expect("catalog query");
//! let det = client.determine("acme", &query, 99)?;
//! println!("{} predicted {:.1}s", det.allocation, det.predicted_seconds);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
// Clippy agrees with smartpick-lint's panic-free-server-paths rule:
// non-test code must not panic; exceptions carry an explicit
// `#[allow]` next to their `lint:allow` so both tools share one list.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod client;
pub mod codec;
pub mod error;
pub mod frame;
pub mod proto;
pub mod reactor;
pub mod server;

pub use client::{WireClient, WireReceiver, WireSender};
pub use error::{ErrorKind, WireError};
pub use frame::{FrameHeader, DEFAULT_MAX_FRAME_LEN, PROTOCOL_V3, PROTOCOL_VERSION};
pub use proto::{Rejection, Request, Response};
pub use server::{WireServer, WireServerConfig};
