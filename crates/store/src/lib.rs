//! # smartpick-store
//!
//! Durable tenant state for smartpickd: the on-disk layer behind
//! `SmartpickService::open` — compact binary **snapshots** of each
//! tenant's full driver checkpoint, an append-only per-shard **WAL** of
//! accepted completed-run reports (each as the
//! [`smartpick_core::RunSample`] the driver applies), and the
//! **crash-recovery** primitives
//! (torn-tail-tolerant scans, corrupt-snapshot quarantine, WAL
//! compaction) the service's startup path composes.
//!
//! Layering: this crate sits *below* the service and *beside* the core —
//! it encodes [`smartpick_core::persist::DriverState`] (the driver's own
//! parts, the published predictor among them) and decodes straight back
//! into them through the core's validating constructors, and knows
//! nothing about threads, queues, events, or metrics. The service decides
//! *when* to persist, *what* to replay, and reports both through
//! `smartpick-obs`; this crate only makes bytes durable and turns them
//! back into the driver's parts, totally and without panicking — every
//! decode path is bounds-checked and CRC-verified in the style of
//! `smartpick_wire::codec`, and a model the core refuses is corrupt. Both file
//! formats are this crate's own binary end to end; it links no
//! serialisation library.
//!
//! On-disk layout under a store root (see `docs/PERSISTENCE.md` for the
//! byte-level formats):
//!
//! ```text
//! <root>/
//!   tenants/<enc-id>/snap-<generation>.snap   versioned, CRC-checked
//!   tenants/<enc-id>/quarantine/              corrupt files moved aside
//!   wal/shard-<k>.wal                         length-prefixed records
//! ```
//!
//! * [`snapshot`] — the snapshot codec: `SPSNAP1\0` magic, version,
//!   length-prefixed payload, trailing CRC-32. Decoding arbitrary bytes
//!   never panics or over-reads; torn and truncated files are rejected.
//! * [`wal`] — the WAL record format (`len | crc | payload`), the
//!   [`wal::FsyncPolicy`] knob, and the torn-tolerant scanner that
//!   recovers exactly the longest valid prefix of any damaged file.
//! * [`store`] — the directory layer: atomic tmp+rename snapshot writes,
//!   keep-2 retention, quarantine moves, WAL open/scan/compact.
//! * [`codec`] — the shared little write/read primitives (big-endian
//!   integers, f64 raw bits, length-prefixed strings).
//! * [`crc`] — CRC-32 (IEEE), the checksum both file formats use.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
// Clippy agrees with smartpick-lint's panic-free-server-paths rule:
// non-test code must not panic; exceptions carry an explicit
// `#[allow]` next to their `lint:allow` so both tools share one list.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod codec;
pub mod crc;
pub mod error;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use error::StoreError;
pub use snapshot::Snapshot;
pub use store::{LoadedSnapshot, Store};
pub use wal::{FsyncPolicy, WalPayload, WalRecord, WalScan, WalWriter};
