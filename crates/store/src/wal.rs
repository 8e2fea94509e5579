//! The append-only write-ahead log of accepted completed-run reports.
//!
//! One WAL file per retrain-worker shard (`wal/shard-<k>.wal`), so WAL
//! appends inherit the service's shard parallelism: a shard's single
//! worker is the only appender to its file, and a tenant's records stay
//! in order because its reports always route to the same shard.
//!
//! File layout:
//!
//! ```text
//! magic   8 bytes  "SPWAL1\0\0"
//! record* each:
//!   length  u32 BE   payload byte count
//!   crc     u32 BE   CRC-32 (IEEE) of the payload bytes
//!   payload length bytes
//! ```
//!
//! Three payload kinds, each `kind u8 | tenant str | epoch u64 | body`:
//!
//! ```text
//! 0x01 Report: run_id u64 | run_json str            (legacy, opaque)
//! 0x02 Commit: generation u64 | watermark u64
//! 0x03 Sample: run_id u64 | query_id str | input_gb f64
//!              | n_vm u32 | n_sl u32
//!              | predicted_seconds f64 | actual_seconds f64 | cost_dollars f64
//!              | matched_query str | has_profile u8 (0 | 1) | [profile]
//!     profile: id str | sql str | input_gb f64 | n_stages u32 | stage*
//!     stage:   name str | tasks u64 | cpu_ms f64 | input_mib f64
//!              | shuffle_mib f64 | n_deps u32 | dep u64*
//! ```
//!
//! A **Sample** — the [`RunSample`] `apply_sample` reads, floats as raw
//! bits — is appended (and fsynced per [`FsyncPolicy`]) *before* its run
//! is applied to the driver; a **Commit** is appended after the batch's
//! snapshot publish, recording exactly which generation the publish
//! produced — replay uses Commits to republish at the same points the
//! original run did, so a recovered tenant lands on the same generation
//! number, not merely the same model. A **Report** is what the service
//! logged before kind `0x03` existed: a `CompletedRun` as JSON, which
//! this crate frames and scans but never looks inside; nothing replays
//! it.
//!
//! The scanner ([`scan_wal`]) is torn-tolerant by construction: it walks
//! records forward and stops at the first length prefix, CRC, or payload
//! that does not check out, returning exactly the longest valid prefix —
//! the property `tests/wal_truncation.rs` proves at every byte offset.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use smartpick_core::RunSample;
use smartpick_engine::{QueryProfile, StageProfile};

use crate::codec::{put_bool, put_f64, put_str, put_u32, put_u64, put_u8, Reader};
use crate::crc::crc32;
use crate::error::StoreError;
use crate::snapshot::SnapshotMeta;

/// The 8-byte WAL file magic.
pub const MAGIC: &[u8; 8] = b"SPWAL1\0\0";

const KIND_REPORT: u8 = 0x01;
const KIND_COMMIT: u8 = 0x02;
const KIND_SAMPLE: u8 = 0x03;

/// When appended records are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record: strongest durability, slowest appends.
    PerRecord,
    /// `fsync` once per applied batch (the default): a crash can lose at
    /// most the final, unsynced batch — which was not yet applied-and-
    /// acknowledged anyway.
    PerBatch,
    /// Never `fsync`; leave flushing to the OS. For tests and throwaway
    /// environments.
    Never,
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The owning tenant.
    pub tenant: String,
    /// The tenant registration epoch the record was written under.
    pub epoch: u64,
    /// What the record says.
    pub payload: WalPayload,
}

/// The record kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum WalPayload {
    /// An accepted completed-run report in the form the service logged
    /// before [`WalPayload::Sample`]: still framed, scanned and compacted
    /// like one, never replayed.
    Report {
        /// The run id assigned at enqueue.
        run_id: u64,
        /// The `CompletedRun` as JSON, opaque to this crate.
        run_json: String,
    },
    /// An accepted completed-run report, logged before its apply.
    Sample {
        /// The run id assigned at enqueue (idempotency key for replay).
        run_id: u64,
        /// What `apply_sample` reads of the run.
        sample: RunSample,
    },
    /// A snapshot publish that covered every report up to `watermark`.
    Commit {
        /// The generation the publish produced.
        generation: u64,
        /// The highest run id applied when it happened.
        watermark: u64,
    },
}

impl WalRecord {
    /// Encodes this record's payload (not the length/CRC framing).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match &self.payload {
            WalPayload::Report { run_id, run_json } => {
                put_u8(&mut out, KIND_REPORT);
                put_str(&mut out, &self.tenant);
                put_u64(&mut out, self.epoch);
                put_u64(&mut out, *run_id);
                put_str(&mut out, run_json);
            }
            WalPayload::Commit {
                generation,
                watermark,
            } => {
                put_u8(&mut out, KIND_COMMIT);
                put_str(&mut out, &self.tenant);
                put_u64(&mut out, self.epoch);
                put_u64(&mut out, *generation);
                put_u64(&mut out, *watermark);
            }
            WalPayload::Sample { run_id, sample } => {
                return WalRecord::sample_payload(&self.tenant, self.epoch, *run_id, sample);
            }
        }
        out
    }

    /// The payload of a [`WalPayload::Sample`] record from borrowed
    /// parts: what [`WalRecord::encode_payload`] yields for that record,
    /// for an appender that has no use for an owned one.
    pub fn sample_payload(tenant: &str, epoch: u64, run_id: u64, sample: &RunSample) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        put_u8(&mut out, KIND_SAMPLE);
        put_str(&mut out, tenant);
        put_u64(&mut out, epoch);
        put_u64(&mut out, run_id);
        encode_sample(sample, &mut out);
        out
    }

    /// Decodes one record payload.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on an unknown kind, truncation, or
    /// trailing bytes. Never panics.
    pub fn decode_payload(bytes: &[u8]) -> Result<WalRecord, StoreError> {
        let mut r = Reader::new(bytes);
        let kind = r.u8()?;
        let tenant = r.str()?;
        let epoch = r.u64()?;
        let record = match kind {
            KIND_REPORT => WalRecord {
                tenant,
                epoch,
                payload: WalPayload::Report {
                    run_id: r.u64()?,
                    run_json: r.str()?,
                },
            },
            KIND_COMMIT => WalRecord {
                tenant,
                epoch,
                payload: WalPayload::Commit {
                    generation: r.u64()?,
                    watermark: r.u64()?,
                },
            },
            KIND_SAMPLE => WalRecord {
                tenant,
                epoch,
                payload: WalPayload::Sample {
                    run_id: r.u64()?,
                    sample: decode_sample(&mut r)?,
                },
            },
            other => {
                return Err(StoreError::Corrupt(format!(
                    "unknown WAL record kind {other:#04x}"
                )))
            }
        };
        r.finish()?;
        Ok(record)
    }

    /// Whether this record lies past `snapshot`: written under the same
    /// registration epoch, and a run the snapshot has not consumed or the
    /// commit of a generation it has not reached. The tenant is the
    /// caller's to match. The one rule for "still needed": recovery
    /// replays exactly these onto the snapshot it loaded, and a rewrite
    /// of the log keeps exactly these against the oldest retained one.
    pub fn is_past(&self, snapshot: &SnapshotMeta) -> bool {
        self.epoch == snapshot.epoch
            && match &self.payload {
                WalPayload::Report { run_id, .. } | WalPayload::Sample { run_id, .. } => {
                    *run_id > snapshot.watermark
                }
                WalPayload::Commit { generation, .. } => *generation > snapshot.generation,
            }
    }

    /// Frames `payload` as it appears on disk (`len | crc | payload`).
    pub fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload.len() + 8);
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&crc32(payload).to_be_bytes());
        out.extend_from_slice(payload);
        out
    }
}

fn encode_sample(s: &RunSample, out: &mut Vec<u8>) {
    put_str(out, &s.query_id);
    put_f64(out, s.input_gb);
    put_u32(out, s.n_vm);
    put_u32(out, s.n_sl);
    put_f64(out, s.predicted_seconds);
    put_f64(out, s.actual_seconds);
    put_f64(out, s.cost_dollars);
    put_str(out, &s.matched_query);
    put_bool(out, s.profile.is_some());
    if let Some(profile) = &s.profile {
        put_str(out, &profile.id);
        put_str(out, &profile.sql);
        put_f64(out, profile.input_gb);
        put_u32(out, profile.stages.len() as u32);
        for stage in &profile.stages {
            put_str(out, &stage.name);
            put_u64(out, stage.tasks as u64);
            put_f64(out, stage.cpu_ms_per_task);
            put_f64(out, stage.input_mib_per_task);
            put_f64(out, stage.shuffle_mib_per_task);
            put_u32(out, stage.deps.len() as u32);
            for &dep in &stage.deps {
                put_u64(out, dep as u64);
            }
        }
    }
}

fn decode_sample(r: &mut Reader<'_>) -> Result<RunSample, StoreError> {
    Ok(RunSample {
        query_id: r.str()?,
        input_gb: r.f64()?,
        n_vm: r.u32()?,
        n_sl: r.u32()?,
        predicted_seconds: r.f64()?,
        actual_seconds: r.f64()?,
        cost_dollars: r.f64()?,
        matched_query: r.str()?,
        profile: if r.bool("has_profile")? {
            Some(decode_profile(r)?)
        } else {
            None
        },
    })
}

fn decode_profile(r: &mut Reader<'_>) -> Result<QueryProfile, StoreError> {
    let id = r.str()?;
    let sql = r.str()?;
    let input_gb = r.f64()?;
    // Every stage costs ≥ 4 (name length) + 8*4 (numbers) + 4 (dep count).
    let n_stages = r.count(40)?;
    let mut stages = Vec::with_capacity(n_stages);
    for _ in 0..n_stages {
        let name = r.str()?;
        let tasks = r.usize("task count")?;
        let cpu_ms_per_task = r.f64()?;
        let input_mib_per_task = r.f64()?;
        let shuffle_mib_per_task = r.f64()?;
        let n_deps = r.count(8)?;
        let mut deps = Vec::with_capacity(n_deps);
        for _ in 0..n_deps {
            deps.push(r.usize("stage dependency")?);
        }
        stages.push(StageProfile {
            name,
            tasks,
            cpu_ms_per_task,
            input_mib_per_task,
            shuffle_mib_per_task,
            deps,
        });
    }
    Ok(QueryProfile {
        id,
        sql,
        input_gb,
        stages,
    })
}

/// What a torn-tolerant scan found.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Every record in the longest valid prefix, in file order.
    pub records: Vec<WalRecord>,
    /// Byte length of that prefix (including the magic) — truncating the
    /// file here drops exactly the torn tail.
    pub valid_len: u64,
    /// Why scanning stopped early, if it did (`None` = the whole file
    /// was valid).
    pub torn: Option<String>,
}

/// Scans WAL `bytes` forward, returning the longest valid prefix.
///
/// Never fails on a damaged *tail* — that is the torn-write case the WAL
/// exists to tolerate — but does reject a file whose *head* is not a WAL
/// at all (missing/should-not-happen magic), which distinguishes "crashed
/// mid-append" from "this is not our file".
///
/// # Errors
///
/// [`StoreError::Corrupt`] only when the magic itself is wrong. Never
/// panics.
pub fn scan_wal(bytes: &[u8]) -> Result<WalScan, StoreError> {
    let mut frames = WalFrames::open(bytes, bytes.len() as u64)?;
    let mut records = Vec::new();
    while let Some(frame) = frames.next_frame()? {
        records.push(frame.record);
    }
    Ok(WalScan {
        records,
        valid_len: frames.valid_len,
        torn: frames.torn,
    })
}

/// One record of a WAL's valid prefix, as [`WalFrames`] hands it out:
/// decoded, plus the exact bytes it occupies on disk so a rewrite can
/// copy the frame instead of re-encoding it.
#[derive(Debug)]
pub(crate) struct WalFrame<'a> {
    /// The decoded record.
    pub(crate) record: WalRecord,
    /// The frame's `len | crc` prefix as read.
    pub(crate) header: [u8; 8],
    /// The frame's payload bytes as read (CRC-checked).
    pub(crate) payload: &'a [u8],
}

/// The one walker over a WAL's longest valid prefix, one record at a
/// time: [`scan_wal`] collects it from a byte slice, and
/// [`crate::Store::compact_wal`] streams it from the file — so what a
/// rewrite keeps and what a scan sees stop at the same byte, and a walk
/// holds one record in memory, not the log.
#[derive(Debug)]
pub(crate) struct WalFrames<R> {
    src: R,
    /// Source bytes not yet consumed. A length prefix is checked against
    /// this before anything is allocated for it.
    remaining: u64,
    payload: Vec<u8>,
    /// Byte length of the valid prefix walked so far (magic included).
    valid_len: u64,
    /// Why the walk stopped early, once it has (`None` = still going, or
    /// the whole source was valid).
    torn: Option<String>,
}

impl<R: Read> WalFrames<R> {
    /// Starts a walk over `src`, which holds `len` bytes. An empty source
    /// is a valid, empty WAL (a crash between create and the magic
    /// write); a source shorter than the magic is a torn one.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the magic is wrong,
    /// [`StoreError::Io`] when `src` cannot be read.
    pub(crate) fn open(src: R, len: u64) -> Result<Self, StoreError> {
        let mut frames = WalFrames {
            src,
            remaining: len,
            payload: Vec::new(),
            valid_len: 0,
            torn: None,
        };
        if len == 0 {
            return Ok(frames);
        }
        if len < MAGIC.len() as u64 {
            frames.torn = Some(format!("magic torn at {len} bytes"));
            frames.remaining = 0;
            return Ok(frames);
        }
        let mut magic = [0u8; 8];
        frames
            .src
            .read_exact(&mut magic)
            .map_err(StoreError::from)?;
        if &magic != MAGIC {
            return Err(StoreError::Corrupt("bad WAL magic".into()));
        }
        frames.remaining -= MAGIC.len() as u64;
        frames.valid_len = MAGIC.len() as u64;
        Ok(frames)
    }

    /// The next record of the valid prefix, or `None` at its end — the
    /// end of the source, or the first length prefix, CRC or payload that
    /// does not check out (then `torn` says which).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when `src` cannot be read. Damage is not an
    /// error.
    pub(crate) fn next_frame(&mut self) -> Result<Option<WalFrame<'_>>, StoreError> {
        if self.remaining == 0 || self.torn.is_some() {
            return Ok(None);
        }
        let pos = self.valid_len;
        if self.remaining < 8 {
            self.torn = Some(format!("record header torn at offset {pos}"));
            return Ok(None);
        }
        let mut header = [0u8; 8];
        self.src.read_exact(&mut header).map_err(StoreError::from)?;
        let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
        let want_crc = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
        if u64::from(len) > self.remaining - 8 {
            self.torn = Some(format!(
                "record payload torn at offset {pos} (wanted {len} bytes)"
            ));
            return Ok(None);
        }
        self.payload.resize(len as usize, 0);
        self.src
            .read_exact(&mut self.payload)
            .map_err(StoreError::from)?;
        if crc32(&self.payload) != want_crc {
            self.torn = Some(format!("record CRC mismatch at offset {pos}"));
            return Ok(None);
        }
        let record = match WalRecord::decode_payload(&self.payload) {
            Ok(record) => record,
            Err(e) => {
                self.torn = Some(format!("malformed record at offset {pos}: {e}"));
                return Ok(None);
            }
        };
        let frame_len = 8 + u64::from(len);
        self.remaining -= frame_len;
        self.valid_len += frame_len;
        Ok(Some(WalFrame {
            record,
            header,
            payload: &self.payload,
        }))
    }
}

/// An append handle on one shard's WAL file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    policy: FsyncPolicy,
    bytes_written: u64,
    file_len: u64,
    /// Appended bytes no `sync_data` has covered yet.
    dirty: bool,
    syncs: u64,
}

impl WalWriter {
    /// Opens (creating or appending to) the WAL at `path`. A new file
    /// gets the magic written and synced immediately; an existing file is
    /// appended to past its current end — the caller is expected to have
    /// scanned and truncated any torn tail first (see
    /// [`crate::Store::open_wal`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the file cannot be opened or the magic
    /// cannot be written.
    pub fn open(path: &Path, policy: FsyncPolicy) -> Result<WalWriter, StoreError> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(StoreError::from)?;
        let len = file.metadata().map_err(StoreError::from)?.len();
        let file_len = if len == 0 {
            file.write_all(MAGIC).map_err(StoreError::from)?;
            file.sync_data().map_err(StoreError::from)?;
            MAGIC.len() as u64
        } else {
            len
        };
        Ok(WalWriter {
            file,
            policy,
            bytes_written: 0,
            file_len,
            dirty: false,
            syncs: 0,
        })
    }

    /// Appends one record, framing and checksumming `payload`, syncing
    /// per the policy ([`FsyncPolicy::PerRecord`] syncs here; the others
    /// wait for [`WalWriter::sync`] or the OS).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on a failed write/sync.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        let framed = WalRecord::frame(payload);
        self.file.write_all(&framed).map_err(StoreError::from)?;
        self.bytes_written += framed.len() as u64;
        self.file_len += framed.len() as u64;
        self.dirty = true;
        if self.policy == FsyncPolicy::PerRecord {
            self.sync()?;
        }
        Ok(())
    }

    /// Flushes appended records to stable storage: one `fdatasync` when
    /// anything was appended since the last one, nothing otherwise (and
    /// never under [`FsyncPolicy::Never`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on a failed sync.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.dirty && self.policy != FsyncPolicy::Never {
            self.file.sync_data().map_err(StoreError::from)?;
            self.syncs += 1;
            self.dirty = false;
        }
        Ok(())
    }

    /// `fdatasync` calls made through this handle (for the
    /// `store.wal_syncs` counter).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Bytes appended through this handle (for the `store.*` counters).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// The file's current byte length (magic included) — the compaction
    /// trigger compares this against its threshold.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(tenant: &str, run_id: u64) -> WalRecord {
        WalRecord {
            tenant: tenant.into(),
            epoch: 3,
            payload: WalPayload::Report {
                run_id,
                run_json: format!("{{\"run\":{run_id}}}"),
            },
        }
    }

    fn commit(tenant: &str, generation: u64, watermark: u64) -> WalRecord {
        WalRecord {
            tenant: tenant.into(),
            epoch: 3,
            payload: WalPayload::Commit {
                generation,
                watermark,
            },
        }
    }

    fn wal_bytes(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for r in records {
            bytes.extend_from_slice(&WalRecord::frame(&r.encode_payload()));
        }
        bytes
    }

    fn sample(tenant: &str, run_id: u64) -> WalRecord {
        WalRecord {
            tenant: tenant.into(),
            epoch: 3,
            payload: WalPayload::Sample {
                run_id,
                sample: RunSample {
                    query_id: "tpcds-q62".into(),
                    input_gb: 100.0,
                    n_vm: 2,
                    n_sl: 3,
                    predicted_seconds: 80.0,
                    actual_seconds: 131.5,
                    cost_dollars: -0.0,
                    matched_query: "tpcds-q68".into(),
                    profile: Some(QueryProfile::uniform("tpcds-q62", 2, 8, 120.0, 64.0, 16.0)),
                },
            },
        }
    }

    #[test]
    fn records_round_trip() {
        for r in [report("acme", 7), commit("acme", 2, 7), sample("acme", 8)] {
            let payload = r.encode_payload();
            assert_eq!(WalRecord::decode_payload(&payload).unwrap(), r);
        }
    }

    #[test]
    fn scan_recovers_whole_valid_files() {
        let records = vec![report("a", 1), report("b", 1), commit("a", 1, 1)];
        let bytes = wal_bytes(&records);
        let scan = scan_wal(&bytes).unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert!(scan.torn.is_none());
        // Empty and magic-only files are valid, empty WALs.
        assert_eq!(scan_wal(&[]).unwrap().records.len(), 0);
        let magic_only = scan_wal(MAGIC).unwrap();
        assert!(magic_only.torn.is_none());
        assert_eq!(magic_only.valid_len, 8);
    }

    #[test]
    fn scan_stops_at_corrupt_records_keeping_the_prefix() {
        let records = vec![report("a", 1), report("a", 2)];
        let mut bytes = wal_bytes(&records);
        let good_len = bytes.len();
        // A record whose CRC lies.
        let bad = WalRecord::frame(&report("a", 3).encode_payload());
        let corrupt_at = bytes.len() + 8 + 2;
        bytes.extend_from_slice(&bad);
        bytes[corrupt_at] ^= 0xFF;
        let scan = scan_wal(&bytes).unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.valid_len, good_len as u64);
        assert!(scan.torn.unwrap().contains("CRC"));
    }

    #[test]
    fn scan_rejects_non_wal_files_but_tolerates_torn_magic() {
        assert!(scan_wal(b"NOTAWAL!rest").is_err());
        let scan = scan_wal(&MAGIC[..4]).unwrap();
        assert_eq!(scan.valid_len, 0);
        assert!(scan.torn.unwrap().contains("magic"));
    }

    #[test]
    fn writer_appends_scannable_records_across_reopens() {
        let dir =
            std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("smartpick-wal-unit-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut w = WalWriter::open(&path, FsyncPolicy::PerRecord).unwrap();
            w.append(&report("a", 1).encode_payload()).unwrap();
            assert!(w.bytes_written() > 0);
        }
        {
            let mut w = WalWriter::open(&path, FsyncPolicy::PerBatch).unwrap();
            w.append(&commit("a", 1, 1).encode_payload()).unwrap();
            w.sync().unwrap();
            assert_eq!(w.file_len(), std::fs::metadata(&path).unwrap().len());
        }
        let scan = scan_wal(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(scan.torn.is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_walk_holds_one_record_not_the_log() {
        // 2000 records of ~100 bytes: a 200 KB log.
        let records: Vec<_> = (1..=2000).map(|i| report("tenant", i)).collect();
        let mut bytes = wal_bytes(&records);
        let largest = records
            .iter()
            .map(|r| r.encode_payload().len())
            .max()
            .unwrap();
        // A length prefix claiming more than the source holds is refused
        // before anything is allocated for it.
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.extend_from_slice(&[0; 12]);
        let mut frames = WalFrames::open(&bytes[..], bytes.len() as u64).unwrap();
        let mut walked = 0;
        while frames.next_frame().unwrap().is_some() {
            walked += 1;
        }
        assert_eq!(walked, records.len());
        assert!(frames.torn.as_deref().unwrap().contains("payload torn"));
        assert!(
            frames.payload.capacity() <= 2 * largest,
            "the walk's buffer holds {} bytes for records of at most {largest}",
            frames.payload.capacity()
        );
    }

    #[test]
    fn sync_touches_the_disk_once_per_dirty_span() {
        let dir =
            std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"));
        std::fs::create_dir_all(&dir).unwrap();
        let open = |policy| {
            let path = dir.join(format!("smartpick-wal-syncs-{}.wal", std::process::id()));
            let _ = std::fs::remove_file(&path);
            WalWriter::open(&path, policy).unwrap()
        };
        let mut w = open(FsyncPolicy::PerBatch);
        w.sync().unwrap();
        assert_eq!(w.syncs(), 0, "nothing appended, nothing to sync");
        for i in 1..=3 {
            w.append(&report("a", i).encode_payload()).unwrap();
        }
        w.sync().unwrap();
        w.sync().unwrap();
        assert_eq!(w.syncs(), 1, "one sync covers the three appends");
        let mut w = open(FsyncPolicy::PerRecord);
        for i in 1..=3 {
            w.append(&report("a", i).encode_payload()).unwrap();
        }
        w.sync().unwrap();
        assert_eq!(w.syncs(), 3, "each append synced itself");
        let mut w = open(FsyncPolicy::Never);
        w.append(&report("a", 1).encode_payload()).unwrap();
        w.sync().unwrap();
        assert_eq!(w.syncs(), 0);
    }
}
