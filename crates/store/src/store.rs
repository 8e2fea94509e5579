//! The directory layer: where snapshots and WALs live, and every
//! filesystem discipline recovery depends on.
//!
//! * **Atomic snapshot writes** — encode to `*.tmp`, `fsync`, rename into
//!   place, best-effort directory sync. A crash mid-write leaves a stale
//!   `.tmp` (ignored and cleaned on the next write), never a half-visible
//!   snapshot.
//! * **Keep-2 retention** — the two newest generations per tenant are
//!   retained. Two, not one: if the newest file turns out corrupt at
//!   recovery, the older one plus the WAL suffix past *its* watermark
//!   still reconstructs the tenant, which is also why WAL compaction
//!   floors at the *older* retained snapshot's watermark.
//! * **Quarantine, never delete** — a file that fails validation is moved
//!   into `quarantine/` with its bytes intact, so a corruption bug can be
//!   diagnosed after the fact; recovery then falls back instead of
//!   failing startup.
//! * **Torn-tail truncation on WAL open** — an append handle is only
//!   handed out after the file's torn tail (if any) has been cut at the
//!   longest valid prefix, so new records never land after garbage.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::error::StoreError;
use crate::snapshot::{Snapshot, SnapshotMeta};
use crate::wal::{scan_wal, FsyncPolicy, WalFrames, WalScan, WalWriter, MAGIC};

/// How many snapshot generations are retained per tenant.
pub const RETAINED_SNAPSHOTS: usize = 2;

/// Read and write buffer of a streaming WAL rewrite.
const COPY_BUF: usize = 64 << 10;

/// A handle on one store root directory. Cheap to clone (it is only the
/// paths); all state lives on disk.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

/// One tenant's newest valid snapshot, plus what was quarantined finding
/// it.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// The decoded snapshot, or `None` when no file validated.
    pub snapshot: Option<Snapshot>,
    /// File names moved into `quarantine/` because they failed
    /// validation (newest first, the order they were tried).
    pub quarantined: Vec<String>,
}

/// One shard WAL's scan result.
#[derive(Debug)]
pub struct ShardScan {
    /// The shard index parsed from the file name.
    pub shard: usize,
    /// The scan (longest valid prefix + torn-tail report).
    pub scan: WalScan,
}

/// What a compaction pass did to one shard WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Records kept (still ahead of some tenant's floor).
    pub kept: usize,
    /// Records dropped as redundant (covered by retained snapshots) or
    /// stale (deregistered tenant / earlier epoch).
    pub dropped: usize,
    /// File bytes before.
    pub bytes_before: u64,
    /// File bytes after.
    pub bytes_after: u64,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directories cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let root = root.into();
        fs::create_dir_all(root.join("tenants")).map_err(StoreError::from)?;
        fs::create_dir_all(root.join("wal")).map_err(StoreError::from)?;
        Ok(Store { root })
    }

    /// The root this store was opened at.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn tenant_dir(&self, tenant: &str) -> PathBuf {
        self.root.join("tenants").join(encode_tenant(tenant))
    }

    /// Where shard `shard`'s WAL lives.
    pub fn wal_path(&self, shard: usize) -> PathBuf {
        self.root.join("wal").join(format!("shard-{shard}.wal"))
    }

    // -----------------------------------------------------------------
    // Snapshots
    // -----------------------------------------------------------------

    /// Persists `snapshot` atomically and prunes old generations (keep
    /// [`RETAINED_SNAPSHOTS`]). Returns the encoded byte count.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure.
    pub fn persist_snapshot(&self, snapshot: &Snapshot) -> Result<u64, StoreError> {
        let dir = self.tenant_dir(&snapshot.tenant);
        fs::create_dir_all(&dir).map_err(StoreError::from)?;
        let bytes = snapshot.encode();
        let final_path = dir.join(format!("snap-{:020}.snap", snapshot.generation));
        let tmp_path = dir.join(format!("snap-{:020}.tmp", snapshot.generation));
        {
            let mut f = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&tmp_path)
                .map_err(StoreError::from)?;
            f.write_all(&bytes).map_err(StoreError::from)?;
            f.sync_data().map_err(StoreError::from)?;
        }
        fs::rename(&tmp_path, &final_path).map_err(StoreError::from)?;
        sync_dir(&dir);
        self.prune_snapshots(&dir)?;
        Ok(bytes.len() as u64)
    }

    /// Deletes snapshots beyond the newest [`RETAINED_SNAPSHOTS`], plus
    /// any stale `.tmp` leftovers from crashed writes — one listing of the
    /// directory serves both.
    fn prune_snapshots(&self, dir: &Path) -> Result<(), StoreError> {
        let mut snaps = Vec::new();
        for entry in fs::read_dir(dir).map_err(StoreError::from)? {
            let path = entry.map_err(StoreError::from)?.path();
            if let Some(generation) = snapshot_generation(&path) {
                snaps.push((generation, path));
            } else if path.extension().is_some_and(|e| e == "tmp") {
                let _ = fs::remove_file(path);
            }
        }
        // Newest first.
        snaps.sort_by_key(|s| std::cmp::Reverse(s.0));
        for (_, path) in snaps.into_iter().skip(RETAINED_SNAPSHOTS) {
            fs::remove_file(path).map_err(StoreError::from)?;
        }
        Ok(())
    }

    /// Every tenant id that has a directory in the store.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the tenants directory cannot be listed.
    pub fn tenant_ids(&self) -> Result<Vec<String>, StoreError> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(self.root.join("tenants")).map_err(StoreError::from)? {
            let entry = entry.map_err(StoreError::from)?;
            if entry.file_type().map_err(StoreError::from)?.is_dir() {
                if let Some(name) = entry.file_name().to_str() {
                    ids.push(decode_tenant(name));
                }
            }
        }
        ids.sort();
        Ok(ids)
    }

    /// Loads `tenant`'s newest snapshot that validates, moving each
    /// corrupt newer file into `quarantine/` rather than failing — the
    /// fall-back-and-rebuild half of the durability story.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures (corruption is handled,
    /// not returned).
    pub fn load_snapshot(&self, tenant: &str) -> Result<LoadedSnapshot, StoreError> {
        let dir = self.tenant_dir(tenant);
        if !dir.is_dir() {
            return Ok(LoadedSnapshot {
                snapshot: None,
                quarantined: Vec::new(),
            });
        }
        let mut snaps = snapshot_files(&dir)?;
        snaps.sort_by_key(|s| std::cmp::Reverse(s.0));
        let mut quarantined = Vec::new();
        for (_, path) in snaps {
            let bytes = fs::read(&path).map_err(StoreError::from)?;
            match Snapshot::decode(&bytes) {
                // A snapshot that decodes but belongs to some other
                // tenant's id is as corrupt as a bad CRC.
                Ok(snap) if snap.tenant == tenant => {
                    return Ok(LoadedSnapshot {
                        snapshot: Some(snap),
                        quarantined,
                    })
                }
                _ => {
                    quarantined.push(quarantine(&dir, &path));
                }
            }
        }
        Ok(LoadedSnapshot {
            snapshot: None,
            quarantined,
        })
    }

    /// `tenant_dir`'s retained snapshot *metas* (CRC-checked identity
    /// prefixes), newest first, skipping unreadable files. Lazy: a file
    /// is read when the iterator reaches it.
    fn snapshot_metas(
        &self,
        tenant_dir: &Path,
    ) -> Result<impl Iterator<Item = SnapshotMeta>, StoreError> {
        let mut snaps = snapshot_files(tenant_dir)?;
        snaps.sort_by_key(|s| std::cmp::Reverse(s.0));
        Ok(snaps
            .into_iter()
            .filter_map(|(_, path)| Snapshot::decode_meta(&fs::read(path).ok()?).ok()))
    }

    /// The identity of `tenant`'s newest snapshot that passes its CRC —
    /// what [`Store::load_snapshot`] would most likely load, without
    /// decoding a driver or quarantining anything. Recovery places a tenant
    /// against the log with this and leaves an idle one on disk.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the tenant's directory cannot be listed.
    pub fn snapshot_meta(&self, tenant: &str) -> Result<Option<SnapshotMeta>, StoreError> {
        Ok(self
            .snapshot_metas(&self.tenant_dir(tenant))?
            .find(|meta| meta.tenant == tenant))
    }

    /// Removes every trace of `tenant` (snapshots and quarantine). Used
    /// on deregistration and before re-registering an id, so stale-epoch
    /// snapshots can never shadow the new tenant.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory exists but cannot be removed.
    pub fn remove_tenant(&self, tenant: &str) -> Result<(), StoreError> {
        let dir = self.tenant_dir(tenant);
        if dir.is_dir() {
            fs::remove_dir_all(dir).map_err(StoreError::from)?;
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // WAL
    // -----------------------------------------------------------------

    /// Opens an append handle on shard `shard`'s WAL, truncating any torn
    /// tail first so appends always extend a valid prefix.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, [`StoreError::Corrupt`]
    /// if the file exists but is not a WAL at all.
    pub fn open_wal(&self, shard: usize, policy: FsyncPolicy) -> Result<WalWriter, StoreError> {
        let path = self.wal_path(shard);
        let valid_len = if path.is_file() {
            scan_wal(&fs::read(&path).map_err(StoreError::from)?)?.valid_len
        } else {
            0
        };
        self.open_wal_at(shard, valid_len, policy)
    }

    /// [`Store::open_wal`] for a caller that has scanned the shard already
    /// ([`Store::scan_wals`]) and knows its valid prefix is `valid_len`
    /// bytes: whatever lies past it is cut, and the file is not read
    /// again.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn open_wal_at(
        &self,
        shard: usize,
        valid_len: u64,
        policy: FsyncPolicy,
    ) -> Result<WalWriter, StoreError> {
        let path = self.wal_path(shard);
        if fs::metadata(&path).is_ok_and(|m| m.len() > valid_len) {
            let f = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(StoreError::from)?;
            f.set_len(valid_len).map_err(StoreError::from)?;
            f.sync_data().map_err(StoreError::from)?;
        }
        WalWriter::open(&path, policy)
    }

    /// Scans every shard WAL in the store (whatever shard count wrote
    /// them — recovery regroups records per tenant, so a changed worker
    /// count between runs is harmless).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the WAL directory cannot be listed or a file
    /// cannot be read. Torn files are scanned, not errors.
    pub fn scan_wals(&self) -> Result<Vec<ShardScan>, StoreError> {
        let mut scans = Vec::new();
        for entry in fs::read_dir(self.root.join("wal")).map_err(StoreError::from)? {
            let path = entry.map_err(StoreError::from)?.path();
            let Some(shard) = shard_of(&path) else {
                continue;
            };
            let bytes = fs::read(&path).map_err(StoreError::from)?;
            let scan = match scan_wal(&bytes) {
                Ok(scan) => scan,
                // Not a WAL at all: treat the whole file as a torn tail.
                Err(e) => WalScan {
                    records: Vec::new(),
                    valid_len: 0,
                    torn: Some(e.to_string()),
                },
            };
            scans.push(ShardScan { shard, scan });
        }
        scans.sort_by_key(|s| s.shard);
        Ok(scans)
    }

    /// Deletes shard `shard`'s WAL: recovery's way out of a log no worker
    /// will own (the worker count shrank), once every record in it that
    /// was still live is folded into a persisted snapshot.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the file cannot be removed.
    pub fn remove_wal(&self, shard: usize) -> Result<(), StoreError> {
        fs::remove_file(self.wal_path(shard)).map_err(StoreError::from)?;
        sync_dir(&self.root.join("wal"));
        Ok(())
    }

    /// Rewrites shard `shard`'s WAL keeping only records still needed for
    /// recovery: per on-disk tenant, records past the **older** retained
    /// snapshot's watermark (so a corrupt newest snapshot can still fall
    /// back), same-epoch only; records for tenants with no snapshot
    /// directory (deregistered) are dropped.
    ///
    /// The log is streamed, never loaded: each record of the valid prefix
    /// is read, CRC-checked, decoded and tested against its tenant's
    /// floor, and a kept frame's bytes are copied as they are into
    /// `shard-<k>.tmp`, which is fsynced and renamed over the log. The
    /// walk stops where [`scan_wal`] would, so a torn tail is dropped by
    /// the rewrite, and a scan of the output equals the floor filter of a
    /// scan of the input. A crash before the rename leaves the old log
    /// and a stale `.tmp` the next rewrite truncates.
    ///
    /// The caller must not hold an open [`WalWriter`] on this shard
    /// across the call — the file is replaced, so the handle must be
    /// reopened after ([`WalWriter::open`] on [`Store::wal_path`]: what
    /// was just written needs no torn-tail scan).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn compact_wal(&self, shard: usize) -> Result<CompactStats, StoreError> {
        let floors = self.compaction_floors()?;
        let path = self.wal_path(shard);
        let tmp = path.with_extension("tmp");
        let mut stats = CompactStats {
            kept: 0,
            dropped: 0,
            bytes_before: 0,
            bytes_after: MAGIC.len() as u64,
        };
        let mut out = BufWriter::with_capacity(
            COPY_BUF,
            OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&tmp)
                .map_err(StoreError::from)?,
        );
        out.write_all(MAGIC).map_err(StoreError::from)?;
        if path.is_file() {
            let log = File::open(&path).map_err(StoreError::from)?;
            stats.bytes_before = log.metadata().map_err(StoreError::from)?.len();
            match WalFrames::open(BufReader::with_capacity(COPY_BUF, log), stats.bytes_before) {
                Ok(mut frames) => {
                    while let Some(frame) = frames.next_frame()? {
                        // Recovery could still need it: its tenant is on
                        // disk and no retained snapshot covers it. Wrong
                        // epoch or no snapshot at all: stale, drop.
                        let record = &frame.record;
                        if floors
                            .get(&record.tenant)
                            .is_some_and(|f| record.is_past(f))
                        {
                            out.write_all(&frame.header).map_err(StoreError::from)?;
                            out.write_all(frame.payload).map_err(StoreError::from)?;
                            stats.kept += 1;
                            stats.bytes_after += (frame.header.len() + frame.payload.len()) as u64;
                        } else {
                            stats.dropped += 1;
                        }
                    }
                }
                // A file that is not a WAL at all holds nothing to keep.
                Err(e) if e.is_corrupt() => {}
                Err(e) => return Err(e),
            }
        }
        let file = out
            .into_inner()
            .map_err(|e| StoreError::from(e.into_error()))?;
        file.sync_data().map_err(StoreError::from)?;
        drop(file);
        fs::rename(&tmp, &path).map_err(StoreError::from)?;
        sync_dir(&self.root.join("wal"));
        Ok(stats)
    }

    /// Per-tenant compaction floors from the retained snapshot metas: the
    /// newest one's identity with the *minimum* (oldest retained)
    /// watermark and generation of its epoch.
    fn compaction_floors(&self) -> Result<HashMap<String, SnapshotMeta>, StoreError> {
        let mut floors = HashMap::new();
        for tenant in self.tenant_ids()? {
            let mut metas = self.snapshot_metas(&self.tenant_dir(&tenant))?;
            if let Some(mut floor) = metas.next() {
                for older in metas.filter(|m| m.epoch == floor.epoch) {
                    floor.watermark = floor.watermark.min(older.watermark);
                    floor.generation = floor.generation.min(older.generation);
                }
                floors.insert(tenant, floor);
            }
        }
        Ok(floors)
    }
}

/// `(generation, path)` for every `snap-*.snap` in `dir`.
fn snapshot_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut snaps = Vec::new();
    for entry in fs::read_dir(dir).map_err(StoreError::from)? {
        let path = entry.map_err(StoreError::from)?.path();
        if let Some(generation) = snapshot_generation(&path) {
            snaps.push((generation, path));
        }
    }
    Ok(snaps)
}

/// Parses `snap-<generation>.snap` back into the generation.
fn snapshot_generation(path: &Path) -> Option<u64> {
    path.file_name()?
        .to_str()?
        .strip_prefix("snap-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

/// Moves `path` into `dir/quarantine/`, returning the name it landed
/// under. Best-effort: a failed move falls back to leaving the file in
/// place (still skipped by the caller).
fn quarantine(dir: &Path, path: &Path) -> String {
    let qdir = dir.join("quarantine");
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("unnamed")
        .to_owned();
    if fs::create_dir_all(&qdir).is_ok() {
        let _ = fs::rename(path, qdir.join(&name));
    }
    name
}

/// Parses `shard-<k>.wal` back into `k`.
fn shard_of(path: &Path) -> Option<usize> {
    path.file_name()?
        .to_str()?
        .strip_prefix("shard-")?
        .strip_suffix(".wal")?
        .parse()
        .ok()
}

/// Best-effort directory durability for a just-renamed entry.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Encodes a tenant id as a filesystem-safe directory name:
/// `[A-Za-z0-9_-]` pass through, everything else (including `%`) becomes
/// `%XX` per UTF-8 byte.
pub fn encode_tenant(id: &str) -> String {
    let mut out = String::with_capacity(id.len());
    for &b in id.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_' | b'-' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Decodes [`encode_tenant`]'s output. Malformed escapes pass through
/// verbatim (directory names are under the store's control; garbage in
/// means someone else wrote it, and a lossy decode beats a panic).
pub fn decode_tenant(name: &str) -> String {
    let bytes = name.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        // lint:allow(panic-free-server-paths, reason = "the while condition bounds i below bytes.len()")
        if bytes[i] == b'%' && i + 2 < bytes.len() + 1 {
            let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                std::str::from_utf8(h)
                    .ok()
                    .and_then(|s| u8::from_str_radix(s, 16).ok())
            });
            if let Some(b) = hex {
                out.push(b);
                i += 3;
                continue;
            }
        }
        // lint:allow(panic-free-server-paths, reason = "the while condition bounds i below bytes.len()")
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc32;
    use crate::snapshot::tests::template;
    use crate::wal::{WalPayload, WalRecord};
    use smartpick_core::RunSample;

    fn test_root(tag: &str) -> PathBuf {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"))
            .join(format!("store-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn snapshot(tenant: &str, epoch: u64, generation: u64, watermark: u64) -> Snapshot {
        Snapshot {
            tenant: tenant.into(),
            epoch,
            generation,
            watermark,
            state: template().clone(),
        }
    }

    fn sample(query_id: &str) -> RunSample {
        RunSample {
            query_id: query_id.into(),
            input_gb: 100.0,
            n_vm: 2,
            n_sl: 3,
            predicted_seconds: 80.0,
            actual_seconds: 82.5,
            cost_dollars: 0.04,
            matched_query: query_id.into(),
            profile: None,
        }
    }

    fn report(tenant: &str, epoch: u64, run_id: u64) -> WalRecord {
        WalRecord {
            tenant: tenant.into(),
            epoch,
            payload: WalPayload::Sample {
                run_id,
                sample: sample("q"),
            },
        }
    }

    #[test]
    fn tenant_encoding_round_trips_awkward_ids() {
        for id in ["plain", "has space", "a/b\\c", "ünïcode", "%41", "..", ""] {
            let enc = encode_tenant(id);
            assert!(
                enc.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'%'),
                "{enc}"
            );
            assert_eq!(decode_tenant(&enc), id, "{id}");
        }
    }

    #[test]
    fn persist_load_prune_and_remove() {
        let store = Store::open(test_root("plpr")).unwrap();
        for generation in 0..4 {
            store
                .persist_snapshot(&snapshot("acme", 1, generation, generation * 10))
                .unwrap();
            // What a write that crashed before its rename leaves behind:
            // the next persist's one listing clears it.
            let stale = store.tenant_dir("acme").join("snap-stale.tmp");
            assert!(!stale.exists());
            fs::write(stale, b"half a snapshot").unwrap();
        }
        // Keep-2: only generations 2 and 3 remain.
        let loaded = store.load_snapshot("acme").unwrap();
        assert_eq!(loaded.snapshot.as_ref().unwrap().generation, 3);
        assert!(loaded.quarantined.is_empty());
        let dir = store.tenant_dir("acme");
        assert_eq!(snapshot_files(&dir).unwrap().len(), RETAINED_SNAPSHOTS);
        assert_eq!(store.tenant_ids().unwrap(), vec!["acme".to_owned()]);
        store.remove_tenant("acme").unwrap();
        assert!(store.tenant_ids().unwrap().is_empty());
        assert!(store.load_snapshot("acme").unwrap().snapshot.is_none());
    }

    #[test]
    fn corrupt_newest_snapshot_quarantines_and_falls_back() {
        let store = Store::open(test_root("quar")).unwrap();
        store.persist_snapshot(&snapshot("t", 1, 1, 5)).unwrap();
        store.persist_snapshot(&snapshot("t", 1, 2, 9)).unwrap();
        // Corrupt the newest file in place.
        let dir = store.tenant_dir("t");
        let mut snaps = snapshot_files(&dir).unwrap();
        snaps.sort_by_key(|s| std::cmp::Reverse(s.0));
        let newest = snaps[0].1.clone();
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();

        // The meta read passes over the bad file and moves nothing.
        let meta = store.snapshot_meta("t").unwrap().unwrap();
        assert_eq!((meta.generation, meta.watermark), (1, 5));
        assert!(!dir.join("quarantine").exists());

        let loaded = store.load_snapshot("t").unwrap();
        assert_eq!(loaded.snapshot.as_ref().unwrap().generation, 1);
        assert_eq!(loaded.quarantined.len(), 1);
        assert!(dir
            .join("quarantine")
            .join(&loaded.quarantined[0])
            .is_file());

        // Both corrupt → no snapshot, two quarantined.
        let older = snaps[1].1.clone();
        fs::write(&older, b"garbage").unwrap();
        assert!(store.snapshot_meta("t").unwrap().is_none());
        let loaded = store.load_snapshot("t").unwrap();
        assert!(loaded.snapshot.is_none());
        assert_eq!(loaded.quarantined.len(), 1);
    }

    /// A file whose CRC checks out but whose model the core refuses — here
    /// a tree whose root points past the end of its arrays — is as
    /// untrusted as a torn one: quarantined, and the older generation
    /// loads.
    #[test]
    fn a_snapshot_that_fails_model_validation_is_quarantined_and_falls_back() {
        let store = Store::open(test_root("invalid")).unwrap();
        store.persist_snapshot(&snapshot("t", 1, 1, 5)).unwrap();
        let newest = snapshot("t", 1, 2, 9);
        store.persist_snapshot(&newest).unwrap();
        let dir = store.tenant_dir("t");
        let path = dir.join(format!("snap-{:020}.snap", 2));
        let mut bytes = fs::read(&path).unwrap();

        let tree = &newest.state.predictor.forest().trees()[0];
        let (feature, _, children) = tree.flat_parts();
        assert_ne!(feature[0], u16::MAX, "the root is a split");
        let encoded: Vec<u8> = children.iter().flat_map(|c| c.to_be_bytes()).collect();
        let at = bytes
            .windows(encoded.len())
            .position(|w| w == encoded)
            .expect("the first tree's children are in the file");
        bytes[at..at + 4].copy_from_slice(&(children.len() as u32).to_be_bytes());
        let end = bytes.len() - 4;
        let crc = crc32(&bytes[16..end]);
        bytes[end..].copy_from_slice(&crc.to_be_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(Snapshot::decode_meta(&bytes).unwrap().generation, 2);
        assert!(Snapshot::decode(&bytes).unwrap_err().is_corrupt());

        let loaded = store.load_snapshot("t").unwrap();
        assert_eq!(loaded.snapshot.as_ref().unwrap().generation, 1);
        let name = format!("snap-{:020}.snap", 2);
        assert_eq!(loaded.quarantined, vec![name.clone()]);
        assert!(dir.join("quarantine").join(name).is_file());
        assert!(!path.exists());
    }

    #[test]
    fn wal_open_truncates_torn_tails_and_scan_reads_all_shards() {
        let store = Store::open(test_root("wal")).unwrap();
        {
            let mut w = store.open_wal(0, FsyncPolicy::PerBatch).unwrap();
            w.append(&report("a", 1, 1).encode_payload()).unwrap();
            w.append(&report("a", 1, 2).encode_payload()).unwrap();
            w.sync().unwrap();
        }
        {
            let mut w = store.open_wal(1, FsyncPolicy::PerBatch).unwrap();
            w.append(&report("b", 1, 1).encode_payload()).unwrap();
            w.sync().unwrap();
        }
        // Tear shard 0's tail mid-record.
        let p0 = store.wal_path(0);
        let len = fs::metadata(&p0).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&p0)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let scans = store.scan_wals().unwrap();
        assert_eq!(scans.len(), 2);
        assert_eq!(scans[0].scan.records.len(), 1);
        assert!(scans[0].scan.torn.is_some());
        assert_eq!(scans[1].scan.records.len(), 1);
        assert!(scans[1].scan.torn.is_none());
        // Reopening truncates the torn tail, then appends cleanly.
        {
            let mut w = store.open_wal(0, FsyncPolicy::PerBatch).unwrap();
            w.append(&report("a", 1, 3).encode_payload()).unwrap();
            w.sync().unwrap();
        }
        let scans = store.scan_wals().unwrap();
        assert!(scans[0].scan.torn.is_none());
        assert_eq!(scans[0].scan.records.len(), 2);
        // A caller that knows the valid prefix cuts there without a scan.
        let len = fs::metadata(&p0).unwrap().len();
        fs::write(&p0, [&fs::read(&p0).unwrap()[..], b"torn"].concat()).unwrap();
        {
            let mut w = store.open_wal_at(0, len, FsyncPolicy::PerBatch).unwrap();
            assert_eq!(w.file_len(), len);
            w.append(&report("a", 1, 4).encode_payload()).unwrap();
            w.sync().unwrap();
        }
        let scans = store.scan_wals().unwrap();
        assert!(scans[0].scan.torn.is_none());
        assert_eq!(scans[0].scan.records.len(), 3);
        store.remove_wal(0).unwrap();
        assert_eq!(store.scan_wals().unwrap().len(), 1);
    }

    #[test]
    fn compaction_drops_covered_and_stale_records() {
        let store = Store::open(test_root("compact")).unwrap();
        // Tenant `t` has snapshots at generations 1 (wm 5) and 2 (wm 9):
        // the floor is the older one, watermark 5.
        store.persist_snapshot(&snapshot("t", 7, 1, 5)).unwrap();
        store.persist_snapshot(&snapshot("t", 7, 2, 9)).unwrap();
        {
            let mut w = store.open_wal(0, FsyncPolicy::PerBatch).unwrap();
            for run_id in 1..=12 {
                w.append(&report("t", 7, run_id).encode_payload()).unwrap();
            }
            // The legacy JSON kind meets the same floor: one covered, one
            // not.
            for run_id in [5, 13] {
                let legacy = WalRecord {
                    tenant: "t".into(),
                    epoch: 7,
                    payload: WalPayload::Report {
                        run_id,
                        run_json: "{}".into(),
                    },
                };
                w.append(&legacy.encode_payload()).unwrap();
            }
            // A stale-epoch record and a deregistered tenant's record.
            w.append(&report("t", 6, 99).encode_payload()).unwrap();
            w.append(&report("gone", 1, 1).encode_payload()).unwrap();
            // Commits: one at the floor generation, one past it.
            w.append(
                &WalRecord {
                    tenant: "t".into(),
                    epoch: 7,
                    payload: WalPayload::Commit {
                        generation: 1,
                        watermark: 5,
                    },
                }
                .encode_payload(),
            )
            .unwrap();
            w.append(
                &WalRecord {
                    tenant: "t".into(),
                    epoch: 7,
                    payload: WalPayload::Commit {
                        generation: 2,
                        watermark: 9,
                    },
                }
                .encode_payload(),
            )
            .unwrap();
            w.sync().unwrap();
        }
        let stats = store.compact_wal(0).unwrap();
        // Kept: reports 6..=12 (7 of them), the legacy report 13 and the
        // generation-2 commit.
        assert_eq!(stats.kept, 9);
        assert_eq!(stats.dropped, 9);
        assert!(stats.bytes_after < stats.bytes_before);
        let scans = store.scan_wals().unwrap();
        let records = &scans[0].scan.records;
        assert_eq!(records.len(), 9);
        assert!(records.iter().all(|r| r.tenant == "t" && r.epoch == 7));
        assert!(records.iter().all(|r| match &r.payload {
            WalPayload::Report { run_id, .. } | WalPayload::Sample { run_id, .. } => *run_id > 5,
            WalPayload::Commit { generation, .. } => *generation > 1,
        }));
    }

    /// The definition the streaming rewrite replaced — read the whole
    /// log, scan it, filter the records by the floors — kept as the
    /// oracle. `snaps` is what was persisted per tenant, in order; the
    /// floors come from the newest [`RETAINED_SNAPSHOTS`] of each.
    fn filter_by_floors(log: &[u8], snaps: &HashMap<&str, Vec<(u64, u64, u64)>>) -> Vec<WalRecord> {
        let Ok(scan) = scan_wal(log) else {
            return Vec::new();
        };
        scan.records
            .into_iter()
            .filter(|record| {
                let Some(persisted) = snaps.get(record.tenant.as_str()) else {
                    return false;
                };
                let mut retained = persisted.clone();
                retained.sort_by_key(|&(_, generation, _)| std::cmp::Reverse(generation));
                retained.truncate(RETAINED_SNAPSHOTS);
                let epoch = retained[0].0;
                let same_epoch = retained.iter().filter(|s| s.0 == epoch);
                let gen_floor = same_epoch.clone().map(|s| s.1).min().unwrap();
                let wm_floor = same_epoch.map(|s| s.2).min().unwrap();
                record.epoch == epoch
                    && match &record.payload {
                        WalPayload::Report { run_id, .. } | WalPayload::Sample { run_id, .. } => {
                            *run_id > wm_floor
                        }
                        WalPayload::Commit { generation, .. } => *generation > gen_floor,
                    }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// For any log — torn and bit-flipped tails included — a scan of
        /// the rewrite equals the floor filter of a scan of the original.
        #[test]
        fn streamed_compaction_equals_the_floor_filter_of_the_valid_prefix(
            specs in proptest::prop::collection::vec(
                (0u8..3, 1u64..3, 0u8..3, 0u64..12, ".{0,24}"),
                0..24,
            ),
            snaps_a in proptest::prop::collection::vec((1u64..3, 0u64..10), 1..4),
            snaps_b in proptest::prop::collection::vec((1u64..3, 0u64..10), 1..4),
            damage in 0u8..4,
            at in 0.0f64..1.0,
            bit in 0u8..8,
        ) {
            let store = Store::open(test_root("stream")).unwrap();
            // Tenants `a` and `b` are on disk; `c` was deregistered.
            let mut persisted: HashMap<&str, Vec<(u64, u64, u64)>> = HashMap::new();
            for (tenant, snaps) in [("a", &snaps_a), ("b", &snaps_b)] {
                for (i, &(epoch, watermark)) in snaps.iter().enumerate() {
                    let generation = i as u64 + 1;
                    store
                        .persist_snapshot(&snapshot(tenant, epoch, generation, watermark))
                        .unwrap();
                    persisted
                        .entry(tenant)
                        .or_default()
                        .push((epoch, generation, watermark));
                }
            }
            let mut log = MAGIC.to_vec();
            for (tenant, epoch, kind, n, text) in &specs {
                let tenant = ["a", "b", "c"][*tenant as usize];
                let record = WalRecord {
                    tenant: tenant.into(),
                    epoch: *epoch,
                    payload: match *kind {
                        0 => WalPayload::Sample { run_id: *n, sample: sample(text) },
                        1 => WalPayload::Commit { generation: *n, watermark: *n },
                        _ => WalPayload::Report { run_id: *n, run_json: text.clone() },
                    },
                };
                log.extend_from_slice(&WalRecord::frame(&record.encode_payload()));
            }
            // `at < 1.0`, so the offset is inside the log.
            let offset = ((log.len() as f64) * at) as usize;
            match damage {
                1 => log.truncate(offset),
                2 => log[offset] ^= 1 << bit,
                3 => log.extend_from_slice(&[0xA5; 11]),
                _ => {}
            }
            fs::write(store.wal_path(0), &log).unwrap();

            let want = filter_by_floors(&log, &persisted);
            let scanned = scan_wal(&log).map(|s| s.records.len()).unwrap_or(0);
            let stats = store.compact_wal(0).unwrap();
            let rewritten = fs::read(store.wal_path(0)).unwrap();
            let got = scan_wal(&rewritten).unwrap();
            proptest::prop_assert!(got.torn.is_none(), "a rewrite leaves no torn tail");
            proptest::prop_assert_eq!(&got.records, &want);
            proptest::prop_assert_eq!(stats.kept, want.len());
            proptest::prop_assert_eq!(stats.dropped, scanned - want.len());
            proptest::prop_assert_eq!(stats.bytes_before, log.len() as u64);
            proptest::prop_assert_eq!(stats.bytes_after, rewritten.len() as u64);
            proptest::prop_assert!(!store.wal_path(0).with_extension("tmp").exists());
        }
    }

    #[test]
    fn compaction_of_a_missing_or_foreign_file_leaves_an_empty_wal() {
        let store = Store::open(test_root("foreign")).unwrap();
        let stats = store.compact_wal(3).unwrap();
        assert_eq!((stats.kept, stats.dropped, stats.bytes_before), (0, 0, 0));
        assert_eq!(fs::read(store.wal_path(3)).unwrap(), MAGIC);
        fs::write(store.wal_path(4), b"NOTAWAL!and then some").unwrap();
        let stats = store.compact_wal(4).unwrap();
        assert_eq!((stats.kept, stats.bytes_after), (0, MAGIC.len() as u64));
        assert_eq!(fs::read(store.wal_path(4)).unwrap(), MAGIC);
        // The rewritten file takes appends through a plain reopen.
        let mut w = WalWriter::open(&store.wal_path(4), FsyncPolicy::PerBatch).unwrap();
        w.append(&report("a", 1, 1).encode_payload()).unwrap();
        w.sync().unwrap();
        assert_eq!(store.scan_wals().unwrap()[1].scan.records.len(), 1);
    }
}
