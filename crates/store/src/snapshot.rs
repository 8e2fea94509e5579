//! The snapshot codec: one tenant's full driver checkpoint as a
//! versioned, CRC-checked binary file.
//!
//! File layout:
//!
//! ```text
//! magic   8 bytes  "SPSNAP1\0"
//! version u32 BE   currently 2
//! length  u32 BE   payload byte count
//! payload length bytes
//! crc     u32 BE   CRC-32 (IEEE) of the payload bytes
//! ```
//!
//! The payload carries the snapshot identity (tenant, epoch, generation,
//! WAL watermark) followed by the [`DriverState`], all of it in the
//! crate's own binary, written from the driver's own parts: the eight
//! `smartpick.*` properties, the published predictor read through its
//! public accessors — the forest in its flat struct-of-arrays inference
//! layout verbatim (per tree: the `u16` feature, `f64` threshold and
//! `u32` children arrays) — the history ring (per record: the query id,
//! the ten Table 3 features, three `f64`), the MFE's pending batch and
//! counters, and the RNG streams. Floats travel as raw bits so restore is
//! bit-exact.
//!
//! Decoding builds those parts directly: each tree's decoded arrays move
//! into [`RegressionTree::from_flat_parts`], the forest into
//! [`RandomForest::from_parts`], and the predictor comes out of
//! [`WorkloadPredictor::assemble`]. Their validation is the model's own,
//! so a file that passes its CRC but describes an invalid model is
//! [`StoreError::Corrupt`] like any other file this build cannot trust.
//!
//! Version 1 embedded the properties and the history as JSON strings. It
//! is not read: a v1 file fails the version check like any other file
//! this build cannot trust, and the directory layer quarantines it.
//!
//! Decoding is **total** in the `smartpick_wire::codec` style: arbitrary
//! bytes can never panic or over-read, every count is checked against the
//! bytes remaining before allocation, trailing bytes are rejected, and a
//! truncated or bit-flipped file fails the CRC before any field is
//! trusted.

use std::sync::Arc;

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::features::QueryFeatures;
use smartpick_core::history::RunRecord;
use smartpick_core::persist::{DriverState, MfeState};
use smartpick_core::planner::UniformWorkload;
use smartpick_core::properties::SmartpickProperties;
use smartpick_core::similarity::{KnownSignature, SimilarityChecker};
use smartpick_core::wp::KnownQuery;
use smartpick_core::WorkloadPredictor;
use smartpick_ml::dataset::Dataset;
use smartpick_ml::forest::{ForestParams, RandomForest};
use smartpick_ml::tree::{RegressionTree, TreeParams};

use crate::codec::{
    put_bool, put_f64, put_f64s, put_str, put_u16, put_u32, put_u64, put_u8, Reader,
};
use crate::crc::crc32;
use crate::error::StoreError;

/// The 8-byte file magic.
pub const MAGIC: &[u8; 8] = b"SPSNAP1\0";

/// The one format version this build writes and reads.
pub const VERSION: u32 = 2;

/// Bytes before the payload: magic, version, payload length.
const HEADER_LEN: usize = 16;

/// One tenant's durable checkpoint: identity plus the full driver state.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The tenant this checkpoint belongs to.
    pub tenant: String,
    /// The tenant's registration epoch — WAL records from other epochs
    /// (an earlier registration under the same id) must not replay into
    /// this state.
    pub epoch: u64,
    /// The snapshot generation at capture time (how many snapshots the
    /// tenant had published).
    pub generation: u64,
    /// The highest run id applied into this state. Replay starts strictly
    /// after it.
    pub watermark: u64,
    /// The complete driver checkpoint.
    pub state: DriverState,
}

/// The identity prefix of a snapshot, readable without decoding the full
/// driver state (compaction uses this to compute per-tenant floors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// The tenant this checkpoint belongs to.
    pub tenant: String,
    /// The tenant's registration epoch.
    pub epoch: u64,
    /// The snapshot generation at capture time.
    pub generation: u64,
    /// The highest run id applied into this state.
    pub watermark: u64,
}

impl Snapshot {
    /// This snapshot's identity prefix.
    pub fn meta(&self) -> SnapshotMeta {
        SnapshotMeta {
            tenant: self.tenant.clone(),
            epoch: self.epoch,
            generation: self.generation,
            watermark: self.watermark,
        }
    }

    /// Encodes the whole snapshot file (magic, version, payload, CRC).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);
        // The length is patched in once the payload, encoded in place
        // behind it, says what it is (bytes 12..16, the header's last
        // four; the payload starts at `HEADER_LEN`, 16).
        put_u32(&mut out, 0);
        self.encode_payload(&mut out);
        let len = (out.len() - HEADER_LEN) as u32;
        out[12..16].copy_from_slice(&len.to_be_bytes());
        let crc = crc32(&out[16..]);
        put_u32(&mut out, crc);
        out
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_str(out, &self.tenant);
        put_u64(out, self.epoch);
        put_u64(out, self.generation);
        put_u64(out, self.watermark);
        encode_props(&self.state.props, out);
        encode_predictor(&self.state.predictor, out);
        encode_history(&self.state.history, out);
        encode_mfe(&self.state.mfe, out);
        for &w in &self.state.rng_state {
            put_u64(out, w);
        }
    }

    /// Decodes a complete snapshot file into the driver's parts.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on bad magic, unknown version, length
    /// mismatch, CRC failure, any structural defect in the payload, or a
    /// model the predictor's constructors refuse. Never panics on any
    /// input.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, StoreError> {
        let payload = checked_payload(bytes)?;
        let mut r = Reader::new(payload);
        let tenant = r.str()?;
        let epoch = r.u64()?;
        let generation = r.u64()?;
        let watermark = r.u64()?;
        let props = decode_props(&mut r)?;
        let predictor = Arc::new(decode_predictor(&mut r)?);
        let history = decode_history(&mut r)?;
        let mfe = decode_mfe(&mut r)?;
        let mut rng_state = [0u64; 4];
        for w in &mut rng_state {
            *w = r.u64()?;
        }
        r.finish()?;
        Ok(Snapshot {
            tenant,
            epoch,
            generation,
            watermark,
            state: DriverState {
                props,
                predictor,
                history,
                mfe,
                rng_state,
            },
        })
    }

    /// Decodes only the identity prefix — still CRC-checked, so a meta
    /// read never trusts torn bytes, but the (much larger) driver state
    /// is not materialised.
    ///
    /// # Errors
    ///
    /// See [`Snapshot::decode`].
    pub fn decode_meta(bytes: &[u8]) -> Result<SnapshotMeta, StoreError> {
        let payload = checked_payload(bytes)?;
        let mut r = Reader::new(payload);
        Ok(SnapshotMeta {
            tenant: r.str()?,
            epoch: r.u64()?,
            generation: r.u64()?,
            watermark: r.u64()?,
        })
    }
}

/// Validates the envelope (magic, version, length, CRC) and returns the
/// payload slice.
fn checked_payload(bytes: &[u8]) -> Result<&[u8], StoreError> {
    let Some(magic) = bytes.get(..8) else {
        return Err(StoreError::Corrupt(format!(
            "file too short for a snapshot header ({} bytes)",
            bytes.len()
        )));
    };
    if magic != MAGIC {
        return Err(StoreError::Corrupt("bad snapshot magic".into()));
    }
    let mut r = Reader::new(bytes.get(8..).unwrap_or(&[]));
    let version = r.u32()?;
    if version != VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let len = r.u32()? as usize;
    let payload_start = HEADER_LEN;
    let crc_start = payload_start.saturating_add(len);
    let payload = bytes
        .get(payload_start..crc_start)
        .ok_or_else(|| StoreError::Corrupt("payload truncated".into()))?;
    let crc_bytes = bytes
        .get(crc_start..crc_start.saturating_add(4))
        .ok_or_else(|| StoreError::Corrupt("missing trailing CRC".into()))?;
    if crc_start + 4 != bytes.len() {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after the CRC",
            bytes.len() - crc_start - 4
        )));
    }
    let want = u32::from_be_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    let got = crc32(payload);
    if got != want {
        return Err(StoreError::Corrupt(format!(
            "payload CRC mismatch (stored {want:#010x}, computed {got:#010x})"
        )));
    }
    Ok(payload)
}

fn encode_provider(p: Provider, out: &mut Vec<u8>) {
    put_u8(
        out,
        match p {
            Provider::Aws => 0,
            Provider::Gcp => 1,
        },
    );
}

fn decode_provider(r: &mut Reader<'_>) -> Result<Provider, StoreError> {
    match r.u8()? {
        0 => Ok(Provider::Aws),
        1 => Ok(Provider::Gcp),
        other => Err(StoreError::Corrupt(format!("unknown provider tag {other}"))),
    }
}

/// The eight `smartpick.*` properties, in declaration order.
fn encode_props(p: &SmartpickProperties, out: &mut Vec<u8>) {
    encode_provider(p.provider, out);
    put_str(out, &p.instance_family);
    put_bool(out, p.relay);
    put_f64(out, p.knob);
    put_u64(out, p.max_batch as u64);
    put_bool(out, p.same_instance_retrain);
    put_u32(out, p.min_ram_gb);
    put_f64(out, p.error_difference_trigger_secs);
}

fn decode_props(r: &mut Reader<'_>) -> Result<SmartpickProperties, StoreError> {
    Ok(SmartpickProperties {
        provider: decode_provider(r)?,
        instance_family: r.str()?,
        relay: r.bool("relay")?,
        knob: r.f64()?,
        max_batch: r.usize("max_batch")?,
        same_instance_retrain: r.bool("same_instance_retrain")?,
        min_ram_gb: r.u32()?,
        error_difference_trigger_secs: r.f64()?,
    })
}

/// The history ring, oldest first: per record the query id, the Table 3
/// feature row field by field, and the run's three outcomes.
fn encode_history(history: &[RunRecord], out: &mut Vec<u8>) {
    put_u32(out, history.len() as u32);
    for record in history {
        put_str(out, &record.query_id);
        let f = &record.features;
        put_f64(out, f.query_code);
        put_u32(out, f.n_vm);
        put_u32(out, f.n_sl);
        put_f64(out, f.input_bytes);
        put_f64(out, f.start_epoch);
        put_f64(out, f.total_memory_mib);
        put_f64(out, f.available_memory_mib);
        put_f64(out, f.memory_per_executor_mib);
        put_f64(out, f.num_waiting_apps);
        put_f64(out, f.total_available_cores);
        put_f64(out, record.actual_seconds);
        put_f64(out, record.predicted_seconds);
        put_f64(out, record.cost_dollars);
    }
}

fn decode_history(r: &mut Reader<'_>) -> Result<Vec<RunRecord>, StoreError> {
    // Every record costs ≥ 4 (id length) + 8*8 + 4*2 (features) + 8*3.
    let n = r.count(100)?;
    let mut history = Vec::with_capacity(n);
    for _ in 0..n {
        history.push(RunRecord {
            query_id: r.str()?,
            features: QueryFeatures {
                query_code: r.f64()?,
                n_vm: r.u32()?,
                n_sl: r.u32()?,
                input_bytes: r.f64()?,
                start_epoch: r.f64()?,
                total_memory_mib: r.f64()?,
                available_memory_mib: r.f64()?,
                memory_per_executor_mib: r.f64()?,
                num_waiting_apps: r.f64()?,
                total_available_cores: r.f64()?,
            },
            actual_seconds: r.f64()?,
            predicted_seconds: r.f64()?,
            cost_dollars: r.f64()?,
        });
    }
    Ok(history)
}

/// The published predictor, through its public accessors: environment,
/// forest hyperparameters and trees, known queries, similarity signatures,
/// training stderr and search bounds.
fn encode_predictor(p: &WorkloadPredictor, out: &mut Vec<u8>) {
    encode_provider(p.env().provider(), out);
    put_bool(out, p.env().catalog().is_compute_optimised());
    let forest = p.forest();
    let params = forest.params();
    put_u32(out, params.n_trees as u32);
    put_u32(out, params.tree.max_depth as u32);
    put_u32(out, params.tree.min_samples_split as u32);
    put_u32(out, params.tree.min_samples_leaf as u32);
    match params.tree.max_features {
        Some(m) => {
            put_u8(out, 1);
            put_u32(out, m as u32);
        }
        None => put_u8(out, 0),
    }
    put_bool(out, params.bootstrap);
    put_u32(out, forest.n_features() as u32);
    put_u32(out, forest.trees().len() as u32);
    for t in forest.trees() {
        let (feature, threshold, children) = t.flat_parts();
        put_u32(out, feature.len() as u32);
        for &v in feature {
            put_u16(out, v);
        }
        for &v in threshold {
            put_f64(out, v);
        }
        for &v in children {
            put_u32(out, v);
        }
        put_f64s(out, t.importance());
    }
    let known = p.known_queries();
    put_u32(out, known.len() as u32);
    for k in known {
        put_str(out, &k.id);
        put_f64(out, k.code);
        put_f64(out, k.input_gb);
        put_u64(out, k.workload.tasks as u64);
        put_f64(out, k.workload.task_secs_on_vm);
    }
    let signatures = p.similarity().signatures();
    put_u32(out, signatures.len() as u32);
    for s in signatures {
        put_str(out, &s.query_id);
        for &v in &s.vector {
            put_f64(out, v);
        }
    }
    put_bool(out, p.relay_aware());
    put_f64(out, p.stderr());
    let (max_vm, max_sl) = p.search_bounds();
    put_u32(out, max_vm);
    put_u32(out, max_sl);
    put_u32(out, p.min_total());
}

/// A model the core's constructors refuse, as a decode error.
fn invalid_model(e: impl std::fmt::Display) -> StoreError {
    StoreError::Corrupt(format!("snapshot model invalid: {e}"))
}

fn decode_predictor(r: &mut Reader<'_>) -> Result<WorkloadPredictor, StoreError> {
    let provider = decode_provider(r)?;
    let env = if r.bool("compute_optimised")? {
        // Any compute-optimised family name selects the same catalog.
        CloudEnv::with_family(provider, "compute")
    } else {
        CloudEnv::new(provider)
    };
    let n_trees = r.u32()? as usize;
    let tree = TreeParams {
        max_depth: r.u32()? as usize,
        min_samples_split: r.u32()? as usize,
        min_samples_leaf: r.u32()? as usize,
        max_features: match r.u8()? {
            0 => None,
            1 => Some(r.u32()? as usize),
            other => {
                return Err(StoreError::Corrupt(format!(
                    "bad max_features presence tag {other}"
                )))
            }
        },
    };
    let params = ForestParams {
        n_trees,
        tree,
        bootstrap: r.bool("bootstrap")?,
    };
    let n_features = r.u32()? as usize;
    // Every tree costs ≥ one slot (2 + 8 + 4 bytes) plus the importance
    // count prefix.
    let tree_count = r.count(18)?;
    let mut trees = Vec::with_capacity(tree_count);
    for _ in 0..tree_count {
        // Every slot costs 2 (feature) + 8 (threshold) + 4 (children).
        let n_slots = r.count(14)?;
        let mut feature = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            feature.push(r.u16()?);
        }
        let mut threshold = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            threshold.push(r.f64()?);
        }
        let mut children = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            children.push(r.u32()?);
        }
        let importance = r.f64s()?;
        let tree =
            RegressionTree::from_flat_parts(feature, threshold, children, n_features, importance)
                .map_err(invalid_model)?;
        trees.push(Arc::new(tree));
    }
    let forest = RandomForest::from_parts(trees, params, n_features).map_err(invalid_model)?;
    // Every known query costs ≥ 4 (id length) + 8*4 (numbers).
    let known_count = r.count(36)?;
    let mut known = Vec::with_capacity(known_count);
    for _ in 0..known_count {
        known.push(KnownQuery {
            id: r.str()?,
            code: r.f64()?,
            input_gb: r.f64()?,
            workload: UniformWorkload {
                tasks: r.usize("tasks")?,
                task_secs_on_vm: r.f64()?,
            },
        });
    }
    // Every signature costs ≥ 4 (id length) + 8*4 (vector).
    let sig_count = r.count(36)?;
    let mut signatures = Vec::with_capacity(sig_count);
    for _ in 0..sig_count {
        let query_id = r.str()?;
        let mut vector = [0f64; 4];
        for v in &mut vector {
            *v = r.f64()?;
        }
        signatures.push(KnownSignature { query_id, vector });
    }
    // Arguments evaluate left to right, which is the file's order.
    WorkloadPredictor::assemble(
        env,
        forest,
        known,
        SimilarityChecker::from_signatures(signatures),
        r.bool("relay_aware")?,
        r.f64()?,
        r.u32()?,
        r.u32()?,
        r.u32()?,
    )
    .map_err(invalid_model)
}

fn encode_mfe(m: &MfeState, out: &mut Vec<u8>) {
    for &w in &m.clock_state {
        put_u64(out, w);
    }
    put_f64(out, m.epoch);
    let rows = m.pending.features();
    put_u32(out, rows.len() as u32);
    put_u32(out, rows.first().map_or(0, Vec::len) as u32);
    for row in rows {
        for &v in row {
            put_f64(out, v);
        }
    }
    for &t in m.pending.targets() {
        put_f64(out, t);
    }
    put_u32(out, m.free_ram_gb);
    put_u64(out, m.retrain_count as u64);
}

fn decode_mfe(r: &mut Reader<'_>) -> Result<MfeState, StoreError> {
    let mut clock_state = [0u64; 4];
    for w in &mut clock_state {
        *w = r.u64()?;
    }
    let epoch = r.f64()?;
    // Every pending row costs width*8 bytes plus its 8-byte target.
    let rows = r.u32()? as usize;
    let width = r.u32()? as usize;
    let per_row = width.saturating_mul(8).saturating_add(8);
    if rows > r.remaining() / per_row.max(1) {
        return Err(StoreError::Corrupt(format!(
            "pending row count {rows} exceeds the {} bytes remaining",
            r.remaining()
        )));
    }
    let mut pending = Dataset::new(QueryFeatures::names());
    if rows > 0 && width != pending.n_features() {
        return Err(StoreError::Corrupt(format!(
            "pending sample width {width} does not match the Table 3 schema"
        )));
    }
    let mut features = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut row = Vec::with_capacity(width);
        for _ in 0..width {
            row.push(r.f64()?);
        }
        features.push(row);
    }
    for row in features {
        pending.push(row, r.f64()?);
    }
    Ok(MfeState {
        clock_state,
        epoch,
        pending,
        free_ram_gb: r.u32()?,
        retrain_count: r.usize("retrain_count")?,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::OnceLock;

    use smartpick_core::training::TrainOptions;
    use smartpick_core::wp::{PredictionRequest, WorkloadPredictionService};
    use smartpick_core::Smartpick;
    use smartpick_workloads::tpcds;

    use super::*;

    /// The checkpoint of one small trained driver, built once per test
    /// binary: tpcds-q82 in a compute-optimised GCP environment, two trees
    /// with `max_features` set, a 4×4 grid, and two submitted runs in the
    /// history and the pending batch.
    pub(crate) fn template() -> &'static DriverState {
        static TEMPLATE: OnceLock<DriverState> = OnceLock::new();
        TEMPLATE.get_or_init(|| {
            let query = tpcds::query(82, 100.0).unwrap();
            let opts = TrainOptions {
                configs_per_query: 6,
                burst_factor: 3,
                forest: ForestParams {
                    n_trees: 2,
                    tree: TreeParams {
                        max_features: Some(5),
                        ..TreeParams::default()
                    },
                    ..ForestParams::default()
                },
                max_vm: 4,
                max_sl: 4,
                ..TrainOptions::default()
            };
            let (mut driver, _) = Smartpick::train_with_options(
                CloudEnv::with_family(Provider::Gcp, "compute"),
                SmartpickProperties::default(),
                std::slice::from_ref(&query),
                &opts,
                7,
            )
            .unwrap();
            for _ in 0..2 {
                driver.submit(&query).unwrap();
            }
            driver.export_state()
        })
    }

    fn sample() -> Snapshot {
        Snapshot {
            tenant: "acme-α".into(),
            epoch: 7,
            generation: 3,
            watermark: 41,
            state: template().clone(),
        }
    }

    /// Encode → decode → encode is a fixed point, and the decoded model
    /// answers bit for bit as the one that was encoded.
    #[test]
    fn round_trip_is_exact() {
        let snap = sample();
        assert!(snap.state.predictor.env().catalog().is_compute_optimised());
        assert_eq!(snap.state.history.len(), 2);
        assert_eq!(snap.state.mfe.pending.len(), 2);
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert!(back.encode() == bytes, "re-encoding changed the bytes");
        assert_eq!(back.meta(), snap.meta());
        assert_eq!(Snapshot::decode_meta(&bytes).unwrap(), snap.meta());
        assert_eq!(back.state.history, snap.state.history);
        assert_eq!(back.state.mfe.pending, snap.state.mfe.pending);
        let probe = PredictionRequest::new(tpcds::query(82, 100.0).unwrap(), 5);
        let predicted = |state: &DriverState| {
            state
                .predictor
                .determine(&probe)
                .unwrap()
                .predicted_seconds
                .to_bits()
        };
        assert_eq!(predicted(&back.state), predicted(&snap.state));
    }

    #[test]
    fn truncation_at_every_offset_is_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::decode(&bytes[..cut]).is_err(),
                "decode accepted a file truncated at byte {cut}"
            );
            assert!(Snapshot::decode_meta(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn any_payload_bit_flip_fails_the_crc() {
        let bytes = sample().encode();
        // Flip one bit in every payload byte (skip the 16-byte header and
        // the trailing CRC itself — flipping those trips other checks).
        for i in 16..bytes.len() - 4 {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            let err = Snapshot::decode(&bad).unwrap_err();
            assert!(err.is_corrupt(), "byte {i}");
        }
    }

    /// Damage inside the history section: as the file stands it fails the
    /// CRC; with the CRC re-sealed over it — so the section's decoder is
    /// the one that meets it — it is refused or decodes to exactly what
    /// the damaged bytes say, and never panics.
    #[test]
    fn a_bit_flip_sweep_over_the_history_section_never_panics() {
        let snap = sample();
        let bytes = snap.encode();
        let mut section = Vec::new();
        encode_history(&snap.state.history, &mut section);
        let start = bytes
            .windows(section.len())
            .position(|w| w == section)
            .expect("the history section is in the file");
        for i in start..start + section.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(Snapshot::decode(&bad).unwrap_err().is_corrupt(), "byte {i}");
                let end = bad.len() - 4;
                let crc = crc32(&bad[HEADER_LEN..end]);
                bad[end..].copy_from_slice(&crc.to_be_bytes());
                match Snapshot::decode(&bad) {
                    Ok(decoded) => assert_eq!(decoded.encode(), bad, "byte {i} bit {bit}"),
                    Err(e) => assert!(e.is_corrupt(), "byte {i} bit {bit}"),
                }
            }
        }
    }

    /// A version-1 file, written by the last build that embedded the
    /// properties and history as JSON: refused at the version check.
    #[test]
    fn a_version_1_file_is_refused_by_version() {
        let v1 = include_bytes!("../tests/fixtures/snap-v1-legacy.snap");
        for decoded in [
            Snapshot::decode(v1).map(|_| ()),
            Snapshot::decode_meta(v1).map(|_| ()),
        ] {
            let err = decoded.unwrap_err();
            assert!(err.is_corrupt());
            assert!(err.to_string().contains("version 1"), "{err}");
        }
    }

    #[test]
    fn wrong_magic_version_and_trailing_bytes_are_rejected() {
        let bytes = sample().encode();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(Snapshot::decode(&wrong_magic).is_err());
        let mut wrong_version = bytes.clone();
        wrong_version[11] = 9;
        assert!(Snapshot::decode(&wrong_version).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Snapshot::decode(&trailing).is_err());
        assert!(Snapshot::decode(&[]).is_err());
    }
}
