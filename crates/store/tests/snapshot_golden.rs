//! Snapshot format v2, pinned by a file: `fixtures/snap-v2-golden.snap`
//! was written by the v2 codec while it still encoded plain-data copies
//! of the model types, before it read and built the driver's own parts.
//! It holds a driver trained on one query (tpcds-q82, seed 2026, 4 trees,
//! a 5×5 grid) after seven reports: two retrains, two pending rows and a
//! seven-record history. Whatever the codec becomes, this file must
//! decode, re-encode to the same bytes, and answer the same determine.

use smartpick_core::wp::{PredictionRequest, WorkloadPredictionService};
use smartpick_core::Smartpick;
use smartpick_store::snapshot::VERSION;
use smartpick_store::Snapshot;
use smartpick_workloads::tpcds;

const GOLDEN: &[u8] = include_bytes!("fixtures/snap-v2-golden.snap");

/// `predicted_seconds` of the determine below, as the writing build
/// answered it.
const PREDICTED_BITS: u64 = 0x4056_8a19_3013_d737;

#[test]
fn the_v2_golden_file_decodes_re_encodes_byte_for_byte_and_answers_the_pinned_determine() {
    assert_eq!(VERSION, 2);
    let snap = Snapshot::decode(GOLDEN).unwrap();
    assert_eq!(
        (
            snap.tenant.as_str(),
            snap.epoch,
            snap.generation,
            snap.watermark
        ),
        ("golden", 1, 1, 7)
    );
    assert!(snap.encode() == GOLDEN, "re-encoding changed the bytes");
    assert_eq!(snap.state.mfe.pending.len(), 2);

    let driver = Smartpick::from_state(snap.state);
    assert_eq!(driver.retrain_count(), 2);
    assert_eq!(driver.history().len(), 7);
    let det = driver
        .predictor()
        .determine(&PredictionRequest::new(
            tpcds::query(82, 100.0).unwrap(),
            11,
        ))
        .unwrap();
    assert_eq!(det.predicted_seconds.to_bits(), PREDICTED_BITS);
}
