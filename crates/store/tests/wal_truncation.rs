//! Kill-at-every-byte-offset: the WAL's core durability property.
//!
//! A crash can stop a write after *any* byte. These tests build WALs,
//! cut them at every single offset (and flip bits inside records), and
//! assert the scanner always recovers **exactly the longest valid
//! prefix** — never fewer records, never a record conjured from garbage,
//! never a panic.

use proptest::prelude::*;
use smartpick_core::RunSample;
use smartpick_engine::QueryProfile;
use smartpick_store::wal::{scan_wal, MAGIC};
use smartpick_store::{WalPayload, WalRecord};

/// Builds a WAL byte image plus the record-boundary offsets (the file
/// length after the magic and after each record).
fn build_wal(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = MAGIC.to_vec();
    let mut boundaries = vec![bytes.len()];
    for record in records {
        bytes.extend_from_slice(&WalRecord::frame(&record.encode_payload()));
        boundaries.push(bytes.len());
    }
    (bytes, boundaries)
}

/// A kind-`0x03` record for a known query: what the service logs.
fn report(tenant: &str, run_id: u64, query_id: &str) -> WalRecord {
    WalRecord {
        tenant: tenant.into(),
        epoch: 7,
        payload: WalPayload::Sample {
            run_id,
            sample: RunSample {
                query_id: query_id.into(),
                input_gb: 100.0,
                n_vm: 2,
                n_sl: 3,
                predicted_seconds: 80.0,
                actual_seconds: 82.5 + run_id as f64,
                cost_dollars: 0.04,
                matched_query: query_id.into(),
                profile: None,
            },
        },
    }
}

/// The same for a similarity-matched query, whose profile rides along.
fn alien_report(tenant: &str, run_id: u64) -> WalRecord {
    let mut record = report(tenant, run_id, "alien-q");
    if let WalPayload::Sample { sample, .. } = &mut record.payload {
        sample.matched_query = "known-q".into();
        sample.profile = Some(QueryProfile::uniform("alien-q", 2, 8, 120.0, 64.0, 16.0));
    }
    record
}

/// The opaque JSON kind the service used to log.
fn legacy_report(tenant: &str, run_id: u64, run_json: &str) -> WalRecord {
    WalRecord {
        tenant: tenant.into(),
        epoch: 7,
        payload: WalPayload::Report {
            run_id,
            run_json: run_json.into(),
        },
    }
}

fn commit(tenant: &str, generation: u64, watermark: u64) -> WalRecord {
    WalRecord {
        tenant: tenant.into(),
        epoch: 7,
        payload: WalPayload::Commit {
            generation,
            watermark,
        },
    }
}

/// The number of whole records that fit in a `cut`-byte prefix, per the
/// boundary table — the oracle every scan is checked against.
fn expected_records(boundaries: &[usize], cut: usize) -> usize {
    boundaries.iter().filter(|&&b| b <= cut).count().max(1) - 1
}

#[test]
fn truncation_at_every_byte_offset_recovers_exactly_the_longest_valid_prefix() {
    let records = vec![
        report("acme", 1, "tpcds-q82"),
        report("acme", 2, "tpcds-q68"),
        commit("acme", 1, 2),
        alien_report("globex", 1),
        commit("globex", 1, 1),
        legacy_report("acme", 3, "{\"q\":3,\"pad\":\"xxxxxxxxxxxxxxxx\"}"),
        report("acme", 4, ""),
    ];
    let (bytes, boundaries) = build_wal(&records);

    for cut in 0..=bytes.len() {
        let scan = scan_wal(&bytes[..cut]).unwrap_or_else(|e| {
            panic!("scan at cut {cut} must tolerate truncation, got error: {e}")
        });
        let want = expected_records(&boundaries, cut);
        assert_eq!(
            scan.records.len(),
            want,
            "cut {cut}: recovered {} records, expected {want}",
            scan.records.len()
        );
        // The valid prefix ends exactly at the last whole record (or the
        // magic, or 0 for a torn magic) — byte-precise, so a truncate at
        // valid_len and re-scan is idempotent.
        let want_len = if cut < MAGIC.len() {
            0
        } else {
            *boundaries.iter().rfind(|&&b| b <= cut).unwrap_or(&0)
        };
        assert_eq!(scan.valid_len, want_len as u64, "cut {cut}");
        // A cut exactly on a boundary is a clean file (except cut 0: the
        // empty file is clean too); anywhere else is a reported torn
        // tail.
        let clean = cut == 0 || (cut >= MAGIC.len() && boundaries.contains(&cut));
        assert_eq!(
            scan.torn.is_none(),
            clean,
            "cut {cut}: torn={:?}",
            scan.torn
        );
        // Recovered records are bit-identical to what was written.
        for (got, wrote) in scan.records.iter().zip(&records) {
            assert_eq!(got, wrote);
        }
        // Idempotence: scanning the valid prefix again is clean.
        let rescan = scan_wal(&bytes[..scan.valid_len as usize]).unwrap();
        assert_eq!(rescan.records.len(), want);
        assert!(cut < MAGIC.len() || rescan.torn.is_none());
    }
}

#[test]
fn a_flipped_bit_inside_any_record_keeps_only_the_records_before_it() {
    let records = vec![
        report("t", 1, "tpcds-q82"),
        commit("t", 1, 1),
        alien_report("t", 2),
        legacy_report("t", 3, "{\"b\":2}"),
    ];
    let (bytes, boundaries) = build_wal(&records);
    for i in MAGIC.len()..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0x01;
        let scan = scan_wal(&corrupted)
            .unwrap_or_else(|e| panic!("flip at {i} must scan, got error: {e}"));
        // The flipped byte lives inside record k; records 0..k survive
        // untouched, and nothing past the corruption is trusted (the
        // scanner stops at the first bad frame rather than resyncing).
        let k = boundaries.iter().filter(|&&b| b <= i).count() - 1;
        assert!(
            scan.records.len() <= k,
            "flip at {i}: {} records survived, at most {k} may",
            scan.records.len()
        );
        assert!(scan.torn.is_some(), "flip at {i} must report corruption");
        for (got, wrote) in scan.records.iter().zip(&records) {
            assert_eq!(got, wrote, "flip at {i}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The exhaustive-truncation property over arbitrary record mixes:
    /// every cut of every generated WAL recovers exactly the whole
    /// records before the cut.
    #[test]
    fn any_wal_any_cut_recovers_the_prefix(
        specs in prop::collection::vec((0u8..4, 1u64..100, "\\PC{0,40}"), 0..8),
        cut_frac in 0.0f64..1.0,
    ) {
        let records: Vec<WalRecord> = specs
            .iter()
            .map(|(kind, n, s)| match *kind {
                0 => report("p", *n, s),
                1 => commit("p", *n, n * 2),
                2 => alien_report("p", *n),
                _ => legacy_report("p", *n, s),
            })
            .collect();
        let (bytes, boundaries) = build_wal(&records);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let scan = scan_wal(&bytes[..cut.min(bytes.len())]).unwrap();
        prop_assert_eq!(scan.records.len(), expected_records(&boundaries, cut));
        for (got, wrote) in scan.records.iter().zip(&records) {
            prop_assert_eq!(got, wrote);
        }
    }
}
