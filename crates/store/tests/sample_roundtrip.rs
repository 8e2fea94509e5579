//! WAL kind `0x03`: a `RunSample` and its payload are each other's
//! image, bit for bit — NaN payloads, `-0.0`, empty and 64 KiB strings,
//! with and without the alien query's profile — and no byte string
//! whatsoever can make the decoder panic.

use proptest::prelude::*;
use smartpick_core::RunSample;
use smartpick_engine::{QueryProfile, StageProfile};
use smartpick_store::wal::{scan_wal, MAGIC};
use smartpick_store::{WalPayload, WalRecord};

/// Bit patterns a float field must carry unharmed: a quiet and a
/// signalling NaN with payloads, both zeros, the infinities, a subnormal.
const HARD_BITS: [u64; 7] = [
    0x7ff8_0000_dead_beef,
    0xfff0_0000_0000_0001,
    0x8000_0000_0000_0000,
    0x0000_0000_0000_0000,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x0000_0000_0000_0001,
];

/// `pick` below the table's length names one of [`HARD_BITS`]; anything
/// else is taken as the bits themselves, so every pattern can occur.
fn float(pick: u64) -> f64 {
    f64::from_bits(HARD_BITS.get(pick as usize).copied().unwrap_or(pick))
}

/// `size` 0 is the empty string, 1 a 64 KiB one, anything else `text`.
fn string(size: u8, text: &str) -> String {
    match size {
        0 => String::new(),
        1 => "q".repeat(64 << 10),
        _ => text.to_owned(),
    }
}

fn floats() -> impl Strategy<Value = u64> {
    0u64..=u64::MAX
}

fn sample_of(
    (id_size, id, matched_size, matched): (u8, String, u8, String),
    (n_vm, n_sl): (u32, u32),
    f: &[u64],
    profile: Option<QueryProfile>,
) -> RunSample {
    RunSample {
        query_id: string(id_size, &id),
        input_gb: float(f[0]),
        n_vm,
        n_sl,
        predicted_seconds: float(f[1]),
        actual_seconds: float(f[2]),
        cost_dollars: float(f[3]),
        matched_query: string(matched_size, &matched),
        profile,
    }
}

fn profile_of(
    (sql_size, sql, input_gb): (u8, String, u64),
    stages: Vec<(String, u64, Vec<u64>, Vec<usize>)>,
) -> QueryProfile {
    QueryProfile {
        id: "alien".into(),
        sql: string(sql_size, &sql),
        input_gb: float(input_gb),
        stages: stages
            .into_iter()
            .map(|(name, tasks, f, deps)| StageProfile {
                name,
                tasks: tasks as usize,
                cpu_ms_per_task: float(f[0]),
                input_mib_per_task: float(f[1]),
                shuffle_mib_per_task: float(f[2]),
                deps,
            })
            .collect(),
    }
}

/// Bit-exact equality: `==` on the structs would call two NaNs unequal
/// and the two zeros equal.
fn assert_same_bits(a: &WalRecord, b: &WalRecord) -> Result<(), TestCaseError> {
    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    prop_assert_eq!(a.encode_payload(), b.encode_payload());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_sample_and_its_payload_round_trip_bit_exactly(
        tenant in "\\PC{0,12}",
        ids in (0u64..=u64::MAX, 0u64..=u64::MAX),
        strings in (0u8..6, "\\PC{0,24}", 0u8..6, "\\PC{0,24}"),
        instances in (0u32..=u32::MAX, 0u32..=u32::MAX),
        f in prop::collection::vec(floats(), 4),
        with_profile in 0u8..2,
        sql in (0u8..6, "\\PC{0,80}", floats()),
        stages in prop::collection::vec(
            (
                "\\PC{0,10}",
                0u64..=u32::MAX as u64,
                prop::collection::vec(floats(), 3),
                prop::collection::vec(0usize..=u32::MAX as usize, 0..4),
            ),
            0..5,
        ),
    ) {
        let profile = (with_profile == 1).then(|| profile_of(sql, stages));
        let sample = sample_of(strings, instances, &f, profile);
        let record = WalRecord {
            tenant: tenant.clone(),
            epoch: ids.0,
            payload: WalPayload::Sample { run_id: ids.1, sample: sample.clone() },
        };
        let payload = record.encode_payload();
        // The borrowed encoder the worker uses writes the same bytes.
        prop_assert_eq!(&payload, &WalRecord::sample_payload(&tenant, ids.0, ids.1, &sample));
        let back = WalRecord::decode_payload(&payload).unwrap();
        assert_same_bits(&back, &record)?;

        // And through the framing: one record, nothing torn.
        let mut log = MAGIC.to_vec();
        log.extend_from_slice(&WalRecord::frame(&payload));
        let scan = scan_wal(&log).unwrap();
        prop_assert!(scan.torn.is_none());
        prop_assert_eq!(scan.records.len(), 1);
        assert_same_bits(&scan.records[0], &record)?;

        // Every proper prefix of the payload is refused, none panics.
        for cut in 0..payload.len().min(512) {
            prop_assert!(WalRecord::decode_payload(&payload[..cut]).is_err(), "cut {}", cut);
        }
        prop_assert!(WalRecord::decode_payload(&[&payload[..], &[0]].concat()).is_err());
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in prop::collection::vec(0u8..=255, 0..300),
        kind in 0u8..5,
        at in 0usize..4096,
        bit in 0u8..8,
    ) {
        // Raw noise, then noise behind each kind byte (so the sample path
        // is entered), then a valid payload with one bit flipped.
        let _ = WalRecord::decode_payload(&bytes);
        let _ = WalRecord::decode_payload(&[&[kind][..], &bytes[..]].concat());
        let valid = WalRecord {
            tenant: "t".into(),
            epoch: 1,
            payload: WalPayload::Sample {
                run_id: 9,
                sample: sample_of(
                    (2, "tpcds-q62".into(), 2, "tpcds-q68".into()),
                    (3, 4),
                    &[100, 200, 300, 400],
                    Some(profile_of(
                        (2, "select 1".into(), 7),
                        vec![("map-0".into(), 64, vec![1, 2, 3], vec![]),
                             ("reduce-1".into(), 8, vec![4, 5, 6], vec![0])],
                    )),
                ),
            },
        };
        let mut damaged = valid.encode_payload();
        let at = at % damaged.len();
        damaged[at] ^= 1 << bit;
        if let Ok(record) = WalRecord::decode_payload(&damaged) {
            // What still decodes is what the damaged bytes say.
            prop_assert_eq!(record.encode_payload(), damaged);
        }
    }
}
