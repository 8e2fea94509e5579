//! Fuzz/property tests for the frame decoder: arbitrary byte streams and
//! truncated/oversized/bad-version frames of both layouts (un-numbered,
//! and v3 — the one request generation; byte 2 is as unknown as any
//! other) never panic, never read past the declared frame end, and always
//! yield either a clean [`FrameError`] or a faithfully decoded frame.

use std::io::Cursor;

use proptest::prelude::*;
use smartpick_wire::frame::{
    read_frame, read_frame_any_into, write_frame, write_frame_v3_buffered, FrameError, PROTOCOL_V3,
    PROTOCOL_VERSION,
};

const MAX_LEN: usize = 256;

/// The header size implied by a decoded frame's version byte.
fn header_len(version: u8) -> u64 {
    match version {
        PROTOCOL_VERSION => 5,
        PROTOCOL_V3 => 13,
        other => panic!("decoder returned unknown version {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Totally arbitrary bytes: the decoder must return, never panic,
    /// and on success must have consumed exactly header + declared
    /// length — no byte past the frame end.
    #[test]
    fn arbitrary_bytes_never_panic_or_over_read(bytes in prop::collection::vec(0u8..=255, 0..64)) {
        let mut cursor = Cursor::new(bytes.as_slice());
        let mut payload = Vec::new();
        match read_frame_any_into(&mut cursor, MAX_LEN, &mut payload) {
            Ok(header) => {
                prop_assert!(payload.len() <= MAX_LEN);
                prop_assert_eq!(
                    cursor.position(),
                    header_len(header.version) + payload.len() as u64
                );
                prop_assert!(cursor.position() <= bytes.len() as u64);
            }
            Err(FrameError::Eof) => prop_assert!(bytes.is_empty()),
            Err(FrameError::VersionMismatch { got }) => {
                prop_assert_eq!(got, bytes[0]);
                prop_assert!(got != PROTOCOL_VERSION && got != PROTOCOL_V3);
            }
            Err(FrameError::Oversized { len, max }) => {
                prop_assert_eq!(max, MAX_LEN);
                prop_assert!(len > MAX_LEN);
                // The oversized claim must be rejected before any
                // payload byte is consumed.
                prop_assert_eq!(cursor.position(), header_len(bytes[0]));
            }
            Err(FrameError::Io(_)) => {} // truncation mid-frame
        }
        // The v1-only reader must be equally total.
        let _ = read_frame(&mut Cursor::new(bytes.as_slice()), MAX_LEN);
    }

    /// Well-formed un-numbered and v3 frames round-trip exactly, and the decoder
    /// stops at the frame boundary even with trailing garbage.
    #[test]
    fn valid_frames_round_trip_and_stop_at_the_boundary(
        body in prop::collection::vec(0u8..=255, 0..48),
        id in 0u64..=u64::MAX,
        v3 in 0u32..2,
        trailer in prop::collection::vec(0u8..=255, 0..16),
    ) {
        let mut buf = Vec::new();
        if v3 == 1 {
            write_frame_v3_buffered(&mut buf, id, &body, &mut Vec::new()).unwrap();
        } else {
            write_frame(&mut buf, &body).unwrap();
        }
        let frame_end = buf.len() as u64;
        buf.extend_from_slice(&trailer);

        let mut cursor = Cursor::new(buf.as_slice());
        let mut payload = Vec::new();
        let header = read_frame_any_into(&mut cursor, MAX_LEN, &mut payload).unwrap();
        prop_assert_eq!(&payload, &body);
        if v3 == 1 {
            prop_assert_eq!(header.version, PROTOCOL_V3);
            prop_assert_eq!(header.id, Some(id));
        } else {
            prop_assert_eq!(header.version, PROTOCOL_VERSION);
            prop_assert_eq!(header.id, None);
        }
        prop_assert_eq!(cursor.position(), frame_end, "decoder must not touch the trailer");
    }

    /// Any strict prefix of a valid frame is a clean error — `Eof` on
    /// the empty prefix, `Io` otherwise — never a bogus success.
    #[test]
    fn truncations_error_cleanly(
        body in prop::collection::vec(0u8..=255, 1..48),
        id in 0u64..=u64::MAX,
        v3 in 0u32..2,
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut buf = Vec::new();
        if v3 == 1 {
            write_frame_v3_buffered(&mut buf, id, &body, &mut Vec::new()).unwrap();
        } else {
            write_frame(&mut buf, &body).unwrap();
        }
        let cut = ((buf.len() - 1) as f64 * cut_fraction) as usize;
        buf.truncate(cut);
        let mut payload = Vec::new();
        match read_frame_any_into(&mut Cursor::new(buf.as_slice()), MAX_LEN, &mut payload) {
            Err(FrameError::Eof) => prop_assert_eq!(cut, 0),
            Err(FrameError::Io(_)) => prop_assert!(cut > 0),
            other => prop_assert!(false, "truncated frame decoded as {other:?}"),
        }
    }

    /// A version byte of neither layout — the retired v2 byte included —
    /// is always a `VersionMismatch`, with nothing consumed past it.
    #[test]
    fn unknown_versions_are_rejected(
        version in 0u8..=255,
        rest in prop::collection::vec(0u8..=255, 0..32),
    ) {
        prop_assume!(version != PROTOCOL_VERSION && version != PROTOCOL_V3);
        let mut buf = vec![version];
        buf.extend_from_slice(&rest);
        let mut cursor = Cursor::new(buf.as_slice());
        let mut payload = Vec::new();
        match read_frame_any_into(&mut cursor, MAX_LEN, &mut payload) {
            Err(FrameError::VersionMismatch { got }) => {
                prop_assert_eq!(got, version);
                prop_assert_eq!(cursor.position(), 1);
            }
            other => prop_assert!(false, "bad version decoded as {other:?}"),
        }
    }

    /// A length prefix over the cap is rejected in both layouts before a
    /// single payload byte is read.
    #[test]
    fn oversized_claims_trip_before_any_payload(
        claim in (MAX_LEN as u32 + 1)..=u32::MAX,
        id in 0u64..=u64::MAX,
        v3 in 0u32..2,
    ) {
        let mut buf = Vec::new();
        if v3 == 1 {
            buf.push(PROTOCOL_V3);
            buf.extend_from_slice(&id.to_be_bytes());
        } else {
            buf.push(PROTOCOL_VERSION);
        }
        buf.extend_from_slice(&claim.to_be_bytes());
        // Deliberately no payload bytes at all: the cap must trip first.
        let mut cursor = Cursor::new(buf.as_slice());
        let mut payload = Vec::new();
        match read_frame_any_into(&mut cursor, MAX_LEN, &mut payload) {
            Err(FrameError::Oversized { len, max }) => {
                prop_assert_eq!(len, claim as usize);
                prop_assert_eq!(max, MAX_LEN);
                prop_assert_eq!(cursor.position(), buf.len() as u64);
            }
            other => prop_assert!(false, "oversized claim decoded as {other:?}"),
        }
    }
}
