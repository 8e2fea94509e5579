//! The frame layer: how request/response payloads travel over TCP.
//!
//! Requests and their responses travel in **id-tagged** v3 frames: a
//! version byte, a big-endian `u64` request id, a big-endian `u32`
//! payload length, and that many payload bytes of the binary codec of
//! [`crate::codec`]. The id lets many requests be in flight on one
//! connection with every response naming the request it answers. The
//! **un-numbered** layout (version byte 1, no id) was generation v1's
//! request/response frame; v1 and v2 (id-tagged JSON) are retired, and
//! the un-numbered layout now carries only the server's connection-level
//! error frames, which answer no particular request:
//!
//! ```text
//! id-tagged:    +---------+---------------------+-------------------------+-----------+
//!               | u8 = 3  | u64 request id (BE) | u32 payload length (BE) | payload   |
//!               +---------+---------------------+-------------------------+-----------+
//!                 1 byte          8 bytes                  4 bytes          `length` bytes
//!
//! un-numbered:  +---------+-------------------------+------------------------+
//!               | u8 = 1  | u32 payload length (BE) | payload (JSON, UTF-8)  |
//!               +---------+-------------------------+------------------------+
//!                 1 byte            4 bytes              `length` bytes
//! ```
//!
//! The version byte guards against talking to the wrong protocol
//! generation (an unknown version poisons all subsequent framing, so the
//! connection is closed); the length prefix is checked against a
//! configurable maximum *before* any payload byte is read, so an
//! adversarial or corrupt length can never make the server allocate or
//! read unbounded memory.

use std::io::{self, Read, Write};

/// The un-numbered frame layout. As a *request* generation (v1: one
/// frame per request/response turn, answered strictly in order) it is
/// retired — a server answers this byte with a `protocol` error and a
/// close. The layout remains as the server's connection-level error
/// frame (connection cap `busy`, framing violations).
pub const PROTOCOL_VERSION: u8 = 1;

/// The one generation that executes: every frame carries a `u64`
/// request id, so responses can arrive out of order and a single
/// connection can keep many requests in flight, and the payload is the
/// length-tagged binary envelope encoding of [`crate::codec`]. (Byte 2,
/// the same layout with JSON payloads, is retired like byte 1.)
pub const PROTOCOL_V3: u8 = 3;

/// Default cap on a frame's payload length (1 MiB) — far above any
/// legitimate envelope (a `Determination` with its full `ET_l` list is a
/// few tens of KiB) while bounding what a bad peer can make us buffer.
pub const DEFAULT_MAX_FRAME_LEN: usize = 1 << 20;

/// The decoded header of one inbound frame: which layout it used and,
/// for a v3 frame, the request id it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The version byte ([`PROTOCOL_VERSION`] or [`PROTOCOL_V3`]).
    pub version: u8,
    /// The request id (`Some` iff the frame is v3).
    pub id: Option<u64>,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly on a frame boundary (peer hung up).
    Eof,
    /// A socket-level failure, including mid-frame truncation.
    Io(io::Error),
    /// The peer speaks a different protocol generation.
    VersionMismatch {
        /// The version byte received.
        got: u8,
    },
    /// The length prefix exceeds the configured cap; the payload was not
    /// read.
    Oversized {
        /// The claimed payload length.
        len: usize,
        /// The configured cap it exceeded.
        max: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "peer closed the connection"),
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::VersionMismatch { got } => write!(
                f,
                "protocol version mismatch: got {got}, want {PROTOCOL_V3}"
            ),
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame: version byte, length prefix, payload.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; 5];
    fill_header(&mut header, payload)?;
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Writes one frame via a caller-owned scratch buffer: the header and
/// payload are assembled in `scratch` (cleared first, allocation reused
/// across frames) and sent with a single `write_all`. Connection loops
/// use this so steady-state framing allocates nothing and costs one
/// syscall per frame instead of two.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_frame_buffered(
    w: &mut impl Write,
    payload: &[u8],
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    let mut header = [0u8; 5];
    fill_header(&mut header, payload)?;
    scratch.clear();
    scratch.reserve(header.len() + payload.len());
    scratch.extend_from_slice(&header);
    scratch.extend_from_slice(payload);
    w.write_all(scratch)?;
    w.flush()
}

fn fill_header(header: &mut [u8; 5], payload: &[u8]) -> io::Result<()> {
    let len = payload_len(payload)?;
    header[0] = PROTOCOL_VERSION;
    header[1..5].copy_from_slice(&len.to_be_bytes());
    Ok(())
}

fn payload_len(payload: &[u8]) -> io::Result<u32> {
    u32::try_from(payload.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds u32 length",
        )
    })
}

/// Writes one v3 frame — version byte, request id, length prefix,
/// payload — via a caller-owned scratch buffer (cleared first,
/// allocation reused across frames; single `write_all`): the id-tagged
/// twin of [`write_frame_buffered`]. The payload must be a
/// [`crate::codec`] binary envelope.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_frame_v3_buffered(
    w: &mut impl Write,
    id: u64,
    payload: &[u8],
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    let len = payload_len(payload)?;
    scratch.clear();
    scratch.reserve(TAGGED_HEADER_LEN + payload.len());
    scratch.push(PROTOCOL_V3);
    scratch.extend_from_slice(&id.to_be_bytes());
    scratch.extend_from_slice(&len.to_be_bytes());
    scratch.extend_from_slice(payload);
    w.write_all(scratch)?;
    w.flush()
}

/// Reads one frame's payload, enforcing the version byte and `max_len`.
///
/// The length prefix is validated before any payload byte is read, so an
/// oversized claim costs nothing but the 5 header bytes.
///
/// # Errors
///
/// [`FrameError::Eof`] on a clean close before a frame starts;
/// [`FrameError::VersionMismatch`] / [`FrameError::Oversized`] on
/// protocol violations; [`FrameError::Io`] otherwise (including
/// truncation mid-frame).
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Vec<u8>, FrameError> {
    let mut payload = Vec::new();
    read_frame_core(r, max_len, &mut payload, false)?;
    Ok(payload)
}

/// Reads one frame of *either* layout (un-numbered or v3) into
/// `payload` (cleared first, allocation reused) and reports which kind
/// arrived — what the client reads with, since a server answers in v3
/// and reports connection-level errors un-numbered. On error the buffer
/// contents are unspecified.
///
/// # Errors
///
/// See [`read_frame`]; a version byte that is neither
/// [`PROTOCOL_VERSION`] nor [`PROTOCOL_V3`] is a
/// [`FrameError::VersionMismatch`].
pub fn read_frame_any_into(
    r: &mut impl Read,
    max_len: usize,
    payload: &mut Vec<u8>,
) -> Result<FrameHeader, FrameError> {
    read_frame_core(r, max_len, payload, true)
}

fn read_frame_core(
    r: &mut impl Read,
    max_len: usize,
    payload: &mut Vec<u8>,
    accept_v3: bool,
) -> Result<FrameHeader, FrameError> {
    let mut header = [0u8; TAGGED_HEADER_LEN];
    // A clean EOF is only legitimate before the first header byte.
    // (Constant-stack EINTR retry; `read_exact` below handles its own.)
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Err(FrameError::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let version = header[0];
    if version != PROTOCOL_VERSION && !accept_v3 {
        return Err(FrameError::VersionMismatch { got: version });
    }
    // The buffer fits every layout and is parsed once full, so neither
    // `None` below can happen; framing stays total regardless.
    let short = || FrameError::Io(io::ErrorKind::UnexpectedEof.into());
    let header = header.get_mut(..header_len(version)?).ok_or_else(short)?;
    r.read_exact(&mut header[1..]).map_err(FrameError::Io)?;
    let (frame, body) = parse_header(header, max_len)?.ok_or_else(short)?;
    payload.clear();
    payload.resize(body.len(), 0);
    r.read_exact(payload).map_err(FrameError::Io)?;
    Ok(frame)
}

/// The id-tagged header: version byte + `u64` id + `u32` length.
const TAGGED_HEADER_LEN: usize = 13;

fn header_len(version: u8) -> Result<usize, FrameError> {
    match version {
        PROTOCOL_VERSION => Ok(5),
        PROTOCOL_V3 => Ok(TAGGED_HEADER_LEN),
        got => Err(FrameError::VersionMismatch { got }),
    }
}

/// Decodes the header at the front of `buf`: which frame it starts and
/// where in `buf` its payload lies (perhaps past what has arrived yet);
/// `Ok(None)` while the header itself is incomplete. The header layouts
/// are known here only — the blocking reader above and the reactor's
/// buffer parser both go through this.
pub(crate) fn parse_header(
    buf: &[u8],
    max_len: usize,
) -> Result<Option<(FrameHeader, std::ops::Range<usize>)>, FrameError> {
    let Some(&version) = buf.first() else {
        return Ok(None);
    };
    let start = header_len(version)?;
    let Some((id, len)) = buf.get(1..start).and_then(<[u8]>::split_last_chunk) else {
        return Ok(None);
    };
    let len = u32::from_be_bytes(*len) as usize;
    if len > max_len {
        return Err(FrameError::Oversized { len, max: max_len });
    }
    // `id` is empty in the un-numbered layout, eight bytes otherwise.
    let id = <[u8; 8]>::try_from(id).ok().map(u64::from_be_bytes);
    Ok(Some((
        FrameHeader { version, id },
        start..start.saturating_add(len),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r, 1024).unwrap(), b"{\"op\":\"ping\"}");
        assert_eq!(read_frame(&mut r, 1024).unwrap(), b"");
        assert!(matches!(read_frame(&mut r, 1024), Err(FrameError::Eof)));
    }

    #[test]
    fn buffered_write_and_reused_read_match_the_simple_path() {
        let mut plain = Vec::new();
        write_frame(&mut plain, b"abc").unwrap();
        write_frame(&mut plain, b"defgh").unwrap();
        let mut buffered = Vec::new();
        let mut scratch = Vec::new();
        write_frame_buffered(&mut buffered, b"abc", &mut scratch).unwrap();
        write_frame_buffered(&mut buffered, b"defgh", &mut scratch).unwrap();
        assert_eq!(plain, buffered, "byte streams must be identical");

        let mut r = Cursor::new(buffered);
        let mut payload = Vec::new();
        read_frame_any_into(&mut r, 1024, &mut payload).unwrap();
        assert_eq!(payload, b"abc");
        let cap_before = payload.capacity();
        read_frame_any_into(&mut r, 1024, &mut payload).unwrap();
        assert_eq!(payload, b"defgh");
        assert!(payload.capacity() >= cap_before);
        assert!(matches!(
            read_frame_any_into(&mut r, 1024, &mut payload),
            Err(FrameError::Eof)
        ));
    }

    #[test]
    fn v3_frames_round_trip_with_ids_mixed_with_v1() {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_frame_v3_buffered(&mut buf, 11, &[0x03, 0, 0, 0, 0, 0, 0, 0, 0], &mut scratch)
            .unwrap();
        write_frame(&mut buf, b"legacy").unwrap();
        write_frame_v3_buffered(&mut buf, u64::MAX, b"", &mut scratch).unwrap();

        let mut r = Cursor::new(buf);
        let mut payload = Vec::new();
        let h = read_frame_any_into(&mut r, 1024, &mut payload).unwrap();
        assert_eq!((h.version, h.id), (PROTOCOL_V3, Some(11)));
        assert_eq!(payload, [0x03, 0, 0, 0, 0, 0, 0, 0, 0]);
        let h = read_frame_any_into(&mut r, 1024, &mut payload).unwrap();
        assert_eq!((h.version, h.id), (PROTOCOL_VERSION, None));
        assert_eq!(payload, b"legacy");
        let h = read_frame_any_into(&mut r, 1024, &mut payload).unwrap();
        assert_eq!((h.version, h.id), (PROTOCOL_V3, Some(u64::MAX)));
        assert_eq!(payload, b"");
        assert!(matches!(
            read_frame_any_into(&mut r, 1024, &mut payload),
            Err(FrameError::Eof)
        ));
    }

    #[test]
    fn v3_headers_report_version_id_and_payload_range() {
        let mut buf = Vec::new();
        write_frame_v3_buffered(&mut buf, 0x0102_0304_0506_0708, b"abc", &mut Vec::new()).unwrap();
        assert_eq!(
            buf,
            [3, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 3, b'a', b'b', b'c'],
            "version byte, BE id, BE length, payload"
        );
        // Every proper prefix of the header is incomplete, not an error.
        for cut in 0..TAGGED_HEADER_LEN {
            assert!(
                matches!(parse_header(&buf[..cut], 1024), Ok(None)),
                "cut {cut}"
            );
        }
        // A full header reports the frame and where its payload lies, even
        // before the payload has arrived.
        let expected = FrameHeader {
            version: PROTOCOL_V3,
            id: Some(0x0102_0304_0506_0708),
        };
        for cut in TAGGED_HEADER_LEN..=buf.len() {
            let (header, body) = parse_header(&buf[..cut], 1024).unwrap().unwrap();
            assert_eq!((header, body), (expected, TAGGED_HEADER_LEN..buf.len()));
        }
    }

    #[test]
    fn v1_only_reader_rejects_v2_frames() {
        // The retired v2 layout: v3's header under byte 2. Neither reader
        // takes it any more; the v1-only one takes no v3 frame either.
        let mut v2 = vec![2];
        v2.extend_from_slice(&3u64.to_be_bytes());
        v2.extend_from_slice(&1u32.to_be_bytes());
        v2.push(b'x');
        assert!(matches!(
            read_frame(&mut Cursor::new(&v2), 1024),
            Err(FrameError::VersionMismatch { got: 2 })
        ));
        assert!(matches!(
            read_frame_any_into(&mut Cursor::new(&v2), 1024, &mut Vec::new()),
            Err(FrameError::VersionMismatch { got: 2 })
        ));
        let mut v3 = Vec::new();
        write_frame_v3_buffered(&mut v3, 3, b"x", &mut Vec::new()).unwrap();
        assert!(matches!(
            read_frame(&mut Cursor::new(v3), 1024),
            Err(FrameError::VersionMismatch { got: PROTOCOL_V3 })
        ));
    }

    #[test]
    fn v3_truncated_id_is_io_and_oversized_still_trips_before_payload() {
        // Header cut inside the id field: Io, not Eof.
        let mut buf = Vec::new();
        write_frame_v3_buffered(&mut buf, 0x0102_0304_0506_0708, b"abc", &mut Vec::new()).unwrap();
        buf.truncate(5);
        let mut payload = Vec::new();
        assert!(matches!(
            read_frame_any_into(&mut Cursor::new(buf), 1024, &mut payload),
            Err(FrameError::Io(_))
        ));
        // Oversized v3 claim with no payload bytes present: cap trips first.
        let mut buf = vec![PROTOCOL_V3];
        buf.extend_from_slice(&9u64.to_be_bytes());
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            read_frame_any_into(&mut Cursor::new(buf), 64, &mut payload),
            Err(FrameError::Oversized { max: 64, .. })
        ));
    }

    #[test]
    fn version_byte_is_enforced() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"x").unwrap();
        buf[0] = 9;
        assert!(matches!(
            read_frame(&mut Cursor::new(buf), 1024),
            Err(FrameError::VersionMismatch { got: 9 })
        ));
    }

    #[test]
    fn oversized_claim_is_rejected_before_payload() {
        let mut buf = vec![PROTOCOL_VERSION];
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        // No payload bytes present at all: the cap must trip first.
        assert!(matches!(
            read_frame(&mut Cursor::new(buf), 64),
            Err(FrameError::Oversized { max: 64, .. })
        ));
    }

    #[test]
    fn truncation_mid_frame_is_io_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(7); // header + 2 of 5 payload bytes
        assert!(matches!(
            read_frame(&mut Cursor::new(buf), 1024),
            Err(FrameError::Io(_))
        ));
    }
}
