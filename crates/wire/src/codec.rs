//! The payload codec: how an envelope becomes bytes inside a v3 frame.
//!
//! A length-tagged tree encoding of the vendored shim's [`serde::Value`]
//! data model. Numbers travel as raw IEEE-754 bits (8 bytes,
//! big-endian), strings and containers carry `u32` big-endian counts —
//! nothing is ever scanned for a delimiter, so decoding is a single
//! forward pass with no text parsing at all. (JSON text, the other
//! rendering of the same `Value`, is left for humans and for the
//! un-numbered connection-level error frame.)
//!
//! Binary value grammar (one tag byte, then the payload):
//!
//! ```text
//! 0x00                                     null
//! 0x01                                     false
//! 0x02                                     true
//! 0x03  f64-bits:u64 BE                    number
//! 0x04  len:u32 BE   bytes[len]            string (UTF-8)
//! 0x05  count:u32 BE value*count           array
//! 0x06  count:u32 BE (len:u32 BE key value)*count   object
//! ```
//!
//! Every envelope is a fixed point of encode → decode → encode. The two
//! messages of a determine — the `Request::Determine` a client sends and
//! the `Response::Determination` it gets back — have direct fast paths
//! below ([`encode_request_into`] / [`decode_request`],
//! [`encode_response_into`] / [`decode_response`]) that are
//! byte-identical to the generic tree path and fall back to it on any
//! other variant or any non-canonical layout — proven in
//! `tests/codec_roundtrip.rs`.
//!
//! Decoding is **total**: arbitrary bytes can never panic, over-read,
//! or allocate unboundedly (container counts are sanity-checked against
//! the bytes actually remaining; nesting is capped at
//! [`MAX_DECODE_DEPTH`]).

use serde::Value;

/// Nesting cap for binary decoding: deeper trees are rejected rather
/// than risking decoder stack exhaustion on adversarial input. Real
/// envelopes nest a handful of levels.
pub const MAX_DECODE_DEPTH: usize = 96;

/// Why binary bytes could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "binary codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_NUM: u8 = 0x03;
const TAG_STR: u8 = 0x04;
const TAG_ARR: u8 = 0x05;
const TAG_OBJ: u8 = 0x06;

/// Appends the binary encoding of `v` to `out` (the buffer is *not*
/// cleared: connection loops reuse one scratch allocation across
/// frames).
pub fn encode_value_into(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Num(n) => w_num(out, *n),
        Value::Str(s) => w_str(out, s),
        Value::Arr(items) => {
            out.push(TAG_ARR);
            push_count(out, items.len());
            for item in items {
                encode_value_into(item, out);
            }
        }
        Value::Obj(pairs) => {
            out.push(TAG_OBJ);
            push_count(out, pairs.len());
            for (key, value) in pairs {
                push_bytes(out, key.as_bytes());
                encode_value_into(value, out);
            }
        }
    }
}

fn push_count(out: &mut Vec<u8>, n: usize) {
    // Envelope containers are bounded by the frame cap (1 MiB default),
    // far below u32::MAX entries.
    out.extend_from_slice(&(n as u32).to_be_bytes());
}

fn push_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    push_count(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Decodes one binary value, requiring that it consume `bytes` exactly
/// (trailing garbage is an error — a mis-framed payload must not decode
/// "successfully" by accident).
///
/// # Errors
///
/// [`CodecError`] on any malformed input; never panics.
pub fn decode_value(bytes: &[u8]) -> Result<Value, CodecError> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let v = decode_at(&mut cursor, 0)?;
    if cursor.pos != bytes.len() {
        return Err(CodecError(format!(
            "{} trailing bytes after the value",
            bytes.len() - cursor.pos
        )));
    }
    Ok(v)
}

/// The one forward reader over wire-supplied bytes, under both the tree
/// decoder and the determination fast path. Only `take` slices `bytes`,
/// bounds-checked (`checked_add`: a length prefix is the peer's claim);
/// a read that does not fit is `None` and consumes nothing.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn f64(&mut self) -> Option<f64> {
        let b = self.take(8)?;
        Some(f64::from_bits(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ])))
    }

    /// `len:u32 bytes[len]`.
    fn prefixed(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// What the generic decoder reports for a read that came back `None`.
    fn truncated(&self) -> CodecError {
        CodecError(format!(
            "truncated: {} bytes left, the value needs more",
            self.remaining()
        ))
    }

    fn string(&mut self) -> Result<String, CodecError> {
        let bytes = self.prefixed().ok_or_else(|| self.truncated())?;
        String::from_utf8(bytes.to_vec()).map_err(|e| CodecError(format!("non-UTF-8 string: {e}")))
    }
}

fn decode_at(c: &mut Cursor<'_>, depth: usize) -> Result<Value, CodecError> {
    if depth >= MAX_DECODE_DEPTH {
        return Err(CodecError(format!(
            "nesting exceeds the {MAX_DECODE_DEPTH}-level cap"
        )));
    }
    Ok(match c.u8().ok_or_else(|| c.truncated())? {
        TAG_NULL => Value::Null,
        TAG_FALSE => Value::Bool(false),
        TAG_TRUE => Value::Bool(true),
        TAG_NUM => Value::Num(c.f64().ok_or_else(|| c.truncated())?),
        TAG_STR => Value::Str(c.string()?),
        TAG_ARR => {
            let count = c.u32().ok_or_else(|| c.truncated())? as usize;
            // Every element costs ≥1 byte, so a count beyond the bytes
            // remaining is a lie; checking first bounds the allocation.
            if count > c.remaining() {
                return Err(CodecError(format!(
                    "array count {count} exceeds the {} bytes remaining",
                    c.remaining()
                )));
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(decode_at(c, depth + 1)?);
            }
            Value::Arr(items)
        }
        TAG_OBJ => {
            let count = c.u32().ok_or_else(|| c.truncated())? as usize;
            // Every pair costs ≥5 bytes (key length prefix + value tag).
            if count > c.remaining() / 5 {
                return Err(CodecError(format!(
                    "object count {count} exceeds the {} bytes remaining",
                    c.remaining()
                )));
            }
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                let key = c.string()?;
                let value = decode_at(c, depth + 1)?;
                pairs.push((key, value));
            }
            Value::Obj(pairs)
        }
        tag => return Err(CodecError(format!("unknown value tag 0x{tag:02x}"))),
    })
}

/// Renders `t` as a binary payload into `out` (cleared first, allocation
/// reused across frames).
pub fn encode_envelope_into<T: serde::Serialize>(t: &T, out: &mut Vec<u8>) {
    out.clear();
    encode_value_into(&t.to_value(), out);
}

/// Decodes a binary payload back into an envelope.
///
/// # Errors
///
/// [`CodecError`] on malformed bytes or an unrecognised envelope shape.
pub fn decode_envelope<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, CodecError> {
    let value = decode_value(bytes)?;
    T::from_value(&value).map_err(|e| CodecError(format!("unrecognised envelope: {e}")))
}

// ---------------------------------------------------------------------
// Determine fast paths
//
// The generic path above routes every envelope through the `Value`
// tree, which costs one heap allocation per field — on both sides. A
// determine's two messages are the serving hot path: the
// `Request::Determine` (a `QueryProfile` of a kilobyte or more, every
// key and value of which would be a `String` in the tree) and the
// `Response::Determination` (whose `ET_l` list is the bulk of every
// answer). For those two variants the tree is most of the codec's
// cost, so the functions below encode and decode them **directly**,
// without building the tree at all.
//
// Invariants, enforced by `tests/codec_roundtrip.rs`:
//
// * `encode_request_into` / `encode_response_into` are byte-identical
//   to the generic `encode_envelope_into` for every request / response
//   — the fast paths write the exact canonical field order that
//   `Request::to_value`, `Response::to_value` and the serde derives
//   emit, and numbers through the same `as f64`.
// * `decode_request` / `decode_response` accept exactly what
//   `decode_envelope` accepts and return what it returns: the fast
//   decoders handle the canonical layout, convert numbers with the
//   shim's own `n as T` casts, and fall back to `decode_envelope` on
//   *any* deviation (field count, order or kind, bad UTF-8, NaN money,
//   trailing bytes), so acceptance and error messages never change.

use smartpick_cloudsim::Money;
use smartpick_core::tradeoff::EtEntry;
use smartpick_core::wp::Determination;
use smartpick_engine::{Allocation, QueryProfile, RelayPolicy, StageProfile};

use crate::proto::{Request, Response};

fn w_key(out: &mut Vec<u8>, key: &str) {
    push_bytes(out, key.as_bytes());
}

fn w_str(out: &mut Vec<u8>, s: &str) {
    out.push(TAG_STR);
    push_bytes(out, s.as_bytes());
}

fn w_num(out: &mut Vec<u8>, n: f64) {
    out.push(TAG_NUM);
    out.extend_from_slice(&n.to_bits().to_be_bytes());
}

fn w_obj(out: &mut Vec<u8>, fields: usize) {
    out.push(TAG_OBJ);
    push_count(out, fields);
}

fn w_arr(out: &mut Vec<u8>, items: usize) {
    out.push(TAG_ARR);
    push_count(out, items);
}

fn w_relay(out: &mut Vec<u8>, relay: RelayPolicy) {
    match relay {
        RelayPolicy::None => w_str(out, "none"),
        RelayPolicy::Relay => w_str(out, "relay"),
        RelayPolicy::Segue { timeout } => w_str(out, &format!("segue:{}", timeout.as_millis())),
    }
}

fn w_allocation(out: &mut Vec<u8>, a: &Allocation) {
    w_obj(out, 3);
    w_key(out, "n_vm");
    w_num(out, a.n_vm as f64);
    w_key(out, "n_sl");
    w_num(out, a.n_sl as f64);
    w_key(out, "relay");
    w_relay(out, a.relay);
}

fn w_determination(out: &mut Vec<u8>, d: &Determination) {
    w_obj(out, 8);
    w_key(out, "allocation");
    w_allocation(out, &d.allocation);
    w_key(out, "predicted_seconds");
    w_num(out, d.predicted_seconds);
    w_key(out, "predicted_cost");
    w_num(out, d.predicted_cost.dollars());
    w_key(out, "et_list");
    w_arr(out, d.et_list.len());
    for e in &d.et_list {
        w_obj(out, 3);
        w_key(out, "allocation");
        w_allocation(out, &e.allocation);
        w_key(out, "est_seconds");
        w_num(out, e.est_seconds);
        w_key(out, "est_cost");
        w_num(out, e.est_cost.dollars());
    }
    w_key(out, "evaluations");
    w_num(out, d.evaluations as f64);
    w_key(out, "known_query");
    out.push(if d.known_query { TAG_TRUE } else { TAG_FALSE });
    w_key(out, "matched_query");
    w_str(out, &d.matched_query);
    w_key(out, "match_similarity");
    w_num(out, d.match_similarity);
}

/// Renders a [`Response`] as a binary payload into `out` (cleared
/// first), byte-identical to [`encode_envelope_into`] but skipping the
/// intermediate `Value` tree for the determination that dominates
/// serving traffic.
pub fn encode_response_into(response: &Response, out: &mut Vec<u8>) {
    let Response::Determination(d) = response else {
        return encode_envelope_into(response, out);
    };
    out.clear();
    w_obj(out, 2);
    w_key(out, "kind");
    w_str(out, "determination");
    w_key(out, "determination");
    w_determination(out, d);
}

/// Renders a determine request from its borrowed parts into `out`
/// (cleared first): the bytes of `Request::Determine { tenant, query,
/// seed }` without building the request, so a client need not clone its
/// query to send it. Fields go in the order `Request::to_value` and the
/// `QueryProfile` / `StageProfile` derives emit (each struct's
/// declaration order).
pub(crate) fn encode_determine_into(
    tenant: &str,
    query: &QueryProfile,
    seed: u64,
    out: &mut Vec<u8>,
) {
    out.clear();
    w_obj(out, 4);
    w_key(out, "op");
    w_str(out, "determine");
    w_key(out, "tenant");
    w_str(out, tenant);
    w_key(out, "query");
    w_obj(out, 4);
    w_key(out, "id");
    w_str(out, &query.id);
    w_key(out, "sql");
    w_str(out, &query.sql);
    w_key(out, "input_gb");
    w_num(out, query.input_gb);
    w_key(out, "stages");
    w_arr(out, query.stages.len());
    for stage in &query.stages {
        w_obj(out, 6);
        w_key(out, "name");
        w_str(out, &stage.name);
        w_key(out, "tasks");
        w_num(out, stage.tasks as f64);
        w_key(out, "cpu_ms_per_task");
        w_num(out, stage.cpu_ms_per_task);
        w_key(out, "input_mib_per_task");
        w_num(out, stage.input_mib_per_task);
        w_key(out, "shuffle_mib_per_task");
        w_num(out, stage.shuffle_mib_per_task);
        w_key(out, "deps");
        w_arr(out, stage.deps.len());
        for &dep in &stage.deps {
            w_num(out, dep as f64);
        }
    }
    w_key(out, "seed");
    w_num(out, seed as f64);
}

/// Renders a [`Request`] as a binary payload into `out` (cleared
/// first), byte-identical to [`encode_envelope_into`] but skipping the
/// intermediate `Value` tree for the determine that dominates serving
/// traffic.
pub fn encode_request_into(request: &Request, out: &mut Vec<u8>) {
    match request {
        Request::Determine {
            tenant,
            query,
            seed,
        } => encode_determine_into(tenant, query, *seed, out),
        other => encode_envelope_into(other, out),
    }
}

/// The fewest bytes a canonical stage object can take: its tag and
/// count, then six pairs of at least a key length prefix and a value
/// tag each — the bound the generic decoder puts on any object's count.
const MIN_STAGE_BYTES: usize = 5 + 6 * 5;

/// The fast decode path's readers. Every method returns `None` on any
/// mismatch; the caller then falls back to the generic tree decoder, so
/// acceptance is unchanged.
impl<'a> Cursor<'a> {
    /// Consumes `len:u32 key` only if it matches `key` exactly.
    fn key(&mut self, key: &str) -> Option<()> {
        (self.prefixed()? == key.as_bytes()).then_some(())
    }

    fn obj(&mut self, fields: usize) -> Option<()> {
        (self.u8()? == TAG_OBJ && self.u32()? as usize == fields).then_some(())
    }

    /// An array header whose count is believable: every element costs at
    /// least `min_each` bytes, so a count beyond what the bytes remaining
    /// could hold is a lie, refused before anything is allocated for it.
    fn arr(&mut self, min_each: usize) -> Option<usize> {
        if self.u8()? != TAG_ARR {
            return None;
        }
        let count = self.u32()? as usize;
        (count <= self.remaining() / min_each).then_some(count)
    }

    fn num(&mut self) -> Option<f64> {
        if self.u8()? != TAG_NUM {
            return None;
        }
        self.f64()
    }

    fn str(&mut self) -> Option<&'a str> {
        if self.u8()? != TAG_STR {
            return None;
        }
        std::str::from_utf8(self.prefixed()?).ok()
    }

    fn money(&mut self) -> Option<Money> {
        let n = self.num()?;
        // The generic path rejects NaN money; so does this one (via
        // fallback).
        (!n.is_nan()).then(|| Money::from_dollars(n))
    }

    fn relay(&mut self) -> Option<RelayPolicy> {
        match self.str()? {
            "none" => Some(RelayPolicy::None),
            "relay" => Some(RelayPolicy::Relay),
            // `segue:<ms>` is rare — let the generic path handle it.
            _ => None,
        }
    }

    fn allocation(&mut self) -> Option<Allocation> {
        self.obj(3)?;
        self.key("n_vm")?;
        let n_vm = self.num()? as u32;
        self.key("n_sl")?;
        let n_sl = self.num()? as u32;
        self.key("relay")?;
        let relay = self.relay()?;
        Some(Allocation::new(n_vm, n_sl).with_relay(relay))
    }

    fn determination(&mut self) -> Option<Determination> {
        self.obj(8)?;
        self.key("allocation")?;
        let allocation = self.allocation()?;
        self.key("predicted_seconds")?;
        let predicted_seconds = self.num()?;
        self.key("predicted_cost")?;
        let predicted_cost = self.money()?;
        self.key("et_list")?;
        let count = self.arr(1)?;
        let mut et_list = Vec::with_capacity(count);
        for _ in 0..count {
            self.obj(3)?;
            self.key("allocation")?;
            let allocation = self.allocation()?;
            self.key("est_seconds")?;
            let est_seconds = self.num()?;
            self.key("est_cost")?;
            let est_cost = self.money()?;
            et_list.push(EtEntry {
                allocation,
                est_seconds,
                est_cost,
            });
        }
        self.key("evaluations")?;
        let evaluations = self.num()? as usize;
        self.key("known_query")?;
        let known_query = match self.u8()? {
            TAG_TRUE => true,
            TAG_FALSE => false,
            _ => return None,
        };
        self.key("matched_query")?;
        let matched_query = self.str()?.to_owned();
        self.key("match_similarity")?;
        let match_similarity = self.num()?;
        Some(Determination {
            allocation,
            predicted_seconds,
            predicted_cost,
            et_list,
            evaluations,
            known_query,
            matched_query,
            match_similarity,
        })
    }

    /// A `QueryProfile` in its derive's field order. Numbers convert
    /// with the shim's own casts (`n as usize`), so whatever the generic
    /// decoder would make of a NaN or an out-of-range count, so does
    /// this.
    fn query(&mut self) -> Option<QueryProfile> {
        self.obj(4)?;
        self.key("id")?;
        let id = self.str()?.to_owned();
        self.key("sql")?;
        let sql = self.str()?.to_owned();
        self.key("input_gb")?;
        let input_gb = self.num()?;
        self.key("stages")?;
        let count = self.arr(MIN_STAGE_BYTES)?;
        let mut stages = Vec::with_capacity(count);
        for _ in 0..count {
            stages.push(self.stage()?);
        }
        Some(QueryProfile {
            id,
            sql,
            input_gb,
            stages,
        })
    }

    fn stage(&mut self) -> Option<StageProfile> {
        self.obj(6)?;
        self.key("name")?;
        let name = self.str()?.to_owned();
        self.key("tasks")?;
        let tasks = self.num()? as usize;
        self.key("cpu_ms_per_task")?;
        let cpu_ms_per_task = self.num()?;
        self.key("input_mib_per_task")?;
        let input_mib_per_task = self.num()?;
        self.key("shuffle_mib_per_task")?;
        let shuffle_mib_per_task = self.num()?;
        self.key("deps")?;
        // A dependency is one number: its tag and eight bytes.
        let count = self.arr(9)?;
        let mut deps = Vec::with_capacity(count);
        for _ in 0..count {
            deps.push(self.num()? as usize);
        }
        Some(StageProfile {
            name,
            tasks,
            cpu_ms_per_task,
            input_mib_per_task,
            shuffle_mib_per_task,
            deps,
        })
    }
}

fn decode_request_fast(bytes: &[u8]) -> Option<Request> {
    let mut c = Cursor { bytes, pos: 0 };
    c.obj(4)?;
    c.key("op")?;
    (c.str()? == "determine").then_some(())?;
    c.key("tenant")?;
    let tenant = c.str()?.to_owned();
    c.key("query")?;
    let query = c.query()?;
    c.key("seed")?;
    let seed = c.num()? as u64;
    // The generic decoder requires exact consumption; so does this one.
    (c.pos == bytes.len()).then_some(Request::Determine {
        tenant,
        query,
        seed,
    })
}

/// Decodes a binary payload into a [`Request`]: the canonical layout of
/// a determine takes a direct, tree-free path; everything else —
/// including any non-canonical but valid encoding — falls back to
/// [`decode_envelope`].
///
/// # Errors
///
/// Exactly when [`decode_envelope`] errors, with its message.
pub fn decode_request(bytes: &[u8]) -> Result<Request, CodecError> {
    match decode_request_fast(bytes) {
        Some(request) => Ok(request),
        None => decode_envelope(bytes),
    }
}

fn decode_response_fast(bytes: &[u8]) -> Option<Response> {
    let mut c = Cursor { bytes, pos: 0 };
    c.obj(2)?;
    c.key("kind")?;
    (c.str()? == "determination").then_some(())?;
    c.key("determination")?;
    let response = Response::Determination(c.determination()?);
    // The generic decoder requires exact consumption; so does this one.
    (c.pos == bytes.len()).then_some(response)
}

/// Decodes a binary payload into a [`Response`]: the canonical layout
/// of a determination takes a direct, tree-free path; everything else —
/// including any non-canonical but valid encoding — falls back to
/// [`decode_envelope`].
///
/// # Errors
///
/// Exactly when [`decode_envelope`] errors.
pub fn decode_response(bytes: &[u8]) -> Result<Response, CodecError> {
    match decode_response_fast(bytes) {
        Some(response) => Ok(response),
        None => decode_envelope(bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(v: &Value) -> Value {
        let mut buf = Vec::new();
        encode_value_into(v, &mut buf);
        decode_value(&buf).expect("round trip decodes")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Num(0.0),
            Value::Num(-0.0),
            Value::Num(1.5e308),
            Value::Num(f64::MIN_POSITIVE),
            Value::Str(String::new()),
            Value::Str("héllo \u{1F600}".to_owned()),
        ] {
            assert_eq!(round(&v), v);
        }
        // NaN round-trips bit-exactly even though NaN != NaN.
        let mut buf = Vec::new();
        encode_value_into(&Value::Num(f64::NAN), &mut buf);
        match decode_value(&buf).unwrap() {
            Value::Num(n) => assert!(n.is_nan()),
            other => panic!("wrong value: {other:?}"),
        }
    }

    #[test]
    fn containers_round_trip() {
        let v = Value::Obj(vec![
            (
                "a".to_owned(),
                Value::Arr(vec![Value::Num(1.0), Value::Null]),
            ),
            (
                "nested".to_owned(),
                Value::Obj(vec![("x".to_owned(), Value::Str("y".to_owned()))]),
            ),
            ("empty_arr".to_owned(), Value::Arr(vec![])),
            ("empty_obj".to_owned(), Value::Obj(vec![])),
        ]);
        assert_eq!(round(&v), v);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_value_into(&Value::Null, &mut buf);
        buf.push(0x00);
        assert!(decode_value(&buf).is_err());
    }

    #[test]
    fn truncation_and_bad_tags_are_errors_not_panics() {
        let mut buf = Vec::new();
        encode_value_into(&Value::Str("hello".to_owned()), &mut buf);
        for cut in 0..buf.len() {
            assert!(decode_value(&buf[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode_value(&[0xFF]).is_err());
        // A count claiming more elements than bytes remain is rejected
        // before any allocation of that size.
        let mut lie = vec![TAG_ARR];
        lie.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(decode_value(&lie).is_err());
        // Nor can a length overflow the read offset: it is a short read,
        // and consumes nothing.
        let mut c = Cursor {
            bytes: &[1, 2, 3],
            pos: 1,
        };
        assert_eq!(c.take(usize::MAX), None);
        assert_eq!(c.take(2), Some(&[2u8, 3][..]));
    }

    #[test]
    fn deep_nesting_is_capped() {
        let mut buf = Vec::new();
        for _ in 0..MAX_DECODE_DEPTH + 8 {
            buf.push(TAG_ARR);
            buf.extend_from_slice(&1u32.to_be_bytes());
        }
        buf.push(TAG_NULL);
        let err = decode_value(&buf).unwrap_err();
        assert!(err.0.contains("nesting"), "{err}");
    }

    #[test]
    fn envelope_helpers_reuse_the_buffer() {
        let mut buf = Vec::with_capacity(64);
        encode_envelope_into(&Value::Num(7.0), &mut buf);
        let cap = buf.capacity();
        encode_envelope_into(&Value::Num(8.0), &mut buf);
        assert_eq!(buf.capacity(), cap);
        let v: Value = decode_envelope(&buf).unwrap();
        assert_eq!(v, Value::Num(8.0));
    }
}
