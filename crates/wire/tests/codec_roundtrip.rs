//! Property tests for the binary codec over every variant of both
//! envelope enums: each envelope is a **fixed point** (encode → decode →
//! encode reproduces the bytes exactly) and decodes to the very value
//! tree it was encoded from, the request and response fast paths are
//! byte-identical to the generic tree encoder and decode what it
//! decodes — the request decoder on every truncation, byte flip,
//! reordering and garbage input as well — and an
//! unknown tag decodes to a clean error (the server turns that into a
//! `bad_request`). The decoder is total: arbitrary bytes never panic,
//! never over-read, and always yield a clean [`CodecError`] or a valid
//! envelope.
//!
//! [`CodecError`]: smartpick_wire::codec::CodecError

use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use serde::{Serialize, Value};
use smartpick_core::wp::{ConstraintMode, Determination, PredictionRequest};
use smartpick_engine::{simulate_query, QueryProfile, StageProfile};
use smartpick_obs::{event, EventKind, HealthReport, Observability, ScrapeEnvelope, WorkerHealth};
use smartpick_service::{CompletedRun, ServiceConfig, SmartpickService, TenantStats};
use smartpick_wire::codec::{
    decode_envelope, decode_request, decode_response, decode_value, encode_envelope_into,
    encode_request_into, encode_response_into, encode_value_into,
};
use smartpick_wire::{ErrorKind, Rejection, Request, Response};

mod common;

/// Heavyweight payloads (a real determination, run report and stats
/// views), built once and cloned into generated variants.
struct Fixture {
    query: QueryProfile,
    determination: Determination,
    run: CompletedRun,
    tenant_stats: TenantStats,
    scrape: ScrapeEnvelope,
    health: HealthReport,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let template = common::template();
        let service = SmartpickService::new(ServiceConfig {
            retrain_workers: 2,
            ..ServiceConfig::default()
        });
        service.register_fork("fixture", &template, 7).unwrap();
        let query = smartpick_workloads::tpcds::query(82, 100.0).unwrap();
        let determination = service.determine("fixture", &query, 99).unwrap();
        let report = simulate_query(
            &query,
            &determination.allocation,
            template.predictor().env(),
            23,
        )
        .unwrap();
        let run = CompletedRun {
            query: query.clone(),
            determination: determination.clone(),
            report,
        };
        service.report_run("fixture", run.clone()).unwrap();
        assert!(service.flush());
        let mut tenant_stats = service.tenant_stats("fixture").unwrap();
        // Durations travel as f64 seconds: pin the age to one that is
        // exact, so the fixed point is about the envelope, not rounding.
        tenant_stats.snapshot_age = Duration::from_millis(250);
        // A scrape with every metric kind and richly populated events,
        // built from whole µs that the f64 number model carries exactly.
        let obs = Observability::new(16);
        obs.metrics().counter("wire.frames_read.v3").add(41);
        obs.metrics().gauge("service.queue_depth").set(-3);
        let hist = obs.metrics().histogram("service.predict_latency");
        hist.record(Duration::from_micros(100));
        hist.record(Duration::from_micros(300));
        obs.events().publish(
            event(EventKind::FeedbackShed)
                .tenant("fixture")
                .detail("update queue full"),
        );
        obs.events().publish(
            event(EventKind::RetrainFinished)
                .tenant("fixture")
                .shard(1)
                .duration(Duration::from_millis(5)),
        );
        let health = HealthReport {
            live: true,
            ready: false,
            reasons: vec!["worker shard 0 failed permanently (poisoned)".to_owned()],
            workers: vec![
                WorkerHealth {
                    shard: 0,
                    state: "failed".to_owned(),
                    restarts: 3,
                    stalled: false,
                    queue_depth: 12,
                    last_panic: Some("poisoned".to_owned()),
                },
                WorkerHealth {
                    shard: 1,
                    state: "alive".to_owned(),
                    restarts: 0,
                    stalled: true,
                    queue_depth: 1,
                    last_panic: None,
                },
            ],
        };
        Fixture {
            query,
            determination,
            run,
            tenant_stats,
            scrape: obs.scrape(16),
            health,
        }
    })
}

const CONSTRAINTS: [ConstraintMode; 4] = [
    ConstraintMode::Hybrid,
    ConstraintMode::VmOnly,
    ConstraintMode::SlOnly,
    ConstraintMode::EqualSlVm,
];

const KINDS: [ErrorKind; 9] = [
    ErrorKind::UnknownTenant,
    ErrorKind::TenantExists,
    ErrorKind::QueueFull,
    ErrorKind::QuotaExceeded,
    ErrorKind::Stopped,
    ErrorKind::Core,
    ErrorKind::BadRequest,
    ErrorKind::Protocol,
    ErrorKind::Busy,
];

fn prediction_request(knob: f64, constraint: usize, seed: u64) -> PredictionRequest {
    PredictionRequest {
        query: fixture().query.clone(),
        knob,
        constraint: CONSTRAINTS[constraint % CONSTRAINTS.len()],
        seed,
    }
}

fn encoded<T: serde::Serialize>(value: &T) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_envelope_into(value, &mut bytes);
    bytes
}

/// Encode → decode → encode must reproduce the first bytes exactly.
fn assert_fixed_point<T: serde::Serialize + serde::Deserialize>(value: &T) {
    let bytes = encoded(value);
    let decoded: T = decode_envelope(&bytes).expect("binary decodes");
    assert_eq!(
        encoded(&decoded),
        bytes,
        "binary re-encode must be identical"
    );
}

/// Every request variant, chosen by `variant` (mod 9), filled from the
/// generated fields.
fn request_variant(
    variant: usize,
    tenant: String,
    seed: u64,
    knob: f64,
    constraint: usize,
    events: usize,
) -> Request {
    let fix = fixture();
    match variant % 9 {
        0 => Request::Ping,
        1 => Request::RegisterTenant { tenant, seed },
        2 => Request::Predict {
            tenant,
            request: prediction_request(knob, constraint, seed),
        },
        3 => Request::Determine {
            tenant,
            query: fix.query.clone(),
            seed,
        },
        4 => Request::ReportRun {
            tenant,
            run: Box::new(fix.run.clone()),
        },
        5 => Request::Flush,
        6 => Request::TenantStats { tenant },
        7 => Request::Scrape { events },
        _ => Request::Health,
    }
}

/// Every response variant, chosen by `variant` (mod 9); the error
/// variant takes its kind, message and retryability from the rest.
fn response_variant(variant: usize, kind: usize, message: String, retryable: bool) -> Response {
    let fix = fixture();
    match variant % 9 {
        0 => Response::Pong,
        1 => Response::Registered,
        2 => Response::Determination(fix.determination.clone()),
        3 => Response::ReportAccepted,
        4 => Response::Flushed,
        5 => Response::TenantStats(fix.tenant_stats.clone()),
        6 => Response::Scrape(Box::new(fix.scrape.clone())),
        7 => Response::Health(fix.health.clone()),
        _ => Response::Error(Rejection {
            kind: KINDS[kind % KINDS.len()],
            message,
            retryable,
        }),
    }
}

/// The binary encoding of `{tag_key: tag}` and nothing else.
fn tag_only(tag_key: &str, tag: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_value_into(
        &Value::Obj(vec![(tag_key.to_owned(), Value::Str(tag.to_owned()))]),
        &mut bytes,
    );
    bytes
}

const REQUEST_OPS: [&str; 9] = [
    "ping",
    "register_tenant",
    "predict",
    "determine",
    "report_run",
    "flush",
    "tenant_stats",
    "scrape",
    "health",
];

const RESPONSE_KINDS: [&str; 9] = [
    "pong",
    "registered",
    "determination",
    "report_accepted",
    "flushed",
    "tenant_stats",
    "scrape",
    "health",
    "error",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every request variant is a binary fixed point.
    #[test]
    fn request_envelopes_are_binary_fixed_points(
        variant in 0usize..9,
        tenant in "[a-z][a-z0-9_]{0,11}",
        seed in 0u64..(1u64 << 53),
        knob in 0.0f64..1.0,
        constraint in 0usize..4,
        events in 0usize..64,
    ) {
        assert_fixed_point(&request_variant(variant, tenant, seed, knob, constraint, events));
    }

    /// The first encode loses nothing: every request variant decodes to
    /// the very value tree it was encoded from (a fixed point alone would
    /// also pass an encoder that dropped a field every time).
    #[test]
    fn request_envelopes_decode_to_the_value_they_encode(
        variant in 0usize..9,
        tenant in "[a-z][a-z0-9_]{0,11}",
        seed in 0u64..(1u64 << 53),
        knob in 0.0f64..1.0,
        constraint in 0usize..4,
        events in 0usize..64,
    ) {
        let request = request_variant(variant, tenant, seed, knob, constraint, events);
        let decoded: Request = decode_envelope(&encoded(&request)).expect("binary decodes");
        prop_assert_eq!(decoded.to_value(), request.to_value());
    }

    /// Every response variant is a binary fixed point.
    #[test]
    fn response_envelopes_are_binary_fixed_points(
        variant in 0usize..9,
        kind in 0usize..9,
        message in "\\PC{0,40}",
        flip in 0u32..2,
    ) {
        assert_fixed_point(&response_variant(variant, kind, message, flip == 1));
    }

    /// The response fast paths are indistinguishable from the generic
    /// tree path: byte-identical encoding, and both decoders return the
    /// value tree the response was encoded from.
    #[test]
    fn response_fast_paths_match_the_generic_codec(
        variant in 0usize..9,
        kind in 0usize..9,
        message in "\\PC{0,40}",
        flip in 0u32..2,
    ) {
        let response = response_variant(variant, kind, message, flip == 1);
        let generic = encoded(&response);
        let mut fast = Vec::new();
        encode_response_into(&response, &mut fast);
        prop_assert_eq!(
            &generic,
            &fast,
            "fast response encode must be byte-identical to the tree path"
        );
        let original = response.to_value();
        let decoded = decode_response(&generic).expect("fast-path decode succeeds");
        prop_assert_eq!(
            decoded.to_value(),
            original.clone(),
            "fast decode must reproduce the envelope"
        );
        let decoded: Response = decode_envelope(&generic).expect("generic decode succeeds");
        prop_assert_eq!(
            decoded.to_value(),
            original,
            "generic decode must reproduce the envelope"
        );
    }

    /// An unknown tag decodes to a clean error — the server answers
    /// `bad_request` and the connection survives; it never panics.
    #[test]
    fn unknown_tags_decode_to_errors(op in "[a-z_]{1,16}") {
        prop_assume!(!REQUEST_OPS.contains(&op.as_str()));
        prop_assert!(
            decode_envelope::<Request>(&tag_only("op", &op)).is_err(),
            "op `{}` must not decode",
            op
        );
        prop_assume!(!RESPONSE_KINDS.contains(&op.as_str()));
        prop_assert!(
            decode_response(&tag_only("kind", &op)).is_err(),
            "kind `{}` must not decode",
            op
        );
    }

    /// Totality: arbitrary bytes fed to the binary decoder return — a
    /// clean error or a value — and never panic. A successful decode
    /// must be a fixed point under re-encode.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in prop::collection::vec(0u8..=255, 0..256),
    ) {
        if let Ok(value) = decode_value(&bytes) {
            let mut re = Vec::new();
            encode_value_into(&value, &mut re);
            prop_assert_eq!(re, bytes.clone(), "successful decode must re-encode identically");
        }
        // The fast response decoder must agree with the generic one on
        // every input: same acceptance, same envelope.
        match (decode_response(&bytes), decode_envelope::<Response>(&bytes)) {
            (Ok(f), Ok(g)) => prop_assert_eq!(
                encoded(&f),
                encoded(&g),
                "fast and generic decodes must agree"
            ),
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "acceptance diverged: {:?}", other),
        }
    }

    /// Truncating a valid binary payload at every cut yields a clean
    /// error, never a panic or an over-read into adjacent memory.
    #[test]
    fn truncations_of_valid_payloads_error_cleanly(
        seed in 0u64..(1u64 << 53),
        knob in 0.0f64..1.0,
    ) {
        let bin = encoded(&Request::Predict {
            tenant: "acme".to_owned(),
            request: prediction_request(knob, 0, seed),
        });
        for cut in 0..bin.len() {
            prop_assert!(
                decode_envelope::<Request>(&bin[..cut]).is_err(),
                "truncation at {} of {} must not decode",
                cut,
                bin.len()
            );
        }
    }
}

// ---------------------------------------------------------------------
// The determine request's fast paths
// ---------------------------------------------------------------------

/// Numbers a well-formed query never carries, each of which the f64
/// number model must still pass through bit for bit.
const ODD_NUMBERS: [f64; 7] = [f64::NAN, -0.0, -2.5, 1e300, -1e300, f64::INFINITY, 0.0];

/// Seeds at the edges of the f64 number model: 2⁵³ + 1 and `u64::MAX`
/// are rounded by it, on both paths alike.
const EDGE_SEEDS: [u64; 3] = [0, (1 << 53) + 1, u64::MAX];

/// `(name, tasks, cpu_ms_per_task, odd-number pick, deps)`.
type StageSpec = (String, usize, f64, usize, Vec<usize>);

/// A determine request from generated parts: `input_pick` and each
/// stage's odd pick choose an [`ODD_NUMBERS`] entry when in range,
/// `seed_pick` an [`EDGE_SEEDS`] entry.
fn odd_determine(
    tenant: String,
    id: String,
    sql: String,
    input_pick: usize,
    stages: Vec<StageSpec>,
    seed_pick: usize,
    seed: u64,
) -> Request {
    let odd = |pick: usize, otherwise: f64| ODD_NUMBERS.get(pick).copied().unwrap_or(otherwise);
    Request::Determine {
        tenant,
        query: QueryProfile {
            id,
            sql,
            input_gb: odd(input_pick, 100.0),
            stages: stages
                .into_iter()
                .map(|(name, tasks, cpu_ms_per_task, pick, deps)| StageProfile {
                    name,
                    tasks,
                    cpu_ms_per_task,
                    input_mib_per_task: odd(pick, 64.0),
                    shuffle_mib_per_task: odd(pick + 1, 8.0),
                    deps,
                })
                .collect(),
        },
        seed: EDGE_SEEDS.get(seed_pick).copied().unwrap_or(seed),
    }
}

fn fast_encoded(request: &Request) -> Vec<u8> {
    let mut bytes = vec![0xAA; 3]; // the encoder must clear what it is handed
    encode_request_into(request, &mut bytes);
    bytes
}

/// `decode_request` and the generic decoder agree on `bytes`: both
/// accept, with the same generic re-encoding, or both refuse with the
/// same message.
fn assert_request_decoders_agree(bytes: &[u8]) {
    match (decode_request(bytes), decode_envelope::<Request>(bytes)) {
        (Ok(fast), Ok(generic)) => assert_eq!(
            encoded(&fast),
            encoded(&generic),
            "fast and generic request decodes of {} bytes differ",
            bytes.len()
        ),
        (Err(fast), Err(generic)) => assert_eq!(fast, generic, "the errors must be the same"),
        (fast, generic) => panic!(
            "acceptance diverged on {} bytes: fast {:?}, generic {:?}",
            bytes.len(),
            fast.map(|r| r.to_value()),
            generic.map(|r| r.to_value())
        ),
    }
}

fn q82_determine() -> Request {
    Request::Determine {
        tenant: "acme".to_owned(),
        query: fixture().query.clone(),
        seed: 99,
    }
}

/// An object's key/value pairs.
type Pairs = Vec<(String, Value)>;

/// `v` with the pairs of the object at the end of `path` (keys,
/// outermost first; an array step takes its first element) rewritten by
/// `edit`, encoded.
fn edited(v: &Value, path: &[&str], edit: &dyn Fn(&mut Pairs)) -> Vec<u8> {
    fn walk(v: &mut Value, path: &[&str], edit: &dyn Fn(&mut Pairs)) {
        match (v, path.split_first()) {
            (Value::Obj(pairs), None) => edit(pairs),
            (Value::Obj(pairs), Some((key, rest))) => {
                let (_, inner) = pairs
                    .iter_mut()
                    .find(|(k, _)| k == key)
                    .expect("key on path");
                walk(inner, rest, edit);
            }
            (Value::Arr(items), Some((_, rest))) => walk(&mut items[0], rest, edit),
            (other, _) => panic!("no object at the end of the path: {other:?}"),
        }
    }
    let mut v = v.clone();
    walk(&mut v, path, edit);
    let mut bytes = Vec::new();
    encode_value_into(&v, &mut bytes);
    bytes
}

#[test]
fn request_fast_paths_hold_on_the_recorded_queries() {
    for q in [82, 68] {
        let request = Request::Determine {
            tenant: "bench".to_owned(),
            query: smartpick_workloads::tpcds::query(q, 100.0).unwrap(),
            seed: 99,
        };
        let generic = encoded(&request);
        assert_eq!(fast_encoded(&request), generic, "q{q}: encode differs");
        let decoded = decode_request(&generic).expect("canonical determine decodes");
        assert_eq!(
            decoded.to_value(),
            request.to_value(),
            "q{q}: decode differs"
        );
    }
}

#[test]
fn every_truncation_and_byte_flip_of_a_determine_decodes_alike() {
    let bytes = encoded(&q82_determine());
    assert!(
        bytes.len() > 1000,
        "a q82 determine is {} bytes",
        bytes.len()
    );
    for cut in 0..=bytes.len() {
        assert_request_decoders_agree(&bytes[..cut]);
    }
    let mut flipped = bytes.clone();
    for i in 0..bytes.len() {
        for mask in [0x01, 0x80, 0xFF] {
            flipped[i] ^= mask;
            assert_request_decoders_agree(&flipped);
            flipped[i] = bytes[i];
        }
    }
    // Trailing bytes after a canonical determine — a null, a lone number
    // tag, nine zeros: the fast path must require exact consumption, as
    // the generic one does.
    for extra in [&[0x00][..], &[0x03], &[0; 9]] {
        let mut long = bytes.clone();
        long.extend_from_slice(extra);
        assert!(
            decode_request(&long).is_err(),
            "{} trailing bytes",
            extra.len()
        );
        assert_request_decoders_agree(&long);
    }
}

#[test]
fn non_canonical_determines_fall_back_to_the_generic_decoder() {
    let tree = q82_determine().to_value();
    let reversed = |pairs: &mut Pairs| pairs.reverse();
    let swapped = |pairs: &mut Pairs| pairs.swap(0, 1);
    let extra = |pairs: &mut Pairs| pairs.push(("extra".to_owned(), Value::Null));
    let seed_first = |pairs: &mut Pairs| pairs.rotate_right(1);
    let stringly = |pairs: &mut Pairs| pairs[1].1 = Value::Str("9".to_owned());
    let variants = [
        edited(&tree, &[], &reversed),
        edited(&tree, &[], &seed_first),
        edited(&tree, &["query"], &reversed),
        edited(&tree, &["query", "stages", "0"], &swapped),
        edited(&tree, &[], &extra),
        edited(&tree, &["query"], &extra),
        edited(&tree, &["query", "stages", "0"], &extra),
        // Kinds the derive refuses: the generic error must come back.
        edited(&tree, &["query", "stages", "0"], &stringly),
    ];
    for (i, bytes) in variants.iter().enumerate() {
        assert_request_decoders_agree(bytes);
        let accepted = decode_request(bytes).is_ok();
        assert_eq!(accepted, i + 1 < variants.len(), "variant {i}");
    }
}

#[test]
fn a_tenant_stats_answer_with_the_retired_executions_counter_still_decodes() {
    // Older servers sent an `executions` counter in every `tenant_stats`
    // answer. Fields are looked up by name, so the extra key is skipped
    // and the answer decodes to what a current server sends.
    let current = Response::TenantStats(fixture().tenant_stats.clone());
    let older = edited(&current.to_value(), &["stats"], &|pairs: &mut Pairs| {
        pairs.insert(3, ("executions".to_owned(), Value::Num(3.0)));
    });
    let mut now = Vec::new();
    encode_response_into(&current, &mut now);
    assert!(older.len() > now.len());
    let decoded = decode_response(&older).expect("an older answer decodes");
    let mut again = Vec::new();
    encode_response_into(&decoded, &mut again);
    assert_eq!(again, now);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every request variant: the direct encoder writes the generic
    /// encoder's bytes, and the direct decoder returns what the generic
    /// one does.
    #[test]
    fn request_fast_paths_match_the_generic_codec(
        variant in 0usize..9,
        tenant in "[a-z][a-z0-9_]{0,11}",
        seed in 0u64..(1u64 << 53),
        knob in 0.0f64..1.0,
        constraint in 0usize..4,
        events in 0usize..64,
    ) {
        let request = request_variant(variant, tenant, seed, knob, constraint, events);
        let generic = encoded(&request);
        prop_assert_eq!(&fast_encoded(&request), &generic, "fast request encode differs");
        let decoded = decode_request(&generic).expect("request decodes");
        prop_assert_eq!(decoded.to_value(), request.to_value());
        assert_request_decoders_agree(&generic);
    }

    /// Determines the catalog never produces — empty stage lists and
    /// dependency lists, non-ASCII ids, NaN / negative / 1e300 numbers,
    /// seeds the number model rounds — encode and decode alike on both
    /// paths.
    #[test]
    fn odd_determines_encode_and_decode_as_the_generic_codec_does(
        tenant in "\\PC{0,12}",
        id in "\\PC{0,16}",
        sql in "\\PC{0,40}",
        input_pick in 0usize..10,
        stages in prop::collection::vec(
            (
                "\\PC{0,8}",
                0usize..usize::MAX,
                -1e6f64..1e6,
                0usize..10,
                prop::collection::vec(0usize..64, 0..4),
            ),
            0..5,
        ),
        seed_pick in 0usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let request = odd_determine(tenant, id, sql, input_pick, stages, seed_pick, seed);
        let generic = encoded(&request);
        prop_assert_eq!(&fast_encoded(&request), &generic, "fast determine encode differs");
        let decoded = decode_request(&generic).expect("determine decodes");
        prop_assert_eq!(encoded(&decoded), generic.clone(), "decode must reproduce the bytes");
        assert_request_decoders_agree(&generic);
    }

    /// Arbitrary bytes, alone and spliced into a canonical determine so
    /// the fast path gets deep before it meets them: both decoders
    /// accept the same inputs and refuse the rest with one message.
    #[test]
    fn request_decoders_agree_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..256),
        at in 0usize..2048,
    ) {
        assert_request_decoders_agree(&bytes);
        let mut spliced = encoded(&q82_determine());
        let at = at % spliced.len();
        let end = (at + bytes.len()).min(spliced.len());
        spliced.splice(at..end, bytes.iter().copied());
        assert_request_decoders_agree(&spliced);
    }
}
