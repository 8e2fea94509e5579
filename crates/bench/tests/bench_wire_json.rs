//! Guard for the committed `BENCH_wire.json` (written by
//! `src/bin/bench_wire.rs`): the recorded round-trip rows,
//! multi-connection rows, connection-scaling entries and request-codec
//! rows parse, are internally consistent, and hold their acceptance bars — asserted on the
//! *committed record*, not a re-run, so the test is deterministic.

use serde::Value;

fn load() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wire.json");
    let text = std::fs::read_to_string(path).expect("BENCH_wire.json exists at the repo root");
    serde_json::from_str(&text).expect("BENCH_wire.json parses as JSON")
}

fn field<'a>(obj: &'a Value, key: &str) -> &'a Value {
    match obj {
        Value::Obj(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field `{key}`")),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Num(n) => *n,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn codec_entry<'a>(root: &'a Value, op: &str) -> &'a Value {
    let Value::Arr(entries) = field(root, "codec") else {
        panic!("`codec` must be a list");
    };
    entries
        .iter()
        .find(|e| field(e, "op") == &Value::Str(op.to_owned()))
        .unwrap_or_else(|| panic!("op `{op}` is recorded"))
}

#[test]
fn bench_wire_json_parses_and_is_internally_consistent() {
    let root = load();
    assert_eq!(field(&root, "bench"), &Value::Str("wire_codec".to_owned()));
    let Value::Arr(entries) = field(&root, "codec") else {
        panic!("`codec` must be a list");
    };
    assert_eq!(entries.len(), 3, "ping, determine, and pipelined rows");
    for op in ["ping", "determine", "determine_pipelined32"] {
        let us = num(field(codec_entry(&root, op), "us"));
        assert!(us > 0.0 && us.is_finite(), "{op}: {us}");
    }
    assert!(num(field(&root, "determine_response_bytes")) > 0.0);
}

#[test]
fn recorded_pipelined_determine_is_no_slower_than_before_the_loop_ran_it() {
    // The parent's committed row (every request crossed to an executor
    // and back): 32.4 µs per binary determine at depth 32.
    let us = num(field(codec_entry(&load(), "determine_pipelined32"), "us"));
    assert!(
        us <= 32.4,
        "recorded determine_pipelined32 is {us} µs, slower than the 32.4 µs recorded before hot \
         determines ran on the event loop"
    );
}

#[test]
fn recorded_multi_connection_rows_hold_the_threaded_cores_medians() {
    // 32 in flight split over 2 and 8 connections is where the single
    // event loop fell behind the thread-per-connection core it replaced
    // (PR 12: 0.7× and 0.8×, recorded, not gated). Running hot determines
    // on the loop closed that gap; these are the deleted core's medians,
    // held both by the recording run and by the alternating-run median.
    let root = load();
    let Value::Arr(rows) = field(field(&root, "multi_connection"), "rows") else {
        panic!("`multi_connection.rows` must be a list");
    };
    for (connections, bar) in [(2.0, 41_036.0), (8.0, 33_355.0)] {
        let row = rows
            .iter()
            .find(|r| num(field(r, "connections")) == connections)
            .unwrap_or_else(|| panic!("a {connections}-connection row is recorded"));
        let runs = field(row, "alternating_runs");
        assert_eq!(
            num(field(field(runs, "threaded_core"), "median")),
            bar,
            "the bar is the threaded core's recorded median"
        );
        let median = num(field(field(runs, "this_commit"), "median"));
        let recorded = num(field(row, "determines_per_s"));
        assert!(
            median >= bar && recorded >= bar,
            "{connections} connections: {recorded}/s recorded, alternating-run median \
             {median}/s, under the {bar}/s the thread-per-connection core answered"
        );
    }
}

#[test]
fn recorded_reactor_scaling_covers_a_thousand_connections() {
    let root = load();
    let Value::Arr(entries) = field(&root, "connection_scaling") else {
        panic!("`connection_scaling` must be a list");
    };
    let thousand = entries
        .iter()
        .find(|e| num(field(e, "connections")) >= 1024.0)
        .expect("a >=1024-connection entry is recorded");
    assert!(num(field(thousand, "parked_ping_median_us")) > 0.0);
    // std's 128-deep accept queue made this 6-7 s of SYN retransmits;
    // with the backlog raised a connect storm never waits one out.
    let connect_ms = num(field(thousand, "connect_and_first_ping_ms"));
    assert!(
        connect_ms < 1000.0,
        "1024 connections took {connect_ms} ms to connect: accept-queue overflow is back"
    );
}

#[test]
fn recorded_direct_request_codec_is_at_most_half_the_generic_one() {
    // A determine request encoded and decoded straight from and into its
    // struct, against the same request through the `Value` tree: the
    // tree allocates a `String` per key and per value of the query.
    let root = load();
    let Value::Arr(rows) = field(field(&root, "request_codec"), "rows") else {
        panic!("`request_codec.rows` must be a list");
    };
    for query in ["q82", "q68"] {
        let row = rows
            .iter()
            .find(|r| field(r, "query") == &Value::Str(query.to_owned()))
            .unwrap_or_else(|| panic!("a {query} row is recorded"));
        assert!(
            num(field(row, "bytes")) > 1000.0,
            "{query}: a catalog query's request"
        );
        for (generic, direct) in [
            ("generic_encode_us", "direct_encode_us"),
            ("generic_decode_us", "direct_decode_us"),
        ] {
            let (generic_us, direct_us) = (num(field(row, generic)), num(field(row, direct)));
            assert!(
                direct_us > 0.0 && direct_us <= 0.5 * generic_us,
                "{query}: {direct} {direct_us} µs against {generic} {generic_us} µs; the direct \
                 path must cost at most half"
            );
        }
    }
}
