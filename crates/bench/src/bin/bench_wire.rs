//! Records the over-wire and connection-scaling numbers into
//! `BENCH_wire.json`, which CI guards with `tests/bench_wire_json.rs`.
//!
//! Four sections:
//!
//! * **codec** — median round trips of v3 frames in the binary codec.
//!   Blocking rows (`ping`, `determine`) give honest single round trips,
//!   which on loopback are dominated by the syscall floor plus determine
//!   compute. The headline row, `determine_pipelined32`, keeps 32
//!   requests in flight on one connection so the per-request syscall
//!   floor amortises away and framing, codec and the server core become
//!   the measured cost; the guard test holds it at or under the 32.4 µs
//!   recorded before the event loop ran hot determines itself.
//! * **multi-connection** — determines per second with 32
//!   requests in flight split over 1, 2 and 8 connections (one
//!   closed-loop client thread each, nothing pinned): the shape the
//!   pinned one-connection `BENCHMARK.json` harness cannot see, where
//!   the single event-loop thread is the shared resource.
//!   [`MULTI_CONNECTION_RUNS`] holds the alternating-run quartiles of
//!   this commit (the loop runs hot determines itself) beside its parent
//!   (every request crossed to an executor and back) and beside the
//!   deleted thread-per-connection core, whose medians the guard test
//!   holds the 2 × 16 and 8 × 4 rows to.
//! * **connection scaling** — the event loop holding N concurrent
//!   connections on one thread: wall time to establish all of them and
//!   the median ping round trip with every connection parked open.
//! * **request codec** — in process, no socket: the generic
//!   (`Value`-tree) and direct encode and decode of the q82 and q68
//!   determine requests, and their payload bytes. The guard test holds
//!   each direct path to at most half its generic twin.
//!
//! Usage: `cargo run --release -p smartpick_bench --bin bench_wire
//! [output-path]` (default `BENCH_wire.json` in the working directory).
//! `SMARTPICK_BENCH_ITERS` overrides the per-op iteration count
//! (default 1000).

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::driver::Smartpick;
use smartpick_core::properties::SmartpickProperties;
use smartpick_core::training::TrainOptions;
use smartpick_ml::forest::ForestParams;
use smartpick_service::{ServiceConfig, SmartpickService};
use smartpick_wire::codec::{
    decode_envelope, decode_request, encode_envelope_into, encode_request_into,
};
use smartpick_wire::{Request, Response, WireClient, WireServer, WireServerConfig};
use smartpick_workloads::tpcds;

fn trained_driver() -> Smartpick {
    let queries: Vec<_> = [82u32, 68]
        .iter()
        .map(|&q| tpcds::query(q, 100.0).expect("catalog query"))
        .collect();
    // A deliberately light forest: this is a *codec* benchmark, so the
    // determine compute should not drown the serialization cost being
    // compared. The grid stays real (6×6) so the `ET_l` vector in each
    // response has its production shape.
    let opts = TrainOptions {
        configs_per_query: 6,
        burst_factor: 3,
        forest: ForestParams {
            n_trees: 4,
            ..ForestParams::default()
        },
        max_vm: 6,
        max_sl: 6,
        ..TrainOptions::default()
    };
    Smartpick::train_with_options(
        CloudEnv::new(Provider::Aws),
        SmartpickProperties::default(),
        &queries,
        &opts,
        42,
    )
    .expect("training succeeds")
    .0
}

fn median_us(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Median round-trip time of `request` issued one-at-a-time over the
/// client's pipelined surface.
fn measure_rtt(client: &mut WireClient, request: &Request, iters: usize) -> f64 {
    for _ in 0..20 {
        let id = client.submit(request).expect("submit");
        let (got, response) = client.recv().expect("recv");
        assert_eq!(id, got);
        assert!(!matches!(response, Response::Error(_)), "{response:?}");
    }
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        let id = client.submit(request).expect("submit");
        let (got, response) = client.recv().expect("recv");
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(id, got);
        std::hint::black_box(&response);
    }
    median_us(&mut samples)
}

/// Median per-request time with `depth` requests kept in flight on one
/// connection: recv one, submit one, timed in chunks of 16 so the
/// median is over steady-state windows rather than single syscalls.
fn measure_pipelined(
    client: &mut WireClient,
    request: &Request,
    depth: usize,
    iters: usize,
) -> f64 {
    const CHUNK: usize = 16;
    for _ in 0..depth {
        client.submit(request).expect("submit");
    }
    for _ in 0..64 {
        let (_, response) = client.recv().expect("recv");
        assert!(!matches!(response, Response::Error(_)), "{response:?}");
        client.submit(request).expect("submit");
    }
    let chunks = (iters / CHUNK).max(8);
    let mut samples = Vec::with_capacity(chunks);
    for _ in 0..chunks {
        let t = Instant::now();
        for _ in 0..CHUNK {
            let (_, response) = client.recv().expect("recv");
            std::hint::black_box(&response);
            client.submit(request).expect("submit");
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6 / CHUNK as f64);
    }
    for _ in 0..depth {
        let _ = client.recv().expect("drain");
    }
    median_us(&mut samples)
}

/// Median µs per call of each of `paths`, timed in chunks of 1 000 calls
/// with the paths interleaved chunk by chunk, so a slow spell of the
/// host lands on all of them alike; one untimed round warms up.
fn median_call_us<const N: usize>(paths: &mut [&mut dyn FnMut(); N]) -> [f64; N] {
    const CHUNK: usize = 1000;
    const ROUNDS: usize = 25;
    let mut samples = [(); N].map(|()| Vec::with_capacity(ROUNDS));
    for round in 0..=ROUNDS {
        for (path, samples) in paths.iter_mut().zip(samples.iter_mut()) {
            let t = Instant::now();
            for _ in 0..CHUNK {
                path();
            }
            if round > 0 {
                samples.push(t.elapsed().as_secs_f64() * 1e6 / CHUNK as f64);
            }
        }
    }
    samples.map(|mut s| median_us(&mut s))
}

/// The request-codec section: per query, its determine request's payload
/// bytes and the median µs of generic encode, direct encode, generic
/// decode and direct decode, as JSON rows.
fn request_codec_rows() -> String {
    println!("determine request codec, in process, median µs per call");
    smartpick_bench::rule(72);
    println!(
        "{:<6} {:>7} {:>14} {:>13} {:>14} {:>13}",
        "query", "bytes", "generic enc", "direct enc", "generic dec", "direct dec"
    );
    smartpick_bench::rule(72);
    let mut rows = String::new();
    for (i, q) in [82u32, 68].into_iter().enumerate() {
        let request = Request::Determine {
            tenant: "bench".to_owned(),
            query: tpcds::query(q, 100.0).expect("catalog query"),
            seed: 99,
        };
        let mut bytes = Vec::new();
        encode_envelope_into(&request, &mut bytes);
        let mut direct = Vec::new();
        encode_request_into(&request, &mut direct);
        assert_eq!(
            direct, bytes,
            "q{q}: the direct encoder must write the generic bytes"
        );
        let (mut generic_out, mut direct_out) = (Vec::new(), Vec::new());
        let [generic_enc, direct_enc, generic_dec, direct_dec] = median_call_us(&mut [
            &mut || encode_envelope_into(std::hint::black_box(&request), &mut generic_out),
            &mut || encode_request_into(std::hint::black_box(&request), &mut direct_out),
            &mut || {
                std::hint::black_box(decode_envelope::<Request>(std::hint::black_box(&bytes)))
                    .expect("generic decode");
            },
            &mut || {
                std::hint::black_box(decode_request(std::hint::black_box(&bytes)))
                    .expect("direct decode");
            },
        ]);
        println!(
            "q{q:<5} {:>7} {generic_enc:>14.2} {direct_enc:>13.2} {generic_dec:>14.2} \
             {direct_dec:>13.2}",
            bytes.len()
        );
        if i > 0 {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            "      {{\"query\": \"q{q}\", \"bytes\": {}, \"generic_encode_us\": \
             {generic_enc:.2}, \"direct_encode_us\": {direct_enc:.2}, \"generic_decode_us\": \
             {generic_dec:.2}, \"direct_decode_us\": {direct_dec:.2}}}",
            bytes.len()
        );
    }
    smartpick_bench::rule(72);
    rows
}

/// `(connections, in flight on each)`: 32 in flight however it is split.
const MULTI_CONNECTION_SHAPES: [(usize, usize); 3] = [(1, 32), (2, 16), (8, 4)];

/// Determines per second as `[q1, median, q3]`, row order following
/// [`MULTI_CONNECTION_SHAPES`]: the commit that made the event loop run
/// hot determines itself and its parent (0022eaa, the event loop handing
/// every request to an executor) over 10 alternating rounds of this
/// binary built at each, same box, same hour; and the
/// thread-per-connection core PR 12 deleted, as PR 12 recorded it over
/// 20 alternating runs against its own parent.
const MULTI_CONNECTION_RUNS: [[[f64; 3]; 3]; 3] = [
    [
        [63465.0, 67045.0, 74915.0],
        [31493.0, 32931.0, 38384.0],
        [22924.0, 26594.0, 28552.0],
    ],
    [
        [59100.0, 62779.0, 67028.0],
        [33759.0, 36818.0, 41733.0],
        [39151.0, 41036.0, 50260.0],
    ],
    [
        [51771.0, 55427.0, 60122.0],
        [33284.0, 34833.0, 37188.0],
        [31111.0, 33355.0, 39442.0],
    ],
];

const MULTI_CONNECTION_NOTES: &str = "alternating_runs are [q1, median, q3] on a 2-vCPU shared \
    box, recorded when the event loop began to run hot determines itself. this_commit: that \
    commit, where the loop runs a hot determine to completion itself (no run queue, executor \
    wake-up, completion queue or wake-pipe byte). parent: commit 0022eaa, where every \
    request crossed to an executor and back; 10 alternating rounds of this binary built at each \
    commit, same hour, this commit ahead in 10 of 10 rounds on all three shapes. threaded_core: \
    the thread-per-connection core PR 12 deleted, as recorded then over 20 alternating runs; \
    PR 12 left the single loop at 0.7x (2 x 16) and 0.8x (8 x 4) of it, recorded and not gated. \
    The gap is closed from the other side: with the two wake-ups gone one loop thread answers \
    1.5x (2 x 16) and 1.7x (8 x 4) of what thread-per-connection did, and \
    crates/bench/tests/bench_wire_json.rs now holds this_commit's medians at or above \
    threaded_core's (41 036 and 33 355). The unpinned depth-1 codec rows above move by 2-5x \
    with the state of the box (ping read 11-55 us across those rounds); determine_pipelined32 \
    is the steady one: binary 27.8 -> 13.1 us by median over the same rounds.";

/// Determines per second, summed over `conns` connections that each
/// keep `depth` requests in flight from their own closed-loop client
/// thread; completions are counted in a 2 s window that opens after a
/// 0.5 s warm-up covering connect.
fn measure_multi(addr: SocketAddr, request: &Request, conns: usize, depth: usize) -> f64 {
    let window = Duration::from_secs(2);
    let open = Instant::now() + Duration::from_millis(500);
    let close = open + window;
    let completed: u64 = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = WireClient::connect(addr).expect("connect");
                    for _ in 0..depth {
                        client.submit(request).expect("submit");
                    }
                    let mut counted = 0u64;
                    loop {
                        let (_, response) = client.recv().expect("recv");
                        assert!(!matches!(response, Response::Error(_)), "{response:?}");
                        let now = Instant::now();
                        if now >= close {
                            break counted;
                        }
                        counted += u64::from(now >= open);
                        client.submit(request).expect("submit");
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("client thread"))
            .sum()
    });
    completed as f64 / window.as_secs_f64()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_wire.json".to_owned());
    let iters: usize = std::env::var("SMARTPICK_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);

    let request_codec_rows = request_codec_rows();

    let service = Arc::new(SmartpickService::new(ServiceConfig {
        retrain_workers: 2,
        ..ServiceConfig::default()
    }));
    let server = WireServer::bind(
        "127.0.0.1:0",
        service,
        trained_driver(),
        WireServerConfig::default(),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    let mut client = WireClient::connect(addr).expect("connect");
    client.register_tenant("bench", 7).expect("register");

    let query = tpcds::query(82, 100.0).expect("catalog query");
    let determine = Request::Determine {
        tenant: "bench".to_owned(),
        query,
        seed: 99,
    };

    println!("over-wire round trip, v3 binary frames, {iters} iterations, median");
    smartpick_bench::rule(40);
    println!("{:<24} {:>12}", "op", "µs");
    smartpick_bench::rule(40);
    let rows = [
        ("ping", measure_rtt(&mut client, &Request::Ping, iters)),
        ("determine", measure_rtt(&mut client, &determine, iters)),
        // The headline: pipelined determine, where the syscall floor
        // amortises across the 32 in-flight requests.
        (
            "determine_pipelined32",
            measure_pipelined(&mut client, &determine, 32, iters),
        ),
    ];
    let mut codec_rows = String::new();
    for (i, (name, us)) in rows.iter().enumerate() {
        println!("{name:<24} {us:>12.1}");
        if i > 0 {
            codec_rows.push_str(",\n");
        }
        let _ = write!(codec_rows, "    {{\"op\": \"{name}\", \"us\": {us:.1}}}");
    }
    smartpick_bench::rule(40);

    // The determine response's payload size, so the record says what was
    // actually on the wire.
    let response_bytes = {
        let id = client.submit(&determine).expect("submit");
        let (got, response) = client.recv().expect("recv");
        assert_eq!(id, got);
        assert!(
            matches!(response, Response::Determination(_)),
            "{response:?}"
        );
        let mut bin = Vec::new();
        smartpick_wire::codec::encode_response_into(&response, &mut bin);
        bin.len()
    };
    println!("determine response payload: {response_bytes} B");
    drop(client);

    println!("determines/s, 32 in flight split over N connections (unpinned)");
    smartpick_bench::rule(64);
    let mut multi_rows = String::new();
    let quartiles = |[q1, median, q3]: [f64; 3]| {
        format!("{{\"q1\": {q1:.0}, \"median\": {median:.0}, \"q3\": {q3:.0}}}")
    };
    for (i, (&(conns, depth), [this_commit, parent, threaded])) in MULTI_CONNECTION_SHAPES
        .iter()
        .zip(MULTI_CONNECTION_RUNS)
        .enumerate()
    {
        let per_s = measure_multi(addr, &determine, conns, depth);
        println!("{conns} x {depth:<14} {per_s:>12.0}");
        if i > 0 {
            multi_rows.push_str(",\n");
        }
        let _ = write!(
            multi_rows,
            "      {{\"connections\": {conns}, \"in_flight_each\": {depth}, \"determines_per_s\": \
             {per_s:.0}, \"alternating_runs\": {{\"this_commit\": {}, \"parent\": {}, \
             \"threaded_core\": {}}}}}",
            quartiles(this_commit),
            quartiles(parent),
            quartiles(threaded)
        );
    }
    smartpick_bench::rule(64);
    drop(server);

    // Connection scaling: N parked connections on one loop thread, all
    // provably live.
    let mut scale_rows = String::new();
    println!("connection scaling (one event-loop thread)");
    smartpick_bench::rule(64);
    println!(
        "{:<12} {:>14} {:>18}",
        "connections", "connect ms", "parked ping µs"
    );
    smartpick_bench::rule(64);
    for (i, &n) in [256usize, 1024].iter().enumerate() {
        let service = Arc::new(SmartpickService::new(ServiceConfig {
            retrain_workers: 2,
            ..ServiceConfig::default()
        }));
        let server = WireServer::bind(
            "127.0.0.1:0",
            service,
            trained_driver(),
            WireServerConfig {
                max_connections: n + 8,
                ..WireServerConfig::default()
            },
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr();
        let t = Instant::now();
        let mut clients: Vec<WireClient> = (0..n)
            .map(|_| WireClient::connect(addr).expect("connect"))
            .collect();
        // Prove each one live before timing parked pings.
        for client in clients.iter_mut() {
            client.ping().expect("ping");
        }
        let connect_ms = t.elapsed().as_secs_f64() * 1e3;
        // Median ping RTT with all N connections parked open, sampled
        // round-robin across them.
        let mut samples = Vec::with_capacity(n.min(512));
        for client in clients.iter_mut().take(512) {
            let t = Instant::now();
            client.ping().expect("ping");
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let ping_us = median_us(&mut samples);
        println!("{n:<12} {connect_ms:>14.1} {ping_us:>18.1}");
        if i > 0 {
            scale_rows.push_str(",\n");
        }
        let _ = write!(
            scale_rows,
            "    {{\"connections\": {n}, \"connect_and_first_ping_ms\": \
             {connect_ms:.1}, \"parked_ping_median_us\": {ping_us:.1}}}"
        );
        drop(clients);
    }
    smartpick_bench::rule(64);

    let json = format!(
        "{{\n  \"bench\": \"wire_codec\",\n  \"unit\": \"microseconds (median over-wire round \
         trip, loopback TCP)\",\n  \"frames\": \"v3 frames, length-tagged binary payloads\",\n  \
         \"iterations\": {iters},\n  \"determine_response_bytes\": {response_bytes},\n  \
         \"codec\": [\n{codec_rows}\n  \
         ],\n  \"multi_connection\": {{\n    \"unit\": \"determines per second, 32 in flight \
         split over N connections, one closed-loop client thread each, unpinned, 2 s \
         window\",\n    \"rows\": [\n{multi_rows}\n    ],\n    \"notes\": \
         \"{MULTI_CONNECTION_NOTES}\"\n  }},\n  \"connection_scaling\": [\n{scale_rows}\n  \
         ],\n  \"request_codec\": {{\n    \"unit\": \"median microseconds per call, in process: 25 \
         chunks of 1 000 calls, the four paths interleaved chunk by chunk; generic = \
         encode_envelope_into / decode_envelope::<Request> (the Value tree), direct = \
         encode_request_into / decode_request; bytes = the determine request's payload\",\n    \
         \"rows\": [\n{request_codec_rows}\n    ]\n  }}\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write BENCH_wire.json");
    println!("wrote {out_path}");
}
