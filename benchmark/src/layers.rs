//! The traced run: where a request's time goes, layer by layer.
//!
//! Half the window runs untraced and half with a span around every client
//! call (their ratio is the tracing overhead). Then recorded requests are
//! replayed in-process through each layer's public functions, timed from
//! outside: the determine chain on the workload's own service, and the
//! report and eviction chains on a small durable "lab" service built from
//! the same template, so every workload reports every layer.

use std::time::{Duration, Instant};

use smartpick_core::features::{QueryFeatures, N_FEATURES};
use smartpick_core::wp::{WorkloadPredictionService, WorkloadPredictor};
use smartpick_engine::{Allocation, QueryProfile};
use smartpick_service::{ServiceConfig, SmartpickService};
use smartpick_store::{FsyncPolicy, Snapshot, Store, WalPayload, WalRecord};
use smartpick_wire::{codec, Request, Response};

use crate::load::{drive, Counters};
use crate::metrics::Report;
use crate::speed::Speed;
use crate::stats;
use crate::stream::{Key, Stream};
use crate::trace::Tracer;
use crate::world::{durable_config, fingerprint, host_steal_ms, prediction_request, Spec, World};

/// Recorded requests replayed through the determine chain and sent again
/// one at a time for the depth-1 round trips.
const REPLAYED_DETERMINES: usize = 2000;
const REPLAYED_REPORTS: usize = 128;
const REPLAYED_EVICTIONS: usize = 96;
const LAB_TENANTS: usize = 16;
/// Version byte + u64 request id + u32 payload length (`docs/WIRE.md`): the
/// byte counts below are computed from the encoders plus this header, not
/// read off the socket.
const FRAME_HEADER_BYTES: usize = 13;
/// Spans of one name written to the trace file (all are kept in memory).
const SPANS_PER_NAME_IN_FILE: usize = 2000;

/// The candidate grid of `query` as the row-major feature matrix the forest
/// scores: every `(n_vm, n_sl)` within the search bounds and above the
/// training floor — the unrestricted hybrid search a `Determine` runs.
fn candidate_matrix(predictor: &WorkloadPredictor, query: &QueryProfile) -> Vec<f64> {
    let (max_vm, max_sl) = predictor.search_bounds();
    let code = predictor.code_of(&query.id).expect("known query");
    let mut rows = Vec::new();
    for n_vm in 0..=max_vm {
        for n_sl in 0..=max_sl {
            if n_vm + n_sl < predictor.min_total().max(1) {
                continue;
            }
            let start = rows.len();
            rows.resize(start + N_FEATURES, 0.0);
            QueryFeatures::for_allocation(
                code,
                query.input_gb,
                &Allocation::new(n_vm, n_sl),
                predictor.env(),
            )
            .write_into(&mut rows[start..]);
        }
    }
    rows
}

pub fn traced_run(
    world: &mut World,
    spec: &Spec,
    stream: &mut Stream,
    warmup: Duration,
    window: Duration,
    speed: &mut Speed,
) -> (Report, u64, u64) {
    let recorded = stream.clone();
    let steal_before = host_steal_ms();
    let untraced = drive(world, spec, stream, warmup, window / 2, speed, None);
    let mut tracer = Tracer::new();
    let traced = drive(
        world,
        spec,
        stream,
        warmup / 4,
        window / 2,
        speed,
        Some(&mut tracer),
    );
    let steal_ms = host_steal_ms() - steal_before;
    let mut failed = untraced.failed + traced.failed;
    let mut attempted = untraced.attempted + traced.attempted;

    let mut report = Report::per_layer();
    let n = REPLAYED_DETERMINES;

    // --- determine chain and depth-1 round trips, on the recorded requests -
    let mut replayed = recorded.clone();
    let keys: Vec<Key> = (0..n).map(|_| replayed.next_key()).collect();
    let replay = determine_replay(world, &mut tracer, &keys, &mut attempted, &mut failed);
    let us = |name: &str| tracer.median_us(name);
    let codec_spans = [
        "wire.encode_request",
        "wire.decode_request",
        "wire.encode_response",
        "wire.decode_response",
    ];
    report.set_span_medians(&tracer, &codec_spans, n);
    report.set_span_medians(&tracer, &["wire.ping_rtt", "wire.determine_rtt"], n);
    report.set("wire.request_bytes", stats::median(replay.request_sizes), n);
    report.set(
        "wire.response_bytes",
        stats::median(replay.response_sizes),
        n,
    );
    // What is left of a depth-1 round trip once the stages timed above are
    // taken out: sockets, syscalls, thread hand-offs and queue wait.
    let codec_us: f64 = codec_spans.iter().map(|span| us(span)).sum();
    let transport_us = us("wire.determine_rtt") - codec_us - us("service.predict");
    report.set("wire.transport_us", transport_us, n);
    report.set_span_medians(
        &tracer,
        &["ml.forest_batch", "core.determine", "service.predict"],
        n,
    );
    report.set("ml.candidates", replay.candidates as f64, 1);
    report.set("ml.tree_walks", stats::median(replay.tree_walks), n);
    let core_self = tracer.median_self_us("core.determine");
    report.set("core.determine_self_us", core_self, n);
    let predict_self = tracer.median_self_us("service.predict");
    report.set("service.predict_self_us", predict_self, n);

    // --- report and eviction chains, on the lab ---------------------------
    let lab = lab_replay(world, &mut tracer, &mut attempted, &mut failed);
    let per_report = REPLAYED_REPORTS;
    report.set_span_medians(
        &tracer,
        &[
            "core.apply_report",
            "service.report_admit",
            "store.wal_append",
            "store.wal_sync",
            "store.snapshot_encode",
            "store.persist_snapshot",
        ],
        per_report,
    );
    report.set_span_medians(&tracer, &["service.register"], LAB_TENANTS);
    report.set_span_medians(
        &tracer,
        &["service.evict", "service.rehydrate", "store.load_snapshot"],
        REPLAYED_EVICTIONS,
    );
    report.set(
        "core.retrains_per_report",
        lab.retrains_per_report,
        per_report,
    );
    report.set(
        "store.wal_bytes_per_report",
        lab.wal_bytes_per_report,
        per_report,
    );
    report.set("store.snapshot_bytes", lab.snapshot_bytes, 1);
    report.set(
        "store.scan_wal_us_per_record",
        lab.scan_us_per_record,
        per_report,
    );
    report.set(
        "store.wal_records_replayed",
        lab.wal_records_replayed as f64,
        1,
    );
    let sweeps: Vec<f64> = if spec.sweep_every.is_some() {
        [&untraced.sweeps_ms[..], &traced.sweeps_ms[..]].concat()
    } else {
        lab.sweeps_ms
    };
    report.set(
        "service.sweep_ms",
        stats::median(sweeps.clone()),
        sweeps.len(),
    );

    // --- counts, from the scrape envelopes that bracket the two windows ---
    let windows = [&untraced, &traced];
    let delta = |f: fn(&Counters) -> u64| -> f64 {
        windows
            .iter()
            .map(|w| f(&w.after) - f(&w.before))
            .sum::<u64>() as f64
    };
    let determines: u64 = windows.iter().map(|w| w.determines_bracketed).sum();
    report.set("wire.frames_read", delta(|c| c.frames_read), 1);
    report.set("wire.frames_written", delta(|c| c.frames_written), 1);
    report.set("wire.busy_rejections", delta(|c| c.busy_rejections), 1);
    report.set("wire.in_flight_hwm", traced.after.in_flight_hwm as f64, 1);
    report.set("service.reports_enqueued", delta(|c| c.reports_enqueued), 1);
    report.set("service.reports_applied", delta(|c| c.reports_applied), 1);
    report.set("service.rejections", delta(|c| c.rejections), 1);
    report.set("service.retrains", delta(|c| c.retrains), 1);
    report.set("service.rehydrations", delta(|c| c.rehydrations), 1);
    report.set("service.evictions", delta(|c| c.evictions), 1);
    let resident = traced.after.resident_tenants as f64;
    report.set("service.resident_tenants", resident, 1);
    let cold_share = delta(|c| c.rehydrations) / determines.max(1) as f64;
    report.set("service.cold_hit_share", cold_share, determines as usize);
    let appended = delta(|c| c.wal_records_appended);
    report.set("store.wal_records_appended", appended, 1);
    let persisted = delta(|c| c.snapshots_persisted);
    report.set("store.snapshots_persisted", persisted, 1);
    report.set("store.compactions", delta(|c| c.compactions), 1);

    // --- obs ---------------------------------------------------------------
    for i in 0..20 {
        tracer.time("obs.scrape", i, || world.service.scrape(0));
    }
    report.set_span_medians(&tracer, &["obs.scrape"], 20);
    report.set("obs.metrics_count", traced.after.metrics_count as f64, 1);

    // --- the harness's own noise indicators --------------------------------
    // Pooled over every sample of the untraced half. Printed, not gated:
    // see README, "Why latency percentiles are not gated".
    let lat = untraced.latencies_us();
    for (name, q) in [
        ("loadgen.determine_p50_us", 0.5),
        ("loadgen.determine_p99_us", 0.99),
        ("loadgen.determine_p999_us", 0.999),
    ] {
        report.set(name, stats::quantile(&lat, q), lat.len());
        stats::check_percentile(name, q, lat.len());
    }
    let lags: Vec<f64> = windows.iter().flat_map(|w| w.batch_lags_ms()).collect();
    let lag_p50 = if lags.is_empty() {
        0.0
    } else {
        stats::median(lags.clone())
    };
    report.set("loadgen.publish_lag_ms_p50", lag_p50, lags.len());
    let mut per_s = untraced.sub_window_rates();
    stats::sort(&mut per_s);
    let (q1, q3) = stats::quartiles(&per_s);
    report.set("loadgen.subwindow_q1_per_s", q1, per_s.len());
    report.set("loadgen.subwindow_q3_per_s", q3, per_s.len());
    // Of the determines the two windows sent, the share whose whole key
    // (tenant, query, search seed) an earlier one had: the stream is a pure
    // function of the seed, so it is counted on a replay.
    let sent_determines: u64 = windows.iter().map(|w| w.determines_sent).sum();
    let repeat_share = recorded.repeat_share(sent_determines);
    report.set(
        "loadgen.key_repeat_share",
        repeat_share,
        sent_determines as usize,
    );
    let busy: u64 = windows.iter().map(|w| w.busy).sum();
    let sent: u64 = windows.iter().map(|w| w.attempted).sum();
    let busy_share = busy as f64 / sent.max(1) as f64;
    report.set("loadgen.busy_share", busy_share, sent as usize);
    report.set("host.steal_ms", steal_ms, 1);
    // Samples of the two windows only: the replays above are reported as
    // timed, not at nominal speed.
    let factors = speed.factors();
    report.set(
        "host.speed_factor",
        stats::median(factors.clone()),
        factors.len(),
    );
    let overhead = 1.0 - traced.determine_per_s() / untraced.determine_per_s();
    report.set("trace.overhead_share", overhead, traced.subs.len());

    let path = crate::target_dir().join(format!("trace-{}.json", spec.name));
    std::fs::write(&path, tracer.to_json(SPANS_PER_NAME_IN_FILE)).expect("write the trace file");
    println!(
        "{:<16} {} spans in memory; trace written to {}",
        spec.name,
        tracer.spans.len(),
        path.display()
    );
    (report, attempted, failed)
}

struct DetermineReplay {
    candidates: usize,
    /// Candidates × trees of the answering tenant's forest, per request.
    tree_walks: Vec<f64>,
    request_sizes: Vec<f64>,
    response_sizes: Vec<f64>,
}

/// Each recorded request through `wire.encode_request → wire.decode_request
/// → service.predict{core.determine{ml.forest_batch}} → wire.encode_response
/// → wire.decode_response` in-process, then pings and the same requests
/// over the wire one at a time.
fn determine_replay(
    world: &mut World,
    tracer: &mut Tracer,
    keys: &[Key],
    attempted: &mut u64,
    failed: &mut u64,
) -> DetermineReplay {
    let matrices: Vec<Vec<f64>> = world
        .queries
        .iter()
        .map(|q| candidate_matrix(world.oracle.twin.predictor(), q))
        .collect();
    let candidates = matrices[0].len() / N_FEATURES;
    let mut out = DetermineReplay {
        candidates,
        tree_walks: Vec::new(),
        request_sizes: Vec::new(),
        response_sizes: Vec::new(),
    };
    let mut scores = vec![0.0; candidates];
    let (mut request_bytes, mut response_bytes) = (Vec::new(), Vec::new());
    for (i, key) in keys.iter().enumerate() {
        let id = i as u64;
        let tenant = world.tenants[key.tenant as usize].as_str();
        let query = &world.queries[key.query as usize];
        let seed = key.search_seed;
        let request = Request::Determine {
            tenant: tenant.to_owned(),
            query: query.clone(),
            seed,
        };
        tracer.time("wire.encode_request", id, || {
            codec::encode_envelope_into(&request, &mut request_bytes)
        });
        let (_, decoded) = tracer.time("wire.decode_request", id, || {
            codec::decode_envelope::<Request>(&request_bytes)
        });
        *failed += u64::from(!matches!(decoded, Ok(Request::Determine { .. })));
        let (predict, det) = tracer.time("service.predict", id, || {
            world.service.determine(tenant, query, seed)
        });
        // The same determine on the tenant's own snapshot, without the
        // service around it; then the forest pass alone.
        let snapshot = world
            .service
            .inspect_tenant(tenant, |driver| driver.snapshot())
            .expect("tenant snapshot");
        let core_request = prediction_request(&world.oracle.twin, query, seed);
        let (core, _) = tracer.time_child("core.determine", predict, || {
            snapshot.determine(&core_request)
        });
        // A tenant that has retrained owns more trees than the template.
        out.tree_walks
            .push((candidates * snapshot.forest().n_trees()) as f64);
        tracer.time_child("ml.forest_batch", core, || {
            snapshot
                .forest()
                .predict_batch_into(&matrices[key.query as usize], &mut scores)
        });
        *attempted += 1;
        let Ok(det) = det else {
            *failed += 1;
            continue;
        };
        let response = Response::Determination(det);
        tracer.time("wire.encode_response", id, || {
            codec::encode_response_into(&response, &mut response_bytes)
        });
        let (_, decoded) = tracer.time("wire.decode_response", id, || {
            codec::decode_response(&response_bytes)
        });
        let matches_oracle = world.models_diverged
            || fingerprint(&response_bytes)
                == world.oracle.expected(&world.queries, key.query, seed);
        *failed += u64::from(decoded.is_err() || !matches_oracle);
        out.request_sizes
            .push((request_bytes.len() + FRAME_HEADER_BYTES) as f64);
        out.response_sizes
            .push((response_bytes.len() + FRAME_HEADER_BYTES) as f64);
    }

    for i in 0..keys.len() {
        let (_, pong) = tracer.time("wire.ping_rtt", i as u64, || world.client.ping());
        *attempted += 1;
        *failed += u64::from(pong.is_err());
    }
    for (i, key) in keys.iter().enumerate() {
        let tenant = world.tenants[key.tenant as usize].as_str();
        let query = &world.queries[key.query as usize];
        let seed = key.search_seed;
        let (_, det) = tracer.time("wire.determine_rtt", i as u64, || {
            world.client.determine(tenant, query, seed)
        });
        *attempted += 1;
        *failed += u64::from(det.is_err());
    }
    out
}

struct LabResult {
    retrains_per_report: f64,
    wal_bytes_per_report: f64,
    snapshot_bytes: f64,
    scan_us_per_record: f64,
    wal_records_replayed: u64,
    sweeps_ms: Vec<f64>,
}

/// The feedback path `report → WAL append → retrain → snapshot encode →
/// persist` and the residency path `evict → rehydrate{load snapshot}`,
/// each stage a timed call into its layer's public function.
fn lab_replay(
    world: &World,
    tracer: &mut Tracer,
    attempted: &mut u64,
    failed: &mut u64,
) -> LabResult {
    let dir = world.root.path().join("lab");
    // A cap switches sweeps on; an hour between background polls leaves
    // every sweep to this thread.
    let config = durable_config(
        &dir,
        ServiceConfig {
            max_resident_tenants: Some(LAB_TENANTS / 2),
            supervisor_poll: Duration::from_secs(3600),
            ..ServiceConfig::default()
        },
        None,
    );
    let tenant = |i: usize| format!("lab{:02}", i % LAB_TENANTS);
    let lab = SmartpickService::open(&dir, config.clone()).expect("open lab store");
    for i in 0..LAB_TENANTS {
        let ok = tracer
            .time("service.register", i as u64, || {
                lab.register_fork(tenant(i), &world.oracle.twin, i as u64)
            })
            .1
            .is_ok();
        *failed += u64::from(!ok);
    }

    // The store stages run against a store of their own, so the lab's WAL
    // holds exactly the admitted reports.
    let store = Store::open(world.root.path().join("lab-store")).expect("open scratch store");
    let mut wal = store
        .open_wal(0, FsyncPolicy::PerBatch)
        .expect("open scratch WAL");
    let mut driver = world.oracle.twin.fork(7);
    let mut retrains = 0usize;
    let mut snapshot_bytes = 0usize;
    for i in 0..REPLAYED_REPORTS {
        let id = i as u64;
        let run = world.runs[i % world.runs.len()].clone();
        let admitted = run.clone();
        let (_, admit) = tracer.time("service.report_admit", id, || {
            lab.report_run(&tenant(i), admitted)
        });
        *attempted += 1;
        *failed += u64::from(admit.is_err());
        // What a worker does per record: render the run, frame it, append.
        let (_, appended) = tracer.time("store.wal_append", id, || {
            let record = WalRecord {
                tenant: tenant(i),
                epoch: 1,
                payload: WalPayload::Report {
                    run_id: id + 1,
                    run_json: serde_json::to_string(&run).unwrap_or_default(),
                },
            };
            wal.append(&record.encode_payload())
        });
        let (_, synced) = tracer.time("store.wal_sync", id, || wal.sync());
        let (_, applied) = tracer.time("core.apply_report", id, || {
            driver.apply_report(&run.query, &run.determination, &run.report)
        });
        retrains += usize::from(matches!(applied, Ok(Some(_))));
        let snapshot = Snapshot {
            tenant: tenant(i),
            epoch: 1,
            generation: id + 1,
            watermark: id + 1,
            state: driver.export_state(),
        };
        snapshot_bytes = tracer
            .time("store.snapshot_encode", id, || snapshot.encode())
            .1
            .len();
        let (_, persisted) = tracer.time("store.persist_snapshot", id, || {
            store.persist_snapshot(&snapshot)
        });
        *failed += u64::from(
            appended.is_err() || synced.is_err() || applied.is_err() || persisted.is_err(),
        );
    }
    let wal_bytes_per_report = wal.bytes_written() as f64 / REPLAYED_REPORTS as f64;
    drop(wal);
    let scan_started = Instant::now();
    let scanned: usize = store
        .scan_wals()
        .map(|scans| scans.iter().map(|s| s.scan.records.len()).sum())
        .unwrap_or(0);
    let scan_us_per_record = scan_started.elapsed().as_secs_f64() * 1e6 / scanned.max(1) as f64;
    *failed += u64::from(scanned != REPLAYED_REPORTS);

    // Crash the lab with every admitted report applied but none folded
    // into a snapshot, and let it recover: the replay count is exact.
    *failed += u64::from(!lab.flush());
    drop(lab);
    let lab = SmartpickService::open(&dir, config).expect("reopen lab store");
    let wal_records_replayed = Counters::read(&lab.scrape(0)).wal_records_replayed;

    let lab_store = Store::open(&dir).expect("open lab store for reads");
    let query = &world.queries[0];
    for i in 0..REPLAYED_EVICTIONS {
        let id = i as u64;
        let name = tenant(i);
        let (_, evicted) = tracer.time("service.evict", id, || lab.evict_tenant(&name));
        // First touch after the eviction: rehydrate, then determine.
        let (touch, det) = tracer.time("service.rehydrate", id, || lab.determine(&name, query, 0));
        let (_, loaded) = tracer.time_child("store.load_snapshot", touch, || {
            lab_store.load_snapshot(&name)
        });
        *attempted += 1;
        *failed += u64::from(!matches!(evicted, Ok(true)) || det.is_err() || loaded.is_err());
    }
    // Every tenant is hot again, so each sweep has half of them to evict.
    let mut sweeps_ms = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        lab.residency_sweep();
        sweeps_ms.push(started.elapsed().as_secs_f64() * 1e3);
        for i in 0..LAB_TENANTS {
            *failed += u64::from(lab.determine(&tenant(i), query, 0).is_err());
        }
    }

    LabResult {
        retrains_per_report: retrains as f64 / REPLAYED_REPORTS as f64,
        wal_bytes_per_report,
        snapshot_bytes: snapshot_bytes as f64,
        scan_us_per_record,
        wal_records_replayed,
        sweeps_ms,
    }
}
