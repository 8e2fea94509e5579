//! The load generator: one thread, one connection, closed loop.
//!
//! A fixed number of determines stays in flight — each answered request is
//! replaced by the next from the stream — and, on the feedback workload,
//! the same connection cycles `REPORT_BATCH` reports → `Flush` → next batch.
//! Every answer is fingerprinted as it arrives and checked against the
//! oracle once the window has ended.
//!
//! About once a second the generator stops submitting, lets what is in
//! flight drain, and samples the box's speed ([`Speed`]); a sub-window is
//! what lies between two samples, and is reported at the nominal speed.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use smartpick_obs::ScrapeEnvelope;
use smartpick_wire::{codec, ErrorKind, Request, Response};

use crate::speed::Speed;
use crate::stream::Stream;
use crate::trace::Tracer;
use crate::world::{fingerprint, Spec, World};

/// Reports per feedback batch (each batch ends in one `Flush`).
pub const REPORT_BATCH: usize = 32;
/// The generator runs this long between two speed samples; throughput is
/// the upper-quartile sub-window.
const SUB_WINDOW: Duration = Duration::from_secs(1);

/// The counters a window is bracketed by, read from the public scrape.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub frames_read: u64,
    pub frames_written: u64,
    pub busy_rejections: u64,
    pub in_flight_hwm: i64,
    pub reports_enqueued: u64,
    pub reports_applied: u64,
    pub rejections: u64,
    pub retrains: u64,
    pub rehydrations: u64,
    pub evictions: u64,
    pub resident_tenants: i64,
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
    pub wal_records_appended: u64,
    pub snapshots_persisted: u64,
    pub compactions: u64,
    pub wal_records_replayed: u64,
    pub metrics_count: usize,
}

impl Counters {
    pub fn read(scrape: &ScrapeEnvelope) -> Counters {
        // Frame counters are split per frame generation today; summing by
        // prefix keeps this independent of how many generations exist.
        let sum = |prefix: &str| -> u64 {
            scrape
                .metrics
                .iter()
                .filter(|m| m.name.starts_with(prefix))
                .map(|m| scrape.counter(&m.name))
                .sum()
        };
        Counters {
            frames_read: sum("wire.frames_read"),
            frames_written: sum("wire.frames_written"),
            busy_rejections: scrape.counter("wire.busy_rejections"),
            in_flight_hwm: scrape.gauge("wire.in_flight_hwm"),
            reports_enqueued: scrape.counter("service.reports_enqueued"),
            reports_applied: scrape.counter("service.reports_applied"),
            rejections: scrape.counter("service.rejections"),
            retrains: scrape.counter("service.retrains"),
            rehydrations: scrape.counter("service.residency.rehydrations"),
            evictions: scrape.counter("service.residency.evictions"),
            resident_tenants: scrape.gauge("service.residency.resident_tenants"),
            wal_bytes: scrape.counter("store.wal_bytes_written"),
            snapshot_bytes: scrape.counter("store.snapshot_bytes_written"),
            wal_records_appended: scrape.counter("store.wal_records_appended"),
            snapshots_persisted: scrape.counter("store.snapshots_persisted"),
            compactions: scrape.counter("store.compactions"),
            wal_records_replayed: scrape.counter("store.wal_records_replayed"),
            metrics_count: scrape.metrics.len(),
        }
    }
}

/// What lies between two speed samples.
#[derive(Debug, Default)]
pub struct SubWindow {
    /// From the first submit to the last answer drained.
    pub seconds: f64,
    /// The box's speed over it, as a share of nominal.
    pub speed: f64,
    /// Submit → decoded response of every determine answered in it.
    pub latencies_ns: Vec<u32>,
    /// First report of a batch submitted → its `Flushed`, per batch. A
    /// sample is only taken between batches, so none straddles two.
    pub batch_lags_ms: Vec<f64>,
}

/// What one timed window measured.
#[derive(Debug, Default)]
pub struct Window {
    pub subs: Vec<SubWindow>,
    pub sweeps_ms: Vec<f64>,
    pub before: Counters,
    pub after: Counters,
    /// Determines answered between the two counter readings.
    pub determines_bracketed: u64,
    /// Determines sent, warm-up included.
    pub determines_sent: u64,
    /// Every request sent, warm-up and drain included.
    pub attempted: u64,
    /// Error responses, oracle mismatches, unanswered requests, unbalanced books.
    pub failed: u64,
    pub busy: u64,
}

impl Window {
    /// Determines per second in each sub-window, at the nominal speed.
    pub fn sub_window_rates(&self) -> Vec<f64> {
        self.subs
            .iter()
            .map(|s| s.latencies_ns.len() as f64 / s.seconds / s.speed)
            .collect()
    }

    /// Determines per second in the upper-quartile sub-window. What else
    /// runs on a shared host only ever takes throughput away, and not all
    /// of it shows in the speed samples, so the better sub-windows say what
    /// the program sustains. A stall of the program's own still counts with
    /// every sample in the pooled latency percentiles, and
    /// `loadgen.subwindow_q1_per_s` prints the other side.
    pub fn determine_per_s(&self) -> f64 {
        let mut rates = self.sub_window_rates();
        crate::stats::sort(&mut rates);
        crate::stats::quantile(&rates, 0.75)
    }

    /// Ascending determine latencies in microseconds at the nominal speed,
    /// all sub-windows pooled.
    pub fn latencies_us(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .subs
            .iter()
            .flat_map(|s| {
                s.latencies_ns
                    .iter()
                    .map(|&ns| f64::from(ns) / 1e3 * s.speed)
            })
            .collect();
        crate::stats::sort(&mut v);
        v
    }

    /// Ascending batch lags in milliseconds at the nominal speed.
    pub fn batch_lags_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .subs
            .iter()
            .flat_map(|s| s.batch_lags_ms.iter().map(|&ms| ms * s.speed))
            .collect();
        crate::stats::sort(&mut v);
        v
    }

    /// Reports covered by a `Flushed` per second, at the nominal speed.
    pub fn report_applied_per_s(&self) -> f64 {
        let batches: usize = self.subs.iter().map(|s| s.batch_lags_ms.len()).sum();
        let seconds: f64 = self.subs.iter().map(|s| s.seconds * s.speed).sum();
        (batches * REPORT_BATCH) as f64 / seconds
    }
}

enum Pending {
    Determine {
        /// Position in this drive's stream of keys.
        ordinal: usize,
        submitted: Instant,
        submit_end_ns: u64,
    },
    Report,
    Flush,
}

/// Where the feedback cycle stands.
enum Feedback {
    Off,
    Idle,
    /// Reports submitted, `acks` of them still unanswered.
    Reporting {
        acks: usize,
        started: Instant,
    },
    Flushing {
        started: Instant,
    },
}

/// Drives `world` for `warmup`, then for sub-windows that add up to
/// `window`, measuring only those.
pub fn drive(
    world: &mut World,
    spec: &Spec,
    stream: &mut Stream,
    warmup: Duration,
    window: Duration,
    speed: &mut Speed,
    mut tracer: Option<&mut Tracer>,
) -> Window {
    let mut out = Window::default();

    // One request per query; tenant and seed are rewritten per send so the
    // generator allocates nothing per request.
    let mut determines: Vec<Request> = world
        .queries
        .iter()
        .map(|query| Request::Determine {
            tenant: String::new(),
            query: query.clone(),
            seed: 0,
        })
        .collect();
    // The keys are drawn in submission order, so a clone of the stream as
    // it stands now names the key of every ordinal when the answers are
    // checked after the run.
    let sent_keys = stream.clone();
    // Fingerprint of each determine's answer by ordinal; 0 until answered.
    let mut answers: Vec<u32> = Vec::new();
    let mut reports: Vec<Request> = world
        .runs
        .iter()
        .map(|run| Request::ReportRun {
            tenant: String::new(),
            run: Box::new(run.clone()),
        })
        .collect();
    let mut report_rng = crate::stream::Rng::new(0x5EED_F00D);
    let mut next_report = 0usize;

    let mut pending: HashMap<u64, Pending> = HashMap::with_capacity(128);
    let mut in_flight = 0usize;
    let mut determines_in_flight = 0usize;
    let mut feedback = if spec.feedback {
        Feedback::Idle
    } else {
        Feedback::Off
    };
    let mut since_sweep = 0usize;
    let mut encoded = Vec::new();

    // The stretch being driven: the warm-up, then one sub-window after
    // another. A stretch that is due ends between two feedback batches: no
    // new batch starts, and once the last is flushed no determine is
    // submitted either, so that the speed sample finds the program idle.
    let mut stretch_started = Instant::now();
    let mut stretch = warmup;
    let mut timed = false;
    let mut measured = Duration::ZERO;
    let mut current = SubWindow::default();
    loop {
        let due = stretch_started.elapsed() >= stretch;
        let closing = due && matches!(feedback, Feedback::Off | Feedback::Idle);
        let sweep_due = spec.sweep_every.is_some_and(|n| since_sweep >= n);
        if sweep_due && in_flight == 0 {
            let t = Instant::now();
            world.service.residency_sweep();
            out.sweeps_ms.push(t.elapsed().as_secs_f64() * 1e3);
            since_sweep = 0;
            continue;
        }
        if closing && in_flight == 0 {
            let drained = Instant::now();
            speed.sample();
            if timed {
                current.seconds = (drained - stretch_started).as_secs_f64();
                current.speed = speed.factor(stretch_started, drained);
                measured += drained - stretch_started;
                out.subs.push(std::mem::take(&mut current));
                // A last stretch shorter than half a sub-window would be
                // mostly pipeline fill.
                if measured + SUB_WINDOW / 2 >= window {
                    break;
                }
            } else {
                timed = true;
                out.before = Counters::read(&world.service.scrape(0));
            }
            stretch = SUB_WINDOW;
            stretch_started = Instant::now();
            continue;
        }
        if !closing && !sweep_due {
            while determines_in_flight < spec.in_flight {
                let key = stream.next_key();
                let request = &mut determines[key.query as usize];
                set_tenant(request, &world.tenants[key.tenant as usize]);
                if let Request::Determine { seed, .. } = request {
                    *seed = key.search_seed;
                }
                let ordinal = answers.len();
                answers.push(0);
                let submitted = Instant::now();
                let span_start = tracer.as_ref().map(|t| t.now_ns());
                let id = world.client.submit(request).expect("submit determine");
                let mut submit_end_ns = 0;
                if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span_start) {
                    submit_end_ns = t.now_ns();
                    t.record("loadgen.submit", s, submit_end_ns, None, id);
                }
                pending.insert(
                    id,
                    Pending::Determine {
                        ordinal,
                        submitted,
                        submit_end_ns,
                    },
                );
                in_flight += 1;
                determines_in_flight += 1;
                out.attempted += 1;
            }
            if !due && matches!(feedback, Feedback::Idle) {
                let started = Instant::now();
                for _ in 0..REPORT_BATCH {
                    let request = &mut reports[next_report % world.runs.len()];
                    next_report += 1;
                    set_tenant(
                        request,
                        &world.tenants[report_rng.below(world.tenants.len())],
                    );
                    let id = world.client.submit(request).expect("submit report");
                    pending.insert(id, Pending::Report);
                    in_flight += 1;
                    out.attempted += 1;
                }
                world.models_diverged = true;
                feedback = Feedback::Reporting {
                    acks: REPORT_BATCH,
                    started,
                };
            }
        }
        if in_flight == 0 {
            continue;
        }

        let (id, response) = match world.client.recv() {
            Ok(answer) => answer,
            Err(e) => {
                // The connection is dead: everything in flight is unanswered.
                eprintln!(
                    "{}: connection lost with {in_flight} in flight: {e}",
                    spec.name
                );
                out.failed += in_flight as u64;
                break;
            }
        };
        let done = Instant::now();
        let Some(sent) = pending.remove(&id) else {
            out.failed += 1;
            continue;
        };
        in_flight -= 1;
        match (sent, response) {
            (
                Pending::Determine {
                    ordinal,
                    submitted,
                    submit_end_ns,
                },
                Response::Determination(det),
            ) => {
                determines_in_flight -= 1;
                since_sweep += 1;
                out.determines_bracketed += u64::from(timed);
                if let Some(t) = tracer.as_deref_mut() {
                    let now_ns = t.now_ns();
                    t.record("loadgen.wait", submit_end_ns, now_ns, None, id);
                }
                if timed {
                    let ns = done.duration_since(submitted).as_nanos();
                    current
                        .latencies_ns
                        .push(u32::try_from(ns).unwrap_or(u32::MAX));
                }
                if world.models_diverged {
                    let shaped = det.predicted_seconds.is_finite()
                        && det.predicted_seconds > 0.0
                        && !det.et_list.is_empty()
                        && det.allocation.n_vm + det.allocation.n_sl > 0;
                    out.failed += u64::from(!shaped);
                } else {
                    codec::encode_response_into(&Response::Determination(det), &mut encoded);
                    answers[ordinal] = fingerprint(&encoded);
                }
            }
            (Pending::Report, response) => {
                // A refused report still ends its wait, so the batch goes on
                // to its Flush and the books check sees the shortfall.
                if !matches!(response, Response::ReportAccepted) {
                    out.failed += 1;
                }
                if let Feedback::Reporting { acks, started } = feedback {
                    feedback = if acks > 1 {
                        Feedback::Reporting {
                            acks: acks - 1,
                            started,
                        }
                    } else {
                        let id = world.client.submit(&Request::Flush).expect("submit flush");
                        pending.insert(id, Pending::Flush);
                        in_flight += 1;
                        out.attempted += 1;
                        Feedback::Flushing { started }
                    };
                }
            }
            (Pending::Flush, Response::Flushed) => {
                if let Feedback::Flushing { started } = feedback {
                    if timed {
                        current
                            .batch_lags_ms
                            .push(done.duration_since(started).as_secs_f64() * 1e3);
                    }
                }
                feedback = Feedback::Idle;
            }
            (Pending::Determine { .. }, other) => {
                determines_in_flight -= 1;
                since_sweep += 1;
                out.failed += 1;
                if matches!(&other, Response::Error(r) if r.kind == ErrorKind::Busy) {
                    out.busy += 1;
                }
            }
            (Pending::Flush, _) => {
                out.failed += 1;
                feedback = Feedback::Idle;
            }
        }
    }
    out.after = Counters::read(&world.service.scrape(0));

    // The oracle, after the run so that computing what was expected takes
    // nothing from the server's cores while it is being measured. An
    // ordinal still at 0 was answered with an error or not at all (already
    // counted), or only checked for shape.
    out.determines_sent = answers.len() as u64;
    let mut sent_keys = sent_keys;
    for &answer in &answers {
        let key = sent_keys.next_key();
        if answer != 0 {
            let expected = world
                .oracle
                .expected(&world.queries, key.query, key.search_seed);
            out.failed += u64::from(answer != expected);
        }
    }

    // The books: once the last Flush is answered, nothing accepted may be
    // unapplied and nothing may have been shed.
    if spec.feedback {
        if out.after.reports_enqueued != out.after.reports_applied {
            out.failed += 1;
        }
        if out.after.rejections != 0 {
            out.failed += 1;
        }
    }
    out
}

fn set_tenant(request: &mut Request, name: &str) {
    if let Request::Determine { tenant, .. } | Request::ReportRun { tenant, .. } = request {
        tenant.clear();
        tenant.push_str(name);
    }
}
