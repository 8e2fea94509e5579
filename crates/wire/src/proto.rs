//! The request/response envelopes that ride inside frames.
//!
//! Both enums serialise as JSON objects tagged by an `"op"` (requests)
//! or `"kind"` (responses) field, e.g.
//! `{"op":"determine","tenant":"acme","query":{...},"seed":7}` and
//! `{"kind":"determination","determination":{...}}`. The impls are
//! hand-written because the vendored serde shim's derive covers plain
//! structs only — enums carry their tag explicitly.

use serde::{DeError, Value};
use smartpick_core::wp::{Determination, PredictionRequest};
use smartpick_engine::QueryProfile;
use smartpick_obs::{HealthReport, ScrapeEnvelope};
use smartpick_service::{CompletedRun, ServiceStats, TenantStats};

use crate::error::ErrorKind;

/// One client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Registers `tenant`, forked from the server's template driver with
    /// `seed` (the wire cannot carry a trained model; §4.2's kick-start
    /// training happens server-side, once).
    RegisterTenant {
        /// The tenant id to register.
        tenant: String,
        /// Fork seed (per-tenant RNG stream).
        seed: u64,
    },
    /// A full [`PredictionRequest`] against `tenant`'s snapshot.
    Predict {
        /// The tenant to predict for.
        tenant: String,
        /// The prediction request.
        request: PredictionRequest,
    },
    /// Convenience prediction: hybrid search with the tenant's knob.
    Determine {
        /// The tenant to predict for.
        tenant: String,
        /// The query to size.
        query: QueryProfile,
        /// Seed for the stochastic parts of the search.
        seed: u64,
    },
    /// N full [`PredictionRequest`]s against `tenant`, answered from one
    /// snapshot read in one frame — the batched form that amortises
    /// framing, JSON, and snapshot acquisition across the whole batch.
    DetermineBatch {
        /// The tenant to predict for.
        tenant: String,
        /// The prediction requests (each with its own knob/constraint/seed).
        requests: Vec<PredictionRequest>,
    },
    /// Like [`Request::DetermineBatch`], but the server **streams** the
    /// results: one [`Response::BatchItem`] frame per request (in
    /// request order, each tagged with this request's id) followed by a
    /// terminal [`Response::BatchEnd`] — so a client can start consuming
    /// result 0 while result N is still being framed, and no single
    /// response frame has to carry the whole batch. Requires an
    /// id-carrying frame generation (v2/v3) to be useful pipelined,
    /// though v1 peers get the same frame sequence strictly in order.
    DetermineStream {
        /// The tenant to predict for.
        tenant: String,
        /// The prediction requests (each with its own knob/constraint/seed).
        requests: Vec<PredictionRequest>,
    },
    /// Feeds one completed run back into `tenant`'s training loop.
    ReportRun {
        /// The tenant the run belongs to.
        tenant: String,
        /// The completed run (boxed: it dwarfs every other variant).
        run: Box<CompletedRun>,
    },
    /// Blocks until every report accepted so far is applied and the
    /// snapshots republished.
    Flush,
    /// A point-in-time view of one tenant.
    TenantStats {
        /// The tenant to inspect.
        tenant: String,
    },
    /// A point-in-time view of the whole service.
    ServiceStats,
    /// One versioned telemetry envelope: every metric the process
    /// registered (service *and* wire layers), the resident tenants'
    /// `tenant.<id>.*` rows, plus the last `events` entries of the
    /// structured event log.
    Scrape {
        /// Max events to include (0 = metrics only).
        events: usize,
    },
    /// Liveness/readiness: ready iff every retrain worker is alive and no
    /// shard is stalled past the server's configured deadline.
    Health,
}

/// One server response.
#[derive(Debug, Clone)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// The tenant was registered.
    Registered,
    /// A prediction result (answers `Predict` and `Determine`).
    Determination(Determination),
    /// One prediction result per batched request, in request order
    /// (answers `DetermineBatch`).
    Determinations(Vec<Determination>),
    /// One element of a streamed batch (answers `DetermineStream`):
    /// the position of this result within the batch, and the result.
    BatchItem {
        /// Zero-based index of this result within the batch.
        index: u64,
        /// The prediction result for `requests[index]`.
        determination: Box<Determination>,
    },
    /// Terminal frame of a streamed batch: all `count` items were sent.
    BatchEnd {
        /// Number of `BatchItem` frames that preceded this one.
        count: u64,
    },
    /// The run report was accepted into the update queue.
    ReportAccepted,
    /// All pending reports were applied.
    Flushed,
    /// Answer to [`Request::TenantStats`].
    TenantStats(TenantStats),
    /// Answer to [`Request::ServiceStats`].
    ServiceStats(ServiceStats),
    /// Answer to [`Request::Scrape`] (boxed: the envelope carries every
    /// metric in the process plus eleven rows per resident tenant, and
    /// dwarfs the other variants).
    Scrape(Box<ScrapeEnvelope>),
    /// Answer to [`Request::Health`].
    Health(HealthReport),
    /// The request was rejected; the connection stays usable unless the
    /// kind is [`ErrorKind::Protocol`].
    Error(Rejection),
}

/// The error payload of [`Response::Error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Machine-readable category.
    pub kind: ErrorKind,
    /// Human-readable server-side message.
    pub message: String,
    /// Whether the client should back off and resend the same request.
    pub retryable: bool,
}

fn tagged(tag_key: &str, tag: &str) -> Vec<(String, Value)> {
    vec![(tag_key.to_owned(), Value::Str(tag.to_owned()))]
}

fn push(m: &mut Vec<(String, Value)>, key: &str, v: Value) {
    m.push((key.to_owned(), v));
}

fn get_str<'a>(pairs: &'a [(String, Value)], key: &str) -> Result<&'a str, DeError> {
    match serde::obj_get(pairs, key)? {
        Value::Str(s) => Ok(s),
        other => Err(DeError(format!("expected string `{key}`, got {other:?}"))),
    }
}

fn field<T: serde::Deserialize>(pairs: &[(String, Value)], key: &str) -> Result<T, DeError> {
    T::from_value(serde::obj_get(pairs, key)?)
}

impl serde::Serialize for Request {
    fn to_value(&self) -> Value {
        let mut m;
        match self {
            Request::Ping => m = tagged("op", "ping"),
            Request::RegisterTenant { tenant, seed } => {
                m = tagged("op", "register_tenant");
                push(&mut m, "tenant", tenant.to_value());
                push(&mut m, "seed", seed.to_value());
            }
            Request::Predict { tenant, request } => {
                m = tagged("op", "predict");
                push(&mut m, "tenant", tenant.to_value());
                push(&mut m, "request", request.to_value());
            }
            Request::Determine {
                tenant,
                query,
                seed,
            } => {
                m = tagged("op", "determine");
                push(&mut m, "tenant", tenant.to_value());
                push(&mut m, "query", query.to_value());
                push(&mut m, "seed", seed.to_value());
            }
            Request::DetermineBatch { tenant, requests } => {
                m = tagged("op", "determine_batch");
                push(&mut m, "tenant", tenant.to_value());
                push(&mut m, "requests", requests.to_value());
            }
            Request::DetermineStream { tenant, requests } => {
                m = tagged("op", "determine_stream");
                push(&mut m, "tenant", tenant.to_value());
                push(&mut m, "requests", requests.to_value());
            }
            Request::ReportRun { tenant, run } => {
                m = tagged("op", "report_run");
                push(&mut m, "tenant", tenant.to_value());
                push(&mut m, "run", run.to_value());
            }
            Request::Flush => m = tagged("op", "flush"),
            Request::TenantStats { tenant } => {
                m = tagged("op", "tenant_stats");
                push(&mut m, "tenant", tenant.to_value());
            }
            Request::ServiceStats => m = tagged("op", "service_stats"),
            Request::Scrape { events } => {
                m = tagged("op", "scrape");
                push(&mut m, "events", events.to_value());
            }
            Request::Health => m = tagged("op", "health"),
        }
        Value::Obj(m)
    }
}

impl serde::Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs = match v {
            Value::Obj(pairs) => pairs.as_slice(),
            other => return Err(DeError(format!("expected request object, got {other:?}"))),
        };
        Ok(match get_str(pairs, "op")? {
            "ping" => Request::Ping,
            "register_tenant" => Request::RegisterTenant {
                tenant: field(pairs, "tenant")?,
                seed: field(pairs, "seed")?,
            },
            "predict" => Request::Predict {
                tenant: field(pairs, "tenant")?,
                request: field(pairs, "request")?,
            },
            "determine" => Request::Determine {
                tenant: field(pairs, "tenant")?,
                query: field(pairs, "query")?,
                seed: field(pairs, "seed")?,
            },
            "determine_batch" => Request::DetermineBatch {
                tenant: field(pairs, "tenant")?,
                requests: field(pairs, "requests")?,
            },
            "determine_stream" => Request::DetermineStream {
                tenant: field(pairs, "tenant")?,
                requests: field(pairs, "requests")?,
            },
            "report_run" => Request::ReportRun {
                tenant: field(pairs, "tenant")?,
                run: field(pairs, "run")?,
            },
            "flush" => Request::Flush,
            "tenant_stats" => Request::TenantStats {
                tenant: field(pairs, "tenant")?,
            },
            "service_stats" => Request::ServiceStats,
            "scrape" => Request::Scrape {
                events: field(pairs, "events")?,
            },
            "health" => Request::Health,
            other => return Err(DeError(format!("unknown request op `{other}`"))),
        })
    }
}

impl serde::Serialize for Response {
    fn to_value(&self) -> Value {
        let mut m;
        match self {
            Response::Pong => m = tagged("kind", "pong"),
            Response::Registered => m = tagged("kind", "registered"),
            Response::Determination(d) => {
                m = tagged("kind", "determination");
                push(&mut m, "determination", d.to_value());
            }
            Response::Determinations(ds) => {
                m = tagged("kind", "determinations");
                push(&mut m, "determinations", ds.to_value());
            }
            Response::BatchItem {
                index,
                determination,
            } => {
                m = tagged("kind", "batch_item");
                push(&mut m, "index", index.to_value());
                push(&mut m, "determination", determination.to_value());
            }
            Response::BatchEnd { count } => {
                m = tagged("kind", "batch_end");
                push(&mut m, "count", count.to_value());
            }
            Response::ReportAccepted => m = tagged("kind", "report_accepted"),
            Response::Flushed => m = tagged("kind", "flushed"),
            Response::TenantStats(s) => {
                m = tagged("kind", "tenant_stats");
                push(&mut m, "stats", s.to_value());
            }
            Response::ServiceStats(s) => {
                m = tagged("kind", "service_stats");
                push(&mut m, "stats", s.to_value());
            }
            Response::Scrape(envelope) => {
                m = tagged("kind", "scrape");
                push(&mut m, "envelope", envelope.to_value());
            }
            Response::Health(report) => {
                m = tagged("kind", "health");
                push(&mut m, "report", report.to_value());
            }
            Response::Error(r) => {
                m = tagged("kind", "error");
                push(&mut m, "error_kind", Value::Str(r.kind.name().to_owned()));
                push(&mut m, "message", r.message.to_value());
                push(&mut m, "retryable", r.retryable.to_value());
            }
        }
        Value::Obj(m)
    }
}

impl serde::Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs = match v {
            Value::Obj(pairs) => pairs.as_slice(),
            other => return Err(DeError(format!("expected response object, got {other:?}"))),
        };
        Ok(match get_str(pairs, "kind")? {
            "pong" => Response::Pong,
            "registered" => Response::Registered,
            "determination" => Response::Determination(field(pairs, "determination")?),
            "determinations" => Response::Determinations(field(pairs, "determinations")?),
            "batch_item" => Response::BatchItem {
                index: field(pairs, "index")?,
                determination: field(pairs, "determination")?,
            },
            "batch_end" => Response::BatchEnd {
                count: field(pairs, "count")?,
            },
            "report_accepted" => Response::ReportAccepted,
            "flushed" => Response::Flushed,
            "tenant_stats" => Response::TenantStats(field(pairs, "stats")?),
            "service_stats" => Response::ServiceStats(field(pairs, "stats")?),
            "scrape" => Response::Scrape(Box::new(field(pairs, "envelope")?)),
            "health" => Response::Health(field(pairs, "report")?),
            "error" => {
                let kind_name = get_str(pairs, "error_kind")?;
                Response::Error(Rejection {
                    kind: ErrorKind::parse(kind_name)
                        .ok_or_else(|| DeError(format!("unknown error kind `{kind_name}`")))?,
                    message: field(pairs, "message")?,
                    retryable: field(pairs, "retryable")?,
                })
            }
            other => return Err(DeError(format!("unknown response kind `{other}`"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartpick_core::wp::ConstraintMode;

    fn reserialize<T: serde::Serialize + serde::Deserialize>(v: &T) -> T {
        serde_json::from_str(&serde_json::to_string(v).unwrap()).unwrap()
    }

    #[test]
    fn request_envelopes_round_trip() {
        let query = QueryProfile::uniform("q", 2, 8, 900.0, 16.0, 4.0);
        let round: Request = reserialize(&Request::Predict {
            tenant: "acme".into(),
            request: PredictionRequest {
                query: query.clone(),
                knob: 0.25,
                constraint: ConstraintMode::VmOnly,
                seed: 99,
            },
        });
        match round {
            Request::Predict { tenant, request } => {
                assert_eq!(tenant, "acme");
                assert_eq!(request.query, query);
                assert_eq!(request.constraint, ConstraintMode::VmOnly);
                assert_eq!(request.seed, 99);
                assert!((request.knob - 0.25).abs() < 1e-12);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(matches!(reserialize(&Request::Ping), Request::Ping));
        assert!(matches!(reserialize(&Request::Flush), Request::Flush));
        assert!(matches!(
            reserialize(&Request::ServiceStats),
            Request::ServiceStats
        ));
        match reserialize(&Request::Determine {
            tenant: "t".into(),
            query,
            seed: 3,
        }) {
            Request::Determine { tenant, seed, .. } => {
                assert_eq!(tenant, "t");
                assert_eq!(seed, 3);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn scrape_and_health_round_trip() {
        match reserialize(&Request::Scrape { events: 32 }) {
            Request::Scrape { events } => assert_eq!(events, 32),
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(matches!(reserialize(&Request::Health), Request::Health));

        let obs = smartpick_obs::Observability::new(8);
        obs.metrics().counter("wire.frames_read.v2").add(17);
        obs.events().publish(smartpick_obs::event(
            smartpick_obs::EventKind::BusyRejection,
        ));
        match reserialize(&Response::Scrape(Box::new(obs.scrape(8)))) {
            Response::Scrape(envelope) => {
                assert_eq!(envelope.version, smartpick_obs::SCRAPE_VERSION);
                assert_eq!(envelope.counter("wire.frames_read.v2"), 17);
                assert_eq!(envelope.events.len(), 1);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let report = smartpick_obs::HealthReport {
            live: true,
            ready: false,
            reasons: vec!["worker shard 1 failed permanently (boom)".into()],
            workers: vec![smartpick_obs::WorkerHealth {
                shard: 1,
                state: "failed".into(),
                restarts: 3,
                stalled: false,
                queue_depth: 4,
            }],
        };
        match reserialize(&Response::Health(report)) {
            Response::Health(r) => {
                assert!(r.live && !r.ready);
                assert_eq!(r.workers.len(), 1);
                assert_eq!(r.workers[0].restarts, 3);
                assert_eq!(r.reasons.len(), 1);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn error_response_round_trips() {
        let round: Response = reserialize(&Response::Error(Rejection {
            kind: ErrorKind::QuotaExceeded,
            message: "tenant `t` has 9 pending reports (cap 8); retry later".into(),
            retryable: true,
        }));
        match round {
            Response::Error(r) => {
                assert_eq!(r.kind, ErrorKind::QuotaExceeded);
                assert!(r.retryable);
                assert!(r.message.contains("cap 8"));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(serde_json::from_str::<Request>("{\"op\":\"reboot\"}").is_err());
        assert!(serde_json::from_str::<Response>("{\"kind\":\"nope\"}").is_err());
        assert!(serde_json::from_str::<Request>("[1,2]").is_err());
    }
}
