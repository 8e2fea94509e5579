//! The request/response envelopes that ride inside frames.
//!
//! Both enums serialise as objects tagged by an `"op"` (requests) or
//! `"kind"` (responses) field — rendered as JSON,
//! `{"op":"determine","tenant":"acme","query":{...},"seed":7}` and
//! `{"kind":"determination","determination":{...}}`; on the wire, the
//! same objects in the binary codec of [`crate::codec`]. The impls are
//! hand-written because the vendored serde shim's derive covers plain
//! structs only — enums carry their tag explicitly.

use serde::{DeError, Value};
use smartpick_core::wp::{Determination, PredictionRequest};
use smartpick_engine::QueryProfile;
use smartpick_obs::{HealthReport, ScrapeEnvelope};
use smartpick_service::{CompletedRun, TenantStats};

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
    /// The run report was accepted into the update queue.
    ReportAccepted,
    /// All pending reports were applied.
    Flushed,
    /// Answer to [`Request::TenantStats`].
    TenantStats(TenantStats),
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
            "report_run" => Request::ReportRun {
                tenant: field(pairs, "tenant")?,
                run: field(pairs, "run")?,
            },
            "flush" => Request::Flush,
            "tenant_stats" => Request::TenantStats {
                tenant: field(pairs, "tenant")?,
            },
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
            Response::ReportAccepted => m = tagged("kind", "report_accepted"),
            Response::Flushed => m = tagged("kind", "flushed"),
            Response::TenantStats(s) => {
                m = tagged("kind", "tenant_stats");
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
            "report_accepted" => Response::ReportAccepted,
            "flushed" => Response::Flushed,
            "tenant_stats" => Response::TenantStats(field(pairs, "stats")?),
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
        let mut bytes = Vec::new();
        crate::codec::encode_envelope_into(v, &mut bytes);
        crate::codec::decode_envelope(&bytes).unwrap()
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
        obs.metrics().counter("wire.frames_read.v3").add(17);
        obs.events().publish(smartpick_obs::event(
            smartpick_obs::EventKind::BusyRejection,
        ));
        match reserialize(&Response::Scrape(Box::new(obs.scrape(8)))) {
            Response::Scrape(envelope) => {
                assert_eq!(envelope.version, smartpick_obs::SCRAPE_VERSION);
                assert_eq!(envelope.counter("wire.frames_read.v3"), 17);
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
                last_panic: Some("boom".into()),
            }],
        };
        match reserialize(&Response::Health(report)) {
            Response::Health(r) => {
                assert!(r.live && !r.ready);
                assert_eq!(r.workers.len(), 1);
                assert_eq!(r.workers[0].restarts, 3);
                assert_eq!(r.workers[0].last_panic.as_deref(), Some("boom"));
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
