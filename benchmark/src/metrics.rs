//! The metrics this benchmark prints — the single list `BENCHMARK.json`
//! mirrors (a test holds the two together) — and the result line.

use std::fmt::Write as _;

use crate::trace::Tracer;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by an untraced run on every workload:
/// `(name, unit, direction, bound)`. The bound is the share of the parent's
/// median by which a change may worsen the metric.
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("setup_s", "s", Lower, 0.25),
    ("determine_per_s", "1/s", Higher, 0.25),
    ("report_applied_per_s", "1/s", Higher, 0.25),
    ("publish_lag_ms_p95", "ms", Lower, 0.25),
    ("disk_bytes_per_report", "B", Lower, 0.15),
    ("recover_ms", "ms", Lower, 0.25),
    ("rss_mb", "MiB", Lower, 0.25),
];

/// Per-layer metrics, printed by a traced run: `(name, unit, direction)`.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // wire
    ("wire.encode_request_us", "us", Lower),
    ("wire.decode_request_us", "us", Lower),
    ("wire.encode_response_us", "us", Lower),
    ("wire.decode_response_us", "us", Lower),
    ("wire.request_bytes", "B", Lower),
    ("wire.response_bytes", "B", Lower),
    ("wire.ping_rtt_us", "us", Lower),
    ("wire.determine_rtt_us", "us", Lower),
    ("wire.transport_us", "us", Lower),
    ("wire.frames_read", "count", Higher),
    ("wire.frames_written", "count", Higher),
    ("wire.busy_rejections", "count", Lower),
    ("wire.in_flight_hwm", "count", Lower),
    // ml
    ("ml.forest_batch_us", "us", Lower),
    ("ml.candidates", "count", Lower),
    ("ml.tree_walks", "count", Lower),
    // core
    ("core.determine_us", "us", Lower),
    ("core.determine_self_us", "us", Lower),
    ("core.apply_report_us", "us", Lower),
    ("core.retrains_per_report", "share", Lower),
    // service
    ("service.predict_us", "us", Lower),
    ("service.predict_self_us", "us", Lower),
    ("service.report_admit_us", "us", Lower),
    ("service.register_us", "us", Lower),
    ("service.evict_us", "us", Lower),
    ("service.rehydrate_us", "us", Lower),
    ("service.sweep_ms", "ms", Lower),
    ("service.reports_enqueued", "count", Higher),
    ("service.reports_applied", "count", Higher),
    ("service.rejections", "count", Lower),
    ("service.retrains", "count", Lower),
    ("service.rehydrations", "count", Lower),
    ("service.evictions", "count", Lower),
    ("service.resident_tenants", "count", Lower),
    ("service.cold_hit_share", "share", Lower),
    // store
    ("store.wal_append_us", "us", Lower),
    ("store.wal_sync_us", "us", Lower),
    ("store.wal_bytes_per_report", "B", Lower),
    ("store.snapshot_encode_us", "us", Lower),
    ("store.snapshot_bytes", "B", Lower),
    ("store.persist_snapshot_us", "us", Lower),
    ("store.load_snapshot_us", "us", Lower),
    ("store.scan_wal_us_per_record", "us", Lower),
    ("store.wal_records_appended", "count", Higher),
    ("store.snapshots_persisted", "count", Lower),
    ("store.compactions", "count", Lower),
    ("store.wal_records_replayed", "count", Lower),
    // obs
    ("obs.scrape_us", "us", Lower),
    ("obs.metrics_count", "count", Lower),
    // the harness itself: noise indicators, expected to move nothing
    ("loadgen.determine_p50_us", "us", Lower),
    ("loadgen.determine_p99_us", "us", Lower),
    ("loadgen.determine_p999_us", "us", Lower),
    ("loadgen.publish_lag_ms_p50", "ms", Lower),
    ("loadgen.subwindow_q1_per_s", "1/s", Higher),
    ("loadgen.subwindow_q3_per_s", "1/s", Higher),
    ("loadgen.key_repeat_share", "share", Higher),
    ("loadgen.busy_share", "share", Lower),
    ("host.steal_ms", "ms", Lower),
    ("host.speed_factor", "share", Higher),
    ("trace.overhead_share", "share", Lower),
];

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "determine_hot",
        "8 hot tenants, 8x8 grid / 10 trees, uniform tenants, a fresh search seed per request so no key recurs, 32 in flight: the forest is ~6 us a request; framing, codec and the server core do the rest",
    ),
    (
        "determine_heavy",
        "16x16 grid / 100 trees (27,900 tree walks, the batch sweep), Zipf(0.99) over 64 pinned-seed keys so every key recurs, 16 in flight: ml is >90% of service.predict; the workload a memo cache can hit",
    ),
    (
        "feedback_mixed",
        "durable service, fresh seeds; 16 determines in flight while 32-report batches + Flush cycle on the same connection: worker, retrain and WAL/snapshot work beside reads",
    ),
    (
        "tenant_churn",
        "2000 durable tenants under a 200-resident cap, Zipf(0.99) tenants, fresh seeds, 16 in flight: a third of determines rehydrate a cold tenant from the store",
    ),
];

/// One printed value: what it is, in what unit, and from how many samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Collects the readings of one run against one of the declared lists.
#[derive(Debug)]
pub struct Report {
    declared: Vec<(&'static str, &'static str)>,
    pub readings: Vec<Reading>,
}

impl Report {
    pub fn end_to_end() -> Report {
        Report {
            declared: END_TO_END.iter().map(|m| (m.0, m.1)).collect(),
            readings: Vec::new(),
        }
    }

    pub fn per_layer() -> Report {
        Report {
            declared: PER_LAYER.iter().map(|m| (m.0, m.1)).collect(),
            readings: Vec::new(),
        }
    }

    /// Records `name`; the unit comes from the declaration.
    ///
    /// # Panics
    ///
    /// On an undeclared name, a repeated name, or a non-finite value — each
    /// a bug in the harness, not a property of the program under test.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let &(name, unit) = self
            .declared
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        assert!(
            !self.readings.iter().any(|r| r.name == name),
            "metric `{name}` set twice"
        );
        self.readings.push(Reading {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records `<span>_us` for each span name: the median duration of the
    /// spans of that name.
    pub fn set_span_medians(&mut self, tracer: &Tracer, spans: &[&str], samples: usize) {
        for span in spans {
            self.set(&format!("{span}_us"), tracer.median_us(span), samples);
        }
    }

    /// Declared metrics not yet set.
    pub fn missing(&self) -> Vec<&'static str> {
        self.declared
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.readings.iter().any(|r| r.name == *n))
            .collect()
    }

    /// One line per metric: name, value, unit, sample count.
    pub fn human(&self, workload: &str) -> String {
        let mut out = String::new();
        for r in &self.readings {
            let _ = writeln!(
                out,
                "{workload:<16} {:<30} {:>16.4} {:<6} n={}",
                r.name, r.value, r.unit, r.samples
            );
        }
        out
    }

    /// The result line the contract prescribes.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0,
            attempted.max(1)
        );
        for (i, r) in self.readings.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name, r.value, r.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn obj<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Obj(pairs) => serde::obj_get(pairs, key).expect("key present"),
            other => panic!("expected an object, got {other:?}"),
        }
    }

    fn text(v: &Value, key: &str) -> String {
        match obj(v, key) {
            Value::Str(s) => s.clone(),
            other => panic!("`{key}` is not a string: {other:?}"),
        }
    }

    fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match obj(v, key) {
            Value::Arr(items) => items,
            other => panic!("`{key}` is not an array: {other:?}"),
        }
    }

    /// Every printed name is declared in `BENCHMARK.json` and vice versa,
    /// with the same unit, direction and bound.
    #[test]
    fn declarations_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: Value = serde_json::from_str(&json).expect("BENCHMARK.json parses");

        let e2e: Vec<(String, String, String, f64)> = list(&doc, "end_to_end")
            .iter()
            .map(|m| {
                let bound = match obj(m, "bound") {
                    Value::Num(b) => *b,
                    other => panic!("bound is not a number: {other:?}"),
                };
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.0.to_owned(), m.1.to_owned(), m.2.name().to_owned(), m.3))
            .collect();
        assert_eq!(e2e, ours, "end_to_end differs from metrics::END_TO_END");

        let layers: Vec<(String, String, String)> = list(&doc, "per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_owned(), m.1.to_owned(), m.2.name().to_owned()))
            .collect();
        assert_eq!(layers, ours, "per_layer differs from metrics::PER_LAYER");

        let workloads: Vec<(String, String)> = list(&doc, "workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.0.to_owned(), w.1.to_owned()))
            .collect();
        assert_eq!(workloads, ours, "workloads differ from metrics::WORKLOADS");

        match obj(&doc, "run_seconds") {
            Value::Num(s) => assert_eq!(*s, crate::DEFAULT_SECONDS as f64),
            other => panic!("run_seconds is not a number: {other:?}"),
        }
    }

    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        for n in &names {
            assert!(valid_name(n), "bad name `{n}`");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");

        let units = END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for u in units {
            assert!(
                !u.is_empty()
                    && u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit `{u}`"
            );
        }
        for m in END_TO_END {
            assert!(m.3 > 0.0 && m.3 <= 0.25, "bound of `{}` out of range", m.0);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == Lower));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(w.1.len() <= 200 && !w.1.contains('\n'), "why of `{}`", w.0);
        }
    }

    #[test]
    fn result_line_has_exactly_the_prescribed_keys() {
        let mut r = Report::end_to_end();
        r.set("setup_s", 0.8127, 3);
        r.set("rss_mb", 41.5, 1);
        assert_eq!(r.missing().len(), END_TO_END.len() - 2);
        let line = r.result_line(1000, 0);
        let doc: Value = serde_json::from_str(&line).expect("result line parses");
        let Value::Obj(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(obj(&doc, "correct"), &Value::Bool(true));
        assert_eq!(
            obj(obj(obj(&doc, "metrics"), "setup_s"), "value"),
            &Value::Num(0.8127)
        );
        assert!(r.result_line(10, 1).contains("\"correct\": false"));
    }
}
