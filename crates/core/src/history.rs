//! The History Server (§4.1, §5).
//!
//! "History Server captures and stores the metrics outlined in Table 3"
//! and serves them to other components (the paper exposes it over internal
//! DNS; here it is a thread-safe in-process store). A tenant's snapshot
//! carries the records in `smartpick-store`'s binary.
//!
//! The store is a ring of the last [`HISTORY_CAPACITY`] runs. Nothing on
//! the serving path reads a record back — training data lives in the
//! retrain monitor's pending batch and then in the forest — while every
//! snapshot carries the history and every rehydration reloads it, so an
//! append-only history made a tenant's disk and memory bill grow with
//! every report it had ever been sent.

use std::collections::VecDeque;

use parking_lot::RwLock;

use crate::features::QueryFeatures;

/// One completed run's record: features, outcome and the prediction made.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Query identifier (e.g. `tpcds-q11`).
    pub query_id: String,
    /// The Table 3 features of the run.
    pub features: QueryFeatures,
    /// Actual completion time, seconds.
    pub actual_seconds: f64,
    /// Predicted completion time, seconds (NaN-free; 0 when unpredicted).
    pub predicted_seconds: f64,
    /// Total cost in dollars.
    pub cost_dollars: f64,
}

/// Runs a [`HistoryServer`] keeps: the most recent this many. A constant,
/// not a setting — it bounds tenant state (snapshot bytes, rehydration
/// time, resident memory), which no deployment wants unbounded.
pub const HISTORY_CAPACITY: usize = 256;

/// Thread-safe store of the last [`HISTORY_CAPACITY`] run records.
///
/// # Example
///
/// ```
/// use smartpick_core::history::{HistoryServer, RunRecord};
/// use smartpick_core::features::QueryFeatures;
/// use smartpick_cloudsim::{CloudEnv, Provider};
/// use smartpick_engine::Allocation;
///
/// let history = HistoryServer::new();
/// let env = CloudEnv::new(Provider::Aws);
/// history.record(RunRecord {
///     query_id: "tpcds-q11".into(),
///     features: QueryFeatures::for_allocation(0.0, 100.0, &Allocation::new(2, 2), &env),
///     actual_seconds: 80.0,
///     predicted_seconds: 78.0,
///     cost_dollars: 0.04,
/// });
/// assert_eq!(history.len(), 1);
/// assert_eq!(history.for_query("tpcds-q11").len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct HistoryServer {
    records: RwLock<VecDeque<RunRecord>>,
}

impl HistoryServer {
    /// Creates an empty history.
    pub fn new() -> Self {
        HistoryServer::default()
    }

    /// Rebuilds a history from previously captured
    /// [`HistoryServer::snapshot`] records — the persistence restore path.
    /// Keeps the last [`HISTORY_CAPACITY`] of them.
    pub fn from_records(records: Vec<RunRecord>) -> Self {
        let mut records = VecDeque::from(records);
        records.drain(..records.len().saturating_sub(HISTORY_CAPACITY));
        HistoryServer {
            records: RwLock::new(records),
        }
    }

    /// Appends a record, dropping the oldest once [`HISTORY_CAPACITY`] are
    /// held.
    pub fn record(&self, record: RunRecord) {
        let mut records = self.records.write();
        if records.len() == HISTORY_CAPACITY {
            records.pop_front();
        }
        records.push_back(record);
    }

    /// Number of stored records (at most [`HISTORY_CAPACITY`]).
    pub fn len(&self) -> usize {
        self.records.read().len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.records.read().is_empty()
    }

    /// A snapshot of all stored records, oldest first.
    pub fn snapshot(&self) -> Vec<RunRecord> {
        self.records.read().iter().cloned().collect()
    }

    /// Records for one query id.
    pub fn for_query(&self, query_id: &str) -> Vec<RunRecord> {
        self.records
            .read()
            .iter()
            .filter(|r| r.query_id == query_id)
            .cloned()
            .collect()
    }

    /// The most recent `n` records (oldest first).
    pub fn recent(&self, n: usize) -> Vec<RunRecord> {
        let records = self.records.read();
        let start = records.len().saturating_sub(n);
        records.range(start..).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartpick_cloudsim::{CloudEnv, Provider};
    use smartpick_engine::Allocation;

    fn record(id: &str, actual: f64, predicted: f64) -> RunRecord {
        let env = CloudEnv::new(Provider::Aws);
        RunRecord {
            query_id: id.to_owned(),
            features: QueryFeatures::for_allocation(0.0, 100.0, &Allocation::new(1, 1), &env),
            actual_seconds: actual,
            predicted_seconds: predicted,
            cost_dollars: 0.01,
        }
    }

    #[test]
    fn stores_and_filters() {
        let h = HistoryServer::new();
        h.record(record("a", 10.0, 9.0));
        h.record(record("b", 20.0, 22.0));
        h.record(record("a", 11.0, 10.5));
        assert_eq!(h.len(), 3);
        assert_eq!(h.for_query("a").len(), 2);
        assert_eq!(h.recent(2).len(), 2);
        assert_eq!(h.recent(2)[0].query_id, "b");
    }

    #[test]
    fn keeps_the_last_capacity_records() {
        let h = HistoryServer::new();
        for i in 0..HISTORY_CAPACITY + 10 {
            h.record(record("q", i as f64, 0.0));
        }
        assert_eq!(h.len(), HISTORY_CAPACITY);
        let kept = h.snapshot();
        assert_eq!(kept[0].actual_seconds, 10.0);
        assert_eq!(h.recent(1)[0].actual_seconds, (HISTORY_CAPACITY + 9) as f64);
        // The restore path applies the same bound to what it is handed.
        let mut longer = kept.clone();
        longer.insert(0, record("q", -1.0, 0.0));
        assert_eq!(HistoryServer::from_records(longer).snapshot(), kept);
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let h = Arc::new(HistoryServer::new());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for j in 0..30 {
                        h.record(record(&format!("q{i}"), j as f64, j as f64));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.len(), 240);
    }
}
