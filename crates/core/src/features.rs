//! The workload-prediction feature schema (the paper's Table 3).
//!
//! | Feature | Comment |
//! |---|---|
//! | `instances` | number of VMs and SLs used (two columns here) |
//! | `input-size` | size of input in bytes |
//! | `start-time-epoch` | initial job submit time in epoch |
//! | `total-memory` | total memory of available workers |
//! | `available-memory` | available memory of available workers |
//! | `memory-per-executor` | memory assigned to each executor |
//! | `num-waiting-apps` | number of applications in wait state |
//! | `total-available-cores` | number of available cores |
//! | `query-duration` | completion time of a given query (the label) |
//!
//! One extra column, `query-code`, carries the (numeric) known-query
//! identifier: §4.2's Similarity Checker "reference identifier, along with
//! other inputs, is then used to deduce the request's resource-needs".

use serde::{Deserialize, Serialize};

use smartpick_cloudsim::CloudEnv;
use smartpick_engine::Allocation;

/// Number of feature columns (excluding the `query-duration` label).
pub const N_FEATURES: usize = 10;

/// Column index of the `query-code` feature in vector order.
pub const QUERY_CODE_COL: usize = 0;

/// Column index of the `input-size` feature in vector order.
pub const INPUT_BYTES_COL: usize = 3;

/// Feature column names in vector order.
pub const FEATURE_NAMES: [&str; N_FEATURES] = [
    "query-code",
    "n-vm",
    "n-sl",
    "input-size",
    "start-time-epoch",
    "total-memory",
    "available-memory",
    "memory-per-executor",
    "num-waiting-apps",
    "total-available-cores",
];

/// One Table 3 feature row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryFeatures {
    /// Numeric code of the (known or similarity-matched) query.
    pub query_code: f64,
    /// VMs in the configuration.
    pub n_vm: u32,
    /// SLs in the configuration.
    pub n_sl: u32,
    /// Input size in bytes.
    pub input_bytes: f64,
    /// Job submit time, seconds since epoch.
    pub start_epoch: f64,
    /// Total memory of available workers, MiB.
    pub total_memory_mib: f64,
    /// Memory currently available across workers, MiB.
    pub available_memory_mib: f64,
    /// Memory per executor, MiB.
    pub memory_per_executor_mib: f64,
    /// Applications in wait state.
    pub num_waiting_apps: f64,
    /// Total available cores.
    pub total_available_cores: f64,
}

/// Everything [`QueryFeatures::for_allocation`] reads of its
/// environment: the worker VM's memory and cores. Two environments with
/// equal shapes give equal feature rows for every allocation, so a cache
/// of rows (the predictor's candidate grids) keys on this; any field the
/// row comes to read must be read through here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct WorkerShape {
    memory_mib: u32,
    vcpus: u32,
}

impl WorkerShape {
    pub(crate) fn of(env: &CloudEnv) -> Self {
        let vm = env.catalog().worker_vm();
        WorkerShape {
            memory_mib: vm.memory_mib,
            vcpus: vm.vcpus,
        }
    }
}

impl QueryFeatures {
    /// Builds the deterministic parts of the feature row from an allocation
    /// and environment; context fields (epoch, waiting apps, available
    /// memory) start at idle defaults and can be overridden.
    pub fn for_allocation(
        query_code: f64,
        input_gb: f64,
        alloc: &Allocation,
        env: &CloudEnv,
    ) -> Self {
        let worker = WorkerShape::of(env);
        let worker_mem = worker.memory_mib as f64;
        let n = alloc.total_instances() as f64;
        let total_memory = n * worker_mem;
        let cores = alloc.total_instances() as f64 * worker.vcpus as f64;
        QueryFeatures {
            query_code,
            n_vm: alloc.n_vm,
            n_sl: alloc.n_sl,
            input_bytes: Self::input_gb_to_bytes(input_gb),
            start_epoch: 0.0,
            total_memory_mib: total_memory,
            available_memory_mib: total_memory,
            memory_per_executor_mib: worker_mem,
            num_waiting_apps: 0.0,
            total_available_cores: cores,
        }
    }

    /// Sets the submission epoch.
    pub fn with_start_epoch(mut self, epoch: f64) -> Self {
        self.start_epoch = epoch;
        self
    }

    /// Sets the cluster-contention context (waiting apps and the fraction
    /// of worker memory still available).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= available_frac <= 1.0`.
    pub fn with_contention(mut self, waiting_apps: u32, available_frac: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&available_frac),
            "available_frac must be a fraction"
        );
        self.num_waiting_apps = waiting_apps as f64;
        self.available_memory_mib = self.total_memory_mib * available_frac;
        self
    }

    /// The `input-size` feature's byte value for an input size in GB —
    /// the one conversion every feature builder (scalar and batched)
    /// must share so rows stay bit-identical across paths.
    pub fn input_gb_to_bytes(input_gb: f64) -> f64 {
        input_gb * 1024.0 * 1024.0 * 1024.0
    }

    /// The row as a fixed-size array in [`FEATURE_NAMES`] order — the
    /// allocation-free form the prediction hot path consumes.
    pub fn to_array(&self) -> [f64; N_FEATURES] {
        [
            self.query_code,
            self.n_vm as f64,
            self.n_sl as f64,
            self.input_bytes,
            self.start_epoch,
            self.total_memory_mib,
            self.available_memory_mib,
            self.memory_per_executor_mib,
            self.num_waiting_apps,
            self.total_available_cores,
        ]
    }

    /// Writes the row into a caller-provided `N_FEATURES`-wide slice (one
    /// row of a batched candidate matrix), allocating nothing.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly `N_FEATURES` wide.
    pub fn write_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), N_FEATURES, "row width mismatch");
        out.copy_from_slice(&self.to_array());
    }

    /// The row as an ML feature vector, in [`FEATURE_NAMES`] order.
    pub fn to_vec(&self) -> Vec<f64> {
        self.to_array().to_vec()
    }

    /// Feature names as owned strings (dataset column headers).
    pub fn names() -> Vec<String> {
        FEATURE_NAMES.iter().map(|s| (*s).to_owned()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartpick_cloudsim::Provider;

    #[test]
    fn vector_matches_schema_width() {
        let env = CloudEnv::new(Provider::Aws);
        let f = QueryFeatures::for_allocation(1.0, 100.0, &Allocation::new(3, 2), &env);
        let v = f.to_vec();
        assert_eq!(v.len(), N_FEATURES);
        assert_eq!(v.len(), QueryFeatures::names().len());
        assert_eq!(v[1], 3.0);
        assert_eq!(v[2], 2.0);
    }

    #[test]
    fn memory_and_cores_derive_from_allocation() {
        let env = CloudEnv::new(Provider::Aws);
        let f = QueryFeatures::for_allocation(0.0, 100.0, &Allocation::new(4, 6), &env);
        assert_eq!(f.total_memory_mib, 10.0 * 2048.0);
        assert_eq!(f.total_available_cores, 20.0);
        assert_eq!(f.memory_per_executor_mib, 2048.0);
    }

    #[test]
    fn contention_scales_available_memory() {
        let env = CloudEnv::new(Provider::Aws);
        let f = QueryFeatures::for_allocation(0.0, 100.0, &Allocation::new(2, 0), &env)
            .with_contention(3, 0.5);
        assert_eq!(f.num_waiting_apps, 3.0);
        assert_eq!(f.available_memory_mib, f.total_memory_mib / 2.0);
    }

    #[test]
    #[should_panic]
    fn bad_fraction_panics() {
        let env = CloudEnv::new(Provider::Aws);
        let _ = QueryFeatures::for_allocation(0.0, 1.0, &Allocation::new(1, 0), &env)
            .with_contention(0, 1.5);
    }

    #[test]
    fn array_vec_and_write_into_agree() {
        let env = CloudEnv::new(Provider::Aws);
        let f = QueryFeatures::for_allocation(4.0, 250.0, &Allocation::new(3, 5), &env)
            .with_start_epoch(123.0)
            .with_contention(2, 0.75);
        let arr = f.to_array();
        assert_eq!(arr.to_vec(), f.to_vec());
        let mut row = [0.0; N_FEATURES];
        f.write_into(&mut row);
        assert_eq!(row, arr);
        assert_eq!(arr[QUERY_CODE_COL], 4.0);
        assert_eq!(
            arr[INPUT_BYTES_COL],
            QueryFeatures::input_gb_to_bytes(250.0)
        );
        assert_eq!(FEATURE_NAMES[QUERY_CODE_COL], "query-code");
        assert_eq!(FEATURE_NAMES[INPUT_BYTES_COL], "input-size");
    }

    #[test]
    fn serde_round_trip() {
        let env = CloudEnv::new(Provider::Aws);
        let f = QueryFeatures::for_allocation(2.0, 100.0, &Allocation::new(1, 1), &env);
        let json = serde_json::to_string(&f).unwrap();
        let back: QueryFeatures = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
    }
}
