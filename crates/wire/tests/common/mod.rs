//! Fixtures shared by the wire integration tests: one small trained
//! template driver and a loopback server built on it. Not every test
//! file uses every helper.
#![allow(dead_code)]

use std::sync::Arc;

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::driver::Smartpick;
use smartpick_core::properties::SmartpickProperties;
use smartpick_core::training::TrainOptions;
use smartpick_core::wp::Determination;
use smartpick_ml::forest::ForestParams;
use smartpick_service::{ServiceConfig, SmartpickService};
use smartpick_wire::{WireServer, WireServerConfig};
use smartpick_workloads::tpcds;

/// Deterministic small driver trained on TPC-DS queries 82 and 68 with
/// an `n_trees`-tree forest.
pub fn template_with(n_trees: usize) -> Smartpick {
    let queries: Vec<_> = [82u32, 68]
        .iter()
        .map(|&q| tpcds::query(q, 100.0).unwrap())
        .collect();
    let opts = TrainOptions {
        configs_per_query: 5,
        burst_factor: 3,
        forest: ForestParams {
            n_trees,
            ..ForestParams::default()
        },
        max_vm: 3,
        max_sl: 3,
        ..TrainOptions::default()
    };
    Smartpick::train_with_options(
        CloudEnv::new(Provider::Aws),
        SmartpickProperties::default(),
        &queries,
        &opts,
        11,
    )
    .unwrap()
    .0
}

pub fn template() -> Smartpick {
    template_with(10)
}

/// A server on an ephemeral loopback port over a fresh two-worker
/// service, registering tenants as forks of `template`.
pub fn server_on(config: WireServerConfig, template: Smartpick) -> WireServer {
    let service = Arc::new(SmartpickService::new(ServiceConfig {
        retrain_workers: 2,
        ..ServiceConfig::default()
    }));
    WireServer::bind("127.0.0.1:0", service, template, config).expect("bind ephemeral port")
}

pub fn server_with(config: WireServerConfig) -> WireServer {
    server_on(config, template())
}

/// Bit-faithful rendering of a determination for equality checks.
pub fn det_json(d: &Determination) -> String {
    serde_json::to_string(d).unwrap()
}
