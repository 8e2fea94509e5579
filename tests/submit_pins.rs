//! The two submit paths run a query on the simulator and return the same
//! reports, bit for bit, for the same seeds: `Smartpick::submit` draws its
//! run seed from the driver's RNG and runs in the predictor's
//! environment; `SmartpickService::submit` mixes the caller's seed and
//! runs in the environment of the snapshot it determined against. The
//! constants were captured when each tenant still carried a Resource
//! Manager object around the same simulator call.

use smartpick::cloudsim::{CloudEnv, Provider};
use smartpick::core::driver::Smartpick;
use smartpick::core::properties::SmartpickProperties;
use smartpick::core::training::TrainOptions;
use smartpick::engine::{Allocation, RunReport};
use smartpick::ml::forest::ForestParams;
use smartpick::service::SmartpickService;
use smartpick::workloads::tpcds;

fn template() -> Smartpick {
    let training: Vec<_> = [82u32, 68]
        .iter()
        .map(|&q| tpcds::query(q, 100.0).unwrap())
        .collect();
    let opts = TrainOptions {
        configs_per_query: 6,
        burst_factor: 3,
        forest: ForestParams {
            n_trees: 10,
            ..ForestParams::default()
        },
        max_vm: 6,
        max_sl: 6,
        ..TrainOptions::default()
    };
    Smartpick::train_with_options(
        CloudEnv::new(Provider::Aws),
        SmartpickProperties::default(),
        &training,
        &opts,
        7,
    )
    .unwrap()
    .0
}

/// (allocation, completion seconds bits, total dollars bits).
fn pin(report: &RunReport) -> (Allocation, u64, u64) {
    (
        report.allocation,
        report.seconds().to_bits(),
        report.total_cost().dollars().to_bits(),
    )
}

#[test]
fn a_fork_submits_the_pinned_runs() {
    let q82 = tpcds::query(82, 100.0).unwrap();
    let mut fork = template().fork(11);
    let first = fork.submit(&q82).unwrap();
    let second = fork.submit(&q82).unwrap();
    assert_eq!(
        pin(&first.report),
        (
            Allocation::new(6, 3),
            0x4047_da5e_353f_7cee,
            0x3f85_3c7c_4884_b754
        )
    );
    assert_eq!(
        pin(&second.report),
        (
            Allocation::new(6, 3),
            0x4048_2a5e_353f_7cee,
            0x3f85_df51_ea58_79f0
        )
    );
}

#[test]
fn the_service_submits_the_pinned_run() {
    let q82 = tpcds::query(82, 100.0).unwrap();
    let service = SmartpickService::with_defaults();
    service.register_fork("t", &template(), 3).unwrap();
    let outcome = service.submit("t", &q82, 5).unwrap();
    assert_eq!(
        pin(&outcome.report),
        (
            Allocation::new(6, 3),
            0x4047_51ca_c083_126f,
            0x3f85_32e6_7093_2cda
        )
    );
}
