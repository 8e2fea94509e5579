//! Round-trip tests for the serde pass on the public config and answer
//! types a multi-threaded service hands across threads (and, in the
//! paper's deployment, across the Thrift RPC boundary):
//! `SmartpickProperties` and `Determination`.

use serde::{Deserialize, Serialize};
use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::driver::{QueryOutcome, Smartpick};
use smartpick_core::properties::SmartpickProperties;
use smartpick_core::training::TrainOptions;
use smartpick_core::wp::Determination;
use smartpick_ml::forest::ForestParams;
use smartpick_workloads::tpcds;

fn round_trip<T: Serialize + Deserialize>(value: &T) -> T {
    let json = serde_json::to_string(value).expect("serialises");
    serde_json::from_str(&json).expect("deserialises")
}

fn outcome() -> QueryOutcome {
    let env = CloudEnv::new(Provider::Aws);
    let queries: Vec<_> = [82u32, 68]
        .iter()
        .map(|&q| tpcds::query(q, 100.0).unwrap())
        .collect();
    let opts = TrainOptions {
        configs_per_query: 6,
        burst_factor: 3,
        forest: ForestParams {
            n_trees: 20,
            ..ForestParams::default()
        },
        max_vm: 5,
        max_sl: 5,
        ..TrainOptions::default()
    };
    let mut sp =
        Smartpick::train_with_options(env, SmartpickProperties::default(), &queries, &opts, 5)
            .unwrap()
            .0;
    sp.submit(&tpcds::query(82, 100.0).unwrap()).unwrap()
}

#[test]
fn properties_round_trip() {
    let props = SmartpickProperties {
        provider: Provider::Gcp,
        instance_family: "e2".to_owned(),
        relay: false,
        knob: 0.7,
        max_batch: 13,
        same_instance_retrain: true,
        min_ram_gb: 8,
        error_difference_trigger_secs: 42.5,
    };
    assert_eq!(round_trip(&props), props);
}

#[test]
fn determination_round_trip() {
    let outcome = outcome();
    let det: Determination = round_trip(&outcome.determination);
    assert_eq!(det.allocation, outcome.determination.allocation);
    assert_eq!(
        det.predicted_seconds,
        outcome.determination.predicted_seconds
    );
    assert_eq!(det.predicted_cost, outcome.determination.predicted_cost);
    assert_eq!(det.et_list, outcome.determination.et_list);
    assert_eq!(det.evaluations, outcome.determination.evaluations);
    assert_eq!(det.known_query, outcome.determination.known_query);
    assert_eq!(det.matched_query, outcome.determination.matched_query);
    assert_eq!(det.match_similarity, outcome.determination.match_similarity);
}
