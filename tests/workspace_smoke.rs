//! Workspace smoke test: the minimal Smartpick round-trip — train on a
//! few TPC-DS queries, predict a configuration, and plan/execute it —
//! must run without panicking. This is the cheapest cross-crate guard
//! that the whole dependency graph (`cloudsim` → `engine`/`ml`/`sqlmeta`/
//! `workloads` → `core`) stays wired together.

use smartpick::cloudsim::{CloudEnv, Provider};
use smartpick::core::driver::Smartpick;
use smartpick::core::properties::SmartpickProperties;
use smartpick::core::training::TrainOptions;
use smartpick::core::wp::{ConstraintMode, PredictionRequest, WorkloadPredictionService};
use smartpick::ml::forest::ForestParams;
use smartpick::workloads::tpcds;

#[test]
fn train_predict_plan_round_trip() {
    let env = CloudEnv::new(Provider::Aws);
    let training: Vec<_> = tpcds::TRAINING_QUERIES
        .iter()
        .take(3)
        .map(|&q| tpcds::query(q, 100.0).expect("catalog query"))
        .collect();
    let opts = TrainOptions {
        configs_per_query: 5,
        burst_factor: 3,
        forest: ForestParams {
            n_trees: 15,
            ..ForestParams::default()
        },
        max_vm: 4,
        max_sl: 4,
        ..TrainOptions::default()
    };
    let (mut system, report) =
        Smartpick::train_with_options(env, SmartpickProperties::default(), &training, &opts, 7)
            .expect("training succeeds");
    assert!(report.n_train > 0, "training produced samples");

    // Predict: a standalone determination for a known query.
    let query = tpcds::query(tpcds::TRAINING_QUERIES[0], 100.0).expect("catalog query");
    let determination = system
        .predictor()
        .determine(&PredictionRequest {
            query: query.clone(),
            knob: 0.0,
            constraint: ConstraintMode::Hybrid,
            seed: 11,
        })
        .expect("determination succeeds");
    assert!(determination.known_query);
    assert!(determination.predicted_seconds.is_finite());
    assert!(determination.allocation.total_instances() > 0);
    assert!(!determination.et_list.is_empty(), "ET_l collects probes");

    // Plan + execute: the full submit path ends with a priced report.
    let outcome = system.submit(&query).expect("submit succeeds");
    assert!(outcome.report.seconds() > 0.0);
    assert!(outcome.report.total_cost().dollars() > 0.0);
    assert_eq!(system.history().len(), 1);

    // Service: the same driver served multi-tenant through smartpickd.
    let service = smartpick::service::SmartpickService::with_defaults();
    service
        .register_tenant("smoke", system)
        .expect("tenant registers");
    let outcome = service
        .submit("smoke", &query, 13)
        .expect("service submit succeeds");
    assert!(outcome.report.seconds() > 0.0);
    assert!(service.flush(), "worker applies the report");
    let scrape = service.scrape(0);
    assert_eq!(scrape.counter("service.reports_applied"), 1);
}
