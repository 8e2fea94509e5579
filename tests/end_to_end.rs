//! Cross-crate integration tests: the full Figure 3 workflow on both
//! providers, exercising training, similarity matching, execution,
//! history, retraining and cost accounting together.

use smartpick::cloudsim::{CloudEnv, Provider};
use smartpick::core::driver::Smartpick;
use smartpick::core::properties::SmartpickProperties;
use smartpick::core::training::TrainOptions;
use smartpick::ml::forest::ForestParams;
use smartpick::workloads::{tpcds, tpch, wordcount};

fn quick_opts() -> TrainOptions {
    TrainOptions {
        configs_per_query: 8,
        burst_factor: 4,
        forest: ForestParams {
            n_trees: 30,
            ..ForestParams::default()
        },
        max_vm: 8,
        max_sl: 8,
        ..TrainOptions::default()
    }
}

fn system(provider: Provider, trigger: f64) -> Smartpick {
    let props = SmartpickProperties {
        provider,
        error_difference_trigger_secs: trigger,
        ..SmartpickProperties::default()
    };
    let env = CloudEnv::new(provider);
    let training: Vec<_> = tpcds::TRAINING_QUERIES
        .iter()
        .map(|&q| tpcds::query(q, 100.0).unwrap())
        .collect();
    Smartpick::train_with_options(env, props, &training, &quick_opts(), 42)
        .expect("training succeeds")
        .0
}

#[test]
fn known_queries_flow_end_to_end_on_both_providers() {
    for provider in Provider::ALL {
        let mut sp = system(provider, 1e9);
        for qnum in [82u32, 11] {
            let q = tpcds::query(qnum, 100.0).unwrap();
            let outcome = sp.submit(&q).expect("submit succeeds");
            assert!(outcome.determination.known_query, "{provider}: q{qnum}");
            assert!(outcome.report.seconds() > 0.0);
            assert!(outcome.report.total_cost().dollars() > 0.0);
            assert!(outcome.determination.allocation.is_viable());
        }
        assert_eq!(sp.history().len(), 2);
    }
}

#[test]
fn alien_queries_are_similarity_matched_to_catalog_counterparts() {
    let mut sp = system(Provider::Aws, 1e9);
    for (alien, expect) in [(4u32, "tpcds-q11"), (62, "tpcds-q68"), (55, "tpcds-q82")] {
        let q = tpcds::query(alien, 100.0).unwrap();
        let outcome = sp.submit(&q).expect("submit succeeds");
        assert!(!outcome.determination.known_query);
        assert_eq!(outcome.determination.matched_query, expect, "q{alien}");
        assert!(outcome.determination.match_similarity > 0.9);
    }
}

#[test]
fn new_workload_triggers_retrain_and_converges() {
    let mut sp = system(Provider::Aws, 10.0);
    let wc = wordcount::query(100.0);

    let first = sp.submit(&wc).expect("submit succeeds");
    assert!(!first.determination.known_query, "WC starts alien");
    // WC behaves nothing like TPC-DS: expect a big error and a retrain.
    assert!(
        first.retrain.is_some(),
        "error {}",
        first.prediction_error()
    );

    // After retraining WC is a first-class known query.
    let mut last_error = f64::INFINITY;
    for _ in 0..3 {
        let outcome = sp.submit(&wc).expect("submit succeeds");
        assert!(
            outcome.determination.known_query,
            "WC is known after retrain"
        );
        last_error = outcome.prediction_error();
    }
    assert!(
        last_error < first.prediction_error(),
        "errors should shrink: first {} last {last_error}",
        first.prediction_error()
    );
}

#[test]
fn data_growth_is_handled_by_retraining() {
    let mut sp = system(Provider::Aws, 10.0);
    let small = tpch::query(3, 100.0).unwrap();
    // 10x data growth: a 5x spike lands within a few seconds of the 10 s
    // trigger and flips with the RNG stream; 10x clears it decisively.
    let large = tpch::query(3, 1000.0).unwrap();

    for _ in 0..3 {
        sp.submit(&small).expect("submit succeeds");
    }
    let spike = sp.submit(&large).expect("submit succeeds");
    let spike_error = spike.prediction_error();
    assert!(
        spike.retrain.is_some(),
        "size change should trigger retraining (error {spike_error})"
    );
    let mut final_error = f64::INFINITY;
    for _ in 0..4 {
        let o = sp.submit(&large).expect("submit succeeds");
        final_error = o.prediction_error();
    }
    assert!(
        final_error < spike_error * 0.6,
        "prediction should converge: spike {spike_error}, final {final_error}"
    );
}
