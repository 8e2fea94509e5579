//! Pinned-seed golden for the trees the stack grows: the template recipe
//! (`RandomForest::fit` inside `train_predictor`) and one batch retrain on
//! it (`RandomForest::warm_start_extend` on 100 pending × burst 10). The
//! fingerprints were captured at the commit before the presorted CART
//! builder replaced the per-node sorting one, so they hold every
//! threshold, leaf value, importance, node number and bootstrap draw of
//! that builder: a change to tree growth that moves one bit of one tree
//! fails here before it shifts a recorded accuracy figure or the
//! benchmark's oracle.

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::features::QueryFeatures;
use smartpick_core::retrain::{RetrainMonitor, RetrainTrigger};
use smartpick_core::training::{train_predictor, TrainOptions};
use smartpick_core::SmartpickProperties;
use smartpick_engine::Allocation;
use smartpick_ml::forest::{ForestParams, RandomForest};
use smartpick_workloads::tpcds;

/// FNV-1a over every tree's flat arrays and importances, in forest order.
fn fingerprint(forest: &RandomForest) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for tree in forest.trees() {
        let (feature, threshold, children) = tree.flat_parts();
        eat(feature.len() as u64);
        feature.iter().for_each(|&f| eat(u64::from(f)));
        threshold.iter().for_each(|t| eat(t.to_bits()));
        children.iter().for_each(|&c| eat(u64::from(c)));
        tree.importance().iter().for_each(|g| eat(g.to_bits()));
    }
    h
}

#[test]
fn template_fit_and_batch_retrain_grow_the_recorded_trees() {
    // The recipe behind `BENCH_determine.json` and the benchmark's 8×8 /
    // 10-tree workloads.
    let env = CloudEnv::new(Provider::Aws);
    let queries: Vec<_> = [82u32, 68]
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
        max_vm: 8,
        max_sl: 8,
        ..TrainOptions::default()
    };
    let (mut predictor, _) = train_predictor(&env, &queries, &opts, 42).unwrap();
    assert_eq!(predictor.forest().n_trees(), 10);
    assert_eq!(fingerprint(predictor.forest()), FIT, "RandomForest::fit");

    // A full batch of observations: both query codes, every allocation
    // shape, tied and distinct epochs, targets with a trend and a wobble.
    let mut monitor = RetrainMonitor::new(SmartpickProperties {
        error_difference_trigger_secs: f64::INFINITY,
        ..SmartpickProperties::default()
    });
    let mut trigger = None;
    for i in 0..100u32 {
        let alloc = Allocation::new(i % 9, (i / 9) % 9);
        let features = QueryFeatures::for_allocation(f64::from(i % 2), 100.0, &alloc, &env)
            .with_start_epoch(f64::from(i / 4) * 900.0)
            .with_contention(i % 3, 1.0 - f64::from(i % 5) * 0.1);
        let seconds = 400.0 / f64::from(1 + alloc.n_vm + 2 * alloc.n_sl) + f64::from(i % 7);
        trigger = monitor.observe(&features, seconds, seconds);
    }
    assert_eq!(trigger, Some(RetrainTrigger::BatchFull));
    let report = monitor
        .retrain(&mut predictor, RetrainTrigger::BatchFull, 77)
        .unwrap();
    assert_eq!((report.samples_used, report.trees_added), (1000, 10));
    assert_eq!(
        fingerprint(predictor.forest()),
        RETRAINED,
        "RandomForest::warm_start_extend"
    );
}

const FIT: u64 = 0x43F0_5806_E27C_9839;
const RETRAINED: u64 = 0xA98B_CED3_3640_D885;
