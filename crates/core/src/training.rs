//! Initial prediction-model training (§5 "Training prediction model",
//! §6.1 "Building Prediction Models").
//!
//! The recipe, verbatim from the paper: run 20 randomly selected `{VM, SL}`
//! configurations for each of the 5 representational TPC-DS queries;
//! apply the ±5% data-burst heuristic to inflate the samples ~10×
//! (→ 1000 samples); shuffle; split 80:20; fit the Random Forest; and
//! measure RMSE, the regression standard error, and the "within 2×
//! standard error" accuracy on the held-out set (§6.2, Figure 4).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smartpick_cloudsim::CloudEnv;
use smartpick_engine::{simulate_query, Allocation, QueryProfile, RelayPolicy, RunReport};
use smartpick_ml::dataset::Dataset;
use smartpick_ml::forest::{ForestParams, RandomForest};
use smartpick_ml::metrics;

use crate::error::SmartpickError;
use crate::features::QueryFeatures;
use crate::similarity::SimilarityChecker;
use crate::wp::{approximate_workload, KnownQuery, WorkloadPredictor};

/// Options for the initial training pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOptions {
    /// Random configurations per query (paper: 20).
    pub configs_per_query: usize,
    /// Data-burst multiplier (paper: ~10×).
    pub burst_factor: usize,
    /// Data-burst jitter (paper: ±5%).
    pub burst_jitter: f64,
    /// Training fraction of the hold-out split (paper: 0.8).
    pub train_frac: f64,
    /// Forest hyperparameters.
    pub forest: ForestParams,
    /// Search-space bound for the predictor, VMs.
    pub max_vm: u32,
    /// Search-space bound for the predictor, SLs.
    pub max_sl: u32,
    /// Minimum total instances per configuration, for both the training
    /// runs and the prediction-time search space: training on starving
    /// one-worker clusters would dominate the error budget with
    /// many-minute runs no deployment would choose.
    pub min_total: u32,
    /// Train the relay-aware model (Smartpick-r) instead of plain
    /// Smartpick.
    pub relay: bool,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            configs_per_query: 20,
            burst_factor: 10,
            burst_jitter: 0.05,
            train_frac: 0.8,
            forest: ForestParams::default(),
            max_vm: 10,
            max_sl: 10,
            min_total: 4,
            relay: false,
        }
    }
}

/// Quality report of a trained model (the data behind Figure 4).
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Root-mean-squared error on the held-out set, seconds.
    pub rmse: f64,
    /// Regression standard error, seconds.
    pub stderr: f64,
    /// The paper's headline accuracy: % of test samples whose prediction
    /// lies within the ±10 s yardstick of §6.2 ("98.5% of the predicted
    /// samples lie within 10 seconds difference"), which the paper
    /// justifies as roughly 2× the standard error of its best model.
    pub accuracy_pct: f64,
    /// Accuracy under the self-normalising 2×-own-stderr criterion.
    pub accuracy_2stderr_pct: f64,
    /// Held-out truths (for histograms / scatter plots).
    pub test_truth: Vec<f64>,
    /// Held-out predictions.
    pub test_pred: Vec<f64>,
    /// Training-set size after the burst.
    pub n_train: usize,
    /// Test-set size.
    pub n_test: usize,
}

/// Builds the raw (pre-burst) dataset by running random configurations of
/// every query, tagging each sample with its query code and a randomised
/// submission context.
///
/// # Errors
///
/// Propagates engine failures; returns [`SmartpickError::NoTrainingData`]
/// when `queries` is empty.
pub fn build_raw_dataset(
    env: &CloudEnv,
    queries: &[QueryProfile],
    options: &TrainOptions,
    seed: u64,
) -> Result<Dataset, SmartpickError> {
    if queries.is_empty() {
        return Err(SmartpickError::NoTrainingData);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new(QueryFeatures::names());
    for (code, query) in queries.iter().enumerate() {
        for (allocation, report) in run_random_configs(query, env, options, rng.gen())? {
            let features =
                QueryFeatures::for_allocation(code as f64, query.input_gb, &allocation, env)
                    .with_start_epoch(rng.gen_range(0.0..86_400.0))
                    .with_contention(rng.gen_range(0..4), rng.gen_range(0.6..1.0));
            data.push(features.to_vec(), report.seconds());
        }
    }
    Ok(data)
}

/// Runs `options.configs_per_query` random `{nVM, nSL}` configurations
/// of `query` on the simulator (§6.1: "we run 20 randomly selected
/// configurations of VMs and SLs for each of the 5 TPC-DS queries").
///
/// Every configuration requests at least `options.min_total` instances
/// (and at least one); the relay policy applies only when both kinds are
/// present.
fn run_random_configs(
    query: &QueryProfile,
    env: &CloudEnv,
    options: &TrainOptions,
    seed: u64,
) -> Result<Vec<(Allocation, RunReport)>, SmartpickError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let floor = options.min_total.max(1);
    (0..options.configs_per_query)
        .map(|i| {
            let (n_vm, n_sl) = loop {
                let n_vm = rng.gen_range(0..=options.max_vm);
                let n_sl = rng.gen_range(0..=options.max_sl);
                if n_vm + n_sl >= floor {
                    break (n_vm, n_sl);
                }
            };
            let relay = if options.relay && n_vm > 0 && n_sl > 0 {
                RelayPolicy::Relay
            } else {
                RelayPolicy::None
            };
            let alloc = Allocation::new(n_vm, n_sl).with_relay(relay);
            let run_seed = rng.gen::<u64>() ^ i as u64;
            let report = simulate_query(query, &alloc, env, run_seed)?;
            Ok((alloc, report))
        })
        .collect()
}

/// Runs the full §5 training pipeline and assembles a ready
/// [`WorkloadPredictor`] plus its quality report.
///
/// # Errors
///
/// Propagates engine and model-fitting failures.
pub fn train_predictor(
    env: &CloudEnv,
    queries: &[QueryProfile],
    options: &TrainOptions,
    seed: u64,
) -> Result<(WorkloadPredictor, TrainReport), SmartpickError> {
    let raw = build_raw_dataset(env, queries, options, seed)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB0B5);
    let burst = raw.burst(options.burst_factor, options.burst_jitter, &mut rng);
    let (train, test) = burst.split(options.train_frac, &mut rng);

    let forest = RandomForest::fit(&train, &options.forest, seed ^ 0xF0F0)?;

    let test_truth: Vec<f64> = test.targets().to_vec();
    let test_pred: Vec<f64> = forest.predict_batch(test.features());
    let report = TrainReport {
        rmse: metrics::rmse(&test_truth, &test_pred),
        stderr: metrics::regression_std_error(&test_truth, &test_pred),
        accuracy_pct: metrics::accuracy_within(&test_truth, &test_pred, 10.0) * 100.0,
        accuracy_2stderr_pct: metrics::paper_accuracy_percent(&test_truth, &test_pred),
        n_train: train.len(),
        n_test: test.len(),
        test_truth,
        test_pred,
    };

    let mut sc = SimilarityChecker::new();
    let mut known = Vec::with_capacity(queries.len());
    for (code, query) in queries.iter().enumerate() {
        sc.register(query);
        known.push(KnownQuery {
            id: query.id.clone(),
            code: code as f64,
            input_gb: query.input_gb,
            workload: approximate_workload(query, env),
        });
    }
    let predictor = WorkloadPredictor::assemble(
        env.clone(),
        forest,
        known,
        sc,
        options.relay,
        report.stderr,
        options.max_vm,
        options.max_sl,
        options.min_total,
    )?;
    Ok((predictor, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wp::{ConstraintMode, PredictionRequest, WorkloadPredictionService};
    use smartpick_cloudsim::Provider;
    use smartpick_workloads::tpcds;

    fn quick_options() -> TrainOptions {
        TrainOptions {
            configs_per_query: 8,
            burst_factor: 4,
            forest: ForestParams {
                n_trees: 30,
                ..ForestParams::default()
            },
            max_vm: 6,
            max_sl: 6,
            ..TrainOptions::default()
        }
    }

    fn training_queries() -> Vec<QueryProfile> {
        [82u32, 68]
            .iter()
            .map(|&q| tpcds::query(q, 100.0).unwrap())
            .collect()
    }

    #[test]
    fn produces_requested_number_of_samples() {
        let env = CloudEnv::new(Provider::Aws);
        let q = tpcds::query(82, 100.0).unwrap();
        let opts = TrainOptions {
            configs_per_query: 6,
            ..TrainOptions::default()
        };
        let runs = run_random_configs(&q, &env, &opts, 42).unwrap();
        assert_eq!(runs.len(), 6);
        for (allocation, report) in &runs {
            assert!(allocation.is_viable());
            assert!(allocation.total_instances() >= opts.min_total);
            assert!(report.seconds() > 0.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let env = CloudEnv::new(Provider::Aws);
        let q = tpcds::query(82, 100.0).unwrap();
        let opts = TrainOptions {
            configs_per_query: 4,
            ..TrainOptions::default()
        };
        let a = run_random_configs(&q, &env, &opts, 7).unwrap();
        let b = run_random_configs(&q, &env, &opts, 7).unwrap();
        assert_eq!(a.len(), b.len());
        for ((alloc_a, report_a), (alloc_b, report_b)) in a.iter().zip(&b) {
            assert_eq!(alloc_a, alloc_b);
            assert_eq!(report_a.completion, report_b.completion);
        }
    }

    #[test]
    fn relay_only_applied_to_hybrid_configs() {
        let env = CloudEnv::new(Provider::Aws);
        let q = tpcds::query(82, 100.0).unwrap();
        let opts = TrainOptions {
            configs_per_query: 12,
            relay: true,
            ..TrainOptions::default()
        };
        for (allocation, _) in run_random_configs(&q, &env, &opts, 3).unwrap() {
            let expect = if allocation.n_vm == 0 || allocation.n_sl == 0 {
                RelayPolicy::None
            } else {
                RelayPolicy::Relay
            };
            assert_eq!(allocation.relay, expect, "{allocation}");
        }
    }

    #[test]
    fn dataset_has_paper_shape() {
        let env = CloudEnv::new(Provider::Aws);
        let opts = quick_options();
        let raw = build_raw_dataset(&env, &training_queries(), &opts, 1).unwrap();
        assert_eq!(raw.len(), 2 * 8);
        assert_eq!(raw.n_features(), crate::features::N_FEATURES);
    }

    #[test]
    fn trained_predictor_is_reasonably_accurate() {
        let env = CloudEnv::new(Provider::Aws);
        let (predictor, report) =
            train_predictor(&env, &training_queries(), &quick_options(), 2).unwrap();
        // The quick test model is deliberately under-trained, so judge it
        // by the self-normalising criterion; the 10 s yardstick is for the
        // full recipe (see the fig4 harness).
        assert!(
            report.accuracy_2stderr_pct > 85.0,
            "accuracy {}",
            report.accuracy_2stderr_pct
        );
        assert!(report.rmse < 30.0, "rmse {}", report.rmse);
        assert_eq!(predictor.known_queries().len(), 2);
        assert_eq!(report.n_train + report.n_test, 2 * 8 * 4);
    }

    #[test]
    fn determinations_prefer_hybrid_for_best_performance() {
        let env = CloudEnv::new(Provider::Aws);
        let (predictor, _) =
            train_predictor(&env, &training_queries(), &quick_options(), 3).unwrap();
        let req = PredictionRequest::new(tpcds::query(68, 100.0).unwrap(), 11);
        let det = predictor.determine(&req).unwrap();
        assert!(det.known_query);
        assert!(det.allocation.is_viable());
        assert!(det.predicted_seconds > 0.0);
        assert!(!det.et_list.is_empty());
        // Best-performance configurations use serverless to cover the
        // cold-boot window.
        assert!(det.allocation.n_sl > 0, "got {}", det.allocation);
    }

    #[test]
    fn constraint_modes_restrict_search() {
        let env = CloudEnv::new(Provider::Aws);
        let (predictor, _) =
            train_predictor(&env, &training_queries(), &quick_options(), 4).unwrap();
        let q = tpcds::query(82, 100.0).unwrap();
        for (mode, check) in [
            (
                ConstraintMode::VmOnly,
                Box::new(|a: &smartpick_engine::Allocation| a.n_sl == 0)
                    as Box<dyn Fn(&smartpick_engine::Allocation) -> bool>,
            ),
            (ConstraintMode::SlOnly, Box::new(|a| a.n_vm == 0)),
            (ConstraintMode::EqualSlVm, Box::new(|a| a.n_vm == a.n_sl)),
        ] {
            let det = predictor
                .determine(&PredictionRequest {
                    query: q.clone(),
                    knob: 0.0,
                    constraint: mode,
                    seed: 5,
                })
                .unwrap();
            assert!(check(&det.allocation), "{mode:?} gave {}", det.allocation);
        }
    }

    #[test]
    fn alien_query_is_similarity_matched() {
        let env = CloudEnv::new(Provider::Aws);
        let (predictor, _) =
            train_predictor(&env, &training_queries(), &quick_options(), 6).unwrap();
        // q62 is the catalog's alien counterpart of q68.
        let det = predictor
            .determine(&PredictionRequest::new(tpcds::query(62, 100.0).unwrap(), 8))
            .unwrap();
        assert!(!det.known_query);
        assert_eq!(det.matched_query, "tpcds-q68");
        assert!(det.match_similarity > 0.95);
    }

    #[test]
    fn knob_reduces_cost_within_latency_bound() {
        let env = CloudEnv::new(Provider::Aws);
        let (predictor, _) =
            train_predictor(&env, &training_queries(), &quick_options(), 7).unwrap();
        let q = tpcds::query(68, 100.0).unwrap();
        let base = predictor
            .determine(&PredictionRequest::new(q.clone(), 21))
            .unwrap();
        let knobbed = predictor
            .determine(&PredictionRequest {
                query: q,
                knob: 0.5,
                constraint: ConstraintMode::Hybrid,
                seed: 21,
            })
            .unwrap();
        assert!(
            knobbed.predicted_cost <= base.predicted_cost,
            "knob cost {} vs base {}",
            knobbed.predicted_cost,
            base.predicted_cost
        );
        assert!(knobbed.predicted_seconds <= base.predicted_seconds * 1.5 + 1e-9);
    }

    #[test]
    fn empty_training_set_rejected() {
        let env = CloudEnv::new(Provider::Aws);
        assert!(matches!(
            train_predictor(&env, &[], &quick_options(), 0),
            Err(SmartpickError::NoTrainingData)
        ));
    }
}
