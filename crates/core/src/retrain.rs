//! Event-driven background retraining (§4.2, §5 "Prediction model
//! updates").
//!
//! An independent monitor compares each run's actual completion time with
//! the prediction; when the difference exceeds
//! `smartpick.train.errorDifference.trigger`, a background retraining task
//! re-tunes the model: the offending samples are inflated with the ±5%
//! data-burst heuristic and appended to the forest `warm_start`-style.
//! A second, batch-based path retrains whenever `max.batch` samples have
//! accumulated, keeping the model incrementally up-to-date. Where the
//! retraining runs (same instance if enough RAM, otherwise a fresh one) is
//! governed by `pref.sameInstance` / `min.ram.gb`.

use smartpick_engine::{Allocation, RelayPolicy};
use smartpick_ml::dataset::Dataset;

use crate::error::SmartpickError;
use crate::features::QueryFeatures;
use crate::planner::UniformWorkload;
use crate::properties::SmartpickProperties;
use crate::wp::WorkloadPredictor;

/// The live ensemble is kept at no more than this multiple of the
/// configured tree count: each retrain adds one configured-size batch and
/// the oldest batch beyond the cap is retired, so stale knowledge ages
/// out while prediction latency and memory stay bounded.
const ENSEMBLE_CAP_FACTOR: usize = 4;

/// Where a retraining task runs (§5): the paper observes same-instance
/// retraining interferes with the running job and recommends a separate
/// instance (§6.5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrainLocation {
    /// In-place on the driver instance (needs `min.ram.gb` free).
    SameInstance,
    /// On a freshly spawned instance.
    SeparateInstance,
}

/// Why a retraining task fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrainTrigger {
    /// |actual − predicted| exceeded `errorDifference.trigger`.
    ErrorDifference,
    /// `max.batch` samples accumulated.
    BatchFull,
}

/// Outcome of one retraining task.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrainReport {
    /// What fired it.
    pub trigger: RetrainTrigger,
    /// Where it ran.
    pub location: RetrainLocation,
    /// Samples (after burst) the forest was extended with.
    pub samples_used: usize,
    /// Trees added to the ensemble.
    pub trees_added: usize,
}

/// The retraining monitor: accumulates observations and fires retraining
/// tasks per the configured policy.
#[derive(Debug)]
pub struct RetrainMonitor {
    props: SmartpickProperties,
    pending: Dataset,
    /// Free driver RAM in GB, for the same-instance decision (simulated;
    /// defaults to 16 GB master minus workload headroom).
    pub free_ram_gb: u32,
    retrain_count: usize,
}

impl RetrainMonitor {
    /// Creates a monitor with the given properties.
    pub fn new(props: SmartpickProperties) -> Self {
        RetrainMonitor {
            props,
            pending: Dataset::new(QueryFeatures::names()),
            free_ram_gb: 8,
            retrain_count: 0,
        }
    }

    /// Rebuilds a monitor from checkpointed state — the persistence
    /// restore path. `pending` must carry the [`QueryFeatures::names`]
    /// schema (callers rebuild it row by row from persisted samples).
    pub fn restore(
        props: SmartpickProperties,
        pending: Dataset,
        free_ram_gb: u32,
        retrain_count: usize,
    ) -> Self {
        RetrainMonitor {
            props,
            pending,
            free_ram_gb,
            retrain_count,
        }
    }

    /// The samples waiting for the next batch retrain.
    pub fn pending(&self) -> &Dataset {
        &self.pending
    }

    /// Number of retraining tasks fired so far.
    pub fn retrain_count(&self) -> usize {
        self.retrain_count
    }

    /// Records one completed run and decides whether retraining fires.
    ///
    /// Every observation joins the pending batch; the error-difference rule
    /// fires immediately on a bad prediction, the batch rule when the
    /// pending set reaches `max.batch`.
    pub fn observe(
        &mut self,
        features: &QueryFeatures,
        predicted_seconds: f64,
        actual_seconds: f64,
    ) -> Option<RetrainTrigger> {
        self.pending.push(features.to_vec(), actual_seconds);
        let error = (actual_seconds - predicted_seconds).abs();
        if error > self.props.error_difference_trigger_secs {
            return Some(RetrainTrigger::ErrorDifference);
        }
        if self.pending.len() >= self.props.max_batch {
            return Some(RetrainTrigger::BatchFull);
        }
        None
    }

    /// Where the task will run, per `pref.sameInstance` and `min.ram.gb`.
    pub fn location(&self) -> RetrainLocation {
        if self.props.same_instance_retrain && self.free_ram_gb >= self.props.min_ram_gb {
            RetrainLocation::SameInstance
        } else {
            RetrainLocation::SeparateInstance
        }
    }

    /// Executes a retraining task against `predictor`: bursts the pending
    /// samples ±5%, extends the forest with `warm_start`, and clears the
    /// batch.
    ///
    /// # Errors
    ///
    /// Returns [`SmartpickError::NoTrainingData`] when nothing is pending,
    /// or a model error from the forest extension.
    pub fn retrain(
        &mut self,
        predictor: &mut WorkloadPredictor,
        trigger: RetrainTrigger,
        seed: u64,
    ) -> Result<RetrainReport, SmartpickError> {
        if self.pending.is_empty() {
            return Err(SmartpickError::NoTrainingData);
        }
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut burst = self.pending.burst(10, 0.05, &mut rng);
        if trigger == RetrainTrigger::ErrorDifference {
            // A surprising run means the model's picture of this query is
            // wrong across the whole grid, not just at the observed point.
            let (x, y) = self.pending.sample(self.pending.len() - 1);
            for (fx, fy) in synthesize_capacity_sweep(predictor, x, y) {
                burst.push(fx, fy);
            }
        }
        let trees_added = predictor.forest().params().n_trees;
        predictor
            .forest_mut()
            .warm_start_extend(&burst, trees_added, seed ^ 0xAD0BE)?;
        // Bound the ensemble: retire the oldest *retrained* batch beyond
        // the cap, but never the original training base — those are the
        // only trees guaranteed to cover every known query.
        let cap = trees_added * ENSEMBLE_CAP_FACTOR;
        let live = predictor.forest().n_trees();
        if live > cap {
            predictor
                .forest_mut()
                .retire_oldest(live - cap, trees_added);
        }
        self.pending = Dataset::new(QueryFeatures::names());
        self.retrain_count += 1;
        Ok(RetrainReport {
            trigger,
            location: self.location(),
            samples_used: burst.len(),
            trees_added,
        })
    }
}

/// Sample points along one allocation axis: the small counts where the
/// capacity curve bends, plus the bound itself.
fn axis_points(max: u32) -> Vec<u32> {
    let mut pts: Vec<u32> = [0u32, 1, 2, 4].into_iter().filter(|&v| v < max).collect();
    pts.push(max);
    pts
}

/// Planner-calibrated pseudo-samples for an error-difference retrain.
///
/// Retraining on observed runs alone teaches the forest nothing about
/// *other* allocations in the new regime, so the next search happily
/// chases stale (optimistic) predictions at unexplored configurations.
/// Instead, the analytical planner's capacity curve is calibrated so it
/// passes through the observed `(allocation, actual_seconds)` point, then
/// sampled across the `{nVM, nSL}` grid — one synthetic row per point —
/// teaching the forest how the new regime scales with capacity in a
/// single retrain. Returns no samples when the triggering row cannot be
/// resolved to a known query or the planner estimate is unusable.
fn synthesize_capacity_sweep(
    predictor: &WorkloadPredictor,
    trigger_features: &[f64],
    actual_seconds: f64,
) -> Vec<(Vec<f64>, f64)> {
    // Feature layout per `features::FEATURE_NAMES`. The feature row does
    // not carry the relay policy, so it is reconstructed with the same
    // rule the predictor applies when determining allocations.
    let code = trigger_features[0];
    let (n_vm_obs, n_sl_obs) = (trigger_features[1] as u32, trigger_features[2] as u32);
    let relay_for = |n_vm: u32, n_sl: u32| {
        if predictor.relay_aware() && n_vm > 0 && n_sl > 0 {
            RelayPolicy::Relay
        } else {
            RelayPolicy::None
        }
    };
    let observed = Allocation::new(n_vm_obs, n_sl_obs).with_relay(relay_for(n_vm_obs, n_sl_obs));
    let input_gb = trigger_features[3] / (1024.0 * 1024.0 * 1024.0);
    let Some(known) = predictor
        .known_queries()
        .iter()
        .find(|k| (k.code - code).abs() < 0.5)
    else {
        return Vec::new();
    };
    // Task counts scale with data size relative to the registered profile.
    let scale = if known.input_gb > 0.0 {
        input_gb / known.input_gb
    } else {
        1.0
    };
    let workload = UniformWorkload {
        tasks: ((known.workload.tasks as f64 * scale).round() as usize).max(1),
        task_secs_on_vm: known.workload.task_secs_on_vm,
    };
    let planner = predictor.planner();
    let expected_observed = planner.expected_seconds(&workload, &observed);
    if !expected_observed.is_finite() || expected_observed <= 0.0 || actual_seconds <= 0.0 {
        return Vec::new();
    }
    // Multiplicative calibration through the observed point, clamped so a
    // single noisy run cannot swing the whole sweep wildly.
    let ratio = (actual_seconds / expected_observed).clamp(0.2, 5.0);
    let (max_vm, max_sl) = predictor.search_bounds();
    let mut out = Vec::new();
    for n_vm in axis_points(max_vm) {
        for n_sl in axis_points(max_sl) {
            if n_vm + n_sl == 0 {
                continue;
            }
            let alloc = Allocation::new(n_vm, n_sl).with_relay(relay_for(n_vm, n_sl));
            let est = planner.expected_seconds(&workload, &alloc) * ratio;
            if !est.is_finite() || est <= 0.0 {
                continue;
            }
            let features = QueryFeatures::for_allocation(code, input_gb, &alloc, predictor.env());
            out.push((features.to_vec(), est));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartpick_cloudsim::{CloudEnv, Provider};
    use smartpick_engine::Allocation;
    use smartpick_ml::forest::ForestParams;
    use smartpick_workloads::tpcds;

    fn trained_predictor() -> WorkloadPredictor {
        let env = CloudEnv::new(Provider::Aws);
        let queries = vec![tpcds::query(82, 100.0).unwrap()];
        let opts = crate::training::TrainOptions {
            configs_per_query: 6,
            burst_factor: 3,
            forest: ForestParams {
                n_trees: 20,
                ..ForestParams::default()
            },
            max_vm: 4,
            max_sl: 4,
            ..crate::training::TrainOptions::default()
        };
        crate::training::train_predictor(&env, &queries, &opts, 9)
            .unwrap()
            .0
    }

    fn features(actual_code: f64) -> QueryFeatures {
        let env = CloudEnv::new(Provider::Aws);
        QueryFeatures::for_allocation(actual_code, 100.0, &Allocation::new(2, 2), &env)
    }

    #[test]
    fn error_difference_fires() {
        let props = SmartpickProperties {
            error_difference_trigger_secs: 10.0,
            ..SmartpickProperties::default()
        };
        let mut mon = RetrainMonitor::new(props);
        assert_eq!(mon.observe(&features(0.0), 50.0, 55.0), None);
        assert_eq!(
            mon.observe(&features(0.0), 50.0, 75.0),
            Some(RetrainTrigger::ErrorDifference)
        );
    }

    #[test]
    fn batch_rule_fires_at_max_batch() {
        let props = SmartpickProperties {
            max_batch: 3,
            error_difference_trigger_secs: 1e9,
            ..SmartpickProperties::default()
        };
        let mut mon = RetrainMonitor::new(props);
        assert_eq!(mon.observe(&features(0.0), 10.0, 10.0), None);
        assert_eq!(mon.observe(&features(0.0), 10.0, 10.0), None);
        assert_eq!(
            mon.observe(&features(0.0), 10.0, 10.0),
            Some(RetrainTrigger::BatchFull)
        );
    }

    #[test]
    fn location_follows_properties() {
        let props = SmartpickProperties {
            same_instance_retrain: true,
            min_ram_gb: 4,
            ..SmartpickProperties::default()
        };
        let mon = RetrainMonitor::new(props.clone());
        assert_eq!(mon.location(), RetrainLocation::SameInstance);
        let mut mon = RetrainMonitor::new(props);
        mon.free_ram_gb = 2;
        assert_eq!(mon.location(), RetrainLocation::SeparateInstance);
        let mon = RetrainMonitor::new(SmartpickProperties::default());
        assert_eq!(mon.location(), RetrainLocation::SeparateInstance);
    }

    #[test]
    fn retrain_shifts_predictions_toward_new_truth() {
        let mut predictor = trained_predictor();
        let props = SmartpickProperties {
            error_difference_trigger_secs: 10.0,
            ..SmartpickProperties::default()
        };
        let mut mon = RetrainMonitor::new(props);

        // A new regime: this feature row actually takes 400 s.
        let f = features(1.0);
        let before = predictor.forest().predict(&f.to_vec());
        let trigger = mon.observe(&f, before, 400.0).expect("big error fires");
        let report = mon.retrain(&mut predictor, trigger, 77).unwrap();
        assert!(report.samples_used >= 10);
        assert_eq!(report.trees_added, 20);
        let after = predictor.forest().predict(&f.to_vec());
        assert!(
            (after - 400.0).abs() < (before - 400.0).abs() * 0.7,
            "prediction should converge: before {before}, after {after}"
        );
        assert!(mon.pending.is_empty());
        assert_eq!(mon.retrain_count(), 1);
    }

    #[test]
    fn retrain_without_pending_errors() {
        let mut predictor = trained_predictor();
        let mut mon = RetrainMonitor::new(SmartpickProperties::default());
        assert!(matches!(
            mon.retrain(&mut predictor, RetrainTrigger::BatchFull, 0),
            Err(SmartpickError::NoTrainingData)
        ));
    }
}
