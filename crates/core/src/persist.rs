//! Plain-data checkpoint types for the whole driver (`smartpick-store`
//! support).
//!
//! [`DriverState`] captures everything [`crate::driver::Smartpick`] needs
//! to continue *exactly* where a crashed instance stopped: the trained
//! predictor (forest in its flat struct-of-arrays shape, known queries,
//! similarity signatures), the MFE's monitor and simulated-clock stream,
//! the history records, and the driver's own RNG state. Every field is
//! plain data — the binary on-disk encoding lives in `smartpick-store`;
//! this module only defines the shapes and the (export, restore)
//! conversions, which stay inside `smartpick-core` because they touch
//! private component state.
//!
//! Restoration is exact for environments built via
//! [`CloudEnv::new`]/[`CloudEnv::with_family`]: the environment is encoded
//! as `(provider, compute_optimised)`, which fully determines the catalog,
//! performance, pricing and boot models. Environments customised with
//! `with_boot_model`/`with_perf_profile` do **not** round-trip (the
//! custom models are not captured) — such drivers should not be persisted.

use std::sync::Arc;

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_ml::dataset::Dataset;
use smartpick_ml::forest::{ForestParams, RandomForest};
use smartpick_ml::tree::{RegressionTree, TreeParams};

use crate::error::SmartpickError;
use crate::features::QueryFeatures;
use crate::mfe::Mfe;
use crate::planner::UniformWorkload;
use crate::properties::SmartpickProperties;
use crate::retrain::RetrainMonitor;
use crate::similarity::{KnownSignature, SimilarityChecker};
use crate::wp::{KnownQuery, WorkloadPredictor};

/// One fitted tree in the flat struct-of-arrays shape (the PR 4 inference
/// layout, reused verbatim as the on-disk shape).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeState {
    /// Split feature per slot (`u16::MAX` marks a leaf).
    pub feature: Vec<u16>,
    /// Split threshold per slot (leaf value inline for leaves).
    pub threshold: Vec<f64>,
    /// Left-child index per split slot (right child is `+ 1`).
    pub children: Vec<u32>,
    /// Unnormalised impurity importance per feature.
    pub importance: Vec<f64>,
}

/// A fitted forest: hyperparameters plus every live tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestState {
    /// Configured ensemble size (the live tree list may be larger after
    /// warm-start retrains).
    pub n_trees: u32,
    /// Per-tree `max_depth`.
    pub max_depth: u32,
    /// Per-tree `min_samples_split`.
    pub min_samples_split: u32,
    /// Per-tree `min_samples_leaf`.
    pub min_samples_leaf: u32,
    /// Per-tree `max_features` (`None` = regression default).
    pub max_features: Option<u32>,
    /// Whether trees train on bootstrap resamples.
    pub bootstrap: bool,
    /// Feature-column count.
    pub n_features: u32,
    /// The live ensemble, oldest tree first.
    pub trees: Vec<TreeState>,
}

/// One known query the predictor was trained on.
#[derive(Debug, Clone, PartialEq)]
pub struct KnownQueryState {
    /// Query identifier.
    pub id: String,
    /// Numeric `query-code` feature value.
    pub code: f64,
    /// Input size the model saw, GB.
    pub input_gb: f64,
    /// Uniform-workload task count for the planner.
    pub tasks: u64,
    /// Uniform-workload mean per-task VM seconds.
    pub task_secs_on_vm: f64,
}

/// The trained predictor, decomposed into plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorState {
    /// The simulated provider.
    pub provider: Provider,
    /// Whether the VM family is compute-optimised — with `provider`, this
    /// fully determines the environment.
    pub compute_optimised: bool,
    /// The fitted forest.
    pub forest: ForestState,
    /// Known queries, in code order.
    pub known: Vec<KnownQueryState>,
    /// Similarity signatures, `(query_id, vector)` pairs.
    pub signatures: Vec<(String, [f64; 4])>,
    /// Whether the model was trained on relay runs.
    pub relay_aware: bool,
    /// Training-time regression standard error.
    pub stderr: f64,
    /// Inclusive search bound on VMs.
    pub max_vm: u32,
    /// Inclusive search bound on SLs.
    pub max_sl: u32,
    /// Minimum total instances a candidate may request.
    pub min_total: u32,
}

/// The retrain monitor's checkpoint: pending samples and counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorState {
    /// Pending rows, one Table 3 feature vector per sample.
    pub pending_features: Vec<Vec<f64>>,
    /// Pending regression targets (actual seconds), parallel to
    /// `pending_features`.
    pub pending_targets: Vec<f64>,
    /// Simulated free driver RAM, GB.
    pub free_ram_gb: u32,
    /// Retraining tasks fired so far.
    pub retrain_count: u64,
}

/// The MFE's checkpoint: monitor plus the simulated clock stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MfeState {
    /// Raw state of the clock/contention RNG.
    pub clock_state: [u64; 4],
    /// Simulated epoch seconds advanced so far.
    pub epoch: f64,
    /// The retrain monitor.
    pub monitor: MonitorState,
}

/// A complete driver checkpoint — everything [`crate::driver::Smartpick`]
/// needs to continue exactly where this state was captured.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverState {
    /// The configured `smartpick.*` properties.
    pub props: SmartpickProperties,
    /// The trained predictor.
    pub predictor: PredictorState,
    /// All history records, oldest first.
    pub history: Vec<crate::history::RunRecord>,
    /// The MFE checkpoint.
    pub mfe: MfeState,
    /// Raw state of the driver's per-submission RNG stream.
    pub rng_state: [u64; 4],
}

/// Captures a predictor's full state as plain data.
pub(crate) fn export_predictor(p: &WorkloadPredictor) -> PredictorState {
    let forest = p.forest();
    let params = forest.params();
    let (max_vm, max_sl) = p.search_bounds();
    PredictorState {
        provider: p.env().provider(),
        compute_optimised: p.env().catalog().is_compute_optimised(),
        forest: ForestState {
            n_trees: params.n_trees as u32,
            max_depth: params.tree.max_depth as u32,
            min_samples_split: params.tree.min_samples_split as u32,
            min_samples_leaf: params.tree.min_samples_leaf as u32,
            max_features: params.tree.max_features.map(|m| m as u32),
            bootstrap: params.bootstrap,
            n_features: forest.n_features() as u32,
            trees: forest
                .trees()
                .iter()
                .map(|t| {
                    let (feature, threshold, children) = t.flat_parts();
                    TreeState {
                        feature: feature.to_vec(),
                        threshold: threshold.to_vec(),
                        children: children.to_vec(),
                        importance: t.importance().to_vec(),
                    }
                })
                .collect(),
        },
        known: p
            .known_queries()
            .iter()
            .map(|k| KnownQueryState {
                id: k.id.clone(),
                code: k.code,
                input_gb: k.input_gb,
                tasks: k.workload.tasks as u64,
                task_secs_on_vm: k.workload.task_secs_on_vm,
            })
            .collect(),
        signatures: p
            .similarity()
            .signatures()
            .iter()
            .map(|s| (s.query_id.clone(), s.vector))
            .collect(),
        relay_aware: p.relay_aware(),
        stderr: p.stderr(),
        max_vm,
        max_sl,
        min_total: p.min_total(),
    }
}

/// Rebuilds the environment a state was captured under.
pub(crate) fn restore_env(state: &PredictorState) -> CloudEnv {
    if state.compute_optimised {
        // Any compute-optimised family name selects the same catalog.
        CloudEnv::with_family(state.provider, "compute")
    } else {
        CloudEnv::new(state.provider)
    }
}

/// Rebuilds a predictor from captured state.
///
/// # Errors
///
/// Returns [`SmartpickError::InvalidState`] (or a forwarded
/// [`SmartpickError::Ml`]) when the forest shape fails validation.
pub(crate) fn restore_predictor(
    state: &PredictorState,
) -> Result<WorkloadPredictor, SmartpickError> {
    let env = restore_env(state);
    let f = &state.forest;
    let n_features = f.n_features as usize;
    if n_features != crate::features::N_FEATURES {
        return Err(SmartpickError::InvalidState(format!(
            "forest feature width {n_features} does not match the Table 3 schema"
        )));
    }
    let params = ForestParams {
        n_trees: f.n_trees as usize,
        tree: TreeParams {
            max_depth: f.max_depth as usize,
            min_samples_split: f.min_samples_split as usize,
            min_samples_leaf: f.min_samples_leaf as usize,
            max_features: f.max_features.map(|m| m as usize),
        },
        bootstrap: f.bootstrap,
    };
    let mut trees = Vec::with_capacity(f.trees.len());
    for t in &f.trees {
        trees.push(Arc::new(RegressionTree::from_flat_parts(
            t.feature.clone(),
            t.threshold.clone(),
            t.children.clone(),
            n_features,
            t.importance.clone(),
        )?));
    }
    let forest = RandomForest::from_parts(trees, params, n_features)?;
    let known = state
        .known
        .iter()
        .map(|k| KnownQuery {
            id: k.id.clone(),
            code: k.code,
            input_gb: k.input_gb,
            workload: UniformWorkload {
                tasks: k.tasks as usize,
                task_secs_on_vm: k.task_secs_on_vm,
            },
        })
        .collect();
    let sc = SimilarityChecker::from_signatures(
        state
            .signatures
            .iter()
            .map(|(query_id, vector)| KnownSignature {
                query_id: query_id.clone(),
                vector: *vector,
            })
            .collect(),
    );
    WorkloadPredictor::assemble(
        env,
        forest,
        known,
        sc,
        state.relay_aware,
        state.stderr,
        state.max_vm,
        state.max_sl,
        state.min_total,
    )
}

/// Captures the MFE's full state as plain data.
pub(crate) fn export_mfe(mfe: &Mfe) -> MfeState {
    let monitor = mfe.monitor();
    let pending = monitor.pending();
    MfeState {
        clock_state: mfe.clock_state(),
        epoch: mfe.sim_epoch(),
        monitor: MonitorState {
            pending_features: pending.features().to_vec(),
            pending_targets: pending.targets().to_vec(),
            free_ram_gb: monitor.free_ram_gb,
            retrain_count: monitor.retrain_count() as u64,
        },
    }
}

/// Rebuilds an MFE from captured state.
///
/// # Errors
///
/// Returns [`SmartpickError::InvalidState`] when the pending sample shape
/// is inconsistent.
pub(crate) fn restore_mfe(
    env: CloudEnv,
    props: SmartpickProperties,
    state: &MfeState,
) -> Result<Mfe, SmartpickError> {
    let m = &state.monitor;
    if m.pending_features.len() != m.pending_targets.len() {
        return Err(SmartpickError::InvalidState(
            "pending sample/target counts differ".to_owned(),
        ));
    }
    let mut pending = Dataset::new(QueryFeatures::names());
    for (row, &target) in m.pending_features.iter().zip(&m.pending_targets) {
        if row.len() != pending.n_features() {
            return Err(SmartpickError::InvalidState(format!(
                "pending sample width {} does not match the Table 3 schema",
                row.len()
            )));
        }
        pending.push(row.clone(), target);
    }
    let monitor = RetrainMonitor::restore(props, pending, m.free_ram_gb, m.retrain_count as usize);
    Ok(Mfe::restore(env, monitor, state.clock_state, state.epoch))
}
