//! The Workload Prediction (WP) component: Random Forest + Bayesian
//! Optimizer (§3).
//!
//! `f(β) = RF_t` (Equation 1) predicts a query's completion time from the
//! Table 3 features; the Bayesian optimizer maximises `−(RF_t + δ)`
//! (Equation 2) over the `{nVM, nSL}` grid with Probability-of-Improvement
//! acquisition, stopping after 10 consecutive probes that improve the best
//! estimate by less than 1% (§3.1). Every probe lands in the
//! estimated-times list `ET_l`, which the knob of §3.3 traverses.
//!
//! The module is deliberately framed as a *service*
//! ([`WorkloadPredictionService`]) because the paper ships WP as a
//! standalone Thrift server that other serverless data-analytics systems
//! (Cocoa, SplitServe) can call (§5, §6.3.2); [`ConstraintMode`]
//! implements those integrations' restricted searches.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use smartpick_cloudsim::rngutil::sample_normal;
use smartpick_cloudsim::{CloudEnv, Money};
use smartpick_engine::{Allocation, QueryProfile, RelayPolicy};
use smartpick_ml::bayesopt::{BayesianOptimizer, BoParams, BoResult};
use smartpick_ml::forest::RandomForest;
use smartpick_ml::lattice::Lattice;

use crate::error::SmartpickError;
use crate::features::{QueryFeatures, INPUT_BYTES_COL, N_FEATURES, QUERY_CODE_COL};
use crate::planner::{Planner, UniformWorkload};
use crate::similarity::SimilarityChecker;
use crate::tradeoff::{choose_with_knob, EtEntry};

/// A query the predictor was trained on.
#[derive(Debug, Clone, PartialEq)]
pub struct KnownQuery {
    /// Query identifier.
    pub id: String,
    /// Numeric code used as the `query-code` feature.
    pub code: f64,
    /// Input size the model saw, GB.
    pub input_gb: f64,
    /// Uniform-workload approximation for the planner's cost model.
    pub workload: UniformWorkload,
}

/// Which configurations the search may consider.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintMode {
    /// The full hybrid space (Smartpick).
    Hybrid,
    /// VMs only — the "tweaked WP" plugged into Cocoa/SplitServe (§6.3.2).
    VmOnly,
    /// SLs only (the SL-only baseline).
    SlOnly,
    /// Equal numbers of SLs and VMs — SplitServe's design constraint
    /// (§4.3).
    EqualSlVm,
}

impl ConstraintMode {
    /// The stable wire name (`"hybrid"` / `"vm_only"` / `"sl_only"` /
    /// `"equal_sl_vm"`).
    pub fn name(&self) -> &'static str {
        match self {
            ConstraintMode::Hybrid => "hybrid",
            ConstraintMode::VmOnly => "vm_only",
            ConstraintMode::SlOnly => "sl_only",
            ConstraintMode::EqualSlVm => "equal_sl_vm",
        }
    }
}

/// Serialises as the stable wire name.
impl serde::Serialize for ConstraintMode {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_owned())
    }
}

impl serde::Deserialize for ConstraintMode {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(s) => match s.as_str() {
                "hybrid" => Ok(ConstraintMode::Hybrid),
                "vm_only" => Ok(ConstraintMode::VmOnly),
                "sl_only" => Ok(ConstraintMode::SlOnly),
                "equal_sl_vm" => Ok(ConstraintMode::EqualSlVm),
                other => Err(serde::DeError(format!("unknown constraint mode `{other}`"))),
            },
            other => Err(serde::DeError(format!(
                "expected a constraint-mode name, got {other:?}"
            ))),
        }
    }
}

/// A prediction request.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PredictionRequest {
    /// The query to size.
    pub query: QueryProfile,
    /// Cost–performance knob ε (0 = best performance).
    pub knob: f64,
    /// Search-space constraint.
    pub constraint: ConstraintMode,
    /// Seed for the stochastic parts of the search.
    pub seed: u64,
}

impl PredictionRequest {
    /// A best-performance hybrid request.
    pub fn new(query: QueryProfile, seed: u64) -> Self {
        PredictionRequest {
            query,
            knob: 0.0,
            constraint: ConstraintMode::Hybrid,
            seed,
        }
    }
}

/// The outcome of a resource determination.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Determination {
    /// The chosen configuration (relay policy already applied).
    pub allocation: Allocation,
    /// Predicted completion time for the chosen configuration, seconds.
    pub predicted_seconds: f64,
    /// Planner-estimated cost for the chosen configuration.
    pub predicted_cost: Money,
    /// The estimated-times list `ET_l` (§3.3), one entry per probe.
    pub et_list: Vec<EtEntry>,
    /// Objective evaluations the search spent.
    pub evaluations: usize,
    /// Whether the query was known (false = similarity-matched alien).
    pub known_query: bool,
    /// The known query the prediction was based on.
    pub matched_query: String,
    /// Cosine similarity of the match (1.0 for known queries).
    pub match_similarity: f64,
}

/// The workload-prediction service interface other SEDA systems call
/// (§5 exposes this over Thrift RPC; here it is a trait object boundary).
pub trait WorkloadPredictionService {
    /// Determines the optimal configuration for a request.
    ///
    /// # Errors
    ///
    /// Implementations return [`SmartpickError::UnknownQuery`] when the
    /// query cannot be matched to any known workload.
    fn determine(&self, request: &PredictionRequest) -> Result<Determination, SmartpickError>;
}

/// One constraint mode's precompiled search space: the candidate
/// coordinates plus the [`Lattice`] of their Table-3 feature rows — what
/// varies across the grid (`n-vm`, `n-sl`, and the three columns
/// [`QueryFeatures::for_allocation`] derives from `nVM + nSL`) as value
/// tables, everything else as one uniform value. `determine()` supplies
/// the two query-dependent columns (`query-code`, `input-size`) per
/// request; the rest depends only on the grid and the environment, so it
/// is compiled exactly once per trained predictor.
#[derive(Debug)]
struct CandidateGrid {
    /// `(n_vm, n_sl)` per candidate, in [`grid_coords`] order — the
    /// lattice's row order, and what a search's candidate indices index.
    coords: Vec<(u32, u32)>,
    lattice: Lattice,
}

impl CandidateGrid {
    fn build(env: &CloudEnv, coords: &[(u32, u32)]) -> Result<CandidateGrid, SmartpickError> {
        let mut rows = vec![0.0; coords.len() * N_FEATURES];
        for (&(n_vm, n_sl), row) in coords.iter().zip(rows.chunks_exact_mut(N_FEATURES)) {
            QueryFeatures::for_allocation(0.0, 0.0, &Allocation::new(n_vm, n_sl), env)
                .write_into(row);
        }
        CandidateGrid::compile(coords, &rows)
    }

    /// Compiles the feature rows of `coords` (query columns zeroed). The
    /// lattice is read off the rows themselves, so a schema change that
    /// makes a column vary in a way region descent cannot follow fails
    /// here, at assembly, instead of answering wrongly.
    fn compile(coords: &[(u32, u32)], rows: &[f64]) -> Result<CandidateGrid, SmartpickError> {
        Ok(CandidateGrid {
            coords: coords.to_vec(),
            lattice: Lattice::compile(coords, rows, N_FEATURES)?,
        })
    }
}

/// The four constraint modes' grids, precompiled at assembly time and
/// shared by every clone/snapshot of the predictor (the bounds they are
/// keyed on — `max_vm`, `max_sl`, `min_total` — are fixed for the life
/// of a trained predictor).
#[derive(Debug)]
struct CandidateGrids {
    hybrid: CandidateGrid,
    vm_only: CandidateGrid,
    sl_only: CandidateGrid,
    equal_sl_vm: CandidateGrid,
}

impl CandidateGrids {
    fn build(
        env: &CloudEnv,
        max_vm: u32,
        max_sl: u32,
        min_total: u32,
    ) -> Result<CandidateGrids, SmartpickError> {
        let grid = |constraint| {
            CandidateGrid::build(env, &grid_coords(max_vm, max_sl, min_total, constraint))
        };
        Ok(CandidateGrids {
            hybrid: grid(ConstraintMode::Hybrid)?,
            vm_only: grid(ConstraintMode::VmOnly)?,
            sl_only: grid(ConstraintMode::SlOnly)?,
            equal_sl_vm: grid(ConstraintMode::EqualSlVm)?,
        })
    }

    fn get(&self, constraint: ConstraintMode) -> &CandidateGrid {
        match constraint {
            ConstraintMode::Hybrid => &self.hybrid,
            ConstraintMode::VmOnly => &self.vm_only,
            ConstraintMode::SlOnly => &self.sl_only,
            ConstraintMode::EqualSlVm => &self.equal_sl_vm,
        }
    }
}

/// The trained predictor: Random Forest + BO + Similarity Checker.
#[derive(Debug, Clone)]
pub struct WorkloadPredictor {
    env: CloudEnv,
    forest: RandomForest,
    known: Vec<KnownQuery>,
    /// Query id → index into `known`, maintained alongside it so id
    /// resolution is a hash lookup instead of a linear scan.
    index: HashMap<String, usize>,
    /// Precompiled per-constraint search spaces (immutable; shared by
    /// clones, so a retrained copy-on-write predictor reuses them).
    grids: Arc<CandidateGrids>,
    sc: SimilarityChecker,
    planner: Planner,
    /// Whether the model was trained on relay runs (Smartpick-r).
    relay_aware: bool,
    /// Regression standard error from training (drives the accuracy rule).
    stderr: f64,
    /// Search-space bounds (inclusive).
    max_vm: u32,
    /// Search-space bounds (inclusive).
    max_sl: u32,
    /// Minimum total instances a candidate may request — mirrors the
    /// training floor so the search never relies on extrapolated
    /// predictions for starving configurations.
    min_total: u32,
    bo: BayesianOptimizer,
    /// σ of the δ observation noise in Equation 2.
    noise_sigma: f64,
}

impl WorkloadPredictor {
    /// Assembles a predictor from its parts (the training pipeline and
    /// every decode of a stored snapshot), compiling the four constraint
    /// modes' candidate grids.
    ///
    /// # Errors
    ///
    /// [`SmartpickError::InvalidState`] when the forest's feature width is
    /// not the Table 3 schema's; forwards
    /// [`smartpick_ml::MlError::NonAxisColumn`] when a Table-3 column
    /// varies across a grid in a way the lattice descent cannot follow.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        env: CloudEnv,
        forest: RandomForest,
        known: Vec<KnownQuery>,
        sc: SimilarityChecker,
        relay_aware: bool,
        stderr: f64,
        max_vm: u32,
        max_sl: u32,
        min_total: u32,
    ) -> Result<Self, SmartpickError> {
        if forest.n_features() != N_FEATURES {
            return Err(SmartpickError::InvalidState(format!(
                "forest feature width {} does not match the Table 3 schema",
                forest.n_features()
            )));
        }
        let index = known
            .iter()
            .enumerate()
            .map(|(i, k)| (k.id.clone(), i))
            .collect();
        Ok(WorkloadPredictor {
            planner: Planner::new(env.clone()),
            grids: Arc::new(CandidateGrids::build(
                &env,
                max_vm,
                max_sl,
                min_total.max(1),
            )?),
            env,
            forest,
            known,
            index,
            sc,
            relay_aware,
            stderr,
            max_vm,
            max_sl,
            min_total: min_total.max(1),
            bo: BayesianOptimizer::new(BoParams {
                acq_subsample: Some(64),
                ..BoParams::default()
            }),
            noise_sigma: 0.25,
        })
    }

    /// The environment the predictor was trained for.
    pub fn env(&self) -> &CloudEnv {
        &self.env
    }

    /// Whether the model was trained on relay runs (Smartpick-r).
    pub fn relay_aware(&self) -> bool {
        self.relay_aware
    }

    /// The regression standard error measured at training time.
    pub fn stderr(&self) -> f64 {
        self.stderr
    }

    /// The known queries.
    pub fn known_queries(&self) -> &[KnownQuery] {
        &self.known
    }

    /// The inclusive `{nVM, nSL}` search-space bounds.
    pub fn search_bounds(&self) -> (u32, u32) {
        (self.max_vm, self.max_sl)
    }

    /// The minimum total instances a candidate may request (the training
    /// floor the searches honour).
    pub fn min_total(&self) -> u32 {
        self.min_total
    }

    /// The similarity checker (alien-query matching state).
    pub fn similarity(&self) -> &SimilarityChecker {
        &self.sc
    }

    /// Mutable access to the underlying forest (background retraining).
    pub(crate) fn forest_mut(&mut self) -> &mut RandomForest {
        &mut self.forest
    }

    /// The analytical planner this predictor prices configurations with
    /// (shared with retraining so calibration can never drift from it).
    pub(crate) fn planner(&self) -> &Planner {
        &self.planner
    }

    /// The underlying forest.
    pub fn forest(&self) -> &RandomForest {
        &self.forest
    }

    /// Registers a previously alien query as known (after retraining has
    /// incorporated it, §4.2). Returns its new code.
    pub fn register_query(&mut self, query: &QueryProfile) -> f64 {
        if let Some(&i) = self.index.get(&query.id) {
            return self.known[i].code;
        }
        let code = self.known.len() as f64;
        self.index.insert(query.id.clone(), self.known.len());
        self.known.push(KnownQuery {
            id: query.id.clone(),
            code,
            input_gb: query.input_gb,
            workload: approximate_workload(query, &self.env),
        });
        self.sc.register(query);
        code
    }

    /// Looks up a known query's code by id.
    pub fn code_of(&self, query_id: &str) -> Option<f64> {
        self.index.get(query_id).map(|&i| self.known[i].code)
    }

    /// Predicts the completion time (seconds) of `query` under a specific
    /// configuration — Equation 1 without the search.
    ///
    /// # Errors
    ///
    /// Returns [`SmartpickError::UnknownQuery`] when the query cannot be
    /// matched.
    pub fn predict_seconds(
        &self,
        query: &QueryProfile,
        alloc: &Allocation,
    ) -> Result<f64, SmartpickError> {
        let (known, _similarity, _known_query) = self.resolve(query)?;
        let features = QueryFeatures::for_allocation(known.code, query.input_gb, alloc, &self.env);
        Ok(self.forest.predict(&features.to_array()))
    }

    /// Resolves a query to a known query: directly if known (an id→index
    /// hash lookup), via the Similarity Checker otherwise.
    fn resolve(&self, query: &QueryProfile) -> Result<(&KnownQuery, f64, bool), SmartpickError> {
        if let Some(&i) = self.index.get(&query.id) {
            return Ok((&self.known[i], 1.0, true));
        }
        let matched = self
            .sc
            .closest(query)
            .ok_or_else(|| SmartpickError::UnknownQuery(query.id.clone()))?;
        let k = self
            .index
            .get(&matched.query_id)
            .map(|&i| &self.known[i])
            .ok_or_else(|| SmartpickError::UnknownQuery(query.id.clone()))?;
        Ok((k, matched.similarity, false))
    }

    /// The relay policy the determination should carry.
    fn relay_for(&self, n_vm: u32, n_sl: u32) -> RelayPolicy {
        if self.relay_aware && n_vm > 0 && n_sl > 0 {
            RelayPolicy::Relay
        } else {
            RelayPolicy::None
        }
    }

    /// Turns a finished search over `constraint`'s grid into a
    /// [`Determination`]: builds `ET_l` with planner costs, applies the
    /// §3.3 `knob`, and stamps the match metadata `resolve` returned.
    /// Shared by the shipping and reference paths.
    fn finish(
        &self,
        result: BoResult,
        constraint: ConstraintMode,
        knob: f64,
        (known, match_similarity, known_query): (&KnownQuery, f64, bool),
    ) -> Determination {
        let coords = &self.grids.get(constraint).coords;
        let allocation_at = |candidate: usize| {
            let (n_vm, n_sl) = coords[candidate];
            Allocation::new(n_vm, n_sl).with_relay(self.relay_for(n_vm, n_sl))
        };
        // Build ET_l from the probes, with planner costs.
        let et_list: Vec<EtEntry> = result
            .probes
            .iter()
            .map(|p| {
                let alloc = allocation_at(p.candidate_index);
                let est_seconds = -p.objective;
                EtEntry {
                    est_cost: self.planner.expected_cost(&alloc, est_seconds),
                    allocation: alloc,
                    est_seconds,
                }
            })
            .collect();

        // Best-performance choice.
        let best_alloc = allocation_at(result.best_index);
        let t_best = -result.best_objective;
        let c_best = self.planner.expected_cost(&best_alloc, t_best);

        // Knob (§3.3): traverse ET_l for a cheaper in-tolerance entry.
        let (allocation, predicted_seconds, predicted_cost) =
            match choose_with_knob(&et_list, t_best, c_best, knob) {
                Some(i) => {
                    let e = &et_list[i];
                    (e.allocation, e.est_seconds, e.est_cost)
                }
                None => (best_alloc, t_best, c_best),
            };

        Determination {
            allocation,
            predicted_seconds,
            predicted_cost,
            et_list,
            evaluations: result.evaluations,
            known_query,
            matched_query: known.id.clone(),
            match_similarity,
        }
    }

    /// The paper's §3.1 search as written: the GP surrogate picks each
    /// probe by Probability of Improvement, and every probe builds its
    /// feature vector and walks the forest — no precompiled lattice, no
    /// swept grid. Not the serving path; kept public as the model-level
    /// cross-check of [`WorkloadPredictionService::determine`] and the
    /// baseline column of the `determine_latency` benchmark and
    /// `BENCH_determine.json`.
    ///
    /// # Errors
    ///
    /// Returns [`SmartpickError::UnknownQuery`] when the query cannot be
    /// matched and [`SmartpickError::EmptySearchSpace`] when the
    /// constraint admits no candidate.
    pub fn determine_reference(
        &self,
        request: &PredictionRequest,
    ) -> Result<Determination, SmartpickError> {
        let matched = self.resolve(&request.query)?;
        let code = matched.0.code;
        // The GP fits on coordinates, so this path alone spells them out.
        let candidates: Vec<Vec<f64>> = self
            .grids
            .get(request.constraint)
            .coords
            .iter()
            .map(|&(n_vm, n_sl)| vec![n_vm as f64, n_sl as f64])
            .collect();
        if candidates.is_empty() {
            return Err(SmartpickError::EmptySearchSpace(request.constraint));
        }
        let mut noise_rng = StdRng::seed_from_u64(request.seed ^ NOISE_SEED_MIX);

        // Equation 2: maximise −(RF_t + δ).
        let result = self.bo.maximize(&candidates, request.seed, |x| {
            let alloc = Allocation::new(x[0] as u32, x[1] as u32);
            let features =
                QueryFeatures::for_allocation(code, request.query.input_gb, &alloc, &self.env);
            let rf_t = self.forest.predict(&features.to_vec());
            let delta = sample_normal(&mut noise_rng, 0.0, self.noise_sigma);
            -(rf_t + delta)
        });

        Ok(self.finish(result, request.constraint, request.knob, matched))
    }
}

/// Enumerates the candidate `{nVM, nSL}` coordinates for one constraint
/// mode, in the canonical nested-loop order — the single source of truth
/// for the search space.
fn grid_coords(
    max_vm: u32,
    max_sl: u32,
    min_total: u32,
    constraint: ConstraintMode,
) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for n_vm in 0..=max_vm {
        for n_sl in 0..=max_sl {
            if n_vm + n_sl < min_total.max(1) {
                continue;
            }
            let keep = match constraint {
                ConstraintMode::Hybrid => true,
                ConstraintMode::VmOnly => n_sl == 0,
                ConstraintMode::SlOnly => n_vm == 0,
                ConstraintMode::EqualSlVm => n_vm == n_sl && n_vm > 0,
            };
            if keep {
                out.push((n_vm, n_sl));
            }
        }
    }
    out
}

/// Approximates a query DAG as a uniform workload for the planner's cost
/// model: total tasks at the mean per-task VM time.
pub(crate) fn approximate_workload(query: &QueryProfile, env: &CloudEnv) -> UniformWorkload {
    let perf = env.perf();
    let mut total_secs = 0.0;
    let mut tasks = 0usize;
    for s in &query.stages {
        let per_task = s.cpu_ms_per_task / 1000.0 / perf.vm_speed_factor()
            + perf.storage_read_secs(s.input_mib_per_task + s.shuffle_mib_per_task);
        total_secs += per_task * s.tasks as f64;
        tasks += s.tasks;
    }
    UniformWorkload {
        tasks,
        task_secs_on_vm: if tasks == 0 {
            0.0
        } else {
            total_secs / tasks as f64
        },
    }
}

impl WorkloadPredictionService for WorkloadPredictor {
    /// [`WorkloadPredictor::determine_query`] on the request's parts.
    fn determine(&self, request: &PredictionRequest) -> Result<Determination, SmartpickError> {
        self.determine_query(
            &request.query,
            request.knob,
            request.constraint,
            request.seed,
        )
    }
}

impl WorkloadPredictor {
    /// The shipping `determine()`, on a request's parts — for a caller
    /// that holds the query by reference and should not clone it into a
    /// [`PredictionRequest`] per call. Equation 1 is evaluated over the
    /// *entire* precompiled candidate grid by one region descent per
    /// tree ([`RandomForest::predict_lattice_into`]) — no feature row is
    /// built — and the search consumes the precomputed `RF_t` values:
    /// same seeded initial design, δ observation noise, `ET_l` recording
    /// and §3.1 termination rule as the GP-guided search, but probes cost
    /// an array lookup and the model's true grid optimum is guaranteed to
    /// be among them.
    ///
    /// # Errors
    ///
    /// Returns [`SmartpickError::UnknownQuery`] when the query cannot be
    /// matched and [`SmartpickError::EmptySearchSpace`] when the
    /// constraint admits no candidate.
    pub fn determine_query(
        &self,
        query: &QueryProfile,
        knob: f64,
        constraint: ConstraintMode,
        seed: u64,
    ) -> Result<Determination, SmartpickError> {
        let matched = self.resolve(query)?;
        let result = self.search(query.input_gb, constraint, seed, matched.0.code)?;
        Ok(self.finish(result, constraint, knob, matched))
    }

    /// What one determine sweeps: every flat-tree node of the forest plus
    /// every cell of the hybrid grid (the widest of the four) — the size
    /// its latency is linear in, fixed for the life of a published
    /// snapshot. A caller deciding whether a request is cheap enough to
    /// run where it stands compares this, not the forest's tree count
    /// (retrained trees are several times larger than kick-start ones).
    pub fn sweep_cost(&self) -> usize {
        let nodes: usize = self.forest.trees().iter().map(|t| t.node_count()).sum();
        nodes + self.grids.hybrid.coords.len()
    }

    /// Equation 2 for one request: sweeps `−RF_t` over `constraint`'s
    /// grid, then lets the optimizer probe the swept values under the
    /// δ-noise stream seeded from `seed`.
    fn search(
        &self,
        input_gb: f64,
        constraint: ConstraintMode,
        seed: u64,
        code: f64,
    ) -> Result<BoResult, SmartpickError> {
        let grid = self.grids.get(constraint);
        if grid.coords.is_empty() {
            return Err(SmartpickError::EmptySearchSpace(constraint));
        }
        let mut fixed = [0.0; N_FEATURES];
        fixed.copy_from_slice(grid.lattice.base_row());
        fixed[QUERY_CODE_COL] = code;
        fixed[INPUT_BYTES_COL] = QueryFeatures::input_gb_to_bytes(input_gb);
        let mut objective = vec![0.0; grid.coords.len()];
        self.forest
            .predict_lattice_into(&grid.lattice, &fixed, &mut objective);
        // Equation 2 maximises −(RF_t + δ): negate in place, add δ per
        // probe below.
        for v in &mut objective {
            *v = -*v;
        }
        let mut noise_rng = StdRng::seed_from_u64(seed ^ NOISE_SEED_MIX);
        Ok(self.bo.maximize_precomputed(&objective, seed, |_| {
            -sample_normal(&mut noise_rng, 0.0, self.noise_sigma)
        }))
    }
}

/// Mixed into the request seed so the δ-noise stream differs from the BO's
/// own candidate shuffling.
const NOISE_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{train_predictor, TrainOptions};
    use smartpick_cloudsim::Provider;
    use smartpick_ml::forest::ForestParams;
    use smartpick_ml::MlError;
    use smartpick_workloads::tpcds;

    impl WorkloadPredictor {
        /// The sweep as it ran before the lattice, kept as the oracle:
        /// every candidate's feature row is materialised and the forest
        /// batch-walks the rows.
        fn determine_materialised(
            &self,
            request: &PredictionRequest,
        ) -> Result<Determination, SmartpickError> {
            let matched = self.resolve(&request.query)?;
            let known = matched.0;
            let coords = grid_coords(self.max_vm, self.max_sl, self.min_total, request.constraint);
            if coords.is_empty() {
                return Err(SmartpickError::EmptySearchSpace(request.constraint));
            }
            let mut rows = vec![0.0; coords.len() * N_FEATURES];
            for (&(n_vm, n_sl), row) in coords.iter().zip(rows.chunks_exact_mut(N_FEATURES)) {
                let alloc = Allocation::new(n_vm, n_sl);
                QueryFeatures::for_allocation(
                    known.code,
                    request.query.input_gb,
                    &alloc,
                    &self.env,
                )
                .write_into(row);
            }
            let mut objective = vec![0.0; coords.len()];
            self.forest.predict_batch_into(&rows, &mut objective);
            for v in &mut objective {
                *v = -*v;
            }
            let mut noise_rng = StdRng::seed_from_u64(request.seed ^ NOISE_SEED_MIX);
            let result = self.bo.maximize_precomputed(&objective, request.seed, |_| {
                -sample_normal(&mut noise_rng, 0.0, self.noise_sigma)
            });
            Ok(self.finish(result, request.constraint, request.knob, matched))
        }
    }

    /// Bitwise equality of two answers, typed errors included.
    fn assert_same(
        got: Result<Determination, SmartpickError>,
        want: Result<Determination, SmartpickError>,
        context: &str,
    ) {
        match (got, want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.allocation, want.allocation, "{context}");
                assert_eq!(
                    got.predicted_seconds.to_bits(),
                    want.predicted_seconds.to_bits(),
                    "{context}"
                );
                assert_eq!(got.predicted_cost, want.predicted_cost, "{context}");
                assert_eq!(got.et_list, want.et_list, "{context}");
                assert_eq!(got.evaluations, want.evaluations, "{context}");
                assert_eq!(got.matched_query, want.matched_query, "{context}");
            }
            (
                Err(SmartpickError::EmptySearchSpace(got)),
                Err(SmartpickError::EmptySearchSpace(want)),
            ) => assert_eq!(got, want, "{context}"),
            (got, want) => panic!("{context}: {got:?} vs {want:?}"),
        }
    }

    const MODES: [ConstraintMode; 4] = [
        ConstraintMode::Hybrid,
        ConstraintMode::VmOnly,
        ConstraintMode::SlOnly,
        ConstraintMode::EqualSlVm,
    ];

    #[test]
    fn lattice_sweep_equals_the_materialised_batch_walk_on_every_mode_and_bound() {
        let env = CloudEnv::new(Provider::Aws);
        let queries: Vec<_> = [82u32, 68]
            .iter()
            .map(|&q| tpcds::query(q, 100.0).unwrap())
            .collect();
        let opts = TrainOptions {
            configs_per_query: 8,
            burst_factor: 4,
            forest: ForestParams {
                n_trees: 30,
                ..ForestParams::default()
            },
            ..TrainOptions::default()
        };
        let (trained, _) = train_predictor(&env, &queries, &opts, 42).unwrap();

        for (max_vm, max_sl, min_total) in [
            (0, 12, 1),
            (0, 12, 4),
            (12, 0, 4),
            (1, 1, 1),
            (1, 1, 4),
            (8, 8, 4),
            (16, 16, 4),
            (16, 9, 7),
            (32, 32, 4),
        ] {
            let wp = WorkloadPredictor::assemble(
                env.clone(),
                trained.forest.clone(),
                trained.known.clone(),
                trained.sc.clone(),
                false,
                trained.stderr,
                max_vm,
                max_sl,
                min_total,
            )
            .unwrap();
            let mut requests = Vec::new();
            for constraint in MODES {
                for (qnum, input_gb, seed) in [(82u32, 100.0, 3u64), (68, 250.0, 4), (62, 40.0, 5)]
                {
                    requests.push(PredictionRequest {
                        query: tpcds::query(qnum, input_gb).unwrap(),
                        knob: 0.1 * (seed % 3) as f64,
                        constraint,
                        seed,
                    });
                }
            }
            for request in &requests {
                let context = format!(
                    "{max_vm}x{max_sl} floor {min_total} {:?} {}",
                    request.constraint, request.query.id
                );
                assert_same(
                    wp.determine(request),
                    wp.determine_materialised(request),
                    &context,
                );
            }
        }
    }

    #[test]
    fn a_grid_with_a_column_no_axis_explains_fails_to_compile() {
        let env = CloudEnv::new(Provider::Aws);
        let coords = grid_coords(6, 6, 2, ConstraintMode::Hybrid);
        let rows_with = |edit: &dyn Fn(u32, u32, &mut [f64])| {
            let mut rows = vec![0.0; coords.len() * N_FEATURES];
            for (&(n_vm, n_sl), row) in coords.iter().zip(rows.chunks_exact_mut(N_FEATURES)) {
                QueryFeatures::for_allocation(0.0, 0.0, &Allocation::new(n_vm, n_sl), &env)
                    .write_into(row);
                edit(n_vm, n_sl, row);
            }
            rows
        };
        // The schema as it stands compiles.
        assert!(CandidateGrid::compile(&coords, &rows_with(&|_, _, _| {})).is_ok());
        // `num-waiting-apps` growing with nVM × nSL follows no axis.
        let waiting = rows_with(&|n_vm, n_sl, row| row[8] = (n_vm * n_sl) as f64);
        assert!(matches!(
            CandidateGrid::compile(&coords, &waiting),
            Err(SmartpickError::Ml(MlError::NonAxisColumn { column: 8 }))
        ));
    }
}
