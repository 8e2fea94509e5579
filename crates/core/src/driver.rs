//! The Smartpick system facade — Figure 3's full workflow.
//!
//! On each submitted query (step 0): the Job Initializer asks WP for the
//! optimal `{nVM, nSL}` (1); unknown queries go through the Similarity
//! Checker (2); WP pulls features from MFE/History (3–5) and runs RF + BO;
//! with a non-zero knob the `ET_l` list is traversed (§3.3); the
//! determination returns (6) and the query runs on the simulated cloud
//! (7–8, [`simulate_query`]; in the paper the Resource Manager spawns
//! real instances); on completion MFE compares predicted vs actual and
//! fires background retraining when the error exceeds the trigger (9).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smartpick_cloudsim::CloudEnv;
use smartpick_engine::{simulate_query, Allocation, QueryProfile, RunReport};

use crate::error::SmartpickError;
use crate::history::{HistoryServer, RunRecord};
use crate::mfe::Mfe;
use crate::persist;
use crate::properties::SmartpickProperties;
use crate::retrain::{RetrainMonitor, RetrainReport};
use crate::sample::RunSample;
use crate::training::{train_predictor, TrainOptions, TrainReport};
use crate::wp::{
    ConstraintMode, Determination, PredictionRequest, WorkloadPredictionService, WorkloadPredictor,
};

/// Everything one submitted query produced.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// WP's resource determination (including `ET_l`).
    pub determination: Determination,
    /// The execution report (completion time, itemised cost).
    pub report: RunReport,
    /// Background retraining fired by this run, if any.
    pub retrain: Option<RetrainReport>,
}

impl QueryOutcome {
    /// Absolute prediction error, seconds.
    pub fn prediction_error(&self) -> f64 {
        (self.report.seconds() - self.determination.predicted_seconds).abs()
    }

    /// Prediction error relative to the actual runtime.
    ///
    /// Guards the degenerate zero-runtime run (a query whose simulated
    /// completion rounds to 0 s): dividing by it would return `inf` (or
    /// `NaN` for a perfect 0 s prediction), so the absolute error is
    /// returned instead — never `inf`/`NaN`.
    pub fn relative_prediction_error(&self) -> f64 {
        let actual = self.report.seconds();
        if actual == 0.0 {
            self.prediction_error()
        } else {
            self.prediction_error() / actual
        }
    }
}

/// The assembled Smartpick system.
///
/// The trained predictor (the hot read path) is held behind an [`Arc`]:
/// [`Smartpick::snapshot`] hands out an immutable, lock-free view that
/// concurrent readers can run predictions against while this driver
/// keeps training. Training mutations go through
/// [`Arc::make_mut`], i.e. copy-on-write: a retrain never perturbs
/// snapshots already handed out (cheap, since the forest shares its trees
/// by `Arc` too).
#[derive(Debug)]
pub struct Smartpick {
    props: SmartpickProperties,
    predictor: Arc<WorkloadPredictor>,
    history: HistoryServer,
    mfe: Mfe,
    rng: StdRng,
}

impl Smartpick {
    /// Trains a Smartpick instance on `training_queries` with default
    /// training options (the paper's 20-configs × data-burst recipe) and
    /// the relay setting taken from `props`.
    ///
    /// # Errors
    ///
    /// Propagates training failures; [`SmartpickError::NoTrainingData`]
    /// when `training_queries` is empty.
    pub fn train(
        env: CloudEnv,
        props: SmartpickProperties,
        training_queries: &[QueryProfile],
        seed: u64,
    ) -> Result<Self, SmartpickError> {
        let opts = TrainOptions {
            relay: props.relay,
            ..TrainOptions::default()
        };
        Self::train_with_options(env, props, training_queries, &opts, seed).map(|(s, _)| s)
    }

    /// Trains with explicit options, also returning the quality report.
    ///
    /// # Errors
    ///
    /// See [`Smartpick::train`].
    pub fn train_with_options(
        env: CloudEnv,
        props: SmartpickProperties,
        training_queries: &[QueryProfile],
        options: &TrainOptions,
        seed: u64,
    ) -> Result<(Self, TrainReport), SmartpickError> {
        let (predictor, report) = train_predictor(&env, training_queries, options, seed)?;
        Ok((
            Smartpick {
                mfe: Mfe::new(env, props.clone(), seed ^ MFE_SEED_MIX),
                props,
                predictor: Arc::new(predictor),
                history: HistoryServer::new(),
                rng: StdRng::seed_from_u64(seed ^ DRIVER_SEED_MIX),
            },
            report,
        ))
    }

    /// Creates an independent driver that starts from this one's trained
    /// model but owns fresh monitoring, history and RNG state.
    ///
    /// The model itself is shared copy-on-write (an `Arc` bump, no deep
    /// clone); the two drivers diverge from the first retrain onward. This
    /// is the cheap way to bootstrap many tenants from one kick-start
    /// training run.
    pub fn fork(&self, seed: u64) -> Smartpick {
        Smartpick {
            mfe: Mfe::new(
                self.predictor.env().clone(),
                self.props.clone(),
                seed ^ MFE_SEED_MIX,
            ),
            props: self.props.clone(),
            predictor: Arc::clone(&self.predictor),
            history: HistoryServer::new(),
            rng: StdRng::seed_from_u64(seed ^ DRIVER_SEED_MIX),
        }
    }

    /// Submits a query through the full Figure 3 workflow with the
    /// configured knob and the unrestricted hybrid search.
    ///
    /// # Errors
    ///
    /// Propagates prediction and execution failures.
    pub fn submit(&mut self, query: &QueryProfile) -> Result<QueryOutcome, SmartpickError> {
        self.submit_with(query, self.props.knob, ConstraintMode::Hybrid)
    }

    /// Submits with an explicit knob and search constraint (the baselines
    /// of §6.3 use `VmOnly` / `SlOnly` / `EqualSlVm`).
    ///
    /// # Errors
    ///
    /// Propagates prediction and execution failures.
    pub fn submit_with(
        &mut self,
        query: &QueryProfile,
        knob: f64,
        constraint: ConstraintMode,
    ) -> Result<QueryOutcome, SmartpickError> {
        // Steps 1–6: determine the configuration.
        let seed: u64 = self.rng.gen();
        let determination = self.predictor.determine(&PredictionRequest {
            query: query.clone(),
            knob,
            constraint,
            seed,
        })?;

        // Steps 7–8: spawn and execute.
        let run_seed: u64 = self.rng.gen();
        let report = simulate_query(
            query,
            &determination.allocation,
            self.predictor.env(),
            run_seed,
        )?;

        // Step 9: record, monitor, maybe retrain.
        let retrain = self.apply_report(query, &determination, &report)?;

        Ok(QueryOutcome {
            determination,
            report,
            retrain,
        })
    }

    /// Applies one completed run to the training state — Figure 3's step 9
    /// (record, monitor, maybe retrain) decoupled from prediction and
    /// execution: [`Smartpick::apply_sample`] on the run's projection.
    ///
    /// # Errors
    ///
    /// Propagates retraining failures.
    pub fn apply_report(
        &mut self,
        query: &QueryProfile,
        determination: &Determination,
        report: &RunReport,
    ) -> Result<Option<RetrainReport>, SmartpickError> {
        self.apply_sample(&RunSample::project(query, determination, report))
    }

    /// Applies one run's [`RunSample`] to the training state.
    ///
    /// This is the *write half* of the split read/write API: a service
    /// front-end predicts against [`Smartpick::snapshot`] without touching
    /// the driver, then feeds each run's sample back through here (possibly batched,
    /// from a background worker, or replayed from a log — the sample is
    /// everything this reads, so all three are the same call). Retraining
    /// mutates the predictor copy-on-write, so snapshots taken earlier are
    /// unaffected; republish a fresh snapshot afterwards to pick up the
    /// new model.
    ///
    /// # Errors
    ///
    /// Propagates retraining failures.
    pub fn apply_sample(
        &mut self,
        sample: &RunSample,
    ) -> Result<Option<RetrainReport>, SmartpickError> {
        let ctx = self.mfe.next_context();
        let error = (sample.actual_seconds - sample.predicted_seconds).abs();
        let will_trigger = error > self.props.error_difference_trigger_secs;

        // An alien query that surprised us becomes a known query with its
        // own code before its sample enters the training batch (§4.2);
        // otherwise the sample would teach the model wrong things about
        // the similarity-matched query. A well-predicted alien's sample
        // stays under the matched code — it behaved like that query.
        let code = match &sample.profile {
            Some(profile) if will_trigger => {
                Arc::make_mut(&mut self.predictor).register_query(profile)
            }
            _ => self
                .predictor
                .code_of(&sample.matched_query)
                .unwrap_or(-1.0),
        };
        let features = self.mfe.features_for(
            code,
            sample.input_gb,
            &Allocation::new(sample.n_vm, sample.n_sl),
            &ctx,
        );
        let record = RunRecord {
            query_id: sample.query_id.clone(),
            features,
            actual_seconds: sample.actual_seconds,
            predicted_seconds: sample.predicted_seconds,
            cost_dollars: sample.cost_dollars,
        };
        let trigger = self.mfe.after_run(&mut self.history, record);

        match trigger {
            Some(trigger) => {
                let retrain_seed: u64 = self.rng.gen();
                Ok(Some(self.mfe.monitor_mut().retrain(
                    Arc::make_mut(&mut self.predictor),
                    trigger,
                    retrain_seed,
                )?))
            }
            None => Ok(None),
        }
    }

    /// The trained predictor (read access).
    pub fn predictor(&self) -> &WorkloadPredictor {
        &self.predictor
    }

    /// An immutable snapshot of the trained predictor.
    ///
    /// The snapshot is an `Arc` bump — no model copy — and stays valid
    /// (predicting from the model as of now) across later retrains, which
    /// replace the driver's predictor copy-on-write instead of mutating
    /// it in place. This is the lock-free read path a concurrent service
    /// front-end serves `predict`/`determine` from.
    pub fn snapshot(&self) -> Arc<WorkloadPredictor> {
        Arc::clone(&self.predictor)
    }

    /// The history server.
    pub fn history(&self) -> &HistoryServer {
        &self.history
    }

    /// The configured properties.
    pub fn properties(&self) -> &SmartpickProperties {
        &self.props
    }

    /// Background retraining tasks fired so far.
    pub fn retrain_count(&self) -> usize {
        self.mfe.monitor().retrain_count()
    }

    /// Captures a complete checkpoint of this driver — the export half of
    /// the persistence surface (see [`crate::persist`]).
    ///
    /// The checkpoint covers the trained predictor, the MFE monitor and
    /// its simulated clock stream, the history records and the driver's
    /// own RNG state, so a [`Smartpick::from_state`] restore continues
    /// *exactly* where this driver stood: the same reports applied in the
    /// same order produce bit-identical models on both sides. The
    /// predictor is the published [`Smartpick::snapshot`] itself, so no
    /// tree is copied.
    pub fn export_state(&self) -> persist::DriverState {
        let monitor = self.mfe.monitor();
        persist::DriverState {
            props: self.props.clone(),
            predictor: self.snapshot(),
            history: self.history.snapshot(),
            mfe: persist::MfeState {
                clock_state: self.mfe.clock_state(),
                epoch: self.mfe.sim_epoch(),
                pending: monitor.pending().clone(),
                free_ram_gb: monitor.free_ram_gb,
                retrain_count: monitor.retrain_count(),
            },
            rng_state: self.rng.state(),
        }
    }

    /// Rebuilds a driver from an [`Smartpick::export_state`] checkpoint —
    /// the restore half of the persistence surface. Its parts are already
    /// valid (a decoded one went through the predictor's validating
    /// constructor), so they are taken as they are.
    ///
    /// Exactness caveat: only environments built via `CloudEnv::new` /
    /// `CloudEnv::with_family` round-trip (see [`crate::persist`]).
    pub fn from_state(state: persist::DriverState) -> Smartpick {
        let persist::DriverState {
            props,
            predictor,
            history,
            mfe,
            rng_state,
        } = state;
        let env = predictor.env().clone();
        let monitor = RetrainMonitor::restore(
            props.clone(),
            mfe.pending,
            mfe.free_ram_gb,
            mfe.retrain_count,
        );
        Smartpick {
            mfe: Mfe::restore(env, monitor, mfe.clock_state, mfe.epoch),
            props,
            predictor,
            history: HistoryServer::from_records(history),
            rng: StdRng::from_state(rng_state),
        }
    }
}

/// Mixed into the training seed so the driver's per-submission RNG stream
/// differs from the trainer's.
const DRIVER_SEED_MIX: u64 = 0xD21F;

/// Mixed into the training seed for the MFE's simulated clock/contention
/// stream (shared by training and forking so both derive it identically).
const MFE_SEED_MIX: u64 = 0x11FE;

#[cfg(test)]
mod tests {
    use super::*;
    use smartpick_cloudsim::Provider;
    use smartpick_ml::forest::ForestParams;
    use smartpick_workloads::tpcds;

    fn quick_opts() -> TrainOptions {
        TrainOptions {
            configs_per_query: 6,
            burst_factor: 3,
            forest: ForestParams {
                n_trees: 20,
                ..ForestParams::default()
            },
            max_vm: 5,
            max_sl: 5,
            ..TrainOptions::default()
        }
    }

    fn system() -> Smartpick {
        let env = CloudEnv::new(Provider::Aws);
        let queries: Vec<_> = [82u32, 68]
            .iter()
            .map(|&q| tpcds::query(q, 100.0).unwrap())
            .collect();
        Smartpick::train_with_options(
            env,
            SmartpickProperties::default(),
            &queries,
            &quick_opts(),
            5,
        )
        .unwrap()
        .0
    }

    #[test]
    fn submit_known_query_end_to_end() {
        let mut sp = system();
        let q = tpcds::query(82, 100.0).unwrap();
        let outcome = sp.submit(&q).unwrap();
        assert!(outcome.determination.known_query);
        assert!(outcome.report.seconds() > 0.0);
        assert!(outcome.report.total_cost().dollars() > 0.0);
        assert_eq!(sp.history().len(), 1);
    }

    #[test]
    fn alien_query_is_matched_and_possibly_retrained() {
        let mut sp = system();
        // q62 is the alien counterpart of q68.
        let q = tpcds::query(62, 100.0).unwrap();
        let outcome = sp.submit(&q).unwrap();
        assert!(!outcome.determination.known_query);
        assert_eq!(outcome.determination.matched_query, "tpcds-q68");
    }

    #[test]
    fn a_sample_carries_the_profile_only_for_an_alien_and_registers_it_on_surprise() {
        let mut sp = system();
        let known = tpcds::query(82, 100.0).unwrap();
        let outcome = sp.submit(&known).unwrap();
        let sample = RunSample::project(&known, &outcome.determination, &outcome.report);
        assert!(sample.profile.is_none());
        assert_eq!(sample.actual_seconds, outcome.report.seconds());
        assert_eq!(sample.cost_dollars, outcome.report.total_cost().dollars());

        let alien = tpcds::query(62, 100.0).unwrap();
        let snap = sp.snapshot();
        let determination = snap
            .determine(&PredictionRequest::new(alien.clone(), 3))
            .unwrap();
        let report = simulate_query(&alien, &determination.allocation, snap.env(), 4).unwrap();
        let mut sample = RunSample::project(&alien, &determination, &report);
        assert_eq!(sample.profile.as_ref(), Some(&alien));
        assert_eq!(sample.matched_query, "tpcds-q68");
        // A surprising alien run becomes a known query through the sample
        // alone — the profile it carries is all `register_query` needs.
        assert!(sp.predictor().code_of(&alien.id).is_none());
        sample.predicted_seconds = sample.actual_seconds + 500.0;
        assert!(sp.apply_sample(&sample).unwrap().is_some());
        assert_eq!(sp.predictor().code_of(&alien.id), Some(2.0));
        let newest = sp.history().snapshot().pop().unwrap();
        assert_eq!(newest.features.query_code, 2.0);
    }

    #[test]
    fn prediction_accuracy_is_usable() {
        let mut sp = system();
        let q = tpcds::query(68, 100.0).unwrap();
        let outcome = sp.submit(&q).unwrap();
        let rel = outcome.prediction_error() / outcome.report.seconds();
        assert!(rel < 0.5, "relative error {rel}");
    }

    #[test]
    fn relative_error_guards_zero_runtime() {
        let mut sp = system();
        let q = tpcds::query(82, 100.0).unwrap();
        let mut outcome = sp.submit(&q).unwrap();
        assert!(outcome.relative_prediction_error().is_finite());
        // Force the degenerate zero-second run: the relative error must
        // fall back to the absolute error instead of inf/NaN.
        outcome.report.completion = smartpick_cloudsim::SimDuration::ZERO;
        let rel = outcome.relative_prediction_error();
        assert!(rel.is_finite());
        assert_eq!(rel, outcome.prediction_error());
    }

    #[test]
    fn snapshot_survives_retrain_unchanged() {
        let mut sp = system();
        let snap = sp.snapshot();
        let q = tpcds::query(82, 100.0).unwrap();
        let probe = PredictionRequest::new(q.clone(), 99);
        let before = snap.determine(&probe).unwrap().predicted_seconds;

        // Feed a wildly mispredicted run through the write path so a
        // retrain fires and the driver's predictor is republished.
        let outcome = sp.submit(&q).unwrap();
        let mut report = outcome.report.clone();
        report.completion = smartpick_cloudsim::SimDuration::from_secs_f64(
            outcome.determination.predicted_seconds + 500.0,
        );
        let retrain = sp
            .apply_report(&q, &outcome.determination, &report)
            .unwrap();
        assert!(retrain.is_some(), "big error fires a retrain");

        // The old snapshot is bit-for-bit stable; a fresh one reflects
        // the new model.
        assert_eq!(snap.determine(&probe).unwrap().predicted_seconds, before);
        let after = sp.snapshot().determine(&probe).unwrap().predicted_seconds;
        assert_ne!(after, before, "retrain must move the live model");
    }

    #[test]
    fn fork_shares_model_but_not_state() {
        let mut sp = system();
        let q = tpcds::query(82, 100.0).unwrap();
        sp.submit(&q).unwrap();
        let mut forked = sp.fork(1234);
        // Forks share the trained model (same Arc until a retrain)...
        assert!(Arc::ptr_eq(&sp.snapshot(), &forked.snapshot()));
        // ...but not history.
        assert_eq!(forked.history().len(), 0);
        forked.submit(&q).unwrap();
        assert_eq!(forked.history().len(), 1);
        assert_eq!(sp.history().len(), 1);
    }

    #[test]
    fn export_restore_twin_stays_bit_identical() {
        let mut sp = system();
        let q = tpcds::query(82, 100.0).unwrap();
        sp.submit(&q).unwrap();

        // Checkpoint mid-stream, restore a twin, and drive both through
        // the same workload: every stochastic draw must line up, so
        // outcomes stay bit-identical indefinitely.
        let state = sp.export_state();
        // The checkpoint holds the published model, not a copy of it.
        assert!(Arc::ptr_eq(&state.predictor, &sp.snapshot()));
        let mut twin = Smartpick::from_state(state);
        assert_eq!(twin.history().len(), sp.history().len());

        for round in 0..3 {
            let a = sp.submit(&q).unwrap();
            let b = twin.submit(&q).unwrap();
            assert_eq!(
                a.determination.predicted_seconds.to_bits(),
                b.determination.predicted_seconds.to_bits(),
                "round {round}: predictions diverged"
            );
            assert_eq!(
                a.report.seconds().to_bits(),
                b.report.seconds().to_bits(),
                "round {round}: executions diverged"
            );
        }

        // Force a retrain on both via the same mispredicted report; the
        // retrained models must also match exactly.
        let outcome = sp.submit(&q).unwrap();
        let twin_outcome = twin.submit(&q).unwrap();
        let mut report = outcome.report.clone();
        report.completion = smartpick_cloudsim::SimDuration::from_secs_f64(
            outcome.determination.predicted_seconds + 500.0,
        );
        let mut twin_report = twin_outcome.report.clone();
        twin_report.completion = report.completion;
        let r1 = sp
            .apply_report(&q, &outcome.determination, &report)
            .unwrap();
        let r2 = twin
            .apply_report(&q, &twin_outcome.determination, &twin_report)
            .unwrap();
        assert!(r1.is_some() && r2.is_some(), "both twins retrain");
        assert_eq!(sp.retrain_count(), twin.retrain_count());

        let probe = PredictionRequest::new(q, 424_242);
        assert_eq!(
            sp.predictor()
                .determine(&probe)
                .unwrap()
                .predicted_seconds
                .to_bits(),
            twin.predictor()
                .determine(&probe)
                .unwrap()
                .predicted_seconds
                .to_bits()
        );
    }

    #[test]
    fn repeated_submissions_accumulate_history() {
        let mut sp = system();
        let q = tpcds::query(82, 100.0).unwrap();
        for _ in 0..3 {
            sp.submit(&q).unwrap();
        }
        assert_eq!(sp.history().len(), 3);
        let ids = sp.history().snapshot();
        assert!(ids.iter().all(|r| r.query_id == "tpcds-q82"));
    }
}
