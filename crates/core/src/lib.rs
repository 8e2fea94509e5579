//! # smartpick-core
//!
//! The primary contribution of the Smartpick paper (Middleware '23),
//! reproduced in Rust: a workload-prediction system that determines, per
//! data-analytics query, the optimal mix of **serverless (SL) and VM**
//! compute — `{nVM, nSL}` — to meet cost–performance goals.
//!
//! Architecture (the paper's Figure 3), one module per component:
//!
//! * [`features`] — the Table 3 feature schema the predictor consumes.
//! * [`history`] — the **History Server** keeping the last runs' metrics.
//! * [`mfe`] — **Monitor & Feature Extraction**: assembles prediction
//!   inputs from history and watches prediction error.
//! * [`similarity`] — the **Similarity Checker** for alien queries
//!   (spatial cosine similarity over (tables, columns, subqueries,
//!   map-tasks), §4.2).
//! * [`wp`] — **Workload Prediction**: the Random-Forest regressor coupled
//!   with a Bayesian optimizer (PI acquisition, 1%-for-10-probes
//!   termination) searching the `{nVM, nSL}` space (§3.1–3.2).
//! * [`tradeoff`] — the cost–performance **knob** ε (Equation 4, §3.3).
//! * [`planner`] — the closed-form time/cost model behind §2.2's
//!   illustrative example and the knob's cost constraint.
//! * [`retrain`] — event-driven **background retraining** with the
//!   data-burst heuristic (§4.2, §5).
//! * [`training`] — initial model construction (the paper's CLI kick-start
//!   path: 20 random configs × 5 queries → ±5% burst → 80:20 split).
//! * [`properties`] — the Table 4 `smartpick.*` property set.
//! * [`driver`] — the [`driver::Smartpick`] facade wiring it all together
//!   (Figure 3's steps 0–9). The paper's Resource Manager, which spawns
//!   instances in a real cloud (§4.1, §5), is not a component here: a
//!   submitted query runs on the simulator through
//!   [`smartpick_engine::simulate_query`].
//! * [`sample`] — [`RunSample`], the projection of a completed run onto
//!   what step 9 reads: the one value the feedback path carries and logs.
//! * [`persist`] — the driver checkpoint for durable tenant state: the
//!   driver's own parts (the published predictor, the MFE's pending batch
//!   and clock, history, RNG), which `smartpick-store` encodes and decodes
//!   straight back into.
//!
//! ## Quickstart
//!
//! ```no_run
//! use smartpick_cloudsim::{CloudEnv, Provider};
//! use smartpick_core::driver::Smartpick;
//! use smartpick_core::properties::SmartpickProperties;
//! use smartpick_workloads::tpcds;
//!
//! let env = CloudEnv::new(Provider::Aws);
//! let props = SmartpickProperties::default();
//! let training: Vec<_> = tpcds::TRAINING_QUERIES
//!     .iter()
//!     .map(|&q| tpcds::query(q, 100.0).expect("catalog query"))
//!     .collect();
//! let mut smartpick = Smartpick::train(env, props, &training, 42)?;
//! let outcome = smartpick.submit(&tpcds::query(11, 100.0).expect("catalog query"))?;
//! println!(
//!     "q11 ran in {:.1}s for {} with {}",
//!     outcome.report.seconds(),
//!     outcome.report.total_cost(),
//!     outcome.determination.allocation
//! );
//! # Ok::<(), smartpick_core::SmartpickError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod driver;
pub mod error;
pub mod features;
pub mod history;
pub mod mfe;
pub mod persist;
pub mod planner;
pub mod properties;
pub mod retrain;
pub mod sample;
pub mod similarity;
pub mod tradeoff;
pub mod training;
pub mod wp;

pub use driver::{QueryOutcome, Smartpick};
pub use error::SmartpickError;
pub use features::QueryFeatures;
pub use history::HistoryServer;
pub use properties::SmartpickProperties;
pub use sample::RunSample;
pub use similarity::SimilarityChecker;
pub use wp::{
    ConstraintMode, Determination, PredictionRequest, WorkloadPredictionService, WorkloadPredictor,
};
