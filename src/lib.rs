//! # smartpick
//!
//! Umbrella crate for the **Smartpick** reproduction (Mohapatra & Oh,
//! "Smartpick: Workload Prediction for Serverless-enabled Scalable Data
//! Analytics Systems", Middleware '23): re-exports every workspace crate
//! under one roof and hosts the runnable examples and cross-crate
//! integration tests.
//!
//! * [`core`] — the paper's contribution: RF + BO workload prediction,
//!   cost–performance knob, relay instances, similarity checking,
//!   event-driven retraining.
//! * [`cloudsim`] — the simulated AWS/GCP substrate.
//! * [`engine`] — the Spark-like DAG execution engine.
//! * [`ml`] — Random Forest / Gaussian Process / Bayesian Optimizer.
//! * [`obs`] — observability: lock-light metrics registry, structured
//!   event log, scrape/health envelopes.
//! * [`service`] — "smartpickd": the concurrent multi-tenant prediction
//!   service (sharded tenant registry, snapshot reads, sharded
//!   self-restarting retrain workers and their restart policy).
//! * [`wire`] — the framed JSON-over-TCP front-end and typed blocking
//!   client for smartpickd.
//! * [`sqlmeta`] — SQL metadata extraction and cosine similarity.
//! * [`workloads`] — TPC-DS / TPC-H / WordCount profiles.
//! * [`baselines`] — Cocoa, SplitServe, CherryPick, OptimusCloud, LIBRA.
//!
//! ## Quickstart
//!
//! ```no_run
//! use smartpick::cloudsim::{CloudEnv, Provider};
//! use smartpick::core::driver::Smartpick;
//! use smartpick::core::properties::SmartpickProperties;
//! use smartpick::workloads::tpcds;
//!
//! let env = CloudEnv::new(Provider::Aws);
//! let training: Vec<_> = tpcds::TRAINING_QUERIES
//!     .iter()
//!     .map(|&q| tpcds::query(q, 100.0).expect("catalog query"))
//!     .collect();
//! let mut system = Smartpick::train(env, SmartpickProperties::default(), &training, 42)?;
//! let outcome = system.submit(&tpcds::query(11, 100.0).expect("catalog query"))?;
//! println!("{} in {:.1}s", outcome.determination.allocation, outcome.report.seconds());
//! # Ok::<(), smartpick::core::SmartpickError>(())
//! ```

pub use smartpick_baselines as baselines;
pub use smartpick_cloudsim as cloudsim;
pub use smartpick_core as core;
pub use smartpick_engine as engine;
pub use smartpick_ml as ml;
pub use smartpick_obs as obs;
pub use smartpick_service as service;
pub use smartpick_sqlmeta as sqlmeta;
pub use smartpick_wire as wire;
pub use smartpick_workloads as workloads;
