//! # smartpick-ml
//!
//! The machine-learning substrate for the Smartpick reproduction, built
//! from scratch because the paper's predictor stack (scikit-learn Random
//! Forest + a Python Bayesian optimizer) has no mature Rust equivalent.
//!
//! Provided here:
//!
//! * [`dataset::Dataset`] — feature matrix + targets, shuffled hold-out
//!   splits, and the paper's **data-burst** augmentation heuristic (§5:
//!   jitter every sample by ±5% to inflate a ~100-sample workload set ~10×).
//! * [`tree::RegressionTree`] — CART regression tree (variance-reduction
//!   splits), held as flat parallel arrays (also its on-disk shape) and
//!   grown by a presorted, column-major builder: each column is
//!   sorted once per forest-growing call and expanded to every tree's
//!   bootstrap multiset by a stable counting sort, after which a node is a
//!   range that is only stable-partitioned into its children's — no sort
//!   and no allocation below a tree's root. A stable sort of a subset is
//!   the subset of the stable sort, so ties stay in sample-position order
//!   at every node and the trees are bit-identical to the ones per-node
//!   sorting grew (the argument is in the `tree` module's builder, with the
//!   replaced builder kept beside it as the property test's oracle).
//! * [`forest::RandomForest`] — bagged trees with feature subsampling and
//!   scikit-learn-style `warm_start` extension used for background
//!   retraining (§5 "Prediction model updates").
//! * [`lattice::Lattice`] — a `{nVM, nSL}` candidate grid compiled to what
//!   varies across it, so [`forest::RandomForest::predict_lattice_into`]
//!   descends each tree once per grid instead of once per candidate.
//! * [`gp::GaussianProcess`] — exact GP regression with an RBF kernel
//!   (Cholesky solve), the Bayesian optimizer's surrogate (§3.1).
//! * [`bayesopt::BayesianOptimizer`] — maximises a black-box objective over
//!   a discrete candidate set with Probability-of-Improvement acquisition
//!   (the paper's choice) plus EI and UCB for the ablation benches, and the
//!   paper's termination rule: stop after 10 consecutive probes with <1%
//!   improvement.
//! * [`metrics`] — RMSE, R², the regression standard error, and the
//!   paper's "within 2× standard error" accuracy criterion (§6.2).
//!
//! [`gp`], [`linalg`] and the acquisition functions serve only the paper's
//! reference search: `WorkloadPredictor::determine_reference` in
//! `smartpick_core`, the CherryPick baseline in `smartpick_baselines`, and
//! the ablation benches. The serving `determine` already holds every
//! candidate's forest prediction and searches it through
//! [`bayesopt::BayesianOptimizer::maximize_precomputed`], which fits no GP.
//!
//! ## Example: fit a forest and search it with BO
//!
//! ```
//! use smartpick_ml::dataset::Dataset;
//! use smartpick_ml::forest::{ForestParams, RandomForest};
//! use smartpick_ml::bayesopt::{Acquisition, BayesianOptimizer, BoParams};
//!
//! // y = -(x0 - 3)^2: maximum at x0 = 3.
//! let mut data = Dataset::new(vec!["x".into()]);
//! for i in 0..40 {
//!     let x = i as f64 / 4.0;
//!     data.push(vec![x], -(x - 3.0) * (x - 3.0));
//! }
//! let forest = RandomForest::fit(&data, &ForestParams::default(), 7)?;
//!
//! let candidates: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 4.0]).collect();
//! let bo = BayesianOptimizer::new(BoParams {
//!     acquisition: Acquisition::ProbabilityOfImprovement { xi: 0.01 },
//!     ..BoParams::default()
//! });
//! let result = bo.maximize(&candidates, 42, |x| forest.predict(x));
//! assert!((candidates[result.best_index][0] - 3.0).abs() <= 1.0);
//! # Ok::<(), smartpick_ml::MlError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod bayesopt;
pub mod dataset;
pub mod error;
pub mod forest;
pub mod gp;
pub mod lattice;
pub mod linalg;
pub mod metrics;
pub mod tree;

pub use bayesopt::{Acquisition, BayesianOptimizer, BoParams, BoResult};
pub use dataset::Dataset;
pub use error::MlError;
pub use forest::{ForestParams, RandomForest};
pub use gp::{GaussianProcess, GpParams};
pub use lattice::Lattice;
pub use tree::{RegressionTree, TreeParams};
