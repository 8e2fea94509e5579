//! The driver checkpoint (`smartpick-store` support).
//!
//! [`DriverState`] captures everything [`crate::driver::Smartpick`] needs
//! to continue *exactly* where a crashed instance stopped, as the driver's
//! own parts: the published predictor (the same `Arc` readers hold — a
//! forest whose trees are their flat arrays, the known queries, the
//! similarity signatures), the MFE's pending batch, counters and
//! simulated-clock stream, the history records, and the driver's RNG
//! state. Exporting copies no tree. The binary encoding lives in
//! `smartpick-store`, which reads the predictor through its public
//! accessors and decodes straight back into it through
//! [`WorkloadPredictor::assemble`] and the `smartpick-ml` constructors
//! beneath it — their validation decides what a stored model may be.
//!
//! Restoration is exact for environments built via
//! [`smartpick_cloudsim::CloudEnv::new`] /
//! [`smartpick_cloudsim::CloudEnv::with_family`]: the environment is
//! encoded as `(provider, compute_optimised)`, which fully determines the
//! catalog, performance, pricing and boot models.

use std::sync::Arc;

use smartpick_ml::dataset::Dataset;

use crate::history::RunRecord;
use crate::properties::SmartpickProperties;
use crate::wp::WorkloadPredictor;

/// The MFE's checkpoint: the retrain monitor's pending batch and counters
/// plus the simulated clock stream.
#[derive(Debug, Clone)]
pub struct MfeState {
    /// Raw state of the clock/contention RNG.
    pub clock_state: [u64; 4],
    /// Simulated epoch seconds advanced so far.
    pub epoch: f64,
    /// Samples waiting for the next batch retrain, in the Table 3 schema
    /// ([`crate::features::QueryFeatures::names`]).
    pub pending: Dataset,
    /// Simulated free driver RAM, GB.
    pub free_ram_gb: u32,
    /// Retraining tasks fired so far.
    pub retrain_count: usize,
}

/// A complete driver checkpoint — everything [`crate::driver::Smartpick`]
/// needs to continue exactly where this state was captured.
#[derive(Debug, Clone)]
pub struct DriverState {
    /// The configured `smartpick.*` properties.
    pub props: SmartpickProperties,
    /// The trained predictor, shared with every reader of the snapshot it
    /// was published as.
    pub predictor: Arc<WorkloadPredictor>,
    /// All history records, oldest first.
    pub history: Vec<RunRecord>,
    /// The MFE checkpoint.
    pub mfe: MfeState,
    /// Raw state of the driver's per-submission RNG stream.
    pub rng_state: [u64; 4],
}
