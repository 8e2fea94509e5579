//! The `smartpick.*` property set (the paper's Table 4).
//!
//! "Spark applications can easily utilize Smartpick by setting these
//! properties without any modification" (§5). Defaults match Table 4.

use serde::{Deserialize, Serialize};
use smartpick_cloudsim::Provider;

/// Smartpick configuration properties (Table 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmartpickProperties {
    /// `smartpick.cloud.compute.provider` — target provider (default AWS).
    pub provider: Provider,
    /// `smartpick.cloud.compute.instanceFamily` — VM family (default `t3`).
    pub instance_family: String,
    /// `smartpick.cloud.compute.relay` — relay-instances on (default true).
    pub relay: bool,
    /// `smartpick.cloud.compute.knob` — cost–performance knob ε
    /// (default 0 = best performance).
    pub knob: f64,
    /// `smartpick.train.max.batch` — batch size for incremental retraining
    /// (default 100).
    pub max_batch: usize,
    /// `smartpick.train.pref.sameInstance` — retrain on the same instance
    /// (default false: use a separate instance, which §6.5.2 recommends).
    pub same_instance_retrain: bool,
    /// `smartpick.train.min.ram.gb` — minimum free RAM for same-instance
    /// retraining (default 4).
    pub min_ram_gb: u32,
    /// `smartpick.train.errorDifference.trigger` — retrain when
    /// |actual − predicted| exceeds this many seconds (default 50).
    pub error_difference_trigger_secs: f64,
}

impl Default for SmartpickProperties {
    fn default() -> Self {
        SmartpickProperties {
            provider: Provider::Aws,
            instance_family: "t3".to_owned(),
            relay: true,
            knob: 0.0,
            max_batch: 100,
            same_instance_retrain: false,
            min_ram_gb: 4,
            error_difference_trigger_secs: 50.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_4() {
        let p = SmartpickProperties::default();
        assert_eq!(p.provider, Provider::Aws);
        assert_eq!(p.instance_family, "t3");
        assert!(p.relay);
        assert_eq!(p.knob, 0.0);
        assert_eq!(p.max_batch, 100);
        assert!(!p.same_instance_retrain);
        assert_eq!(p.min_ram_gb, 4);
        assert_eq!(p.error_difference_trigger_secs, 50.0);
    }
}
