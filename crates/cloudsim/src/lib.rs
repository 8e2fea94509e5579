//! # smartpick-cloudsim
//!
//! A deterministic discrete-event **cloud simulator** that stands in for the
//! live AWS / GCP testbeds used by the Smartpick paper (Middleware '23).
//!
//! The simulator models exactly the aspects of a public cloud that the
//! paper's evaluation depends on:
//!
//! * **Two providers** ([`Provider::Aws`], [`Provider::Gcp`]) with the
//!   microbenchmark performance profile of the paper's Table 5 (cloud-storage
//!   bandwidth, VM I/O, memory, VM CPU, SL CPU).
//! * **Instance catalogs** mirroring the paper's §6.1 testbed: `t3.small`,
//!   `t3.xlarge` and Lambda-2GB on AWS; `e2-small`, `e2-standard-4` and
//!   Cloud Functions 2GB on GCP ([`catalog`]).
//! * **Billing** per the paper's §5 cost-estimation rules: per-second VM
//!   billing plus burstable vCPU surcharge plus per-instance gp2 storage;
//!   per-millisecond (AWS) or per-100ms (GCP) serverless billing over the
//!   whole invocation lifetime; and an external Redis host billed whenever at
//!   least one serverless instance participates in a query ([`pricing`]).
//! * **Boot latency**: sub-100ms serverless starts versus tens-of-seconds VM
//!   cold boots ([`boot`]), with the paper's planning value (55 s from the
//!   literature) kept distinct from the measured testbed value (~31.5 s).
//! * A generic **discrete-event queue** ([`events::EventQueue`]) and an
//!   instance-lifecycle **cluster** ([`cluster::Cluster`]) with cost
//!   metering ([`cost::CostReport`]).
//!
//! Everything stochastic is driven by an explicit seed so simulations are
//! reproducible run-to-run.
//!
//! ## Example
//!
//! ```
//! use smartpick_cloudsim::{CloudEnv, Provider};
//!
//! let env = CloudEnv::new(Provider::Aws);
//! let vm = env.catalog().worker_vm();
//! assert_eq!(vm.vcpus, 2);
//! // Lambda-2GB costs ~5.8x a t3.small per unit time (paper Table 1).
//! let ratio = env.catalog().worker_sl().hourly_equivalent_price().dollars()
//!     / vm.hourly_price.dollars();
//! assert!(ratio > 5.0 && ratio < 6.5);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod boot;
pub mod catalog;
pub mod cluster;
pub mod cost;
pub mod error;
pub mod events;
pub mod instance;
pub mod money;
pub mod perf;
pub mod pricing;
pub mod provider;
pub mod rngutil;
pub mod time;

pub use catalog::{Catalog, InstanceKind, InstanceType};
pub use cluster::Cluster;
pub use cost::{CostItem, CostKind, CostReport};
pub use error::CloudSimError;
pub use events::EventQueue;
pub use instance::{Instance, InstanceId, InstanceState, RequestId};
pub use money::Money;
pub use perf::PerfProfile;
pub use pricing::PricingModel;
pub use provider::Provider;
pub use time::{SimDuration, SimTime};

use boot::BootModel;

/// A complete simulated cloud environment for one provider: catalog,
/// performance profile, pricing and boot models.
///
/// This is the root object the execution engine and Smartpick's resource
/// manager talk to. It is cheap to clone.
///
/// # Example
///
/// ```
/// use smartpick_cloudsim::{CloudEnv, Provider};
/// let aws = CloudEnv::new(Provider::Aws);
/// let gcp = CloudEnv::new(Provider::Gcp);
/// // GCP's e2-small has no burstable surcharge (paper §6.1).
/// assert!(aws.pricing().burst_surcharge_per_vcpu_hour().dollars() > 0.0);
/// assert_eq!(gcp.pricing().burst_surcharge_per_vcpu_hour().dollars(), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct CloudEnv {
    provider: Provider,
    catalog: Catalog,
    perf: PerfProfile,
    pricing: PricingModel,
    boot: BootModel,
}

impl CloudEnv {
    /// Creates the default environment for `provider`, mirroring the paper's
    /// §6.1 testbed configuration.
    pub fn new(provider: Provider) -> Self {
        CloudEnv {
            provider,
            catalog: Catalog::for_provider(provider),
            perf: PerfProfile::for_provider(provider),
            pricing: PricingModel::for_provider(provider),
            boot: BootModel::for_provider(provider),
        }
    }

    /// Creates an environment with an alternative VM worker family — the
    /// paper's `smartpick.cloud.compute.instanceFamily` property (Table 4)
    /// and its §7 note that larger families open "another richer tradeoff
    /// space". Compute-optimised families (`c3`/`c5`/`c2`) get ~25% faster
    /// cores, more memory, a higher hourly price and no burstable
    /// surcharge; unknown names behave like [`CloudEnv::new`].
    pub fn with_family(provider: Provider, family: &str) -> Self {
        let catalog = Catalog::for_family(provider, family);
        let mut perf = PerfProfile::for_provider(provider);
        let mut pricing = PricingModel::for_provider(provider);
        if catalog.is_compute_optimised() {
            perf.vm_cpu_events_s *= 1.25;
            pricing = pricing.without_burst_surcharge();
        }
        CloudEnv {
            provider,
            catalog,
            perf,
            pricing,
            boot: BootModel::for_provider(provider),
        }
    }

    /// The provider this environment simulates.
    pub fn provider(&self) -> Provider {
        self.provider
    }

    /// Instance catalog (types, sizes, prices).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Microbenchmark performance profile (paper Table 5).
    pub fn perf(&self) -> &PerfProfile {
        &self.perf
    }

    /// Billing rules (paper §5, "Cost estimation").
    pub fn pricing(&self) -> &PricingModel {
        &self.pricing
    }

    /// Boot-latency model (paper §2.2 / §6.1).
    pub fn boot(&self) -> &BootModel {
        &self.boot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_roundtrip() {
        let env = CloudEnv::new(Provider::Aws);
        assert_eq!(env.provider(), Provider::Aws);
        assert_eq!(env.catalog().worker_vm().vcpus, 2);
    }

    #[test]
    fn both_providers_have_distinct_perf() {
        let aws = CloudEnv::new(Provider::Aws);
        let gcp = CloudEnv::new(Provider::Gcp);
        assert!(aws.perf().cloud_storage_mib_s > gcp.perf().cloud_storage_mib_s);
    }

    #[test]
    fn compute_family_is_faster_without_burst_surcharge() {
        let t3 = CloudEnv::new(Provider::Aws);
        let c5 = CloudEnv::with_family(Provider::Aws, "c5");
        assert!(c5.perf().vm_cpu_events_s > t3.perf().vm_cpu_events_s);
        assert_eq!(c5.pricing().burst_surcharge_per_vcpu_hour().dollars(), 0.0);
        assert_eq!(c5.catalog().worker_vm().name, "c5.large");
        // Unknown families behave like the default.
        let fallback = CloudEnv::with_family(Provider::Aws, "z1");
        assert_eq!(fallback.catalog().worker_vm().name, "t3.small");
    }
}
