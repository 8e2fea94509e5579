//! Instance catalogs mirroring the paper's §6.1 testbed.
//!
//! On AWS: `t3.small` workers (2 vCPU / 2 GiB), a `t3.xlarge` master that
//! also hosts the external Redis store, and Lambda-2GB serverless workers
//! (2 vCPU per invocation). On GCP: `e2-small`, `e2-standard-4` and Cloud
//! Functions 2GB respectively. Prices are public list prices (us-east).

use std::fmt;

use crate::money::Money;
use crate::provider::Provider;

/// Whether an instance type is a long-lived VM or a serverless invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceKind {
    /// A virtual machine billed per second while deployed.
    Vm,
    /// A serverless function invocation billed per millisecond (AWS) or per
    /// 100 ms (GCP) only while it exists.
    Serverless,
}

impl fmt::Display for InstanceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceKind::Vm => f.write_str("VM"),
            InstanceKind::Serverless => f.write_str("SL"),
        }
    }
}

/// One entry of a provider's instance catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceType {
    /// Provider-facing name, e.g. `t3.small` or `lambda-2048`.
    pub name: &'static str,
    /// VM or serverless.
    pub kind: InstanceKind,
    /// Number of virtual CPUs available to one instance.
    pub vcpus: u32,
    /// Memory in MiB.
    pub memory_mib: u32,
    /// On-demand price per hour for VMs; for serverless this is zero and
    /// [`InstanceType::sl_price_per_gib_second`] applies instead.
    pub hourly_price: Money,
    /// Serverless price per GiB-second of configured memory (zero for VMs).
    pub sl_price_per_gib_second: Money,
    /// Serverless per-request charge (zero for VMs).
    pub sl_price_per_request: Money,
}

impl InstanceType {
    /// The price of running this instance for one hour, expressed uniformly
    /// for VMs and serverless. Used to reproduce the paper's Table 1 claim
    /// that serverless unit-time cost is "up to 5.8X" a VM of the same size.
    pub fn hourly_equivalent_price(&self) -> Money {
        match self.kind {
            InstanceKind::Vm => self.hourly_price,
            InstanceKind::Serverless => {
                let gib = self.memory_mib as f64 / 1024.0;
                self.sl_price_per_gib_second * (gib * 3600.0)
            }
        }
    }

    /// Executor slots this instance offers to the scheduler (one per vCPU).
    pub fn slots(&self) -> u32 {
        self.vcpus
    }
}

/// The set of instance types one provider offers in this simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    provider: Provider,
    worker_vm: InstanceType,
    master_vm: InstanceType,
    worker_sl: InstanceType,
}

impl Catalog {
    /// A catalog for the given VM family. `t3`/`e2` (the default burstable
    /// family of §6.1) is the baseline; `c5`/`c2` swaps in
    /// compute-optimised workers — the paper's §7 observation that "larger
    /// (expensive) VM instance family, e.g. AWS c3, opens another richer
    /// tradeoff space". Unknown family names fall back to the default.
    pub fn for_family(provider: Provider, family: &str) -> Self {
        let mut catalog = Catalog::for_provider(provider);
        let compute_optimised = matches!(family, "c3" | "c5" | "c2" | "compute");
        if compute_optimised {
            catalog.worker_vm = match provider {
                // c5.large: 2 vCPU / 4 GiB, ~25% faster cores, $0.085/h.
                Provider::Aws => InstanceType {
                    name: "c5.large",
                    kind: InstanceKind::Vm,
                    vcpus: 2,
                    memory_mib: 4096,
                    hourly_price: Money::from_dollars(0.085),
                    sl_price_per_gib_second: Money::ZERO,
                    sl_price_per_request: Money::ZERO,
                },
                // c2-standard-2 equivalent: 2 vCPU / 8 GiB, $0.1044/h.
                Provider::Gcp => InstanceType {
                    name: "c2-standard-2",
                    kind: InstanceKind::Vm,
                    vcpus: 2,
                    memory_mib: 8192,
                    hourly_price: Money::from_dollars(0.1044),
                    sl_price_per_gib_second: Money::ZERO,
                    sl_price_per_request: Money::ZERO,
                },
            };
        }
        catalog
    }

    /// Whether this catalog's workers are a compute-optimised family
    /// (faster cores, no burstable surcharge).
    pub fn is_compute_optimised(&self) -> bool {
        matches!(self.worker_vm.name, "c5.large" | "c2-standard-2")
    }

    /// The paper's §6.1 testbed catalog for `provider`.
    pub fn for_provider(provider: Provider) -> Self {
        match provider {
            Provider::Aws => Catalog {
                provider,
                // t3.small: 2 vCPU, 2 GiB, $0.0208/h (us-east-1 on-demand).
                worker_vm: InstanceType {
                    name: "t3.small",
                    kind: InstanceKind::Vm,
                    vcpus: 2,
                    memory_mib: 2048,
                    hourly_price: Money::from_dollars(0.0208),
                    sl_price_per_gib_second: Money::ZERO,
                    sl_price_per_request: Money::ZERO,
                },
                // t3.xlarge: 4 vCPU, 16 GiB, $0.1664/h; hosts master, driver
                // and the external Redis store (§6.1).
                master_vm: InstanceType {
                    name: "t3.xlarge",
                    kind: InstanceKind::Vm,
                    vcpus: 4,
                    memory_mib: 16_384,
                    hourly_price: Money::from_dollars(0.1664),
                    sl_price_per_gib_second: Money::ZERO,
                    sl_price_per_request: Money::ZERO,
                },
                // Lambda with 2048 MiB: 2 vCPU per invocation (§6.1),
                // $0.0000166667 per GiB-s, $0.20 per million requests.
                worker_sl: InstanceType {
                    name: "lambda-2048",
                    kind: InstanceKind::Serverless,
                    vcpus: 2,
                    memory_mib: 2048,
                    hourly_price: Money::ZERO,
                    sl_price_per_gib_second: Money::from_dollars(0.000_016_666_7),
                    sl_price_per_request: Money::from_dollars(0.000_000_2),
                },
            },
            Provider::Gcp => Catalog {
                provider,
                // e2-small: 2 vCPU (shared), 2 GiB, $0.016751/h (us-east1).
                worker_vm: InstanceType {
                    name: "e2-small",
                    kind: InstanceKind::Vm,
                    vcpus: 2,
                    memory_mib: 2048,
                    hourly_price: Money::from_dollars(0.016_751),
                    sl_price_per_gib_second: Money::ZERO,
                    sl_price_per_request: Money::ZERO,
                },
                // e2-standard-4: 4 vCPU, 16 GiB, $0.134012/h.
                master_vm: InstanceType {
                    name: "e2-standard-4",
                    kind: InstanceKind::Vm,
                    vcpus: 4,
                    memory_mib: 16_384,
                    hourly_price: Money::from_dollars(0.134_012),
                    sl_price_per_gib_second: Money::ZERO,
                    sl_price_per_request: Money::ZERO,
                },
                // Cloud Functions 2 GiB: $0.0000165 per GiB-s equivalent,
                // $0.40 per million invocations; billed per 100 ms.
                worker_sl: InstanceType {
                    name: "function-2048",
                    kind: InstanceKind::Serverless,
                    vcpus: 2,
                    memory_mib: 2048,
                    hourly_price: Money::ZERO,
                    sl_price_per_gib_second: Money::from_dollars(0.000_016_5),
                    sl_price_per_request: Money::from_dollars(0.000_000_4),
                },
            },
        }
    }

    /// The provider this catalog belongs to.
    pub fn provider(&self) -> Provider {
        self.provider
    }

    /// The dynamically-deployed VM worker type (`t3.small` / `e2-small`).
    pub fn worker_vm(&self) -> &InstanceType {
        &self.worker_vm
    }

    /// The master/driver/Redis host type (`t3.xlarge` / `e2-standard-4`).
    pub fn master_vm(&self) -> &InstanceType {
        &self.master_vm
    }

    /// The serverless worker type (Lambda-2GB / Function-2GB).
    pub fn worker_sl(&self) -> &InstanceType {
        &self.worker_sl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sl_unit_cost_is_up_to_5_8x_vm() {
        // Paper Table 1: serverless unit-time cost is "up to 5.8X" a VM with
        // the same resources.
        let aws = Catalog::for_provider(Provider::Aws);
        let ratio = aws.worker_sl().hourly_equivalent_price().dollars()
            / aws.worker_vm().hourly_price.dollars();
        assert!((5.5..6.0).contains(&ratio), "AWS SL/VM cost ratio {ratio}");

        let gcp = Catalog::for_provider(Provider::Gcp);
        let ratio = gcp.worker_sl().hourly_equivalent_price().dollars()
            / gcp.worker_vm().hourly_price.dollars();
        assert!(ratio > 5.0, "GCP SL/VM cost ratio {ratio}");
    }

    #[test]
    fn workers_match_testbed_shapes() {
        for p in Provider::ALL {
            let c = Catalog::for_provider(p);
            // §6.1: VM and SL workers offer the same cores and memory.
            assert_eq!(c.worker_vm().vcpus, c.worker_sl().vcpus);
            assert_eq!(c.worker_vm().memory_mib, c.worker_sl().memory_mib);
            assert_eq!(c.master_vm().vcpus, 4);
            assert_eq!(c.master_vm().memory_mib, 16 * 1024);
        }
    }

    #[test]
    fn slots_follow_vcpus() {
        let c = Catalog::for_provider(Provider::Gcp);
        assert_eq!(c.worker_vm().slots(), 2);
        assert_eq!(c.worker_sl().slots(), 2);
    }

    #[test]
    fn compute_family_swaps_workers_only() {
        for p in Provider::ALL {
            let base = Catalog::for_provider(p);
            let c = Catalog::for_family(p, "c5");
            assert!(c.is_compute_optimised());
            assert!(!base.is_compute_optimised());
            assert!(c.worker_vm().hourly_price > base.worker_vm().hourly_price);
            assert!(c.worker_vm().memory_mib > base.worker_vm().memory_mib);
            // Master and serverless workers are untouched.
            assert_eq!(c.master_vm(), base.master_vm());
            assert_eq!(c.worker_sl(), base.worker_sl());
        }
    }

    #[test]
    fn unknown_family_falls_back_to_default() {
        let c = Catalog::for_family(Provider::Aws, "m9");
        assert_eq!(c, Catalog::for_provider(Provider::Aws));
    }
}
