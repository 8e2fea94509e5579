//! The closed-form time/cost planning model.
//!
//! This is the analytical model behind the paper's §2.2 illustrative
//! example (Figure 1) and the cost side of the knob's Equation 4: given a
//! configuration `{nVM, nSL}`, an amount of work, the 55 s literature VM
//! boot, the ~30% serverless execution overhead and the §5 billing rules,
//! it produces the *expected* completion time and cost without running
//! anything.
//!
//! Smartpick's predictor uses the measured Random Forest for time; the
//! planner supplies the matching **cost estimate** for any estimated time
//! (Equation 4's `nVM·t_vm·C_vm + nSL·t_sl·C_sl` plus storage terms).

use smartpick_cloudsim::boot::PLANNING_VM_BOOT_SECS;
use smartpick_cloudsim::{CloudEnv, Money};
use smartpick_engine::{Allocation, RelayPolicy};

/// A simple uniform workload for analytical planning: `tasks` identical
/// tasks of `task_secs_on_vm` seconds each (on a VM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformWorkload {
    /// Total number of tasks.
    pub tasks: usize,
    /// Per-task seconds on a VM worker.
    pub task_secs_on_vm: f64,
}

/// The §2.2 example's serverless execution overhead (+30%).
pub const SL_OVERHEAD: f64 = 1.3;

/// Expected completion time and cost for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEstimate {
    /// Expected completion time, seconds.
    pub seconds: f64,
    /// Expected cost.
    pub cost: Money,
}

/// The analytical planner for one cloud environment.
#[derive(Debug, Clone)]
pub struct Planner {
    env: CloudEnv,
    /// VM cold-boot seconds assumed when planning (default: the 55 s
    /// literature value, §2.2).
    pub boot_secs: f64,
}

impl Planner {
    /// Creates a planner with the paper's 55 s planning boot time.
    pub fn new(env: CloudEnv) -> Self {
        Planner {
            env,
            boot_secs: PLANNING_VM_BOOT_SECS,
        }
    }

    /// Expected completion time (seconds) of `workload` under `alloc`,
    /// using fluid-flow list scheduling: serverless slots work from t = 0,
    /// VM slots join after the boot window; under relay the serverless
    /// slots stop at the boot window.
    ///
    /// Returns `f64::INFINITY` for an empty allocation.
    pub fn expected_seconds(&self, workload: &UniformWorkload, alloc: &Allocation) -> f64 {
        let slots_per = self.env.catalog().worker_vm().slots() as f64;
        let sl_slots = alloc.n_sl as f64 * slots_per;
        let vm_slots = alloc.n_vm as f64 * slots_per;
        if sl_slots + vm_slots <= 0.0 {
            return f64::INFINITY;
        }
        let t_vm = workload.task_secs_on_vm;
        let t_sl = t_vm * SL_OVERHEAD;
        let n = workload.tasks as f64;

        if vm_slots == 0.0 {
            // SL-only.
            return n * t_sl / sl_slots;
        }
        let boot = self.boot_secs;
        // Tasks the SLs finish during the boot window.
        let done_in_boot = (sl_slots * boot / t_sl).min(n);
        if done_in_boot >= n && sl_slots > 0.0 {
            // Query fits entirely in the boot window on SLs.
            return n * t_sl / sl_slots;
        }
        let remaining = n - done_in_boot;
        match alloc.relay {
            RelayPolicy::Relay => boot + remaining * t_vm / vm_slots,
            _ => {
                if sl_slots == 0.0 {
                    boot + remaining * t_vm / vm_slots
                } else {
                    let rate = vm_slots / t_vm + sl_slots / t_sl;
                    boot + remaining / rate
                }
            }
        }
    }

    /// Expected cost of running for `est_seconds` under `alloc`
    /// (Equation 4's constraint, §3.3): each VM bills `C_vm` for its
    /// deployed share of the query, each SL bills `C_sl` for its lifetime
    /// (boot window under relay, segue timeout under segueing, the whole
    /// query otherwise), and the external-store host bills for the query
    /// when serverless participates.
    pub fn expected_cost(&self, alloc: &Allocation, est_seconds: f64) -> Money {
        let pricing = self.env.pricing();
        let catalog = self.env.catalog();
        let mut cost = Money::ZERO;

        // Eq. 4's t_vm: VMs are deployed from boot-completion to query end.
        let t_vm = (est_seconds - self.boot_secs).max(0.0);
        if alloc.n_vm > 0 {
            let c_vm = pricing.vm_cost_per_second(catalog.worker_vm());
            cost += c_vm * (alloc.n_vm as f64 * t_vm);
        }

        // Eq. 4's t_sl by relay policy.
        if alloc.n_sl > 0 {
            let c_sl = pricing.sl_cost_per_second(catalog.worker_sl());
            let sl_seconds = match alloc.relay {
                RelayPolicy::Relay if alloc.n_vm > 0 => {
                    // Only SLs *paired* with a VM retire at the boot
                    // window; any surplus SLs live to query end (§4.3).
                    let paired = alloc.n_sl.min(alloc.n_vm) as f64;
                    let unpaired = alloc.n_sl as f64 - paired;
                    paired * self.boot_secs.min(est_seconds) + unpaired * est_seconds
                }
                // Segueing leases every SL for the full static window.
                RelayPolicy::Segue { timeout } => alloc.n_sl as f64 * timeout.as_secs_f64(),
                _ => alloc.n_sl as f64 * est_seconds,
            };
            cost += c_sl * sl_seconds;
            // External store host while serverless participates (§5).
            let c_store = catalog.master_vm().hourly_price * (1.0 / 3600.0);
            cost += c_store * est_seconds;
        }
        cost
    }

    /// Expected time *and* cost in one call.
    pub fn estimate(&self, workload: &UniformWorkload, alloc: &Allocation) -> PlanEstimate {
        let seconds = self.expected_seconds(workload, alloc);
        PlanEstimate {
            seconds,
            cost: self.expected_cost(alloc, seconds),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartpick_cloudsim::Provider;
    use smartpick_engine::Allocation;

    fn planner() -> Planner {
        Planner::new(CloudEnv::new(Provider::Aws))
    }

    /// The paper's §2.2 relay example: 500 tasks, 5 SLs relaying into 5
    /// VMs, ~3.7 s tasks → "198.8 seconds with a reduced cost of 5¢".
    #[test]
    fn paper_relay_example_reproduces() {
        let p = planner();
        let w = UniformWorkload {
            tasks: 500,
            task_secs_on_vm: 3.72,
        };
        let alloc = Allocation::new(5, 5).with_relay(RelayPolicy::Relay);
        let est = p.estimate(&w, &alloc);
        assert!(
            (190.0..210.0).contains(&est.seconds),
            "expected ~198.8s, got {}",
            est.seconds
        );
        assert!(
            (3.5..6.5).contains(&est.cost.cents()),
            "expected ~5 cents, got {}",
            est.cost.cents()
        );
    }

    /// §2.2: short queries favour SL-only; long queries favour VM-heavy.
    #[test]
    fn crossover_between_sl_only_and_vm_only() {
        let p = planner();
        let short = UniformWorkload {
            tasks: 100,
            task_secs_on_vm: 3.72,
        };
        let long = UniformWorkload {
            tasks: 500,
            task_secs_on_vm: 3.72,
        };
        let sl = Allocation::sl_only(5);
        let vm = Allocation::vm_only(5);
        assert!(p.expected_seconds(&short, &sl) < p.expected_seconds(&short, &vm));
        assert!(p.expected_seconds(&long, &vm) <= p.expected_seconds(&long, &sl));
    }

    /// §2.2: the mid class sits near the crossover — hybrids land within a
    /// few percent of the best extreme (the "richer tradeoff space"), and
    /// their *cost* beats SL-only.
    #[test]
    fn hybrid_is_competitive_and_cheaper_for_mid_queries() {
        let p = planner();
        let mid = UniformWorkload {
            tasks: 250,
            task_secs_on_vm: 3.72,
        };
        let sl_only = p.estimate(&mid, &Allocation::sl_only(5));
        let best_extreme = sl_only
            .seconds
            .min(p.expected_seconds(&mid, &Allocation::vm_only(5)));
        let hybrid_secs = (1..5)
            .map(|v| p.expected_seconds(&mid, &Allocation::new(v, 5 - v)))
            .fold(f64::INFINITY, f64::min);
        assert!(
            hybrid_secs < best_extreme * 1.15,
            "hybrid {hybrid_secs} vs extremes {best_extreme}"
        );
        // Relay hybrids beat SL-only on cost (the §2.2 point).
        let hybrid_cost = (1..5)
            .map(|v| {
                p.estimate(
                    &mid,
                    &Allocation::new(v, 5 - v).with_relay(RelayPolicy::Relay),
                )
                .cost
            })
            .min_by(|a, b| a.partial_cmp(b).unwrap())
            .unwrap();
        assert!(
            hybrid_cost < sl_only.cost,
            "hybrid {hybrid_cost} vs SL-only {}",
            sl_only.cost
        );
    }

    #[test]
    fn relay_costs_less_than_plain_hybrid() {
        let p = planner();
        let est = 200.0;
        let plain = p.expected_cost(&Allocation::new(5, 5), est);
        let relay = p.expected_cost(&Allocation::new(5, 5).with_relay(RelayPolicy::Relay), est);
        assert!(relay < plain, "relay {relay} vs plain {plain}");
    }

    #[test]
    fn empty_allocation_is_infinite() {
        let p = planner();
        let w = UniformWorkload {
            tasks: 10,
            task_secs_on_vm: 1.0,
        };
        assert!(p.expected_seconds(&w, &Allocation::new(0, 0)).is_infinite());
    }

    #[test]
    fn query_fitting_in_boot_window_is_sl_bound() {
        let p = planner();
        let tiny = UniformWorkload {
            tasks: 10,
            task_secs_on_vm: 1.0,
        };
        let t = p.expected_seconds(&tiny, &Allocation::new(5, 5).with_relay(RelayPolicy::Relay));
        assert!(
            t < PLANNING_VM_BOOT_SECS,
            "tiny query should not wait for boot: {t}"
        );
    }

    #[test]
    fn gcp_vm_cost_is_cheaper_than_aws() {
        // GCP has no burstable surcharge (§6.1).
        let aws = planner();
        let gcp = Planner::new(CloudEnv::new(Provider::Gcp));
        let alloc = Allocation::vm_only(5);
        assert!(gcp.expected_cost(&alloc, 200.0) < aws.expected_cost(&alloc, 200.0));
    }
}
