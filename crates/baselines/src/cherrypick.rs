//! CherryPick-style search: Bayesian optimisation over **live runs**
//! (Alipourfard et al., NSDI '17).
//!
//! CherryPick has no learned performance model — each configuration it
//! probes is executed for real, so its decision cost is dominated by the
//! charges of the probing runs (§3.2: "incurs a higher cost from the
//! projected execution runs on live VM and SL instances"). The paper
//! extends it to the hybrid SL+VM space to compare against RF + BO.

use std::time::Instant;

use smartpick_cloudsim::{CloudEnv, Money};
use smartpick_engine::{simulate_query, Allocation, EngineError, QueryProfile};
use smartpick_ml::bayesopt::{BayesianOptimizer, BoParams};

/// Outcome of one CherryPick decision.
#[derive(Debug, Clone)]
pub struct CherryPickOutcome {
    /// The configuration it settled on.
    pub allocation: Allocation,
    /// Best observed completion time, seconds.
    pub best_seconds: f64,
    /// Wall-clock the search took (inference latency).
    pub wall_seconds: f64,
    /// Total charges of the live probing runs (the decision's cost).
    pub probe_cost: Money,
    /// Live runs executed.
    pub probes: usize,
}

/// The CherryPick baseline.
#[derive(Debug, Clone)]
pub struct CherryPick {
    /// BO parameters (same acquisition machinery as Smartpick's search,
    /// per the §3.2 comparison setup).
    pub bo: BoParams,
    /// Inclusive `{nVM, nSL}` grid bound.
    pub max_vm: u32,
    /// Inclusive grid bound for SLs.
    pub max_sl: u32,
}

impl Default for CherryPick {
    fn default() -> Self {
        CherryPick {
            bo: BoParams {
                n_init: 4,
                max_evals: 20,
                ..BoParams::default()
            },
            max_vm: 10,
            max_sl: 10,
        }
    }
}

impl CherryPick {
    /// Searches for the fastest configuration by live-probing the cloud.
    ///
    /// # Errors
    ///
    /// Propagates the first engine error a probe run hits.
    pub fn search(
        &self,
        env: &CloudEnv,
        query: &QueryProfile,
        seed: u64,
    ) -> Result<CherryPickOutcome, EngineError> {
        let mut candidates = Vec::new();
        for n_vm in 0..=self.max_vm {
            for n_sl in 0..=self.max_sl {
                if n_vm + n_sl > 0 {
                    candidates.push(vec![n_vm as f64, n_sl as f64]);
                }
            }
        }
        let mut probe_cost = Money::ZERO;
        let mut probes = 0usize;
        let mut first_error: Option<EngineError> = None;
        let mut probe_wall = 0.0f64;

        let started = Instant::now();
        let bo = BayesianOptimizer::new(self.bo.clone());
        let result = bo.maximize(&candidates, seed, |x| {
            let alloc = Allocation::new(x[0] as u32, x[1] as u32);
            let probe_started = Instant::now();
            let outcome = simulate_query(query, &alloc, env, seed ^ probes as u64);
            probe_wall += probe_started.elapsed().as_secs_f64();
            match outcome {
                Ok(report) => {
                    probes += 1;
                    probe_cost += report.total_cost();
                    -report.seconds()
                }
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                    f64::NEG_INFINITY
                }
            }
        });
        // The paper's PCr charges the probing runs as *cost* (they execute
        // on the cloud) and counts only the optimizer's own latency as
        // *Time* (§3.2), so the probe execution time is excluded here.
        let wall_seconds = (started.elapsed().as_secs_f64() - probe_wall).max(1e-6);
        if let Some(e) = first_error {
            return Err(e);
        }
        let best = &candidates[result.best_index];
        Ok(CherryPickOutcome {
            allocation: Allocation::new(best[0] as u32, best[1] as u32),
            best_seconds: -result.best_objective,
            wall_seconds,
            probe_cost,
            probes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartpick_cloudsim::Provider;
    use smartpick_workloads::tpcds;

    #[test]
    fn finds_a_decent_configuration_at_real_probing_cost() {
        let env = CloudEnv::new(Provider::Aws);
        let q = tpcds::query(82, 100.0).unwrap();
        let cp = CherryPick {
            max_vm: 5,
            max_sl: 5,
            ..CherryPick::default()
        };
        let out = cp.search(&env, &q, 3).unwrap();
        assert!(out.allocation.is_viable());
        assert!(out.probes >= cp.bo.n_init);
        // Live probing is the expensive part: many cents across runs.
        assert!(
            out.probe_cost.cents() > 1.0,
            "probing should cost real money: {}",
            out.probe_cost
        );
        assert!(out.best_seconds > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let env = CloudEnv::new(Provider::Aws);
        let q = tpcds::query(82, 100.0).unwrap();
        let cp = CherryPick {
            max_vm: 4,
            max_sl: 4,
            ..CherryPick::default()
        };
        let a = cp.search(&env, &q, 7).unwrap();
        let b = cp.search(&env, &q, 7).unwrap();
        assert_eq!(a.allocation, b.allocation);
        assert_eq!(a.probes, b.probes);
    }
}
