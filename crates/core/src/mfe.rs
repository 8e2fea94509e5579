//! Monitor & Feature Extraction (MFE, §4.1).
//!
//! The MFE "monitors job execution, and maintains a trained RF model and
//! query features": it assembles the context half of a Table 3 feature row
//! at submission time (epoch, waiting apps, free memory) and, on job
//! completion, compares predicted against actual time and drives the
//! retraining monitor.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smartpick_cloudsim::CloudEnv;
use smartpick_engine::Allocation;

use crate::features::QueryFeatures;
use crate::history::{HistoryServer, RunRecord};
use crate::properties::SmartpickProperties;
use crate::retrain::{RetrainMonitor, RetrainTrigger};

/// The submission-time context the MFE attaches to feature rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubmissionContext {
    /// Seconds since epoch at submission.
    pub epoch: f64,
    /// Applications currently waiting.
    pub waiting_apps: u32,
    /// Fraction of worker memory still available.
    pub available_frac: f64,
}

/// Monitor & Feature Extraction component.
#[derive(Debug)]
pub struct Mfe {
    env: CloudEnv,
    monitor: RetrainMonitor,
    clock: StdRng,
    epoch: f64,
}

impl Mfe {
    /// Creates an MFE with the given properties.
    pub fn new(env: CloudEnv, props: SmartpickProperties, seed: u64) -> Self {
        Mfe {
            env,
            monitor: RetrainMonitor::new(props),
            clock: StdRng::seed_from_u64(seed),
            epoch: 0.0,
        }
    }

    /// Samples the next submission context. The simulated wall clock
    /// advances monotonically; contention varies run to run.
    pub fn next_context(&mut self) -> SubmissionContext {
        self.epoch += self.clock.gen_range(30.0..600.0);
        SubmissionContext {
            epoch: self.epoch,
            waiting_apps: self.clock.gen_range(0..4),
            available_frac: self.clock.gen_range(0.6..1.0),
        }
    }

    /// Builds the full Table 3 feature row for a run.
    pub fn features_for(
        &self,
        query_code: f64,
        input_gb: f64,
        alloc: &Allocation,
        ctx: &SubmissionContext,
    ) -> QueryFeatures {
        QueryFeatures::for_allocation(query_code, input_gb, alloc, &self.env)
            .with_start_epoch(ctx.epoch)
            .with_contention(ctx.waiting_apps, ctx.available_frac)
    }

    /// Processes a completed run: records it in history and reports whether
    /// retraining should fire (§4.2's "independent monitor thread").
    pub fn after_run(
        &mut self,
        history: &mut HistoryServer,
        record: RunRecord,
    ) -> Option<RetrainTrigger> {
        let trigger = self.monitor.observe(
            &record.features,
            record.predicted_seconds,
            record.actual_seconds,
        );
        history.record(record);
        trigger
    }

    /// Rebuilds an MFE from checkpointed state — the persistence restore
    /// path. `clock_state` is [`Mfe::clock_state`] output and `epoch` is
    /// [`Mfe::sim_epoch`], so the restored MFE's context stream continues
    /// exactly where the checkpointed one stopped.
    pub fn restore(
        env: CloudEnv,
        monitor: RetrainMonitor,
        clock_state: [u64; 4],
        epoch: f64,
    ) -> Self {
        Mfe {
            env,
            monitor,
            clock: StdRng::from_state(clock_state),
            epoch,
        }
    }

    /// The raw state of the simulated clock/contention RNG stream.
    pub fn clock_state(&self) -> [u64; 4] {
        self.clock.state()
    }

    /// The current simulated epoch (seconds advanced so far).
    pub fn sim_epoch(&self) -> f64 {
        self.epoch
    }

    /// The retraining monitor (for executing fired tasks).
    pub fn monitor_mut(&mut self) -> &mut RetrainMonitor {
        &mut self.monitor
    }

    /// The retraining monitor.
    pub fn monitor(&self) -> &RetrainMonitor {
        &self.monitor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartpick_cloudsim::Provider;

    fn mfe() -> Mfe {
        Mfe::new(
            CloudEnv::new(Provider::Aws),
            SmartpickProperties::default(),
            3,
        )
    }

    #[test]
    fn contexts_advance_monotonically() {
        let mut m = mfe();
        let a = m.next_context();
        let b = m.next_context();
        assert!(b.epoch > a.epoch);
        assert!((0.6..1.0).contains(&a.available_frac));
    }

    #[test]
    fn features_carry_context() {
        let mut m = mfe();
        let ctx = m.next_context();
        let f = m.features_for(1.0, 100.0, &Allocation::new(2, 3), &ctx);
        assert_eq!(f.start_epoch, ctx.epoch);
        assert_eq!(f.num_waiting_apps, ctx.waiting_apps as f64);
        assert_eq!(f.n_vm, 2);
        assert_eq!(f.n_sl, 3);
    }

    #[test]
    fn after_run_records_and_triggers() {
        let mut m = Mfe::new(
            CloudEnv::new(Provider::Aws),
            SmartpickProperties {
                error_difference_trigger_secs: 5.0,
                ..SmartpickProperties::default()
            },
            4,
        );
        let mut history = HistoryServer::new();
        let ctx = m.next_context();
        let f = m.features_for(0.0, 100.0, &Allocation::new(1, 1), &ctx);
        let trigger = m.after_run(
            &mut history,
            RunRecord {
                query_id: "q".into(),
                features: f,
                actual_seconds: 100.0,
                predicted_seconds: 50.0,
                cost_dollars: 0.02,
            },
        );
        assert_eq!(trigger, Some(RetrainTrigger::ErrorDifference));
        assert_eq!(history.len(), 1);
    }
}
