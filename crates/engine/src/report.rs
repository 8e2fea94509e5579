//! Run reports: everything one simulated query execution produced.

use smartpick_cloudsim::{CostReport, Money, SimDuration, SimTime};

use crate::allocation::Allocation;

/// The outcome of one simulated query run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RunReport {
    /// Query identifier.
    pub query_id: String,
    /// The allocation that ran it.
    pub allocation: Allocation,
    /// Wall-clock completion time (submission → last task end).
    pub completion: SimDuration,
    /// Itemised bill.
    pub cost: CostReport,
    /// Tasks executed on serverless workers.
    pub tasks_on_sl: usize,
    /// Tasks executed on VM workers.
    pub tasks_on_vm: usize,
    /// Completion time of each stage.
    pub stage_completions: Vec<SimTime>,
    /// When the first task started (shows SL agility vs VM cold boot).
    pub first_task_start: SimTime,
}

impl RunReport {
    /// Total bill for the run.
    pub fn total_cost(&self) -> Money {
        self.cost.total()
    }

    /// Completion time in seconds (convenience for tables/figures).
    pub fn seconds(&self) -> f64 {
        self.completion.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartpick_cloudsim::CostReport;

    #[test]
    fn fractions_and_accessors() {
        let r = RunReport {
            query_id: "q".into(),
            allocation: Allocation::new(1, 1),
            completion: SimDuration::from_secs_f64(10.0),
            cost: CostReport::new(),
            tasks_on_sl: 30,
            tasks_on_vm: 70,
            stage_completions: vec![],
            first_task_start: SimTime::ZERO,
        };
        assert_eq!(r.seconds(), 10.0);
        assert_eq!(r.total_cost().dollars(), 0.0);
    }
}
