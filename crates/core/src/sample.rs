//! What one completed run teaches the driver — and nothing else.
//!
//! A `(query, determination, report)` triple is kilobytes: the stage DAG,
//! the `ET_l` list, the itemised bill. Figure 3's step 9 reads nine
//! scalars of it, plus the query's profile on the one path that registers
//! a new known query. [`RunSample`] is that projection. It is the single
//! value the feedback path carries from admission on — through the shard
//! queue, into the WAL, back out at replay — and the single argument of
//! [`crate::driver::Smartpick::apply_sample`], so a live apply and a
//! replayed one cannot read different things.

use smartpick_engine::{QueryProfile, RunReport};

use crate::wp::Determination;

/// The projection of one completed run onto what
/// [`crate::driver::Smartpick::apply_sample`] consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSample {
    /// The query that ran (`QueryProfile::id`).
    pub query_id: String,
    /// Its input size, GB (`QueryProfile::input_gb`).
    pub input_gb: f64,
    /// VMs of the allocation it ran under.
    pub n_vm: u32,
    /// SLs of the allocation it ran under.
    pub n_sl: u32,
    /// The completion time WP predicted for that allocation, seconds.
    pub predicted_seconds: f64,
    /// The completion time observed, seconds (`RunReport::seconds`).
    pub actual_seconds: f64,
    /// The run's total cost, dollars (`RunReport::total_cost`).
    pub cost_dollars: f64,
    /// The known query the prediction was based on.
    pub matched_query: String,
    /// The query's full profile, carried exactly when the determination
    /// was similarity-matched (`!Determination::known_query`): a
    /// surprising alien run registers the query, which needs its SQL and
    /// stage DAG. `None` means the query was known.
    pub profile: Option<QueryProfile>,
}

impl RunSample {
    /// Projects a completed run onto the sample `apply_sample` reads.
    pub fn project(
        query: &QueryProfile,
        determination: &Determination,
        report: &RunReport,
    ) -> Self {
        RunSample {
            query_id: query.id.clone(),
            input_gb: query.input_gb,
            n_vm: determination.allocation.n_vm,
            n_sl: determination.allocation.n_sl,
            predicted_seconds: determination.predicted_seconds,
            actual_seconds: report.seconds(),
            cost_dollars: report.total_cost().dollars(),
            matched_query: determination.matched_query.clone(),
            profile: (!determination.known_query).then(|| query.clone()),
        }
    }
}
