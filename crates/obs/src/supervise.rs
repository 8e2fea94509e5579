//! Worker supervision's vocabulary: the restart policy and the per-shard
//! status health reports.
//!
//! A panic on a background worker thread is otherwise silent — the
//! process stays up while its capacity shrinks one shard at a time. The
//! owner of the workers (smartpickd's retrain workers restart themselves)
//! applies a [`RestartPolicy`] when one panics and keeps a
//! [`WorkerStatus`] per shard, so an incident is visible in a scrape and
//! in health long after the panic.

use std::time::Duration;

/// What to do when a supervised worker panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Restart the worker, waiting `backoff × attempt` between tries, up
    /// to `max_retries` restarts per shard over the worker's lifetime;
    /// after that the shard is marked failed.
    Restart {
        /// Restarts allowed per shard before giving up.
        max_retries: u32,
        /// Base delay before a restart (scaled linearly by attempt).
        backoff: Duration,
    },
    /// Never restart: the first panic marks the shard failed (and the
    /// service unready) — fail-fast for deployments that prefer a crisp
    /// outage over a limping one.
    Strict,
}

/// How a supervised worker slot is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Running (or backing off before a restart).
    Alive,
    /// Exited normally (queue closed — shutdown).
    Done,
    /// Dead and not coming back: `Strict` panic, retries exhausted, or a
    /// spawn failure.
    Failed,
}

impl WorkerState {
    /// The wire name of this state.
    pub fn name(self) -> &'static str {
        match self {
            WorkerState::Alive => "alive",
            WorkerState::Done => "done",
            WorkerState::Failed => "failed",
        }
    }
}

/// A point-in-time view of one supervised slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStatus {
    /// The worker/shard index.
    pub shard: usize,
    /// Its current state.
    pub state: WorkerState,
    /// Restarts applied to this shard so far.
    pub restarts: u64,
    /// The last panic message seen on this shard, if any.
    pub last_panic: Option<String>,
}
