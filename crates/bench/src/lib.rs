//! # smartpick-bench
//!
//! Experiment harnesses for every table and figure of the Smartpick
//! paper's evaluation. Each `src/bin/*.rs` binary regenerates one
//! table/figure's rows (run with `--release`; debug-mode model training is
//! slow), and `benches/` holds the Criterion micro-benchmarks.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table 1 — SL vs VM characteristics |
//! | `fig1` | Figure 1 — illustrative (nSL, nVM) sweep, 100/250/500 tasks |
//! | `fig2` | Figure 2 — PCr of RF-only / BO-only / RF+BO |
//! | `table5` | Table 5 — AWS vs GCP microbenchmarks |
//! | `fig4` | Figure 4 — prediction-accuracy histograms + RMSE |
//! | `fig5` | Figure 5 — AWS time/cost/accuracy across approaches |
//! | `fig6` | Figure 6 — GCP time/cost/accuracy across approaches |
//! | `fig7` | Figure 7 — Smartpick vs Cocoa vs SplitServe |
//! | `fig8` | Figure 8 — cost–performance knob sweep |
//! | `fig9` | Figure 9 — alien TPC-DS queries via the Similarity Checker |
//! | `fig10` | Figure 10 — WordCount retraining convergence |
//! | `fig11` | Figure 11 — TPC-H q3 with 100 GB → 500 GB data growth |

#![deny(missing_docs)]

pub mod experiments;

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::training::{train_predictor, TrainOptions, TrainReport};
use smartpick_core::{SmartpickError, WorkloadPredictor};
use smartpick_engine::{simulate_query, Allocation, QueryProfile};
use smartpick_workloads::tpcds;

/// Number of repetitions per measured configuration. The paper averages
/// 10 runs; override with the `SMARTPICK_RUNS` environment variable.
pub fn default_runs() -> usize {
    std::env::var("SMARTPICK_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

/// A trained experimental setup on one provider: the plain Smartpick model
/// and the relay-aware Smartpick-r model, both trained on the five
/// representational TPC-DS queries (§6.1).
#[derive(Debug)]
pub struct Lab {
    /// The environment models run against.
    pub env: CloudEnv,
    /// Plain Smartpick predictor.
    pub smartpick: WorkloadPredictor,
    /// Quality report of the plain model.
    pub smartpick_report: TrainReport,
    /// Relay-aware Smartpick-r predictor.
    pub smartpick_r: WorkloadPredictor,
    /// Quality report of the relay model.
    pub smartpick_r_report: TrainReport,
}

impl Lab {
    /// Trains both models with the paper's full recipe (20 configs/query,
    /// 10× burst).
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub fn new(provider: Provider, seed: u64) -> Result<Self, SmartpickError> {
        Self::with_options(provider, seed, &TrainOptions::default())
    }

    /// Trains both models with reduced effort — for latency benchmarks
    /// where statistical quality is secondary.
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub fn quick(provider: Provider, seed: u64) -> Result<Self, SmartpickError> {
        let opts = TrainOptions {
            configs_per_query: 8,
            burst_factor: 4,
            ..TrainOptions::default()
        };
        Self::with_options(provider, seed, &opts)
    }

    /// Trains both models with explicit options.
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub fn with_options(
        provider: Provider,
        seed: u64,
        options: &TrainOptions,
    ) -> Result<Self, SmartpickError> {
        let env = CloudEnv::new(provider);
        let queries = training_queries(100.0);
        let plain_opts = TrainOptions {
            relay: false,
            ..options.clone()
        };
        let relay_opts = TrainOptions {
            relay: true,
            ..options.clone()
        };
        let (smartpick, smartpick_report) = train_predictor(&env, &queries, &plain_opts, seed)?;
        let (smartpick_r, smartpick_r_report) =
            train_predictor(&env, &queries, &relay_opts, seed ^ 0x0F0F)?;
        Ok(Lab {
            env,
            smartpick,
            smartpick_report,
            smartpick_r,
            smartpick_r_report,
        })
    }
}

/// The five training queries of §6.1 at the given input size.
pub fn training_queries(input_gb: f64) -> Vec<QueryProfile> {
    tpcds::TRAINING_QUERIES
        .iter()
        .map(|&q| tpcds::query(q, input_gb).expect("catalog query"))
        .collect()
}

/// Trains a predictor sized for the `determine_latency` benchmarks: a
/// `grid`×`grid` search space over a `trees`-tree forest, with a quick
/// training recipe (latency benchmarks don't need statistical quality).
///
/// # Errors
///
/// Propagates training failures.
pub fn determine_lab(
    grid: u32,
    trees: usize,
    seed: u64,
) -> Result<WorkloadPredictor, SmartpickError> {
    use smartpick_ml::forest::ForestParams;
    let env = CloudEnv::new(Provider::Aws);
    let queries: Vec<QueryProfile> = [82u32, 68]
        .iter()
        .map(|&q| tpcds::query(q, 100.0).expect("catalog query"))
        .collect();
    let opts = TrainOptions {
        configs_per_query: 6,
        burst_factor: 3,
        forest: ForestParams {
            n_trees: trees,
            ..ForestParams::default()
        },
        max_vm: grid,
        max_sl: grid,
        ..TrainOptions::default()
    };
    train_predictor(&env, &queries, &opts, seed).map(|(p, _)| p)
}

/// The `(grid, forest-size)` matrix the `determine_latency` group and
/// `bench_determine` binary both measure.
pub const DETERMINE_CONFIGS: [(u32, usize); 9] = [
    (8, 10),
    (8, 50),
    (8, 100),
    (16, 10),
    (16, 50),
    (16, 100),
    (32, 10),
    (32, 50),
    (32, 100),
];

/// Mean completion time and cost of executing one allocation repeatedly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Mean completion time, seconds.
    pub mean_seconds: f64,
    /// Mean cost, dollars.
    pub mean_cost: f64,
    /// Repetitions.
    pub runs: usize,
}

/// Executes `alloc` repeatedly and averages (the paper averages 10 runs).
///
/// # Errors
///
/// Propagates the first engine failure.
pub fn measure(
    query: &QueryProfile,
    alloc: &Allocation,
    env: &CloudEnv,
    runs: usize,
    seed: u64,
) -> Result<RunSummary, smartpick_engine::EngineError> {
    let mut secs = 0.0;
    let mut cost = 0.0;
    for i in 0..runs {
        let report = simulate_query(query, alloc, env, seed.wrapping_add(i as u64 * 7919))?;
        secs += report.seconds();
        cost += report.total_cost().dollars();
    }
    Ok(RunSummary {
        mean_seconds: secs / runs as f64,
        mean_cost: cost / runs as f64,
        runs,
    })
}

/// Resident-set size of this process in MiB (`VmRSS` from
/// `/proc/self/status`; 0.0 where that interface does not exist).
pub fn rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats dollars as cents with two decimals (the paper plots cents).
pub fn cents(dollars: f64) -> String {
    format!("{:.2}¢", dollars * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_queries_resolve() {
        assert_eq!(training_queries(100.0).len(), 5);
    }

    #[test]
    fn measure_averages_runs() {
        let env = CloudEnv::new(Provider::Aws);
        let q = tpcds::query(82, 100.0).unwrap();
        let s = measure(&q, &Allocation::new(2, 2), &env, 3, 5).unwrap();
        assert_eq!(s.runs, 3);
        assert!(s.mean_seconds > 0.0 && s.mean_cost > 0.0);
    }

    #[test]
    fn cents_formatting() {
        assert_eq!(cents(0.05), "5.00¢");
    }
}
