//! Records the `determine_latency` before/after matrix into
//! `BENCH_determine.json` — the prediction-latency budget
//! `tests/bench_determine_json.rs` guards.
//!
//! For every grid × forest configuration the binary measures the median
//! in-process `determine()` latency of the reference path (the paper's
//! GP-guided search: candidate `Vec`s built per call, a feature `Vec`
//! and a forest walk per probe) and of the shipping vectorized path (one
//! region descent per tree over the cached candidate lattice), then
//! writes both numbers and their ratio beside `before_us`: what the
//! vectorized path cost while it still walked every tree once per
//! candidate ([`BEFORE_US`]).
//!
//! Usage: `cargo run --release -p smartpick_bench --bin bench_determine
//! [output-path]` (default `BENCH_determine.json` in the working
//! directory). `SMARTPICK_BENCH_ITERS` overrides the per-path iteration
//! count (default 120).

use std::fmt::Write as _;
use std::time::Instant;

use smartpick_bench::{determine_lab, DETERMINE_CONFIGS};
use smartpick_core::wp::{PredictionRequest, WorkloadPredictionService};
use smartpick_core::WorkloadPredictor;
use smartpick_workloads::tpcds;

/// `vectorized_us` as last recorded before the lattice descent (PR 13's
/// committed record: candidates × trees batch walk on the 8×8 and 16×16
/// rows, the priced lazy GP search on the 32×32 ones), in
/// [`DETERMINE_CONFIGS`] order.
const BEFORE_US: [f64; DETERMINE_CONFIGS.len()] =
    [9.2, 32.2, 70.5, 29.6, 117.8, 238.9, 102.6, 333.0, 388.9];

/// The median, to the record's one decimal — so the ratios written
/// beside the medians are the ratios of what is written.
fn median_us(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let n = samples.len();
    let median = if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    };
    (median * 10.0).round() / 10.0
}

fn measure(
    predictor: &WorkloadPredictor,
    iters: usize,
    mut run: impl FnMut(&WorkloadPredictor, u64),
) -> f64 {
    // Warm-up, then one timed sample per call so the median is robust to
    // scheduler noise.
    for seed in 0..10 {
        run(predictor, seed);
    }
    let mut samples = Vec::with_capacity(iters);
    for seed in 0..iters {
        let t = Instant::now();
        run(predictor, 1000 + seed as u64);
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median_us(&mut samples)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_determine.json".to_owned());
    let iters: usize = std::env::var("SMARTPICK_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120);

    println!("determine() latency: reference vs vectorized ({iters} iterations, median)");
    smartpick_bench::rule(87);
    println!(
        "{:<10} {:>6} {:>12} {:>14} {:>10} {:>14} {:>9}",
        "grid", "trees", "candidates", "reference µs", "before µs", "vectorized µs", "speedup"
    );
    smartpick_bench::rule(87);

    let query = tpcds::query(82, 100.0).expect("catalog query");
    let mut rows = String::new();
    for (i, (grid, trees)) in DETERMINE_CONFIGS.iter().copied().enumerate() {
        let predictor = determine_lab(grid, trees, 5).expect("training succeeds");
        let candidates = {
            // Hybrid grid size under the training floor min_total = 4.
            let g = u64::from(grid) + 1;
            (g * g - 10) as usize
        };
        let reference_us = measure(&predictor, iters, |p, seed| {
            let det = p
                .determine_reference(&PredictionRequest::new(query.clone(), seed))
                .expect("determination succeeds");
            std::hint::black_box(det.allocation);
        });
        let vectorized_us = measure(&predictor, iters, |p, seed| {
            let det = p
                .determine(&PredictionRequest::new(query.clone(), seed))
                .expect("determination succeeds");
            std::hint::black_box(det.allocation);
        });
        let speedup = reference_us / vectorized_us;
        let before_us = BEFORE_US[i];
        println!(
            "{:<10} {:>6} {:>12} {:>14.1} {:>10.1} {:>14.1} {:>8.1}x",
            format!("{grid}x{grid}"),
            trees,
            candidates,
            reference_us,
            before_us,
            vectorized_us,
            speedup
        );
        if i > 0 {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            "    {{\"grid\": \"{grid}x{grid}\", \"trees\": {trees}, \"candidates\": {candidates}, \
             \"baseline_us\": {reference_us:.1}, \"before_us\": {before_us:.1}, \
             \"vectorized_us\": {vectorized_us:.1}, \"speedup\": {speedup:.2}}}"
        );
    }
    smartpick_bench::rule(87);

    let json = format!(
        "{{\n  \"bench\": \"determine_latency\",\n  \"unit\": \"microseconds (median per \
         in-process determine() call)\",\n  \"baseline\": \"determine_reference: per-call \
         candidate Vecs, per-probe feature Vec, flat-array tree walks (the enum-node walk \
         earlier records timed here is gone), GP surrogate search\",\n  \
         \"before\": \"vectorized_us as recorded before the lattice descent: candidates x trees \
         flat-forest batch walk (8x8, 16x16) or the priced lazy GP search (32x32)\",\n  \
         \"vectorized\": \"cached candidate lattice, one region descent per tree, swept values \
         consumed by the BO loop\",\n  \
         \"iterations\": {iters},\n  \"configs\": [\n{rows}\n  ]\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write BENCH_determine.json");
    println!("wrote {out_path}");
}
