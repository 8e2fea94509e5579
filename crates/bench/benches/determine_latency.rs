//! `determine_latency`: the vectorized `determine()` hot path against
//! the pre-vectorization baseline.
//!
//! `vectorized` is the shipping [`WorkloadPredictionService::determine`]
//! — one region descent per tree over the cached candidate lattice, the
//! search consuming the swept values — and `reference` is
//! `determine_reference`, the paper's search as written: candidate `Vec`s
//! built per call, a feature `Vec` and a forest walk per probe, and the GP
//! surrogate loop. Grid sizes 8×8 / 16×16 / 32×32 crossed with
//! 10/50/100-tree forests; `src/bin/bench_determine.rs` records the same
//! matrix into `BENCH_determine.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use smartpick_bench::{determine_lab, DETERMINE_CONFIGS};
use smartpick_core::wp::{PredictionRequest, WorkloadPredictionService};
use smartpick_workloads::tpcds;

fn bench_determine_latency(c: &mut Criterion) {
    let query = tpcds::query(82, 100.0).expect("catalog query");
    let mut group = c.benchmark_group("determine_latency");
    for (grid, trees) in DETERMINE_CONFIGS {
        let predictor = determine_lab(grid, trees, 5).expect("training succeeds");
        group.bench_function(
            BenchmarkId::new("vectorized", format!("{grid}x{grid}/{trees}t")),
            |b| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let det = predictor
                        .determine(&PredictionRequest::new(query.clone(), seed))
                        .expect("determination succeeds");
                    black_box(det.allocation)
                })
            },
        );
        group.bench_function(
            BenchmarkId::new("reference", format!("{grid}x{grid}/{trees}t")),
            |b| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let det = predictor
                        .determine_reference(&PredictionRequest::new(query.clone(), seed))
                        .expect("determination succeeds");
                    black_box(det.allocation)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_determine_latency);
criterion_main!(benches);
