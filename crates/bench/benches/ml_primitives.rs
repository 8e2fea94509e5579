//! Micro-benchmarks of the ML substrate: forest training/inference, one
//! retrain's worth of tree growing (`warm_start_extend`), the grid sweep
//! (batch walk vs lattice descent), GP fitting/posterior, and the
//! acquisition-function ablation (PI — the paper's choice — vs EI vs UCB).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smartpick_ml::bayesopt::{Acquisition, BayesianOptimizer, BoParams};
use smartpick_ml::dataset::Dataset;
use smartpick_ml::forest::{ForestParams, RandomForest};
use smartpick_ml::gp::{GaussianProcess, GpParams};
use smartpick_ml::lattice::Lattice;

fn synthetic_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new((0..10).map(|i| format!("f{i}")).collect());
    for _ in 0..n {
        let x: Vec<f64> = (0..10).map(|_| rng.gen_range(0.0..100.0)).collect();
        let y = x[0] * 2.0 + x[1].sqrt() * 10.0 + x[2] * x[3] / 100.0;
        data.push(x, y);
    }
    data
}

fn bench_forest(c: &mut Criterion) {
    let data = synthetic_dataset(800, 1);
    let mut group = c.benchmark_group("random_forest");
    for n_trees in [20usize, 60] {
        group.bench_with_input(BenchmarkId::new("fit", n_trees), &n_trees, |b, &n| {
            let params = ForestParams {
                n_trees: n,
                ..ForestParams::default()
            };
            b.iter(|| black_box(RandomForest::fit(&data, &params, 3).expect("fit succeeds")))
        });
    }
    let forest = RandomForest::fit(&data, &ForestParams::default(), 3).expect("fit succeeds");
    let probe: Vec<f64> = (0..10).map(|i| i as f64 * 7.0).collect();
    group.bench_function("predict", |b| b.iter(|| black_box(forest.predict(&probe))));
    group.finish();
}

/// What a batch retrain grows: 10 trees on 1 000 rows — 100 Table-3-shaped
/// samples burst ×10 within ±5 %, so every column is a cloud of near-ties
/// around a few levels (`BENCH_store.json` `retrain` times the same work
/// through `apply_report`).
fn bench_warm_start(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut pending = Dataset::new((0..10).map(|i| format!("f{i}")).collect());
    for i in 0..100u32 {
        let (vm, sl) = (f64::from(i % 9), f64::from((i / 9) % 9));
        let n = vm + sl;
        let x = vec![
            f64::from(i % 2),
            vm,
            sl,
            100.0 * 1024.0 * 1024.0 * 1024.0,
            f64::from(rng.gen_range(0..86_400u32)),
            n * 2048.0,
            n * 2048.0 * (1.0 - f64::from(i % 5) * 0.1),
            2048.0,
            f64::from(i % 3),
            n * 2.0,
        ];
        pending.push(x, 400.0 / (1.0 + vm + 2.0 * sl) + f64::from(i % 7));
    }
    let burst = pending.burst(10, 0.05, &mut rng);
    let params = ForestParams {
        n_trees: 10,
        ..ForestParams::default()
    };
    let forest = RandomForest::fit(&burst, &params, 3).expect("fit succeeds");
    let mut group = c.benchmark_group("warm_start_extend");
    group.bench_function("1000x10", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut grown = forest.clone();
            grown
                .warm_start_extend(black_box(&burst), 10, seed)
                .expect("extend succeeds");
            black_box(grown.n_trees())
        })
    });
    group.finish();
}

/// The same `RF_t` surface two ways: the batch walk over a 17×17 grid's
/// materialised rows against one region descent per tree over the grid's
/// lattice. Columns follow the Table 3 shape — two request columns, `vm`,
/// `sl`, and the rest derived from `vm + sl` or constant.
fn bench_lattice(c: &mut Criterion) {
    let row = |vm: u32, sl: u32| -> Vec<f64> {
        let n = f64::from(vm + sl);
        let (vm, sl) = (f64::from(vm), f64::from(sl));
        vec![
            1.0,
            vm,
            sl,
            64.0,
            0.0,
            n * 2048.0,
            n * 2048.0,
            2048.0,
            0.0,
            n * 5.0,
        ]
    };
    let mut rng = StdRng::seed_from_u64(5);
    let mut data = Dataset::new((0..10).map(|i| format!("f{i}")).collect());
    for _ in 0..400 {
        let (vm, sl) = (rng.gen_range(0..17u32), rng.gen_range(0..17u32));
        let mut x = row(vm, sl);
        x[4] = rng.gen_range(0.0..86_400.0);
        x[8] = f64::from(rng.gen_range(0..4u32));
        data.push(
            x,
            600.0 / f64::from(vm + 2 * sl + 1) + rng.gen_range(0.0..5.0),
        );
    }
    let forest = RandomForest::fit(&data, &ForestParams::default(), 3).expect("fit succeeds");
    let coords: Vec<(u32, u32)> = (0..17u32)
        .flat_map(|vm| (0..17).map(move |sl| (vm, sl)))
        .collect();
    let rows: Vec<f64> = coords.iter().flat_map(|&(vm, sl)| row(vm, sl)).collect();
    let lattice = Lattice::compile(&coords, &rows, 10).expect("the schema is a lattice");
    let mut out = vec![0.0; coords.len()];

    let mut group = c.benchmark_group("forest_grid_sweep");
    group.bench_function("batch_walk_17x17", |b| {
        b.iter(|| {
            forest.predict_batch_into(black_box(&rows), &mut out);
            black_box(out[0])
        })
    });
    group.bench_function("lattice_descent_17x17", |b| {
        b.iter(|| {
            forest.predict_lattice_into(&lattice, black_box(lattice.base_row()), &mut out);
            black_box(out[0])
        })
    });
    group.bench_function("lattice_compile_17x17", |b| {
        b.iter(|| black_box(Lattice::compile(&coords, &rows, 10).expect("compiles")))
    });
    group.finish();
}

fn bench_gp(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let xs: Vec<Vec<f64>> = (0..64)
        .map(|_| vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)])
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| (x[0] - 3.0).powi(2) + x[1]).collect();
    let mut group = c.benchmark_group("gaussian_process");
    group.bench_function("fit_64", |b| {
        b.iter(|| black_box(GaussianProcess::fit(&xs, &ys, &GpParams::default()).expect("fit")))
    });
    let gp = GaussianProcess::fit(&xs, &ys, &GpParams::default()).expect("fit");
    group.bench_function("posterior", |b| {
        b.iter(|| black_box(gp.posterior(&[5.0, 5.0])))
    });
    group.finish();
}

fn bench_acquisitions(c: &mut Criterion) {
    let candidates: Vec<Vec<f64>> = (0..20)
        .flat_map(|i| (0..20).map(move |j| vec![i as f64, j as f64]))
        .collect();
    let mut group = c.benchmark_group("bo_acquisition_ablation");
    for (name, acq) in [
        ("pi", Acquisition::ProbabilityOfImprovement { xi: 0.01 }),
        ("ei", Acquisition::ExpectedImprovement { xi: 0.01 }),
        ("ucb", Acquisition::UpperConfidenceBound { kappa: 2.0 }),
    ] {
        group.bench_function(name, |b| {
            let bo = BayesianOptimizer::new(BoParams {
                acquisition: acq,
                ..BoParams::default()
            });
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(bo.maximize(&candidates, seed, |x| {
                    -((x[0] - 7.0).powi(2) + (x[1] - 12.0).powi(2))
                }))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_forest,
    bench_warm_start,
    bench_lattice,
    bench_gp,
    bench_acquisitions
);
criterion_main!(benches);
