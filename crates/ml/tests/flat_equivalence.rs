//! Property-based proof that the tree-outer batch path produces
//! **bit-identical** predictions to the scalar `predict` walk — across
//! random datasets, probe grids, and forest sizes, including the
//! degenerate shapes (single-leaf trees, one-sample datasets; a zero-tree
//! "empty forest" is unconstructible by design and stays an error) — and
//! that the lattice descent (`predict_lattice_into`) is bit-identical to
//! the batch walk over the rows its lattice was compiled from. (That the
//! flat arrays answer what the builder's nodes describe is a unit
//! property beside `compile` in `src/tree.rs`, where the nodes still
//! exist.)

use proptest::prelude::*;

use std::sync::Arc;

use smartpick_ml::dataset::Dataset;
use smartpick_ml::forest::{ForestParams, RandomForest};
use smartpick_ml::lattice::Lattice;
use smartpick_ml::tree::{RegressionTree, TreeParams};
use smartpick_ml::MlError;

fn dataset(width: usize, points: &[(Vec<f64>, f64)]) -> Dataset {
    let mut d = Dataset::new((0..width).map(|i| format!("f{i}")).collect());
    for (x, y) in points {
        d.push(x.clone(), *y);
    }
    d
}

/// A row-major probe matrix spanning the training range and beyond.
fn probe_grid(width: usize, n_rows: usize, spread: f64) -> Vec<f64> {
    let mut xs = Vec::with_capacity(width * n_rows);
    for r in 0..n_rows {
        for c in 0..width {
            // Deterministic but irregular coverage, including negatives
            // and values outside the training hull.
            let v = ((r * 31 + c * 17) % 97) as f64 / 97.0;
            xs.push((v - 0.5) * 2.0 * spread);
        }
    }
    xs
}

/// Columns of the lattice tests' schema: two request columns (uniform
/// across a grid, set per evaluation), the two free axes, and two columns
/// derived from `vm + sl` — the shapes Table 3 rows take.
const LATTICE_WIDTH: usize = 6;
const REQUEST_COLS: [usize; 2] = [0, 3];
/// Column value per unit of the coordinate it follows (request columns:
/// per unit of the drawn integer).
const COL_SCALE: [f64; LATTICE_WIDTH] = [1.0, 1.0, 1.0, 0.25, 2048.0, 5.0];

fn lattice_row(request: [f64; 2], vm: u32, sl: u32) -> [f64; LATTICE_WIDTH] {
    let n = (vm + sl) as f64;
    [
        request[0],
        vm as f64,
        sl as f64,
        request[1],
        n * COL_SCALE[4],
        n * COL_SCALE[5],
    ]
}

/// The four constraint shapes: full grid, `sl = 0`, `vm = 0`, diagonal.
fn shape_coords(shape: usize, max_vm: u32, max_sl: u32, min_total: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for vm in 0..=max_vm {
        for sl in 0..=max_sl {
            let keep = match shape {
                0 => true,
                1 => sl == 0,
                2 => vm == 0,
                _ => vm == sl && vm > 0,
            };
            if keep && vm + sl >= min_total {
                out.push((vm, sl));
            }
        }
    }
    out
}

fn materialise(coords: &[(u32, u32)], request: [f64; 2]) -> Vec<f64> {
    coords
        .iter()
        .flat_map(|&(vm, sl)| lattice_row(request, vm, sl))
        .collect()
}

/// Compiles the grid from rows with zeroed request columns (what a
/// caller caches), evaluates it for `request`, and holds the result to
/// the batch walk over the rows materialised for that request.
fn assert_lattice_matches_batch(
    forest: &RandomForest,
    coords: &[(u32, u32)],
    request: [f64; 2],
) -> Result<(), TestCaseError> {
    let template = materialise(coords, [0.0, 0.0]);
    let lattice = Lattice::compile(coords, &template, LATTICE_WIDTH).unwrap();
    let mut fixed = lattice.base_row().to_vec();
    for (col, v) in REQUEST_COLS.into_iter().zip(request) {
        fixed[col] = v;
    }
    let mut got = vec![f64::NAN; coords.len()];
    forest.predict_lattice_into(&lattice, &fixed, &mut got);

    let rows = materialise(coords, request);
    let mut want = vec![f64::NAN; coords.len()];
    forest.predict_batch_into(&rows, &mut want);
    for ((c, g), w) in coords.iter().zip(&got).zip(&want) {
        prop_assert_eq!(g.to_bits(), w.to_bits(), "{:?}: {} vs {}", c, g, w);
    }
    Ok(())
}

/// A tree in flat form built breadth-first from `plan`: node *k* splits
/// when `plan[k]` says so and two more slots fit, on a threshold that is
/// a value its column really takes (or, `half`, midway to the next) — so
/// `<=` meets equality on every kind of column.
fn planned_tree(plan: &[(bool, usize, u32, bool, f64)]) -> RegressionTree {
    let (mut feature, mut threshold, mut children) = (Vec::new(), Vec::new(), Vec::new());
    let mut slots = 1usize;
    for (k, &(split, col, at, half, leaf)) in plan.iter().enumerate() {
        if k == slots {
            break;
        }
        if split && slots + 2 <= plan.len() {
            feature.push(col as u16);
            threshold.push(COL_SCALE[col] * (at as f64 + if half { 0.5 } else { 0.0 }));
            children.push(slots as u32);
            slots += 2;
        } else {
            feature.push(u16::MAX);
            threshold.push(leaf);
            children.push(0);
        }
    }
    RegressionTree::from_flat_parts(
        feature,
        threshold,
        children,
        LATTICE_WIDTH,
        vec![0.0; LATTICE_WIDTH],
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fitted forests — grown, warm-start-extended and pruned — over
    /// every constraint shape, bound and floor, 1×1 and empty grids
    /// included. Training rows come from the same integer lattice, so
    /// split thresholds (midpoints of neighbouring training values) land
    /// on values the grid takes.
    #[test]
    fn lattice_descent_is_bit_identical_for_fitted_forests(
        samples in prop::collection::vec((0u32..12, 0u32..12, 0u32..4, 0u32..6, -100.0f64..100.0), 1..40),
        forest_shape in (1usize..8, 0usize..7, 0usize..5, 0usize..4),
        grid in (0usize..4, 0u32..10, 0u32..10, 0u32..6),
        request in (0u32..4, 0u32..6),
        seed in 0u64..1000,
    ) {
        let mut d = Dataset::new((0..LATTICE_WIDTH).map(|i| format!("f{i}")).collect());
        for &(vm, sl, code, size, y) in &samples {
            let request = [code as f64 * COL_SCALE[0], size as f64 * COL_SCALE[3]];
            d.push(lattice_row(request, vm, sl).to_vec(), y);
        }
        let (n_trees, max_depth, extend, retire) = forest_shape;
        let params = ForestParams {
            n_trees,
            tree: TreeParams { max_depth, ..TreeParams::default() },
            ..ForestParams::default()
        };
        let mut forest = RandomForest::fit(&d, &params, seed).unwrap();
        if extend > 0 {
            forest.warm_start_extend(&d, extend, seed ^ 0xA5).unwrap();
            forest.retire_oldest(retire, 1);
        }
        let (shape, max_vm, max_sl, min_total) = grid;
        let coords = shape_coords(shape, max_vm, max_sl, min_total);
        let request = [request.0 as f64 * COL_SCALE[0], request.1 as f64 * COL_SCALE[3]];
        assert_lattice_matches_batch(&forest, &coords, request)?;
    }

    /// Hand-built trees whose thresholds are drawn from the axis tables
    /// themselves, so every split ties with a row's value somewhere.
    #[test]
    fn lattice_descent_is_bit_identical_when_thresholds_tie_with_table_values(
        plans in prop::collection::vec(
            prop::collection::vec((true, 0usize..LATTICE_WIDTH, 0u32..20, true, -50.0f64..50.0), 1..32),
            1..6,
        ),
        grid in (0usize..4, 0u32..10, 0u32..10, 0u32..6),
        request in (0u32..20, 0u32..20),
    ) {
        let trees = plans.iter().map(|p| Arc::new(planned_tree(p))).collect();
        let forest = RandomForest::from_parts(trees, ForestParams::default(), LATTICE_WIDTH).unwrap();
        let (shape, max_vm, max_sl, min_total) = grid;
        let coords = shape_coords(shape, max_vm, max_sl, min_total);
        let request = [request.0 as f64 * COL_SCALE[0], request.1 as f64 * COL_SCALE[3]];
        assert_lattice_matches_batch(&forest, &coords, request)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single trees: the four-abreast batch walk is bit-identical to the
    /// scalar walk everywhere, not just on training points.
    #[test]
    fn tree_flat_walk_is_bit_identical(
        width in 1usize..5,
        raw in prop::collection::vec((prop::collection::vec(-50.0f64..50.0, 4), -100.0f64..100.0), 1..40),
        max_depth in 0usize..8,
        seed in 0u64..1000,
    ) {
        let points: Vec<(Vec<f64>, f64)> =
            raw.iter().map(|(x, y)| (x[..width].to_vec(), *y)).collect();
        let d = dataset(width, &points);
        let params = TreeParams { max_depth, ..TreeParams::default() };
        let tree = RegressionTree::fit(&d, &params, seed).unwrap();
        // 23 rows: five blocks of four and a remainder.
        let grid = probe_grid(width, 23, 80.0);
        let mut batch = vec![0.0; 23];
        tree.accumulate_batch(&grid, &mut batch);
        for (row, got) in grid.chunks_exact(width).zip(&batch) {
            prop_assert_eq!(got.to_bits(), tree.predict(row).to_bits());
        }
    }

    /// Forests: the scalar and tree-outer batch paths agree bit-for-bit
    /// over a whole probe grid, across forest sizes and the single-leaf
    /// degenerate (max_depth = 0).
    #[test]
    fn forest_batch_path_is_bit_identical(
        width in 1usize..5,
        raw in prop::collection::vec((prop::collection::vec(-50.0f64..50.0, 4), -100.0f64..100.0), 1..30),
        n_trees in 1usize..12,
        max_depth in 0usize..10,
        rows in 0usize..40,
        seed in 0u64..1000,
    ) {
        let points: Vec<(Vec<f64>, f64)> =
            raw.iter().map(|(x, y)| (x[..width].to_vec(), *y)).collect();
        let d = dataset(width, &points);
        let params = ForestParams {
            n_trees,
            tree: TreeParams { max_depth, ..TreeParams::default() },
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&d, &params, seed).unwrap();
        let grid = probe_grid(width, rows, 120.0);

        // Batch (tree-outer) vs scalar; whatever the buffer held is
        // overwritten.
        let mut batch = vec![f64::NAN; rows];
        forest.predict_batch_into(&grid, &mut batch);
        for (row, got) in grid.chunks_exact(width).zip(&batch) {
            prop_assert_eq!(got.to_bits(), forest.predict(row).to_bits());
        }

        // And the legacy Vec-of-rows batch stays consistent too.
        let rows_vec: Vec<Vec<f64>> =
            grid.chunks_exact(width).map(|r| r.to_vec()).collect();
        let legacy = forest.predict_batch(&rows_vec);
        prop_assert_eq!(legacy, batch);
    }

    /// Warm-start retraining (the ensemble-mutating path) preserves the
    /// equivalence: extended and pruned forests still agree across paths.
    #[test]
    fn equivalence_survives_warm_start_and_eviction(
        raw in prop::collection::vec((-50.0f64..50.0, -100.0f64..100.0), 2..25),
        extend in 1usize..8,
        seed in 0u64..1000,
    ) {
        let points: Vec<(Vec<f64>, f64)> =
            raw.iter().map(|&(x, y)| (vec![x], y)).collect();
        let d = dataset(1, &points);
        let params = ForestParams { n_trees: 4, ..ForestParams::default() };
        let mut forest = RandomForest::fit(&d, &params, seed).unwrap();
        forest.warm_start_extend(&d, extend, seed ^ 0xA5).unwrap();
        forest.retire_oldest(2, 1);
        let grid = probe_grid(1, 17, 90.0);
        let mut batch = vec![f64::NAN; 17];
        forest.predict_batch_into(&grid, &mut batch);
        for (row, got) in grid.chunks_exact(1).zip(&batch) {
            prop_assert_eq!(got.to_bits(), forest.predict(row).to_bits());
        }
    }
}

/// The corners by name: 1×1 bounds under every floor and shape, a single
/// row, no rows at all — under a single-leaf forest and a deep one.
#[test]
fn degenerate_lattices_and_single_leaf_forests_match_the_batch_walk() {
    let mut d = Dataset::new((0..LATTICE_WIDTH).map(|i| format!("f{i}")).collect());
    for i in 0..40u32 {
        let (vm, sl) = (i % 3, (i / 3) % 3);
        d.push(
            lattice_row([(i % 2) as f64, 0.25 * (i % 5) as f64], vm, sl).to_vec(),
            (vm * 7 + sl * 3 + i % 2) as f64,
        );
    }
    for max_depth in [0usize, 12] {
        let params = ForestParams {
            n_trees: 5,
            tree: TreeParams {
                max_depth,
                ..TreeParams::default()
            },
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&d, &params, 9).unwrap();
        if max_depth == 0 {
            assert!(forest.trees().iter().all(|t| t.node_count() == 1));
        }
        for shape in 0..4 {
            for min_total in 0..4 {
                let coords = shape_coords(shape, 1, 1, min_total);
                assert_lattice_matches_batch(&forest, &coords, [1.0, 0.5]).unwrap();
            }
        }
        assert_lattice_matches_batch(&forest, &[(2, 1)], [0.0, 0.75]).unwrap();
        assert_lattice_matches_batch(&forest, &[], [0.0, 0.0]).unwrap();
    }
}

/// The "empty forest" case: a zero-tree ensemble cannot be built, so the
/// batch path never has to divide by zero — the constructor rejects it.
#[test]
fn empty_forest_is_unconstructible() {
    let mut d = Dataset::new(vec!["x".into()]);
    d.push(vec![1.0], 2.0);
    let params = ForestParams {
        n_trees: 0,
        ..ForestParams::default()
    };
    assert!(matches!(
        RandomForest::fit(&d, &params, 0),
        Err(MlError::InvalidParameter(_))
    ));
}

/// An empty probe matrix is a no-op for the batch entry point.
#[test]
fn empty_batch_is_a_noop() {
    let mut d = Dataset::new(vec!["x".into()]);
    for i in 0..6 {
        d.push(vec![i as f64], i as f64);
    }
    let forest = RandomForest::fit(&d, &ForestParams::default(), 3).unwrap();
    let mut out: Vec<f64> = Vec::new();
    forest.predict_batch_into(&[], &mut out);
    assert!(out.is_empty());
}

/// A one-sample dataset compiles to a single-leaf tree whose walk
/// returns the constant wherever it is probed.
#[test]
fn single_leaf_tree_is_flat_identical() {
    let mut d = Dataset::new(vec!["x".into()]);
    d.push(vec![0.25], 7.125);
    let tree = RegressionTree::fit(&d, &TreeParams::default(), 0).unwrap();
    assert_eq!(tree.node_count(), 1);
    for probe in [-1e9, 0.0, 0.25, 1e9] {
        assert_eq!(tree.predict(&[probe]), 7.125);
    }
}
