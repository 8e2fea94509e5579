//! Random-forest regression (bagged CART trees).
//!
//! The paper's workload predictor is a "decision-tree based Random Forest"
//! chosen for its low compute cost, small training-data needs and
//! resistance to over-fitting via ensembling (§3.1). Retraining uses
//! scikit-learn's `warm_start` idiom — extending the ensemble with new
//! trees fitted on fresh data — reproduced here by
//! [`RandomForest::warm_start_extend`].

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::lattice::Lattice;
use crate::tree::{Presorted, RegressionTree, TreeParams};

/// Hyperparameters for a random forest.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestParams {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Per-tree parameters. When `tree.max_features` is `None` the forest
    /// substitutes the regression default `max(1, n_features / 3)`.
    pub tree: TreeParams,
    /// Whether each tree trains on a bootstrap resample.
    pub bootstrap: bool,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 60,
            tree: TreeParams::default(),
            bootstrap: true,
        }
    }
}

/// A fitted random-forest regressor.
///
/// Trees are stored behind [`Arc`], so [`Clone`] is an Arc-bump per tree
/// rather than a deep copy: cloning a fitted forest is cheap enough to
/// publish immutable prediction snapshots on every retrain. Mutation
/// (`warm_start_extend` / `retire_oldest`) only edits the tree *list*;
/// the trees themselves are immutable once fitted, so clones taken before
/// a retrain keep predicting from the old ensemble unperturbed.
///
/// # Example
///
/// ```
/// use smartpick_ml::dataset::Dataset;
/// use smartpick_ml::forest::{ForestParams, RandomForest};
///
/// let mut data = Dataset::new(vec!["x".into()]);
/// for i in 0..60 {
///     let x = i as f64 / 10.0;
///     data.push(vec![x], 2.0 * x + 1.0);
/// }
/// let forest = RandomForest::fit(&data, &ForestParams::default(), 3)?;
/// let y = forest.predict(&[3.0]);
/// assert!((y - 7.0).abs() < 1.0);
/// # Ok::<(), smartpick_ml::MlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<Arc<RegressionTree>>,
    params: ForestParams,
    n_features: usize,
}

impl RandomForest {
    /// Fits a forest on `data` with a deterministic `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for empty data and
    /// [`MlError::InvalidParameter`] for a zero-tree ensemble.
    pub fn fit(data: &Dataset, params: &ForestParams, seed: u64) -> Result<Self, MlError> {
        if params.n_trees == 0 {
            return Err(MlError::InvalidParameter("n_trees must be positive"));
        }
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let mut forest = RandomForest {
            trees: Vec::with_capacity(params.n_trees),
            params: params.clone(),
            n_features: data.n_features(),
        };
        forest.grow(data, params.n_trees, seed)?;
        Ok(forest)
    }

    /// Reassembles a fitted forest from its parts — the persistence
    /// restore path. `params` is the configuration the forest was
    /// originally fitted with; `trees` is the live ensemble (which may
    /// hold more trees than `params.n_trees` after warm-start retrains).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidParameter`] for an empty ensemble and
    /// [`MlError::DimensionMismatch`] when any tree's feature width
    /// differs from `n_features`.
    pub fn from_parts(
        trees: Vec<Arc<RegressionTree>>,
        params: ForestParams,
        n_features: usize,
    ) -> Result<Self, MlError> {
        if trees.is_empty() {
            return Err(MlError::InvalidParameter(
                "forest must hold at least one tree",
            ));
        }
        if params.n_trees == 0 {
            return Err(MlError::InvalidParameter("n_trees must be positive"));
        }
        for tree in &trees {
            if tree.n_features() != n_features {
                return Err(MlError::DimensionMismatch {
                    expected: n_features,
                    actual: tree.n_features(),
                });
            }
        }
        Ok(RandomForest {
            trees,
            params,
            n_features,
        })
    }

    /// The live ensemble, oldest tree first — with
    /// [`RegressionTree::flat_parts`], everything persistence needs to
    /// reproduce the forest exactly via [`RandomForest::from_parts`].
    pub fn trees(&self) -> &[Arc<RegressionTree>] {
        &self.trees
    }

    fn effective_tree_params(&self) -> TreeParams {
        let mut tp = self.params.tree.clone();
        if tp.max_features.is_none() {
            tp.max_features = Some((self.n_features / 3).max(1));
        }
        tp
    }

    fn grow(&mut self, data: &Dataset, n_new: usize, seed: u64) -> Result<(), MlError> {
        let tp = self.effective_tree_params();
        // One sort per column for the whole batch of trees; each tree only
        // expands it to its own bootstrap multiset.
        let presorted = Presorted::new(data)?;
        let mut rng = StdRng::seed_from_u64(seed);
        for t in 0..n_new {
            let indices: Vec<usize> = if self.params.bootstrap {
                (0..data.len())
                    .map(|_| rng.gen_range(0..data.len()))
                    .collect()
            } else {
                (0..data.len()).collect()
            };
            let tree_seed = rng.gen::<u64>() ^ t as u64;
            self.trees.push(Arc::new(RegressionTree::fit_presorted(
                &presorted, &indices, &tp, tree_seed,
            )?));
        }
        Ok(())
    }

    /// Extends the ensemble with `n_new` trees fitted on `data` — the
    /// `warm_start` retraining idiom of §5. Existing trees are kept, so old
    /// knowledge decays gradually instead of being discarded.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if `data` has a different
    /// feature width, or [`MlError::EmptyDataset`] if it is empty.
    pub fn warm_start_extend(
        &mut self,
        data: &Dataset,
        n_new: usize,
        seed: u64,
    ) -> Result<(), MlError> {
        if data.n_features() != self.n_features {
            return Err(MlError::DimensionMismatch {
                expected: self.n_features,
                actual: data.n_features(),
            });
        }
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        self.grow(data, n_new, seed)
    }

    /// Predicts the target for one feature vector (ensemble mean).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature width mismatch");
        let sum: f64 = self.trees.iter().map(|t| t.predict(x)).sum();
        sum / self.trees.len() as f64
    }

    /// Predicts every row of `xs`.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Predicts every row of the row-major matrix `xs` (stride =
    /// [`RandomForest::n_features`]) into `out`, allocation-free and
    /// **tree-outer**: each tree's flat arrays are walked across the
    /// entire batch before the next tree is touched, so one tree's
    /// layout stays hot in cache for all candidates. Accumulation runs
    /// in the same tree order as [`RandomForest::predict`], so results
    /// are bit-identical to the scalar path.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is not `out.len()` rows of `n_features` columns.
    pub fn predict_batch_into(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(
            xs.len(),
            out.len() * self.n_features,
            "matrix shape mismatch"
        );
        out.fill(0.0);
        for tree in &self.trees {
            tree.accumulate_batch(xs, out);
        }
        let n = self.trees.len() as f64;
        for o in out {
            *o /= n;
        }
    }

    /// [`RandomForest::predict_batch_into`] over the rows `lattice` was
    /// compiled from, with every uniform column holding `fixed`'s value
    /// for it — but each tree is descended **once** for the whole grid
    /// (see [`crate::lattice`]) instead of once per row. Trees accumulate
    /// in the same order and every row receives exactly one leaf value
    /// per tree, so `out` is bit-identical to the batch walk's.
    ///
    /// # Panics
    ///
    /// Panics unless `lattice` and `fixed` are `n_features` wide and
    /// `out` has one slot per lattice row.
    pub fn predict_lattice_into(&self, lattice: &Lattice, fixed: &[f64], out: &mut [f64]) {
        assert_eq!(
            lattice.n_features(),
            self.n_features,
            "lattice width mismatch"
        );
        assert_eq!(fixed.len(), self.n_features, "feature width mismatch");
        assert_eq!(out.len(), lattice.n_rows(), "one output per lattice row");
        out.fill(0.0);
        let mut stack = Vec::new();
        for tree in &self.trees {
            tree.accumulate_lattice(lattice, fixed, out, &mut stack);
        }
        let n = self.trees.len() as f64;
        for o in out {
            *o /= n;
        }
    }

    /// Number of trees currently in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The hyperparameters the forest was configured with. Note that after
    /// [`RandomForest::warm_start_extend`] the live ensemble can hold more
    /// trees than `params().n_trees`.
    pub fn params(&self) -> &ForestParams {
        &self.params
    }

    /// Drops the `n` oldest trees at or after index `keep` — the
    /// forgetting half of the warm-start retraining cycle, keeping the
    /// ensemble (and prediction latency) bounded while stale knowledge
    /// ages out. The first `keep` trees are protected so the broad
    /// original training base is never forgotten wholesale. Always keeps
    /// at least one tree.
    pub fn retire_oldest(&mut self, n: usize, keep: usize) {
        let keep = keep.min(self.trees.len());
        let evictable = self.trees.len() - keep;
        let n = n.min(evictable).min(self.trees.len().saturating_sub(1));
        self.trees.drain(keep..keep + n);
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave_data(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "junk".into()]);
        for i in 0..n {
            let x = i as f64 / n as f64 * 10.0;
            d.push(vec![x, ((i * 13) % 11) as f64], (x).sin() * 5.0 + x);
        }
        d
    }

    #[test]
    fn fits_smooth_function_reasonably() {
        let d = wave_data(300);
        let f = RandomForest::fit(&d, &ForestParams::default(), 1).unwrap();
        for probe in [1.0f64, 4.0, 8.0] {
            let truth = probe.sin() * 5.0 + probe;
            let pred = f.predict(&[probe, 0.0]);
            assert!((pred - truth).abs() < 2.0, "x={probe}: {pred} vs {truth}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = wave_data(100);
        let a = RandomForest::fit(&d, &ForestParams::default(), 9).unwrap();
        let b = RandomForest::fit(&d, &ForestParams::default(), 9).unwrap();
        assert_eq!(a.predict(&[2.0, 0.0]), b.predict(&[2.0, 0.0]));
    }

    #[test]
    fn warm_start_adds_trees_and_shifts_predictions() {
        let d = wave_data(100);
        let mut f = RandomForest::fit(&d, &ForestParams::default(), 2).unwrap();
        let before_trees = f.n_trees();
        // New regime: constant 100.
        let mut new = Dataset::new(vec!["x".into(), "junk".into()]);
        for i in 0..100 {
            new.push(vec![i as f64 / 10.0, 0.0], 100.0);
        }
        f.warm_start_extend(&new, before_trees, 3).unwrap();
        assert_eq!(f.n_trees(), before_trees * 2);
        // Half the trees now vote 100, pulling predictions strongly upward.
        assert!(f.predict(&[5.0, 0.0]) > 40.0);
    }

    #[test]
    fn retire_oldest_respects_protected_prefix() {
        let d = wave_data(100);
        let params = ForestParams {
            n_trees: 10,
            ..ForestParams::default()
        };
        let mut f = RandomForest::fit(&d, &params, 7).unwrap();
        f.warm_start_extend(&d, 20, 8).unwrap();
        assert_eq!(f.n_trees(), 30);
        // Asking to evict more than is evictable only drains past `keep`.
        f.retire_oldest(100, 10);
        assert_eq!(f.n_trees(), 10);
        // And never below one tree even with keep = 0.
        f.retire_oldest(100, 0);
        assert_eq!(f.n_trees(), 1);
    }

    #[test]
    fn warm_start_rejects_mismatched_width() {
        let d = wave_data(50);
        let mut f = RandomForest::fit(&d, &ForestParams::default(), 2).unwrap();
        let narrow = Dataset::new(vec!["only".into()]);
        assert!(matches!(
            f.warm_start_extend(&narrow, 1, 0),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn zero_trees_invalid() {
        let d = wave_data(10);
        let params = ForestParams {
            n_trees: 0,
            ..ForestParams::default()
        };
        assert!(matches!(
            RandomForest::fit(&d, &params, 0),
            Err(MlError::InvalidParameter(_))
        ));
    }

    #[test]
    fn clone_is_a_shared_snapshot() {
        let d = wave_data(100);
        let mut f = RandomForest::fit(&d, &ForestParams::default(), 6).unwrap();
        let snap = f.clone();
        // Clones share the fitted trees (Arc-bump, not a deep copy).
        assert!(Arc::ptr_eq(&f.trees[0], &snap.trees[0]));
        // Mutating the original (retrain + eviction) leaves the snapshot
        // predicting from the old ensemble.
        let before = snap.predict(&[5.0, 0.0]);
        let mut new = Dataset::new(vec!["x".into(), "junk".into()]);
        for i in 0..100 {
            new.push(vec![i as f64 / 10.0, 0.0], 500.0);
        }
        f.warm_start_extend(&new, 60, 8).unwrap();
        f.retire_oldest(30, 10);
        assert_eq!(snap.predict(&[5.0, 0.0]), before);
        assert_ne!(f.predict(&[5.0, 0.0]), before);
    }

    #[test]
    fn from_parts_round_trip_is_bit_identical() {
        let d = wave_data(150);
        let mut f = RandomForest::fit(&d, &ForestParams::default(), 5).unwrap();
        f.warm_start_extend(&d, 10, 6).unwrap();
        let back = RandomForest::from_parts(f.trees().to_vec(), f.params().clone(), f.n_features())
            .unwrap();
        assert_eq!(back.n_trees(), f.n_trees());
        for i in 0..20 {
            let x = [i as f64 * 0.51, (i % 3) as f64];
            assert_eq!(back.predict(&x).to_bits(), f.predict(&x).to_bits());
        }
        // Invalid shapes are rejected.
        assert!(RandomForest::from_parts(vec![], ForestParams::default(), 2).is_err());
        assert!(matches!(
            RandomForest::from_parts(f.trees().to_vec(), ForestParams::default(), 3),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn batch_flat_matches_scalar_bitwise() {
        let d = wave_data(150);
        let f = RandomForest::fit(&d, &ForestParams::default(), 5).unwrap();
        // 13 rows exercises the 4-wide blocks plus a remainder.
        let rows: Vec<[f64; 2]> = (0..13).map(|i| [i as f64 * 0.83, (i % 4) as f64]).collect();
        let xs: Vec<f64> = rows.iter().flatten().copied().collect();
        // Whatever the caller's buffer held is overwritten, not added to.
        let mut out = vec![f64::NAN; rows.len()];
        f.predict_batch_into(&xs, &mut out);
        for (row, got) in rows.iter().zip(&out) {
            assert_eq!(got.to_bits(), f.predict(row).to_bits());
        }
    }
}
