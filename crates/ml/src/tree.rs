//! CART regression trees (variance-reduction splits).
//!
//! These are the base learners of the paper's "decision-tree based Random
//! Forest" (§3.1, Equation 1). Trees are grown by the presorted builder in
//! the private `builder` module — each feature sorted once per forest, no sort
//! and no allocation below a tree's root — whose module docs carry the
//! argument for why its trees are bit-identical to per-node sorting. What
//! the builder grows is compiled into flat parallel arrays, and those are
//! the tree: what every walk reads and what persistence stores.

mod builder;

pub(crate) use builder::Presorted;

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::lattice::{Lattice, Region, Route};

/// Hyperparameters for one regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples a node needs before it may split.
    pub min_samples_split: usize,
    /// Minimum samples each child must keep.
    pub min_samples_leaf: usize,
    /// Features considered per split; `None` considers all (plain CART),
    /// `Some(m)` samples `m` at random (random-forest style).
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 16,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: None,
        }
    }
}

/// A node as the builder grows it, children by index; compiled into the
/// flat arrays and dropped before a [`RegressionTree`] exists.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// Sentinel in [`RegressionTree::flat_parts`]' `feature` marking a leaf
/// slot.
const LEAF: u16 = u16::MAX;

/// A fitted CART regression tree, held as flat parallel arrays.
///
/// Node *i* is a leaf when `feature[i] == u16::MAX`, in which case
/// `threshold[i]` holds the leaf value inline. Otherwise `children[i]` is
/// the left-child index and the right child sits at `children[i] + 1`:
/// siblings are always adjacent, which keeps a root-to-leaf walk on three
/// parallel arrays. The same arrays are the on-disk shape (see
/// [`RegressionTree::flat_parts`]).
///
/// # Example
///
/// ```
/// use smartpick_ml::dataset::Dataset;
/// use smartpick_ml::tree::{RegressionTree, TreeParams};
///
/// let mut data = Dataset::new(vec!["x".into()]);
/// for i in 0..50 {
///     let x = i as f64;
///     data.push(vec![x], if x < 25.0 { 1.0 } else { 9.0 });
/// }
/// let tree = RegressionTree::fit(&data, &TreeParams::default(), 0)?;
/// assert!(tree.predict(&[10.0]) < 2.0);
/// assert!(tree.predict(&[40.0]) > 8.0);
/// # Ok::<(), smartpick_ml::MlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RegressionTree {
    feature: Vec<u16>,
    threshold: Vec<f64>,
    children: Vec<u32>,
    n_features: usize,
    /// Total variance reduction contributed by each feature (unnormalised
    /// impurity importance).
    importance: Vec<f64>,
}

impl RegressionTree {
    /// Fits a tree on `data`.
    ///
    /// `seed` drives the feature subsampling (only relevant when
    /// `params.max_features` is set).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for an empty dataset.
    pub fn fit(data: &Dataset, params: &TreeParams, seed: u64) -> Result<Self, MlError> {
        Self::fit_indices(data, &(0..data.len()).collect::<Vec<_>>(), params, seed)
    }

    /// Fits a tree on a subset of `data` given by `indices` (used by
    /// bootstrap bagging).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] when `data` or `indices` is empty.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn fit_indices(
        data: &Dataset,
        indices: &[usize],
        params: &TreeParams,
        seed: u64,
    ) -> Result<Self, MlError> {
        Self::fit_presorted(&Presorted::new(data)?, indices, params, seed)
    }

    /// [`RegressionTree::fit_indices`] on a dataset already laid out for
    /// growing, so a forest sorts its columns once for all its trees.
    pub(crate) fn fit_presorted(
        data: &Presorted<'_>,
        indices: &[usize],
        params: &TreeParams,
        seed: u64,
    ) -> Result<Self, MlError> {
        if indices.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        assert!(
            data.n_features() < LEAF as usize,
            "feature count must fit below the u16 leaf sentinel"
        );
        let (nodes, importance) = builder::grow(data, indices, params, seed);
        Ok(Self::compile(&nodes, data.n_features(), importance))
    }

    /// Compiles the builder's nodes (root at index 0) into the flat
    /// layout, renumbering so siblings are adjacent. Values are copied
    /// verbatim, so the flat walk answers bit for bit what a walk over
    /// `nodes` would.
    fn compile(nodes: &[Node], n_features: usize, importance: Vec<f64>) -> Self {
        let n = nodes.len();
        let mut tree = RegressionTree {
            feature: vec![0; n],
            threshold: vec![0.0; n],
            children: vec![0; n],
            n_features,
            importance,
        };
        // Worklist of (builder index, flat index); children are allocated in
        // adjacent pairs so only the left index needs storing.
        let mut next_free = 1u32;
        let mut work = vec![(0usize, 0u32)];
        while let Some((src, dst)) = work.pop() {
            let dst_usize = dst as usize;
            match nodes[src] {
                Node::Leaf { value } => {
                    tree.feature[dst_usize] = LEAF;
                    tree.threshold[dst_usize] = value;
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    tree.feature[dst_usize] =
                        u16::try_from(feature).expect("feature index fits u16");
                    tree.threshold[dst_usize] = threshold;
                    tree.children[dst_usize] = next_free;
                    work.push((left, next_free));
                    work.push((right, next_free + 1));
                    next_free += 2;
                }
            }
        }
        debug_assert_eq!(next_free as usize, n);
        tree
    }

    /// Advances one walk by a single node: descends `i` for a split and
    /// returns `false`, or returns `true` when `i` rests on a leaf.
    #[inline]
    fn step(&self, x: &[f64], i: &mut usize) -> bool {
        let f = self.feature[*i];
        if f == LEAF {
            return true;
        }
        let left = self.children[*i] as usize;
        *i = if x[f as usize] <= self.threshold[*i] {
            left
        } else {
            left + 1
        };
        false
    }

    /// Predicts the target for one feature vector: a root-to-leaf walk
    /// over the flat arrays.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width.
    #[inline]
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature width mismatch");
        let mut i = 0usize;
        while !self.step(x, &mut i) {}
        self.threshold[i]
    }

    /// Accumulates this tree's prediction for every row of the row-major
    /// matrix `xs` (stride = the tree's feature count) into `out`
    /// (`out[r] += predict(row r)`), walking the flat arrays so one
    /// tree's layout stays hot in cache across the whole batch. Rows are
    /// processed in independent blocks so the walks overlap in the
    /// pipeline instead of serialising on load latency.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is not `out.len()` rows of `n_features`.
    pub fn accumulate_batch(&self, xs: &[f64], out: &mut [f64]) {
        let nf = self.n_features;
        assert_eq!(xs.len(), out.len() * nf, "matrix shape mismatch");
        if nf == 0 {
            // A zero-width tree is necessarily a single leaf.
            for o in out {
                *o += self.predict(&[]);
            }
            return;
        }
        let mut rows = xs.chunks_exact(nf * 4);
        let mut outs = out.chunks_exact_mut(4);
        for (quad, o) in rows.by_ref().zip(outs.by_ref()) {
            // Four independent root-to-leaf walks in flight at once.
            let (a, rest) = quad.split_at(nf);
            let (b, rest) = rest.split_at(nf);
            let (c, d) = rest.split_at(nf);
            let mut ia = 0usize;
            let mut ib = 0usize;
            let mut ic = 0usize;
            let mut id = 0usize;
            let mut da = false;
            let mut db = false;
            let mut dc = false;
            let mut dd = false;
            loop {
                if !da {
                    da = self.step(a, &mut ia);
                }
                if !db {
                    db = self.step(b, &mut ib);
                }
                if !dc {
                    dc = self.step(c, &mut ic);
                }
                if !dd {
                    dd = self.step(d, &mut id);
                }
                if da && db && dc && dd {
                    break;
                }
            }
            o[0] += self.threshold[ia];
            o[1] += self.threshold[ib];
            o[2] += self.threshold[ic];
            o[3] += self.threshold[id];
        }
        for (row, o) in rows.remainder().chunks_exact(nf).zip(outs.into_remainder()) {
            *o += self.predict(row);
        }
    }

    /// [`RegressionTree::accumulate_batch`] over the rows `lattice` was
    /// compiled from (uniform columns taken from `fixed`), without
    /// visiting them: one descent carrying the region of rows that reach
    /// each node, a leaf adding its value to its region's rows. `stack`
    /// is scratch, so a forest pass allocates it once.
    pub(crate) fn accumulate_lattice(
        &self,
        lattice: &Lattice,
        fixed: &[f64],
        out: &mut [f64],
        stack: &mut Vec<(u32, Region)>,
    ) {
        stack.clear();
        let (mut i, mut region) = (0usize, lattice.root());
        loop {
            let f = self.feature[i];
            if f == LEAF {
                lattice.add(region, self.threshold[i], out);
                match stack.pop() {
                    Some((node, rest)) => (i, region) = (node as usize, rest),
                    None => return,
                }
                continue;
            }
            let left = self.children[i];
            i = match lattice.route(region, f as usize, self.threshold[i], fixed) {
                Route::Left => left as usize,
                Route::Right => left as usize + 1,
                Route::Both(l, r) => {
                    stack.push((left + 1, r));
                    region = l;
                    left as usize
                }
            };
        }
    }

    /// The tree's arrays, `(feature, threshold, children)` — also the
    /// canonical on-disk shape for model persistence. Slot `i` is a leaf
    /// when `feature[i] == u16::MAX` (the leaf value sits inline in
    /// `threshold[i]`); otherwise `children[i]` is the left-child index
    /// and the right child is `children[i] + 1`.
    pub fn flat_parts(&self) -> (&[u16], &[f64], &[u32]) {
        (&self.feature, &self.threshold, &self.children)
    }

    /// Reassembles a fitted tree from [`RegressionTree::flat_parts`]
    /// output plus its feature width and importance vector. The arrays
    /// are the tree, so once they pass validation they are kept as given
    /// and every prediction is bit-identical to the original's.
    ///
    /// Validation is total: every structural invariant is checked before
    /// any walk could run, so corrupted inputs are rejected instead of
    /// panicking or looping.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidParameter`] when the arrays are empty,
    /// have mismatched lengths, reference out-of-range features or
    /// children, or contain a non-forward child edge (which could form a
    /// cycle).
    pub fn from_flat_parts(
        feature: Vec<u16>,
        threshold: Vec<f64>,
        children: Vec<u32>,
        n_features: usize,
        importance: Vec<f64>,
    ) -> Result<Self, MlError> {
        let n = feature.len();
        if n == 0 {
            return Err(MlError::InvalidParameter(
                "tree must have at least one node",
            ));
        }
        if threshold.len() != n || children.len() != n {
            return Err(MlError::InvalidParameter("flat array lengths must match"));
        }
        if n_features >= LEAF as usize {
            return Err(MlError::InvalidParameter(
                "feature count must fit below the u16 leaf sentinel",
            ));
        }
        if importance.len() != n_features {
            return Err(MlError::InvalidParameter(
                "importance width must match feature count",
            ));
        }
        for (i, (&f, &left)) in feature.iter().zip(&children).enumerate() {
            if f == LEAF {
                continue;
            }
            if f as usize >= n_features {
                return Err(MlError::InvalidParameter("split feature out of range"));
            }
            let left = left as usize;
            // Children must sit strictly after their parent (the compiler
            // allocates them that way), which both bounds the arrays and
            // rules out cycles, so every walk terminates.
            if left <= i || left + 1 >= n {
                return Err(MlError::InvalidParameter("child index not forward"));
            }
        }
        Ok(RegressionTree {
            feature,
            threshold,
            children,
            n_features,
            importance,
        })
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.feature.len()
    }

    /// Number of feature columns the tree was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Unnormalised impurity importance per feature.
    pub fn importance(&self) -> &[f64] {
        &self.importance
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn step_data() -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "noise".into()]);
        for i in 0..100 {
            let x = i as f64;
            let y = if x < 30.0 {
                5.0
            } else if x < 70.0 {
                20.0
            } else {
                -3.0
            };
            d.push(vec![x, (i % 7) as f64], y);
        }
        d
    }

    #[test]
    fn learns_piecewise_constant_function() {
        let d = step_data();
        let t = RegressionTree::fit(&d, &TreeParams::default(), 0).unwrap();
        assert!((t.predict(&[10.0, 0.0]) - 5.0).abs() < 0.5);
        assert!((t.predict(&[50.0, 0.0]) - 20.0).abs() < 0.5);
        assert!((t.predict(&[90.0, 0.0]) + 3.0).abs() < 0.5);
    }

    #[test]
    fn informative_feature_dominates_importance() {
        let d = step_data();
        let t = RegressionTree::fit(&d, &TreeParams::default(), 0).unwrap();
        assert!(t.importance()[0] > t.importance()[1] * 10.0);
    }

    #[test]
    fn depth_zero_yields_single_leaf_mean() {
        let d = step_data();
        let params = TreeParams {
            max_depth: 0,
            ..TreeParams::default()
        };
        let t = RegressionTree::fit(&d, &params, 0).unwrap();
        assert_eq!(t.node_count(), 1);
        let mean = d.targets().iter().sum::<f64>() / d.len() as f64;
        assert!((t.predict(&[0.0, 0.0]) - mean).abs() < 1e-9);
    }

    #[test]
    fn constant_target_is_single_leaf() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..20 {
            d.push(vec![i as f64], 7.5);
        }
        let t = RegressionTree::fit(&d, &TreeParams::default(), 0).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[3.0]), 7.5);
    }

    #[test]
    fn empty_dataset_errors() {
        let d = Dataset::new(vec!["x".into()]);
        assert!(matches!(
            RegressionTree::fit(&d, &TreeParams::default(), 0),
            Err(MlError::EmptyDataset)
        ));
    }

    #[test]
    fn min_samples_leaf_respected() {
        let d = step_data();
        let params = TreeParams {
            min_samples_leaf: 40,
            ..TreeParams::default()
        };
        let t = RegressionTree::fit(&d, &params, 0).unwrap();
        // With 100 samples and 40-sample leaves at most one split fits.
        assert!(t.node_count() <= 3, "nodes: {}", t.node_count());
    }

    /// A node can pass `min_samples_split` and still hold fewer samples
    /// than one `min_samples_leaf` child needs (this used to underflow
    /// `n - min_samples_leaf`): it is a leaf.
    #[test]
    fn node_smaller_than_one_min_leaf_is_a_leaf() {
        let mut d = Dataset::new(vec!["x".into()]);
        for (x, y) in [(1.0, 10.0), (2.0, 20.0), (3.0, 60.0)] {
            d.push(vec![x], y);
        }
        let params = TreeParams {
            min_samples_split: 2,
            min_samples_leaf: 5,
            ..TreeParams::default()
        };
        let t = RegressionTree::fit(&d, &params, 0).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[2.0]), 30.0);
    }

    #[test]
    #[should_panic]
    fn predict_rejects_wrong_width() {
        let d = step_data();
        let t = RegressionTree::fit(&d, &TreeParams::default(), 0).unwrap();
        let _ = t.predict(&[1.0]);
    }

    /// The walk the builder's own nodes describe, children by index —
    /// the oracle the compiled arrays are held to.
    fn enum_walk(nodes: &[Node], x: &[f64]) -> f64 {
        let mut node = 0;
        loop {
            match nodes[node] {
                Node::Leaf { value } => return value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => node = if x[feature] <= threshold { left } else { right },
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `compile` changes a tree's layout and nothing else: on the
        /// builder's own output — plain and bootstrap samples, drawn and
        /// undrawn feature sets, single-leaf trees (depth 0, one sample)
        /// and zero-width ones — the flat walk returns the bits the walk
        /// over the nodes returns, on the training rows and well outside
        /// their hull.
        #[test]
        fn flat_walk_matches_reference_bitwise(
            width in 0usize..5,
            raw in prop::collection::vec(
                (prop::collection::vec(-50.0f64..50.0, 4), -100.0f64..100.0),
                1..40,
            ),
            max_depth in 0usize..10,
            max_features in 0usize..4,
            bootstrap in 0u32..2,
            seed in 0u64..1000,
        ) {
            let mut data = Dataset::new((0..width).map(|f| format!("f{f}")).collect());
            for (x, y) in &raw {
                data.push(x[..width].to_vec(), *y);
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let sample: Vec<usize> = (0..data.len())
                .map(|i| if bootstrap == 1 { rng.gen_range(0..data.len()) } else { i })
                .collect();
            let params = TreeParams {
                max_depth,
                max_features: (max_features > 0 && width > 0).then_some(max_features),
                ..TreeParams::default()
            };
            let (nodes, importance) =
                builder::grow(&Presorted::new(&data).unwrap(), &sample, &params, seed);
            let tree = RegressionTree::compile(&nodes, width, importance);
            prop_assert_eq!(tree.node_count(), nodes.len());
            if max_depth == 0 || raw.len() == 1 || width == 0 {
                prop_assert_eq!(tree.node_count(), 1);
            }
            let probes = (0..23usize).map(|r| {
                (0..width)
                    .map(|c| (((r * 31 + c * 17) % 97) as f64 / 97.0 - 0.5) * 160.0)
                    .collect::<Vec<f64>>()
            });
            for x in data.features().iter().cloned().chain(probes) {
                prop_assert_eq!(tree.predict(&x).to_bits(), enum_walk(&nodes, &x).to_bits());
            }
        }
    }

    #[test]
    fn flat_parts_round_trip_is_bit_identical() {
        let d = step_data();
        let t = RegressionTree::fit(&d, &TreeParams::default(), 3).unwrap();
        let (f, th, ch) = t.flat_parts();
        let back = RegressionTree::from_flat_parts(
            f.to_vec(),
            th.to_vec(),
            ch.to_vec(),
            t.n_features(),
            t.importance().to_vec(),
        )
        .unwrap();
        assert_eq!(back.node_count(), t.node_count());
        let (back_f, back_th, back_ch) = back.flat_parts();
        assert_eq!((back_f, back_ch), (f, ch));
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back_th), bits(th));
        for i in 0..120 {
            let x = [i as f64 - 10.0, (i % 9) as f64];
            assert_eq!(back.predict(&x).to_bits(), t.predict(&x).to_bits());
        }
    }

    #[test]
    fn from_flat_parts_rejects_corrupt_structure() {
        let d = step_data();
        let t = RegressionTree::fit(&d, &TreeParams::default(), 3).unwrap();
        let (f, th, ch) = t.flat_parts();
        let (f, th, ch) = (f.to_vec(), th.to_vec(), ch.to_vec());
        // Empty tree.
        assert!(RegressionTree::from_flat_parts(vec![], vec![], vec![], 2, vec![0.0; 2]).is_err());
        // Mismatched lengths.
        assert!(RegressionTree::from_flat_parts(
            f.clone(),
            th[..th.len() - 1].to_vec(),
            ch.clone(),
            2,
            vec![0.0; 2]
        )
        .is_err());
        // Backward child edge (possible cycle) on the first split node.
        if let Some(split) = f.iter().position(|&v| v != u16::MAX) {
            let mut bad = ch.clone();
            bad[split] = split as u32;
            assert!(
                RegressionTree::from_flat_parts(f.clone(), th.clone(), bad, 2, vec![0.0; 2])
                    .is_err()
            );
        }
        // Split feature out of range.
        if let Some(split) = f.iter().position(|&v| v != u16::MAX) {
            let mut bad = f.clone();
            bad[split] = 7;
            assert!(
                RegressionTree::from_flat_parts(bad, th.clone(), ch.clone(), 2, vec![0.0; 2])
                    .is_err()
            );
        }
    }

    #[test]
    fn accumulate_batch_matches_scalar_walks() {
        let d = step_data();
        let t = RegressionTree::fit(&d, &TreeParams::default(), 0).unwrap();
        // 11 rows: exercises both the 4-wide blocks and the remainder.
        let rows: Vec<[f64; 2]> = (0..11).map(|i| [i as f64 * 9.5, (i % 5) as f64]).collect();
        let xs: Vec<f64> = rows.iter().flatten().copied().collect();
        let mut out = vec![0.0; rows.len()];
        t.accumulate_batch(&xs, &mut out);
        for (row, got) in rows.iter().zip(&out) {
            assert_eq!(got.to_bits(), t.predict(row).to_bits());
        }
    }
}
