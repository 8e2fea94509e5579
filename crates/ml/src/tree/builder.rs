//! The CART builder: presorted, column-major, allocation-free below the
//! root.
//!
//! Growing a tree asks the same question at every node — for each
//! candidate feature, which cut between two adjacent distinct values
//! leaves the least squared error — and the answer needs the node's
//! samples in feature order. Sorting them at every node, for every
//! candidate, is what a retrain used to spend its time on. This builder
//! sorts once and keeps the order:
//!
//! 1. [`Presorted::new`] lays the dataset out column-major and sorts each
//!    column **once per forest-growing call**, keeping only every row's
//!    dense rank in its column (rows with equal values share a rank).
//! 2. [`grow`] gathers one tree's bootstrap multiset into column-major
//!    sample arrays and expands the ranks into per-feature orderings of
//!    the sample *positions* by a stable counting sort — `O(n)` per
//!    feature, ties left in position order.
//! 3. From then on a node is a range `lo..hi` that means the same set of
//!    positions in every ordering (one per feature, plus one in position
//!    order). A candidate feature is scanned with running sums over its
//!    range; a split stable-partitions every range into its children's.
//!    Nothing is sorted or allocated below the root.
//!
//! # Why the trees are bit-identical to per-node sorting
//!
//! The per-node builder (kept as the test oracle at the bottom of this
//! file) stable-sorts a node's position list — which is in increasing
//! position order — by feature value, so it visits samples by *(value,
//! position)*. A stable sort of a subset is the subset of the stable sort:
//! the counting sort yields *(value, position)* order for the root, and a
//! stable partition keeps it for every descendant. Every floating-point
//! sum is therefore taken over the same values in the same order — node
//! mean and squared error in position order, split scans in *(value,
//! position)* order — the same candidates are compared with the same
//! first-wins tie rule, samples are routed by the same `x <= threshold`
//! test (never by rank: a midpoint can round onto its upper neighbour),
//! and the feature draw consumes the generator at the same nodes in the
//! same pre-order. Thresholds, leaf values, importances and node numbers
//! come out bit for bit; the property test below and the pinned forest
//! fingerprints in `smartpick_core`'s `forest_golden` test hold it.
//!
//! NaN feature values have no place in either ordering; as before, what
//! tree they grow is unspecified (but growing one does not panic).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::{Node, TreeParams};
use crate::dataset::Dataset;
use crate::error::MlError;

/// A dataset laid out for tree growing; shared by every tree of one
/// forest-growing call.
#[derive(Debug)]
pub(crate) struct Presorted<'a> {
    targets: &'a [f64],
    n_rows: usize,
    n_features: usize,
    /// Feature values, column-major: `cols[f * n_rows + row]`.
    cols: Vec<f64>,
    /// `ranks[f * n_rows + row]`: the number of distinct values of column
    /// `f` below that row's.
    ranks: Vec<u32>,
    /// Distinct values per column.
    n_ranks: Vec<usize>,
}

impl<'a> Presorted<'a> {
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for an empty dataset.
    pub(crate) fn new(data: &'a Dataset) -> Result<Self, MlError> {
        let (n_rows, n_features) = (data.len(), data.n_features());
        if n_rows == 0 {
            return Err(MlError::EmptyDataset);
        }
        let n_rows_u32 = u32::try_from(n_rows).expect("row count fits u32");
        let mut cols = Vec::with_capacity(n_features * n_rows);
        for f in 0..n_features {
            cols.extend(data.features().iter().map(|row| row[f]));
        }
        let mut ranks = vec![0u32; n_features * n_rows];
        let mut n_ranks = Vec::with_capacity(n_features);
        let mut by_value: Vec<u32> = Vec::with_capacity(n_rows);
        for (col, ranks) in cols
            .chunks_exact(n_rows)
            .zip(ranks.chunks_exact_mut(n_rows))
        {
            by_value.clear();
            by_value.extend(0..n_rows_u32);
            // Only the grouping into equal values matters here, so any
            // total order that keeps `==` values adjacent will do.
            by_value.sort_unstable_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
            let mut rank = 0u32;
            for pair in by_value.windows(2) {
                if col[pair[0] as usize] != col[pair[1] as usize] {
                    rank += 1;
                }
                ranks[pair[1] as usize] = rank;
            }
            n_ranks.push(rank as usize + 1);
        }
        Ok(Presorted {
            targets: data.targets(),
            n_rows,
            n_features,
            cols,
            ranks,
            n_ranks,
        })
    }

    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }
}

/// Candidate split found for a node.
struct BestSplit {
    feature: usize,
    threshold: f64,
    score: f64,
}

/// One tree's growing state. `n` sample positions; a node is a range that
/// selects the same positions from `by_position` and from each feature's
/// stretch of `order`.
struct Builder<'a> {
    params: &'a TreeParams,
    n: usize,
    /// The sample's feature values, column-major: `xs[f * n + position]`.
    xs: Vec<f64>,
    /// The sample's targets, by position.
    ys: Vec<f64>,
    /// `order[f * n..][lo..hi]`: the node's positions by *(value of `f`,
    /// position)*.
    order: Vec<u32>,
    /// `by_position[lo..hi]`: the node's positions, increasing.
    by_position: Vec<u32>,
    rng: StdRng,
    nodes: Vec<Node>,
    importance: Vec<f64>,
    // Scratch, live only within one node's own work.
    goes_left: Vec<bool>,
    spill: Vec<u32>,
    scan: Vec<(f64, f64, f64)>,
    features: Vec<usize>,
}

/// Grows one tree on the rows `sample` (a non-empty multiset of row
/// indices into `data`); returns its nodes, root first, and the
/// unnormalised importance per feature.
pub(super) fn grow(
    data: &Presorted<'_>,
    sample: &[usize],
    params: &TreeParams,
    seed: u64,
) -> (Vec<Node>, Vec<f64>) {
    let (n, n_features) = (sample.len(), data.n_features);
    let n_u32 = u32::try_from(n).expect("sample size fits u32");
    let mut xs = Vec::with_capacity(n_features * n);
    let mut order = vec![0u32; n_features * n];
    let mut next_slot: Vec<u32> = Vec::new();
    for f in 0..n_features {
        let col = &data.cols[f * data.n_rows..][..data.n_rows];
        xs.extend(sample.iter().map(|&row| col[row]));
        // Stable counting sort of the positions on their rows' ranks.
        let ranks = &data.ranks[f * data.n_rows..][..data.n_rows];
        next_slot.clear();
        next_slot.resize(data.n_ranks[f] + 1, 0);
        for &row in sample {
            next_slot[ranks[row] as usize + 1] += 1;
        }
        for rank in 1..next_slot.len() {
            next_slot[rank] += next_slot[rank - 1];
        }
        let order = &mut order[f * n..][..n];
        for (position, &row) in (0..n_u32).zip(sample) {
            let slot = &mut next_slot[ranks[row] as usize];
            order[*slot as usize] = position;
            *slot += 1;
        }
    }
    let mut builder = Builder {
        params,
        n,
        xs,
        ys: sample.iter().map(|&row| data.targets[row]).collect(),
        order,
        by_position: (0..n_u32).collect(),
        rng: StdRng::seed_from_u64(seed),
        nodes: Vec::new(),
        importance: vec![0.0; n_features],
        goes_left: vec![false; n],
        spill: vec![0; n],
        scan: Vec::with_capacity(n),
        features: Vec::with_capacity(n_features),
    };
    let root = builder.build(0, n, 0);
    debug_assert_eq!(root, 0);
    (builder.nodes, builder.importance)
}

/// Moves the positions flagged in `goes_left` to the front of `range`,
/// the rest behind them, both in their present order.
fn stable_partition(range: &mut [u32], goes_left: &[bool], spill: &mut [u32]) {
    let (mut kept, mut spilled) = (0, 0);
    for i in 0..range.len() {
        // Both stores every time and two counters: no branch to mispredict
        // on what is a coin flip for every feature but the split's own.
        let position = range[i];
        let left = goes_left[position as usize];
        range[kept] = position;
        spill[spilled] = position;
        kept += usize::from(left);
        spilled += usize::from(!left);
    }
    range[kept..].copy_from_slice(&spill[..spilled]);
}

impl Builder<'_> {
    /// The mean of the node's targets and the sum of squared errors around
    /// it, both summed in position order.
    fn mean_sse(&self, lo: usize, hi: usize) -> (f64, f64) {
        let idx = &self.by_position[lo..hi];
        let mean = idx.iter().map(|&i| self.ys[i as usize]).sum::<f64>() / idx.len() as f64;
        let sse = idx
            .iter()
            .map(|&i| (self.ys[i as usize] - mean).powi(2))
            .sum();
        (mean, sse)
    }

    fn leaf(&mut self, value: f64) -> usize {
        self.nodes.push(Node::Leaf { value });
        self.nodes.len() - 1
    }

    fn best_split_on(&mut self, lo: usize, hi: usize, feature: usize) -> Option<BestSplit> {
        let n = hi - lo;
        let min_leaf = self.params.min_samples_leaf.max(1);
        // Too few samples to leave `min_leaf` on both sides: no cut.
        let last_cut = n.checked_sub(min_leaf).filter(|&k| k >= min_leaf)?;
        let col = &self.xs[feature * self.n..][..self.n];
        let order = &self.order[feature * self.n..][lo..hi];
        if col[order[0] as usize] == col[order[n - 1] as usize] {
            return None; // constant over the node: nothing to cut between
        }
        // Feature values beside the prefix sums of y and y², in feature
        // order.
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        self.scan.clear();
        self.scan.extend(order.iter().map(|&i| {
            let y = self.ys[i as usize];
            sum += y;
            sum2 += y * y;
            (col[i as usize], sum, sum2)
        }));
        let (total, total2) = (sum, sum2);
        // The first candidate stands until a strictly better one; a flag,
        // not a branch: which candidate improves is a coin flip.
        let (mut best_k, mut best_score) = (0, 0.0);
        for k in min_leaf..=last_cut {
            let (xa, ls, ls2) = self.scan[k - 1];
            let xb = self.scan[k].0;
            let rs = total - ls;
            let rs2 = total2 - ls2;
            let sse_l = ls2 - ls * ls / k as f64;
            let sse_r = rs2 - rs * rs / (n - k) as f64;
            let score = sse_l + sse_r;
            // Equal neighbours leave nothing to cut between.
            let better = (xa != xb) & ((best_k == 0) | (score < best_score));
            best_score = if better { score } else { best_score };
            best_k = if better { k } else { best_k };
        }
        (best_k != 0).then(|| BestSplit {
            feature,
            threshold: (self.scan[best_k - 1].0 + self.scan[best_k].0) / 2.0,
            score: best_score,
        })
    }

    /// Builds the subtree over the node `lo..hi`; returns its index.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let (mean, node_sse) = self.mean_sse(lo, hi);
        if depth >= self.params.max_depth
            || hi - lo < self.params.min_samples_split
            || node_sse <= 1e-12
        {
            return self.leaf(mean);
        }

        let n_features = self.importance.len();
        self.features.clear();
        self.features.extend(0..n_features);
        if let Some(m) = self.params.max_features {
            self.features.shuffle(&mut self.rng);
            self.features.truncate(m.clamp(1, n_features.max(1)));
        }
        // The first of equally good features wins, as `Iterator::min_by`
        // has it.
        let mut best: Option<BestSplit> = None;
        for i in 0..self.features.len() {
            if let Some(split) = self.best_split_on(lo, hi, self.features[i]) {
                if best.as_ref().is_none_or(|b| split.score < b.score) {
                    best = Some(split);
                }
            }
        }

        let Some(best) = best else {
            return self.leaf(mean);
        };
        let gain = node_sse - best.score;
        if gain <= 1e-12 {
            return self.leaf(mean);
        }
        self.importance[best.feature] += gain;

        let col = &self.xs[best.feature * self.n..][..self.n];
        let mut n_left = 0;
        for &i in &self.by_position[lo..hi] {
            let left = col[i as usize] <= best.threshold;
            self.goes_left[i as usize] = left;
            n_left += usize::from(left);
        }
        stable_partition(
            &mut self.by_position[lo..hi],
            &self.goes_left,
            &mut self.spill,
        );
        for order in self.order.chunks_exact_mut(self.n) {
            stable_partition(&mut order[lo..hi], &self.goes_left, &mut self.spill);
        }
        let mid = lo + n_left;
        // Reserve the split slot, then build children.
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf { value: 0.0 });
        let left = self.build(lo, mid, depth + 1);
        let right = self.build(mid, hi, depth + 1);
        self.nodes[slot] = Node::Split {
            feature: best.feature,
            threshold: best.threshold,
            left,
            right,
        };
        slot
    }
}

/// The builder this one replaced, verbatim but for the `min_samples_leaf`
/// underflow fix: at every node, for every candidate feature, it copies
/// the node's position list, stable-sorts it through row-major samples and
/// allocates a prefix-sum vector. Slow and plainly right — the oracle.
#[cfg(test)]
mod oracle {
    use rand::seq::SliceRandom;
    use rand::Rng;

    use super::super::{Node, TreeParams};
    use super::BestSplit;

    pub(super) struct Builder<'a> {
        pub(super) xs: &'a [Vec<f64>],
        pub(super) ys: &'a [f64],
        pub(super) params: &'a TreeParams,
        pub(super) nodes: Vec<Node>,
        pub(super) importance: Vec<f64>,
    }

    impl Builder<'_> {
        /// Sum of squared errors around the mean for the given sample indices.
        fn sse(&self, idx: &[usize]) -> f64 {
            if idx.is_empty() {
                return 0.0;
            }
            let mean = idx.iter().map(|&i| self.ys[i]).sum::<f64>() / idx.len() as f64;
            idx.iter().map(|&i| (self.ys[i] - mean).powi(2)).sum()
        }

        fn leaf(&mut self, idx: &[usize]) -> usize {
            let value = idx.iter().map(|&i| self.ys[i]).sum::<f64>() / idx.len() as f64;
            self.nodes.push(Node::Leaf { value });
            self.nodes.len() - 1
        }

        fn best_split_on(&self, idx: &[usize], feature: usize) -> Option<BestSplit> {
            let mut order: Vec<usize> = idx.to_vec();
            order.sort_by(|&a, &b| {
                self.xs[a][feature]
                    .partial_cmp(&self.xs[b][feature])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let n = order.len();
            // Prefix sums of y and y² in feature order.
            let mut sum = 0.0;
            let mut sum2 = 0.0;
            let prefix: Vec<(f64, f64)> = order
                .iter()
                .map(|&i| {
                    sum += self.ys[i];
                    sum2 += self.ys[i] * self.ys[i];
                    (sum, sum2)
                })
                .collect();
            let (total, total2) = prefix[n - 1];
            let mut best: Option<BestSplit> = None;
            let min_leaf = self.params.min_samples_leaf.max(1);
            // The fix: this was `n - min_leaf`.
            for k in min_leaf..=n.saturating_sub(min_leaf) {
                if k == n {
                    break;
                }
                let xa = self.xs[order[k - 1]][feature];
                let xb = self.xs[order[k]][feature];
                if xa == xb {
                    continue; // cannot split between identical values
                }
                let (ls, ls2) = prefix[k - 1];
                let rs = total - ls;
                let rs2 = total2 - ls2;
                let sse_l = ls2 - ls * ls / k as f64;
                let sse_r = rs2 - rs * rs / (n - k) as f64;
                let score = sse_l + sse_r;
                if best.as_ref().is_none_or(|b| score < b.score) {
                    best = Some(BestSplit {
                        feature,
                        threshold: (xa + xb) / 2.0,
                        score,
                    });
                }
            }
            best
        }

        pub(super) fn build(&mut self, idx: &[usize], depth: usize, rng: &mut impl Rng) -> usize {
            let node_sse = self.sse(idx);
            if depth >= self.params.max_depth
                || idx.len() < self.params.min_samples_split
                || node_sse <= 1e-12
            {
                return self.leaf(idx);
            }

            let n_features = self.xs[0].len();
            let features: Vec<usize> = match self.params.max_features {
                None => (0..n_features).collect(),
                Some(m) => {
                    let mut all: Vec<usize> = (0..n_features).collect();
                    all.shuffle(rng);
                    all.truncate(m.clamp(1, n_features));
                    all
                }
            };

            let best = features
                .iter()
                .filter_map(|&f| self.best_split_on(idx, f))
                .min_by(|a, b| {
                    a.score
                        .partial_cmp(&b.score)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });

            let Some(best) = best else {
                return self.leaf(idx);
            };
            let gain = node_sse - best.score;
            if gain <= 1e-12 {
                return self.leaf(idx);
            }
            self.importance[best.feature] += gain;

            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx
                .iter()
                .partition(|&&i| self.xs[i][best.feature] <= best.threshold);
            // Reserve the split slot, then build children.
            let slot = self.nodes.len();
            self.nodes.push(Node::Leaf { value: 0.0 });
            let left = self.build(&left_idx, depth + 1, rng);
            let right = self.build(&right_idx, depth + 1, rng);
            self.nodes[slot] = Node::Split {
                feature: best.feature,
                threshold: best.threshold,
                left,
                right,
            };
            slot
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::super::{RegressionTree, TreeParams};
    use super::oracle;
    use crate::dataset::Dataset;

    /// The tree the replaced builder grows on the rows `sample` of `data`,
    /// set up the way `fit_indices` used to.
    fn oracle_tree(
        data: &Dataset,
        sample: &[usize],
        params: &TreeParams,
        seed: u64,
    ) -> RegressionTree {
        let xs: Vec<Vec<f64>> = sample.iter().map(|&i| data.features()[i].clone()).collect();
        let ys: Vec<f64> = sample.iter().map(|&i| data.targets()[i]).collect();
        let mut builder = oracle::Builder {
            xs: &xs,
            ys: &ys,
            params,
            nodes: Vec::new(),
            importance: vec![0.0; data.n_features()],
        };
        let all: Vec<usize> = (0..xs.len()).collect();
        let root = builder.build(&all, 0, &mut StdRng::seed_from_u64(seed));
        assert_eq!(root, 0);
        RegressionTree::compile(&builder.nodes, data.n_features(), builder.importance)
    }

    fn assert_same_tree(got: &RegressionTree, want: &RegressionTree) -> Result<(), TestCaseError> {
        let (feature, threshold, children) = got.flat_parts();
        let (want_feature, want_threshold, want_children) = want.flat_parts();
        prop_assert_eq!(feature, want_feature);
        prop_assert_eq!(children, want_children);
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(threshold), bits(want_threshold));
        prop_assert_eq!(bits(got.importance()), bits(want.importance()));
        Ok(())
    }

    /// A dataset of the shapes that stress tie order: per column one of
    /// all-zero, constant, a few heavily tied levels (signed zeros among
    /// them), integers, continuous, or neighbouring floats whose midpoint
    /// rounds onto one of them; then optionally burst — jittered copies, as
    /// a retrain sees them. Targets are a signal, a tie-heavy step, or
    /// constant.
    fn stress_dataset(rng: &mut StdRng, rows: usize, width: usize, burst: bool) -> Dataset {
        let kinds: Vec<u32> = (0..width).map(|_| rng.gen_range(0..6)).collect();
        let target_kind = rng.gen_range(0..6u32);
        let mut data = Dataset::new((0..width).map(|f| format!("f{f}")).collect());
        for _ in 0..rows {
            let x: Vec<f64> = kinds
                .iter()
                .map(|kind| match kind {
                    0 => 0.0,
                    1 => 2048.0,
                    2 => [-1.5, -0.0, 0.0, 3.0][rng.gen_range(0..4usize)],
                    3 => f64::from(rng.gen_range(0..8u32)),
                    4 => rng.gen_range(-100.0..100.0),
                    _ => f64::from_bits(1.0f64.to_bits() + rng.gen_range(0..4u64)),
                })
                .collect();
            let y = match target_kind {
                0 => 7.5,
                1 => f64::from(rng.gen_range(0..3u32)),
                _ => x.iter().sum::<f64>() + rng.gen_range(-1.0..1.0),
            };
            data.push(x, y);
        }
        if burst {
            data = data.burst(rng.gen_range(2..5), 0.05, rng);
        }
        data
    }

    /// Exact score ties, which random data all but never draws: cutting
    /// `y = 0, 1, 0` after the first or after the second sample scores
    /// 0.5 either way, on either of two identical columns. The first cut
    /// of the first feature stands.
    #[test]
    fn the_first_of_equally_good_cuts_and_features_wins() {
        let mut data = Dataset::new(vec!["a".into(), "b".into()]);
        for (x, y) in [(1.0, 0.0), (2.0, 1.0), (3.0, 0.0)] {
            data.push(vec![x, x], y);
        }
        let params = TreeParams {
            min_samples_split: 2,
            min_samples_leaf: 1,
            ..TreeParams::default()
        };
        let sample = [0, 1, 2];
        let got = RegressionTree::fit_indices(&data, &sample, &params, 0).unwrap();
        assert_same_tree(&got, &oracle_tree(&data, &sample, &params, 0)).unwrap();
        let (feature, threshold, _) = got.flat_parts();
        assert_eq!((feature[0], threshold[0]), (0, 1.5));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Bit-identity with the per-node sorting builder, over every knob
        /// that reaches the builder — `min_samples_leaf` beyond what a
        /// node can give included.
        #[test]
        fn grows_the_trees_per_node_sorting_grew(
            seed in 0u64..u64::MAX,
            rows in 1usize..64,
            width in 0usize..6,
            burst_bootstrap in (0u32..2, 0u32..2),
            limits in (0usize..12, 0usize..9, 0usize..7),
            max_features in 0usize..5,
        ) {
            let (burst, bootstrap) = burst_bootstrap;
            let (max_depth, min_samples_split, min_samples_leaf) = limits;
            let mut rng = StdRng::seed_from_u64(seed);
            let data = stress_dataset(&mut rng, rows, width, burst == 1);
            let sample: Vec<usize> = if bootstrap == 1 {
                (0..data.len()).map(|_| rng.gen_range(0..data.len())).collect()
            } else {
                (0..data.len()).collect()
            };
            let params = TreeParams {
                max_depth,
                min_samples_split,
                min_samples_leaf,
                // An undrawn feature set and a drawn one; zero-width data
                // could never draw (the oracle's clamp would panic).
                max_features: (max_features > 0 && width > 0).then_some(max_features),
            };
            let got = RegressionTree::fit_indices(&data, &sample, &params, seed).unwrap();
            assert_same_tree(&got, &oracle_tree(&data, &sample, &params, seed))?;
        }
    }
}
