//! Tabular datasets for regression.
//!
//! Implements the training-data handling the paper describes in §5
//! ("Training prediction model"): the **data-burst heuristic** that varies
//! each sample within ±5% to create a ~10× dataset from as few as 100
//! representational workloads, plus random shuffling before an unbiased
//! train/test hold-out split.

use rand::seq::SliceRandom;
use rand::Rng;

/// A feature matrix with regression targets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    feature_names: Vec<String>,
    features: Vec<Vec<f64>>,
    targets: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset with named feature columns.
    pub fn new(feature_names: Vec<String>) -> Self {
        Dataset {
            feature_names,
            features: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Adds one `(features, target)` sample.
    ///
    /// # Panics
    ///
    /// Panics if the feature vector width differs from the declared columns.
    pub fn push(&mut self, features: Vec<f64>, target: f64) {
        assert_eq!(
            features.len(),
            self.feature_names.len(),
            "sample width must match declared feature columns"
        );
        self.features.push(features);
        self.targets.push(target);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Declared feature column names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// The feature rows.
    pub fn features(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// The regression targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// One sample.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn sample(&self, i: usize) -> (&[f64], f64) {
        (&self.features[i], self.targets[i])
    }

    /// Shuffles samples in place.
    pub fn shuffle(&mut self, rng: &mut impl Rng) {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        self.features = order.iter().map(|&i| self.features[i].clone()).collect();
        self.targets = order.iter().map(|&i| self.targets[i]).collect();
    }

    /// Shuffles, then splits into `(train, test)` with `train_frac` of the
    /// samples in the training set — the paper's 80:20 hold-out (§6.2).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < train_frac < 1`.
    pub fn split(&self, train_frac: f64, rng: &mut impl Rng) -> (Dataset, Dataset) {
        assert!(
            train_frac > 0.0 && train_frac < 1.0,
            "train_frac must be in (0, 1)"
        );
        let mut shuffled = self.clone();
        shuffled.shuffle(rng);
        let n_train = ((shuffled.len() as f64) * train_frac).round() as usize;
        let n_train = n_train.clamp(1, shuffled.len().saturating_sub(1).max(1));
        let mut train = Dataset::new(self.feature_names.clone());
        let mut test = Dataset::new(self.feature_names.clone());
        for i in 0..shuffled.len() {
            let (x, y) = shuffled.sample(i);
            if i < n_train {
                train.push(x.to_vec(), y);
            } else {
                test.push(x.to_vec(), y);
            }
        }
        (train, test)
    }

    /// The paper's **data-burst** heuristic (§5): every sample is replicated
    /// `factor − 1` extra times with each coordinate (and the target)
    /// jittered uniformly within `±rel_jitter`, preceded and succeeded by a
    /// random shuffle. `factor = 10` and `rel_jitter = 0.05` reproduce the
    /// "±5%, around 10× samples" recipe.
    ///
    /// Returns a new dataset; the original is untouched.
    pub fn burst(&self, factor: usize, rel_jitter: f64, rng: &mut impl Rng) -> Dataset {
        let mut out = self.clone();
        out.shuffle(rng);
        let base = out.clone();
        for _ in 1..factor.max(1) {
            for i in 0..base.len() {
                let (x, y) = base.sample(i);
                let jittered: Vec<f64> = x
                    .iter()
                    .map(|v| v * (1.0 + rng.gen_range(-rel_jitter..=rel_jitter)))
                    .collect();
                let target = y * (1.0 + rng.gen_range(-rel_jitter..=rel_jitter));
                out.push(jittered, target);
            }
        }
        out.shuffle(rng);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..n {
            d.push(vec![i as f64, (i * 2) as f64], i as f64 * 10.0);
        }
        d
    }

    #[test]
    fn push_and_inspect() {
        let d = toy(5);
        assert_eq!(d.len(), 5);
        assert_eq!(d.n_features(), 2);
        let (x, y) = d.sample(3);
        assert_eq!(x, &[3.0, 6.0]);
        assert_eq!(y, 30.0);
    }

    #[test]
    #[should_panic]
    fn wrong_width_rejected() {
        let mut d = toy(1);
        d.push(vec![1.0], 0.0);
    }

    #[test]
    fn split_is_8020_and_disjoint_union() {
        let d = toy(100);
        let mut rng = StdRng::seed_from_u64(3);
        let (train, test) = d.split(0.8, &mut rng);
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
        let mut all: Vec<f64> = train.targets().to_vec();
        all.extend_from_slice(test.targets());
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut expect: Vec<f64> = d.targets().to_vec();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, expect);
    }

    #[test]
    fn burst_multiplies_by_factor_within_jitter() {
        let d = toy(20);
        let mut rng = StdRng::seed_from_u64(5);
        let burst = d.burst(10, 0.05, &mut rng);
        assert_eq!(burst.len(), 200);
        // Every target stays within 5% of some original target.
        for &y in burst.targets() {
            let ok = d
                .targets()
                .iter()
                .any(|&orig| (y - orig).abs() <= orig.abs() * 0.05 + 1e-9);
            assert!(ok, "target {y} not within 5% of any original");
        }
    }

    #[test]
    fn burst_factor_one_only_shuffles() {
        let d = toy(10);
        let mut rng = StdRng::seed_from_u64(9);
        let b = d.burst(1, 0.05, &mut rng);
        assert_eq!(b.len(), 10);
    }

    #[test]
    fn shuffle_is_seed_deterministic() {
        let d = toy(50);
        let mut a = d.clone();
        let mut b = d.clone();
        a.shuffle(&mut StdRng::seed_from_u64(1));
        b.shuffle(&mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
    }
}
