//! Exact Gaussian-process regression with an RBF kernel.
//!
//! The paper chooses a Gaussian Process Regressor as the Bayesian
//! optimizer's surrogate because "the variance in prediction accurately
//! models the noise in observations" and "it can precisely generate values
//! for newer data points" (§3.1). This implementation keeps hyperparameters
//! explicit and fits by Cholesky factorisation.

use crate::error::MlError;
use crate::linalg::{sq_dist, Cholesky, Matrix};

/// Gaussian-process hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GpParams {
    /// RBF length scale ℓ. `None` auto-selects the median pairwise distance
    /// of the training inputs (a standard heuristic).
    pub length_scale: Option<f64>,
    /// Signal variance σ_f².
    pub signal_variance: f64,
    /// Observation-noise variance σ_n² (the paper's δ noise term in Eq. 2).
    pub noise_variance: f64,
}

impl Default for GpParams {
    fn default() -> Self {
        GpParams {
            length_scale: None,
            signal_variance: 1.0,
            noise_variance: 1e-4,
        }
    }
}

/// A fitted Gaussian-process regressor.
///
/// # Example
///
/// ```
/// use smartpick_ml::gp::{GaussianProcess, GpParams};
///
/// let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| (x[0] / 3.0).sin()).collect();
/// let gp = GaussianProcess::fit(&xs, &ys, &GpParams::default())?;
/// let (mean, var) = gp.posterior(&[4.5]);
/// assert!((mean - (4.5f64 / 3.0).sin()).abs() < 0.15);
/// assert!(var >= 0.0);
/// # Ok::<(), smartpick_ml::MlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    xs: Vec<Vec<f64>>,
    alpha: Vec<f64>,
    chol: Cholesky,
    length_scale: f64,
    signal_variance: f64,
    y_mean: f64,
}

impl GaussianProcess {
    /// Fits the GP to observations `(xs, ys)`.
    ///
    /// # Errors
    ///
    /// * [`MlError::EmptyDataset`] when no observations are given.
    /// * [`MlError::DimensionMismatch`] when `xs` and `ys` lengths differ.
    /// * [`MlError::NotPositiveDefinite`] when the kernel matrix cannot be
    ///   factorised (e.g. duplicate points with zero noise).
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], params: &GpParams) -> Result<Self, MlError> {
        if xs.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if xs.len() != ys.len() {
            return Err(MlError::DimensionMismatch {
                expected: xs.len(),
                actual: ys.len(),
            });
        }
        let length_scale = match params.length_scale {
            Some(l) if l > 0.0 => l,
            Some(_) => return Err(MlError::InvalidParameter("length_scale must be positive")),
            None => median_pairwise_distance(xs).max(1e-6),
        };
        let n = xs.len();
        let y_mean = ys.iter().sum::<f64>() / n as f64;
        let centered: Vec<f64> = ys.iter().map(|y| y - y_mean).collect();
        let k = Matrix::from_fn(n, n, |i, j| {
            let v = rbf(&xs[i], &xs[j], length_scale, params.signal_variance);
            if i == j {
                v + params.noise_variance.max(1e-10)
            } else {
                v
            }
        });
        let chol = Cholesky::factor(&k)?;
        let alpha = chol.solve(&centered);
        Ok(GaussianProcess {
            xs: xs.to_vec(),
            alpha,
            chol,
            length_scale,
            signal_variance: params.signal_variance,
            y_mean,
        })
    }

    /// Posterior mean and variance at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has a different width than the training inputs.
    pub fn posterior(&self, x: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), self.xs[0].len(), "feature width mismatch");
        let kstar: Vec<f64> = self
            .xs
            .iter()
            .map(|xi| rbf(xi, x, self.length_scale, self.signal_variance))
            .collect();
        let mean = self.y_mean
            + kstar
                .iter()
                .zip(&self.alpha)
                .map(|(k, a)| k * a)
                .sum::<f64>();
        let v = self.chol.solve_lower(&kstar);
        let var = (self.signal_variance - v.iter().map(|x| x * x).sum::<f64>()).max(0.0);
        (mean, var)
    }

    /// The (possibly auto-selected) RBF length scale.
    pub fn length_scale(&self) -> f64 {
        self.length_scale
    }
}

fn rbf(a: &[f64], b: &[f64], length_scale: f64, signal_variance: f64) -> f64 {
    signal_variance * (-sq_dist(a, b) / (2.0 * length_scale * length_scale)).exp()
}

fn median_pairwise_distance(xs: &[Vec<f64>]) -> f64 {
    let mut dists = Vec::new();
    for i in 0..xs.len() {
        for j in (i + 1)..xs.len() {
            dists.push(sq_dist(&xs[i], &xs[j]).sqrt());
        }
    }
    if dists.is_empty() {
        return 1.0;
    }
    dists.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    dists[dists.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_training_points_with_low_noise() {
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0).collect();
        let gp = GaussianProcess::fit(&xs, &ys, &GpParams::default()).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let (m, v) = gp.posterior(x);
            assert!((m - y).abs() < 0.05, "{m} vs {y}");
            assert!(v < 0.05, "variance at training point should be tiny: {v}");
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let ys = vec![0.0; 5];
        let gp = GaussianProcess::fit(&xs, &ys, &GpParams::default()).unwrap();
        let (_, near) = gp.posterior(&[2.0]);
        let (_, far) = gp.posterior(&[30.0]);
        assert!(far > near, "far variance {far} <= near {near}");
        assert!(
            (far - 1.0).abs() < 1e-6,
            "far variance should revert to prior"
        );
    }

    #[test]
    fn mismatched_lengths_error() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![0.0];
        assert!(matches!(
            GaussianProcess::fit(&xs, &ys, &GpParams::default()),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_errors() {
        let e = GaussianProcess::fit(&[], &[], &GpParams::default());
        assert!(matches!(e, Err(MlError::EmptyDataset)));
    }

    #[test]
    fn invalid_length_scale_rejected() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![0.0, 1.0];
        let p = GpParams {
            length_scale: Some(0.0),
            ..GpParams::default()
        };
        assert!(matches!(
            GaussianProcess::fit(&xs, &ys, &p),
            Err(MlError::InvalidParameter(_))
        ));
    }

    #[test]
    fn duplicate_points_survive_thanks_to_noise_floor() {
        let xs = vec![vec![1.0], vec![1.0], vec![2.0]];
        let ys = vec![3.0, 3.1, 5.0];
        let p = GpParams {
            noise_variance: 1e-2,
            ..GpParams::default()
        };
        let gp = GaussianProcess::fit(&xs, &ys, &p).unwrap();
        let (m, _) = gp.posterior(&[1.0]);
        assert!((m - 3.05).abs() < 0.5);
    }
}
