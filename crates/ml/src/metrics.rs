//! Regression quality metrics, including the paper's accuracy criterion.
//!
//! §6.2: "Based on the extensive statistical analysis, we take 2 times the
//! standard error as an accurate enough prediction, since it considers both
//! the directions of error" — i.e. a test sample counts as accurate when
//! its absolute residual is within twice the regression standard error.

/// Root-mean-squared error.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn rmse(truth: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "length mismatch");
    assert!(!truth.is_empty(), "empty input");
    let mse = truth
        .iter()
        .zip(pred)
        .map(|(t, p)| (t - p) * (t - p))
        .sum::<f64>()
        / truth.len() as f64;
    mse.sqrt()
}

/// Standard error of the regression: `sqrt(SSE / (n - 2))` (the residual
/// standard error the paper's accuracy rule is built on). Falls back to the
/// RMSE when `n <= 2`.
pub fn regression_std_error(truth: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "length mismatch");
    assert!(!truth.is_empty(), "empty input");
    let n = truth.len();
    if n <= 2 {
        return rmse(truth, pred);
    }
    let sse: f64 = truth.iter().zip(pred).map(|(t, p)| (t - p) * (t - p)).sum();
    (sse / (n - 2) as f64).sqrt()
}

/// Fraction of samples whose absolute residual is at most `threshold`.
pub fn accuracy_within(truth: &[f64], pred: &[f64], threshold: f64) -> f64 {
    assert_eq!(truth.len(), pred.len(), "length mismatch");
    assert!(!truth.is_empty(), "empty input");
    let hits = truth
        .iter()
        .zip(pred)
        .filter(|(t, p)| (*t - *p).abs() <= threshold)
        .count();
    hits as f64 / truth.len() as f64
}

/// The paper's §6.2 accuracy: fraction of samples within **2× the
/// regression standard error** of the truth, as a percentage.
pub fn paper_accuracy_percent(truth: &[f64], pred: &[f64]) -> f64 {
    let threshold = 2.0 * regression_std_error(truth, pred);
    accuracy_within(truth, pred, threshold) * 100.0
}

/// Histogram of absolute residuals with fixed-width bins, as
/// `(bin_upper_edge, count)` — the data behind the paper's Figure 4.
pub fn residual_histogram(
    truth: &[f64],
    pred: &[f64],
    bin_width: f64,
    bins: usize,
) -> Vec<(f64, usize)> {
    assert!(bin_width > 0.0 && bins > 0, "invalid histogram shape");
    let mut counts = vec![0usize; bins];
    for (t, p) in truth.iter().zip(pred) {
        let r = (t - p).abs();
        let idx = ((r / bin_width).floor() as usize).min(bins - 1);
        counts[idx] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| ((i + 1) as f64 * bin_width, c))
        .collect()
}

/// Standard normal probability density.
pub fn norm_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution via the Abramowitz–Stegun 7.1.26
/// erf approximation (|error| < 1.5e-7), good enough for acquisition
/// functions.
pub fn norm_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_and_mae_basic() {
        let t = [1.0, 2.0, 3.0];
        let p = [1.0, 2.0, 5.0];
        assert!((rmse(&t, &p) - (4.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn accuracy_counts_threshold_hits() {
        let t = [0.0, 0.0, 0.0, 0.0];
        let p = [0.5, 1.5, -0.2, 3.0];
        assert_eq!(accuracy_within(&t, &p, 1.0), 0.5);
    }

    #[test]
    fn paper_accuracy_is_high_for_good_fit() {
        // Residuals ~N(0, 1): about 95% should fall within 2 standard errors.
        let truth: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let pred: Vec<f64> = truth
            .iter()
            .enumerate()
            .map(|(i, t)| t + ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5)
            .collect();
        let acc = paper_accuracy_percent(&truth, &pred);
        assert!(acc > 90.0, "accuracy {acc}");
    }

    #[test]
    fn histogram_buckets_residuals() {
        let t = [0.0, 0.0, 0.0];
        let p = [0.5, 1.5, 99.0];
        let h = residual_histogram(&t, &p, 1.0, 3);
        assert_eq!(h, vec![(1.0, 1), (2.0, 1), (3.0, 1)]);
    }

    #[test]
    fn norm_cdf_matches_known_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((norm_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((norm_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn pdf_peak_at_zero() {
        assert!(norm_pdf(0.0) > norm_pdf(0.5));
        assert!((norm_pdf(0.0) - 0.3989).abs() < 1e-4);
    }

    #[test]
    fn std_error_uses_n_minus_2() {
        let t = [0.0, 0.0, 0.0, 0.0];
        let p = [1.0, -1.0, 1.0, -1.0];
        // SSE = 4, n-2 = 2 => stderr = sqrt(2).
        assert!((regression_std_error(&t, &p) - 2.0f64.sqrt()).abs() < 1e-12);
    }
}
