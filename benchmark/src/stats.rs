//! Order statistics: medians, quartiles, and the percentile rule.

/// Sorts ascending (NaN-free inputs; `total_cmp` keeps it panic-free).
pub fn sort(v: &mut [f64]) {
    v.sort_unstable_by(f64::total_cmp);
}

/// Linear-interpolated quantile of an ascending-sorted slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(mut v: Vec<f64>) -> f64 {
    sort(&mut v);
    quantile(&v, 0.5)
}

/// Samples a percentile needs before it may be reported: at least ten
/// samples must lie beyond it (`n · (1 − q) ≥ 10`).
pub fn samples_needed(q: f64) -> usize {
    (10.0 / (1.0 - q)).ceil() as usize
}

/// Whether `n` samples are enough to report percentile `q`.
pub fn supports(q: f64, n: usize) -> bool {
    n >= samples_needed(q)
}

/// Says so when a percentile rests on fewer samples than the rule asks
/// for — which only short `--quick` windows should ever do.
pub fn check_percentile(metric: &str, q: f64, samples: usize) {
    if !supports(q, samples) {
        eprintln!(
            "note: {metric} rests on {samples} samples, fewer than the {} its percentile needs",
            samples_needed(q)
        );
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the rule the acceptance check uses.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len();
    if len < 2 {
        let only = sorted.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median, quartiles and range of one metric across repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    pub fn of(mut v: Vec<f64>) -> Spread {
        sort(&mut v);
        let (q1, q3) = quartiles(&v);
        Spread {
            median: quantile(&v, 0.5),
            q1,
            q3,
            min: v.first().copied().unwrap_or(f64::NAN),
            max: v.last().copied().unwrap_or(f64::NAN),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }

    /// Full range as a share of the median.
    pub fn range_share(&self) -> f64 {
        (self.max - self.min) / self.median.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(samples_needed(0.99), 1_000);
        assert_eq!(samples_needed(0.999), 10_000);
        assert_eq!(samples_needed(0.95), 200);
        assert!(supports(0.999, 10_000) && !supports(0.999, 9_999));
        assert!(supports(0.95, 200) && !supports(0.95, 199));
        assert!(supports(0.5, 20) && !supports(0.5, 19));
    }

    #[test]
    fn spread_shares() {
        let s = Spread::of(vec![10.0, 12.0, 8.0, 11.0, 9.0]);
        assert_eq!(s.median, 10.0);
        // statistics.quantiles([8, 9, 10, 11, 12], n=4) == [8.5, 10.0, 11.5]
        assert_eq!((s.q1, s.q3), (8.5, 11.5));
        assert!((s.iqr_share() - 0.3).abs() < 1e-12);
        assert!((s.range_share() - 0.4).abs() < 1e-12);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
    }
}
