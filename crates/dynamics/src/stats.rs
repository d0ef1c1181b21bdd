//! Summary statistics for Monte-Carlo experiments.

/// Summary of a sample of real values (consensus times, final fractions, …).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (unbiased, `0.0` for fewer than 2 samples).
    pub std_dev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// Median (linear interpolation).
    pub median: f64,
    /// 10th percentile.
    pub p10: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl Summary {
    /// Summarises `values`; returns `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        Some(Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: quantile_sorted(&sorted, 0.5),
            p10: quantile_sorted(&sorted, 0.1),
            p90: quantile_sorted(&sorted, 0.9),
        })
    }

    /// Half-width of the normal-approximation 95% confidence interval on the
    /// mean.
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        1.96 * self.std_dev / (self.count as f64).sqrt()
    }
}

/// Quantile of an already sorted slice with linear interpolation.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let q = q.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// An estimated probability with a Wilson-score 95% confidence interval —
/// used for "probability the initial majority wins" (experiment E5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProportionEstimate {
    /// Number of successes.
    pub successes: usize,
    /// Number of trials.
    pub trials: usize,
    /// Point estimate `successes / trials`.
    pub estimate: f64,
    /// Lower end of the Wilson 95% interval.
    pub ci_low: f64,
    /// Upper end of the Wilson 95% interval.
    pub ci_high: f64,
}

impl ProportionEstimate {
    /// Builds the estimate; returns `None` when `trials == 0`.
    pub fn new(successes: usize, trials: usize) -> Option<Self> {
        if trials == 0 || successes > trials {
            return None;
        }
        let n = trials as f64;
        let p = successes as f64 / n;
        let z = 1.959_963_984_540_054f64; // 97.5th normal percentile
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * ((p * (1.0 - p) / n) + z2 / (4.0 * n * n)).sqrt();
        Some(ProportionEstimate {
            successes,
            trials,
            estimate: p,
            ci_low: (centre - half).max(0.0),
            ci_high: (centre + half).min(1.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_sample_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_of_single_value() {
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 3.5);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn summary_statistics_are_correct() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.std_dev - (2.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert!(s.ci95_half_width() > 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let sorted = [0.0, 10.0];
        assert!((quantile_sorted(&sorted, 0.5) - 5.0).abs() < 1e-12);
        assert!((quantile_sorted(&sorted, 0.25) - 2.5).abs() < 1e-12);
        assert_eq!(quantile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 10.0);
        assert_eq!(quantile_sorted(&[7.0], 0.3), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_sample_panics() {
        quantile_sorted(&[], 0.5);
    }

    #[test]
    fn p10_p90_order() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = Summary::of(&values).unwrap();
        assert!(s.p10 < s.median && s.median < s.p90);
        assert!((s.p10 - 9.9).abs() < 1e-9);
        assert!((s.p90 - 89.1).abs() < 1e-9);
    }

    #[test]
    fn proportion_estimate_edge_cases() {
        assert!(ProportionEstimate::new(1, 0).is_none());
        assert!(ProportionEstimate::new(5, 3).is_none());
        let all = ProportionEstimate::new(10, 10).unwrap();
        assert_eq!(all.estimate, 1.0);
        // The Wilson upper bound at p̂ = 1 is exactly 1 analytically; allow
        // for floating-point rounding.
        assert!(all.ci_low < 1.0 && all.ci_high > 1.0 - 1e-9);
        let none = ProportionEstimate::new(0, 10).unwrap();
        assert_eq!(none.estimate, 0.0);
        assert!(none.ci_high > 0.0 && none.ci_low < 1e-9);
    }

    #[test]
    fn proportion_interval_narrows_with_more_trials() {
        let small = ProportionEstimate::new(6, 10).unwrap();
        let large = ProportionEstimate::new(600, 1000).unwrap();
        let w_small = small.ci_high - small.ci_low;
        let w_large = large.ci_high - large.ci_low;
        assert!(w_large < w_small);
        assert!((large.estimate - 0.6).abs() < 1e-12);
        assert!(large.ci_low < 0.6 && 0.6 < large.ci_high);
    }
}
