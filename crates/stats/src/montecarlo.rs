//! Monte Carlo estimation with running error tracking.
//!
//! The paper computes its expected-throughput tables "in Maple with Monte
//! Carlo integration" (§3.2.5). [`MonteCarlo`] is our equivalent: it
//! accumulates samples with Welford's numerically stable algorithm and
//! reports the estimate together with its standard error, so reproduction
//! code can assert that its sampling noise is small relative to the
//! differences it is claiming to measure.

use crate::summary::Summary;
use serde::{Deserialize, Serialize};

/// Result of a Monte Carlo estimation: mean and its standard error.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloEstimate {
    /// Sample mean.
    pub mean: f64,
    /// Standard error of the mean (sample std-dev / √n).
    pub std_error: f64,
    /// Number of samples used.
    pub n: u64,
}

/// Streaming Monte Carlo estimator.
///
/// ```
/// use rand::Rng;
/// use wcs_stats::{MonteCarlo, rng::seeded_rng};
///
/// // ∫₀¹ x² dx = 1/3 by sampling.
/// let mut rng = seeded_rng(7);
/// let mut mc = MonteCarlo::new();
/// for _ in 0..100_000 {
///     let x: f64 = rng.gen();
///     mc.add(x * x);
/// }
/// let est = mc.estimate();
/// assert!((est.mean - 1.0 / 3.0).abs() < 4.0 * est.std_error + 1e-3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MonteCarlo {
    summary: Summary,
}

impl MonteCarlo {
    /// New empty estimator.
    pub fn new() -> Self {
        MonteCarlo {
            summary: Summary::new(),
        }
    }

    /// Add one sample.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.summary.add(x);
    }

    /// Current estimate (mean ± standard error). Panics if no samples.
    pub fn estimate(&self) -> MonteCarloEstimate {
        let n = self.summary.n();
        assert!(n > 0, "no samples");
        let se = if n > 1 {
            (self.summary.variance() / n as f64).sqrt()
        } else {
            f64::INFINITY
        };
        MonteCarloEstimate {
            mean: self.summary.mean(),
            std_error: se,
            n,
        }
    }

    /// Merge another estimator's samples into this one (parallel reduction).
    pub fn merge(&mut self, other: &MonteCarlo) {
        self.summary.merge(&other.summary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use rand::Rng;

    #[test]
    fn estimates_uniform_mean() {
        let mut rng = seeded_rng(1);
        let mut mc = MonteCarlo::new();
        for _ in 0..100_000 {
            mc.add(rng.gen::<f64>());
        }
        let est = mc.estimate();
        assert!((est.mean - 0.5).abs() < 5.0 * est.std_error);
        // SE of U(0,1) mean ≈ sqrt(1/12/n).
        let expected_se = (1.0 / 12.0f64 / 100_000.0).sqrt();
        assert!((est.std_error - expected_se).abs() / expected_se < 0.05);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut rng = seeded_rng(4);
        let xs: Vec<f64> = (0..10_000).map(|_| rng.gen::<f64>()).collect();
        let mut whole = MonteCarlo::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = MonteCarlo::new();
        let mut b = MonteCarlo::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.add(x)
            } else {
                b.add(x)
            }
        }
        a.merge(&b);
        let ea = a.estimate();
        let ew = whole.estimate();
        assert_eq!(ea.n, ew.n);
        assert!((ea.mean - ew.mean).abs() < 1e-12);
        assert!((ea.std_error - ew.std_error).abs() < 1e-12);
    }
}
