//! Bootstrap confidence intervals.
//!
//! The §4 testbed ensembles are small (the paper aggregates a few dozen
//! pair-of-pairs runs), so normal-theory standard errors are shaky for
//! ratio statistics like "carrier sense as a fraction of optimal".
//! The percentile bootstrap gives honest intervals for any statistic of
//! an ensemble, for deciding whether a paper-vs-measured difference is
//! real.

use crate::rng::split_rng;
use rand::Rng;

/// A percentile-bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// Point estimate (the statistic on the full sample).
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level (e.g. 0.95).
    pub level: f64,
}

/// Percentile bootstrap for `statistic` over `data`.
///
/// * `resamples` — number of bootstrap resamples (≥ 1000 recommended).
/// * `level` — confidence level in (0, 1).
pub fn bootstrap_ci<F: FnMut(&[f64]) -> f64>(
    data: &[f64],
    mut statistic: F,
    resamples: usize,
    level: f64,
    seed: u64,
) -> BootstrapCi {
    assert!(!data.is_empty(), "bootstrap of empty sample");
    assert!(resamples >= 100);
    assert!(level > 0.0 && level < 1.0);
    let estimate = statistic(data);
    let mut rng = split_rng(seed, 0xb007);
    let mut stats = Vec::with_capacity(resamples);
    let mut buf = vec![0.0; data.len()];
    for _ in 0..resamples {
        for slot in buf.iter_mut() {
            *slot = data[rng.gen_range(0..data.len())];
        }
        stats.push(statistic(&buf));
    }
    stats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let alpha = (1.0 - level) / 2.0;
    let lo = crate::summary::quantile(&stats, alpha);
    let hi = crate::summary::quantile(&stats, 1.0 - alpha);
    BootstrapCi {
        estimate,
        lo,
        hi,
        level,
    }
}

/// Bootstrap CI for the mean (the common case).
pub fn bootstrap_mean_ci(data: &[f64], resamples: usize, level: f64, seed: u64) -> BootstrapCi {
    bootstrap_ci(
        data,
        |xs| xs.iter().sum::<f64>() / xs.len() as f64,
        resamples,
        level,
        seed,
    )
}

/// Bootstrap CI for the ratio of the means of two *paired* samples
/// (e.g. per-point carrier-sense vs optimal throughput): resamples the
/// pair indices jointly, preserving the correlation.
pub fn bootstrap_paired_ratio_ci(
    numer: &[f64],
    denom: &[f64],
    resamples: usize,
    level: f64,
    seed: u64,
) -> BootstrapCi {
    assert_eq!(numer.len(), denom.len());
    assert!(!numer.is_empty());
    let ratio = |idx: &[usize]| -> f64 {
        let n: f64 = idx.iter().map(|&i| numer[i]).sum();
        let d: f64 = idx.iter().map(|&i| denom[i]).sum();
        n / d
    };
    let full: Vec<usize> = (0..numer.len()).collect();
    let estimate = ratio(&full);
    let mut rng = split_rng(seed, 0xb008);
    let mut stats = Vec::with_capacity(resamples);
    let mut idx = vec![0usize; numer.len()];
    for _ in 0..resamples {
        for slot in idx.iter_mut() {
            *slot = rng.gen_range(0..numer.len());
        }
        stats.push(ratio(&idx));
    }
    stats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let alpha = (1.0 - level) / 2.0;
    BootstrapCi {
        estimate,
        lo: crate::summary::quantile(&stats, alpha),
        hi: crate::summary::quantile(&stats, 1.0 - alpha),
        level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use rand::Rng;

    #[test]
    fn mean_ci_covers_truth() {
        // N(5, 1) sample: the 95 % CI should contain 5 and have width
        // ≈ 2·1.96/√n.
        let mut rng = seeded_rng(1);
        let data: Vec<f64> = (0..400)
            .map(|_| 5.0 + crate::dist::standard_normal(&mut rng))
            .collect();
        let ci = bootstrap_mean_ci(&data, 2000, 0.95, 2);
        assert!(ci.lo < 5.0 && 5.0 < ci.hi, "{ci:?}");
        let width = ci.hi - ci.lo;
        let expected = 2.0 * 1.96 / 20.0;
        assert!((width - expected).abs() / expected < 0.35, "width {width}");
    }

    #[test]
    fn ci_orders_and_contains_estimate() {
        let data = [1.0, 2.0, 3.0, 4.0, 100.0];
        let ci = bootstrap_mean_ci(&data, 1000, 0.9, 3);
        assert!(ci.lo <= ci.estimate && ci.estimate <= ci.hi);
    }

    #[test]
    fn paired_ratio_uses_correlation() {
        // numer = 0.9 × denom exactly: the ratio CI must be tight around
        // 0.9 even though both series vary wildly.
        let mut rng = seeded_rng(4);
        let denom: Vec<f64> = (0..200).map(|_| rng.gen_range(100.0..2000.0)).collect();
        let numer: Vec<f64> = denom.iter().map(|d| 0.9 * d).collect();
        let ci = bootstrap_paired_ratio_ci(&numer, &denom, 2000, 0.95, 5);
        assert!((ci.estimate - 0.9).abs() < 1e-12);
        assert!(ci.hi - ci.lo < 1e-9, "paired ratio should be exact: {ci:?}");
    }

    #[test]
    fn paired_ratio_with_noise() {
        let mut rng = seeded_rng(6);
        let denom: Vec<f64> = (0..100).map(|_| rng.gen_range(500.0..1500.0)).collect();
        let numer: Vec<f64> = denom
            .iter()
            .map(|d| 0.9 * d + 20.0 * crate::dist::standard_normal(&mut rng))
            .collect();
        let ci = bootstrap_paired_ratio_ci(&numer, &denom, 2000, 0.95, 7);
        assert!(ci.lo < 0.9 && 0.9 < ci.hi, "{ci:?}");
        assert!(ci.hi - ci.lo < 0.05, "{ci:?}");
    }

    #[test]
    fn deterministic_in_seed() {
        let data = [1.0, 5.0, 2.0, 8.0, 3.0, 9.0];
        let a = bootstrap_mean_ci(&data, 500, 0.95, 42);
        let b = bootstrap_mean_ci(&data, 500, 0.95, 42);
        assert_eq!(a, b);
    }
}
