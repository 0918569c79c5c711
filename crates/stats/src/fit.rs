//! Censored maximum-likelihood fitting of the path-loss + shadowing model.
//!
//! Paper Figure 14 fits measured testbed RSSI values with "a maximum-
//! likelihood fit of a model combining power law path loss and lognormal
//! shadowing (and accounting for the invisibility of sub-threshold links)",
//! obtaining α ≈ 3.6, σ ≈ 10.4 dB. This module implements exactly that
//! estimator: mean RSSI(d) = rssi0 − 10·α·log10(d/d0) with Gaussian
//! residuals of std-dev σ, where each *observed* link is conditioned on
//! having exceeded the detection threshold (truncated likelihood), and
//! known-censored links (pairs that should exist but were never heard)
//! contribute the censoring probability Φ((T − μ)/σ).

use crate::optimize::nelder_mead_min;
use crate::special::norm_cdf;

/// One RSSI measurement: link distance and received signal strength in dB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RssiSample {
    /// Link distance (any consistent unit; the fit reports `rssi0` at
    /// `ref_distance` in the same unit).
    pub distance: f64,
    /// Measured RSSI in dB (relative to an arbitrary but fixed reference).
    pub rssi_db: f64,
}

/// Result of the path-loss/shadowing fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLossFit {
    /// Path-loss exponent α.
    pub alpha: f64,
    /// Shadowing standard deviation σ in dB.
    pub sigma_db: f64,
    /// Mean RSSI at the reference distance, in dB.
    pub rssi0_db: f64,
    /// Reference distance used for `rssi0_db`.
    pub ref_distance: f64,
    /// Maximised log-likelihood.
    pub log_likelihood: f64,
}

fn log_norm_pdf(z: f64) -> f64 {
    -0.5 * z * z - 0.5 * (2.0 * std::f64::consts::PI).ln()
}

/// Fit α, σ and rssi0 by maximum likelihood.
///
/// * `samples` — observed (above-threshold) links.
/// * `censored_distances` — distances of known links that were *not*
///   observed (below threshold); pass `&[]` if unknown, in which case the
///   estimator uses the truncated likelihood for the observed samples,
///   which is what the paper does ("accounting for the invisibility of
///   sub-threshold links").
/// * `threshold_db` — the detection threshold `T`; observations are
///   conditioned on exceeding it. Pass `f64::NEG_INFINITY` for an
///   uncensored ordinary-least-squares-equivalent ML fit.
/// * `ref_distance` — distance at which `rssi0_db` is reported (the
///   paper uses R = 20).
#[allow(clippy::too_many_arguments)] // mirrors the estimator's parameter set
pub fn fit_pathloss_shadowing(
    samples: &[RssiSample],
    censored_distances: &[f64],
    threshold_db: f64,
    ref_distance: f64,
) -> PathLossFit {
    assert!(
        samples.len() >= 3,
        "need at least 3 samples to fit 3 parameters"
    );
    assert!(ref_distance > 0.0);
    assert!(
        samples.iter().all(|s| s.distance > 0.0),
        "distances must be positive"
    );

    // Initial guess from simple linear regression of rssi on log10(d/d0).
    let n = samples.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for s in samples {
        let x = (s.distance / ref_distance).log10();
        sx += x;
        sy += s.rssi_db;
        sxx += x * x;
        sxy += x * s.rssi_db;
    }
    let denom = n * sxx - sx * sx;
    let slope = if denom.abs() > 1e-12 {
        (n * sxy - sx * sy) / denom
    } else {
        -30.0
    };
    let intercept = (sy - slope * sx) / n;
    let alpha0 = (-slope / 10.0).clamp(1.0, 8.0);
    let rssi00 = intercept;
    let mut resid2 = 0.0;
    for s in samples {
        let mu = rssi00 - 10.0 * alpha0 * (s.distance / ref_distance).log10();
        resid2 += (s.rssi_db - mu).powi(2);
    }
    let sigma0 = (resid2 / n).sqrt().max(1.0);

    // Negative log-likelihood with truncation/censoring.
    let nll = |p: &[f64]| -> f64 {
        let (alpha, sigma, rssi0) = (p[0], p[1], p[2]);
        if !(0.2..=10.0).contains(&alpha) || !(0.3..=40.0).contains(&sigma) {
            return 1e12;
        }
        let mut ll = 0.0;
        // Two statistically distinct situations:
        // * Censored likelihood — the set of below-threshold links is
        //   known: observed links contribute their plain density and each
        //   censored link contributes P(rssi < T). Do NOT also truncate
        //   the observed terms; that would double-count the censoring.
        // * Truncated likelihood — unseen links are simply unknown:
        //   condition each observation on having exceeded T.
        let censored_known = !censored_distances.is_empty();
        for s in samples {
            let mu = rssi0 - 10.0 * alpha * (s.distance / ref_distance).log10();
            let z = (s.rssi_db - mu) / sigma;
            ll += log_norm_pdf(z) - sigma.ln();
            if threshold_db.is_finite() && !censored_known {
                let p_obs = 1.0 - norm_cdf((threshold_db - mu) / sigma);
                ll -= p_obs.max(1e-300).ln();
            }
        }
        for &d in censored_distances {
            let mu = rssi0 - 10.0 * alpha * (d / ref_distance).log10();
            let p_cens = norm_cdf((threshold_db - mu) / sigma);
            ll += p_cens.max(1e-300).ln();
        }
        -ll
    };

    let (p, fmin) = nelder_mead_min(nll, &[alpha0, sigma0, rssi00], 0.5, 4_000, 1e-12);
    PathLossFit {
        alpha: p[0],
        sigma_db: p[1],
        rssi0_db: p[2],
        ref_distance,
        log_likelihood: -fmin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::LogNormalDb;
    use crate::rng::seeded_rng;
    use rand::Rng;

    fn synth(
        alpha: f64,
        sigma: f64,
        rssi0: f64,
        n: usize,
        seed: u64,
        threshold: f64,
    ) -> (Vec<RssiSample>, Vec<f64>) {
        let mut rng = seeded_rng(seed);
        let shadow = LogNormalDb::new(sigma);
        let mut obs = Vec::new();
        let mut cens = Vec::new();
        for _ in 0..n {
            let d: f64 = rng.gen_range(5.0..150.0);
            let mu = rssi0 - 10.0 * alpha * (d / 20.0).log10();
            let y = mu + shadow.sample_db(&mut rng);
            if y > threshold {
                obs.push(RssiSample {
                    distance: d,
                    rssi_db: y,
                });
            } else {
                cens.push(d);
            }
        }
        (obs, cens)
    }

    #[test]
    fn recovers_parameters_without_censoring() {
        let (obs, _) = synth(3.0, 8.0, 46.0, 2_000, 10, f64::NEG_INFINITY);
        let fit = fit_pathloss_shadowing(&obs, &[], f64::NEG_INFINITY, 20.0);
        assert!((fit.alpha - 3.0).abs() < 0.15, "alpha {}", fit.alpha);
        assert!((fit.sigma_db - 8.0).abs() < 0.4, "sigma {}", fit.sigma_db);
        assert!((fit.rssi0_db - 46.0).abs() < 0.8, "rssi0 {}", fit.rssi0_db);
    }

    #[test]
    fn truncated_fit_corrects_censoring_bias() {
        // Heavy censoring: threshold at 0 dB removes weak links. A naive
        // (uncensored) fit underestimates alpha; the truncated fit should
        // recover it much better.
        let (obs, _) = synth(3.6, 10.4, 46.0, 4_000, 11, 0.0);
        assert!(obs.len() < 4_000, "some samples must be censored");
        let naive = fit_pathloss_shadowing(&obs, &[], f64::NEG_INFINITY, 20.0);
        let trunc = fit_pathloss_shadowing(&obs, &[], 0.0, 20.0);
        let naive_err = (naive.alpha - 3.6).abs();
        let trunc_err = (trunc.alpha - 3.6).abs();
        assert!(
            trunc_err < naive_err,
            "truncated fit ({}) should beat naive ({})",
            trunc.alpha,
            naive.alpha
        );
        assert!(trunc_err < 0.35, "alpha {}", trunc.alpha);
        assert!(
            (trunc.sigma_db - 10.4).abs() < 1.0,
            "sigma {}",
            trunc.sigma_db
        );
    }

    #[test]
    fn censored_distances_help_further() {
        let (obs, cens) = synth(3.6, 10.4, 46.0, 4_000, 12, 0.0);
        let with_cens = fit_pathloss_shadowing(&obs, &cens, 0.0, 20.0);
        assert!(
            (with_cens.alpha - 3.6).abs() < 0.3,
            "alpha {}",
            with_cens.alpha
        );
        assert!(
            (with_cens.sigma_db - 10.4).abs() < 0.8,
            "sigma {}",
            with_cens.sigma_db
        );
    }
}
