//! Multipath (fast) fading with wideband averaging.
//!
//! The appendix (§9) explains that narrowband radios see deep Rayleigh or
//! Rician fades, but wideband radios (802.11 OFDM/DSSS) average the
//! frequency-selective pattern across their bandwidth: "from a capacity
//! perspective, it reduces to the equivalent of a few dB variation, at
//! which point we can largely ignore it compared to shadowing" — which is
//! why the paper's main model drops fading. We implement all three options
//! so the simulator can quantify that claim (the tests below compare
//! their power variances).

use serde::{Deserialize, Serialize};
use wcs_stats::dist::{Rayleigh, Rician};

/// Fast-fading model applied per transmission.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fading {
    /// No fading (the paper's wideband default).
    None,
    /// Full narrowband Rayleigh fading: power is exponential, unit mean.
    Rayleigh,
    /// Narrowband Rician fading with the given K-factor (linear), unit
    /// mean power. K → ∞ approaches no fading.
    Rician {
        /// K-factor: LOS-to-scattered power ratio (linear, ≥ 0).
        k: f64,
    },
    /// Wideband-averaged residual: the effective few-dB lognormal-like
    /// variation left after frequency diversity. Modelled as averaging
    /// `branches` independent Rayleigh sub-channel powers (a RAKE/OFDM
    /// diversity abstraction); variance shrinks as 1/branches.
    WidebandResidual {
        /// Number of effective independent diversity branches (≥ 1).
        branches: u32,
    },
}

impl Fading {
    /// Draw a linear power fading factor with unit mean.
    pub fn sample_power<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Fading::None => 1.0,
            Fading::Rayleigh => Rayleigh::unit_power().sample_power(rng),
            Fading::Rician { k } => Rician::from_k_factor(k).sample_power(rng),
            Fading::WidebandResidual { branches } => {
                let b = branches.max(1);
                let d = Rayleigh::unit_power();
                let mut acc = 0.0;
                for _ in 0..b {
                    acc += d.sample_power(rng);
                }
                acc / b as f64
            }
        }
    }

    /// The variance of the fading power factor (closed form).
    pub fn power_variance(&self) -> f64 {
        match *self {
            Fading::None => 0.0,
            // Exponential with unit mean: variance 1.
            Fading::Rayleigh => 1.0,
            // Rician power variance = (1 + 2K)/(1 + K)² at unit mean.
            Fading::Rician { k } => (1.0 + 2.0 * k) / ((1.0 + k) * (1.0 + k)),
            Fading::WidebandResidual { branches } => 1.0 / branches.max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcs_stats::rng::seeded_rng;
    use wcs_stats::Summary;

    fn empirical(f: Fading, n: usize, seed: u64) -> Summary {
        let mut rng = seeded_rng(seed);
        let mut s = Summary::new();
        for _ in 0..n {
            s.add(f.sample_power(&mut rng));
        }
        s
    }

    #[test]
    fn all_models_unit_mean() {
        for f in [
            Fading::None,
            Fading::Rayleigh,
            Fading::Rician { k: 5.0 },
            Fading::WidebandResidual { branches: 8 },
        ] {
            let s = empirical(f, 100_000, 3);
            assert!((s.mean() - 1.0).abs() < 0.02, "{f:?}: mean {}", s.mean());
        }
    }

    #[test]
    fn variances_match_closed_form() {
        for f in [
            Fading::Rayleigh,
            Fading::Rician { k: 2.0 },
            Fading::WidebandResidual { branches: 4 },
        ] {
            let s = empirical(f, 200_000, 4);
            let v = f.power_variance();
            assert!(
                (s.variance() - v).abs() / v < 0.05,
                "{f:?}: var {} vs {}",
                s.variance(),
                v
            );
        }
    }

    #[test]
    fn wideband_averaging_tames_fading() {
        // The appendix claim: diversity reduces fading to a few dB.
        // 16-branch averaging has power sd ≈ 1/4 ⇒ ~1 dB typical deviation,
        // far below Rayleigh's.
        assert!(Fading::WidebandResidual { branches: 16 }.power_variance() < 0.07);
        assert!(Fading::Rayleigh.power_variance() > 0.9);
    }

    #[test]
    fn rician_limits() {
        // K = 0 is Rayleigh.
        assert!((Fading::Rician { k: 0.0 }.power_variance() - 1.0).abs() < 1e-12);
        // Large K approaches no fading.
        assert!(Fading::Rician { k: 1000.0 }.power_variance() < 0.01);
    }

    #[test]
    fn none_is_deterministic() {
        let mut rng = seeded_rng(5);
        assert_eq!(Fading::None.sample_power(&mut rng), 1.0);
    }
}
