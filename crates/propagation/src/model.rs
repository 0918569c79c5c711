//! The composite propagation model used by the capacity layer and the
//! simulator: path loss × shadowing × fading over a thermal noise floor.
//!
//! All powers are normalised to the transmit power at unit distance
//! (the paper factors P₀ into the noise term, §3.2.2), so a link's SNR is
//! simply `gain / noise` with `noise = N₀/P₀`. The paper's canonical value
//! is −65 dB, chosen so r = 20 ≈ 26 dB SNR (802.11a/g 54 Mbps regime) and
//! r = 120 ≈ 3 dB (the 1 Mbps floor).

use crate::fading::Fading;
use crate::pathloss::PathLoss;
use crate::shadowing::Shadowing;
use serde::{Deserialize, Serialize};

/// One random draw of a link's multiplicative channel components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDraw {
    /// Deterministic path-loss gain d^(−α).
    pub path_gain: f64,
    /// Lognormal shadowing factor (unit median).
    pub shadow: f64,
    /// Fast-fading power factor (unit mean).
    pub fading: f64,
}

/// Composite statistical propagation model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PropagationModel {
    /// Power-law path loss.
    pub path_loss: PathLoss,
    /// Lognormal shadowing.
    pub shadowing: Shadowing,
    /// Fast fading (the paper's analysis uses `Fading::None`; wideband).
    pub fading: Fading,
    /// Normalised noise floor N = N₀/P₀ (linear).
    pub noise: f64,
}

impl PropagationModel {
    /// The paper's canonical noise floor, −65 dB.
    pub const PAPER_NOISE_DB: f64 = -65.0;

    /// The paper's default analysis model: α = 3, σ = 8 dB, no fading,
    /// N = −65 dB.
    pub fn paper_default() -> Self {
        PropagationModel {
            path_loss: PathLoss::INDOOR_TYPICAL,
            shadowing: Shadowing::PAPER_DEFAULT,
            fading: Fading::None,
            noise: 10f64.powf(Self::PAPER_NOISE_DB / 10.0),
        }
    }

    /// The simplified σ = 0 model of §3.3.
    pub fn paper_no_shadowing() -> Self {
        PropagationModel {
            shadowing: Shadowing::NONE,
            ..Self::paper_default()
        }
    }

    /// The paper's measured-testbed flavour: α = 3.5, σ = 10 dB
    /// (§2 footnote 2: "Applied to our own indoor 802.11 testbed at
    /// 2.4 GHz, we find α ≈ 3.5, σ ≈ 10 dB").
    pub fn paper_testbed() -> Self {
        PropagationModel {
            path_loss: PathLoss::TESTBED_MEASURED,
            shadowing: Shadowing::new(10.0),
            fading: Fading::None,
            noise: 10f64.powf(Self::PAPER_NOISE_DB / 10.0),
        }
    }

    /// Override the path-loss exponent.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.path_loss = PathLoss::new(alpha);
        self
    }

    /// Override the shadowing σ (dB).
    pub fn with_sigma_db(mut self, sigma_db: f64) -> Self {
        self.shadowing = Shadowing::new(sigma_db);
        self
    }

    /// Override the noise floor (dB relative to unit-distance power).
    pub fn with_noise_db(mut self, noise_db: f64) -> Self {
        self.noise = 10f64.powf(noise_db / 10.0);
        self
    }

    /// Deterministic (median) link gain at distance `d`: path loss only.
    pub fn median_gain(&self, d: f64) -> f64 {
        self.path_loss.gain(d)
    }

    /// Draw all random channel components for a link of length `d`.
    pub fn draw<R: rand::Rng + ?Sized>(&self, d: f64, rng: &mut R) -> LinkDraw {
        LinkDraw {
            path_gain: self.path_loss.gain(d),
            shadow: self.shadowing.sample_linear(rng),
            fading: self.fading.sample_power(rng),
        }
    }

    /// Median SNR (linear) at distance `d` with no interference.
    pub fn median_snr(&self, d: f64) -> f64 {
        self.median_gain(d) / self.noise
    }

    /// Median SNR in dB at distance `d`.
    pub fn median_snr_db(&self, d: f64) -> f64 {
        10.0 * self.median_snr(d).log10()
    }

    /// The distance at which the median SNR equals `snr_db`.
    pub fn distance_for_snr_db(&self, snr_db: f64) -> f64 {
        let gain = self.noise * 10f64.powf(snr_db / 10.0);
        self.path_loss.distance_for_gain(gain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcs_stats::rng::seeded_rng;

    #[test]
    fn paper_anchor_points() {
        // §3.2.2: "r = 20 gives roughly 26 dBm SNR … r = 120 … just shy of 3 dB".
        let m = PropagationModel::paper_no_shadowing();
        assert!(
            (m.median_snr_db(20.0) - 26.0).abs() < 0.2,
            "{}",
            m.median_snr_db(20.0)
        );
        assert!(
            (m.median_snr_db(120.0) - 2.6).abs() < 0.2,
            "{}",
            m.median_snr_db(120.0)
        );
    }

    #[test]
    fn threshold_distance_13db_is_55() {
        // §3.3.3: Dthresh ≈ 55 ⇔ Pthresh ≈ 13 dB above the noise floor.
        let m = PropagationModel::paper_no_shadowing();
        let d = m.distance_for_snr_db(13.0);
        assert!((d - 55.0).abs() < 1.5, "{d}");
    }

    #[test]
    fn draw_composition() {
        let m = PropagationModel::paper_default();
        let mut rng = seeded_rng(1);
        let d = m.draw(10.0, &mut rng);
        assert_eq!(d.fading, 1.0); // Fading::None
        assert!((d.path_gain - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn builder_overrides() {
        let m = PropagationModel::paper_default()
            .with_alpha(4.0)
            .with_sigma_db(12.0)
            .with_noise_db(-80.0);
        assert_eq!(m.path_loss.alpha, 4.0);
        assert_eq!(m.shadowing.sigma_db, 12.0);
        assert!((10.0 * m.noise.log10() + 80.0).abs() < 1e-12);
    }

    #[test]
    fn snr_distance_roundtrip() {
        let m = PropagationModel::paper_default().with_alpha(3.5);
        for &snr in &[3.0, 13.0, 26.0] {
            let d = m.distance_for_snr_db(snr);
            assert!((m.median_snr_db(d) - snr).abs() < 1e-9);
        }
    }

    #[test]
    fn testbed_flavour_matches_footnote() {
        let m = PropagationModel::paper_testbed();
        assert_eq!(m.path_loss.alpha, 3.5);
        assert_eq!(m.shadowing.sigma_db, 10.0);
    }
}
