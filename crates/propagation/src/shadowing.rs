//! Lognormal shadowing: per-draw sampling and frozen per-link fields.
//!
//! Shadowing models the place-to-place variation from obstacles and
//! reflections; it is lognormal by the central-limit argument the paper
//! recounts in §3.4/§9, with σ typically 4–12 dB. Two abstractions:
//!
//! * [`Shadowing`] — a distribution you draw fresh independent values
//!   from, as the analytical model's Monte Carlo does (one draw per link
//!   per configuration, uncorrelated across links; paper footnote 14).
//! * [`ShadowField`] — a *frozen* field for the simulator: each unordered
//!   node pair gets one persistent draw, deterministic in the field seed,
//!   the way a real building presents one fixed shadowing value per link.
//!   Channel symmetry (A→B equals B→A) matches the paper's Figure 14
//!   symmetric-channel assumption.

use serde::{Deserialize, Serialize};
use wcs_stats::dist::LogNormalDb;
use wcs_stats::rng::split_rng;

/// A lognormal shadowing distribution (thin wrapper adding dB helpers).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Shadowing {
    /// Standard deviation in dB (σ). Zero disables shadowing.
    pub sigma_db: f64,
}

impl Shadowing {
    /// No shadowing (σ = 0): every draw is unity gain.
    pub const NONE: Shadowing = Shadowing { sigma_db: 0.0 };

    /// The paper's default analysis value, σ = 8 dB.
    pub const PAPER_DEFAULT: Shadowing = Shadowing { sigma_db: 8.0 };

    /// Create with explicit σ in dB.
    pub fn new(sigma_db: f64) -> Self {
        assert!(
            (0.0..=40.0).contains(&sigma_db),
            "unreasonable σ {sigma_db}"
        );
        Shadowing { sigma_db }
    }

    /// Draw a linear multiplicative factor 10^(X/10), X ~ N(0, σ²).
    pub fn sample_linear<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        LogNormalDb::new(self.sigma_db).sample_linear(rng)
    }

    /// Draw the dB value X ~ N(0, σ²).
    pub fn sample_db<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        LogNormalDb::new(self.sigma_db).sample_db(rng)
    }

    /// Mean of the linear factor (> 1 for σ > 0; the §3.4 asymmetry).
    pub fn mean_linear(&self) -> f64 {
        LogNormalDb::new(self.sigma_db).mean_linear()
    }

    /// Fill `out` with independent linear draws — the batched form the
    /// Monte Carlo kernels use to draw a whole configuration's link
    /// shadows in one call. Bitwise identical to calling
    /// [`Shadowing::sample_linear`] once per slot in order (the
    /// distribution object is hoisted out of the loop; each slot still
    /// consumes exactly the same generator draws).
    pub fn fill_linear<R: rand::Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        let dist = LogNormalDb::new(self.sigma_db);
        for v in out.iter_mut() {
            *v = dist.sample_linear(rng);
        }
    }

    /// The hoisted dB→linear conversion constant `k = σ · ln(10) / 10`:
    /// for a raw standard normal z, the linear shadowing factor is
    /// `10^(σz/10) = exp(k·z)`. The v2 kernels multiply `k` into the
    /// raw draws once and fold the `exp` into the fused gain evaluation
    /// instead of calling `powf` per draw.
    pub fn linear_exp_coeff(&self) -> f64 {
        self.sigma_db * std::f64::consts::LN_10 / 10.0
    }

    /// Fill `out` with **raw standard normal** draws on the v2 stream
    /// layout (the caller applies [`Shadowing::linear_exp_coeff`] and
    /// the exponential itself, fused with the path-gain product).
    ///
    /// Mirrors the v1 σ = 0 economy: a disabled distribution consumes
    /// no generator draws at all and yields all-zero z (unity gain
    /// after exp). For σ > 0 this is exactly
    /// [`wcs_stats::dist::fill_standard_normal`], so the split-
    /// invariance contract pinned there applies here too: any chunking
    /// of a logical batch across calls produces identical bytes.
    pub fn fill_raw_normal_v2<R: rand::Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        if self.sigma_db == 0.0 {
            out.fill(0.0);
        } else {
            wcs_stats::dist::fill_standard_normal(rng, out);
        }
    }
}

/// A frozen, deterministic shadowing field over node pairs.
///
/// The draw for pair (a, b) depends only on (field seed, min(a,b),
/// max(a,b)), so it is symmetric, stable across queries, and reproducible
/// across runs. Nothing is memoised: each query re-derives the pair's
/// generator and draws again, so a caller that queries a pair often
/// keeps the value itself (the simulator's `World` keeps one row of
/// received powers per sender).
#[derive(Debug, Clone, Copy)]
pub struct ShadowField {
    seed: u64,
    shadowing: Shadowing,
}

impl ShadowField {
    /// Create a field with the given distribution and seed.
    pub fn new(shadowing: Shadowing, seed: u64) -> Self {
        ShadowField { seed, shadowing }
    }

    /// The σ of the underlying distribution.
    pub fn shadowing(&self) -> Shadowing {
        self.shadowing
    }

    /// Linear shadowing gain for the unordered pair (a, b).
    pub fn gain_linear(&self, a: u32, b: u32) -> f64 {
        10f64.powf(self.gain_db(a, b) / 10.0)
    }

    /// dB shadowing value for the unordered pair (a, b).
    pub fn gain_db(&self, a: u32, b: u32) -> f64 {
        let label = ((a.min(b) as u64) << 32) | a.max(b) as u64;
        let mut rng = split_rng(self.seed, label);
        self.shadowing.sample_db(&mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcs_stats::rng::seeded_rng;
    use wcs_stats::Summary;

    #[test]
    fn sigma_zero_always_unity() {
        let mut rng = seeded_rng(1);
        for _ in 0..20 {
            assert_eq!(Shadowing::NONE.sample_linear(&mut rng), 1.0);
        }
    }

    #[test]
    fn fill_linear_matches_per_draw_sampling_bitwise() {
        let s = Shadowing::PAPER_DEFAULT;
        let mut a = seeded_rng(9);
        let mut b = seeded_rng(9);
        let mut batched = [0.0f64; 17];
        s.fill_linear(&mut a, &mut batched);
        for (i, &v) in batched.iter().enumerate() {
            assert_eq!(v.to_bits(), s.sample_linear(&mut b).to_bits(), "slot {i}");
        }
    }

    #[test]
    fn fill_raw_normal_v2_matches_scalar_reference_bitwise() {
        let s = Shadowing::PAPER_DEFAULT;
        let mut a = seeded_rng(19);
        let mut b = seeded_rng(19);
        let mut batched = [0.0f64; 17];
        s.fill_raw_normal_v2(&mut a, &mut batched);
        for (i, &v) in batched.iter().enumerate() {
            let want = wcs_stats::dist::standard_normal_v2(&mut b);
            assert_eq!(v.to_bits(), want.to_bits(), "slot {i}");
        }
    }

    #[test]
    fn fill_raw_normal_v2_sigma_zero_consumes_no_draws() {
        use rand::Rng;
        let mut with_fill = seeded_rng(20);
        let mut untouched = seeded_rng(20);
        let mut buf = [1.0f64; 9];
        Shadowing::NONE.fill_raw_normal_v2(&mut with_fill, &mut buf);
        assert!(buf.iter().all(|&z| z == 0.0));
        assert_eq!(with_fill.gen::<u64>(), untouched.gen::<u64>());
    }

    #[test]
    fn linear_exp_coeff_reproduces_linear_draws() {
        // exp(k·z) must equal 10^(σ·z/10) to floating-point accuracy.
        let s = Shadowing::new(8.0);
        let k = s.linear_exp_coeff();
        for z in [-3.0, -0.7, 0.0, 0.4, 2.9] {
            let via_exp = (k * z).exp();
            let via_pow = 10f64.powf(s.sigma_db * z / 10.0);
            assert!((via_exp - via_pow).abs() / via_pow < 1e-14);
        }
    }

    #[test]
    fn field_is_symmetric_and_stable() {
        let f = ShadowField::new(Shadowing::PAPER_DEFAULT, 42);
        let ab = f.gain_db(3, 7);
        let ba = f.gain_db(7, 3);
        assert_eq!(ab, ba);
        assert_eq!(f.gain_db(3, 7), ab);
        // Linear is consistent with dB.
        assert!((f.gain_linear(3, 7) - 10f64.powf(ab / 10.0)).abs() < 1e-12);
    }

    #[test]
    fn field_is_deterministic_in_seed() {
        let f1 = ShadowField::new(Shadowing::PAPER_DEFAULT, 42);
        let f2 = ShadowField::new(Shadowing::PAPER_DEFAULT, 42);
        let f3 = ShadowField::new(Shadowing::PAPER_DEFAULT, 43);
        assert_eq!(f1.gain_db(0, 1), f2.gain_db(0, 1));
        assert_ne!(f1.gain_db(0, 1), f3.gain_db(0, 1));
    }

    #[test]
    fn field_links_are_decorrelated() {
        let f = ShadowField::new(Shadowing::new(8.0), 7);
        let mut s = Summary::new();
        for a in 0..40u32 {
            for b in (a + 1)..40u32 {
                s.add(f.gain_db(a, b));
            }
        }
        // 780 draws: mean near 0, sd near 8.
        assert!(s.mean().abs() < 1.0, "mean {}", s.mean());
        assert!((s.std_dev() - 8.0).abs() < 0.8, "sd {}", s.std_dev());
    }

    #[test]
    fn mean_linear_matches_theory() {
        let s = Shadowing::new(8.0);
        let expected = ((8.0 * std::f64::consts::LN_10 / 10.0f64).powi(2) / 2.0).exp();
        assert!((s.mean_linear() - expected).abs() < 1e-12);
    }
}
