//! Samplers for the propagation-model distributions.
//!
//! The paper's channel model (§2, appendix §9) is built from three random
//! components: lognormal shadowing (a Gaussian in dB), Rayleigh fading
//! (no line of sight) and Rician fading (with line of sight). All samplers
//! here are allocation-free and take any [`rand::Rng`].

use rand::Rng;

/// Draw a standard normal variate via the Marsaglia polar method.
///
/// We deliberately avoid `rand_distr` (not in the sanctioned dependency
/// set); the polar method is exact and branch-light.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draw a standard normal variate on the **v2 stream layout**: one
/// 53-bit uniform mapped through the deterministic inverse normal CDF
/// ([`crate::fastmath::inv_normal_cdf`]).
///
/// Unlike the polar method there is **no rejection loop**: every draw
/// consumes exactly one `u64` from the generator. That fixed draw
/// economy is what makes the batched filler ([`fill_standard_normal`])
/// split-invariant *by construction* — and it cuts the per-normal RNG
/// cost to ~40% of v1's (the polar method burns ~2.55 uniforms per
/// accepted variate). The word's top bit picks the sign and the low 52
/// bits form a magnitude uniform `v = (k + ½)·2⁻⁵³ ∈ (0, ½)` — every
/// such `v` is exactly representable, always strictly inside the lower
/// half, so the quantile is finite (|z| ≲ 8.4 at the extreme
/// `v = 2⁻⁵⁴`), the distribution is symmetric by construction, and the
/// cancellation-prone `1 − p` upper-tail branch of the quantile is
/// never taken. This is the scalar reference the batched filler must
/// match bitwise for every split.
#[inline]
pub fn standard_normal_v2<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let bits = rng.gen::<u64>();
    let k = bits & ((1u64 << 52) - 1);
    let v = (k as f64 + 0.5) * (1.0 / 9_007_199_254_740_992.0); // ·2⁻⁵³
    let z = crate::fastmath::inv_normal_cdf(v); // strictly negative
    if bits >> 63 == 0 {
        z
    } else {
        -z
    }
}

/// Generator words [`fill_standard_normal`] stages on the stack at a time.
const FILL_CHUNK: usize = 64;

/// The low 52 bits of a v2 word: the magnitude index `k`.
const MAGNITUDE_MASK: u64 = (1 << 52) - 1;

/// Exact tail bound on the magnitude index: `(k + ½)·2⁻⁵³` lies below
/// the quantile's central region (`fastmath::INV_NORMAL_P_LOW`) if and
/// only if `k < TAIL_K`. Both sides are exact dyadic rationals, so the
/// integer compare selects exactly the slots `inv_normal_cdf` would
/// send down its tail branch (≈4.85 % of words).
const TAIL_K: u64 = 218_424_581_927_469;

/// The magnitude uniform `(k + ½)·2⁻⁵³` of a v2 word. `k < 2⁵²` is
/// turned into a double by planting it in the mantissa of 2⁵² and
/// subtracting 2⁵² (exact, and unlike a u64→f64 convert, expressible
/// in SSE2), so this equals `standard_normal_v2`'s `k as f64` bit for
/// bit.
#[inline(always)]
fn magnitude_uniform(bits: u64) -> f64 {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let k = f64::from_bits(TWO_52.to_bits() | (bits & MAGNITUDE_MASK)) - TWO_52;
    (k + 0.5) * (1.0 / 9_007_199_254_740_992.0)
}

/// Apply the word's top bit as the sign of the (strictly negative)
/// quantile `z`: flipping the sign bit is exactly `-z`.
#[inline(always)]
fn signed(z: f64, bits: u64) -> f64 {
    f64::from_bits(z.to_bits() ^ (bits & (1 << 63)))
}

/// Fill `out` with standard normal variates on the v2 stream layout.
///
/// **Stream contract:** the values and the RNG state after the call are
/// exactly those of `out.iter_mut().for_each(|x| *x = standard_normal_v2(rng))`
/// — one variate per slot, one generator word per slot, in slot order,
/// regardless of how callers split a logical batch across multiple
/// `fill_standard_normal` calls. That split-invariance is what lets the
/// v2 kernels fill the N×N shadowing table chunk by chunk (or all at
/// once) and still produce bitwise-identical reports at any block size;
/// it is pinned by the property tests below. With the inverse-CDF
/// sampler the contract is structural (fixed consumption per slot)
/// rather than an accident of rejection-loop alignment.
///
/// Each stack chunk of words is drawn in slot order, then transformed in
/// two passes: the branch-free central rational on every slot (a loop
/// the compiler vectorizes), then `inv_normal_cdf` again on only the
/// lower-tail slots, which an exact bound on the magnitude bits picks
/// out.
#[inline(always)]
pub fn fill_standard_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let mut words = [0u64; FILL_CHUNK];
    for chunk in out.chunks_mut(FILL_CHUNK) {
        let words = &mut words[..chunk.len()];
        for w in words.iter_mut() {
            *w = rng.gen::<u64>();
        }
        for (slot, &w) in chunk.iter_mut().zip(words.iter()) {
            let z = crate::fastmath::inv_normal_cdf_central(magnitude_uniform(w));
            *slot = signed(z, w);
        }
        for (slot, &w) in chunk.iter_mut().zip(words.iter()) {
            if w & MAGNITUDE_MASK < TAIL_K {
                *slot = signed(crate::fastmath::inv_normal_cdf(magnitude_uniform(w)), w);
            }
        }
    }
}

/// Lognormal shadowing expressed in dB: `L = 10^(X/10)`, `X ~ N(0, σ_dB²)`.
///
/// This is the paper's `Lσ` random variable. `sample_linear` returns the
/// multiplicative power factor; `sample_db` returns the underlying Gaussian.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalDb {
    /// Standard deviation of the dB-domain Gaussian (the paper's σ, 4–12 dB).
    pub sigma_db: f64,
}

impl LogNormalDb {
    /// Create a shadowing distribution with the given σ in dB.
    pub fn new(sigma_db: f64) -> Self {
        assert!(sigma_db >= 0.0, "shadowing σ must be non-negative");
        LogNormalDb { sigma_db }
    }

    /// Draw the dB-domain Gaussian X ~ N(0, σ²).
    pub fn sample_db<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.sigma_db == 0.0 {
            0.0
        } else {
            self.sigma_db * standard_normal(rng)
        }
    }

    /// Draw the multiplicative (linear power) shadowing factor 10^(X/10).
    pub fn sample_linear<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        10f64.powf(self.sample_db(rng) / 10.0)
    }

    /// Mean of the linear factor: E[10^(X/10)] = exp((σ·ln10/10)²/2).
    ///
    /// This is > 1 — the "you can't make a bad link worse than no link, but
    /// you can make it a whole lot better" asymmetry the paper exploits in
    /// §3.4 (zero-mean dB variation has positive mean in linear power).
    pub fn mean_linear(&self) -> f64 {
        let s = self.sigma_db * std::f64::consts::LN_10 / 10.0;
        (s * s / 2.0).exp()
    }
}

/// Rayleigh-distributed amplitude (non-line-of-sight fast fading).
///
/// Parameterised by `sigma`, the per-component Gaussian std-dev; the mean
/// *power* (amplitude²) is `2σ²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rayleigh {
    /// Scale parameter σ of the underlying bivariate Gaussian.
    pub sigma: f64,
}

impl Rayleigh {
    /// A Rayleigh distribution with unit mean power (σ = 1/√2).
    pub fn unit_power() -> Self {
        Rayleigh {
            sigma: std::f64::consts::FRAC_1_SQRT_2,
        }
    }

    /// Create with explicit scale parameter.
    pub fn new(sigma: f64) -> Self {
        assert!(sigma > 0.0);
        Rayleigh { sigma }
    }

    /// Draw an amplitude by inverse-CDF sampling: σ√(−2 ln U).
    pub fn sample_amplitude<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        self.sigma * (-2.0 * u.ln()).sqrt()
    }

    /// Draw a power (amplitude²); exponential with mean 2σ².
    pub fn sample_power<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let a = self.sample_amplitude(rng);
        a * a
    }

    /// Mean power 2σ².
    pub fn mean_power(&self) -> f64 {
        2.0 * self.sigma * self.sigma
    }
}

/// Rician-distributed amplitude (line-of-sight fast fading).
///
/// Sum of a deterministic LOS phasor of amplitude `v` and a scattered
/// component with per-axis std-dev `sigma`. The K-factor is v²/(2σ²).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rician {
    /// LOS component amplitude.
    pub v: f64,
    /// Scattered component per-axis standard deviation.
    pub sigma: f64,
}

impl Rician {
    /// Construct from the Rician K-factor (linear, not dB) with unit mean
    /// power: K = v²/(2σ²), mean power v² + 2σ² = 1.
    pub fn from_k_factor(k: f64) -> Self {
        assert!(k >= 0.0);
        let two_sigma2 = 1.0 / (k + 1.0);
        let v2 = k * two_sigma2;
        Rician {
            v: v2.sqrt(),
            sigma: (two_sigma2 / 2.0).sqrt(),
        }
    }

    /// The Rician K-factor v²/(2σ²).
    pub fn k_factor(&self) -> f64 {
        self.v * self.v / (2.0 * self.sigma * self.sigma)
    }

    /// Draw an amplitude: |v + (σ·Z₁ + iσ·Z₂)|.
    pub fn sample_amplitude<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let re = self.v + self.sigma * standard_normal(rng);
        let im = self.sigma * standard_normal(rng);
        (re * re + im * im).sqrt()
    }

    /// Draw a power (amplitude²).
    pub fn sample_power<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let a = self.sample_amplitude(rng);
        a * a
    }

    /// Mean power v² + 2σ².
    pub fn mean_power(&self) -> f64 {
        self.v * self.v + 2.0 * self.sigma * self.sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use rand::RngCore;

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded_rng(1);
        let n = 200_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = standard_normal(&mut rng);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn standard_normal_v2_moments() {
        // Same CI bounds as the v1 sampler: the fast-ln substitution
        // must not move the distribution.
        let mut rng = seeded_rng(21);
        let n = 200_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = standard_normal_v2(&mut rng);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn standard_normal_v2_consumes_exactly_one_word_per_draw() {
        // The fixed draw economy behind the split-invariance contract:
        // n variates consume exactly n u64s, no rejection loop.
        let mut sampler = seeded_rng(22);
        let mut counter = seeded_rng(22);
        for _ in 0..1_000 {
            let _ = standard_normal_v2(&mut sampler);
            let _ = counter.gen::<u64>();
        }
        assert_eq!(sampler.gen::<u64>(), counter.gen::<u64>());
    }

    #[test]
    fn standard_normal_v2_matches_v1_distribution() {
        // The two samplers draw from the same distribution but are no
        // longer sample-aligned (inverse CDF vs polar rejection), so
        // compare empirical quantiles over large independent samples.
        let n = 200_000;
        let mut a = seeded_rng(101);
        let mut b = seeded_rng(202);
        let mut v1: Vec<f64> = (0..n).map(|_| standard_normal(&mut a)).collect();
        let mut v2: Vec<f64> = (0..n).map(|_| standard_normal_v2(&mut b)).collect();
        v1.sort_by(|x, y| x.partial_cmp(y).unwrap());
        v2.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for q in [0.05, 0.25, 0.5, 0.75, 0.95] {
            let i = (q * n as f64) as usize;
            assert!(
                (v1[i] - v2[i]).abs() < 0.02,
                "quantile {q}: {} vs {}",
                v1[i],
                v2[i]
            );
        }
    }

    #[test]
    fn fill_standard_normal_moments() {
        let mut rng = seeded_rng(23);
        let mut buf = vec![0.0f64; 200_000];
        fill_standard_normal(&mut rng, &mut buf);
        let n = buf.len() as f64;
        let mean = buf.iter().sum::<f64>() / n;
        let var = buf.iter().map(|x| x * x).sum::<f64>() / n - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn fill_standard_normal_split_invariance() {
        // The stream contract: any batch-size/offset split of one
        // logical fill produces the same bytes as the unsplit fill and
        // as the scalar reference loop. Every split point of a
        // 29-element buffer, plus a three-way split, is checked.
        let len = 29;
        let mut reference = vec![0.0f64; len];
        let mut rng = seeded_rng(24);
        for slot in reference.iter_mut() {
            *slot = standard_normal_v2(&mut rng);
        }
        let tail_probe = rng.gen::<u64>();
        for split in 0..=len {
            let mut buf = vec![0.0f64; len];
            let mut rng = seeded_rng(24);
            let (head, tail) = buf.split_at_mut(split);
            fill_standard_normal(&mut rng, head);
            fill_standard_normal(&mut rng, tail);
            for (i, (a, b)) in reference.iter().zip(&buf).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "split {split}, slot {i}");
            }
            assert_eq!(
                rng.gen::<u64>(),
                tail_probe,
                "split {split}: rng state diverged"
            );
        }
        let mut buf = vec![0.0f64; len];
        let mut rng = seeded_rng(24);
        fill_standard_normal(&mut rng, &mut buf[..7]);
        fill_standard_normal(&mut rng, &mut buf[7..19]);
        fill_standard_normal(&mut rng, &mut buf[19..]);
        assert!(reference
            .iter()
            .zip(&buf)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    /// A generator that replays a fixed cycle of words.
    struct Replay {
        words: Vec<u64>,
        next: usize,
    }

    impl RngCore for Replay {
        fn next_u64(&mut self) -> u64 {
            let w = self.words[self.next % self.words.len()];
            self.next += 1;
            w
        }
    }

    #[test]
    fn tail_bound_is_exact() {
        let p_low = crate::fastmath::INV_NORMAL_P_LOW;
        assert!(magnitude_uniform(TAIL_K - 1) < p_low);
        assert!(magnitude_uniform(TAIL_K) >= p_low);
        assert_eq!(
            magnitude_uniform(MAGNITUDE_MASK),
            0.5 - 0.5 / 9_007_199_254_740_992.0
        );
    }

    #[test]
    fn fill_standard_normal_matches_scalar_at_the_tail_bound() {
        // Random seeds almost never draw a magnitude next to TAIL_K, so
        // replay exactly those words (and the extremes 0 and 2⁵²−1, with
        // both signs) at every position of one, two and a part chunk.
        let mut words = Vec::new();
        for k in [TAIL_K - 1, TAIL_K, 0, MAGNITUDE_MASK, 1 << 51] {
            words.extend([k, k | 1 << 63]);
        }
        // An odd cycle length puts every word at every chunk offset.
        words.push(TAIL_K + 1);
        for len in 0..=2 * FILL_CHUNK + 1 {
            let mut filled = Replay {
                words: words.clone(),
                next: 0,
            };
            let mut scalar = Replay {
                words: words.clone(),
                next: 0,
            };
            let mut buf = vec![f64::NAN; len];
            fill_standard_normal(&mut filled, &mut buf);
            for (i, x) in buf.iter().enumerate() {
                let want = standard_normal_v2(&mut scalar);
                assert_eq!(x.to_bits(), want.to_bits(), "len {len}, slot {i}");
            }
            assert_eq!(filled.next_u64(), scalar.next_u64(), "len {len}: next word");
        }
    }

    #[test]
    fn lognormal_db_moments() {
        let d = LogNormalDb::new(8.0);
        let mut rng = seeded_rng(2);
        let n = 200_000;
        let mut sum_db = 0.0;
        let mut sum_db2 = 0.0;
        let mut sum_lin = 0.0;
        for _ in 0..n {
            let x = d.sample_db(&mut rng);
            sum_db += x;
            sum_db2 += x * x;
            sum_lin += 10f64.powf(x / 10.0);
        }
        let mean_db = sum_db / n as f64;
        let sd_db = (sum_db2 / n as f64 - mean_db * mean_db).sqrt();
        assert!(mean_db.abs() < 0.1);
        assert!((sd_db - 8.0).abs() < 0.1, "sd {sd_db}");
        let mean_lin = sum_lin / n as f64;
        assert!(
            (mean_lin - d.mean_linear()).abs() / d.mean_linear() < 0.05,
            "mean_lin {mean_lin} vs {}",
            d.mean_linear()
        );
    }

    #[test]
    fn lognormal_mean_linear_exceeds_one() {
        // The §3.4 positive-mean effect: zero-mean dB → >1 mean linear power.
        assert!(LogNormalDb::new(8.0).mean_linear() > 1.5);
        assert!((LogNormalDb::new(0.0).mean_linear() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sigma_zero_is_deterministic() {
        let d = LogNormalDb::new(0.0);
        let mut rng = seeded_rng(3);
        for _ in 0..10 {
            assert_eq!(d.sample_linear(&mut rng), 1.0);
        }
    }

    #[test]
    fn rayleigh_mean_power() {
        let d = Rayleigh::unit_power();
        let mut rng = seeded_rng(4);
        let n = 200_000;
        let mut acc = 0.0;
        for _ in 0..n {
            acc += d.sample_power(&mut rng);
        }
        let mean = acc / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean power {mean}");
    }

    #[test]
    fn rician_k0_is_rayleigh() {
        let d = Rician::from_k_factor(0.0);
        assert!(d.v == 0.0);
        assert!((d.mean_power() - 1.0).abs() < 1e-12);
        let mut rng = seeded_rng(5);
        let n = 100_000;
        let mut acc = 0.0;
        for _ in 0..n {
            acc += d.sample_power(&mut rng);
        }
        assert!((acc / n as f64 - 1.0).abs() < 0.03);
    }

    #[test]
    fn rician_high_k_concentrates() {
        let d = Rician::from_k_factor(100.0);
        assert!((d.k_factor() - 100.0).abs() < 1e-9);
        let mut rng = seeded_rng(6);
        let n = 50_000;
        let mut acc = 0.0;
        let mut acc2 = 0.0;
        for _ in 0..n {
            let p = d.sample_power(&mut rng);
            acc += p;
            acc2 += p * p;
        }
        let mean = acc / n as f64;
        let var = acc2 / n as f64 - mean * mean;
        assert!((mean - 1.0).abs() < 0.02);
        // High K ⇒ nearly deterministic power.
        assert!(var < 0.05, "var {var}");
    }
}
