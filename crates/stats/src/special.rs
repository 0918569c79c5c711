//! Special functions for Gaussian (lognormal-shadowing) analysis.
//!
//! The paper's shadowing arguments (§3.4) repeatedly require the normal CDF
//! — e.g. "an interferer that appeared to the receiver to be at D = 20 would
//! have about a 20 % chance of appearing to the sender as beyond
//! D_thresh". We implement `erf` through the regularized incomplete gamma
//! function P(½, x²) (series + Lentz continued fraction), which is accurate
//! to ~1e-14 over the whole real line. (The one normal quantile is
//! `fastmath::inv_normal_cdf`, which the v2 samplers use.)

/// ln Γ(1/2) = ln √π.
const LN_GAMMA_HALF: f64 = 0.572_364_942_924_700_1;

/// Regularized lower incomplete gamma P(a, x) for a = 1/2 via power series.
///
/// Converges quickly for x < a + 1.
fn gamma_p_half_series(x: f64) -> f64 {
    let a = 0.5;
    if x <= 0.0 {
        return 0.0;
    }
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..200 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-17 {
            break;
        }
    }
    sum * (-x + a * x.ln() - LN_GAMMA_HALF).exp()
}

/// Regularized upper incomplete gamma Q(a, x) for a = 1/2 via a modified
/// Lentz continued fraction. Converges quickly for x ≥ a + 1.
fn gamma_q_half_contfrac(x: f64) -> f64 {
    let a = 0.5;
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..200 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-17 {
            break;
        }
    }
    (-x + a * x.ln() - LN_GAMMA_HALF).exp() * h
}

/// The error function erf(x) = 2/√π ∫₀ˣ e^(−t²) dt.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let x2 = x * x;
    let p = if x2 < 1.5 {
        gamma_p_half_series(x2)
    } else {
        1.0 - gamma_q_half_contfrac(x2)
    };
    if x > 0.0 {
        p
    } else {
        -p
    }
}

/// The complementary error function erfc(x) = 1 − erf(x).
///
/// Computed directly from the continued fraction in the tail so that it
/// does not lose precision to cancellation for large positive `x`.
pub fn erfc(x: f64) -> f64 {
    let x2 = x * x;
    if x >= 0.0 {
        if x2 < 1.5 {
            1.0 - gamma_p_half_series(x2)
        } else {
            gamma_q_half_contfrac(x2)
        }
    } else {
        2.0 - erfc(-x)
    }
}

/// Standard normal cumulative distribution function Φ(x).
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn erf_reference_values() {
        // Reference values from mpmath.
        close(erf(0.0), 0.0, 1e-15);
        close(erf(0.5), 0.520_499_877_813_046_5, 1e-12);
        close(erf(1.0), 0.842_700_792_949_714_9, 1e-12);
        close(erf(2.0), 0.995_322_265_018_952_7, 1e-12);
        close(erf(-1.0), -0.842_700_792_949_714_9, 1e-12);
        close(erf(3.0), 0.999_977_909_503_001_4, 1e-12);
    }

    #[test]
    fn erfc_tail_values() {
        close(erfc(2.0), 4.677_734_981_047_266e-3, 1e-14);
        close(erfc(4.0), 1.541_725_790_028_002e-8, 1e-20);
        close(erfc(5.0), 1.537_459_794_428_035e-12, 1e-24);
        close(erfc(-1.0), 1.842_700_792_949_715, 1e-12);
    }

    #[test]
    fn erf_erfc_complementarity() {
        for &x in &[-3.0, -1.2, -0.3, 0.0, 0.4, 1.1, 2.7, 6.0] {
            close(erf(x) + erfc(x), 1.0, 1e-13);
        }
    }

    #[test]
    fn erf_is_odd_and_monotone() {
        let mut prev = -1.0;
        let mut x = -5.0;
        while x <= 5.0 {
            let v = erf(x);
            close(v, -erf(-x), 1e-13);
            assert!(v >= prev);
            prev = v;
            x += 0.25;
        }
    }

    #[test]
    fn norm_cdf_reference_values() {
        close(norm_cdf(0.0), 0.5, 1e-15);
        close(norm_cdf(1.0), 0.841_344_746_068_542_9, 1e-12);
        close(norm_cdf(-1.0), 0.158_655_253_931_457_05, 1e-12);
        close(norm_cdf(1.959_963_984_540_054), 0.975, 1e-12);
        close(norm_cdf(-3.0), 1.349_898_031_630_094_5e-3, 1e-13);
    }

    #[test]
    fn paper_shadowing_probability_example() {
        // §3.4: Rmax = 20, Dthresh = 40, interferer truly at D = 20, σ = 8 dB.
        // P(sensed power below threshold) = Φ(−10·α·log10(2)/σ) with α = 3:
        // the 9.03 dB shortfall over σ = 8 dB gives ≈ 13 %, the same order
        // as the paper's "about 20 %" (which folds in extra power variation).
        let shortfall_db = 10.0 * 3.0 * (2.0f64).log10();
        let p = norm_cdf(-shortfall_db / 8.0);
        assert!(p > 0.10 && p < 0.16, "p = {p}");
    }
}
