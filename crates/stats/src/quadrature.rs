//! Deterministic quadrature.
//!
//! For the σ = 0 (no-shadowing) model, the paper's expected-throughput
//! integral ⟨C⟩ = (1/πR²)∬ C(r,θ) r dθ dr has a smooth integrand and is
//! much better served by Gauss–Legendre quadrature than by Monte Carlo:
//! Figures 4–7 need thousands of curve points and quadrature computes each
//! to ~1e-10 in microseconds. Nodes/weights are generated at runtime by
//! Newton iteration on the Legendre recurrence (no hard-coded tables).

/// Compute the `n`-point Gauss–Legendre nodes and weights on `[-1, 1]`.
///
/// Newton iteration on Pₙ with the classic Chebyshev-based initial guess;
/// accurate to machine precision for n up to several thousand.
pub fn gauss_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n >= 1);
    let mut nodes = vec![0.0; n];
    let mut weights = vec![0.0; n];
    let m = n.div_ceil(2);
    for i in 0..m {
        // Initial guess (Abramowitz & Stegun 25.4.30 neighbourhood).
        let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        let mut dp = 0.0;
        for _ in 0..100 {
            // Evaluate Pₙ(x) and P'ₙ(x) by recurrence.
            let mut p0 = 1.0;
            let mut p1 = x;
            for k in 2..=n {
                let kf = k as f64;
                let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
                p0 = p1;
                p1 = p2;
            }
            // p1 = Pₙ, p0 = Pₙ₋₁; derivative identity.
            dp = n as f64 * (x * p1 - p0) / (x * x - 1.0);
            let dx = p1 / dp;
            x -= dx;
            if dx.abs() < 1e-15 {
                break;
            }
        }
        nodes[i] = -x;
        nodes[n - 1 - i] = x;
        let w = 2.0 / ((1.0 - x * x) * dp * dp);
        weights[i] = w;
        weights[n - 1 - i] = w;
    }
    if n % 2 == 1 {
        nodes[n / 2] = 0.0;
    }
    (nodes, weights)
}

/// Average `f(r, θ)` over the disc of radius `rmax`, weighting by area:
/// (1/πR²) ∫₀^R ∫₀^{2π} f(r,θ) r dθ dr.
///
/// This is exactly the paper's ⟨Cᵢ⟩(Rmax, D) operator (§3.2.2) for the
/// deterministic (σ = 0) capacity functions. `nr`/`ntheta` are the numbers
/// of radial and angular Gauss points.
pub fn integrate_polar_disc<F: FnMut(f64, f64) -> f64>(
    mut f: F,
    rmax: f64,
    nr: usize,
    ntheta: usize,
) -> f64 {
    let (rn, rw) = gauss_legendre(nr);
    let (tn, tw) = gauss_legendre(ntheta);
    let rhalf = rmax / 2.0;
    let thalf = std::f64::consts::PI; // θ ∈ [0, 2π] → half-width π
    let mut acc = 0.0;
    for (xr, wr) in rn.iter().zip(&rw) {
        let r = rhalf * (xr + 1.0);
        let mut inner = 0.0;
        for (xt, wt) in tn.iter().zip(&tw) {
            let theta = thalf * (xt + 1.0);
            inner += wt * f(r, theta);
        }
        acc += wr * r * inner * thalf;
    }
    acc * rhalf / (std::f64::consts::PI * rmax * rmax)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gl_weights_sum_to_two() {
        for &n in &[1usize, 2, 3, 5, 10, 33, 64, 101] {
            let (_, w) = gauss_legendre(n);
            let s: f64 = w.iter().sum();
            assert!((s - 2.0).abs() < 1e-12, "n={n} sum={s}");
        }
    }

    #[test]
    fn gl_exact_for_polynomials() {
        // n-point GL is exact for degree ≤ 2n−1.
        let (x, w) = gauss_legendre(5);
        let val: f64 = x
            .iter()
            .zip(&w)
            .map(|(x, w)| w * (x.powi(9) + 3.0 * x * x))
            .sum();
        assert!((val - 2.0).abs() < 1e-13, "{val}");
    }

    #[test]
    fn gl_known_nodes_n2() {
        let (n, w) = gauss_legendre(2);
        assert!((n[0] + 1.0 / 3.0f64.sqrt()).abs() < 1e-14);
        assert!((n[1] - 1.0 / 3.0f64.sqrt()).abs() < 1e-14);
        assert!((w[0] - 1.0).abs() < 1e-14);
        assert!((w[1] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn gl_integrates_transcendental() {
        // ∫₀^π sin = 2, mapped onto [-1, 1] by x ↦ π/2·(x + 1).
        let half = std::f64::consts::FRAC_PI_2;
        let (x, w) = gauss_legendre(30);
        let val: f64 = x
            .iter()
            .zip(&w)
            .map(|(x, w)| w * (half * (x + 1.0)).sin())
            .sum::<f64>()
            * half;
        assert!((val - 2.0).abs() < 1e-12);
    }

    #[test]
    fn polar_disc_average_of_constant() {
        let avg = integrate_polar_disc(|_, _| 3.5, 10.0, 16, 16);
        assert!((avg - 3.5).abs() < 1e-12);
    }

    #[test]
    fn polar_disc_average_of_r() {
        // Mean of r over a disc of radius R is 2R/3.
        let avg = integrate_polar_disc(|r, _| r, 9.0, 32, 8);
        assert!((avg - 6.0).abs() < 1e-10, "{avg}");
    }

    #[test]
    fn polar_disc_angular_dependence() {
        // Mean of cos²θ over the disc is 1/2 regardless of radius.
        let avg = integrate_polar_disc(|_, t| t.cos() * t.cos(), 4.0, 8, 64);
        assert!((avg - 0.5).abs() < 1e-10, "{avg}");
    }
}
