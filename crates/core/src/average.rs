//! Expected throughput ⟨Cᵢ⟩(Rmax, D) under each MAC policy (§3.2.2).
//!
//! Two evaluation paths:
//!
//! * **Quadrature** (σ = 0): the multiplexing and concurrency averages are
//!   smooth 2-D polar integrals, computed to ~1e-10 with Gauss–Legendre.
//!   Used for the crisp curves of Figures 4–7.
//! * **Monte Carlo** (any σ): one sample = one full two-pair configuration
//!   (both receiver placements + all five shadowing draws); every policy
//!   is scored on the *same* sample (common random numbers), which makes
//!   ratios like ⟨C_cs⟩/⟨C_max⟩ far more precise than independent runs
//!   would be. The optimal policy C_max inherently needs the joint
//!   two-pair sample, which is why it has no quadrature path.

use crate::params::ModelParams;
use rand::Rng;
use serde::{Deserialize, Serialize};
use wcs_capacity::twopair::{
    PairSample, ShadowDraws, TwoPairKernel, TwoPairKernelV2, TwoPairScenario,
};
use wcs_stats::montecarlo::{MonteCarlo, MonteCarloEstimate};
use wcs_stats::quadrature::integrate_polar_disc;
use wcs_stats::rng::split_rng;

/// Quadrature orders for the polar-disc averages. 48×48 Gauss points give
/// ≥ 10 significant digits for the paper's parameter ranges.
const NR: usize = 48;
const NTHETA: usize = 48;

/// ⟨C_multiplexing⟩(Rmax) for the σ = 0 model, by quadrature.
///
/// Independent of D. Panics if the params have shadowing enabled (the
/// integral would ignore it silently otherwise).
pub fn quad_multiplexing(params: &ModelParams, rmax: f64) -> f64 {
    assert!(params.is_deterministic(), "quadrature path requires σ = 0");
    let prop = params.prop;
    let cap = params.cap;
    integrate_polar_disc(
        |r, _theta| cap.capacity(prop.median_gain(r) / prop.noise) / 2.0,
        rmax,
        NR,
        NTHETA,
    )
}

/// ⟨C_concurrent⟩(Rmax, D) for the σ = 0 model, by quadrature.
pub fn quad_concurrency(params: &ModelParams, rmax: f64, d: f64) -> f64 {
    assert!(params.is_deterministic(), "quadrature path requires σ = 0");
    let prop = params.prop;
    let cap = params.cap;
    integrate_polar_disc(
        |r, theta| {
            let signal = prop.median_gain(r);
            let dr = wcs_propagation::geometry::interferer_distance(r, theta, d);
            let interf = prop.median_gain(dr);
            cap.capacity(signal / (prop.noise + interf))
        },
        rmax,
        NR,
        NTHETA,
    )
}

/// ⟨C_single⟩(Rmax) — the D → ∞ concurrency limit; used as the
/// normaliser for Figures 4–6 and 9 ("fraction of Rmax = 20, D = ∞
/// throughput").
pub fn quad_single(params: &ModelParams, rmax: f64) -> f64 {
    2.0 * quad_multiplexing(params, rmax)
}

/// Monte Carlo averages of every policy on common random configurations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyAverages {
    /// ⟨C_multiplexing⟩.
    pub multiplexing: MonteCarloEstimate,
    /// ⟨C_concurrent⟩.
    pub concurrency: MonteCarloEstimate,
    /// ⟨C_cs⟩ at the requested threshold.
    pub carrier_sense: MonteCarloEstimate,
    /// ⟨C_max⟩ (joint optimal, equal-resources fairness).
    pub optimal: MonteCarloEstimate,
    /// ⟨C_UBmax⟩ (per-pair upper bound, footnote 10).
    pub upper_bound: MonteCarloEstimate,
    /// Fraction of configurations where carrier sense chose to multiplex.
    pub multiplex_fraction: f64,
}

/// Estimate all policy averages at (`rmax`, `d`) with carrier-sense
/// threshold `d_thresh`, using `n` configuration samples.
///
/// Per-pair throughputs are averaged over both pairs of each
/// configuration (they are exchangeable, so this halves the variance).
pub fn mc_averages(
    params: &ModelParams,
    rmax: f64,
    d: f64,
    d_thresh: f64,
    n: u64,
    seed: u64,
) -> PolicyAverages {
    let mut rng = split_rng(seed, 0x5ca1_ab1e);
    let mut mux = MonteCarlo::new();
    let mut conc = MonteCarlo::new();
    let mut cs = MonteCarlo::new();
    let mut opt = MonteCarlo::new();
    let mut ub = MonteCarlo::new();
    let mut n_multiplex = 0u64;
    // Per-task invariants (sense path gain, threshold power) hoisted
    // once; each sample evaluates every link gain exactly once. Bitwise
    // identical to the per-method TwoPairScenario path (see the kernel's
    // contract and its property test).
    let kernel = TwoPairKernel::new(params.prop, params.cap, d, d_thresh);

    for _ in 0..n {
        let pair1 = PairSample::sample_uniform(rmax, &mut rng);
        let pair2 = PairSample::sample_uniform(rmax, &mut rng);
        let shadows = ShadowDraws::sample(&params.prop, &mut rng);
        let k = kernel.evaluate(pair1, pair2, &shadows);
        mux.add(0.5 * (k.mux[0] + k.mux[1]));
        conc.add(0.5 * (k.conc[0] + k.conc[1]));
        if k.decision == wcs_capacity::twopair::CsDecision::Multiplex {
            n_multiplex += 1;
        }
        cs.add(0.5 * (k.cs[0] + k.cs[1]));
        opt.add(k.c_max);
        ub.add(0.5 * (k.ub[0] + k.ub[1]));
    }

    PolicyAverages {
        multiplexing: mux.estimate(),
        concurrency: conc.estimate(),
        carrier_sense: cs.estimate(),
        optimal: opt.estimate(),
        upper_bound: ub.estimate(),
        multiplex_fraction: n_multiplex as f64 / n as f64,
    }
}

/// [`mc_averages`] on the **v2 stream layout**: the same estimator —
/// same seed split, same draw order, same accumulator arithmetic —
/// with one-word-per-normal inverse-CDF draws and the per-sample
/// evaluation routed through
/// [`TwoPairKernelV2`] (batched raw normals, fused `exp`-based gains,
/// fastmath Shannon logs). Statistically equivalent to [`mc_averages`],
/// bitwise-deterministic in `seed`, and *not* bitwise-comparable to v1
/// — v2 sweeps carry their own canonical prefix for exactly that
/// reason.
pub fn mc_averages_v2(
    params: &ModelParams,
    rmax: f64,
    d: f64,
    d_thresh: f64,
    n: u64,
    seed: u64,
) -> PolicyAverages {
    let mut rng = split_rng(seed, 0x5ca1_ab1e);
    let mut mux = MonteCarlo::new();
    let mut conc = MonteCarlo::new();
    let mut cs = MonteCarlo::new();
    let mut opt = MonteCarlo::new();
    let mut ub = MonteCarlo::new();
    let mut n_multiplex = 0u64;
    let kernel = TwoPairKernelV2::new(params.prop, params.cap, d, d_thresh);
    let mut z = [0.0f64; 5];

    for _ in 0..n {
        let pair1 = PairSample::sample_uniform(rmax, &mut rng);
        let pair2 = PairSample::sample_uniform(rmax, &mut rng);
        // Batched raw-normal fill in ShadowDraws::sample's five-link
        // order; one generator word per draw (inverse-CDF sampler).
        params.prop.shadowing.fill_raw_normal_v2(&mut rng, &mut z);
        let k = kernel.evaluate(pair1, pair2, &z);
        mux.add(0.5 * (k.mux[0] + k.mux[1]));
        conc.add(0.5 * (k.conc[0] + k.conc[1]));
        if k.decision == wcs_capacity::twopair::CsDecision::Multiplex {
            n_multiplex += 1;
        }
        cs.add(0.5 * (k.cs[0] + k.cs[1]));
        opt.add(k.c_max);
        ub.add(0.5 * (k.ub[0] + k.ub[1]));
    }

    PolicyAverages {
        multiplexing: mux.estimate(),
        concurrency: conc.estimate(),
        carrier_sense: cs.estimate(),
        optimal: opt.estimate(),
        upper_bound: ub.estimate(),
        multiplex_fraction: n_multiplex as f64 / n as f64,
    }
}

/// Draw one full two-pair configuration.
pub fn sample_scenario<R: Rng + ?Sized>(
    params: &ModelParams,
    rmax: f64,
    d: f64,
    rng: &mut R,
) -> TwoPairScenario {
    TwoPairScenario {
        pair1: PairSample::sample_uniform(rmax, rng),
        pair2: PairSample::sample_uniform(rmax, rng),
        d,
        shadows: ShadowDraws::sample(&params.prop, rng),
        prop: params.prop,
        cap: params.cap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_matches_mc_for_sigma0() {
        let p = ModelParams::paper_sigma0();
        let (rmax, d) = (40.0, 55.0);
        let q_mux = quad_multiplexing(&p, rmax);
        let q_conc = quad_concurrency(&p, rmax, d);
        let mc = mc_averages(&p, rmax, d, 55.0, 60_000, 1);
        assert!(
            (mc.multiplexing.mean - q_mux).abs() < 4.0 * mc.multiplexing.std_error,
            "mux: mc {} vs quad {q_mux}",
            mc.multiplexing.mean
        );
        assert!(
            (mc.concurrency.mean - q_conc).abs() < 4.0 * mc.concurrency.std_error,
            "conc: mc {} vs quad {q_conc}",
            mc.concurrency.mean
        );
    }

    #[test]
    fn policy_ordering_invariants() {
        let p = ModelParams::paper_default();
        for &(rmax, d) in &[(20.0, 20.0), (40.0, 55.0), (120.0, 120.0)] {
            let a = mc_averages(&p, rmax, d, 55.0, 30_000, 2);
            // Optimal dominates every implementable policy; UB dominates optimal.
            assert!(a.optimal.mean >= a.multiplexing.mean - 3.0 * a.optimal.std_error);
            assert!(a.optimal.mean >= a.concurrency.mean - 3.0 * a.optimal.std_error);
            assert!(a.optimal.mean >= a.carrier_sense.mean - 3.0 * a.optimal.std_error);
            assert!(a.upper_bound.mean >= a.optimal.mean - 1e-12);
        }
    }

    #[test]
    fn near_and_far_limits() {
        // §3.2.4: D >> Rmax → concurrency optimal and CS follows it;
        // D << Rmax → multiplexing optimal and CS follows it.
        let p = ModelParams::paper_sigma0();
        let rmax = 40.0;
        let far = mc_averages(&p, rmax, 400.0, 55.0, 30_000, 3);
        assert!(far.multiplex_fraction < 1e-9);
        assert!((far.carrier_sense.mean - far.concurrency.mean).abs() < 1e-12);
        assert!(far.concurrency.mean > 1.8 * far.multiplexing.mean);

        let near = mc_averages(&p, rmax, 5.0, 55.0, 30_000, 4);
        assert!(near.multiplex_fraction > 1.0 - 1e-9);
        assert!((near.carrier_sense.mean - near.multiplexing.mean).abs() < 1e-12);
        assert!(near.multiplexing.mean > near.concurrency.mean);
    }

    #[test]
    fn multiplexing_independent_of_d() {
        let p = ModelParams::paper_sigma0();
        let a = quad_multiplexing(&p, 55.0);
        // Quadrature path takes no D at all; check the MC at two Ds agrees.
        let m1 = mc_averages(&p, 55.0, 10.0, 55.0, 40_000, 5).multiplexing;
        let m2 = mc_averages(&p, 55.0, 200.0, 55.0, 40_000, 6).multiplexing;
        assert!((m1.mean - a).abs() < 4.0 * m1.std_error);
        assert!((m2.mean - a).abs() < 4.0 * m2.std_error);
    }

    #[test]
    fn shadowing_raises_concurrency_average() {
        // §3.4: "incorporating zero-mean variation … has a net positive
        // impact on average capacity … particularly … under concurrency"
        // in long-range networks.
        let s0 = ModelParams::paper_sigma0();
        let s8 = ModelParams::paper_default();
        let rmax = 120.0;
        let d = 120.0;
        let c0 = mc_averages(&s0, rmax, d, 55.0, 60_000, 7).concurrency;
        let c8 = mc_averages(&s8, rmax, d, 55.0, 60_000, 8).concurrency;
        assert!(
            c8.mean > c0.mean + 2.0 * (c0.std_error + c8.std_error),
            "σ=8 {} should beat σ=0 {}",
            c8.mean,
            c0.mean
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let p = ModelParams::paper_default();
        let a = mc_averages(&p, 40.0, 55.0, 55.0, 5_000, 42);
        let b = mc_averages(&p, 40.0, 55.0, 55.0, 5_000, 42);
        assert_eq!(a.carrier_sense.mean, b.carrier_sense.mean);
        assert_eq!(a.optimal.mean, b.optimal.mean);
    }

    #[test]
    fn v2_deterministic_in_seed() {
        let p = ModelParams::paper_default();
        let a = mc_averages_v2(&p, 40.0, 55.0, 55.0, 5_000, 42);
        let b = mc_averages_v2(&p, 40.0, 55.0, 55.0, 5_000, 42);
        assert_eq!(
            a.carrier_sense.mean.to_bits(),
            b.carrier_sense.mean.to_bits()
        );
        assert_eq!(a.optimal.mean.to_bits(), b.optimal.mean.to_bits());
        assert_eq!(
            a.multiplex_fraction.to_bits(),
            b.multiplex_fraction.to_bits()
        );
    }

    #[test]
    fn v2_agrees_with_v1_statistically() {
        // Same estimator over the same underlying distributions: the
        // two layouts' means must agree within Monte Carlo error. The
        // v2 sampler (inverse CDF, one word per draw) is not
        // sample-aligned with v1's rejection loop, so this is a
        // comparison of two independent realizations of the same
        // estimator.
        let p = ModelParams::paper_default();
        let v1 = mc_averages(&p, 40.0, 55.0, 55.0, 20_000, 13);
        let v2 = mc_averages_v2(&p, 40.0, 55.0, 55.0, 20_000, 13);
        for (a, b) in [
            (v1.multiplexing, v2.multiplexing),
            (v1.concurrency, v2.concurrency),
            (v1.carrier_sense, v2.carrier_sense),
            (v1.optimal, v2.optimal),
            (v1.upper_bound, v2.upper_bound),
        ] {
            let tol = 2.0 * (a.std_error + b.std_error);
            assert!(
                (a.mean - b.mean).abs() < tol.max(1e-6),
                "v1 {} vs v2 {} (tol {tol})",
                a.mean,
                b.mean
            );
        }
        assert!((v1.multiplex_fraction - v2.multiplex_fraction).abs() < 0.01);
    }

    #[test]
    #[should_panic]
    fn quadrature_rejects_shadowing() {
        let _ = quad_multiplexing(&ModelParams::paper_default(), 20.0);
    }
}
