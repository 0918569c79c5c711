//! N-pair Monte Carlo aggregates: efficiency, fairness and worst-pair
//! statistics for topologies of N mutually interfering pairs.
//!
//! The sampling path mirrors [`crate::average::mc_averages`] — one sample
//! is one full N-pair configuration, every MAC policy is scored on the
//! *same* sample (common random numbers) — but each policy additionally
//! tracks the per-configuration **Jain fairness index** and the
//! **worst pair's** throughput, the two quantities that distinguish a
//! policy that merely averages well from one that doesn't starve anyone
//! (§3.3.3's fairness asymmetry, generalized past two pairs).

use crate::fairness::jain_index;
use crate::params::ModelParams;
use serde::{Deserialize, Serialize};
use wcs_capacity::npair::{NPairKernel, NPairKernelV2, NPairTopology};
use wcs_stats::montecarlo::{MonteCarlo, MonteCarloEstimate};
use wcs_stats::rng::split_rng;

/// Per-policy N-pair statistics: the per-pair average (the quantity
/// [`crate::average::PolicyAverages`] tracks), plus the per-configuration
/// worst pair and Jain index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NPairPolicyStats {
    /// ⟨mean over pairs of per-pair throughput⟩.
    pub mean: MonteCarloEstimate,
    /// ⟨min over pairs of per-pair throughput⟩ — the worst-pair curve.
    pub worst: MonteCarloEstimate,
    /// ⟨Jain index over per-pair throughputs⟩ ∈ (0, 1].
    pub jain: MonteCarloEstimate,
}

/// Monte Carlo averages of every MAC policy over N-pair configurations,
/// on common random numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NPairAverages {
    /// Ideal TDMA over all N senders.
    pub multiplexing: NPairPolicyStats,
    /// All N senders transmit concurrently.
    pub concurrency: NPairPolicyStats,
    /// Contention-degree carrier sense at the requested threshold.
    pub carrier_sense: NPairPolicyStats,
    /// The joint all-concurrent vs all-TDMA optimal choice.
    pub optimal: NPairPolicyStats,
    /// Per-pair max(concurrent, multiplexing) upper bound.
    pub upper_bound: NPairPolicyStats,
    /// Mean fraction of senders that deferred to at least one sensed
    /// contender (the N-pair multiplex-fraction analogue).
    pub multiplex_fraction: f64,
    /// Number of pairs N.
    pub n_pairs: usize,
}

impl NPairAverages {
    /// Carrier-sense efficiency ⟨C_cs⟩ / ⟨C_max⟩ — the §3.2.5 efficiency
    /// metric over the N-pair ensemble.
    pub fn cs_efficiency(&self) -> f64 {
        self.carrier_sense.mean.mean / self.optimal.mean.mean
    }
}

/// One accumulator triple per policy.
#[derive(Default)]
struct StatsAcc {
    mean: MonteCarlo,
    worst: MonteCarlo,
    jain: MonteCarlo,
}

impl StatsAcc {
    /// Fold one configuration's per-pair throughputs.
    fn add(&mut self, per_pair: &[f64]) {
        let n = per_pair.len() as f64;
        self.mean.add(per_pair.iter().sum::<f64>() / n);
        self.worst
            .add(per_pair.iter().cloned().fold(f64::INFINITY, f64::min));
        self.jain.add(jain_index(per_pair));
    }

    fn estimate(&self) -> NPairPolicyStats {
        NPairPolicyStats {
            mean: self.mean.estimate(),
            worst: self.worst.estimate(),
            jain: self.jain.estimate(),
        }
    }
}

/// Fill `buf[i] = f(i)` for every index.
fn fill(buf: &mut [f64], f: impl Fn(usize) -> f64) {
    for (i, v) in buf.iter_mut().enumerate() {
        *v = f(i);
    }
}

/// Estimate every policy's N-pair statistics for topology `topo` at
/// sender spacing `d`, receivers in the Rmax disc, carrier-sense
/// threshold `d_thresh`, using `samples` configuration draws.
///
/// The `mc_averages`-compatible sampling path: same seed-splitting
/// discipline (one [`split_rng`] stream per call), every policy scored on
/// common random numbers, deterministic in `seed`.
pub fn mc_averages_npair(
    params: &ModelParams,
    topo: NPairTopology,
    rmax: f64,
    d: f64,
    d_thresh: f64,
    samples: u64,
    seed: u64,
) -> NPairAverages {
    let n_pairs = topo.n;
    assert!(n_pairs >= 2, "need at least two pairs");
    let senders = topo.senders(d);
    let mut rng = split_rng(seed, 0x0000_0000_6e70_6169); // "npai"
    let mut mux = StatsAcc::default();
    let mut conc = StatsAcc::default();
    let mut cs = StatsAcc::default();
    let mut opt = StatsAcc::default();
    let mut ub = StatsAcc::default();
    let mut deferring = 0u64;
    let mut senders_total = 0u64;
    let mut buf = vec![0.0f64; n_pairs];
    // Per-task invariants (sender-distance gain table, threshold power)
    // and all sample buffers live in the kernel: the steady-state loop
    // allocates nothing and evaluates each per-pair capacity once.
    // Bitwise identical to the NPairScenario::sample path (see the
    // kernel's contract and its property test).
    let mut kernel = NPairKernel::new(&senders, rmax, &params.prop, params.cap, d_thresh);

    for _ in 0..samples {
        kernel.sample_and_score(&mut rng);
        // Optimal and the upper bound are derived from the two
        // fixed-choice vectors (the per-pair formulas are O(N), so
        // re-deriving them per policy would make the sample O(N³)).
        mux.add(kernel.mux());
        conc.add(kernel.conc());
        cs.add(kernel.cs());
        let prefers_conc = kernel.conc().iter().sum::<f64>() > kernel.mux().iter().sum::<f64>();
        opt.add(if prefers_conc {
            kernel.conc()
        } else {
            kernel.mux()
        });
        fill(&mut buf, |i| kernel.conc()[i].max(kernel.mux()[i]));
        ub.add(&buf);
        deferring += kernel.deferring_senders() as u64;
        senders_total += n_pairs as u64;
    }

    NPairAverages {
        multiplexing: mux.estimate(),
        concurrency: conc.estimate(),
        carrier_sense: cs.estimate(),
        optimal: opt.estimate(),
        upper_bound: ub.estimate(),
        multiplex_fraction: deferring as f64 / senders_total as f64,
        n_pairs,
    }
}

/// [`mc_averages_npair`] on the **v2 stream layout**: identical seed
/// split, draw order and accumulator arithmetic, with the per-sample
/// evaluation routed through [`NPairKernelV2`] (one-word-per-normal
/// inverse-CDF draws batched across the N×N shadowing tables, fused
/// `exp`-based gains on squared distances, slice-batched Shannon
/// logs). Statistically equivalent to v1, bitwise-deterministic in
/// `seed`, and carrying its own canonical identity in the runtime.
pub fn mc_averages_npair_v2(
    params: &ModelParams,
    topo: NPairTopology,
    rmax: f64,
    d: f64,
    d_thresh: f64,
    samples: u64,
    seed: u64,
) -> NPairAverages {
    let n_pairs = topo.n;
    assert!(n_pairs >= 2, "need at least two pairs");
    let senders = topo.senders(d);
    let mut rng = split_rng(seed, 0x0000_0000_6e70_6169); // "npai"
    let mut mux = StatsAcc::default();
    let mut conc = StatsAcc::default();
    let mut cs = StatsAcc::default();
    let mut opt = StatsAcc::default();
    let mut ub = StatsAcc::default();
    let mut deferring = 0u64;
    let mut senders_total = 0u64;
    let mut buf = vec![0.0f64; n_pairs];
    let mut kernel = NPairKernelV2::new(&senders, rmax, &params.prop, params.cap, d_thresh);

    for _ in 0..samples {
        kernel.sample_and_score(&mut rng);
        mux.add(kernel.mux());
        conc.add(kernel.conc());
        cs.add(kernel.cs());
        let prefers_conc = kernel.conc().iter().sum::<f64>() > kernel.mux().iter().sum::<f64>();
        opt.add(if prefers_conc {
            kernel.conc()
        } else {
            kernel.mux()
        });
        fill(&mut buf, |i| kernel.conc()[i].max(kernel.mux()[i]));
        ub.add(&buf);
        deferring += kernel.deferring_senders() as u64;
        senders_total += n_pairs as u64;
    }

    NPairAverages {
        multiplexing: mux.estimate(),
        concurrency: conc.estimate(),
        carrier_sense: cs.estimate(),
        optimal: opt.estimate(),
        upper_bound: ub.estimate(),
        multiplex_fraction: deferring as f64 / senders_total as f64,
        n_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcs_capacity::npair::Placement;

    fn quick(n: usize, placement: Placement, d: f64, seed: u64) -> NPairAverages {
        mc_averages_npair(
            &ModelParams::paper_default(),
            NPairTopology { n, placement },
            40.0,
            d,
            55.0,
            4_000,
            seed,
        )
    }

    #[test]
    fn deterministic_in_seed() {
        let a = quick(4, Placement::Line, 55.0, 9);
        let b = quick(4, Placement::Line, 55.0, 9);
        assert_eq!(
            a.carrier_sense.mean.mean.to_bits(),
            b.carrier_sense.mean.mean.to_bits()
        );
        assert_eq!(
            a.optimal.worst.mean.to_bits(),
            b.optimal.worst.mean.to_bits()
        );
        assert_eq!(
            a.multiplex_fraction.to_bits(),
            b.multiplex_fraction.to_bits()
        );
        let c = quick(4, Placement::Line, 55.0, 10);
        assert_ne!(
            a.carrier_sense.mean.mean.to_bits(),
            c.carrier_sense.mean.mean.to_bits()
        );
    }

    #[test]
    fn policy_ordering_and_fairness_bounds() {
        for &n in &[2usize, 4, 8] {
            let a = quick(n, Placement::Line, 55.0, n as u64);
            // Optimal dominates both fixed choices; UB dominates optimal.
            assert!(a.optimal.mean.mean >= a.multiplexing.mean.mean - 1e-12);
            assert!(a.optimal.mean.mean >= a.concurrency.mean.mean - 1e-12);
            assert!(a.upper_bound.mean.mean >= a.optimal.mean.mean - 1e-12);
            // Worst pair can never beat the mean pair; Jain in (0, 1].
            for s in [
                a.multiplexing,
                a.concurrency,
                a.carrier_sense,
                a.optimal,
                a.upper_bound,
            ] {
                assert!(s.worst.mean <= s.mean.mean + 1e-12);
                assert!(s.jain.mean > 0.0 && s.jain.mean <= 1.0 + 1e-12);
            }
            assert!((0.0..=1.0).contains(&a.multiplex_fraction));
            assert!(a.cs_efficiency() > 0.0);
            assert_eq!(a.n_pairs, n);
        }
    }

    #[test]
    fn n2_line_agrees_with_two_pair_model_statistically() {
        // NPair(2, Line) is distributionally the paper's two-pair model:
        // same geometry, same independent per-link shadowing. The means
        // must agree within Monte Carlo error (the streams differ, so
        // agreement is statistical, not bitwise).
        let p = ModelParams::paper_default();
        let np = mc_averages_npair(&p, NPairTopology::line(2), 40.0, 55.0, 55.0, 40_000, 21);
        let tp = crate::average::mc_averages(&p, 40.0, 55.0, 55.0, 40_000, 22);
        for (a, b) in [
            (np.multiplexing.mean, tp.multiplexing),
            (np.concurrency.mean, tp.concurrency),
            (np.carrier_sense.mean, tp.carrier_sense),
            (np.optimal.mean, tp.optimal),
            (np.upper_bound.mean, tp.upper_bound),
        ] {
            let tol = 4.0 * (a.std_error + b.std_error);
            assert!(
                (a.mean - b.mean).abs() < tol,
                "npair {} vs twopair {} (tol {tol})",
                a.mean,
                b.mean
            );
        }
        assert!((np.multiplex_fraction - tp.multiplex_fraction).abs() < 0.02);
    }

    #[test]
    fn v2_deterministic_and_statistically_equivalent_to_v1() {
        let p = ModelParams::paper_default();
        let topo = NPairTopology::line(4);
        let a = mc_averages_npair_v2(&p, topo, 40.0, 55.0, 55.0, 4_000, 9);
        let b = mc_averages_npair_v2(&p, topo, 40.0, 55.0, 55.0, 4_000, 9);
        assert_eq!(
            a.carrier_sense.mean.mean.to_bits(),
            b.carrier_sense.mean.mean.to_bits()
        );
        assert_eq!(
            a.optimal.worst.mean.to_bits(),
            b.optimal.worst.mean.to_bits()
        );

        // Independent realizations of the same estimator (the v2
        // sampler is not draw-aligned with v1): means agree within MC
        // error.
        let v1 = mc_averages_npair(&p, topo, 40.0, 55.0, 55.0, 20_000, 17);
        let v2 = mc_averages_npair_v2(&p, topo, 40.0, 55.0, 55.0, 20_000, 17);
        for (x, y) in [
            (v1.multiplexing.mean, v2.multiplexing.mean),
            (v1.concurrency.mean, v2.concurrency.mean),
            (v1.carrier_sense.mean, v2.carrier_sense.mean),
            (v1.optimal.mean, v2.optimal.mean),
            (v1.upper_bound.mean, v2.upper_bound.mean),
        ] {
            let tol = 2.0 * (x.std_error + y.std_error);
            assert!(
                (x.mean - y.mean).abs() < tol.max(1e-6),
                "v1 {} vs v2 {} (tol {tol})",
                x.mean,
                y.mean
            );
        }
        assert!((v1.multiplex_fraction - v2.multiplex_fraction).abs() < 0.01);
    }

    #[test]
    fn more_pairs_less_per_pair_throughput() {
        // Packing more mutually interfering pairs at fixed spacing can
        // only hurt the per-pair optimum.
        let small = quick(2, Placement::Line, 55.0, 30);
        let large = quick(8, Placement::Line, 55.0, 31);
        assert!(
            large.optimal.mean.mean < small.optimal.mean.mean,
            "8-pair {} should be below 2-pair {}",
            large.optimal.mean.mean,
            small.optimal.mean.mean
        );
    }

    #[test]
    fn multiplexing_is_perfectly_fair_for_equal_geometry() {
        // Under TDMA every pair gets C_single/N of its own link; Jain is
        // high (only receiver-placement variance) and strictly higher
        // than concurrency's in a dense line where inner pairs suffer.
        let a = quick(6, Placement::Line, 20.0, 40);
        assert!(a.multiplexing.jain.mean > a.concurrency.jain.mean);
    }

    #[test]
    fn curves_cover_grid() {
        let at = |d: f64, seed: u64| {
            mc_averages_npair(
                &ModelParams::paper_default(),
                NPairTopology {
                    n: 3,
                    placement: Placement::Grid,
                },
                30.0,
                d,
                55.0,
                2_000,
                seed,
            )
        };
        // Spreading senders out raises the worst pair's lot under CS.
        let near = at(20.0, 5 ^ (1 << 32));
        let far = at(120.0, 5 ^ (3 << 32));
        assert!(far.carrier_sense.worst.mean > near.carrier_sense.worst.mean);
    }

    #[test]
    fn placements_differ() {
        let line = quick(9, Placement::Line, 55.0, 50);
        let grid = quick(9, Placement::Grid, 55.0, 50);
        // A 3×3 grid packs senders closer than a 9-long line, so the
        // numbers must differ (same seed, different topology).
        assert_ne!(
            line.optimal.mean.mean.to_bits(),
            grid.optimal.mean.mean.to_bits()
        );
    }
}
