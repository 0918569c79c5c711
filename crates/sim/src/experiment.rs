//! The §4 experiment protocol.
//!
//! For each chosen pair of sender→receiver links, measure average
//! throughput under three strategies —
//!
//! * **multiplexing**: each pair runs alone, one after the other (so the
//!   comparable total is the *mean* of the two lone throughputs: each
//!   would get half the airtime),
//! * **concurrency**: carrier sense disabled, both transmit at once,
//! * **carrier sense**: default CCA enabled, both transmit,
//!
//! repeating every run at each of 6/9/12/18/24 Mbps and "independently
//! identifying the maximum throughput bitrate for each transmitter".
//! "Optimal" is the max over strategies, exactly as in the paper's
//! summary tables (§4.1, §4.2).
//!
//! Only the carrier-sense runs read the CCA threshold
//! ([`run_carrier_sense`]); the lone runs, the concurrency runs and the
//! sender RSSI ([`run_baselines`]) run with CCA disabled. A sweep over
//! thresholds can therefore run each pair's [`Baselines`] once and
//! reuse them at every threshold: a reused run is the same run with the
//! same seed.

use crate::mac::{CcaMode, MacConfig};
use crate::rate::RatePolicy;
use crate::sim::{SimConfig, Simulator};
use crate::testbed::{testbed_phy, CandidateLink, Testbed};
use crate::time::Duration;
use serde::{Deserialize, Serialize};
use wcs_stats::rng::split_rng;

use rand::seq::SliceRandom;

/// Experiment parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Duration of each individual run (the paper uses 15 s).
    pub run_duration: Duration,
    /// Bitrates swept (Mbit/s).
    pub rates_mbps: Vec<f64>,
    /// Payload per frame (bytes).
    pub payload_bytes: usize,
    /// CCA energy threshold (dB over noise) for the carrier-sense runs.
    pub cca_threshold_db: f64,
    /// Root seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            run_duration: Duration::from_secs(15),
            rates_mbps: vec![6.0, 9.0, 12.0, 18.0, 24.0],
            payload_bytes: 1400,
            cca_threshold_db: 13.0,
            seed: 42,
        }
    }
}

/// Two competing sender→receiver links.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairExperiment {
    /// First link.
    pub link1: CandidateLink,
    /// Second link (node-disjoint from the first).
    pub link2: CandidateLink,
}

/// Measured result for one pair-of-pairs (one column of Figure 10/12).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentPoint {
    /// The links.
    pub pairs: PairExperiment,
    /// Sender↔sender RSSI (dB over noise) — the Figures 11/13 x-axis.
    pub sender_rssi_db: f64,
    /// Combined multiplexing throughput (pkt/s): mean of the two lone
    /// best-rate throughputs.
    pub multiplexing_pps: f64,
    /// Combined concurrency throughput (pkt/s), best rate per sender.
    pub concurrency_pps: f64,
    /// Combined carrier-sense throughput (pkt/s), best rate per sender.
    pub carrier_sense_pps: f64,
}

impl ExperimentPoint {
    /// Max over the three strategies (the paper's "optimal").
    pub fn optimal_pps(&self) -> f64 {
        self.multiplexing_pps
            .max(self.concurrency_pps)
            .max(self.carrier_sense_pps)
    }
}

/// Ensemble aggregate, as in the paper's §4.1/§4.2 tables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrategySummary {
    /// Mean per-point optimal (pkt/s).
    pub optimal_pps: f64,
    /// Mean carrier-sense throughput (pkt/s).
    pub carrier_sense_pps: f64,
    /// Mean multiplexing throughput (pkt/s).
    pub multiplexing_pps: f64,
    /// Mean concurrency throughput (pkt/s).
    pub concurrency_pps: f64,
    /// Number of points aggregated.
    pub n_points: usize,
}

impl StrategySummary {
    /// Carrier sense as a fraction of optimal.
    pub fn cs_fraction(&self) -> f64 {
        self.carrier_sense_pps / self.optimal_pps
    }

    /// Multiplexing as a fraction of optimal.
    pub fn mux_fraction(&self) -> f64 {
        self.multiplexing_pps / self.optimal_pps
    }

    /// Concurrency as a fraction of optimal.
    pub fn conc_fraction(&self) -> f64 {
        self.concurrency_pps / self.optimal_pps
    }

    /// Render in the paper's table format.
    pub fn render(&self) -> String {
        format!(
            "Optimal (max over strategies): {:.0} packets / sec\n\
             Carrier Sense: {:.0} pkt/s ({:.0}% opt)\n\
             Multiplexing: {:.0} pkt/s ({:.0}% opt)\n\
             Concurrency: {:.0} pkt/s ({:.0}% opt)\n",
            self.optimal_pps,
            self.carrier_sense_pps,
            100.0 * self.cs_fraction(),
            self.multiplexing_pps,
            100.0 * self.mux_fraction(),
            self.concurrency_pps,
            100.0 * self.conc_fraction(),
        )
    }
}

/// The MAC strategy of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strategy {
    Lone1,
    Lone2,
    Concurrency,
    CarrierSense,
}

/// How the protocol picks bitrates for a run — the seam the
/// `wcs-runtime` sim workload's rate-policy axis lowers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateStrategy {
    /// The paper's §4 protocol: repeat every run at each rate in
    /// `cfg.rates_mbps` and keep each sender's best throughput. (A
    /// single-element rate list degenerates to one fixed-rate run.)
    BestFixed,
    /// One run per MAC strategy under SampleRate adaptation
    /// \[Bicket05\] over the paper's rate subset.
    Adaptive,
}

/// Run the full protocol for one pair of links (the paper's best-fixed
/// rate selection).
pub fn run_pair_experiment(
    testbed: &Testbed,
    pairs: PairExperiment,
    cfg: &ExperimentConfig,
    seed: u64,
) -> ExperimentPoint {
    run_pair_experiment_with(testbed, pairs, cfg, seed, RateStrategy::BestFixed)
}

/// Run the full protocol for one pair of links under an explicit
/// [`RateStrategy`]: [`run_baselines`] completed by
/// [`run_carrier_sense`]. `RateStrategy::BestFixed` is bit-for-bit the
/// classic [`run_pair_experiment`] path (same per-run seed derivation,
/// same fixed-rate policies).
pub fn run_pair_experiment_with(
    testbed: &Testbed,
    pairs: PairExperiment,
    cfg: &ExperimentConfig,
    seed: u64,
    rate_strategy: RateStrategy,
) -> ExperimentPoint {
    let baselines = run_baselines(testbed, pairs, cfg, seed, rate_strategy);
    baselines.point(
        pairs,
        run_carrier_sense(testbed, pairs, cfg, seed, rate_strategy),
    )
}

/// The half of one pair's protocol that never reads
/// `cfg.cca_threshold_db`: the sender↔sender RSSI, both lone runs and
/// the concurrency runs. Protocols that differ only in the threshold
/// can share one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baselines {
    /// Sender↔sender RSSI (dB over noise).
    pub sender_rssi_db: f64,
    /// Combined multiplexing throughput (pkt/s).
    pub multiplexing_pps: f64,
    /// Combined concurrency throughput (pkt/s).
    pub concurrency_pps: f64,
}

impl Baselines {
    /// The protocol point these baselines and a carrier-sense
    /// throughput make.
    pub fn point(&self, pairs: PairExperiment, carrier_sense_pps: f64) -> ExperimentPoint {
        ExperimentPoint {
            pairs,
            sender_rssi_db: self.sender_rssi_db,
            multiplexing_pps: self.multiplexing_pps,
            concurrency_pps: self.concurrency_pps,
            carrier_sense_pps,
        }
    }
}

/// Run the CCA-independent half of the protocol (see [`Baselines`]).
pub fn run_baselines(
    testbed: &Testbed,
    pairs: PairExperiment,
    cfg: &ExperimentConfig,
    seed: u64,
    rate_strategy: RateStrategy,
) -> Baselines {
    let best = |strategy, base_seed| {
        best_over_rates(testbed, pairs, cfg, rate_strategy, strategy, base_seed)
    };
    let (lone1, _) = best(Strategy::Lone1, seed.wrapping_add(0x100));
    let (_, lone2) = best(Strategy::Lone2, seed.wrapping_add(0x200));
    let (c1, c2) = best(Strategy::Concurrency, seed.wrapping_add(0x300));
    Baselines {
        sender_rssi_db: testbed.world().rssi_db(pairs.link1.src, pairs.link2.src),
        // Taking turns: each pair gets half the time at its lone rate.
        multiplexing_pps: (lone1 + lone2) / 2.0,
        concurrency_pps: c1 + c2,
    }
}

/// Run the carrier-sense half of the protocol, the only runs that read
/// `cfg.cca_threshold_db`; returns the combined throughput (pkt/s).
pub fn run_carrier_sense(
    testbed: &Testbed,
    pairs: PairExperiment,
    cfg: &ExperimentConfig,
    seed: u64,
    rate_strategy: RateStrategy,
) -> f64 {
    let (s1, s2) = best_over_rates(
        testbed,
        pairs,
        cfg,
        rate_strategy,
        Strategy::CarrierSense,
        seed.wrapping_add(0x400),
    );
    s1 + s2
}

/// One strategy's throughput per sender: sweep rates and keep each
/// sender's best, or run the adaptive controller once.
fn best_over_rates(
    testbed: &Testbed,
    pairs: PairExperiment,
    cfg: &ExperimentConfig,
    rate_strategy: RateStrategy,
    strategy: Strategy,
    base_seed: u64,
) -> (f64, f64) {
    let run =
        |policy: &RatePolicy, run_seed| run_once(testbed, pairs, cfg, strategy, policy, run_seed);
    match rate_strategy {
        RateStrategy::BestFixed => {
            let mut best1 = 0.0f64;
            let mut best2 = 0.0f64;
            for (ri, &rate) in cfg.rates_mbps.iter().enumerate() {
                let (a, b) = run(&RatePolicy::fixed(rate), base_seed.wrapping_add(ri as u64));
                best1 = best1.max(a);
                best2 = best2.max(b);
            }
            (best1, best2)
        }
        RateStrategy::Adaptive => run(&RatePolicy::sample_paper_subset(), base_seed),
    }
}

/// One run: per-sender delivered pkt/s under the given rate policy
/// (each flow gets its own controller instance).
fn run_once(
    testbed: &Testbed,
    pairs: PairExperiment,
    cfg: &ExperimentConfig,
    strategy: Strategy,
    policy: &RatePolicy,
    run_seed: u64,
) -> (f64, f64) {
    let mac = match strategy {
        Strategy::CarrierSense => MacConfig {
            cca_mode: CcaMode::EnergyDetect,
            cca_threshold_db: cfg.cca_threshold_db,
            ..MacConfig::default()
        },
        _ => MacConfig {
            cca_mode: CcaMode::Disabled,
            ..MacConfig::default()
        },
    };
    let sim_cfg = SimConfig {
        phy: testbed_phy(),
        mac,
        payload_bytes: cfg.payload_bytes,
        seed: run_seed,
    };
    let mut sim = Simulator::new(testbed.world(), sim_cfg);
    let mut f1 = None;
    let mut f2 = None;
    if strategy != Strategy::Lone2 {
        f1 = Some(sim.add_flow(pairs.link1.src, pairs.link1.dst, policy.clone()));
    }
    if strategy != Strategy::Lone1 {
        f2 = Some(sim.add_flow(pairs.link2.src, pairs.link2.dst, policy.clone()));
    }
    sim.run_for(cfg.run_duration);
    let pps =
        |f: Option<usize>| f.map_or(0.0, |i| sim.flow_stats(i).throughput_pps(cfg.run_duration));
    (pps(f1), pps(f2))
}

/// One planned-but-not-yet-run protocol task: the link pair to measure
/// plus the private seed its runs will use. This is the unit of work the
/// `wcs-runtime` engine fans out — planning (which draws from the
/// ensemble RNG) is separated from execution (which only reads the
/// per-task seed) precisely so execution order cannot perturb sampling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannedPair {
    /// The two links to compete.
    pub pairs: PairExperiment,
    /// Seed for every run of this task.
    pub seed: u64,
}

/// The largest ensemble a sweep read from outside input may plan.
/// [`plan_ensemble`] reserves room for every point up front and draws up
/// to 100 candidate pairs per point, so a spec asking for more is
/// refused where it is parsed, before anything is allocated.
pub const MAX_POINTS: usize = 1000;

/// The longest protocol run, in simulated seconds, a sweep read from
/// outside input may ask for: an hour, against 3 s (quick) and 15 s
/// (full) in the built-in profiles. Far larger values overflow
/// [`Duration::from_secs`](crate::time::Duration::from_secs) and would
/// never finish, so a spec asking for more is refused where it is
/// parsed.
pub const MAX_RUN_SECS: u64 = 3600;

/// Sample `n_points` node-disjoint link pairs from `links`, assigning
/// each its per-task seed, without running anything.
pub fn plan_ensemble(
    links: &[CandidateLink],
    n_points: usize,
    cfg: &ExperimentConfig,
) -> Vec<PlannedPair> {
    assert!(links.len() >= 2, "need at least two candidate links");
    let mut rng = split_rng(cfg.seed, 0xE45);
    let mut planned = Vec::with_capacity(n_points);
    let mut attempts = 0;
    while planned.len() < n_points && attempts < 100 * n_points {
        attempts += 1;
        let l1 = *links.choose(&mut rng).unwrap();
        let l2 = *links.choose(&mut rng).unwrap();
        let nodes = [l1.src, l1.dst, l2.src, l2.dst];
        let distinct = (0..4).all(|i| (0..i).all(|j| nodes[i] != nodes[j]));
        if !distinct {
            continue;
        }
        let seed = cfg.seed.wrapping_add(planned.len() as u64 * 0x1000);
        planned.push(PlannedPair {
            pairs: PairExperiment {
                link1: l1,
                link2: l2,
            },
            seed,
        });
    }
    planned
}

/// Execute one planned task (the engine kernel for testbed ensembles).
pub fn run_planned(
    testbed: &Testbed,
    planned: &PlannedPair,
    cfg: &ExperimentConfig,
) -> ExperimentPoint {
    run_pair_experiment(testbed, planned.pairs, cfg, planned.seed)
}

/// Execute a set of planned tasks serially, in order. This is the one
/// running code path behind both [`run_ensemble`] and (task by task, on
/// the engine) the `wcs-runtime` sim workload.
pub fn run_planned_set(
    testbed: &Testbed,
    planned: &[PlannedPair],
    cfg: &ExperimentConfig,
) -> Vec<ExperimentPoint> {
    planned
        .iter()
        .map(|p| run_planned(testbed, p, cfg))
        .collect()
}

/// Sample `n_points` node-disjoint link pairs from `links` and run the
/// protocol on each, serially: a thin wrapper composing [`plan_ensemble`]
/// with [`run_planned_set`]. The parallel harnesses (`wcs-bench`, the
/// `wcs-runtime` sim workload) fan the same planned tasks out on the
/// engine and produce identical points.
pub fn run_ensemble(
    testbed: &Testbed,
    links: &[CandidateLink],
    n_points: usize,
    cfg: &ExperimentConfig,
) -> Vec<ExperimentPoint> {
    run_planned_set(testbed, &plan_ensemble(links, n_points, cfg), cfg)
}

/// Aggregate an ensemble into the paper's summary-table numbers.
pub fn summarize(points: &[ExperimentPoint]) -> StrategySummary {
    assert!(!points.is_empty());
    let n = points.len() as f64;
    StrategySummary {
        optimal_pps: points.iter().map(|p| p.optimal_pps()).sum::<f64>() / n,
        carrier_sense_pps: points.iter().map(|p| p.carrier_sense_pps).sum::<f64>() / n,
        multiplexing_pps: points.iter().map(|p| p.multiplexing_pps).sum::<f64>() / n,
        concurrency_pps: points.iter().map(|p| p.concurrency_pps).sum::<f64>() / n,
        n_points: points.len(),
    }
}

/// The §5 informal experiment: on short-range pairs, compare
/// (a) base-rate throughput, (b) bitrate adaptation alone (best fixed
/// rate under carrier sense), (c) perfect exposed-terminal exploitation
/// at base rate (best of CS/concurrency at 6 Mbps), and (d) both.
/// The paper finds (b) ≈ 2× (a), (c) ≈ +10 %, and (d) ≈ +3 % over (b).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExposedVsRate {
    /// Mean combined pkt/s at the 6 Mbps base rate under carrier sense.
    pub base_rate_cs_pps: f64,
    /// Mean combined pkt/s at the best fixed rate under carrier sense.
    pub adapted_cs_pps: f64,
    /// Mean combined pkt/s at 6 Mbps with perfect concurrency
    /// exploitation (max of CS and concurrency per point).
    pub base_rate_exposed_pps: f64,
    /// Mean combined pkt/s with both (max of CS and concurrency, best
    /// rate).
    pub adapted_exposed_pps: f64,
}

/// Run the §5 comparison over an ensemble of short-range points.
pub fn exposed_vs_rate(
    testbed: &Testbed,
    links: &[CandidateLink],
    n_points: usize,
    cfg: &ExperimentConfig,
) -> ExposedVsRate {
    let base_cfg = ExperimentConfig {
        rates_mbps: vec![6.0],
        ..cfg.clone()
    };
    let base_points = run_ensemble(testbed, links, n_points, &base_cfg);
    let full_points = run_ensemble(testbed, links, n_points, cfg);
    let mean = |f: &dyn Fn(&ExperimentPoint) -> f64, pts: &[ExperimentPoint]| {
        pts.iter().map(f).sum::<f64>() / pts.len() as f64
    };
    ExposedVsRate {
        base_rate_cs_pps: mean(&|p| p.carrier_sense_pps, &base_points),
        adapted_cs_pps: mean(&|p| p.carrier_sense_pps, &full_points),
        base_rate_exposed_pps: mean(
            &|p| p.carrier_sense_pps.max(p.concurrency_pps),
            &base_points,
        ),
        adapted_exposed_pps: mean(
            &|p| p.carrier_sense_pps.max(p.concurrency_pps),
            &full_points,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::TestbedConfig;

    fn quick_cfg() -> ExperimentConfig {
        // Shorter runs and a reduced sweep keep unit tests fast; the full
        // 15 s × 5-rate protocol runs in the bench harness.
        ExperimentConfig {
            run_duration: Duration::from_secs(2),
            rates_mbps: vec![6.0, 12.0, 24.0],
            ..Default::default()
        }
    }

    #[test]
    fn short_range_point_prefers_cs_and_mux_near() {
        let t = Testbed::generate(TestbedConfig::default());
        let links = t.candidate_links(0.94, 1.0);
        // Pick two links whose senders are close (multiplexing regime).
        let mut w = t.world();
        let mut best: Option<(PairExperiment, f64)> = None;
        for &l1 in &links {
            for &l2 in &links {
                let nodes = [l1.src, l1.dst, l2.src, l2.dst];
                let distinct = (0..4).all(|i| (0..i).all(|j| nodes[i] != nodes[j]));
                if !distinct {
                    continue;
                }
                let rssi = w.rssi_db(l1.src, l2.src);
                if best.is_none() || rssi > best.unwrap().1 {
                    best = Some((
                        PairExperiment {
                            link1: l1,
                            link2: l2,
                        },
                        rssi,
                    ));
                }
            }
        }
        let (pairs, rssi) = best.expect("no disjoint pair");
        assert!(rssi > 20.0, "closest sender pair only {rssi} dB");
        let p = run_pair_experiment(&t, pairs, &quick_cfg(), 1);
        // Close senders: CS must do about as well as the better static
        // strategy. (Whether that is multiplexing or — when both
        // receivers happen to sit snug against their senders and decode
        // through the interference — concurrency is exactly the exposed-
        // terminal ambiguity the paper describes; we only require CS not
        // to lose.)
        assert!(
            p.carrier_sense_pps > 0.8 * p.multiplexing_pps,
            "CS {} vs mux {}",
            p.carrier_sense_pps,
            p.multiplexing_pps
        );
        // A single point may be a genuine exposed terminal where
        // concurrency beats CS (the paper's Figure 10 shows such points:
        // "concurrent performance catches up and sometimes exceeds both
        // CS and multiplexing"); require CS merely not to collapse.
        assert!(
            p.carrier_sense_pps > 0.75 * p.concurrency_pps.max(p.multiplexing_pps),
            "CS {} far below best static ({} / {})",
            p.carrier_sense_pps,
            p.concurrency_pps,
            p.multiplexing_pps
        );
    }

    #[test]
    fn far_senders_point_prefers_concurrency() {
        let t = Testbed::generate(TestbedConfig::default());
        let links = t.candidate_links(0.94, 1.0);
        let mut w = t.world();
        let mut best: Option<(PairExperiment, f64)> = None;
        for &l1 in &links {
            for &l2 in &links {
                let nodes = [l1.src, l1.dst, l2.src, l2.dst];
                let distinct = (0..4).all(|i| (0..i).all(|j| nodes[i] != nodes[j]));
                if !distinct {
                    continue;
                }
                let rssi = w.rssi_db(l1.src, l2.src);
                if best.is_none() || rssi < best.unwrap().1 {
                    best = Some((
                        PairExperiment {
                            link1: l1,
                            link2: l2,
                        },
                        rssi,
                    ));
                }
            }
        }
        let (pairs, rssi) = best.expect("no disjoint pair");
        assert!(rssi < 13.0, "most-separated senders still sense: {rssi} dB");
        let p = run_pair_experiment(&t, pairs, &quick_cfg(), 2);
        // Distant senders: concurrency ≈ CS, both beat multiplexing.
        assert!(
            p.concurrency_pps > 1.3 * p.multiplexing_pps,
            "conc {} vs mux {}",
            p.concurrency_pps,
            p.multiplexing_pps
        );
        assert!(
            (p.carrier_sense_pps - p.concurrency_pps).abs() / p.concurrency_pps < 0.25,
            "CS {} vs conc {}",
            p.carrier_sense_pps,
            p.concurrency_pps
        );
    }

    #[test]
    fn ensemble_summary_has_cs_near_optimal() {
        let t = Testbed::generate(TestbedConfig::default());
        let links = t.candidate_links(0.94, 1.0);
        let points = run_ensemble(&t, &links, 6, &quick_cfg());
        assert_eq!(points.len(), 6);
        let s = summarize(&points);
        assert!(s.cs_fraction() > 0.80, "CS {} of optimal", s.cs_fraction());
        assert!(s.cs_fraction() <= 1.0 + 1e-9);
        // CS beats both fixed strategies on average (§4.1/4.2 pattern).
        assert!(s.cs_fraction() >= s.mux_fraction() - 0.05);
        assert!(s.cs_fraction() >= s.conc_fraction() - 0.05);
        let txt = s.render();
        assert!(txt.contains("Carrier Sense"));
    }

    #[test]
    fn points_are_deterministic() {
        let t = Testbed::generate(TestbedConfig::default());
        let links = t.candidate_links(0.94, 1.0);
        let cfg = quick_cfg();
        let a = run_ensemble(&t, &links, 2, &cfg);
        let b = run_ensemble(&t, &links, 2, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_rate_strategy_is_deterministic_and_plausible() {
        let t = Testbed::generate(TestbedConfig::default());
        let links = t.candidate_links(0.94, 1.0);
        let cfg = quick_cfg();
        let planned = plan_ensemble(&links, 2, &cfg);
        for p in &planned {
            let run = |rs| run_pair_experiment_with(&t, p.pairs, &cfg, p.seed, rs);
            let a = run(RateStrategy::Adaptive);
            let b = run(RateStrategy::Adaptive);
            assert_eq!(a, b, "adaptive runs must be seed-deterministic");
            // SampleRate on a good short-range link should deliver a
            // decent fraction of the best-fixed protocol's throughput.
            let fixed = run(RateStrategy::BestFixed);
            assert!(a.optimal_pps() > 0.25 * fixed.optimal_pps());
        }
        // BestFixed through the _with seam is the classic path, bitwise.
        let p = &planned[0];
        let classic = run_planned(&t, p, &cfg);
        let through_seam =
            run_pair_experiment_with(&t, p.pairs, &cfg, p.seed, RateStrategy::BestFixed);
        assert_eq!(classic, through_seam);
    }

    #[test]
    fn planned_tasks_reproduce_ensemble_in_any_order() {
        let t = Testbed::generate(TestbedConfig::default());
        let links = t.candidate_links(0.94, 1.0);
        let cfg = quick_cfg();
        let serial = run_ensemble(&t, &links, 3, &cfg);
        let planned = plan_ensemble(&links, 3, &cfg);
        assert_eq!(planned.len(), 3);
        // Execute planned tasks in reverse, then restore order: results
        // must match the serial run exactly (task independence).
        let mut reversed: Vec<ExperimentPoint> = planned
            .iter()
            .rev()
            .map(|p| run_planned(&t, p, &cfg))
            .collect();
        reversed.reverse();
        assert_eq!(serial, reversed);
    }
}
