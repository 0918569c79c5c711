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
//! Only the carrier-sense runs read the CCA threshold, and within them
//! only the energy-detect check in `Simulator::medium_busy` does (a
//! second reader there would have to join the [`CcaCertificate`]). The
//! lone runs, the concurrency runs and the sender RSSI never read it. A
//! sweep over thresholds therefore shares one [`ProtocolSlot`] among the
//! protocols of a pair that differ only in the threshold: each
//! CCA-independent run is made once, by whichever protocol claims it
//! first, and a carrier-sense run is reused at every other threshold its
//! certificate accepts. A reused run is the same run with the same seed,
//! so every protocol's point is the one it would measure alone.
//!
//! The best-fixed search also skips the runs that cannot win. A sender
//! starts each data frame at least DIFS after its own last transmission
//! ended (its first at least DIFS after time 0), and a frame counts only
//! if it ends within the run, so one sender delivers at most
//! ⌊T / (DIFS + airtime)⌋ frames in a run of length T at one rate;
//! [`pps_bound`] allows one more and divides by T. Runs are made highest
//! bound first, and a run whose bound is at or below the best already
//! found for every sender it could improve is not simulated: its
//! throughput could not exceed that best, and a sender's best is a
//! maximum, which does not depend on the order of its terms. So the
//! points are the ones every rate's run would give, bit for bit. Which
//! runs are skipped can depend on thread timing — a protocol may claim a
//! run before a sibling's higher-rate result lands — but what the runs
//! return cannot.

use crate::mac::{CcaMode, MacConfig};
use crate::rate::RatePolicy;
use crate::sim::{CcaCertificate, SimConfig, Simulator};
use crate::testbed::{testbed_phy, CandidateLink, Testbed};
use crate::time::Duration;
use crate::timing::{data_frame_airtime, DIFS};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use wcs_capacity::rates::rate_11a;
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

impl Strategy {
    /// The CCA-independent strategies, in the order a slot interleaves
    /// them at each rate.
    const BASELINE: [Strategy; 3] = [Strategy::Lone1, Strategy::Lone2, Strategy::Concurrency];

    /// The best so far that a run of this strategy must beat to change
    /// the point: that of the one sender a lone run measures, or the
    /// lower of the two when both send.
    fn to_beat(self, (b1, b2): (f64, f64)) -> f64 {
        match self {
            Strategy::Lone1 => b1,
            Strategy::Lone2 => b2,
            Strategy::Concurrency | Strategy::CarrierSense => b1.min(b2),
        }
    }

    /// Offset of this strategy's run seeds from the pair's seed.
    fn seed_offset(self) -> u64 {
        match self {
            Strategy::Lone1 => 0x100,
            Strategy::Lone2 => 0x200,
            Strategy::Concurrency => 0x300,
            Strategy::CarrierSense => 0x400,
        }
    }
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

impl RateStrategy {
    /// Runs per MAC strategy: one per candidate rate, or one adaptive
    /// run.
    fn runs(self, cfg: &ExperimentConfig) -> usize {
        match self {
            RateStrategy::BestFixed => cfg.rates_mbps.len(),
            RateStrategy::Adaptive => 1,
        }
    }

    /// The rate policy of run `ri` of a strategy.
    fn policy(self, cfg: &ExperimentConfig, ri: usize) -> RatePolicy {
        match self {
            RateStrategy::BestFixed => RatePolicy::fixed(cfg.rates_mbps[ri]),
            RateStrategy::Adaptive => RatePolicy::sample_paper_subset(),
        }
    }

    /// The most pkt/s one sender can deliver in run `ri` of a strategy:
    /// [`pps_bound`] at its rate, or +∞ for the adaptive run, which is
    /// never skipped.
    fn bound(self, cfg: &ExperimentConfig, ri: usize) -> f64 {
        match self {
            RateStrategy::BestFixed => pps_bound(cfg, cfg.rates_mbps[ri]),
            RateStrategy::Adaptive => f64::INFINITY,
        }
    }
}

/// The most packets per second one saturated sender can deliver in a
/// run of `cfg.run_duration` at a fixed `mbps`, in the units of
/// [`FlowStats::throughput_pps`](crate::sim::FlowStats::throughput_pps).
///
/// A sender starts each data frame at least DIFS after its own last
/// transmission ended, and its first at least DIFS after time 0, since
/// a countdown fires at `idle_start + DIFS + backoff·SLOT` and a
/// transmitting node does not contend. A frame is delivered only if it
/// ends by T, so at most ⌊T / (DIFS + airtime)⌋ frames are; the bound
/// allows one more, so it does not lean on the first frame's DIFS. A
/// rate that is not an 802.11a rate gets +∞.
pub fn pps_bound(cfg: &ExperimentConfig, mbps: f64) -> f64 {
    let Some(rate) = rate_11a(mbps) else {
        return f64::INFINITY;
    };
    let cycle = DIFS + data_frame_airtime(cfg.payload_bytes, rate);
    let frames = cfg.run_duration.as_micros() / cycle.as_micros() + 1;
    frames as f64 / cfg.run_duration.as_secs_f64()
}

/// Each sender's larger throughput of two runs.
fn max_each((a1, a2): (f64, f64), (b1, b2): (f64, f64)) -> (f64, f64) {
    (a1.max(b1), a2.max(b2))
}

/// Each sender's best throughput over a strategy's runs, leaving out
/// the skipped ones (`None`).
fn best_of(runs: impl IntoIterator<Item = Option<(f64, f64)>>) -> (f64, f64) {
    runs.into_iter().flatten().fold((0.0, 0.0), max_each)
}

/// Run the full protocol for one pair of links under an explicit
/// [`RateStrategy`]: [`run_protocol`] over a fresh [`ProtocolSlot`].
/// `RateStrategy::BestFixed` is the paper's best-fixed rate selection.
pub fn run_pair_experiment_with(
    testbed: &Testbed,
    pairs: PairExperiment,
    cfg: &ExperimentConfig,
    seed: u64,
    rate_strategy: RateStrategy,
) -> ExperimentPoint {
    let slot = ProtocolSlot::new(cfg, rate_strategy);
    run_protocol(testbed, pairs, cfg, seed, rate_strategy, &slot)
}

/// One carrier-sense run kept for reuse: its certificate and its
/// per-sender throughputs.
type CertifiedRun = (CcaCertificate, (f64, f64));

/// The runs of one pair's protocol, shared by protocols that differ
/// only in `cfg.cca_threshold_db` (same testbed, pair, seed, rates and
/// [`RateStrategy`]).
///
/// Every run is made in one order: highest [`pps_bound`] first, ties
/// by rate index, so an unsorted or duplicated `rates_mbps` works. A run
/// whose bound is at or below the best already found for every sender
/// it could improve is skipped; it could not raise a maximum, so every
/// point stays the one all the runs would give (see the module docs).
///
/// The CCA-independent runs — lone 1, lone 2 and concurrency, each at
/// every rate, interleaved per rate — are claimed one at a time from a
/// cursor, so a protocol that arrives while some are in flight runs the
/// unclaimed ones instead of waiting. A claimed run is skipped against
/// the runs of its strategy already completed, so which runs are made
/// can depend on thread timing; what they return cannot. Completed
/// carrier-sense runs are kept with their [`CcaCertificate`]s, and a
/// protocol at another threshold reuses any run at the same rate whose
/// certificate accepts its threshold. Which protocol makes a run never
/// changes the run, so every protocol's point is the one it would
/// measure alone.
#[derive(Debug)]
pub struct ProtocolSlot {
    /// Each run's bound ([`RateStrategy::bound`]), by rate index.
    bounds: Vec<f64>,
    /// Rate indices in the order runs are made: highest bound first.
    order: Vec<usize>,
    /// The CCA-independent runs, rate-major in `order`, strategy-minor
    /// in [`Strategy::BASELINE`] order; `None` is a skipped run.
    baseline: Vec<OnceLock<Option<(f64, f64)>>>,
    /// The next baseline run no protocol has claimed.
    next_baseline: AtomicUsize,
    /// Completed carrier-sense runs, per rate index.
    carrier_sense: Vec<Mutex<Vec<CertifiedRun>>>,
}

impl ProtocolSlot {
    /// An empty slot for protocols run under `cfg` (any threshold) and
    /// `rate_strategy`.
    pub fn new(cfg: &ExperimentConfig, rate_strategy: RateStrategy) -> Self {
        let rates = rate_strategy.runs(cfg);
        let bounds: Vec<f64> = (0..rates).map(|ri| rate_strategy.bound(cfg, ri)).collect();
        let mut order: Vec<usize> = (0..rates).collect();
        // Stable, so equal bounds keep rate-index order.
        order.sort_by(|&a, &b| bounds[b].total_cmp(&bounds[a]));
        ProtocolSlot {
            bounds,
            order,
            baseline: (0..Strategy::BASELINE.len() * rates)
                .map(|_| OnceLock::new())
                .collect(),
            next_baseline: AtomicUsize::new(0),
            carrier_sense: (0..rates).map(|_| Mutex::default()).collect(),
        }
    }

    /// How many runs the protocols sharing this slot have simulated so
    /// far (skipped runs not counted).
    pub fn runs_simulated(&self) -> usize {
        let baseline = (self.baseline.iter())
            .filter(|c| matches!(c.get(), Some(Some(_))))
            .count();
        let carrier_sense: usize = self.carrier_sense.iter().map(|m| lock(m).len()).sum();
        baseline + carrier_sense
    }
}

/// The entries of baseline strategy `Strategy::BASELINE[s]` in a list
/// laid out like [`ProtocolSlot`]'s baseline runs.
fn of_strategy<T>(runs: &[T], s: usize) -> impl Iterator<Item = &T> {
    runs.iter().skip(s).step_by(Strategy::BASELINE.len())
}

/// A slot's run lists stay whole across a panicking run (no run holds
/// the lock while it simulates), so a poisoned lock is still good.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run the full protocol for one pair of links through `slot`, which
/// must have been made for the same configuration but for the CCA
/// threshold (see [`ProtocolSlot`]).
///
/// The carrier-sense runs go first, highest bound first, reusing any
/// certified run, so their certificates are published early. Then the
/// protocol helps with unclaimed CCA-independent runs and waits for the
/// rest. Runs that cannot raise a sender's best are skipped (see
/// [`ProtocolSlot`]). The result equals the protocol run alone, bit for
/// bit.
pub fn run_protocol(
    testbed: &Testbed,
    pairs: PairExperiment,
    cfg: &ExperimentConfig,
    seed: u64,
    rate_strategy: RateStrategy,
    slot: &ProtocolSlot,
) -> ExperimentPoint {
    let run = |strategy: Strategy, ri: usize| {
        let run_seed = seed
            .wrapping_add(strategy.seed_offset())
            .wrapping_add(ri as u64);
        let policy = rate_strategy.policy(cfg, ri);
        run_once(testbed, pairs, cfg, strategy, &policy, run_seed)
    };
    let mut carrier_sense = (0.0, 0.0);
    for &ri in &slot.order {
        if slot.bounds[ri] <= Strategy::CarrierSense.to_beat(carrier_sense) {
            continue;
        }
        let runs = &slot.carrier_sense[ri];
        let known = lock(runs)
            .iter()
            .find(|(cert, _)| cert.certifies(cfg.cca_threshold_db))
            .map(|&(_, pps)| pps);
        let pps = known.unwrap_or_else(|| {
            let (pps, cert) = run(Strategy::CarrierSense, ri);
            lock(runs).push((cert, pps));
            pps
        });
        carrier_sense = max_each(carrier_sense, pps);
    }
    let strategies = Strategy::BASELINE.len();
    let baseline = claim_runs(&slot.baseline, &slot.next_baseline, |k| {
        let (ri, s) = (slot.order[k / strategies], k % strategies);
        let strategy = Strategy::BASELINE[s];
        let done = best_of(of_strategy(&slot.baseline, s).map(|c| c.get().copied().flatten()));
        (slot.bounds[ri] > strategy.to_beat(done)).then(|| run(strategy, ri).0)
    });
    let best = |s: usize| best_of(of_strategy(&baseline, s).copied());
    let (lone1, _) = best(0);
    let (_, lone2) = best(1);
    let (c1, c2) = best(2);
    let (s1, s2) = carrier_sense;
    ExperimentPoint {
        pairs,
        sender_rssi_db: testbed.world().rssi_db(pairs.link1.src, pairs.link2.src),
        // Taking turns: each pair gets half the time at its lone rate.
        multiplexing_pps: (lone1 + lone2) / 2.0,
        concurrency_pps: c1 + c2,
        carrier_sense_pps: s1 + s2,
    }
}

/// Make the unclaimed runs of `cells`, claiming one at a time from
/// `cursor`, then collect every cell. The final pass uses `get_or_init`:
/// it waits for a run another caller has in flight, and reruns one whose
/// run panicked (propagating the panic) instead of waiting forever.
fn claim_runs<T: Copy>(
    cells: &[OnceLock<T>],
    cursor: &AtomicUsize,
    run: impl Fn(usize) -> T,
) -> Vec<T> {
    loop {
        // Relaxed: the cursor only hands out indices; each cell's
        // `OnceLock` publishes its run.
        let k = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(cell) = cells.get(k) else {
            break;
        };
        cell.get_or_init(|| run(k));
    }
    (cells.iter().enumerate())
        .map(|(k, cell)| *cell.get_or_init(|| run(k)))
        .collect()
}

/// One run: per-sender delivered pkt/s under the given rate policy
/// (each flow gets its own controller instance), and the run's CCA
/// certificate.
fn run_once(
    testbed: &Testbed,
    pairs: PairExperiment,
    cfg: &ExperimentConfig,
    strategy: Strategy,
    policy: &RatePolicy,
    run_seed: u64,
) -> ((f64, f64), CcaCertificate) {
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
    let pps = (pps(f1), pps(f2));
    if let RatePolicy::Fixed(rate) = policy {
        let bound = pps_bound(cfg, rate.mbps);
        debug_assert!(
            pps.0 <= bound && pps.1 <= bound,
            "{strategy:?} at {} Mbps delivered {pps:?} pkt/s, over its bound {bound}",
            rate.mbps
        );
    }
    (pps, sim.cca_certificate())
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

/// Sample `n_points` node-disjoint link pairs from `links` and run the
/// best-fixed protocol on each, serially: [`plan_ensemble`], then
/// [`run_pair_experiment_with`] per planned pair. The parallel harnesses
/// (`wcs-bench`, the `wcs-runtime` sim workload) fan the same planned
/// pairs out on the engine and produce identical points.
pub fn run_ensemble(
    testbed: &Testbed,
    links: &[CandidateLink],
    n_points: usize,
    cfg: &ExperimentConfig,
) -> Vec<ExperimentPoint> {
    plan_ensemble(links, n_points, cfg)
        .iter()
        .map(|p| run_pair_experiment_with(testbed, p.pairs, cfg, p.seed, RateStrategy::BestFixed))
        .collect()
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
        let w = t.world();
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
        let p = run_pair_experiment_with(&t, pairs, &quick_cfg(), 1, RateStrategy::BestFixed);
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
        let w = t.world();
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
        let p = run_pair_experiment_with(&t, pairs, &quick_cfg(), 2, RateStrategy::BestFixed);
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
        // BestFixed through the _with seam is the ensemble's path, bitwise.
        let p = &planned[0];
        let through_seam =
            run_pair_experiment_with(&t, p.pairs, &cfg, p.seed, RateStrategy::BestFixed);
        assert_eq!(run_ensemble(&t, &links, 2, &cfg)[0], through_seam);
    }

    #[test]
    fn shared_slot_reproduces_every_threshold_alone() {
        let t = Testbed::generate(TestbedConfig::default());
        let links = t.candidate_links(0.94, 1.0);
        let base = ExperimentConfig {
            run_duration: Duration::from_secs(1),
            rates_mbps: vec![6.0, 12.0, 24.0],
            ..Default::default()
        };
        let at = |db: f64| ExperimentConfig {
            cca_threshold_db: db,
            ..base.clone()
        };
        let grid: Vec<f64> = (0..=20).map(|i| 1.5 * i as f64).collect();
        let forward: Vec<usize> = (0..grid.len()).collect();
        let reverse: Vec<usize> = forward.iter().rev().copied().collect();
        let mut shuffled = forward.clone();
        shuffled.shuffle(&mut split_rng(5, 0));
        let (mut simulated, mut unshared, mut refused) = (0, 0, 0);
        for strategy in [RateStrategy::BestFixed, RateStrategy::Adaptive] {
            for p in plan_ensemble(&links, 4, &base) {
                let alone: Vec<ExperimentPoint> = (grid.iter())
                    .map(|&db| run_pair_experiment_with(&t, p.pairs, &at(db), p.seed, strategy))
                    .collect();
                for order in [&forward, &reverse, &shuffled] {
                    let slot = ProtocolSlot::new(&base, strategy);
                    for &i in order {
                        let shared =
                            run_protocol(&t, p.pairs, &at(grid[i]), p.seed, strategy, &slot);
                        assert_eq!(
                            shared, alone[i],
                            "{strategy:?} {:?} at {} dB",
                            p.pairs, grid[i]
                        );
                    }
                    simulated += slot.runs_simulated();
                    unshared += (3 + grid.len()) * strategy.runs(&base);
                    // Every kept run certifies its own threshold, and on
                    // this grid some run refuses some threshold.
                    for runs in &slot.carrier_sense {
                        for (cert, _) in lock(runs).iter() {
                            let certified = grid.iter().filter(|&&db| cert.certifies(db)).count();
                            assert!(certified > 0);
                            refused += grid.len() - certified;
                        }
                    }
                }
            }
        }
        assert!(simulated < unshared / 2, "{simulated} of {unshared} runs");
        assert!(refused > 0);
    }

    #[test]
    fn pps_bound_counts_whole_cycles_plus_one() {
        let cfg = ExperimentConfig {
            run_duration: Duration::from_secs(3),
            ..Default::default()
        };
        // 1400 B at 6 Mbps is 1936 µs of airtime: ⌊3 s / 1970 µs⌋ + 1
        // frames in 3 s.
        assert_eq!(pps_bound(&cfg, 6.0), (1522 + 1) as f64 / 3.0);
        // At 24 Mbps (500 µs): ⌊3 s / 534 µs⌋ + 1.
        assert_eq!(pps_bound(&cfg, 24.0), (5617 + 1) as f64 / 3.0);
        assert_eq!(pps_bound(&cfg, 13.5), f64::INFINITY);
        // Only the adaptive strategy's run is never skipped.
        assert_eq!(RateStrategy::Adaptive.bound(&cfg, 0), f64::INFINITY);
        assert_eq!(
            RateStrategy::BestFixed.bound(&cfg, 4),
            pps_bound(&cfg, 24.0)
        );
    }

    #[test]
    fn fixed_rate_flows_stay_within_their_pps_bound() {
        use crate::mac::{AckPolicy, RtsCtsPolicy};
        use crate::timing::MAX_PAYLOAD_BYTES;
        use crate::world::NodeId;
        use rand::Rng;
        use wcs_capacity::rates::RATES_11A;
        let mut rng = split_rng(0xB0D, 0);
        let mut closest = 0.0f64;
        for case in 0..12 {
            let t = Testbed::generate(TestbedConfig {
                seed: rng.gen_range(0..u64::MAX),
                ..TestbedConfig::default()
            });
            let node = |rng: &mut rand::rngs::StdRng| NodeId(rng.gen_range(0..t.len() as u32));
            // One of the ten strongest links, which carry even 54 Mbps,
            // and a second link anywhere.
            let mut links = t.candidate_links(0.0, 1.0);
            links.sort_by(|a, b| b.rssi_db.total_cmp(&a.rssi_db));
            let link1 = links[rng.gen_range(0..10usize)];
            let (src2, dst2) = (node(&mut rng), node(&mut rng));
            // A lone sender with short frames comes closest to the bound,
            // since backoff is then most of its cycle.
            let two = case % 2 == 1 && src2 != dst2 && src2 != link1.src;
            let cfg = ExperimentConfig {
                run_duration: Duration::from_millis(rng.gen_range(1000..=5000)),
                payload_bytes: match case % 4 {
                    0 | 1 => rng.gen_range(0..=200),
                    _ => rng.gen_range(0..=MAX_PAYLOAD_BYTES),
                },
                ..Default::default()
            };
            let mac = MacConfig {
                cca_mode: [CcaMode::Disabled, CcaMode::EnergyDetect][rng.gen_range(0..2usize)],
                cca_threshold_db: rng.gen_range(0.0..30.0),
                ack: match rng.gen_range(0..3) {
                    0 => AckPolicy::Broadcast,
                    _ => AckPolicy::Unicast {
                        retry_limit: rng.gen_range(0..8),
                    },
                },
                rts_cts: [RtsCtsPolicy::Off, RtsCtsPolicy::Always][rng.gen_range(0..2usize)],
                ..MacConfig::default()
            };
            for rate in RATES_11A {
                let mut sim = Simulator::new(
                    t.world(),
                    SimConfig {
                        phy: testbed_phy(),
                        mac,
                        payload_bytes: cfg.payload_bytes,
                        seed: rng.gen_range(0..u64::MAX),
                    },
                );
                let policy = RatePolicy::fixed(rate.mbps);
                let mut flows = vec![sim.add_flow(link1.src, link1.dst, policy.clone())];
                if two {
                    flows.push(sim.add_flow(src2, dst2, policy));
                }
                sim.run_for(cfg.run_duration);
                let bound = pps_bound(&cfg, rate.mbps);
                for f in flows {
                    let pps = sim.flow_stats(f).throughput_pps(cfg.run_duration);
                    assert!(
                        pps <= bound,
                        "case {case} at {} Mbps: {pps} pkt/s over {bound} ({cfg:?}, {mac:?})",
                        rate.mbps
                    );
                    closest = closest.max(pps / bound);
                }
            }
        }
        // The bound is tight enough to skip runs with: some run came
        // close to it.
        assert!(closest > 0.9, "closest run reached {closest} of its bound");
    }

    /// The protocol without skipping: every run at every rate, each
    /// sender's best folded over them.
    fn every_rate_point(
        t: &Testbed,
        pairs: PairExperiment,
        cfg: &ExperimentConfig,
        seed: u64,
        rate_strategy: RateStrategy,
    ) -> ExperimentPoint {
        let best = |strategy: Strategy| {
            best_of((0..rate_strategy.runs(cfg)).map(|ri| {
                let run_seed = seed
                    .wrapping_add(strategy.seed_offset())
                    .wrapping_add(ri as u64);
                let policy = rate_strategy.policy(cfg, ri);
                Some(run_once(t, pairs, cfg, strategy, &policy, run_seed).0)
            }))
        };
        let (lone1, _) = best(Strategy::Lone1);
        let (_, lone2) = best(Strategy::Lone2);
        let (c1, c2) = best(Strategy::Concurrency);
        let (s1, s2) = best(Strategy::CarrierSense);
        ExperimentPoint {
            pairs,
            sender_rssi_db: t.world().rssi_db(pairs.link1.src, pairs.link2.src),
            multiplexing_pps: (lone1 + lone2) / 2.0,
            concurrency_pps: c1 + c2,
            carrier_sense_pps: s1 + s2,
        }
    }

    #[test]
    fn skipping_runs_equals_every_rate_fold_bitwise() {
        let t = Testbed::generate(TestbedConfig::default());
        let links = t.candidate_links(0.94, 1.0);
        let sorted = vec![6.0, 9.0, 12.0, 18.0, 24.0];
        let reversed: Vec<f64> = sorted.iter().rev().copied().collect();
        let mut shuffled = sorted.clone();
        shuffled.shuffle(&mut split_rng(9, 0));
        let rate_lists = [
            sorted,
            reversed,
            shuffled,
            vec![12.0, 24.0, 6.0, 24.0, 12.0],
            vec![18.0],
        ];
        let base = ExperimentConfig {
            run_duration: Duration::from_secs(1),
            ..Default::default()
        };
        let (mut simulated, mut every) = (0, 0);
        for p in plan_ensemble(&links, 3, &base) {
            for strategy in [RateStrategy::BestFixed, RateStrategy::Adaptive] {
                // The adaptive strategy reads no rate list.
                let lists = match strategy {
                    RateStrategy::BestFixed => &rate_lists[..],
                    RateStrategy::Adaptive => &rate_lists[..1],
                };
                for rates in lists {
                    let cfg = ExperimentConfig {
                        rates_mbps: rates.clone(),
                        ..base.clone()
                    };
                    let slot = ProtocolSlot::new(&cfg, strategy);
                    let thresholds = [0.0, 10.0, 20.0, 30.0];
                    for db in thresholds {
                        let at = ExperimentConfig {
                            cca_threshold_db: db,
                            ..cfg.clone()
                        };
                        let oracle = every_rate_point(&t, p.pairs, &at, p.seed, strategy);
                        let what = format!("{strategy:?} {rates:?} at {db} dB");
                        let alone = run_pair_experiment_with(&t, p.pairs, &at, p.seed, strategy);
                        assert_eq!(alone, oracle, "{what}");
                        let shared = run_protocol(&t, p.pairs, &at, p.seed, strategy, &slot);
                        assert_eq!(shared, oracle, "{what}, shared slot");
                    }
                    simulated += slot.runs_simulated();
                    every += (3 + thresholds.len()) * strategy.runs(&cfg);
                }
            }
        }
        assert!(simulated < every, "{simulated} of {every} runs");
    }

    #[test]
    fn a_panicked_claim_is_rerun_not_waited_for() {
        use std::sync::atomic::AtomicBool;
        use std::sync::{mpsc, Barrier};
        let cells: Vec<OnceLock<usize>> = (0..4).map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let failed_once = AtomicBool::new(false);
        let (claimed, started) = mpsc::channel();
        let last_claimed = Barrier::new(2);
        let run = |k: usize| {
            if k == 0 && !failed_once.swap(true, Ordering::SeqCst) {
                claimed.send(()).unwrap();
                last_claimed.wait();
                panic!("run 0 failed");
            }
            if k == 3 {
                last_claimed.wait();
            }
            10 * k
        };
        std::thread::scope(|s| {
            // The first caller claims run 0 and fails it only once the
            // second has claimed every other run, so the second can get
            // run 0 only from its final pass: by rerunning it.
            let first = s.spawn(|| claim_runs(&cells, &cursor, run));
            started.recv().unwrap();
            let second = s.spawn(|| claim_runs(&cells, &cursor, run));
            assert!(first.join().is_err());
            assert_eq!(second.join().unwrap(), vec![0, 10, 20, 30]);
        });
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
            .map(|p| run_pair_experiment_with(&t, p.pairs, &cfg, p.seed, RateStrategy::BestFixed))
            .collect();
        reversed.reverse();
        assert_eq!(serial, reversed);
    }
}
