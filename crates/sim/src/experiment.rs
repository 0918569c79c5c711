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
//! sweep over thresholds therefore keeps every run of its protocols in
//! one [`RunPool`]: one slot per pair (testbed, rate-axis entry, point)
//! holds the runs of that pair's protocols at all of the sweep's
//! thresholds. Each CCA-independent run is made once, by whichever task
//! claims it, and a carrier-sense run is reused at every other threshold
//! its certificate accepts. A reused run is the same run with the same
//! seed, so every protocol's point is the one it would measure alone.
//!
//! The best-fixed search also skips the runs that cannot win. A sender
//! starts each data frame at least DIFS after its own last transmission
//! ended (its first at least DIFS after time 0), and a frame counts only
//! if it ends within the run, so one sender delivers at most
//! ⌊T / (DIFS + airtime)⌋ frames in a run of length T at one rate;
//! [`pps_bound`] allows one more and divides by T. Runs are claimed
//! highest bound first, and a run whose bound is at or below the best
//! already found for every sender it could improve is not simulated: its
//! throughput could not exceed that best, and a sender's best is a
//! maximum, which does not depend on the order of its terms. So the
//! points are the ones every rate's run would give, bit for bit. Which
//! runs are skipped can depend on thread timing — a task may claim a run
//! while the higher-bound run of the same strategy is still in flight —
//! but what the runs return cannot.
//!
//! A lone run at a fixed rate (the best-fixed and `fixed(x)` lone runs)
//! is not simulated event by event: one broadcast sender alone on the
//! medium has nothing to simulate but its backoff draws and a fixed set
//! of PHY draws per frame, and [`lone_broadcast_run`] computes exactly
//! what the event loop would. SampleRate lone runs, and every run with
//! two senders, take the event loop.

use crate::mac::{CcaMode, MacConfig};
use crate::rate::RatePolicy;
use crate::sim::{lone_broadcast_run, CcaCertificate, SimConfig, Simulator};
use crate::testbed::{testbed_phy, CandidateLink, Testbed};
use crate::time::Duration;
use crate::timing::{data_frame_airtime, DIFS};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
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
    /// A rate's first cells in a slot's claim order: the lowest
    /// threshold's carrier-sense run, then the CCA-independent runs.
    const FIRST: [Strategy; 4] = [
        Strategy::CarrierSense,
        Strategy::Lone1,
        Strategy::Lone2,
        Strategy::Concurrency,
    ];

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
/// [`RateStrategy`]: a [`RunPool`] of one slot at
/// `cfg.cca_threshold_db`. `RateStrategy::BestFixed` is the paper's
/// best-fixed rate selection.
pub fn run_pair_experiment_with(
    testbed: &Testbed,
    pairs: PairExperiment,
    cfg: &ExperimentConfig,
    seed: u64,
    rate_strategy: RateStrategy,
) -> ExperimentPoint {
    let mut pool = RunPool::default();
    let planned = PlannedPair { pairs, seed };
    let threshold = cfg.cca_threshold_db;
    let slot = pool.add_slot(
        Arc::new(testbed.clone()),
        planned,
        cfg,
        rate_strategy,
        &[threshold],
    );
    pool.point(slot, threshold).0
}

/// What deciding one run's cell gave.
#[derive(Debug)]
enum Outcome {
    /// Not simulated: its bound could not raise a sender's best.
    Skipped,
    /// The per-sender pkt/s of a completed carrier-sense run at another
    /// threshold whose certificate accepts this one: the same run.
    Reused((f64, f64)),
    /// Simulated: per-sender pkt/s and, for a carrier-sense run, its
    /// certificate.
    Made((f64, f64), Option<CcaCertificate>),
}

impl Outcome {
    /// The run's per-sender pkt/s, if it was not skipped.
    fn pps(&self) -> Option<(f64, f64)> {
        match *self {
            Outcome::Skipped => None,
            Outcome::Reused(pps) | Outcome::Made(pps, _) => Some(pps),
        }
    }
}

/// How the cells one [`RunPool::point`] call decided were decided (each
/// cell is decided by exactly one call): the runs it made on the event
/// loop and in closed form, and the ones it reused or skipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounts {
    /// Runs simulated on the event loop.
    pub event_loop: u64,
    /// Lone fixed-rate runs computed by [`lone_broadcast_run`].
    pub closed_form: u64,
    /// Carrier-sense runs reused from another threshold's certified run.
    pub reused: u64,
    /// Runs skipped by their airtime bound.
    pub skipped: u64,
}

/// Where each run of a slot sits among its cells, in claim order. Per
/// rate, highest bound first: the lowest threshold's carrier-sense run,
/// lone 1, lone 2 and concurrency ([`Strategy::FIRST`]); after those,
/// each higher threshold's carrier-sense runs, one per rate in the same
/// order. Each threshold (a key) needs `4 · rates` cells: its
/// carrier-sense runs and the CCA-independent ones.
#[derive(Debug, Clone, Copy)]
struct Layout {
    rates: usize,
    keys: usize,
}

impl Layout {
    /// Cells in the slot.
    fn cells(self) -> usize {
        (3 + self.keys) * self.rates
    }

    /// Cells each key needs.
    fn needed(self) -> usize {
        4 * self.rates
    }

    /// The cell of `strategy`'s run at rate position `pos`; `key` picks
    /// the threshold of a carrier-sense run.
    fn cell(self, strategy: Strategy, key: usize, pos: usize) -> usize {
        match (strategy, key) {
            (Strategy::CarrierSense, 0) => 4 * pos,
            (Strategy::CarrierSense, _) => (3 + key) * self.rates + pos,
            (Strategy::Lone1, _) => 4 * pos + 1,
            (Strategy::Lone2, _) => 4 * pos + 2,
            (Strategy::Concurrency, _) => 4 * pos + 3,
        }
    }

    /// The `j`-th cell key `key` needs, in claim order.
    fn needed_cell(self, key: usize, j: usize) -> usize {
        let shared = 3 * self.rates;
        match key {
            0 => j,
            _ if j < shared => 4 * (j / 3) + 1 + j % 3,
            _ => (3 + key) * self.rates + j - shared,
        }
    }

    /// Cell `c`'s run: its strategy, its key (0 for a CCA-independent
    /// run) and its rate position.
    fn run(self, c: usize) -> (Strategy, usize, usize) {
        if c < 4 * self.rates {
            (Strategy::FIRST[c % 4], 0, c / 4)
        } else {
            (Strategy::CarrierSense, c / self.rates - 3, c % self.rates)
        }
    }
}

/// One run's cell: claimed once, decided once.
#[derive(Debug)]
struct Claim<T> {
    claimed: AtomicBool,
    value: OnceLock<T>,
}

impl<T> Claim<T> {
    fn new() -> Self {
        Claim {
            claimed: AtomicBool::new(false),
            value: OnceLock::new(),
        }
    }

    /// Decide the cell with `decide` unless another caller claimed it.
    fn claim(&self, decide: impl FnOnce() -> T) {
        // Relaxed: the flag only hands the cell out; its `OnceLock`
        // publishes the value.
        if !self.claimed.swap(true, Ordering::Relaxed) {
            self.value.get_or_init(decide);
        }
    }

    /// The cell's value: waits while its claimant decides it, and if
    /// the claimant panicked, decides it with `decide` (propagating the
    /// panic again) instead of waiting forever.
    fn read(&self, decide: impl FnOnce() -> T) -> &T {
        self.value.get_or_init(decide)
    }
}

/// One slot's cells and, per key, whether it is wanted and the next of
/// its needed cells to hand out.
#[derive(Debug)]
struct SlotCells<T> {
    layout: Layout,
    cells: Vec<Claim<T>>,
    wanted: Vec<AtomicBool>,
    next: Vec<AtomicUsize>,
}

/// The claim board of a [`RunPool`]: every slot's cells, and the wanted
/// keys as (slot, key) in the order they were marked.
#[derive(Debug)]
struct Claims<T> {
    slots: Vec<SlotCells<T>>,
    open: Mutex<Vec<(usize, usize)>>,
}

impl<T> Default for Claims<T> {
    fn default() -> Self {
        Claims {
            slots: Vec::new(),
            open: Mutex::default(),
        }
    }
}

impl<T> Claims<T> {
    fn add_slot(&mut self, layout: Layout) {
        self.slots.push(SlotCells {
            layout,
            cells: (0..layout.cells()).map(|_| Claim::new()).collect(),
            wanted: (0..layout.keys).map(|_| AtomicBool::new(false)).collect(),
            next: (0..layout.keys).map(|_| AtomicUsize::new(0)).collect(),
        });
    }

    /// A task's four steps for key `key` of `slot`, deciding each cell
    /// this caller claims with `decide(slot, cell)`: mark the key
    /// wanted, claim its cells, claim the other wanted keys' cells until
    /// none is left, and only then read its own cells, in claim order.
    fn work(&self, slot: usize, key: usize, decide: &impl Fn(usize, usize) -> T) -> Vec<&T> {
        let own = &self.slots[slot];
        if !own.wanted[key].swap(true, Ordering::Relaxed) {
            lock(&self.open).push((slot, key));
        }
        while self.claim_next(slot, key, decide) {}
        while let Some((s, k)) = self.next_open() {
            self.claim_next(s, k, decide);
        }
        (0..own.layout.needed())
            .map(|j| {
                let c = own.layout.needed_cell(key, j);
                own.cells[c].read(|| decide(slot, c))
            })
            .collect()
    }

    /// Hand out the next cell key `key` of `slot` needs and claim it;
    /// false once all have been handed out.
    fn claim_next(&self, slot: usize, key: usize, decide: &impl Fn(usize, usize) -> T) -> bool {
        let s = &self.slots[slot];
        // Relaxed: the cursor only hands out indices.
        let j = s.next[key].fetch_add(1, Ordering::Relaxed);
        if j >= s.layout.needed() {
            return false;
        }
        let c = s.layout.needed_cell(key, j);
        s.cells[c].claim(|| decide(slot, c));
        true
    }

    /// The first wanted key with a cell not yet handed out; keys whose
    /// cells all have been are dropped.
    fn next_open(&self) -> Option<(usize, usize)> {
        let mut open = lock(&self.open);
        open.retain(|&(s, k)| {
            let s = &self.slots[s];
            s.next[k].load(Ordering::Relaxed) < s.layout.needed()
        });
        open.first().copied()
    }
}

/// The list of wanted keys stays whole across a panicking run (no run
/// holds the lock while it simulates), so a poisoned lock is still good.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The runs of one pair's protocols at every threshold of a sweep.
#[derive(Debug)]
struct RunSlot {
    testbed: Arc<Testbed>,
    planned: PlannedPair,
    /// The runs' configuration; its `cca_threshold_db` is not read.
    cfg: ExperimentConfig,
    rate_strategy: RateStrategy,
    /// The slot's thresholds, distinct and ascending: key `k` is
    /// `thresholds[k]`.
    thresholds: Vec<f64>,
    /// Each run's bound ([`RateStrategy::bound`]), by rate index.
    bounds: Vec<f64>,
    /// Rate indices in claim order: highest bound first.
    order: Vec<usize>,
}

impl RunSlot {
    fn layout(&self) -> Layout {
        Layout {
            rates: self.order.len(),
            keys: self.thresholds.len(),
        }
    }

    /// Make `strategy`'s run at rate index `ri` (a carrier-sense run at
    /// `cca_threshold_db`): see [`run_once`].
    fn make(
        &self,
        strategy: Strategy,
        ri: usize,
        cca_threshold_db: f64,
    ) -> ((f64, f64), Option<CcaCertificate>, bool) {
        let run_seed = (self.planned.seed)
            .wrapping_add(strategy.seed_offset())
            .wrapping_add(ri as u64);
        let policy = self.rate_strategy.policy(&self.cfg, ri);
        run_once(
            &self.testbed,
            self.planned.pairs,
            &self.cfg,
            cca_threshold_db,
            strategy,
            &policy,
            run_seed,
        )
    }
}

/// The runs of every protocol of one sweep lowering, shared by its
/// tasks.
///
/// A slot holds every run of one pair's protocols (same testbed, pair,
/// seed, rates and [`RateStrategy`]) at all of the sweep's thresholds,
/// as cells in one fixed claim order. Per rate, highest [`pps_bound`]
/// first (ties by rate index, so an unsorted or duplicated `rates_mbps`
/// works), the cells are the lowest threshold's carrier-sense run, then
/// lone 1, lone 2 and concurrency; after those come each higher
/// threshold's carrier-sense runs. A cell is decided when it is claimed:
/// it is skipped when its bound is at or below the best its strategy has
/// already found for every sender it could raise (it could not raise a
/// maximum, so every point stays the one all the runs would give),
/// reused from a completed carrier-sense run at its rate whose
/// [`CcaCertificate`] accepts its threshold, or made.
///
/// [`RunPool::point`] works in four steps: it marks its (slot,
/// threshold) as wanted, claims its own cells, claims wanted cells of the
/// other slots until none is left, and only then reads its own cells,
/// waiting on those still in flight and remaking one whose claimant
/// panicked. So no caller idles while a wanted run is unclaimed, and
/// callers that ask for only some points (a shard worker's tasks) make
/// only those points' runs. Which caller makes a run never changes the
/// run, so every point is the one its protocol would measure alone.
#[derive(Debug, Default)]
pub struct RunPool {
    slots: Vec<RunSlot>,
    claims: Claims<Outcome>,
}

impl RunPool {
    /// Add a slot for the protocols of `planned` on `testbed` under
    /// `cfg` (its `cca_threshold_db` is not read) and `rate_strategy`,
    /// at each of `thresholds_db`. Returns the slot's index.
    pub fn add_slot(
        &mut self,
        testbed: Arc<Testbed>,
        planned: PlannedPair,
        cfg: &ExperimentConfig,
        rate_strategy: RateStrategy,
        thresholds_db: &[f64],
    ) -> usize {
        let rates = rate_strategy.runs(cfg);
        let bounds: Vec<f64> = (0..rates).map(|ri| rate_strategy.bound(cfg, ri)).collect();
        let mut order: Vec<usize> = (0..rates).collect();
        // Stable, so equal bounds keep rate-index order.
        order.sort_by(|&a, &b| bounds[b].total_cmp(&bounds[a]));
        let mut thresholds = thresholds_db.to_vec();
        thresholds.sort_by(f64::total_cmp);
        thresholds.dedup_by(|a, b| a.total_cmp(b).is_eq());
        let slot = RunSlot {
            testbed,
            planned,
            cfg: cfg.clone(),
            rate_strategy,
            thresholds,
            bounds,
            order,
        };
        self.claims.add_slot(slot.layout());
        self.slots.push(slot);
        self.slots.len() - 1
    }

    /// The point of slot `slot`'s protocol at `threshold_db`, one of the
    /// slot's thresholds, and how the cells this call decided were
    /// decided. The point equals the protocol run alone, bit for bit.
    pub fn point(&self, slot: usize, threshold_db: f64) -> (ExperimentPoint, RunCounts) {
        let s = &self.slots[slot];
        let key = (s.thresholds.iter())
            .position(|t| t.total_cmp(&threshold_db).is_eq())
            .unwrap_or_else(|| panic!("{threshold_db} dB is not a threshold of slot {slot}"));
        let counts = std::cell::Cell::new(RunCounts::default());
        let outcomes = self
            .claims
            .work(slot, key, &|s, c| self.decide(s, c, &counts));
        let layout = s.layout();
        let runs: Vec<(Strategy, Option<(f64, f64)>)> = (outcomes.iter().enumerate())
            .map(|(j, o)| (layout.run(layout.needed_cell(key, j)).0, o.pps()))
            .collect();
        let best = |strategy| best_of(runs.iter().filter(|r| r.0 == strategy).map(|r| r.1));
        let (lone1, _) = best(Strategy::Lone1);
        let (_, lone2) = best(Strategy::Lone2);
        let (c1, c2) = best(Strategy::Concurrency);
        let (s1, s2) = best(Strategy::CarrierSense);
        let pairs = s.planned.pairs;
        let point = ExperimentPoint {
            pairs,
            sender_rssi_db: s.testbed.world().rssi_db(pairs.link1.src, pairs.link2.src),
            // Taking turns: each pair gets half the time at its lone rate.
            multiplexing_pps: (lone1 + lone2) / 2.0,
            concurrency_pps: c1 + c2,
            carrier_sense_pps: s1 + s2,
        };
        (point, counts.get())
    }

    /// How many runs each slot has made so far (skipped and reused runs
    /// not counted).
    pub fn runs_made(&self) -> Vec<usize> {
        (self.claims.slots.iter())
            .map(|s| {
                (s.cells.iter())
                    .filter(|c| matches!(c.value.get(), Some(Outcome::Made(..))))
                    .count()
            })
            .collect()
    }

    /// Decide cell `c` of `slot` (see [`RunPool`]), tallying how in
    /// `counts`.
    fn decide(&self, slot: usize, c: usize, counts: &std::cell::Cell<RunCounts>) -> Outcome {
        let s = &self.slots[slot];
        let cells = &self.claims.slots[slot].cells;
        let layout = s.layout();
        let (strategy, key, pos) = layout.run(c);
        let ri = s.order[pos];
        let threshold = s.thresholds[key];
        let decided = |strategy, key, pos| cells[layout.cell(strategy, key, pos)].value.get();
        let done =
            best_of((0..layout.rates).map(|p| decided(strategy, key, p).and_then(Outcome::pps)));
        // Only a made carrier-sense run carries a certificate.
        let certified = || {
            (0..layout.keys).find_map(|k| match decided(strategy, k, pos) {
                Some(Outcome::Made(pps, Some(cert))) if cert.certifies(threshold) => Some(*pps),
                _ => None,
            })
        };
        let mut n = counts.get();
        let outcome = if s.bounds[ri] <= strategy.to_beat(done) {
            n.skipped += 1;
            Outcome::Skipped
        } else if let Some(pps) = certified() {
            n.reused += 1;
            Outcome::Reused(pps)
        } else {
            let (pps, cert, closed_form) = s.make(strategy, ri, threshold);
            if closed_form {
                n.closed_form += 1;
            } else {
                n.event_loop += 1;
            }
            Outcome::Made(pps, cert)
        };
        counts.set(n);
        outcome
    }
}

/// The simulator configuration of one run: energy-detect carrier sense
/// at `cca_threshold_db` for a carrier-sense run, CCA off otherwise.
fn sim_config(
    cfg: &ExperimentConfig,
    cca_threshold_db: f64,
    strategy: Strategy,
    run_seed: u64,
) -> SimConfig {
    let mac = match strategy {
        Strategy::CarrierSense => MacConfig {
            cca_mode: CcaMode::EnergyDetect,
            cca_threshold_db,
            ..MacConfig::default()
        },
        _ => MacConfig {
            cca_mode: CcaMode::Disabled,
            ..MacConfig::default()
        },
    };
    SimConfig {
        phy: testbed_phy(),
        mac,
        payload_bytes: cfg.payload_bytes,
        seed: run_seed,
    }
}

/// One run: per-sender delivered pkt/s under `policy` (each flow gets
/// its own controller instance), a carrier-sense run's CCA certificate,
/// and whether the run was computed in closed form. A lone run at a
/// fixed rate is ([`lone_broadcast_run`]); every other run takes the
/// event loop ([`event_loop_run`]).
fn run_once(
    testbed: &Testbed,
    pairs: PairExperiment,
    cfg: &ExperimentConfig,
    cca_threshold_db: f64,
    strategy: Strategy,
    policy: &RatePolicy,
    run_seed: u64,
) -> ((f64, f64), Option<CcaCertificate>, bool) {
    let sim_cfg = sim_config(cfg, cca_threshold_db, strategy, run_seed);
    let (pps, cert, closed_form) = match (strategy, policy) {
        (Strategy::Lone1 | Strategy::Lone2, &RatePolicy::Fixed(rate)) => {
            let lone1 = strategy == Strategy::Lone1;
            let link = if lone1 { pairs.link1 } else { pairs.link2 };
            let d = cfg.run_duration;
            let stats =
                lone_broadcast_run(&mut testbed.world(), &sim_cfg, link.src, link.dst, rate, d);
            let pps = stats.throughput_pps(d);
            (if lone1 { (pps, 0.0) } else { (0.0, pps) }, None, true)
        }
        _ => {
            let (pps, cert) = event_loop_run(testbed, pairs, cfg, strategy, policy, sim_cfg);
            (
                pps,
                (strategy == Strategy::CarrierSense).then_some(cert),
                false,
            )
        }
    };
    if let RatePolicy::Fixed(rate) = policy {
        let bound = pps_bound(cfg, rate.mbps);
        debug_assert!(
            pps.0 <= bound && pps.1 <= bound,
            "{strategy:?} at {} Mbps delivered {pps:?} pkt/s, over its bound {bound}",
            rate.mbps
        );
    }
    (pps, cert, closed_form)
}

/// One run on the event loop: per-sender delivered pkt/s and the run's
/// CCA certificate.
fn event_loop_run(
    testbed: &Testbed,
    pairs: PairExperiment,
    cfg: &ExperimentConfig,
    strategy: Strategy,
    policy: &RatePolicy,
    sim_cfg: SimConfig,
) -> ((f64, f64), CcaCertificate) {
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
    ((pps(f1), pps(f2)), sim.cca_certificate())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::TestbedConfig;

    /// `n` planned pairs under the best-fixed protocol, run in plan
    /// order.
    fn best_fixed_points(
        t: &Testbed,
        links: &[CandidateLink],
        n: usize,
        cfg: &ExperimentConfig,
    ) -> Vec<ExperimentPoint> {
        plan_ensemble(links, n, cfg)
            .iter()
            .map(|p| run_pair_experiment_with(t, p.pairs, cfg, p.seed, RateStrategy::BestFixed))
            .collect()
    }

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
        let points = best_fixed_points(&t, &links, 6, &quick_cfg());
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
        let a = best_fixed_points(&t, &links, 2, &cfg);
        let b = best_fixed_points(&t, &links, 2, &cfg);
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
    }

    /// A fresh pool of one slot for `p` at every threshold of `grid`,
    /// asked for the point at each, in `order` on one thread or dealt
    /// round-robin to `threads` threads asking at once; each point must
    /// be `expected`'s.
    #[allow(clippy::too_many_arguments)]
    fn ask_pool(
        t: &Testbed,
        p: &PlannedPair,
        cfg: &ExperimentConfig,
        strategy: RateStrategy,
        grid: &[f64],
        order: &[usize],
        threads: usize,
        expected: &[ExperimentPoint],
    ) -> RunPool {
        let mut pool = RunPool::default();
        let slot = pool.add_slot(Arc::new(t.clone()), *p, cfg, strategy, grid);
        std::thread::scope(|scope| {
            for first in 0..threads {
                let pool = &pool;
                scope.spawn(move || {
                    for &i in order.iter().skip(first).step_by(threads) {
                        let what = format!("{strategy:?} {:?} at {} dB", p.pairs, grid[i]);
                        assert_eq!(pool.point(slot, grid[i]).0, expected[i], "{what}");
                    }
                });
            }
        });
        pool
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
                for (order, threads) in
                    [(&forward, 1), (&reverse, 1), (&shuffled, 1), (&shuffled, 4)]
                {
                    let pool = ask_pool(&t, &p, &base, strategy, &grid, order, threads, &alone);
                    simulated += pool.runs_made()[0];
                    unshared += (3 + grid.len()) * strategy.runs(&base);
                    // Every kept run certifies its own threshold, and on
                    // this grid some run refuses some threshold.
                    for cell in &pool.claims.slots[0].cells {
                        if let Some(Outcome::Made(_, Some(cert))) = cell.value.get() {
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

    /// The protocol without skipping or the closed form: every run at
    /// every rate on the event loop, each sender's best folded over them.
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
                let sim_cfg = sim_config(cfg, cfg.cca_threshold_db, strategy, run_seed);
                Some(event_loop_run(t, pairs, cfg, strategy, &policy, sim_cfg).0)
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
        let thresholds = [0.0, 10.0, 20.0, 30.0];
        let order: Vec<usize> = (0..thresholds.len()).collect();
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
                    let oracles: Vec<ExperimentPoint> = (thresholds.iter())
                        .map(|&db| {
                            let at = ExperimentConfig {
                                cca_threshold_db: db,
                                ..cfg.clone()
                            };
                            let oracle = every_rate_point(&t, p.pairs, &at, p.seed, strategy);
                            let alone =
                                run_pair_experiment_with(&t, p.pairs, &at, p.seed, strategy);
                            assert_eq!(alone, oracle, "{strategy:?} {rates:?} at {db} dB");
                            oracle
                        })
                        .collect();
                    for threads in [1, 4] {
                        let pool = ask_pool(
                            &t,
                            &p,
                            &cfg,
                            strategy,
                            &thresholds,
                            &order,
                            threads,
                            &oracles,
                        );
                        simulated += pool.runs_made()[0];
                        every += (3 + thresholds.len()) * strategy.runs(&cfg);
                    }
                }
            }
        }
        assert!(simulated < every, "{simulated} of {every} runs");
    }

    #[test]
    fn a_panicked_claim_is_rerun_not_waited_for() {
        use std::sync::{mpsc, Barrier};
        // One slot of one rate and one threshold: four cells, every one
        // needed by its one key.
        let mut claims = Claims::default();
        claims.add_slot(Layout { rates: 1, keys: 1 });
        let failed_once = AtomicBool::new(false);
        let (claimed, started) = mpsc::channel();
        let last_claimed = Barrier::new(2);
        let decide = |slot: usize, c: usize| {
            assert_eq!(slot, 0);
            if c == 0 && !failed_once.swap(true, Ordering::SeqCst) {
                claimed.send(()).unwrap();
                last_claimed.wait();
                panic!("run 0 failed");
            }
            if c == 3 {
                last_claimed.wait();
            }
            10 * c
        };
        let work = || -> Vec<usize> { claims.work(0, 0, &decide).into_iter().copied().collect() };
        std::thread::scope(|s| {
            // The first caller claims cell 0 and fails it only once the
            // second has claimed every other cell, so the second can get
            // cell 0 only when it reads its cells: by remaking it.
            let first = s.spawn(work);
            started.recv().unwrap();
            let second = s.spawn(work);
            assert!(first.join().is_err());
            assert_eq!(second.join().unwrap(), vec![0, 10, 20, 30]);
        });
    }

    #[test]
    fn planned_tasks_reproduce_ensemble_in_any_order() {
        let t = Testbed::generate(TestbedConfig::default());
        let links = t.candidate_links(0.94, 1.0);
        let cfg = quick_cfg();
        let forward = best_fixed_points(&t, &links, 3, &cfg);
        let planned = plan_ensemble(&links, 3, &cfg);
        assert_eq!(planned.len(), 3);
        // Execute planned tasks in reverse, then restore order: results
        // must match the forward run exactly (task independence).
        let mut reversed: Vec<ExperimentPoint> = planned
            .iter()
            .rev()
            .map(|p| run_pair_experiment_with(&t, p.pairs, &cfg, p.seed, RateStrategy::BestFixed))
            .collect();
        reversed.reverse();
        assert_eq!(forward, reversed);
    }
}
