//! Protocol-simulation sweeps: the second [`Workload`] implementor.
//!
//! The paper validates its analytic model against §4 testbed protocol
//! runs. [`SimSweep`] gives those runs the same first-class treatment
//! model sweeps got in PRs 1–3: a declarative grid over **testbed
//! configurations × CCA energy thresholds × rate policies**, lowering to
//! seeded, `Send`-able [`PlannedPair`] tasks whose
//! [`ExperimentPoint`] rows flow
//! through the same [`Engine`](crate::Engine),
//! [`ResultCache`](crate::ResultCache), spec files, shard pipeline and
//! CSV/JSON report paths as model tasks.
//!
//! Lowering plans each testbed's ensemble **once** (via
//! [`plan_ensemble`], seeded from the sweep root) and then crosses the
//! planned pairs with the CCA-threshold and rate-policy axes, so every
//! axis point measures the *same* link pairs under common random
//! numbers — the §4 protocol's own discipline, extended across axes.
//!
//! Only a protocol's carrier-sense runs read the CCA threshold, and
//! only in the simulator's energy-detect check (`Simulator::medium_busy`,
//! the place a second reader would be added and certified). So the tasks
//! that differ only in it (one testbed, rate-axis entry and point) share
//! one [`ProtocolSlot`]: its CCA-independent runs are claimed one at a
//! time by whichever sibling gets there first, and a carrier-sense run is
//! reused by every sibling whose threshold the run's [`CcaCertificate`]
//! accepts. Every row is still the protocol run alone.
//!
//! [`CcaCertificate`]: wcs_sim::sim::CcaCertificate

use crate::report::RunReport;
use crate::scenario::{axis_product, task_seed};
use crate::workload::{Workload, WorkloadKind, WorkloadSpec};
use std::sync::Arc;
use wcs_sim::experiment::{
    plan_ensemble, run_protocol, ExperimentConfig, ExperimentPoint, PlannedPair, ProtocolSlot,
    RateStrategy,
};
use wcs_sim::testbed::{Testbed, TestbedConfig};
use wcs_sim::time::Duration;
use wcs_sim::world::ChannelConfig;

/// Column layout of a sim-sweep report: the task's grid coordinates
/// (testbed index, ensemble point index, CCA threshold, rate-policy
/// index) and the measured per-strategy throughputs.
pub const SIM_SWEEP_COLUMNS: [&str; 9] = [
    "testbed",
    "point",
    "cca_db",
    "rate_policy",
    "sender_rssi_db",
    "multiplexing_pps",
    "concurrency_pps",
    "carrier_sense_pps",
    "optimal_pps",
];

/// One value of a sim sweep's rate-policy axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateAxis {
    /// The paper's §4 protocol: repeat every run at each of the sweep's
    /// candidate rates and keep each sender's best throughput.
    BestFixed,
    /// A single fixed bitrate (Mbit/s) — no rate sweep.
    Fixed(f64),
    /// SampleRate adaptation over the paper's rate subset.
    Adaptive,
}

impl RateAxis {
    /// Stable label used in report metadata, spec files and the
    /// canonical string.
    pub fn label(&self) -> String {
        match self {
            RateAxis::BestFixed => "best-fixed".to_string(),
            RateAxis::Fixed(mbps) => format!("fixed({mbps:?})"),
            RateAxis::Adaptive => "samplerate".to_string(),
        }
    }

    /// Inverse of [`RateAxis::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "best-fixed" => Some(RateAxis::BestFixed),
            "samplerate" => Some(RateAxis::Adaptive),
            other => {
                let mbps = other
                    .strip_prefix("fixed(")?
                    .strip_suffix(')')?
                    .parse::<f64>()
                    .ok()?;
                Some(RateAxis::Fixed(mbps))
            }
        }
    }

    /// The `wcs-sim` rate seam this axis point lowers to.
    fn strategy(&self) -> RateStrategy {
        match self {
            RateAxis::BestFixed | RateAxis::Fixed(_) => RateStrategy::BestFixed,
            RateAxis::Adaptive => RateStrategy::Adaptive,
        }
    }
}

/// The most simulated time one sim spec may ask for, in seconds (the
/// sim case of [`WorkloadKind::budget`]): the product `testbeds × ccas ×
/// rates × points × run_secs`, one `run_secs` per task. Each task's
/// protocol makes several runs of that length (one per candidate rate
/// and strategy); single-threaded, one point-second took about 13 ms of
/// host time, so the budget is about 8 minutes. The built-in sim
/// scenarios ask for 315 at full effort.
pub const MAX_SIMULATED_SECS: u64 = 36_000;

/// A declarative protocol-simulation sweep (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct SimSweep {
    /// Human-readable scenario name (also the cache file prefix).
    pub name: String,
    /// Testbed-configuration axis: one synthetic testbed per seed
    /// (placement + frozen shadowing field both derive from it).
    pub testbed_seeds: Vec<u64>,
    /// Nodes per testbed.
    pub n_nodes: usize,
    /// Floor dimensions (width, height) in model units.
    pub floor: (f64, f64),
    /// Link-category window: candidate links whose 6 Mbps delivery lies
    /// in `[lo, hi]` (the paper's link-level metric).
    pub window: (f64, f64),
    /// CCA energy-threshold axis (dB over noise) for the carrier-sense
    /// runs.
    pub cca_thresholds_db: Vec<f64>,
    /// Rate-policy axis.
    pub rates: Vec<RateAxis>,
    /// Link pairs sampled per testbed ensemble.
    pub points: usize,
    /// Simulated seconds per protocol run.
    pub run_secs: u64,
    /// Candidate bitrates (Mbit/s) the best-fixed protocol sweeps.
    pub sweep_rates_mbps: Vec<f64>,
    /// Payload per frame (bytes).
    pub payload_bytes: usize,
    /// Root seed: ensemble planning (pair sampling and per-task run
    /// seeds) derives from it.
    pub seed: u64,
}

impl SimSweep {
    /// A new sim sweep with the paper's §4 defaults: one 50-node
    /// default-seed testbed, short-range links (≥94 % delivery), the
    /// default 13 dB CCA threshold, the best-fixed rate protocol over
    /// {6, 9, 12, 18, 24} Mbps, 4 ensemble points of 3 simulated
    /// seconds each.
    pub fn new(name: &str) -> Self {
        let tb = TestbedConfig::default();
        let xc = ExperimentConfig::default();
        SimSweep {
            name: name.to_string(),
            testbed_seeds: vec![tb.seed],
            n_nodes: tb.n_nodes,
            floor: (tb.width, tb.height),
            window: (0.94, 1.0),
            cca_thresholds_db: vec![xc.cca_threshold_db],
            rates: vec![RateAxis::BestFixed],
            points: 4,
            run_secs: 3,
            sweep_rates_mbps: xc.rates_mbps,
            payload_bytes: xc.payload_bytes,
            seed: 0,
        }
    }

    /// Set the testbed-seed axis.
    pub fn testbed_seeds(mut self, v: &[u64]) -> Self {
        self.testbed_seeds = v.to_vec();
        self
    }

    /// Set the node count per testbed.
    pub fn n_nodes(mut self, n: usize) -> Self {
        self.n_nodes = n;
        self
    }

    /// Set the floor dimensions.
    pub fn floor(mut self, width: f64, height: f64) -> Self {
        self.floor = (width, height);
        self
    }

    /// Set the link-delivery window.
    pub fn window(mut self, lo: f64, hi: f64) -> Self {
        self.window = (lo, hi);
        self
    }

    /// Set the CCA-threshold axis (dB over noise).
    pub fn cca_thresholds_db(mut self, v: &[f64]) -> Self {
        self.cca_thresholds_db = v.to_vec();
        self
    }

    /// Set the rate-policy axis.
    pub fn rates(mut self, v: &[RateAxis]) -> Self {
        self.rates = v.to_vec();
        self
    }

    /// Set the ensemble size per testbed.
    pub fn points(mut self, n: usize) -> Self {
        self.points = n;
        self
    }

    /// Set the simulated duration per run.
    pub fn run_secs(mut self, secs: u64) -> Self {
        self.run_secs = secs;
        self
    }

    /// Set the candidate rates the best-fixed protocol sweeps.
    pub fn sweep_rates_mbps(mut self, v: &[f64]) -> Self {
        self.sweep_rates_mbps = v.to_vec();
        self
    }

    /// Set the per-frame payload.
    pub fn payload_bytes(mut self, n: usize) -> Self {
        self.payload_bytes = n;
        self
    }

    /// Set the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The most tasks this sweep can lower to, from its axes alone:
    /// `testbeds × ccas × rates × points` (a testbed may plan fewer
    /// points). Saturating.
    pub(crate) fn task_bound(&self) -> u64 {
        axis_product([
            self.testbed_seeds.len(),
            self.cca_thresholds_db.len(),
            self.rates.len(),
            self.points,
        ])
    }

    /// The generation parameters of testbed `ti` on the axis.
    fn testbed_config(&self, testbed_index: usize) -> TestbedConfig {
        TestbedConfig {
            n_nodes: self.n_nodes,
            width: self.floor.0,
            height: self.floor.1,
            channel: ChannelConfig::paper_testbed(),
            seed: self.testbed_seeds[testbed_index],
        }
    }

    /// The experiment configuration a task at (`cca_db`, `rate`) runs
    /// under. Planning only reads `seed`; running only reads the rest.
    fn experiment_config(
        &self,
        cca_db: f64,
        rate: Option<RateAxis>,
        plan_seed: u64,
    ) -> ExperimentConfig {
        let rates_mbps = match rate {
            Some(RateAxis::Fixed(mbps)) => vec![mbps],
            _ => self.sweep_rates_mbps.clone(),
        };
        ExperimentConfig {
            run_duration: Duration::from_secs(self.run_secs),
            rates_mbps,
            payload_bytes: self.payload_bytes,
            cca_threshold_db: cca_db,
            seed: plan_seed,
        }
    }

    /// Deterministically plan testbed `ti`'s ensemble: generate the
    /// testbed, enumerate candidate links in the delivery window, sample
    /// `points` node-disjoint pairs with their per-task seeds. Testbeds
    /// whose window holds fewer than two candidate links plan an empty
    /// ensemble (zero tasks) rather than failing.
    ///
    /// Planning is recomputed on every call (and so is
    /// `task_count()`, which plans every testbed): at the default 50
    /// nodes one plan costs well under a millisecond against
    /// seconds-long simulation tasks, and keeping `SimSweep` plain
    /// immutable data avoids a memo cache that every axis-builder would
    /// have to invalidate. A run therefore asks `task_count()` only
    /// when traced, and a spec may ask for at most
    /// [`MAX_NODES`](wcs_sim::testbed::MAX_NODES) nodes.
    pub fn planned_for(&self, testbed_index: usize) -> Vec<PlannedPair> {
        let bed = Testbed::generate(self.testbed_config(testbed_index));
        let links = bed.candidate_links(self.window.0, self.window.1);
        if links.len() < 2 {
            return Vec::new();
        }
        let plan_seed = task_seed(self.seed, testbed_index as u64);
        let cfg = self.experiment_config(0.0, None, plan_seed);
        plan_ensemble(&links, self.points, &cfg)
    }
}

/// One sim task: a planned link pair plus its grid coordinates. Seeded
/// data (`PlannedPair` carries the run seed), so any engine worker can
/// execute it. The one state it shares is its protocol slot, with the
/// tasks of the same lowering that differ from it only in the CCA
/// threshold; the slot holds only runs that each of them would make
/// identically, so a task's row does not depend on who made them.
#[derive(Debug, Clone)]
pub struct SimTask {
    /// Position in the lowered task list.
    pub index: usize,
    /// Index into the sweep's testbed-seed axis.
    pub testbed_index: usize,
    /// Index of this pair within its testbed's planned ensemble.
    pub point_index: usize,
    /// CCA threshold (dB over noise) for the carrier-sense runs.
    pub cca_db: f64,
    /// Rate-policy axis point.
    pub rate: RateAxis,
    /// Index into the sweep's rate axis (the report's `rate_policy`
    /// column).
    pub rate_index: usize,
    /// The planned link pair, with its private run seed.
    pub planned: PlannedPair,
    /// This task's protocol runs, shared with its CCA siblings.
    pub runs: Arc<ProtocolSlot>,
}

impl WorkloadSpec for SimSweep {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Sim
    }

    /// Canonical form of everything that affects the measured numbers
    /// except the root seed (the cache key is the (hash, seed) pair).
    /// Floats use `{:?}` (shortest round-tripping form) so the string —
    /// and its hash — is exact.
    fn canonical(&self) -> String {
        let fmt = |v: &[f64]| {
            let parts: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
            parts.join(",")
        };
        let seeds: Vec<String> = self.testbed_seeds.iter().map(u64::to_string).collect();
        let rates: Vec<String> = self.rates.iter().map(RateAxis::label).collect();
        format!(
            "wcs-sim-sweep-v1;name={};testbeds=[{}];nodes={};floor=({:?},{:?});window=({:?},{:?});ccas=[{}];rates=[{}];points={};run_secs={};sweep_rates=[{}];payload={}",
            self.name,
            seeds.join(","),
            self.n_nodes,
            self.floor.0,
            self.floor.1,
            self.window.0,
            self.window.1,
            fmt(&self.cca_thresholds_db),
            rates.join(","),
            self.points,
            self.run_secs,
            fmt(&self.sweep_rates_mbps),
            self.payload_bytes,
        )
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn columns(&self) -> Vec<&'static str> {
        SIM_SWEEP_COLUMNS.to_vec()
    }

    /// Simulated seconds: `testbeds × ccas × rates × points × run_secs`,
    /// one `run_secs` per task (see [`MAX_SIMULATED_SECS`]).
    fn cost(&self) -> u64 {
        self.task_bound().saturating_mul(self.run_secs)
    }

    fn task_count(&self) -> usize {
        let per_point = self.cca_thresholds_db.len() * self.rates.len();
        (0..self.testbed_seeds.len())
            .map(|ti| self.planned_for(ti).len() * per_point)
            .sum()
    }

    fn finalize(&self, full: &RunReport) -> RunReport {
        let mut report = full.clone();
        report.name = self.name.clone();
        report.add_meta("scenario_hash", &format!("{:016x}", self.scenario_hash()));
        report.add_meta("seed", &self.seed.to_string());
        for (i, r) in self.rates.iter().enumerate() {
            report.add_meta(&format!("rate:{i}"), &r.label());
        }
        for (i, s) in self.testbed_seeds.iter().enumerate() {
            report.add_meta(&format!("testbed:{i}"), &s.to_string());
        }
        report
    }
}

impl Workload for SimSweep {
    type Task = SimTask;

    /// Lowering order is the fixed nesting (testbed, CCA, rate, point):
    /// the testbed loop is outermost so appending a testbed seed extends
    /// the list without reshuffling existing tasks, and every (CCA,
    /// rate) cell of one testbed measures the same planned pairs. Each
    /// (testbed, rate, point) group gets one fresh protocol slot, so
    /// nothing carries over from one lowering to the next.
    fn lower(&self) -> Vec<SimTask> {
        let mut tasks = Vec::new();
        for ti in 0..self.testbed_seeds.len() {
            let planned = self.planned_for(ti);
            let slots: Vec<Arc<ProtocolSlot>> = (self.rates.iter())
                .flat_map(|&rate| {
                    let cfg = self.experiment_config(0.0, Some(rate), 0);
                    (0..planned.len())
                        .map(move |_| Arc::new(ProtocolSlot::new(&cfg, rate.strategy())))
                })
                .collect();
            for &cca_db in &self.cca_thresholds_db {
                for (ri, &rate) in self.rates.iter().enumerate() {
                    for (pi, &pp) in planned.iter().enumerate() {
                        tasks.push(SimTask {
                            index: tasks.len(),
                            testbed_index: ti,
                            point_index: pi,
                            cca_db,
                            rate,
                            rate_index: ri,
                            planned: pp,
                            runs: Arc::clone(&slots[ri * planned.len() + pi]),
                        });
                    }
                }
            }
        }
        tasks
    }

    /// Runs the task's protocol through its slot: its carrier-sense
    /// runs first (reusing any a CCA sibling made that certifies this
    /// threshold), then the unclaimed CCA-independent runs, then waits
    /// for the ones siblings are making. The row equals that of the
    /// whole protocol run for this task alone.
    fn run_task(&self, task: &SimTask) -> Vec<Vec<f64>> {
        let bed = Testbed::generate(self.testbed_config(task.testbed_index));
        let cfg = self.experiment_config(task.cca_db, Some(task.rate), 0);
        let (pairs, seed, strategy) = (task.planned.pairs, task.planned.seed, task.rate.strategy());
        let point = run_protocol(&bed, pairs, &cfg, seed, strategy, &task.runs);
        vec![task_row(task, &point)]
    }
}

/// One task's report row: its grid coordinates and measured point.
fn task_row(task: &SimTask, point: &ExperimentPoint) -> Vec<f64> {
    vec![
        task.testbed_index as f64,
        task.point_index as f64,
        task.cca_db,
        task.rate_index as f64,
        point.sender_rssi_db,
        point.multiplexing_pps,
        point.concurrency_pps,
        point.carrier_sense_pps,
        point.optimal_pps(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;
    use crate::Engine;
    use wcs_sim::experiment::run_pair_experiment_with;

    fn tiny() -> SimSweep {
        SimSweep::new("tiny-sim")
            .cca_thresholds_db(&[7.0, 13.0])
            .points(2)
            .run_secs(1)
            .sweep_rates_mbps(&[6.0, 24.0])
            .seed(11)
    }

    #[test]
    fn lowering_shape_and_seeds() {
        let s = tiny();
        let tasks = s.lower();
        assert_eq!(tasks.len(), s.task_count());
        assert_eq!(tasks.len(), 2 * 2); // 2 points × 2 CCAs × 1 rate
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.index, i);
        }
        // The two CCA cells measure the same planned pairs (common
        // random numbers across the axis).
        assert_eq!(tasks[0].planned, tasks[2].planned);
        assert_eq!(tasks[1].planned, tasks[3].planned);
        assert_ne!(tasks[0].planned.seed, tasks[1].planned.seed);
    }

    #[test]
    fn cca_siblings_share_baselines_and_rows_stay_per_task() {
        let s = tiny()
            .cca_thresholds_db(&[7.0, 13.0, 19.0])
            .rates(&[RateAxis::BestFixed, RateAxis::Fixed(6.0)]);
        let tasks = s.lower();
        assert_eq!(tasks.len(), 3 * 2 * 2);
        // Run one task: exactly its CCA siblings (same testbed, rate and
        // point) see a filled slot; reuse never crosses a rate or point.
        let ran = &tasks[7];
        s.run_task(ran);
        let group = |t: &SimTask| (t.testbed_index, t.rate_index, t.point_index);
        for t in &tasks {
            assert_eq!(
                t.runs.runs_simulated() > 0,
                group(t) == group(ran),
                "task {}",
                t.index
            );
            assert_eq!(Arc::ptr_eq(&t.runs, &ran.runs), group(t) == group(ran));
        }
        assert_eq!(tasks.iter().filter(|t| group(t) == group(ran)).count(), 3);
        // Every row, reused baselines or not, is the whole protocol run
        // for that task alone.
        let bed = Testbed::generate(s.testbed_config(0));
        for t in &tasks {
            let cfg = s.experiment_config(t.cca_db, Some(t.rate), 0);
            let (pairs, seed) = (t.planned.pairs, t.planned.seed);
            let alone = run_pair_experiment_with(&bed, pairs, &cfg, seed, t.rate.strategy());
            assert_eq!(s.run_task(t), vec![task_row(t, &alone)], "task {}", t.index);
        }
    }

    #[test]
    fn serial_threshold_grid_simulates_each_run_once() {
        // The quick built-in grid: 3 points × 3 thresholds, best-fixed
        // over 5 rates. Without sharing that is 3 × 3 × 20 = 180 runs;
        // sharing each point's 15 CCA-independent runs makes it 90, and
        // reusing certified carrier-sense runs leaves 65: all 45 shared
        // runs and 20 of the 45 carrier-sense runs.
        let s = crate::scenarios::sim_threshold_grid(&crate::EffortProfile::quick());
        let tasks = s.lower();
        assert_eq!(tasks.len(), 9);
        for t in &tasks {
            s.run_task(t);
        }
        let slots: Vec<&SimTask> = tasks.iter().filter(|t| t.cca_db == 7.0).collect();
        let simulated: usize = slots.iter().map(|t| t.runs.runs_simulated()).sum();
        assert_eq!(simulated, 65);
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let s = tiny();
        let serial = run_workload(&s, &Engine::serial(), None);
        let parallel = run_workload(&s, &Engine::new(4), None);
        assert!(!serial.cache_hit && !parallel.cache_hit);
        assert_eq!(serial.report.to_csv(), parallel.report.to_csv());
        assert_eq!(serial.tasks_run, s.task_count());
        assert_eq!(serial.report.columns, SIM_SWEEP_COLUMNS.to_vec());
        assert_eq!(serial.report.meta_value("rate:0"), Some("best-fixed"));
    }

    #[test]
    fn canonical_sees_axes_but_not_seed() {
        let s = tiny();
        assert!(s.canonical().starts_with("wcs-sim-sweep-v1;"));
        assert_eq!(s.scenario_hash(), s.clone().seed(99).scenario_hash());
        assert_ne!(
            s.scenario_hash(),
            s.clone().cca_thresholds_db(&[13.0]).scenario_hash()
        );
        assert_ne!(
            s.scenario_hash(),
            s.clone().rates(&[RateAxis::Adaptive]).scenario_hash()
        );
        assert_ne!(s.scenario_hash(), s.clone().run_secs(2).scenario_hash());
        assert_ne!(s.scenario_hash(), s.clone().points(3).scenario_hash());
        assert_ne!(
            s.scenario_hash(),
            s.clone().testbed_seeds(&[1, 2]).scenario_hash()
        );
    }

    #[test]
    fn rate_axis_labels_roundtrip() {
        for r in [
            RateAxis::BestFixed,
            RateAxis::Fixed(6.0),
            RateAxis::Fixed(13.5),
            RateAxis::Adaptive,
        ] {
            assert_eq!(RateAxis::from_label(&r.label()), Some(r), "{}", r.label());
        }
        assert_eq!(RateAxis::from_label("warp-speed"), None);
        assert_eq!(RateAxis::from_label("fixed(oops)"), None);
    }

    #[test]
    fn empty_link_window_lowers_to_zero_tasks() {
        // An impossible delivery window (no candidate links: sigmoid
        // delivery is strictly below 1) must yield an empty, runnable
        // sweep — not a panic.
        let s = tiny().window(1.0, 1.0);
        assert_eq!(s.task_count(), 0);
        let out = run_workload(&s, &Engine::serial(), None);
        assert!(out.report.rows.is_empty());
    }

    #[test]
    fn fixed_rate_axis_runs_single_rate() {
        let s = tiny()
            .cca_thresholds_db(&[13.0])
            .rates(&[RateAxis::Fixed(6.0), RateAxis::BestFixed])
            .points(1);
        let out = run_workload(&s, &Engine::serial(), None);
        assert_eq!(out.report.rows.len(), 2);
        // Best-fixed picks the per-sender best over all rates, so it can
        // only do at least as well as the 6 Mbps-only run.
        let fixed = &out.report.rows[0];
        let best = &out.report.rows[1];
        assert_eq!(fixed[3], 0.0); // rate_policy column indexes the axis
        assert_eq!(best[3], 1.0);
        assert!(best[8] >= fixed[8] - 1e-9, "best-fixed beats fixed(6)");
    }
}
