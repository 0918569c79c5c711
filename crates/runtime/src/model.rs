//! The model workload: [`Sweep`] as the first [`Workload`] implementor.
//!
//! The kernel for one [`Task`] depends on its topology-axis point:
//! classic two-pair tasks run `wcs_core::average::mc_averages` — one
//! Monte Carlo pass scoring *all* MAC policies on common random numbers —
//! exactly as they did before the topology axis existed (bitwise
//! identical), and N-pair tasks run `wcs_core::npair::mc_averages_npair`,
//! which additionally tracks per-configuration Jain fairness and
//! worst-pair throughput. Either way the sweep's policy axis expands into
//! report rows, not extra compute. Tasks run on the
//! [`Engine`](crate::Engine); rows are emitted in (task, policy) order,
//! which together with per-task seeds makes the emitted CSV bitwise
//! identical for any thread count.
//!
//! Since the workload-API redesign, the engine scheduling, cache
//! consultation and report assembly all live in the generic
//! [`crate::workload`] runner; this module contributes the model task
//! kernel and the policy-projection finalization — with reports,
//! canonical strings and cache keys bit-for-bit identical to the
//! pre-trait code (pinned by `tests/determinism.rs`).

use crate::report::RunReport;
use crate::scenario::{PolicyAxis, Sweep, Task, Topology};
use crate::workload::{Workload, WorkloadKind, WorkloadSpec};
use wcs_core::average::{mc_averages, mc_averages_v2, PolicyAverages};
use wcs_core::npair::{mc_averages_npair, mc_averages_npair_v2, NPairAverages, NPairPolicyStats};
use wcs_core::params::StreamLayout;
use wcs_stats::montecarlo::MonteCarloEstimate;

/// Column layout of a classic two-pair sweep report.
pub const SWEEP_COLUMNS: [&str; 11] = [
    "rmax",
    "d",
    "sigma_db",
    "alpha",
    "d_thresh",
    "cap_efficiency",
    "policy",
    "mean",
    "std_error",
    "n",
    "multiplex_fraction",
];

/// Column layout of a sweep with an N-pair topology axis: the classic
/// columns plus the topology identity (pair count, placement code) and
/// the fairness aggregates (per-configuration Jain index and worst-pair
/// mean). Classic two-pair tasks appearing in such a sweep carry
/// `n_pairs = 2`, `placement = -1` and NaN fairness cells (the two-pair
/// kernel does not track them).
pub const NPAIR_SWEEP_COLUMNS: [&str; 15] = [
    "rmax",
    "d",
    "sigma_db",
    "alpha",
    "d_thresh",
    "cap_efficiency",
    "policy",
    "mean",
    "std_error",
    "n",
    "multiplex_fraction",
    "n_pairs",
    "placement",
    "jain",
    "worst_pair_mean",
];

/// The report columns a sweep emits (topology-axis sweeps get the
/// extended fairness layout).
pub fn sweep_columns(sweep: &Sweep) -> Vec<&'static str> {
    if sweep.has_npair_topology() {
        NPAIR_SWEEP_COLUMNS.to_vec()
    } else {
        SWEEP_COLUMNS.to_vec()
    }
}

/// One task's kernel output: whichever evaluation path its topology
/// selected. The N-pair payload is boxed — it carries three estimates
/// per policy and would otherwise dominate the variant size.
enum TaskAverages {
    TwoPair(PolicyAverages),
    NPair(Box<NPairAverages>),
}

fn run_task_kernel(task: &Task) -> TaskAverages {
    match (task.topology, task.stream_layout) {
        (Topology::TwoPair, StreamLayout::V1) => TaskAverages::TwoPair(mc_averages(
            &task.params(),
            task.rmax,
            task.d,
            task.d_thresh,
            task.samples,
            task.seed,
        )),
        (Topology::TwoPair, StreamLayout::V2) => TaskAverages::TwoPair(mc_averages_v2(
            &task.params(),
            task.rmax,
            task.d,
            task.d_thresh,
            task.samples,
            task.seed,
        )),
        (Topology::NPair(topo), StreamLayout::V1) => {
            TaskAverages::NPair(Box::new(mc_averages_npair(
                &task.params(),
                topo,
                task.rmax,
                task.d,
                task.d_thresh,
                task.samples,
                task.seed,
            )))
        }
        (Topology::NPair(topo), StreamLayout::V2) => {
            TaskAverages::NPair(Box::new(mc_averages_npair_v2(
                &task.params(),
                topo,
                task.rmax,
                task.d,
                task.d_thresh,
                task.samples,
                task.seed,
            )))
        }
    }
}

fn select(avg: &PolicyAverages, policy: PolicyAxis) -> MonteCarloEstimate {
    match policy {
        PolicyAxis::Multiplexing => avg.multiplexing,
        PolicyAxis::Concurrency => avg.concurrency,
        PolicyAxis::CarrierSense => avg.carrier_sense,
        PolicyAxis::Optimal => avg.optimal,
        PolicyAxis::OptimalUpperBound => avg.upper_bound,
    }
}

fn select_npair(avg: &NPairAverages, policy: PolicyAxis) -> NPairPolicyStats {
    match policy {
        PolicyAxis::Multiplexing => avg.multiplexing,
        PolicyAxis::Concurrency => avg.concurrency,
        PolicyAxis::CarrierSense => avg.carrier_sense,
        PolicyAxis::Optimal => avg.optimal,
        PolicyAxis::OptimalUpperBound => avg.upper_bound,
    }
}

fn attach_meta(report: &mut RunReport, sweep: &Sweep) {
    report.add_meta("scenario_hash", &format!("{:016x}", sweep.scenario_hash()));
    report.add_meta("seed", &sweep.seed.to_string());
    for (i, p) in sweep.policies.iter().enumerate() {
        report.add_meta(&format!("policy:{i}"), p.label());
    }
    if sweep.has_npair_topology() {
        for (i, t) in sweep.topologies.iter().enumerate() {
            report.add_meta(&format!("topology:{i}"), &t.label());
        }
    }
}

impl WorkloadSpec for Sweep {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Model
    }

    fn canonical(&self) -> String {
        Sweep::canonical(self)
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn columns(&self) -> Vec<&'static str> {
        sweep_columns(self)
    }

    fn task_count(&self) -> usize {
        Sweep::task_count(self)
    }

    fn cost(&self) -> u64 {
        let per_topology = self.points_per_topology().saturating_mul(self.samples);
        self.topologies.iter().fold(0u64, |acc, t| {
            let n = t.n_pairs() as u64;
            acc.saturating_add(per_topology.saturating_mul(n.saturating_mul(n)))
        })
    }

    fn finalize(&self, full: &RunReport) -> RunReport {
        finalize_report(self, full)
    }
}

impl Workload for Sweep {
    type Task = Task;

    fn lower(&self) -> Vec<Task> {
        Sweep::lower(self)
    }

    /// Build one task's **all-policy** row block (the form that is
    /// cached): one row per policy in [`PolicyAxis::ALL`] order, policy
    /// column indexing `ALL` — exactly the rows the pre-trait
    /// `full_report` emitted for this task.
    fn run_task(&self, task: &Task) -> Vec<Vec<f64>> {
        let npair_layout = self.has_npair_topology();
        let avg = run_task_kernel(task);
        let mut block = Vec::with_capacity(PolicyAxis::ALL.len());
        for (pi, &policy) in PolicyAxis::ALL.iter().enumerate() {
            let mut row = vec![
                task.rmax,
                task.d,
                task.sigma_db,
                task.alpha,
                task.d_thresh,
                task.cap.efficiency,
                pi as f64,
            ];
            match &avg {
                TaskAverages::TwoPair(avg) => {
                    let est = select(avg, policy);
                    row.extend([
                        est.mean,
                        est.std_error,
                        est.n as f64,
                        avg.multiplex_fraction,
                    ]);
                    if npair_layout {
                        row.extend([2.0, -1.0, f64::NAN, f64::NAN]);
                    }
                }
                TaskAverages::NPair(avg) => {
                    // An NPair result can only come from an NPair task
                    // (see run_task_kernel).
                    let Topology::NPair(topo) = task.topology else {
                        unreachable!("N-pair averages from a two-pair task")
                    };
                    let stats = select_npair(avg, policy);
                    row.extend([
                        stats.mean.mean,
                        stats.mean.std_error,
                        stats.mean.n as f64,
                        avg.multiplex_fraction,
                        avg.n_pairs as f64,
                        topo.placement.code(),
                        stats.jain.mean,
                        stats.worst.mean,
                    ]);
                }
            }
            block.push(row);
        }
        block
    }
}

/// Finish an **all-policy** report for presentation: project it onto the
/// sweep's requested policy list and attach the scenario metadata. This
/// is the exact post-processing [`run_workload`](crate::run_workload)
/// applies to a sweep, exposed so a `wcs-shard` merge of partial reports
/// emits byte-identical output.
///
/// The index stores the **all-policy** rows under a key that ignores the
/// sweep's policy selection (every policy is scored on the same samples
/// anyway), so re-running a grid with a different reported-policy subset
/// is a cache hit, not a recompute.
pub fn finalize_report(sweep: &Sweep, full: &RunReport) -> RunReport {
    let mut report = select_policies(full, sweep);
    attach_meta(&mut report, sweep);
    report
}

/// Project the cached all-policy report onto the sweep's requested
/// policy list, renumbering the policy column to index `sweep.policies`.
fn select_policies(full: &RunReport, sweep: &Sweep) -> RunReport {
    let n_all = PolicyAxis::ALL.len();
    debug_assert_eq!(full.rows.len() % n_all, 0);
    let all_index = |p: PolicyAxis| PolicyAxis::ALL.iter().position(|&q| q == p).unwrap();
    let mut report = RunReport::new(&sweep.name, &sweep_columns(sweep));
    for task_block in full.rows.chunks(n_all) {
        for (pi, &policy) in sweep.policies.iter().enumerate() {
            let mut row = task_block[all_index(policy)].clone();
            row[6] = pi as f64;
            report.push_row(row);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::engine::Engine;
    use crate::index::ResultIndex;
    use crate::workload::run_workload;
    use wcs_capacity::npair::Placement;

    fn tiny_sweep() -> Sweep {
        Sweep::new("tiny")
            .rmaxes(&[40.0])
            .ds(&[20.0, 80.0])
            .sigmas(&[0.0, 8.0])
            .samples(2_000)
            .seed(11)
    }

    fn tiny_npair_sweep() -> Sweep {
        Sweep::new("tiny-npair")
            .rmaxes(&[40.0])
            .ds(&[30.0, 90.0])
            .topologies(&[
                Topology::npair_line(2),
                Topology::npair_line(4),
                Topology::npair(4, Placement::Grid),
            ])
            .samples(1_000)
            .seed(12)
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let sweep = tiny_sweep();
        let serial = run_workload(&sweep, &Engine::serial(), None);
        let parallel = run_workload(&sweep, &Engine::new(4), None);
        assert!(!serial.cache_hit && !parallel.cache_hit);
        assert_eq!(serial.report.to_csv(), parallel.report.to_csv());
        assert_eq!(serial.report, parallel.report);
    }

    #[test]
    fn npair_parallel_matches_serial_bitwise() {
        let sweep = tiny_npair_sweep();
        let serial = run_workload(&sweep, &Engine::serial(), None);
        let parallel = run_workload(&sweep, &Engine::new(4), None);
        assert_eq!(serial.report.to_csv(), parallel.report.to_csv());
    }

    #[test]
    fn v2_layout_is_thread_invariant_and_a_distinct_identity() {
        let v2_sweep = tiny_sweep().stream_layout(StreamLayout::V2);
        let serial = run_workload(&v2_sweep, &Engine::serial(), None);
        let parallel = run_workload(&v2_sweep, &Engine::new(4), None);
        assert_eq!(serial.report.to_csv(), parallel.report.to_csv());
        assert_eq!(serial.report, parallel.report);
        // v2 is its own identity: different canonical prefix, different
        // numbers (a different draw path), same shape.
        let v1 = run_workload(&tiny_sweep(), &Engine::serial(), None);
        assert_ne!(v1.report.to_csv(), serial.report.to_csv());
        assert_eq!(v1.report.rows.len(), serial.report.rows.len());
        // σ = 0 tasks are deterministic quadrature-free MC on both
        // layouts; their means must agree closely even pointwise.
        for (a, b) in v1.report.rows.iter().zip(&serial.report.rows) {
            if a[2] == 0.0 {
                assert!((a[7] - b[7]).abs() <= 1e-6 * a[7].abs().max(1.0));
            }
        }
    }

    #[test]
    fn v2_npair_layout_is_thread_invariant() {
        let sweep = tiny_npair_sweep().stream_layout(StreamLayout::V2);
        let serial = run_workload(&sweep, &Engine::serial(), None);
        let parallel = run_workload(&sweep, &Engine::new(4), None);
        assert_eq!(serial.report.to_csv(), parallel.report.to_csv());
        assert_eq!(serial.report.columns, NPAIR_SWEEP_COLUMNS.to_vec());
    }

    #[test]
    fn v2_layout_caches_separately_from_v1() {
        let dir = std::env::temp_dir().join(format!("wcs-layout-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir);
        let v1 = tiny_sweep().ds(&[20.0]).sigmas(&[8.0]).samples(500);
        let v2 = v1.clone().stream_layout(StreamLayout::V2);
        let first_v1 = run_workload(&v1, &Engine::serial(), Some(&cache));
        assert!(!first_v1.cache_hit);
        // The v2 run must miss (disjoint key), not serve v1 rows.
        let first_v2 = run_workload(&v2, &Engine::serial(), Some(&cache));
        assert!(!first_v2.cache_hit, "v2 must not hit the v1 cache entry");
        assert_ne!(first_v1.report.to_csv(), first_v2.report.to_csv());
        // And each layout hits its own entry on re-run.
        assert!(run_workload(&v1, &Engine::serial(), Some(&cache)).cache_hit);
        assert!(run_workload(&v2, &Engine::serial(), Some(&cache)).cache_hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rows_cover_grid_times_policies() {
        let sweep = tiny_sweep();
        let out = run_workload(&sweep, &Engine::serial(), None);
        assert_eq!(out.tasks_run, sweep.task_count());
        assert_eq!(
            out.report.rows.len(),
            sweep.task_count() * sweep.policies.len()
        );
        // Policy column indexes into the sweep's policy list.
        for row in &out.report.rows {
            let pi = row[6] as usize;
            assert!(pi < sweep.policies.len());
        }
        assert_eq!(out.report.meta_value("policy:0"), Some("multiplexing"));
        // Classic sweeps keep the classic 11-column layout.
        assert_eq!(out.report.columns.len(), SWEEP_COLUMNS.len());
    }

    #[test]
    fn npair_rows_carry_topology_and_fairness() {
        let sweep = tiny_npair_sweep();
        let out = run_workload(&sweep, &Engine::serial(), None);
        assert_eq!(out.report.columns, NPAIR_SWEEP_COLUMNS.to_vec());
        assert_eq!(
            out.report.rows.len(),
            sweep.task_count() * sweep.policies.len()
        );
        assert_eq!(out.report.meta_value("topology:0"), Some("2xline"));
        assert_eq!(out.report.meta_value("topology:2"), Some("4xgrid"));
        let rows_per_topology = 2 * sweep.policies.len(); // |ds| × policies
        for (i, row) in out.report.rows.iter().enumerate() {
            let expected_n = match i / rows_per_topology {
                0 => 2.0,
                _ => 4.0,
            };
            assert_eq!(row[11], expected_n, "n_pairs in row {i}");
            // Jain in (0, 1]; worst pair below the mean.
            assert!(row[13] > 0.0 && row[13] <= 1.0 + 1e-12, "jain in row {i}");
            assert!(row[14] <= row[7] + 1e-12, "worst ≤ mean in row {i}");
        }
        // Placement codes: line for the first two topologies, grid last.
        assert_eq!(out.report.rows[0][12], 0.0);
        assert_eq!(out.report.rows[2 * rows_per_topology][12], 1.0);
    }

    #[test]
    fn cache_hit_serves_identical_numbers() {
        let dir = std::env::temp_dir().join(format!("wcs-model-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir);
        let sweep = tiny_sweep();
        let first = run_workload(&sweep, &Engine::new(2), Some(&cache));
        assert!(!first.cache_hit);
        let second = run_workload(&sweep, &Engine::new(2), Some(&cache));
        assert!(second.cache_hit);
        assert_eq!(second.tasks_run, 0);
        assert_eq!(first.report.to_csv(), second.report.to_csv());
        // A changed parameter misses and recomputes.
        let changed = sweep.clone().samples(1_000);
        let third = run_workload(&changed, &Engine::new(2), Some(&cache));
        assert!(!third.cache_hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn npair_sweeps_cache_too() {
        let dir = std::env::temp_dir().join(format!("wcs-npair-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir);
        let sweep = tiny_npair_sweep();
        let first = run_workload(&sweep, &Engine::new(2), Some(&cache));
        assert!(!first.cache_hit);
        let second = run_workload(&sweep, &Engine::new(2), Some(&cache));
        assert!(second.cache_hit);
        assert_eq!(first.report.to_csv(), second.report.to_csv());
        // A different topology axis is a different scenario.
        let changed = sweep.clone().topologies(&[Topology::npair_line(8)]);
        let third = run_workload(&changed, &Engine::new(2), Some(&cache));
        assert!(!third.cache_hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policies_subset_selects_columns() {
        let sweep = tiny_sweep().policies(&[PolicyAxis::CarrierSense]);
        let out = run_workload(&sweep, &Engine::serial(), None);
        assert_eq!(out.report.rows.len(), sweep.task_count());
        assert_eq!(out.report.meta_value("policy:0"), Some("carrier-sense"));
    }

    #[test]
    fn policy_subset_rerun_hits_cache_with_matching_numbers() {
        let dir = std::env::temp_dir().join(format!("wcs-policy-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir);
        let all = tiny_sweep();
        let first = run_workload(&all, &Engine::serial(), Some(&cache));
        assert!(!first.cache_hit);
        // Same grid, different reported-policy subset: must be a cache
        // hit (no recompute) and the rows must be the matching slice of
        // the all-policy run.
        let subset = all.clone().policies(&[PolicyAxis::Optimal]);
        let second = run_workload(&subset, &Engine::serial(), Some(&cache));
        assert!(second.cache_hit, "policy subset must not recompute");
        assert_eq!(second.tasks_run, 0);
        let opt_index = PolicyAxis::ALL
            .iter()
            .position(|&p| p == PolicyAxis::Optimal)
            .unwrap();
        for (task_i, row) in second.report.rows.iter().enumerate() {
            let full_row = &first.report.rows[task_i * PolicyAxis::ALL.len() + opt_index];
            assert_eq!(row[7].to_bits(), full_row[7].to_bits(), "mean mismatch");
            assert_eq!(row[6], 0.0, "policy column renumbered to the subset");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_column_layout_degrades_to_miss() {
        // A cache entry whose header does not match the expected layout
        // (e.g. written before a column was added) must recompute, not
        // panic or serve short rows.
        let dir = std::env::temp_dir().join(format!("wcs-stale-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir);
        let sweep = tiny_sweep().ds(&[20.0]).sigmas(&[0.0]).samples(500);
        // Store a full report with a bogus truncated layout under the
        // sweep's own key.
        let mut stale = RunReport::new(&sweep.name, &["a", "b"]);
        for _ in 0..sweep.task_count() * PolicyAxis::ALL.len() {
            stale.push_row(vec![1.0, 2.0]);
        }
        cache.store_report(&sweep, &stale).unwrap();
        let out = run_workload(&sweep, &Engine::serial(), Some(&cache));
        assert!(!out.cache_hit, "stale layout must recompute");
        assert_eq!(out.report.columns.len(), SWEEP_COLUMNS.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
