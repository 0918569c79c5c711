//! The workload abstraction: one trait behind every sweep-shaped run.
//!
//! PRs 1–3 industrialised the *model* half of the paper — declarative
//! [`Sweep`] grids, the deterministic [`Engine`], spec
//! files, the result cache, distributed sharding — but all of it was
//! hard-wired to model tasks. A [`Workload`] is the seam that opens that
//! machinery to any grid of independent, seeded computations:
//!
//! * it **names its columns** ([`WorkloadSpec::columns`]),
//! * it **lowers to deterministic per-seed tasks**
//!   ([`Workload::lower`]) — plain `Send` data, every task carrying its
//!   own derived seed, so execution order can never perturb sampling,
//! * it **runs one task to a fixed-size row block**
//!   ([`Workload::run_task`]) — a pure function of the task, which is
//!   what makes slicing the task list slice the report (the property
//!   `wcs-shard` is built on), and
//! * it **contributes a canonical string** ([`WorkloadSpec::canonical`])
//!   whose [`fnv1a64`] hash keys the shared result cache (FNV-1a's
//!   loop with a non-standard multiplier; see its docs).
//!
//! [`Sweep`] (model sweeps) is the first implementor —
//! rebased onto this trait with bitwise-identical reports, canonical
//! strings and cache keys to the pre-trait code, asserted for every
//! built-in scenario in `tests/determinism.rs`. [`SimSweep`] (§4
//! protocol-simulation ensembles) is the second: its `PlannedPair` tasks
//! flow through the same engine, cache, spec-file, shard and report
//! paths as model tasks.
//!
//! [`AnyWorkload`] is the runtime-dispatch form the CLI and `wcs-shard`
//! use when the workload kind is only known from a file (a spec file's
//! `workload = "sim"` key, a shard manifest's workload field).

use crate::engine::Engine;
use crate::index::ResultIndex;
use crate::report::RunReport;
use crate::scenario::{fnv1a64, PolicyAxis, Sweep};
use crate::simsweep::{SimSweep, MAX_SIMULATED_SECS};

/// Which family of computation a workload runs. Carried by spec files,
/// cache entries (via the canonical-string prefix), shard manifests and
/// shard partials; merges refuse to mix kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Analytic worst-case-scenario model sweeps ([`Sweep`]).
    Model,
    /// §4 protocol-simulation ensembles ([`SimSweep`]).
    Sim,
}

impl WorkloadKind {
    /// Stable textual form used in spec files, manifests and partials.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Model => "model",
            WorkloadKind::Sim => "sim",
        }
    }

    /// Inverse of [`WorkloadKind::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "model" => Some(WorkloadKind::Model),
            "sim" => Some(WorkloadKind::Sim),
            _ => None,
        }
    }

    /// Rows each task of this kind emits: model tasks score every MAC
    /// policy on common random numbers (one row per policy in
    /// [`PolicyAxis::ALL`]); sim tasks measure one protocol point.
    pub fn rows_per_task(self) -> usize {
        match self {
            WorkloadKind::Model => PolicyAxis::ALL.len(),
            WorkloadKind::Sim => 1,
        }
    }

    /// The canonical-string prefix identifying this kind (how cache
    /// entries written before the kind existed are still classified).
    pub fn canonical_prefix(self) -> &'static str {
        match self {
            WorkloadKind::Model => "wcs-sweep-v",
            WorkloadKind::Sim => "wcs-sim-sweep-v",
        }
    }

    /// The most [`WorkloadSpec::cost`] a spec of this kind read from
    /// outside input may ask for; a spec file over it is refused where it
    /// is parsed, as is one that lowers to more than [`MAX_TASKS`] tasks.
    /// Single-threaded, either budget is roughly ten minutes of work: a
    /// model cost unit took about 115 ns (`figure4-family --full`, 3.5e7
    /// units in ≈ 4 s), and one task's simulated second about 13 ms.
    /// Every built-in scenario at full effort costs under 1 % of its
    /// budget.
    pub fn budget(self) -> u64 {
        match self {
            WorkloadKind::Model => MAX_MODEL_COST,
            WorkloadKind::Sim => MAX_SIMULATED_SECS,
        }
    }

    /// Classify a canonical spec string by its version prefix.
    pub fn of_canonical(spec: &str) -> Option<Self> {
        [WorkloadKind::Model, WorkloadKind::Sim]
            .into_iter()
            .find(|k| spec.starts_with(k.canonical_prefix()))
    }
}

/// The model family's [`WorkloadKind::budget`]: tasks × samples × N²
/// (5e9; the largest built-in, `threshold-robustness --full`, costs
/// 4.9e7).
pub const MAX_MODEL_COST: u64 = 5_000_000_000;

/// The most tasks a spec read from outside input may lower to. Lowering
/// allocates every task before any runs, and each task's rows stay in
/// the report; the largest built-in lowers to 432.
pub const MAX_TASKS: u64 = 100_000;

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The identity-and-shape half of a workload: everything the cache, the
/// shard merge and report finalization need *without* being able to run
/// anything. Object-safe, so [`AnyWorkload`] and the cache can hold the
/// two workload families behind one interface.
pub trait WorkloadSpec {
    /// Human-readable scenario name (also the cache file prefix).
    fn name(&self) -> &str;
    /// Which workload family this is.
    fn kind(&self) -> WorkloadKind;
    /// Canonical textual form of everything that affects the computed
    /// numbers, except the root seed — the cache key is the
    /// (hash-of-canonical, seed) pair.
    fn canonical(&self) -> String;
    /// Root seed; every task derives its own stream from it.
    fn seed(&self) -> u64;
    /// The report columns this workload emits.
    fn columns(&self) -> Vec<&'static str>;
    /// Rows each task's [`Workload::run_task`] block carries.
    fn rows_per_task(&self) -> usize {
        self.kind().rows_per_task()
    }
    /// Number of tasks this workload lowers to.
    fn task_count(&self) -> usize;
    /// The work this spec asks for, from the spec alone (nothing is
    /// lowered or planned), in the units its hot loop pays. A model
    /// sweep costs tasks × samples × N² (the N-pair kernel scales with
    /// N², and two-pair counts as N = 2); a sim sweep costs its
    /// simulated seconds. A spec read from outside input must stay
    /// within [`WorkloadKind::budget`]. Saturates instead of wrapping.
    fn cost(&self) -> u64;
    /// Finish a full (cache-form) report for presentation: project /
    /// annotate it exactly as a direct run would. Must be a pure
    /// function of (self, full) so shard merges emit byte-identical
    /// output.
    fn finalize(&self, full: &RunReport) -> RunReport;
    /// [`fnv1a64`] hash of [`WorkloadSpec::canonical`] — the scenario half of
    /// the (scenario hash, seed) cache key.
    fn scenario_hash(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }
}

/// A runnable workload: the [`WorkloadSpec`] identity plus task lowering
/// and the per-task kernel. `Sync` because the engine shares `&self`
/// across worker threads.
pub trait Workload: WorkloadSpec + Sync {
    /// One independent unit of work — plain seeded data, `Send` so the
    /// engine can hand it to any worker thread.
    type Task: Send + Sync;

    /// Lower to the flat task list. Task order is part of the contract:
    /// it fixes report row order and per-task seed assignment.
    fn lower(&self) -> Vec<Self::Task>;

    /// Run one task to its row block (exactly
    /// [`WorkloadSpec::rows_per_task`] rows of
    /// [`WorkloadSpec::columns`] width). Must be a pure function of
    /// (self, task). A task may share state with other tasks of the
    /// same [`Workload::lower`] call (sim tasks share one pool of runs,
    /// see [`SimSweep`]), as long as whichever of them fills a shared
    /// value fills it with the same value; the block is then still the
    /// task's own, whoever ran first and whichever tasks run at all.
    fn run_task(&self, task: &Self::Task) -> Vec<Vec<f64>>;

    /// Run a contiguous slab of tasks to their row blocks, in slab
    /// order — the kernel seam the engine dispatches through
    /// ([`Engine::map_blocks`]), so a grid of many small tasks pays
    /// per-task scheduling overhead once per slab instead of once per
    /// row block. The default evaluates [`Workload::run_task`] per
    /// task; implementors may override to amortise per-slab setup, but
    /// the output must stay exactly the per-task blocks in order (the
    /// bitwise contract every determinism and shard test pins).
    fn run_block(&self, tasks: &[&Self::Task]) -> Vec<Vec<Vec<f64>>> {
        tasks.iter().map(|t| self.run_task(t)).collect()
    }
}

/// What [`run_workload`] produced and how.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadOutcome {
    /// The (possibly cache-served) finalized report.
    pub report: RunReport,
    /// Whether the result came from the results index.
    pub cache_hit: bool,
    /// Number of tasks actually run (0 when served from the index).
    pub tasks_run: usize,
    /// Whether storing the computed result back into the index failed.
    /// The report is still complete and correct, but future identical
    /// runs will recompute — callers surface this as a degraded run
    /// (`repro --strict-cache` fails on it; a served job reports
    /// `degraded: true`).
    pub store_failed: bool,
}

/// Assemble task row blocks (in task order) into the full cache-form
/// report.
fn assemble<W: Workload + ?Sized>(w: &W, blocks: &[Vec<Vec<f64>>]) -> RunReport {
    let mut report = RunReport::new(w.name(), &w.columns());
    for block in blocks {
        debug_assert_eq!(block.len(), w.rows_per_task());
        for row in block {
            report.push_row(row.clone());
        }
    }
    report
}

/// Execute a workload on `engine`, consulting (and filling) the results
/// `index` if one is given.
///
/// The index stores the **full** row form under a key derived from the
/// workload's canonical string and seed; a stored entry whose column
/// layout does not match the workload's expected layout (e.g. written by
/// an older binary) degrades to a miss and recomputes. Reports are
/// bitwise identical for any engine thread count.
///
/// When an index is given, every run (cache hit or computed) also
/// appends a [`crate::history`] run manifest through it — out-of-band,
/// like telemetry: a manifest write failure never fails the run.
pub fn run_workload<W: Workload>(
    w: &W,
    engine: &Engine,
    index: Option<&dyn ResultIndex>,
) -> WorkloadOutcome {
    // One clock pair per run (not per task): the run-history manifest
    // records wall time whether or not telemetry is enabled.
    let wall_t0 = std::time::Instant::now();
    // `task_count` may plan the workload, so only a traced run asks it
    // up front; the run itself counts what it lowers or loads. `lanes`
    // names the compilation the vectorized loops run (`avx2` or
    // `baseline`), so a run log says what produced its times.
    let mut span = wcs_telemetry::span("workload.run")
        .with("name", w.name())
        .with("kind", w.kind().label())
        .with_lazy("lanes", wcs_stats::lanes::compilation)
        .with_lazy("tasks", || w.task_count())
        .with("hash", w.scenario_hash())
        .with("seed", w.seed())
        .start();
    let columns = w.columns();
    if let Some(index) = index {
        if let Some(full) = index.load_report(w) {
            if full.columns == columns {
                span.add("cache_hit", true);
                let outcome = WorkloadOutcome {
                    report: w.finalize(&full),
                    cache_hit: true,
                    tasks_run: 0,
                    store_failed: false,
                };
                crate::history::append_counted_manifest(
                    index,
                    w,
                    &outcome,
                    full.rows.len() / w.rows_per_task(),
                    wall_t0.elapsed().as_nanos() as u64,
                );
                return outcome;
            }
            // A hit with the wrong column layout (written by an older
            // binary) degrades to a miss and recomputes.
            wcs_telemetry::counter("cache.stale_layout", 1);
        }
    }
    span.add("cache_hit", false);

    let tasks = w.lower();
    let refs: Vec<&W::Task> = tasks.iter().collect();
    let block = engine.task_block_size(refs.len());
    let blocks: Vec<Vec<Vec<f64>>> = engine.map_blocks(&refs, block, |slab| w.run_block(slab));
    let full = assemble(w, &blocks);
    let mut store_failed = false;
    if let Some(index) = index {
        // Index write failures (read-only FS, full disk, ...) must not
        // fail the run, but they must not be invisible either: the warn
        // is mirrored to stderr, counted in the telemetry registry (what
        // `repro --strict-cache` gates on), logged when a collector is
        // installed, and carried in the outcome so a served job can
        // report itself degraded.
        if let Err(e) = index.store_report(w, &full) {
            store_failed = true;
            wcs_telemetry::warn_with(
                "cache.store_failed",
                &format!(
                    "warning: failed to store cache entry in {}: {e}",
                    index.describe()
                ),
                vec![(
                    "dir".to_string(),
                    wcs_telemetry::Value::Str(index.describe()),
                )],
            );
        }
    }
    let report = w.finalize(&full);
    let outcome = WorkloadOutcome {
        report,
        cache_hit: false,
        tasks_run: tasks.len(),
        store_failed,
    };
    if let Some(index) = index {
        crate::history::append_run_manifest(
            index,
            w,
            &outcome,
            wall_t0.elapsed().as_nanos() as u64,
        );
    }
    outcome
}

/// Run the tasks at `indices` (in the order given) and return their full
/// row blocks — the partial-report building block of `wcs-shard`
/// workers. Row blocks are bitwise identical to the corresponding blocks
/// of a whole-workload run: each task's kernel is a pure function of the
/// task alone, so slicing the task list slices the report.
///
/// Panics if any index is out of range for the workload's task list.
pub fn run_workload_subset<W: Workload + ?Sized>(
    w: &W,
    indices: &[usize],
    engine: &Engine,
) -> RunReport {
    counted_subset(w, indices, None, engine).expect("only a given task count is checked")
}

/// [`run_workload_subset`], refusing with `Err(lowered count)` before any
/// task runs when `task_count` is given and the lowering made another
/// number of tasks.
fn counted_subset<W: Workload + ?Sized>(
    w: &W,
    indices: &[usize],
    task_count: Option<usize>,
    engine: &Engine,
) -> Result<RunReport, usize> {
    let tasks = w.lower();
    if task_count.is_some_and(|n| n != tasks.len()) {
        return Err(tasks.len());
    }
    let selected: Vec<&W::Task> = indices
        .iter()
        .map(|&i| {
            assert!(
                i < tasks.len(),
                "task index {i} out of range ({} tasks)",
                tasks.len()
            );
            &tasks[i]
        })
        .collect();
    let block = engine.task_block_size(selected.len());
    let blocks: Vec<Vec<Vec<f64>>> = engine.map_blocks(&selected, block, |slab| w.run_block(slab));
    Ok(assemble(w, &blocks))
}

/// Runtime-dispatch form of the two workload families, for call sites
/// that learn the kind from a file: the CLI (`repro sweep --spec`),
/// shard manifests, the scenario registry.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyWorkload {
    /// A model sweep.
    Model(Sweep),
    /// A protocol-simulation sweep.
    Sim(SimSweep),
}

impl From<Sweep> for AnyWorkload {
    fn from(s: Sweep) -> Self {
        AnyWorkload::Model(s)
    }
}

impl From<&Sweep> for AnyWorkload {
    fn from(s: &Sweep) -> Self {
        AnyWorkload::Model(s.clone())
    }
}

impl From<SimSweep> for AnyWorkload {
    fn from(s: SimSweep) -> Self {
        AnyWorkload::Sim(s)
    }
}

impl From<&SimSweep> for AnyWorkload {
    fn from(s: &SimSweep) -> Self {
        AnyWorkload::Sim(s.clone())
    }
}

impl AnyWorkload {
    /// The [`WorkloadSpec`] view of whichever family this is.
    pub fn spec(&self) -> &dyn WorkloadSpec {
        match self {
            AnyWorkload::Model(s) => s,
            AnyWorkload::Sim(s) => s,
        }
    }

    /// Execute on `engine`, consulting the results `index` — dispatches
    /// to [`run_workload`] for the concrete family.
    pub fn run(&self, engine: &Engine, index: Option<&dyn ResultIndex>) -> WorkloadOutcome {
        match self {
            AnyWorkload::Model(s) => run_workload(s, engine, index),
            AnyWorkload::Sim(s) => run_workload(s, engine, index),
        }
    }

    /// Run a task-index subset of a plan over `task_count` tasks, as
    /// [`run_workload_subset`] does. The lowering is the one place a
    /// shard worker learns the real task count, so it is checked there,
    /// before any task runs: `Err` carries the lowered count when it is
    /// not `task_count`.
    pub fn run_subset(
        &self,
        indices: &[usize],
        task_count: usize,
        engine: &Engine,
    ) -> Result<RunReport, usize> {
        match self {
            AnyWorkload::Model(s) => counted_subset(s, indices, Some(task_count), engine),
            AnyWorkload::Sim(s) => counted_subset(s, indices, Some(task_count), engine),
        }
    }

    /// Serialize to the spec-file format (self-describing: sim specs
    /// carry a `workload = "sim"` line, model specs are byte-identical
    /// to the classic format).
    pub fn to_spec_toml(&self) -> String {
        match self {
            AnyWorkload::Model(s) => crate::spec::to_spec_toml(s),
            AnyWorkload::Sim(s) => crate::spec::to_sim_spec_toml(s),
        }
    }
}

impl WorkloadSpec for AnyWorkload {
    fn name(&self) -> &str {
        self.spec().name()
    }
    fn kind(&self) -> WorkloadKind {
        self.spec().kind()
    }
    fn canonical(&self) -> String {
        self.spec().canonical()
    }
    fn seed(&self) -> u64 {
        self.spec().seed()
    }
    fn columns(&self) -> Vec<&'static str> {
        self.spec().columns()
    }
    fn task_count(&self) -> usize {
        self.spec().task_count()
    }
    fn cost(&self) -> u64 {
        self.spec().cost()
    }
    fn finalize(&self, full: &RunReport) -> RunReport {
        self.spec().finalize(full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_roundtrip() {
        for k in [WorkloadKind::Model, WorkloadKind::Sim] {
            assert_eq!(WorkloadKind::from_label(k.label()), Some(k));
        }
        assert_eq!(WorkloadKind::from_label("quantum"), None);
        assert_eq!(WorkloadKind::Model.rows_per_task(), PolicyAxis::ALL.len());
        assert_eq!(WorkloadKind::Sim.rows_per_task(), 1);
    }

    #[test]
    fn kind_classifies_canonical_strings() {
        assert_eq!(
            WorkloadKind::of_canonical("wcs-sweep-v1;name=x"),
            Some(WorkloadKind::Model)
        );
        assert_eq!(
            WorkloadKind::of_canonical("wcs-sim-sweep-v1;name=x"),
            Some(WorkloadKind::Sim)
        );
        assert_eq!(WorkloadKind::of_canonical("not a spec"), None);
    }

    #[test]
    fn any_workload_delegates_identity() {
        let sweep = Sweep::new("delegate").ds(&[10.0]).seed(5);
        let any = AnyWorkload::from(&sweep);
        assert_eq!(any.kind(), WorkloadKind::Model);
        assert_eq!(any.name(), "delegate");
        assert_eq!(any.canonical(), sweep.canonical());
        assert_eq!(any.scenario_hash(), sweep.scenario_hash());
        assert_eq!(any.seed(), 5);
        assert_eq!(any.task_count(), sweep.task_count());
    }

    #[test]
    fn any_workload_run_matches_direct_run() {
        let sweep = Sweep::new("any-run").ds(&[20.0, 60.0]).samples(500).seed(3);
        let direct = run_workload(&sweep, &Engine::serial(), None);
        let any = AnyWorkload::from(&sweep).run(&Engine::new(3), None);
        assert_eq!(direct.report.to_csv(), any.report.to_csv());
        assert_eq!(direct.tasks_run, any.tasks_run);
    }
}
