//! The traced rebuild: a workload's in-process pipeline re-driven from
//! the same public calls `run_workload` makes, each call timed from here
//! (spans at the layer boundaries, recorded by the benchmark itself; the
//! program is not instrumented). Run with `timed = false` it makes the
//! identical calls with only an outer clock, which is how tracing
//! overhead is measured.

use crate::stats::{median, ms_since};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;
use wcs_capacity::twopair::{PairSample, ShadowDraws, TwoPairKernel};
use wcs_capacity::NPairKernelV2;
use wcs_runtime::history::append_run_manifest;
use wcs_runtime::{
    Engine, IndexQuery, ResultCache, ResultIndex, RunReport, Task, Topology, Workload,
    WorkloadOutcome,
};
use wcs_stats::rng::split_rng;

/// One pass of the rebuilt pipeline.
pub struct Rebuild {
    /// The finalized CSV the pipeline produced.
    pub csv: String,
    /// Whether the stored index entry loaded back equal to the report.
    pub reloaded: bool,
    /// Wall time of the whole pipeline.
    pub wall_ms: f64,
    /// Timed steps in pipeline order (empty when untimed).
    pub layers: Vec<(&'static str, f64)>,
    /// Per-task `run_task` times (empty when untimed).
    pub task_ms: Vec<f64>,
    /// Busy time of each engine worker that ran a block.
    pub busy_ms: Vec<f64>,
    /// Blocks the engine dispatched.
    pub blocks: usize,
    /// Size of the stored index entry.
    pub cache_bytes: u64,
}

/// Rebuild `w`'s pipeline into a fresh result index at `dir`: lower,
/// map the tasks over the engine, assemble, store, finalize, render
/// CSV, append the run manifest, and load the entry back (the warm
/// path). Output bytes are those of `run_workload` followed by
/// `to_csv`.
pub fn rebuild<W: Workload>(w: &W, engine: &Engine, dir: &Path, timed: bool) -> Rebuild {
    // A stale directory from an earlier pass would turn the store into
    // an overwrite; start every pass from nothing.
    let _ = std::fs::remove_dir_all(dir);
    let cache = ResultCache::new(dir);
    let clock = || timed.then(Instant::now);
    let mut layers = Vec::new();
    let t_all = Instant::now();

    let t = clock();
    let tasks = w.lower();
    lap(&mut layers, "runtime.lower_ms", t);

    let refs: Vec<&W::Task> = tasks.iter().collect();
    let block = engine.task_block_size(refs.len());
    let busy: Mutex<HashMap<std::thread::ThreadId, f64>> = Mutex::new(HashMap::new());
    let task_ms: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let t = clock();
    let blocks: Vec<Vec<Vec<f64>>> = engine.map_blocks(&refs, block, |slab| {
        if !timed {
            return w.run_block(slab);
        }
        // Task by task, so each run_task call gets its own span.
        let t0 = Instant::now();
        let mut out = Vec::with_capacity(slab.len());
        let mut times = Vec::with_capacity(slab.len());
        for task in slab {
            let t = Instant::now();
            out.push(w.run_task(task));
            times.push(ms_since(t));
        }
        let spent = ms_since(t0);
        *busy
            .lock()
            .expect("busy tally poisoned")
            .entry(std::thread::current().id())
            .or_default() += spent;
        task_ms.lock().expect("task tally poisoned").extend(times);
        out
    });
    lap(&mut layers, "runtime.engine.wall_ms", t);

    let t = clock();
    let mut full = RunReport::new(w.name(), &w.columns());
    for block in &blocks {
        for row in block {
            full.push_row(row.clone());
        }
    }
    lap(&mut layers, "runtime.assemble_ms", t);

    let t = clock();
    let stored = cache.store_report(w, &full);
    lap(&mut layers, "runtime.cache_store_ms", t);

    let t = clock();
    let report = w.finalize(&full);
    lap(&mut layers, "runtime.finalize_ms", t);

    let t = clock();
    let csv = report.to_csv();
    lap(&mut layers, "runtime.csv_ms", t);

    let outcome = WorkloadOutcome {
        report,
        cache_hit: false,
        tasks_run: tasks.len(),
        store_failed: stored.is_err(),
    };
    let t = clock();
    append_run_manifest(&cache, w, &outcome, t_all.elapsed().as_nanos() as u64);
    lap(&mut layers, "runtime.history_ms", t);

    let t = clock();
    let loaded = cache.load_report(w);
    lap(&mut layers, "runtime.cache_load_ms", t);
    let wall_ms = ms_since(t_all);

    let query = IndexQuery {
        hash: Some(w.scenario_hash()),
        seed: Some(w.seed()),
        ..IndexQuery::default()
    };
    let cache_bytes = cache
        .query(&query)
        .ok()
        .and_then(|e| e.first().map(|e| e.bytes))
        .unwrap_or(0);
    let busy_ms = busy
        .into_inner()
        .expect("busy tally poisoned")
        .into_values()
        .collect();
    Rebuild {
        csv,
        reloaded: stored.is_ok() && loaded.as_ref() == Some(&full),
        wall_ms,
        layers,
        task_ms: task_ms.into_inner().expect("task tally poisoned"),
        busy_ms,
        blocks: refs.len().div_ceil(block),
        cache_bytes,
    }
}

/// Record the time since `t` under `name`, when the pass is timed.
pub fn lap(steps: &mut Vec<(&'static str, f64)>, name: &'static str, t: Option<Instant>) {
    if let Some(t) = t {
        steps.push((name, ms_since(t)));
    }
}

/// Per-layer metrics of a timed rebuild: runtime steps, engine balance
/// and the task-time median under `task_metric`.
pub fn rebuild_metrics(
    r: &Rebuild,
    threads: usize,
    task_metric: &'static str,
) -> Vec<(&'static str, f64)> {
    let busy_total: f64 = r.busy_ms.iter().sum();
    let busiest = r.busy_ms.iter().copied().fold(0.0, f64::max);
    let mean_busy = busy_total / threads.max(1) as f64;
    let mut m: Vec<(&'static str, f64)> = r.layers.clone();
    m.extend([
        ("runtime.engine.busy_ms", busy_total),
        ("runtime.engine.critical_path_ms", busiest),
        (
            "runtime.engine.imbalance",
            if mean_busy > 0.0 {
                busiest / mean_busy
            } else {
                0.0
            },
        ),
        ("runtime.engine.blocks", r.blocks as f64),
        ("runtime.csv_bytes", r.csv.len() as f64),
        ("runtime.cache_bytes", r.cache_bytes as f64),
        (task_metric, median(&r.task_ms)),
    ]);
    m
}

/// The attribution table of one traced pipeline: each step's time and
/// share, the coverage, and the remainder nothing accounts for.
pub struct Attribution {
    pub coverage_pct: f64,
    pub unattributed_ms: f64,
    pub table: String,
}

/// Attribute a traced wall time to its timed steps.
pub fn attribute(title: &str, wall_ms: f64, steps: &[(&'static str, f64)]) -> Attribution {
    let covered: f64 = steps.iter().map(|(_, ms)| ms).sum();
    let mut table = format!("attribution ({title}), traced wall {wall_ms:.3} ms\n");
    for (name, ms) in steps {
        table.push_str(&format!(
            "  {name:<32} {ms:>12.3} ms {:>6.1} %\n",
            100.0 * ms / wall_ms
        ));
    }
    let unattributed_ms = wall_ms - covered;
    table.push_str(&format!(
        "  {:<32} {unattributed_ms:>12.3} ms {:>6.1} %\n",
        "(unattributed)",
        100.0 * unattributed_ms / wall_ms
    ));
    Attribution {
        coverage_pct: 100.0 * covered / wall_ms,
        unattributed_ms,
        table,
    }
}

/// Medians over several timed passes, per metric name, in first-seen
/// order.
pub fn median_metrics(passes: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
    let mut names: Vec<&'static str> = Vec::new();
    for (n, _) in passes.iter().flatten() {
        if !names.contains(n) {
            names.push(n);
        }
    }
    names
        .into_iter()
        .map(|name| {
            let xs: Vec<f64> = passes
                .iter()
                .flatten()
                .filter(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .collect();
            (name, median(&xs))
        })
        .collect()
}

/// What alternating untimed and timed passes of one pipeline showed.
pub struct Traced {
    /// Per-layer metrics, median over the timed passes.
    pub metrics: Vec<(&'static str, f64)>,
    pub coverage_pct: f64,
    pub unattributed_ms: f64,
    /// Median timed wall against median untimed wall, in percent.
    pub overhead_pct: f64,
    /// The attribution table of the median timed pass.
    pub table: String,
}

impl Traced {
    /// The per-layer metrics plus the trace.* figures.
    pub fn all_metrics(&self) -> Vec<(&'static str, f64)> {
        let mut m = self.metrics.clone();
        m.extend([
            ("trace.coverage_pct", self.coverage_pct),
            ("trace.unattributed_ms", self.unattributed_ms),
            ("trace.overhead_pct", self.overhead_pct),
        ]);
        m
    }
}

/// Run `pass(timed)` alternately untimed and timed for `seconds` (at
/// least one pair). Each pass returns its wall time, its timed steps
/// (what the attribution sums) and its metrics.
pub fn alternate(
    title: &str,
    seconds: f64,
    mut pass: impl FnMut(bool) -> (f64, Vec<(&'static str, f64)>, Vec<(&'static str, f64)>),
) -> Traced {
    let (mut untimed, mut timed) = (Vec::new(), Vec::new());
    crate::for_seconds(seconds, || {
        untimed.push(pass(false).0);
        timed.push(pass(true));
    });
    let walls: Vec<f64> = timed.iter().map(|(w, _, _)| *w).collect();
    let mid_wall = median(&walls);
    let mid = (0..walls.len())
        .min_by(|&a, &b| {
            (walls[a] - mid_wall)
                .abs()
                .total_cmp(&(walls[b] - mid_wall).abs())
        })
        .expect("at least one timed pass");
    let attributions: Vec<Attribution> = timed
        .iter()
        .map(|(wall, steps, _)| attribute(title, *wall, steps))
        .collect();
    let metric_passes: Vec<Vec<(&'static str, f64)>> =
        timed.iter().map(|(_, _, m)| m.clone()).collect();
    let coverage: Vec<f64> = attributions.iter().map(|a| a.coverage_pct).collect();
    let unattributed: Vec<f64> = attributions.iter().map(|a| a.unattributed_ms).collect();
    let base = median(&untimed);
    Traced {
        metrics: median_metrics(&metric_passes),
        coverage_pct: median(&coverage),
        unattributed_ms: median(&unattributed),
        overhead_pct: 100.0 * (mid_wall - base) / base,
        table: attributions[mid].table.clone(),
    }
}

/// Up to `k` tasks spread evenly over `tasks`.
fn spread<T>(tasks: &[T], k: usize) -> impl Iterator<Item = &T> {
    let step = tasks.len().div_ceil(k.max(1)).max(1);
    tasks.iter().step_by(step)
}

/// Two-pair kernel split on up to `k` of the sweep's two-pair tasks, in
/// ns per sample: (draws, scoring, derived aggregation). Draws use the
/// estimator's own stream; the serial `run_task` time of the same tasks
/// gives the remainder that draws and scoring do not explain.
pub fn probe_twopair<W: Workload<Task = Task>>(w: &W, tasks: &[Task], k: usize) -> (f64, f64, f64) {
    let two_pair: Vec<Task> = tasks
        .iter()
        .filter(|t| t.topology == Topology::TwoPair)
        .copied()
        .collect();
    let (mut draw_ns, mut score_ns, mut task_ns, mut samples) = (0.0, 0.0, 0.0, 0u64);
    for task in spread(&two_pair, k) {
        let params = task.params();
        let n = task.samples;
        // The label mc_averages splits the task seed with.
        let mut rng = split_rng(task.seed, 0x5ca1_ab1e);
        let t = Instant::now();
        let draws: Vec<(PairSample, PairSample, ShadowDraws)> = (0..n)
            .map(|_| {
                let p1 = PairSample::sample_uniform(task.rmax, &mut rng);
                let p2 = PairSample::sample_uniform(task.rmax, &mut rng);
                (p1, p2, ShadowDraws::sample(&params.prop, &mut rng))
            })
            .collect();
        draw_ns += t.elapsed().as_nanos() as f64;
        let kernel = TwoPairKernel::new(params.prop, params.cap, task.d, task.d_thresh);
        let t = Instant::now();
        let mut acc = 0.0;
        for (p1, p2, shadows) in &draws {
            acc += kernel.evaluate(*p1, *p2, shadows).c_max;
        }
        black_box(acc);
        score_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        black_box(w.run_task(task));
        task_ns += t.elapsed().as_nanos() as f64;
        samples += n;
    }
    if samples == 0 {
        return (0.0, 0.0, 0.0);
    }
    let s = samples as f64;
    let (draw, score) = (draw_ns / s, score_ns / s);
    (draw, score, task_ns / s - draw - score)
}

/// `NPairKernelV2::sample_and_score` in ns per sample, on the sweep's
/// tasks with `n` pairs (0 when it has none).
pub fn probe_npair_v2(tasks: &[Task], n: usize, min_samples: u64) -> f64 {
    let (mut ns, mut samples) = (0.0, 0u64);
    for task in tasks {
        let Topology::NPair(topo) = task.topology else {
            continue;
        };
        if topo.n != n {
            continue;
        }
        let params = task.params();
        let senders = topo.senders(task.d);
        let mut kernel =
            NPairKernelV2::new(&senders, task.rmax, &params.prop, params.cap, task.d_thresh);
        let mut rng = split_rng(task.seed, n as u64);
        let m = task.samples.max(min_samples);
        let t = Instant::now();
        for _ in 0..m {
            kernel.sample_and_score(&mut rng);
        }
        black_box(&kernel);
        ns += t.elapsed().as_nanos() as f64;
        samples += m;
    }
    if samples == 0 {
        0.0
    } else {
        ns / samples as f64
    }
}
