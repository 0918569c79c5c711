//! npair-dispatch: npair-scaling under stream layout v2 (quick effort),
//! run through `wcs_dispatch::Dispatcher` over `HostPool::local(2)`
//! with `LocalExec` workers of one thread each, contiguous dealing, a
//! 5 ms heartbeat and a 2 ms poll.
//! Cold runs have no result index; each is followed by a warm run that
//! shares one already holding the full result, so its workers slice it
//! and the run is all plan, spawn, heartbeat and merge (printed, not
//! gated).

use crate::stats::{iq_mean, median, ms_since, peak_rss_mb, summary};
use crate::{for_seconds, trace, Ctx, Outcome, THREADS};
use std::path::Path;
use std::time::{Duration, Instant};
use wcs_dispatch::{DispatchOptions, DispatchStats, Dispatcher, HostPool, LocalExec};
use wcs_runtime::{
    run_workload, run_workload_subset, scenarios, EffortProfile, Engine, ResultCache, StreamLayout,
    Sweep, WorkloadSpec,
};
use wcs_shard::{merge_dir, partial_path, write_plan, PartialReport, ShardPlan, ShardStrategy};

const K: usize = 2;
const DEALING: ShardStrategy = ShardStrategy::Contiguous;
/// Worker beat period. A worker's heartbeat thread sleeps in steps of
/// up to 25 ms and is joined when the work ends, and the dispatcher sees
/// the exit at its next poll, so at the defaults (250 ms, 10 ms) a run's
/// end is rounded up to a step whose phase against the work moves with
/// the host's speed: warm runs took ~12 or ~32 ms, and cold runs fell
/// in two groups ~10 % apart. 5 ms and 2 ms keep the steps small.
const HEARTBEAT_MS: u64 = 5;
const POLL_INTERVAL: Duration = Duration::from_millis(2);

fn spec(ctx: &Ctx) -> Sweep {
    let base = scenarios::npair_scaling(&EffortProfile::quick()).stream_layout(StreamLayout::V2);
    let seed = ctx.spec_seed(base.seed);
    let sweep = base.seed(seed);
    if ctx.smoke {
        sweep.samples(200)
    } else {
        sweep
    }
}

fn dispatch(
    d: &Dispatcher,
    dir: &Path,
    sweep: &Sweep,
    index: Option<&ResultCache>,
) -> Result<(String, DispatchStats), String> {
    let o = d
        .run(dir, sweep, K, DEALING, index)
        .map_err(|e| format!("dispatch failed: {e}"))?;
    Ok((o.merge.report.to_csv(), o.stats))
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let transport = LocalExec::new(ctx.repro()?);
    let pool = HostPool::local(K);
    let options = DispatchOptions {
        threads_per_worker: 1,
        heartbeat_ms: HEARTBEAT_MS,
        poll_interval: POLL_INTERVAL,
        ..DispatchOptions::default()
    };
    let dispatcher = Dispatcher::new(&transport, &pool, options);
    let engine = Engine::new(THREADS);
    // Untimed: the in-process reference bytes, stored as the index warm
    // runs slice from.
    let sweep = spec(ctx);
    let index = ResultCache::new(ctx.work.join("index"));
    let reference = run_workload(&sweep, &engine, Some(&index)).report.to_csv();
    // Set-up: generate the spec, write its shard plan, and warm the
    // worker path with one dispatch run answered from the index (the
    // `repro` binary and the plan directory are hot before the first
    // timed run). Repeated every cycle, so its median spans the run.
    let setup_dir = ctx.work.join("setup-plan");
    let setup = |out: &mut Outcome| {
        let t = Instant::now();
        let sweep = spec(ctx);
        let warmed = write_plan(&setup_dir, &sweep, K, DEALING)
            .map_err(|e| e.to_string())
            .and_then(|_| dispatch(&dispatcher, &setup_dir, &sweep, Some(&index)));
        let secs = t.elapsed().as_secs_f64();
        match warmed {
            Ok((csv, _)) => out.check(
                csv == reference,
                "warm-up merged CSV differs from the in-process run",
            ),
            Err(e) => out.check(false, &e),
        }
        secs
    };
    let first = setup(out);
    if ctx.trace {
        traced(ctx, &sweep, &dispatcher, &engine, &reference, out)?;
    } else {
        let mut setups = vec![first];
        let resetup = |out: &mut Outcome| setups.push(setup(out));
        untraced(ctx, &sweep, &dispatcher, (&index, &reference), out, resetup);
        out.set("setup_s", median(&setups));
    }
    Ok(())
}

fn untraced(
    ctx: &Ctx,
    sweep: &Sweep,
    dispatcher: &Dispatcher,
    (index, reference): (&ResultCache, &str),
    out: &mut Outcome,
    mut resetup: impl FnMut(&mut Outcome),
) {
    let plan_dir = ctx.work.join("plan");
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let mut totals = DispatchStats::default();
    let mut record = |out: &mut Outcome, r: Result<(String, DispatchStats), String>| match r {
        Ok((csv, stats)) => {
            totals.assignments += stats.assignments;
            totals.requeues += stats.requeues;
            totals.retries += stats.retries;
            totals.deaths += stats.deaths;
            out.check(
                csv == reference,
                "merged CSV differs from the in-process run",
            );
        }
        Err(e) => out.check(false, &e),
    };
    for_seconds(ctx.seconds, || {
        resetup(out);
        let t = Instant::now();
        let r = dispatch(dispatcher, &plan_dir, sweep, None);
        cold.push(t.elapsed().as_secs_f64());
        record(out, r);
        let t = Instant::now();
        let r = dispatch(dispatcher, &plan_dir, sweep, Some(index));
        warm.push(ms_since(t));
        record(out, r);
    });
    out.note(summary("cold", "s", &cold));
    out.note(summary("warm", "ms", &warm));
    out.set("wall_s", iq_mean(&cold));
    out.set("peak_rss_mb", peak_rss_mb("self"));
    out.note(format!(
        "{} cold and {} warm dispatch runs; run_p50_ms {:.3}; warm interquartile mean {:.3} ms; assignments {}, requeues {}, retries {}, deaths {}",
        cold.len(),
        warm.len(),
        1e3 * median(&cold),
        iq_mean(&warm),
        totals.assignments,
        totals.requeues,
        totals.retries,
        totals.deaths
    ));
}

fn traced(
    ctx: &Ctx,
    sweep: &Sweep,
    dispatcher: &Dispatcher,
    engine: &Engine,
    reference: &str,
    out: &mut Outcome,
) -> Result<(), String> {
    let tasks = sweep.lower();
    let n8 = trace::probe_npair_v2(&tasks, 8, 2_000);
    let n16 = trace::probe_npair_v2(&tasks, 16, 2_000);
    let plan = ShardPlan::new(tasks.len(), K, DEALING).map_err(|e| e.to_string())?;
    let plan_dir = ctx.work.join("plan");
    let shard_dir = ctx.work.join("shards");
    let rebuild_dir = ctx.work.join("rebuild");
    let serial = Engine::new(1);
    let (mut run_ms, mut stats) = (Vec::new(), Vec::new());
    let traced = trace::alternate("npair-dispatch shard pipeline", ctx.seconds, |timed| {
        if timed {
            // The real dispatcher, untraced, for dispatch.run_ms.
            let t = Instant::now();
            match dispatch(dispatcher, &plan_dir, sweep, None) {
                Ok((csv, s)) => {
                    run_ms.push(ms_since(t));
                    stats.push(s);
                    out.check(
                        csv == reference,
                        "merged CSV differs from the in-process run",
                    );
                }
                Err(e) => out.check(false, &e),
            }
        }
        // The shard pipeline from public calls: plan, each shard's index
        // set in process, partials, merge, CSV.
        let clock = || timed.then(Instant::now);
        let mut steps: Vec<(&'static str, f64)> = Vec::new();
        let t_all = Instant::now();
        let t = clock();
        let planned = write_plan(&shard_dir, sweep, K, DEALING);
        trace::lap(&mut steps, "shard.plan_ms", t);
        let mut shard_ms = Vec::new();
        let mut saved = planned.is_ok();
        let mut save_ms = 0.0;
        for shard in 0..K {
            let t = Instant::now();
            let report = run_workload_subset(sweep, &plan.indices(shard), &serial);
            shard_ms.push(ms_since(t));
            let t = Instant::now();
            let partial = PartialReport {
                kind: sweep.kind(),
                spec: sweep.canonical(),
                seed: sweep.seed(),
                shard,
                k: K,
                strategy: DEALING,
                task_count: tasks.len(),
                report,
            };
            saved &= partial.save(&partial_path(&shard_dir, shard)).is_ok();
            save_ms += ms_since(t);
        }
        if timed {
            steps.push(("shard.workers_serial_ms", shard_ms.iter().sum::<f64>()));
            steps.push(("shard.partial_save_ms", save_ms));
        }
        let t = clock();
        let merged = merge_dir(&shard_dir, None);
        trace::lap(&mut steps, "shard.merge_ms", t);
        let t = clock();
        let csv = merged.as_ref().map(|m| m.report.to_csv());
        trace::lap(&mut steps, "runtime.csv_ms", t);
        let wall = ms_since(t_all);
        out.check(
            saved && csv.as_deref().ok() == Some(reference),
            "shard pipeline CSV differs from the in-process run",
        );
        if !timed {
            return (wall, Vec::new(), Vec::new());
        }
        // The single-process pipeline, for the runtime and core layers.
        let r = trace::rebuild(sweep, engine, &rebuild_dir, true);
        out.check(
            r.csv == reference && r.reloaded,
            "traced rebuild CSV differs from run_workload",
        );
        let mut metrics = trace::rebuild_metrics(&r, THREADS, "core.task_ms_p50");
        let worker_max = shard_ms.iter().copied().fold(0.0, f64::max);
        let mean = shard_ms.iter().sum::<f64>() / K as f64;
        let find = |name: &str| steps.iter().find(|(n, _)| *n == name).map_or(0.0, |s| s.1);
        metrics.extend([
            ("shard.plan_ms", find("shard.plan_ms")),
            ("shard.worker_ms_max", worker_max),
            ("shard.imbalance", worker_max / mean),
            ("shard.merge_ms", find("shard.merge_ms")),
        ]);
        (wall, steps, metrics)
    });
    let mut metrics = traced.all_metrics();
    let per_run = |f: fn(&DispatchStats) -> u64| {
        median(&stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    let run = median(&run_ms);
    let get = |name: &str| {
        metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |m| m.1)
    };
    let (plan_ms, worker_max, merge_ms) = (
        get("shard.plan_ms"),
        get("shard.worker_ms_max"),
        get("shard.merge_ms"),
    );
    let overhead = run - plan_ms - worker_max - merge_ms;
    metrics.extend([
        ("dispatch.run_ms", run),
        ("dispatch.overhead_ms", overhead),
        ("dispatch.assignments", per_run(|s| s.assignments)),
        ("dispatch.requeues", per_run(|s| s.requeues)),
        ("dispatch.retries", per_run(|s| s.retries)),
        ("dispatch.deaths", per_run(|s| s.deaths)),
        ("capacity.npair_v2_n8_ns", n8),
        ("capacity.npair_v2_n16_ns", n16),
    ]);
    out.extend(&metrics);
    out.note(traced.table);
    out.note(format!(
        "dispatch run {run:.3} ms = plan {plan_ms:.3} + slowest shard {worker_max:.3} + merge {merge_ms:.3} + overhead {overhead:.3} (spawn, heartbeat, poll)"
    ));
    Ok(())
}
