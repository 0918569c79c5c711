//! sim-grid: the §4 protocol simulator's CCA-threshold grid at quick
//! effort (9 tasks × 20 runs of 3 simulated seconds) on a 2-thread
//! engine. Cold runs use no result index; after each, its report is
//! stored into a fresh index that the cycle's warm passes are answered
//! from.

use crate::stats::{iq_mean, median, ms_since, peak_rss_mb, summary};
use crate::{for_seconds, trace, Ctx, Outcome, THREADS};
use std::time::Instant;
use wcs_runtime::{
    run_workload, scenarios, EffortProfile, Engine, ResultCache, ResultIndex, SimSweep, Workload,
    WorkloadSpec,
};
use wcs_sim::mac::{CcaMode, MacConfig};
use wcs_sim::rate::RatePolicy;
use wcs_sim::testbed::testbed_phy;
use wcs_sim::{ChannelConfig, Duration, SimConfig, Simulator, Testbed, TestbedConfig};

/// Warm passes per cycle run for this long; their times are printed,
/// not gated (see fig4.rs).
const WARM_WINDOW_S: f64 = 0.2;
/// Set-up repetitions per cycle.
const SETUP_REPS: usize = 5;

fn spec(ctx: &Ctx) -> SimSweep {
    let base = scenarios::sim_threshold_grid(&EffortProfile::quick());
    let seed = ctx.spec_seed(base.seed);
    let sweep = base.seed(seed);
    if ctx.smoke {
        sweep.cca_thresholds_db(&[13.0]).points(2).run_secs(1)
    } else {
        sweep
    }
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let engine = Engine::new(THREADS);
    // Set-up: generate the spec and lower it (which generates the
    // testbed and plans its ensemble). Repeated every cycle, so its
    // median spans the run.
    let setup = || {
        let t = Instant::now();
        let sweep = spec(ctx);
        let n_tasks = sweep.lower().len();
        (sweep, n_tasks, t.elapsed().as_secs_f64())
    };
    let (sweep, n_tasks, first) = setup();
    if n_tasks == 0 {
        return Err("the generated sim grid planned no tasks".to_string());
    }
    if ctx.trace {
        traced(ctx, &sweep, &engine, out);
    } else {
        let mut setups = vec![first];
        untraced(ctx, &sweep, &engine, out, || {
            setups.extend((0..SETUP_REPS).map(|_| setup().2));
        });
        out.set("setup_s", median(&setups));
    }
    Ok(())
}

fn untraced(
    ctx: &Ctx,
    sweep: &SimSweep,
    engine: &Engine,
    out: &mut Outcome,
    mut resetup: impl FnMut(),
) {
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let mut reference: Option<String> = None;
    let mut cycle = 0;
    for_seconds(ctx.seconds, || {
        resetup();
        let t = Instant::now();
        let o = run_workload(sweep, engine, None);
        let csv = o.report.to_csv();
        cold.push(t.elapsed().as_secs_f64());
        let expected = reference.get_or_insert_with(|| csv.clone());
        out.check(
            o.tasks_run == sweep.task_count() && csv == *expected,
            "cold sim run CSV differs from the first run",
        );
        // A sim report's finalized rows are its stored rows, so storing
        // it fills the index exactly as an indexed run would; the warm
        // passes below check that they hit and return the same bytes.
        let dir = ctx.work.join(format!("index-{cycle}"));
        cycle += 1;
        let cache = ResultCache::new(&dir);
        let stored = cache.store_report(sweep, &o.report).is_ok();
        let tw = Instant::now();
        while tw.elapsed().as_secs_f64() < WARM_WINDOW_S {
            let t = Instant::now();
            let o = run_workload(sweep, engine, Some(&cache));
            let csv = o.report.to_csv();
            warm.push(ms_since(t));
            out.check(
                stored && o.cache_hit && csv == *expected,
                "warm sim pass CSV differs from the cold run",
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
    let simulated =
        (sweep.task_count() * 4 * sweep.sweep_rates_mbps.len()) as f64 * sweep.run_secs as f64;
    out.note(summary("cold", "s", &cold));
    out.note(summary("warm", "ms", &warm));
    out.set("wall_s", iq_mean(&cold));
    out.set("peak_rss_mb", peak_rss_mb("self"));
    out.note(format!(
        "{} cold runs, {} warm passes (interquartile mean {:.4} ms); sim_s_per_host_s {:.4} ({} simulated s / wall_s)",
        cold.len(),
        warm.len(),
        iq_mean(&warm),
        simulated / median(&cold),
        simulated
    ));
}

fn testbed_config(sweep: &SimSweep) -> TestbedConfig {
    TestbedConfig {
        n_nodes: sweep.n_nodes,
        width: sweep.floor.0,
        height: sweep.floor.1,
        channel: ChannelConfig::paper_testbed(),
        seed: sweep.testbed_seeds[0],
    }
}

/// One representative protocol run: the first planned pair under
/// energy-detect carrier sense at the lowest swept rate. Returns (host
/// ns per data frame, frames sent, delivery ratio).
fn representative_run(sweep: &SimSweep) -> (f64, f64, f64) {
    let bed = Testbed::generate(testbed_config(sweep));
    let Some(planned) = sweep.planned_for(0).first().copied() else {
        return (0.0, 0.0, 0.0);
    };
    let cfg = SimConfig {
        phy: testbed_phy(),
        mac: MacConfig {
            cca_mode: CcaMode::EnergyDetect,
            cca_threshold_db: sweep.cca_thresholds_db[0],
            ..MacConfig::default()
        },
        payload_bytes: sweep.payload_bytes,
        seed: planned.seed,
    };
    let mut sim = Simulator::new(bed.world(), cfg);
    let rate = RatePolicy::fixed(sweep.sweep_rates_mbps[0]);
    let links = [planned.pairs.link1, planned.pairs.link2];
    let flows: Vec<usize> = links
        .iter()
        .map(|l| sim.add_flow(l.src, l.dst, rate.clone()))
        .collect();
    let t = Instant::now();
    sim.run_for(Duration::from_secs(sweep.run_secs));
    let ns = t.elapsed().as_nanos() as f64;
    let sent: u64 = flows.iter().map(|&f| sim.flow_stats(f).sent).sum();
    let delivered: u64 = flows.iter().map(|&f| sim.flow_stats(f).delivered).sum();
    let sent_f = sent.max(1) as f64;
    (ns / sent_f, sent as f64, delivered as f64 / sent_f)
}

fn traced(ctx: &Ctx, sweep: &SimSweep, engine: &Engine, out: &mut Outcome) {
    let reference = run_workload(sweep, engine, None).report.to_csv();
    let t = Instant::now();
    std::hint::black_box(Testbed::generate(testbed_config(sweep)));
    let testbed_ms = ms_since(t);
    let t = Instant::now();
    std::hint::black_box(sweep.planned_for(0));
    let plan_ms = ms_since(t);
    let (ns_per_frame, frames, delivery) = representative_run(sweep);

    let dir = ctx.work.join("rebuild");
    let traced = trace::alternate("sim-grid rebuild", ctx.seconds, |timed| {
        let r = trace::rebuild(sweep, engine, &dir, timed);
        out.check(
            r.csv == reference && r.reloaded,
            "traced sim rebuild CSV differs from run_workload",
        );
        let mut metrics = trace::rebuild_metrics(&r, THREADS, "sim.task_ms_p50");
        metrics.push((
            "sim.task_ms_max",
            r.task_ms.iter().copied().fold(0.0, f64::max),
        ));
        (r.wall_ms, r.layers, metrics)
    });
    out.extend(&traced.all_metrics());
    out.extend(&[
        ("sim.testbed_ms", testbed_ms),
        ("sim.plan_ms", plan_ms),
        ("sim.host_ns_per_frame", ns_per_frame),
        ("sim.frames_sent", frames),
        ("sim.delivery_ratio", delivery),
    ]);
    out.note(traced.table);
    out.note(format!(
        "sim tasks: {} on {THREADS} threads; critical path is the busiest worker",
        sweep.lower().len()
    ));
}
