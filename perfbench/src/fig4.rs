//! fig4-sweep: the paper's headline figure family, v1 layout, full
//! effort (432 tasks × 20k samples) on a 2-thread engine. Each cycle
//! is one cold pass into a fresh result index, then warm passes
//! answered from it, which check the index returns the same bytes.

use crate::stats::{iq_mean, median, ms_since, peak_rss_mb, sha256_hex, summary};
use crate::{for_seconds, trace, Ctx, Outcome, DEFAULT_SEED, FIG4_SHA256, THREADS};
use std::time::Instant;
use wcs_runtime::{
    run_workload, run_workload_subset, scenarios, EffortProfile, Engine, ResultCache, Sweep,
};

/// Warm passes per cycle run for this long. Their times are printed,
/// not gated: a few-millisecond pass of parsing and formatting on one
/// thread moved by up to 60 % between runs minutes apart on a shared
/// host, while the two-thread cold pass moved by 15 %.
const WARM_WINDOW_S: f64 = 0.2;
/// Set-up repetitions per cycle.
const SETUP_REPS: usize = 5;

fn spec(ctx: &Ctx) -> Sweep {
    let profile = if ctx.smoke {
        EffortProfile::quick()
            .with_curve_points(2)
            .with_mc_samples(2_000)
    } else {
        EffortProfile::full()
    };
    let base = scenarios::figure4_family(&profile);
    let seed = ctx.spec_seed(base.seed);
    base.seed(seed)
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let engine = Engine::new(THREADS);
    // Set-up: generate and lower the spec and warm the kernel on its
    // first task (lazy set-up finishes here, not in the first timed
    // pass). Repeated every cycle, so its median spans the run.
    let serial = Engine::serial();
    let setup = || {
        let t = Instant::now();
        let sweep = spec(ctx);
        let first: Vec<usize> = (0..sweep.lower().len().min(1)).collect();
        std::hint::black_box(run_workload_subset(&sweep, &first, &serial));
        (sweep, t.elapsed().as_secs_f64())
    };
    let (sweep, first) = setup();
    if ctx.trace {
        traced(ctx, &sweep, &engine, out);
    } else {
        let mut setups = vec![first];
        untraced(ctx, &sweep, &engine, out, || {
            setups.extend((0..SETUP_REPS).map(|_| setup().1));
        });
        out.set("setup_s", median(&setups));
    }
    Ok(())
}

fn pin_ok(ctx: &Ctx, csv: &str) -> bool {
    ctx.smoke || ctx.seed != DEFAULT_SEED || sha256_hex(csv.as_bytes()) == FIG4_SHA256
}

fn untraced(
    ctx: &Ctx,
    sweep: &Sweep,
    engine: &Engine,
    out: &mut Outcome,
    mut resetup: impl FnMut(),
) {
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let mut reference: Option<String> = None;
    let mut cycle = 0;
    for_seconds(ctx.seconds, || {
        resetup();
        let dir = ctx.work.join(format!("index-{cycle}"));
        cycle += 1;
        let cache = ResultCache::new(&dir);
        let t = Instant::now();
        let o = run_workload(sweep, engine, Some(&cache));
        let csv = o.report.to_csv();
        cold.push(t.elapsed().as_secs_f64());
        let expected = reference.get_or_insert_with(|| csv.clone());
        out.check(
            !o.cache_hit && csv == *expected && pin_ok(ctx, &csv),
            "cold pass CSV differs from the first pass or the pinned hash",
        );
        let tw = Instant::now();
        while tw.elapsed().as_secs_f64() < WARM_WINDOW_S {
            let t = Instant::now();
            let o = run_workload(sweep, engine, Some(&cache));
            let csv = o.report.to_csv();
            warm.push(ms_since(t));
            out.check(
                o.cache_hit && csv == *expected,
                "warm pass CSV differs from the cold pass",
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
    let samples = (sweep.task_count() as u64 * sweep.samples) as f64;
    out.note(summary("cold", "s", &cold));
    out.note(summary("warm", "ms", &warm));
    out.set("wall_s", iq_mean(&cold));
    out.set("peak_rss_mb", peak_rss_mb("self"));
    out.note(format!(
        "{} cold passes, {} warm passes (interquartile mean {:.4} ms); mc_samples_per_s {:.4e} ({} tasks × {} samples / wall_s); CSV sha256 {}",
        cold.len(),
        warm.len(),
        iq_mean(&warm),
        samples / median(&cold),
        sweep.task_count(),
        sweep.samples,
        reference.as_deref().map_or_else(String::new, |csv| sha256_hex(csv.as_bytes()))
    ));
}

fn traced(ctx: &Ctx, sweep: &Sweep, engine: &Engine, out: &mut Outcome) {
    let reference = run_workload(sweep, engine, None).report.to_csv();
    out.check(
        pin_ok(ctx, &reference),
        "fig4 CSV differs from the pinned hash",
    );
    let tasks = sweep.lower();
    let (draw, score, aggregate) =
        trace::probe_twopair(sweep, &tasks, if ctx.smoke { 2 } else { 6 });
    let dir = ctx.work.join("rebuild");
    let traced = trace::alternate("fig4-sweep rebuild", ctx.seconds, |timed| {
        let r = trace::rebuild(sweep, engine, &dir, timed);
        out.check(
            r.csv == reference && r.reloaded,
            "traced rebuild CSV differs from run_workload",
        );
        let metrics = trace::rebuild_metrics(&r, THREADS, "core.task_ms_p50");
        (r.wall_ms, r.layers, metrics)
    });
    out.extend(&traced.all_metrics());
    out.extend(&[
        ("propagation.draw_ns", draw),
        ("capacity.score_ns", score),
        ("core.aggregate_ns", aggregate),
    ]);
    out.note(traced.table);
}
