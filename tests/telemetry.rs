//! Telemetry is out-of-band: the observability invariant, pinned.
//!
//! The whole `wcs-telemetry` design rests on one promise — installing a
//! collector never changes a computed number. These tests run the
//! ISSUE-named built-ins (`figure4-family`, `npair-scaling`) at 1 and 4
//! threads with telemetry off and with a live in-memory collector, and
//! byte-compare the reports, hashes and cache entries. They also pin the
//! event-name vocabulary (like the PR 5 bench-name pin): every event the
//! stack emits must come from [`telemetry::EVENT_NAMES`], so a renamed
//! or new event is a deliberate, reviewed change.
//!
//! The collector facade is process-global, so every test that installs
//! one serializes on [`GLOBAL`]; cargo runs tests on threads within one
//! process.

use in_defense_of_carrier_sense::runtime::{
    scenarios, AnyWorkload, EffortProfile, Engine, IndexQuery, ResultCache, ResultIndex,
    WorkloadSpec,
};
use in_defense_of_carrier_sense::shard::{
    merge_partials, partial::run_worker, write_plan, ShardManifest, ShardStrategy,
};
use in_defense_of_carrier_sense::telemetry;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

static GLOBAL: Mutex<()> = Mutex::new(());

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wcs-telem-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn builtin(name: &str) -> AnyWorkload {
    // Quick-profile grids, further trimmed so four runs per scenario
    // stay test-suite fast while still spanning multiple engine blocks.
    let profile = EffortProfile::quick().with_mc_samples(2_000);
    scenarios::any_by_name(name, &profile).expect("built-in scenario")
}

/// Run `workload` and return (finalized CSV, cache entry bytes).
fn run_with_cache(
    workload: &AnyWorkload,
    threads: usize,
    cache_dir: &PathBuf,
) -> (String, Vec<u8>) {
    let cache = ResultCache::new(cache_dir);
    let outcome = workload.run(&Engine::new(threads), Some(&cache));
    let entry = cache
        .query(&IndexQuery::default())
        .unwrap()
        .into_iter()
        .next()
        .expect("one cache entry");
    let bytes = std::fs::read(&entry.path).unwrap();
    (outcome.report.to_csv(), bytes)
}

#[test]
fn telemetry_on_and_off_produce_identical_bytes() {
    let _g = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::uninstall();
    for name in ["figure4-family", "npair-scaling"] {
        let workload = builtin(name);
        for threads in [1usize, 4] {
            let dir_off = tmpdir(&format!("off-{name}-{threads}"));
            let dir_on = tmpdir(&format!("on-{name}-{threads}"));

            assert!(!telemetry::enabled());
            let (csv_off, entry_off) = run_with_cache(&workload, threads, &dir_off);

            let mem = Arc::new(telemetry::jsonl::MemoryCollector::default());
            telemetry::install(mem.clone());
            let (csv_on, entry_on) = run_with_cache(&workload, threads, &dir_on);
            telemetry::uninstall();

            assert_eq!(
                csv_off, csv_on,
                "{name} at {threads} threads: telemetry changed the report"
            );
            assert_eq!(
                entry_off, entry_on,
                "{name} at {threads} threads: telemetry changed the cache entry"
            );
            assert!(
                !mem.snapshot().is_empty(),
                "the collector must actually have observed the run"
            );
            let _ = std::fs::remove_dir_all(&dir_off);
            let _ = std::fs::remove_dir_all(&dir_on);
        }
        // The identity the cache keys on is untouched either way.
        assert_eq!(workload.scenario_hash(), builtin(name).scenario_hash());
    }
}

#[test]
fn flight_recorder_and_live_histograms_keep_bytes_identical() {
    let _g = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::uninstall();
    use telemetry::metrics::{self, GaugeId, HistId};
    let workload = builtin("figure4-family");
    for threads in [1usize, 4] {
        let dir_off = tmpdir(&format!("flight-off-{threads}"));
        let dir_on = tmpdir(&format!("flight-on-{threads}"));

        assert!(!telemetry::enabled());
        let (csv_off, entry_off) = run_with_cache(&workload, threads, &dir_off);

        // Metrics v2 at full tilt: a bounded flight recorder wrapping a
        // live collector, gauges set, latency histograms recording.
        let mem = Arc::new(telemetry::jsonl::MemoryCollector::default());
        let rec = Arc::new(telemetry::flight::FlightRecorder::wrapping(64, mem.clone()));
        telemetry::install(rec.clone());
        metrics::gauge_set(GaugeId::ServeQueueDepth, 17);
        let blocks_before = metrics::histogram(HistId::EngineBlock).count();
        let (csv_on, entry_on) = run_with_cache(&workload, threads, &dir_on);
        telemetry::uninstall();

        assert_eq!(
            csv_off, csv_on,
            "{threads} threads: flight recorder changed the report"
        );
        assert_eq!(
            entry_off, entry_on,
            "{threads} threads: flight recorder changed the cache entry"
        );
        // The instruments actually fired: the ring holds the tail of the
        // stream (bounded), the inner collector saw everything, and the
        // enabled-path engine timing landed in the registry histogram.
        assert!(!rec.is_empty() && rec.len() <= rec.cap());
        assert!(mem.snapshot().len() >= rec.len());
        assert!(
            metrics::histogram(HistId::EngineBlock).count() > blocks_before,
            "enabled run must record engine.block latencies"
        );
        assert_eq!(metrics::gauge(GaugeId::ServeQueueDepth), 17);

        // A dump of the ring is a valid runlog covering those events.
        let dump = dir_on.join("flight.jsonl");
        rec.dump(&dump, "invariant test").unwrap();
        let log = telemetry::jsonl::read_runlog(&dump).expect("dump must parse");
        assert_eq!(log.events.len(), rec.len());
        let _ = std::fs::remove_dir_all(&dir_off);
        let _ = std::fs::remove_dir_all(&dir_on);
    }
}

#[test]
fn every_emitted_event_name_is_pinned() {
    let _g = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mem = Arc::new(telemetry::jsonl::MemoryCollector::default());
    telemetry::install(mem.clone());

    // Exercise every instrumented seam in-process: cached workload runs
    // (miss + store, then hit), a shard worker, and a merge.
    let dir = tmpdir("pin");
    let cache = ResultCache::new(&dir);
    let workload = builtin("npair-scaling");
    let first = workload.run(&Engine::new(2), Some(&cache));
    assert!(!first.cache_hit);
    let second = workload.run(&Engine::new(2), Some(&cache));
    assert!(second.cache_hit);

    let plan_dir = tmpdir("pin-plan");
    let paths = write_plan(&plan_dir, workload.clone(), 2, ShardStrategy::Contiguous).unwrap();
    let parts: Vec<_> = paths
        .iter()
        .map(|p| {
            run_worker(
                &ShardManifest::load(p).unwrap(),
                &Engine::serial(),
                Some(&cache),
            )
            .unwrap()
        })
        .collect();
    merge_partials(&parts).unwrap();

    telemetry::uninstall();
    let events = mem.snapshot();
    assert!(events.len() > 10, "expected a rich event stream");
    for e in &events {
        assert!(
            telemetry::EVENT_NAMES.contains(&e.name.as_str()),
            "event '{}' is not in the pinned EVENT_NAMES vocabulary",
            e.name
        );
        // Kind labels must round-trip (the JSONL sink depends on it).
        assert_eq!(
            telemetry::EventKind::from_label(e.kind.label()),
            Some(e.kind)
        );
    }
    // The stream must include the load-bearing seams.
    for expected in [
        "workload.run",
        "engine.run",
        "engine.block",
        "engine.worker",
        "cache.miss",
        "cache.store",
        "cache.hit",
        "shard.plan",
        "shard.planned",
        "shard.worker",
    ] {
        assert!(
            events.iter().any(|e| e.name == expected),
            "expected at least one '{expected}' event"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&plan_dir);
}

#[test]
fn cache_counters_register_without_a_collector() {
    let _g = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::uninstall();
    let dir = tmpdir("counters");
    let cache = ResultCache::new(&dir);
    let workload = builtin("npair-scaling");
    let miss_before = telemetry::counter_total("cache.miss");
    let hit_before = telemetry::counter_total("cache.hit");
    let store_before = telemetry::counter_total("cache.store");
    workload.run(&Engine::serial(), Some(&cache));
    workload.run(&Engine::serial(), Some(&cache));
    assert!(telemetry::counter_total("cache.miss") > miss_before);
    assert!(telemetry::counter_total("cache.hit") > hit_before);
    assert!(telemetry::counter_total("cache.store") > store_before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sim_run_counters_add_up_to_the_runs_a_serial_grid_makes() {
    let _g = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::uninstall();
    let grid = builtin("sim-threshold-grid");
    let untraced = grid.run(&Engine::serial(), None).report.to_csv();

    let mem = Arc::new(telemetry::jsonl::MemoryCollector::default());
    telemetry::install(mem.clone());
    let traced = grid.run(&Engine::serial(), None).report.to_csv();
    telemetry::uninstall();
    assert_eq!(untraced, traced, "telemetry changed the sim report");

    // Each protocol run a serial quick grid decides bumps one counter:
    // the 27 it makes, on the event loop or in closed form, and the ones
    // it reuses at another threshold or skips by their airtime bound.
    let log = telemetry::jsonl::RunLog {
        schema: telemetry::jsonl::SCHEMA.to_string(),
        events: mem.snapshot(),
    };
    let total = |name: &str| -> u64 {
        (log.events.iter())
            .filter(|e| e.kind == telemetry::EventKind::Counter && e.name == name)
            .map(|e| e.u64_field("delta").unwrap())
            .sum()
    };
    let (event_loop, closed_form) = (total("sim.run.event_loop"), total("sim.run.closed_form"));
    assert_eq!(event_loop + closed_form, 27);
    assert!(event_loop > 0 && closed_form > 0);
    assert!(total("sim.run.reused") > 0 && total("sim.run.skipped") > 0);
    let summary = telemetry::summary::summarize(&log);
    assert!(summary.contains("== sim runs =="), "{summary}");
    let shown = (summary.lines())
        .find_map(|l| l.trim().strip_prefix("sim.run.closed_form"))
        .map(str::trim);
    assert_eq!(shown, Some(closed_form.to_string().as_str()), "{summary}");
}
