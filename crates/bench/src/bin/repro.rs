//! `repro` — regenerate every table and figure of *In Defense of Wireless
//! Carrier Sense*.
//!
//! ```text
//! repro [--full] <experiment>...
//! repro [--full] all
//! repro sweep [--full] [--threads N] [--no-cache] [--csv|--json] [scenario|--spec FILE]...
//! repro shard plan  <scenario|--spec FILE> -k K [--strategy S] [--dir DIR]
//! repro shard worker <manifest.toml> [--out DIR] [--threads N] [--no-cache]
//! repro shard merge <dir> [--csv|--json] [--no-cache]
//! repro shard run | dispatch run <scenario|--spec FILE> -k K [--hosts FILE]
//!                   [--strategy S] [--dir DIR] [--threads N] [--stream-layout v1|v2]
//!                   [--max-retries N] [--heartbeat-timeout SECS] [--heartbeat-ms MS]
//!                   [--csv|--json] [--cache-dir DIR|--no-cache] [--fault SPEC]...
//! repro cache ls|clear [--kind model|sim]
//! repro history ls [--limit N] | show <NAME>
//! repro trace summarize [--strict] [RUNLOG.jsonl]
//! repro trace export --prom [RUNLOG.jsonl]
//! repro trace diff <A> <B> [--fail-on-regression PCT]
//! repro serve [--addr HOST:PORT] [--workers N] [--queue N] [--threads N] [--job-logs DIR]
//! repro spec <scenario>
//! ```
//!
//! Every subcommand also accepts the global flags `--telemetry[=PATH]`
//! (write a structured `wcs-runlog-v1` JSONL run log, default
//! `RUNLOG.jsonl`; `trace summarize` renders it) and `--strict-cache`
//! (exit non-zero if any cache store failed — for CI, where a silently
//! degraded cache hides real regressions). Telemetry is out-of-band:
//! reports, hashes and cache entries are byte-identical with it on or
//! off.
//!
//! A bounded **flight recorder** (the last
//! [`wcs_telemetry::flight::FlightRecorder::DEFAULT_CAP`] telemetry
//! events, collector or no collector) is always on. On a panic, or when
//! `--strict-cache` turns a degraded run into a failure, the ring is
//! dumped as a valid `wcs-runlog-v1` file (`FLIGHT.jsonl` in the current
//! directory) so the crash site can be read back with
//! `repro trace summarize FLIGHT.jsonl`.
//!
//! `history ls|show` pages over the run manifests `run_workload` appends
//! to the result index (one compact JSON blob per run: identity, wall
//! time, cache behaviour, latency-histogram snapshots). `trace diff`
//! compares two run logs or manifests phase by phase, normalising away
//! uniform machine-speed differences the same way `repro bench
//! --compare` does; `--fail-on-regression PCT` turns any
//! beyond-threshold slowdown into exit 1.
//!
//! Experiments: fig2 fig3 fig4 fig5 fig6 fig7 fig9 fig10-11 fig12-13
//! fig14 table1 table2 table-short table-long sweep-alpha-sigma
//! slope-bound shadow-example exposed-vs-rate pathologies.
//!
//! `sweep` runs a declarative `wcs-runtime` scenario (default
//! `figure4-family`) on the multi-threaded engine with the on-disk result
//! cache; output is bitwise identical for any `--threads` value.
//! Scenarios are **workloads**: analytic model sweeps (`figure4-family`,
//! `npair-scaling`, ...) and §4 protocol-simulation sweeps
//! (`sim-threshold-grid`, `sim-rate-policies`) run through the same
//! engine, cache, spec files and sharding. `--spec` loads a
//! user-authored scenario file (`wcs_runtime::spec` format; a
//! `workload = "sim"` key selects the sim family) whose canonical hash —
//! and therefore cache key — is exactly that of the equivalent in-code
//! spec.
//!
//! `shard` splits a workload's task list across worker *processes* and
//! merges their partial reports in task-index order; the merged output is
//! bitwise identical to a single-process `sweep` run at any
//! shard count × thread count. `shard plan`, `shard worker` and
//! `shard merge` are the pipeline's steps, for driving it by hand.
//! Workers cache their per-shard partials in the shared result cache,
//! so re-running a plan after a lost worker only recomputes the lost
//! shard.
//!
//! `dispatch run` (also spelled `shard run`: one command, two names)
//! drives the whole plan → worker → merge pipeline. A `wcs-dispatch`
//! state machine deals the shards to a pool of host slots
//! (`--hosts FILE`, or K local subprocess slots by default),
//! watches per-worker heartbeat files, requeues shards whose workers
//! die or go silent, and retries transient spawn failures with capped
//! exponential backoff. The merged report is still bitwise identical to
//! a single-process `sweep` no matter how many workers died on the way.
//! `--fault kill:SHARD@BEATS | spawn-fail:SHARD[xN] | mute:SHARD`
//! injects deterministic failures (how CI proves the requeue path);
//! exhausting a shard's retry budget exits 2 with a structured
//! `dispatch gave up on shard ...` message.
//!
//! `serve` runs the `wcs-serve` daemon: workload specs POSTed to
//! `/v1/jobs` are queued onto the same engine and results index the
//! `sweep` subcommand uses, identical specs dedupe onto one job, row
//! streams are resumable SSE, and `/v1/results` pages over everything
//! ever computed. `spec <scenario>` prints a built-in scenario in the
//! spec-file format (what a client POSTs).
//!
//! `--full` uses paper-fidelity sample counts (minutes); the default is a
//! quick pass (seconds per experiment). Spec files carry their own sample
//! budget, so `--full` does not rescale them.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use wcs_bench::Effort;
use wcs_runtime::{
    scenarios, AnyWorkload, Engine, ResultCache, StreamLayout, WorkloadKind, WorkloadSpec,
};
use wcs_shard::{ShardManifest, ShardStrategy};

/// Set by the global `--strict-cache` flag: a run whose cache stores
/// failed exits non-zero (checked in [`finish`]) instead of silently
/// degrading to cache-less behaviour.
static STRICT_CACHE: AtomicBool = AtomicBool::new(false);

/// True when `--telemetry[=PATH]` asked for a persistent JSONL run log.
/// The always-on flight recorder keeps [`wcs_telemetry::enabled`] true
/// for every run, so decisions that should only follow the *file* sink
/// (like asking shard workers to write their own run logs) key off this
/// instead.
static TELEMETRY_FILE: AtomicBool = AtomicBool::new(false);

/// The always-on flight recorder (installed in `main`, wrapping the
/// `--telemetry` collector when one is configured). Held here so the
/// panic hook and [`finish`] can dump it.
static FLIGHT: std::sync::OnceLock<std::sync::Arc<wcs_telemetry::flight::FlightRecorder>> =
    std::sync::OnceLock::new();

/// Where flight-recorder dumps land by default: the current directory,
/// so a crashed CI step leaves the evidence next to its other artifacts.
/// `WCS_FLIGHT_PATH` overrides the destination.
const FLIGHT_DUMP: &str = "FLIGHT.jsonl";

/// Dump the flight-recorder ring as a valid `wcs-runlog-v1` file.
/// Best-effort: a failed dump only warns (we are already on a failure
/// path when this runs).
fn dump_flight(note: &str) {
    if let Some(rec) = FLIGHT.get() {
        let path = std::env::var_os("WCS_FLIGHT_PATH")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(FLIGHT_DUMP));
        match rec.dump(&path, note) {
            Ok(n) => eprintln!(
                "[flight recorder: {n} events -> {} ({note})]",
                path.display()
            ),
            Err(e) => eprintln!(
                "warning: flight recorder dump to {} failed: {e}",
                path.display()
            ),
        }
    }
}

/// The one exit door for successful subcommands: enforces
/// `--strict-cache` (any `cache.store_failed` /
/// `shard.partial_store_failed` counted this process — including counts
/// surfaced via worker exit codes — turns success into exit 1) and
/// flushes the telemetry run log before `process::exit`, which runs no
/// destructors.
fn finish(code: i32) -> ! {
    let mut code = code;
    if code == 0 && STRICT_CACHE.load(Ordering::Relaxed) {
        let failed = wcs_telemetry::counter_total("cache.store_failed")
            + wcs_telemetry::counter_total("shard.partial_store_failed");
        if failed > 0 {
            eprintln!("error: --strict-cache: {failed} cache store(s) failed this run");
            dump_flight("strict-cache failure");
            code = 1;
        }
    }
    wcs_telemetry::flush();
    std::process::exit(code);
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    wcs_telemetry::flush();
    std::process::exit(2);
}

/// Resolve one workload source: a registry scenario name (model or sim
/// family), or (when `spec` is set) a spec-file path. Exits 2 with the
/// scenario list on failure.
fn resolve_workload(source: &SweepSource, effort: Effort) -> AnyWorkload {
    match source {
        SweepSource::Named(name) => {
            scenarios::any_by_name(name, &effort.profile()).unwrap_or_else(|| {
                usage_exit(&format!(
                    "unknown scenario '{name}'; available scenarios: {}",
                    scenarios::all_names().join(" ")
                ))
            })
        }
        SweepSource::SpecFile(path) => wcs_runtime::load_any_spec_file(path).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
    }
}

/// Parse a `--stream-layout` value, exiting 2 on an unknown label.
fn parse_stream_layout(label: &str) -> StreamLayout {
    StreamLayout::from_label(label).unwrap_or_else(|| {
        usage_exit(&format!(
            "unknown stream layout '{label}' (known layouts: v1, v2)"
        ))
    })
}

/// Apply a CLI `--stream-layout` override to a resolved workload. The
/// layout is a model-sweep axis; sim sweeps have no versioned draw path,
/// so asking for one is a usage error, not a silent no-op.
fn apply_stream_layout(workload: AnyWorkload, layout: Option<StreamLayout>) -> AnyWorkload {
    match (workload, layout) {
        (w, None) => w,
        (AnyWorkload::Model(mut sweep), Some(layout)) => {
            sweep.stream_layout = layout;
            AnyWorkload::Model(sweep)
        }
        (AnyWorkload::Sim(s), Some(_)) => usage_exit(&format!(
            "--stream-layout applies only to model sweeps, not the sim workload '{}'",
            s.name
        )),
    }
}

/// Where a sweep comes from: the built-in registry or a spec file.
enum SweepSource {
    Named(String),
    SpecFile(PathBuf),
}

impl SweepSource {
    fn describe(&self) -> String {
        match self {
            SweepSource::Named(n) => n.clone(),
            SweepSource::SpecFile(p) => p.display().to_string(),
        }
    }
}

fn take_flag_value(args: &mut Vec<String>, flag: &str) -> String {
    if args.is_empty() {
        usage_exit(&format!("{flag} needs a value"));
    }
    args.remove(0)
}

fn print_report(report: &wcs_runtime::RunReport, format: &str) {
    match format {
        "csv" => print!("{}", report.to_csv()),
        "json" => println!("{}", report.to_json()),
        _ => print!("{}", report.render()),
    }
}

/// `repro sweep`: run declarative scenarios on the engine.
///
/// All scenario names, spec files and flags are validated *before*
/// anything runs: an unknown name or a misspelled flag exits 2 with the
/// list of available scenarios, instead of running earlier scenarios
/// first and failing halfway through.
fn run_sweep_cmd(mut args: Vec<String>, effort: Effort) -> ! {
    let mut threads = 0usize; // 0 = auto
    let mut use_cache = true;
    let mut format = "render";
    let mut stream_layout: Option<StreamLayout> = None;
    let mut sources: Vec<SweepSource> = Vec::new();
    while !args.is_empty() {
        let arg = args.remove(0);
        match arg.as_str() {
            "--threads" => {
                threads = take_flag_value(&mut args, "--threads")
                    .parse()
                    .unwrap_or_else(|_| {
                        usage_exit("--threads needs an integer");
                    });
            }
            "--spec" => {
                let v = take_flag_value(&mut args, "--spec");
                sources.push(SweepSource::SpecFile(PathBuf::from(v)));
            }
            "--stream-layout" => {
                let v = take_flag_value(&mut args, "--stream-layout");
                stream_layout = Some(parse_stream_layout(&v));
            }
            "--no-cache" => use_cache = false,
            "--csv" => format = "csv",
            "--json" => format = "json",
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag '{flag}' for repro sweep");
                usage_exit(
                    "usage: repro sweep [--full] [--threads N] [--no-cache] [--stream-layout v1|v2] [--csv|--json] [scenario|--spec FILE]...",
                );
            }
            _ => sources.push(SweepSource::Named(arg)),
        }
    }
    let sources = if sources.is_empty() {
        vec![SweepSource::Named("figure4-family".to_string())]
    } else {
        sources
    };
    let workloads: Vec<AnyWorkload> = sources
        .iter()
        .map(|s| apply_stream_layout(resolve_workload(s, effort), stream_layout))
        .collect();
    let engine = Engine::new(threads);
    let cache = ResultCache::default_location();
    let cache_ref: Option<&dyn wcs_runtime::ResultIndex> =
        if use_cache { Some(&cache) } else { None };
    for (source, workload) in sources.iter().zip(&workloads) {
        let t0 = std::time::Instant::now();
        let outcome = workload.run(&engine, cache_ref);
        print_report(&outcome.report, format);
        // The structured form of the classic `[sweep ...]` status line:
        // mirrored to stderr verbatim, logged as a run.sweep event when
        // a collector is installed.
        wcs_telemetry::info(
            "run.sweep",
            &format!(
                "[sweep {} ({}): {} tasks, {} threads, cache {}, {:.1}s]",
                source.describe(),
                workload.kind(),
                outcome.tasks_run,
                engine.threads(),
                if outcome.cache_hit { "hit" } else { "miss" },
                t0.elapsed().as_secs_f64()
            ),
            vec![
                (
                    "name".to_string(),
                    wcs_telemetry::Value::from(workload.name()),
                ),
                (
                    "kind".to_string(),
                    wcs_telemetry::Value::from(workload.kind().label()),
                ),
                (
                    "tasks_run".to_string(),
                    wcs_telemetry::Value::from(outcome.tasks_run),
                ),
                (
                    "threads".to_string(),
                    wcs_telemetry::Value::from(engine.threads()),
                ),
                (
                    "cache_hit".to_string(),
                    wcs_telemetry::Value::from(outcome.cache_hit),
                ),
                (
                    "dur_ns".to_string(),
                    wcs_telemetry::Value::U64(t0.elapsed().as_nanos() as u64),
                ),
            ],
        );
        // Test hook for the flight recorder: panic after the first sweep
        // (its engine/cache events populate the ring), inside an open
        // workload.run span, so the dump's tail provably covers the
        // failing span. Never set outside the test suite.
        if std::env::var_os("WCS_TEST_PANIC").is_some() {
            let _span = wcs_telemetry::span("workload.run")
                .with("injected", true)
                .start();
            panic!("injected test panic (WCS_TEST_PANIC)");
        }
    }
    finish(0);
}

const SHARD_USAGE: &str = "usage: repro shard plan   <scenario|--spec FILE> -k K [--strategy contiguous|strided] [--dir DIR] [--stream-layout v1|v2]
       repro shard worker <manifest.toml> [--out DIR] [--threads N] [--cache-dir DIR|--no-cache] [--heartbeat FILE [--heartbeat-ms N]]
       repro shard merge  <dir> [--csv|--json] [--cache-dir DIR|--no-cache]
       repro shard run    <scenario|--spec FILE> -k K ...   the same command as repro dispatch run (see its usage)";

/// The command whose flags [`parse_shard_args`] accepts: `repro shard
/// plan|worker|merge`, or `repro dispatch run` (= `repro shard run`).
#[derive(Clone, Copy)]
enum ShardCmd {
    Shard,
    Dispatch,
}

/// Shared flag soup for the `shard` subcommands and `dispatch run`.
/// Every field is optional at parse time; each subcommand enforces what
/// it needs.
struct ShardArgs {
    sources: Vec<SweepSource>,
    k: Option<usize>,
    strategy: ShardStrategy,
    dir: Option<PathBuf>,
    threads: usize,
    use_cache: bool,
    cache_dir: Option<PathBuf>,
    /// 0 = the default beat period.
    heartbeat_ms: u64,
    format: String,
    stream_layout: Option<StreamLayout>,
    // `shard` only.
    out: Option<PathBuf>,
    heartbeat: Option<PathBuf>,
    // `dispatch run` only.
    hosts: Option<PathBuf>,
    faults: Vec<String>,
    dispatch: wcs_dispatch::DispatchOptions,
}

impl ShardArgs {
    /// The cache these flags select: an explicit `--cache-dir`, the
    /// default location, or none under `--no-cache`. Explicit
    /// directories matter to `wcs-dispatch`, whose workers may run
    /// behind exec wrappers where the dispatcher's environment (and so
    /// `WCS_CACHE_DIR`) does not reach.
    fn cache(&self) -> Option<ResultCache> {
        if !self.use_cache {
            return None;
        }
        Some(match &self.cache_dir {
            Some(dir) => ResultCache::new(dir.clone()),
            None => ResultCache::default_location(),
        })
    }

    /// The beat period a worker writes its heartbeat at.
    fn heartbeat_ms(&self) -> u64 {
        if self.heartbeat_ms > 0 {
            self.heartbeat_ms
        } else {
            wcs_dispatch::heartbeat::DEFAULT_INTERVAL_MS
        }
    }

    /// The one scenario source `what` (e.g. "shard plan") runs.
    fn single_source(&self, what: &str) -> &SweepSource {
        match self.sources.as_slice() {
            [one] => one,
            [] => usage_exit(&format!("{what} needs a scenario name or --spec FILE")),
            _ => usage_exit(&format!("{what} takes exactly one scenario")),
        }
    }

    /// The shard count `what` was given with `-k`.
    fn require_k(&self, what: &str) -> usize {
        match self.k {
            Some(k) if k >= 1 => k,
            _ => usage_exit(&format!("{what} needs -k K (K >= 1)")),
        }
    }
}

/// Parse the flags and positional sources of `cmd`. A flag that `cmd`
/// does not take exits 2 with its usage text.
fn parse_shard_args(mut args: Vec<String>, cmd: ShardCmd) -> ShardArgs {
    let mut parsed = ShardArgs {
        sources: Vec::new(),
        k: None,
        strategy: ShardStrategy::Contiguous,
        dir: None,
        threads: 0,
        use_cache: true,
        cache_dir: None,
        heartbeat_ms: 0,
        format: "render".to_string(),
        stream_layout: None,
        out: None,
        heartbeat: None,
        hosts: None,
        faults: Vec::new(),
        dispatch: wcs_dispatch::DispatchOptions::default(),
    };
    use ShardCmd::{Dispatch, Shard};
    while !args.is_empty() {
        let arg = args.remove(0);
        match (arg.as_str(), cmd) {
            ("-k" | "--shards", _) => {
                let v = take_flag_value(&mut args, "-k");
                parsed.k = Some(v.parse().unwrap_or_else(|_| {
                    usage_exit("-k needs a positive integer");
                }));
            }
            ("--strategy", _) => {
                let v = take_flag_value(&mut args, "--strategy");
                parsed.strategy = ShardStrategy::parse(&v).unwrap_or_else(|| {
                    usage_exit(&format!("unknown strategy '{v}' (contiguous or strided)"));
                });
            }
            ("--dir", _) => parsed.dir = Some(PathBuf::from(take_flag_value(&mut args, "--dir"))),
            ("--threads", _) => {
                let v = take_flag_value(&mut args, "--threads");
                parsed.threads = v.parse().unwrap_or_else(|_| {
                    usage_exit("--threads needs an integer");
                });
            }
            ("--spec", _) => {
                let v = take_flag_value(&mut args, "--spec");
                parsed.sources.push(SweepSource::SpecFile(PathBuf::from(v)));
            }
            ("--no-cache", _) => parsed.use_cache = false,
            ("--cache-dir", _) => {
                let v = take_flag_value(&mut args, "--cache-dir");
                parsed.cache_dir = Some(PathBuf::from(v));
            }
            ("--csv", _) => parsed.format = "csv".to_string(),
            ("--json", _) => parsed.format = "json".to_string(),
            ("--stream-layout", _) => {
                let v = take_flag_value(&mut args, "--stream-layout");
                parsed.stream_layout = Some(parse_stream_layout(&v));
            }
            // A worker reads 0 as "the default period"; the dispatcher
            // hands every worker an explicit one.
            ("--heartbeat-ms", _) => {
                let v = take_flag_value(&mut args, "--heartbeat-ms");
                parsed.heartbeat_ms = match (v.parse(), cmd) {
                    (Ok(ms), Shard) => ms,
                    (Ok(ms), Dispatch) if ms > 0 => ms,
                    (_, Shard) => usage_exit("--heartbeat-ms needs an integer"),
                    (_, Dispatch) => usage_exit("--heartbeat-ms needs a positive integer"),
                };
            }
            ("--out", Shard) => {
                parsed.out = Some(PathBuf::from(take_flag_value(&mut args, "--out")))
            }
            ("--heartbeat", Shard) => {
                let v = take_flag_value(&mut args, "--heartbeat");
                parsed.heartbeat = Some(PathBuf::from(v));
            }
            ("--hosts", Dispatch) => {
                parsed.hosts = Some(PathBuf::from(take_flag_value(&mut args, "--hosts")))
            }
            ("--fault", Dispatch) => parsed.faults.push(take_flag_value(&mut args, "--fault")),
            ("--max-retries", Dispatch) => {
                parsed.dispatch.max_retries = take_flag_value(&mut args, "--max-retries")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--max-retries needs an integer"));
            }
            ("--heartbeat-timeout", Dispatch) => {
                let v = take_flag_value(&mut args, "--heartbeat-timeout");
                let secs: f64 = v.parse().ok().filter(|s| *s > 0.0).unwrap_or_else(|| {
                    usage_exit("--heartbeat-timeout needs a positive number of seconds");
                });
                parsed.dispatch.heartbeat_timeout = std::time::Duration::from_secs_f64(secs);
            }
            (flag, Shard) if flag.starts_with('-') => {
                eprintln!("unknown flag '{flag}' for repro shard");
                usage_exit(SHARD_USAGE);
            }
            (flag, Dispatch) if flag.starts_with('-') => {
                eprintln!("unknown flag '{flag}' for repro dispatch");
                usage_exit(DISPATCH_USAGE);
            }
            _ => parsed.sources.push(SweepSource::Named(arg)),
        }
    }
    parsed
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    wcs_telemetry::flush();
    std::process::exit(1);
}

/// Default plan directory for a workload: stable, human-findable, and
/// distinct per (name, k, strategy).
fn default_plan_dir(workload: &AnyWorkload, k: usize, strategy: ShardStrategy) -> PathBuf {
    PathBuf::from("target").join("wcs-shards").join(format!(
        "{}-k{k}-{}",
        wcs_runtime::sanitize_name(workload.name()),
        strategy.label()
    ))
}

fn run_shard_cmd(mut args: Vec<String>, effort: Effort) -> ! {
    if args.is_empty() {
        usage_exit(SHARD_USAGE);
    }
    let verb = args.remove(0);
    let parsed = parse_shard_args(args, ShardCmd::Shard);
    match verb.as_str() {
        "plan" => {
            let workload = apply_stream_layout(
                resolve_workload(parsed.single_source("shard plan"), effort),
                parsed.stream_layout,
            );
            let k = parsed.require_k("shard plan");
            let dir = parsed
                .dir
                .clone()
                .unwrap_or_else(|| default_plan_dir(&workload, k, parsed.strategy));
            let paths = wcs_shard::write_plan(&dir, workload.clone(), k, parsed.strategy)
                .unwrap_or_else(|e| fail(e));
            for p in &paths {
                println!("{}", p.display());
            }
            eprintln!(
                "[shard plan {} ({}): {} tasks over {k} {} shards in {}]",
                workload.name(),
                workload.kind(),
                workload.task_count(),
                parsed.strategy.label(),
                dir.display()
            );
        }
        "worker" => {
            if parsed.stream_layout.is_some() {
                usage_exit("--stream-layout applies to shard plan/run (the manifest embeds it)");
            }
            let manifest_file = match parsed.single_source("shard worker") {
                SweepSource::Named(p) => PathBuf::from(p),
                SweepSource::SpecFile(_) => usage_exit("shard worker takes a manifest path"),
            };
            let t0 = std::time::Instant::now();
            let manifest = ShardManifest::load(&manifest_file).unwrap_or_else(|e| fail(e));
            // Keep beating for the whole worker lifetime — dropped (and
            // so stopped) only when this scope ends, after the partial
            // is saved.
            let _hb = parsed.heartbeat.clone().map(|path| {
                let period = std::time::Duration::from_millis(parsed.heartbeat_ms());
                wcs_dispatch::HeartbeatWriter::start(path, period)
            });
            let out_dir = parsed
                .out
                .clone()
                .or_else(|| manifest_file.parent().map(Path::to_path_buf))
                .unwrap_or_else(|| PathBuf::from("."));
            let engine = Engine::new(parsed.threads);
            let cache = parsed.cache();
            let cache_ref: Option<&dyn wcs_runtime::ResultIndex> =
                cache.as_ref().map(|c| c as &dyn wcs_runtime::ResultIndex);
            let partial = wcs_shard::partial::run_worker(&manifest, &engine, cache_ref);
            let path = wcs_shard::partial_path(&out_dir, manifest.shard);
            std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| fail(e));
            partial.save(&path).unwrap_or_else(|e| fail(e));
            eprintln!(
                "[shard worker {}/{} ({}, {}): {} tasks, {} threads, {:.1}s -> {}]",
                manifest.shard,
                manifest.k,
                manifest.workload.name(),
                manifest.kind(),
                manifest.indices().len(),
                engine.threads(),
                t0.elapsed().as_secs_f64(),
                path.display()
            );
        }
        "merge" => {
            if parsed.stream_layout.is_some() {
                usage_exit("--stream-layout applies to shard plan/run (the manifest embeds it)");
            }
            let dir = match parsed.single_source("shard merge") {
                SweepSource::Named(p) => PathBuf::from(p),
                SweepSource::SpecFile(_) => usage_exit("shard merge takes a plan directory"),
            };
            let cache = parsed.cache();
            let cache_ref: Option<&dyn wcs_runtime::ResultIndex> =
                cache.as_ref().map(|c| c as &dyn wcs_runtime::ResultIndex);
            let outcome = wcs_shard::merge_dir(&dir, cache_ref).unwrap_or_else(|e| fail(e));
            print_report(&outcome.report, &parsed.format);
            eprintln!(
                "[shard merge {} ({}): {} shards ({} from cache), {} tasks{}]",
                outcome.workload.name(),
                outcome.workload.kind(),
                outcome.shards,
                outcome.shards_from_cache,
                outcome.workload.task_count(),
                if parsed.use_cache { ", cached" } else { "" }
            );
        }
        other => {
            eprintln!("unknown shard subcommand '{other}'");
            usage_exit(SHARD_USAGE);
        }
    }
    finish(0);
}

const DISPATCH_USAGE: &str = "usage: repro dispatch run <scenario|--spec FILE> -k K [--hosts FILE] [--strategy contiguous|strided]
       [--dir DIR] [--threads N] [--stream-layout v1|v2] [--max-retries N] [--heartbeat-timeout SECS] [--heartbeat-ms MS]
       [--csv|--json] [--cache-dir DIR|--no-cache] [--fault kill:S@B|spawn-fail:S[xN]|mute:S]...
       (repro shard run takes the same arguments)";

/// `repro dispatch run` (and `repro shard run`): the dispatcher over a
/// shard plan, on K local slots unless `--hosts` names a pool.
fn run_dispatch_cmd(mut args: Vec<String>, effort: Effort) -> ! {
    if args.is_empty() {
        usage_exit(DISPATCH_USAGE);
    }
    let verb = args.remove(0);
    if verb != "run" {
        eprintln!("unknown dispatch subcommand '{verb}'");
        usage_exit(DISPATCH_USAGE);
    }
    let parsed = parse_shard_args(args, ShardCmd::Dispatch);
    let workload = apply_stream_layout(
        resolve_workload(parsed.single_source("dispatch run"), effort),
        parsed.stream_layout,
    );
    let k = parsed.require_k("dispatch run");
    let options = wcs_dispatch::DispatchOptions {
        threads_per_worker: parsed.threads,
        heartbeat_ms: parsed.heartbeat_ms(),
        strict_cache: STRICT_CACHE.load(Ordering::Relaxed),
        worker_telemetry: TELEMETRY_FILE.load(Ordering::Relaxed),
        ..parsed.dispatch
    };
    let pool = match &parsed.hosts {
        Some(path) => {
            wcs_dispatch::HostPool::load(path).unwrap_or_else(|e| usage_exit(&e.to_string()))
        }
        // No hosts file: K local subprocess slots, the zero-infra default.
        None => wcs_dispatch::HostPool::local(k),
    };
    if pool.total_slots() == 0 {
        usage_exit("hosts file contributes no worker slots");
    }
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(e));
    let base: Box<dyn wcs_dispatch::Transport> = Box::new(wcs_dispatch::SshExec::new(exe));
    let transport: Box<dyn wcs_dispatch::Transport> = if parsed.faults.is_empty() {
        base
    } else {
        let mut faulty = wcs_dispatch::FaultyTransport::new(base);
        for spec in &parsed.faults {
            faulty.add_spec(spec).unwrap_or_else(|e| usage_exit(&e));
        }
        Box::new(faulty)
    };
    let (dir, ephemeral) = match parsed.dir.clone() {
        Some(d) => (d, false),
        None => (
            std::env::temp_dir().join(format!(
                "wcs-dispatch-run-{}-{:016x}",
                std::process::id(),
                workload.scenario_hash()
            )),
            true,
        ),
    };
    let cache = parsed.cache();
    let t0 = std::time::Instant::now();
    let dispatcher = wcs_dispatch::Dispatcher::new(transport.as_ref(), &pool, options);
    match dispatcher.run(&dir, workload.clone(), k, parsed.strategy, cache.as_ref()) {
        Ok(outcome) => {
            print_report(&outcome.merge.report, &parsed.format);
            // Dispatch runs land in the run history like sweeps do; the
            // merge already stored the full report under the single-run
            // cache key, so history and cache agree on identity.
            if let Some(c) = &cache {
                let wall_ns = t0.elapsed().as_nanos() as u64;
                let run_outcome = wcs_runtime::workload::WorkloadOutcome {
                    report: outcome.merge.report.clone(),
                    cache_hit: false,
                    tasks_run: workload.task_count(),
                    store_failed: false,
                };
                wcs_runtime::history::append_run_manifest(
                    c as &dyn wcs_runtime::ResultIndex,
                    &workload,
                    &run_outcome,
                    wall_ns,
                );
            }
            eprintln!(
                "[dispatch {} ({}): {k} shards over {} slots, {} assigns, {} requeues, {} retries, {} deaths, {:.1}s]",
                workload.name(),
                workload.kind(),
                pool.total_slots(),
                outcome.stats.assignments,
                outcome.stats.requeues,
                outcome.stats.retries,
                outcome.stats.deaths,
                t0.elapsed().as_secs_f64()
            );
            if ephemeral {
                let _ = std::fs::remove_dir_all(&dir);
            }
            finish(0);
        }
        Err(e @ wcs_dispatch::DispatchError::Exhausted { .. }) => {
            // The structured give-up: exit 2 so callers can tell "a
            // shard ran out of retries" from infrastructure errors.
            eprintln!("error: {e}");
            wcs_telemetry::flush();
            std::process::exit(2);
        }
        Err(e) => fail(e),
    }
}

fn human_size(bytes: u64) -> String {
    if bytes >= 1024 * 1024 {
        format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
    } else if bytes >= 1024 {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

fn human_age(age_secs: Option<u64>) -> String {
    match age_secs {
        None => "?".to_string(),
        Some(s) if s < 60 => format!("{s}s"),
        Some(s) if s < 3600 => format!("{}m", s / 60),
        Some(s) if s < 86_400 => format!("{}h", s / 3600),
        Some(s) => format!("{}d", s / 86_400),
    }
}

/// `repro cache ls|clear [--kind model|sim]`: inspect or prune the
/// shared result cache — a thin client of the [`wcs_runtime::ResultIndex`]
/// query/remove surface (the same one the serve daemon's `/v1/results`
/// endpoint exposes). `ls` prints each entry's workload kind and
/// row-layout version; `clear --kind` removes only one workload family.
fn run_cache_cmd(mut args: Vec<String>) -> ! {
    const CACHE_USAGE: &str = "usage: repro cache ls|clear [--kind model|sim]";
    let cache = ResultCache::default_location();
    let index: &dyn wcs_runtime::ResultIndex = &cache;
    let verb = if args.is_empty() {
        usage_exit(CACHE_USAGE);
    } else {
        args.remove(0)
    };
    let mut kind: Option<WorkloadKind> = None;
    while !args.is_empty() {
        let arg = args.remove(0);
        match arg.as_str() {
            "--kind" => {
                let v = take_flag_value(&mut args, "--kind");
                kind = Some(WorkloadKind::from_label(&v).unwrap_or_else(|| {
                    usage_exit(&format!("unknown workload kind '{v}' (model or sim)"));
                }));
            }
            other => {
                eprintln!("unknown argument '{other}' for repro cache");
                usage_exit(CACHE_USAGE);
            }
        }
    }
    match verb.as_str() {
        "ls" => {
            let entries = index
                .query(&wcs_runtime::IndexQuery::by_kind(kind))
                .unwrap_or_else(|e| fail(e));
            if entries.is_empty() {
                eprintln!("[cache {}: empty]", cache.dir().display());
            }
            let mut total = 0u64;
            for e in &entries {
                total += e.bytes;
                println!(
                    "{}\t{}\t{}\t{:016x}\tseed {}\t{}\t{}",
                    e.scenario,
                    e.kind.map_or("?", WorkloadKind::label),
                    e.layout(),
                    e.hash,
                    e.seed,
                    human_size(e.bytes),
                    human_age(e.age_secs)
                );
            }
            if !entries.is_empty() {
                eprintln!(
                    "[cache {}: {} entries, {}]",
                    cache.dir().display(),
                    entries.len(),
                    human_size(total)
                );
            }
        }
        "clear" => {
            let removed = index
                .remove(&wcs_runtime::IndexQuery::by_kind(kind))
                .unwrap_or_else(|e| fail(e));
            eprintln!(
                "[cache {}: removed {removed} {}entries]",
                cache.dir().display(),
                kind.map_or(String::new(), |k| format!("{k} "))
            );
        }
        _ => usage_exit(CACHE_USAGE),
    }
    finish(0);
}

/// `repro history ls|show`: page over the run manifests `run_workload`
/// appends through the result index — the CLI twin of the daemon's
/// `GET /v1/history`. `ls` prints one line per run, newest first;
/// `show NAME` prints the manifest's raw JSON.
fn run_history_cmd(mut args: Vec<String>) -> ! {
    const HISTORY_USAGE: &str = "usage: repro history ls [--limit N] | show <NAME>";
    let cache = ResultCache::default_location();
    let index: &dyn wcs_runtime::ResultIndex = &cache;
    let verb = if args.is_empty() {
        usage_exit(HISTORY_USAGE);
    } else {
        args.remove(0)
    };
    match verb.as_str() {
        "ls" => {
            let mut limit = usize::MAX;
            while !args.is_empty() {
                let arg = args.remove(0);
                match arg.as_str() {
                    "--limit" => {
                        limit = take_flag_value(&mut args, "--limit")
                            .parse()
                            .unwrap_or_else(|_| usage_exit("--limit needs an integer"));
                    }
                    other => {
                        eprintln!("unknown argument '{other}' for repro history ls");
                        usage_exit(HISTORY_USAGE);
                    }
                }
            }
            let names = wcs_runtime::history::list_manifests(index).unwrap_or_else(|e| fail(e));
            if names.is_empty() {
                eprintln!("[history {}: empty]", cache.dir().display());
            }
            let now_ms = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0);
            let shown = names.len().min(limit);
            for name in names.iter().take(limit) {
                let Some(text) = index.load_blob(name) else {
                    println!("{name}\t<unreadable>");
                    continue;
                };
                match manifest_line(name, &text, now_ms) {
                    Ok(line) => println!("{line}"),
                    Err(e) => println!("{name}\t<bad manifest: {e}>"),
                }
            }
            if !names.is_empty() {
                eprintln!(
                    "[history {}: {shown} of {} runs]",
                    cache.dir().display(),
                    names.len()
                );
            }
        }
        "show" => {
            let name = match args.as_slice() {
                [one] => one,
                _ => usage_exit(HISTORY_USAGE),
            };
            match index.load_blob(name) {
                Some(text) => println!("{}", text.trim()),
                None => fail(format!("no manifest named '{name}' in the index")),
            }
        }
        other => {
            eprintln!("unknown history subcommand '{other}'");
            usage_exit(HISTORY_USAGE);
        }
    }
    finish(0);
}

/// One `history ls` row from a manifest's JSON.
fn manifest_line(blob_name: &str, text: &str, now_ms: u64) -> Result<String, String> {
    use wcs_telemetry::json::{self, Json};
    let m = json::parse(text)?;
    let scenario = m.field("name", Json::as_str)?;
    let kind = m.field("kind", Json::as_str)?;
    let status = m.field("status", Json::as_str)?;
    let tasks_run = m.field("tasks_run", Json::as_u64)?;
    let task_count = m.field("task_count", Json::as_u64)?;
    let cache_hit = m.get("cache_hit") == Some(&Json::Bool(true));
    let wall_ns = m.field("wall_ns", Json::as_u64)?;
    let created_ms = m.field("created_unix_ms", Json::as_u64)?;
    let age = human_age(Some(now_ms.saturating_sub(created_ms) / 1000));
    Ok(format!(
        "{blob_name}\t{scenario}\t{kind}\ttasks {tasks_run}/{task_count}\tcache {}\t{status}\t{}\t{age} ago",
        if cache_hit { "hit" } else { "miss" },
        wcs_telemetry::summary::format_ns(wall_ns),
    ))
}

/// `repro serve`: run the sweep-as-a-service HTTP daemon over the
/// default result cache. Global flags compose: `--telemetry` logs the
/// daemon's own run log, `--strict-cache` makes jobs whose cache store
/// failed report `failed` instead of `degraded`.
fn run_serve_cmd(mut args: Vec<String>) -> ! {
    const SERVE_USAGE: &str =
        "usage: repro serve [--addr HOST:PORT] [--workers N] [--queue N] [--threads N] [--job-logs DIR]";
    let mut cfg = wcs_serve::ServeConfig::default();
    while !args.is_empty() {
        let arg = args.remove(0);
        match arg.as_str() {
            "--addr" => cfg.addr = take_flag_value(&mut args, "--addr"),
            "--workers" => {
                cfg.workers = take_flag_value(&mut args, "--workers")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--workers needs an integer"));
                if cfg.workers == 0 {
                    usage_exit("--workers must be at least 1");
                }
            }
            "--queue" => {
                cfg.queue_cap = take_flag_value(&mut args, "--queue")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--queue needs an integer"));
            }
            "--threads" => {
                cfg.engine_threads = take_flag_value(&mut args, "--threads")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--threads needs an integer"));
            }
            "--job-logs" => {
                cfg.job_logs = Some(PathBuf::from(take_flag_value(&mut args, "--job-logs")));
            }
            other => {
                eprintln!("unknown argument '{other}' for repro serve");
                usage_exit(SERVE_USAGE);
            }
        }
    }
    cfg.strict_cache = STRICT_CACHE.load(Ordering::Relaxed);
    let cache = ResultCache::default_location();
    let cache_dir = cache.dir().display().to_string();
    let index: std::sync::Arc<dyn wcs_runtime::ResultIndex> = std::sync::Arc::new(cache);
    let server = wcs_serve::Server::start(cfg.clone(), index).unwrap_or_else(|e| fail(e));
    eprintln!(
        "[serve http://{}: {} workers, queue {}, index {}]",
        server.addr(),
        cfg.workers,
        cfg.queue_cap,
        cache_dir
    );
    eprintln!(
        "endpoints: POST /v1/jobs  GET /v1/jobs[/{{id}}[/rows]]  GET /v1/results[/rows]  GET /v1/metrics[?format=prometheus] /v1/history /v1/healthz"
    );
    server.wait();
    finish(0);
}

/// `repro spec <scenario>`: print a built-in scenario in the spec-file
/// format — what a `serve` client POSTs, and the easiest way to get a
/// starting point for a custom spec.
fn run_spec_cmd(args: Vec<String>, effort: Effort) -> ! {
    match args.as_slice() {
        [name] => {
            let workload = resolve_workload(&SweepSource::Named(name.clone()), effort);
            print!("{}", workload.to_spec_toml());
        }
        _ => usage_exit("usage: repro spec <scenario>"),
    }
    finish(0);
}

const TRACE_USAGE: &str = "usage: repro trace summarize [--strict] [RUNLOG.jsonl]
       repro trace export --prom [RUNLOG.jsonl]
       repro trace diff <A> <B> [--fail-on-regression PCT]";

/// `repro trace`: work with recorded `wcs-runlog-v1` files —
/// `summarize` (human breakdown, damage-tolerant), `export --prom`
/// (rebuild the metric registry a run *would* have exposed and render it
/// in Prometheus text format), and `diff` (per-phase comparison of two
/// runs with machine-speed normalisation and a regression gate).
fn run_trace_cmd(mut args: Vec<String>) -> ! {
    if args.is_empty() {
        usage_exit(TRACE_USAGE);
    }
    let verb = args.remove(0);
    match verb.as_str() {
        "summarize" => {
            let mut strict = false;
            let mut paths: Vec<String> = Vec::new();
            for arg in args {
                match arg.as_str() {
                    "--strict" => strict = true,
                    _ => paths.push(arg),
                }
            }
            let path = match paths.as_slice() {
                [] => PathBuf::from("RUNLOG.jsonl"),
                [one] => PathBuf::from(one),
                _ => usage_exit(TRACE_USAGE),
            };
            let lenient =
                wcs_telemetry::jsonl::read_runlog_lenient(&path).unwrap_or_else(|e| fail(e));
            print!("{}", wcs_telemetry::summary::summarize(&lenient.log));
            if !lenient.is_clean() {
                println!("== damage ==");
                for (line, err) in &lenient.corrupt {
                    println!("  line {line}: unparseable ({err})");
                }
                for (name, count) in &lenient.unknown_names {
                    println!("  unknown event name '{name}': {count} event(s)");
                }
                println!(
                    "  {} corrupt line(s), {} unknown name(s)",
                    lenient.corrupt.len(),
                    lenient.unknown_names.len()
                );
                if strict {
                    eprintln!("error: --strict: run log is damaged");
                    finish(1);
                }
            }
        }
        "export" => {
            let mut prom = false;
            let mut paths: Vec<String> = Vec::new();
            for arg in args {
                match arg.as_str() {
                    "--prom" => prom = true,
                    _ => paths.push(arg),
                }
            }
            if !prom {
                usage_exit("trace export needs --prom (the only format so far)");
            }
            let path = match paths.as_slice() {
                [] => PathBuf::from("RUNLOG.jsonl"),
                [one] => PathBuf::from(one),
                _ => usage_exit(TRACE_USAGE),
            };
            let lenient =
                wcs_telemetry::jsonl::read_runlog_lenient(&path).unwrap_or_else(|e| fail(e));
            print!("{}", runlog_to_prometheus(&lenient.log));
        }
        "diff" => {
            let mut fail_pct: Option<f64> = None;
            let mut paths: Vec<String> = Vec::new();
            let mut args = args;
            while !args.is_empty() {
                let arg = args.remove(0);
                match arg.as_str() {
                    "--fail-on-regression" => {
                        fail_pct = Some(
                            take_flag_value(&mut args, "--fail-on-regression")
                                .parse()
                                .unwrap_or_else(|_| {
                                    usage_exit("--fail-on-regression needs a percentage")
                                }),
                        );
                    }
                    _ => paths.push(arg),
                }
            }
            let (a, b) = match paths.as_slice() {
                [a, b] => (PathBuf::from(a), PathBuf::from(b)),
                _ => usage_exit(TRACE_USAGE),
            };
            let default_pct = wcs_bench::perf::REGRESSION_THRESHOLD * 100.0;
            let regressed = trace_diff(&a, &b, fail_pct.unwrap_or(default_pct));
            if regressed && fail_pct.is_some() {
                eprintln!("error: --fail-on-regression: at least one phase regressed");
                finish(1);
            }
        }
        other => {
            eprintln!("unknown trace subcommand '{other}'");
            usage_exit(TRACE_USAGE);
        }
    }
    finish(0);
}

/// Rebuild the metric surfaces a recorded run *would* have exposed live
/// and render them in Prometheus text format: counters from `Counter`
/// event deltas, histograms by replaying the `dur_ns` of the events that
/// feed the live registry. (Cache-latency histograms have no runlog twin
/// and render empty; gauges are point-in-time and render at zero.)
fn runlog_to_prometheus(log: &wcs_telemetry::jsonl::RunLog) -> String {
    use wcs_telemetry::metrics::{self, HistId, Histogram};
    use wcs_telemetry::EventKind;
    let mut counters: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let hists: Vec<(HistId, Histogram)> = HistId::ALL
        .iter()
        .map(|id| (*id, Histogram::new()))
        .collect();
    let dur = |ev: &wcs_telemetry::Event| {
        ev.fields
            .iter()
            .find(|(k, _)| k == "dur_ns")
            .and_then(|(_, v)| v.as_u64())
    };
    for ev in &log.events {
        match ev.kind {
            EventKind::Counter => {
                let delta = ev
                    .fields
                    .iter()
                    .find(|(k, _)| k == "delta")
                    .and_then(|(_, v)| v.as_u64())
                    .unwrap_or(0);
                *counters.entry(ev.name.clone()).or_insert(0) += delta;
            }
            EventKind::Value | EventKind::SpanExit => {
                // The runlog twin of each live histogram seam.
                let id = match ev.name.as_str() {
                    "engine.block" => Some(HistId::EngineBlock),
                    "serve.job" => Some(HistId::ServeJob),
                    "dispatch.shard" => Some(HistId::DispatchShard),
                    _ => None,
                };
                if let (Some(id), Some(ns)) = (id, dur(ev)) {
                    hists
                        .iter()
                        .find(|(h, _)| *h == id)
                        .expect("HistId::ALL covers every id")
                        .1
                        .record(ns);
                }
            }
            _ => {}
        }
    }
    let counters: Vec<(String, u64)> = counters.into_iter().collect();
    let gauges: Vec<(&str, i64)> = Vec::new();
    let snaps: Vec<metrics::HistogramSnapshot> =
        hists.iter().map(|(id, h)| h.snapshot(id.name())).collect();
    metrics::render_prometheus(&counters, &gauges, &snaps)
}

/// Per-phase durations of one diffable input: a run manifest (`wall`
/// plus per-histogram sums; one line as written, or re-indented) or a
/// `wcs-runlog-v1` file (span-exit and timed-event totals by name).
fn load_phases(path: &Path) -> Vec<(String, u64)> {
    use wcs_telemetry::json::{self, Json};
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("reading {}: {e}", path.display())));
    // A run log is one document per line, so only a manifest parses whole.
    let manifest = json::parse(&text).ok().filter(|doc| {
        doc.get("schema").and_then(Json::as_str) == Some(wcs_runtime::history::MANIFEST_SCHEMA)
    });
    if let Some(m) = manifest {
        let mut phases = Vec::new();
        if let Some(wall) = m.get("wall_ns").and_then(Json::as_u64) {
            phases.push(("wall".to_string(), wall));
        }
        let hists = m.get("histograms").and_then(Json::as_object);
        for (name, snap) in hists.unwrap_or_default() {
            if let Some(sum) = snap.get("sum_ns").and_then(Json::as_u64) {
                phases.push((name.clone(), sum));
            }
        }
        return phases;
    }
    let lenient = wcs_telemetry::jsonl::read_runlog_lenient(path).unwrap_or_else(|e| fail(e));
    let mut totals: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for ev in &lenient.log.events {
        let timed = matches!(
            ev.kind,
            wcs_telemetry::EventKind::SpanExit | wcs_telemetry::EventKind::Value
        );
        if !timed {
            continue;
        }
        if let Some(ns) = ev
            .fields
            .iter()
            .find(|(k, _)| k == "dur_ns")
            .and_then(|(_, v)| v.as_u64())
        {
            *totals.entry(ev.name.clone()).or_insert(0) += ns;
        }
    }
    totals.into_iter().collect()
}

/// Compare two runs phase by phase. Prints the delta table; returns
/// whether any phase regressed beyond `threshold_pct` after dividing out
/// the [`wcs_bench::perf::machine_factor`] of the per-phase ratios (the
/// normalisation `repro bench --compare` applies: a uniformly slower
/// machine shifts *every* phase, a real regression shifts *one*).
fn trace_diff(a_path: &Path, b_path: &Path, threshold_pct: f64) -> bool {
    let a = load_phases(a_path);
    let b = load_phases(b_path);
    let b_by_name: std::collections::BTreeMap<&str, u64> =
        b.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let mut rows: Vec<(String, u64, u64, f64)> = Vec::new();
    for (name, a_ns) in &a {
        if let Some(&b_ns) = b_by_name.get(name.as_str()) {
            if *a_ns > 0 {
                rows.push((name.clone(), *a_ns, b_ns, b_ns as f64 / *a_ns as f64));
            }
        }
    }
    if rows.is_empty() {
        fail(format!(
            "no common timed phases between {} and {}",
            a_path.display(),
            b_path.display()
        ));
    }
    let machine_factor = wcs_bench::perf::machine_factor(rows.iter().map(|r| r.3).collect());
    let threshold = 1.0 + threshold_pct / 100.0;
    println!(
        "== trace diff: {} -> {} (machine factor {machine_factor:.3}, threshold +{threshold_pct:.0}%) ==",
        a_path.display(),
        b_path.display()
    );
    println!(
        "{:<24} {:>14} {:>14} {:>8} {:>11}",
        "phase", "A", "B", "ratio", "normalized"
    );
    let mut regressed = false;
    for (name, a_ns, b_ns, ratio) in &rows {
        let normalized = ratio / machine_factor;
        let flag = if normalized > threshold {
            regressed = true;
            "  REGRESSED"
        } else {
            ""
        };
        println!(
            "{:<24} {:>14} {:>14} {:>7.2}x {:>10.2}x{flag}",
            name,
            wcs_telemetry::summary::format_ns(*a_ns),
            wcs_telemetry::summary::format_ns(*b_ns),
            ratio,
            normalized
        );
    }
    if regressed {
        println!("verdict: REGRESSION (normalized ratio beyond {threshold:.2}x)");
    } else {
        println!("verdict: ok");
    }
    regressed
}

/// `repro bench`: run the fixed perf suite ([`wcs_bench::perf`]), write
/// the schema-versioned JSON document, and optionally gate against a
/// committed baseline.
fn run_bench_cmd(mut args: Vec<String>) -> ! {
    const BENCH_USAGE: &str = "usage: repro bench [--quick] [--out FILE] [--compare BASELINE.json]";
    let mut mode = wcs_bench::perf::BenchMode::Full;
    let mut out_path = PathBuf::from(wcs_bench::perf::DEFAULT_OUT);
    let mut compare_path: Option<PathBuf> = None;
    while !args.is_empty() {
        let arg = args.remove(0);
        match arg.as_str() {
            "--quick" => mode = wcs_bench::perf::BenchMode::Quick,
            "--out" => out_path = PathBuf::from(take_flag_value(&mut args, "--out")),
            "--compare" => {
                compare_path = Some(PathBuf::from(take_flag_value(&mut args, "--compare")));
            }
            other => {
                eprintln!("unknown argument '{other}' for repro bench");
                usage_exit(BENCH_USAGE);
            }
        }
    }
    let t0 = std::time::Instant::now();
    eprintln!("[bench: running the {} suite...]", mode.label());
    let report = wcs_bench::perf::run_suite(mode);
    let json = report.to_json();
    std::fs::write(&out_path, &json).unwrap_or_else(|e| fail(e));
    for b in &report.benches {
        println!(
            "{:<26} median {:>12.3} µs  (mad {:.3} µs, n={}, iters={})",
            b.name,
            b.median_ns / 1_000.0,
            b.mad_ns / 1_000.0,
            b.samples,
            b.iters_per_sample
        );
    }
    for s in &report.speedups {
        println!(
            "speedup {:<18} {:.2}x  ({} vs {})",
            s.name, s.speedup, s.optimized, s.baseline
        );
    }
    eprintln!(
        "[bench {}: {} benches -> {} in {:.1}s]",
        mode.label(),
        report.benches.len(),
        out_path.display(),
        t0.elapsed().as_secs_f64()
    );
    if let Some(base_path) = compare_path {
        let base_text = std::fs::read_to_string(&base_path)
            .unwrap_or_else(|e| fail(format!("reading baseline {}: {e}", base_path.display())));
        let baseline = wcs_bench::perf::BenchReport::parse(&base_text).unwrap_or_else(|e| fail(e));
        let mut reruns = 0;
        let cmp = wcs_bench::perf::compare(&report, &baseline, || {
            reruns += 1;
            eprintln!("[bench compare: a bench is over the bound; rerun {reruns} of the suite in a fresh process]");
            wcs_bench::perf::rerun_suite(mode)
        });
        // Same-run speedup floors certify optimizations that exist only
        // under `-O`; a debug binary measuring 1.5x where the release
        // binary measures 2.5x would gate the build profile, not the
        // code. CI compares with the release binary, where floors bind.
        let cmp = if cfg!(debug_assertions) {
            eprintln!("[bench compare: unoptimized build, speedup floors not enforced]");
            cmp.without_speedup_floors()
        } else {
            cmp
        };
        println!("\n== baseline comparison vs {} ==", base_path.display());
        print!("{}", cmp.table);
        if cmp.ok() {
            eprintln!("[bench compare: no regressions]");
        } else {
            for r in &cmp.regressions {
                eprintln!("regression: {r}");
            }
            finish(1);
        }
    }
    finish(0);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let effort = if let Some(pos) = args.iter().position(|a| a == "--full") {
        args.remove(pos);
        Effort::Full
    } else {
        Effort::Quick
    };
    // Global observability flags, valid in any position for any
    // subcommand: `--telemetry[=PATH]` logs a structured run log
    // (default RUNLOG.jsonl), `--strict-cache` makes failed cache
    // stores fatal at exit.
    let mut telemetry_path: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--telemetry" {
            telemetry_path = Some(PathBuf::from("RUNLOG.jsonl"));
            args.remove(i);
        } else if let Some(p) = args[i].strip_prefix("--telemetry=") {
            telemetry_path = Some(PathBuf::from(p.to_string()));
            args.remove(i);
        } else if args[i] == "--strict-cache" {
            STRICT_CACHE.store(true, Ordering::Relaxed);
            args.remove(i);
        } else {
            i += 1;
        }
    }
    // The collector stack: an always-on bounded flight recorder, wrapping
    // the `--telemetry` JSONL sink when one was requested. Telemetry is
    // still out-of-band — the recorder only buffers events — but a panic
    // or a strict-cache failure can now dump the last moments as a valid
    // run log (see [`dump_flight`]).
    TELEMETRY_FILE.store(telemetry_path.is_some(), Ordering::Relaxed);
    let recorder = {
        let note = format!("repro {}", args.join(" "));
        let cap = wcs_telemetry::flight::FlightRecorder::DEFAULT_CAP;
        let rec = match &telemetry_path {
            Some(path) => match wcs_telemetry::jsonl::JsonlCollector::create(path, &note) {
                Ok(c) => {
                    wcs_telemetry::flight::FlightRecorder::wrapping(cap, std::sync::Arc::new(c))
                }
                Err(e) => fail(format!("cannot create run log {}: {e}", path.display())),
            },
            None => wcs_telemetry::flight::FlightRecorder::new(cap),
        };
        std::sync::Arc::new(rec)
    };
    let _ = FLIGHT.set(recorder.clone());
    wcs_telemetry::install(recorder);
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        prev_hook(info);
        dump_flight("panic");
    }));
    match args.first().map(String::as_str) {
        Some("sweep") => run_sweep_cmd(args.split_off(1), effort),
        // `shard run` and `dispatch run` are one command.
        Some("shard") if args.get(1).is_some_and(|verb| verb == "run") => {
            run_dispatch_cmd(args.split_off(1), effort)
        }
        Some("shard") => run_shard_cmd(args.split_off(1), effort),
        Some("dispatch") => run_dispatch_cmd(args.split_off(1), effort),
        Some("cache") => run_cache_cmd(args.split_off(1)),
        Some("history") => run_history_cmd(args.split_off(1)),
        Some("bench") => run_bench_cmd(args.split_off(1)),
        Some("trace") => run_trace_cmd(args.split_off(1)),
        Some("serve") => run_serve_cmd(args.split_off(1)),
        Some("spec") => run_spec_cmd(args.split_off(1), effort),
        _ => {}
    }
    if args.is_empty() || args[0] == "help" || args[0] == "--help" {
        eprintln!("usage: repro [--full] <experiment>... | all");
        eprintln!(
            "       repro sweep [--full] [--threads N] [--no-cache] [--csv|--json] [scenario|--spec FILE]..."
        );
        eprintln!("       repro shard plan|worker|merge|run ... (see repro shard)");
        eprintln!("       repro dispatch run <scenario|--spec FILE> -k K [--hosts FILE] ... (see repro dispatch)");
        eprintln!("       repro cache ls|clear [--kind model|sim]");
        eprintln!("       repro history ls [--limit N] | show <NAME>");
        eprintln!("       repro bench [--quick] [--out FILE] [--compare BASELINE.json]");
        eprintln!("       repro trace summarize [--strict] [RUNLOG.jsonl]");
        eprintln!("       repro trace export --prom [RUNLOG.jsonl]");
        eprintln!("       repro trace diff <A> <B> [--fail-on-regression PCT]");
        eprintln!(
            "       repro serve [--addr HOST:PORT] [--workers N] [--queue N] [--threads N] [--job-logs DIR]"
        );
        eprintln!("       repro spec <scenario>");
        eprintln!("global flags: --telemetry[=PATH] --strict-cache");
        eprintln!("experiments: {}", wcs_bench::EXPERIMENTS.join(" "));
        eprintln!(
            "scenarios: {}",
            wcs_runtime::scenarios::all_names().join(" ")
        );
        std::process::exit(2);
    }
    let names: Vec<String> = if args.iter().any(|a| a == "all") {
        wcs_bench::EXPERIMENTS
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        args
    };
    for name in names {
        let t0 = std::time::Instant::now();
        match wcs_bench::run_experiment(&name, effort) {
            Some(out) => {
                println!("==================== {name} ====================");
                println!("{out}");
                wcs_telemetry::info(
                    "run.experiment",
                    &format!("[{name}: {:.1}s]", t0.elapsed().as_secs_f64()),
                    vec![
                        (
                            "name".to_string(),
                            wcs_telemetry::Value::from(name.as_str()),
                        ),
                        (
                            "dur_ns".to_string(),
                            wcs_telemetry::Value::U64(t0.elapsed().as_nanos() as u64),
                        ),
                    ],
                );
            }
            None => {
                eprintln!(
                    "unknown experiment '{name}'; known: {}",
                    wcs_bench::EXPERIMENTS.join(" ")
                );
                wcs_telemetry::flush();
                std::process::exit(2);
            }
        }
    }
    finish(0);
}
