//! End-to-end CLI tests of `repro dispatch run` (and `repro shard run`,
//! the same command under another name): real subprocess workers
//! launched through the dispatcher, injected faults, and byte-compared
//! stdout against the single-process `sweep`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wcs-dispatch-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("spawn repro");
    assert!(
        out.status.success(),
        "repro failed: {}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

const TINY_SPEC: &str = r#"
name = "dispatch-cli-tiny"
rmaxes = [40.0]
ds = [25.0, 80.0]
sigmas = [0.0, 8.0]
topologies = ["two-pair", "npair(n=3,placement=line)"]
samples = 800
seed = 7171
"#;

fn write_tiny_spec(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("tiny.toml");
    std::fs::write(&path, TINY_SPEC).unwrap();
    path
}

/// Both names of the one sharded-run command.
const RUN_COMMANDS: [[&str; 2]; 2] = [["dispatch", "run"], ["shard", "run"]];

#[test]
fn dispatch_run_matches_single_process_sweep_bitwise() {
    let dir = tmpdir("run");
    let cache = dir.join("cache");
    let spec = write_tiny_spec(&dir);
    for (layout, k, strategy) in [
        (&[][..], "2", "contiguous"),
        (&[][..], "3", "strided"),
        (&["--stream-layout", "v2"][..], "2", "contiguous"),
    ] {
        let single = run_ok(
            repro()
                .args(["sweep", "--spec"])
                .arg(&spec)
                .args(layout)
                .args(["--no-cache", "--csv"])
                .env("WCS_CACHE_DIR", &cache),
        );
        let dispatched = run_ok(
            repro()
                .args(["dispatch", "run", "--spec"])
                .arg(&spec)
                .args(layout)
                .args(["-k", k, "--strategy", strategy, "--csv", "--no-cache"])
                .env("WCS_CACHE_DIR", &cache),
        );
        assert_eq!(
            String::from_utf8_lossy(&single.stdout),
            String::from_utf8_lossy(&dispatched.stdout),
            "dispatch k = {k} {strategy} {layout:?} diverged from single-process run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_worker_requeues_and_output_stays_bitwise_identical() {
    let dir = tmpdir("kill");
    let spec = write_tiny_spec(&dir);
    let single = run_ok(
        repro()
            .args(["sweep", "--spec"])
            .arg(&spec)
            .args(["--no-cache", "--csv"])
            .env("WCS_CACHE_DIR", dir.join("cache")),
    );
    for command in RUN_COMMANDS {
        let cache = dir.join(format!("cache-{}", command[0]));
        let runlog = dir.join(format!("{}.runlog.jsonl", command[0]));
        // Kill shard 1's first attempt at its first heartbeat; use an
        // explicit --cache-dir (not env) so the requeue path is the same
        // one a remote worker would take.
        let dispatched = run_ok(
            repro()
                .args(command)
                .arg("--spec")
                .arg(&spec)
                .args([
                    "-k",
                    "3",
                    "--csv",
                    "--fault",
                    "kill:1@0",
                    "--heartbeat-ms",
                    "20",
                ])
                .args(["--cache-dir"])
                .arg(&cache)
                .arg(format!("--telemetry={}", runlog.display())),
        );
        assert_eq!(
            String::from_utf8_lossy(&single.stdout),
            String::from_utf8_lossy(&dispatched.stdout),
            "{command:?}: a killed worker must not change the merged bytes"
        );
        let stderr = String::from_utf8_lossy(&dispatched.stderr);
        assert!(stderr.contains("requeues"), "summary line: {stderr}");
        let log = std::fs::read_to_string(&runlog).unwrap();
        assert!(
            log.contains("dispatch.dead"),
            "runlog must record the death"
        );
        assert!(
            log.contains("dispatch.requeue"),
            "runlog must record the requeue"
        );
        assert!(
            log.contains("dispatch.assign"),
            "runlog must record assignments"
        );
        // The summarizer renders a dispatcher table from those events.
        let summary = run_ok(repro().args(["trace", "summarize"]).arg(&runlog));
        let text = String::from_utf8_lossy(&summary.stdout);
        assert!(text.contains("== dispatch (per host) =="), "{text}");
        assert!(text.contains("requeues: 1"), "{text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_retry_budget_exits_2_with_structured_message() {
    let dir = tmpdir("giveup");
    let cache = dir.join("cache");
    let spec = write_tiny_spec(&dir);
    // The run's own temporary directory, to see what it leaves behind.
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).unwrap();
    for command in RUN_COMMANDS {
        // Default --max-retries is 2 → 3 attempts; fail all three spawns.
        let out = repro()
            .args(command)
            .arg("--spec")
            .arg(&spec)
            .args(["-k", "2", "--no-cache", "--fault", "spawn-fail:0x3"])
            .env("WCS_CACHE_DIR", &cache)
            .env("TMPDIR", &tmp)
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{command:?}: give-up must exit 2, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("dispatch gave up on shard 0 after 3 attempt(s)"),
            "structured give-up message, got: {stderr}"
        );
        // The plan directory it made for itself is gone after exit 2.
        let leaked: Vec<_> = std::fs::read_dir(&tmp)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("wcs-dispatch-run-"))
            .collect();
        assert!(leaked.is_empty(), "{command:?} leaked {leaked:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hosts_file_local_slots_drive_the_pool() {
    let dir = tmpdir("hosts");
    let cache = dir.join("cache");
    let spec = write_tiny_spec(&dir);
    let hosts = dir.join("hosts.txt");
    std::fs::write(&hosts, "# two local slots\nlocal slots=2\n").unwrap();
    let single = run_ok(
        repro()
            .args(["sweep", "--spec"])
            .arg(&spec)
            .args(["--no-cache", "--csv"])
            .env("WCS_CACHE_DIR", &cache),
    );
    let dispatched = run_ok(
        repro()
            .args(["dispatch", "run", "--spec"])
            .arg(&spec)
            .args(["-k", "4", "--csv", "--no-cache", "--hosts"])
            .arg(&hosts)
            .env("WCS_CACHE_DIR", &cache),
    );
    assert_eq!(
        String::from_utf8_lossy(&single.stdout),
        String::from_utf8_lossy(&dispatched.stdout),
        "4 shards over 2 slots diverged from single-process run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn more_shards_than_tasks_start_one_worker_per_task() {
    let dir = tmpdir("one-task");
    let spec = dir.join("one-task.toml");
    std::fs::write(
        &spec,
        "name = \"dispatch-cli-one\"\nrmaxes = [40.0]\nds = [25.0]\nsigmas = [0.0]\n\
         topologies = [\"two-pair\"]\nsamples = 400\nseed = 7172\n",
    )
    .unwrap();
    let single = run_ok(
        repro()
            .args(["sweep", "--spec"])
            .arg(&spec)
            .args(["--no-cache", "--csv"]),
    );
    let runlog = dir.join("runlog.jsonl");
    let dispatched = run_ok(
        repro()
            .args(["dispatch", "run", "--spec"])
            .arg(&spec)
            .args(["-k", "6", "--csv", "--no-cache"])
            .arg(format!("--telemetry={}", runlog.display())),
    );
    assert_eq!(
        String::from_utf8_lossy(&single.stdout),
        String::from_utf8_lossy(&dispatched.stdout),
        "a 1-task spec at k = 6 diverged from the single-process run"
    );
    // Asked for six shards of one task, the plan deals one: one
    // manifest, one slot, one worker.
    let log = std::fs::read_to_string(&runlog).unwrap();
    assert_eq!(
        log.matches("\"name\":\"dispatch.assign\"").count(),
        1,
        "{log}"
    );
    let stderr = String::from_utf8_lossy(&dispatched.stderr);
    assert!(
        stderr.contains("1 shards over 1 slots, 1 assigns"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dispatch_usage_errors_exit_2() {
    let dir = tmpdir("usage");
    let spec = write_tiny_spec(&dir);
    let bad_hosts = dir.join("bad-hosts.txt");
    std::fs::write(&bad_hosts, "local\nbogus host\n").unwrap();
    // More slots than any plan has shards: refused, not reserved.
    let huge_hosts = dir.join("huge-hosts.txt");
    std::fs::write(&huge_hosts, "local slots=1000000000\n").unwrap();
    let spec_s = spec.display().to_string();
    let hosts_s = bad_hosts.display().to_string();
    let huge_hosts_s = huge_hosts.display().to_string();
    let plan_s = dir.join("plan").display().to_string();
    let cases: Vec<Vec<&str>> = vec![
        vec!["dispatch"],
        vec!["dispatch", "frobnicate"],
        vec!["dispatch", "run", "--spec", &spec_s], // missing -k
        vec!["dispatch", "run", "-k", "2"],         // missing scenario
        vec![
            "dispatch",
            "run",
            "--spec",
            &spec_s,
            "-k",
            "2",
            "--fault",
            "explode:3",
        ],
        vec![
            "dispatch", "run", "--spec", &spec_s, "-k", "2", "--hosts", &hosts_s,
        ],
        vec![
            "dispatch",
            "run",
            "--spec",
            &spec_s,
            "-k",
            "2",
            "--hosts",
            &huge_hosts_s,
        ],
        // A k no plan can have: refused before one manifest is written.
        vec!["dispatch", "run", "--spec", &spec_s, "-k", "1000000000"],
        // A spawn-fail count is one count, not one plan entry per
        // attempt: shard 0 exhausts its retries (exit 2), no abort.
        vec![
            "dispatch",
            "run",
            "--spec",
            &spec_s,
            "-k",
            "2",
            "--no-cache",
            "--dir",
            &plan_s,
            "--fault",
            "spawn-fail:0x1000000000000000",
        ],
        // `shard worker` flags, and a period `shard worker` would read as
        // "default", are not `dispatch run` flags.
        vec!["dispatch", "run", "figure4-family", "-k", "2", "--out", "d"],
        vec![
            "dispatch",
            "run",
            "--spec",
            &spec_s,
            "-k",
            "2",
            "--heartbeat-ms",
            "0",
        ],
    ];
    for args in cases {
        let out = repro().args(&args).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} should exit 2, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // The bad hosts file error names its line.
    let out = repro()
        .args([
            "dispatch", "run", "--spec", &spec_s, "-k", "2", "--hosts", &hosts_s,
        ])
        .output()
        .unwrap();
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("line 2"),
        "hosts error should carry the line number: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `sim.plan` spans this process has emitted so far (one per testbed
/// planning).
fn sim_plans(log: &wcs_telemetry::jsonl::MemoryCollector) -> usize {
    log.snapshot()
        .iter()
        .filter(|e| e.name == "sim.plan" && e.kind == wcs_telemetry::EventKind::SpanExit)
        .count()
}

#[test]
fn shard_plan_merge_and_dispatch_plan_a_sim_spec_once_at_any_k() {
    use wcs_runtime::{AnyWorkload, Engine, SimSweep};
    use wcs_shard::{partial::run_worker, ShardManifest, ShardPlan, ShardStrategy};
    // A sim workload's task count plans every testbed. Only this
    // process is traced: the dispatched workers are `repro` subprocesses.
    let spec = SimSweep::new("dispatch-cli-plan-once")
        .testbed_seeds(&[0xBED, 7])
        .cca_thresholds_db(&[7.0, 13.0])
        .points(2)
        .run_secs(1)
        .sweep_rates_mbps(&[6.0])
        .seed(5);
    let workload = AnyWorkload::from(&spec);
    let testbeds = spec.testbed_seeds.len();
    let reference = workload.run(&Engine::serial(), None).report.to_csv();
    let tasks = wcs_runtime::WorkloadSpec::task_count(&workload);
    let k = 50;
    assert!(tasks > 1 && tasks < k, "{tasks} tasks");
    let log = std::sync::Arc::new(wcs_telemetry::jsonl::MemoryCollector::default());
    wcs_telemetry::install(log.clone());

    let dir = tmpdir("plan-once");
    let plan_dir = dir.join("plan");
    let paths = wcs_shard::write_plan(&plan_dir, &spec, k, ShardStrategy::Strided).unwrap();
    assert_eq!(
        sim_plans(&log),
        testbeds,
        "write_plan plans each testbed once"
    );
    let plan = ShardPlan::new(tasks, k, ShardStrategy::Strided).unwrap();
    assert_eq!((plan.k, paths.len()), (tasks, tasks), "one shard per task");
    for (shard, path) in paths.iter().enumerate() {
        // Loading the manifest plans nothing; the worker checks its task
        // count against the task list it lowers.
        let before = sim_plans(&log);
        let manifest = ShardManifest::load(path).unwrap();
        let partial = run_worker(&manifest, &Engine::serial(), None).unwrap();
        assert_eq!(
            sim_plans(&log) - before,
            testbeds,
            "shard {shard}'s manifest load and worker"
        );
        partial
            .save(&wcs_shard::partial_path(&plan_dir, shard))
            .unwrap();
    }
    let before = sim_plans(&log);
    let merged = wcs_shard::merge_dir(&plan_dir, None).unwrap();
    assert_eq!(
        sim_plans(&log) - before,
        testbeds,
        "merge_dir plans each testbed once"
    );
    assert_eq!(merged.task_count, tasks);
    assert_eq!(merged.report.to_csv(), reference);

    let transport = wcs_dispatch::LocalExec::new(env!("CARGO_BIN_EXE_repro"));
    let pool = wcs_dispatch::HostPool::local(2);
    let options = wcs_dispatch::DispatchOptions {
        threads_per_worker: 1,
        ..wcs_dispatch::DispatchOptions::default()
    };
    let before = sim_plans(&log);
    let dispatched = wcs_dispatch::Dispatcher::new(&transport, &pool, options)
        .run(
            &dir.join("dispatch"),
            &spec,
            k,
            ShardStrategy::Contiguous,
            None,
        )
        .unwrap();
    assert_eq!(
        sim_plans(&log) - before,
        testbeds,
        "a dispatch plans each testbed once"
    );
    assert_eq!(dispatched.merge.report.to_csv(), reference);
    wcs_telemetry::uninstall();
    let _ = std::fs::remove_dir_all(&dir);
}
