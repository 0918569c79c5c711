//! End-to-end CLI tests of the telemetry surface: `--telemetry[=PATH]`,
//! `--strict-cache`, and `repro trace summarize`, all against real
//! subprocesses with byte-compared stdout.
//!
//! Env is passed per-command (never `std::env::set_var`): cargo runs
//! tests on threads, and each test gets its own temp cache directory.

use std::path::PathBuf;
use std::process::{Command, Output};
use wcs_telemetry::jsonl::read_runlog;
use wcs_telemetry::EventKind;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wcs-trace-cli-{tag}-{}", std::process::id()));
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
name = "trace-tiny"
rmaxes = [40.0]
ds = [25.0, 80.0]
sigmas = [0.0, 8.0]
topologies = ["two-pair", "npair(n=3,placement=line)"]
samples = 800
seed = 9090
"#;

fn write_tiny_spec(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("tiny.toml");
    std::fs::write(&path, TINY_SPEC).unwrap();
    path
}

#[test]
fn telemetry_flag_keeps_stdout_bytes_and_writes_a_parsable_runlog() {
    let dir = tmpdir("sweep");
    let cache = dir.join("cache");
    let spec = write_tiny_spec(&dir);
    let runlog = dir.join("sweep.runlog.jsonl");

    let plain = run_ok(
        repro()
            .args(["sweep", "--spec"])
            .arg(&spec)
            .args(["--threads", "2", "--no-cache", "--csv"])
            .env("WCS_CACHE_DIR", &cache),
    );
    let traced = run_ok(
        repro()
            .args(["sweep", "--spec"])
            .arg(&spec)
            .args(["--threads", "2", "--no-cache", "--csv"])
            .arg(format!("--telemetry={}", runlog.display()))
            .env("WCS_CACHE_DIR", &cache),
    );
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&traced.stdout),
        "--telemetry must not change report bytes"
    );

    let log = read_runlog(&runlog).expect("runlog must parse");
    assert_eq!(wcs_telemetry::jsonl::SCHEMA, "wcs-runlog-v1");
    for expected in [
        "spec.parse",
        "run.sweep",
        "workload.run",
        "engine.run",
        "engine.block",
    ] {
        assert!(
            log.events.iter().any(|e| e.name == expected),
            "runlog should contain '{expected}'"
        );
    }
    // Every event name in the file is from the pinned vocabulary.
    for e in &log.events {
        assert!(
            wcs_telemetry::EVENT_NAMES.contains(&e.name.as_str()),
            "unpinned event '{}' in runlog",
            e.name
        );
    }
    // Spans carry durations on exit.
    assert!(log
        .events
        .iter()
        .any(|e| e.kind == EventKind::SpanExit && e.u64_field("dur_ns").is_some()));
    // The run names the compilation its vectorized loops took, and
    // `trace summarize` prints it.
    let lanes = wcs_stats::lanes::compilation();
    assert!(log
        .events
        .iter()
        .any(|e| e.name == "workload.run" && e.str_field("lanes") == Some(lanes)));
    let summary = run_ok(repro().args(["trace", "summarize"]).arg(&runlog));
    let summary = String::from_utf8_lossy(&summary.stdout);
    assert!(
        summary.contains(&format!("\nlanes: {lanes}\n")),
        "{summary}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_run_folds_worker_events_into_one_runlog() {
    let dir = tmpdir("shard");
    let cache = dir.join("cache");
    let spec = write_tiny_spec(&dir);
    let runlog = dir.join("shard.runlog.jsonl");

    let merged = run_ok(
        repro()
            .args(["shard", "run", "--spec"])
            .arg(&spec)
            .args(["-k", "3", "--csv"])
            .arg(format!("--telemetry={}", runlog.display()))
            .env("WCS_CACHE_DIR", &cache),
    );
    assert!(!merged.stdout.is_empty());

    let log = read_runlog(&runlog).expect("runlog must parse");
    for expected in [
        "shard.plan",
        "shard.planned",
        "dispatch.assign",
        "dispatch.shard",
        "shard.worker",
        "shard.merge",
        "shard.merged",
    ] {
        assert!(
            log.events.iter().any(|e| e.name == expected),
            "sharded runlog should contain '{expected}'"
        );
    }
    // Worker-process events were folded in, tagged with their shard.
    let folded_blocks: Vec<u64> = log
        .events
        .iter()
        .filter(|e| e.name == "engine.block")
        .filter_map(|e| e.u64_field("shard"))
        .collect();
    assert!(
        !folded_blocks.is_empty(),
        "worker engine.block events should be folded into the driver runlog"
    );
    assert!(folded_blocks.iter().any(|&s| s < 3));
    // One delivered attempt per shard.
    let mut delivered: Vec<u64> = log
        .events
        .iter()
        .filter(|e| e.name == "dispatch.shard")
        .filter(|e| matches!(e.field("ok"), Some(wcs_telemetry::Value::Bool(true))))
        .filter_map(|e| e.u64_field("shard"))
        .collect();
    delivered.sort_unstable();
    assert_eq!(delivered, [0, 1, 2]);

    // `trace summarize` renders the sections the ISSUE promises from
    // this single runlog: per-shard timings, cache counts, block stats.
    let summary = run_ok(repro().args(["trace", "summarize"]).arg(&runlog));
    let text = String::from_utf8_lossy(&summary.stdout).into_owned();
    for section in [
        "== timing (span totals) ==",
        "== engine (per-block stats) ==",
        "== cache ==",
        "== shards ==",
    ] {
        assert!(
            text.contains(section),
            "summary missing '{section}':\n{text}"
        );
    }
    assert!(text.contains("shard.worker"), "per-shard span totals");
    // Every shard row shows the worker time of its delivering attempt.
    let rows: Vec<&str> = text
        .split("== shards ==")
        .nth(1)
        .unwrap()
        .lines()
        .skip(2) // the section's own line end, then the column header
        .take_while(|l| !l.trim().is_empty())
        .collect();
    assert_eq!(rows.len(), 3, "{text}");
    for row in rows {
        let worker = row.split_whitespace().nth(2).unwrap();
        assert!(worker.ends_with('s'), "no worker time in '{row}':\n{text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn strict_cache_turns_store_failures_into_exit_1() {
    let dir = tmpdir("strict");
    // Point the cache at a plain *file*: create_dir_all fails even as
    // root, so every store attempt fails while the sweep itself runs.
    let notadir = dir.join("notadir");
    std::fs::write(&notadir, b"occupied").unwrap();
    let spec = write_tiny_spec(&dir);

    // Lenient mode: warning on stderr, exit 0.
    let lenient = repro()
        .args(["sweep", "--spec"])
        .arg(&spec)
        .arg("--csv")
        .env("WCS_CACHE_DIR", &notadir)
        .output()
        .unwrap();
    assert!(
        lenient.status.success(),
        "store failures are non-fatal by default"
    );
    assert!(
        String::from_utf8_lossy(&lenient.stderr).contains("failed to store cache entry"),
        "warning must still reach stderr: {}",
        String::from_utf8_lossy(&lenient.stderr)
    );

    // Strict mode: same run exits 1, says why, and leaves a flight
    // recorder dump covering the run's last events.
    let flight = dir.join("strict-flight.jsonl");
    let strict = repro()
        .args(["sweep", "--spec"])
        .arg(&spec)
        .args(["--csv", "--strict-cache"])
        .env("WCS_CACHE_DIR", &notadir)
        .env("WCS_FLIGHT_PATH", &flight)
        .output()
        .unwrap();
    assert_eq!(strict.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&strict.stderr).contains("--strict-cache"),
        "stderr should name the flag: {}",
        String::from_utf8_lossy(&strict.stderr)
    );
    let log = read_runlog(&flight).expect("strict-cache flight dump parses");
    assert!(
        log.events.iter().any(|e| e.name == "cache.store_failed"),
        "flight dump should cover the failing store"
    );

    // A healthy cache dir under --strict-cache stays exit 0.
    let healthy = dir.join("cache");
    run_ok(
        repro()
            .args(["sweep", "--spec"])
            .arg(&spec)
            .args(["--csv", "--strict-cache"])
            .env("WCS_CACHE_DIR", &healthy),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_cmd_rejects_missing_files_and_bad_verbs() {
    let out = repro()
        .args(["trace", "summarize", "/nonexistent/RUNLOG.jsonl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "missing runlog is a hard error");

    let out = repro().args(["trace", "frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown verb is a usage error");

    // A runlog with the wrong schema header is rejected, not mis-read.
    let dir = tmpdir("badlog");
    let bad = dir.join("bad.jsonl");
    std::fs::write(
        &bad,
        "{\"t_ns\":0,\"kind\":\"meta\",\"name\":\"runlog.start\",\"fields\":{\"schema\":\"wcs-runlog-v999\"}}\n",
    )
    .unwrap();
    let out = repro()
        .args(["trace", "summarize"])
        .arg(&bad)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Write a runlog for the tiny spec and return its text.
fn record_runlog(dir: &std::path::Path, tag: &str) -> PathBuf {
    let cache = dir.join(format!("cache-{tag}"));
    let spec = write_tiny_spec(dir);
    let runlog = dir.join(format!("{tag}.runlog.jsonl"));
    run_ok(
        repro()
            .args(["sweep", "--spec"])
            .arg(&spec)
            .args(["--threads", "2", "--csv"])
            .arg(format!("--telemetry={}", runlog.display()))
            .env("WCS_CACHE_DIR", &cache),
    );
    runlog
}

/// Multiply the `dur_ns` of every event named `victim` by `factor`.
fn doctor_runlog(src: &std::path::Path, dst: &std::path::Path, victim: &str, factor: u64) {
    let text = std::fs::read_to_string(src).unwrap();
    let doctored: Vec<String> = text
        .lines()
        .map(|line| {
            if !line.contains(&format!("\"{victim}\"")) {
                return line.to_string();
            }
            match line.find("\"dur_ns\":") {
                None => line.to_string(),
                Some(at) => {
                    let digits_at = at + "\"dur_ns\":".len();
                    let digits: String = line[digits_at..]
                        .chars()
                        .take_while(char::is_ascii_digit)
                        .collect();
                    let scaled = digits.parse::<u64>().unwrap() * factor;
                    format!(
                        "{}{}{}",
                        &line[..digits_at],
                        scaled,
                        &line[digits_at + digits.len()..]
                    )
                }
            }
        })
        .collect();
    std::fs::write(dst, doctored.join("\n") + "\n").unwrap();
}

#[test]
fn trace_summarize_strict_counts_damage_and_fails() {
    let dir = tmpdir("damage");
    let runlog = record_runlog(&dir, "clean");
    // A clean log passes --strict.
    run_ok(
        repro()
            .args(["trace", "summarize", "--strict"])
            .arg(&runlog),
    );

    // Damage it: one truncated line, one unknown event name.
    let mut text = std::fs::read_to_string(&runlog).unwrap();
    text.push_str("{\"t_ns\":1,\"kind\":\"value\",\"name\":\"engine.blo"); // truncated
    text.push('\n');
    text.push_str("{\"t_ns\":2,\"kind\":\"value\",\"name\":\"mystery.event\",\"fields\":{}}\n");
    let damaged = dir.join("damaged.jsonl");
    std::fs::write(&damaged, &text).unwrap();

    // Lenient by default: summary still renders, damage is reported.
    let out = run_ok(repro().args(["trace", "summarize"]).arg(&damaged));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("== timing (span totals) =="), "{stdout}");
    assert!(stdout.contains("== damage =="), "{stdout}");
    assert!(
        stdout.contains("1 corrupt line(s), 1 unknown name(s)"),
        "{stdout}"
    );
    assert!(stdout.contains("mystery.event"), "{stdout}");

    // --strict turns the same damage into exit 1.
    let out = repro()
        .args(["trace", "summarize", "--strict"])
        .arg(&damaged)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "--strict must fail on damage");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_diff_flags_injected_slowdown_and_gates() {
    let dir = tmpdir("diff");
    let runlog = record_runlog(&dir, "base");
    let slowed = dir.join("slowed.jsonl");
    doctor_runlog(&runlog, &slowed, "engine.block", 3);

    // Self-diff: every ratio 1, verdict ok, exit 0 even under the gate.
    let out = run_ok(
        repro()
            .args(["trace", "diff"])
            .arg(&runlog)
            .arg(&runlog)
            .args(["--fail-on-regression", "25"]),
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("verdict: ok"));

    // A 3x slowdown of one phase: reported, and exit 1 under the gate.
    let out = run_ok(repro().args(["trace", "diff"]).arg(&runlog).arg(&slowed));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stdout.contains("engine.block"), "{stdout}");
    let gated = repro()
        .args(["trace", "diff"])
        .arg(&runlog)
        .arg(&slowed)
        .args(["--fail-on-regression", "25"])
        .output()
        .unwrap();
    assert_eq!(gated.status.code(), Some(1), "gate must fail on regression");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run the tiny spec against a fresh cache and return the run manifest
/// it appended.
fn record_manifest(dir: &std::path::Path, tag: &str) -> PathBuf {
    let cache = dir.join(format!("cache-{tag}"));
    let spec = write_tiny_spec(dir);
    run_ok(
        repro()
            .args(["sweep", "--spec"])
            .arg(&spec)
            .arg("--csv")
            .env("WCS_CACHE_DIR", &cache),
    );
    let manifests: Vec<PathBuf> = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(".manifest.json"))
        .collect();
    assert_eq!(manifests.len(), 1, "{manifests:?}");
    manifests[0].clone()
}

#[test]
fn trace_diff_reads_run_manifests_one_line_or_reindented() {
    let dir = tmpdir("diff-manifest");
    let a = record_manifest(&dir, "a");
    let b = record_manifest(&dir, "b");
    let table = |out: &Output| -> Vec<String> {
        // Everything but the header line, which names the two files.
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .skip(1)
            .map(str::to_string)
            .collect()
    };

    let one_line = run_ok(repro().args(["trace", "diff"]).arg(&a).arg(&b));
    let rows = table(&one_line);
    assert!(rows.iter().any(|r| r.starts_with("wall ")), "{rows:?}");
    assert!(
        rows.iter().any(|r| r.starts_with("engine.block ")),
        "{rows:?}"
    );

    // Re-indent the manifest the way `jq .` would (its strings hold no
    // ',' or '{'): the same phases must come out.
    let text = std::fs::read_to_string(&a).unwrap();
    assert_eq!(text.trim().lines().count(), 1, "manifests are one line");
    let pretty = dir.join("pretty.json");
    std::fs::write(&pretty, text.replace('{', "{\n  ").replace(',', ",\n  ")).unwrap();
    let reindented = run_ok(repro().args(["trace", "diff"]).arg(&pretty).arg(&b));
    assert_eq!(table(&reindented), rows);

    // A self-diff has a machine factor of exactly 1.
    let same = run_ok(repro().args(["trace", "diff"]).arg(&pretty).arg(&a));
    let stdout = String::from_utf8_lossy(&same.stdout).into_owned();
    assert!(stdout.contains("(machine factor 1.000,"), "{stdout}");
    assert!(stdout.contains("verdict: ok"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_export_prom_renders_counters_and_histograms() {
    let dir = tmpdir("export");
    let runlog = record_runlog(&dir, "prom");
    let out = run_ok(repro().args(["trace", "export", "--prom"]).arg(&runlog));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        text.contains("# TYPE wcs_cache_miss_total counter"),
        "{text:.400}"
    );
    assert!(
        text.contains("# TYPE wcs_engine_block_duration_ns histogram"),
        "{text:.400}"
    );
    assert!(text.contains("wcs_engine_block_duration_ns_bucket{le=\"+Inf\"}"));
    // The replayed histogram carries the run's blocks (count > 0).
    let count_line = text
        .lines()
        .find(|l| l.starts_with("wcs_engine_block_duration_ns_count"))
        .expect("count line");
    let count: u64 = count_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        count > 0,
        "replayed engine.block histogram must be populated"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn history_ls_and_show_page_over_run_manifests() {
    let dir = tmpdir("history");
    let cache = dir.join("cache");
    let spec = write_tiny_spec(&dir);
    run_ok(
        repro()
            .args(["sweep", "--spec"])
            .arg(&spec)
            .arg("--csv")
            .env("WCS_CACHE_DIR", &cache),
    );
    let ls = run_ok(repro().args(["history", "ls"]).env("WCS_CACHE_DIR", &cache));
    let listing = String::from_utf8_lossy(&ls.stdout).into_owned();
    assert!(listing.contains("trace-tiny"), "{listing}");
    assert!(listing.contains(".manifest.json"), "{listing}");
    assert!(listing.contains("cache miss"), "{listing}");
    let name = listing
        .lines()
        .next()
        .unwrap()
        .split('\t')
        .next()
        .unwrap()
        .to_string();
    let show = run_ok(
        repro()
            .args(["history", "show", &name])
            .env("WCS_CACHE_DIR", &cache),
    );
    let manifest = String::from_utf8_lossy(&show.stdout).into_owned();
    assert!(
        manifest.contains("\"schema\":\"wcs-run-manifest-v1\""),
        "{manifest}"
    );
    assert!(manifest.contains("\"histograms\":{"), "{manifest}");
    // A second (cache-hit) run appends a second manifest.
    run_ok(
        repro()
            .args(["sweep", "--spec"])
            .arg(&spec)
            .arg("--csv")
            .env("WCS_CACHE_DIR", &cache),
    );
    let ls = run_ok(repro().args(["history", "ls"]).env("WCS_CACHE_DIR", &cache));
    let listing = String::from_utf8_lossy(&ls.stdout).into_owned();
    assert_eq!(listing.lines().count(), 2, "{listing}");
    assert!(listing.contains("cache hit"), "{listing}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_panic_leaves_a_valid_flight_dump_covering_the_failing_span() {
    let dir = tmpdir("panic");
    let cache = dir.join("cache");
    let spec = write_tiny_spec(&dir);
    let flight = dir.join("panic-flight.jsonl");
    let out = repro()
        .args(["sweep", "--spec"])
        .arg(&spec)
        .args(["--csv", "--no-cache"])
        .env("WCS_CACHE_DIR", &cache)
        .env("WCS_TEST_PANIC", "1")
        .env("WCS_FLIGHT_PATH", &flight)
        .output()
        .unwrap();
    assert!(!out.status.success(), "the injected panic must not exit 0");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("flight recorder"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The dump is a valid wcs-runlog-v1 file...
    let log = read_runlog(&flight).expect("flight dump parses as a runlog");
    assert!(!log.events.is_empty());
    // ...whose tail events cover the failing span: the last record is
    // the SpanEnter of the workload.run the panic interrupted, preceded
    // by the engine events of the sweep that ran before it.
    let last = log.events.last().unwrap();
    assert_eq!(last.kind, EventKind::SpanEnter);
    assert_eq!(last.name, "workload.run");
    assert!(
        log.events.iter().any(|e| e.name == "engine.block"),
        "ring should still hold the preceding engine events"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bare_telemetry_flag_defaults_to_runlog_in_cwd() {
    let dir = tmpdir("default-path");
    let cache = dir.join("cache");
    let spec = write_tiny_spec(&dir);
    run_ok(
        repro()
            .args(["sweep", "--spec"])
            .arg(&spec)
            .args(["--csv", "--telemetry"])
            .env("WCS_CACHE_DIR", &cache)
            .current_dir(&dir),
    );
    let log = read_runlog(&dir.join("RUNLOG.jsonl")).expect("default RUNLOG.jsonl");
    assert!(!log.events.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
