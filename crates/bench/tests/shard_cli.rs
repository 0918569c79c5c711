//! End-to-end CLI tests of the `repro` binary's shard / spec / cache
//! surface: real subprocesses, real files, byte-compared stdout.
//!
//! Env is passed per-command (never `std::env::set_var`): cargo runs
//! tests on threads, and each test gets its own temp cache directory.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wcs-cli-{tag}-{}", std::process::id()));
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

/// A grid small enough that the whole pipeline (plan + 3 workers +
/// merge, twice) stays in CI-smoke territory, but heterogeneous enough
/// (mixed two-pair / N-pair topology axis) to exercise the extended
/// report layout.
const TINY_SPEC: &str = r#"
name = "cli-tiny"
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
fn shard_run_matches_single_process_sweep_bitwise() {
    let dir = tmpdir("run");
    let cache = dir.join("cache");
    let spec = write_tiny_spec(&dir);
    let single = run_ok(
        repro()
            .args(["sweep", "--spec"])
            .arg(&spec)
            .args(["--threads", "2", "--no-cache", "--csv"])
            .env("WCS_CACHE_DIR", &cache),
    );
    for (k, strategy) in [("2", "contiguous"), ("3", "strided")] {
        let merged = run_ok(
            repro()
                .args(["shard", "run", "--spec"])
                .arg(&spec)
                .args(["-k", k, "--strategy", strategy, "--csv", "--no-cache"])
                .env("WCS_CACHE_DIR", &cache),
        );
        assert_eq!(
            String::from_utf8_lossy(&single.stdout),
            String::from_utf8_lossy(&merged.stdout),
            "k = {k} {strategy} diverged from single-process run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sim-workload spec small enough for CI (1 simulated second per run,
/// two ensemble points) but wide enough to cross a CCA axis.
const TINY_SIM_SPEC: &str = r#"
workload = "sim"
name = "cli-sim-tiny"
ccas = [7.0, 13.0]
rates = ["best-fixed"]
points = 2
run_secs = 1
sweep_rates = [6.0, 24.0]
seed = 4242
"#;

#[test]
fn sim_spec_shard_run_matches_single_process_sweep_bitwise() {
    // The sim workload flows through the same spec/engine/shard/report
    // machinery as model sweeps: `sweep --spec sim.toml` and
    // `shard run --spec sim.toml` must agree byte for byte.
    let dir = tmpdir("sim-run");
    let cache = dir.join("cache");
    let spec = dir.join("sim.toml");
    std::fs::write(&spec, TINY_SIM_SPEC).unwrap();
    let single = run_ok(
        repro()
            .args(["sweep", "--spec"])
            .arg(&spec)
            .args(["--threads", "2", "--no-cache", "--csv"])
            .env("WCS_CACHE_DIR", &cache),
    );
    assert!(
        String::from_utf8_lossy(&single.stdout).starts_with("testbed,point,cca_db"),
        "sim report layout"
    );
    for (k, strategy) in [("2", "contiguous"), ("3", "strided")] {
        let merged = run_ok(
            repro()
                .args(["shard", "run", "--spec"])
                .arg(&spec)
                .args(["-k", k, "--strategy", strategy, "--csv", "--no-cache"])
                .env("WCS_CACHE_DIR", &cache),
        );
        assert_eq!(
            String::from_utf8_lossy(&single.stdout),
            String::from_utf8_lossy(&merged.stdout),
            "sim k = {k} {strategy} diverged from single-process run"
        );
    }
    // A cached run hits, and cache ls classifies the entry as sim.
    run_ok(
        repro()
            .args(["sweep", "--spec"])
            .arg(&spec)
            .arg("--csv")
            .env("WCS_CACHE_DIR", &cache),
    );
    let served = run_ok(
        repro()
            .args(["sweep", "--spec"])
            .arg(&spec)
            .arg("--csv")
            .env("WCS_CACHE_DIR", &cache),
    );
    assert!(
        String::from_utf8_lossy(&served.stderr).contains("cache hit"),
        "expected a sim cache hit: {}",
        String::from_utf8_lossy(&served.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&single.stdout),
        String::from_utf8_lossy(&served.stdout)
    );
    let ls = run_ok(repro().args(["cache", "ls"]).env("WCS_CACHE_DIR", &cache));
    let listing = String::from_utf8_lossy(&ls.stdout).into_owned();
    assert!(
        listing
            .lines()
            .any(|l| l.contains("cli-sim-tiny") && l.contains("sim")),
        "cache ls should classify the sim entry: {listing}"
    );
    // `cache clear --kind model` must leave the sim entry alone.
    run_ok(
        repro()
            .args(["cache", "clear", "--kind", "model"])
            .env("WCS_CACHE_DIR", &cache),
    );
    let ls2 = run_ok(repro().args(["cache", "ls"]).env("WCS_CACHE_DIR", &cache));
    assert!(
        String::from_utf8_lossy(&ls2.stdout).contains("cli-sim-tiny"),
        "kind-filtered clear must not remove the other kind"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plan_worker_merge_pipeline_and_cache_handoff() {
    let dir = tmpdir("pipeline");
    let cache = dir.join("cache");
    let plan_dir = dir.join("plan");
    let spec = write_tiny_spec(&dir);

    // Plan: writes one manifest per shard and prints their paths.
    let plan = run_ok(
        repro()
            .args(["shard", "plan", "--spec"])
            .arg(&spec)
            .args(["-k", "2", "--dir"])
            .arg(&plan_dir)
            .env("WCS_CACHE_DIR", &cache),
    );
    let manifests: Vec<&str> = std::str::from_utf8(&plan.stdout).unwrap().lines().collect();
    assert_eq!(manifests.len(), 2, "one manifest path per shard");

    // Workers: one per manifest, sharing the cache dir.
    for m in &manifests {
        run_ok(
            repro()
                .args(["shard", "worker", m])
                .args(["--threads", "1"])
                .env("WCS_CACHE_DIR", &cache),
        );
    }

    // Merge: byte-identical to the single-process run, and stores the
    // full report in the shared cache.
    let merged = run_ok(
        repro()
            .args(["shard", "merge"])
            .arg(&plan_dir)
            .arg("--csv")
            .env("WCS_CACHE_DIR", &cache),
    );
    let single = run_ok(
        repro()
            .args(["sweep", "--spec"])
            .arg(&spec)
            .args(["--no-cache", "--csv"])
            .env("WCS_CACHE_DIR", &cache),
    );
    assert_eq!(
        String::from_utf8_lossy(&single.stdout),
        String::from_utf8_lossy(&merged.stdout)
    );

    // The merged store must serve a later cached sweep (cache hit, same
    // bytes) — the "merged run stores under the same key" contract.
    let served = run_ok(
        repro()
            .args(["sweep", "--spec"])
            .arg(&spec)
            .arg("--csv")
            .env("WCS_CACHE_DIR", &cache),
    );
    assert!(
        String::from_utf8_lossy(&served.stderr).contains("cache hit"),
        "expected a cache hit, got: {}",
        String::from_utf8_lossy(&served.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&single.stdout),
        String::from_utf8_lossy(&served.stdout)
    );

    // cache ls sees the entry; cache clear removes it.
    let ls = run_ok(repro().args(["cache", "ls"]).env("WCS_CACHE_DIR", &cache));
    assert!(
        String::from_utf8_lossy(&ls.stdout).contains("cli-tiny"),
        "cache ls should list the merged entry"
    );
    run_ok(
        repro()
            .args(["cache", "clear"])
            .env("WCS_CACHE_DIR", &cache),
    );
    let ls2 = run_ok(repro().args(["cache", "ls"]).env("WCS_CACHE_DIR", &cache));
    assert!(ls2.stdout.is_empty(), "cache should be empty after clear");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_refuses_gapped_and_tampered_plans() {
    let dir = tmpdir("refuse");
    let cache = dir.join("cache");
    let plan_dir = dir.join("plan");
    let spec = write_tiny_spec(&dir);
    run_ok(
        repro()
            .args(["shard", "plan", "--spec"])
            .arg(&spec)
            .args(["-k", "2", "--dir"])
            .arg(&plan_dir)
            .env("WCS_CACHE_DIR", &cache),
    );
    // Run only shard 1's worker: shard 0 is a gap.
    run_ok(
        repro()
            .args(["shard", "worker"])
            .arg(plan_dir.join("shard-0001.manifest.toml"))
            .env("WCS_CACHE_DIR", &cache),
    );
    let gapped = repro()
        .args(["shard", "merge"])
        .arg(&plan_dir)
        .env("WCS_CACHE_DIR", &cache)
        .output()
        .unwrap();
    assert!(!gapped.status.success(), "gapped merge must fail");
    assert!(
        String::from_utf8_lossy(&gapped.stderr).contains("missing"),
        "stderr should name the gap: {}",
        String::from_utf8_lossy(&gapped.stderr)
    );

    // Tamper with a manifest: the embedded hash must catch it.
    let mpath = plan_dir.join("shard-0000.manifest.toml");
    let text = std::fs::read_to_string(&mpath).unwrap();
    let tampered = text.replace("seed = 9090", "seed = 9091");
    assert_ne!(text, tampered);
    std::fs::write(&mpath, tampered).unwrap();
    let bad = repro()
        .args(["shard", "worker"])
        .arg(&mpath)
        .env("WCS_CACHE_DIR", &cache)
        .output()
        .unwrap();
    // Seed is outside the canonical hash, so tampering it is *legal* for
    // the hash check — but merge then refuses the seed mismatch against
    // shard 1's partial.
    if bad.status.success() {
        let merged = repro()
            .args(["shard", "merge"])
            .arg(&plan_dir)
            .env("WCS_CACHE_DIR", &cache)
            .output()
            .unwrap();
        assert!(!merged.status.success(), "mixed-seed merge must fail");
    }

    // Tampering an axis value *is* caught by the hash immediately.
    let text = std::fs::read_to_string(&mpath).unwrap();
    let tampered = text.replace("ds = [25.0, 80.0]", "ds = [25.0, 80.5]");
    assert_ne!(text, tampered);
    std::fs::write(&mpath, tampered).unwrap();
    let bad = repro()
        .args(["shard", "worker"])
        .arg(&mpath)
        .env("WCS_CACHE_DIR", &cache)
        .output()
        .unwrap();
    assert!(!bad.status.success(), "hash-mismatched manifest must fail");
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("hash mismatch"),
        "stderr should explain: {}",
        String::from_utf8_lossy(&bad.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_scenarios_and_flags_exit_2_before_running() {
    for bad_args in [
        vec!["sweep", "nonexistent-scenario"],
        vec!["sweep", "--bogus-flag"],
        vec!["shard", "plan", "figure4-family"], // missing -k
        vec!["shard", "plan", "-k", "3"],        // missing scenario
        // A `dispatch run` flag.
        vec![
            "shard",
            "plan",
            "figure4-family",
            "-k",
            "2",
            "--hosts",
            "h.txt",
        ],
        vec!["shard", "frobnicate"],
        vec!["cache", "defrag"],
    ] {
        let out = repro().args(&bad_args).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bad_args:?} should exit 2, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
