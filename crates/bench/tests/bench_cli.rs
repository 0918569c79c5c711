//! End-to-end tests of `repro bench`: the BENCH_*.json schema contract
//! (round-trip parse, schema-version field, pinned bench-name set), the
//! shape-determinism guarantee the CI gate leans on, and both verdicts
//! of the `--compare` regression gate — all through the real binary.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Mutex;
use wcs_bench::perf::{BenchReport, BENCH_NAMES, SCHEMA, SCHEMA_VERSION};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// Serialises the suite-running tests: two suites timing each other's
/// subprocess spawns (the dispatch bench forks real workers) is exactly
/// the noise the machine-factor normalisation cannot remove, and the
/// compare test needs its two runs back-to-back.
static SUITE: Mutex<()> = Mutex::new(());

fn suite_lock() -> std::sync::MutexGuard<'static, ()> {
    SUITE.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wcs-bench-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_quick(out_path: &std::path::Path) -> Output {
    let out = repro()
        .args(["bench", "--quick", "--out"])
        .arg(out_path)
        .output()
        .expect("spawn repro bench");
    assert!(
        out.status.success(),
        "repro bench failed: {}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn bench_writes_schema_versioned_document_with_pinned_names() {
    let _suite = suite_lock();
    let dir = tmpdir("schema");
    let path = dir.join("bench.json");
    run_quick(&path);
    let text = std::fs::read_to_string(&path).unwrap();
    let report = BenchReport::parse(&text).expect("parse bench document");
    assert_eq!(report.schema, SCHEMA);
    assert_eq!(report.schema_version, SCHEMA_VERSION);
    assert_eq!(report.mode, "quick");
    // The bench-name set is pinned, in emission order.
    let names: Vec<&str> = report.benches.iter().map(|b| b.name.as_str()).collect();
    assert_eq!(names, BENCH_NAMES.to_vec());
    for b in &report.benches {
        assert!(b.median_ns > 0.0, "{}: non-positive median", b.name);
        assert!(b.mad_ns >= 0.0, "{}: negative MAD", b.name);
        assert!(b.samples > 0 && b.iters_per_sample > 0, "{}", b.name);
    }
    // Round trip: parse(to_json(parse(x))) is the identity on content.
    let again = BenchReport::parse(&report.to_json()).unwrap();
    assert_eq!(again, report);
    // The speedup pairs reference real benches and record the measured
    // optimization (the twopair kernel must beat its naive baseline).
    let twopair = report
        .speedups
        .iter()
        .find(|s| s.name == "twopair_kernel")
        .expect("twopair speedup pair");
    assert_eq!(twopair.baseline, "twopair_sample_naive");
    assert_eq!(twopair.optimized, "twopair_sample_kernel");
    assert!(
        twopair.speedup > 1.0,
        "twopair kernel should not be slower than the naive path ({}x)",
        twopair.speedup
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_quick_is_shape_deterministic_across_runs() {
    // The CI gate assumes two runs report the same bench names and the
    // same sample/iteration counts (only times differ).
    let _suite = suite_lock();
    let dir = tmpdir("determinism");
    let (p1, p2) = (dir.join("one.json"), dir.join("two.json"));
    run_quick(&p1);
    run_quick(&p2);
    let a = BenchReport::parse(&std::fs::read_to_string(&p1).unwrap()).unwrap();
    let b = BenchReport::parse(&std::fs::read_to_string(&p2).unwrap()).unwrap();
    assert_eq!(a.benches.len(), b.benches.len());
    for (x, y) in a.benches.iter().zip(&b.benches) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.samples, y.samples, "{}: sample count drifted", x.name);
        assert_eq!(
            x.iters_per_sample, y.iters_per_sample,
            "{}: iteration count drifted",
            x.name
        );
    }
    let sa: Vec<&str> = a.speedups.iter().map(|s| s.name.as_str()).collect();
    let sb: Vec<&str> = b.speedups.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(sa, sb);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_compare_passes_against_own_output_and_fails_on_fabricated_regression() {
    let _suite = suite_lock();
    let dir = tmpdir("compare");
    let current = dir.join("current.json");
    run_quick(&current);

    // Comparing a run against itself: every ratio is ~1, the gate
    // passes, delta table printed. A bench that load on a shared host
    // pushes over the bound is flagged only if reruns of the suite in
    // fresh processes reproduce it, so one comparison suffices.
    let out = repro()
        .args(["bench", "--quick"])
        .arg("--out")
        .arg(dir.join("rerun.json"))
        .arg("--compare")
        .arg(&current)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "self-comparison must pass\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("baseline comparison"), "{stdout}");
    assert!(stdout.contains("machine factor"), "{stdout}");

    // Fabricate a baseline in which one kernel used to be 10x faster:
    // the current run then regresses that bench relative to the rest.
    let mut doctored = BenchReport::parse(&std::fs::read_to_string(&current).unwrap()).unwrap();
    let victim = doctored
        .benches
        .iter_mut()
        .find(|b| b.name == "npair_sample_kernel_n4")
        .unwrap();
    victim.median_ns /= 10.0;
    let baseline = dir.join("doctored.json");
    std::fs::write(&baseline, doctored.to_json()).unwrap();
    let out = repro()
        .args(["bench", "--quick"])
        .arg("--out")
        .arg(dir.join("gated.json"))
        .arg("--compare")
        .arg(&baseline)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "fabricated regression must fail the gate\nstdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(
        stderr.contains("regression: npair_sample_kernel_n4"),
        "{stderr}"
    );
    // Confirmed by every rerun of the suite before it was flagged.
    assert!(stderr.contains("rerun 2 of the suite"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
