//! Spec-file error paths through the real `repro` binary: malformed
//! input, unknown axis/workload keys, and hash-mismatch-on-load must
//! each exit 2 *before anything runs*, with a distinct, actionable
//! message naming the problem (and the line, when one line is at
//! fault).

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wcs-speccli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `repro sweep --spec <content>` and return its stderr, asserting
/// exit code 2.
fn sweep_spec_fails(dir: &std::path::Path, tag: &str, content: &str) -> String {
    let path = dir.join(format!("{tag}.toml"));
    std::fs::write(&path, content).unwrap();
    let out = repro()
        .args(["sweep", "--spec"])
        .arg(&path)
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(2),
        "{tag}: expected exit 2, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn malformed_spec_names_the_line() {
    let dir = tmpdir("malformed");
    let err = sweep_spec_fails(&dir, "badnum", "name = \"x\"\nrmaxes = [oops]\n");
    assert!(err.contains("line 2"), "{err}");
    assert!(err.contains("bad number 'oops'"), "{err}");
    let err = sweep_spec_fails(&dir, "nokv", "name = \"x\"\njust some words\n");
    assert!(err.contains("expected 'key = value'"), "{err}");
    let err = sweep_spec_fails(&dir, "noname", "seed = 1\n");
    assert!(err.contains("missing required key 'name'"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_axis_and_workload_keys_are_distinct_errors() {
    let dir = tmpdir("unknown");
    // Unknown axis key in a model spec.
    let err = sweep_spec_fails(&dir, "axis", "name = \"x\"\nfrobs = [1.0]\n");
    assert!(err.contains("unknown key 'frobs'"), "{err}");
    // A sim-only key in a model spec is just as loud.
    let err = sweep_spec_fails(&dir, "simkey", "name = \"x\"\nccas = [13.0]\n");
    assert!(err.contains("unknown key 'ccas'"), "{err}");
    // Unknown workload value lists the known families.
    let err = sweep_spec_fails(&dir, "family", "workload = \"quantum\"\nname = \"x\"\n");
    assert!(err.contains("unknown workload 'quantum'"), "{err}");
    assert!(err.contains("model, sim"), "{err}");
    // Unknown sim axis value (rate policy) suggests the valid forms.
    let err = sweep_spec_fails(
        &dir,
        "rate",
        "workload = \"sim\"\nname = \"x\"\nrates = [\"warp\"]\n",
    );
    assert!(err.contains("unknown rate policy 'warp'"), "{err}");
    assert!(err.contains("best-fixed"), "{err}");
    // Unknown stream-layout value names the line and the valid labels.
    let err = sweep_spec_fails(&dir, "layout", "name = \"x\"\nstream_layout = \"v3\"\n");
    assert!(err.contains("line 2"), "{err}");
    assert!(err.contains("unknown stream layout 'v3'"), "{err}");
    assert!(err.contains("known layouts: v1, v2"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sim_specs_that_would_panic_at_run_time_exit_2() {
    // A degenerate floor or a rate with no 802.11a modulation used to
    // parse and then panic mid-run (exit 101); both are spec errors.
    let dir = tmpdir("simvalues");
    let sim = |line: &str| format!("workload = \"sim\"\nname = \"x\"\n{line}\n");
    let err = sweep_spec_fails(&dir, "floor", &sim("floor = [0.0, 90.0]"));
    assert!(err.contains("line 3"), "{err}");
    assert!(
        err.contains("'floor' sides must be positive and finite"),
        "{err}"
    );
    let err = sweep_spec_fails(&dir, "sweep-rate", &sim("sweep_rates = [7.0]"));
    assert!(
        err.contains("no 802.11a rate 7.0 Mbps in 'sweep_rates'"),
        "{err}"
    );
    let err = sweep_spec_fails(&dir, "fixed-rate", &sim("rates = [\"fixed(7.0)\"]"));
    assert!(err.contains("no 802.11a rate 7.0 Mbps in 'rates'"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hash_mismatch_on_load_is_its_own_error() {
    let dir = tmpdir("hash");
    // A wrong pinned hash is a distinct error telling the user what to do.
    let err = sweep_spec_fails(
        &dir,
        "mismatch",
        "expect_hash = \"0000000000000000\"\nname = \"x\"\nds = [10.0]\n",
    );
    assert!(err.contains("scenario hash mismatch"), "{err}");
    assert!(err.contains("expect_hash"), "{err}");
    // A malformed hash fails earlier, differently.
    let err = sweep_spec_fails(&dir, "badhex", "expect_hash = \"zz\"\nname = \"x\"\n");
    assert!(err.contains("16 hex digits"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_correct_expect_hash_runs_clean() {
    // The dual of the mismatch test: pinning the *right* hash works, for
    // both workload families (the sim family via `repro shard plan`, so
    // this also covers spec dispatch in the shard path).
    let dir = tmpdir("goodhash");
    let model = "name = \"pinned\"\nds = [20.0]\nsamples = 200\n";
    let probe = dir.join("probe.toml");
    std::fs::write(&probe, model).unwrap();
    // Learn the hash from a plan (printed manifests embed it).
    let plan_dir = dir.join("plan");
    let out = repro()
        .args(["shard", "plan", "--spec"])
        .arg(&probe)
        .args(["-k", "1", "--dir"])
        .arg(&plan_dir)
        .output()
        .unwrap();
    assert!(out.status.success());
    let manifest = std::fs::read_to_string(plan_dir.join("shard-0000.manifest.toml")).unwrap();
    let hash = manifest
        .lines()
        .find_map(|l| l.strip_prefix("spec_hash = \""))
        .and_then(|h| h.strip_suffix('"'))
        .expect("manifest carries spec_hash");
    let pinned = format!("expect_hash = \"{hash}\"\n{model}");
    let pinned_path = dir.join("pinned.toml");
    std::fs::write(&pinned_path, pinned).unwrap();
    let out = repro()
        .args(["sweep", "--spec"])
        .arg(&pinned_path)
        .args(["--no-cache", "--csv"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "correctly pinned spec must run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
