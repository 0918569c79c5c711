#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke          # every workload, tiny, verified
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the repository root. Builds the `repro` binary (which the
npair-dispatch and serve-mixed workloads drive) and the `perfbench`
binary into $CARGO_TARGET_DIR (default .bench_build), then runs
`perfbench`. Its last line of standard output is the JSON result.
`--all` runs every workload untraced and traced, prints every metric
with its unit, and exits non-zero if any run failed verification.
"""

import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["fig4-sweep", "sim-grid", "npair-dispatch", "serve-mixed"]
RUN_TIMEOUT_S = 175


def output(cmd, env):
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(env):
    """Build both binaries; returns (perfbench, repro) paths or None."""
    target = env["CARGO_TARGET_DIR"]
    for manifest, extra in (("Cargo.toml", ["-p", "wcs-bench", "--bin", "repro"]),
                            (os.path.join("perfbench", "Cargo.toml"), [])):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return None
    release = os.path.join(target, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "repro")


def run(binary, args, env):
    """Run perfbench; its stdout passes through. Returns (code, last line).

    perfbench gets a process group of its own, so a run that overstays
    its time is stopped together with the daemon or workers it started.
    """
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1, ""
    sys.stdout.write(out)
    lines = out.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        print("perfbench: the repository sources are not next to the benchmark", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    env["PERFBENCH_RUSTC"] = output(["rustc", "-V"], env)
    env["PERFBENCH_GIT_REV"] = output(["git", "rev-parse", "HEAD"], env)
    built = build(env)
    if built is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    perfbench, repro = built
    common = ["--repro", repro, "--work", os.path.join(ROOT, ".bench_work")]
    if "--all" not in argv:
        code, _ = run(perfbench, argv + common, env)
        return code
    rest = [a for a in argv if a != "--all"]
    failed = False
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, last = run(perfbench, ["--workload", workload, "--trace", trace] + rest + common,
                             env)
            try:
                result = json.loads(last)
            except ValueError:
                result = {}
            if code != 0 or not result.get("correct", False):
                print(f"perfbench: {workload} trace {trace} FAILED", file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
