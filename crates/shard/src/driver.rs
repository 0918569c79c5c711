//! Planning directories and worker invocations.
//!
//! File layout of a plan directory (one per sweep × K):
//!
//! ```text
//! <dir>/shard-0000.manifest.toml   written by `shard plan`
//! <dir>/shard-0000.partial.csv     written by `shard worker`
//! <dir>/shard-0001.manifest.toml   ...
//! ```
//!
//! This module writes plans ([`write_plan`]) and describes one worker
//! launch ([`WorkerInvocation`]); it spawns nothing itself. Launching
//! the workers is `wcs-dispatch`'s job, whether they run as K local
//! subprocesses (`repro shard run` and `repro dispatch run`) or on
//! remote hosts. For a hand-driven multi-host run, ship each manifest
//! to a host, run `repro shard worker` there, gather the partials into
//! one directory and `repro shard merge` it.

use crate::manifest::ShardManifest;
use crate::plan::{ShardPlan, ShardStrategy};
use crate::ShardError;
use std::path::{Path, PathBuf};
use std::process::Command;
use wcs_runtime::{AnyWorkload, WorkloadSpec};

/// Manifest file path for shard `shard` under `dir`.
pub fn manifest_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:04}.manifest.toml"))
}

/// Heartbeat file path for shard `shard` under `dir` (touched by the
/// worker's `--heartbeat` thread; polled by `wcs-dispatch`).
pub fn heartbeat_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:04}.hb"))
}

/// One fully specified `repro shard worker` invocation, independent of
/// *how* it is launched. The `wcs-dispatch` transports spawn it as a
/// local subprocess or render the same argument vector behind ssh or
/// any exec wrapper — which is why everything (cache directory
/// included) is carried as explicit arguments rather than environment
/// variables that would not survive a remote shell.
#[derive(Debug, Clone)]
pub struct WorkerInvocation {
    /// The shard manifest the worker loads.
    pub manifest: PathBuf,
    /// Forwarded as `--threads` (0 = worker decides).
    pub threads: usize,
    /// `Some(dir)` → `--cache-dir dir`; `None` → `--no-cache`.
    pub cache_dir: Option<PathBuf>,
    /// Forward `--strict-cache`.
    pub strict_cache: bool,
    /// Worker-side run log path (`--telemetry=PATH`).
    pub telemetry: Option<PathBuf>,
    /// Heartbeat file the worker touches (`--heartbeat PATH`).
    pub heartbeat: Option<PathBuf>,
    /// Heartbeat period in milliseconds (`--heartbeat-ms N`; 0 = keep
    /// the worker's default).
    pub heartbeat_ms: u64,
}

impl WorkerInvocation {
    /// A minimal invocation for `manifest`: no cache, no telemetry, no
    /// heartbeat.
    pub fn new(manifest: impl Into<PathBuf>) -> Self {
        WorkerInvocation {
            manifest: manifest.into(),
            threads: 0,
            cache_dir: None,
            strict_cache: false,
            telemetry: None,
            heartbeat: None,
            heartbeat_ms: 0,
        }
    }

    /// The full argument vector after the binary name:
    /// `shard worker <manifest> --threads N ...`.
    pub fn args(&self) -> Vec<String> {
        let mut args = vec![
            "shard".to_string(),
            "worker".to_string(),
            self.manifest.display().to_string(),
            "--threads".to_string(),
            self.threads.to_string(),
        ];
        match &self.cache_dir {
            Some(dir) => {
                args.push("--cache-dir".to_string());
                args.push(dir.display().to_string());
            }
            None => args.push("--no-cache".to_string()),
        }
        if self.strict_cache {
            args.push("--strict-cache".to_string());
        }
        if let Some(runlog) = &self.telemetry {
            args.push(format!("--telemetry={}", runlog.display()));
        }
        if let Some(hb) = &self.heartbeat {
            args.push("--heartbeat".to_string());
            args.push(hb.display().to_string());
            if self.heartbeat_ms > 0 {
                args.push("--heartbeat-ms".to_string());
                args.push(self.heartbeat_ms.to_string());
            }
        }
        args
    }

    /// A ready-to-spawn [`Command`] for this invocation: `exe` plus
    /// [`WorkerInvocation::args`], stdout discarded (the partial goes to
    /// disk; stderr is inherited so progress lines surface).
    pub fn command(&self, exe: &Path) -> Command {
        let mut cmd = Command::new(exe);
        cmd.args(self.args()).stdout(std::process::Stdio::null());
        cmd
    }
}

/// Partial-report file path for shard `shard` under `dir`.
pub fn partial_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:04}.partial.csv"))
}

/// Run-log file path a dispatcher hands shard `shard`'s worker when
/// worker telemetry is on.
pub fn worker_runlog_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:04}.runlog.jsonl"))
}

/// The sorted manifest paths present in a plan directory.
pub fn find_manifests(dir: &Path) -> Result<Vec<PathBuf>, ShardError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("shard-") && name.ends_with(".manifest.toml") {
            out.push(entry.path());
        }
    }
    out.sort();
    Ok(out)
}

/// Slice a workload into `k` shards and write one manifest per shard
/// under `dir` (created if missing). Any shard files already in `dir` —
/// from a previous plan with a different k or strategy — are removed
/// first, so re-planning a reused directory can never leave stale
/// manifests or partials behind for the merge to choke on. Returns the
/// manifest paths in shard order.
pub fn write_plan(
    dir: &Path,
    workload: impl Into<AnyWorkload>,
    k: usize,
    strategy: ShardStrategy,
) -> Result<Vec<PathBuf>, ShardError> {
    let workload = workload.into();
    let plan = ShardPlan::new(workload.task_count(), k, strategy)?;
    let _span = wcs_telemetry::span("shard.plan")
        .with("name", workload.name())
        .with("k", k)
        .with("strategy", strategy.label())
        .with("tasks", workload.task_count())
        .start();
    std::fs::create_dir_all(dir)?;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("shard-")
            && (name.ends_with(".manifest.toml")
                || name.ends_with(".partial.csv")
                || name.ends_with(".hb"))
        {
            std::fs::remove_file(entry.path())?;
        }
    }
    let mut paths = Vec::with_capacity(k);
    for shard in 0..k {
        let path = manifest_path(dir, shard);
        ShardManifest::new(workload.clone(), &plan, shard).save(&path)?;
        let indices = plan.indices(shard);
        wcs_telemetry::value(
            "shard.planned",
            vec![
                ("shard".to_string(), wcs_telemetry::Value::U64(shard as u64)),
                (
                    "tasks".to_string(),
                    wcs_telemetry::Value::U64(indices.len() as u64),
                ),
                (
                    "start".to_string(),
                    wcs_telemetry::Value::U64(indices.first().copied().unwrap_or(0) as u64),
                ),
            ],
        );
        paths.push(path);
    }
    Ok(paths)
}

/// Re-emit one worker's run-log events through this process's collector,
/// each tagged with a `shard` field. The worker's `runlog.start` header
/// is skipped (this process's log already has one); its timestamps use
/// the worker's own epoch, so durations remain valid but absolute stamps
/// are only ordered within one shard. An unreadable or absent worker
/// log is silently skipped — telemetry never fails a run.
pub fn fold_worker_runlog(dir: &Path, shard: usize) {
    let path = worker_runlog_path(dir, shard);
    let Ok(log) = wcs_telemetry::jsonl::read_runlog(&path) else {
        return;
    };
    for mut event in log.events {
        event
            .fields
            .push(("shard".to_string(), wcs_telemetry::Value::U64(shard as u64)));
        wcs_telemetry::emit_event(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcs_runtime::Sweep;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wcs-driver-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_plan_covers_every_shard() {
        let dir = tmpdir("plan");
        let sweep = Sweep::new("drv").ds(&[10.0, 20.0, 30.0]).samples(100);
        let paths = write_plan(&dir, &sweep, 3, ShardStrategy::Strided).unwrap();
        assert_eq!(paths.len(), 3);
        assert_eq!(find_manifests(&dir).unwrap(), paths);
        let m = ShardManifest::load(&paths[2]).unwrap();
        assert_eq!(m.shard, 2);
        assert_eq!(m.k, 3);
        assert_eq!(m.workload.scenario_hash(), sweep.scenario_hash());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replanning_a_directory_removes_stale_shard_files() {
        // A k = 5 plan followed by a k = 3 plan in the same directory
        // must not leave shards 3 and 4 behind: the merge globs every
        // shard file and a stale one would poison the set.
        let dir = tmpdir("replan");
        let sweep = Sweep::new("drv")
            .ds(&[10.0, 20.0, 30.0, 40.0, 50.0])
            .samples(100);
        write_plan(&dir, &sweep, 5, ShardStrategy::Contiguous).unwrap();
        // Simulate a delivered partial from the old plan too.
        std::fs::write(partial_path(&dir, 4), "stale").unwrap();
        let paths = write_plan(&dir, &sweep, 3, ShardStrategy::Strided).unwrap();
        assert_eq!(paths.len(), 3);
        assert_eq!(find_manifests(&dir).unwrap(), paths);
        assert!(!manifest_path(&dir, 3).exists());
        assert!(!manifest_path(&dir, 4).exists());
        assert!(!partial_path(&dir, 4).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn paths_sort_with_shard_index() {
        let dir = PathBuf::from("/p");
        assert!(manifest_path(&dir, 2) < manifest_path(&dir, 10));
        assert!(partial_path(&dir, 9) < partial_path(&dir, 11));
    }
}
