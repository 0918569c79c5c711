//! Fault-injection integration tests: prove the dispatcher's central
//! promise — workers can die, spawns can fail, heartbeats can go
//! silent, and the merged report is still **byte-identical** to a
//! single-process run; and when a shard exhausts its retry budget the
//! failure is the structured [`DispatchError::Exhausted`].
//!
//! Workers here are threads, not subprocesses (a `ThreadExec`
//! transport running `wcs_shard::partial::run_worker` directly), so the
//! tests stay fast and free of binary-path plumbing; the CLI-level
//! subprocess path is covered by `crates/bench/tests/dispatch_cli.rs`
//! and the CI `dispatch-smoke` job.

use std::io;
use std::sync::Mutex;
use std::time::Duration;
use wcs_dispatch::{
    BackoffPolicy, DispatchError, DispatchOptions, Dispatcher, Fault, FaultyTransport,
    HeartbeatWriter, Host, HostPool, SpawnRequest, Transport, WorkerHandle, WorkerStatus,
};
use wcs_runtime::{AnyWorkload, Engine, Sweep};
use wcs_shard::{ShardManifest, ShardStrategy};

fn sweep() -> Sweep {
    Sweep::new("dispatch-it")
        .ds(&[10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        .samples(60)
}

/// The single-process reference bytes every dispatch run must match.
fn serial_csv() -> String {
    AnyWorkload::Model(sweep())
        .run(&Engine::new(1), None)
        .report
        .to_csv()
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wcs-dispatch-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fast_options() -> DispatchOptions {
    DispatchOptions {
        threads_per_worker: 1,
        poll_interval: Duration::from_millis(2),
        heartbeat_ms: 5,
        backoff: BackoffPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(10),
            seed: 42,
        },
        ..DispatchOptions::default()
    }
}

/// In-process transport: each "worker" is a thread running the real
/// `run_worker` over the manifest, with its own heartbeat writes —
/// exactly the work a subprocess worker does, minus the exec.
struct ThreadExec;

struct ThreadHandle {
    join: Option<std::thread::JoinHandle<Result<(), String>>>,
    result: Option<WorkerStatus>,
}

impl Transport for ThreadExec {
    fn label(&self) -> &'static str {
        "thread"
    }

    fn spawn(&self, _host: &Host, req: &SpawnRequest) -> io::Result<Box<dyn WorkerHandle>> {
        let inv = req.invocation.clone();
        let join = std::thread::spawn(move || {
            let _hb = inv.heartbeat.clone().map(|path| {
                HeartbeatWriter::start(path, Duration::from_millis(inv.heartbeat_ms.max(1)))
            });
            let manifest = ShardManifest::load(&inv.manifest).map_err(|e| e.to_string())?;
            let engine = Engine::new(inv.threads);
            let cache = inv.cache_dir.clone().map(wcs_runtime::ResultCache::new);
            let cache_ref = cache.as_ref().map(|c| c as &dyn wcs_runtime::ResultIndex);
            let partial = wcs_shard::partial::run_worker(&manifest, &engine, cache_ref)
                .map_err(|e| e.to_string())?;
            let dir = inv
                .manifest
                .parent()
                .ok_or_else(|| "manifest has no parent".to_string())?;
            partial
                .save(&wcs_shard::partial_path(dir, manifest.shard))
                .map_err(|e| e.to_string())
        });
        Ok(Box::new(ThreadHandle {
            join: Some(join),
            result: None,
        }))
    }
}

impl WorkerHandle for ThreadHandle {
    fn poll(&mut self) -> WorkerStatus {
        if let Some(st) = &self.result {
            return st.clone();
        }
        let finished = self.join.as_ref().is_some_and(|j| j.is_finished());
        if !finished {
            return WorkerStatus::Running;
        }
        let st = match self.join.take().expect("not yet joined").join() {
            Ok(Ok(())) => WorkerStatus::Exited {
                success: true,
                detail: "ok".to_string(),
            },
            Ok(Err(e)) => WorkerStatus::Exited {
                success: false,
                detail: e,
            },
            Err(_) => WorkerStatus::Exited {
                success: false,
                detail: "worker thread panicked".to_string(),
            },
        };
        self.result = Some(st.clone());
        st
    }

    fn kill(&mut self) {
        // Threads cannot be killed; wait them out and report failure so
        // the dispatcher's accounting stays truthful.
        if let Some(j) = self.join.take() {
            let _ = j.join();
            self.result = Some(WorkerStatus::Exited {
                success: false,
                detail: "killed".to_string(),
            });
        }
    }
}

#[test]
fn requeue_after_death_is_bitwise_identical_at_k2_and_k3() {
    let want = serial_csv();
    for k in [2usize, 3] {
        let dir = tmpdir(&format!("kill-k{k}"));
        // Kill shard 1's first attempt at its very first heartbeat.
        let transport = FaultyTransport::new(Box::new(ThreadExec)).with_fault(
            1,
            1,
            Fault::KillAfterBeats { beats: 0 },
        );
        let pool = HostPool::local(k);
        let dispatcher = Dispatcher::new(&transport, &pool, fast_options());
        let outcome = dispatcher
            .run(&dir, sweep(), k, ShardStrategy::Contiguous, None)
            .unwrap_or_else(|e| panic!("k={k}: {e}"));
        assert_eq!(
            outcome.merge.report.to_csv(),
            want,
            "k={k}: dispatch output diverged from the single-process run"
        );
        assert!(outcome.stats.deaths >= 1, "k={k}: the kill fault must fire");
        assert!(
            outcome.stats.requeues >= 1,
            "k={k}: the dead shard must requeue"
        );
        assert_eq!(outcome.merge.shards, k);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn transient_spawn_failure_retries_with_backoff_and_still_matches() {
    let want = serial_csv();
    let dir = tmpdir("spawn-retry");
    // Shard 0's first spawn fails; its second succeeds.
    let transport =
        FaultyTransport::new(Box::new(ThreadExec)).with_fault(0, 1, Fault::FailSpawn { times: 1 });
    let pool = HostPool::local(2);
    let dispatcher = Dispatcher::new(&transport, &pool, fast_options());
    let outcome = dispatcher
        .run(&dir, sweep(), 2, ShardStrategy::Contiguous, None)
        .expect("one transient spawn failure must not fail the run");
    assert_eq!(outcome.merge.report.to_csv(), want);
    assert_eq!(outcome.stats.retries, 1);
    assert_eq!(outcome.stats.deaths, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn give_up_after_max_retries_is_structured() {
    let dir = tmpdir("giveup");
    // max_retries = 2 → 3 attempts; fail all three spawns of shard 0.
    let mut transport = FaultyTransport::new(Box::new(ThreadExec));
    transport.add_spec("spawn-fail:0x3").unwrap();
    let pool = HostPool::local(2);
    let dispatcher = Dispatcher::new(&transport, &pool, fast_options());
    let err = dispatcher
        .run(&dir, sweep(), 2, ShardStrategy::Contiguous, None)
        .expect_err("shard 0 must exhaust its retry budget");
    match &err {
        DispatchError::Exhausted {
            shard,
            attempts,
            last,
        } => {
            assert_eq!(*shard, 0);
            assert_eq!(*attempts, 3);
            assert!(last.contains("injected spawn failure"), "{last}");
        }
        other => panic!("expected Exhausted, got {other}"),
    }
    let rendered = err.to_string();
    assert!(
        rendered.contains("gave up on shard 0 after 3 attempt(s)"),
        "{rendered}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Transport decorator whose chosen (shard, attempt) hangs forever
/// without heartbeats — the deterministic stand-in for a worker whose
/// host fell off the network.
struct HangFirst {
    inner: ThreadExec,
    hung: Mutex<Vec<(usize, usize)>>,
}

struct HungHandle {
    killed: bool,
}

impl Transport for HangFirst {
    fn label(&self) -> &'static str {
        "hang-first"
    }

    fn spawn(&self, host: &Host, req: &SpawnRequest) -> io::Result<Box<dyn WorkerHandle>> {
        if self
            .hung
            .lock()
            .unwrap()
            .contains(&(req.shard, req.attempt))
        {
            return Ok(Box::new(HungHandle { killed: false }));
        }
        self.inner.spawn(host, req)
    }
}

impl WorkerHandle for HungHandle {
    fn poll(&mut self) -> WorkerStatus {
        if self.killed {
            WorkerStatus::Exited {
                success: false,
                detail: "killed while hung".to_string(),
            }
        } else {
            WorkerStatus::Running
        }
    }

    fn kill(&mut self) {
        self.killed = true;
    }
}

#[test]
fn heartbeat_silence_declares_the_worker_dead_and_requeues() {
    let want = serial_csv();
    let dir = tmpdir("silent");
    let transport = HangFirst {
        inner: ThreadExec,
        hung: Mutex::new(vec![(0, 1)]),
    };
    let pool = HostPool::local(2);
    let options = DispatchOptions {
        heartbeat_timeout: Duration::from_millis(150),
        ..fast_options()
    };
    let dispatcher = Dispatcher::new(&transport, &pool, options);
    let outcome = dispatcher
        .run(&dir, sweep(), 2, ShardStrategy::Contiguous, None)
        .expect("a silent worker must be replaced, not waited on forever");
    assert_eq!(outcome.merge.report.to_csv(), want);
    assert_eq!(outcome.stats.deaths, 1);
    assert_eq!(outcome.stats.requeues, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
