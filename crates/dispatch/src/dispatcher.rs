//! The dispatcher state machine: deal shards to slots, watch
//! heartbeats, requeue the dead, back off on flaky spawns.
//!
//! One [`Dispatcher::run`] call owns the whole plan → fleet → merge
//! pipeline. Internally every shard attempt moves through three states:
//!
//! ```text
//! pending ──spawn ok──▶ running ──exit 0 + partial──▶ delivered
//!    ▲ │                   │
//!    │ └─spawn err:        ├─exit nonzero / no partial: requeue now
//!    │   backoff delay     └─heartbeat silent > timeout: kill, requeue
//!    └──────────────── attempt+1 (until max retries, then give up)
//! ```
//!
//! Deaths requeue immediately (the slot just freed is usually the best
//! place to rerun); only *spawn* failures back off, because those are
//! the ones that recur instantly if retried instantly. Because shard
//! partials are pure functions of their manifests, a rerun writes
//! byte-identical output and the final merge is bitwise identical to a
//! single-process sweep no matter how many attempts it took — and the
//! per-shard partial cache makes reruns cheap.

use crate::backoff::BackoffPolicy;
use crate::hosts::HostPool;
use crate::transport::{SpawnRequest, Transport, WorkerStatus};
use crate::DispatchError;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wcs_runtime::{AnyWorkload, WorkloadSpec};
use wcs_shard::{
    fold_worker_runlog, heartbeat_path, manifest_path, merge_dir_counted, partial_path,
    worker_runlog_path, MergeOutcome, ShardPlan, ShardStrategy, WorkerInvocation,
};
use wcs_telemetry::metrics::{gauge_add, record_ns, GaugeId, HistId};
use wcs_telemetry::Value;

/// Knobs of a dispatch run beyond the plan itself.
#[derive(Debug, Clone)]
pub struct DispatchOptions {
    /// `--threads` per worker; 0 splits the local cores across the
    /// pool's total slots.
    pub threads_per_worker: usize,
    /// Retries per shard after its first attempt (so a shard is tried
    /// at most `max_retries + 1` times).
    pub max_retries: usize,
    /// A running worker whose heartbeat file has not advanced for this
    /// long is declared dead and requeued.
    pub heartbeat_timeout: Duration,
    /// Beat period handed to workers (`--heartbeat-ms`).
    pub heartbeat_ms: u64,
    /// Dispatcher poll loop period.
    pub poll_interval: Duration,
    /// Spawn-failure retry delays.
    pub backoff: BackoffPolicy,
    /// Forward `--strict-cache` to workers.
    pub strict_cache: bool,
    /// Hand each worker a run log and fold it into this process's
    /// collector once the attempt delivers.
    pub worker_telemetry: bool,
}

impl Default for DispatchOptions {
    fn default() -> Self {
        DispatchOptions {
            threads_per_worker: 0,
            max_retries: 2,
            heartbeat_timeout: Duration::from_secs(10),
            heartbeat_ms: crate::heartbeat::DEFAULT_INTERVAL_MS,
            poll_interval: Duration::from_millis(10),
            backoff: BackoffPolicy::default(),
            strict_cache: false,
            worker_telemetry: false,
        }
    }
}

/// Tallies of what a dispatch run had to do to finish.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DispatchStats {
    /// Worker launches that succeeded (first tries and reruns).
    pub assignments: u64,
    /// Shards put back on the queue after a worker died.
    pub requeues: u64,
    /// Spawn failures retried with backoff.
    pub retries: u64,
    /// Workers that died: nonzero exit, vanished partial, or heartbeat
    /// silence.
    pub deaths: u64,
}

/// What [`Dispatcher::run`] hands back on success.
#[derive(Debug)]
pub struct DispatchOutcome {
    /// The merged full report (identical to a single-process run).
    pub merge: MergeOutcome,
    /// How eventful getting there was.
    pub stats: DispatchStats,
}

/// A shard attempt waiting for a slot.
struct Pending {
    shard: usize,
    attempt: usize,
    eligible: Instant,
}

/// A live worker being watched.
struct Running {
    shard: usize,
    attempt: usize,
    slot: usize,
    handle: Box<dyn crate::transport::WorkerHandle>,
    hb_path: PathBuf,
    last_seq: Option<u64>,
    last_beat: Instant,
    spawned: Instant,
}

/// The multi-host shard dispatcher. Construct with a transport and a
/// host pool, then [`run`](Dispatcher::run) plans end to end.
pub struct Dispatcher<'a> {
    transport: &'a dyn Transport,
    pool: &'a HostPool,
    options: DispatchOptions,
}

impl<'a> Dispatcher<'a> {
    /// A dispatcher dealing onto `pool` through `transport`.
    pub fn new(
        transport: &'a dyn Transport,
        pool: &'a HostPool,
        options: DispatchOptions,
    ) -> Dispatcher<'a> {
        Dispatcher {
            transport,
            pool,
            options,
        }
    }

    /// Plan `workload` into at most `k` shards (one per task) under
    /// `dir`, run every shard to delivery (retrying/requeuing as
    /// needed), and merge. The merged report is bitwise identical to a
    /// single-process run of the same workload.
    pub fn run(
        &self,
        dir: &Path,
        workload: impl Into<AnyWorkload>,
        k: usize,
        strategy: ShardStrategy,
        cache: Option<&wcs_runtime::ResultCache>,
    ) -> Result<DispatchOutcome, DispatchError> {
        let workload: AnyWorkload = workload.into();
        let plan = ShardPlan::new(workload.task_count(), k, strategy)?;
        self.run_plan(dir, &workload, &plan, cache)
    }

    /// [`Dispatcher::run`] for a `plan` the caller built from
    /// `workload`'s task count. That count is the only one a dispatch
    /// takes: the merge checks the shard set against it. Every shard
    /// goes to a worker.
    pub fn run_plan(
        &self,
        dir: &Path,
        workload: &AnyWorkload,
        plan: &ShardPlan,
        cache: Option<&wcs_runtime::ResultCache>,
    ) -> Result<DispatchOutcome, DispatchError> {
        let total_slots = self.pool.total_slots();
        if total_slots == 0 {
            return Err(DispatchError::NoHosts);
        }
        let k = plan.k;
        let _span = wcs_telemetry::span("dispatch.run")
            .with("name", workload.name())
            .with("k", k)
            .with("slots", total_slots)
            .with("transport", self.transport.label())
            .start();
        wcs_shard::write_manifests(dir, workload, plan)?;
        let mut pending: VecDeque<Pending> = (0..k)
            .map(|shard| Pending {
                shard,
                attempt: 1,
                eligible: Instant::now(),
            })
            .collect();

        // Flatten the pool into slots; slot i belongs to host slot_host[i].
        let mut slot_host = Vec::with_capacity(total_slots);
        for (h, host) in self.pool.hosts.iter().enumerate() {
            for _ in 0..host.slots {
                slot_host.push(h);
            }
        }
        let threads = if self.options.threads_per_worker == 0 {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            (cores / total_slots).max(1)
        } else {
            self.options.threads_per_worker
        };
        let max_attempts = self.options.max_retries + 1;

        let mut free: VecDeque<usize> = (0..slot_host.len()).collect();
        let mut running: Vec<Running> = Vec::new();
        let mut stats = DispatchStats::default();
        let mut delivered = 0usize;

        while delivered < k {
            let now = Instant::now();

            // Assign eligible pending shards to free slots. Not-yet-
            // eligible (backing-off) entries cycle into `deferred` so
            // the loop always drains `pending` and terminates.
            let mut deferred: VecDeque<Pending> = VecDeque::new();
            while !free.is_empty() {
                let Some(p) = pending.pop_front() else { break };
                if p.eligible > now {
                    deferred.push_back(p);
                    continue;
                }
                let slot = free.pop_front().expect("checked non-empty");
                let host = &self.pool.hosts[slot_host[slot]];
                let hb_path = heartbeat_path(dir, p.shard);
                let _ = std::fs::remove_file(&hb_path);
                let req = SpawnRequest {
                    shard: p.shard,
                    attempt: p.attempt,
                    invocation: WorkerInvocation {
                        manifest: manifest_path(dir, p.shard),
                        threads,
                        cache_dir: cache.map(|c| c.dir().to_path_buf()),
                        strict_cache: self.options.strict_cache,
                        telemetry: self
                            .options
                            .worker_telemetry
                            .then(|| worker_runlog_path(dir, p.shard)),
                        heartbeat: Some(hb_path.clone()),
                        heartbeat_ms: self.options.heartbeat_ms,
                    },
                };
                match self.transport.spawn(host, &req) {
                    Ok(handle) => {
                        stats.assignments += 1;
                        gauge_add(GaugeId::DispatchWorkersLive, 1);
                        wcs_telemetry::value(
                            "dispatch.assign",
                            vec![
                                ("shard".to_string(), Value::U64(p.shard as u64)),
                                ("host".to_string(), Value::Str(host.label.clone())),
                                ("attempt".to_string(), Value::U64(p.attempt as u64)),
                            ],
                        );
                        running.push(Running {
                            shard: p.shard,
                            attempt: p.attempt,
                            slot,
                            handle,
                            hb_path,
                            last_seq: None,
                            last_beat: Instant::now(),
                            spawned: Instant::now(),
                        });
                    }
                    Err(e) => {
                        free.push_back(slot);
                        if p.attempt >= max_attempts {
                            return Err(self.give_up(
                                dir,
                                &mut running,
                                p.shard,
                                p.attempt,
                                e.to_string(),
                            ));
                        }
                        let delay = self.options.backoff.delay(p.shard, p.attempt);
                        stats.retries += 1;
                        wcs_telemetry::value(
                            "dispatch.retry",
                            vec![
                                ("shard".to_string(), Value::U64(p.shard as u64)),
                                ("host".to_string(), Value::Str(host.label.clone())),
                                ("attempt".to_string(), Value::U64(p.attempt as u64)),
                                ("delay_ms".to_string(), Value::U64(delay.as_millis() as u64)),
                                ("error".to_string(), Value::Str(e.to_string())),
                            ],
                        );
                        deferred.push_back(Pending {
                            shard: p.shard,
                            attempt: p.attempt + 1,
                            eligible: Instant::now() + delay,
                        });
                    }
                }
            }
            pending.append(&mut deferred);

            // Poll the fleet.
            let mut idx = 0;
            while idx < running.len() {
                let w = &mut running[idx];
                if let Some(seq) = crate::heartbeat::read_beat(&w.hb_path) {
                    if w.last_seq != Some(seq) {
                        let gap_ns = w.last_beat.elapsed().as_nanos() as u64;
                        let host = &self.pool.hosts[slot_host[w.slot]];
                        wcs_telemetry::value(
                            "dispatch.heartbeat",
                            vec![
                                ("shard".to_string(), Value::U64(w.shard as u64)),
                                ("host".to_string(), Value::Str(host.label.clone())),
                                ("seq".to_string(), Value::U64(seq)),
                                ("gap_ns".to_string(), Value::U64(gap_ns)),
                            ],
                        );
                        w.last_seq = Some(seq);
                        w.last_beat = Instant::now();
                    }
                }
                // `failure` is None when the attempt delivered, Some
                // with (detail, reason) when the worker is dead.
                let failure: Option<(String, &'static str)> = match w.handle.poll() {
                    WorkerStatus::Running => {
                        if w.last_beat.elapsed() > self.options.heartbeat_timeout {
                            let silent_ns = w.last_beat.elapsed().as_nanos() as u64;
                            w.handle.kill();
                            Some((format!("heartbeat silent for {silent_ns} ns"), "silent"))
                        } else {
                            idx += 1;
                            continue;
                        }
                    }
                    WorkerStatus::Exited { success, detail } => {
                        let dur_ns = w.spawned.elapsed().as_nanos() as u64;
                        record_ns(HistId::DispatchShard, dur_ns);
                        let host = &self.pool.hosts[slot_host[w.slot]];
                        let partial = partial_path(dir, w.shard);
                        let verdict = if success {
                            // Pull artifacts back before judging: on a
                            // fetch-ful host the partial only exists
                            // here after the fetch.
                            let mut fetched = self.transport.fetch(host, &partial);
                            if fetched.is_ok() && self.options.worker_telemetry {
                                fetched = self
                                    .transport
                                    .fetch(host, &worker_runlog_path(dir, w.shard));
                            }
                            match fetched {
                                Ok(()) if partial.exists() => Ok(()),
                                Ok(()) => Err("exited 0 but wrote no partial".to_string()),
                                Err(e) => Err(format!("artifact fetch failed: {e}")),
                            }
                        } else {
                            Err(detail)
                        };
                        wcs_telemetry::value(
                            "dispatch.shard",
                            vec![
                                ("shard".to_string(), Value::U64(w.shard as u64)),
                                ("host".to_string(), Value::Str(host.label.clone())),
                                ("attempt".to_string(), Value::U64(w.attempt as u64)),
                                ("ok".to_string(), Value::Bool(verdict.is_ok())),
                                ("dur_ns".to_string(), Value::U64(dur_ns)),
                            ],
                        );
                        match verdict {
                            Ok(()) => {
                                if self.options.worker_telemetry {
                                    fold_worker_runlog(dir, w.shard);
                                }
                                delivered += 1;
                                None
                            }
                            Err(detail) => Some((detail, "exit")),
                        }
                    }
                };
                let w = running.swap_remove(idx);
                gauge_add(GaugeId::DispatchWorkersLive, -1);
                free.push_back(w.slot);
                let Some((detail, reason)) = failure else {
                    continue;
                };
                stats.deaths += 1;
                let host = &self.pool.hosts[slot_host[w.slot]];
                wcs_telemetry::warn_with(
                    "dispatch.dead",
                    &format!("shard {} worker died on {}: {detail}", w.shard, host.label),
                    vec![
                        ("shard".to_string(), Value::U64(w.shard as u64)),
                        ("host".to_string(), Value::Str(host.label.clone())),
                        ("attempt".to_string(), Value::U64(w.attempt as u64)),
                        ("reason".to_string(), Value::Str(reason.to_string())),
                    ],
                );
                // A dead worker may have left a torn partial behind;
                // remove it so a half-written file can never survive
                // into the merge. (A *finished* rerun rewrites the same
                // bytes anyway — partials are pure.)
                let _ = std::fs::remove_file(partial_path(dir, w.shard));
                let _ = std::fs::remove_file(&w.hb_path);
                if w.attempt >= max_attempts {
                    return Err(self.give_up(dir, &mut running, w.shard, w.attempt, detail));
                }
                stats.requeues += 1;
                wcs_telemetry::value(
                    "dispatch.requeue",
                    vec![
                        ("shard".to_string(), Value::U64(w.shard as u64)),
                        ("attempt".to_string(), Value::U64(w.attempt as u64)),
                    ],
                );
                pending.push_back(Pending {
                    shard: w.shard,
                    attempt: w.attempt + 1,
                    eligible: Instant::now(), // deaths rerun immediately
                });
            }

            if delivered < k {
                std::thread::sleep(self.options.poll_interval);
            }
        }

        let merge = merge_dir_counted(
            dir,
            cache.map(|c| c as &dyn wcs_runtime::ResultIndex),
            Some(plan.task_count),
        )?;
        Ok(DispatchOutcome { merge, stats })
    }

    /// Tear the fleet down and produce the structured give-up error.
    fn give_up(
        &self,
        dir: &Path,
        running: &mut Vec<Running>,
        shard: usize,
        attempts: usize,
        last: String,
    ) -> DispatchError {
        for w in running.iter_mut() {
            w.handle.kill();
            gauge_add(GaugeId::DispatchWorkersLive, -1);
            let _ = std::fs::remove_file(partial_path(dir, w.shard));
            let _ = std::fs::remove_file(&w.hb_path);
        }
        running.clear();
        wcs_telemetry::warn_with(
            "dispatch.giveup",
            &format!("gave up on shard {shard} after {attempts} attempt(s): {last}"),
            vec![
                ("shard".to_string(), Value::U64(shard as u64)),
                ("attempts".to_string(), Value::U64(attempts as u64)),
                ("last".to_string(), Value::Str(last.clone())),
            ],
        );
        DispatchError::Exhausted {
            shard,
            attempts,
            last,
        }
    }
}
