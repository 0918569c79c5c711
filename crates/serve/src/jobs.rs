//! The job queue: bounded FIFO admission, (hash, seed) dedupe, and the
//! worker slots that run admitted workloads on the engine.
//!
//! A *job* is one submitted workload plus its lifecycle state. The queue
//! is the single synchronisation point of the daemon:
//!
//! * **dedupe** — a submission whose `(scenario_hash, seed)` key matches
//!   a live (non-failed) job returns that job instead of queuing a
//!   second copy, so N clients racing to POST the same spec share one
//!   computation and one cache entry, exactly like N processes sharing
//!   the on-disk cache;
//! * **bounded admission** — at most `cap` jobs may be queued-but-not-
//!   started; beyond that submissions are refused
//!   ([`Submit::QueueFull`], surfaced as HTTP 503) instead of buffering
//!   without limit;
//! * **FIFO dispatch** — worker slots pick jobs in submission order.
//!
//! Job completion is observable two ways: polling
//! ([`Job::state`]) and blocking ([`Job::wait_done`], what the SSE row
//! feed uses to hold the stream open until rows exist).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use wcs_runtime::{AnyWorkload, RunReport, WorkloadKind, WorkloadSpec};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, waiting for a worker slot.
    Queued,
    /// A worker slot is executing it.
    Running,
    /// Finished; the report (and its rows) are available.
    Done,
    /// Finished unsuccessfully (today: a strict-mode cache-store
    /// failure). The error text says why.
    Failed,
}

impl JobPhase {
    /// Stable lowercase label used in status JSON.
    pub fn label(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
        }
    }

    /// Whether the job will change no further.
    pub fn terminal(self) -> bool {
        matches!(self, JobPhase::Done | JobPhase::Failed)
    }
}

/// Mutable half of a job. Snapshot via [`Job::state`].
#[derive(Debug, Clone)]
pub struct JobState {
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Whether the result came from the results index.
    pub cache_hit: bool,
    /// Engine tasks actually run (0 on an index hit).
    pub tasks_run: usize,
    /// A cache store failed: the report is complete but was not
    /// persisted, so identical future submissions recompute.
    pub degraded: bool,
    /// Why the job failed, when it did.
    pub error: Option<String>,
    /// The finalized report, once done.
    pub report: Option<Arc<RunReport>>,
    /// Path of this job's own telemetry run log, when per-job logs are
    /// enabled.
    pub runlog: Option<std::path::PathBuf>,
    /// How many later submissions were deduped onto this job.
    pub dedupe_hits: u64,
    /// Submission timestamp (`wcs_telemetry::now_ns` clock).
    pub submitted_ns: u64,
    /// Completion timestamp, once terminal.
    pub finished_ns: Option<u64>,
}

/// One submitted workload and its lifecycle.
pub struct Job {
    /// Dense 1-based id, in submission order.
    pub id: u64,
    /// The workload to run (also carries name/kind/hash/seed identity).
    pub workload: AnyWorkload,
    /// `workload.task_count()`, computed once at admission: a sim
    /// sweep plans every testbed to count its tasks.
    pub task_count: usize,
    state: Mutex<JobState>,
    done: Condvar,
}

impl Job {
    /// Sanitized-free scenario name.
    pub fn scenario(&self) -> &str {
        self.workload.name()
    }

    /// Workload family.
    pub fn kind(&self) -> WorkloadKind {
        self.workload.kind()
    }

    /// Scenario-hash half of the dedupe/cache key.
    pub fn hash(&self) -> u64 {
        self.workload.scenario_hash()
    }

    /// Seed half of the dedupe/cache key.
    pub fn seed(&self) -> u64 {
        self.workload.seed()
    }

    /// Snapshot of the current state.
    pub fn state(&self) -> JobState {
        self.state.lock().unwrap().clone()
    }

    /// Block until the job is terminal; returns the final state.
    pub fn wait_done(&self) -> JobState {
        let mut st = self.state.lock().unwrap();
        while !st.phase.terminal() {
            st = self.done.wait(st).unwrap();
        }
        st.clone()
    }

    /// Transition to `Running` (worker slot picked it up).
    pub(crate) fn mark_running(&self) {
        self.state.lock().unwrap().phase = JobPhase::Running;
    }

    /// Transition to a terminal phase and wake every waiter.
    pub(crate) fn finish(&self, apply: impl FnOnce(&mut JobState)) {
        let mut st = self.state.lock().unwrap();
        apply(&mut st);
        st.finished_ns = Some(wcs_telemetry::now_ns());
        debug_assert!(st.phase.terminal());
        drop(st);
        self.done.notify_all();
    }

    pub(crate) fn set_runlog(&self, path: std::path::PathBuf) {
        self.state.lock().unwrap().runlog = Some(path);
    }
}

/// What a submission produced.
pub enum Submit {
    /// A new job was admitted.
    New(Arc<Job>),
    /// An identical live job already exists; this is it.
    Deduped(Arc<Job>),
    /// The queue is at capacity (HTTP 503).
    QueueFull,
}

struct QueueInner {
    next_id: u64,
    jobs: BTreeMap<u64, Arc<Job>>,
    by_key: HashMap<(u64, u64), u64>,
    fifo: VecDeque<u64>,
    shutdown: bool,
}

/// The bounded, deduping FIFO job queue.
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    work: Condvar,
    cap: usize,
}

impl JobQueue {
    /// A queue admitting at most `cap` waiting jobs.
    pub fn new(cap: usize) -> Arc<JobQueue> {
        Arc::new(JobQueue {
            inner: Mutex::new(QueueInner {
                next_id: 1,
                jobs: BTreeMap::new(),
                by_key: HashMap::new(),
                fifo: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            cap,
        })
    }

    /// Submit a workload: dedupe against live jobs, else admit FIFO.
    ///
    /// Dedupe key is the cache key, `(scenario_hash, seed)` — two specs
    /// with identical canonical hashes are the same computation, whatever
    /// their formatting. A *failed* prior job does not absorb new
    /// submissions: resubmitting after a failure queues a fresh attempt.
    pub fn submit(&self, workload: AnyWorkload) -> Submit {
        let key = (workload.scenario_hash(), workload.seed());
        let mut inner = self.inner.lock().unwrap();
        if let Some(&id) = inner.by_key.get(&key) {
            let job = inner.jobs[&id].clone();
            let mut st = job.state.lock().unwrap();
            if st.phase != JobPhase::Failed {
                st.dedupe_hits += 1;
                drop(st);
                return Submit::Deduped(job);
            }
        }
        if inner.fifo.len() >= self.cap {
            return Submit::QueueFull;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let job = Arc::new(Job {
            id,
            task_count: workload.task_count(),
            workload,
            state: Mutex::new(JobState {
                phase: JobPhase::Queued,
                cache_hit: false,
                tasks_run: 0,
                degraded: false,
                error: None,
                report: None,
                runlog: None,
                dedupe_hits: 0,
                submitted_ns: wcs_telemetry::now_ns(),
                finished_ns: None,
            }),
            done: Condvar::new(),
        });
        inner.jobs.insert(id, job.clone());
        inner.by_key.insert(key, id);
        inner.fifo.push_back(id);
        drop(inner);
        self.work.notify_one();
        Submit::New(job)
    }

    /// Look a job up by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.inner.lock().unwrap().jobs.get(&id).cloned()
    }

    /// Every job ever admitted, in id order.
    pub fn list(&self) -> Vec<Arc<Job>> {
        self.inner.lock().unwrap().jobs.values().cloned().collect()
    }

    /// Block until a job is ready (FIFO) or the queue shuts down.
    /// Worker slots loop on this; `None` means exit.
    pub fn next_job(&self) -> Option<Arc<Job>> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(id) = inner.fifo.pop_front() {
                return Some(inner.jobs[&id].clone());
            }
            if inner.shutdown {
                return None;
            }
            inner = self.work.wait(inner).unwrap();
        }
    }

    /// Wake every worker slot and make [`JobQueue::next_job`] drain:
    /// already-queued jobs still run, then workers exit.
    pub fn shutdown(&self) {
        self.inner.lock().unwrap().shutdown = true;
        self.work.notify_all();
    }

    /// Number of admitted-but-not-started jobs.
    pub fn queued(&self) -> usize {
        self.inner.lock().unwrap().fifo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcs_runtime::Sweep;

    fn wl(name: &str, seed: u64) -> AnyWorkload {
        AnyWorkload::from(Sweep::new(name).ds(&[10.0]).seed(seed))
    }

    #[test]
    fn queue_dedupes_and_bounds() {
        let q = JobQueue::new(2);
        let a = match q.submit(wl("a", 1)) {
            Submit::New(j) => j,
            _ => panic!("first submit must be new"),
        };
        // Same (hash, seed) → deduped onto the live job, not queued again.
        match q.submit(wl("a", 1)) {
            Submit::Deduped(j) => assert_eq!(j.id, a.id),
            _ => panic!("identical spec must dedupe"),
        }
        assert_eq!(a.state().dedupe_hits, 1);
        assert_eq!(q.queued(), 1);
        // Distinct jobs fill the two slots; the third is refused.
        assert!(matches!(q.submit(wl("b", 1)), Submit::New(_)));
        assert!(matches!(q.submit(wl("c", 1)), Submit::QueueFull));
        // Dedupe still works at capacity: it consumes no slot.
        assert!(matches!(q.submit(wl("a", 1)), Submit::Deduped(_)));
        // FIFO order.
        assert_eq!(q.next_job().unwrap().id, a.id);
        q.shutdown();
        assert!(q.next_job().is_some(), "queued jobs drain after shutdown");
        assert!(q.next_job().is_none(), "then workers exit");
    }

    #[test]
    fn failed_jobs_do_not_absorb_resubmissions() {
        let q = JobQueue::new(8);
        let a = match q.submit(wl("f", 7)) {
            Submit::New(j) => j,
            _ => panic!(),
        };
        a.finish(|st| {
            st.phase = JobPhase::Failed;
            st.error = Some("synthetic".to_string());
        });
        match q.submit(wl("f", 7)) {
            Submit::New(j) => assert_ne!(j.id, a.id),
            _ => panic!("a failed job must not dedupe new submissions"),
        }
    }

    #[test]
    fn wait_done_observes_finish() {
        let q = JobQueue::new(1);
        let job = match q.submit(wl("w", 3)) {
            Submit::New(j) => j,
            _ => panic!(),
        };
        let j2 = job.clone();
        let t = std::thread::spawn(move || j2.wait_done());
        job.mark_running();
        job.finish(|st| st.phase = JobPhase::Done);
        let st = t.join().unwrap();
        assert_eq!(st.phase, JobPhase::Done);
        assert!(st.finished_ns.is_some());
    }
}
