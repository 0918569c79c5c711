//! # wcs-shard — distributed sweep sharding
//!
//! `wcs-runtime` schedules a lowered [`Sweep`](wcs_runtime::Sweep)'s task
//! list across the threads of one process. This crate is the next rung of
//! the scale ladder: it partitions that same task list into **K shards**,
//! runs each shard in its own worker process (on one host or many), and
//! merges the per-shard partial reports in task-index order — producing
//! output **bitwise identical** to a single-process run at any
//! shard count × thread count. Tasks already carry their own derived RNG
//! seeds and their kernels are pure functions of the task, so slicing the
//! task list slices the report; the merge only has to reassemble slices
//! in order and refuse anything inconsistent.
//!
//! The moving parts:
//!
//! * a [`ShardPlan`] slicing the task index space into at most one
//!   shard per task, contiguously or strided ([`plan`]) — strided
//!   balances heterogeneous N-pair grids, where per-task cost grows
//!   O(N²), much better than contiguous slices (property-checked in
//!   [`plan`]'s tests),
//! * on-disk **shard manifests** ([`manifest`]): one TOML-ish file per
//!   shard that round-trips the full sweep spec (via
//!   [`wcs_runtime::spec`]) plus the shard coordinates, with the sweep's
//!   canonical hash embedded and re-verified on load,
//! * per-shard **partial reports** ([`partial`]): the shard's all-policy
//!   row blocks plus enough header metadata for the merge to validate
//!   them sight unseen,
//! * the **merge** ([`merge`]): index-order reassembly that refuses
//!   mismatched spec hashes, overlapping slices and gapped slices, then
//!   finalizes through the exact `run_workload` post-processing path and
//!   stores the reassembled full report in the shared
//!   [`ResultCache`](wcs_runtime::ResultCache) under the same key a
//!   single-process run would use, and
//! * the plan-directory layout and [`WorkerInvocation`] ([`driver`]):
//!   the argument vector of one `repro shard worker` run. This crate
//!   spawns no workers; `wcs-dispatch` launches them, as K local
//!   subprocesses (`repro shard run`) or across hosts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod manifest;
pub mod merge;
pub mod partial;
pub mod plan;

pub use driver::{
    fold_worker_runlog, heartbeat_path, manifest_path, partial_path, worker_runlog_path,
    write_manifests, write_plan, WorkerInvocation,
};
pub use manifest::ShardManifest;
pub use merge::{merge_dir, merge_dir_counted, merge_partials, MergeOutcome};
pub use partial::{partial_cache_name, PartialReport};
pub use plan::{ShardPlan, ShardStrategy};

/// Everything that can go wrong while planning, loading, or merging
/// shards. Plan/merge filesystem failures are folded in as
/// [`ShardError::Io`]. Worker failures are the dispatcher's business
/// (`wcs_dispatch::DispatchError`), not this crate's.
#[derive(Debug)]
pub enum ShardError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A manifest / partial / spec file failed to parse.
    Parse {
        /// Offending file.
        path: std::path::PathBuf,
        /// What was wrong.
        message: String,
    },
    /// A manifest's embedded spec hash disagrees with the hash of the
    /// sweep it carries — the file was edited or corrupted.
    HashMismatch {
        /// Offending file.
        path: std::path::PathBuf,
        /// Hash recorded in the file.
        recorded: u64,
        /// Hash of the spec the file actually round-trips.
        computed: u64,
    },
    /// Shards to be merged disagree on spec, seed, shard count,
    /// strategy, task count, or column layout.
    SpecMismatch(String),
    /// Artifacts of different workload kinds (model vs sim) were mixed:
    /// a manifest whose `[shard]` kind contradicts its spec body, or a
    /// merge across kinds.
    WorkloadMismatch {
        /// The kind the rest of the artifact set claims.
        expected: wcs_runtime::WorkloadKind,
        /// The kind actually found.
        found: wcs_runtime::WorkloadKind,
    },
    /// Two shards claim the same shard index (their slices overlap).
    Overlap {
        /// The duplicated shard index.
        shard: usize,
    },
    /// A shard index in `0..k` has no partial report (its slice is a
    /// gap in the merged index space).
    Gap {
        /// The missing shard index.
        shard: usize,
        /// Total shard count the set claims.
        k: usize,
    },
    /// A partial report's row count does not match its slice.
    BadShape(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "i/o: {e}"),
            ShardError::Parse { path, message } => {
                write!(f, "{}: {message}", path.display())
            }
            ShardError::HashMismatch {
                path,
                recorded,
                computed,
            } => write!(
                f,
                "{}: spec hash mismatch (file says {recorded:016x}, spec hashes to {computed:016x})",
                path.display()
            ),
            ShardError::SpecMismatch(msg) => write!(f, "shard set mismatch: {msg}"),
            ShardError::WorkloadMismatch { expected, found } => write!(
                f,
                "workload kind mismatch: expected {expected} shards, found {found} (model and sim artifacts cannot be mixed)"
            ),
            ShardError::Overlap { shard } => {
                write!(f, "overlapping shards: index {shard} appears more than once")
            }
            ShardError::Gap { shard, k } => {
                write!(f, "gapped shard set: index {shard} of {k} is missing")
            }
            ShardError::BadShape(msg) => write!(f, "malformed partial: {msg}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}
