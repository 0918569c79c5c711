//! Per-shard partial reports: their one writer
//! ([`PartialReport::to_text`]), their one reader
//! ([`PartialReport::parse`]) and the one gate every partial passes.
//!
//! A worker writes one partial file: a `#`-comment header carrying the
//! workload kind, the canonical spec string, seed, shard coordinates and
//! strategy, then the shard's full row blocks (the cache's row form, not
//! the finalized presentation form). The header lets the merge validate
//! a directory of partials sight unseen before it trusts a single row:
//! each partial must match the manifest of the shard it claims to be
//! (`PartialReport::gate`), whether it was read from a plan directory or
//! from the index, and then the set must tile the plan ([`crate::merge`]).
//!
//! Workers also **cache their partials** in the shared results index
//! (as named blobs keyed by (scenario, hash, seed, plan, shard)): if a
//! plan directory is lost or a merge is re-run after one lost worker,
//! every shard whose partial is already in the index is served from it
//! and only the missing shard recomputes.

use crate::manifest::ShardManifest;
use crate::plan::ShardStrategy;
use crate::ShardError;
use std::path::Path;
use wcs_runtime::{sanitize_name, Engine, ResultIndex, RunReport, WorkloadKind, WorkloadSpec};

/// Magic first line of every partial file.
pub const PARTIAL_MAGIC: &str = "# wcs-shard partial v1";

/// One shard's computed slice of a workload, plus the header metadata
/// the merge validates.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialReport {
    /// Which workload family computed this shard (model and sim partials
    /// can never be merged together).
    pub kind: WorkloadKind,
    /// The workload's canonical spec string (not just its hash: equality
    /// of the full string is what the merge checks, so a 64-bit
    /// collision cannot splice two different workloads).
    pub spec: String,
    /// The workload's root seed.
    pub seed: u64,
    /// This shard's index in `0..k`.
    pub shard: usize,
    /// Total shard count of the plan.
    pub k: usize,
    /// The plan's dealing strategy.
    pub strategy: ShardStrategy,
    /// The workload's total task count.
    pub task_count: usize,
    /// The shard's full row blocks, in ascending task-index order.
    pub report: RunReport,
}

/// The shared-cache blob name under which this manifest's partial is
/// stored: every component of the identity (scenario, spec hash, seed,
/// plan shape, shard index) is in the name, so a changed plan can never
/// alias an old partial.
pub fn partial_cache_name(manifest: &ShardManifest) -> String {
    format!(
        "{}-{:016x}-{:016x}-k{}-{}-{:04}.partial.csv",
        sanitize_name(manifest.workload.name()),
        manifest.workload.scenario_hash(),
        manifest.workload.seed(),
        manifest.k,
        manifest.strategy.label(),
        manifest.shard
    )
}

/// The cached partial blob of this manifest's shard, if one exists and
/// passes the gate. Shared by [`run_worker`] and the merge's lost-file
/// fallback.
pub(crate) fn load_cached_partial(
    index: &dyn ResultIndex,
    manifest: &ShardManifest,
) -> Option<PartialReport> {
    let name = partial_cache_name(manifest);
    let text = index.load_blob(&name)?;
    PartialReport::parse(&text, Path::new(&name))
        .and_then(|partial| partial.gate(manifest))
        .ok()
}

/// Execute a manifest's slice and package the result. When the results
/// `index` holds the **full** workload's entry (stored by a previous
/// merged or single-process run), the shard's row blocks are sliced
/// straight out of it; failing that, a cached per-shard partial (stored
/// by a previous worker run of this exact plan) is served. Either way
/// the bytes are what a recompute would produce, since stored entries
/// round-trip bitwise. Freshly computed partials are stored back as
/// index blobs so a later re-run of this plan only recomputes shards the
/// index has never seen.
///
/// This is where the manifest's task count is checked, once, against
/// what the worker holds: the full report it slices, or the task list
/// it lowers to compute. Every shard holds at least one task (bar the
/// one shard of a zero-task workload, which lowers its empty list all
/// the same), so every worker checks. A wrong count is refused before
/// any task runs. A cached partial passes the gate only with the
/// manifest's count, and only a worker that checked it stores one.
pub fn run_worker(
    manifest: &ShardManifest,
    engine: &Engine,
    index: Option<&dyn ResultIndex>,
) -> Result<PartialReport, ShardError> {
    let w = &manifest.workload;
    let mut span = wcs_telemetry::span("shard.worker")
        .with("shard", manifest.shard)
        .with("k", manifest.k)
        .with("name", w.name())
        .start();
    let indices = manifest.indices();
    let columns = w.columns();
    let rows_per_task = w.kind().rows_per_task();
    let package = |report: RunReport| PartialReport {
        kind: w.kind(),
        spec: w.canonical(),
        seed: w.seed(),
        shard: manifest.shard,
        k: manifest.k,
        strategy: manifest.strategy,
        task_count: manifest.task_count,
        report,
    };
    // Named in a count error: the worker is not told the manifest's path.
    let manifest_file = crate::driver::manifest_path(Path::new(""), manifest.shard);
    if let Some(index) = index {
        let full = index
            .load_report(w)
            .filter(|full| full.columns == columns && full.rows.len() % rows_per_task == 0);
        if let Some(full) = full {
            manifest.check_task_count(full.rows.len() / rows_per_task, &manifest_file)?;
            let mut sliced = RunReport::new(w.name(), &columns);
            for &i in &indices {
                for row in &full.rows[i * rows_per_task..(i + 1) * rows_per_task] {
                    sliced.push_row(row.clone());
                }
            }
            span.add("source", "cache-full-slice");
            return Ok(package(sliced));
        }
        if let Some(partial) = load_cached_partial(index, manifest) {
            span.add("source", "cache-partial");
            return Ok(partial);
        }
    }
    span.add("source", "computed");
    let report = w
        .run_subset(&indices, manifest.task_count, engine)
        .map_err(|counted| manifest.count_mismatch(counted, &manifest_file))?;
    let partial = package(report);
    if let Some(index) = index {
        // Same tolerance as full-report stores: warn (mirrored to
        // stderr, counted for --strict-cache), never fail.
        if let Err(e) = index.store_blob(&partial_cache_name(manifest), &partial.to_text()) {
            wcs_telemetry::warn_with(
                "shard.partial_store_failed",
                &format!(
                    "warning: failed to store shard partial in {}: {e}",
                    index.describe()
                ),
                vec![(
                    "shard".to_string(),
                    wcs_telemetry::Value::U64(manifest.shard as u64),
                )],
            );
        }
    }
    Ok(partial)
}

impl PartialReport {
    /// The gate every partial passes before a worker or a merge trusts
    /// it: the partial must match `manifest`, the shard it claims to be,
    /// on kind, spec, seed, shard, k, strategy, task count, column layout
    /// and row count. The error names the first field that differs.
    pub(crate) fn gate(self, manifest: &ShardManifest) -> Result<Self, ShardError> {
        let w = &manifest.workload;
        let rows = manifest.indices().len() * w.kind().rows_per_task();
        let differs = [
            ("kind", self.kind != w.kind()),
            ("spec", self.spec != w.canonical()),
            ("seed", self.seed != w.seed()),
            ("shard", self.shard != manifest.shard),
            ("k", self.k != manifest.k),
            ("strategy", self.strategy != manifest.strategy),
            ("task_count", self.task_count != manifest.task_count),
            ("columns", self.report.columns != w.columns()),
            ("row count", self.report.rows.len() != rows),
        ]
        .into_iter()
        .find_map(|(field, differs)| differs.then_some(field));
        match differs {
            None => Ok(self),
            Some(field) => Err(ShardError::SpecMismatch(format!(
                "the partial for shard {} differs from its manifest in {field}",
                manifest.shard
            ))),
        }
    }

    /// Serialize to the partial file format.
    pub fn to_text(&self) -> String {
        format!(
            "{PARTIAL_MAGIC}\n\
             # workload: {}\n\
             # spec: {}\n\
             # seed: {}\n\
             # shard: {}/{}\n\
             # strategy: {}\n\
             # task_count: {}\n{}",
            self.kind.label(),
            self.spec,
            self.seed,
            self.shard,
            self.k,
            self.strategy.label(),
            self.task_count,
            self.report.to_csv(),
        )
    }

    /// Parse a partial document. `path` is only used for error messages.
    /// Partials written before the workload redesign (no `# workload:`
    /// line) parse as model partials.
    pub fn parse(text: &str, path: &Path) -> Result<Self, ShardError> {
        let parse_err = |message: String| ShardError::Parse {
            path: path.to_path_buf(),
            message,
        };
        let mut lines = text.lines().peekable();
        if lines.next().map(str::trim) != Some(PARTIAL_MAGIC) {
            return Err(parse_err(format!(
                "not a shard partial (missing '{PARTIAL_MAGIC}' first line)"
            )));
        }
        let kind = match lines.peek().and_then(|l| l.strip_prefix("# workload: ")) {
            Some(label) => {
                let kind = WorkloadKind::from_label(label).ok_or_else(|| {
                    parse_err(format!(
                        "unknown workload '{label}' (known workloads: model, sim)"
                    ))
                })?;
                lines.next();
                kind
            }
            None => WorkloadKind::Model,
        };
        let mut take = |prefix: &str| -> Result<String, ShardError> {
            lines
                .next()
                .and_then(|l| l.strip_prefix(prefix))
                .map(str::to_string)
                .ok_or_else(|| parse_err(format!("missing '{prefix}' header line")))
        };
        let spec = take("# spec: ")?;
        let seed = take("# seed: ")?
            .parse::<u64>()
            .map_err(|_| parse_err("bad seed".into()))?;
        let shard_of_k = take("# shard: ")?;
        let (shard, k) = shard_of_k
            .split_once('/')
            .and_then(|(s, k)| Some((s.parse::<usize>().ok()?, k.parse::<usize>().ok()?)))
            .ok_or_else(|| parse_err(format!("bad shard coordinates '{shard_of_k}'")))?;
        let strategy_label = take("# strategy: ")?;
        let strategy = ShardStrategy::parse(&strategy_label)
            .ok_or_else(|| parse_err(format!("unknown strategy '{strategy_label}'")))?;
        let task_count = take("# task_count: ")?
            .parse::<usize>()
            .map_err(|_| parse_err("bad task_count".into()))?;
        if k == 0 || shard >= k {
            return Err(parse_err(format!(
                "shard index {shard} out of range for k = {k}"
            )));
        }
        let body: String = lines.collect::<Vec<_>>().join("\n");
        let report = RunReport::from_csv("partial", &body).map_err(parse_err)?;
        Ok(PartialReport {
            kind,
            spec,
            seed,
            shard,
            k,
            strategy,
            task_count,
            report,
        })
    }

    /// Load a partial file.
    pub fn load(path: &Path) -> Result<Self, ShardError> {
        let text = std::fs::read_to_string(path)?;
        PartialReport::parse(&text, path)
    }

    /// Write this partial to `path` (temp-file rename: a crashed worker
    /// never leaves a half-written partial for the merge to trip on).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("csv.tmp");
        std::fs::write(&tmp, self.to_text())?;
        std::fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ShardPlan;
    use wcs_runtime::{ResultCache, Sweep};

    fn manifest(shard: usize, k: usize) -> ShardManifest {
        let sweep = Sweep::new("partial-test")
            .ds(&[20.0, 60.0, 100.0])
            .samples(400)
            .seed(5);
        let plan = ShardPlan::new(sweep.task_count(), k, ShardStrategy::Contiguous).unwrap();
        ShardManifest::new(&sweep, &plan, shard)
    }

    #[test]
    fn worker_output_roundtrips_bitwise() {
        let m = manifest(1, 2);
        let p = run_worker(&m, &Engine::serial(), None).unwrap();
        assert_eq!(p.kind, WorkloadKind::Model);
        assert_eq!(p.report.rows.len(), m.indices().len() * 5);
        let parsed = PartialReport::parse(&p.to_text(), Path::new("x")).unwrap();
        assert_eq!(parsed.kind, p.kind);
        assert_eq!(parsed.spec, p.spec);
        assert_eq!(parsed.strategy, p.strategy);
        assert_eq!(parsed.report.columns, p.report.columns);
        for (a, b) in parsed.report.rows.iter().zip(&p.report.rows) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn worker_is_engine_thread_count_invariant() {
        let m = manifest(0, 3);
        let serial = run_worker(&m, &Engine::serial(), None).unwrap();
        let parallel = run_worker(&m, &Engine::new(4), None).unwrap();
        assert_eq!(serial.report.to_csv(), parallel.report.to_csv());
    }

    #[test]
    fn pre_redesign_partials_parse_as_model() {
        // A partial without the `# workload:` header (written by an older
        // binary) is a model partial.
        let m = manifest(0, 2);
        let text = run_worker(&m, &Engine::serial(), None).unwrap().to_text();
        let legacy: String = text
            .lines()
            .filter(|l| !l.starts_with("# workload"))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = PartialReport::parse(&legacy, Path::new("x")).unwrap();
        assert_eq!(parsed.kind, WorkloadKind::Model);
    }

    #[test]
    fn worker_partials_are_cached_and_served_back() {
        let dir = std::env::temp_dir().join(format!("wcs-partial-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir);
        let m = manifest(1, 3);
        let computed = run_worker(&m, &Engine::serial(), Some(&cache)).unwrap();
        assert!(
            cache.load_blob(&partial_cache_name(&m)).is_some(),
            "worker must store its partial blob"
        );
        // Serve the cached blob (identical bytes) on a re-run.
        let served = run_worker(&m, &Engine::serial(), Some(&cache)).unwrap();
        assert_eq!(computed.to_text(), served.to_text());
        // A different plan shape must not alias the cached partial.
        let other = {
            let sweep = Sweep::new("partial-test")
                .ds(&[20.0, 60.0, 100.0])
                .samples(400)
                .seed(5);
            let plan = ShardPlan::new(sweep.task_count(), 3, ShardStrategy::Strided).unwrap();
            ShardManifest::new(&sweep, &plan, 1)
        };
        assert_ne!(partial_cache_name(&m), partial_cache_name(&other));
        let strided = run_worker(&other, &Engine::serial(), Some(&cache)).unwrap();
        assert_eq!(strided.strategy, ShardStrategy::Strided);
        // Blobs never show up as cache entries.
        assert!(cache
            .query(&wcs_runtime::IndexQuery::default())
            .unwrap()
            .is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_partial_is_rejected() {
        let m = manifest(0, 2);
        let text = run_worker(&m, &Engine::serial(), None).unwrap().to_text();
        let missing_header: String = text
            .lines()
            .filter(|l| !l.starts_with("# strategy"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(PartialReport::parse(&missing_header, Path::new("x")).is_err());
        assert!(PartialReport::parse("garbage", Path::new("x")).is_err());
    }
}
