//! Deterministic index-order merge of shard partials.
//!
//! The merge trusts nothing. [`merge_dir`] loads each manifest of a plan
//! directory once, counts the workload's tasks once, and passes each
//! shard's partial through the one gate in [`crate::partial`], which
//! checks it against that manifest. Then [`merge_partials`] checks the
//! set: every partial must carry the **same** workload kind (model and
//! sim shards are never mixed), canonical spec string (full string, not
//! just the hash), seed, shard count, strategy, task count and column
//! layout; the shard count must be the one a plan deals for that task
//! count, and the shard indices must tile `0..k` with no duplicates
//! (overlap) and no holes (gap); and every
//! partial's row count must equal its slice length × the workload's
//! per-task row block size. Nothing is allocated in proportion to a
//! count a partial claims until its rows back that count. Only then are
//! the row blocks dealt back into task-index order — reconstructing the
//! exact full report a single-process run produces, which then goes
//! through the same workload finalization (and optionally into the
//! shared results index under the same key).
//!
//! When the shared index is available, a shard whose partial file is
//! missing from the plan directory (lost worker, lost disk) is served
//! from its cached partial blob instead of failing the merge — only a
//! shard the index has never seen is a genuine gap.

use crate::manifest::ShardManifest;
use crate::partial::PartialReport;
use crate::{driver, ShardError};
use std::path::Path;
use wcs_runtime::{AnyWorkload, ResultIndex, RunReport, WorkloadSpec};

/// Validate a shard set and reassemble the full report in task-index
/// order. The partials may arrive in any order.
pub fn merge_partials(parts: &[PartialReport]) -> Result<RunReport, ShardError> {
    let first = parts
        .first()
        .ok_or_else(|| ShardError::SpecMismatch("no partials to merge".into()))?;
    let k = first.k;
    for p in parts {
        if p.kind != first.kind {
            return Err(ShardError::WorkloadMismatch {
                expected: first.kind,
                found: p.kind,
            });
        }
        if p.spec != first.spec {
            return Err(ShardError::SpecMismatch(format!(
                "shard {} was computed from a different sweep spec",
                p.shard
            )));
        }
        if p.seed != first.seed {
            return Err(ShardError::SpecMismatch(format!(
                "shard {} used seed {} but shard {} used {}",
                p.shard, p.seed, first.shard, first.seed
            )));
        }
        if p.k != k || p.strategy != first.strategy || p.task_count != first.task_count {
            return Err(ShardError::SpecMismatch(format!(
                "shard {} belongs to a different plan ({}/{} {}, {} tasks)",
                p.shard,
                p.shard,
                p.k,
                p.strategy.label(),
                p.task_count
            )));
        }
        if p.report.columns != first.report.columns {
            return Err(ShardError::SpecMismatch(format!(
                "shard {} has a different column layout",
                p.shard
            )));
        }
    }
    // The plan refuses a k it would not deal before it sizes anything.
    let plan = crate::plan::ShardPlan::recorded(first.task_count, k, first.strategy)?;
    // Exactly one partial per shard index: duplicates are overlapping
    // slices, absences are gaps. (Parsing rejects shard >= k, but a
    // programmatically built PartialReport can still carry one.)
    let mut by_shard: Vec<Option<&PartialReport>> = vec![None; k];
    for p in parts {
        if p.shard >= k {
            return Err(ShardError::SpecMismatch(format!(
                "shard index {} out of range for k = {k}",
                p.shard
            )));
        }
        let slot = &mut by_shard[p.shard];
        if slot.is_some() {
            return Err(ShardError::Overlap { shard: p.shard });
        }
        *slot = Some(p);
    }
    if let Some(shard) = by_shard.iter().position(Option::is_none) {
        return Err(ShardError::Gap { shard, k });
    }
    // Rows must back the task count before it sizes the reassembly.
    let rows_per_task = first.kind.rows_per_task();
    let rows: usize = parts.iter().map(|p| p.report.rows.len()).sum();
    if first.task_count.checked_mul(rows_per_task) != Some(rows) {
        return Err(ShardError::BadShape(format!(
            "the shards carry {rows} rows, {} tasks need {rows_per_task} each",
            first.task_count
        )));
    }
    let mut slots: Vec<Option<&Vec<f64>>> = vec![None; rows];
    for (shard, p) in by_shard.into_iter().flatten().enumerate() {
        let indices = plan.indices(shard);
        if p.report.rows.len() != indices.len() * rows_per_task {
            return Err(ShardError::BadShape(format!(
                "shard {} carries {} rows, its slice of {} tasks needs {}",
                shard,
                p.report.rows.len(),
                indices.len(),
                indices.len() * rows_per_task
            )));
        }
        for (block, &task_index) in indices.iter().enumerate() {
            for r in 0..rows_per_task {
                slots[task_index * rows_per_task + r] =
                    Some(&p.report.rows[block * rows_per_task + r]);
            }
        }
    }
    let columns: Vec<&str> = first.report.columns.iter().map(String::as_str).collect();
    let mut full = RunReport::new("merged", &columns);
    for row in slots {
        full.push_row(row.expect("partition covers every task").clone());
    }
    Ok(full)
}

/// What [`merge_dir`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOutcome {
    /// The finalized report — byte-identical to a single-process run of
    /// the same spec.
    pub report: RunReport,
    /// The workload the shards were slices of (from the manifests).
    pub workload: AnyWorkload,
    /// Its task count, as the shard set was checked against.
    pub task_count: usize,
    /// How many shards were merged.
    pub shards: usize,
    /// How many of them were served from cached partial blobs because
    /// their partial file was missing from the plan directory.
    pub shards_from_cache: usize,
}

/// Merge a plan directory: load every `shard-*.manifest.toml` and its
/// `shard-*.partial.csv` (falling back to the results index's partial
/// blob when the file is missing), validate the set, reassemble,
/// finalize through the standard workload finalization, and — unless
/// `index` is `None` — store the full report under the exact
/// (scenario hash, seed) key a single-process run would use, so the
/// *next* `repro sweep` of this spec is a cache hit.
pub fn merge_dir(dir: &Path, index: Option<&dyn ResultIndex>) -> Result<MergeOutcome, ShardError> {
    merge_dir_counted(dir, index, None)
}

/// [`merge_dir`] with the workload's task count already taken: a
/// dispatch passes the count it planned from, so the merge counts
/// nothing. `None` counts the first manifest's workload once.
pub fn merge_dir_counted(
    dir: &Path,
    index: Option<&dyn ResultIndex>,
    task_count: Option<usize>,
) -> Result<MergeOutcome, ShardError> {
    let mut span = wcs_telemetry::span("shard.merge").start();
    let paths = driver::find_manifests(dir)?;
    let mut manifests = Vec::with_capacity(paths.len());
    for path in &paths {
        manifests.push(ShardManifest::load(path)?);
    }
    let Some(first) = manifests.first() else {
        return Err(ShardError::SpecMismatch(format!(
            "no shard manifests in {}",
            dir.display()
        )));
    };
    // Only the first manifest is checked against the count: each partial
    // is checked against its own manifest here, and the set against
    // itself (one spec, one task count) by merge_partials, so manifests
    // that disagree with each other are refused there.
    let counted = task_count.unwrap_or_else(|| first.workload.task_count());
    first.check_task_count(counted, &paths[0])?;
    let mut parts = Vec::with_capacity(manifests.len());
    let mut shards_from_cache = 0;
    for manifest in &manifests {
        let ppath = driver::partial_path(dir, manifest.shard);
        let source = if ppath.exists() {
            parts.push(PartialReport::load(&ppath)?.gate(manifest)?);
            "file"
        } else {
            // Lost worker / lost file: serve the cached partial blob if
            // this exact plan's shard was ever computed before, through
            // the same gate.
            match index.and_then(|ix| crate::partial::load_cached_partial(ix, manifest)) {
                Some(p) => {
                    shards_from_cache += 1;
                    parts.push(p);
                    "cache"
                }
                None => {
                    return Err(ShardError::Gap {
                        shard: manifest.shard,
                        k: manifest.k,
                    })
                }
            }
        };
        wcs_telemetry::value(
            "shard.merged",
            vec![
                (
                    "shard".to_string(),
                    wcs_telemetry::Value::U64(manifest.shard as u64),
                ),
                ("source".to_string(), wcs_telemetry::Value::from(source)),
            ],
        );
    }
    let first = manifests.swap_remove(0);
    let (workload, task_count) = (first.workload, first.task_count);
    let full = merge_partials(&parts)?;
    if let Some(index) = index {
        // Same tolerance as run_workload: a failed store warns (mirrored to
        // stderr, counted for --strict-cache), never fails.
        if let Err(e) = index.store_report(&workload, &full) {
            wcs_telemetry::warn_with(
                "cache.store_failed",
                &format!(
                    "warning: failed to store cache entry in {}: {e}",
                    index.describe()
                ),
                vec![(
                    "dir".to_string(),
                    wcs_telemetry::Value::Str(index.describe()),
                )],
            );
        }
    }
    let report = workload.finalize(&full);
    let shards = parts.len();
    span.add("shards", shards);
    span.add("shards_from_cache", shards_from_cache);
    Ok(MergeOutcome {
        report,
        workload,
        task_count,
        shards,
        shards_from_cache,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partial::run_worker;
    use crate::plan::{ShardPlan, ShardStrategy};
    use wcs_runtime::{run_workload, Engine, Sweep, Topology};

    fn sweep() -> Sweep {
        Sweep::new("merge-test")
            .ds(&[15.0, 55.0, 110.0])
            .sigmas(&[0.0, 8.0])
            .topologies(&[Topology::TwoPair, Topology::npair_line(3)])
            .samples(300)
            .seed(21)
    }

    fn partials(s: &Sweep, k: usize, strategy: ShardStrategy) -> Vec<PartialReport> {
        let plan = ShardPlan::new(s.task_count(), k, strategy).unwrap();
        (0..k)
            .map(|i| run_worker(&ShardManifest::new(s, &plan, i), &Engine::serial(), None).unwrap())
            .collect()
    }

    #[test]
    fn merge_reconstructs_single_process_rows_in_any_arrival_order() {
        let s = sweep();
        let single = run_workload(&s, &Engine::serial(), None).report;
        for strategy in [ShardStrategy::Contiguous, ShardStrategy::Strided] {
            let mut parts = partials(&s, 3, strategy);
            parts.rotate_left(2); // arrival order must not matter
            let full = merge_partials(&parts).unwrap();
            let merged = wcs_runtime::finalize_report(&s, &full);
            assert_eq!(merged.to_csv(), single.to_csv(), "{}", strategy.label());
        }
    }

    #[test]
    fn duplicate_shard_is_overlap() {
        let s = sweep();
        let mut parts = partials(&s, 3, ShardStrategy::Contiguous);
        parts.push(parts[1].clone());
        assert!(matches!(
            merge_partials(&parts),
            Err(ShardError::Overlap { shard: 1 })
        ));
    }

    #[test]
    fn missing_shard_is_gap() {
        let s = sweep();
        let mut parts = partials(&s, 3, ShardStrategy::Contiguous);
        parts.remove(1);
        assert!(matches!(
            merge_partials(&parts),
            Err(ShardError::Gap { shard: 1, k: 3 })
        ));
        assert!(merge_partials(&[]).is_err(), "empty set");
    }

    #[test]
    fn foreign_spec_or_seed_is_rejected() {
        let s = sweep();
        let mut parts = partials(&s, 2, ShardStrategy::Contiguous);
        let other = sweep().ds(&[15.0, 55.0, 111.0]);
        let foreign = partials(&other, 2, ShardStrategy::Contiguous);
        parts[1] = foreign[1].clone();
        assert!(matches!(
            merge_partials(&parts),
            Err(ShardError::SpecMismatch(_))
        ));
        // Same spec, different seed: also rejected (seed is outside the
        // canonical string but very much part of the numbers).
        let mut parts = partials(&s, 2, ShardStrategy::Contiguous);
        let reseeded = partials(&sweep().seed(22), 2, ShardStrategy::Contiguous);
        parts[1] = reseeded[1].clone();
        assert!(merge_partials(&parts).is_err());
    }

    #[test]
    fn cross_workload_merge_is_refused() {
        // A sim partial smuggled into a model shard set must be refused
        // by kind, before any row-shape reasoning.
        let s = sweep();
        let mut parts = partials(&s, 2, ShardStrategy::Contiguous);
        parts[1].kind = wcs_runtime::WorkloadKind::Sim;
        match merge_partials(&parts) {
            Err(ShardError::WorkloadMismatch { expected, found }) => {
                assert_eq!(expected, wcs_runtime::WorkloadKind::Model);
                assert_eq!(found, wcs_runtime::WorkloadKind::Sim);
            }
            other => panic!("expected WorkloadMismatch, got {other:?}"),
        }
    }

    #[test]
    fn mixed_plans_are_rejected() {
        let s = sweep();
        let mut parts = partials(&s, 3, ShardStrategy::Contiguous);
        let strided = partials(&s, 3, ShardStrategy::Strided);
        parts[2] = strided[2].clone();
        assert!(matches!(
            merge_partials(&parts),
            Err(ShardError::SpecMismatch(_))
        ));
        let mut parts = partials(&s, 3, ShardStrategy::Contiguous);
        let k2 = partials(&s, 2, ShardStrategy::Contiguous);
        parts[1] = k2[1].clone();
        assert!(merge_partials(&parts).is_err());
    }

    #[test]
    fn out_of_range_shard_index_is_an_error_not_a_panic() {
        // PartialReport fields are pub; a programmatically built set can
        // carry shard >= k and must get Err, not an index panic.
        let s = sweep();
        let mut parts = partials(&s, 2, ShardStrategy::Contiguous);
        parts[1].shard = 7;
        assert!(matches!(
            merge_partials(&parts),
            Err(ShardError::SpecMismatch(_))
        ));
    }

    #[test]
    fn a_partial_claiming_a_huge_task_count_or_k_is_an_error() {
        // A plan directory whose partial header claims 10^15 tasks (or
        // shards) must fail the gate, not size an allocation by it.
        let dir = std::env::temp_dir().join(format!("wcs-merge-huge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // One shard, so no second partial disagrees with the claim.
        let s = sweep();
        crate::write_plan(&dir, &s, 1, ShardStrategy::Contiguous).unwrap();
        let part = &partials(&s, 1, ShardStrategy::Contiguous)[0];
        part.save(&driver::partial_path(&dir, 0)).unwrap();
        assert!(merge_dir(&dir, None).is_ok(), "the untouched plan merges");
        let text = part.to_text();
        let task_count = format!("# task_count: {}\n", s.task_count());
        for (from, to) in [
            (task_count.as_str(), "# task_count: 1000000000000000\n"),
            ("# shard: 0/1\n", "# shard: 0/1000000000000000\n"),
        ] {
            assert!(text.contains(from), "{from}");
            std::fs::write(driver::partial_path(&dir, 0), text.replace(from, to)).unwrap();
            assert!(matches!(
                merge_dir(&dir, None),
                Err(ShardError::SpecMismatch(_))
            ));
        }
        // A programmatic set that agrees on the huge count is refused by
        // merge_partials itself, before it allocates.
        let mut huge = partials(&s, 2, ShardStrategy::Contiguous);
        for p in &mut huge {
            p.task_count = 1_000_000_000_000_000;
        }
        assert!(matches!(
            merge_partials(&huge),
            Err(ShardError::BadShape(_))
        ));
        // So is a set that agrees on a k no plan can have.
        for p in &mut huge {
            p.k = 1_000_000_000_000_000;
        }
        assert!(matches!(
            merge_partials(&huge),
            Err(ShardError::SpecMismatch(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_rows_are_bad_shape() {
        let s = sweep();
        let mut parts = partials(&s, 2, ShardStrategy::Contiguous);
        parts[0].report.rows.pop();
        assert!(matches!(
            merge_partials(&parts),
            Err(ShardError::BadShape(_))
        ));
    }
}
