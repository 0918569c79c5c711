//! Run history: compact schema-versioned manifests of every workload
//! run, appended as named blobs through [`ResultIndex`].
//!
//! The cache answers "what has been computed"; the history answers
//! "what *happened*": per run, the workload identity, wall time, task
//! count, cache behaviour, exit status, and point-in-time latency
//! histogram snapshots. Manifests are ordinary JSON blobs next to the
//! result entries — invisible to entry listings (their names do not
//! parse as entry names) and enumerable through
//! [`ResultIndex::list_blobs`]. A manifest's blob name embeds its
//! creation time in fixed-width milliseconds, so plain name order *is*
//! chronological order, which is what `repro history ls` and
//! `GET /v1/history` page by.

use crate::index::ResultIndex;
use crate::workload::{WorkloadOutcome, WorkloadSpec};
use wcs_telemetry::json::json_string;

/// Manifest schema identifier, bumped on any breaking change.
pub const MANIFEST_SCHEMA: &str = "wcs-run-manifest-v1";

/// Monotonically bumped alongside [`MANIFEST_SCHEMA`].
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// Blob-name suffix every manifest carries. Distinct from `.csv`, so
/// manifests can never be mistaken for cache entries.
pub const MANIFEST_SUFFIX: &str = ".manifest.json";

/// Blob name for a manifest created at `created_unix_ms` for the
/// workload keyed by (`hash`, `seed`). Millisecond timestamps are
/// zero-padded to 13 digits so lexicographic order is chronological
/// order (13 digits cover dates through the year 2286).
pub fn manifest_blob_name(created_unix_ms: u64, hash: u64, seed: u64) -> String {
    format!("run-{created_unix_ms:013}-{hash:016x}-{seed:016x}{MANIFEST_SUFFIX}")
}

/// Render one manifest for a run of a `task_count`-task workload.
/// Histogram snapshots are taken from the process-global metrics
/// registry at call time.
pub fn manifest_json(
    w: &dyn WorkloadSpec,
    outcome: &WorkloadOutcome,
    task_count: usize,
    wall_ns: u64,
    created_unix_ms: u64,
) -> String {
    let status = if outcome.store_failed {
        "store_failed"
    } else {
        "ok"
    };
    let hists: Vec<String> = wcs_telemetry::metrics::snapshot_all()
        .iter()
        .map(|s| format!("{}:{}", json_string(&s.name), s.to_json()))
        .collect();
    format!(
        "{{\"schema\":{},\"schema_version\":{},\"name\":{},\"kind\":{},\"hash\":\"{:016x}\",\
         \"seed\":{},\"task_count\":{},\"tasks_run\":{},\"cache_hit\":{},\"status\":{},\
         \"wall_ns\":{},\"created_unix_ms\":{},\"histograms\":{{{}}}}}",
        json_string(MANIFEST_SCHEMA),
        MANIFEST_SCHEMA_VERSION,
        json_string(w.name()),
        json_string(w.kind().label()),
        w.scenario_hash(),
        w.seed(),
        task_count,
        outcome.tasks_run,
        outcome.cache_hit,
        json_string(status),
        wall_ns,
        created_unix_ms,
        hists.join(",")
    )
}

/// Append one run manifest for a finished workload run. Failures are
/// counted (`history.manifest_failed`) but never fail the run — the
/// history, like all telemetry, is out-of-band.
pub fn append_run_manifest(
    index: &dyn ResultIndex,
    w: &dyn WorkloadSpec,
    outcome: &WorkloadOutcome,
    wall_ns: u64,
) -> Option<String> {
    // A computed run ran every task; only a cache hit has to ask the
    // workload, which may plan it to count them.
    let task_count = if outcome.cache_hit {
        w.task_count()
    } else {
        outcome.tasks_run
    };
    append_counted_manifest(index, w, outcome, task_count, wall_ns)
}

/// [`append_run_manifest`] for a caller that already knows the
/// workload's task count.
pub fn append_counted_manifest(
    index: &dyn ResultIndex,
    w: &dyn WorkloadSpec,
    outcome: &WorkloadOutcome,
    task_count: usize,
    wall_ns: u64,
) -> Option<String> {
    let created_unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let name = manifest_blob_name(created_unix_ms, w.scenario_hash(), w.seed());
    let text = manifest_json(w, outcome, task_count, wall_ns, created_unix_ms);
    match index.store_blob(&name, &text) {
        Ok(()) => {
            wcs_telemetry::counter("history.manifest", 1);
            Some(name)
        }
        Err(_) => {
            wcs_telemetry::counter("history.manifest_failed", 1);
            None
        }
    }
}

/// Manifest blob names known to `index`, newest first.
pub fn list_manifests(index: &dyn ResultIndex) -> std::io::Result<Vec<String>> {
    let mut names = index.list_blobs(MANIFEST_SUFFIX)?;
    names.reverse();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::report::RunReport;
    use crate::scenario::Sweep;

    #[test]
    fn blob_names_sort_chronologically() {
        let older = manifest_blob_name(999, 0xabc, 1);
        let newer = manifest_blob_name(1_000_000, 0x1, 2);
        assert!(older < newer, "{older} should sort before {newer}");
        assert!(older.ends_with(MANIFEST_SUFFIX));
    }

    #[test]
    fn manifest_json_carries_identity_and_status() {
        let sweep = Sweep::new("hist \"quoted\"").ds(&[10.0]).seed(7);
        let outcome = WorkloadOutcome {
            report: RunReport::new("hist", &["a"]),
            cache_hit: true,
            tasks_run: 0,
            store_failed: false,
        };
        let json = manifest_json(&sweep, &outcome, 1, 123_456, 1_700_000_000_000);
        assert!(
            json.contains("\"schema\":\"wcs-run-manifest-v1\""),
            "{json}"
        );
        assert!(json.contains("\"schema_version\":1"), "{json}");
        assert!(json.contains("\"name\":\"hist \\\"quoted\\\"\""), "{json}");
        assert!(json.contains("\"kind\":\"model\""), "{json}");
        assert!(json.contains("\"cache_hit\":true"), "{json}");
        assert!(json.contains("\"status\":\"ok\""), "{json}");
        assert!(json.contains("\"wall_ns\":123456"), "{json}");
        assert!(json.contains("\"task_count\":1,"), "{json}");
        assert!(json.contains("\"histograms\":{"), "{json}");
        assert!(json.contains("\"engine.block\":{"), "{json}");
        let failed = WorkloadOutcome {
            store_failed: true,
            ..outcome
        };
        let json = manifest_json(&sweep, &failed, 1, 1, 2);
        assert!(json.contains("\"status\":\"store_failed\""), "{json}");
    }

    #[test]
    fn append_and_list_roundtrip() {
        let dir = std::env::temp_dir().join(format!("wcs-history-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir);
        let index: &dyn ResultIndex = &cache;
        let sweep = Sweep::new("listed").ds(&[10.0]).seed(3);
        let outcome = WorkloadOutcome {
            report: RunReport::new("listed", &["a"]),
            cache_hit: false,
            tasks_run: 4,
            store_failed: false,
        };
        let name = append_run_manifest(index, &sweep, &outcome, 55).expect("stored");
        let listed = list_manifests(index).unwrap();
        assert_eq!(listed, vec![name.clone()]);
        let text = index.load_blob(&name).unwrap();
        assert!(text.contains("\"tasks_run\":4"));
        // Manifests never pollute entry listings.
        assert!(cache.entries().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn runs_count_their_tasks_on_a_miss_and_on_a_hit() {
        let dir = std::env::temp_dir().join(format!("wcs-history-count-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir);
        let sweep = Sweep::new("counted").ds(&[10.0, 20.0]).samples(200).seed(4);
        let want = format!("\"task_count\":{},", sweep.task_count());
        for cache_hit in [false, true] {
            // Manifest names have millisecond resolution.
            std::thread::sleep(std::time::Duration::from_millis(2));
            let out = crate::workload::run_workload(&sweep, &crate::Engine::serial(), Some(&cache));
            assert_eq!(out.cache_hit, cache_hit);
            let newest = &list_manifests(&cache).unwrap()[0];
            let text = cache.load_blob(newest).unwrap();
            assert!(text.contains(&want), "{text}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
