//! The queryable results index — the one cache-access surface.
//!
//! [`ResultIndex`] is a typed query surface over everything ever
//! computed, and the only API of the on-disk
//! [`ResultCache`](crate::cache::ResultCache). Everything that looks at
//! what has been computed goes through it: the runner, the `repro cache`
//! subcommands, the shard partial lookup and the `wcs-serve` HTTP
//! daemon. It offers
//!
//! * **list/filter** entries by workload kind, scenario hash, seed,
//!   scenario name or row-layout (column count), with stable
//!   cursor-based pagination ([`ResultIndex::query`] + [`IndexQuery`]),
//! * **paged row reads** that stream an entry's CSV body without
//!   materializing the whole report ([`ResultIndex::read_rows`] →
//!   [`RowPage`]),
//! * the **report load/store** pair the engine consults
//!   ([`ResultIndex::load_report`] / [`ResultIndex::store_report`]),
//! * the **named-blob** surface `wcs-shard` keeps per-shard partials and
//!   `crate::history` keeps run manifests in
//!   ([`ResultIndex::load_blob`] / [`ResultIndex::store_blob`] /
//!   [`ResultIndex::list_blobs`]), and
//! * **filtered removal** ([`ResultIndex::remove`]), which is what
//!   `repro cache clear [--kind …]` is a thin client of.
//!
//! The trait is object-safe (`&dyn ResultIndex`) so the engine, the
//! shard merge and the serve daemon do not care where results actually
//! live; the file format and its one reader live with the backend, in
//! [`crate::cache`].
//!
//! ## Pagination contract
//!
//! Entries are returned sorted by their stable cursor (the entry file
//! name, which embeds scenario name, hash and seed). A page's `after`
//! cursor is the last entry's [`CacheEntry::cursor`]; the next page
//! contains strictly-greater cursors. Because cursors are total-ordered
//! and writes never mutate an existing cursor, paging is **stable under
//! interleaved writes**: an entry stored mid-pagination either sorts
//! after the cursor (and appears in a later page) or before it (and is
//! simply not part of this traversal) — never duplicated, never able to
//! shift other entries between pages.

use crate::cache::CacheEntry;
use crate::report::RunReport;
use crate::workload::{WorkloadKind, WorkloadSpec};

/// A filter over the index's entries. `Default` matches everything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexQuery {
    /// Only entries of this workload kind.
    pub kind: Option<WorkloadKind>,
    /// Only entries with this scenario hash.
    pub hash: Option<u64>,
    /// Only entries with this root seed.
    pub seed: Option<u64>,
    /// Only entries whose (sanitized) scenario name equals this.
    pub scenario: Option<String>,
    /// Only entries with this row-layout (column count).
    pub columns: Option<usize>,
    /// Cursor: only entries whose [`CacheEntry::cursor`] is strictly
    /// greater than this (see the module docs' pagination contract).
    pub after: Option<String>,
    /// Truncate the result to at most this many entries.
    pub limit: Option<usize>,
}

impl IndexQuery {
    /// A query matching every entry of `kind` (or every entry at all
    /// when `kind` is `None`) — the `repro cache` filter.
    pub fn by_kind(kind: Option<WorkloadKind>) -> Self {
        IndexQuery {
            kind,
            ..IndexQuery::default()
        }
    }

    /// Whether `entry` passes this query's field filters (cursor and
    /// limit are pagination, not filtering, and are not consulted here).
    pub fn matches(&self, entry: &CacheEntry) -> bool {
        self.kind.is_none_or(|k| entry.kind == Some(k))
            && self.hash.is_none_or(|h| entry.hash == h)
            && self.seed.is_none_or(|s| entry.seed == s)
            && self.scenario.as_ref().is_none_or(|n| &entry.scenario == n)
            && self.columns.is_none_or(|c| entry.columns == Some(c))
    }
}

/// One page of rows read straight out of an entry's stored body (see
/// [`ResultIndex::read_rows`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RowPage {
    /// The entry's (sanitized) scenario name.
    pub scenario: String,
    /// The entry's scenario hash.
    pub hash: u64,
    /// The entry's root seed.
    pub seed: u64,
    /// Column names of the stored (cache-form) report.
    pub columns: Vec<String>,
    /// Index of the first row in this page.
    pub start: usize,
    /// The rows, in stored order. Floats round-trip bitwise (shortest
    /// `{:?}` form), so re-emitting them reproduces the stored bytes.
    pub rows: Vec<Vec<f64>>,
    /// Whether at least one more row exists past this page.
    pub more: bool,
}

/// The queryable results index: one typed surface over everything ever
/// computed. Object-safe; [`ResultCache`](crate::cache::ResultCache) is
/// the on-disk backend.
pub trait ResultIndex: Send + Sync {
    /// Human-readable location of the backing store (used in warnings
    /// and status lines; the on-disk backend returns its directory).
    fn describe(&self) -> String;

    /// Entries matching `query`, sorted by [`CacheEntry::cursor`], with
    /// cursor/limit pagination applied (see the module docs).
    fn query(&self, query: &IndexQuery) -> std::io::Result<Vec<CacheEntry>>;

    /// The stored full report for this exact (workload, seed), if any.
    /// Misses on absence, canonical-spec mismatch or corruption.
    fn load_report(&self, w: &dyn WorkloadSpec) -> Option<RunReport>;

    /// Store the full (cache-form) report under this (workload, seed).
    fn store_report(&self, w: &dyn WorkloadSpec, report: &RunReport) -> std::io::Result<()>;

    /// Read `limit` rows starting at row `start` from the entry keyed by
    /// (`hash`, `seed`), without materializing the whole report.
    /// `Ok(None)` when no such entry exists (or it is unreadable).
    fn read_rows(
        &self,
        hash: u64,
        seed: u64,
        start: usize,
        limit: usize,
    ) -> std::io::Result<Option<RowPage>>;

    /// Remove every entry matching `query` (pagination fields are
    /// ignored). A bare kind filter (or an empty query) also removes the
    /// matching shard partial blobs, exactly like `repro cache clear`.
    /// Returns the number of files removed.
    fn remove(&self, query: &IndexQuery) -> std::io::Result<usize>;

    /// Load a free-form named blob (e.g. a `wcs-shard` partial).
    fn load_blob(&self, name: &str) -> Option<String>;

    /// Store a free-form named blob next to the entries.
    fn store_blob(&self, name: &str, text: &str) -> std::io::Result<()>;

    /// Names of stored blobs ending with `suffix`, sorted ascending —
    /// how run-history manifests (whose names embed their creation time,
    /// so name order is chronological order) are enumerated.
    fn list_blobs(&self, suffix: &str) -> std::io::Result<Vec<String>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::scenario::Sweep;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wcs-index-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn report(rows: usize) -> RunReport {
        let mut r = RunReport::new("s", &["a", "b"]);
        for i in 0..rows {
            r.push_row(vec![i as f64 + 0.5, 1.0 / (i as f64 + 7.0)]);
        }
        r
    }

    fn stored(cache: &ResultCache, name: &str, seed: u64, rows: usize) -> Sweep {
        let sweep = Sweep::new(name).ds(&[10.0]).seed(seed);
        cache.store_report(&sweep, &report(rows)).unwrap();
        sweep
    }

    #[test]
    fn query_filters_and_paginates() {
        let cache = ResultCache::new(tmpdir("query"));
        let a = stored(&cache, "grid-a", 1, 2);
        stored(&cache, "grid-b", 2, 2);
        stored(&cache, "grid-c", 3, 2);
        let index: &dyn ResultIndex = &cache;
        assert_eq!(index.query(&IndexQuery::default()).unwrap().len(), 3);
        // Field filters.
        let by_hash = index
            .query(&IndexQuery {
                hash: Some(a.scenario_hash()),
                seed: Some(1),
                ..IndexQuery::default()
            })
            .unwrap();
        assert_eq!(by_hash.len(), 1);
        assert_eq!(by_hash[0].scenario, "grid-a");
        let by_name = index
            .query(&IndexQuery {
                scenario: Some("grid-b".into()),
                ..IndexQuery::default()
            })
            .unwrap();
        assert_eq!(by_name.len(), 1);
        // Cursor pagination walks every entry exactly once.
        let mut seen = Vec::new();
        let mut after: Option<String> = None;
        loop {
            let page = index
                .query(&IndexQuery {
                    after: after.clone(),
                    limit: Some(1),
                    ..IndexQuery::default()
                })
                .unwrap();
            if page.is_empty() {
                break;
            }
            after = Some(page.last().unwrap().cursor().to_string());
            seen.extend(page.into_iter().map(|e| e.scenario));
        }
        assert_eq!(seen.len(), 3);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn pagination_is_stable_under_interleaved_writes() {
        let cache = ResultCache::new(tmpdir("interleave"));
        for (name, seed) in [("m-grid", 10), ("p-grid", 11), ("t-grid", 12)] {
            stored(&cache, name, seed, 1);
        }
        let index: &dyn ResultIndex = &cache;
        let before: Vec<String> = index
            .query(&IndexQuery::default())
            .unwrap()
            .iter()
            .map(|e| e.cursor().to_string())
            .collect();
        let first = index
            .query(&IndexQuery {
                limit: Some(2),
                ..IndexQuery::default()
            })
            .unwrap();
        let cursor = first.last().unwrap().cursor().to_string();
        // Interleaved writes on both sides of the cursor.
        stored(&cache, "a-early", 13, 1); // sorts before the cursor
        stored(&cache, "z-late", 14, 1); // sorts after the cursor
        let second = index
            .query(&IndexQuery {
                after: Some(cursor),
                ..IndexQuery::default()
            })
            .unwrap();
        let walked: Vec<String> = first
            .iter()
            .chain(second.iter())
            .map(|e| e.cursor().to_string())
            .collect();
        // No duplicates, and every pre-pagination entry was visited.
        let unique: std::collections::BTreeSet<&String> = walked.iter().collect();
        assert_eq!(unique.len(), walked.len(), "no entry visited twice");
        for c in &before {
            assert!(walked.contains(c), "pre-existing entry {c} was skipped");
        }
        // The late write is picked up; the early one is simply not part
        // of this traversal (it can never displace or duplicate).
        assert!(walked.iter().any(|c| c.starts_with("z-late")));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn read_rows_pages_without_loading_everything() {
        let cache = ResultCache::new(tmpdir("rows"));
        let sweep = stored(&cache, "paged", 9, 5);
        let index: &dyn ResultIndex = &cache;
        let full = cache.load_report(&sweep).unwrap();
        let page = index
            .read_rows(sweep.scenario_hash(), 9, 1, 2)
            .unwrap()
            .expect("entry exists");
        assert_eq!(page.columns, full.columns);
        assert_eq!(page.start, 1);
        assert_eq!(page.rows.len(), 2);
        assert!(page.more);
        for (a, b) in page.rows.iter().zip(&full.rows[1..3]) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "paged rows are bitwise");
            }
        }
        // Tail page: fewer rows than asked, no more.
        let tail = index
            .read_rows(sweep.scenario_hash(), 9, 3, 10)
            .unwrap()
            .unwrap();
        assert_eq!(tail.rows.len(), 2);
        assert!(!tail.more);
        // Unknown key is absent, not an error.
        assert!(index.read_rows(0xdead, 9, 0, 1).unwrap().is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn list_blobs_filters_by_suffix_and_sorts() {
        let cache = ResultCache::new(tmpdir("blobs"));
        let index: &dyn ResultIndex = &cache;
        assert!(index.list_blobs(".manifest.json").unwrap().is_empty());
        index
            .store_blob("run-0000000000002-aa.manifest.json", "{}")
            .unwrap();
        index
            .store_blob("run-0000000000001-bb.manifest.json", "{}")
            .unwrap();
        index.store_blob("x.partial.csv", "p").unwrap();
        stored(&cache, "grid", 1, 1);
        let names = index.list_blobs(".manifest.json").unwrap();
        assert_eq!(
            names,
            vec![
                "run-0000000000001-bb.manifest.json",
                "run-0000000000002-aa.manifest.json"
            ]
        );
        // Manifests are invisible to entry queries.
        assert_eq!(index.query(&IndexQuery::default()).unwrap().len(), 1);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn remove_is_filtered() {
        let cache = ResultCache::new(tmpdir("remove"));
        let a = stored(&cache, "keep-me", 1, 1);
        stored(&cache, "drop-me", 2, 1);
        let index: &dyn ResultIndex = &cache;
        let removed = index
            .remove(&IndexQuery {
                scenario: Some("drop-me".into()),
                ..IndexQuery::default()
            })
            .unwrap();
        assert_eq!(removed, 1);
        let left = index.query(&IndexQuery::default()).unwrap();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].hash, a.scenario_hash());
        // The kind-only shape clears everything (including blobs).
        index
            .store_blob("x.partial.csv", "# spec: wcs-sweep-v1\nc\n1.0\n")
            .unwrap();
        assert_eq!(index.remove(&IndexQuery::default()).unwrap(), 2);
        assert!(index.query(&IndexQuery::default()).unwrap().is_empty());
        let _ = fs::remove_dir_all(cache.dir());
    }
}
