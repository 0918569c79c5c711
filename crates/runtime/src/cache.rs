//! The on-disk result cache: the file backend of [`ResultIndex`], and
//! the one writer and reader of its entry format.
//!
//! Each stored run is one CSV file, `{name}-{hash:016x}-{seed:016x}.csv`,
//! whose header is `# wcs-runtime cache v1`, `# spec: <canonical
//! string>` and `# seed: <root seed>`, then the column line and rows. A
//! load verifies the stored spec matches the requesting workload's
//! canonical form exactly, so a 64-bit hash collision degrades to a miss
//! rather than serving wrong numbers. Files are written via a temp-file
//! rename so a crashed run never leaves a half-written entry behind. One
//! private reader (`read_head`) reads that header for a load, for the
//! listing's kind and column count, and for a paged row read, which then
//! streams the rows.
//!
//! Any [`WorkloadSpec`] keys entries the same way, and the entry's
//! canonical-string prefix classifies its [`WorkloadKind`]. The cache
//! also stores named **blobs** (`wcs-shard`'s partial reports, run
//! manifests), which entry listings never show. Partial blobs open with
//! the same kind of `#` header, so the same reader classifies their kind
//! for a kind-filtered removal.

use crate::index::{IndexQuery, ResultIndex, RowPage};
use crate::report::RunReport;
use crate::workload::{WorkloadKind, WorkloadSpec};
use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

/// Magic first line of every entry.
const ENTRY_MAGIC: &str = "# wcs-runtime cache v1";

/// A directory of cached sweep results. Its API is [`ResultIndex`].
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache { dir: dir.into() }
    }

    /// The default location: `$WCS_CACHE_DIR` if set, else
    /// `target/wcs-cache` under the current directory.
    pub fn default_location() -> Self {
        let dir = std::env::var_os("WCS_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target").join("wcs-cache"));
        ResultCache::new(dir)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl ResultIndex for ResultCache {
    fn describe(&self) -> String {
        self.dir.display().to_string()
    }

    fn query(&self, query: &IndexQuery) -> std::io::Result<Vec<CacheEntry>> {
        // Listed in path order, which within one directory is cursor
        // (file-name) order.
        let mut entries = list_entries(&self.dir)?;
        entries.retain(|e| {
            query.matches(e)
                && query
                    .after
                    .as_deref()
                    .is_none_or(|after| e.cursor() > after)
        });
        if let Some(limit) = query.limit {
            entries.truncate(limit);
        }
        Ok(entries)
    }

    /// Every lookup bumps the `cache.hit` (with entry bytes) or
    /// `cache.miss` telemetry counter and feeds the `cache.load` latency
    /// histogram (lookups happen once per workload, so the one clock
    /// pair here is off the per-sample hot path).
    fn load_report(&self, w: &dyn WorkloadSpec) -> Option<RunReport> {
        let t0 = std::time::Instant::now();
        let loaded = load_entry(&entry_path(&self.dir, w), w);
        wcs_telemetry::metrics::record_ns(
            wcs_telemetry::metrics::HistId::CacheLoad,
            t0.elapsed().as_nanos() as u64,
        );
        match loaded {
            Some((report, bytes)) => {
                wcs_telemetry::counter_with(
                    "cache.hit",
                    1,
                    vec![("bytes".to_string(), wcs_telemetry::Value::U64(bytes))],
                );
                Some(report)
            }
            None => {
                wcs_telemetry::counter("cache.miss", 1);
                None
            }
        }
    }

    /// A successful write bumps the `cache.store` telemetry counter with
    /// the entry bytes (failures are counted as `cache.store_failed` by
    /// the callers, which decide whether a degraded run is fatal).
    fn store_report(&self, w: &dyn WorkloadSpec, report: &RunReport) -> std::io::Result<()> {
        let t0 = std::time::Instant::now();
        let text = format!(
            "{ENTRY_MAGIC}\n# spec: {}\n# seed: {}\n{}",
            w.canonical(),
            w.seed(),
            report.to_csv()
        );
        write_file(&self.dir, &entry_path(&self.dir, w), &text)?;
        wcs_telemetry::metrics::record_ns(
            wcs_telemetry::metrics::HistId::CacheStore,
            t0.elapsed().as_nanos() as u64,
        );
        wcs_telemetry::counter_with(
            "cache.store",
            1,
            vec![(
                "bytes".to_string(),
                wcs_telemetry::Value::U64(text.len() as u64),
            )],
        );
        Ok(())
    }

    fn read_rows(
        &self,
        hash: u64,
        seed: u64,
        start: usize,
        limit: usize,
    ) -> std::io::Result<Option<RowPage>> {
        let query = IndexQuery {
            hash: Some(hash),
            seed: Some(seed),
            ..IndexQuery::default()
        };
        let Some(entry) = self.query(&query)?.into_iter().next() else {
            return Ok(None);
        };
        let Ok(file) = fs::File::open(&entry.path) else {
            return Ok(None); // raced with a clear; absent, not an error
        };
        let mut reader = BufReader::new(file);
        let Some(columns) = read_head(&mut reader).columns else {
            return Ok(None);
        };
        let mut rows = Vec::with_capacity(limit.min(1024));
        let mut more = false;
        let mut index = 0usize;
        for line in reader.lines() {
            let line = line?;
            if line.is_empty() {
                continue;
            }
            if index >= start {
                if rows.len() == limit {
                    more = true;
                    break;
                }
                let row: Result<Vec<f64>, _> = line.split(',').map(str::parse::<f64>).collect();
                match row {
                    Ok(row) if row.len() == columns.len() => rows.push(row),
                    _ => return Ok(None), // corrupt body degrades to a miss
                }
            }
            index += 1;
        }
        Ok(Some(RowPage {
            scenario: entry.scenario,
            hash,
            seed,
            columns,
            start,
            rows,
            more,
        }))
    }

    fn remove(&self, query: &IndexQuery) -> std::io::Result<usize> {
        let mut removed = 0;
        for entry in list_entries(&self.dir)? {
            if query.matches(&entry) {
                fs::remove_file(&entry.path)?;
                removed += 1;
            }
        }
        let field_free = query.hash.is_none()
            && query.seed.is_none()
            && query.scenario.is_none()
            && query.columns.is_none();
        if !field_free {
            return Ok(removed);
        }
        // The `repro cache clear [--kind]` shape also removes the
        // matching shard partial blobs; an unfiltered one removes the
        // run-history manifests and stranded temp files too.
        let Ok(read_dir) = fs::read_dir(&self.dir) else {
            return Ok(removed);
        };
        for entry in read_dir.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let path = entry.path();
            if name.ends_with(".partial.csv") {
                let kind = read_head_at(&path)
                    .spec
                    .as_deref()
                    .and_then(WorkloadKind::of_canonical);
                if (query.kind.is_none() || kind == query.kind) && fs::remove_file(&path).is_ok() {
                    removed += 1;
                }
            } else if query.kind.is_none() {
                if name.ends_with(".manifest.json") {
                    removed += usize::from(fs::remove_file(&path).is_ok());
                } else if name.ends_with(".csv.tmp") {
                    let _ = fs::remove_file(&path);
                }
            }
        }
        Ok(removed)
    }

    fn load_blob(&self, name: &str) -> Option<String> {
        fs::read_to_string(self.dir.join(name)).ok()
    }

    /// `name` must be a bare file name, not a path.
    fn store_blob(&self, name: &str, text: &str) -> std::io::Result<()> {
        assert!(
            !name.contains('/') && !name.contains('\\'),
            "blob name must not contain path separators"
        );
        write_file(&self.dir, &self.dir.join(name), text)
    }

    fn list_blobs(&self, suffix: &str) -> std::io::Result<Vec<String>> {
        let read_dir = match fs::read_dir(&self.dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut names = Vec::new();
        for entry in read_dir {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(suffix) {
                names.push(name);
            }
        }
        names.sort();
        Ok(names)
    }
}

/// Map a scenario name to a filesystem-safe form — the one sanitization
/// rule for every artifact named after a sweep (cache entries, shard
/// plan directories).
pub fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Metadata of one on-disk cache entry (see [`ResultIndex::query`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// Sanitized scenario name (the file-name prefix).
    pub scenario: String,
    /// Scenario hash half of the cache key.
    pub hash: u64,
    /// Seed half of the cache key.
    pub seed: u64,
    /// Entry size in bytes.
    pub bytes: u64,
    /// Seconds since the entry was last written, when known.
    pub age_secs: Option<u64>,
    /// Workload kind, classified from the entry's canonical-spec line
    /// (`None` when the file is unreadable or carries no spec).
    pub kind: Option<WorkloadKind>,
    /// Number of report columns in the entry, when readable.
    pub columns: Option<usize>,
    /// Full path of the entry file.
    pub path: PathBuf,
}

impl CacheEntry {
    /// Stable pagination cursor for this entry: its file name, which
    /// embeds (scenario, hash, seed) and never changes once written.
    /// `ResultIndex::query` sorts and pages by this value.
    pub fn cursor(&self) -> &str {
        self.path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
    }

    /// Human-readable row-layout version for `repro cache ls`: `v1` is
    /// each workload's original layout (11 columns for classic model
    /// sweeps, 9 for sim sweeps), `v2` the extended 15-column N-pair
    /// model layout; anything else is shown by its raw column count.
    pub fn layout(&self) -> String {
        match (self.kind, self.columns) {
            (Some(WorkloadKind::Model), Some(11)) => "v1".to_string(),
            (Some(WorkloadKind::Model), Some(15)) => "v2".to_string(),
            (Some(WorkloadKind::Sim), Some(9)) => "v1".to_string(),
            (_, Some(n)) => format!("{n}-col"),
            (_, None) => "?".to_string(),
        }
    }
}

fn entry_path(dir: &Path, w: &dyn WorkloadSpec) -> PathBuf {
    dir.join(format!(
        "{}-{:016x}-{:016x}.csv",
        sanitize_name(w.name()),
        w.scenario_hash(),
        w.seed()
    ))
}

fn write_file(dir: &Path, path: &Path, text: &str) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let tmp = path.with_extension("csv.tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)
}

/// What the `#` header of a stored document says, and its column line.
/// A damaged document may lack any part.
#[derive(Default)]
struct Head {
    /// The first line, when it is a `#` line.
    magic: Option<String>,
    /// The `# spec: ` line's canonical string.
    spec: Option<String>,
    /// The `# seed: ` line's seed.
    seed: Option<u64>,
    /// The column names of the first line after the `#` lines, unless
    /// that line is empty or missing.
    columns: Option<Vec<String>>,
    /// Bytes of the `#` lines.
    len: usize,
}

/// Read the leading `#` lines and the column line off `r`, leaving `r`
/// at the first row. A failed read ends the header where it stopped.
fn read_head(r: &mut impl BufRead) -> Head {
    let mut head = Head::default();
    let mut buf = String::new();
    loop {
        buf.clear();
        let n = match r.read_line(&mut buf) {
            Ok(0) | Err(_) => return head,
            Ok(n) => n,
        };
        let line = buf.strip_suffix('\n').unwrap_or(&buf);
        let line = line.strip_suffix('\r').unwrap_or(line);
        if !line.starts_with('#') {
            if !line.is_empty() {
                head.columns = Some(line.split(',').map(str::to_string).collect());
            }
            return head;
        }
        if head.len == 0 {
            head.magic = Some(line.to_string());
        }
        if let Some(spec) = line.strip_prefix("# spec: ") {
            head.spec = Some(spec.to_string());
        } else if let Some(seed) = line.strip_prefix("# seed: ") {
            head.seed = seed.parse().ok();
        }
        head.len += n;
    }
}

/// [`read_head`] of the file at `path` (an empty head when it cannot be
/// opened).
fn read_head_at(path: &Path) -> Head {
    fs::File::open(path)
        .map(|f| read_head(&mut BufReader::new(f)))
        .unwrap_or_default()
}

/// The entry at `path`, if it stores `w`'s exact spec and seed, with its
/// size in bytes. The file is read once.
fn load_entry(path: &Path, w: &dyn WorkloadSpec) -> Option<(RunReport, u64)> {
    let text = fs::read_to_string(path).ok()?;
    let head = read_head(&mut text.as_bytes());
    let stored = head.magic.as_deref() == Some(ENTRY_MAGIC)
        && head.spec == Some(w.canonical())
        && head.seed == Some(w.seed());
    if !stored {
        return None;
    }
    let report = RunReport::from_csv(w.name(), &text[head.len..]).ok()?;
    Some((report, text.len() as u64))
}

/// Every entry in `dir` (none when the directory does not exist yet),
/// sorted by path. Blobs, leftover temp files and foreign files are not
/// entries.
fn list_entries(dir: &Path) -> std::io::Result<Vec<CacheEntry>> {
    let read_dir = match fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut entries = Vec::new();
    for entry in read_dir {
        let entry = entry?;
        let file_name = entry.file_name().to_string_lossy().into_owned();
        if file_name.ends_with(".partial.csv") {
            continue; // shard partial blob, not a result entry
        }
        let Some((scenario, hash, seed)) = parse_entry_name(&file_name) else {
            continue; // foreign file (or a leftover .tmp); not ours to report
        };
        let meta = entry.metadata()?;
        let age_secs = meta
            .modified()
            .ok()
            .and_then(|m| m.elapsed().ok())
            .map(|d| d.as_secs());
        let path = entry.path();
        let head = read_head_at(&path);
        entries.push(CacheEntry {
            scenario,
            hash,
            seed,
            bytes: meta.len(),
            age_secs,
            kind: head.spec.as_deref().and_then(WorkloadKind::of_canonical),
            columns: head.columns.map(|c| c.len()),
            path,
        });
    }
    entries.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(entries)
}

/// Parse `{name}-{hash:016x}-{seed:016x}.csv` (name may itself contain
/// `-`, so the two 16-hex-digit halves are split off the right end).
fn parse_entry_name(file_name: &str) -> Option<(String, u64, u64)> {
    let stem = file_name.strip_suffix(".csv")?;
    let (rest, seed_hex) = stem.rsplit_once('-')?;
    let (name, hash_hex) = rest.rsplit_once('-')?;
    if seed_hex.len() != 16 || hash_hex.len() != 16 {
        return None;
    }
    let seed = u64::from_str_radix(seed_hex, 16).ok()?;
    let hash = u64::from_str_radix(hash_hex, 16).ok()?;
    Some((name.to_string(), hash, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Sweep;
    use crate::simsweep::SimSweep;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wcs-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn report() -> RunReport {
        let mut r = RunReport::new("s", &["a", "b"]);
        r.push_row(vec![1.5, 1.0 / 7.0]);
        r
    }

    fn all(cache: &ResultCache) -> Vec<CacheEntry> {
        cache.query(&IndexQuery::default()).unwrap()
    }

    #[test]
    fn store_then_load_roundtrips() {
        let cache = ResultCache::new(tmpdir("roundtrip"));
        let sweep = Sweep::new("s").ds(&[10.0]).seed(3);
        assert!(cache.load_report(&sweep).is_none());
        cache.store_report(&sweep, &report()).unwrap();
        let loaded = cache.load_report(&sweep).expect("hit");
        assert_eq!(loaded.columns, report().columns);
        assert_eq!(loaded.rows[0][1].to_bits(), (1.0f64 / 7.0).to_bits());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn changed_params_miss() {
        let cache = ResultCache::new(tmpdir("miss"));
        let sweep = Sweep::new("s").ds(&[10.0]).seed(3);
        cache.store_report(&sweep, &report()).unwrap();
        assert!(
            cache.load_report(&sweep.clone().ds(&[11.0])).is_none(),
            "changed axis must miss"
        );
        assert!(
            cache.load_report(&sweep.clone().seed(4)).is_none(),
            "changed seed must miss"
        );
        assert!(
            cache.load_report(&sweep.clone().samples(1)).is_none(),
            "changed samples must miss"
        );
        assert!(cache.load_report(&sweep).is_some(), "original still hits");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn entries_lists_and_clear_removes() {
        let cache = ResultCache::new(tmpdir("ls"));
        assert!(all(&cache).is_empty(), "missing dir is empty");
        let a = Sweep::new("grid-a").ds(&[10.0]).seed(1);
        let b = Sweep::new("grid-b").ds(&[20.0]).seed(2);
        cache.store_report(&a, &report()).unwrap();
        cache.store_report(&b, &report()).unwrap();
        // A foreign file must be ignored by ls and survive clear.
        fs::write(cache.dir().join("README.txt"), "not a cache entry").unwrap();
        let entries = all(&cache);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].scenario, "grid-a");
        assert_eq!(entries[0].hash, a.scenario_hash());
        assert_eq!(entries[0].seed, 1);
        assert!(entries[0].bytes > 0);
        assert_eq!(entries[0].kind, Some(WorkloadKind::Model));
        assert_eq!(entries[0].columns, Some(2));
        assert_eq!(cache.remove(&IndexQuery::default()).unwrap(), 2);
        assert!(all(&cache).is_empty());
        assert!(cache.dir().join("README.txt").exists());
        assert!(cache.load_report(&a).is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn entries_carry_kind_and_layout() {
        let cache = ResultCache::new(tmpdir("kinds"));
        let model = Sweep::new("m-grid").ds(&[10.0]).seed(1);
        let sim = SimSweep::new("s-grid").seed(2);
        let mut model_report = RunReport::new("m-grid", &crate::model::SWEEP_COLUMNS);
        model_report.push_row(vec![0.0; 11]);
        let mut sim_report = RunReport::new("s-grid", &crate::simsweep::SIM_SWEEP_COLUMNS);
        sim_report.push_row(vec![0.0; 9]);
        cache.store_report(&model, &model_report).unwrap();
        cache.store_report(&sim, &sim_report).unwrap();
        let entries = all(&cache);
        assert_eq!(entries.len(), 2);
        let by_name = |n: &str| entries.iter().find(|e| e.scenario == n).unwrap();
        let m = by_name("m-grid");
        assert_eq!(m.kind, Some(WorkloadKind::Model));
        assert_eq!(m.layout(), "v1");
        let s = by_name("s-grid");
        assert_eq!(s.kind, Some(WorkloadKind::Sim));
        assert_eq!(s.layout(), "v1");
        // Kind-filtered clear removes only that kind.
        let sim_only = IndexQuery::by_kind(Some(WorkloadKind::Sim));
        assert_eq!(cache.remove(&sim_only).unwrap(), 1);
        let left = all(&cache);
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].scenario, "m-grid");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn blobs_roundtrip_and_stay_out_of_entries() {
        let cache = ResultCache::new(tmpdir("blob"));
        let name = "x-0000-k2-contiguous-0001.partial.csv";
        assert!(cache.load_blob(name).is_none());
        cache
            .store_blob(
                name,
                "# wcs-shard partial v1\n# spec: wcs-sweep-v1;name=x\nbody\n",
            )
            .unwrap();
        assert!(cache.load_blob(name).unwrap().contains("body"));
        assert!(all(&cache).is_empty(), "blobs are not entries");
        // A clear of the other kind keeps the model blob; a full clear
        // removes it (counted).
        let sim_only = IndexQuery::by_kind(Some(WorkloadKind::Sim));
        assert_eq!(cache.remove(&sim_only).unwrap(), 0);
        assert_eq!(cache.remove(&IndexQuery::default()).unwrap(), 1);
        assert!(cache.load_blob(name).is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn entry_names_with_dashes_parse() {
        let parsed =
            parse_entry_name("npair-scaling-0123456789abcdef-00000000004eaa12.csv").unwrap();
        assert_eq!(parsed.0, "npair-scaling");
        assert_eq!(parsed.1, 0x0123456789abcdef);
        assert_eq!(parsed.2, 0x4eaa12);
        assert!(parse_entry_name("junk.csv").is_none());
        assert!(parse_entry_name("a-1-2.csv").is_none(), "short hex halves");
        assert!(parse_entry_name("nope.txt").is_none());
    }

    #[test]
    fn corrupt_entry_is_a_miss() {
        let cache = ResultCache::new(tmpdir("corrupt"));
        let sweep = Sweep::new("s").ds(&[10.0]);
        cache.store_report(&sweep, &report()).unwrap();
        // Overwrite with garbage: load must degrade to a miss.
        let path = entry_path(cache.dir(), &sweep);
        fs::write(&path, "not a cache file").unwrap();
        assert!(cache.load_report(&sweep).is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }
}
