//! JSONL run-log sink and reader.
//!
//! A run log is a plain-text file, one JSON object per line. The first
//! line is always a `runlog.start` meta event carrying the schema
//! version ([`SCHEMA`]) — the reader refuses anything else, so a schema
//! bump can never be mistaken for data. Lines are written through an
//! unbuffered `Mutex<File>` (one `write_all` per event), so the log is
//! complete even when the CLI leaves via `process::exit`.
//!
//! [`parse_runlog_lenient`] is the one parser: it validates the header
//! and tallies damaged lines. [`parse_runlog`] is the same parser with
//! the first damaged line made an error.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::json::{event_from_json, event_to_json};
use crate::{Collector, Event, EventKind, Value};

/// Run-log schema identifier, bumped on any breaking change to the line
/// format or event vocabulary semantics.
pub const SCHEMA: &str = "wcs-runlog-v1";

/// A collector that appends one JSON line per event to a file
/// (`RUNLOG.jsonl` by convention).
pub struct JsonlCollector {
    path: PathBuf,
    file: Mutex<File>,
}

impl JsonlCollector {
    /// Create (truncating) `path` and write the `runlog.start` header
    /// event, which stamps the schema version and the collector's view
    /// of the process (pid, argv note passed by the caller).
    pub fn create(path: &Path, note: &str) -> std::io::Result<Self> {
        let file = File::create(path)?;
        let c = JsonlCollector {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        };
        c.record(&Event::now(
            EventKind::Meta,
            "runlog.start",
            vec![
                ("schema".to_string(), Value::Str(SCHEMA.to_string())),
                ("pid".to_string(), Value::U64(std::process::id() as u64)),
                ("note".to_string(), Value::Str(note.to_string())),
            ],
        ));
        Ok(c)
    }

    /// Where this collector writes.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Collector for JsonlCollector {
    fn record(&self, event: &Event) {
        let mut line = event_to_json(event);
        line.push('\n');
        // A failed write must not panic the engine's worker threads;
        // losing telemetry is strictly better than losing the run.
        let _ = self.file.lock().unwrap().write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.file.lock().unwrap().flush();
    }
}

/// An in-memory collector for tests: buffers every event, snapshot on
/// demand.
#[derive(Default)]
pub struct MemoryCollector {
    events: Mutex<Vec<Event>>,
}

impl MemoryCollector {
    /// Copy of everything recorded so far, in order.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }
}

impl Collector for MemoryCollector {
    fn record(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

/// A parsed run log: the validated schema string plus every event
/// *after* the `runlog.start` header.
#[derive(Debug)]
pub struct RunLog {
    /// Schema the header declared (always [`SCHEMA`] today).
    pub schema: String,
    /// Events in file order, header excluded.
    pub events: Vec<Event>,
}

/// Parse the run log at `path`, validating the header line.
pub fn read_runlog(path: &Path) -> Result<RunLog, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_runlog(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parse run-log text (see [`read_runlog`]): [`parse_runlog_lenient`],
/// with the first unparseable line an error.
pub fn parse_runlog(text: &str) -> Result<RunLog, String> {
    let lenient = parse_runlog_lenient(text)?;
    match lenient.corrupt.first() {
        Some((line, e)) => Err(format!("line {line}: {e}")),
        None => Ok(lenient.log),
    }
}

/// A run log read leniently: whatever parsed, plus an honest account of
/// what did not. `repro trace summarize` reports these counts (and
/// `--strict` turns them into a nonzero exit) instead of silently
/// skipping damage.
#[derive(Debug)]
pub struct LenientRunLog {
    /// The events that did parse (header excluded), in file order.
    pub log: RunLog,
    /// Lines (1-based) that failed to parse as events, with the error.
    pub corrupt: Vec<(usize, String)>,
    /// Event names outside [`crate::EVENT_NAMES`], with occurrence
    /// counts, sorted by name.
    pub unknown_names: Vec<(String, usize)>,
}

impl LenientRunLog {
    /// Whether anything was corrupt or off-vocabulary.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty() && self.unknown_names.is_empty()
    }
}

/// Leniently parse the run log at `path`. The header line is still
/// validated strictly — a wrong schema is a hard error, not damage to
/// tally — but unparseable data lines and unknown event names are
/// counted rather than fatal.
pub fn read_runlog_lenient(path: &Path) -> Result<LenientRunLog, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_runlog_lenient(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parse run-log text leniently; see [`read_runlog_lenient`].
pub fn parse_runlog_lenient(text: &str) -> Result<LenientRunLog, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let Some((_, first)) = lines.next() else {
        return Err("empty run log".to_string());
    };
    let header = event_from_json(first).map_err(|e| format!("line 1: {e}"))?;
    if header.kind != EventKind::Meta || header.name != "runlog.start" {
        return Err(format!(
            "line 1: expected a runlog.start header, found {} '{}'",
            header.kind.label(),
            header.name
        ));
    }
    let schema = header
        .str_field("schema")
        .ok_or("line 1: runlog.start has no schema field")?;
    if schema != SCHEMA {
        return Err(format!(
            "unsupported run-log schema '{schema}' (this build reads '{SCHEMA}')"
        ));
    }
    let mut events = Vec::new();
    let mut corrupt = Vec::new();
    let mut unknown: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for (i, line) in lines {
        match event_from_json(line) {
            Ok(e) => {
                if !crate::EVENT_NAMES.contains(&e.name.as_str()) {
                    *unknown.entry(e.name.clone()).or_insert(0) += 1;
                }
                events.push(e);
            }
            Err(e) => corrupt.push((i + 1, e)),
        }
    }
    Ok(LenientRunLog {
        log: RunLog {
            schema: schema.to_string(),
            events,
        },
        corrupt,
        unknown_names: unknown.into_iter().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wcs-telemetry-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn jsonl_file_roundtrips_through_the_reader() {
        let path = tmp("roundtrip.jsonl");
        let c = JsonlCollector::create(&path, "unit test").unwrap();
        let events = vec![
            Event {
                t_ns: 10,
                kind: EventKind::SpanEnter,
                name: "engine.run".to_string(),
                fields: vec![
                    ("n".to_string(), Value::U64(64)),
                    ("threads".to_string(), Value::U64(4)),
                ],
            },
            Event {
                t_ns: 20,
                kind: EventKind::Counter,
                name: "cache.hit".to_string(),
                fields: vec![
                    ("bytes".to_string(), Value::U64(u64::MAX)),
                    ("delta".to_string(), Value::U64(1)),
                ],
            },
            Event {
                t_ns: 30,
                kind: EventKind::SpanExit,
                name: "engine.run".to_string(),
                fields: vec![("dur_ns".to_string(), Value::U64(20))],
            },
        ];
        for e in &events {
            c.record(e);
        }
        c.flush();
        let log = read_runlog(&path).unwrap();
        assert_eq!(log.schema, SCHEMA);
        assert_eq!(log.events, events);
    }

    #[test]
    fn reader_rejects_missing_or_foreign_headers() {
        assert!(parse_runlog("").is_err());
        // A data line first: no header.
        let data = "{\"t_ns\":1,\"kind\":\"counter\",\"name\":\"cache.hit\",\"fields\":{}}";
        assert!(parse_runlog(data).unwrap_err().contains("runlog.start"));
        // Wrong schema version.
        let bad = "{\"t_ns\":0,\"kind\":\"meta\",\"name\":\"runlog.start\",\
                   \"fields\":{\"schema\":\"wcs-runlog-v0\"}}";
        assert!(parse_runlog(bad).unwrap_err().contains("unsupported"));
    }

    #[test]
    fn lenient_reader_counts_damage_instead_of_failing() {
        let header = "{\"t_ns\":0,\"kind\":\"meta\",\"name\":\"runlog.start\",\
                      \"fields\":{\"schema\":\"wcs-runlog-v1\"}}";
        let good =
            "{\"t_ns\":5,\"kind\":\"counter\",\"name\":\"cache.hit\",\"fields\":{\"delta\":1}}";
        let unknown = "{\"t_ns\":6,\"kind\":\"value\",\"name\":\"mystery.event\",\"fields\":{}}";
        let truncated = "{\"t_ns\":7,\"kind\":\"value\",\"na";
        let text = format!("{header}\n{good}\n{unknown}\n{truncated}\n{good}\n");
        let lenient = parse_runlog_lenient(&text).unwrap();
        assert_eq!(lenient.log.events.len(), 3);
        assert_eq!(lenient.corrupt.len(), 1);
        assert_eq!(lenient.corrupt[0].0, 4);
        assert_eq!(
            lenient.unknown_names,
            vec![("mystery.event".to_string(), 1)]
        );
        assert!(!lenient.is_clean());
        // Strict reader refuses the same text outright.
        assert!(parse_runlog(&text).unwrap_err().contains("line 4"));
        // A clean log is clean.
        let clean = parse_runlog_lenient(&format!("{header}\n{good}\n")).unwrap();
        assert!(clean.is_clean());
        // A foreign schema stays a hard error even leniently.
        let bad = "{\"t_ns\":0,\"kind\":\"meta\",\"name\":\"runlog.start\",\
                   \"fields\":{\"schema\":\"wcs-runlog-v0\"}}";
        assert!(parse_runlog_lenient(bad)
            .unwrap_err()
            .contains("unsupported"));
    }

    #[test]
    fn memory_collector_buffers_in_order() {
        let mem = Arc::new(MemoryCollector::default());
        for i in 0..5u64 {
            mem.record(&Event {
                t_ns: i,
                kind: EventKind::Value,
                name: "bench.result".to_string(),
                fields: vec![("i".to_string(), Value::U64(i))],
            });
        }
        let snap = mem.snapshot();
        assert_eq!(snap.len(), 5);
        assert!(snap.windows(2).all(|w| w[0].t_ns < w[1].t_ns));
    }
}
