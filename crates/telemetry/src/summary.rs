//! Human rendering of a run log: `repro trace summarize RUNLOG.jsonl`.
//!
//! The summary aggregates the raw event stream into the tables an
//! operator actually asks for — where wall-clock went (spans), what the
//! engine's workers did per block, cache hit/miss/byte traffic, the
//! per-shard lifecycle, and any warnings — so one file answers "why was
//! this sweep slow" without re-running it under the bench harness.
//! Durations come from span `dur_ns` fields, which are valid even for
//! worker events folded in from other processes (their absolute `t_ns`
//! stamps use the worker's own epoch; durations are epoch-free).

use std::collections::BTreeMap;

use crate::jsonl::RunLog;
use crate::{Event, EventKind, Value};

/// Nanoseconds rendered at a human scale (`412ns`, `3.21µs`, `8.4ms`,
/// `1.207s`).
pub fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

fn format_bytes(b: u64) -> String {
    if b < 1024 {
        format!("{b} B")
    } else if b < 1024 * 1024 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{:.2} MiB", b as f64 / (1024.0 * 1024.0))
    }
}

#[derive(Default)]
struct SpanStats {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

#[derive(Default)]
struct CounterStats {
    total: u64,
    bytes: u64,
}

#[derive(Default)]
struct DispatchHostRow {
    assigned: u64,
    delivered: u64,
    dead: u64,
    retries: u64,
    max_gap_ns: u64,
}

#[derive(Default)]
struct ShardRow {
    planned: Option<(u64, u64)>, // (start, len) or strided coordinates rendered upstream
    attempts: Option<u64>,
    worker_ns: Option<u64>,
    worker_source: Option<String>,
    merged_source: Option<String>,
    blocks: u64,
    tasks: u64,
}

/// Render the human summary of a parsed run log.
pub fn summarize(log: &RunLog) -> String {
    let mut spans: BTreeMap<&str, SpanStats> = BTreeMap::new();
    let mut counters: BTreeMap<&str, CounterStats> = BTreeMap::new();
    let mut shards: BTreeMap<u64, ShardRow> = BTreeMap::new();
    // Dispatcher per-host tallies, plus the run-wide requeue count
    // (dispatch.requeue carries no host: the shard has just lost one).
    let mut dispatch_hosts: BTreeMap<String, DispatchHostRow> = BTreeMap::new();
    let mut dispatch_requeues: u64 = 0;
    let mut warns: Vec<&Event> = Vec::new();
    let mut benches: Vec<&Event> = Vec::new();
    // Engine per-block aggregates, keyed by originating shard (u64::MAX =
    // this process, i.e. an unsharded run).
    let mut engine_blocks: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new(); // (blocks, tasks, busy_ns)
    let mut engine_workers: BTreeMap<(u64, u64), (u64, u64)> = BTreeMap::new(); // (shard, worker) -> (busy_ns, blocks)

    const LOCAL: u64 = u64::MAX;
    let shard_of = |e: &Event| e.u64_field("shard").unwrap_or(LOCAL);

    for e in &log.events {
        match e.kind {
            EventKind::SpanExit => {
                if let Some(d) = e.u64_field("dur_ns") {
                    let s = spans.entry(e.name.as_str()).or_default();
                    s.count += 1;
                    s.total_ns += d;
                    s.max_ns = s.max_ns.max(d);
                }
            }
            EventKind::Counter => {
                let c = counters.entry(e.name.as_str()).or_default();
                c.total += e.u64_field("delta").unwrap_or(1);
                c.bytes += e.u64_field("bytes").unwrap_or(0);
            }
            EventKind::Warn => warns.push(e),
            _ => {}
        }
        match e.name.as_str() {
            "engine.block" => {
                let sh = shard_of(e);
                let agg = engine_blocks.entry(sh).or_default();
                agg.0 += 1;
                agg.1 += e.u64_field("len").unwrap_or(0);
                agg.2 += e.u64_field("dur_ns").unwrap_or(0);
                if let Some(row) = shards.get_mut(&sh) {
                    row.blocks += 1;
                    row.tasks += e.u64_field("len").unwrap_or(0);
                }
            }
            "engine.worker" => {
                let key = (shard_of(e), e.u64_field("worker").unwrap_or(0));
                let agg = engine_workers.entry(key).or_default();
                agg.0 += e.u64_field("busy_ns").unwrap_or(0);
                agg.1 += e.u64_field("blocks").unwrap_or(0);
            }
            "shard.planned" => {
                if let Some(sh) = e.u64_field("shard") {
                    let row = shards.entry(sh).or_default();
                    row.planned = Some((
                        e.u64_field("start").unwrap_or(0),
                        e.u64_field("tasks").unwrap_or(0),
                    ));
                }
            }
            "shard.worker" if e.kind == EventKind::SpanExit => {
                if let Some(sh) = e.u64_field("shard") {
                    let row = shards.entry(sh).or_default();
                    if let Some(src) = e.str_field("source") {
                        row.worker_source = Some(src.to_string());
                    }
                }
            }
            "shard.merged" => {
                if let Some(sh) = e.u64_field("shard") {
                    let row = shards.entry(sh).or_default();
                    row.merged_source = e.str_field("source").map(str::to_string);
                }
            }
            "dispatch.assign" => {
                if let Some(h) = e.str_field("host") {
                    dispatch_hosts.entry(h.to_string()).or_default().assigned += 1;
                }
            }
            "dispatch.shard" => {
                let ok = e
                    .field("ok")
                    .is_some_and(|v| matches!(v, Value::Bool(true)));
                if let Some(h) = e.str_field("host") {
                    let row = dispatch_hosts.entry(h.to_string()).or_default();
                    if ok {
                        row.delivered += 1;
                    }
                }
                // Worker time is the attempt that delivered; attempts
                // counts every finished try, failed ones included.
                if let Some(sh) = e.u64_field("shard") {
                    let row = shards.entry(sh).or_default();
                    row.attempts = row.attempts.max(e.u64_field("attempt"));
                    if ok {
                        row.worker_ns = e.u64_field("dur_ns");
                    }
                }
            }
            "dispatch.dead" => {
                if let Some(h) = e.str_field("host") {
                    dispatch_hosts.entry(h.to_string()).or_default().dead += 1;
                }
            }
            "dispatch.retry" => {
                if let Some(h) = e.str_field("host") {
                    dispatch_hosts.entry(h.to_string()).or_default().retries += 1;
                }
            }
            "dispatch.heartbeat" => {
                if let Some(h) = e.str_field("host") {
                    let row = dispatch_hosts.entry(h.to_string()).or_default();
                    row.max_gap_ns = row.max_gap_ns.max(e.u64_field("gap_ns").unwrap_or(0));
                }
            }
            "dispatch.requeue" => dispatch_requeues += 1,
            "bench.result" => benches.push(e),
            _ => {}
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "run log: schema {}, {} events\n",
        log.schema,
        log.events.len()
    ));

    if !spans.is_empty() {
        out.push_str("\n== timing (span totals) ==\n");
        let mut rows: Vec<_> = spans.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.total_ns));
        for (name, s) in rows {
            out.push_str(&format!(
                "  {name:<22} x{:<5} total {:>10}  max {:>10}\n",
                s.count,
                format_ns(s.total_ns),
                format_ns(s.max_ns)
            ));
        }
    }

    if !engine_blocks.is_empty() {
        out.push_str("\n== engine (per-block stats) ==\n");
        for (sh, (blocks, tasks, busy)) in &engine_blocks {
            let origin = if *sh == LOCAL {
                "local".to_string()
            } else {
                format!("shard {sh}")
            };
            let mean = if *blocks > 0 { busy / blocks } else { 0 };
            out.push_str(&format!(
                "  {origin:<10} {blocks:>4} blocks, {tasks:>6} tasks, busy {:>10}, mean/block {:>10}\n",
                format_ns(*busy),
                format_ns(mean)
            ));
            let workers: Vec<_> = engine_workers
                .iter()
                .filter(|((s, _), _)| s == sh)
                .collect();
            for ((_, w), (busy_ns, wblocks)) in workers {
                out.push_str(&format!(
                    "    worker {w}: {wblocks} blocks, busy {}\n",
                    format_ns(*busy_ns)
                ));
            }
        }
    }

    {
        let cache_names = [
            "cache.hit",
            "cache.miss",
            "cache.store",
            "cache.stale_layout",
            "cache.store_failed",
            "shard.partial_store_failed",
        ];
        let any = cache_names.iter().any(|n| counters.contains_key(n));
        if any {
            out.push_str("\n== cache ==\n");
            for name in cache_names {
                if let Some(c) = counters.get(name) {
                    if c.bytes > 0 {
                        out.push_str(&format!(
                            "  {name:<28} {:>6}  ({})\n",
                            c.total,
                            format_bytes(c.bytes)
                        ));
                    } else {
                        out.push_str(&format!("  {name:<28} {:>6}\n", c.total));
                    }
                }
            }
        }
    }

    if !shards.is_empty() {
        out.push_str("\n== shards ==\n");
        out.push_str(&format!(
            "  {:>5}  {:<15} {:>11} {:>8}  {:<18} {}\n",
            "shard", "tasks@start", "worker", "attempts", "source", "merged-from"
        ));
        for (sh, row) in &shards {
            let planned = match row.planned {
                Some((start, len)) => format!("{len}@{start}"),
                None => "-".to_string(),
            };
            let worker = row.worker_ns.map(format_ns).unwrap_or_else(|| "-".into());
            let attempts = row.attempts.map_or_else(|| "-".into(), |n| n.to_string());
            out.push_str(&format!(
                "  {sh:>5}  {planned:<15} {worker:>11} {attempts:>8}  {:<18} {}\n",
                row.worker_source.as_deref().unwrap_or("-"),
                row.merged_source.as_deref().unwrap_or("-"),
            ));
        }
    }

    if !dispatch_hosts.is_empty() {
        out.push_str("\n== dispatch (per host) ==\n");
        out.push_str("  host                      assigned     ok   dead  retries  max hb gap\n");
        for (host, row) in &dispatch_hosts {
            let gap = if row.max_gap_ns > 0 {
                format_ns(row.max_gap_ns)
            } else {
                "-".to_string()
            };
            out.push_str(&format!(
                "  {host:<24} {:>9} {:>6} {:>6} {:>8}  {gap:>10}\n",
                row.assigned, row.delivered, row.dead, row.retries
            ));
        }
        out.push_str(&format!("  requeues: {dispatch_requeues}\n"));
    }

    if !benches.is_empty() {
        out.push_str("\n== bench results ==\n");
        for e in &benches {
            let name = e.str_field("name").unwrap_or("?");
            let fmt = |key: &str| {
                e.f64_field(key)
                    .map(|v| format_ns(v.max(0.0) as u64))
                    .unwrap_or_else(|| "-".into())
            };
            out.push_str(&format!(
                "  {name:<28} median {:>10}  mad {:>10}\n",
                fmt("median_ns"),
                fmt("mad_ns")
            ));
        }
    }

    if !warns.is_empty() {
        out.push_str(&format!("\n== warnings ({}) ==\n", warns.len()));
        for e in &warns {
            out.push_str(&format!(
                "  [{}] {}\n",
                e.name,
                e.str_field("message").unwrap_or("")
            ));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::SCHEMA;
    use crate::{Event, EventKind, Value};

    fn ev(kind: EventKind, name: &str, fields: Vec<(&str, Value)>) -> Event {
        Event {
            t_ns: 0,
            kind,
            name: name.to_string(),
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    #[test]
    fn summarize_reports_spans_cache_and_shards() {
        let log = RunLog {
            schema: SCHEMA.to_string(),
            events: vec![
                ev(
                    EventKind::SpanExit,
                    "engine.run",
                    vec![("dur_ns", Value::U64(2_500_000))],
                ),
                ev(
                    EventKind::Counter,
                    "cache.hit",
                    vec![("delta", Value::U64(1)), ("bytes", Value::U64(2048))],
                ),
                ev(
                    EventKind::Counter,
                    "cache.miss",
                    vec![("delta", Value::U64(2))],
                ),
                ev(
                    EventKind::Value,
                    "shard.planned",
                    vec![
                        ("shard", Value::U64(0)),
                        ("start", Value::U64(0)),
                        ("tasks", Value::U64(12)),
                    ],
                ),
                ev(
                    EventKind::Value,
                    "dispatch.shard",
                    vec![
                        ("shard", Value::U64(0)),
                        ("host", Value::Str("local".into())),
                        ("attempt", Value::U64(1)),
                        ("ok", Value::Bool(false)),
                        ("dur_ns", Value::U64(3_000_000)),
                    ],
                ),
                ev(
                    EventKind::Value,
                    "dispatch.shard",
                    vec![
                        ("shard", Value::U64(0)),
                        ("host", Value::Str("local".into())),
                        ("attempt", Value::U64(2)),
                        ("ok", Value::Bool(true)),
                        ("dur_ns", Value::U64(9_000_000)),
                    ],
                ),
                ev(
                    EventKind::Value,
                    "shard.merged",
                    vec![
                        ("shard", Value::U64(0)),
                        ("source", Value::Str("file".into())),
                    ],
                ),
                ev(
                    EventKind::Value,
                    "engine.block",
                    vec![
                        ("shard", Value::U64(0)),
                        ("worker", Value::U64(1)),
                        ("len", Value::U64(12)),
                        ("dur_ns", Value::U64(1_000_000)),
                    ],
                ),
                ev(
                    EventKind::Warn,
                    "cache.store_failed",
                    vec![("message", Value::Str("warning: no disk".into()))],
                ),
            ],
        };
        let s = summarize(&log);
        assert!(s.contains("schema wcs-runlog-v1"), "{s}");
        assert!(s.contains("engine.run"), "{s}");
        assert!(s.contains("cache.hit"), "{s}");
        assert!(s.contains("2.0 KiB"), "{s}");
        assert!(s.contains("== shards =="), "{s}");
        assert!(s.contains("12@0"), "{s}");
        // Worker time from the delivering attempt, and the attempt count.
        let row = s.lines().find(|l| l.contains("12@0")).expect("shard 0 row");
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cols[..4], ["0", "12@0", "9.00ms", "2"], "{s}");
        assert!(s.contains("file"), "{s}");
        assert!(s.contains("shard 0"), "{s}");
        assert!(s.contains("warning: no disk"), "{s}");
    }

    #[test]
    fn summarize_renders_the_dispatch_table() {
        let log = RunLog {
            schema: SCHEMA.to_string(),
            events: vec![
                ev(
                    EventKind::Value,
                    "dispatch.assign",
                    vec![
                        ("shard", Value::U64(0)),
                        ("host", Value::Str("local".into())),
                        ("attempt", Value::U64(1)),
                    ],
                ),
                ev(
                    EventKind::Value,
                    "dispatch.heartbeat",
                    vec![
                        ("shard", Value::U64(0)),
                        ("host", Value::Str("local".into())),
                        ("seq", Value::U64(3)),
                        ("gap_ns", Value::U64(251_000_000)),
                    ],
                ),
                ev(
                    EventKind::Warn,
                    "dispatch.dead",
                    vec![
                        ("message", Value::Str("shard 0 worker died".into())),
                        ("shard", Value::U64(0)),
                        ("host", Value::Str("local".into())),
                        ("attempt", Value::U64(1)),
                        ("reason", Value::Str("exit".into())),
                    ],
                ),
                ev(
                    EventKind::Value,
                    "dispatch.requeue",
                    vec![("shard", Value::U64(0)), ("attempt", Value::U64(1))],
                ),
                ev(
                    EventKind::Value,
                    "dispatch.shard",
                    vec![
                        ("shard", Value::U64(0)),
                        ("host", Value::Str("local".into())),
                        ("attempt", Value::U64(2)),
                        ("ok", Value::Bool(true)),
                        ("dur_ns", Value::U64(5_000_000)),
                    ],
                ),
                ev(
                    EventKind::Value,
                    "dispatch.retry",
                    vec![
                        ("shard", Value::U64(1)),
                        ("host", Value::Str("ssh user@hostA".into())),
                        ("attempt", Value::U64(1)),
                        ("delay_ms", Value::U64(80)),
                    ],
                ),
            ],
        };
        let s = summarize(&log);
        assert!(s.contains("== dispatch (per host) =="), "{s}");
        assert!(s.contains("local"), "{s}");
        assert!(s.contains("ssh user@hostA"), "{s}");
        assert!(s.contains("251.00ms"), "{s}");
        assert!(s.contains("requeues: 1"), "{s}");
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(17), "17ns");
        assert_eq!(format_ns(1_500), "1.50µs");
        assert_eq!(format_ns(2_500_000), "2.50ms");
        assert_eq!(format_ns(1_207_000_000), "1.207s");
    }
}
