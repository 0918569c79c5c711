//! Mutation fuzzing of every reader of the reproduction's files and of
//! the dispatcher's and the daemon's input: result-store entries, shard
//! partials (as plan-directory files and as index blobs), shard
//! manifests, run logs, run manifests, hosts files, fault specs, spec
//! files and HTTP request heads.
//!
//! Each property takes a valid document, applies one to three seeded
//! edits (truncation, a deleted or doubled line, a number swapped for a
//! huge, negative or malformed one, a stray or inserted byte) and feeds
//! the result to the reader. No input may panic or abort: each one is
//! read, or gives a structured error, or is a cache miss. Documents the
//! writers emit must read back to what was written (parse∘emit is the
//! identity) for partials, shard manifests and run-log events, and a
//! spec file that parses must be within its work budget and re-emit to
//! a spec that parses to the same canonical string. The case streams are
//! fixed by the proptest shim, so a failure reproduces.

use in_defense_of_carrier_sense::runtime::history::{manifest_json, RunManifest};
use in_defense_of_carrier_sense::runtime::workload::MAX_TASKS;
use in_defense_of_carrier_sense::runtime::{
    parse_any_spec_toml, scenarios, to_sim_spec_toml, to_spec_toml, AnyWorkload, EffortProfile,
    Engine, IndexQuery, ResultCache, ResultIndex, RunReport, SimSweep, Sweep, Topology,
    WorkloadKind, WorkloadOutcome, WorkloadSpec,
};
use in_defense_of_carrier_sense::shard::{
    merge_dir, merge_partials, partial::run_worker, partial_cache_name, partial_path, write_plan,
    PartialReport, ShardError, ShardManifest, ShardPlan, ShardStrategy,
};
use in_defense_of_carrier_sense::telemetry::json::{event_from_json, event_to_json};
use in_defense_of_carrier_sense::telemetry::jsonl::{parse_runlog, parse_runlog_lenient, SCHEMA};
use in_defense_of_carrier_sense::telemetry::{metrics, summary, Event, EventKind, Value};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use wcs_dispatch::{fault::parse_spec, HostPool};
use wcs_serve::http::{read_request, MAX_BODY, MAX_HEAD};

/// Numbers a mutation splices in place of a digit run.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "1000000000000000",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1e400",
    "NaN",
    "",
];

/// Bytes a mutation drops into a document.
const JUNK: &[&str] = &[
    "#", ",", "\"", "{", "}", "[", "]", ":", "=", "/", "\\", "x", "\u{e9}", "\0", "\n", "\r\n", " ",
];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[(rng.next_u64() % from.len() as u64) as usize]
}

/// A char boundary of `text` in `0..=text.len()`.
fn position(text: &str, rng: &mut TestRng) -> usize {
    let mut at = (rng.next_u64() % (text.len() as u64 + 1)) as usize;
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// One to three seeded edits of `doc`.
fn mutate(doc: &str, rng: &mut TestRng) -> String {
    let mut text = doc.to_string();
    for _ in 0..1 + rng.next_u64() % 3 {
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        let line = (rng.next_u64() % lines.len().max(1) as u64) as usize;
        text = match rng.next_u64() % 6 {
            0 => text[..position(&text, rng)].to_string(),
            1 if !lines.is_empty() => {
                let mut kept = lines.clone();
                kept.remove(line);
                kept.concat()
            }
            2 if !lines.is_empty() => {
                let mut doubled = lines.clone();
                doubled.insert(line, lines[line]);
                doubled.concat()
            }
            3 => {
                let runs: Vec<(usize, usize)> = digit_runs(&text);
                if runs.is_empty() {
                    text
                } else {
                    let (start, end) = runs[(rng.next_u64() % runs.len() as u64) as usize];
                    format!("{}{}{}", &text[..start], pick(rng, NUMBERS), &text[end..])
                }
            }
            4 => {
                let at = position(&text, rng);
                let next = text[at..].chars().next().map_or(0, char::len_utf8);
                format!("{}{}{}", &text[..at], pick(rng, JUNK), &text[at + next..])
            }
            _ => {
                let at = position(&text, rng);
                format!("{}{}{}", &text[..at], pick(rng, JUNK), &text[at..])
            }
        };
    }
    text
}

/// Byte ranges of the runs of ASCII digits in `text`.
fn digit_runs(text: &str) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut start = None;
    for (i, b) in text.bytes().chain(std::iter::once(b' ')).enumerate() {
        match (b.is_ascii_digit(), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                runs.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    runs
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wcs-fuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small model sweep with both row layouts' topologies.
fn tiny_sweep() -> Sweep {
    Sweep::new("fuzz")
        .rmaxes(&[40.0])
        .ds(&[20.0, 60.0])
        .sigmas(&[0.0, 8.0])
        .topologies(&[Topology::TwoPair, Topology::npair_line(3)])
        .samples(60)
        .seed(11)
}

fn run_manifest_text() -> String {
    let outcome = WorkloadOutcome {
        report: RunReport::new("fuzz", &["a"]),
        cache_hit: false,
        tasks_run: 8,
        store_failed: false,
    };
    manifest_json(&tiny_sweep(), &outcome, 8, 1_234_567, 1_700_000_000_000)
}

fn runlog_text() -> String {
    let ev = |t_ns, kind, name: &str, fields: Vec<(&str, Value)>| Event {
        t_ns,
        kind,
        name: name.to_string(),
        fields: fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    };
    let events = [
        ev(
            0,
            EventKind::Meta,
            "runlog.start",
            vec![
                ("schema", Value::Str(SCHEMA.to_string())),
                ("pid", Value::U64(42)),
                ("note", Value::Str("repro \"fuzz\"\tx".to_string())),
            ],
        ),
        ev(
            10,
            EventKind::SpanEnter,
            "workload.run",
            vec![
                ("hash", Value::U64(u64::MAX)),
                ("name", Value::Str("f".into())),
            ],
        ),
        ev(
            20,
            EventKind::SpanExit,
            "engine.block",
            vec![("dur_ns", Value::U64(700))],
        ),
        ev(
            30,
            EventKind::Counter,
            "cache.store",
            vec![("delta", Value::U64(1))],
        ),
        ev(
            40,
            EventKind::Value,
            "dispatch.shard",
            vec![("dur_ns", Value::U64(9)), ("exit", Value::I64(-3))],
        ),
        ev(
            50,
            EventKind::Value,
            "bench.result",
            vec![("ratio", Value::F64(0.125)), ("ok", Value::Bool(true))],
        ),
        ev(
            60,
            EventKind::SpanExit,
            "workload.run",
            vec![("dur_ns", Value::U64(50))],
        ),
    ];
    events.iter().map(|e| event_to_json(e) + "\n").collect()
}

const HOSTS: &str = "# fleet\n\
                     local\n\
                     local slots=2\n\
                     exec ssh user@hostA\n\
                     exec slots=4 exe=/opt/bin/repro ssh user@hostB  # comment\n\
                     exec fetch=\"scp hostC:{path} {path}\" ssh user@hostC\n";

/// Request heads the daemon reads: a GET with a query string and a POST
/// of a spec body.
const HEADS: [&str; 2] = [
    "GET /v1/results?kind=sim&limit=5 HTTP/1.1\r\nHost: x\r\nLast-Event-ID: 3\r\n\r\n",
    "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 24\r\n\r\nname = \"fuzz\"\nseed = 11\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn http_heads_read_to_an_outcome_within_their_budget(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let head = HEADS[(rng.next_u64() % HEADS.len() as u64) as usize];
        let mut input = mutate(head, &mut rng).into_bytes();
        // Half the cases run on into a flood that never ends a line.
        if rng.next_u64().is_multiple_of(2) {
            input.resize(input.len() + MAX_HEAD + MAX_BODY, b'A');
        }
        let mut unread = &input[..];
        let outcome = read_request(&mut unread);
        prop_assert!(outcome.is_ok(), "{outcome:?}");
        prop_assert!(input.len() - unread.len() <= MAX_HEAD + MAX_BODY);
    }

    #[test]
    fn cache_entry_reader_never_panics(seed in 0u64..u64::MAX) {
        let dir = tmpdir(&format!("entry-{seed:x}"));
        let cache = ResultCache::new(&dir);
        let sweep = tiny_sweep();
        let mut report = RunReport::new("fuzz", &["a", "b", "c"]);
        report.push_row(vec![1.5, -0.0, 1.0 / 3.0]);
        report.push_row(vec![2.5, 1e300, 7.0]);
        cache.store_report(&sweep, &report).unwrap();
        let entry = cache.query(&IndexQuery::default()).unwrap().remove(0);
        let text = std::fs::read_to_string(&entry.path).unwrap();
        let mut rng = TestRng::new(seed);
        std::fs::write(&entry.path, mutate(&text, &mut rng)).unwrap();
        // Load, listing and paged rows each read or miss.
        if let Some(loaded) = cache.load_report(&sweep) {
            prop_assert!(loaded.rows.iter().all(|r| r.len() == loaded.columns.len()));
        }
        let listed = cache.query(&IndexQuery::default()).unwrap();
        prop_assert_eq!(listed.len(), 1);
        if let Ok(Some(page)) = cache.read_rows(entry.hash, entry.seed, 0, 8) {
            prop_assert!(page.rows.iter().all(|r| r.len() == page.columns.len()));
        }
        let sim_only = IndexQuery::by_kind(Some(WorkloadKind::Sim));
        prop_assert!(cache.remove(&sim_only).unwrap() <= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cheap_readers_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        // Run logs, strict and lenient, and what is built from them.
        let log = mutate(&runlog_text(), &mut rng);
        let _ = parse_runlog(&log);
        if let Ok(lenient) = parse_runlog_lenient(&log) {
            let _ = summary::summarize(&lenient.log);
            let _ = metrics::runlog_prometheus(&lenient.log);
            let _ = metrics::phase_totals(&lenient.log);
        }
        // Run manifests.
        if let Ok(m) = RunManifest::parse(&mutate(&run_manifest_text(), &mut rng)) {
            prop_assert!(!m.phases().is_empty());
        }
        // Hosts files: a parsed pool never exceeds the slot cap.
        if let Ok(pool) = HostPool::parse(&mutate(HOSTS, &mut rng)) {
            prop_assert!(pool.total_slots() as u64 <= MAX_TASKS);
        }
        // Fault specs.
        for spec in ["kill:1@2", "spawn-fail:2x3", "mute:4"] {
            let _ = parse_spec(&mutate(spec, &mut rng));
        }
    }
}

/// A plan directory of `tiny_sweep` in `k` shards, its partials
/// written, the first partial's text, and its manifest's text.
fn plan_dir(tag: &str, k: usize) -> (PathBuf, String, String) {
    let dir = tmpdir(tag);
    let paths = write_plan(&dir, tiny_sweep(), k, ShardStrategy::Contiguous).unwrap();
    for path in &paths {
        let m = ShardManifest::load(path).unwrap();
        run_worker(&m, &Engine::serial(), None)
            .unwrap()
            .save(&partial_path(&dir, m.shard))
            .unwrap();
    }
    let partial = std::fs::read_to_string(partial_path(&dir, 0)).unwrap();
    let manifest = std::fs::read_to_string(&paths[0]).unwrap();
    (dir, partial, manifest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn partial_files_and_manifests_merge_or_fail_cleanly(seed in 0u64..u64::MAX) {
        // At k = 1 no second partial can disagree with a bad claim.
        let k = 1 + (seed % 2) as usize;
        let (dir, partial, manifest) = plan_dir(&format!("merge-{seed:x}"), k);
        let mut rng = TestRng::new(seed);
        let (path, doc) = if rng.next_u64().is_multiple_of(3) {
            (dir.join("shard-0000.manifest.toml"), manifest)
        } else {
            (partial_path(&dir, 0), partial)
        };
        let mutated = mutate(&doc, &mut rng);
        let _ = PartialReport::parse(&mutated, Path::new("x"));
        let _ = ShardManifest::parse(&mutated, Path::new("x"));
        std::fs::write(&path, &mutated).unwrap();
        if let Ok(merged) = merge_dir(&dir, None) {
            prop_assert_eq!(merged.shards, k);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_blobs_are_served_or_missed(seed in 0u64..u64::MAX) {
        // A lost partial file is served from its index blob only if the
        // blob passes the same gate.
        let (dir, partial, _) = plan_dir(&format!("blob-{seed:x}"), 1 + (seed % 2) as usize);
        let cache = ResultCache::new(dir.join("index"));
        let manifest = ShardManifest::load(&dir.join("shard-0000.manifest.toml")).unwrap();
        let mut rng = TestRng::new(seed);
        cache
            .store_blob(&partial_cache_name(&manifest), &mutate(&partial, &mut rng))
            .unwrap();
        std::fs::remove_file(partial_path(&dir, 0)).unwrap();
        match merge_dir(&dir, Some(&cache)) {
            Ok(merged) => prop_assert_eq!(merged.shards_from_cache, 1),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every variant of `doc` with one digit run in its first `lines`
/// lines swapped for one of [`NUMBERS`]: the counts and coordinates a
/// header claims, tried exhaustively rather than by chance.
fn number_swaps(doc: &str, lines: usize) -> Vec<String> {
    let header: usize = doc.split_inclusive('\n').take(lines).map(str::len).sum();
    digit_runs(&doc[..header])
        .into_iter()
        .flat_map(|(start, end)| {
            NUMBERS
                .iter()
                .map(move |n| format!("{}{n}{}", &doc[..start], &doc[end..]))
        })
        .collect()
}

#[test]
fn every_number_a_partial_or_manifest_header_claims_is_checked() {
    // A partial claiming `# task_count: 1000000000000000` (or a k of
    // that size) once made the merge size an allocation by it and abort.
    // One shard, so no second partial disagrees with the claim.
    let (dir, partial, manifest) = plan_dir("numbers", 1);
    let manifest_path = dir.join("shard-0000.manifest.toml");
    for (path, doc, lines) in [
        (partial_path(&dir, 0), &partial, 8),
        (manifest_path, &manifest, usize::MAX),
    ] {
        let variants = number_swaps(doc, lines);
        assert!(variants.len() > 40, "{}", variants.len());
        for variant in variants {
            std::fs::write(&path, &variant).unwrap();
            if let Ok(merged) = merge_dir(&dir, None) {
                assert_eq!(merged.shards, 1);
            }
        }
        std::fs::write(&path, doc).unwrap();
    }
    assert!(merge_dir(&dir, None).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_shard_count_the_plan_would_not_deal_is_refused() {
    // An older binary dealt empty shards: a 2-task workload at k = 3
    // got a zero-row third shard. Its manifests and its partial set
    // tile that plan, and each is refused with a structured error.
    let sweep = tiny_sweep().sigmas(&[0.0]).topologies(&[Topology::TwoPair]);
    assert_eq!(sweep.task_count(), 2);
    let dir = tmpdir("k-over-tasks");
    let paths = write_plan(&dir, &sweep, 3, ShardStrategy::Contiguous).unwrap();
    assert_eq!(paths.len(), 2, "one shard per task");
    let text = std::fs::read_to_string(&paths[0]).unwrap();
    let over = text.replacen("k = 2\n", "k = 3\n", 1);
    assert_ne!(over, text);
    assert!(matches!(
        ShardManifest::parse(&over, Path::new("x")),
        Err(ShardError::Parse { .. })
    ));
    std::fs::write(&paths[0], &over).unwrap();
    assert!(matches!(
        merge_dir(&dir, None),
        Err(ShardError::Parse { .. })
    ));
    let plan = ShardPlan::new(2, 2, ShardStrategy::Contiguous).unwrap();
    let mut parts: Vec<PartialReport> = (0..2)
        .map(|i| {
            run_worker(
                &ShardManifest::new(&sweep, &plan, i),
                &Engine::serial(),
                None,
            )
            .unwrap()
        })
        .collect();
    let mut empty = parts[0].clone();
    empty.shard = 2;
    empty.report.rows.clear();
    parts.push(empty);
    for p in &mut parts {
        p.k = 3;
    }
    assert!(matches!(
        merge_partials(&parts),
        Err(ShardError::SpecMismatch(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_log_sums_saturate_instead_of_overflowing() {
    // Every number after the header at u64::MAX, every line doubled: the
    // summaries add the same huge value twice.
    let mut maxed = String::new();
    for (i, line) in runlog_text().lines().enumerate() {
        let mut out = line.to_string();
        if i > 0 {
            for (start, end) in digit_runs(line).into_iter().rev() {
                out.replace_range(start..end, "18446744073709551615");
            }
        }
        maxed.push_str(&format!("{out}\n{out}\n"));
    }
    let lenient = parse_runlog_lenient(&maxed).unwrap();
    assert!(lenient.corrupt.is_empty(), "{:?}", lenient.corrupt);
    let _ = summary::summarize(&lenient.log);
    let text = metrics::runlog_prometheus(&lenient.log);
    assert!(text.contains(&format!("wcs_cache_store_total {}\n", u64::MAX)));
    let totals = metrics::phase_totals(&lenient.log);
    assert!(totals.contains(&("engine.block".to_string(), u64::MAX)));
}

/// A random string over characters that stress the JSON escaper.
fn text(rng: &mut TestRng, alphabet: &[char]) -> String {
    (0..rng.next_u64() % 12)
        .map(|_| alphabet[(rng.next_u64() % alphabet.len() as u64) as usize])
        .collect()
}

const JSON_CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '.', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é',
    '€', '𝄞',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn runlog_events_read_back_as_written(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let kinds = [
            EventKind::Meta,
            EventKind::SpanEnter,
            EventKind::SpanExit,
            EventKind::Counter,
            EventKind::Value,
            EventKind::Warn,
            EventKind::Info,
        ];
        let fields = (0..rng.next_u64() % 5)
            .map(|_| {
                let value = match rng.next_u64() % 5 {
                    0 => Value::U64(rng.next_u64()),
                    // Non-negative integers read back as U64.
                    1 => Value::I64(-((rng.next_u64() >> 1) as i64) - 1),
                    2 => {
                        let x = f64::from_bits(rng.next_u64());
                        Value::F64(if x.is_finite() { x } else { 0.5 })
                    }
                    3 => Value::Bool(rng.next_u64().is_multiple_of(2)),
                    _ => Value::Str(text(&mut rng, JSON_CHARS)),
                };
                (text(&mut rng, JSON_CHARS), value)
            })
            .collect();
        let event = Event {
            t_ns: rng.next_u64(),
            kind: kinds[(rng.next_u64() % kinds.len() as u64) as usize],
            name: text(&mut rng, JSON_CHARS),
            fields,
        };
        let line = event_to_json(&event);
        let back = event_from_json(&line).unwrap();
        prop_assert_eq!(&back, &event);
        prop_assert_eq!(event_to_json(&back), line);
    }

    #[test]
    fn partials_read_back_as_written(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let spec_chars: Vec<char> = "abz;=,.()[]# 09-_\"é".chars().collect();
        let column_chars: Vec<char> = "abc_xyz09".chars().collect();
        let k = 1 + (rng.next_u64() % 9) as usize;
        let columns: Vec<String> = (0..1 + rng.next_u64() % 5)
            .map(|i| format!("c{i}{}", text(&mut rng, &column_chars)))
            .collect();
        let names: Vec<&str> = columns.iter().map(String::as_str).collect();
        let mut report = RunReport::new("partial", &names);
        for _ in 0..rng.next_u64() % 4 {
            report.push_row(
                (0..columns.len())
                    .map(|_| {
                        let x = f64::from_bits(rng.next_u64());
                        if x.is_nan() { -0.0 } else { x }
                    })
                    .collect(),
            );
        }
        let partial = PartialReport {
            kind: if rng.next_u64().is_multiple_of(2) { WorkloadKind::Model } else { WorkloadKind::Sim },
            spec: text(&mut rng, &spec_chars),
            seed: rng.next_u64(),
            shard: (rng.next_u64() % k as u64) as usize,
            k,
            strategy: if rng.next_u64().is_multiple_of(2) {
                ShardStrategy::Contiguous
            } else {
                ShardStrategy::Strided
            },
            task_count: (rng.next_u64() >> 1) as usize,
            report,
        };
        let text = partial.to_text();
        let back = PartialReport::parse(&text, Path::new("x")).unwrap();
        prop_assert_eq!(back.to_text(), text);
        prop_assert_eq!(
            (back.kind, &back.spec, back.seed, back.shard, back.k),
            (partial.kind, &partial.spec, partial.seed, partial.shard, partial.k)
        );
        prop_assert_eq!((back.strategy, back.task_count), (partial.strategy, partial.task_count));
        prop_assert_eq!(&back.report.columns, &partial.report.columns);
        let bits = |r: &RunReport| -> Vec<u64> {
            r.rows.iter().flatten().map(|x| x.to_bits()).collect()
        };
        prop_assert_eq!(bits(&back.report), bits(&partial.report));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn shard_manifests_read_back_as_written(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let names = scenarios::all_names();
        let name = names[(rng.next_u64() % names.len() as u64) as usize];
        let mut workload = scenarios::any_by_name(name, &EffortProfile::quick()).unwrap();
        if rng.next_u64().is_multiple_of(4) {
            workload = AnyWorkload::Sim(
                SimSweep::new("fuzz \"sim\"")
                    .cca_thresholds_db(&[7.0, 13.5])
                    .points(2)
                    .run_secs(1)
                    .seed(rng.next_u64()),
            );
        }
        let k = 1 + (rng.next_u64() % 12) as usize;
        let strategy = if rng.next_u64().is_multiple_of(2) {
            ShardStrategy::Contiguous
        } else {
            ShardStrategy::Strided
        };
        let plan = ShardPlan::new(workload.task_count(), k, strategy).unwrap();
        let m = ShardManifest::new(workload, &plan, (rng.next_u64() % plan.k as u64) as usize);
        let text = m.to_toml();
        let back = ShardManifest::parse(&text, Path::new("x")).unwrap();
        prop_assert_eq!(&back, &m);
        prop_assert_eq!(back.to_toml(), text);
    }
}

/// The spec files CI writes (`sim-sweep-smoke`'s two and
/// `telemetry-smoke`'s), as fuzz seeds beside the built-ins.
const CI_SPECS: [&str; 3] = [
    "workload = \"sim\"\nname = \"ci-sim-smoke\"\nccas = [7.0, 13.0, 19.0]\n\
     rates = [\"best-fixed\"]\npoints = 2\nrun_secs = 1\nsweep_rates = [6.0, 24.0]\nseed = 2009\n",
    "workload = \"sim\"\nname = \"ci-sim-fine\"\n\
     ccas = [1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0, 19.0, 21.0, 23.0, 25.0, 27.0, 29.0]\n\
     rates = [\"best-fixed\", \"samplerate\", \"fixed(12.0)\"]\npoints = 3\nrun_secs = 2\nseed = 77\n",
    "name = \"ci-telemetry-smoke\"\nrmaxes = [40.0]\nds = [25.0, 80.0]\nsigmas = [0.0, 8.0]\n\
     topologies = [\"two-pair\", \"npair(n=3,placement=line)\"]\nsamples = 800\nseed = 9090\n",
];

/// Every built-in scenario as its spec file, then CI's spec files.
fn spec_documents() -> Vec<String> {
    let quick = EffortProfile::quick();
    let model = scenarios::NAMES.map(|n| to_spec_toml(&scenarios::by_name(n, &quick).unwrap()));
    let sim = [
        to_sim_spec_toml(&scenarios::sim_threshold_grid(&quick)),
        to_sim_spec_toml(&scenarios::sim_rate_policies(&quick)),
    ];
    (model.into_iter().chain(sim))
        .chain(CI_SPECS.map(String::from))
        .collect()
}

/// A spec document read by [`parse_any_spec_toml`] is either refused
/// with a coded error, or is within its work budget and re-emits to a
/// spec that parses back to the same canonical string.
fn check_spec_document(text: &str) -> Result<(), String> {
    match parse_any_spec_toml(text) {
        Err(e) if !e.code().is_empty() && !e.message().is_empty() => Ok(()),
        Err(e) => Err(format!("uncoded error {e:?}")),
        Ok(w) => {
            // No spec that parses makes a job allocate or run without
            // bound.
            if w.cost() > w.kind().budget() || w.task_count() as u64 > MAX_TASKS {
                return Err(format!("{} parsed over its budget", w.canonical()));
            }
            let emitted = w.to_spec_toml();
            match parse_any_spec_toml(&emitted) {
                Ok(again)
                    if again.canonical() == w.canonical() && again.to_spec_toml() == emitted =>
                {
                    Ok(())
                }
                again => Err(format!("{emitted:?} re-parsed to {again:?}")),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn spec_files_parse_bounded_and_round_trip_or_fail_cleanly(seed in 0u64..u64::MAX) {
        let docs = spec_documents();
        let mut rng = TestRng::new(seed);
        let doc = &docs[(rng.next_u64() % docs.len() as u64) as usize];
        let mutated = mutate(doc, &mut rng);
        let checked = check_spec_document(&mutated);
        prop_assert!(checked.is_ok(), "{mutated:?}: {checked:?}");
    }
}

#[test]
fn every_number_a_spec_file_holds_is_checked() {
    for doc in spec_documents() {
        assert_eq!(check_spec_document(&doc), Ok(()));
        for variant in number_swaps(&doc, usize::MAX) {
            if let Err(e) = check_spec_document(&variant) {
                panic!("{variant:?}: {e}");
            }
        }
    }
}
