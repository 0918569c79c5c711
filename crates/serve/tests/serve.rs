//! End-to-end tests of the `wcs-serve` daemon over real sockets: job
//! submission and dedupe, byte-identical SSE row streams, structured
//! spec errors, index pagination, degraded/strict cache-store handling.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wcs_runtime::{run_workload, AnyWorkload, Engine, ResultCache, ResultIndex, RunReport, Sweep};
use wcs_serve::{ServeConfig, Server};
use wcs_telemetry::json::{self, Json};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wcs-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A sweep small enough to run in well under a second.
fn tiny_sweep(name: &str, seed: u64) -> Sweep {
    Sweep::new(name)
        .rmaxes(&[20.0])
        .ds(&[30.0, 90.0])
        .sigmas(&[0.0, 4.0])
        .samples(400)
        .seed(seed)
}

fn spec_toml(sweep: &Sweep) -> String {
    AnyWorkload::from(sweep).to_spec_toml()
}

fn server_over(dir: &Path, cfg: ServeConfig) -> Server {
    let index: Arc<dyn ResultIndex> = Arc::new(ResultCache::new(dir.to_path_buf()));
    Server::start(cfg, index).expect("server starts")
}

fn test_cfg() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        engine_threads: 2,
        ..ServeConfig::default()
    }
}

/// Minimal one-shot HTTP client: returns (status, body).
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
    for (k, v) in headers {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    req.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    s.write_all(req.as_bytes()).expect("send");
    let mut response = String::new();
    s.read_to_string(&mut response).expect("read");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {response:.60}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Parse a response body, failing the test unless it is one JSON
/// document.
fn json_body(body: &str) -> Json {
    json::parse(body).unwrap_or_else(|e| panic!("body is not JSON ({e}): {body}"))
}

/// The body's top-level `name`, if it is an unsigned integer.
fn json_u64(body: &str, name: &str) -> Option<u64> {
    json_body(body).get(name)?.as_u64()
}

/// The body's top-level `name`, if it is a string.
fn json_str(body: &str, name: &str) -> Option<String> {
    Some(json_body(body).get(name)?.as_str()?.to_string())
}

/// The body's top-level `name`, if it is a bool.
fn json_bool(body: &str, name: &str) -> Option<bool> {
    match json_body(body).get(name)? {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

/// The items of the body's top-level array `name`.
fn json_items(body: &str, name: &str) -> Vec<Json> {
    json_body(body)
        .field(name, Json::as_array)
        .unwrap_or_else(|e| panic!("{e}: {body}"))
        .to_vec()
}

/// Poll a job's status until it is terminal; returns the status body.
fn wait_terminal(addr: SocketAddr, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), &[], "");
        assert_eq!(status, 200, "job {id} must exist: {body}");
        let phase = json_str(&body, "phase").expect("status has a phase");
        if phase == "done" || phase == "failed" {
            return body;
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {body}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Reassemble an SSE row stream into the CSV text it carries: the
/// `header` event's payload, then every row `data:` line. Ignores the
/// terminal `done` event.
fn sse_to_csv(stream: &str) -> String {
    let mut out = String::new();
    for block in stream.split("\n\n") {
        if block.contains("event: done") || block.trim().is_empty() {
            continue;
        }
        for line in block.lines() {
            if let Some(data) = line.strip_prefix("data: ") {
                out.push_str(data);
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn concurrent_posts_share_one_job_one_cache_entry_and_identical_streams() {
    let dir = tmpdir("dedupe");
    let server = server_over(&dir, test_cfg());
    let addr = server.addr();
    let sweep = tiny_sweep("serve-dedupe", 11);
    let spec = spec_toml(&sweep);

    // N clients race to POST the same spec.
    let posts: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| scope.spawn(|| http(addr, "POST", "/v1/jobs", &[], &spec)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let ids: Vec<u64> = posts
        .iter()
        .map(|(status, body)| {
            assert!(
                *status == 200 || *status == 202,
                "submit must succeed: {status} {body}"
            );
            json_u64(body, "id").expect("submit returns an id")
        })
        .collect();
    assert!(
        ids.iter().all(|&id| id == ids[0]),
        "one job for all: {ids:?}"
    );
    let fresh = posts
        .iter()
        .filter(|(_, b)| json_bool(b, "deduped") == Some(false))
        .count();
    assert_eq!(fresh, 1, "exactly one submission created the job");

    let status = wait_terminal(addr, ids[0]);
    assert_eq!(json_str(&status, "phase").unwrap(), "done", "{status}");
    assert_eq!(json_u64(&status, "dedupe_hits"), Some(5), "{status}");

    // Two drains of the row stream are identical, and reassemble to the
    // exact CSV a direct engine run produces.
    let path = format!("/v1/jobs/{}/rows", ids[0]);
    let (s1, stream1) = http(addr, "GET", &path, &[], "");
    let (s2, stream2) = http(addr, "GET", &path, &[], "");
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(stream1, stream2, "row streams are replayable");
    let direct = run_workload(&sweep, &Engine::serial(), None)
        .report
        .to_csv();
    assert_eq!(sse_to_csv(&stream1), direct, "stream is byte-identical CSV");

    // One computation → one cache entry.
    let cache = ResultCache::new(dir.clone());
    assert_eq!(cache.entries().unwrap().len(), 1);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fresh_server_answers_identical_spec_entirely_from_the_index() {
    let dir = tmpdir("warm");
    let sweep = tiny_sweep("serve-warm", 23);
    let spec = spec_toml(&sweep);

    let server1 = server_over(&dir, test_cfg());
    let (status, body) = http(server1.addr(), "POST", "/v1/jobs", &[], &spec);
    assert_eq!(status, 202, "{body}");
    let id = json_u64(&body, "id").unwrap();
    let cold = wait_terminal(server1.addr(), id);
    assert_eq!(json_bool(&cold, "cache_hit"), Some(false), "{cold}");
    let task_count = Some(sweep.task_count() as u64);
    assert_eq!(json_u64(&cold, "task_count"), task_count, "{cold}");
    let (_, stream_cold) = http(
        server1.addr(),
        "GET",
        &format!("/v1/jobs/{id}/rows"),
        &[],
        "",
    );
    drop(server1);

    // A brand-new daemon over the same index never touches the engine.
    let server2 = server_over(&dir, test_cfg());
    let (status, body) = http(server2.addr(), "POST", "/v1/jobs", &[], &spec);
    assert_eq!(status, 202, "{body}");
    let id2 = json_u64(&body, "id").unwrap();
    let warm = wait_terminal(server2.addr(), id2);
    assert_eq!(json_bool(&warm, "cache_hit"), Some(true), "{warm}");
    assert_eq!(json_u64(&warm, "tasks_run"), Some(0), "{warm}");
    assert_eq!(json_u64(&warm, "task_count"), task_count, "{warm}");
    let (_, stream_warm) = http(
        server2.addr(),
        "GET",
        &format!("/v1/jobs/{id2}/rows"),
        &[],
        "",
    );
    assert_eq!(
        sse_to_csv(&stream_cold),
        sse_to_csv(&stream_warm),
        "index-served rows are byte-identical to the computed ones"
    );
    drop(server2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_specs_get_structured_400_bodies() {
    let dir = tmpdir("badspec");
    let server = server_over(&dir, test_cfg());
    let (status, body) = http(
        server.addr(),
        "POST",
        "/v1/jobs",
        &[],
        "name = \"x\"\nbogus = 3\n",
    );
    assert_eq!(status, 400);
    assert_eq!(json_str(&body, "code").as_deref(), Some("unknown_key"));
    assert_eq!(json_u64(&body, "line"), Some(2));
    assert_eq!(json_str(&body, "field").as_deref(), Some("bogus"));
    assert_eq!(
        json_str(&body, "message").as_deref(),
        Some("unknown key 'bogus'")
    );

    // A different failure class maps to a different code.
    let (status, body) = http(
        server.addr(),
        "POST",
        "/v1/jobs",
        &[],
        "name = \"x\"\nworkload = \"quantum\"\n",
    );
    assert_eq!(status, 400);
    assert_eq!(json_str(&body, "code").as_deref(), Some("unknown_workload"));
    assert_eq!(json_str(&body, "field").as_deref(), Some("workload"));

    // A sim spec whose values would panic a worker mid-run is refused
    // at the door, and the daemon keeps answering.
    let (status, body) = http(
        server.addr(),
        "POST",
        "/v1/jobs",
        &[],
        "workload = \"sim\"\nname = \"x\"\nfloor = [0.0, 90.0]\n",
    );
    assert_eq!(status, 400);
    assert_eq!(json_str(&body, "code").as_deref(), Some("bad_floor"));
    assert_eq!(json_str(&body, "field").as_deref(), Some("floor"));
    // So is a pair count whose kernel scratch alone would exhaust memory
    // and abort the daemon.
    let (status, body) = http(
        server.addr(),
        "POST",
        "/v1/jobs",
        &[],
        "name = \"x\"\ntopologies = [\"npair(n=200000,placement=line)\"]\n",
    );
    assert_eq!(status, 400);
    assert_eq!(json_str(&body, "code").as_deref(), Some("bad_value"));
    // And sim ensembles whose planning alone would abort on allocation
    // or run for minutes (answering the POST plans them), or whose frame
    // size or run length overflows the simulator's arithmetic.
    for line in [
        "points = 1000000000\nrun_secs = 1",
        "nodes = 200000\nrun_secs = 1",
        "payload = 18446744073709551615",
        "run_secs = 18446744073709551615",
    ] {
        let (status, body) = http(
            server.addr(),
            "POST",
            "/v1/jobs",
            &[],
            &format!("workload = \"sim\"\nname = \"big\"\n{line}\n"),
        );
        assert_eq!(status, 400, "{line}: {body}");
        assert_eq!(json_str(&body, "code").as_deref(), Some("bad_value"));
        assert_eq!(json_u64(&body, "line"), Some(3));
    }
    // So is one whose keys each pass but whose simulated time would hold
    // a worker for hours.
    let (status, body) = http(
        server.addr(),
        "POST",
        "/v1/jobs",
        &[],
        "workload = \"sim\"\nname = \"big\"\npoints = 1000\nrun_secs = 3600\n",
    );
    assert_eq!(status, 400, "{body}");
    assert_eq!(json_str(&body, "code").as_deref(), Some("bad_value"));
    assert_eq!(json_u64(&body, "line"), Some(0));
    let (status, _) = http(server.addr(), "GET", "/v1/healthz", &[], "");
    assert_eq!(status, 200);
    let (status, jobs) = http(server.addr(), "GET", "/v1/jobs", &[], "");
    assert_eq!(status, 200);
    assert!(json_items(&jobs, "jobs").is_empty(), "{jobs}");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn results_endpoint_paginates_the_index() {
    let dir = tmpdir("results");
    let cache = ResultCache::new(dir.clone());
    let mut report = RunReport::new("r", &["a", "b"]);
    report.push_row(vec![1.5, 2.25]);
    report.push_row(vec![3.5, 4.25]);
    let mut hashes = Vec::new();
    for (name, seed) in [("grid-a", 1u64), ("grid-b", 2), ("grid-c", 3)] {
        let sweep = Sweep::new(name).ds(&[10.0]).seed(seed);
        cache.store(&sweep, &report).unwrap();
        hashes.push((sweep.scenario_hash(), seed));
    }
    let server = server_over(&dir, test_cfg());
    let addr = server.addr();

    let (status, page1) = http(addr, "GET", "/v1/results?limit=2", &[], "");
    assert_eq!(status, 200);
    assert_eq!(json_items(&page1, "entries").len(), 2, "{page1}");
    let next = json_str(&page1, "next").expect("full page carries a cursor");
    let (_, page2) = http(
        addr,
        "GET",
        &format!("/v1/results?limit=2&after={next}"),
        &[],
        "",
    );
    assert_eq!(json_items(&page2, "entries").len(), 1, "{page2}");
    assert_eq!(json_body(&page2).get("next"), Some(&Json::Null), "{page2}");

    // Filters compose with paging.
    let (_, none) = http(addr, "GET", "/v1/results?kind=sim", &[], "");
    assert!(json_items(&none, "entries").is_empty(), "{none}");
    let (_, one) = http(
        addr,
        "GET",
        &format!("/v1/results?hash={:016x}&seed={}", hashes[0].0, hashes[0].1),
        &[],
        "",
    );
    assert_eq!(json_items(&one, "entries").len(), 1, "{one}");

    // Paged row reads straight out of a stored entry.
    let (status, rows) = http(
        addr,
        "GET",
        &format!(
            "/v1/results/rows?hash={:016x}&seed={}&start=1&limit=5",
            hashes[1].0, hashes[1].1
        ),
        &[],
        "",
    );
    assert_eq!(status, 200);
    assert_eq!(json_u64(&rows, "start"), Some(1), "{rows}");
    assert_eq!(
        json_items(&rows, "rows"),
        [Json::Arr(vec![Json::F64(3.5), Json::F64(4.25)])],
        "{rows}"
    );
    assert_eq!(json_bool(&rows, "more"), Some(false), "{rows}");
    let (status, _) = http(addr, "GET", "/v1/results/rows?hash=dead&seed=0", &[], "");
    assert_eq!(status, 404, "absent entries are 404, not errors");
    let (status, bad) = http(addr, "GET", "/v1/results?hash=zzz", &[], "");
    assert_eq!(status, 400);
    let message = json_str(&bad, "message").unwrap_or_default();
    assert!(message.contains("bad value for 'hash'"), "{bad}");

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sse_streams_resume_after_last_event_id() {
    let dir = tmpdir("resume");
    let server = server_over(&dir, test_cfg());
    let addr = server.addr();
    let sweep = tiny_sweep("serve-resume", 31);
    let (_, body) = http(addr, "POST", "/v1/jobs", &[], &spec_toml(&sweep));
    let id = json_u64(&body, "id").unwrap();
    wait_terminal(addr, id);

    let path = format!("/v1/jobs/{id}/rows");
    let (_, full) = http(addr, "GET", &path, &[], "");
    let total = full.matches("\nid: ").count() + usize::from(full.starts_with("id: "));
    assert!(total >= 4, "sweep emits several rows, got {total}");

    // Resume after row `total - 3`: no header replay, exactly the tail.
    let resume_after = total - 3;
    let (status, tail) = http(
        addr,
        "GET",
        &path,
        &[("Last-Event-ID", &resume_after.to_string())],
        "",
    );
    assert_eq!(status, 200);
    assert!(
        !tail.contains("event: header"),
        "resume must not replay the header"
    );
    assert!(
        tail.contains(&format!("id: {}\n", resume_after + 1)),
        "resume starts right after the acknowledged row: {tail}"
    );
    assert_eq!(
        tail.matches("data: ").count(),
        2 + 1,
        "2 rows + done payload"
    );
    // The resumed tail is literally the tail of the full stream.
    let tail_in_full = full
        .find(&format!("id: {}\n", resume_after + 1))
        .expect("full stream contains the resume point");
    assert_eq!(
        &full[tail_in_full..],
        tail,
        "tail bytes match the full stream"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_cache_stores_mark_jobs_degraded_and_strict_mode_fails_them() {
    // A cache directory nested under a regular *file*: creating it (and
    // thus every store) fails, while loads simply miss. Permission bits
    // are useless here (tests may run as root), but ENOTDIR is reliable.
    let parent = tmpdir("degraded");
    std::fs::create_dir_all(&parent).unwrap();
    let blocker = parent.join("blocker");
    std::fs::write(&blocker, "not a directory").unwrap();
    let broken = blocker.join("cache");

    let server = server_over(&broken, test_cfg());
    let (_, body) = http(
        server.addr(),
        "POST",
        "/v1/jobs",
        &[],
        &spec_toml(&tiny_sweep("serve-degraded", 41)),
    );
    let id = json_u64(&body, "id").unwrap();
    let status = wait_terminal(server.addr(), id);
    assert_eq!(json_str(&status, "phase").unwrap(), "done", "{status}");
    assert_eq!(json_bool(&status, "degraded"), Some(true), "{status}");
    drop(server);

    // Same broken index under --strict-cache: the job fails outright.
    let strict = server_over(
        &broken,
        ServeConfig {
            strict_cache: true,
            ..test_cfg()
        },
    );
    let (_, body) = http(
        strict.addr(),
        "POST",
        "/v1/jobs",
        &[],
        &spec_toml(&tiny_sweep("serve-strict", 43)),
    );
    let id = json_u64(&body, "id").unwrap();
    let status = wait_terminal(strict.addr(), id);
    assert_eq!(json_str(&status, "phase").unwrap(), "failed", "{status}");
    let error = json_str(&status, "error").unwrap_or_default();
    assert!(error.contains("strict mode"), "{status}");
    // A failed job's row stream is a 409, not a hang.
    let (code, _) = http(
        strict.addr(),
        "GET",
        &format!("/v1/jobs/{id}/rows"),
        &[],
        "",
    );
    assert_eq!(code, 409);
    drop(strict);
    let _ = std::fs::remove_dir_all(&parent);
}

#[test]
fn full_queue_refuses_with_503_and_health_metrics_respond() {
    let dir = tmpdir("full");
    // No workers: admitted jobs never drain, so the bound is observable.
    let server = server_over(
        &dir,
        ServeConfig {
            workers: 0,
            queue_cap: 1,
            ..test_cfg()
        },
    );
    let addr = server.addr();
    let (s1, _) = http(
        addr,
        "POST",
        "/v1/jobs",
        &[],
        &spec_toml(&tiny_sweep("q-a", 1)),
    );
    assert_eq!(s1, 202);
    let (s2, body) = http(
        addr,
        "POST",
        "/v1/jobs",
        &[],
        &spec_toml(&tiny_sweep("q-b", 1)),
    );
    assert_eq!(s2, 503, "{body}");
    // Dedupe consumes no queue slot even at capacity.
    let (s3, body) = http(
        addr,
        "POST",
        "/v1/jobs",
        &[],
        &spec_toml(&tiny_sweep("q-a", 1)),
    );
    assert_eq!(s3, 200, "{body}");
    assert_eq!(json_bool(&body, "deduped"), Some(true), "{body}");

    let (s, health) = http(addr, "GET", "/v1/healthz", &[], "");
    assert_eq!((s, health.as_str()), (200, "{\"ok\":true}"));
    let (s, metrics) = http(addr, "GET", "/v1/metrics", &[], "");
    assert_eq!(s, 200);
    let counters = json_body(&metrics).get("counters").cloned();
    assert!(
        counters.is_some_and(|c| c.get("serve.queue_full").is_some()),
        "{metrics}"
    );
    let (s, jobs) = http(addr, "GET", "/v1/jobs", &[], "");
    assert_eq!(s, 200);
    assert!(
        json_items(&jobs, "jobs")
            .iter()
            .any(|job| job.get("phase").and_then(Json::as_str) == Some("queued")),
        "{jobs}"
    );
    let (s, _) = http(addr, "GET", "/v1/jobs/999", &[], "");
    assert_eq!(s, 404);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_job_runlogs_are_valid_wcs_runlog_v1() {
    let parent = tmpdir("joblogs");
    let cache = parent.join("cache");
    let logs = parent.join("logs");
    let server = server_over(
        &cache,
        ServeConfig {
            job_logs: Some(logs.clone()),
            ..test_cfg()
        },
    );
    let (_, body) = http(
        server.addr(),
        "POST",
        "/v1/jobs",
        &[],
        &spec_toml(&tiny_sweep("serve-logged", 53)),
    );
    let id = json_u64(&body, "id").unwrap();
    let status = wait_terminal(server.addr(), id);
    let runlog = json_str(&status, "runlog").expect("job carries its runlog path");
    let log = wcs_telemetry::jsonl::read_runlog(std::path::Path::new(&runlog))
        .expect("runlog parses as wcs-runlog-v1");
    assert!(
        log.events.iter().any(|e| e.name == "workload.run"),
        "the job's own engine span is in its log"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&parent);
}

#[test]
fn metrics_json_is_schema_versioned_with_sorted_counters() {
    // The body contract directly (no socket): schema fields present,
    // counters in deterministic sorted order, gauges and histograms for
    // the full pinned vocabulary.
    wcs_telemetry::counter("serve.request", 1); // ensure a counter exists
    let body = wcs_serve::metrics_json(12_345);
    assert_eq!(json_str(&body, "schema").as_deref(), Some("wcs-metrics-v1"));
    assert_eq!(json_u64(&body, "schema_version"), Some(2));
    assert_eq!(json_u64(&body, "uptime_ns"), Some(12_345));
    let doc = json_body(&body);
    let section = |name: &str| {
        doc.get(name)
            .and_then(Json::as_object)
            .unwrap_or_else(|| panic!("missing object {name}: {body}"))
    };
    section("gauges");
    let hists = section("histograms");
    for hist in wcs_telemetry::metrics::HistId::ALL {
        assert!(
            hists
                .iter()
                .any(|(name, snap)| name == hist.name() && snap.as_object().is_some()),
            "missing histogram family {}: {body}",
            hist.name()
        );
    }
    // Counter keys appear in sorted order (BTreeMap iteration), so the
    // body is deterministic for a fixed registry state.
    let keys: Vec<&str> = section("counters")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert!(keys.contains(&"serve.request"), "{body}");
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "counter keys must be sorted: {body}");
}

#[test]
fn metrics_prometheus_format_renders_all_pinned_families() {
    let dir = tmpdir("prom");
    let server = server_over(&dir, test_cfg());
    let addr = server.addr();
    let (_, body) = http(
        addr,
        "POST",
        "/v1/jobs",
        &[],
        &spec_toml(&tiny_sweep("prom", 77)),
    );
    let id = json_u64(&body, "id").unwrap();
    wait_terminal(addr, id);

    let (status, page) = http(addr, "GET", "/v1/metrics?format=prometheus", &[], "");
    assert_eq!(status, 200);
    // HELP/TYPE lines, gauge and histogram families from the pinned
    // vocabulary, cumulative buckets ending in +Inf == count.
    assert!(
        page.contains("# HELP wcs_serve_jobs_completed_total"),
        "{page:.500}"
    );
    assert!(page.contains("# TYPE wcs_serve_jobs_completed_total counter"));
    assert!(page.contains("# TYPE wcs_serve_jobs_inflight gauge"));
    assert!(page.contains("# TYPE wcs_serve_job_duration_ns histogram"));
    for hist in wcs_telemetry::metrics::HistId::ALL {
        let fam = format!(
            "{}_duration_ns",
            wcs_telemetry::metrics::prom_name(hist.name())
        );
        assert!(page.contains(&format!("# TYPE {fam} histogram")), "{fam}");
        assert!(
            page.contains(&format!("{fam}_bucket{{le=\"+Inf\"}}")),
            "{fam}"
        );
    }
    // Bucket series are cumulative (monotone non-decreasing).
    let mut last = 0u64;
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("wcs_serve_job_duration_ns_bucket{le=\"") {
            let count: u64 = rest.split("} ").nth(1).unwrap().trim().parse().unwrap();
            assert!(count >= last, "bucket series must be cumulative: {line}");
            last = count;
        }
    }
    // The finished job is visible in the serve.job histogram.
    assert!(
        page.contains("wcs_serve_job_duration_ns_count"),
        "{page:.300}"
    );
    // An unknown format is a structured 400.
    let (status, err) = http(addr, "GET", "/v1/metrics?format=xml", &[], "");
    assert_eq!(status, 400, "{err}");
    assert_eq!(json_str(&err, "error").as_deref(), Some("query"), "{err}");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn history_endpoint_lists_run_manifests_newest_first() {
    let dir = tmpdir("history");
    let server = server_over(&dir, test_cfg());
    let addr = server.addr();
    for (name, seed) in [("hist-a", 1u64), ("hist-b", 2)] {
        let (_, body) = http(
            addr,
            "POST",
            "/v1/jobs",
            &[],
            &spec_toml(&tiny_sweep(name, seed)),
        );
        let id = json_u64(&body, "id").unwrap();
        wait_terminal(addr, id);
    }
    // Each run embeds its manifest; returns the runs' scenario names.
    let scenarios = |page: &str| -> Vec<String> {
        json_items(page, "runs")
            .iter()
            .map(|run| {
                let manifest = run.get("manifest").expect("run embeds its manifest");
                assert_eq!(
                    manifest.get("schema").and_then(Json::as_str),
                    Some("wcs-run-manifest-v1"),
                    "{page:.400}"
                );
                manifest.field("name", Json::as_str).unwrap().to_string()
            })
            .collect()
    };
    let (status, body) = http(addr, "GET", "/v1/history", &[], "");
    assert_eq!(status, 200);
    assert_eq!(scenarios(&body), ["hist-b", "hist-a"], "{body:.400}");
    // Page size 1: newest run first, cursor pages to the older one.
    let (status, page1) = http(addr, "GET", "/v1/history?limit=1", &[], "");
    assert_eq!(status, 200);
    assert_eq!(scenarios(&page1), ["hist-b"], "newest first: {page1:.400}");
    let cursor = json_str(&page1, "next").expect("full page carries a cursor");
    let (status, page2) = http(
        addr,
        "GET",
        &format!("/v1/history?limit=1&after={cursor}"),
        &[],
        "",
    );
    assert_eq!(status, 200);
    assert_eq!(scenarios(&page2), ["hist-a"], "{page2:.400}");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
