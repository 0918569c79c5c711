//! # wcs-serve — sweep-as-a-service over the results index
//!
//! The repo can *run* any workload (`repro sweep`), *shard* it across
//! processes (`wcs-shard`) and *remember* every result
//! ([`ResultIndex`]). This crate adds the missing deployment shape: a
//! long-lived daemon that accepts workload specs over HTTP, schedules
//! them onto the engine, and serves everything ever computed back out —
//! the paper's sweep grids as a queryable service instead of a CLI
//! invocation.
//!
//! Zero dependencies, like the rest of the repo: HTTP/1.1 is hand-rolled
//! over [`std::net::TcpListener`] and threads ([`http`]), JSON is
//! emitted through `wcs-telemetry`'s string escaper.
//!
//! ## Endpoints
//!
//! * `POST /v1/jobs` — body is a spec file (the exact
//!   `wcs_runtime::spec` TOML format `repro sweep --spec` reads).
//!   Returns the job id. Submissions with identical canonical hashes
//!   **dedupe**: they share one job, one computation, one cache entry.
//!   Malformed specs get a structured 400 whose body carries the
//!   [`SpecError`]'s machine-readable `code`/`line`/`field`.
//! * `GET /v1/jobs` / `GET /v1/jobs/{id}` — status: phase, cache hit,
//!   tasks run/total, `degraded` (a cache store failed), dedupe count,
//!   per-job run-log path.
//! * `GET /v1/jobs/{id}/rows` — the job's finalized rows as a
//!   `text/event-stream`: a `header` event carrying the CSV column line,
//!   one `id: N` event per row, a terminal `done` event. Sending
//!   `Last-Event-ID: N` resumes after row N. Reassembling header +
//!   `data:` lines reproduces `repro sweep --csv` byte-for-byte.
//! * `GET /v1/results` — paginated [`IndexQuery`] over the index
//!   (filters: `kind`, `hash`, `seed`, `scenario`, `columns`; paging:
//!   `limit`, `after` cursor). `GET /v1/results/rows` pages rows out of
//!   one stored entry without materializing the report.
//! * `GET /v1/metrics` — schema-versioned counters, gauges, and latency
//!   histograms as JSON; `?format=prometheus` renders the same registry
//!   in Prometheus text exposition format (HELP/TYPE lines, cumulative
//!   `_bucket{le=...}` series).
//! * `GET /v1/history` — run manifests appended by `run_workload`,
//!   newest first, paged by `limit`/`after`.
//! * `GET /v1/healthz` — liveness.
//!
//! The daemon is a *client* of the runtime's public API — the same
//! [`ResultIndex`] the CLI and shard workers use — so a spec POSTed
//! here, swept by `repro sweep`, or merged by `repro shard run` lands in
//! (and is answered from) the same store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod jobs;

use http::{read_request, respond_json, sse_preamble, ReadOutcome, Request};
use jobs::{Job, JobPhase, JobQueue, Submit};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use wcs_runtime::{
    parse_any_spec_toml, Engine, IndexQuery, ResultIndex, RunReport, SpecError, WorkloadKind,
};
use wcs_telemetry::json::json_string;

/// Daemon configuration. `Default` is the CLI's default shape.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker slots draining the job queue. `0` admits jobs without
    /// ever running them (only useful in tests).
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it get HTTP 503.
    pub queue_cap: usize,
    /// Engine threads per worker slot (`0` = auto-detect).
    pub engine_threads: usize,
    /// Fail (instead of merely flagging) jobs whose cache store failed —
    /// the daemon form of `repro --strict-cache`.
    pub strict_cache: bool,
    /// When set, each job writes its own `wcs-runlog-v1` JSONL log
    /// (`job-NNNNNN.jsonl`) into this directory. Jobs serialize while
    /// enabled, because the telemetry collector is process-global.
    pub job_logs: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7870".to_string(),
            workers: 1,
            queue_cap: 64,
            engine_threads: 0,
            strict_cache: false,
            job_logs: None,
        }
    }
}

/// Everything a connection or worker thread needs, behind one `Arc`.
struct Ctx {
    index: Arc<dyn ResultIndex>,
    queue: Arc<JobQueue>,
    engine: Engine,
    strict_cache: bool,
    job_logs: Option<PathBuf>,
    /// Serializes the global-collector swap that gives each job its own
    /// run log (see [`ServeConfig::job_logs`]).
    telemetry_swap: Mutex<()>,
    started_ns: u64,
}

/// A running daemon. Dropping (or [`Server::stop`]) shuts it down:
/// already-queued jobs finish, then workers and the accept loop exit.
pub struct Server {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    stopping: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept loop and worker slots, and return.
    pub fn start(cfg: ServeConfig, index: Arc<dyn ResultIndex>) -> io::Result<Server> {
        if let Some(dir) = &cfg.job_logs {
            std::fs::create_dir_all(dir)?;
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let queue = JobQueue::new(cfg.queue_cap.max(1));
        let ctx = Arc::new(Ctx {
            index,
            queue: queue.clone(),
            engine: Engine::new(cfg.engine_threads),
            strict_cache: cfg.strict_cache,
            job_logs: cfg.job_logs.clone(),
            telemetry_swap: Mutex::new(()),
            started_ns: wcs_telemetry::now_ns(),
        });
        wcs_telemetry::info(
            "serve.started",
            &format!(
                "[serve: listening on {addr}, {} workers, queue {}]",
                cfg.workers, cfg.queue_cap
            ),
            vec![
                (
                    "addr".to_string(),
                    wcs_telemetry::Value::Str(addr.to_string()),
                ),
                (
                    "workers".to_string(),
                    wcs_telemetry::Value::from(cfg.workers),
                ),
                (
                    "queue_cap".to_string(),
                    wcs_telemetry::Value::from(cfg.queue_cap),
                ),
                (
                    "index".to_string(),
                    wcs_telemetry::Value::Str(ctx.index.describe()),
                ),
            ],
        );
        let workers = (0..cfg.workers)
            .map(|slot| {
                let ctx = ctx.clone();
                std::thread::Builder::new()
                    .name(format!("wcs-serve-worker-{slot}"))
                    .spawn(move || {
                        while let Some(job) = ctx.queue.next_job() {
                            run_job(&ctx, &job);
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        let stopping = Arc::new(AtomicBool::new(false));
        let accept = {
            let ctx = ctx.clone();
            let stopping = stopping.clone();
            std::thread::Builder::new()
                .name("wcs-serve-accept".to_string())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stopping.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        let ctx = ctx.clone();
                        let _ = std::thread::Builder::new()
                            .name("wcs-serve-conn".to_string())
                            .spawn(move || handle_connection(&ctx, stream));
                    }
                })
                .expect("spawn accept loop")
        };
        Ok(Server {
            addr,
            ctx,
            stopping,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The job queue (status introspection, tests).
    pub fn queue(&self) -> &Arc<JobQueue> {
        &self.ctx.queue
    }

    /// Shut down: stop accepting, drain queued jobs, join every thread.
    /// Idempotent; also run by `Drop`.
    pub fn stop(&mut self) {
        if self.stopping.swap(true, Ordering::AcqRel) {
            return;
        }
        self.ctx.queue.shutdown();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Block on the accept loop — the foreground (`repro serve`) mode.
    /// Returns only after [`Server::stop`] from another thread.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Execute one job on the engine, with its own run log when configured.
fn run_job(ctx: &Ctx, job: &Job) {
    use wcs_telemetry::metrics::{gauge_add, gauge_set, GaugeId};
    job.mark_running();
    gauge_set(GaugeId::ServeQueueDepth, ctx.queue.queued() as i64);
    gauge_add(GaugeId::ServeJobsInflight, 1);
    let t0 = wcs_telemetry::now_ns();
    let outcome = match &ctx.job_logs {
        None => job.workload.run(&ctx.engine, Some(ctx.index.as_ref())),
        Some(dir) => {
            // The telemetry collector is process-global, so per-job run
            // logs swap it in under a lock held across the whole run:
            // the job's engine/cache events land in its own file, then
            // the previous collector (if any) is restored.
            let _serialized = ctx.telemetry_swap.lock().unwrap();
            let path = dir.join(format!("job-{:06}.jsonl", job.id));
            let note = format!("serve job {} {}", job.id, job.scenario());
            let swapped = match wcs_telemetry::jsonl::JsonlCollector::create(&path, &note) {
                Ok(c) => {
                    let prev = wcs_telemetry::uninstall();
                    wcs_telemetry::install(Arc::new(c));
                    job.set_runlog(path);
                    Some(prev)
                }
                Err(e) => {
                    eprintln!("warning: cannot create job run log {}: {e}", path.display());
                    None
                }
            };
            let outcome = job.workload.run(&ctx.engine, Some(ctx.index.as_ref()));
            if let Some(prev) = swapped {
                wcs_telemetry::flush();
                wcs_telemetry::uninstall();
                if let Some(prev) = prev {
                    wcs_telemetry::install(prev);
                }
            }
            outcome
        }
    };
    let dur_ns = wcs_telemetry::now_ns() - t0;
    wcs_telemetry::metrics::record_ns(wcs_telemetry::metrics::HistId::ServeJob, dur_ns);
    gauge_add(GaugeId::ServeJobsInflight, -1);
    let strict_failure = outcome.store_failed && ctx.strict_cache;
    wcs_telemetry::counter(
        if strict_failure {
            "serve.jobs_failed"
        } else {
            "serve.jobs_completed"
        },
        1,
    );
    wcs_telemetry::value(
        "serve.job",
        vec![
            ("id".to_string(), wcs_telemetry::Value::from(job.id)),
            (
                "scenario".to_string(),
                wcs_telemetry::Value::from(job.scenario()),
            ),
            (
                "cache_hit".to_string(),
                wcs_telemetry::Value::from(outcome.cache_hit),
            ),
            (
                "tasks_run".to_string(),
                wcs_telemetry::Value::from(outcome.tasks_run),
            ),
            (
                "degraded".to_string(),
                wcs_telemetry::Value::from(outcome.store_failed),
            ),
            ("dur_ns".to_string(), wcs_telemetry::Value::U64(dur_ns)),
        ],
    );
    job.finish(|st| {
        st.cache_hit = outcome.cache_hit;
        st.tasks_run = outcome.tasks_run;
        st.degraded = outcome.store_failed;
        st.report = Some(Arc::new(outcome.report.clone()));
        if strict_failure {
            st.phase = JobPhase::Failed;
            st.error = Some(format!(
                "cache store failed in {} (strict mode)",
                ctx.index.describe()
            ));
        } else {
            st.phase = JobPhase::Done;
        }
    });
}

fn handle_connection(ctx: &Arc<Ctx>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut stream = stream;
    let mut reader = BufReader::new(read_half);
    let outcome = match read_request(&mut reader) {
        Ok(o) => o,
        Err(_) => return,
    };
    let _ = match outcome {
        ReadOutcome::Closed => return,
        ReadOutcome::TooLarge => respond_json(
            &mut stream,
            413,
            "Payload Too Large",
            &format!(
                "{{\"error\":\"body too large (limit {} bytes)\"}}",
                http::MAX_BODY
            ),
        ),
        ReadOutcome::Malformed => respond_json(
            &mut stream,
            400,
            "Bad Request",
            "{\"error\":\"malformed request\"}",
        ),
        ReadOutcome::Request(req) => {
            wcs_telemetry::counter("serve.request", 1);
            route(ctx, &mut stream, req)
        }
    };
}

fn route(ctx: &Arc<Ctx>, stream: &mut TcpStream, req: Request) -> io::Result<()> {
    let path = req.path.clone();
    match (req.method.as_str(), path.as_str()) {
        ("POST", "/v1/jobs") => post_job(ctx, stream, &req),
        ("GET", "/v1/jobs") => {
            let jobs: Vec<String> = ctx.queue.list().iter().map(|j| job_json(j)).collect();
            respond_json(
                stream,
                200,
                "OK",
                &format!("{{\"jobs\":[{}]}}", jobs.join(",")),
            )
        }
        ("GET", "/v1/results") => get_results(ctx, stream, &req),
        ("GET", "/v1/results/rows") => get_result_rows(ctx, stream, &req),
        ("GET", "/v1/metrics") => get_metrics(ctx, stream, &req),
        ("GET", "/v1/history") => get_history(ctx, stream, &req),
        ("GET", "/v1/healthz") => respond_json(stream, 200, "OK", "{\"ok\":true}"),
        ("GET", p) => {
            if let Some(rest) = p.strip_prefix("/v1/jobs/") {
                match rest.strip_suffix("/rows") {
                    Some(id) => return get_job_rows(ctx, stream, &req, id),
                    None => return get_job(ctx, stream, rest),
                }
            }
            not_found(stream)
        }
        _ => respond_json(
            stream,
            405,
            "Method Not Allowed",
            "{\"error\":\"method not allowed\"}",
        ),
    }
}

fn not_found(stream: &mut TcpStream) -> io::Result<()> {
    respond_json(stream, 404, "Not Found", "{\"error\":\"not found\"}")
}

/// The `/v1/metrics` JSON body: schema-versioned, counters in sorted
/// (BTreeMap) order, plus gauges and latency-histogram snapshots from
/// the process-global metrics registry.
pub fn metrics_json(uptime_ns: u64) -> String {
    use wcs_telemetry::metrics;
    let counters: Vec<String> = wcs_telemetry::counter_totals()
        .into_iter()
        .map(|(name, total)| format!("{}:{total}", json_string(&name)))
        .collect();
    let gauges: Vec<String> = metrics::gauges()
        .into_iter()
        .map(|(name, v)| format!("{}:{v}", json_string(name)))
        .collect();
    let hists: Vec<String> = metrics::snapshot_all()
        .iter()
        .map(|s| format!("{}:{}", json_string(&s.name), s.to_json()))
        .collect();
    format!(
        "{{\"schema\":{},\"schema_version\":{},\"uptime_ns\":{uptime_ns},\
         \"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
        json_string(metrics::METRICS_SCHEMA),
        metrics::METRICS_SCHEMA_VERSION,
        counters.join(","),
        gauges.join(","),
        hists.join(",")
    )
}

fn get_metrics(ctx: &Arc<Ctx>, stream: &mut TcpStream, req: &Request) -> io::Result<()> {
    match req.query_param("format") {
        Some("prometheus") => {
            let page = wcs_telemetry::metrics::prometheus_page();
            http::respond(
                stream,
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &page,
            )
        }
        Some(other) => bad_query(
            stream,
            &format!("bad value for 'format': '{other}' (prometheus)"),
        ),
        None => {
            let body = metrics_json(wcs_telemetry::now_ns() - ctx.started_ns);
            respond_json(stream, 200, "OK", &body)
        }
    }
}

/// `GET /v1/history` — page over run manifests, newest first. `limit`
/// (default 50) bounds the page; `after` is the cursor (a manifest blob
/// name) from the previous page's `next`.
fn get_history(ctx: &Arc<Ctx>, stream: &mut TcpStream, req: &Request) -> io::Result<()> {
    let limit = match parse_param::<usize>(req, "limit") {
        Ok(v) => v.unwrap_or(50).max(1),
        Err(msg) => return bad_query(stream, &msg),
    };
    let after = req.query_param("after");
    let names = match wcs_runtime::history::list_manifests(ctx.index.as_ref()) {
        Ok(n) => n,
        Err(e) => {
            return respond_json(
                stream,
                500,
                "Internal Server Error",
                &format!("{{\"error\":{}}}", json_string(&e.to_string())),
            )
        }
    };
    // Names arrive newest-first; the cursor resumes strictly after it.
    let start = match after {
        Some(cursor) => match names.iter().position(|n| n == cursor) {
            Some(i) => i + 1,
            None => names.len(),
        },
        None => 0,
    };
    let page: Vec<&String> = names.iter().skip(start).take(limit).collect();
    let next = if start + page.len() < names.len() && !page.is_empty() {
        json_string(page.last().unwrap())
    } else {
        "null".to_string()
    };
    let body: Vec<String> = page
        .iter()
        .map(|name| {
            // Manifests are stored as JSON, so they embed verbatim.
            let manifest = match ctx.index.load_blob(name) {
                Some(text) => text.trim().to_string(),
                None => "{\"error\":\"manifest unreadable\"}".to_string(),
            };
            format!("{{\"name\":{},\"manifest\":{manifest}}}", json_string(name))
        })
        .collect();
    respond_json(
        stream,
        200,
        "OK",
        &format!("{{\"runs\":[{}],\"next\":{next}}}", body.join(",")),
    )
}

/// The machine-readable 400 body for a spec that failed to parse: the
/// [`SpecError`]'s structured code/line/field plus both message forms.
fn spec_error_json(e: &SpecError) -> String {
    let field = match e.field() {
        Some(f) => json_string(f),
        None => "null".to_string(),
    };
    format!(
        "{{\"error\":\"spec\",\"code\":{},\"line\":{},\"field\":{},\"message\":{},\"detail\":{}}}",
        json_string(e.code()),
        e.line,
        field,
        json_string(&e.message()),
        json_string(&e.to_string())
    )
}

fn post_job(ctx: &Arc<Ctx>, stream: &mut TcpStream, req: &Request) -> io::Result<()> {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return respond_json(
            stream,
            400,
            "Bad Request",
            "{\"error\":\"body is not UTF-8\"}",
        );
    };
    let workload = match parse_any_spec_toml(body) {
        Ok(w) => w,
        Err(e) => return respond_json(stream, 400, "Bad Request", &spec_error_json(&e)),
    };
    match ctx.queue.submit(workload) {
        Submit::QueueFull => {
            wcs_telemetry::counter("serve.queue_full", 1);
            respond_json(
                stream,
                503,
                "Service Unavailable",
                "{\"error\":\"job queue is full, retry later\"}",
            )
        }
        Submit::New(job) => {
            wcs_telemetry::counter("serve.jobs_submitted", 1);
            respond_json(
                stream,
                202,
                "Accepted",
                &format!(
                    "{{\"id\":{},\"deduped\":false,\"job\":{}}}",
                    job.id,
                    job_json(&job)
                ),
            )
        }
        Submit::Deduped(job) => {
            wcs_telemetry::counter("serve.jobs_submitted", 1);
            wcs_telemetry::counter("serve.jobs_deduped", 1);
            respond_json(
                stream,
                200,
                "OK",
                &format!(
                    "{{\"id\":{},\"deduped\":true,\"job\":{}}}",
                    job.id,
                    job_json(&job)
                ),
            )
        }
    }
}

fn get_job(ctx: &Arc<Ctx>, stream: &mut TcpStream, id: &str) -> io::Result<()> {
    let Ok(id) = id.parse::<u64>() else {
        return not_found(stream);
    };
    match ctx.queue.get(id) {
        Some(job) => respond_json(stream, 200, "OK", &job_json(&job)),
        None => not_found(stream),
    }
}

/// One job as status JSON.
fn job_json(job: &Job) -> String {
    let st = job.state();
    let elapsed = st
        .finished_ns
        .unwrap_or_else(wcs_telemetry::now_ns)
        .saturating_sub(st.submitted_ns);
    let rows = st.report.as_ref().map_or(0, |r| r.rows.len());
    let error = match &st.error {
        Some(e) => json_string(e),
        None => "null".to_string(),
    };
    let runlog = match &st.runlog {
        Some(p) => json_string(&p.display().to_string()),
        None => "null".to_string(),
    };
    format!(
        "{{\"id\":{},\"scenario\":{},\"kind\":\"{}\",\"hash\":\"{:016x}\",\"seed\":{},\"phase\":\"{}\",\"task_count\":{},\"tasks_run\":{},\"rows\":{rows},\"cache_hit\":{},\"degraded\":{},\"dedupe_hits\":{},\"error\":{error},\"runlog\":{runlog},\"elapsed_ns\":{elapsed}}}",
        job.id,
        json_string(job.scenario()),
        job.kind().label(),
        job.hash(),
        job.seed(),
        st.phase.label(),
        job.task_count,
        st.tasks_run,
        st.cache_hit,
        st.degraded,
        st.dedupe_hits,
    )
}

/// Serialize one CSV row exactly as [`RunReport::to_csv`] does, so the
/// reassembled stream is byte-identical to `repro sweep --csv`.
fn csv_row(row: &[f64]) -> String {
    let cells: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
    cells.join(",")
}

/// The SSE row feed. Holds the stream open until the job is terminal,
/// then replays rows from `Last-Event-ID + 1` (or row 0, preceded by a
/// `header` event carrying the CSV column line).
fn get_job_rows(ctx: &Arc<Ctx>, stream: &mut TcpStream, req: &Request, id: &str) -> io::Result<()> {
    let Ok(id) = id.parse::<u64>() else {
        return not_found(stream);
    };
    let Some(job) = ctx.queue.get(id) else {
        return not_found(stream);
    };
    let resume: Option<usize> = req
        .header("last-event-id")
        .or_else(|| req.query_param("after"))
        .and_then(|v| v.parse().ok());
    let st = job.wait_done();
    if st.phase == JobPhase::Failed {
        let error = st.error.unwrap_or_else(|| "job failed".to_string());
        return respond_json(
            stream,
            409,
            "Conflict",
            &format!("{{\"error\":{}}}", json_string(&error)),
        );
    }
    let report: Arc<RunReport> = st.report.expect("a done job has its report");
    sse_preamble(stream)?;
    let start = resume.map_or(0, |n| n + 1);
    if start == 0 {
        write!(
            stream,
            "event: header\ndata: {}\n\n",
            report.columns.join(",")
        )?;
    }
    for (i, row) in report.rows.iter().enumerate().skip(start) {
        write!(stream, "id: {i}\ndata: {}\n\n", csv_row(row))?;
    }
    write!(stream, "event: done\ndata: {}\n\n", report.rows.len())?;
    stream.flush()
}

/// Parse one optional query parameter, with a structured 400 on garbage.
fn parse_param<T: std::str::FromStr>(req: &Request, name: &str) -> Result<Option<T>, String> {
    match req.query_param(name) {
        None => Ok(None),
        Some(v) => v
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("bad value for '{name}': '{v}'")),
    }
}

/// Build an [`IndexQuery`] from `/v1/results` query parameters.
fn index_query(req: &Request) -> Result<IndexQuery, String> {
    let mut q = IndexQuery::default();
    if let Some(v) = req.query_param("kind") {
        q.kind = Some(
            WorkloadKind::from_label(v)
                .ok_or_else(|| format!("bad value for 'kind': '{v}' (model or sim)"))?,
        );
    }
    if let Some(v) = req.query_param("hash") {
        q.hash = Some(
            u64::from_str_radix(v.trim_start_matches("0x"), 16)
                .map_err(|_| format!("bad value for 'hash': '{v}' (hex)"))?,
        );
    }
    q.seed = parse_param(req, "seed")?;
    q.scenario = req.query_param("scenario").map(str::to_string);
    q.columns = parse_param(req, "columns")?;
    q.after = req.query_param("after").map(str::to_string);
    q.limit = Some(parse_param(req, "limit")?.unwrap_or(100usize));
    Ok(q)
}

fn bad_query(stream: &mut TcpStream, msg: &str) -> io::Result<()> {
    respond_json(
        stream,
        400,
        "Bad Request",
        &format!("{{\"error\":\"query\",\"message\":{}}}", json_string(msg)),
    )
}

fn get_results(ctx: &Arc<Ctx>, stream: &mut TcpStream, req: &Request) -> io::Result<()> {
    let q = match index_query(req) {
        Ok(q) => q,
        Err(msg) => return bad_query(stream, &msg),
    };
    let entries = match ctx.index.query(&q) {
        Ok(e) => e,
        Err(e) => {
            return respond_json(
                stream,
                500,
                "Internal Server Error",
                &format!("{{\"error\":{}}}", json_string(&e.to_string())),
            )
        }
    };
    // The page is full ⇒ there may be more; hand back the last cursor.
    let next = if q.limit == Some(entries.len()) && !entries.is_empty() {
        json_string(entries.last().unwrap().cursor())
    } else {
        "null".to_string()
    };
    let body: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                "{{\"scenario\":{},\"kind\":{},\"hash\":\"{:016x}\",\"seed\":{},\"bytes\":{},\"columns\":{},\"cursor\":{}}}",
                json_string(&e.scenario),
                e.kind
                    .map_or("null".to_string(), |k| format!("\"{}\"", k.label())),
                e.hash,
                e.seed,
                e.bytes,
                e.columns.map_or("null".to_string(), |c| c.to_string()),
                json_string(e.cursor()),
            )
        })
        .collect();
    respond_json(
        stream,
        200,
        "OK",
        &format!("{{\"entries\":[{}],\"next\":{next}}}", body.join(",")),
    )
}

fn get_result_rows(ctx: &Arc<Ctx>, stream: &mut TcpStream, req: &Request) -> io::Result<()> {
    let (hash, seed) = match (req.query_param("hash"), req.query_param("seed")) {
        (Some(h), Some(s)) => {
            let hash = match u64::from_str_radix(h.trim_start_matches("0x"), 16) {
                Ok(v) => v,
                Err(_) => return bad_query(stream, &format!("bad value for 'hash': '{h}' (hex)")),
            };
            let seed = match s.parse::<u64>() {
                Ok(v) => v,
                Err(_) => return bad_query(stream, &format!("bad value for 'seed': '{s}'")),
            };
            (hash, seed)
        }
        _ => return bad_query(stream, "results/rows needs 'hash' and 'seed'"),
    };
    let start = match parse_param::<usize>(req, "start") {
        Ok(v) => v.unwrap_or(0),
        Err(msg) => return bad_query(stream, &msg),
    };
    let limit = match parse_param::<usize>(req, "limit") {
        Ok(v) => v.unwrap_or(1000),
        Err(msg) => return bad_query(stream, &msg),
    };
    match ctx.index.read_rows(hash, seed, start, limit) {
        Err(e) => respond_json(
            stream,
            500,
            "Internal Server Error",
            &format!("{{\"error\":{}}}", json_string(&e.to_string())),
        ),
        Ok(None) => not_found(stream),
        Ok(Some(page)) => {
            let columns: Vec<String> = page.columns.iter().map(|c| json_string(c)).collect();
            let rows: Vec<String> = page
                .rows
                .iter()
                .map(|row| {
                    let cells: Vec<String> = row
                        .iter()
                        .map(|v| {
                            if v.is_finite() {
                                format!("{v:?}")
                            } else {
                                "null".to_string() // JSON has no NaN/∞
                            }
                        })
                        .collect();
                    format!("[{}]", cells.join(","))
                })
                .collect();
            respond_json(
                stream,
                200,
                "OK",
                &format!(
                    "{{\"scenario\":{},\"hash\":\"{:016x}\",\"seed\":{},\"columns\":[{}],\"start\":{},\"rows\":[{}],\"more\":{}}}",
                    json_string(&page.scenario),
                    page.hash,
                    page.seed,
                    columns.join(","),
                    page.start,
                    rows.join(","),
                    page.more
                ),
            )
        }
    }
}
