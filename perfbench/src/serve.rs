//! serve-mixed: `repro serve --workers 1 --threads 1` daemons driven
//! over HTTP by a closed loop of 2 clients. The run is a series of
//! rounds, each on a fresh daemon: start it, send it a fixed number of
//! seeded jobs through 2 connections (each client sends its next job as
//! soon as the last one's rows have ended), then stop it. Each job POSTs
//! a two-pair spec (4 tasks × 2000 samples) and reads its SSE row stream
//! to the end; half the jobs are fresh specs, the rest repeat an earlier
//! spec of the same round.

use crate::stats::{iq_mean, median, ms_since, peak_rss_mb, proc_status_field, quantile, summary};
use crate::{trace, Ctx, Outcome, THREADS};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use wcs_runtime::spec::to_spec_toml;
use wcs_runtime::{run_workload, Engine, Sweep};

/// Jobs per round. A round's size, not the run's length, sets how much
/// the daemon holds, so its peak memory does not grow with the run.
const ROUND_JOBS: usize = 300;
const SMOKE_JOBS: usize = 24;
const SAMPLES: u64 = 2_000;
/// Distinct specs per round whose streams are checked against a direct
/// run.
const VERIFY_SPECS: usize = 6;
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Daemon starts per round, each timed as set-up; the round runs on the
/// last. A start takes a few milliseconds, so the median needs many.
const SETUP_REPS: usize = 4;
/// Pause after stopping a daemon, so the next start is not timed
/// against the last one's teardown.
const SETUP_PAUSE: Duration = Duration::from_millis(20);

/// The daemon subprocess; killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(repro: &Path, dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let log_path = dir.join("serve.log");
        let log = std::fs::File::create(&log_path).map_err(|e| e.to_string())?;
        let child = Command::new(repro)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--threads",
                "1",
            ])
            .env("WCS_CACHE_DIR", dir.join("index"))
            .env("WCS_FLIGHT_PATH", dir.join("flight.jsonl"))
            .current_dir(dir)
            .stdout(Stdio::null())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", repro.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + IO_TIMEOUT;
        while Instant::now() < deadline {
            let text = std::fs::read_to_string(&log_path).unwrap_or_default();
            let addr = text
                .lines()
                .find_map(|l| l.strip_prefix("[serve http://")?.split(": ").next());
            if let Some(addr) = addr {
                daemon.addr = addr.to_string();
                if matches!(http(&daemon.addr, "GET /v1/healthz", b""), Ok((200, _))) {
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited early: {status}"));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        Err("daemon did not become ready".to_string())
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// One request on its own connection (the daemon closes after each):
/// `request` is "METHOD /path". Returns (status, body).
fn http(addr: &str, request: &str, body: &[u8]) -> std::io::Result<(u16, String)> {
    let mut stream = connect(addr)?;
    let head = format!(
        "{request} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut text = String::new();
    stream.read_to_string(&mut text)?;
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Ok((status, body.to_string()))
}

/// `GET /v1/jobs/{id}/rows`, reassembled into CSV (the header event's
/// data line, then every row's). Returns (ms to the first row, ms from
/// the first row to the end of the stream, CSV).
fn read_rows(addr: &str, id: u64) -> Result<(f64, f64, String), String> {
    let t0 = Instant::now();
    let mut stream = connect(addr).map_err(|e| e.to_string())?;
    let head = format!("GET /v1/jobs/{id}/rows HTTP/1.1\r\nHost: {addr}\r\n\r\n");
    stream
        .write_all(head.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut lines = BufReader::new(stream).lines();
    let status = lines.next().and_then(Result::ok).unwrap_or_default();
    if !status.starts_with("HTTP/1.1 200") {
        return Err(format!("rows request answered '{status}'"));
    }
    for line in lines.by_ref() {
        if line.map_err(|e| e.to_string())?.trim_end().is_empty() {
            break;
        }
    }
    let (mut csv, mut event) = (String::new(), String::new());
    let mut first_row: Option<Instant> = None;
    for line in lines {
        let line = line.map_err(|e| e.to_string())?;
        if let Some(e) = line.strip_prefix("event: ") {
            event = e.to_string();
        } else if line.starts_with("id: ") {
            first_row.get_or_insert_with(Instant::now);
        } else if let Some(data) = line.strip_prefix("data: ") {
            if event != "done" {
                csv.push_str(data);
                csv.push('\n');
            }
        } else if line.is_empty() {
            event.clear();
        }
    }
    let first = first_row.unwrap_or_else(Instant::now);
    Ok((
        (first - t0).as_secs_f64() * 1e3,
        first.elapsed().as_secs_f64() * 1e3,
        csv,
    ))
}

/// SplitMix64: the load generator's own seeded stream.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One round's seeded load: its specs, and its jobs in sending order as
/// spec indices.
struct Load {
    specs: Vec<(Sweep, String)>,
    jobs: Vec<usize>,
}

/// The next `n` jobs of the generator's stream.
fn generate(rng: &mut SplitMix, n: usize) -> Load {
    let mut load = Load {
        specs: Vec::new(),
        jobs: Vec::new(),
    };
    for _ in 0..n {
        let spec = if load.specs.is_empty() || rng.unit() < 0.5 {
            let rmax = [20.0, 40.0, 55.0, 120.0][(rng.next_u64() % 4) as usize];
            let sweep = Sweep::new("serve-mixed")
                .rmaxes(&[rmax])
                .ds(&[20.0, 55.0])
                .sigmas(&[4.0, 8.0])
                .samples(SAMPLES)
                .seed(rng.next_u64());
            let body = to_spec_toml(&sweep);
            load.specs.push((sweep, body));
            load.specs.len() - 1
        } else {
            (rng.next_u64() % load.specs.len() as u64) as usize
        };
        load.jobs.push(spec);
    }
    load
}

/// What happened to one job.
#[derive(Default)]
struct Job {
    spec: usize,
    ok: bool,
    deduped: bool,
    rejected: bool,
    post_ms: f64,
    first_row_ms: f64,
    stream_ms: f64,
    /// Sent to last row.
    job_ms: f64,
    csv: Option<String>,
    error: Option<String>,
}

fn run_job(addr: &str, body: &str, keep_csv: bool, job: &mut Job) -> Result<(), String> {
    let t = Instant::now();
    let (status, reply) =
        http(addr, "POST /v1/jobs", body.as_bytes()).map_err(|e| e.to_string())?;
    job.post_ms = ms_since(t);
    if status == 503 {
        job.rejected = true;
        return Err("queue full (503)".to_string());
    }
    if status != 200 && status != 202 {
        return Err(format!("POST answered {status}: {reply}"));
    }
    job.deduped = reply.contains("\"deduped\":true");
    let id: u64 = reply
        .strip_prefix("{\"id\":")
        .and_then(|r| r.split(',').next())
        .and_then(|r| r.parse().ok())
        .ok_or_else(|| format!("no job id in '{reply}'"))?;
    let (first_row_ms, stream_ms, csv) = read_rows(addr, id)?;
    job.first_row_ms = first_row_ms;
    job.stream_ms = stream_ms;
    if keep_csv {
        job.csv = Some(csv);
    }
    Ok(())
}

/// Drive one round's jobs through `THREADS` clients in a closed loop;
/// returns the jobs, the most daemon threads seen, and the seconds the
/// round took.
fn drive(daemon: &Daemon, load: &Load, verify: &[usize]) -> (Vec<Job>, f64, f64) {
    let next = AtomicUsize::new(0);
    let jobs: Mutex<Vec<Job>> = Mutex::new(Vec::new());
    let threads_max = Mutex::new(0.0f64);
    let pid = daemon.pid();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&spec) = load.jobs.get(i) else {
                    break;
                };
                let sent = Instant::now();
                let mut job = Job {
                    spec,
                    ..Job::default()
                };
                match run_job(
                    &daemon.addr,
                    &load.specs[spec].1,
                    verify.contains(&spec),
                    &mut job,
                ) {
                    Ok(()) => job.ok = true,
                    Err(e) => job.error = Some(e),
                }
                job.job_ms = ms_since(sent);
                if let Some(n) = proc_status_field(&pid, "Threads") {
                    let mut max = threads_max.lock().expect("thread sampler poisoned");
                    *max = max.max(n);
                }
                jobs.lock().expect("job log poisoned").push(job);
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let jobs = jobs.into_inner().expect("job log poisoned");
    let threads = threads_max.into_inner().expect("thread sampler poisoned");
    (jobs, threads, elapsed)
}

/// Every round's measurements together.
#[derive(Default)]
struct Rounds {
    setup_s: Vec<f64>,
    rss_mb: Vec<f64>,
    jobs: Vec<Job>,
    threads_max: f64,
    drive_s: f64,
}

/// One round: start daemons (each timed as set-up), drive `load`
/// through the last, read its peak memory, stop it, and check the
/// streamed rows of the round's checked specs against a direct run.
fn round(
    repro: &Path,
    dir: &Path,
    load: &Load,
    smoke: bool,
    out: &mut Outcome,
    acc: &mut Rounds,
) -> Result<(), String> {
    let step = (load.specs.len() / VERIFY_SPECS).max(1);
    let verify: Vec<usize> = (0..load.specs.len()).step_by(step).collect();
    let reps = if smoke { 1 } else { SETUP_REPS };
    let mut daemon = None;
    for rep in 0..reps {
        if daemon.take().is_some() {
            std::thread::sleep(SETUP_PAUSE);
        }
        let t = Instant::now();
        daemon = Some(Daemon::start(repro, &dir.join(format!("start-{rep}")))?);
        acc.setup_s.push(t.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("at least one start");
    let (jobs, threads_max, elapsed) = drive(&daemon, load, &verify);
    acc.rss_mb.push(peak_rss_mb(&daemon.pid()));
    drop(daemon);
    let _ = std::fs::remove_dir_all(dir);
    acc.threads_max = acc.threads_max.max(threads_max);
    acc.drive_s += elapsed;

    // Untimed: the direct CSV of every checked spec.
    let serial = Engine::serial();
    let direct: Vec<(usize, String)> = verify
        .iter()
        .map(|&s| {
            (
                s,
                run_workload(&load.specs[s].0, &serial, None)
                    .report
                    .to_csv(),
            )
        })
        .collect();
    for mut job in jobs {
        let matches = match job.csv.take() {
            Some(csv) => direct.iter().any(|(s, d)| *s == job.spec && *d == csv),
            None => true,
        };
        let what = job
            .error
            .clone()
            .unwrap_or_else(|| "SSE rows differ from the direct CSV".into());
        out.check(job.ok && matches, &what);
        acc.jobs.push(job);
    }
    Ok(())
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let repro = ctx.repro()?.clone();
    out.connections = THREADS;
    let mut rng = SplitMix(ctx.spec_seed(0x5E27_E0AD));
    let n = if ctx.smoke { SMOKE_JOBS } else { ROUND_JOBS };
    let mut acc = Rounds::default();
    let mut first: Option<Load> = None;
    let t0 = Instant::now();
    for r in 0.. {
        let load = generate(&mut rng, n);
        round(
            &repro,
            &ctx.work.join(format!("daemon-{r}")),
            &load,
            ctx.smoke,
            out,
            &mut acc,
        )?;
        first.get_or_insert(load);
        if ctx.smoke || t0.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    let first = first.expect("at least one round");

    let ok: Vec<&Job> = acc.jobs.iter().filter(|j| j.ok).collect();
    let pick = |f: fn(&Job) -> f64, warm: Option<bool>| -> Vec<f64> {
        ok.iter()
            .filter(|j| warm.is_none_or(|w| j.deduped == w))
            .map(|j| f(j))
            .collect()
    };
    let cold = pick(|j| j.job_ms, Some(false));
    let warm = pick(|j| j.job_ms, Some(true));
    let all = pick(|j| j.job_ms, None);
    if ctx.trace {
        let rejected = acc.jobs.iter().filter(|j| j.rejected).count();
        out.extend(&[
            ("serve.post_ms_p50", median(&pick(|j| j.post_ms, None))),
            (
                "serve.first_row_ms_p50",
                median(&pick(|j| j.first_row_ms, None)),
            ),
            ("serve.stream_ms_p50", median(&pick(|j| j.stream_ms, None))),
            ("serve.cold_job_ms_p50", median(&cold)),
            ("serve.warm_job_ms_p50", median(&warm)),
            (
                "serve.dedupe_ratio",
                warm.len() as f64 / ok.len().max(1) as f64,
            ),
            ("serve.rejected", rejected as f64),
            ("serve.threads_max", acc.threads_max),
            (
                "loadgen.achieved_per_s",
                ok.len() as f64 / acc.drive_s.max(1e-9),
            ),
        ]);
        traced(ctx, &first.specs[0].0, &ok, out);
    } else {
        out.note(summary("set-up", "s", &acc.setup_s));
        out.note(summary("fresh jobs", "ms", &cold));
        out.note(summary("repeated jobs", "ms", &warm));
        out.note(summary("daemon peak rss", "MB", &acc.rss_mb));
        out.set("setup_s", median(&acc.setup_s));
        out.set("wall_s", iq_mean(&cold) / 1e3);
        out.set("peak_rss_mb", median(&acc.rss_mb));
    }
    out.note(format!(
        "{} rounds of {n} jobs ({} fresh, {} repeated; repeated interquartile mean {:.4} ms) in {:.3} s of load over {THREADS} connections; job_p50_ms {:.3}, job_p90_ms {:.3}, job_p99_ms {:.3}",
        acc.rss_mb.len(),
        cold.len(),
        warm.len(),
        iq_mean(&warm),
        acc.drive_s,
        median(&all),
        quantile(&all, 0.9),
        quantile(&all, 0.99),
    ));
    Ok(())
}

/// Per-job attribution of the load (means: POST, wait for the first
/// row, stream), and the in-process pipeline of one job spec rebuilt
/// from public calls for the runtime, core and kernel layers and the
/// tracing overhead.
fn traced(ctx: &Ctx, sweep: &Sweep, ok: &[&Job], out: &mut Outcome) {
    let mean = |f: fn(&Job) -> f64| ok.iter().map(|j| f(j)).sum::<f64>() / ok.len().max(1) as f64;
    let steps = [
        ("serve.post_ms", mean(|j| j.post_ms)),
        ("serve.first_row_ms", mean(|j| j.first_row_ms)),
        ("serve.stream_ms", mean(|j| j.stream_ms)),
    ];
    let job = trace::attribute("serve-mixed job, means", mean(|j| j.job_ms), &steps);
    out.note(job.table);

    let engine = Engine::new(THREADS);
    let reference = run_workload(sweep, &engine, None).report.to_csv();
    let (draw, score, aggregate) = trace::probe_twopair(sweep, &sweep.lower(), 4);
    let dir = ctx.work.join("rebuild");
    let rebuilt = trace::alternate(
        "serve-mixed job spec rebuild",
        (ctx.seconds / 4.0).min(1.0),
        |timed| {
            let r = trace::rebuild(sweep, &engine, &dir, timed);
            out.check(
                r.csv == reference && r.reloaded,
                "traced job rebuild CSV differs from run_workload",
            );
            let metrics = trace::rebuild_metrics(&r, THREADS, "core.task_ms_p50");
            (r.wall_ms, r.layers, metrics)
        },
    );
    out.extend(&rebuilt.metrics);
    out.extend(&[
        ("trace.coverage_pct", job.coverage_pct),
        ("trace.unattributed_ms", job.unattributed_ms),
        ("trace.overhead_pct", rebuilt.overhead_pct),
        ("propagation.draw_ns", draw),
        ("capacity.score_ns", score),
        ("core.aggregate_ns", aggregate),
    ]);
    out.note(rebuilt.table);
}
