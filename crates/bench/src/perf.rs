//! `wcs-bench-harness`: the machine-readable performance suite behind
//! `repro bench`.
//!
//! The roadmap's hot-path item needed *recorded* numbers, not
//! printouts that scroll away: every optimization claim in this
//! repository should be checkable against a file. This module runs a
//! **fixed, seeded suite** of kernel and end-to-end benchmarks — the
//! two-pair sample kernel (naive per-method path vs the hoisted
//! [`TwoPairKernel`]), the N-pair sample kernel at N ∈ {2, 4, 8} under
//! both stream layouts (the bitwise paper-exact v1 [`NPairKernel`] and
//! the batched/fused v2 [`NPairKernelV2`]), an `mc_averages` batch, one
//! small model sweep and one small sim sweep, plus a SplitMix64
//! calibration loop, a telemetry-instrument overhead pair (enabled vs.
//! the off-state no-op), and a k=2 local dispatcher run (real worker
//! subprocesses) — with warmup, fixed repetition counts and median/MAD
//! wall-clock statistics, and serialises the result as a
//! schema-versioned JSON document (`BENCH_10.json` at the repo root).
//!
//! Two properties the CI gate leans on:
//!
//! * **Shape determinism** — bench names, sample counts and iteration
//!   counts are fixed per mode (never time-adaptive), so two runs of
//!   `repro bench --quick` report the same bench set with the same
//!   counts (only the measured times differ). Pinned by tests.
//! * **Machine-portable comparison** — [`compare`] normalises
//!   current/baseline median ratios by their own median (the
//!   [`machine_factor`]), so a uniformly slower CI runner does not trip
//!   the gate, while a single kernel regressing relative to the others
//!   does. The same-run kernel-vs-naive speedup pairs are gated too:
//!   those are pure ratios and carry no hardware term at all.

use std::time::Instant;

use wcs_capacity::npair::{sender_positions, NPairKernel, NPairKernelV2, NPairScenario, Placement};
use wcs_capacity::twopair::{CsDecision, PairSample, ShadowDraws, TwoPairKernel};
use wcs_core::average::{mc_averages, sample_scenario};
use wcs_core::params::ModelParams;
use wcs_runtime::{run_workload, Engine, SimSweep, Sweep};
use wcs_stats::rng::{split_rng, splitmix64};
use wcs_telemetry::json::{self, Json};

/// Schema identifier written into every bench document.
pub const SCHEMA: &str = "wcs-bench-v1";
/// Schema version written into every bench document.
pub const SCHEMA_VERSION: u64 = 1;
/// Default output file name (at the repo root).
pub const DEFAULT_OUT: &str = "BENCH_10.json";

/// The fixed bench-name set the suite emits, in emission order. Pinned
/// by tests; extend deliberately (the CI baseline must be refreshed in
/// the same change).
pub const BENCH_NAMES: [&str; 15] = [
    "calib_splitmix_loop",
    "twopair_sample_naive",
    "twopair_sample_kernel",
    "npair_sample_naive_n4",
    "npair_sample_kernel_n2",
    "npair_sample_kernel_n4",
    "npair_sample_kernel_n8",
    "npair_sample_kernel_v2_n4",
    "npair_sample_kernel_v2_n8",
    "mc_averages_batch_5k",
    "model_sweep_small",
    "sim_sweep_small",
    "telemetry_overhead_off",
    "telemetry_overhead_on",
    "dispatch_local_k2",
];

/// How much wall clock to spend: `Quick` for the CI smoke job, `Full`
/// for the committed `BENCH_10.json` numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchMode {
    /// CI budget: fewer repetitions, same bench set.
    Quick,
    /// Recorded-numbers budget.
    Full,
}

impl BenchMode {
    /// Stable label written into the document.
    pub fn label(self) -> &'static str {
        match self {
            BenchMode::Quick => "quick",
            BenchMode::Full => "full",
        }
    }

    /// Timed repetitions per bench (fixed per mode — shape determinism).
    fn samples(self) -> usize {
        match self {
            BenchMode::Quick => 9,
            BenchMode::Full => 21,
        }
    }

    /// Scale factor for per-sample iteration counts.
    fn iter_scale(self, iters: u64) -> u64 {
        match self {
            BenchMode::Quick => iters,
            BenchMode::Full => iters * 4,
        }
    }
}

/// One bench's measured statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Bench name (member of [`BENCH_NAMES`]).
    pub name: String,
    /// Median wall time per evaluation, nanoseconds.
    pub median_ns: f64,
    /// Median absolute deviation of the per-evaluation times, ns.
    pub mad_ns: f64,
    /// Timed repetitions taken.
    pub samples: usize,
    /// Evaluations per timed repetition.
    pub iters_per_sample: u64,
}

/// A same-run optimized-vs-naive speedup pair (hardware-free ratio).
#[derive(Debug, Clone, PartialEq)]
pub struct Speedup {
    /// Pair name, e.g. `twopair_kernel`.
    pub name: String,
    /// The pre-optimization bench it is measured against.
    pub baseline: String,
    /// The optimized bench.
    pub optimized: String,
    /// baseline median / optimized median (> 1 means faster).
    pub speedup: f64,
}

/// The full schema-versioned bench document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Mode label (`quick` or `full`).
    pub mode: String,
    /// Per-bench statistics, in [`BENCH_NAMES`] order.
    pub benches: Vec<BenchResult>,
    /// Same-run speedup pairs.
    pub speedups: Vec<Speedup>,
}

fn median(sorted: &[f64]) -> f64 {
    sorted[sorted.len() / 2]
}

/// Median + MAD of an unsorted per-evaluation time series.
fn median_mad(mut xs: Vec<f64>) -> (f64, f64) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let med = median(&xs);
    let mut dev: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    dev.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (med, median(&dev))
}

/// Time one bench: `batch(iters, salt)` runs `iters` evaluations and
/// returns an accumulator the harness black-boxes so the work cannot be
/// dead-code-eliminated. The `salt` (black-boxed sample index) makes
/// every call observably distinct — without it the optimizer is
/// entitled to treat a deterministic batch as a pure function of
/// `iters`, hoist it out of the timed loop, and leave the harness
/// measuring a cached result. One un-timed warmup batch, then a fixed
/// number of timed batches.
fn run_bench<F: FnMut(u64, u64) -> f64>(
    name: &str,
    mode: BenchMode,
    base_iters: u64,
    mut batch: F,
) -> BenchResult {
    let iters = mode.iter_scale(base_iters);
    let samples = mode.samples();
    std::hint::black_box(batch(iters, std::hint::black_box(u64::MAX))); // warmup
    let mut per_eval_ns = Vec::with_capacity(samples);
    for sample in 0..samples {
        let salt = std::hint::black_box(sample as u64);
        let t0 = Instant::now();
        std::hint::black_box(batch(iters, salt));
        per_eval_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    let (median_ns, mad_ns) = median_mad(per_eval_ns);
    wcs_telemetry::value(
        "bench.result",
        vec![
            ("name".to_string(), wcs_telemetry::Value::from(name)),
            (
                "median_ns".to_string(),
                wcs_telemetry::Value::F64(median_ns),
            ),
            ("mad_ns".to_string(), wcs_telemetry::Value::F64(mad_ns)),
            ("samples".to_string(), wcs_telemetry::Value::from(samples)),
            ("iters".to_string(), wcs_telemetry::Value::U64(iters)),
        ],
    );
    BenchResult {
        name: name.to_string(),
        median_ns,
        mad_ns,
        samples,
        iters_per_sample: iters,
    }
}

/// The naive two-pair per-sample scoring: every policy via the
/// per-method [`wcs_capacity::TwoPairScenario`] path, exactly the
/// arithmetic `mc_averages` ran before the kernel existed.
fn twopair_naive_batch(iters: u64, salt: u64) -> f64 {
    let params = ModelParams::paper_default();
    let mut rng = split_rng(42 ^ salt, 0xbe9c);
    let mut acc = 0.0;
    for _ in 0..iters {
        let s = sample_scenario(&params, 40.0, 55.0, &mut rng);
        acc += 0.5 * (s.c_multiplexing_1() + s.c_multiplexing_2());
        acc += 0.5 * (s.c_concurrent_1() + s.c_concurrent_2());
        if s.cs_decision(55.0) == CsDecision::Multiplex {
            acc += 1.0;
        }
        acc += 0.5 * (s.c_cs_1(55.0) + s.c_cs_2(55.0));
        acc += s.c_max();
        acc += 0.5 * (s.c_ub_max_1() + s.c_ub_max_2());
    }
    acc
}

/// The optimized two-pair scoring: same draws, same accumulator
/// combination, through [`TwoPairKernel`].
fn twopair_kernel_batch(iters: u64, salt: u64) -> f64 {
    let params = ModelParams::paper_default();
    let kernel = TwoPairKernel::new(params.prop, params.cap, 55.0, 55.0);
    let mut rng = split_rng(42 ^ salt, 0xbe9c);
    let mut acc = 0.0;
    for _ in 0..iters {
        let pair1 = PairSample::sample_uniform(40.0, &mut rng);
        let pair2 = PairSample::sample_uniform(40.0, &mut rng);
        let shadows = ShadowDraws::sample(&params.prop, &mut rng);
        let k = kernel.evaluate(pair1, pair2, &shadows);
        acc += 0.5 * (k.mux[0] + k.mux[1]);
        acc += 0.5 * (k.conc[0] + k.conc[1]);
        if k.decision == CsDecision::Multiplex {
            acc += 1.0;
        }
        acc += 0.5 * (k.cs[0] + k.cs[1]);
        acc += k.c_max;
        acc += 0.5 * (k.ub[0] + k.ub[1]);
    }
    acc
}

/// The naive N-pair per-sample scoring at N = 4 (allocating
/// [`NPairScenario::sample`] plus per-method policy evaluation —
/// exactly what `mc_averages_npair` ran before the kernel existed).
fn npair_naive_batch(iters: u64, salt: u64) -> f64 {
    let n = 4;
    let params = ModelParams::paper_default();
    let senders = sender_positions(n, 55.0, Placement::Line);
    let mut rng = split_rng(43 ^ salt, 0x6e70);
    let mut acc = 0.0;
    for _ in 0..iters {
        let s = NPairScenario::sample(&senders, 40.0, &params.prop, params.cap, &mut rng);
        for i in 0..n {
            acc += s.c_multiplexing(i) + s.c_concurrent(i) + s.c_cs(i, 55.0);
        }
        acc += s.deferring_senders(55.0) as f64;
    }
    acc
}

/// The optimized N-pair scoring at pair count `n` via [`NPairKernel`].
fn npair_kernel_batch(n: usize, iters: u64, salt: u64) -> f64 {
    let params = ModelParams::paper_default();
    let senders = sender_positions(n, 55.0, Placement::Line);
    let mut kernel = NPairKernel::new(&senders, 40.0, &params.prop, params.cap, 55.0);
    let mut rng = split_rng(43 ^ salt, 0x6e70);
    let mut acc = 0.0;
    for _ in 0..iters {
        kernel.sample_and_score(&mut rng);
        for i in 0..n {
            acc += kernel.mux()[i] + kernel.conc()[i] + kernel.cs()[i];
        }
        acc += kernel.deferring_senders() as f64;
    }
    acc
}

/// The stream-layout-v2 N-pair scoring at pair count `n` via
/// [`NPairKernelV2`]: same geometry, same seeds and same per-sample
/// output set as [`npair_kernel_batch`], through the batched raw-normal
/// tables and fused `exp`/`log` gain path.
fn npair_kernel_v2_batch(n: usize, iters: u64, salt: u64) -> f64 {
    let params = ModelParams::paper_default();
    let senders = sender_positions(n, 55.0, Placement::Line);
    let mut kernel = NPairKernelV2::new(&senders, 40.0, &params.prop, params.cap, 55.0);
    let mut rng = split_rng(43 ^ salt, 0x6e70);
    let mut acc = 0.0;
    for _ in 0..iters {
        kernel.sample_and_score(&mut rng);
        for i in 0..n {
            acc += kernel.mux()[i] + kernel.conc()[i] + kernel.cs()[i];
        }
        acc += kernel.deferring_senders() as f64;
    }
    acc
}

/// One iteration of the instrumented hot-path shape shared by the
/// engine/cache/serve seams: gate on `enabled()`, take a clock pair
/// around a tiny payload, record the latency into a registry histogram.
/// With no collector installed the gate is false and the whole
/// instrument compiles down to one relaxed atomic load and a branch —
/// the off-state cost the report-bytes-identical invariant relies on.
fn telemetry_overhead_batch(iters: u64, salt: u64) -> f64 {
    let mut s = 0x7e1e_u64 ^ salt;
    let mut acc = 0u64;
    for _ in 0..iters {
        let t0 = wcs_telemetry::enabled().then(Instant::now);
        acc = acc.wrapping_add(splitmix64(&mut s));
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            wcs_telemetry::metrics::record_ns(wcs_telemetry::metrics::HistId::EngineBlock, ns);
            acc ^= ns & 1;
        }
    }
    acc as f64
}

/// Run `batch` with the process-global collector forced to `state`
/// (`Some` installs it, `None` leaves telemetry off), restoring the
/// previous collector afterwards.
fn with_collector<F: FnOnce() -> f64>(
    state: Option<std::sync::Arc<dyn wcs_telemetry::Collector>>,
    batch: F,
) -> f64 {
    let prev = wcs_telemetry::uninstall();
    if let Some(c) = state {
        wcs_telemetry::install(c);
    }
    let out = batch();
    wcs_telemetry::uninstall();
    if let Some(prev) = prev {
        wcs_telemetry::install(prev);
    }
    out
}

/// Run the whole fixed suite.
pub fn run_suite(mode: BenchMode) -> BenchReport {
    let mut benches = Vec::with_capacity(BENCH_NAMES.len());

    // Calibration anchor: pure integer mixing, no memory traffic — a
    // rough "how fast is this machine" unit for eyeballing baselines.
    benches.push(run_bench(
        "calib_splitmix_loop",
        mode,
        2_000_000,
        |iters, salt| {
            let mut s = 0x5eed_u64 ^ salt;
            let mut acc = 0u64;
            for _ in 0..iters {
                acc = acc.wrapping_add(splitmix64(&mut s));
            }
            acc as f64
        },
    ));

    benches.push(run_bench(
        "twopair_sample_naive",
        mode,
        20_000,
        twopair_naive_batch,
    ));
    benches.push(run_bench(
        "twopair_sample_kernel",
        mode,
        20_000,
        twopair_kernel_batch,
    ));
    benches.push(run_bench(
        "npair_sample_naive_n4",
        mode,
        4_000,
        npair_naive_batch,
    ));
    for (name, n, iters) in [
        ("npair_sample_kernel_n2", 2usize, 10_000u64),
        ("npair_sample_kernel_n4", 4, 4_000),
        ("npair_sample_kernel_n8", 8, 1_500),
    ] {
        benches.push(run_bench(name, mode, iters, |it, salt| {
            npair_kernel_batch(n, it, salt)
        }));
    }
    for (name, n, iters) in [
        ("npair_sample_kernel_v2_n4", 4usize, 4_000u64),
        ("npair_sample_kernel_v2_n8", 8, 1_500),
    ] {
        benches.push(run_bench(name, mode, iters, |it, salt| {
            npair_kernel_v2_batch(n, it, salt)
        }));
    }

    benches.push(run_bench("mc_averages_batch_5k", mode, 1, |iters, salt| {
        let params = ModelParams::paper_default();
        let mut acc = 0.0;
        for rep in 0..iters {
            let a = mc_averages(&params, 40.0, 55.0, 55.0, 5_000, (17 ^ salt) + rep);
            acc += a.carrier_sense.mean + a.optimal.mean;
        }
        acc
    }));

    benches.push(run_bench("model_sweep_small", mode, 1, |iters, salt| {
        let mut acc = 0.0;
        for rep in 0..iters {
            let sweep = Sweep::new("bench-model-small")
                .rmaxes(&[40.0])
                .ds(&[20.0, 80.0])
                .sigmas(&[0.0, 8.0])
                .samples(1_500)
                .seed((31 ^ salt) + rep);
            let out = run_workload(&sweep, &Engine::serial(), None);
            acc += out.report.rows.len() as f64;
        }
        acc
    }));

    benches.push(run_bench("sim_sweep_small", mode, 1, |iters, salt| {
        let mut acc = 0.0;
        for rep in 0..iters {
            let sweep = SimSweep::new("bench-sim-small")
                .cca_thresholds_db(&[13.0])
                .points(1)
                .run_secs(1)
                .sweep_rates_mbps(&[6.0])
                .seed((37 ^ salt) + rep);
            let out = run_workload(&sweep, &Engine::serial(), None);
            acc += out.report.rows.len() as f64;
        }
        acc
    }));

    benches.push(run_bench(
        "telemetry_overhead_off",
        mode,
        2_000_000,
        |iters, salt| with_collector(None, || telemetry_overhead_batch(iters, salt)),
    ));
    benches.push(run_bench(
        "telemetry_overhead_on",
        mode,
        2_000_000,
        |iters, salt| {
            // wcs_telemetry::NullCollector discards everything, so this
            // measures the instrument (gate, clock pair, histogram
            // atomics), not any sink.
            with_collector(
                Some(std::sync::Arc::new(wcs_telemetry::NullCollector)),
                || telemetry_overhead_batch(iters, salt),
            )
        },
    ));

    // A tiny sweep split into k=2 shards through the dispatcher
    // (heartbeats, liveness polling, requeue machinery), which spawns
    // real `repro shard worker` subprocesses via the current executable.
    benches.push(run_bench("dispatch_local_k2", mode, 1, |iters, salt| {
        let exe = std::env::current_exe().expect("current_exe");
        let transport = wcs_dispatch::LocalExec::new(&exe);
        let pool = wcs_dispatch::HostPool::local(2);
        let mut acc = 0.0;
        for rep in 0..iters {
            let dir = std::env::temp_dir().join(format!(
                "wcs-bench-dispatch-{}-{salt:x}-{rep}",
                std::process::id()
            ));
            let options = wcs_dispatch::DispatchOptions {
                threads_per_worker: 1,
                ..wcs_dispatch::DispatchOptions::default()
            };
            let dispatcher = wcs_dispatch::Dispatcher::new(&transport, &pool, options);
            let out = dispatcher
                .run(
                    &dir,
                    Sweep::new("bench-dispatch-local")
                        .rmaxes(&[40.0])
                        .ds(&[20.0, 80.0])
                        .sigmas(&[0.0])
                        .samples(400)
                        .seed((43 ^ salt) + rep),
                    2,
                    wcs_shard::ShardStrategy::Contiguous,
                    None,
                )
                .expect("dispatch run");
            acc += out.merge.report.rows.len() as f64;
            let _ = std::fs::remove_dir_all(&dir);
        }
        acc
    }));

    let speedup = |benches: &[BenchResult], name: &str, base: &str, opt: &str| {
        let get = |n: &str| {
            benches
                .iter()
                .find(|b| b.name == n)
                .unwrap_or_else(|| panic!("bench {n} missing"))
                .median_ns
        };
        Speedup {
            name: name.to_string(),
            baseline: base.to_string(),
            optimized: opt.to_string(),
            speedup: get(base) / get(opt),
        }
    };
    let speedups = vec![
        speedup(
            &benches,
            "twopair_kernel",
            "twopair_sample_naive",
            "twopair_sample_kernel",
        ),
        speedup(
            &benches,
            "npair_kernel_n4",
            "npair_sample_naive_n4",
            "npair_sample_kernel_n4",
        ),
        // Stream-layout v2 vs v1 on the same N-pair kernel shapes: pure
        // same-run ratios, gated at the v2 floor — the whole point of
        // the batched draw path is this speedup.
        speedup(
            &benches,
            "npair_kernel_v2_n4",
            "npair_sample_kernel_n4",
            "npair_sample_kernel_v2_n4",
        ),
        speedup(
            &benches,
            "npair_kernel_v2_n8",
            "npair_sample_kernel_n8",
            "npair_sample_kernel_v2_n8",
        ),
        // How much the enabled instrument costs relative to the exact
        // off-state no-op — a pure same-run ratio, recorded (not gated:
        // its *bound* is enforced by the per-bench baseline comparison
        // of telemetry_overhead_on).
        speedup(
            &benches,
            "telemetry_off",
            "telemetry_overhead_on",
            "telemetry_overhead_off",
        ),
    ];

    BenchReport {
        schema: SCHEMA.to_string(),
        schema_version: SCHEMA_VERSION,
        mode: mode.label().to_string(),
        benches,
        speedups,
    }
}

// ---- serialisation ------------------------------------------------------

impl BenchReport {
    /// Serialise as the schema-versioned JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": \"{}\",\n", self.schema));
        out.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        out.push_str("  \"benches\": [\n");
        for (i, b) in self.benches.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"median_ns\": {:?}, \"mad_ns\": {:?}, \"samples\": {}, \"iters_per_sample\": {}}}{}\n",
                b.name,
                b.median_ns,
                b.mad_ns,
                b.samples,
                b.iters_per_sample,
                if i + 1 < self.benches.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"speedups\": [\n");
        for (i, s) in self.speedups.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"baseline\": \"{}\", \"optimized\": \"{}\", \"speedup\": {:?}}}{}\n",
                s.name,
                s.baseline,
                s.optimized,
                s.speedup,
                if i + 1 < self.speedups.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a document produced by [`BenchReport::to_json`] (or any
    /// JSON with the same shape). Unknown keys are ignored; missing
    /// required keys are errors.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let schema = doc.field("schema", Json::as_str)?.to_string();
        let schema_version = doc.field("schema_version", Json::as_u64)?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema '{schema}' (want {SCHEMA})"));
        }
        let mode = doc.field("mode", Json::as_str)?.to_string();
        let benches = doc
            .field("benches", Json::as_array)?
            .iter()
            .map(|b| {
                Ok(BenchResult {
                    name: b.field("name", Json::as_str)?.to_string(),
                    median_ns: b.field("median_ns", Json::as_f64)?,
                    mad_ns: b.field("mad_ns", Json::as_f64)?,
                    samples: b.field("samples", Json::as_u64)? as usize,
                    iters_per_sample: b.field("iters_per_sample", Json::as_u64)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let speedups = doc
            .field("speedups", Json::as_array)?
            .iter()
            .map(|s| {
                Ok(Speedup {
                    name: s.field("name", Json::as_str)?.to_string(),
                    baseline: s.field("baseline", Json::as_str)?.to_string(),
                    optimized: s.field("optimized", Json::as_str)?.to_string(),
                    speedup: s.field("speedup", Json::as_f64)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchReport {
            schema,
            schema_version,
            mode,
            benches,
            speedups,
        })
    }
}

// ---- baseline comparison ------------------------------------------------

/// Median-regression threshold of the CI gate: a bench fails when its
/// machine-normalised median exceeds the baseline's by more than this
/// fraction.
pub const REGRESSION_THRESHOLD: f64 = 0.25;

/// Minimum same-run kernel-vs-naive speedup the gate tolerates. A
/// de-optimized kernel measures ~1.0× (it *is* the naive path again),
/// while the gated twopair pair sits at ~1.6×, so 1.1 separates the two
/// with headroom for runner noise — and, being a same-run ratio, it
/// carries no hardware term at all.
pub const MIN_SPEEDUP: f64 = 1.1;

/// Floor for the stream-layout-v2 kernel pairs: the batched draw path's
/// contract is ≥2× over v1 on the N-pair sample kernels, and 1.8 leaves
/// headroom for runner noise while still failing loudly if the fused
/// `exp`/`log` path is de-optimized back toward v1 territory (~1.0×).
pub const V2_MIN_SPEEDUP: f64 = 1.8;

/// Speedup pairs the gate enforces, each with its own floor. The v1
/// N-pair kernel-vs-naive ratio is recorded but *not* gated: its cost
/// is dominated by the (bitwise-pinned, unoptimizable) shadowing draws,
/// so the ratio is small (~1.2×) and noisy; an N-pair kernel
/// de-optimization is still caught by the normalised-median gate on its
/// own bench. The v2 pairs have no such excuse — their baselines are
/// the v1 kernels themselves, so the draw cost is in both terms.
pub const GATED_SPEEDUP_PAIRS: [(&str, f64); 3] = [
    ("twopair_kernel", MIN_SPEEDUP),
    ("npair_kernel_v2_n4", V2_MIN_SPEEDUP),
    ("npair_kernel_v2_n8", V2_MIN_SPEEDUP),
];

/// Benches recorded in the document but excluded from the normalised-
/// median gate (and from the machine-factor median): their cost is
/// dominated by subprocess spawn latency, which varies across runners
/// far more than the CPU-bound kernels the machine factor is anchored
/// to. They exist to record the dispatcher's cost, not to bound it.
pub const UNGATED_BENCHES: [&str; 1] = ["dispatch_local_k2"];

/// What [`compare`] concluded.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Human-readable per-bench delta table (always printed).
    pub table: String,
    /// One line per gate failure; empty means the gate passes.
    pub regressions: Vec<String>,
}

impl Comparison {
    /// Whether the regression gate passes.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Strip same-run speedup-floor failures, keeping every other
    /// regression. Unoptimized (debug) builds of the CLI use this: the
    /// floors certify optimizations (batched slice transcendentals,
    /// auto-vectorized draw fusing) that only exist under `-O`, so
    /// enforcing them on a debug binary gates the build profile, not
    /// the code. Structural failures — a gated pair missing from the
    /// run entirely — are kept, as is the normalised-median gate.
    pub fn without_speedup_floors(mut self) -> Self {
        self.regressions.retain(|r| !r.contains("fell below the"));
        self
    }
}

/// The machine factor of a set of current/baseline ratios: their true
/// median (the mean of the two middle ratios for an even count), or 1.0
/// for none. [`compare`] and `repro trace diff` both divide every ratio
/// by it, so a uniformly faster or slower host moves nothing.
pub fn machine_factor(mut ratios: Vec<f64>) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    }
}

/// Compare a current run against a committed baseline.
///
/// Raw medians are not comparable across machines, so the gate works on
/// **normalised ratios**: each bench's current/baseline median ratio is
/// divided by the [`machine_factor`] of all gated ratios. A uniformly
/// faster or slower runner moves every ratio — and the factor — by the
/// same amount and trips nothing; one kernel regressing moves only its
/// own ratio. The current run's same-run speedup pairs are gated
/// separately (pure ratios, no hardware term).
pub fn compare(current: &BenchReport, baseline: &BenchReport) -> Comparison {
    let mut regressions = Vec::new();
    let base_by_name = |name: &str| baseline.benches.iter().find(|b| b.name == name);

    let ratios: Vec<f64> = current
        .benches
        .iter()
        .filter(|cur| !UNGATED_BENCHES.contains(&cur.name.as_str()))
        .filter_map(|cur| {
            let base = base_by_name(&cur.name).filter(|base| base.median_ns > 0.0)?;
            Some(cur.median_ns / base.median_ns)
        })
        .collect();
    let factor = machine_factor(ratios);

    let mut table = String::new();
    table.push_str(&format!(
        "{:<26} {:>12} {:>12} {:>8} {:>10}  verdict   (machine factor {factor:.3})\n",
        "bench", "base µs", "cur µs", "ratio", "norm Δ%"
    ));
    for cur in &current.benches {
        match base_by_name(&cur.name) {
            Some(base) if base.median_ns > 0.0 => {
                let ratio = cur.median_ns / base.median_ns;
                let norm = ratio / factor;
                let delta_pct = (norm - 1.0) * 100.0;
                let gated = !UNGATED_BENCHES.contains(&cur.name.as_str());
                let fail = gated && norm > 1.0 + REGRESSION_THRESHOLD;
                table.push_str(&format!(
                    "{:<26} {:>12.3} {:>12.3} {:>8.3} {:>+9.1}%  {}\n",
                    cur.name,
                    base.median_ns / 1_000.0,
                    cur.median_ns / 1_000.0,
                    ratio,
                    delta_pct,
                    if fail {
                        "REGRESSED"
                    } else if gated {
                        "ok"
                    } else {
                        "ok (informational)"
                    }
                ));
                if fail {
                    regressions.push(format!(
                        "{}: normalised median regressed {:.1}% (> {:.0}% threshold)",
                        cur.name,
                        delta_pct,
                        REGRESSION_THRESHOLD * 100.0
                    ));
                }
            }
            _ => {
                table.push_str(&format!(
                    "{:<26} {:>12} {:>12.3} {:>8} {:>10}  new (no baseline)\n",
                    cur.name,
                    "-",
                    cur.median_ns / 1_000.0,
                    "-",
                    "-"
                ));
            }
        }
    }
    for base in &baseline.benches {
        if !current.benches.iter().any(|c| c.name == base.name) {
            regressions.push(format!(
                "{}: present in baseline but not measured",
                base.name
            ));
        }
    }
    for s in &current.speedups {
        let floor = GATED_SPEEDUP_PAIRS
            .iter()
            .find(|(name, _)| *name == s.name)
            .map(|&(_, floor)| floor);
        let fail = floor.is_some_and(|f| s.speedup < f);
        table.push_str(&format!(
            "speedup {:<18} {:>46.2}x  {}\n",
            s.name,
            s.speedup,
            if fail {
                "BELOW FLOOR"
            } else if floor.is_some() {
                "ok"
            } else {
                "ok (informational)"
            }
        ));
        if let (true, Some(floor)) = (fail, floor) {
            regressions.push(format!(
                "{}: same-run speedup {:.2}x fell below the {floor}x floor",
                s.name, s.speedup
            ));
        }
    }
    // A gated pair that is not measured at all must fail too — otherwise
    // deleting/renaming the pair silently disables its floor.
    for (pair, _) in GATED_SPEEDUP_PAIRS {
        if !current.speedups.iter().any(|s| s.name == pair) {
            regressions.push(format!(
                "{pair}: gated speedup pair missing from the current run"
            ));
        }
    }
    Comparison { table, regressions }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report(medians: &[(&str, f64)], speedups: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_string(),
            schema_version: SCHEMA_VERSION,
            mode: "quick".to_string(),
            benches: medians
                .iter()
                .map(|&(name, m)| BenchResult {
                    name: name.to_string(),
                    median_ns: m,
                    mad_ns: m / 100.0,
                    samples: 9,
                    iters_per_sample: 100,
                })
                .collect(),
            speedups: speedups
                .iter()
                .map(|&(name, s)| Speedup {
                    name: name.to_string(),
                    baseline: format!("{name}_naive"),
                    optimized: format!("{name}_kernel"),
                    speedup: s,
                })
                .collect(),
        }
    }

    #[test]
    fn json_roundtrip_preserves_document() {
        let r = fake_report(&[("a", 123.456), ("b", 9.5)], &[("k", 2.5)]);
        let parsed = BenchReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let mut r = fake_report(&[("a", 1.0)], &[]);
        r.schema = "other-v9".to_string();
        let err = BenchReport::parse(&r.to_json()).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn median_mad_basics() {
        let (med, mad) = median_mad(vec![1.0, 100.0, 3.0, 2.0, 4.0]);
        assert_eq!(med, 3.0);
        assert_eq!(mad, 1.0);
    }

    /// Every gated pair at a comfortably-passing speedup.
    const HEALTHY_SPEEDUPS: [(&str, f64); 3] = [
        ("twopair_kernel", 1.6),
        ("npair_kernel_v2_n4", 2.2),
        ("npair_kernel_v2_n8", 2.2),
    ];

    #[test]
    fn compare_passes_on_uniform_slowdown() {
        // A 3x slower machine regresses nothing: the machine factor
        // absorbs it.
        let base = fake_report(
            &[("a", 100.0), ("b", 200.0), ("c", 50.0)],
            &HEALTHY_SPEEDUPS,
        );
        let cur = fake_report(
            &[("a", 300.0), ("b", 600.0), ("c", 150.0)],
            &HEALTHY_SPEEDUPS,
        );
        let cmp = compare(&cur, &base);
        assert!(cmp.ok(), "{:?}", cmp.regressions);
        assert!(cmp.table.contains("machine factor 3.000"));
    }

    #[test]
    fn compare_flags_single_bench_regression() {
        let base = fake_report(
            &[("a", 100.0), ("b", 200.0), ("c", 50.0)],
            &HEALTHY_SPEEDUPS,
        );
        let cur = fake_report(
            &[("a", 100.0), ("b", 200.0), ("c", 100.0)],
            &HEALTHY_SPEEDUPS,
        );
        let cmp = compare(&cur, &base);
        assert!(!cmp.ok());
        assert_eq!(cmp.regressions.len(), 1);
        assert!(
            cmp.regressions[0].starts_with("c:"),
            "{:?}",
            cmp.regressions
        );
        assert!(cmp.table.contains("REGRESSED"));
    }

    #[test]
    fn compare_flags_lost_speedup() {
        let cur_speedups = [
            ("twopair_kernel", 1.05),
            ("npair_kernel_v2_n4", 2.2),
            ("npair_kernel_v2_n8", 2.2),
        ];
        let base = fake_report(&[("a", 100.0)], &HEALTHY_SPEEDUPS);
        let cur = fake_report(&[("a", 100.0)], &cur_speedups);
        let cmp = compare(&cur, &base);
        assert!(!cmp.ok());
        assert!(
            cmp.regressions[0].contains("below the"),
            "{:?}",
            cmp.regressions
        );
    }

    #[test]
    fn compare_gates_v2_pairs_at_their_own_floor() {
        // 1.5x would pass the twopair floor (1.1) but is below the v2
        // floor (1.8): the per-pair floors must not be conflated.
        let cur_speedups = [
            ("twopair_kernel", 1.6),
            ("npair_kernel_v2_n4", 1.5),
            ("npair_kernel_v2_n8", 2.2),
        ];
        let base = fake_report(&[("a", 100.0)], &HEALTHY_SPEEDUPS);
        let cur = fake_report(&[("a", 100.0)], &cur_speedups);
        let cmp = compare(&cur, &base);
        assert!(!cmp.ok());
        assert_eq!(cmp.regressions.len(), 1);
        assert!(
            cmp.regressions[0].starts_with("npair_kernel_v2_n4:"),
            "{:?}",
            cmp.regressions
        );
        assert!(
            cmp.regressions[0].contains("below the 1.8x floor"),
            "{:?}",
            cmp.regressions
        );
        assert!(cmp.table.contains("BELOW FLOOR"));
    }

    #[test]
    fn compare_does_not_gate_informational_speedups() {
        // Pairs outside GATED_SPEEDUP_PAIRS are recorded but never fail
        // the gate (the v1 N-pair per-sample ratio is draw-dominated).
        let mut base_speedups = vec![("npair_kernel_n4", 1.3)];
        base_speedups.extend(HEALTHY_SPEEDUPS);
        let mut cur_speedups = vec![("npair_kernel_n4", 1.0)];
        cur_speedups.extend(HEALTHY_SPEEDUPS);
        let base = fake_report(&[("a", 100.0)], &base_speedups);
        let cur = fake_report(&[("a", 100.0)], &cur_speedups);
        let cmp = compare(&cur, &base);
        assert!(cmp.ok(), "{:?}", cmp.regressions);
        assert!(cmp.table.contains("informational"));
    }

    #[test]
    fn without_speedup_floors_keeps_structural_regressions() {
        // Floor failures are dropped (debug builds can't certify
        // optimization floors) but a missing gated pair and a median
        // regression still fail the gate.
        let cur_speedups = [
            ("twopair_kernel", 1.6),
            ("npair_kernel_v2_n4", 1.2), // below the 1.8 floor
        ];
        let base = fake_report(
            &[("a", 100.0), ("b", 200.0), ("c", 50.0)],
            &HEALTHY_SPEEDUPS,
        );
        let cur = fake_report(&[("a", 100.0), ("b", 200.0), ("c", 100.0)], &cur_speedups);
        let cmp = compare(&cur, &base).without_speedup_floors();
        assert!(!cmp.ok());
        assert!(
            cmp.regressions
                .iter()
                .all(|r| !r.contains("fell below the")),
            "{:?}",
            cmp.regressions
        );
        assert!(cmp.regressions.iter().any(|r| r.starts_with("c:")));
        assert!(cmp
            .regressions
            .iter()
            .any(|r| r.contains("missing from the current run")));
        // A fully healthy comparison stays healthy after the filter.
        let healthy = fake_report(&[("a", 100.0)], &HEALTHY_SPEEDUPS);
        assert!(compare(&healthy, &healthy).without_speedup_floors().ok());
    }

    #[test]
    fn compare_flags_missing_gated_speedup_pair() {
        // Dropping the gated pairs from the suite must not silently
        // disable their floors: one regression per missing pair.
        let base = fake_report(&[("a", 100.0)], &HEALTHY_SPEEDUPS);
        let cur = fake_report(&[("a", 100.0)], &[]);
        let cmp = compare(&cur, &base);
        assert!(!cmp.ok());
        assert_eq!(cmp.regressions.len(), GATED_SPEEDUP_PAIRS.len());
        for r in &cmp.regressions {
            assert!(r.contains("missing from the current run"), "{r}");
        }
    }

    #[test]
    fn compare_flags_missing_bench() {
        let base = fake_report(&[("a", 100.0), ("gone", 5.0)], &HEALTHY_SPEEDUPS);
        let cur = fake_report(&[("a", 100.0)], &HEALTHY_SPEEDUPS);
        let cmp = compare(&cur, &base);
        assert!(!cmp.ok());
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].contains("not measured"));
    }

    #[test]
    fn committed_documents_reserialise_to_their_own_bytes() {
        for (name, text) in [
            ("BENCH_5.json", include_str!("../../../BENCH_5.json")),
            ("BENCH_9.json", include_str!("../../../BENCH_9.json")),
            ("BENCH_10.json", include_str!("../../../BENCH_10.json")),
            (
                "bench/baseline.json",
                include_str!("../../../bench/baseline.json"),
            ),
        ] {
            let doc = BenchReport::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(doc.to_json(), text, "{name}");
        }
    }

    #[test]
    fn machine_factor_is_the_true_median() {
        assert_eq!(machine_factor(vec![3.0, 1.0, 2.0]), 2.0, "odd: the middle");
        assert_eq!(
            machine_factor(vec![4.0, 1.0, 3.0, 2.0]),
            2.5,
            "even: the mean of the middle two"
        );
        assert_eq!(machine_factor(vec![0.8]), 0.8);
        assert_eq!(machine_factor(Vec::new()), 1.0, "no ratios: no correction");
    }

    #[test]
    fn bench_names_are_the_emission_order() {
        // Cheap shape check without running the suite: the speedup
        // pairs must reference names from the pinned set.
        for pair in [
            ("twopair_sample_naive", "twopair_sample_kernel"),
            ("npair_sample_naive_n4", "npair_sample_kernel_n4"),
            ("npair_sample_kernel_n4", "npair_sample_kernel_v2_n4"),
            ("npair_sample_kernel_n8", "npair_sample_kernel_v2_n8"),
        ] {
            assert!(BENCH_NAMES.contains(&pair.0));
            assert!(BENCH_NAMES.contains(&pair.1));
        }
    }
}
