//! Metrics v2: fixed-bucket log-scale latency histograms, gauges, and
//! the Prometheus text exposition over them.
//!
//! The PR-6 substrate gave the stack spans and monotonic counters; this
//! module adds the *distribution-aware* layer. Design constraints,
//! in the same spirit as the counter registry:
//!
//! * **Lock-cheap, zero-allocation hot path.** A histogram is a fixed
//!   array of relaxed `AtomicU64` buckets plus count/sum/max — recording
//!   a sample is four atomic RMW ops and touches no lock, no heap, no
//!   formatting.
//! * **Readable without a collector.** Like [`crate::counter_total`],
//!   the registries here are process-global and always on: p50/p90/p99
//!   and max are available from a plain snapshot even when no
//!   [`crate::Collector`] is installed. Whether a *sample is taken at
//!   all* is the call site's business — hot paths (the engine's
//!   per-block timer) only read the clock when [`crate::enabled`] says
//!   so, which keeps the telemetry-off state an exact no-op there.
//! * **Out-of-band.** Nothing here can influence a report, hash or
//!   cache entry; the existing byte-identity invariant tests extend over
//!   these instruments.
//!
//! Buckets are log-scale in nanoseconds: bucket `i` holds samples in
//! `[2^i, 2^(i+1) - 1]` (bucket 0 holds 0 and 1 ns). Forty buckets span
//! 1 ns to ~18 minutes; anything beyond lands in the top bucket and is
//! reported through `max` exactly.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Schema identifier stamped into the `/v1/metrics` JSON body and the
/// run manifests that embed histogram snapshots.
pub const METRICS_SCHEMA: &str = "wcs-metrics-v1";

/// Monotonically bumped on any breaking change to the metrics body.
pub const METRICS_SCHEMA_VERSION: u64 = 2;

/// Number of log-scale buckets per histogram.
pub const BUCKETS: usize = 40;

/// Prefix every exposed Prometheus family carries.
pub const PROM_PREFIX: &str = "wcs_";

/// The pinned latency-histogram vocabulary — one entry per instrumented
/// seam. Like [`crate::EVENT_NAMES`], additions must edit this list
/// (and the tests/CI that assert against it), never slip in silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistId {
    /// Engine per-block dispatch latency (`engine.block` `dur_ns`).
    EngineBlock = 0,
    /// `wcs-serve` per-job wall time (`serve.job` `dur_ns`).
    ServeJob = 1,
    /// Result-cache load latency (hit or miss).
    CacheLoad = 2,
    /// Result-cache store latency.
    CacheStore = 3,
    /// Dispatcher per-shard-attempt wall time, spawn to exit
    /// (`dispatch.shard` `dur_ns`).
    DispatchShard = 4,
}

impl HistId {
    /// Every histogram, in registry order.
    pub const ALL: [HistId; 5] = [
        HistId::EngineBlock,
        HistId::ServeJob,
        HistId::CacheLoad,
        HistId::CacheStore,
        HistId::DispatchShard,
    ];

    /// Dotted registry name (matches the event-name family it measures).
    pub fn name(self) -> &'static str {
        match self {
            HistId::EngineBlock => "engine.block",
            HistId::ServeJob => "serve.job",
            HistId::CacheLoad => "cache.load",
            HistId::CacheStore => "cache.store",
            HistId::DispatchShard => "dispatch.shard",
        }
    }

    /// One-line HELP text for the Prometheus exposition.
    pub fn help(self) -> &'static str {
        match self {
            HistId::EngineBlock => "Engine per-block dispatch latency in nanoseconds.",
            HistId::ServeJob => "wcs-serve per-job wall time in nanoseconds.",
            HistId::CacheLoad => "Result-cache load latency in nanoseconds.",
            HistId::CacheStore => "Result-cache store latency in nanoseconds.",
            HistId::DispatchShard => "Dispatcher per-shard-attempt wall time in nanoseconds.",
        }
    }

    /// Registry entry by dotted name.
    pub fn by_name(name: &str) -> Option<HistId> {
        HistId::ALL.iter().copied().find(|id| id.name() == name)
    }
}

/// The pinned gauge vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeId {
    /// Worker threads the engine last ran with.
    EngineThreads = 0,
    /// Jobs currently queued in the serve daemon.
    ServeQueueDepth = 1,
    /// Jobs currently executing in the serve daemon.
    ServeJobsInflight = 2,
    /// Workers the dispatcher currently believes are alive.
    DispatchWorkersLive = 3,
}

impl GaugeId {
    /// Every gauge, in registry order.
    pub const ALL: [GaugeId; 4] = [
        GaugeId::EngineThreads,
        GaugeId::ServeQueueDepth,
        GaugeId::ServeJobsInflight,
        GaugeId::DispatchWorkersLive,
    ];

    /// Dotted registry name.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::EngineThreads => "engine.threads",
            GaugeId::ServeQueueDepth => "serve.queue_depth",
            GaugeId::ServeJobsInflight => "serve.jobs_inflight",
            GaugeId::DispatchWorkersLive => "dispatch.workers_live",
        }
    }

    /// One-line HELP text for the Prometheus exposition.
    pub fn help(self) -> &'static str {
        match self {
            GaugeId::EngineThreads => "Worker threads the engine last ran with.",
            GaugeId::ServeQueueDepth => "Jobs currently queued in the serve daemon.",
            GaugeId::ServeJobsInflight => "Jobs currently executing in the serve daemon.",
            GaugeId::DispatchWorkersLive => "Workers the dispatcher currently believes are alive.",
        }
    }
}

/// Bucket index for a sample: `floor(log2(max(ns, 1)))`, clamped into
/// the top bucket.
pub fn bucket_index(ns: u64) -> usize {
    let idx = 63 - (ns | 1).leading_zeros() as usize;
    idx.min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` in nanoseconds (`2^(i+1) - 1`).
pub fn bucket_le(i: usize) -> u64 {
    if i + 1 >= 64 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A fixed-bucket log-scale histogram. Instantiable (the runlog
/// replayer in `repro trace export` builds throwaway ones) but normally
/// used through the process-global registry via [`record_ns`].
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Four relaxed atomic ops, no lock, no
    /// allocation.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the whole distribution.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum.load(Ordering::Relaxed),
            max_ns: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A point-in-time copy of one histogram, detached from the atomics.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Dotted registry name.
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples (ns).
    pub sum_ns: u64,
    /// Exact maximum sample (ns).
    pub max_ns: u64,
    /// Per-bucket counts, [`BUCKETS`] long.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Estimated quantile (`0.0 ..= 1.0`): the upper bound of the bucket
    /// the rank falls in, clamped by the exact max. Zero when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                // The top bucket is a catch-all; its only honest upper
                // bound is the exact tracked max.
                if i == BUCKETS - 1 {
                    return self.max_ns;
                }
                return bucket_le(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median estimate.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Compact JSON object (`count`, `sum_ns`, `max_ns`, quantile
    /// estimates, raw buckets) — embedded in run manifests and the
    /// `/v1/metrics` JSON body.
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self.buckets.iter().map(|b| b.to_string()).collect();
        format!(
            "{{\"count\":{},\"sum_ns\":{},\"max_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"buckets\":[{}]}}",
            self.count,
            self.sum_ns,
            self.max_ns,
            self.p50_ns(),
            self.p90_ns(),
            self.p99_ns(),
            buckets.join(",")
        )
    }
}

static HISTOGRAMS: [Histogram; 5] = [
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
];

static GAUGES: [AtomicI64; 4] = [
    AtomicI64::new(0),
    AtomicI64::new(0),
    AtomicI64::new(0),
    AtomicI64::new(0),
];

/// Record one latency sample into the process-global registry.
pub fn record_ns(id: HistId, ns: u64) {
    HISTOGRAMS[id as usize].record(ns);
}

/// The live registry histogram behind `id`.
pub fn histogram(id: HistId) -> &'static Histogram {
    &HISTOGRAMS[id as usize]
}

/// Snapshot of every registry histogram, in [`HistId::ALL`] order.
pub fn snapshot_all() -> Vec<HistogramSnapshot> {
    HistId::ALL
        .iter()
        .map(|id| HISTOGRAMS[*id as usize].snapshot(id.name()))
        .collect()
}

/// Set a gauge to an absolute value.
pub fn gauge_set(id: GaugeId, v: i64) {
    GAUGES[id as usize].store(v, Ordering::Relaxed);
}

/// Adjust a gauge by a (possibly negative) delta.
pub fn gauge_add(id: GaugeId, delta: i64) {
    GAUGES[id as usize].fetch_add(delta, Ordering::Relaxed);
}

/// Current value of one gauge.
pub fn gauge(id: GaugeId) -> i64 {
    GAUGES[id as usize].load(Ordering::Relaxed)
}

/// Snapshot of every gauge, in [`GaugeId::ALL`] order.
pub fn gauges() -> Vec<(&'static str, i64)> {
    GaugeId::ALL
        .iter()
        .map(|id| (id.name(), gauge(*id)))
        .collect()
}

/// Dotted registry name → Prometheus family name: `wcs_` prefix, every
/// non-alphanumeric byte mapped to `_`.
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(PROM_PREFIX.len() + name.len());
    out.push_str(PROM_PREFIX);
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Render counters, gauges and histogram snapshots in the Prometheus
/// text exposition format (`text/plain; version=0.0.4`): `# HELP` and
/// `# TYPE` per family, cumulative `_bucket{le=...}` / `_sum` / `_count`
/// for histograms.
pub fn render_prometheus(
    counters: &[(String, u64)],
    gauges: &[(&str, i64)],
    hists: &[HistogramSnapshot],
) -> String {
    let mut out = String::new();
    for (name, total) in counters {
        let fam = format!("{}_total", prom_name(name));
        out.push_str(&format!(
            "# HELP {fam} Monotonic total of {name} events.\n# TYPE {fam} counter\n{fam} {total}\n"
        ));
    }
    for (name, v) in gauges {
        let fam = prom_name(name);
        let help = GaugeId::ALL
            .iter()
            .find(|g| g.name() == *name)
            .map(|g| g.help())
            .unwrap_or("Gauge.");
        out.push_str(&format!(
            "# HELP {fam} {help}\n# TYPE {fam} gauge\n{fam} {v}\n"
        ));
    }
    for snap in hists {
        let fam = format!("{}_duration_ns", prom_name(&snap.name));
        let help = HistId::by_name(&snap.name)
            .map(|h| h.help())
            .unwrap_or("Latency histogram in nanoseconds.");
        out.push_str(&format!("# HELP {fam} {help}\n# TYPE {fam} histogram\n"));
        let mut cum = 0u64;
        for (i, b) in snap.buckets.iter().enumerate().take(BUCKETS - 1) {
            cum += b;
            out.push_str(&format!("{fam}_bucket{{le=\"{}\"}} {cum}\n", bucket_le(i)));
        }
        out.push_str(&format!("{fam}_bucket{{le=\"+Inf\"}} {}\n", snap.count));
        out.push_str(&format!("{fam}_sum {}\n", snap.sum_ns));
        out.push_str(&format!("{fam}_count {}\n", snap.count));
    }
    out
}

/// The full live exposition: every registry counter (sorted), every
/// pinned gauge, every pinned histogram. Families for untouched
/// instruments still render (at zero), so scrapers see a stable set.
pub fn prometheus_page() -> String {
    render_prometheus(&crate::counter_totals(), &gauges(), &snapshot_all())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_le(0), 1);
        assert_eq!(bucket_le(9), 1023);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        let s = h.snapshot("engine.block");
        assert_eq!(s.count, 0);
        assert_eq!(s.sum_ns, 0);
        assert_eq!(s.max_ns, 0);
        assert_eq!(s.p50_ns(), 0);
        assert_eq!(s.p99_ns(), 0);
    }

    #[test]
    fn single_sample_pins_every_quantile() {
        let h = Histogram::new();
        h.record(700);
        let s = h.snapshot("engine.block");
        assert_eq!(s.count, 1);
        assert_eq!(s.sum_ns, 700);
        assert_eq!(s.max_ns, 700);
        // 700 lands in bucket [512, 1023]; quantiles clamp to exact max.
        assert_eq!(s.p50_ns(), 700);
        assert_eq!(s.p90_ns(), 700);
        assert_eq!(s.p99_ns(), 700);
    }

    #[test]
    fn beyond_top_bucket_samples_clamp_but_stay_exact_in_sum_and_max() {
        let h = Histogram::new();
        let huge = 1u64 << 62; // far past the top regular bucket
        h.record(huge);
        h.record(10);
        let s = h.snapshot("engine.block");
        assert_eq!(s.count, 2);
        assert_eq!(s.sum_ns, huge + 10);
        assert_eq!(s.max_ns, huge);
        assert_eq!(s.buckets[BUCKETS - 1], 1);
        assert_eq!(s.quantile_ns(1.0), huge);
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(100); // bucket [64, 127]
        }
        for _ in 0..10 {
            h.record(1_000_000); // bucket [2^19, 2^20-1]
        }
        let s = h.snapshot("engine.block");
        assert_eq!(s.count, 100);
        assert!(
            s.p50_ns() <= 127,
            "p50 {} should sit in the low bucket",
            s.p50_ns()
        );
        assert!(
            s.p99_ns() >= 100_000,
            "p99 {} should sit in the high bucket",
            s.p99_ns()
        );
        assert_eq!(s.max_ns, 1_000_000);
    }

    #[test]
    fn concurrent_recording_sums_exactly() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads = 8;
        let per = 10_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..per {
                        h.record(t * per + i);
                    }
                });
            }
        });
        let s = h.snapshot("engine.block");
        assert_eq!(s.count, threads * per);
        assert_eq!(s.buckets.iter().sum::<u64>(), threads * per);
        // sum of 0..threads*per
        let n = threads * per;
        assert_eq!(s.sum_ns, n * (n - 1) / 2);
        assert_eq!(s.max_ns, n - 1);
    }

    #[test]
    fn registry_names_are_unique_and_prom_safe() {
        let mut seen = std::collections::BTreeSet::new();
        for id in HistId::ALL {
            assert!(seen.insert(id.name()), "duplicate histogram {}", id.name());
            assert_eq!(HistId::by_name(id.name()), Some(id));
        }
        for g in GaugeId::ALL {
            assert!(seen.insert(g.name()), "gauge collides {}", g.name());
        }
        assert_eq!(prom_name("engine.block"), "wcs_engine_block");
        assert_eq!(prom_name("serve.queue_full"), "wcs_serve_queue_full");
    }

    #[test]
    fn gauges_set_and_add() {
        gauge_set(GaugeId::EngineThreads, 4);
        assert_eq!(gauge(GaugeId::EngineThreads), 4);
        gauge_add(GaugeId::EngineThreads, -1);
        assert_eq!(gauge(GaugeId::EngineThreads), 3);
        let snap = gauges();
        assert_eq!(snap[0].0, "engine.threads");
    }

    #[test]
    fn prometheus_rendering_is_wellformed_and_monotone() {
        let h = Histogram::new();
        h.record(5);
        h.record(5_000);
        h.record(5_000_000);
        let snap = h.snapshot("engine.block");
        let text = render_prometheus(
            &[("cache.hit".to_string(), 3)],
            &[("engine.threads", 2)],
            &[snap],
        );
        assert!(text.contains("# HELP wcs_cache_hit_total"));
        assert!(text.contains("# TYPE wcs_cache_hit_total counter"));
        assert!(text.contains("wcs_cache_hit_total 3"));
        assert!(text.contains("# TYPE wcs_engine_threads gauge"));
        assert!(text.contains("wcs_engine_threads 2"));
        assert!(text.contains("# TYPE wcs_engine_block_duration_ns histogram"));
        assert!(text.contains("wcs_engine_block_duration_ns_sum 5005005"));
        assert!(text.contains("wcs_engine_block_duration_ns_count 3"));
        assert!(text.contains("le=\"+Inf\"} 3"));
        // Cumulative bucket counts never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be cumulative: {line}");
            last = v;
        }
        assert_eq!(last, 3);
    }

    #[test]
    fn global_registry_records_without_a_collector() {
        let before = histogram(HistId::DispatchShard).count();
        record_ns(HistId::DispatchShard, 42);
        assert_eq!(histogram(HistId::DispatchShard).count(), before + 1);
    }
}
