//! # wcs-telemetry — structured tracing, metrics and run logs
//!
//! The engine/cache/shard stack computes deterministic numbers, but until
//! this crate existed its *runtime behaviour* — where the wall clock
//! went, what hit the cache, which shard was slow — was invisible outside
//! a handful of ad-hoc stderr lines. This crate is the observability
//! substrate: a hand-rolled, dependency-free, shim-style structured-events
//! facade (the build environment is offline, so no `tracing`), designed
//! around one invariant the rest of the repository pins with tests:
//!
//! > **Telemetry is out-of-band.** Installing or removing a collector
//! > never changes a computed report, hash or cache entry, byte for
//! > byte. Nothing in this crate touches an RNG stream or a result row.
//!
//! The moving parts:
//!
//! * [`Event`] — one structured record: monotonic timestamp, an
//!   [`EventKind`], a name from the pinned [`EVENT_NAMES`] vocabulary,
//!   and typed key/value [`Value`] fields,
//! * [`Collector`] — the sink trait. [`NullCollector`] discards
//!   everything; [`jsonl::JsonlCollector`] appends one JSON object per
//!   event to a schema-versioned `RUNLOG.jsonl`;
//!   [`jsonl::MemoryCollector`] buffers events for tests,
//! * a **process-global facade** ([`install`] / [`uninstall`] /
//!   [`enabled`]) the instrumented crates emit through. With no
//!   collector installed every probe is a single relaxed atomic load —
//!   spans skip their `Instant::now` calls entirely, so telemetry off is
//!   effectively free,
//! * [`span`] — RAII enter/exit pairs with monotonic durations,
//!   [`counter`] / [`counter_with`] — named monotonic counters
//!   (mirrored into an always-on in-process registry, which is how
//!   `repro --strict-cache` can fail a run on `cache.store_failed`
//!   without any collector installed), [`warn`] / [`info`] — leveled
//!   events that stay mirrored to stderr so the pre-telemetry CLI
//!   behaviour is preserved verbatim,
//! * [`metrics`] — instruments v2: always-on log-scale latency
//!   histograms and gauges, plus the Prometheus text exposition over
//!   them and the counter registry,
//! * [`flight`] — the flight recorder: a bounded ring of the newest
//!   events, dumped as a valid run log from panic/strict-cache hooks,
//!   and
//! * [`summary`] — the `repro trace summarize` renderer: one
//!   `RUNLOG.jsonl` in, a human timing/cache/shard breakdown out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod summary;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Every event name the stack emits, pinned like the bench-name set: a
/// rename or addition must edit this list (and the tests that assert
/// against it), never slip in silently — `trace summarize` and the CI
/// telemetry smoke grep these names.
pub const EVENT_NAMES: &[&str] = &[
    "runlog.start",
    "run.experiment",
    "run.sweep",
    "spec.parse",
    "workload.run",
    "engine.run",
    "engine.block",
    "engine.worker",
    "cache.hit",
    "cache.miss",
    "cache.stale_layout",
    "cache.store",
    "cache.store_failed",
    "shard.plan",
    "shard.planned",
    "shard.worker",
    "shard.merge",
    "shard.merged",
    "shard.partial_store_failed",
    "dispatch.assign",
    "dispatch.heartbeat",
    "dispatch.dead",
    "dispatch.requeue",
    "dispatch.retry",
    "dispatch.giveup",
    "dispatch.shard",
    "dispatch.run",
    "sim.plan",
    "sim.run.event_loop",
    "sim.run.closed_form",
    "sim.run.reused",
    "sim.run.skipped",
    "bench.result",
    "history.manifest",
    "history.manifest_failed",
    "serve.started",
    "serve.request",
    "serve.job",
    "serve.jobs_submitted",
    "serve.jobs_deduped",
    "serve.jobs_completed",
    "serve.jobs_failed",
    "serve.queue_full",
];

/// A typed field value. Unsigned and signed integers are kept apart so
/// 64-bit hashes and seeds round-trip the JSONL sink exactly (they are
/// serialized as decimal integers, never through `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, ids, byte sizes, nanoseconds, hashes).
    U64(u64),
    /// Negative integer (exit codes). Non-negative conversions normalize
    /// to [`Value::U64`] so the JSONL form round-trips variant-exactly.
    I64(i64),
    /// Float (ratios, medians).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form text (names, paths, messages).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        if v >= 0 {
            Value::U64(v as u64)
        } else {
            Value::I64(v)
        }
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::from(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl Value {
    /// The value as `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// What species of record an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Run-log framing (the `runlog.start` header).
    Meta,
    /// A span began.
    SpanEnter,
    /// A span ended; carries `dur_ns`.
    SpanExit,
    /// A named counter was bumped; carries `delta`.
    Counter,
    /// A one-off measured value.
    Value,
    /// A warning (also mirrored to stderr and counted in the registry).
    Warn,
    /// An informational status line (also mirrored to stderr).
    Info,
}

impl EventKind {
    /// Stable textual form used in the JSONL sink.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Meta => "meta",
            EventKind::SpanEnter => "span_enter",
            EventKind::SpanExit => "span_exit",
            EventKind::Counter => "counter",
            EventKind::Value => "value",
            EventKind::Warn => "warn",
            EventKind::Info => "info",
        }
    }

    /// Inverse of [`EventKind::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "meta" => EventKind::Meta,
            "span_enter" => EventKind::SpanEnter,
            "span_exit" => EventKind::SpanExit,
            "counter" => EventKind::Counter,
            "value" => EventKind::Value,
            "warn" => EventKind::Warn,
            "info" => EventKind::Info,
            _ => return None,
        })
    }
}

/// One structured telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic nanoseconds since this process's telemetry epoch (first
    /// probe). Folded-in events from worker subprocesses keep their own
    /// epoch — durations are comparable, absolute stamps are not.
    pub t_ns: u64,
    /// Record species.
    pub kind: EventKind,
    /// Event name (a member of [`EVENT_NAMES`] for everything this
    /// repository emits).
    pub name: String,
    /// Typed fields, in emission order.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// New event stamped with the current monotonic time.
    pub fn now(kind: EventKind, name: &str, fields: Vec<(String, Value)>) -> Self {
        Event {
            t_ns: now_ns(),
            kind,
            name: name.to_string(),
            fields,
        }
    }

    /// First field with this key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// `u64` field accessor.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.field(key).and_then(Value::as_u64)
    }

    /// Numeric field accessor (integers widen to `f64`).
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        self.field(key).and_then(Value::as_f64)
    }

    /// String field accessor.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.field(key).and_then(Value::as_str)
    }
}

/// An event sink. Implementations must be thread-safe: the engine emits
/// from every worker thread.
pub trait Collector: Send + Sync {
    /// Record one event.
    fn record(&self, event: &Event);
    /// Flush buffered output (called before process exit; the default
    /// sink writes through, so the default is a no-op).
    fn flush(&self) {}
}

/// The do-nothing sink — the semantic default. With no collector
/// installed the facade behaves exactly as if a `NullCollector` were:
/// every probe is one relaxed atomic load and no timestamps are taken.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCollector;

impl Collector for NullCollector {
    fn record(&self, _event: &Event) {}
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: RwLock<Option<Arc<dyn Collector>>> = RwLock::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static COUNTERS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// Monotonic nanoseconds since the process's telemetry epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Install `collector` as the process-global sink (replacing any
/// previous one). Instrumented code starts emitting immediately.
pub fn install(collector: Arc<dyn Collector>) {
    *COLLECTOR.write().unwrap() = Some(collector);
    ENABLED.store(true, Ordering::Release);
}

/// Remove the process-global sink and return it (so a caller can flush
/// it). Telemetry reverts to the zero-cost disabled state.
pub fn uninstall() -> Option<Arc<dyn Collector>> {
    ENABLED.store(false, Ordering::Release);
    COLLECTOR.write().unwrap().take()
}

/// Whether a collector is installed. The one check every probe makes
/// first; instrumented hot paths skip even their `Instant::now` calls
/// when this is false.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Flush the installed collector, if any. Call before `process::exit`
/// (which runs no destructors).
pub fn flush() {
    if let Some(c) = COLLECTOR.read().unwrap().as_ref() {
        c.flush();
    }
}

/// Forward a fully-formed event (timestamp preserved) to the installed
/// collector. This is the fold-in path: the dispatcher re-emits its
/// workers' run-log events through here.
pub fn emit_event(event: &Event) {
    if !enabled() {
        return;
    }
    if let Some(c) = COLLECTOR.read().unwrap().as_ref() {
        c.record(event);
    }
}

fn emit_new(kind: EventKind, name: &str, fields: Vec<(String, Value)>) {
    emit_event(&Event::now(kind, name, fields));
}

/// Bump the named counter by `delta`: the always-on in-process registry
/// total rises (see [`counter_total`]) and, when a collector is
/// installed, a `Counter` event with a `delta` field is emitted.
pub fn counter(name: &'static str, delta: u64) {
    counter_with(name, delta, Vec::new());
}

/// [`counter`] with extra fields (e.g. `bytes`) on the emitted event.
pub fn counter_with(name: &'static str, delta: u64, mut fields: Vec<(String, Value)>) {
    *COUNTERS
        .lock()
        .unwrap()
        .entry(name.to_string())
        .or_insert(0) += delta;
    if enabled() {
        fields.push(("delta".to_string(), Value::U64(delta)));
        emit_new(EventKind::Counter, name, fields);
    }
}

/// Total the named counter has accumulated in this process (bumps are
/// registered whether or not a collector is installed).
pub fn counter_total(name: &str) -> u64 {
    COUNTERS.lock().unwrap().get(name).copied().unwrap_or(0)
}

/// Snapshot of every registry counter, sorted by name.
pub fn counter_totals() -> Vec<(String, u64)> {
    COUNTERS
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Emit a one-off measured value event.
pub fn value(name: &'static str, fields: Vec<(String, Value)>) {
    if enabled() {
        emit_new(EventKind::Value, name, fields);
    }
}

/// Emit a warn-level event *and* mirror `message` verbatim to stderr —
/// the pre-telemetry `eprintln!` behaviour is preserved byte for byte
/// whether or not a collector is installed. Warn events are also counted
/// in the registry under their name, which is what `--strict-cache`
/// style gates query.
pub fn warn(name: &'static str, message: &str) {
    warn_with(name, message, Vec::new());
}

/// [`warn`] with extra structured fields on the emitted event.
pub fn warn_with(name: &'static str, message: &str, mut fields: Vec<(String, Value)>) {
    *COUNTERS
        .lock()
        .unwrap()
        .entry(name.to_string())
        .or_insert(0) += 1;
    if enabled() {
        fields.push(("message".to_string(), Value::Str(message.to_string())));
        emit_new(EventKind::Warn, name, fields);
    }
    eprintln!("{message}");
}

/// Emit an info-level event and mirror `message` verbatim to stderr —
/// the structured form of the CLI's `[sweep ...: 1.2s]` status lines.
pub fn info(name: &'static str, message: &str, mut fields: Vec<(String, Value)>) {
    if enabled() {
        fields.push(("message".to_string(), Value::Str(message.to_string())));
        emit_new(EventKind::Info, name, fields);
    }
    eprintln!("{message}");
}

/// Start building a span. Fields added via [`SpanBuilder::with`] ride on
/// both the enter and exit events; [`SpanBuilder::start`] emits the
/// enter event and returns the RAII guard. When telemetry is disabled
/// the builder collects nothing and the guard never reads the clock.
pub fn span(name: &'static str) -> SpanBuilder {
    SpanBuilder {
        name,
        enabled: enabled(),
        fields: Vec::new(),
    }
}

/// Builder returned by [`span`].
#[derive(Debug)]
pub struct SpanBuilder {
    name: &'static str,
    enabled: bool,
    fields: Vec<(String, Value)>,
}

impl SpanBuilder {
    /// Attach a field (no-op while telemetry is disabled).
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        if self.enabled {
            self.fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// [`SpanBuilder::with`] for a value that costs work to compute:
    /// `value` is called only while telemetry is enabled.
    pub fn with_lazy<V: Into<Value>>(self, key: &'static str, value: impl FnOnce() -> V) -> Self {
        if self.enabled {
            self.with(key, value())
        } else {
            self
        }
    }

    /// Emit the `SpanEnter` event and return the guard whose drop emits
    /// `SpanExit` with a `dur_ns` field.
    pub fn start(self) -> SpanGuard {
        let start = if self.enabled {
            emit_new(EventKind::SpanEnter, self.name, self.fields.clone());
            Some(Instant::now())
        } else {
            None
        };
        SpanGuard {
            name: self.name,
            start,
            fields: self.fields,
        }
    }
}

/// RAII span guard: emits the `SpanExit` event (carrying every builder
/// field, anything [`SpanGuard::add`]ed, and `dur_ns`) when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    fields: Vec<(String, Value)>,
}

impl SpanGuard {
    /// Attach a field discovered mid-span (e.g. whether the cache hit);
    /// it appears on the exit event only.
    pub fn add(&mut self, key: &'static str, value: impl Into<Value>) {
        if self.start.is_some() {
            self.fields.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let mut fields = std::mem::take(&mut self.fields);
            fields.push((
                "dur_ns".to_string(),
                Value::U64(start.elapsed().as_nanos() as u64),
            ));
            emit_new(EventKind::SpanExit, self.name, fields);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::MemoryCollector;
    use std::sync::PoisonError;

    // The facade is process-global state; tests that install a collector
    // serialize on this lock so cargo's parallel test threads cannot
    // interleave their installs.
    static GLOBAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_facade_is_inert_but_counters_register() {
        let _g = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
        uninstall();
        assert!(!enabled());
        let before = counter_total("test.inert");
        counter("test.inert", 2);
        let _span = span("engine.run")
            .with("n", 3u64)
            .with_lazy("tasks", || -> u64 { panic!("computed while disabled") })
            .start();
        drop(_span);
        assert_eq!(counter_total("test.inert"), before + 2);
    }

    #[test]
    fn spans_counters_and_warns_reach_the_collector() {
        let _g = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
        let mem = Arc::new(MemoryCollector::default());
        install(mem.clone());
        {
            let mut s = span("workload.run")
                .with("tasks", 7u64)
                .with_lazy("lazy", || 9u64)
                .start();
            s.add("cache_hit", true);
        }
        counter_with("cache.hit", 1, vec![("bytes".to_string(), Value::U64(128))]);
        warn("cache.store_failed", "warning: disk on fire");
        uninstall();
        let events = mem.snapshot();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "workload.run",
                "workload.run",
                "cache.hit",
                "cache.store_failed"
            ]
        );
        assert_eq!(events[0].kind, EventKind::SpanEnter);
        assert_eq!(events[0].u64_field("tasks"), Some(7));
        assert_eq!(events[0].u64_field("lazy"), Some(9));
        assert_eq!(events[1].kind, EventKind::SpanExit);
        assert_eq!(events[1].field("cache_hit"), Some(&Value::Bool(true)));
        assert!(events[1].u64_field("dur_ns").is_some());
        assert_eq!(events[2].u64_field("delta"), Some(1));
        assert_eq!(events[2].u64_field("bytes"), Some(128));
        assert_eq!(events[3].kind, EventKind::Warn);
        assert_eq!(
            events[3].str_field("message"),
            Some("warning: disk on fire")
        );
        assert!(counter_total("cache.store_failed") >= 1);
    }

    #[test]
    fn value_conversions_normalize_nonnegative_ints() {
        assert_eq!(Value::from(5i64), Value::U64(5));
        assert_eq!(Value::from(-5i64), Value::I64(-5));
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::Str("x".to_string()));
    }

    #[test]
    fn event_names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for n in EVENT_NAMES {
            assert!(seen.insert(n), "duplicate event name {n}");
        }
    }

    #[test]
    fn kind_labels_roundtrip() {
        for k in [
            EventKind::Meta,
            EventKind::SpanEnter,
            EventKind::SpanExit,
            EventKind::Counter,
            EventKind::Value,
            EventKind::Warn,
            EventKind::Info,
        ] {
            assert_eq!(EventKind::from_label(k.label()), Some(k));
        }
        assert_eq!(EventKind::from_label("nope"), None);
    }
}
