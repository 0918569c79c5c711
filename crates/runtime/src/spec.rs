//! On-disk sweep specifications (the ROADMAP's "scenario files on disk").
//!
//! A spec file is a small TOML-ish text document that round-trips a full
//! [`Sweep`]: `parse ∘ serialize = id`, bitwise — floats are written in
//! Rust's shortest round-tripping `{:?}` form and parsed back to the same
//! bits, so a sweep loaded from disk has **exactly** the canonical string
//! (and therefore the cache key) of the in-code spec it was written from.
//! The same format is embedded in `wcs-shard` manifests, which is how a
//! shard worker reconstructs the sweep it is a slice of.
//!
//! ```toml
//! # any line starting with '#' is a comment
//! name = "my-grid"
//! rmaxes = [20.0, 55.0]
//! ds = [30.0, 90.0]
//! sigmas = [0.0, 8.0]
//! alphas = [3.0]
//! d_threshes = [55.0]
//! caps = ["shannon", "eff=0.85,cap=2.7"]
//! topologies = ["two-pair", "npair(n=4,placement=line)"]
//! policies = ["carrier-sense", "optimal"]
//! stream_layout = "v1"        # optional; "v2" selects the batched path
//! samples = 20000
//! seed = 7
//! ```
//!
//! Every key except `name` is optional and defaults to the corresponding
//! [`Sweep::new`] default; unknown or duplicate keys are errors (a typo
//! must not silently fall back to a default). Arrays are single-line.
//! Topology values use the exact canonical syntax of
//! [`crate::scenario::Topology::canonical`]; capacity models are
//! `"shannon"`, `"eff=X"` or `"eff=X,cap=Y"`.
//!
//! ## Workload dispatch
//!
//! Since the workload-API redesign a spec file is self-describing: an
//! optional `workload = "model" | "sim"` key selects which workload
//! family the remaining keys configure ([`parse_any_spec_toml`]). Files
//! without the key are model sweeps — the original format, parsed to the
//! same [`Sweep`], same canonical string, same cache key, byte for byte.
//! Sim spec files configure a [`SimSweep`]:
//!
//! ```toml
//! workload = "sim"
//! name = "my-sim-grid"
//! testbeds = [3053]            # testbed seeds (one synthetic bed each)
//! nodes = 50
//! floor = [180.0, 90.0]
//! window = [0.94, 1.0]         # link-delivery category
//! ccas = [7.0, 13.0, 19.0]     # CCA energy thresholds (dB over noise)
//! rates = ["best-fixed", "fixed(6.0)", "samplerate"]
//! points = 4                   # link pairs per testbed ensemble
//! run_secs = 3
//! sweep_rates = [6.0, 9.0, 12.0, 18.0, 24.0]
//! payload = 1400
//! seed = 7
//! ```
//!
//! Values the simulator cannot run are refused at parse time rather than
//! left to panic mid-sweep: both `floor` sides must be positive and
//! finite, and every `sweep_rates` entry and `fixed(...)` rate must be
//! an 802.11a rate (6, 9, 12, 18, 24, 36, 48 or 54 Mbit/s). `nodes` and
//! `points` are capped (`MAX_NODES`, `MAX_POINTS`), since planning
//! allocates for both before anything runs, and so are `payload` and
//! `run_secs` (`MAX_PAYLOAD_BYTES`, `MAX_RUN_SECS`), whose frame sizes
//! and run lengths would otherwise overflow the simulator's arithmetic.
//! Once every key is read, the simulated time the whole spec asks for,
//! `testbeds × ccas × rates × points × run_secs`, must stay within
//! [`MAX_SIMULATED_SECS`]: the keys' own caps multiply out to hours.
//!
//! Either family may also pin `expect_hash = "<16 hex digits>"`: after
//! parsing, the spec's canonical hash is verified against it, so a file
//! edited after its hash was recorded fails loudly instead of silently
//! computing different numbers under a stale name.

use crate::scenario::{PolicyAxis, Sweep, Topology};
use crate::simsweep::{RateAxis, SimSweep, MAX_SIMULATED_SECS};
use crate::workload::{AnyWorkload, WorkloadKind, WorkloadSpec};
use wcs_capacity::npair::{Placement, MAX_PAIRS};
use wcs_capacity::rates::{rate_11a, RATES_11A};
use wcs_capacity::shannon::CapacityModel;
use wcs_core::params::StreamLayout;
use wcs_sim::experiment::{MAX_POINTS, MAX_RUN_SECS};
use wcs_sim::testbed::MAX_NODES;
use wcs_sim::timing::MAX_PAYLOAD_BYTES;

/// A spec-file failure: what went wrong ([`SpecErrorKind`]) and on which
/// line (1-based, 0 when no single line is at fault).
///
/// The structured kind exists for machine consumers — `wcs-serve`
/// returns `POST /v1/jobs` failures as a JSON body built from
/// [`SpecError::code`], [`SpecError::field`], [`SpecError::line`] and
/// [`SpecError::message`] — while [`Display`](std::fmt::Display) renders
/// the exact human text the CLI has always printed (pinned by the
/// `spec_cli.rs` tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number, 0 when the error is not tied to a line.
    pub line: usize,
    /// What went wrong, structurally.
    pub kind: SpecErrorKind,
}

/// The distinct ways a spec document can fail to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecErrorKind {
    /// The file could not be read at all.
    Io {
        /// Path and OS error text.
        detail: String,
    },
    /// The line is not well-formed spec syntax (`key = value`, quoting,
    /// array brackets) — before any key vocabulary is consulted.
    Syntax {
        /// Human-readable description.
        detail: String,
    },
    /// A key the workload family's vocabulary does not contain.
    UnknownKey {
        /// The offending key.
        key: String,
    },
    /// A key given more than once.
    DuplicateKey {
        /// The repeated key.
        key: String,
    },
    /// A required key that never appeared.
    MissingKey {
        /// The absent key.
        key: String,
    },
    /// A known key whose right-hand side is malformed or out of range.
    BadValue {
        /// Human-readable description.
        detail: String,
    },
    /// A `workload = "..."` label naming no known workload family.
    UnknownWorkload {
        /// The unrecognized label.
        label: String,
    },
    /// An `expect_hash` pin that does not match the parsed spec.
    HashMismatch {
        /// The hash the file pins.
        expected: u64,
        /// The hash the spec actually parses to.
        computed: u64,
    },
    /// A sim `floor` whose sides are not both positive and finite
    /// (testbed nodes are placed uniformly over the floor).
    BadFloor {
        /// Human-readable description.
        detail: String,
    },
    /// A sim bitrate — in `sweep_rates` or a `fixed(...)` rate policy —
    /// that is not one of the 802.11a rates.
    UnsupportedRate {
        /// The key the rate appeared under.
        key: String,
        /// Human-readable description.
        detail: String,
    },
}

impl SpecError {
    /// The human-readable description (exactly what `Display` prints
    /// after the `spec line N: ` prefix).
    pub fn message(&self) -> String {
        match &self.kind {
            SpecErrorKind::Io { detail }
            | SpecErrorKind::Syntax { detail }
            | SpecErrorKind::BadValue { detail }
            | SpecErrorKind::BadFloor { detail }
            | SpecErrorKind::UnsupportedRate { detail, .. } => detail.clone(),
            SpecErrorKind::UnknownKey { key } => format!("unknown key '{key}'"),
            SpecErrorKind::DuplicateKey { key } => format!("duplicate key '{key}'"),
            SpecErrorKind::MissingKey { key } => format!("missing required key '{key}'"),
            SpecErrorKind::UnknownWorkload { label } => {
                format!("unknown workload '{label}' (known workloads: model, sim)")
            }
            SpecErrorKind::HashMismatch { expected, computed } => format!(
                "scenario hash mismatch: expect_hash pins {expected:016x} but the spec hashes to {computed:016x} — the file was edited after its hash was recorded (update or drop expect_hash)"
            ),
        }
    }

    /// A stable machine-readable code for the kind — what `wcs-serve`
    /// puts in the `code` field of a 400 body.
    pub fn code(&self) -> &'static str {
        match self.kind {
            SpecErrorKind::Io { .. } => "io",
            SpecErrorKind::Syntax { .. } => "syntax",
            SpecErrorKind::UnknownKey { .. } => "unknown_key",
            SpecErrorKind::DuplicateKey { .. } => "duplicate_key",
            SpecErrorKind::MissingKey { .. } => "missing_key",
            SpecErrorKind::BadValue { .. } => "bad_value",
            SpecErrorKind::UnknownWorkload { .. } => "unknown_workload",
            SpecErrorKind::HashMismatch { .. } => "hash_mismatch",
            SpecErrorKind::BadFloor { .. } => "bad_floor",
            SpecErrorKind::UnsupportedRate { .. } => "unsupported_rate",
        }
    }

    /// The spec key at fault, when the kind names one.
    pub fn field(&self) -> Option<&str> {
        match &self.kind {
            SpecErrorKind::UnknownKey { key }
            | SpecErrorKind::DuplicateKey { key }
            | SpecErrorKind::MissingKey { key }
            | SpecErrorKind::UnsupportedRate { key, .. } => Some(key),
            SpecErrorKind::BadFloor { .. } => Some("floor"),
            SpecErrorKind::UnknownWorkload { .. } => Some("workload"),
            SpecErrorKind::HashMismatch { .. } => Some("expect_hash"),
            _ => None,
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "spec: {}", self.message())
        } else {
            write!(f, "spec line {}: {}", self.line, self.message())
        }
    }
}

impl std::error::Error for SpecError {}

/// The workhorse constructor: a malformed right-hand side of a known
/// key. (Structure-level failures use the dedicated constructors below.)
fn err(line: usize, detail: impl Into<String>) -> SpecError {
    SpecError {
        line,
        kind: SpecErrorKind::BadValue {
            detail: detail.into(),
        },
    }
}

fn syntax_err(line: usize, detail: impl Into<String>) -> SpecError {
    SpecError {
        line,
        kind: SpecErrorKind::Syntax {
            detail: detail.into(),
        },
    }
}

fn unknown_key_err(line: usize, key: &str) -> SpecError {
    SpecError {
        line,
        kind: SpecErrorKind::UnknownKey {
            key: key.to_string(),
        },
    }
}

fn duplicate_key_err(line: usize, key: &str) -> SpecError {
    SpecError {
        line,
        kind: SpecErrorKind::DuplicateKey {
            key: key.to_string(),
        },
    }
}

fn missing_key_err(key: &str) -> SpecError {
    SpecError {
        line: 0,
        kind: SpecErrorKind::MissingKey {
            key: key.to_string(),
        },
    }
}

fn fmt_floats(v: &[f64]) -> String {
    let parts: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", parts.join(", "))
}

fn fmt_strings(v: &[String]) -> String {
    let parts: Vec<String> = v.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", parts.join(", "))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn cap_to_string(c: &CapacityModel) -> String {
    if *c == CapacityModel::SHANNON {
        "shannon".to_string()
    } else {
        match c.max_spectral_efficiency {
            Some(cap) => format!("eff={:?},cap={:?}", c.efficiency, cap),
            None => format!("eff={:?}", c.efficiency),
        }
    }
}

fn cap_from_str(s: &str, line: usize) -> Result<CapacityModel, SpecError> {
    if s == "shannon" {
        return Ok(CapacityModel::SHANNON);
    }
    let mut efficiency: Option<f64> = None;
    let mut max_cap: Option<f64> = None;
    for part in s.split(',') {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| err(line, format!("bad capacity model component '{part}'")))?;
        let value: f64 = value
            .parse()
            .map_err(|_| err(line, format!("bad capacity model number '{value}'")))?;
        match key {
            "eff" => efficiency = Some(value),
            "cap" => max_cap = Some(value),
            _ => return Err(err(line, format!("unknown capacity model key '{key}'"))),
        }
    }
    let efficiency =
        efficiency.ok_or_else(|| err(line, format!("capacity model '{s}' is missing eff=")))?;
    if !(efficiency > 0.0 && efficiency <= 1.0) {
        return Err(err(line, format!("efficiency {efficiency} not in (0, 1]")));
    }
    if let Some(cap) = max_cap {
        if cap <= 0.0 {
            return Err(err(line, format!("spectral-efficiency cap {cap} not > 0")));
        }
    }
    Ok(CapacityModel {
        efficiency,
        max_spectral_efficiency: max_cap,
    })
}

fn topology_from_str(s: &str, line: usize) -> Result<Topology, SpecError> {
    if s == "two-pair" {
        return Ok(Topology::TwoPair);
    }
    let inner = s
        .strip_prefix("npair(n=")
        .and_then(|rest| rest.strip_suffix(')'))
        .ok_or_else(|| {
            err(
                line,
                format!("bad topology '{s}' (try \"two-pair\" or \"npair(n=4,placement=line)\")"),
            )
        })?;
    let (n, placement) = inner
        .split_once(",placement=")
        .ok_or_else(|| err(line, format!("topology '{s}' is missing ,placement=")))?;
    let n: usize = n
        .parse()
        .map_err(|_| err(line, format!("bad pair count '{n}'")))?;
    if !(2..=MAX_PAIRS).contains(&n) {
        return Err(err(
            line,
            format!("an N-pair topology needs 2 <= n <= {MAX_PAIRS}, got {n}"),
        ));
    }
    let placement = match placement {
        "line" => Placement::Line,
        "grid" => Placement::Grid,
        other => {
            let seed = other
                .strip_prefix("random(")
                .and_then(|rest| rest.strip_suffix(')'))
                .and_then(|seed| seed.parse::<u64>().ok())
                .ok_or_else(|| err(line, format!("bad placement '{other}'")))?;
            Placement::Random { seed }
        }
    };
    Ok(Topology::npair(n, placement))
}

/// Serialize a sweep to the spec-file format. The output parses back to
/// an identical `Sweep` (same canonical string, same scenario hash).
pub fn to_spec_toml(sweep: &Sweep) -> String {
    let caps: Vec<String> = sweep.caps.iter().map(cap_to_string).collect();
    let topologies: Vec<String> = sweep.topologies.iter().map(|t| t.canonical()).collect();
    let policies: Vec<String> = sweep
        .policies
        .iter()
        .map(|p| p.label().to_string())
        .collect();
    // The stream-layout line is emitted only off the default: a v1 sweep
    // serializes to the exact bytes it always did (shard manifests embed
    // this text, so the v1 manifest format is frozen too).
    let stream_layout = match sweep.stream_layout {
        StreamLayout::V1 => String::new(),
        layout => format!("stream_layout = \"{}\"\n", layout.label()),
    };
    format!(
        "name = \"{}\"\n\
         rmaxes = {}\n\
         ds = {}\n\
         sigmas = {}\n\
         alphas = {}\n\
         d_threshes = {}\n\
         caps = {}\n\
         topologies = {}\n\
         policies = {}\n\
         {}samples = {}\n\
         seed = {}\n",
        escape(&sweep.name),
        fmt_floats(&sweep.rmaxes),
        fmt_floats(&sweep.ds),
        fmt_floats(&sweep.sigmas),
        fmt_floats(&sweep.alphas),
        fmt_floats(&sweep.d_threshes),
        fmt_strings(&caps),
        fmt_strings(&topologies),
        fmt_strings(&policies),
        stream_layout,
        sweep.samples,
        sweep.seed,
    )
}

/// One parsed right-hand side.
enum Value {
    Str(String),
    Int(u64),
    Ints(Vec<u64>),
    Floats(Vec<f64>),
    Strs(Vec<String>),
}

fn parse_string(raw: &str, line: usize) -> Result<String, SpecError> {
    let inner = raw
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| syntax_err(line, format!("expected a quoted string, got '{raw}'")))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                other => {
                    return Err(syntax_err(
                        line,
                        format!("bad escape '\\{}'", other.unwrap_or(' ')),
                    ))
                }
            }
        } else if c == '"' {
            return Err(syntax_err(line, "unescaped '\"' inside string"));
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

/// Split an array body on top-level commas (quotes may contain commas —
/// capacity models do).
fn split_array(body: &str, line: usize) -> Result<Vec<String>, SpecError> {
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    let mut escaped = false;
    for c in body.chars() {
        if in_string {
            current.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
            current.push(c);
        } else if c == ',' {
            items.push(current.trim().to_string());
            current.clear();
        } else {
            current.push(c);
        }
    }
    if in_string {
        return Err(syntax_err(line, "unterminated string in array"));
    }
    let last = current.trim();
    if !last.is_empty() {
        items.push(last.to_string());
    } else if !items.is_empty() {
        return Err(syntax_err(line, "trailing comma in array"));
    }
    Ok(items)
}

fn parse_value(raw: &str, line: usize) -> Result<Value, SpecError> {
    if let Some(body) = raw.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| syntax_err(line, "array must open and close on one line"))?;
        let items = split_array(body, line)?;
        if items.iter().all(|i| i.starts_with('"')) && !items.is_empty() {
            let strs: Result<Vec<String>, SpecError> =
                items.iter().map(|i| parse_string(i, line)).collect();
            return Ok(Value::Strs(strs?));
        }
        // Dot-free numerals are integers (u64 seeds don't round-trip
        // through f64); anything else must parse as a float.
        if !items.is_empty() && items.iter().all(|i| i.parse::<u64>().is_ok()) {
            let ints: Vec<u64> = items.iter().map(|i| i.parse::<u64>().unwrap()).collect();
            return Ok(Value::Ints(ints));
        }
        let floats: Result<Vec<f64>, SpecError> = items
            .iter()
            .map(|i| {
                i.parse::<f64>()
                    .map_err(|_| err(line, format!("bad number '{i}'")))
            })
            .collect();
        return Ok(Value::Floats(floats?));
    }
    if raw.starts_with('"') {
        return Ok(Value::Str(parse_string(raw, line)?));
    }
    raw.parse::<u64>()
        .map(Value::Int)
        .map_err(|_| err(line, format!("bad value '{raw}'")))
}

/// The shared line discipline of every spec-file family: comments
/// (`#`), blank lines and an optional `[sweep]` section header are
/// ignored; every other line must be `key = value`; duplicate keys are
/// rejected. Each accepted (key, value, lineno) triple is handed to the
/// family-specific `apply` callback, which owns the key vocabulary.
fn for_each_spec_key(
    text: &str,
    mut apply: impl FnMut(&str, Value, usize) -> Result<(), SpecError>,
) -> Result<(), SpecError> {
    let mut seen: Vec<String> = Vec::new();
    for (i, raw_line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') || line == "[sweep]" {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| syntax_err(lineno, format!("expected 'key = value', got '{line}'")))?;
        let key = key.trim();
        let value = parse_value(value.trim(), lineno)?;
        if seen.iter().any(|k| k == key) {
            return Err(duplicate_key_err(lineno, key));
        }
        seen.push(key.to_string());
        apply(key, value, lineno)?;
    }
    Ok(())
}

/// Shared non-empty float-array axis reader (dot-free integer literals
/// are promoted to floats).
fn float_axis(v: Value, key: &str, lineno: usize) -> Result<Vec<f64>, SpecError> {
    match v {
        Value::Floats(f) if !f.is_empty() => Ok(f),
        Value::Ints(i) if !i.is_empty() => Ok(i.into_iter().map(|x| x as f64).collect()),
        Value::Floats(_) | Value::Ints(_) => Err(err(lineno, format!("'{key}' must not be empty"))),
        _ => Err(err(lineno, format!("'{key}' must be an array of numbers"))),
    }
}

/// Parse a spec document into a [`Sweep`]. Comments (`#`), blank lines
/// and an optional `[sweep]` section header are ignored; every other line
/// must be `key = value`. `name` is required, everything else defaults to
/// [`Sweep::new`]'s values; unknown or duplicate keys are rejected.
pub fn parse_spec_toml(text: &str) -> Result<Sweep, SpecError> {
    let mut name: Option<String> = None;
    let mut sweep = Sweep::new("");
    for_each_spec_key(text, |key, value, lineno| {
        let string_axis = |v: Value| match v {
            Value::Strs(s) => Ok(s),
            _ => Err(err(lineno, format!("'{key}' must be an array of strings"))),
        };
        match key {
            "name" => match value {
                Value::Str(s) => name = Some(s),
                _ => return Err(err(lineno, "'name' must be a quoted string")),
            },
            "rmaxes" => sweep.rmaxes = float_axis(value, key, lineno)?,
            "ds" => sweep.ds = float_axis(value, key, lineno)?,
            "sigmas" => sweep.sigmas = float_axis(value, key, lineno)?,
            "alphas" => sweep.alphas = float_axis(value, key, lineno)?,
            "d_threshes" => sweep.d_threshes = float_axis(value, key, lineno)?,
            "caps" => {
                let items = string_axis(value)?;
                if items.is_empty() {
                    return Err(err(lineno, "'caps' must not be empty"));
                }
                sweep.caps = items
                    .iter()
                    .map(|s| cap_from_str(s, lineno))
                    .collect::<Result<_, _>>()?;
            }
            "topologies" => {
                let items = string_axis(value)?;
                if items.is_empty() {
                    return Err(err(lineno, "'topologies' must not be empty"));
                }
                sweep.topologies = items
                    .iter()
                    .map(|s| topology_from_str(s, lineno))
                    .collect::<Result<_, _>>()?;
            }
            "policies" => {
                let items = string_axis(value)?;
                if items.is_empty() {
                    return Err(err(lineno, "'policies' must not be empty"));
                }
                sweep.policies = items
                    .iter()
                    .map(|s| {
                        PolicyAxis::from_label(s)
                            .ok_or_else(|| err(lineno, format!("unknown policy '{s}'")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "stream_layout" => match value {
                Value::Str(s) => match StreamLayout::from_label(&s) {
                    Some(layout) => sweep.stream_layout = layout,
                    None => {
                        return Err(err(
                            lineno,
                            format!("unknown stream layout '{s}' (known layouts: v1, v2)"),
                        ))
                    }
                },
                _ => return Err(err(lineno, "'stream_layout' must be a quoted string")),
            },
            "samples" => match value {
                Value::Int(n) if n > 0 => sweep.samples = n,
                _ => return Err(err(lineno, "'samples' must be a positive integer")),
            },
            "seed" => match value {
                Value::Int(n) => sweep.seed = n,
                _ => return Err(err(lineno, "'seed' must be an unsigned integer")),
            },
            "workload" => match value {
                Value::Str(s) if s == "model" => {}
                Value::Str(s) => {
                    return Err(err(
                        lineno,
                        format!("this parser only reads model sweeps, not workload '{s}' (use parse_any_spec_toml)"),
                    ))
                }
                _ => return Err(err(lineno, "'workload' must be a quoted string")),
            },
            other => return Err(unknown_key_err(lineno, other)),
        }
        Ok(())
    })?;
    sweep.name = name.ok_or_else(|| missing_key_err("name"))?;
    Ok(sweep)
}

/// Serialize a sim sweep to the spec-file format (self-describing via
/// the leading `workload = "sim"` key). The output parses back to an
/// identical `SimSweep` (same canonical string, same scenario hash).
pub fn to_sim_spec_toml(sweep: &SimSweep) -> String {
    let seeds: Vec<String> = sweep.testbed_seeds.iter().map(u64::to_string).collect();
    let rates: Vec<String> = sweep.rates.iter().map(RateAxis::label).collect();
    format!(
        "workload = \"sim\"\n\
         name = \"{}\"\n\
         testbeds = [{}]\n\
         nodes = {}\n\
         floor = [{:?}, {:?}]\n\
         window = [{:?}, {:?}]\n\
         ccas = {}\n\
         rates = {}\n\
         points = {}\n\
         run_secs = {}\n\
         sweep_rates = {}\n\
         payload = {}\n\
         seed = {}\n",
        escape(&sweep.name),
        seeds.join(", "),
        sweep.n_nodes,
        sweep.floor.0,
        sweep.floor.1,
        sweep.window.0,
        sweep.window.1,
        fmt_floats(&sweep.cca_thresholds_db),
        fmt_strings(&rates),
        sweep.points,
        sweep.run_secs,
        fmt_floats(&sweep.sweep_rates_mbps),
        sweep.payload_bytes,
        sweep.seed,
    )
}

/// Reject a sim bitrate the simulator has no 802.11a modulation for.
fn check_11a_rate(mbps: f64, key: &str, lineno: usize) -> Result<(), SpecError> {
    if rate_11a(mbps).is_some() {
        return Ok(());
    }
    let known: Vec<String> = RATES_11A.iter().map(|r| r.mbps.to_string()).collect();
    Err(SpecError {
        line: lineno,
        kind: SpecErrorKind::UnsupportedRate {
            key: key.to_string(),
            detail: format!(
                "no 802.11a rate {mbps:?} Mbps in '{key}' (802.11a rates: {})",
                known.join(", ")
            ),
        },
    })
}

/// Parse a sim-workload spec document into a [`SimSweep`]. Same line
/// discipline as [`parse_spec_toml`]: comments, blanks and `[sweep]`
/// headers are ignored, `name` is required, everything else defaults to
/// [`SimSweep::new`]'s values, unknown or duplicate keys are rejected.
pub fn parse_sim_spec_toml(text: &str) -> Result<SimSweep, SpecError> {
    let mut name: Option<String> = None;
    let mut sweep = SimSweep::new("");
    for_each_spec_key(text, |key, value, lineno| {
        let float_pair = |v: Value| -> Result<(f64, f64), SpecError> {
            match float_axis(v, key, lineno)?.as_slice() {
                [a, b] => Ok((*a, *b)),
                other => Err(err(
                    lineno,
                    format!("'{key}' must be a two-element array, got {}", other.len()),
                )),
            }
        };
        let positive_int = |v: Value| match v {
            Value::Int(n) if n > 0 => Ok(n),
            _ => Err(err(lineno, format!("'{key}' must be a positive integer"))),
        };
        let at_most = |n: u64, max: usize| {
            if n <= max as u64 {
                Ok(n as usize)
            } else {
                Err(err(
                    lineno,
                    format!("'{key}' must be at most {max}, got {n}"),
                ))
            }
        };
        match key {
            "name" => match value {
                Value::Str(s) => name = Some(s),
                _ => return Err(err(lineno, "'name' must be a quoted string")),
            },
            "workload" => match value {
                Value::Str(s) if s == "sim" => {}
                Value::Str(s) => {
                    return Err(err(
                        lineno,
                        format!("this parser only reads sim sweeps, not workload '{s}'"),
                    ))
                }
                _ => return Err(err(lineno, "'workload' must be a quoted string")),
            },
            "testbeds" => match value {
                Value::Ints(v) if !v.is_empty() => sweep.testbed_seeds = v,
                Value::Ints(_) => return Err(err(lineno, "'testbeds' must not be empty")),
                _ => return Err(err(lineno, "'testbeds' must be an array of integer seeds")),
            },
            "nodes" => sweep.n_nodes = at_most(positive_int(value)?, MAX_NODES)?,
            "floor" => {
                let (width, height) = float_pair(value)?;
                if !(width > 0.0 && width.is_finite() && height > 0.0 && height.is_finite()) {
                    return Err(SpecError {
                        line: lineno,
                        kind: SpecErrorKind::BadFloor {
                            detail: format!(
                                "'floor' sides must be positive and finite, got [{width:?}, {height:?}]"
                            ),
                        },
                    });
                }
                sweep.floor = (width, height);
            }
            "window" => {
                let (lo, hi) = float_pair(value)?;
                if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || lo > hi {
                    return Err(err(
                        lineno,
                        format!("'window' must be 0 <= lo <= hi <= 1, got [{lo:?}, {hi:?}]"),
                    ));
                }
                sweep.window = (lo, hi);
            }
            "ccas" => sweep.cca_thresholds_db = float_axis(value, key, lineno)?,
            "rates" => {
                let items = match value {
                    Value::Strs(s) if !s.is_empty() => s,
                    _ => return Err(err(lineno, "'rates' must be a non-empty array of strings")),
                };
                sweep.rates = items
                    .iter()
                    .map(|s| {
                        let rate = RateAxis::from_label(s).ok_or_else(|| {
                            err(
                                lineno,
                                format!(
                                    "unknown rate policy '{s}' (try \"best-fixed\", \"fixed(6.0)\" or \"samplerate\")"
                                ),
                            )
                        })?;
                        if let RateAxis::Fixed(mbps) = rate {
                            check_11a_rate(mbps, key, lineno)?;
                        }
                        Ok(rate)
                    })
                    .collect::<Result<_, _>>()?;
            }
            "points" => sweep.points = at_most(positive_int(value)?, MAX_POINTS)?,
            "run_secs" => {
                sweep.run_secs = at_most(positive_int(value)?, MAX_RUN_SECS as usize)? as u64
            }
            "sweep_rates" => {
                let rates = float_axis(value, key, lineno)?;
                for &mbps in &rates {
                    check_11a_rate(mbps, key, lineno)?;
                }
                sweep.sweep_rates_mbps = rates;
            }
            "payload" => sweep.payload_bytes = at_most(positive_int(value)?, MAX_PAYLOAD_BYTES)?,
            "seed" => match value {
                Value::Int(n) => sweep.seed = n,
                _ => return Err(err(lineno, "'seed' must be an unsigned integer")),
            },
            other => return Err(unknown_key_err(lineno, other)),
        }
        Ok(())
    })?;
    sweep.name = name.ok_or_else(|| missing_key_err("name"))?;
    let axes = [
        sweep.testbed_seeds.len() as u64,
        sweep.cca_thresholds_db.len() as u64,
        sweep.rates.len() as u64,
        sweep.points as u64,
        sweep.run_secs,
    ];
    let simulated_secs = axes.iter().fold(1u64, |acc, &n| acc.saturating_mul(n));
    if simulated_secs > MAX_SIMULATED_SECS {
        let [testbeds, ccas, rates, points, run_secs] = axes;
        return Err(err(
            0,
            format!(
                "testbeds × ccas × rates × points × run_secs = {testbeds} × {ccas} × {rates} × {points} × {run_secs} = {simulated_secs} simulated seconds, more than the budget of {MAX_SIMULATED_SECS}"
            ),
        ));
    }
    Ok(sweep)
}

/// Parse a spec document of either workload family ([`parse_spec_toml`]
/// for model sweeps, [`parse_sim_spec_toml`] for sim sweeps), selected
/// by the optional `workload = "model" | "sim"` key (default: model —
/// every pre-redesign spec file parses unchanged, to the same cache
/// key). An optional `expect_hash = "<16 hex digits>"` key pins the
/// spec's canonical hash; a mismatch is its own error, distinct from
/// parse failures.
pub fn parse_any_spec_toml(text: &str) -> Result<AnyWorkload, SpecError> {
    let mut kind = WorkloadKind::Model;
    let mut kind_line = 0usize;
    let mut expect_hash: Option<(u64, usize)> = None;
    // Blank the dispatcher's own keys (preserving line numbers) so the
    // family parsers never see them.
    let mut body = String::with_capacity(text.len());
    for (i, raw_line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw_line.trim();
        if let Some((key, value)) = line.split_once('=') {
            match key.trim() {
                "workload" => {
                    if kind_line != 0 {
                        return Err(duplicate_key_err(lineno, "workload"));
                    }
                    kind_line = lineno;
                    let label = parse_string(value.trim(), lineno)?;
                    kind = WorkloadKind::from_label(&label).ok_or(SpecError {
                        line: lineno,
                        kind: SpecErrorKind::UnknownWorkload { label },
                    })?;
                    body.push('#');
                    body.push('\n');
                    continue;
                }
                "expect_hash" => {
                    if expect_hash.is_some() {
                        return Err(duplicate_key_err(lineno, "expect_hash"));
                    }
                    let hex = parse_string(value.trim(), lineno)?;
                    let hash = (hex.len() == 16)
                        .then(|| u64::from_str_radix(&hex, 16).ok())
                        .flatten()
                        .ok_or_else(|| {
                            err(
                                lineno,
                                format!("'expect_hash' must be 16 hex digits, got '{hex}'"),
                            )
                        })?;
                    expect_hash = Some((hash, lineno));
                    body.push('#');
                    body.push('\n');
                    continue;
                }
                _ => {}
            }
        }
        body.push_str(raw_line);
        body.push('\n');
    }
    let workload = match kind {
        WorkloadKind::Model => AnyWorkload::Model(parse_spec_toml(&body)?),
        WorkloadKind::Sim => AnyWorkload::Sim(parse_sim_spec_toml(&body)?),
    };
    if let Some((expected, lineno)) = expect_hash {
        let computed = workload.scenario_hash();
        if computed != expected {
            return Err(SpecError {
                line: lineno,
                kind: SpecErrorKind::HashMismatch { expected, computed },
            });
        }
    }
    Ok(workload)
}

/// Read and parse a spec file of either workload family from `path`.
pub fn load_any_spec_file(path: &std::path::Path) -> Result<AnyWorkload, SpecError> {
    let mut span = wcs_telemetry::span("spec.parse")
        .with("path", path.display().to_string())
        .start();
    let text = std::fs::read_to_string(path).map_err(|e| SpecError {
        line: 0,
        kind: SpecErrorKind::Io {
            detail: format!("cannot read {}: {e}", path.display()),
        },
    })?;
    let workload = parse_any_spec_toml(&text)?;
    span.add("name", workload.name().to_string());
    span.add("kind", workload.kind().label());
    span.add("hash", workload.scenario_hash());
    Ok(workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use crate::EffortProfile;

    fn exotic_sweep() -> Sweep {
        Sweep::new("exotic \"quoted\" \\ name")
            .rmaxes(&[20.0, 1.0 / 3.0])
            .ds(&[5.5, 90.0])
            .sigmas(&[0.0, 8.25])
            .alphas(&[2.0, 3.0])
            .d_threshes(&[40.0, 55.0])
            .caps(&[
                CapacityModel::SHANNON,
                CapacityModel::with_efficiency(0.85),
                CapacityModel::with_efficiency(0.5).capped(2.7),
            ])
            .topologies(&[
                Topology::TwoPair,
                Topology::npair_line(4),
                Topology::npair(9, Placement::Grid),
                Topology::npair(6, Placement::Random { seed: 0xBEEF }),
            ])
            .policies(&[PolicyAxis::CarrierSense, PolicyAxis::Optimal])
            .samples(12_345)
            .seed(0xDEAD_BEEF_u64)
    }

    #[test]
    fn roundtrip_is_identity() {
        let s = exotic_sweep();
        let parsed = parse_spec_toml(&to_spec_toml(&s)).expect("parse");
        assert_eq!(parsed, s);
        assert_eq!(parsed.canonical(), s.canonical());
        assert_eq!(parsed.scenario_hash(), s.scenario_hash());
    }

    #[test]
    fn builtin_scenarios_roundtrip_with_hash_intact() {
        // A spec file written from a built-in scenario must run with the
        // same cache key: the whole point of the format.
        let p = EffortProfile::quick();
        for name in scenarios::NAMES {
            let s = scenarios::by_name(name, &p).unwrap();
            let parsed = parse_spec_toml(&to_spec_toml(&s)).expect(name);
            assert_eq!(parsed, s, "{name}");
            assert_eq!(parsed.scenario_hash(), s.scenario_hash(), "{name}");
        }
    }

    #[test]
    fn defaults_apply_for_missing_keys() {
        let s = parse_spec_toml("name = \"minimal\"\n").unwrap();
        let d = Sweep::new("minimal");
        assert_eq!(s, d);
        assert_eq!(s.stream_layout, StreamLayout::V1);
    }

    #[test]
    fn stream_layout_roundtrips_and_stays_off_v1_specs() {
        // A v1 sweep's spec text must not mention the key at all: the v1
        // serialization (embedded in shard manifests) is frozen.
        let v1 = exotic_sweep();
        assert!(!to_spec_toml(&v1).contains("stream_layout"));
        // A v2 sweep round-trips with the layout — and the identity —
        // intact.
        let v2 = exotic_sweep().stream_layout(StreamLayout::V2);
        let text = to_spec_toml(&v2);
        assert!(text.contains("stream_layout = \"v2\"\n"), "{text}");
        let parsed = parse_spec_toml(&text).expect("parse");
        assert_eq!(parsed, v2);
        assert_eq!(parsed.canonical(), v2.canonical());
        assert_eq!(parsed.scenario_hash(), v2.scenario_hash());
        // Spelling the default explicitly parses to the same sweep.
        let explicit = format!("{}stream_layout = \"v1\"\n", to_spec_toml(&v1));
        assert_eq!(parse_spec_toml(&explicit).unwrap(), v1);
    }

    #[test]
    fn unknown_stream_layout_is_a_structured_bad_value() {
        let e = parse_spec_toml("name = \"x\"\nstream_layout = \"v3\"\n").unwrap_err();
        assert_eq!(e.code(), "bad_value");
        assert_eq!(e.line, 2);
        assert!(e.message().contains("unknown stream layout 'v3'"), "{e}");
        assert!(e.message().contains("known layouts: v1, v2"), "{e}");
        // Labels are exact: no case folding, no bare (unquoted) values.
        assert!(parse_spec_toml("name = \"x\"\nstream_layout = \"V2\"\n").is_err());
        assert!(parse_spec_toml("name = \"x\"\nstream_layout = v2\n").is_err());
    }

    #[test]
    fn comments_blanks_and_section_header_are_ignored() {
        let text = "# a comment\n\n[sweep]\nname = \"c\"\n  # indented comment\nseed = 9\n";
        let s = parse_spec_toml(text).unwrap();
        assert_eq!(s.name, "c");
        assert_eq!(s.seed, 9);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "name = \"x\"\nrmaxes = [oops]\n";
        let e = parse_spec_toml(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"), "{e}");
    }

    #[test]
    fn unknown_and_duplicate_keys_are_rejected() {
        assert!(parse_spec_toml("name = \"x\"\nrmaxxes = [1.0]\n").is_err());
        assert!(parse_spec_toml("name = \"x\"\nseed = 1\nseed = 2\n").is_err());
        assert!(parse_spec_toml("seed = 1\n").is_err(), "missing name");
    }

    #[test]
    fn bad_topologies_and_caps_are_rejected() {
        for bad in [
            "name=\"x\"\ntopologies = [\"npair(n=1,placement=line)\"]\n",
            "name=\"x\"\ntopologies = [\"npair(n=257,placement=line)\"]\n",
            "name=\"x\"\ntopologies = [\"triangle\"]\n",
            "name=\"x\"\ntopologies = [\"npair(n=4,placement=ring)\"]\n",
            "name=\"x\"\ncaps = [\"eff=1.5\"]\n",
            "name=\"x\"\ncaps = [\"cap=2.7\"]\n",
            "name=\"x\"\npolicies = [\"psma\"]\n",
            "name=\"x\"\nsamples = 0\n",
            "name=\"x\"\nds = []\n",
        ] {
            assert!(parse_spec_toml(bad).is_err(), "accepted: {bad}");
        }
    }

    fn exotic_sim_sweep() -> SimSweep {
        SimSweep::new("exotic-sim")
            .testbed_seeds(&[0xBED, u64::MAX, 7])
            .n_nodes(40)
            .floor(120.0, 60.5)
            .window(0.80, 0.95)
            .cca_thresholds_db(&[7.0, 13.0, 19.5])
            .rates(&[
                RateAxis::BestFixed,
                RateAxis::Fixed(6.0),
                RateAxis::Fixed(18.0),
                RateAxis::Adaptive,
            ])
            .points(3)
            .run_secs(2)
            .sweep_rates_mbps(&[6.0, 12.0, 24.0])
            .payload_bytes(800)
            .seed(0xFEED_5EED)
    }

    #[test]
    fn sim_roundtrip_is_identity() {
        let s = exotic_sim_sweep();
        let text = to_sim_spec_toml(&s);
        assert!(text.starts_with("workload = \"sim\"\n"));
        let parsed = parse_sim_spec_toml(&text).expect("parse");
        assert_eq!(parsed, s);
        assert_eq!(parsed.canonical(), s.canonical());
        assert_eq!(parsed.scenario_hash(), s.scenario_hash());
        // u64 seeds survive exactly (they would not through f64).
        assert_eq!(parsed.testbed_seeds[1], u64::MAX);
    }

    #[test]
    fn any_dispatch_selects_the_workload_family() {
        // No workload key: model, byte-identical to the classic parser.
        let model_text = to_spec_toml(&Sweep::new("m").ds(&[10.0]));
        match parse_any_spec_toml(&model_text).unwrap() {
            AnyWorkload::Model(s) => assert_eq!(s, Sweep::new("m").ds(&[10.0])),
            other => panic!("expected model, got {other:?}"),
        }
        // workload = "model" is accepted and equivalent.
        let spelled = format!("workload = \"model\"\n{model_text}");
        assert_eq!(
            parse_any_spec_toml(&spelled).unwrap(),
            parse_any_spec_toml(&model_text).unwrap()
        );
        // workload = "sim" dispatches to the sim parser.
        let sim = exotic_sim_sweep();
        match parse_any_spec_toml(&to_sim_spec_toml(&sim)).unwrap() {
            AnyWorkload::Sim(s) => assert_eq!(s, sim),
            other => panic!("expected sim, got {other:?}"),
        }
        // Unknown workloads are a distinct, actionable error.
        let e = parse_any_spec_toml("workload = \"quantum\"\nname = \"x\"\n").unwrap_err();
        assert!(e.to_string().contains("unknown workload 'quantum'"), "{e}");
        assert!(e.to_string().contains("model, sim"), "{e}");
    }

    #[test]
    fn expect_hash_pins_the_scenario_identity() {
        let sweep = Sweep::new("pinned").ds(&[10.0, 20.0]);
        let good = format!(
            "expect_hash = \"{:016x}\"\n{}",
            sweep.scenario_hash(),
            to_spec_toml(&sweep)
        );
        assert_eq!(
            parse_any_spec_toml(&good).unwrap(),
            AnyWorkload::Model(sweep.clone())
        );
        // Edit an axis without updating the hash: distinct error.
        let tampered = good.replace("ds = [10.0, 20.0]", "ds = [10.0, 21.0]");
        assert_ne!(good, tampered);
        let e = parse_any_spec_toml(&tampered).unwrap_err();
        assert!(e.to_string().contains("scenario hash mismatch"), "{e}");
        // Malformed hashes are rejected up front.
        assert!(parse_any_spec_toml("expect_hash = \"xyz\"\nname = \"x\"\n").is_err());
    }

    #[test]
    fn sim_error_paths_are_actionable() {
        for (bad, needle) in [
            ("workload = \"sim\"\n", "missing required key 'name'"),
            (
                "workload = \"sim\"\nname = \"x\"\nrates = [\"warp\"]\n",
                "unknown rate policy 'warp'",
            ),
            (
                "workload = \"sim\"\nname = \"x\"\nccas = []\n",
                "must not be empty",
            ),
            (
                "workload = \"sim\"\nname = \"x\"\nwindow = [0.5]\n",
                "two-element",
            ),
            (
                "workload = \"sim\"\nname = \"x\"\nwindow = [0.9, 0.2]\n",
                "lo <= hi",
            ),
            (
                "workload = \"sim\"\nname = \"x\"\npoints = 0\n",
                "positive integer",
            ),
            (
                "workload = \"sim\"\nname = \"x\"\ntestbeds = [1.5]\n",
                "integer seeds",
            ),
            (
                "workload = \"sim\"\nname = \"x\"\nrmaxes = [10.0]\n",
                "unknown key 'rmaxes'",
            ),
        ] {
            let e = parse_any_spec_toml(bad).unwrap_err();
            assert!(e.to_string().contains(needle), "{bad:?} -> {e}");
        }
        // A sim key in a model spec is equally loud.
        let e = parse_any_spec_toml("name = \"x\"\nccas = [13.0]\n").unwrap_err();
        assert!(e.to_string().contains("unknown key 'ccas'"), "{e}");
    }

    #[test]
    fn sim_specs_that_would_panic_at_run_time_are_rejected() {
        // Each of these used to parse, then panic inside testbed
        // generation or rate lookup — killing a serve worker.
        let sim = |line: &str| format!("workload = \"sim\"\nname = \"x\"\n{line}\n");
        for floor in [
            "[0.0, 90.0]",
            "[180.0, -1.0]",
            "[inf, 90.0]",
            "[180.0, NaN]",
        ] {
            let e = parse_any_spec_toml(&sim(&format!("floor = {floor}"))).unwrap_err();
            assert_eq!(e.code(), "bad_floor", "{floor}: {e}");
            assert_eq!(e.field(), Some("floor"));
            assert_eq!(e.line, 3);
            assert!(e.message().contains("positive and finite"), "{e}");
        }
        for (line, key) in [
            ("sweep_rates = [6.0, 7.0]", "sweep_rates"),
            ("rates = [\"best-fixed\", \"fixed(7.0)\"]", "rates"),
        ] {
            let e = parse_any_spec_toml(&sim(line)).unwrap_err();
            assert_eq!(e.code(), "unsupported_rate", "{line}: {e}");
            assert_eq!(e.field(), Some(key));
            assert!(e.message().contains("no 802.11a rate 7.0 Mbps"), "{e}");
            assert!(e.message().contains("6, 9, 12, 18, 24, 36, 48, 54"), "{e}");
        }
        // Planning would allocate for every point, or visit every
        // directed node pair, before anything runs; the frame size or
        // run length would overflow the simulator's arithmetic.
        for (line, max) in [
            ("points = 1000000000", 1000),
            ("nodes = 200000", 500),
            ("payload = 18446744073709551615", 4063),
            ("run_secs = 18446744073709551615", 3600),
        ] {
            let e = parse_any_spec_toml(&sim(line)).unwrap_err();
            assert_eq!(e.code(), "bad_value", "{line}: {e}");
            assert_eq!(e.line, 3);
            assert!(e.message().contains(&format!("at most {max}")), "{e}");
        }
        // Every key at its cap would simulate for hours: the spec's
        // total simulated time has a budget of its own.
        let e = parse_any_spec_toml(&sim(
            "points = 1000\nnodes = 500\npayload = 4063\nrun_secs = 3600",
        ))
        .unwrap_err();
        assert_eq!(e.code(), "bad_value", "{e}");
        assert_eq!(e.line, 0);
        assert!(
            e.message()
                .contains("1 × 1 × 1 × 1000 × 3600 = 3600000 simulated seconds"),
            "{e}"
        );
        // Real rates, positive floors and each cap on its own still parse.
        let ok = sim("floor = [0.5, 1e3]\nsweep_rates = [54]\nrates = [\"fixed(36.0)\"]");
        assert!(parse_any_spec_toml(&ok).is_ok());
        for cap in [
            "points = 1000",
            "nodes = 500",
            "payload = 4063",
            "run_secs = 3600",
        ] {
            assert!(parse_any_spec_toml(&sim(cap)).is_ok(), "{cap}");
        }
    }

    #[test]
    fn errors_carry_structured_kind_code_and_field() {
        // Unknown key: names the key, keeps the pinned text.
        let e = parse_spec_toml("name = \"x\"\nfrobs = [1.0]\n").unwrap_err();
        assert_eq!(e.code(), "unknown_key");
        assert_eq!(e.field(), Some("frobs"));
        assert_eq!(e.line, 2);
        assert_eq!(e.to_string(), "spec line 2: unknown key 'frobs'");
        // Duplicate key.
        let e = parse_spec_toml("name = \"x\"\nseed = 1\nseed = 2\n").unwrap_err();
        assert_eq!(e.code(), "duplicate_key");
        assert_eq!(e.field(), Some("seed"));
        assert_eq!(e.line, 3);
        // Missing required key: no line, field names it.
        let e = parse_spec_toml("seed = 1\n").unwrap_err();
        assert_eq!(e.code(), "missing_key");
        assert_eq!(e.field(), Some("name"));
        assert_eq!(e.line, 0);
        assert_eq!(e.to_string(), "spec: missing required key 'name'");
        // Bad value on a known key.
        let e = parse_spec_toml("name = \"x\"\nrmaxes = [oops]\n").unwrap_err();
        assert_eq!(e.code(), "bad_value");
        assert_eq!(e.field(), None);
        assert!(e.message().contains("bad number 'oops'"), "{e}");
        // Syntax-level failure, before any vocabulary.
        let e = parse_spec_toml("name = \"x\"\nnonsense\n").unwrap_err();
        assert_eq!(e.code(), "syntax");
        assert!(e.message().contains("expected 'key = value'"), "{e}");
        // Unknown workload label.
        let e = parse_any_spec_toml("workload = \"quantum\"\nname = \"x\"\n").unwrap_err();
        assert_eq!(e.code(), "unknown_workload");
        assert_eq!(e.field(), Some("workload"));
        assert_eq!(
            e.kind,
            SpecErrorKind::UnknownWorkload {
                label: "quantum".to_string()
            }
        );
        // Hash mismatch carries both hashes structurally.
        let sweep = Sweep::new("pinned").ds(&[10.0, 20.0]);
        let tampered = format!(
            "expect_hash = \"{:016x}\"\n{}",
            0xABCDu64,
            to_spec_toml(&sweep)
        );
        let e = parse_any_spec_toml(&tampered).unwrap_err();
        assert_eq!(e.code(), "hash_mismatch");
        assert_eq!(e.field(), Some("expect_hash"));
        assert_eq!(
            e.kind,
            SpecErrorKind::HashMismatch {
                expected: 0xABCD,
                computed: sweep.scenario_hash()
            }
        );
        // Unreadable file is an io error.
        let e = load_any_spec_file(std::path::Path::new("/nonexistent/x.toml")).unwrap_err();
        assert_eq!(e.code(), "io");
        assert!(e.message().contains("cannot read"), "{e}");
    }

    #[test]
    fn capacity_models_roundtrip_exactly() {
        let caps = [
            CapacityModel::SHANNON,
            CapacityModel::with_efficiency(1.0 / 3.0),
            CapacityModel::with_efficiency(0.9).capped(2.7),
        ];
        for c in caps {
            let parsed = cap_from_str(&cap_to_string(&c), 1).unwrap();
            assert_eq!(parsed.efficiency.to_bits(), c.efficiency.to_bits());
            assert_eq!(
                parsed.max_spectral_efficiency.map(f64::to_bits),
                c.max_spectral_efficiency.map(f64::to_bits)
            );
        }
    }
}
