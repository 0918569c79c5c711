//! Minimal JSON: the run log's writer and the workspace's one reader.
//!
//! The offline serde shim has no parser, so the workspace hand-rolls its
//! JSON, and [`parse`] is its only reader: run-log lines, run manifests
//! and bench documents all go through it. It reads all of JSON (objects,
//! arrays, strings, bools, null, numbers) with **integer-exact
//! numbers** — unsigned/negative integers are parsed as integers, never
//! routed through `f64`, so 64-bit hashes and seeds survive a round trip
//! bit for bit. Floats use Rust's shortest round-tripping `{:?}` form,
//! the same convention as the CSV reports.

use crate::{Event, EventKind, Value};

/// Escape a string into a JSON string literal (with quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn value_to_json(v: &Value) -> String {
    match v {
        Value::U64(x) => x.to_string(),
        Value::I64(x) => x.to_string(),
        Value::F64(x) => {
            if x.is_finite() {
                format!("{x:?}")
            } else {
                "null".to_string() // JSON has no NaN/∞; same rule as RunReport
            }
        }
        Value::Bool(b) => b.to_string(),
        Value::Str(s) => json_string(s),
    }
}

/// Serialize one event as a single JSON object (one run-log line,
/// without the trailing newline).
pub fn event_to_json(e: &Event) -> String {
    let mut out = String::with_capacity(64 + 24 * e.fields.len());
    out.push_str(&format!(
        "{{\"t_ns\":{},\"kind\":{},\"name\":{},\"fields\":{{",
        e.t_ns,
        json_string(e.kind.label()),
        json_string(&e.name)
    ));
    for (i, (k, v)) in e.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(k));
        out.push(':');
        out.push_str(&value_to_json(v));
    }
    out.push_str("}}");
    out
}

/// Parse one run-log line back into an [`Event`].
pub fn event_from_json(line: &str) -> Result<Event, String> {
    let Json::Obj(top) = parse(line)? else {
        return Err("an event must be a JSON object".into());
    };
    let mut t_ns = None;
    let mut kind = None;
    let mut name = None;
    let mut fields = Vec::new();
    for (key, val) in top {
        match (key.as_str(), val) {
            ("t_ns", Json::U64(v)) => t_ns = Some(v),
            ("t_ns", _) => return Err("t_ns must be an unsigned integer".into()),
            ("kind", Json::Str(s)) => {
                kind = Some(EventKind::from_label(&s).ok_or_else(|| format!("unknown kind '{s}'"))?)
            }
            ("kind", _) => return Err("kind must be a string".into()),
            ("name", Json::Str(s)) => name = Some(s),
            ("name", _) => return Err("name must be a string".into()),
            ("fields", Json::Obj(pairs)) => {
                for (k, v) in pairs {
                    fields.push((k, json_to_value(v)?));
                }
            }
            ("fields", _) => return Err("fields must be an object".into()),
            (other, _) => return Err(format!("unknown event key '{other}'")),
        }
    }
    Ok(Event {
        t_ns: t_ns.ok_or("missing t_ns")?,
        kind: kind.ok_or("missing kind")?,
        name: name.ok_or("missing name")?,
        fields,
    })
}

fn json_to_value(j: Json) -> Result<Value, String> {
    Ok(match j {
        Json::U64(v) => Value::U64(v),
        Json::I64(v) => Value::I64(v),
        Json::F64(v) => Value::F64(v),
        Json::Bool(b) => Value::Bool(b),
        Json::Str(s) => Value::Str(s),
        Json::Null => Value::F64(f64::NAN), // the writer's non-finite spill
        Json::Arr(_) | Json::Obj(_) => {
            return Err("arrays and objects are not valid field values".into())
        }
    })
}

/// A parsed JSON value. A number without a fraction or exponent that
/// fits in 64 bits is an exact integer ([`Json::U64`], or [`Json::I64`]
/// when negative); every other number is a [`Json::F64`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value under `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// [`Json::get`] converted by one of the `as_*` accessors, with an
    /// error naming `key` when it is missing or of another type.
    pub fn field<'a, T>(&'a self, key: &str, as_t: fn(&'a Json) -> Option<T>) -> Result<T, String> {
        self.get(key)
            .and_then(as_t)
            .ok_or_else(|| format!("missing or mistyped key '{key}'"))
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Any number, as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Parse one JSON document; anything but whitespace after it is an
/// error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .peek()
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    /// `open item (',' item)* close`, whitespace allowed between tokens.
    fn parse_seq<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                other => {
                    return Err(format!(
                        "expected ',' or '{}' at byte {}, found {:?}",
                        close as char,
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => Ok(Json::Obj(self.parse_seq(b'{', b'}', |p| {
                let key = p.parse_string()?;
                p.skip_ws();
                p.expect(b':')?;
                p.skip_ws();
                Ok((key, p.parse_value()?))
            })?)),
            Some(b'[') => Ok(Json::Arr(self.parse_seq(b'[', b']', Self::parse_value)?)),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            let Some(&b) = rest.first() else {
                return Err("unterminated string".into());
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = rest.get(1).ok_or("truncated escape")?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("unknown escape '\\{}'", *other as char)),
                    }
                }
                _ => {
                    // Copy the run up to the next quote or backslash in one
                    // go. Both are ASCII, so the run ends on a character
                    // boundary and multi-byte UTF-8 passes through intact.
                    let run = rest
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_roundtrips_every_value_variant() {
        let e = Event {
            t_ns: 123_456_789,
            kind: EventKind::Counter,
            name: "cache.hit".to_string(),
            fields: vec![
                ("bytes".to_string(), Value::U64(0x0123_4567_89ab_cdef)),
                ("code".to_string(), Value::I64(-11)),
                ("ratio".to_string(), Value::F64(1.0 / 3.0)),
                ("hit".to_string(), Value::Bool(true)),
                (
                    "path".to_string(),
                    Value::Str("a \"quoted\"\\\n\ttab µ".to_string()),
                ),
            ],
        };
        let line = event_to_json(&e);
        let back = event_from_json(&line).unwrap();
        assert_eq!(back, e);
        // Large u64s survive exactly (would be mangled through f64).
        assert_eq!(back.u64_field("bytes"), Some(0x0123_4567_89ab_cdef));
    }

    #[test]
    fn floats_keep_shortest_roundtrip_form() {
        let e = Event {
            t_ns: 0,
            kind: EventKind::Value,
            name: "x".to_string(),
            fields: vec![("v".to_string(), Value::F64(2.0))],
        };
        let line = event_to_json(&e);
        assert!(line.contains("\"v\":2.0"), "{line}");
        let back = event_from_json(&line).unwrap();
        assert_eq!(back.field("v"), Some(&Value::F64(2.0)));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(event_from_json("").is_err());
        assert!(event_from_json("{}").is_err(), "missing required keys");
        assert!(event_from_json("not json").is_err());
        assert!(
            event_from_json("{\"t_ns\":1,\"kind\":\"counter\",\"name\":\"x\",\"fields\":{}}x")
                .is_err()
        );
        assert!(
            event_from_json("{\"t_ns\":1,\"kind\":\"quantum\",\"name\":\"x\",\"fields\":{}}")
                .is_err()
        );
    }

    #[test]
    fn event_fields_reject_arrays_and_objects() {
        for fields in [r#"{"v":[1]}"#, r#"{"v":[]}"#, r#"{"v":{"w":1}}"#] {
            let line = format!(r#"{{"t_ns":1,"kind":"value","name":"x","fields":{fields}}}"#);
            let err = event_from_json(&line).unwrap_err();
            assert!(err.contains("not valid field values"), "{fields}: {err}");
        }
    }

    #[test]
    fn long_multibyte_field_roundtrips() {
        let text: String = "aµ€😀\"\\\n".chars().cycle().take(200_000).collect();
        let e = Event {
            t_ns: 7,
            kind: EventKind::Value,
            name: "x".to_string(),
            fields: vec![("note".to_string(), Value::Str(text))],
        };
        assert_eq!(event_from_json(&event_to_json(&e)).unwrap(), e);
    }

    #[test]
    fn arrays_parse_empty_and_nested() {
        assert_eq!(parse(" [ ] ").unwrap(), Json::Arr(vec![]));
        let v = parse(r#"{"a":[],"b":[[1,[2]],{"c":[]}]}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Json::Arr(vec![])));
        let b = v.field("b", Json::as_array).unwrap();
        assert_eq!(
            b[0],
            Json::Arr(vec![Json::U64(1), Json::Arr(vec![Json::U64(2)])])
        );
        assert_eq!(b[1].get("c").and_then(Json::as_array), Some(&[][..]));
    }

    #[test]
    fn integers_stay_exact() {
        let v = parse(&format!(
            "[{}, {}, -1, 9007199254740993, 1.0, 2e3]",
            u64::MAX,
            i64::MIN
        ))
        .unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0], Json::U64(u64::MAX));
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[1], Json::I64(i64::MIN));
        assert_eq!(items[2], Json::I64(-1));
        assert_eq!(items[2].as_u64(), None, "negatives are not u64");
        assert_eq!(items[3].as_u64(), Some((1 << 53) + 1), "beyond f64's 2^53");
        assert_eq!(items[4], Json::F64(1.0));
        assert_eq!(items[4].as_u64(), None, "floats are not integers");
        assert_eq!(items[5].as_f64(), Some(2000.0));
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse(r#""\u00b5\u0041\u0001\/""#).unwrap();
        assert_eq!(v.as_str(), Some("µA\u{1}/"));
        // The writer's own escapes read back.
        let s = "ctl \u{1f} \u{7} tab\t";
        assert_eq!(parse(&json_string(s)).unwrap().as_str(), Some(s));
        assert!(parse(r#""\u00""#).is_err(), "truncated");
        assert!(parse(r#""\uzzzz""#).is_err(), "not hex");
    }

    #[test]
    fn json_reader_handles_escapes_and_nesting() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "s": "x\"\nA", "t": true, "n": null}"#).unwrap();
        let err = v.field("a", Json::as_f64).unwrap_err();
        assert!(err.contains("'a'"), "{err}");
        assert_eq!(v.field("s", Json::as_str).unwrap(), "x\"\nA");
        let arr = v.field("a", Json::as_array).unwrap();
        assert_eq!(arr, &[Json::U64(1), Json::F64(2.5), Json::F64(-300.0)]);
        assert_eq!(v.get("t"), Some(&Json::Bool(true)));
        assert_eq!(v.get("n"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
        assert!(v.field("missing", Json::as_str).is_err());
    }

    #[test]
    fn bad_documents_are_errors() {
        for bad in [
            "",
            "   ",
            "{} x",
            "[1] [2]",
            "[1,]",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":}",
            "{a:1}",
            "tru",
            "nul",
            "-",
            "1.2.3",
            "+1",
            "\"open",
            "\"\\q\"",
            "[",
            "{\"a\":1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(parse("{} x").unwrap_err().contains("trailing garbage"));
    }

    #[test]
    fn nonfinite_floats_spill_to_null() {
        let e = Event {
            t_ns: 0,
            kind: EventKind::Value,
            name: "x".to_string(),
            fields: vec![("v".to_string(), Value::F64(f64::INFINITY))],
        };
        let line = event_to_json(&e);
        assert!(line.contains("\"v\":null"), "{line}");
        let back = event_from_json(&line).unwrap();
        assert!(matches!(back.field("v"), Some(Value::F64(v)) if v.is_nan()));
    }
}
