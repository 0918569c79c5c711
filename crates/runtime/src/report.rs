//! Typed run reports with CSV and JSON emission.
//!
//! A [`RunReport`] is a named table of f64 rows plus string metadata —
//! deliberately plain so the cache can round-trip it exactly. Floats are
//! written with Rust's shortest round-tripping `{:?}` representation, so
//! CSV → parse → CSV is bitwise stable (the determinism tests compare
//! emitted text across thread counts).

use wcs_telemetry::json::json_string;

/// A named table of results with attached metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Report (scenario) name.
    pub name: String,
    /// Column names, one per row entry.
    pub columns: Vec<String>,
    /// Data rows; every row has `columns.len()` entries.
    pub rows: Vec<Vec<f64>>,
    /// Free-form metadata (policy index → label maps, provenance, ...).
    pub meta: Vec<(String, String)>,
}

impl RunReport {
    /// New empty report.
    pub fn new(name: &str, columns: &[&str]) -> Self {
        RunReport {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn push_row(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Attach one metadata entry.
    pub fn add_meta(&mut self, key: &str, value: &str) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Look up a metadata value.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// CSV: header row then data rows, floats in shortest round-tripping
    /// form. Metadata is not included (see [`RunReport::to_json`] for the
    /// full document).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Parse the body produced by [`RunReport::to_csv`].
    pub fn from_csv(name: &str, csv: &str) -> Result<Self, String> {
        let mut lines = csv.lines();
        let header = lines.next().ok_or("empty csv")?;
        let columns: Vec<String> = header.split(',').map(|s| s.to_string()).collect();
        let mut rows = Vec::new();
        for (lineno, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let row: Result<Vec<f64>, _> = line.split(',').map(|c| c.parse::<f64>()).collect();
            let row = row.map_err(|e| format!("line {}: {e}", lineno + 2))?;
            if row.len() != columns.len() {
                return Err(format!(
                    "line {}: arity {} != {}",
                    lineno + 2,
                    row.len(),
                    columns.len()
                ));
            }
            rows.push(row);
        }
        Ok(RunReport {
            name: name.to_string(),
            columns,
            rows,
            meta: Vec::new(),
        })
    }

    /// JSON document: name, metadata object, columns, row arrays.
    /// Non-finite floats become `null` (JSON has no NaN/∞).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"name\":{},", json_string(&self.name)));
        out.push_str("\"meta\":{");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_string(k), json_string(v)));
        }
        out.push_str("},\"columns\":[");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(c));
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                if v.is_finite() {
                    out.push_str(&format!("{v:?}"));
                } else {
                    out.push_str("null");
                }
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }

    /// Aligned TSV rendering with a `#` comment header, matching the
    /// style of the existing figure generators.
    pub fn render(&self) -> String {
        let mut out = format!("# {}\n", self.name);
        for (k, v) in &self.meta {
            out.push_str(&format!("# {k}: {v}\n"));
        }
        out.push_str(&format!("# {}\n", self.columns.join("\t")));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:.4}")).collect();
            out.push_str(&cells.join("\t"));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut r = RunReport::new("demo", &["x", "y"]);
        r.push_row(vec![1.0, 0.1]);
        r.push_row(vec![2.5, 1.0 / 3.0]);
        r.add_meta("policy:0", "carrier-sense");
        r
    }

    #[test]
    fn csv_roundtrip_is_bitwise() {
        let r = sample();
        let parsed = RunReport::from_csv("demo", &r.to_csv()).unwrap();
        assert_eq!(parsed.columns, r.columns);
        assert_eq!(parsed.rows.len(), r.rows.len());
        for (a, b) in parsed.rows.iter().zip(&r.rows) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn json_contains_everything() {
        let j = sample().to_json();
        assert!(j.contains("\"name\":\"demo\""));
        assert!(j.contains("\"columns\":[\"x\",\"y\"]"));
        assert!(j.contains("\"policy:0\":\"carrier-sense\""));
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn json_nan_becomes_null() {
        let mut r = RunReport::new("n", &["v"]);
        r.push_row(vec![f64::NAN]);
        assert!(r.to_json().contains("[null]"));
    }

    #[test]
    #[should_panic]
    fn arity_checked() {
        let mut r = RunReport::new("n", &["a", "b"]);
        r.push_row(vec![1.0]);
    }

    #[test]
    fn render_has_header_and_meta() {
        let txt = sample().render();
        assert!(txt.starts_with("# demo\n"));
        assert!(txt.contains("# policy:0: carrier-sense"));
        assert!(txt.contains("x\ty"));
    }
}
