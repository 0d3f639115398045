//! Machine-readable gate reports.
//!
//! `ivm_gate` prints a human-oriented summary; CI additionally wants an
//! artifact it can archive and diff across runs.  [`Report`] collects named
//! numeric values and section timings and serialises them as a small,
//! dependency-free JSON document.  The gate calls
//! [`Report::write_if_requested`], which writes to the path in the
//! `CEJ_REPORT` environment variable (and does nothing when it is unset, so
//! local runs stay side-effect free).

use std::time::Duration;

use crate::harness::scale;

/// An accumulating benchmark report serialisable to JSON.
#[derive(Debug, Clone)]
pub struct Report {
    benchmark: String,
    entries: Vec<(String, f64)>,
}

impl Report {
    /// Creates an empty report for the named benchmark binary.
    pub fn new(benchmark: &str) -> Self {
        Report {
            benchmark: benchmark.to_string(),
            entries: Vec::new(),
        }
    }

    /// Records a named numeric value.
    pub fn push_value(&mut self, name: &str, value: f64) {
        self.entries.push((name.to_string(), value));
    }

    /// Records a section's elapsed wall-clock time in milliseconds.
    pub fn push_elapsed(&mut self, section: &str, elapsed: Duration) {
        self.push_value(&format!("{section}_ms"), elapsed.as_secs_f64() * 1e3);
    }

    /// Serialises the report as a JSON object.  Values that JSON cannot
    /// represent (NaN, infinities) are emitted as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"benchmark\":{},\"scale\":{},\"simd_isa\":{},\"entries\":{{",
            json_string(&self.benchmark),
            json_number(scale()),
            // which implementation of the vectorised kernels this CPU ran
            json_string(cej_vector::SimdIsa::detect().label()),
        ));
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_string(name), json_number(*value)));
        }
        out.push_str("}}");
        out
    }

    /// Writes the JSON report to the path named by `CEJ_REPORT`, if set.
    /// Returns the path written to, for logging.
    pub fn write_if_requested(&self) -> Option<String> {
        let path = std::env::var("CEJ_REPORT").ok()?;
        if path.is_empty() {
            return None;
        }
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => {
                println!("(report written to {path})");
                Some(path)
            }
            Err(e) => {
                eprintln!("failed to write report to {path}: {e}");
                None
            }
        }
    }
}

/// Extracts `"key":<number>` from the flat JSON documents this module
/// emits — the parsing half `ivm_gate` reads its baseline through, kept
/// next to the emitter so the two halves cannot drift apart.
pub fn extract_value(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
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

/// Formats a float as a JSON number (`null` for NaN / infinities).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serialises_entries_in_order() {
        let mut r = Report::new("smoke");
        r.push_value("alpha", 1.5);
        r.push_elapsed("fig08", Duration::from_millis(250));
        let json = r.to_json();
        assert!(json.starts_with("{\"benchmark\":\"smoke\""));
        let isa = cej_vector::SimdIsa::detect().label();
        assert!(json.contains(&format!("\"simd_isa\":\"{isa}\",\"entries\"")));
        assert!(json.contains("\"alpha\":1.5"));
        assert!(json.contains("\"fig08_ms\":250"));
        let alpha = json.find("alpha").unwrap();
        let fig = json.find("fig08_ms").unwrap();
        assert!(alpha < fig, "entries must keep insertion order");
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak\t"), "\"line\\nbreak\\t\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(2.0), "2");
    }

    #[test]
    fn write_is_a_no_op_without_the_env_var() {
        // CEJ_REPORT is unset in the test environment.
        if std::env::var("CEJ_REPORT").is_err() {
            assert_eq!(Report::new("x").write_if_requested(), None);
        }
    }
}
