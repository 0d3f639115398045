//! The one-line result object a run prints, and reading it back: the
//! all-workloads mode collects its children's.  The repo's `serde` is a
//! marker-only stand-in, so the line is written out by hand — and only the
//! layout written here is understood when reading.

use std::fmt::Write as _;

/// A number as measured, with all its digits; non-finite values (a ratio
/// whose denominator was zero) print as 0.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The one-line result object the benchmark contract asks for.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = String::new();
    write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    )
    .expect("write to string");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        )
        .expect("write to string");
    }
    out.push_str("}}");
    out
}

/// What a result line says, without the units.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

impl ResultLine {
    /// The named metric's value; 0 when the line does not carry it.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Reads back a line [`result_line`] wrote.
pub fn read_result_line(line: &str) -> Option<ResultLine> {
    let rest = line.trim().strip_prefix("{\"correct\": ")?;
    let (correct, rest) = rest.split_once(", \"attempted\": ")?;
    let (attempted, rest) = rest.split_once(", \"failed\": ")?;
    let (failed, rest) = rest.split_once(", \"metrics\": {")?;
    let body = rest.strip_suffix("}}")?;
    let mut metrics = Vec::new();
    for entry in body.split("}, ").filter(|e| !e.is_empty()) {
        let (name, rest) = entry.split_once("\": {\"value\": ")?;
        let (value, _unit) = rest.split_once(", \"unit\": ")?;
        metrics.push((name.strip_prefix('"')?.to_string(), value.parse().ok()?));
    }
    Some(ResultLine {
        correct: correct.parse().ok()?,
        attempted: attempted.parse().ok()?,
        failed: failed.parse().ok()?,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_layout_and_round_trips() {
        let line = result_line(
            true,
            1400,
            0,
            &[
                ("op_p50_ms".to_string(), 1.2034, "ms"),
                ("throughput_ops_s".to_string(), 812.5, "1/s"),
                ("bad".to_string(), f64::NAN, "ratio"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1400, \"failed\": 0, \"metrics\": {\
             \"op_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"throughput_ops_s\": {\"value\": 812.5, \"unit\": \"1/s\"}, \
             \"bad\": {\"value\": 0, \"unit\": \"ratio\"}}}"
        );
        let read = read_result_line(&line).unwrap();
        assert_eq!((read.correct, read.attempted, read.failed), (true, 1400, 0));
        assert_eq!(
            read.metrics,
            [
                ("op_p50_ms".to_string(), 1.2034),
                ("throughput_ops_s".to_string(), 812.5),
                ("bad".to_string(), 0.0)
            ]
        );
    }

    #[test]
    fn reads_an_empty_metric_set_and_rejects_other_text() {
        let read = read_result_line(&result_line(false, 3, 2, &[])).unwrap();
        assert_eq!((read.correct, read.attempted, read.failed), (false, 3, 2));
        assert!(read.metrics.is_empty());
        assert!(read_result_line("scan_join_warm: 1400 timed ops").is_none());
        assert!(read_result_line("{\"correct\": true}").is_none());
    }
}
