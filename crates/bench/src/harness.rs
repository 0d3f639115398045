//! Shared timing, scaling, and reporting helpers for the experiment binaries.

use std::time::{Duration, Instant};

// The scale knob lives in `cej-workload` (so runnable examples share it);
// re-exported here because every experiment binary imports it from the
// harness.
pub use cej_workload::{scale, scaled};

/// Times one invocation of `f`, returning its result and the elapsed time.
pub fn time_once<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Formats a duration in milliseconds with one decimal.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

/// Formats nanoseconds-per-element with two decimals.
pub fn fmt_ns_per(d: Duration, elements: usize) -> String {
    format!("{:.2}", d.as_nanos() as f64 / elements.max(1) as f64)
}

/// Prints an experiment header (figure/table id plus description).
pub fn header(id: &str, description: &str) {
    println!("=== {id}: {description} ===");
    println!(
        "(scaled-down reproduction; CEJ_SCALE={} — shapes, not absolute numbers, are expected to match the paper)",
        scale()
    );
}

/// Prints a table of rows with fixed-width columns.
pub fn print_table(columns: &[&str], rows: &[Vec<String>]) {
    let widths: Vec<usize> = columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            rows.iter()
                .map(|r| r.get(i).map(|v| v.len()).unwrap_or(0))
                .chain([c.len()])
                .max()
                .unwrap_or(c.len())
        })
        .collect();
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_respects_minimum() {
        assert!(scaled(0) >= 1);
        assert!(scaled(100) >= 1);
    }

    #[test]
    fn time_once_returns_value_and_duration() {
        let (v, d) = time_once(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0 || d.as_nanos() == 0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ms(Duration::from_millis(1500)), "1500.0");
        assert_eq!(fmt_ns_per(Duration::from_nanos(100), 10), "10.00");
        assert_eq!(fmt_ns_per(Duration::from_nanos(100), 0), "100.00");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            &["a", "column_b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        header("Fig X", "smoke test");
    }
}
