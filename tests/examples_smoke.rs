//! Smoke coverage for the `examples/` directory.
//!
//! `cargo test` compiles every example alongside the test targets, so compile
//! rot is always caught.  This test goes one step further and *executes* the
//! examples, asserting on their output so a silent behavioural regression
//! (e.g. the quickstart matching zero pairs again) fails the suite.  The two
//! scan-vs-probe examples honour the `CEJ_SCALE` knob, so they are executed
//! at a drastically reduced scale (they build multi-thousand-vector HNSW
//! indexes at full size, far too slow without optimisations); CI
//! additionally runs them in release mode through the bench-smoke job.

use std::path::PathBuf;
use std::process::Command;

/// Directory holding the compiled example binaries for the active profile
/// (`target/<profile>/examples`, derived from this test binary's own path in
/// `target/<profile>/deps`).
fn examples_dir() -> PathBuf {
    let mut dir = std::env::current_exe().expect("test binary path");
    dir.pop(); // <hash-named test binary>
    if dir.ends_with("deps") {
        dir.pop();
    }
    dir.join("examples")
}

fn run_example_with_env(name: &str, env: &[(&str, &str)]) -> String {
    let bin = examples_dir().join(name);
    assert!(bin.exists(), "example binary missing: {}", bin.display());
    let mut cmd = Command::new(&bin);
    for (key, value) in env {
        cmd.env(key, value);
    }
    let output = cmd.output().expect("example should spawn");
    assert!(
        output.status.success(),
        "example {name} exited with {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn run_example(name: &str) -> String {
    run_example_with_env(name, &[])
}

#[test]
fn quickstart_runs_and_matches_pairs() {
    let stdout = run_example("quickstart");
    // Regression guard: with the untrained hash-n-gram model the similarity
    // threshold must be calibrated so the two intended pairs (laptop ~
    // notebooks, bbq ~ grills) survive; the example once shipped with a
    // trained-model threshold (0.55) and matched nothing.
    assert!(
        stdout.contains("2 matched pairs"),
        "unexpected quickstart output:\n{stdout}"
    );
    assert!(stdout.contains("lightweight notebooks and laptops"));
    assert!(stdout.contains("charcoal barbecues and grills"));
    // the quickstart demonstrates EXPLAIN ANALYZE: per-operator actuals and
    // the histogram-estimated date-filter selectivity must both render
    assert!(
        stdout.contains("EXPLAIN ANALYZE") && stdout.contains("actual "),
        "quickstart must render estimated-vs-actual rows:\n{stdout}"
    );
    assert!(
        stdout.contains("(sel 0.400)"),
        "date-filter selectivity:\n{stdout}"
    );
}

#[test]
fn serving_example_round_trips_the_protocol() {
    let stdout = run_example("serving");
    assert!(
        stdout.contains("serving on 127.0.0.1:"),
        "server must bind:\n{stdout}"
    );
    // three warm rounds of the same prepared statement, byte-identical
    let checksums: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("matched rows (checksum"))
        .collect();
    assert_eq!(checksums.len(), 3, "three RUN rounds:\n{stdout}");
    // probe + stats + clean shutdown all happened
    assert!(stdout.contains("probe results:"), "{stdout}");
    assert!(
        stdout.contains("server stats:") && stdout.contains("pool_workers="),
        "{stdout}"
    );
    assert!(stdout.contains("server stopped cleanly"), "{stdout}");
}

#[test]
fn data_cleaning_runs_with_high_accuracy() {
    let stdout = run_example("data_cleaning");
    let accuracy_line = stdout
        .lines()
        .find(|l| l.contains("cleaned") && l.contains("correct"))
        .unwrap_or_else(|| panic!("no accuracy summary in output:\n{stdout}"));
    // The trained model should clean the synthetic misspellings near-perfectly;
    // fail loudly if accuracy ever collapses.
    let pct: f64 = accuracy_line
        .split('(')
        .nth(1)
        .and_then(|s| s.split('%').next())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| panic!("unparsable accuracy line: {accuracy_line}"));
    assert!(pct >= 90.0, "data_cleaning accuracy dropped to {pct}%");
}

#[test]
fn near_duplicate_detection_runs_at_reduced_scale() {
    let stdout = run_example_with_env("near_duplicate_detection", &[("CEJ_SCALE", "0.01")]);
    assert!(
        stdout.contains("reference 200 x incoming 2"),
        "CEJ_SCALE was not honoured:\n{stdout}"
    );
    assert!(
        stdout.contains("route: ") && stdout.contains("µs per probe"),
        "missing route line:\n{stdout}"
    );
    assert!(
        stdout.contains("index build time"),
        "missing index build report:\n{stdout}"
    );
}

#[test]
fn access_path_selection_runs_at_reduced_scale() {
    let stdout = run_example_with_env("access_path_selection", &[("CEJ_SCALE", "0.01")]);
    assert!(
        stdout.contains("inner 200 x outer 1"),
        "CEJ_SCALE was not honoured:\n{stdout}"
    );
    // One row per selectivity point of the sweep.
    for selectivity in ["10%", "25%", "50%", "75%", "100%"] {
        assert!(
            stdout.contains(selectivity),
            "missing {selectivity} row:\n{stdout}"
        );
    }
}
