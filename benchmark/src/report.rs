//! The all-workloads mode: every workload in its own process (fresh caches,
//! its own `VmHWM`), an untraced run for the end-to-end metrics and a traced
//! run for the per-layer ones; plus the noise-calibration table
//! (`--repeat N` at one seed, `--seeds N` over N seeds) and the layer-share
//! design check (`--check-shares`).

use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, ResultLine};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::runner::RunOutput;
use crate::stats::{iqr_share, max_rel_deviation, quartiles};
use crate::Args;

/// Prints every metric of one run by name, with its unit.
pub fn print_metrics(out: &RunOutput) {
    for (name, value, unit) in &out.metrics {
        println!("  {name:<42} {:>16} {unit}", json::number(*value));
    }
    println!(
        "  attempted {} | failed {} | correct {}",
        out.attempted, out.failed, out.correct
    );
}

fn run_child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child: no process outlives this call
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    json::read_result_line(line).ok_or_else(|| format!("{workload}: no result line, got `{line}`"))
}

fn print_table(title: &str, defs: &[crate::metrics::MetricDef], rows: &[(&str, ResultLine)]) {
    println!("\n{title}");
    print!("{:<42} {:<6}", "metric", "unit");
    for (workload, _) in rows {
        print!(" {workload:>16}");
    }
    println!();
    for def in defs {
        print!("{:<42} {:<6}", def.name, def.unit);
        for (_, result) in rows {
            print!(" {:>16.6}", result.value(def.name));
        }
        println!();
    }
}

/// Each layer must dominate its own workload and nearly vanish on another,
/// or two workloads have collapsed into one.
fn check_shares(traced: &[(&str, ResultLine)]) -> Vec<String> {
    const OWN_MIN: f64 = 0.40;
    const OTHER_MAX: f64 = 0.15;
    const LAYERS: [(&str, &str); 4] = [
        ("share.vector", "scan_join_warm"),
        ("share.embedding", "adhoc_cold"),
        ("share.index", "index_probe"),
        ("share.delta", "serve_live"),
    ];
    // the program's layers; `share.core_self` is the remainder, not a layer
    // some workload is built around
    const RIVALS: [&str; 7] = [
        "share.vector",
        "share.embedding",
        "share.index",
        "share.storage",
        "share.relational",
        "share.delta",
        "share.server",
    ];
    let mut problems = Vec::new();
    for (share, own) in LAYERS {
        let Some((_, result)) = traced.iter().find(|(w, _)| *w == own) else {
            continue;
        };
        let value = result.value(share);
        if value < OWN_MIN {
            problems.push(format!("{share} is {value:.3} on {own}, below {OWN_MIN}"));
        }
        for rival in RIVALS.iter().filter(|r| **r != share) {
            if result.value(rival) > value {
                problems.push(format!(
                    "{rival} ({:.3}) exceeds {share} ({value:.3}) on {own}",
                    result.value(rival)
                ));
            }
        }
        let vanishes = traced
            .iter()
            .any(|(w, r)| *w != own && r.value(share) <= OTHER_MAX);
        if !vanishes {
            problems.push(format!(
                "{share} stays above {OTHER_MAX} on every other workload"
            ));
        }
    }
    for warm in ["scan_join_warm", "index_probe"] {
        if let Some((_, result)) = traced.iter().find(|(w, _)| *w == warm) {
            let calls = result.value("embedding.model_calls_per_op");
            if calls != 0.0 {
                problems.push(format!(
                    "{warm} makes {calls} model calls per op, expected 0"
                ));
            }
        }
    }
    problems
}

fn noise_table(samples: &[(&str, Vec<ResultLine>)], vary_seed: bool) {
    println!(
        "\nrun-to-run noise ({} runs per workload, {})",
        samples[0].1.len(),
        if vary_seed {
            "a different seed each"
        } else {
            "all at one seed"
        }
    );
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "workload", "metric", "q1", "median", "q3", "iqr/med", "max dev"
    );
    for (workload, runs) in samples {
        for def in &END_TO_END {
            let values: Vec<f64> = runs.iter().map(|r| r.value(def.name)).collect();
            let [q1, q2, q3] = quartiles(&values);
            println!(
                "{workload:<16} {:<18} {q1:>14.5} {q2:>14.5} {q3:>14.5} {:>9.4} {:>9.4}",
                def.name,
                iqr_share(&values),
                max_rel_deviation(&values)
            );
        }
    }
    println!("\nA bound must be at least three times the widest iqr/med its metric shows.");
}

pub fn run_all(args: &Args) -> ExitCode {
    if args.quick {
        println!("QUICK RUN: shrunken inputs, one set-up, short windows; these numbers compare with nothing.");
    }
    let mut ok = true;
    if args.repeat > 0 {
        let mut samples: Vec<(&str, Vec<ResultLine>)> =
            WORKLOADS.iter().map(|w| (*w, Vec::new())).collect();
        for round in 0..args.repeat {
            for (workload, runs) in &mut samples {
                let seed = args.seed + if args.vary_seed { round as u64 } else { 0 };
                match run_child(args, workload, seed, false) {
                    Ok(result) => {
                        println!(
                            "round {round} {workload} seed {seed}: {}",
                            END_TO_END
                                .iter()
                                .map(|d| format!("{}={:.5}", d.name, result.value(d.name)))
                                .collect::<Vec<_>>()
                                .join(" ")
                        );
                        ok &= result.correct;
                        runs.push(result);
                    }
                    Err(message) => {
                        eprintln!("cej-benchmark: {message}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        noise_table(&samples, args.vary_seed);
        return exit_code(ok);
    }

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for workload in WORKLOADS {
        for (trace, sink) in [(false, &mut untraced), (true, &mut traced)] {
            match run_child(args, workload, args.seed, trace) {
                Ok(result) => {
                    if !result.correct {
                        eprintln!(
                            "cej-benchmark: {workload} (trace {}) returned wrong results: {} failed ops",
                            u8::from(trace),
                            result.failed
                        );
                        ok = false;
                    }
                    sink.push((workload, result));
                }
                Err(message) => {
                    eprintln!("cej-benchmark: {message}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!(
        "seed {} | {} s per run | threads {}",
        args.seed,
        args.seconds(),
        cej_exec::default_threads()
    );
    print_table("end-to-end (untraced runs)", &END_TO_END, &untraced);
    print_table("per-layer (traced runs)", &PER_LAYER, &traced);
    if args.check_shares {
        let problems = check_shares(&traced);
        if problems.is_empty() {
            println!(
                "\nlayer shares: each layer leads its own workload and vanishes on another [ok]"
            );
        } else {
            for problem in &problems {
                eprintln!("cej-benchmark: share check: {problem}");
            }
            ok = false;
        }
    }
    exit_code(ok)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(pairs: &[(&str, f64)]) -> ResultLine {
        ResultLine {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn share_check_accepts_separated_workloads_and_names_merged_ones() {
        let good = vec![
            (
                "scan_join_warm",
                result(&[("share.vector", 0.7), ("share.embedding", 0.1)]),
            ),
            (
                "adhoc_cold",
                result(&[("share.embedding", 0.6), ("share.vector", 0.05)]),
            ),
            (
                "index_probe",
                result(&[("share.index", 0.8), ("share.delta", 0.0)]),
            ),
            (
                "serve_live",
                result(&[("share.delta", 0.5), ("share.index", 0.0)]),
            ),
        ];
        assert!(check_shares(&good).is_empty(), "{:?}", check_shares(&good));
        let merged = vec![
            (
                "scan_join_warm",
                result(&[("share.vector", 0.3), ("share.embedding", 0.5)]),
            ),
            (
                "adhoc_cold",
                result(&[("share.embedding", 0.6), ("share.vector", 0.3)]),
            ),
            (
                "index_probe",
                result(&[
                    ("share.index", 0.8),
                    ("share.vector", 0.2),
                    ("embedding.model_calls_per_op", 2.0),
                ]),
            ),
            (
                "serve_live",
                result(&[("share.delta", 0.5), ("share.vector", 0.2)]),
            ),
        ];
        let problems = check_shares(&merged);
        assert!(problems.iter().any(|p| p.contains("below 0.4")));
        assert!(problems.iter().any(|p| p.contains("exceeds share.vector")));
        assert!(problems.iter().any(|p| p.contains("every other workload")));
        assert!(problems.iter().any(|p| p.contains("model calls")));
    }
}
