//! The repo benchmark.  See `benchmark/README.md` for what it measures and
//! why; `BENCHMARK.json` at the repo root is the machine-readable summary.
//!
//! ```text
//! cej-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last stdout line is the result
//!     object {"correct", "attempted", "failed", "metrics"}
//! cej-benchmark [--seed <n>] [--seconds <s>] [--quick] [--check-shares]
//!     every workload, each in its own process: an untraced run for the
//!     end-to-end metrics, then a traced run for the per-layer ones
//! cej-benchmark --repeat <N> | --seeds <N>
//!     noise calibration: N untraced passes at one seed (run-to-run noise
//!     alone) or at N consecutive seeds (what the acceptance harness does)
//! ```

mod gen;
mod json;
mod metrics;
mod oracle;
mod proc;
mod report;
mod runner;
mod span;
mod stats;
mod workloads;

use std::process::ExitCode;

use metrics::WORKLOADS;
use runner::{RunConfig, RunOutput};

/// The seed every recorded baseline uses, and the second seed a performance
/// claim must also hold on (see the README).
const DEFAULT_SEED: u64 = 20_240_513;
const DEFAULT_SECONDS: f64 = 20.0;
const QUICK_SECONDS: f64 = 1.0;
/// The program's worker-pool budget.  One: the sandbox's two CPUs are
/// hyperthreads that neighbours disturb independently, and an op that needs
/// both at once repeats three to four times worse than one that needs
/// either (README, "Noise").  Stability beats coverage here, so no metric
/// of the `cej-exec` scheduler is reported: it has nothing to schedule.
const THREADS: usize = 1;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub quick: bool,
    /// Noise calibration: this many untraced passes …
    pub repeat: usize,
    /// … each at its own seed (`--seeds`) or all at one (`--repeat`).
    pub vary_seed: bool,
    pub check_shares: bool,
}

impl Args {
    pub fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        repeat: 0,
        vary_seed: false,
        check_shares: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--quick" => args.quick = true,
            "--repeat" | "--seeds" => {
                args.repeat = value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))?;
                if args.repeat < 2 {
                    return Err(format!(
                        "{flag} needs at least 2 runs (5 or more to calibrate)"
                    ));
                }
                args.vary_seed = flag == "--seeds";
            }
            "--check-shares" => args.check_shares = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The program reads `CEJ_*` variables at first use; the benchmark fixes
/// them so a stray setting in the caller's shell cannot change the numbers:
/// all unset except the thread budget.
fn pin_environment() {
    let stray: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("CEJ_"))
        .collect();
    for key in stray {
        std::env::remove_var(key);
    }
    std::env::set_var("CEJ_THREADS", THREADS.to_string());
}

fn run_workload(name: &str, args: &Args) -> Option<RunOutput> {
    use workloads::{
        adhoc_cold::AdhocCold, index_probe::IndexProbe, scan_join_warm::ScanJoinWarm,
        serve_live::ServeLive,
    };
    let workload = WORKLOADS.iter().find(|w| **w == name)?;
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        quick: args.quick,
    };
    Some(match *workload {
        "scan_join_warm" => runner::run::<ScanJoinWarm>(&cfg),
        "adhoc_cold" => runner::run::<AdhocCold>(&cfg),
        "index_probe" => runner::run::<IndexProbe>(&cfg),
        _ => runner::run::<ServeLive>(&cfg),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("cej-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    // single-threaded here: nothing has read the environment yet
    pin_environment();
    match &args.workload {
        Some(name) => match run_workload(name, &args) {
            Some(out) => {
                report::print_metrics(&out);
                // the result object is the last line of stdout; a wrong
                // result is reported in it (`correct`, `failed`), not by
                // the exit code, so the caller always gets the numbers
                println!(
                    "{}",
                    json::result_line(out.correct, out.attempted, out.failed, &out.metrics)
                );
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "cej-benchmark: unknown workload `{name}` (one of {})",
                    WORKLOADS.join(", ")
                );
                ExitCode::from(2)
            }
        },
        None => report::run_all(&args),
    }
}
