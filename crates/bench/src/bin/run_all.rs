//! Runs every experiment binary's body in sequence (scaled down further), so
//! a single `cargo run --release -p cej-bench --bin run_all` regenerates the
//! whole evaluation section in one go.
//!
//! With `CEJ_REPORT=<path>` a JSON summary of per-section wall-clock times
//! is written as well — the artifact the CI bench-smoke job archives on
//! every run.

use std::time::{Duration, Instant};

use cej_bench::experiments::{self, DIM};
use cej_bench::harness::{fmt_ms, header, print_table, scaled};
use cej_bench::report::Report;
use cej_core::{ContextJoinSession, IndexJoinConfig, JoinStrategy};
use cej_embedding::{FastTextConfig, FastTextModel};
use cej_index::HnswParams;
use cej_relational::{LogicalPlan, SimilarityPredicate};
use cej_workload::{JoinWorkload, RelationSpec};

fn main() {
    header(
        "Run-all",
        "every table and figure of the evaluation, small scale",
    );
    let mut report = Report::new("run_all");
    report.push_value("threads", cej_exec::default_threads() as f64);
    report.push_value(
        "pool_workers",
        cej_exec::ExecPool::global().threads() as f64,
    );
    println!(
        "simd isa: {}; pool workers: {}",
        cej_vector::SimdIsa::detect().label(),
        cej_exec::ExecPool::global().threads()
    );
    let section = |report: &mut Report, name: &str, body: &mut dyn FnMut()| {
        let start = Instant::now();
        body();
        report.push_elapsed(name, start.elapsed());
    };

    section(&mut report, "table02", &mut || {
        println!("\n--- Table II ---");
        for (query, matches) in experiments::table02_semantic_matches(15) {
            println!("{query:<12} {}", matches.join(", "));
        }
    });

    section(&mut report, "fig08", &mut || {
        println!("\n--- Figure 8 ---");
        let rows = experiments::fig08_nlj_logical_physical(&[(scaled(100), scaled(100))], DIM);
        for r in rows {
            println!(
                "{}: naive {} / {} ms, prefetch {} / {} ms (model calls {} vs {})",
                r.sizes,
                fmt_ms(r.naive_no_simd),
                fmt_ms(r.naive_simd),
                fmt_ms(r.prefetch_no_simd),
                fmt_ms(r.prefetch_simd),
                r.naive_model_calls,
                r.prefetch_model_calls
            );
        }
    });

    section(&mut report, "fig09", &mut || {
        println!("\n--- Figure 9 ---");
        for (t, simd, no_simd) in
            experiments::fig09_thread_scalability(scaled(800), DIM, &[1, 2, 4])
        {
            println!(
                "threads {t}: SIMD {} ms, NO-SIMD {} ms",
                fmt_ms(simd),
                fmt_ms(no_simd)
            );
        }
    });

    section(&mut report, "fig10", &mut || {
        println!("\n--- Figure 10 ---");
        for (label, ops, ordered, unordered) in experiments::fig10_input_sizes(
            &[(scaled(1_000), scaled(500)), (scaled(500), scaled(1_000))],
            DIM,
            1,
        ) {
            println!(
                "{label} ({ops} comparisons): heuristic {} ms, as-given {} ms",
                fmt_ms(ordered),
                fmt_ms(unordered)
            );
        }
    });

    section(&mut report, "fig11_fig12", &mut || {
        println!("\n--- Figures 11 & 12 ---");
        for r in experiments::fig11_nlj_vs_tensor(&[scaled(2_560_000)], &[4, 64, 256]) {
            println!(
                "ops {} dim {:>3}: NLJ {} ns/elem, tensor {} ns/elem",
                r.fp32_ops, r.dim, r.first_ns, r.second_ns
            );
        }
        for r in experiments::fig12_batched_vs_non_batched(&[scaled(2_560_000)], &[64]) {
            println!(
                "ops {} dim {:>3}: batched {} ns/elem, non-batched {} ns/elem",
                r.fp32_ops, r.dim, r.first_ns, r.second_ns
            );
        }
    });

    section(&mut report, "fig13", &mut || {
        println!("\n--- Figure 13 ---");
        let n = scaled(2_000);
        for r in experiments::fig13_batch_size_impact(n, DIM, &[(n / 2, n / 2), (n / 10, n / 10)]) {
            println!(
                "{:<24} slowdown {:.2}x, RAM reduction {:.1}x",
                r.batch, r.relative_slowdown, r.ram_reduction
            );
        }
    });

    section(&mut report, "fig14", &mut || {
        println!("\n--- Figure 14 ---");
        for (label, tensor, nlj) in experiments::fig14_tensor_vs_nlj(
            &[
                (scaled(1_000), scaled(1_000)),
                (scaled(2_000), scaled(1_000)),
            ],
            DIM,
            1,
        ) {
            println!(
                "{label}: tensor {} ms, NLJ {} ms",
                fmt_ms(tensor),
                fmt_ms(nlj)
            );
        }
    });

    section(&mut report, "fig15_fig17", &mut || {
        println!("\n--- Figures 15-17 ---");
        for (name, predicate) in [
            ("Fig 15 (top-1)", SimilarityPredicate::TopK(1)),
            ("Fig 16 (top-32)", SimilarityPredicate::TopK(32)),
            ("Fig 17 (sim>0.9)", SimilarityPredicate::Threshold(0.9)),
        ] {
            println!("{name}");
            let rows = experiments::scan_vs_probe(
                scaled(100),
                scaled(10_000),
                DIM,
                predicate,
                &[10, 50, 100],
                true,
            );
            print_table(
                &[
                    "selectivity",
                    "Tensor",
                    "Tensor -filter",
                    "Index Lo",
                    "Index Hi",
                ],
                &experiments::scan_vs_probe_rows(&rows),
            );
        }
    });

    section(&mut report, "costmodel", &mut || {
        println!("\n--- Cost model ---");
        for (label, naive, prefetch, cn, cp) in
            experiments::costmodel_validation(&[(scaled(20), scaled(20))])
        {
            println!(
                "{label}: naive calls {naive}, prefetch calls {prefetch}, predicted {cn:.2e} vs {cp:.2e}"
            );
        }
    });

    let mut prepared_values: Vec<(&'static str, f64)> = Vec::new();
    section(&mut report, "prepared_repeat", &mut || {
        println!("\n--- Prepared queries: cold vs warm (same join executed 10x) ---");
        prepared_values = prepared_repeat(scaled(200), scaled(2_000), 10);
    });
    for (name, value) in prepared_values {
        report.push_value(name, value);
    }

    let mut serve_values: Vec<(&'static str, f64)> = Vec::new();
    section(&mut report, "serve_throughput", &mut || {
        println!("\n--- Serving: closed-loop clients vs a shared-session server ---");
        let summary = cej_bench::serve::serve_throughput(
            scaled(200).max(8),
            scaled(2_000).max(16),
            20,
            1_000,
            &[1, 4],
        );
        cej_bench::harness::print_table(
            &[
                "clients",
                "QPS",
                "warm p50 µs",
                "warm p95 µs",
                "warm p99 µs",
            ],
            &cej_bench::serve::serve_table(&summary),
        );
        println!(
            "scaling 1→4 clients {:.2}x; checksum {:08x}; admission burst {} served / {} rejected",
            summary.scaling_c4,
            summary.results_checksum,
            summary.admission_served,
            summary.admission_rejected
        );
        serve_values = vec![
            ("serve_scaling_c4", summary.scaling_c4),
            ("serve_checksum", f64::from(summary.results_checksum)),
        ];
    });
    for (name, value) in serve_values {
        report.push_value(name, value);
    }

    let mut accuracy_values: Vec<(&'static str, f64)> = Vec::new();
    section(&mut report, "planner_accuracy", &mut || {
        println!("\n--- Planner accuracy: q-error + advisor agreement ---");
        let summary = cej_bench::accuracy::planner_accuracy(scaled(400), scaled(4_000));
        cej_bench::harness::print_table(
            &["predicate", "est", "actual", "q-error"],
            &cej_bench::accuracy::accuracy_table(&summary.scan_rows),
        );
        println!(
            "scan q-error median {:.3} / max {:.3}; join q-error median {:.3}; \
             advisor agreement {:.0}%",
            summary.scan_qerr_median,
            summary.scan_qerr_max,
            summary.join_qerr_median,
            summary.advisor_agreement * 100.0
        );
        accuracy_values = vec![
            ("scan_qerr_median", summary.scan_qerr_median),
            ("scan_qerr_max", summary.scan_qerr_max),
            ("join_qerr_median", summary.join_qerr_median),
            ("advisor_agreement", summary.advisor_agreement),
        ];
    });
    for (name, value) in accuracy_values {
        report.push_value(name, value);
    }

    report.write_if_requested();
}

/// The plan-once / execute-many experiment: the same index join runs
/// `runs` times through one [`cej_core::PreparedQuery`].  The first (cold)
/// execution pays embedding prefetch and the HNSW build; every warm
/// execution reuses the session's embedding cache and the persistent index,
/// so the cold/warm gap is exactly the amortised per-query planning and
/// build cost.
fn prepared_repeat(outer_rows: usize, inner_rows: usize, runs: usize) -> Vec<(&'static str, f64)> {
    let workload = JoinWorkload::generate(
        RelationSpec::with_rows(outer_rows.max(2)),
        RelationSpec::with_rows(inner_rows.max(2)),
        77,
    );
    let model = FastTextModel::new(FastTextConfig {
        dim: DIM,
        ..FastTextConfig::default()
    })
    .expect("model construction");
    let mut session = ContextJoinSession::new();
    session.register_table("r", workload.outer.clone());
    session.register_table("s", workload.inner.clone());
    session.register_model("ft", model);
    session.with_strategy(JoinStrategy::Index(IndexJoinConfig {
        params: HnswParams::tiny(),
        range_probe_k: 8,
    }));

    let plan = LogicalPlan::e_join(
        LogicalPlan::scan("r"),
        LogicalPlan::scan("s"),
        "word",
        "word",
        "ft",
        SimilarityPredicate::TopK(1),
    );
    let prepared = session.prepare(&plan).expect("plan");

    let start = Instant::now();
    let cold_report = prepared.run().expect("cold run");
    let cold = start.elapsed();
    assert_eq!(cold_report.index_builds, 1, "cold run must build the index");

    let mut warm_total = Duration::ZERO;
    let mut warm_min = Duration::MAX;
    for _ in 1..runs.max(2) {
        let start = Instant::now();
        let warm_report = prepared.run().expect("warm run");
        let elapsed = start.elapsed();
        assert_eq!(warm_report.index_builds, 0, "warm runs must not build");
        warm_total += elapsed;
        warm_min = warm_min.min(elapsed);
    }
    let warm_runs = (runs.max(2) - 1) as u32;
    let warm_avg = warm_total / warm_runs;
    let speedup = cold.as_secs_f64() / warm_avg.as_secs_f64().max(1e-9);
    println!(
        "index join {}x{} (top-1): cold {} (1 HNSW build, {} model calls), \
         warm avg {} / min {} over {warm_runs} runs (speedup {speedup:.1}x, \
         0 model calls, 0 HNSW builds)",
        outer_rows,
        inner_rows,
        fmt_ms(cold),
        cold_report.embedding_stats.model_calls,
        fmt_ms(warm_avg),
        fmt_ms(warm_min),
    );
    vec![
        ("prepared_cold_ms", cold.as_secs_f64() * 1e3),
        ("prepared_warm_avg_ms", warm_avg.as_secs_f64() * 1e3),
        ("prepared_warm_min_ms", warm_min.as_secs_f64() * 1e3),
        ("prepared_speedup", speedup),
    ]
}
